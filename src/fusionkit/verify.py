"""Theorem-by-theorem verification of a realized fusion system.

Every claim of the underlying theory maps to exactly one named check;
proof-internal lemmas are first-class checks so a regression localizes to
the earliest failing one.  A failing check carries a minimal counterexample
payload; an exception inside a check is recorded as a failure, never
propagated (corrupted inputs from mutation self-tests must fail cleanly).

Every check takes the realized system F = F_S(W) (``run_checks``), and
the data the checks share is derived data of F (``fusion.derived``): the
normal pairs of W, the candidate subsystems, the commuting pairs and the
top over a second Sylow subgroup.  Checks come in three scopes, each run
by one loop:

- entry scope (``saturation``, ``Finvariant.equiv``, ``focal-oracle``): the
  check takes F and builds its own payload;
- normal-pair scope (``_per_pair``): one predicate ``check(F, E)`` per
  normal subsystem E, stopping at the first failure, whose payload gains
  ``pair = {"N_order": |N|, "T": E's support}``;
- commuting-pair scope (``_per_commuting_pair``): one predicate
  ``check(F, E1, E2)`` per pair of normal subsystems with
  elementwise-commuting supports, whose failure payload starts with the
  supports ``S1`` and ``S2``.

A verifier takes only systems and reads each datum it tests from the one
function that computes it: E's keys in each C_F(Y)
(``centralizing_keys``), E's centralized family (``centralized_set``),
C_S(E) (``c_s_of``), the join MainCSE.a post-checks (``family_join``), R*
with its local system and model (``compute_centralizer_data``, or
``r_star`` where R* is derived again), C_F(E) (``c_F_of``), the candidate
subsystems, H(P) and A-circle(P) (``h_group``, ``a_circle``) and Z(F_i)
(``z_of``).  The shared ones are derived data of F, computed once per
content, and no check reads what another left, so a check run alone
reports what it reports in the full pass; a self-test corrupts a datum by
replacing that function, or by a mutant system.  The function to replace
is the name in its caller's module: this module's verifiers, all four
C_F(E) checks included, resolve ``verify.centralized_set``,
``verify.centralizing_keys``, ``verify.c_F_of`` and the rest, while the
functions of ``centralizers`` resolve ``centralizers.centralized_set`` and
``centralizers.centralizing_keys``.  Finvariant.equiv reads the six
invariance conditions from one call (``invariance_conditions``).
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .centralizers import (a_circle, c_F_of, c_s_counterexample, c_s_of,
                           centralized_set, centralizing_keys,
                           compute_centralizer_data,
                           contained_in_centralizer, family_join,
                           focal_subgroup, h_group, hyperfocal_subgroup,
                           normalizer_family, r_star, r_star_counterexample,
                           z_of)
from .errors import FusionkitError, VerificationFailed
from .fusion import (FusionSystem, Hom, close_morphisms, derived,
                     fusion_of_group, inner_system, subsystem_contains)
from .groups import (FiniteGroup, Subgroup, Twist, centralizer,
                     derived_subgroup, normal_subgroups, picker,
                     subgroup_lattice, sylow_subgroup)
from .models import (Model, is_constrained, model_of, models_isomorphic_over_s,
                     normal_model, normal_subgroups_of_system, script_G)
from .products import (ProductReport, centralize_each_other,
                       verify_product_theorems)
from .saturation import (aut_group, classify, is_saturated,
                         o_upper_p_automorphisms)
from .subsystems import (centralizer_subsystem, extension_witness,
                         invariance_conditions, is_normal, is_strongly_closed,
                         is_weakly_closed, normal_subsystem_in,
                         normalizer_subsystem, realized_subsystem)

class CheckResult(NamedTuple):
    check_id: str
    status: str                      # "pass" | "fail"
    millis: float
    counterexample: Optional[dict] = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self, timings: bool = False) -> dict:
        out: dict = {"id": self.check_id, "status": self.status}
        if timings:
            out["millis"] = round(self.millis, 3)
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


def _sub(P: Subgroup) -> list[int]:
    return list(P.members)


# -- the entry's shared data, derived from F ------------------------------------------


def _group_of(F: FusionSystem) -> Subgroup:
    """The group W of F = F_S(W), which the normal pairs, the second
    Sylow subgroup and the focal oracle read; a typed failure when F has
    none."""
    if not F.realized:
        raise VerificationFailed("group-level checks need a realized F")
    return F.witness


@derived
def normal_pairs(F: FusionSystem) -> tuple[tuple[Subgroup, FusionSystem], ...]:
    """(N, E) per normal subgroup N of F's witness, E = F_{S n N}(N),
    deduplicated by the subsystem."""
    seen: dict[tuple, tuple[Subgroup, FusionSystem]] = {}
    for N in normal_subgroups(_group_of(F)):
        E = normal_subsystem_in(F, N)
        key = tuple(sorted(
            (P.members, tuple(sorted(E._keys_from(P))))
            for P in E.subgroups()))
        if key not in seen:
            seen[key] = (N, E)
    return tuple(sorted(seen.values(), key=lambda pair: pair[0].sort_key()))


@derived
def candidate_subsystems(F: FusionSystem) -> tuple[FusionSystem, ...]:
    """Saturated subsystems built from subgroups and normal subgroups."""
    cands: list[FusionSystem] = []
    for P in F.subgroups():
        D = inner_system(F, P)
        if is_saturated(D).ok:
            cands.append(D)
    cands.extend(E for _, E in normal_pairs(F))
    return tuple(cands)


@derived
def commuting_pairs(F: FusionSystem) -> tuple[tuple[FusionSystem, FusionSystem], ...]:
    """(E1, E2) over the normal pairs, E1 first, with [S1, S2] = 1."""
    pairs = []
    es = [E for _, E in normal_pairs(F)]
    for i, E1 in enumerate(es):
        for E2 in es[i:]:
            if E1.support.is_elementwise_commuting(E2.support):
                pairs.append((E1, E2))
    return tuple(pairs)


@derived
def alternative_sylow(F: FusionSystem) -> Optional[tuple[int, FusionSystem]]:
    """(g, F_{S^g}(W)) for the smallest g in F's witness W with S^g != S,
    built once; None when S is the unique Sylow p-subgroup of W."""
    W = _group_of(F)
    for g in W.members:
        S2 = F.support.conjugate(g)
        if S2 != F.support:
            return g, fusion_of_group(W, S2, F.p)
    return None


def transported(F: FusionSystem, E: FusionSystem
                ) -> Optional[tuple[int, FusionSystem, FusionSystem]]:
    """(g, F2, E2): E carried by g to the alternative Sylow top F2, or
    None when S is the unique Sylow p-subgroup of F's witness."""
    alt = alternative_sylow(F)
    if alt is None:
        return None
    g, F2 = alt
    return g, F2, realized_subsystem(F2, E.witness, E.support.conjugate(g))


# -- per-claim verifiers (return a counterexample dict or None) ----------------------


def verify_ffef(F: FusionSystem, E: FusionSystem) -> Optional[dict]:
    """Fully F-normalized subgroups of T are fully E-normalized."""
    cls_f = classify(F)
    cls_e = classify(E)
    for P in E.subgroups():
        if cls_f.is_fully_normalized(P) and not cls_e.is_fully_normalized(P):
            return {"P": _sub(P)}
    return None


def verify_wellknown(F: FusionSystem, E: FusionSystem) -> Optional[dict]:
    """E^cr is invariant under F-conjugation."""
    cls_e = classify(E)
    cr = {P.members for P in cls_e.cr_set()}
    for P in E.subgroups():
        if P.members not in cr:
            continue
        for h in F.isos_from(P):
            if h.codomain.members not in cr:
                return {"P": _sub(P), "image": list(h.codomain.members)}
    return None


def verify_local_normal(F: FusionSystem, E: FusionSystem) -> Optional[dict]:
    """Per fully normalized Q <= T: Q in E^f, both locals saturated, and
    N_E(Q) normal in N_F(Q)."""
    cls_f = classify(F)
    cls_e = classify(E)
    for Q in E.subgroups():
        if not cls_f.is_fully_normalized(Q):
            continue
        NFQ, NEQ = normalizer_subsystem(F, Q), normalizer_subsystem(E, Q)
        if not cls_e.is_fully_normalized(Q):
            return {"Q": _sub(Q), "kind": "not fully E-normalized"}
        if not is_saturated(NFQ).ok:
            return {"Q": _sub(Q), "kind": "N_F(Q) not saturated"}
        if not is_saturated(NEQ).ok:
            return {"Q": _sub(Q), "kind": "N_E(Q) not saturated"}
        if not subsystem_contains(NFQ, NEQ):
            return {"Q": _sub(Q), "kind": "N_E(Q) not inside N_F(Q)"}
        report = is_normal(NFQ, NEQ)
        if not report.normal:
            return {"Q": _sub(Q), "kind": "N_E(Q) not normal in N_F(Q)",
                    "detail": [list(c) for c in report.counterexamples]}
    return None


def verify_prophelp(F: FusionSystem, E: FusionSystem) -> Optional[dict]:
    """For X fully normalized with X n T fully normalized and E-centric and
    X <= (X n T) C_S(T): the local system at X is constrained and saturated
    and N_E(X n T) is normal in it."""
    cls_f = classify(F)
    cls_e = classify(E)
    T = E.support
    CST = centralizer(F.support, T, F.table_for(T))
    for X in F.subgroups():
        if not cls_f.is_fully_normalized(X):
            continue
        Q = X.meet(T)
        if not (cls_f.is_fully_normalized(Q) and cls_e.is_centric(Q)):
            continue
        bound = set(Q.product_set(CST))
        if not X.member_set <= bound:
            continue
        CSX = centralizer(F.support, X, F.table_for(X))
        V = X.product(CSX)  # C_S(X) centralizes X
        FX = normalizer_subsystem(normalizer_subsystem(F, X), V)
        if not is_saturated(FX).ok:
            return {"X": _sub(X), "kind": "local system not saturated"}
        constrained, _ = is_constrained(FX)
        if not constrained:
            return {"X": _sub(X), "kind": "local system not constrained"}
        NEQ = normalizer_subsystem(E, Q)
        if not subsystem_contains(FX, NEQ):
            return {"X": _sub(X), "Q": _sub(Q),
                    "kind": "N_E(X n T) not inside the local system"}
        if not is_normal(FX, NEQ).normal:
            return {"X": _sub(X), "Q": _sub(Q),
                    "kind": "N_E(X n T) not normal in the local system"}
    return None


def verify_easy_centralizer(F: FusionSystem, E: FusionSystem) -> Optional[dict]:
    """Conjugating along morphisms defined on XT preserves centralizing:
    for each X <= C_S(T) and phi in Hom_F(XT, S), (a) X^phi <= C_S(T) and
    beta in C_F(X) iff beta^phi in C_F(X^phi) for every beta in E; (b) the
    centralized family and (c) that of N_E(T) are closed under X -> X^phi.

    Clause (a) runs as one set comparison per (X, phi).  K(Y), the set of
    E's image keys (P, beta) that lie in C_F(Y), is read for every Y <=
    C_S(T) from ``centralizing_keys``, whose first Y is C_S(T).  Let tau
    be the map (P, beta) -> (P^phi, beta^phi) on E's keys (``Twist``); it
    reads phi only on T, since P and the images of beta lie in T.  When
    tau maps E's keys one-to-one into E's keys it permutes them, and then
    clause (a) at (X, phi) says exactly tau(K(X)) = K(X^phi): each key k
    has k in K(X) iff tau(k) in C_F(X^phi), that is iff tau(k) in
    K(X^phi), and tau is onto.  For a normal E that precondition is the
    invariance of E under Aut_F(T) (Aschbacher-Kessar-Oliver, Fusion
    Systems in Algebra and Topology, 2011, Sec. I.6); for a corrupted
    system it can fail, so it is tested once per distinct phi|_T.  tau is
    computed once per phi|_T and tau(K(X)) once per (X, phi|_T).  Wherever
    tau is no permutation or the two sets differ, the loop over every
    beta runs for that (X, phi) (``_clause_a``), so a failure names the
    (P, beta) that loop names.  The loop for every (X, phi) is
    ``easy_centralizer_literal`` in ``tests/oracles.py``."""
    T = E.support
    rows = centralizing_keys(F, E)
    CST = rows[0][0]
    K = {Y.members: K_Y for Y, K_Y in rows}
    family = {X.members for X in centralized_set(F, E)}
    net_family = {X.members for X in normalizer_family(F, E)}
    keys = frozenset((P.members, b) for P in E.subgroups()
                     for b in E._keys_from(P))
    twists: dict[tuple[int, ...], Optional[dict]] = {}
    for X, K_X in rows:
        XT = X.product(T)  # X centralizes T
        at = XT.positions
        on_t = picker([at[t] for t in T.members])
        moved: dict[tuple[int, ...], frozenset] = {}
        for phi in F.isos_from(XT):
            Xphi = phi.subgroup_image(X)
            if not Xphi.member_set <= CST.member_set:
                return {"clause": "a", "X": _sub(X), "phi": list(phi.images),
                        "kind": "image leaves C_S(T)"}
            r = on_t(phi.images)
            if r not in twists:
                twists[r] = _key_twist(phi, E, keys)
            tau = twists[r]
            if tau is not None and r not in moved:
                moved[r] = frozenset(map(tau.__getitem__, K_X))
            if tau is None or moved[r] != K.get(Xphi.members):
                bad = _clause_a(F, E, X, phi, Xphi, K_X)
                if bad is not None:
                    return bad
            if X.members in family and Xphi.members not in family:
                return {"clause": "b", "X": _sub(X), "image": _sub(Xphi)}
            if X.members in net_family and Xphi.members not in net_family:
                return {"clause": "c", "X": _sub(X), "image": _sub(Xphi)}
    return None


def _key_twist(phi: Hom, E: FusionSystem, keys: frozenset) -> Optional[dict]:
    """tau: E's key (P, beta) -> (P^phi, beta^phi), or None unless it
    maps E's ``keys`` one-to-one into themselves."""
    tau = {}
    for P in E.subgroups():
        twist = Twist(phi, P)
        for b in E._keys_from(P):
            k = (twist.target, twist.images(b))
            if k not in keys:
                return None
            tau[(P.members, b)] = k
    return tau if len(set(tau.values())) == len(tau) else None


def _clause_a(F: FusionSystem, E: FusionSystem, X: Subgroup, phi: Hom,
              Xphi: Subgroup, K_X: frozenset) -> Optional[dict]:
    """Clause (a) of ``verify_easy_centralizer`` at one (X, phi), beta by
    beta in scan order; ``K_X`` holds E's keys that lie in C_F(X)."""
    C_Xphi = centralizer_subsystem(F, Xphi)
    for P in E.subgroups():
        twist = Twist(phi, P)
        for beta in E.isos_from(P):
            lhs = (P.members, beta.images) in K_X
            rhs = C_Xphi.contains_key(twist.target, twist.images(beta.images))
            if lhs != rhs:
                return {"clause": "a", "X": _sub(X), "P": _sub(P),
                        "beta": list(beta.images), "phi": list(phi.images)}
    return None


def verify_frattini_cons(F: FusionSystem, E: FusionSystem) -> Optional[dict]:
    """Aut_F(P) = H(P) A-circle(P) for every fully normalized P, as a
    product set on the table of Aut_F(P) (``aut_group``).  A
    counterexample names the first automorphism outside the product; a
    factor from ``h_group`` or ``a_circle`` that is not a subgroup of
    Aut_F(P), an empty one included, is one too."""
    cls = classify(F)
    for P in F.subgroups():
        if not cls.is_fully_normalized(P):
            continue
        A = aut_group(F, P)
        H, C = A.subgroup_of(h_group(F, E, P)), A.subgroup_of(a_circle(F, E, P))
        if H is None or C is None:
            return {"P": _sub(P), "kind": "factor is not a subgroup of Aut_F(P)"}
        product = set(H.product_set(C))
        if len(product) != A.group.order:
            return {"P": _sub(P), "missing": [min(
                h.images for i, h in enumerate(A.homs) if i not in product)]}
    return None


def verify_x_invariant(F: FusionSystem, E: FusionSystem) -> Optional[dict]:
    """The centralized family is invariant under taking F-conjugates."""
    X_set = centralized_set(F, E)
    family = {X.members for X in X_set}
    for X in X_set:
        for phi in F.isos_from(X):
            if phi.codomain.members not in family:
                return {"X": _sub(X), "image": list(phi.codomain.members)}
    return None


def verify_weakly_closed_centralized(F: FusionSystem, E: FusionSystem
                                     ) -> Optional[dict]:
    """Weakly closed R <= C_S(T) centralized by Aut_E(T) lie in the family."""
    T = E.support
    family = {X.members for X in centralized_set(F, E)}
    auts = [(T.members, a.images) for a in E.automorphisms(T)]
    for R, K_R in centralizing_keys(F, E):
        if not is_weakly_closed(F, R):
            continue
        if not K_R.issuperset(auts):
            continue
        if R.members not in family:
            return {"R": _sub(R)}
    return None


def verify_gn(F: FusionSystem, E: FusionSystem) -> Optional[dict]:
    """The R*-local system is constrained over S with N_E(T) normal in it.
    ``script_G`` proves it constrained from T C_S(T); the check also
    decides it by the F-normal-subgroup scan for O_p (``is_constrained``),
    the route of ``model_of``, which ``r_star`` does not take."""
    try:
        Gsys, NET = script_G(F, E)
        constrained, _ = is_constrained(Gsys)
    except FusionkitError as exc:
        return {"kind": str(exc)}
    if not constrained:
        return {"kind": "local system for R* is not constrained"}
    if Gsys.support != F.support:
        return {"kind": "local system is not over S"}
    if not is_saturated(Gsys).ok:
        return {"kind": "local system not saturated"}
    return None


def verify_cfcg0(F: FusionSystem, E: FusionSystem) -> Optional[dict]:
    """Aut_E(T) extends to TC_S(T) moving it only inside T and fixing any X
    whose centralizer contains N_E(T): one ``extension_witness`` per (X,
    alpha), X-major."""
    T = E.support
    targets = normalizer_family(F, E)
    alphas = E.automorphisms(T)
    for X in targets:
        for alpha in alphas:
            if extension_witness(F, alpha, T, fixed=X) is None:
                return {"X": _sub(X), "alpha": list(alpha.images)}
    return None


def verify_first_characterization(F: FusionSystem, E: FusionSystem
                                  ) -> Optional[dict]:
    """R* <= C_S(T) and the exact set equality {X <= C_S(T): N_E(T) <=
    C_F(X)} = subgroups of R*, for R* derived again by ``r_star``."""
    try:
        R_star = r_star(F, E)[0]
    except FusionkitError as exc:
        return {"kind": str(exc)}
    return r_star_counterexample(F, E, R_star)


def verify_main_cse_a(F: FusionSystem, E: FusionSystem) -> Optional[dict]:
    """C_S(E), the join of the family, is a member of it, its unique
    largest element, and strongly closed: the clauses ``c_s_of``
    post-checks, asked of the join here so that a failure is located."""
    X_set = centralized_set(F, E)
    return c_s_counterexample(F, E, X_set, family_join(F, X_set))


def verify_main_cse_b(F: FusionSystem, E: FusionSystem) -> Optional[dict]:
    """R* characterization plus model-choice independence via an
    alternative Sylow conjugate when one exists."""
    data = compute_centralizer_data(F, E)
    bad = r_star_counterexample(F, E, data.R_star)
    if bad is not None:
        bad.setdefault("kind", "characterization")
        return bad
    alt = transported(F, E)
    if alt is None:
        return None
    g, F2, E2 = alt
    try:
        R2 = r_star(F2, E2)[0]
    except FusionkitError as exc:
        return {"kind": "alternative model failed", "detail": str(exc)}
    G = F.universe
    ginv = G.inv(g)
    pulled = tuple(sorted(G.conj(x, ginv) for x in R2.members))
    if pulled != data.R_star.members:
        return {"kind": "model dependence", "R_star": _sub(data.R_star),
                "transported": list(pulled)}
    return None


def verify_main_cse_c(F: FusionSystem, E: FusionSystem) -> Optional[dict]:
    """Weakly closed subgroups of R* are in the family; C_S(E) is the
    largest weakly closed and the largest strongly closed subgroup of R*."""
    data = compute_centralizer_data(F, E)
    lattice = subgroup_lattice(data.R_star)
    weakly = [P for P in lattice if is_weakly_closed(F, P)]
    strongly = [P for P in lattice if is_strongly_closed(F, P)]
    largest = [max(Ps, key=lambda P: (P.order, P.members))
               for Ps in (weakly, strongly)]
    outside = [W for W in weakly if W not in data.X_set]
    if outside:
        return {"kind": "weakly closed outside family", "R": _sub(outside[0])}
    for how, got in zip(("weakly", "strongly"), largest):
        if got != data.C_S_E:
            return {"kind": f"largest {how} closed differs", "got": _sub(got),
                    "C_S_E": _sub(data.C_S_E)}
    return None


def verify_focprop(F: FusionSystem, E: FusionSystem) -> Optional[dict]:
    """foc(C_F(T)) <= C_S(E), and hence hyp(C_F(T)) <= C_S(E)."""
    C_S_E = c_s_of(F, E)
    CFT = centralizer_subsystem(F, E.support)
    foc = focal_subgroup(CFT)
    if not foc.member_set <= C_S_E.member_set:
        return {"kind": "focal", "foc": _sub(foc), "C_S_E": _sub(C_S_E)}
    hyp = hyperfocal_subgroup(CFT)
    if not hyp.member_set <= C_S_E.member_set:
        return {"kind": "hyperfocal", "hyp": _sub(hyp), "C_S_E": _sub(C_S_E)}
    return None


def verify_show_weakly_normal(F: FusionSystem, E: FusionSystem) -> Optional[dict]:
    report = is_normal(F, c_F_of(F, E))
    if not report.weakly_normal:
        return {"kind": "not weakly normal",
                "detail": [list(c) for c in report.counterexamples]}
    return None


def verify_cfe_normal(F: FusionSystem, E: FusionSystem) -> Optional[dict]:
    report = is_normal(F, c_F_of(F, E))
    if not report.normal:
        return {"kind": "not normal",
                "detail": [list(c) for c in report.counterexamples]}
    return None


def verify_main_cfe(F: FusionSystem, E: FusionSystem) -> Optional[dict]:
    """D <= C_F(E) iff D and E centralize each other, over all saturated
    candidate subsystems (plus C_F(E) itself)."""
    CFE = c_F_of(F, E)
    for D in candidate_subsystems(F) + (CFE,):
        inside = subsystem_contains(CFE, D)
        cen = centralize_each_other(F, D, E)
        if inside != cen:
            return {"D_support": _sub(D.support), "D": D.name,
                    "inside": inside, "centralize": cen}
    return None


def verify_coincide(F: FusionSystem, E: FusionSystem) -> Optional[dict]:
    """Aut_{C_F(E)}(P) = O^p(Aut_{C_F(T)}(P)) * Aut_{C_S(E)}(P) for every
    P fully normalized and centric in C_F(E), as a product set on the
    table of Aut_{C_F(E)}(P), where both factors must lie."""
    R = c_s_of(F, E)
    cfe = c_F_of(F, E)
    CFT = centralizer_subsystem(F, E.support)
    cls = classify(cfe)
    for P in cfe.subgroups():
        if not (cls.is_fully_normalized(P) and cls.is_centric(P)):
            continue
        op_auts = o_upper_p_automorphisms(CFT, P)
        r_auts = cfe.automizer_in(R, P)
        A = aut_group(cfe, P)
        op_part, aut_r = A.subgroup_of(op_auts), A.subgroup_of(r_auts)
        if (op_part is None or aut_r is None or op_part.product_set(aut_r)
                != A.group.full_subgroup.members):
            return {"kind": "automorphism product formula fails"}
    return None


def verify_finvariant_equiv(F: FusionSystem, E: FusionSystem) -> Optional[dict]:
    """The six conditions (a)-(f) of F-invariance agree on E."""
    values = invariance_conditions(F, E)
    if len(set(values.values())) > 1:
        return {"conditions": values, "T": _sub(E.support)}
    return None


def verify_model1a(F: FusionSystem, E: FusionSystem) -> Optional[dict]:
    """Models over alternative Sylow choices are isomorphic over the common S."""
    alt = transported(F, E)
    if alt is None:
        return None
    g, F2, E2 = alt
    data = compute_centralizer_data(F, E)
    try:
        Gsys2, _ = script_G(F2, E2)
        model2 = model_of(Gsys2)
    except FusionkitError as exc:
        return {"kind": "alternative model failed", "detail": str(exc)}
    conj = Hom.conjugation(F.support, g)
    sigma2 = conj.then(model2.sigma)
    moved = Model(model2.group, sigma2)
    if not models_isomorphic_over_s(data.local_system, data.model, moved):
        return {"kind": "no isomorphism over S between model choices"}
    return None


def verify_model1b(F: FusionSystem, E: FusionSystem) -> Optional[dict]:
    """In the R*-local system and its model (``compute_centralizer_data``),
    subgroups of S are normal in the system iff normal in the model;
    normal centric subgroups are self-centralizing in the model.  The
    subgroups normal in the system are its memoized
    ``normal_subgroups_of_system``."""
    data = compute_centralizer_data(F, E)
    F_of_model, M, sigma = data.local_system, data.model.group, data.model.sigma
    model_normals = {N.members for N in normal_subgroups(M.full_subgroup)}
    system_normals = {P.members for P in normal_subgroups_of_system(F_of_model)}
    cls = classify(F_of_model)
    for P in F_of_model.subgroups():
        Pm = sigma.subgroup_image(P)
        in_sys = P.members in system_normals
        in_model = Pm.members in model_normals
        if in_sys != in_model:
            return {"P": _sub(P), "normal_in_system": in_sys,
                    "normal_in_model": in_model}
        if in_sys and cls.is_centric(P):
            CM = centralizer(M.full_subgroup, Pm, Pm)
            if not CM.member_set <= Pm.member_set:
                return {"P": _sub(P), "kind": "C_M(P) leaves P"}
    return None


def verify_model1c(F: FusionSystem, E: FusionSystem) -> Optional[dict]:
    """The normal model exists and is unique (alarm types become failures)."""
    data = compute_centralizer_data(F, E)
    try:
        NET = normalizer_subsystem(E, E.support)
        N = normal_model(data.local_system, data.model, NET)
    except FusionkitError as exc:
        return {"kind": str(exc)}
    if N != data.N:
        return {"kind": "normal model differs from recorded one"}
    return None


# -- product checks -------------------------------------------------------------


def verify_l_f1f2(F: FusionSystem, E1: FusionSystem, E2: FusionSystem
                  ) -> Optional[dict]:
    """F_i <= C_F(S_{3-i}) forces S1 n S2 <= Z(F_i), directionally."""
    meet = E1.support.meet(E2.support)
    for Fi, Fj in ((E1, E2), (E2, E1)):
        contained = contained_in_centralizer(F, Fi, Fj.support)
        if contained and not meet.member_set <= z_of(Fi).member_set:
            return {"factor": _sub(Fi.support), "meet": _sub(meet)}
    return None


# -- the registry ------------------------------------------------------------------


EntryCheck = Callable[[FusionSystem], Optional[dict]]
PairCheck = Callable[[FusionSystem, FusionSystem], Optional[dict]]
ProductCheck = Callable[[FusionSystem, FusionSystem, FusionSystem], Optional[dict]]


def _per_pair(check: PairCheck) -> EntryCheck:
    """Normal-pair scope: ``check(F, E)`` for each normal pair (N, E)."""
    def run(F: FusionSystem) -> Optional[dict]:
        for N, E in normal_pairs(F):
            bad = check(F, E)
            if bad is not None:
                bad["pair"] = {"N_order": N.order, "T": _sub(E.support)}
                return bad
        return None
    return run


def _per_commuting_pair(check: ProductCheck) -> EntryCheck:
    """Commuting-pair scope: ``check(F, E1, E2)`` for each commuting pair;
    a failure may carry no detail beyond the two supports (an empty dict)."""
    def run(F: FusionSystem) -> Optional[dict]:
        for E1, E2 in commuting_pairs(F):
            bad = check(F, E1, E2)
            if bad is not None:
                return {"S1": _sub(E1.support), "S2": _sub(E2.support), **bad}
        return None
    return run


def _report_holds(holds: Callable[[ProductReport], bool]) -> ProductCheck:
    """A commuting-pair check reading one clause of the product report."""
    def check(F: FusionSystem, E1: FusionSystem, E2: FusionSystem
              ) -> Optional[dict]:
        return None if holds(verify_product_theorems(F, E1, E2)) else {}
    return check


def _check_star(F: FusionSystem, E1: FusionSystem, E2: FusionSystem
                ) -> Optional[dict]:
    """F1 * F2 is a saturated central product exactly when they centralize."""
    rep = verify_product_theorems(F, E1, E2)
    if rep.centralize:
        if rep.star_saturated is not True or rep.star_central_product is not True:
            return {"saturated": rep.star_saturated,
                    "central_product": rep.star_central_product}
    elif rep.star_central_product:
        return {"kind": "central product without centralizing factors"}
    return None


def _check_saturation(F: FusionSystem) -> Optional[dict]:
    report = is_saturated(F)
    if not report.ok:
        return dict(report.failures[0])
    for _, E in normal_pairs(F):
        rep = is_saturated(E)
        if not rep.ok:
            out = dict(rep.failures[0])
            out["pair"] = {"T": _sub(E.support)}
            return out
    return None


def _check_finvariant(F: FusionSystem) -> Optional[dict]:
    candidates: list[FusionSystem] = []
    for _, E in normal_pairs(F):
        candidates.append(E)
        candidates.append(inner_system(F, E.support))
    seen = set()
    for E in candidates:
        if E.content_key in seen:
            continue
        seen.add(E.content_key)
        bad = verify_finvariant_equiv(F, E)
        if bad is not None:
            return bad
    return None


def _check_focal_oracle(F: FusionSystem) -> Optional[dict]:
    """Independent group-theoretic oracle: foc(F_S(G)) = S n [G,G]."""
    foc = focal_subgroup(F)
    oracle = F.support.meet(derived_subgroup(_group_of(F)))
    if foc != oracle:
        return {"focal": _sub(foc), "oracle": _sub(oracle)}
    return None


def _generated_family(F: FusionSystem, E: FusionSystem) -> tuple[Subgroup, ...]:
    """The centralized family of E by the generating-set route: the X <=
    C_S(T) with Aut_E(Q) <= Aut_{C_F(X)}(Q) for each Q in E^crf.  Sound for
    saturated E, which those Aut_E(Q) generate (Alperin), so E <= C_F(X) iff
    they lie in C_F(X).  Only an oracle: on the unsaturated mutants of the
    self-tests Alperin fails, and the route can accept an X that the
    definition (``contained_in_centralizer``) rejects."""
    auts = [(Q, {h.images for h in E.automorphisms(Q)})
            for Q in classify(E).crf_set()]
    T = E.support
    CST = centralizer(F.support, T, F.table_for(T))
    return tuple(X for X in subgroup_lattice(CST)
                 if all(keys <= centralizer_subsystem(F, X)._keys_from(Q)
                        for Q, keys in auts))


def _check_centralizer_oracle(F: FusionSystem, E: FusionSystem) -> Optional[dict]:
    """The centralized families of E and of N_E(T), recomputed by the
    definition (``contained_in_centralizer`` for each X <= S that
    centralizes T) and by the generating-set route, match subgroup by
    subgroup; E's family also matches the memoized one C_S(E) was built
    from."""
    T = E.support
    NET = normalizer_subsystem(E, T)
    for where, D in (({}, E), ({"system": "N_E(T)"}, NET)):
        brute = [X.members for X in F.subgroups()
                 if X.is_elementwise_commuting(T)
                 and contained_in_centralizer(F, D, X)]
        structured = [X.members for X in _generated_family(F, D)]
        if brute != structured:
            return {**where, "brute": [list(X) for X in brute],
                    "structured": [list(X) for X in structured]}
        if D is E and brute != [X.members for X in
                                compute_centralizer_data(F, E).X_set]:
            return {"kind": "family drifted"}
    return None


CHECKS: dict[str, EntryCheck] = {
    "saturation": _check_saturation,
    "Finvariant.equiv": _check_finvariant,
    "FfEf": _per_pair(verify_ffef),
    "Wellknown": _per_pair(verify_wellknown),
    "LocalNormalSubsystems": _per_pair(verify_local_normal),
    "PropHelp": _per_pair(verify_prophelp),
    "EasyCentralizer": _per_pair(verify_easy_centralizer),
    "FrattiniCons": _per_pair(verify_frattini_cons),
    "XInvariant": _per_pair(verify_x_invariant),
    "WeaklyClosedCentralized": _per_pair(verify_weakly_closed_centralized),
    "GN": _per_pair(verify_gn),
    "CFCG0": _per_pair(verify_cfcg0),
    "FirstCharacterization": _per_pair(verify_first_characterization),
    "MainCSE.a": _per_pair(verify_main_cse_a),
    "MainCSE.b": _per_pair(verify_main_cse_b),
    "MainCSE.c": _per_pair(verify_main_cse_c),
    "FocProp": _per_pair(verify_focprop),
    "ShowWeaklyNormal": _per_pair(verify_show_weakly_normal),
    "CFENormal": _per_pair(verify_cfe_normal),
    "MainCFE": _per_pair(verify_main_cfe),
    "Coincide": _per_pair(verify_coincide),
    "Model1.a": _per_pair(verify_model1a),
    "Model1.b": _per_pair(verify_model1b),
    "Model1.c": _per_pair(verify_model1c),
    "RadicalIntersect": _per_commuting_pair(
        _report_holds(lambda rep: rep.radical_intersect)),
    "ZCentralize": _per_commuting_pair(
        _report_holds(lambda rep: rep.z_centralize_witnesses)),
    "NormalCentralizeEachOther": _per_commuting_pair(
        _report_holds(lambda rep: rep.iff_holds)),
    "L:F1F2Centralize": _per_commuting_pair(verify_l_f1f2),
    "P:F1F2Centralize": _per_commuting_pair(_check_star),
    "MainCentralProduct": _per_commuting_pair(
        _report_holds(lambda rep: not rep.centralize or rep.star_normal is True)),
    "focal-oracle": _check_focal_oracle,
    "centralizer-oracle": _per_pair(_check_centralizer_oracle),
}

CHECK_ORDER: tuple[str, ...] = tuple(CHECKS)


def run_suite(label: str, group: FiniteGroup, p: int,
              check_ids: Optional[Iterable[str]] = None,
              system_mutator: Optional[Callable[[FusionSystem], FusionSystem]] = None
              ) -> list[CheckResult]:
    """Run the named checks (all by default) on one corpus entry ``label``:
    ``run_checks`` on F_S(G), S the canonical Sylow p-subgroup of G.
    ``system_mutator`` lets the self-tests corrupt the built system."""
    F = fusion_of_group(group, sylow_subgroup(group.full_subgroup, p), p)
    if system_mutator is not None:
        F = system_mutator(F)
    return run_checks(F, check_ids)


def run_checks(F: FusionSystem, check_ids: Optional[Iterable[str]] = None
               ) -> list[CheckResult]:
    """Run the named checks (all by default) on the realized system F.

    Results come back in canonical id order; exceptions inside a check are
    recorded as failures carrying the error, so corrupted inputs cannot pass.
    """
    ids = list(check_ids) if check_ids is not None else list(CHECK_ORDER)
    unknown = [i for i in ids if i not in CHECKS]
    if unknown:
        raise KeyError(f"unknown check ids: {unknown}")
    results: list[CheckResult] = []
    for check_id in CHECK_ORDER:
        if check_id not in ids:
            continue
        start = time.perf_counter()
        try:
            bad = CHECKS[check_id](F)
        except Exception as exc:  # corrupted data must fail, not crash
            bad = {"error": f"{type(exc).__name__}: {exc}"}
        millis = (time.perf_counter() - start) * 1000.0
        results.append(CheckResult(check_id, "pass" if bad is None else "fail",
                                   millis, bad))
    return results


def suite_report(label: str, p: int, results: Sequence[CheckResult],
                 timings: bool = False) -> dict:
    return {"entry": label, "prime": p,
            "checks": [r.to_json(timings=timings) for r in results]}


# -- mutation helpers (self-tests of the harness) -------------------------------------


def with_replaced_isos(F: FusionSystem, P: Subgroup, homs: Sequence[Hom],
                       keep_witness: bool = False) -> FusionSystem:
    """A structurally-identical system with the iso-set at P replaced by
    the set of image keys of ``homs`` (a map given twice is one member).

    ``keep_witness`` keeps the realizing group attached (hom-sets still come
    from the explicit tables), so group-level constructions stay available
    while the fusion data is corrupted.  Its local systems are read off its
    iso-sets, and are the witness's only where the two agree
    (``subsystems._local``); a model is built from the witness and checked
    against the iso-sets (``models.model_on``)."""
    explicit = {Q.members: F._keys_from(Q) for Q in F.subgroups()}
    explicit[P.members] = frozenset(h.images for h in homs)
    return FusionSystem(F.support, F.p, explicit=explicit, ambient=F.ambient,
                        witness=F.witness if keep_witness else None,
                        name=f"{F.name}~mutated")


def with_removed_iso(F: FusionSystem, P: Subgroup, index: int,
                     keep_witness: bool = False) -> FusionSystem:
    homs = list(F.isos_from(P))
    del homs[index]
    return with_replaced_isos(F, P, homs, keep_witness=keep_witness)


def with_added_iso(F: FusionSystem, hom: Hom, close: bool = True,
                   keep_witness: bool = False) -> FusionSystem:
    """Adjoin a morphism.  By default take the closure of F's maps and
    ``hom`` under restriction, corestriction and composition
    (``close_morphisms``); it adds no inverses, so the result need not
    hold the inverse of each of its isomorphisms and need not be a fusion
    system (ROADMAP.md, item 7)."""
    if not close:
        homs = list(F.isos_from(hom.domain)) + [hom]
        return with_replaced_isos(F, hom.domain, homs, keep_witness=keep_witness)
    seeds = [(Q.members, key) for Q in F.subgroups()
             for key in F._keys_from(Q)]
    seeds.append((hom.domain.members, hom.images))
    explicit = close_morphisms(F.support, seeds)
    return FusionSystem(F.support, F.p, explicit=explicit, ambient=F.ambient,
                        witness=F.witness if keep_witness else None,
                        name=f"{F.name}+mutated")


def inner_only_shadow(F: FusionSystem) -> FusionSystem:
    """The inner fusion of S posing as F (witness kept): a corrupted system
    whose group-level data is honest but whose hom-sets forget all fusion."""
    explicit = close_morphisms(F.support, [])
    return FusionSystem(F.support, F.p, explicit=explicit, witness=F.witness,
                        ambient=F.ambient, name=f"{F.name}~inner-shadow")
