"""The centralizer of a normal subsystem: the centralized family, C_S(E) as
its join, the two automorphism subgroups of the Frattini factorization, R*
via models, focal and hyperfocal subgroups, and the centralizer subsystem
C_F(E).  The suite's predicates on these (the coincidence formula, the
closure properties of subgroups of R*) are its checks in ``verify``.

R* is C_S(N) for N the normal model of N_E(T) in a model of the
constrained local system N_{N_F(T)}(V), V = T C_S(T).  V is normal and
centric in that system by construction, and ``models`` proves it from the
system's witness, so the model is built on V (see
``models.constrained_local_system`` for the proof that W'/O_{p'}(W') is
p-constrained); the model on O_p of the local system is the same up to
isomorphism over S, so R* and the model orders are those of the literal
route.

Each datum has one source.  Which of E's image keys lie in C_F(Y), for
each Y <= C_S(T), and C_S(E) are derived data of F (``fusion.derived``):
``centralizing_keys`` and ``c_s_of`` compute them once per (F, E)
content.  E's centralized family is read off the keys
(``centralized_set``), as are EasyCentralizer and WeaklyClosedCentralized
in ``verify``.  The family of N_E(T) is ``centralized_set`` of N_E(T)
(``normalizer_family``), and Z(F) is C_S(F) of F run self-ambient
(``z_of``), so neither keeps a memo of its own.

Every other reader asks E <= C_F(X) by ``contained_in_centralizer``; the
``centralizer-oracle`` check of ``verify`` recomputes both families by it
and by the generating-set form.
Each Theorem A post-check is stated once, as a predicate returning a located
counterexample or None: ``c_s_counterexample`` for C_S(E) and
``r_star_counterexample`` for R*.  ``c_s_of`` and ``compute_centralizer_data``
raise TheoremViolation from them; the verification suite reports them.
A-circle and H(P) are decided on the table of Aut_F(P)
(``saturation.aut_group``) for every P, a one-element Aut_F(P) included;
their Hom forms are oracles in ``tests/oracles.py``.  T C_S(T)
and P N_T(P) are ``Subgroup.product``s, as one factor normalizes the
other."""

from __future__ import annotations

from collections.abc import Hashable
from functools import reduce
from typing import Callable, NamedTuple, Optional, Sequence

from .errors import TheoremViolation, VerificationFailed
from .fusion import (FusionSystem, derived, generated_subsystem,
                     subsystem_contains)
from .groups import (Hom, Subgroup, centralizer, normalizer, picker,
                     subgroup_lattice)
from .models import Model, constrained_local_system, model_on, normal_model
from .saturation import aut_group, o_upper_p_automorphisms
from .subsystems import (centralizer_subsystem, is_normal, is_strongly_closed,
                         normalizer_subsystem)


def contained_in_centralizer(F: FusionSystem, E: FusionSystem, X: Subgroup) -> bool:
    """E <= C_F(X): every hom-set of E lies in the centralizer subsystem of X
    (the support clause T <= C_S(X) included)."""
    return subsystem_contains(centralizer_subsystem(F, X), E)


@derived
def centralizing_keys(F: FusionSystem, E: FusionSystem
                      ) -> tuple[tuple[Subgroup, frozenset], ...]:
    """(Y, K(Y)) for each Y <= C_S(T), in canonical order: K(Y) is the set
    of E's image keys (P, beta) that lie in C_F(Y), read per P <= T as the
    keys from P that E and C_F(Y) share.  Y <= C_S(T) gives T <= C_S(Y),
    so E <= C_F(Y) exactly when K(Y) holds every key of E.  K(Y) is read
    once per content of C_F(Y), and equal sets are kept as one, so a full
    K(Y) is E's key set itself."""
    T = E.support
    CST = centralizer(F.support, T, F.table_for(T))
    from_p = [(P, E._keys_from(P)) for P in E.subgroups()]
    keys = frozenset((P.members, b) for P, bs in from_p for b in bs)
    seen = {keys: keys}
    by_content: dict[Hashable, frozenset] = {}
    out = []
    for Y in subgroup_lattice(CST):
        C_Y = centralizer_subsystem(F, Y)
        K = by_content.get(C_Y.content_key)
        if K is None:
            K = frozenset((P.members, b) for P, bs in from_p
                          for b in bs & C_Y._keys_from(P))
            K = by_content[C_Y.content_key] = seen.setdefault(K, K)
        out.append((Y, K))
    return tuple(out)


def centralized_set(F: FusionSystem, E: FusionSystem) -> tuple[Subgroup, ...]:
    """The centralized family: all X <= C_S(T) with E <= C_F(X), in
    canonical order, the X whose K(X) is full (``centralizing_keys``);
    C_S(E) is its largest member."""
    n = sum(len(E._keys_from(P)) for P in E.subgroups())
    return tuple(X for X, K in centralizing_keys(F, E) if len(K) == n)


def family_join(F: FusionSystem, X_set: Sequence[Subgroup]) -> Subgroup:
    """The join of a family of subgroups of S (the trivial subgroup when empty)."""
    return reduce(Subgroup.join, X_set, F.universe.trivial_subgroup)


def c_s_counterexample(F: FusionSystem, E: FusionSystem,
                       X_set: Sequence[Subgroup], C_S_E: Subgroup) -> Optional[dict]:
    """The Theorem A post-check on C_S(E), the one statement of its clauses:
    ``C_S_E`` is centralized by E, contains every member of the centralized
    family ``X_set`` (so it is the unique largest one), and is strongly
    closed.  Returns the first failing clause as a located counterexample,
    or None."""
    if not contained_in_centralizer(F, E, C_S_E):
        return {"kind": "join is not centralized", "C_S_E": list(C_S_E.members)}
    for X in X_set:
        if not X.member_set <= C_S_E.member_set:
            return {"kind": "family member escapes the join", "X": list(X.members)}
    if not is_strongly_closed(F, C_S_E):
        return {"kind": "not strongly closed", "C_S_E": list(C_S_E.members)}
    return None


@derived
def c_s_of(F: FusionSystem, E: FusionSystem) -> Subgroup:
    """C_S(E): the join of the centralized family.

    Post-verified by ``c_s_counterexample``; a failure raises a
    TheoremViolation alarm.
    """
    X_set = centralized_set(F, E)
    R = family_join(F, X_set)
    bad = c_s_counterexample(F, E, X_set, R)
    if bad is not None:
        raise TheoremViolation(f"C_S(E) post-check fails: {bad['kind']}")
    return R


# -- the two automorphism subgroups of the Frattini factorization ---------------


def a_circle(F: FusionSystem, E: FusionSystem, P: Subgroup) -> tuple[Hom, ...]:
    """Automorphisms moving P only inside P n T and restricting into E
    there, verified on the table of Aut_F(P) to form a normal subgroup."""
    T = E.support
    mul, inv = F.universe._mul, F.universe._inv
    PT = P.meet(T)
    pt = PT.member_set
    at = P.positions
    restrict = picker([at[x] for x in PT.members])
    out = []
    for phi in F.automorphisms(P):
        if not all(mul[inv[x]][y] in pt for x, y in zip(P.members, phi.images)):
            continue
        if restrict(phi.images) not in E._keys_from(PT):
            continue
        out.append(phi)
    A = aut_group(F, P)
    sub = A.subgroup_of(out)
    if sub is None:
        raise VerificationFailed("A-circle is not closed under composition")
    if not sub.is_normal_in(A.group.full_subgroup):
        raise VerificationFailed("A-circle is not normal in Aut_F(P)")
    return tuple(sorted(out, key=Hom.sort_key))


def h_group(F: FusionSystem, E: FusionSystem, P: Subgroup) -> tuple[Hom, ...]:
    """Automorphisms of P extending to automorphisms of P N_T(P), read
    off the restrictions of those (``restriction_keys``); verified on the
    table of Aut_F(P) to form a subgroup."""
    T = E.support
    NT = normalizer(T, P, F.table_for(P))
    PN = P.product(NT)  # NT normalizes P
    autos = F.automorphisms(P)
    keys = F.restriction_keys(PN, P, stabilizing=PN) if autos else frozenset()
    out = [phi for phi in autos if phi.images in keys]
    if aut_group(F, P).subgroup_of(out) is None:
        raise VerificationFailed("H(P) is not closed under composition")
    return tuple(sorted(out, key=Hom.sort_key))


# -- R* via models ----------------------------------------------------------------


def r_star(F: FusionSystem, E: FusionSystem
           ) -> tuple[Subgroup, FusionSystem, Model, Subgroup]:
    """R* = C_S(N) computed in a model of the constrained local system.

    Returns (R*, the local system, its model, the normal model of N_E(T)).
    A pure derivation: ``constrained_local_system`` post-checks the local
    system and proves V = T C_S(T) normal and centric in it from its
    witness, so the model is built on V (``model_on``) with no scan for
    O_p of the local system; any model on a normal centric subgroup is
    the same up to isomorphism over S, so R* and both model orders are
    those of the model on O_p.  The characterization of R* is
    post-checked by ``r_star_counterexample``, which
    ``compute_centralizer_data`` and the suite call.
    """
    Gsys, NET, Q = constrained_local_system(F, E)
    model = model_on(Gsys, Q)
    N = normal_model(Gsys, model, NET)
    sigma = model.sigma
    CSN = centralizer(model.sylow_image, N, N)
    members = tuple(x for x in F.support.members if sigma(x) in CSN.member_set)
    return Subgroup(F.universe, members), Gsys, model, N


def normalizer_family(F: FusionSystem, E: FusionSystem) -> tuple[Subgroup, ...]:
    """The centralized family of N_E(T), ``centralized_set(F, N_E(T))``:
    the X <= C_S(T) with N_E(T) <= C_F(X)."""
    return centralized_set(F, normalizer_subsystem(E, E.support))


def r_star_counterexample(F: FusionSystem, E: FusionSystem,
                          R_star: Subgroup) -> Optional[dict]:
    """The Theorem A post-check on R*, the one statement of its clauses:
    ``R_star`` <= C_S(T), and for every X <= C_S(T), N_E(T) <= C_F(X)
    exactly when X <= ``R_star``; the X with N_E(T) <= C_F(X) are
    ``normalizer_family``.  Returns the first failing clause as a
    located counterexample, or None."""
    T = E.support
    CST = centralizer(F.support, T, F.table_for(T))
    if not R_star.member_set <= CST.member_set:
        return {"kind": "R* leaves C_S(T)", "R_star": list(R_star.members)}
    family = {X.members for X in normalizer_family(F, E)}
    for X in subgroup_lattice(CST):
        inside = X.member_set <= R_star.member_set
        centralizes = X.members in family
        if inside != centralizes:
            return {"X": list(X.members), "inside_R_star": inside,
                    "centralizes": centralizes}
    return None


# -- focal and hyperfocal subgroups --------------------------------------------------


def _commutators(F: FusionSystem,
                 autos: Callable[[Subgroup], Sequence[Hom]]) -> Subgroup:
    """<[P, autos(P)] : P <= S>, generated by the x^-1 x^phi."""
    G = F.universe
    gens: set[int] = set()
    for P in F.subgroups():
        for phi in autos(P):
            for x in P.members:
                gens.add(G.mul(G.inv(x), phi(x)))
    return G.generated_subgroup(gens)


@derived
def focal_subgroup(F: FusionSystem) -> Subgroup:
    """foc(F) = <[P, Aut_F(P)] : P <= S>."""
    return _commutators(F, F.automorphisms)


@derived
def hyperfocal_subgroup(F: FusionSystem) -> Subgroup:
    """hyp(F) = <[P, O^p(Aut_F(P))] : P <= S>."""
    return _commutators(F, lambda P: o_upper_p_automorphisms(F, P))


# -- the centralizer subsystem ---------------------------------------------------


class CentralizerData(NamedTuple):
    """Everything the centralizer construction produces for one normal pair."""

    E: FusionSystem
    X_set: tuple[Subgroup, ...]
    C_S_E: Subgroup
    R_star: Subgroup
    local_system: FusionSystem
    model: Model
    N: Subgroup

    def to_json(self) -> dict:
        return {
            "T": list(self.E.support.members),
            "X_set": [list(X.members) for X in self.X_set],
            "C_S_E": list(self.C_S_E.members),
            "R_star": list(self.R_star.members),
            "model_order": self.model.group.order,
            "normal_model_order": self.N.order,
        }


@derived
def compute_centralizer_data(F: FusionSystem, E: FusionSystem) -> CentralizerData:
    """The family, C_S(E) and R* for one normal pair."""
    X_set = centralized_set(F, E)
    CSE = c_s_of(F, E)
    Rstar, Gsys, model, N = r_star(F, E)
    bad = r_star_counterexample(F, E, Rstar)
    if bad is not None:
        raise TheoremViolation(bad.get("kind") or (
            f"R* characterization fails at X={bad['X']}: "
            f"inside={bad['inside_R_star']} centralizes={bad['centralizes']}"))
    if not CSE.member_set <= Rstar.member_set:
        raise TheoremViolation("C_S(E) is not contained in R*")
    return CentralizerData(E, X_set, CSE, Rstar, Gsys, model, N)


def c_F_of(F: FusionSystem, E: FusionSystem,
           C_S_E: Optional[Subgroup] = None) -> FusionSystem:
    """C_F(E): the subsystem over C_S(E) generated by the p'-parts of the
    C_F(T)-automorphism groups; post-verified normal in F.

    The focal precondition foc(C_F(T)) <= C_S(E) is checked before any
    construction; it cannot fail on honest input, so a failure aborts.
    Memoized per E and support (``_c_F_of``).
    """
    return _c_F_of(F, E, C_S_E if C_S_E is not None else c_s_of(F, E))


@derived
def _c_F_of(F: FusionSystem, E: FusionSystem, R: Subgroup) -> FusionSystem:
    CFT = centralizer_subsystem(F, E.support)
    foc = focal_subgroup(CFT)
    if not foc.member_set <= R.member_set:
        raise TheoremViolation(
            "focal subgroup of C_F(T) is not contained in C_S(E)")
    gens: list[Hom] = []
    for P in subgroup_lattice(R):
        gens.extend(o_upper_p_automorphisms(CFT, P))
    CFE = generated_subsystem(F, R, gens)
    CFE.name = f"C_{F.name}(E_{E.support.order})"
    report = is_normal(F, CFE)
    if not report.normal:
        raise TheoremViolation(
            f"C_F(E) failed the normality report: {report.counterexamples}")
    return CFE


def z_of(F: FusionSystem) -> Subgroup:
    """Z(F): the largest subgroup X with F <= C_F(X) (F run self-ambient)."""
    return c_s_of(F, F)
