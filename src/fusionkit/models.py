"""Constrained fusion systems and their models: constrainedness, the
quotient-by-odd-core model construction (construct then verify), unique
normal-subgroup models, and the constrained local system used for R*.

F-normality of a subgroup P (``normal_in_system``) tests P normal in S
once, on F's conjugation table, and then runs on restriction keys: a
morphism phi from Q extends to some psi from QP with psi(P) = P iff
phi.images is the restriction to Q of the key of such a psi, so one set
of keys per (Q, P) answers for every phi from Q.  The F-normal subgroups
are memoized per system (``normal_subgroups_of_system``).  The per-phi
extension search is ``normal_in_system_literal`` in ``tests/oracles.py``.

A model is built on a normal centric subgroup Q that the caller proved
(``model_on``): N_W(Q)/O_{p'}(N_W(Q)) for the witness W.  Any normal
centric subgroup gives the same model up to isomorphism over S
(Aschbacher, Kessar and Oliver, *Fusion Systems in Algebra and Topology*,
2011, Part III, Section 5).  R* takes V = T C_S(T), which the witness
of the local system N_{N_F(T)}(V) proves normal and centric
(``constrained_local_system``), so no subgroup is tested for F-normality
and no saturation report of the local system is made; a local system with
no such witness raises NotConstrained.  ``model_of`` is the route on
O_p(F), found by that scan, which the suite keeps as a check.  The model
is N_W(Q)/O_{p'}(N_W(Q)), with N_W(Q) read off F's conjugation table.
Inside the model four steps have exact cheaper forms, each proved in its
docstring: O_{p'} is the join of the p'-class closures
(``groups.o_p_prime``), O_p(M) is the core of the verified Sylow image
(``_verify_model``), the fusion is compared on the sigma-images of F's
lattice, and ``normal_model`` searches only the normal subgroups above
the normal closure of T^sigma whose p-part stays at most |T|.  The model
on O_p(F) with the walks over every normal subgroup is
``model_on_o_p_literal`` in ``tests/oracles.py``.

A model is derived data of its system: it is built and verified once per
content and normal centric subgroup and kept in the system's registry
slot, so every local system that recurs within an entry reuses it.  The
Theorem A post-checks on R* and C_S(E) live in ``centralizers``.  Two
models are compared over S by an isomorphism search pinned on the images
of S (``find_isomorphism_extending``)."""

from __future__ import annotations

from typing import NamedTuple, Optional

from .errors import (ModelNotFound, ModelNotUnique, NotConstrained,
                     VerificationFailed)
from .fusion import FusionSystem, derived, fusion_of_group, transport_isos
from .groups import (FiniteGroup, Hom, Subgroup, as_group, centralizer,
                     conjugacy_classes, core, extend_by_generators,
                     normal_joins, normalizer, o_p_prime, p_part, quotient)
from .saturation import canonical_family, classify, is_saturated
from .subsystems import is_normal, normalizer_subsystem


def normal_in_system(F: FusionSystem, P: Subgroup) -> bool:
    """P is normal in F: every morphism extends to one acting on P.

    For saturated systems it is enough to test the automorphisms of the
    centric radical fully normalized family (every morphism factors through
    them and the extension condition is closed under the factoring steps);
    otherwise fall back to the full quantifier.

    One set of restriction keys per (Q, P), from
    ``FusionSystem.restriction_keys``, decides every phi from Q; see the
    module docstring.  P <= S is normal in S iff N_S(P) = S, read off F's
    conjugation table (``F.table_for``).
    """
    if normalizer(F.support, P, F.table_for(P)) != F.support:
        return False
    if is_saturated(F).ok:
        sources = [(R, F.automorphisms(R)) for R in canonical_family(F)]
    else:
        sources = [(Q, F.isos_from(Q)) for Q in F.subgroups()]
    for Q, homs in sources:
        if not homs:
            continue
        QP = Q.product(P)  # P is normal in S
        keys = F.restriction_keys(QP, Q, stabilizing=P)
        if any(phi.images not in keys for phi in homs):
            return False
    return True


@derived
def normal_subgroups_of_system(F: FusionSystem) -> tuple[Subgroup, ...]:
    """The subgroups normal in F, in canonical order."""
    return tuple(P for P in F.subgroups() if normal_in_system(F, P))


def o_p_system(F: FusionSystem) -> Subgroup:
    """O_p(F): the largest subgroup normal in F."""
    normals = normal_subgroups_of_system(F)
    best = max(normals, key=lambda P: P.order)
    if any(not P.member_set <= best.member_set for P in normals):
        raise VerificationFailed("normal subgroups of F are not directed")
    return best


def is_constrained(F: FusionSystem) -> tuple[bool, Optional[Subgroup]]:
    """Constrained = O_p(F) is centric; returns the flag and O_p(F), or None."""
    Q = o_p_system(F)
    if classify(F).is_centric(Q):
        return True, Q
    return False, None


class Model(NamedTuple):
    """A model for a constrained system: group M with the embedding of S."""

    group: FiniteGroup
    sigma: Hom                # injective: S -> M, image a Sylow p-subgroup

    @property
    def sylow_image(self) -> Subgroup:
        return self.sigma.image


def _verify_model(F: FusionSystem, M: FiniteGroup, sigma: Hom) -> None:
    """The alarms on a constructed model: sigma(S) is a Sylow p-subgroup
    of M, M's fusion on it is F's pushed by sigma, and C_M(O_p(M)) <=
    O_p(M).  The fusion is compared on the sigma-images of F's lattice,
    which are the subgroups of sigma(S) since sigma is injective (|S| is
    the p-part of |M|); a mismatch names the first one in the canonical
    order of M.  O_p(M) is the core of the Sylow subgroup sigma(S)."""
    p = F.p
    Ssig = sigma.image
    if Ssig.order != p_part(M.order, p):
        raise VerificationFailed("model image is not a Sylow p-subgroup")
    FM = fusion_of_group(M, Ssig, p)
    moved = transport_isos(F, sigma)
    bad = [mem for mem, keys in moved.items()
           if FM._keys_from(Subgroup(M, mem)) != keys]
    if bad:
        P = min(bad, key=lambda mem: (-len(mem), mem))
        raise VerificationFailed(
            f"model fusion differs from F at subgroup {list(P)}")
    Q = core(M.full_subgroup, Ssig)
    if not centralizer(M.full_subgroup, Q, Q).member_set <= Q.member_set:
        raise VerificationFailed("model is not p-constrained: C_M(O_p) leaves O_p")


def model_of(F: FusionSystem) -> Model:
    """The model of a constrained group-realized system on O_p(F): its
    F-normal-subgroup scan decides constrainedness, then ``model_on``
    builds the model.  The route ``verify`` keeps as a check of the
    cheaper one ``r_star`` takes."""
    if not F.realized:
        raise NotConstrained("model construction needs a group-realized system")
    constrained, Q = is_constrained(F)
    if not constrained:
        raise NotConstrained("system has no normal centric subgroup")
    return model_on(F, Q)


@derived
def model_on(F: FusionSystem, Q: Subgroup) -> Model:
    """Model for a group-realized system F = F_S(W) on a normal centric
    subgroup Q the caller proved: N_W(Q)/O_{p'}(N_W(Q)), with N_W(Q) read
    off F's conjugation table.

    Any normal centric subgroup gives the same model up to isomorphism
    over S (Aschbacher, Kessar and Oliver, *Fusion Systems in Algebra and
    Topology*, 2011, Part III, Section 5); every construction is
    verified exhaustively by ``_verify_model`` (Sylow image, fusion match,
    C_M(O_p(M)) <= O_p(M)), and a failure is an alarm, never a silent
    return.  Built once per content and Q: memoized in F's slot.

    A mutant that keeps a witness beside its own iso-sets (the mutation
    self-tests build them) may still be modelled on that witness: the
    fusion match of ``_verify_model`` compares the model with F's own
    table, so a witness that disagrees with it is an alarm.
    """
    if not F.realized:
        raise NotConstrained("model construction needs a group-realized system")
    W = F.witness
    H = normalizer(W, Q, F.table_for(Q))
    Hgrp, _ = as_group(H, name=f"N({F.name})")
    back = H.positions
    K = o_p_prime(Hgrp.full_subgroup, F.p)
    if K.is_trivial():      # H/1 is H: ``quotient`` would copy its table
        M, images = Hgrp, [back[x] for x in F.support.members]
    else:
        qt = quotient(Hgrp.full_subgroup, K)
        M = qt.group
        images = [qt.projection(back[x]) for x in F.support.members]
    sigma = Hom(F.support, M.full_subgroup, tuple(images))
    _verify_model(F, M, sigma)
    return Model(M, sigma)


def _normal_overgroups(M: FiniteGroup, A: Subgroup, p: int) -> list[Subgroup]:
    """The normal subgroups N of M with A <= N and |N|_p = |A|, A a
    p-subgroup.

    Such N contain the normal closure B of A, the join of the classes
    that meet A, and are the joins of B with normal closures of classes
    (atoms).  Each is reached from B by joining one atom at a time, every
    step inside N, so with p-part at most |N|_p = |A|; a join whose p-part
    exceeds |A| lies in no such N (|J| divides |N| for J <= N), and the
    walk (``groups.normal_joins``) does not keep it.  So the walk meets
    exactly these N."""
    G = M.full_subgroup
    aset = A.member_set
    B = M.generated_subgroup([x for cls in conjugacy_classes(G)
                              if not aset.isdisjoint(cls) for x in cls])
    if p_part(B.order, p) > A.order:
        return []
    joins = normal_joins(G, B, lambda J: p_part(J.order, p) <= A.order)
    return [N for N in joins if p_part(N.order, p) == A.order]


def normal_model(F: FusionSystem, model: Model, E: FusionSystem) -> Subgroup:
    """The unique normal subgroup of the model which is a model for E.

    A candidate N contains T^sigma, and its Sylow p-subgroup is N n
    sigma(S) = T^sigma; so only the normal subgroups above T^sigma whose
    order has p-part |T| are searched (``_normal_overgroups``), and those
    are all such candidates, so the uniqueness alarm stays exact.  The
    walk over every normal subgroup of the model is
    ``normal_model_literal`` in ``tests/oracles.py``."""
    p = F.p
    sigma = model.sigma
    M = model.group
    Tsig = sigma.subgroup_image(E.support)
    Ssig = model.sylow_image
    target = transport_isos(E, sigma)
    hits = []
    for N in _normal_overgroups(M, Tsig, p):
        if N.member_set & Ssig.member_set != Tsig.member_set:
            continue
        EN = FusionSystem(Tsig, p, witness=N)
        if all(EN._keys_from(Subgroup(M, mem)) == keys
               for mem, keys in target.items()):
            hits.append(N)
    if not hits:
        raise ModelNotFound("no normal subgroup of the model realizes the subsystem")
    if len(hits) > 1:
        raise ModelNotUnique(
            f"{len(hits)} normal subgroups realize the subsystem")
    return hits[0]


def _normal_centric_by_witness(D: FusionSystem, V: Subgroup) -> bool:
    """Is V normal and centric in D, by D's witness?  D = F_S(W) is given
    by W alone, V <= S, W normalizes V and C_S(V) <= V.  Then every
    morphism c_w of D extends to c_w on PV, which maps V onto V, so V is
    normal in D; its only D-conjugate is V, so V is centric."""
    return (D.from_witness
            and V.member_set <= D.support.member_set
            and V.is_normal_in(D.witness)
            and centralizer(D.support, V, D.table_for(V)).member_set
            <= V.member_set)


def constrained_local_system(F: FusionSystem, E: FusionSystem
                             ) -> tuple[FusionSystem, FusionSystem, Subgroup]:
    """The constrained local system N_{N_F(T)}(V), V = T C_S(T), N_E(T)
    inside it, and V, a normal centric subgroup of the local system.

    V is normal and centric when the local system is realized: its
    witness N_{N_W(T)}(V) normalizes V, and C_S(V) <= C_S(T) <= V since
    T <= V (``_normal_centric_by_witness`` checks both).  Then the model
    is W'/O_{p'}(W') for that witness W', and W'/O_{p'}(W') is
    p-constrained: C_{W'}(V) is normal in W', and its Sylow p-subgroup
    C_S(V) = Z(V) is central in it, so by Burnside's transfer theorem
    C_{W'}(V) = Z(V) x O_{p'}(C_{W'}(V)), whose p'-factor lies in
    O_{p'}(W').  By coprime action C_{W'/K}(VK/K) = C_{W'}(V)K/K for K =
    O_{p'}(W'): if gK centralizes VK/K, V^g is a Sylow p-subgroup of VK,
    so V^g = V^k for some k in K, and g k^-1 normalizes V and centralizes
    it modulo K, hence centralizes it, as V n K = 1.  So the centralizer
    of VK/K is Z(V)K/K <= VK/K, and so is that of O_p(W'/K) >= VK/K.
    A local system with no witness that normalizes V raises
    NotConstrained, as ``model_on`` does for a system with no witness.

    Always post-checked: N_E(T) is normal in the local system
    (``VerificationFailed`` otherwise).
    """
    T = E.support
    C = centralizer(F.support, T, F.table_for(T))
    V = T.product(C)  # C centralizes T
    N1 = normalizer_subsystem(F, T)
    Gsys = normalizer_subsystem(N1, V)
    NET = normalizer_subsystem(E, T)
    if not _normal_centric_by_witness(Gsys, V):
        raise NotConstrained(
            "local system for R* has no witness normalizing T C_S(T)")
    if not is_normal(Gsys, NET).normal:
        raise VerificationFailed("N_E(T) is not normal in the local system")
    return Gsys, NET, V


def script_G(F: FusionSystem, E: FusionSystem) -> tuple[FusionSystem, FusionSystem]:
    """The constrained local system N_{N_F(T)}(T C_S(T)) and N_E(T) inside
    it, post-checked as in ``constrained_local_system``."""
    Gsys, NET, _ = constrained_local_system(F, E)
    return Gsys, NET


# -- model uniqueness ---------------------------------------------------------


def find_isomorphism_extending(G1: FiniteGroup, G2: FiniteGroup,
                               pins: dict[int, int]) -> Optional[dict[int, int]]:
    """An isomorphism G1 -> G2 extending the pinned map, or None: a
    backtracking search over the pinned points, then gens(G1), each given
    an image of its order, that grows every partial assignment with
    ``groups.extend_by_generators`` and drops it on a conflict, a repeated
    image or a broken pin.  The search closing the partial map under
    products is ``find_isomorphism_literal`` in ``tests/oracles.py``."""
    if G1.order != G2.order:
        return None
    points = list(pins) + list(G1.full_subgroup.generators)

    def grow(gens: list[int], images: list[int], k: int
             ) -> Optional[dict[int, int]]:
        mp = extend_by_generators(G1, G2, gens, images)
        if (mp is None or len(set(mp.values())) < len(mp)
                or any(mp.get(x, y) != y for x, y in pins.items())):
            return None
        if len(mp) == G1.order:
            return mp
        while points[k] in mp:
            k += 1
        x = points[k]
        order = G1.element_order(x)
        for y in ([pins[x]] if x in pins else range(G2.order)):
            if G2.element_order(y) == order:
                got = grow(gens + [x], images + [y], k + 1)
                if got is not None:
                    return got
        return None
    return grow([], [], 0)


def models_isomorphic_over_s(F: FusionSystem, m1: Model, m2: Model) -> bool:
    """Is there an isomorphism m1.group -> m2.group matching the S-embeddings?"""
    pins = {m1.sigma(x): m2.sigma(x) for x in F.support.members}
    return find_isomorphism_extending(m1.group, m2.group, pins) is not None
