"""Constrained fusion systems and their models: constrainedness, the
quotient-by-odd-core model construction (construct then verify), unique
normal-subgroup models, and the constrained local system used for R*.

F-normality of a subgroup P (``normal_in_system``) runs on restriction
keys: a morphism phi from Q extends to some psi from QP with psi(P) = P
iff phi.images is the restriction to Q of the key of such a psi, so one
set of keys per (Q, P) answers for every phi from Q.  The per-phi
extension search is ``normal_in_system_literal`` in ``tests/oracles.py``.

A model is derived data of its system: ``model_of`` builds and verifies it
once per content and keeps it in the system's registry slot, so every local
system that recurs within an entry reuses it.  The Theorem A post-checks on
R* and C_S(E) live in ``centralizers``."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import (ModelNotFound, ModelNotUnique, NotConstrained,
                     VerificationFailed)
from .fusion import FusionSystem, fusion_of_group, transport_isos
from .groups import (FiniteGroup, Hom, Subgroup, as_group, centralizer,
                     normal_subgroups, normalizer, o_p, o_p_prime, p_part,
                     quotient)
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
    module docstring.
    """
    if not P.is_normal_in(F.support):
        return False
    if is_saturated(F).ok:
        sources = [(R, F.automorphisms(R)) for R in canonical_family(F)]
    else:
        sources = [(Q, F.isos_from(Q)) for Q in F.subgroups()]
    for Q, homs in sources:
        if not homs:
            continue
        QP = F.universe.generated_subgroup(Q.members + P.members)
        keys = F.restriction_keys(QP, Q, stabilizing=P)
        if any(phi.images not in keys for phi in homs):
            return False
    return True


def normal_subgroups_of_system(F: FusionSystem) -> tuple[Subgroup, ...]:
    return F.memo("F-normal-subgroups", lambda: tuple(
        P for P in F.subgroups()
        if P.is_normal_in(F.support) and normal_in_system(F, P)))


def o_p_system(F: FusionSystem) -> Subgroup:
    """O_p(F): the largest subgroup normal in F."""
    normals = normal_subgroups_of_system(F)
    best = normals[0]
    for P in normals:
        if P.order > best.order:
            best = P
    joined = best
    for P in normals:
        if not P.member_set <= joined.member_set:
            joined = joined.join(P)
    if joined != best:
        raise VerificationFailed("normal subgroups of F are not directed")
    return best


def is_constrained(F: FusionSystem) -> tuple[bool, Optional[Subgroup]]:
    """Constrained = O_p(F) is centric; returns the flag and O_p(F), or None."""
    Q = o_p_system(F)
    if classify(F).is_centric(Q):
        return True, Q
    return False, None


@dataclass(frozen=True)
class Model:
    """A model for a constrained system: group M with the embedding of S."""

    group: FiniteGroup
    sigma: Hom                # injective: S -> M, image a Sylow p-subgroup

    @property
    def sylow_image(self) -> Subgroup:
        return self.sigma.image


def _verify_model(F: FusionSystem, M: FiniteGroup, sigma: Hom) -> None:
    p = F.p
    Ssig = sigma.image
    if Ssig.order != p_part(M.order, p):
        raise VerificationFailed("model image is not a Sylow p-subgroup")
    FM = fusion_of_group(M, Ssig, p)
    moved = transport_isos(F, sigma)
    for P in FM.subgroups():
        if FM._keys_from(P) != moved[P.members]:
            raise VerificationFailed(
                f"model fusion differs from F at subgroup {list(P.members)}")
    Q = o_p(M.full_subgroup, p)
    if not centralizer(M.full_subgroup, Q, Q).member_set <= Q.member_set:
        raise VerificationFailed("model is not p-constrained: C_M(O_p) leaves O_p")


def model_of(F: FusionSystem) -> Model:
    """Model for a constrained group-realized system: N_G(O_p(F))/O_{p'}.

    The construction is verified exhaustively (Sylow image, fusion match,
    C_M(O_p(M)) <= O_p(M)); a verification failure is an alarm, never a
    silent return.  Built once per content: memoized in F's slot.
    """
    if not F.realized:
        raise NotConstrained("model construction needs a group-realized system")
    return F.memo("model", lambda: _model(F))


def _model(F: FusionSystem) -> Model:
    constrained, Q = is_constrained(F)
    if not constrained:
        raise NotConstrained("system has no normal centric subgroup")
    H = normalizer(F.witness, Q, F.table_for(Q))
    Hgrp, embed = as_group(H, name=f"N({F.name})")
    back = {g: i for i, g in enumerate(H.members)}
    K = o_p_prime(Hgrp.full_subgroup, F.p)
    qt = quotient(Hgrp.full_subgroup, K)
    M = qt.group
    sigma = Hom(F.support, M.full_subgroup,
                tuple(qt.projection(back[x]) for x in F.support.members),
                check=False)
    _verify_model(F, M, sigma)
    return Model(M, sigma)


def normal_model(F: FusionSystem, model: Model, E: FusionSystem) -> Subgroup:
    """The unique normal subgroup of the model which is a model for E."""
    p = F.p
    sigma = model.sigma
    M = model.group
    Tsig = sigma.subgroup_image(E.support)
    Ssig = model.sylow_image
    target = transport_isos(E, sigma)
    hits = []
    for N in normal_subgroups(M.full_subgroup):
        if not Tsig.member_set <= N.member_set:
            continue
        if p_part(N.order, p) != Tsig.order:
            continue
        if N.member_set & Ssig.member_set != Tsig.member_set:
            continue
        EN = FusionSystem(Tsig, p, witness=N)
        if all(EN._keys_from(Subgroup(M, mem, check=False)) == keys
               for mem, keys in target.items()):
            hits.append(N)
    if not hits:
        raise ModelNotFound("no normal subgroup of the model realizes the subsystem")
    if len(hits) > 1:
        raise ModelNotUnique(
            f"{len(hits)} normal subgroups realize the subsystem")
    return hits[0]


def script_G(F: FusionSystem, E: FusionSystem) -> tuple[FusionSystem, FusionSystem]:
    """The constrained local system N_{N_F(T)}(T C_S(T)) and N_E(T) inside it.

    Always post-checked: the local system is constrained and N_E(T) is
    normal in it (``VerificationFailed`` otherwise).  Its model comes from
    ``model_of``, built once per content.
    """
    T = E.support
    V = F.universe.generated_subgroup(
        T.members + centralizer(F.support, T, F.table_for(T)).members)
    N1 = normalizer_subsystem(F, T)
    Gsys = normalizer_subsystem(N1, V)
    NET = normalizer_subsystem(E, T)
    constrained, _ = is_constrained(Gsys)
    if not constrained:
        raise VerificationFailed("local system for R* is not constrained")
    if not is_normal(Gsys, NET).normal:
        raise VerificationFailed("N_E(T) is not normal in the local system")
    return Gsys, NET


# -- model uniqueness ---------------------------------------------------------


def _close_partial(G1: FiniteGroup, G2: FiniteGroup,
                   pairs: dict[int, int]) -> Optional[dict[int, int]]:
    """Multiplicative closure of a partial map; None on any conflict."""
    mp = dict(pairs)
    mp[0] = 0
    frontier = list(mp)
    while frontier:
        new = []
        for x in frontier:
            for g, h in list(mp.items()):
                for a, fa in ((G1.mul(x, g), G2.mul(mp[x], h)),
                              (G1.mul(g, x), G2.mul(h, mp[x]))):
                    old = mp.get(a)
                    if old is None:
                        mp[a] = fa
                        new.append(a)
                    elif old != fa:
                        return None
        frontier = new
    values = set(mp.values())
    if len(values) != len(mp):
        return None
    return mp


def find_isomorphism_extending(G1: FiniteGroup, G2: FiniteGroup,
                               pins: dict[int, int]) -> Optional[dict[int, int]]:
    """Backtracking isomorphism search G1 -> G2 extending the pinned map."""
    if G1.order != G2.order:
        return None
    base = _close_partial(G1, G2, pins)
    if base is None:
        return None
    return _extend_iso(G1, G2, base)


def _extend_iso(G1: FiniteGroup, G2: FiniteGroup,
                partial: dict[int, int]) -> Optional[dict[int, int]]:
    if len(partial) == G1.order:
        return partial
    x = min(g for g in range(G1.order) if g not in partial)
    used = set(partial.values())
    ox = G1.element_order(x)
    for y in range(G2.order):
        if y in used or G2.element_order(y) != ox:
            continue
        nxt = _close_partial(G1, G2, {**partial, x: y})
        if nxt is None:
            continue
        got = _extend_iso(G1, G2, nxt)
        if got is not None:
            return got
    return None


def models_isomorphic_over_s(F: FusionSystem, m1: Model, m2: Model) -> bool:
    """Is there an isomorphism m1.group -> m2.group matching the S-embeddings?"""
    pins = {m1.sigma(x): m2.sigma(x) for x in F.support.members}
    return find_isomorphism_extending(m1.group, m2.group, pins) is not None
