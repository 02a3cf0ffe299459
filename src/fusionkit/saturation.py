"""Saturation machinery: classification flags, the extension axiom,
saturation checking, conjugation families and Alperin decomposition.
Conjugation families are searched breadth-first on image tuples
(``_reachable``); its Hom form is ``reachable_literal`` in
``tests/oracles.py``."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import NotAGroup, NotSaturated
from .fusion import FusionSystem, MorphismGroup
from .groups import (Hom, Subgroup, centralizer, normalizer, o_p, o_upper_p,
                     p_part, picker)


@dataclass(frozen=True)
class SubgroupClassification:
    """Per-subgroup saturation-theoretic flags for one fusion system."""

    system: FusionSystem
    fully_normalized: frozenset[tuple[int, ...]]
    fully_centralized: frozenset[tuple[int, ...]]
    fully_automized: frozenset[tuple[int, ...]]
    centric: frozenset[tuple[int, ...]]
    radical: frozenset[tuple[int, ...]]

    def is_fully_normalized(self, P: Subgroup) -> bool:
        return P.members in self.fully_normalized

    def is_fully_centralized(self, P: Subgroup) -> bool:
        return P.members in self.fully_centralized

    def is_fully_automized(self, P: Subgroup) -> bool:
        return P.members in self.fully_automized

    def is_centric(self, P: Subgroup) -> bool:
        return P.members in self.centric

    def cr_set(self) -> tuple[Subgroup, ...]:
        return tuple(P for P in self.system.subgroups()
                     if P.members in self.centric and P.members in self.radical)

    def crf_set(self) -> tuple[Subgroup, ...]:
        return tuple(P for P in self.cr_set()
                     if P.members in self.fully_normalized)


def aut_group(F: FusionSystem, P: Subgroup) -> MorphismGroup:
    return F.memo(("autgrp", P.members),
                  lambda: MorphismGroup(F.automorphisms(P)))


def o_upper_p_automorphisms(F: FusionSystem, P: Subgroup) -> tuple[Hom, ...]:
    """O^p(Aut_F(P)) as a set of morphisms."""
    mg = aut_group(F, P)
    sub = o_upper_p(mg.group.full_subgroup, F.p)
    return mg.homs_of(sub)


def classify(F: FusionSystem) -> SubgroupClassification:
    return F.memo("classification", lambda: _classify(F))


def _classify(F: FusionSystem) -> SubgroupClassification:
    S = F.support
    n_of: dict[tuple[int, ...], int] = {}
    c_of: dict[tuple[int, ...], int] = {}
    for P in F.subgroups():
        n_of[P.members] = normalizer(S, P).order
        c_of[P.members] = centralizer(S, P).order
    fully_n, fully_c, fully_a, centric, radical = set(), set(), set(), set(), set()
    for cls in F.classes():
        max_n = max(n_of[Q.members] for Q in cls)
        max_c = max(c_of[Q.members] for Q in cls)
        cls_centric = all(c_of[Q.members] <= Q.order
                          and centralizer(S, Q).member_set <= Q.member_set
                          for Q in cls)
        for Q in cls:
            if n_of[Q.members] == max_n:
                fully_n.add(Q.members)
            if c_of[Q.members] == max_c:
                fully_c.add(Q.members)
            if cls_centric:
                centric.add(Q.members)
    for P in F.subgroups():
        auts = F.automorphisms(P)
        aut_s = F.automizer_in(S, P)
        if len(aut_s) == p_part(len(auts), F.p):
            fully_a.add(P.members)
        mg = aut_group(F, P)
        core = o_p(mg.group.full_subgroup, F.p)
        inner = mg.subgroup_of(F.automizer_in(P, P))
        if inner is None:
            raise NotAGroup("automorphism is not in this group")
        if core == inner:
            radical.add(P.members)
    return SubgroupClassification(F, frozenset(fully_n), frozenset(fully_c),
                                  frozenset(fully_a), frozenset(centric),
                                  frozenset(radical))


# -- extension axiom -----------------------------------------------------------


def extension_group(F: FusionSystem, phi: Hom) -> Subgroup:
    """N_phi = {g in N_S(P) : phi^-1 c_g phi in Aut_S(P^phi)}."""
    phi = phi.cores()
    return _extension_group(F, phi, normalizer(F.support, phi.domain),
                            _automizer_keys(F, phi.codomain))


def _automizer_keys(F: FusionSystem, Q: Subgroup) -> frozenset:
    """Aut_S(Q) keyed by the images of gens(Q), which determine an
    automorphism of Q."""
    return frozenset(tuple(h(y) for y in Q.generators)
                     for h in F.automizer_in(F.support, Q))


def _extension_group(F: FusionSystem, phi: Hom, n_s_p: Subgroup,
                     aut_s_keys: frozenset) -> Subgroup:
    """N_phi for an isomorphism ``phi`` onto its codomain Q, given
    N_S(dom phi) and the keys of Aut_S(Q) on gens(Q) (``_automizer_keys``).

    With pre = phi^-1(gens(Q)), g is in N_phi iff phi(pre^g) is a key, that
    is iff pre^g is a key pulled back through the bijection phi^-1, so each
    g costs one pick of pre off its conjugation row."""
    P, Q = phi.domain, phi.codomain
    back = dict(zip(phi.images, P.members))
    if len(back) != P.order:
        raise NotAGroup("only isomorphisms onto the codomain invert")
    pull = back.__getitem__
    of_pre = picker(list(map(pull, Q.generators)))
    pulled = {tuple(map(pull, key)) for key in aut_s_keys}
    row = F.universe.conj_row
    out = [g for g in n_s_p.members if of_pre(row(g)) in pulled]
    return Subgroup(F.universe, tuple(out), check=False)


def extend_morphism(F: FusionSystem, phi: Hom, U: Subgroup) -> Optional[Hom]:
    """Some psi in Hom_F(U, S) with psi|_P = phi, or None (Absent)."""
    return next(F.extensions(phi, U), None)


@dataclass(frozen=True)
class SaturationReport:
    ok: bool
    failures: tuple[dict, ...]

    def __bool__(self) -> bool:
        return self.ok


def is_saturated(F: FusionSystem) -> SaturationReport:
    """Sylow axiom plus extension axiom, checked exhaustively.

    Saturated iff every fully normalized subgroup is fully automized and
    fully centralized, and every isomorphism onto a fully centralized
    subgroup extends over its extension group.
    """
    return F.memo("saturation", lambda: _saturation_report(F))


def _saturation_report(F: FusionSystem) -> SaturationReport:
    failures: list[dict] = []
    cls = classify(F)
    for P in F.subgroups():
        if not cls.is_fully_normalized(P):
            continue
        if not cls.is_fully_automized(P):
            failures.append({"axiom": "sylow", "kind": "not_fully_automized",
                             "subgroup": list(P.members)})
        if not cls.is_fully_centralized(P):
            failures.append({"axiom": "sylow", "kind": "not_fully_centralized",
                             "subgroup": list(P.members)})
    aut_s_keys: dict[tuple[int, ...], frozenset] = {}
    for P in F.subgroups():
        n_s_p = None
        for phi in F.isos_from(P):
            Q = phi.codomain
            if not cls.is_fully_centralized(Q):
                continue
            if n_s_p is None:
                n_s_p = normalizer(F.support, P)
            keys = aut_s_keys.get(Q.members)
            if keys is None:
                keys = aut_s_keys[Q.members] = _automizer_keys(F, Q)
            nphi = _extension_group(F, phi, n_s_p, keys)
            if extend_morphism(F, phi, nphi) is None:
                failures.append({"axiom": "extension",
                                 "subgroup": list(P.members),
                                 "images": list(phi.images),
                                 "n_phi": list(nphi.members)})
    return SaturationReport(not failures, tuple(failures))


# -- conjugation families --------------------------------------------------------


@dataclass(frozen=True)
class FactorStep:
    """One factor: an automorphism of a family member, applied on stage."""

    member: Subgroup
    automorphism: Hom
    stage: Subgroup          # P_{i-1}, contained in member


@dataclass(frozen=True)
class Factorization:
    """phi = (phi_1|_{P_0}) . (phi_2|_{P_1}) . ... through a conjugation family."""

    domain: Subgroup
    steps: tuple[FactorStep, ...]

    def recompose(self) -> Hom:
        cur = Hom.identity(self.domain)
        for step in self.steps:
            cur = cur.then(step.automorphism.restrict_cores(cur.codomain))
        return cur


def _reachable(F: FusionSystem, P: Subgroup, family: Sequence[Subgroup],
               record_paths: bool = False):
    """Image keys of the morphisms from P reachable by composing
    restrictions of family automorphisms, breadth-first on image tuples:
    from a key whose image lies in a family member R, each automorphism a
    of R gives the key ``a(images)``, the key of h then a|_{im h}.  With
    ``record_paths``, also the (previous key, FactorStep) that first
    reached each key; no Hom or Subgroup is built otherwise."""
    moves = [(R, R.member_set, [(a, dict(zip(R.members, a.images)))
                                for a in F.automorphisms(R)])
             for R in family]
    start = P.members
    reached = {start}
    paths: Optional[dict] = {start: (None, None)} if record_paths else None
    queue: deque[tuple[int, ...]] = deque([start])
    while queue:
        images = queue.popleft()
        for R, rset, autos in moves:
            if not rset.issuperset(images):
                continue
            for a, amap in autos:
                new = tuple(map(amap.__getitem__, images))
                if new not in reached:
                    reached.add(new)
                    if paths is not None:
                        stage = Subgroup(F.universe, tuple(sorted(images)),
                                         check=False)
                        paths[new] = (images, FactorStep(R, a, stage))
                    queue.append(new)
    return reached, paths


def is_conjugation_family(F: FusionSystem, family: Sequence[Subgroup]) -> bool:
    """Exhaustive test: every morphism factors through the family.  The
    answer depends on F's content and the family alone, so it is memoized
    in F's slot under the family's member tuples."""
    fam = sorted(family, key=Subgroup.sort_key)
    return F.memo(("conjugation-family", tuple(R.members for R in fam)),
                  lambda: all(F._keys_from(P) <= _reachable(F, P, fam)[0]
                              for P in F.subgroups()))


def canonical_family(F: FusionSystem) -> tuple[Subgroup, ...]:
    """The centric radical fully normalized subgroups, canonical order."""
    return classify(F).crf_set()


def alperin_decompose(F: FusionSystem, phi: Hom) -> Factorization:
    """A factorization of phi through the centric-radical-fully-normalized
    family, found breadth-first (shortest certificate, deterministic)."""
    if not is_saturated(F):
        raise NotSaturated("Alperin decomposition needs a saturated system")
    phi = phi.cores()
    family = canonical_family(F)
    reached, paths = _reachable(F, phi.domain, family, record_paths=True)
    key = phi.images
    if key not in reached:
        raise NotSaturated("morphism does not factor through the family")
    steps: list[FactorStep] = []
    while True:
        prev, step = paths[key]
        if step is None:
            break
        steps.append(step)
        key = prev
    return Factorization(phi.domain, tuple(reversed(steps)))
