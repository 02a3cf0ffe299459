"""Saturation machinery: classification flags, the extension axiom,
saturation checking, conjugation families and Alperin decomposition.

The exhaustive predicates run on counts and keys, with the same
quantifiers, alarms and reports as their Hom forms in ``tests/oracles.py``
(``classify_literal``, ``saturation_report_literal``):

- fully automized is |N_S(P)| = |C_S(P)| |Aut_F(P)|_p, since Aut_S(P) is
  N_S(P)/C_S(P); one pass over S per P gives both orders;
- ``radical`` covers centric subgroups only: O_p(Aut_F(P)) is computed for
  centric P, the only ones ``cr_set`` reads;
- N_phi is a union of the classes of N_S(P) by their action on gens(P)
  (the cosets of C_S(P)), one member deciding each class, so N_S(P) is
  split once per P, each phi costs one pick per class and each union is
  built once;
- phi extends to N_phi iff phi.images is the restriction to P of the key
  of some morphism from N_phi, one set per (P, N_phi).

Conjugation families are searched breadth-first on image tuples
(``_reachable``); its Hom form is ``reachable_literal``."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain, compress
from typing import Callable, Optional, Sequence

from .errors import NotAGroup, NotSaturated
from .fusion import FusionSystem, MorphismGroup
from .groups import Hom, Subgroup, o_p, o_upper_p, p_part, picker


@dataclass(frozen=True)
class SubgroupClassification:
    """Per-subgroup saturation-theoretic flags for one fusion system.
    ``radical`` holds the radical subgroups among the centric ones only."""

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


def only_identity(homs: Sequence[Hom], P: Subgroup) -> bool:
    """Is the set of ``homs`` the identity of P alone?  Aut_F(P) = 1 is
    decided by it without a table, and a set of maps is a subgroup of the
    trivial group iff it is the identity alone."""
    return {h.images for h in homs} == {P.members}


def o_upper_p_automorphisms(F: FusionSystem, P: Subgroup) -> tuple[Hom, ...]:
    """O^p(Aut_F(P)) as a set of morphisms; Aut_F(P) itself, with no
    table, when it is the identity alone."""
    auts = F.automorphisms(P)
    if only_identity(auts, P):
        return auts
    mg = aut_group(F, P)
    sub = o_upper_p(mg.group.full_subgroup, F.p)
    return mg.homs_of(sub)


def classify(F: FusionSystem) -> SubgroupClassification:
    return F.memo("classification", lambda: _classify(F))


def _classify(F: FusionSystem) -> SubgroupClassification:
    """The flags on counts, read off the conjugation table of ``F.base``.
    One pass over S per P picks gens(P)^g for every g in S: g normalizes
    P iff that lies in P and centralizes P iff it is gens(P), so N_S(P)
    and C_S(P) come from one pass.  Fully
    automized compares |N_S(P)| with |C_S(P)| |Aut_F(P)|_p, since
    Aut_S(P) = {c_g|P : g in N_S(P)} and c_g|P = c_h|P iff g h^-1 is in
    C_S(P), so |Aut_S(P)| = |N_S(P)|/|C_S(P)|.  O_p(Aut_F(P)) is computed
    for centric P only, the only ones ``cr_set`` reads.  The
    inner-automizer alarm runs for every P.  It tests c_g|P for g in
    gens(P): the table of Aut_F(P) is closed under composition and c_gh|P
    = c_g|P then c_h|P, so Aut_P(P) lies in Aut_F(P) iff those maps do,
    and it is the subgroup they generate.  When Aut_F(P) is the identity
    alone, no table is built: the alarm is that some c_g|P is not the
    identity, that is, gens(P) do not commute, and O_p(Aut_F(P)) and
    Aut_P(P) are both trivial, so P is radical iff it is centric.  The Hom
    form is ``classify_literal`` in ``tests/oracles.py``."""
    S, base = F.support, F.base
    rows = base.rows(S.members)
    at = base.positions
    n_of: dict[tuple[int, ...], int] = {}
    c_of: dict[tuple[int, ...], int] = {}
    self_centralizing: dict[tuple[int, ...], bool] = {}
    for P in F.subgroups():
        gens, pset = P.generators, P.member_set
        acting = list(map(picker([at[x] for x in gens]), rows))
        n_of[P.members] = sum(map(pset.issuperset, acting))
        C = [g for g, key in zip(S.members, acting) if key == gens]
        c_of[P.members] = len(C)
        self_centralizing[P.members] = pset.issuperset(C)
    fully_n, fully_c, fully_a, centric, radical = set(), set(), set(), set(), set()
    for cls in F.classes():
        max_n = max(n_of[Q.members] for Q in cls)
        max_c = max(c_of[Q.members] for Q in cls)
        cls_centric = all(self_centralizing[Q.members] for Q in cls)
        for Q in cls:
            if n_of[Q.members] == max_n:
                fully_n.add(Q.members)
            if c_of[Q.members] == max_c:
                fully_c.add(Q.members)
            if cls_centric:
                centric.add(Q.members)
    for P in F.subgroups():
        auts = F.automorphisms(P)
        if n_of[P.members] == c_of[P.members] * p_part(len(auts), F.p):
            fully_a.add(P.members)
        if only_identity(auts, P):
            if not P.is_elementwise_commuting(P):
                raise NotAGroup("automorphism is not in this group")
            if P.members in centric:
                radical.add(P.members)
            continue
        mg = aut_group(F, P)
        of_members = picker([at[x] for x in P.members])
        inner = mg.group.generated_subgroup(
            [mg.index_of(Hom(P, P, of_members(base.row(g)), check=False))
             for g in P.generators])
        if P.members in centric and o_p(mg.group.full_subgroup, F.p) == inner:
            radical.add(P.members)
    return SubgroupClassification(F, frozenset(fully_n), frozenset(fully_c),
                                  frozenset(fully_a), frozenset(centric),
                                  frozenset(radical))


# -- extension axiom -----------------------------------------------------------


def extension_group(F: FusionSystem, phi: Hom) -> Subgroup:
    """N_phi = {g in N_S(P) : phi^-1 c_g phi in Aut_S(P^phi)}."""
    phi = phi.cores()
    return _extension_groups(F, phi.domain, {})(phi)


def _extension_groups(F: FusionSystem, P: Subgroup,
                      aut_s: dict[tuple[int, ...], tuple]
                      ) -> Callable[[Hom], Subgroup]:
    """phi -> N_phi for the maps phi from P onto their codomains, read off
    the conjugation table of ``F.base``.  gens(Q) and the keys of Aut_S(Q)
    on them, the gens(Q)^g inside Q for g in S, are kept in ``aut_s`` by
    the members of Q.

    With pre = phi^-1(gens(Q)) and pulled = {phi^-1(h(gens(Q))) : h in
    Aut_S(Q)}, g in N_S(P) lies in N_phi iff pre^g is in pulled.  As pre
    lies in P, pre^g depends on c_g|P alone, which c_g on gens(P) fixes:
    N_phi is a union of the classes of N_S(P) by their action on gens(P)
    (the cosets of C_S(P)), and one member decides its class.  So N_S(P)
    is split once per P, each phi costs one pick per class, and each
    union is built as a Subgroup once."""
    S = F.support
    row, at = F.base.row, F.base.positions
    s_rows = F.base.rows(S.members)
    pset = P.member_set
    acting = list(map(picker([at[x] for x in P.generators]), s_rows))
    classes: dict[tuple[int, ...], list[int]] = {}
    for g, key in compress(zip(S.members, acting),
                           map(pset.issuperset, acting)):
        classes.setdefault(key, []).append(g)
    blocks = list(classes.values())
    reps = [(1 << i, row(block[0])) for i, block in enumerate(blocks)]
    members, order = P.members, P.order
    made: dict[int, Subgroup] = {}

    def n_phi(phi: Hom) -> Subgroup:
        Q = phi.codomain
        back = dict(zip(phi.images, members))
        if len(back) != order:
            raise NotAGroup("only isomorphisms onto the codomain invert")
        got = aut_s.get(Q.members)
        if got is None:
            gens, qset = Q.generators, Q.member_set
            of_q = picker([at[x] for x in gens])
            got = aut_s[Q.members] = (gens, frozenset(
                filter(qset.issuperset, map(of_q, s_rows))))
        gens, keys = got
        pull = back.__getitem__
        of_pre = picker([at[pull(y)] for y in gens])
        pulled = {tuple(map(pull, key)) for key in keys}
        mask = 0
        for bit, r in reps:
            if of_pre(r) in pulled:
                mask |= bit
        got = made.get(mask)
        if got is None:
            inside = (block for i, block in enumerate(blocks) if mask >> i & 1)
            got = made[mask] = Subgroup(
                F.universe, tuple(sorted(chain.from_iterable(inside))),
                check=False)
        return got

    return n_phi


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
    """The report on keys.  N_phi comes from ``_extension_groups``, and phi
    extends to N_phi iff phi.images is the restriction to P of the key of
    some psi in ``isos_from(N_phi)``; that set is built once per (P,
    N_phi) (``FusionSystem.restriction_keys``).  Failures come in the
    order of the per-phi Hom form, ``saturation_report_literal`` in
    ``tests/oracles.py``."""
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
    aut_s: dict[tuple[int, ...], tuple] = {}
    for P in F.subgroups():
        isos = [phi for phi in F.isos_from(P)
                if phi.codomain.members in cls.fully_centralized]
        if not isos:
            continue
        n_phi = _extension_groups(F, P, aut_s)
        extends: dict[tuple[int, ...], frozenset] = {}
        for phi in isos:
            nphi = n_phi(phi)
            keys = extends.get(nphi.members)
            if keys is None:
                keys = extends[nphi.members] = F.restriction_keys(nphi, P)
            if phi.images not in keys:
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
