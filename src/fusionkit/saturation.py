"""Saturation machinery: classification flags, the extension axiom,
saturation checking, conjugation families and Alperin decomposition.

Saturation is decided in one of two ways.  A fusion system is saturated
iff each F-class of subgroups has a member that is fully automized and
receptive (Roberts-Shpectorov; Aschbacher-Kessar-Oliver, Prop. I.2.5 with
Lemma I.2.6(c)), and in a saturated system every fully normalized
subgroup is both.  So on a fusion system one fully normalized member per
F-class decides (``_saturated_by_classes``).  ``is_saturated`` takes
that test on a system given by its witness W alone over a support S
inside W, since F_S(W) is a fusion system: it holds F_S(S) and the
inverse of each isomorphism.  When the test passes the report is empty;
when it fails, and on every system with explicit iso-sets, the
exhaustive report is made.  That report is the one every failing payload
comes from, and its Hom form is ``saturation_report_literal`` in
``tests/oracles.py``.  Closures stay on it: ``close_morphisms`` adds no
inverses, so the closure of arbitrary seeds need not be a fusion system.

Both tests read N_S(P), C_S(P), Aut_S(P) and the S-conjugations from P
off one datum, S's action on P (``_classes_and_counts``): the cosets
C_S(P)g under their keys gens(P)^g, one pass over S per P.  The
exhaustive predicates run on counts and keys, with the same quantifiers,
alarms and reports as their Hom forms in ``tests/oracles.py``
(``classify_literal``, ``saturation_report_literal``):

- fully automized is |N_S(P)| = |C_S(P)| |Aut_F(P)|_p, since Aut_S(P) is
  N_S(P)/C_S(P);
- ``radical`` covers centric subgroups only: O_p(Aut_F(P)) is computed for
  centric P, the only ones ``cr_set`` reads;
- N_phi is a union of the cosets of C_S(P) in N_S(P), one member
  deciding each coset, so each phi costs one pick per coset and each
  union is built once;
- phi extends to N_phi iff phi.images is the restriction to P of the key
  of some morphism from N_phi, one set per (P, N_phi).

The statements about Aut_F(P) that need its group structure run on its
``MorphismGroup`` (``aut_group``); a one-element Aut_F(P) reads the
shared order-1 table, so O_p and O^p need no case of their own there.
The classification builds that table for centric P only, and runs the
inner-automizer alarm and its group checks on image keys for the rest.

Conjugation families are searched breadth-first on image tuples
(``_reachable``); its Hom form is ``reachable_literal``."""

from __future__ import annotations

from collections import deque
from itertools import chain
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .errors import NotAGroup, NotSaturated
from .fusion import FusionSystem, MorphismGroup, derived
from .groups import Hom, Subgroup, o_p, o_upper_p, p_part, picker


class SubgroupClassification(NamedTuple):
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


@derived
def aut_group(F: FusionSystem, P: Subgroup) -> MorphismGroup:
    return MorphismGroup(F.automorphisms(P))


def key_span(P: Subgroup, gens: Sequence[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """The image keys of the maps of P generated by the maps with keys
    ``gens``: the closure of the identity key under composition with each
    generator, on keys (h then g has the key ``picker(positions of
    h.images in P)(g.images)``, as in ``MorphismGroup``).  In a finite
    group the monoid generated is the group generated, so for
    automorphisms this is the subgroup they generate; no table is built."""
    at = P.positions
    span = {P.members}
    queue = [P.members]
    for key in queue:
        then = picker([at[y] for y in key])
        for g in gens:
            new = then(g)
            if new not in span:
                span.add(new)
                queue.append(new)
    return span


def key_generators(P: Subgroup, autos: Sequence[Hom]) -> Optional[list[Hom]]:
    """The maps of ``autos``, in order, that lie outside the span of those
    kept before them, when the image keys of ``autos`` are closed under
    composition, so that those maps generate them (``key_span``); None
    when they are not closed.

    A test that the identity passes, and whose passing maps are closed
    under composition, gives the same outcome looped over these
    generators as looped over ``autos``.  Let f be the first map of
    ``autos``, in order, that fails (with a payload or an exception).  The
    generators kept before f come before it, so they pass, and so does
    every map they generate; so f is not generated by them and is itself
    kept.  The loop over the generators therefore stops at the same f, or
    at none when no map fails."""
    keys = {h.images for h in autos}
    gens: list[Hom] = []
    span = {P.members}
    for h in autos:
        if h.images in span:
            continue
        gens.append(h)
        span = key_span(P, [g.images for g in gens])
        if not span <= keys:
            return None
    return gens if span == keys else None


@derived
def o_upper_p_automorphisms(F: FusionSystem, P: Subgroup) -> tuple[Hom, ...]:
    """O^p(Aut_F(P)) as a set of morphisms."""
    mg = aut_group(F, P)
    sub = o_upper_p(mg.group.full_subgroup, F.p)
    return mg.homs_of(sub)


@derived
def _classes_and_counts(F: FusionSystem) -> tuple[tuple, dict, dict, dict, dict]:
    """The F-classes (``FusionSystem.classes``), S's action on each
    subgroup P, and |N_S(P)|, |C_S(P)| and whether C_S(P) lies in P, by
    the members of P, read off the conjugation table of ``F.base`` with one
    pick of gens(P) per row of S: the one pass of the class test,
    ``classify`` and the extension groups.

    The action on P maps each gens(P)^g, g in S, to the tuple of the g
    giving it, in member order.  c_g|P is fixed by gens(P)^g, so the
    values are the cosets C_S(P)g, C_S(P) is the value at gens(P), and
    N_S(P) is the union of the values whose key lies in P."""
    S, base = F.support, F.base
    rows = base.rows(S.members)
    at = base.positions
    action: dict[tuple[int, ...], dict[tuple[int, ...], tuple[int, ...]]] = {}
    n_of: dict[tuple[int, ...], int] = {}
    c_of: dict[tuple[int, ...], int] = {}
    self_centralizing: dict[tuple[int, ...], bool] = {}
    for P in F.subgroups():
        gens, pset = P.generators, P.member_set
        found: dict[tuple[int, ...], list[int]] = {}
        for g, key in zip(S.members, map(picker([at[x] for x in gens]), rows)):
            found.setdefault(key, []).append(g)
        cosets = action[P.members] = {k: tuple(v) for k, v in found.items()}
        C = cosets[gens]
        n_of[P.members] = len(C) * sum(map(pset.issuperset, cosets))
        c_of[P.members] = len(C)
        self_centralizing[P.members] = pset.issuperset(C)
    return F.classes(), action, n_of, c_of, self_centralizing


@derived
def classify(F: FusionSystem) -> SubgroupClassification:
    """The flags on counts (``_classes_and_counts``).  Fully automized
    compares |N_S(P)| with |C_S(P)| |Aut_F(P)|_p, since Aut_S(P) = {c_g|P
    : g in N_S(P)} and c_g|P = c_h|P iff g h^-1 is in C_S(P), so
    |Aut_S(P)| = |N_S(P)|/|C_S(P)|.

    The table of Aut_F(P) (``aut_group``) is built for centric P only,
    the only ones ``cr_set`` reads: O_p(Aut_F(P)) and Aut_P(P) are closed
    there for the radical test.  Its construction raises ``NotAGroup`` on
    an automorphism set that is no group (empty, without the identity, or
    not closed under composition).  For every other P, ``key_generators``
    finds such a set on image keys, with no table, and only then is the
    table asked for, to raise the same error; so no count reads an empty
    set.  The inner-automizer alarm runs for every P, on image keys: it
    tests c_g|P for g in gens(P), since a table of Aut_F(P) is closed
    under composition and c_gh|P = c_g|P then c_h|P, so Aut_P(P) lies in
    Aut_F(P) iff those maps do, and it is the subgroup they generate.
    The Hom form, with a table for every P, is ``classify_literal`` in
    ``tests/oracles.py``."""
    base = F.base
    at = base.positions
    classes, _, n_of, c_of, self_centralizing = _classes_and_counts(F)
    fully_n, fully_c, fully_a, centric, radical = set(), set(), set(), set(), set()
    for cls in classes:
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
        is_centric = P.members in centric
        if is_centric or key_generators(P, auts) is None:
            mg = aut_group(F, P)     # raises NotAGroup unless auts is a group
        if n_of[P.members] == c_of[P.members] * p_part(len(auts), F.p):
            fully_a.add(P.members)
        of_members = picker([at[x] for x in P.members])
        inner = [of_members(base.row(g)) for g in P.generators]
        if not {h.images for h in auts}.issuperset(inner):
            raise NotAGroup("automorphism is not in this group")
        if is_centric and (o_p(mg.group.full_subgroup, F.p)
                           == mg.group.generated_subgroup(
                               mg.index_of(Hom(P, P, key)) for key in inner)):
            radical.add(P.members)
    return SubgroupClassification(F, frozenset(fully_n), frozenset(fully_c),
                                  frozenset(fully_a), frozenset(centric),
                                  frozenset(radical))


# -- extension axiom -----------------------------------------------------------


def _extension_groups(F: FusionSystem, P: Subgroup
                      ) -> Callable[[Hom], Subgroup]:
    """phi -> N_phi for the maps phi from P onto their codomains, read off
    S's action on P and on each codomain Q (``_classes_and_counts``):
    Aut_S(Q) on gens(Q) is the set of Q's keys that lie in Q.

    With pre = phi^-1(gens(Q)) and pulled = {phi^-1(h(gens(Q))) : h in
    Aut_S(Q)}, g in N_S(P) lies in N_phi iff pre^g is in pulled.  As pre
    lies in P, pre^g depends on c_g|P alone, which c_g on gens(P) fixes:
    N_phi is a union of the cosets of C_S(P) in N_S(P), the values of P's
    action whose key lies in P, and one member decides its coset.  So
    each phi costs one pick per coset, and each union is built as a
    Subgroup once."""
    action = _classes_and_counts(F)[1]
    row, at = F.base.row, F.base.positions
    pset = P.member_set
    blocks = [block for key, block in action[P.members].items()
              if pset.issuperset(key)]
    reps = [(1 << i, row(block[0])) for i, block in enumerate(blocks)]
    members, order = P.members, P.order
    made: dict[int, Subgroup] = {}

    def n_phi(phi: Hom) -> Subgroup:
        Q = phi.codomain
        back = dict(zip(phi.images, members))
        if len(back) != order:
            raise NotAGroup("only isomorphisms onto the codomain invert")
        pull, qset = back.__getitem__, Q.member_set
        of_pre = picker([at[pull(y)] for y in Q.generators])
        pulled = {tuple(map(pull, key)) for key in action[Q.members]
                  if qset.issuperset(key)}
        mask = 0
        for bit, r in reps:
            if of_pre(r) in pulled:
                mask |= bit
        got = made.get(mask)
        if got is None:
            inside = (block for i, block in enumerate(blocks) if mask >> i & 1)
            got = made[mask] = Subgroup(
                F.universe, tuple(sorted(chain.from_iterable(inside))))
        return got

    return n_phi


class SaturationReport(NamedTuple):
    ok: bool
    failures: tuple[dict, ...]

    def __bool__(self) -> bool:
        return self.ok


def _unextended(F: FusionSystem, P: Subgroup, isos: Sequence[Hom]
                ) -> Iterator[tuple[Hom, Subgroup]]:
    """Each map phi of ``isos``, all from P onto their codomains, that has
    no extension to N_phi, with N_phi, in order and lazily.  N_phi comes
    from ``_extension_groups``, which reads S's action from the class
    datum, so nothing is carried from call to call; phi extends to N_phi
    iff phi.images is the restriction to P of the key of some psi in
    ``isos_from(N_phi)``; that set is built once per (P, N_phi)
    (``FusionSystem.restriction_keys``)."""
    n_phi = _extension_groups(F, P)
    extends: dict[tuple[int, ...], frozenset] = {}
    for phi in isos:
        nphi = n_phi(phi)
        keys = extends.get(nphi.members)
        if keys is None:
            keys = extends[nphi.members] = F.restriction_keys(nphi, P)
        if phi.images not in keys:
            yield phi, nphi


def _saturated_by_classes(F: FusionSystem) -> bool:
    """Is a fully normalized member of each F-class fully automized and
    receptive?  The member is the first in class order with the largest
    |N_S(P)| (``_classes_and_counts``); fully automized is read on counts,
    as in ``classify``.  For a fusion system this decides saturation
    (Roberts-Shpectorov; Aschbacher-Kessar-Oliver, Prop. I.2.5 with Lemma
    I.2.6(c)): a system is saturated iff each F-class has a member that is
    fully automized and receptive, and in a saturated system every fully
    normalized subgroup is both.

    Receptive asks every isomorphism phi onto P from a member Q of its
    class to extend to N_phi (``_unextended``).  A phi that is c_g|Q for
    some g in S needs no test: c_g on N_S(Q), which holds N_phi, is a map
    of F_S(S), which a fusion system holds, and it extends phi.  So phi
    is tested only when its key is no key of c_g|Q, g in S.  c_g|Q
    depends on the coset C_S(Q)g alone, so those keys are one pick of Q's
    members off the row of one member of each value of S's action on Q
    (``_classes_and_counts``)."""
    classes, action, n_of, c_of, _ = _classes_and_counts(F)
    row, at = F.base.row, F.base.positions
    for cls in classes:
        P = max(cls, key=lambda Q: n_of[Q.members])
        if n_of[P.members] != c_of[P.members] * p_part(
                len(F.automorphisms(P)), F.p):
            return False
        for Q in cls:
            of_members = picker([at[x] for x in Q.members])
            inner = {of_members(row(coset[0]))
                     for coset in action[Q.members].values()}
            onto = [phi for phi in F.isos_from(Q)
                    if phi.codomain == P and phi.images not in inner]
            if onto and next(_unextended(F, Q, onto), None) is not None:
                return False
    return True


@derived
def is_saturated(F: FusionSystem) -> SaturationReport:
    """Sylow axiom plus extension axiom.

    Saturated iff every fully normalized subgroup is fully automized and
    fully centralized, and every isomorphism onto a fully centralized
    subgroup extends over its extension group.

    A system given by its witness W alone, over a support S inside W, is
    F_S(W): its morphisms are the conjugations by W between subgroups of
    S, so it holds F_S(S), each morphism is an injective homomorphism and
    each isomorphism's inverse is in it.  It is a fusion system, and the
    theorem behind ``_saturated_by_classes`` applies: one fully normalized
    member per F-class, fully automized and receptive, decides it.  When
    that test passes the report is ``SaturationReport(True, ())`` with no
    ``classify``.  On any failure, and for every system with explicit
    iso-sets (closures, products, local systems of such systems, mutants),
    the exhaustive report below is made, so every failing report is the
    same.  Closures stay on it: ``close_morphisms`` adds no inverses, so
    the closure of arbitrary seeds need not be a fusion system.

    The exhaustive report is made on keys (``_unextended``), in the order
    of the per-phi Hom form, ``saturation_report_literal`` in
    ``tests/oracles.py``, which compares with it on every system."""
    W = F.witness
    if (F.from_witness and F.support.member_set <= W.member_set
            and _saturated_by_classes(F)):
        return SaturationReport(True, ())
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
    for P in F.subgroups():
        isos = [phi for phi in F.isos_from(P)
                if phi.codomain.members in cls.fully_centralized]
        if not isos:
            continue
        for phi, nphi in _unextended(F, P, isos):
            failures.append({"axiom": "extension",
                             "subgroup": list(P.members),
                             "images": list(phi.images),
                             "n_phi": list(nphi.members)})
    return SaturationReport(not failures, tuple(failures))


# -- conjugation families --------------------------------------------------------


class FactorStep(NamedTuple):
    """One factor: an automorphism of a family member, applied on stage."""

    member: Subgroup
    automorphism: Hom
    stage: Subgroup          # P_{i-1}, contained in member


class Factorization(NamedTuple):
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
                        stage = Subgroup(F.universe, tuple(sorted(images)))
                        paths[new] = (images, FactorStep(R, a, stage))
                    queue.append(new)
    return reached, paths


def is_conjugation_family(F: FusionSystem, family: Sequence[Subgroup]) -> bool:
    """Exhaustive test: every morphism factors through the family.  The
    answer depends on F's content and the family's members alone, so it is
    asked of ``_factors_through`` on the family in canonical order."""
    return _factors_through(F, tuple(sorted(family, key=Subgroup.sort_key)))


@derived
def _factors_through(F: FusionSystem, family: tuple[Subgroup, ...]) -> bool:
    """Does every morphism of F factor through the sorted ``family``?"""
    return all(F._keys_from(P) <= _reachable(F, P, family)[0]
               for P in F.subgroups())


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
