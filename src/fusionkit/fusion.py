"""Fusion systems at desk scale.

A fusion system is stored through its sets of isomorphisms-onto-image: for
each subgroup P of the support, ``isos_from(P)`` lists every morphism from P
corestricted to its image.  Every morphism factors as an isomorphism onto
its image followed by an inclusion, so Hom(P,Q) is the set of members of
``isos_from(P)`` whose image lies in Q, and this representation is
lossless.  The module also builds subsystems (realized, inner, generated by
worklist closure, full subcategories), transports iso-sets along injective
maps as image keys (``transport_isos``, one ``groups.Twist`` per subgroup)
and compares subsystems hom-set by hom-set.

Systems are immutable once constructed; only ``name`` may be reassigned.
A morphism is its domain and its image tuple and nothing more: as in
Aschbacher-Kessar-Oliver, Def. I.2.1, a fusion system is its hom-sets, and
no result depends on the element that realizes a map.

Both kinds of system keep image keys: a witness system reads them off its
conjugation table, an explicit one is given each subgroup's set of image
tuples, and ``isos_from`` builds every Hom from them.

Every system has a content key.  A system given by a witness group alone
is determined by ``(support.members, witness.members)``.  A system with
explicit iso-sets is keyed by the triple of the support's members, the
witness's members (or None) and the frozenset of its table's items, so
equal keys mean the same iso-sets, map for map, and two different tables
never share a key.  A system's derived data (iso-sets, classification,
saturation, local subsystems, normality reports, and the predicates the
verification suite asks again, such as strong closure and stability)
lives in a slot of the registry on its top system, shared by every system
with the same content key under that top, so it is computed once per
content.  Each such result is declared by ``derived``, which keys
it by the content of its arguments and keeps it in the first argument's
slot.

Conjugated morphisms are tested on keys: ``groups.Twist`` pushes the image
key of a morphism through an automorphism, and
``FusionSystem.contains_key`` is ``contains_morphism`` on the pushed key,
so no Hom is built per test.

Closure and composition run on keys too.  ``close_morphisms`` keeps each
map as its domain's lattice position and its image tuple, composes through
the positions of the images in the codomain (``groups.picker``) and
restricts through the covering relation of the lattice
(``groups.lattice_covers``, computed once per lattice).  The table of
image keys it returns, and with it the content key, does not depend on
the order of the seeds, and it builds no Hom.  The Hom form of the
closure is ``close_morphisms_literal`` in ``tests/oracles.py``.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable
from functools import wraps
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from .errors import (DomainMismatch, MorphismOutsideSupport, NotAGroup,
                     NotSylow)
from .groups import (FiniteGroup, Hom, Subgroup, Twist, lattice_covers,
                     p_part, picker, subgroup_lattice)


_MISSING = object()


def derived(fn: Callable[..., Any]) -> Callable[..., Any]:
    """Declare ``fn(F, *args)`` derived data of the system F: its value,
    None included, is kept in F's slot (``FusionSystem._cache``) under the
    decorated function and the content of each later argument: the members
    of a subgroup, the member tuples of a tuple of subgroups, the content
    key of a system, or a frozenset itself; any other argument raises
    TypeError.  A value with a subgroup or system of another universe
    among its arguments is computed and not kept, since contents of two
    universes may be equal and mean different things.  ``derived`` alone
    reads and writes a slot; each fill runs in ``_computed``.
    ``__wrapped__`` is ``fn``, the uncached form."""
    @wraps(fn)
    def cached(F: FusionSystem, *args: Any) -> Any:
        key: Optional[tuple] = family
        U = F.universe
        for a in args:
            if isinstance(a, Subgroup):
                content: Hashable = a.members
                foreign = a.parent is not U
            elif isinstance(a, FusionSystem):
                content = a.content_key
                foreign = a.universe is not U
            elif isinstance(a, frozenset):
                content, foreign = a, False
            elif isinstance(a, tuple) and all(isinstance(R, Subgroup)
                                              for R in a):
                content = tuple(R.members for R in a)
                foreign = any(R.parent is not U for R in a)
            else:
                raise TypeError(f"{fn.__qualname__} keys no "
                                f"{type(a).__name__} argument")
            key = None if foreign or key is None else key + (content,)
        if key is None:
            return fn(F, *args)
        got = F._cache.get(key, _MISSING)
        if got is _MISSING:
            got = F._cache[key] = _computed(F, key, fn, args)
        return got

    family = (cached,)
    return cached


def _computed(F: FusionSystem, key: tuple, fn: Callable, args: tuple) -> Any:
    """A fill of ``derived``, to be kept under ``key`` (its family first)."""
    return fn(F, *args)


class FusionSystem:
    """Fusion system over ``support`` inside the parent group of the support.

    Either ``witness`` (a realizing subgroup W: morphisms are conjugations by
    elements of W) or ``explicit`` iso-sets must be supplied, as each
    subgroup's members with the frozenset of its maps' image tuples.  A
    morphism records its domain and images only, never the element of W
    behind it.
    ``ambient`` points at the outermost (top) system a subsystem lives in;
    subsystems of subsystems are re-based so towers never form.

    ``content_key`` is ``(support.members, witness.members)`` when the
    witness alone defines the system, and ``(support.members,
    witness.members or None, frozenset(explicit.items()))`` when
    ``explicit`` iso-sets are given, with or without a witness: then the
    witness does not determine the hom-sets (the mutation self-tests
    corrupt systems this way), so the key holds the table itself and
    compares it by value; the frozenset caches its hash.  Two different
    tables never share a key, and a realized key (a pair) never equals an
    explicit one (a triple).  Systems with equal content keys under one
    top share a slot of derived data (``_isos``, ``_iso_keys``, and
    ``_cache``, which ``derived`` alone reads and fills) in the top's
    ``_registry``, whatever seeds produced their tables; each copy keeps
    its own ``name``.  The registry lives on the top, not on the
    universe, so it is freed with the top system, and a mutated top,
    being a new top, starts an empty one.  The
    subgroups its morphisms name go the same way: the universe interns
    them weakly, so a subgroup, with its conjugation table, lattice and
    covers, is freed with the last system or caller that holds it, and
    the universe keeps only memos by member tuple (``groups.FiniteGroup``).

    ``base`` is the subgroup whose conjugation table the system reads
    (``groups.Subgroup.row``): the top's support when it lies in the same
    universe and holds this support, else this support.  So every system
    under one top moves its subgroups on one table, |S| entries per
    conjugator.  A realized system reads the rows of its witness off that
    table once and keeps one row per coset of C_W(base) in its witness W
    (``_witness_rows``, |W : C_W(base)| rows).
    """

    def __init__(self, support: Subgroup, p: int,
                 witness: Optional[Subgroup] = None,
                 explicit: Optional[dict[tuple[int, ...], frozenset]] = None,
                 ambient: Optional["FusionSystem"] = None,
                 name: str = "") -> None:
        if witness is None and explicit is None:
            raise NotAGroup("a fusion system needs a witness group or iso-sets")
        self.support = support
        self.p = p
        self.universe = support.parent
        self.witness = witness
        self._explicit = explicit
        self.ambient = ambient.top() if ambient is not None else None
        self.name = name or (f"F_{support.order}({witness.order})" if witness else
                             f"F_{support.order}")
        self.content_key: Hashable = (
            (support.members, witness.members) if explicit is None
            else (support.members,
                  witness.members if witness is not None else None,
                  frozenset(explicit.items())))
        self._registry: Optional[dict[Hashable, tuple[dict, dict, dict]]] = (
            {} if self.ambient is None else None)
        top = self.top()
        if top.universe is self.universe:
            slot = top._registry.setdefault(self.content_key, ({}, {}, {}))
        else:
            slot = ({}, {}, {})
        self.base = (top.support if top.universe is self.universe
                     and support.member_set <= top.support.member_set
                     else support)
        self._isos: dict[tuple[int, ...], tuple[Hom, ...]] = slot[0]
        self._iso_keys: dict[tuple[int, ...], frozenset] = slot[1]
        self._cache: dict = slot[2]
        self._witness_rows: Optional[tuple[tuple[int, ...], ...]] = None

    def top(self) -> "FusionSystem":
        return self.ambient if self.ambient is not None else self

    def table_for(self, X: Subgroup) -> Subgroup:
        """The subgroup whose conjugation table moves X: ``base`` when it
        holds X, else X itself."""
        return self.base if X.member_set <= self.base.member_set else X

    @property
    def realized(self) -> bool:
        return self.witness is not None

    @property
    def from_witness(self) -> bool:
        """Is the system F_S(W) of its witness W: no explicit iso-sets, so
        its morphisms are the conjugations by W, and its automorphism sets
        are groups of group automorphisms?"""
        return self._explicit is None

    def __repr__(self) -> str:
        return f"FusionSystem({self.name}, |S|={self.support.order}, p={self.p})"

    # -- objects ---------------------------------------------------------------

    def subgroups(self) -> tuple[Subgroup, ...]:
        return subgroup_lattice(self.support)

    # -- morphisms ---------------------------------------------------------------

    def isos_from(self, P: Subgroup) -> tuple[Hom, ...]:
        """All morphisms from P, corestricted onto their images: one Hom
        per image key of ``_keys_from(P)``, sorted on (image members,
        images), which is ``Hom.sort_key`` order for one domain.  The image
        members are the set of the images, so a non-injective key (only a
        mutant holds one) is corestricted onto its image too."""
        got = self._isos.get(P.members)
        if got is None:
            U = self.universe
            got = self._isos[P.members] = tuple(
                Hom(P, Subgroup(U, image), imgs)
                for image, imgs in sorted((tuple(sorted(set(imgs))), imgs)
                                          for imgs in self._keys_from(P)))
        return got

    def _conjugation_keys(self, P: Subgroup) -> Iterator[tuple[int, ...]]:
        """The image keys of the maps c_w|P into the support, w in the
        witness, each once (``_first_conjugations``).

        The witness's rows are kept once each, in the order of their first
        w.  Two members w, w' of the witness W have equal rows on ``base``
        iff w' w^-1 centralizes it, that is iff they lie in one coset
        C_W(base) w, so the rows kept are one per coset.  Since P lies in
        ``base``, w and w' then give one map c_w|P.  So the first w giving
        each map is the first of its coset, and its row is kept in its
        place: ``_first_conjugations`` yields the same keys in the same
        order as on the rows of all of W."""
        rows = self._witness_rows
        if rows is None:
            rows = self._witness_rows = tuple(dict.fromkeys(
                self.base.rows(self.witness.members)))
        return _first_conjugations(P, rows, self.support.member_set, self.base)

    def _keys_from(self, P: Subgroup) -> frozenset:
        """The image keys of the morphisms from P: the explicit table's set,
        or, for a system given by its witness alone, the keys read off the
        conjugation table without building a Hom."""
        got = self._iso_keys.get(P.members)
        if got is None:
            if not P.member_set <= self.support.member_set:
                raise DomainMismatch("subgroup is not inside the support")
            if self._explicit is None:
                got = frozenset(self._conjugation_keys(P))
            else:
                got = self._explicit.get(P.members)
                if got is None:
                    raise DomainMismatch("iso-sets do not cover this subgroup")
            self._iso_keys[P.members] = got
        return got

    def restriction_keys(self, U: Subgroup, P: Subgroup,
                         stabilizing: Optional[Subgroup] = None) -> frozenset:
        """The image keys of psi|_P for the psi in ``isos_from(U)``, only
        those with psi(R) = R when ``stabilizing`` is R; P must lie in U.
        A map phi from P extends to such a psi iff phi.images is one of
        them, so one set answers for every phi.  Each psi is read as its
        image key (``_keys_from``), so no Hom is built."""
        if not P.member_set <= U.member_set:
            raise DomainMismatch("phi is not defined inside U")
        at = U.positions
        to_p = picker([at[x] for x in P.members])
        keys = self._keys_from(U)
        if stabilizing is None:
            return frozenset(map(to_p, keys))
        rset = stabilizing.member_set
        to_r = picker([at[x] for x in stabilizing.members])
        return frozenset(to_p(key) for key in keys
                         if frozenset(to_r(key)) == rset)

    def contains_morphism(self, h: Hom) -> bool:
        """Is ``h`` (any codomain) a morphism of this system?"""
        return (h.domain.parent is self.universe
                and self.contains_key(h.domain.members, h.images))

    def contains_key(self, domain: tuple[int, ...],
                     images: tuple[int, ...]) -> bool:
        """``contains_morphism`` on keys: is the map sending ``domain[i]``
        to ``images[i]`` a morphism of this system?  ``domain`` is the
        sorted member tuple of a subgroup of the universe."""
        sset = self.support.member_set
        if not (sset.issuperset(domain) and sset.issuperset(images)):
            return False
        keys = self._iso_keys.get(domain)
        if keys is None:
            keys = self._keys_from(Subgroup(self.universe, domain))
        return images in keys

    def automorphisms(self, P: Subgroup) -> tuple[Hom, ...]:
        return tuple(h for h in self.isos_from(P) if h.codomain == P)

    def automizer_in(self, R: Subgroup, P: Subgroup) -> tuple[Hom, ...]:
        """Aut_R(P): conjugations by elements of N_R(P), sorted on their
        images (``Hom.sort_key`` order for one domain and codomain)."""
        return tuple(Hom(P, P, imgs)
                     for imgs in sorted(_first_conjugations(
                         P, self.base.rows(R.members), P.member_set,
                         self.base)))

    # -- conjugacy ---------------------------------------------------------------

    def classes(self) -> tuple[tuple[Subgroup, ...], ...]:
        """The F-conjugacy classes of subgroups of the support, computed
        on each call: its readers, the derived class counts of
        ``saturation`` (read by the class test and ``classify``) and
        ``persist.system_payload``, ask it once per system.  The traced
        benchmark replay times it on its own before ``classify``, so there
        it is computed twice per entry."""
        subs = self.subgroups()
        index = {P.members: i for i, P in enumerate(subs)}
        parent = list(range(len(subs)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i, P in enumerate(subs):
            for h in self.isos_from(P):
                j = index[h.codomain.members]
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
        buckets: dict[int, list[Subgroup]] = {}
        for i, P in enumerate(subs):
            buckets.setdefault(find(i), []).append(P)
        return tuple(sorted((tuple(sorted(b, key=Subgroup.sort_key))
                             for b in buckets.values()),
                            key=lambda c: c[0].sort_key()))

    # -- whole-system views --------------------------------------------------------

    def materialize(self) -> dict[tuple[int, ...], tuple[Hom, ...]]:
        return {P.members: self.isos_from(P) for P in self.subgroups()}

    def morphism_count(self) -> int:
        return sum(len(self.isos_from(P)) for P in self.subgroups())


def _first_conjugations(P: Subgroup, rows: Sequence[tuple[int, ...]],
                        inside: frozenset[int], base: Subgroup
                        ) -> Iterator[tuple[int, ...]]:
    """The images of the members of P under c_w, once for each distinct map
    c_w|P with P^w inside the subgroup ``inside``, for the conjugators w
    whose ``rows`` in the conjugation table of ``base``, a subgroup
    containing P, are given.  c_w|P is determined by the images of
    gens(P), and P^w lies in a subgroup iff they do, so a w giving a known
    map costs one pick of gens(P) off its row.  The maps come in the order
    of the first w giving each, and any w giving a map gives its member
    images."""
    at = base.positions
    of_gens = picker([at[x] for x in P.generators])
    of_members = picker([at[x] for x in P.members])
    for key, r in dict(zip(map(of_gens, rows), rows)).items():
        if inside.issuperset(key):
            yield of_members(r)


# -- constructors ---------------------------------------------------------------


def fusion_of_group(G: FiniteGroup | Subgroup, S: Subgroup, p: int,
                    name: str = "") -> FusionSystem:
    """F_S(G) for S a Sylow p-subgroup of G."""
    W = G.full_subgroup if isinstance(G, FiniteGroup) else G
    if S.parent is not W.parent:
        raise DomainMismatch("S must live in the same universe as G")
    if not S.member_set <= W.member_set:
        raise NotSylow("S is not contained in G")
    if S.order != p_part(S.order, p) or S.order != p_part(W.order, p):
        raise NotSylow(f"|S|={S.order} is not the {p}-part of |G|={W.order}")
    return FusionSystem(S, p, witness=W,
                        name=name or f"F({W.parent.name}@{p})")


def realized_subsystem(F: FusionSystem, N: Subgroup, T: Subgroup) -> FusionSystem:
    """The subsystem F_T(N) of F, for T = a Sylow p-subgroup of N inside S."""
    if not (T.member_set <= F.support.member_set and T.member_set <= N.member_set):
        raise DomainMismatch("support must lie inside both S and N")
    if p_part(N.order, F.p) != T.order:
        raise NotSylow(f"|T|={T.order} is not the {F.p}-part of |N|={N.order}")
    return FusionSystem(T, F.p, witness=N, ambient=F.top(),
                        name=f"F_{T.order}({N.order})<={F.name}")


def inner_system(F: FusionSystem, P: Subgroup) -> FusionSystem:
    """F_P(P), the inner fusion system on P, as a subsystem of F."""
    return FusionSystem(P, F.p, witness=P, ambient=F.top(),
                        name=f"inner({P.order})")


# -- generated subsystems ----------------------------------------------------------


# A map of ``close_morphisms``: codomain position, the positions of the
# images in the codomain, and their picker.
_Arrow = tuple[int, tuple[int, ...], Callable]


def close_morphisms(support: Subgroup,
                    seeds: Iterable[tuple[tuple[int, ...], tuple[int, ...]]],
                    ) -> dict[tuple[int, ...], frozenset]:
    """Fixed-point closure over ``support``: inner maps of the support plus
    ``seeds``, each given as its domain's members and its image key,
    closed under restriction, corestriction and composition.

    No inverses are added, so the closure holds the inverse of each of its
    isomorphisms only when the seeds happen to give it; a fusion system
    holds every such inverse (Aschbacher-Kessar-Oliver, Def. I.2.1(b)), so
    the closure of arbitrary seeds need not be one (ROADMAP.md, item 7).
    Termination: all sets are subsets of the finite set of injections
    between subgroups of the support.

    The worklist runs on keys, never on Hom objects.  A map is its domain's
    lattice position and its image tuple; it carries its codomain's
    position and the ``picker`` of the positions of its images in that
    codomain, computed once.  That picker composes in both directions: it
    turns the key of a map g from the codomain into the key of h then g,
    and the picker of g into the picker of the composite.  Restriction to
    the maximal subgroups goes through ``lattice_covers``.  A seed whose
    domain or image, or a restriction whose image, is not a subgroup of
    the support raises ``MorphismOutsideSupport``.  The table, each
    subgroup's members with the set of image keys of the maps from it,
    depends only on the set of seeds, not on their order; no Hom is built.
    """
    subs = subgroup_lattice(support)
    covers = lattice_covers(support)
    index = {P.members: i for i, P in enumerate(subs)}
    # A map h is (domain position i, image key); it carries its codomain
    # position c and the positions ``pos`` of its images in the codomain,
    # with their picker.  ``tables`` is by domain, ``into`` by codomain.
    tables: list[dict[tuple[int, ...], _Arrow]] = [{} for _ in subs]
    into: list[list[tuple[int, tuple[int, ...], _Arrow]]] = [[] for _ in subs]
    work: deque[tuple[int, tuple[int, ...], _Arrow]] = deque()

    def add(i: int, images: tuple[int, ...], c: int,
            pos: tuple[int, ...]) -> None:
        arrow = (c, pos, picker(pos))
        tables[i][images] = arrow
        into[c].append((i, images, arrow))
        work.append((i, images, arrow))

    def add_new(i: int, images: tuple[int, ...], image: tuple[int, ...]) -> None:
        c = index.get(image)
        if c is None:
            raise MorphismOutsideSupport("morphism image leaves the support")
        at = subs[c].positions
        add(i, images, c, tuple([at[y] for y in images]))

    def seed(i: int, images: tuple[int, ...]) -> None:
        if images not in tables[i]:
            add_new(i, images, tuple(sorted(set(images))))

    for r in support.members:
        seed(0, support.row(r))
    for domain, images in seeds:
        i = index.get(domain)
        if i is None:
            raise MorphismOutsideSupport("morphism domain leaves the support")
        seed(i, images)
    while work:
        i, images, (c, pos, pick) = work.popleft()
        for m, restrict in covers[i]:
            r = restrict(images)
            if r not in tables[m]:
                add_new(m, r, tuple(sorted(r)))
        slot = tables[i]
        for g, (d, g_pos, _) in list(tables[c].items()):   # h then g
            composite = pick(g)
            if composite not in slot:
                add(i, composite, d, pick(g_pos))
        for j, _, (_, _, f_pick) in list(into[i]):          # f then h
            composite = f_pick(images)
            if composite not in tables[j]:
                add(j, composite, c, f_pick(pos))
    return {P.members: frozenset(tables[i]) for i, P in enumerate(subs)}


def generated_subsystem(F: FusionSystem, R: Subgroup,
                        generators: Iterable[Hom],
                        check_inside: bool = True) -> FusionSystem:
    """The closure over R of the inner maps of R and the generators under
    restriction, corestriction and composition (``close_morphisms``).  It
    adds no inverses, so it is <C>_R, the smallest subsystem of F over R
    containing the generators, only when it holds the inverse of each of
    its isomorphisms (ROADMAP.md, item 7).

    The support and inside checks run on every call.  The closure table
    depends only on R and the generators' (domain, image) keys, so it is
    derived data of F's top system under them (``_closure_table``), where
    every system under that top finds it; each call returns a fresh
    system, since callers rename it."""
    gens = list(generators)
    rset = R.member_set
    for h in gens:
        if not (h.domain.member_set <= rset and set(h.images) <= rset):
            raise MorphismOutsideSupport(
                f"generator {h!r} leaves the support of order {R.order}")
        if check_inside and not F.contains_morphism(h):
            raise MorphismOutsideSupport(f"generator {h!r} is not a morphism of F")
    top = F.top()
    explicit = _closure_table(
        top, R, frozenset((h.domain.members, h.images) for h in gens))
    return FusionSystem(R, F.p, explicit=explicit, ambient=top,
                        name=f"<{len(gens)} gens>_{R.order}")


@derived
def _closure_table(top: FusionSystem, R: Subgroup, keys: frozenset) -> dict:
    """``close_morphisms`` over R, seeded by maps into R with these keys."""
    return close_morphisms(R, keys)


# -- morphism/subsystem transport -----------------------------------------------


def transport_isos(E: FusionSystem, sigma: Hom) -> dict[tuple[int, ...], frozenset]:
    """Iso-sets of E pushed through a map injective on the support, on keys:
    sigma(P) to the image keys of the maps sigma(x) -> sigma(x^phi), one
    ``Twist`` per P.  The Hom form is ``transport_isos_literal`` in
    ``tests/oracles.py``."""
    if not E.support.member_set <= sigma.domain.member_set:
        raise DomainMismatch("transport map is not defined on the support")
    out: dict[tuple[int, ...], frozenset] = {}
    for P in E.subgroups():
        twist = Twist(sigma, P)
        out[twist.target] = frozenset(map(twist.images, E._keys_from(P)))
    return out


# -- comparisons -----------------------------------------------------------------


def subsystem_contains(D1: FusionSystem, D2: FusionSystem) -> bool:
    """Exact hom-set-wise containment D2 <= D1 over the smaller support."""
    return (D1.universe is D2.universe
            and D2.support.member_set <= D1.support.member_set
            and all(D2._keys_from(P) <= D1._keys_from(P)
                    for P in D2.subgroups()))


def subsystem_equal(D1: FusionSystem, D2: FusionSystem) -> bool:
    if D1.universe is not D2.universe or D1.support != D2.support:
        return False
    return all(D1._keys_from(P) == D2._keys_from(P) for P in D1.subgroups())


def full_subcategory(F: FusionSystem, R: Subgroup) -> FusionSystem:
    """F|_{<=R}: all F-morphisms between subgroups of R, as an explicit system."""
    inside = R.member_set.issuperset
    explicit = {P.members: frozenset(filter(inside, F._keys_from(P)))
                for P in subgroup_lattice(R)}
    return FusionSystem(R, F.p, explicit=explicit, ambient=F.top(),
                        name=f"{F.name}|<= {R.order}")


# -- automorphism groups as finite groups -------------------------------------------


TRIVIAL_TABLE = FiniteGroup("Aut = 1", [[0]])
# Held, so that the slots of its one subgroup are filled once in the
# process, not each time a caller interns it again.
_TRIVIAL_SUBGROUP = TRIVIAL_TABLE.full_subgroup


class MorphismGroup:
    """A finite group of automorphisms of one subgroup, under composition.

    Elements are Hom objects with equal domain and codomain; index 0 is the
    identity.  Used to run the group-theoretic operators (O_p, O^p, Sylow)
    on automorphism groups, and (``subgroup_of``) to decide subgroup,
    normality and product statements on the table.

    The table is filled on image keys: a then b has the key
    ``picker(positions of a.images in P)(b.images)``, so no Hom is built
    per pair.  The per-pair ``Hom.then`` form is
    ``morphism_group_table_literal`` in ``tests/oracles.py``.  A set that
    is the identity alone builds no Hom and no table: its group is
    ``TRIVIAL_TABLE``, shared by every such set, on which the operators
    and ``subgroup_of`` answer as on a table of its own; that group's
    memos and its one subgroup hold no answer that depends on who filled
    them.
    """

    __slots__ = ("homs", "base", "group", "_index")

    def __init__(self, autos: Sequence[Hom]) -> None:
        if not autos:
            raise NotAGroup("empty automorphism set")
        P = autos[0].domain
        for h in autos:
            if h.domain != P or h.codomain != P:
                raise NotAGroup("not all maps are automorphisms of one subgroup")
        self.base = P
        if all(h.is_identity() for h in autos):
            self.homs: tuple[Hom, ...] = (autos[0],)
            self.group = TRIVIAL_TABLE
            self._index = {P.members: 0}
            return
        ident = Hom.identity(P)
        rest = sorted({h for h in autos if h != ident}, key=Hom.sort_key)
        if len(rest) == len(autos):
            raise NotAGroup("automorphism set lacks the identity")
        self.homs = (ident,) + tuple(rest)
        index = {h.images: i for i, h in enumerate(self.homs)}
        at = {x: i for i, x in enumerate(P.members)}
        keys = [h.images for h in self.homs]
        table = []
        for a in keys:
            row = list(map(index.get, map(picker([at[y] for y in a]), keys)))
            if None in row:
                raise NotAGroup("automorphism set is not closed under composition")
            table.append(row)
        self.group = FiniteGroup(f"Aut({P.order})", table)
        self._index = index

    def index_of(self, h: Hom) -> int:
        k = self._index.get(h.images)
        if k is None:
            raise NotAGroup("automorphism is not in this group")
        return k

    def subgroup_of(self, homs: Iterable[Hom]) -> Optional[Subgroup]:
        """``homs`` as a subgroup of ``group``; None when one is not in this
        group or they are not a subgroup, that is, not the subgroup they
        generate (one closure of their indices, which holds them and is
        them iff it is no larger)."""
        found = set(map(self._index.get, (h.images for h in homs)))
        if None in found:
            return None
        sub = self.group.generated_subgroup(found)
        return sub if sub.order == len(found) else None

    def homs_of(self, sub: Subgroup) -> tuple[Hom, ...]:
        if sub.parent is not self.group:
            raise DomainMismatch("subgroup of a different automorphism group")
        return tuple(sorted((self.homs[i] for i in sub.members), key=Hom.sort_key))
