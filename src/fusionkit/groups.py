"""Exact arithmetic for finite groups given by multiplication tables.

Elements are indices 0..order-1 with index 0 the identity.  Conjugation is
the right action x^g = g^-1 x g, and homomorphisms compose left to right
(apply ``f`` first in ``f.then(g)``).

The kernel works on small generating sets.  ``FiniteGroup.closure`` runs
Dimino's algorithm, memoized by seed set, and ``Subgroup.generators`` is
the at most log2|H| members it keeps over the sorted members.  The action
tests (``normalizer``, ``centralizer``, ``Subgroup.is_normal_in``,
``Subgroup.is_elementwise_commuting``) read only generators: H^g <= H iff
gens(H)^g <= H, and g centralizes H iff it commutes with gens(H).  These
equivalences need H to be a subgroup, so callers pass subgroups, never
unchecked point sets.  ``conjugacy_classes`` computes one orbit per
class; ``normal_joins`` walks the joins of their normal closures from a
normal subgroup, keeping those a predicate accepts (``normal_subgroups``
keeps every join from 1), and ``o_p_prime`` joins only the closures that
are p'-groups.  ``o_p`` is the ``core`` of a
Sylow subgroup from the normalizer-step search, cut down on the rows of
gens(ambient), with no canonical Sylow subgroup.  ``subgroup_lattice``
takes a p-group and walks up from 1 by steps P -> P<x> of index p.  The
member-level forms are the oracles in ``tests/oracles.py``.

Maps are often handled as image keys: ``Subgroup.positions`` places each
member, ``picker`` reads a key off at given positions (restriction, or
composition through the positions of a map's images), and
``lattice_covers`` gives each lattice member its maximal subgroups with
their restriction pickers, from the covering relation in one pass.

Conjugation reads only what it moves.  Each subgroup A has a conjugation
table: ``A.row(g)`` is the tuple (x^g for x in A.members), built on first
use from the row of g^-1 and kept on A, so it costs |A| lookups and
never |G|.  The images of a subgroup H <= A under c_g are one ``picker``
call, through ``A.positions``, on that row.  A group-level operator reads
the table of the subgroup it moves; a fusion system reads the table of
its top support S (``fusion.FusionSystem.base``), so every witness scan
costs |S| entries per conjugator.

There is at most one live ``Subgroup`` per (group, member tuple): the
constructor returns the object its group interns for those members, so
equal subgroups are the same object, and a subgroup's member set,
positions and conjugation table are computed once while it lives.  The
group interns weakly: a subgroup dies when no caller, fusion system or
lattice holds it, and takes its table, lattice, covers and normal
subgroups with it.  What the group keeps is keyed by member tuples, not
by subgroups: the closure of each seed set and the generators of each
member tuple, so a subgroup made again costs no Dimino run.

Every table from outside, whether permutations, a full table or the
generator columns of an ``.fsk`` file, is built or checked by one kernel,
``cayley_columns``: a walk over the right Cayley graph from the identity
whose consistency checks are Light's associativity test.  A map given by
generator images grows along the same graph, in ``extend_by_generators``.
"""

from __future__ import annotations

import weakref
from functools import reduce
from itertools import compress
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .errors import CapExceeded, NotAGroup, NotNormal, ParseError

DEFAULT_GROUP_CAP = 500
DEFAULT_LATTICE_CAP = 20000


class _Caps:
    """Process-wide size limits, adjustable from the CLI."""

    __slots__ = ("group", "lattice")

    def __init__(self) -> None:
        self.group = DEFAULT_GROUP_CAP
        self.lattice = DEFAULT_LATTICE_CAP


active_caps = _Caps()


def is_prime(n: int) -> bool:
    """Is n a prime?  Trial division by 2, 3 and the 6k +- 1 up to sqrt(n)."""
    if n < 4:
        return n >= 2
    if n % 2 == 0 or n % 3 == 0:
        return False
    d = 5
    while d * d <= n:
        if n % d == 0 or n % (d + 2) == 0:
            return False
        d += 6
    return True


def p_part(n: int, p: int) -> int:
    """Largest power of p dividing n, for p >= 2 and n >= 1."""
    if p < 2:
        raise ValueError(f"p_part needs p >= 2, got {p}")
    if n < 1:
        raise ValueError(f"p_part needs n >= 1, got {n}")
    m = 1
    while n % p == 0:
        n //= p
        m *= p
    return m


class FiniteGroup:
    """Finite group backed by a full multiplication table.

    The constructor trusts its table: it serves the tables built inside the
    package (``MorphismGroup``, ``quotient``, ``as_group``).  Outside input
    comes in through ``group_from_permutations``, ``group_from_table`` and
    ``group_from_columns``, which prove their table a group with
    ``cayley_columns`` and record the generating set it walked in
    ``generator_indices``; a permutation group also keeps each element's
    permutation in ``perm_images``.  Likewise ``subgroup`` validates the
    member set it is given, while ``Subgroup`` and every subgroup the
    package computes are trusted.

    The group interns its subgroups weakly: ``_subgroups`` maps a member
    tuple to a weak reference to its live ``Subgroup``.  It memoizes by
    member tuple only: ``_closures`` maps a seed set to the members of the
    subgroup it generates, and ``_generators`` a member tuple to the
    generators Dimino's algorithm keeps over it.  Everything else derived
    from a subgroup lives on the ``Subgroup`` and dies with it."""

    __slots__ = ("name", "order", "_mul", "_inv", "_orders", "_subgroups",
                 "_closures", "_generators", "perm_images", "generator_indices")

    def __init__(self, name: str, mul_table: Sequence[Sequence[int]]) -> None:
        n = len(mul_table)
        self.name = name
        self.order = n
        self._mul = tuple(map(tuple, mul_table))
        self._inv = tuple(row.index(0) for row in self._mul)
        orders = [0] * n
        for a in range(n):
            x, k = a, 1
            while x != 0:
                x = self._mul[x][a]
                k += 1
            orders[a] = k
        self._orders = tuple(orders)
        self.perm_images: Optional[tuple[tuple[int, ...], ...]] = None
        self.generator_indices: Optional[tuple[int, ...]] = None
        self._subgroups: dict[tuple[int, ...], weakref.ref] = {}
        self._closures: dict[frozenset[int], tuple[int, ...]] = {}
        self._generators: dict[tuple[int, ...], tuple[int, ...]] = {}

    # -- basic arithmetic ---------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        return self._inv[a]

    def conj(self, x: int, g: int) -> int:
        """Right conjugation x^g = g^-1 x g."""
        return self._mul[self._mul[self._inv[g]][x]][g]

    def commutator(self, x: int, y: int) -> int:
        """[x, y] = x^-1 y^-1 x y."""
        return self._mul[self._mul[self._mul[self._inv[x]][self._inv[y]]][x]][y]

    def element_order(self, a: int) -> int:
        return self._orders[a]

    def power(self, a: int, k: int) -> int:
        if k < 0:
            return self.power(self._inv[a], -k)
        x = 0
        for _ in range(k):
            x = self._mul[x][a]
        return x

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"

    # -- subgroups ----------------------------------------------------------

    def subgroup(self, members: Iterable[int]) -> "Subgroup":
        """The subgroup of outside input ``members``, validated on every call:
        ``ParseError``, naming the least, when some are no element index
        0..|G|-1 (a negative one would alias an element), and then
        ``NotAGroup`` unless they hold the identity and are closed under
        inverses and products."""
        mem = set(members)
        outside = sorted(x for x in mem if not 0 <= x < self.order)
        if outside:
            raise ParseError(f"subgroup member {outside[0]} is not an element "
                             f"of {self.name} (0..{self.order - 1})")
        if 0 not in mem:
            raise NotAGroup("subgroup must contain the identity")
        members = tuple(sorted(mem))
        mul, inv = self._mul, self._inv
        for a in members:
            if inv[a] not in mem:
                raise NotAGroup(f"subgroup not closed under inversion at {a}")
            row = mul[a]
            for b in members:
                if row[b] not in mem:
                    raise NotAGroup(f"subgroup not closed at ({a},{b})")
        return Subgroup(self, members)

    @property
    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(self, (0,))

    @property
    def full_subgroup(self) -> "Subgroup":
        return Subgroup(self, tuple(range(self.order)))

    def closure(self, seed: Iterable[int]) -> tuple[int, ...]:
        """Subgroup generated by ``seed``, as a sorted index tuple."""
        return self.generated_subgroup(seed).members

    def _dimino(self, seed: Iterable[int]) -> tuple[list[int], list[int]]:
        """Dimino's algorithm (Butler, *Fundamental Algorithms for
        Permutation Groups*, LNCS 559, 1991): the elements of <seed> and the
        seed elements kept as generators, in sorted seed order.

        A seed element s outside the subgroup H built so far is kept, and
        <H, s> is enumerated by ``_dimino_step``; each kept generator at
        least doubles |H|.  A seed element already in H costs one lookup.
        """
        elems = [0]
        member = {0}
        gens: list[int] = []
        for s in sorted(set(seed)):
            if s not in member:
                gens.append(s)
                self._dimino_step(elems, member, gens)
        return elems, gens

    def _dimino_step(self, elems: list[int], member: set[int],
                     gens: list[int]) -> None:
        """One step of Dimino's algorithm, in place: ``elems`` (with its set
        ``member``) is a subgroup H generated by ``gens[:-1]``, and s =
        ``gens[-1]`` lies outside it.  Grow both to <H, s>, enumerated as
        the right cosets H r reached from H s by right multiplication by
        ``gens``: the union of the cosets met is closed under right
        multiplication by every generator, so it is <H, s>."""
        mul = self._mul
        rows = [mul[h] for h in elems]             # H, fixed while <H, s> grows
        s = gens[-1]
        reps = [s]
        coset = [row[s] for row in rows]           # the coset H s
        elems.extend(coset)
        member.update(coset)
        for r in reps:                             # reps grows as cosets appear
            row_r = mul[r]
            for g in gens:
                y = row_r[g]
                if y not in member:
                    reps.append(y)
                    coset = [row[y] for row in rows]
                    elems.extend(coset)
                    member.update(coset)

    def generated_subgroup(self, seed: Iterable[int]) -> "Subgroup":
        """<seed>; its member tuple is memoized by the seed set."""
        key = frozenset(seed)
        members = self._closures.get(key)
        if members is None:
            members = self._closures[key] = tuple(sorted(self._dimino(key)[0]))
        return Subgroup(self, members)


class Subgroup:
    """Canonical subgroup of a FiniteGroup: a sorted member index tuple.

    ``Subgroup(parent, members)`` returns the live object ``parent`` interns
    for ``members``, or makes and interns one, so equal live subgroups are
    the same object and compare and hash by identity.  It trusts
    ``members`` to be a sorted subgroup; outside input comes in through
    ``FiniteGroup.subgroup``, which validates it first.
    The member set, generators and positions are slots filled on first
    use, ``row`` fills the conjugation table and ``derived`` holds the
    lattice, covers and normal subgroups.  All of it lives on the object,
    so it is freed when the last holder drops the subgroup; the group's
    intern table holds only a weak reference, which removes its own entry
    then (``_forget``)."""

    __slots__ = ("parent", "members", "_member_set", "_generators",
                 "_positions", "_rows", "_derived", "__weakref__")

    def __new__(cls, parent: FiniteGroup, members: tuple[int, ...]) -> "Subgroup":
        table = parent._subgroups
        ref = table.get(members)
        sub = ref() if ref is not None else None
        if sub is None:
            sub = object.__new__(cls)
            sub.parent = parent
            sub.members = members
            sub._member_set = None
            sub._generators = None
            sub._positions = None
            sub._rows = None
            sub._derived = None
            table[members] = weakref.ref(sub, _forget(table, members))
        return sub

    def __len__(self) -> int:
        return len(self.members)

    @property
    def order(self) -> int:
        return len(self.members)

    def __contains__(self, x: int) -> bool:
        return x in self.member_set

    @property
    def member_set(self) -> frozenset[int]:
        ms = self._member_set
        if ms is None:
            ms = self._member_set = frozenset(self.members)
        return ms

    @property
    def generators(self) -> tuple[int, ...]:
        """The at most log2|H| members that Dimino's algorithm keeps over the
        sorted ``members``: a function of ``members`` alone."""
        gens = self._generators
        if gens is None:
            memo = self.parent._generators
            gens = memo.get(self.members)
            if gens is None:
                gens = memo[self.members] = tuple(self.parent._dimino(self.members)[1])
            self._generators = gens
        return gens

    @property
    def positions(self) -> dict[int, int]:
        """Each member's position in ``members``, cached on the subgroup."""
        at = self._positions
        if at is None:
            at = self._positions = {x: i for i, x in enumerate(self.members)}
        return at

    @property
    def derived(self) -> dict:
        """Data derived from this subgroup and kept on it: its lattice and
        covers, keyed with the lattice cap, its normal subgroups, and its
        product with each subgroup it commutes with (``products``).  A
        lattice or a list of normal subgroups holds this subgroup itself,
        so the subgroup is then in a reference cycle, which the cyclic
        garbage collector frees."""
        got = self._derived
        if got is None:
            got = self._derived = {}
        return got

    def __le__(self, other: "Subgroup") -> bool:
        return self.member_set <= other.member_set

    def __lt__(self, other: "Subgroup") -> bool:
        return self.member_set < other.member_set

    def is_trivial(self) -> bool:
        return len(self.members) == 1

    def row(self, g: int) -> tuple[int, ...]:
        """The row of c_g in this subgroup's conjugation table:
        ``row(g)[i]`` is ``members[i]``^g, for any g of the parent group.
        Built on first use as ((g^-1 x) g)_x from the row of g^-1, |H|
        lookups, and kept.  The table is a list by g, made on the first
        row."""
        table = self._rows
        if table is None:
            table = self._rows = [None] * self.parent.order
        got = table[g]
        if got is None:
            mul = self.parent._mul
            left = mul[self.parent._inv[g]]
            got = table[g] = tuple([mul[left[x]][g] for x in self.members])
        return got

    def rows(self, gs: Sequence[int]) -> tuple[tuple[int, ...], ...]:
        """``row(g)`` for each g of ``gs``, in order: one ``picker`` call on
        the table, and ``row`` only for the rows still missing."""
        table = self._rows
        if table is None:
            table = self._rows = [None] * self.parent.order
        got = picker(gs)(table)
        if None in got:
            row = self.row
            got = tuple([r if r is not None else row(g)
                         for g, r in zip(gs, got)])
        return got

    def conjugate(self, g: int) -> "Subgroup":
        return Subgroup(self.parent, tuple(sorted(self.row(g))))

    def join(self, other: "Subgroup") -> "Subgroup":
        """Subgroup generated by both."""
        if self.parent is not other.parent:
            raise NotAGroup("join of subgroups of different groups")
        if other.member_set <= self.member_set:
            return self
        if self.member_set <= other.member_set:
            return other
        return self.parent.generated_subgroup(self.members + other.members)

    def meet(self, other: "Subgroup") -> "Subgroup":
        return Subgroup(self.parent, tuple(sorted(self.member_set & other.member_set)))

    def product_set(self, other: "Subgroup") -> tuple[int, ...]:
        """The set self*other (not necessarily a subgroup), sorted."""
        mul = self.parent._mul
        return tuple(sorted({mul[a][b] for a in self.members for b in other.members}))

    def product(self, other: "Subgroup") -> "Subgroup":
        """HK for H = self and K = other, one of which normalizes the
        other, as the caller vouches: then HK = KH is a subgroup, so it is
        <H, K>, and it is the product set, with no closure."""
        if other.member_set <= self.member_set:
            return self
        if self.member_set <= other.member_set:
            return other
        return Subgroup(self.parent, self.product_set(other))

    def is_normal_in(self, other: "Subgroup") -> bool:
        """Is self normalized by other?  H^g = H for every g in other iff
        gens(H)^g <= H for every g in gens(other); read off H's table."""
        mem = self.member_set
        at = self.positions
        of_gens = picker([at[x] for x in self.generators])
        return all(mem.issuperset(of_gens(self.row(g))) for g in other.generators)

    def is_elementwise_commuting(self, other: "Subgroup") -> bool:
        mul = self.parent._mul
        return all(mul[a][b] == mul[b][a] for a in self.generators
                   for b in other.generators)

    def sort_key(self) -> tuple:
        """Canonical lattice position: descending order, then lexicographic."""
        return (-len(self.members), self.members)

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order}, members={list(self.members)})"


def _forget(table: dict, members: tuple[int, ...]) -> Callable[[weakref.ref], None]:
    """The callback of the weak reference interning a subgroup: it deletes
    the entry for ``members`` only while the entry still holds that dead
    reference, not one interning a newer subgroup of the same members."""
    def forget(ref: weakref.ref) -> None:
        if table.get(members) is ref:
            del table[members]
    return forget


def extend_by_generators(G: FiniteGroup, H: FiniteGroup, gens: Sequence[int],
                         images: Sequence[int]) -> Optional[dict[int, int]]:
    """The map f: <gens> -> H with f(1) = 1 and f(xg) = f(x)h for each
    generator g with image h, grown from 1 along the right Cayley graph;
    None at the first element reached with two images.  With no conflict
    f is a homomorphism: its domain D is closed under the generators, so
    D = <gens>, and f(yx) = f(y)f(x) for x, y in D by induction along a
    path 1 -> x, as f(yxg) = f(yx)h = f(y)f(x)h = f(y)f(xg)."""
    mul_g, mul_h = G._mul, H._mul
    pairs = list(zip(gens, images))
    mp = {0: 0}
    frontier = [0]
    while frontier:
        new = []
        for x in frontier:
            row_g, row_h = mul_g[x], mul_h[mp[x]]
            for g, h in pairs:
                y, fy = row_g[g], row_h[h]
                old = mp.get(y)
                if old is None:
                    mp[y] = fy
                    new.append(y)
                elif old != fy:
                    return None
        frontier = new
    return mp


class Hom:
    """Homomorphism between subgroups, stored as a total image list.

    ``images[i]`` is the image of ``domain.members[i]``.  The domain and
    codomain may live in different parent groups (projections, embeddings);
    fusion-system morphisms always stay inside one parent and are injective.

    Most maps are only ever read as image keys, so the dict ``_map`` (x ->
    image) and the identity ``_key`` are slots left unset until first read
    (``__getattr__``).  Subgroups are interned, so ``_key`` holds the domain
    and codomain objects themselves.  The constructor trusts its images;
    ``check_shape`` and ``validate`` are the explicit checks.
    """

    __slots__ = ("domain", "codomain", "images", "_map", "_key", "_image_sub")

    def __init__(self, domain: Subgroup, codomain: Subgroup,
                 images: Sequence[int]) -> None:
        self.domain = domain
        self.codomain = codomain
        self.images = images if type(images) is tuple else tuple(images)
        self._image_sub: Optional[Subgroup] = None

    def __getattr__(self, name: str):
        """Fill the slot ``_map`` or ``_key`` on its first read."""
        if name == "_map":
            self._map = dict(zip(self.domain.members, self.images))
            return self._map
        if name == "_key":
            self._key = (self.domain, self.codomain, self.images)
            return self._key
        raise AttributeError(name)

    def check_shape(self) -> "Hom":
        """One image per member of the domain, each in the codomain."""
        cod = self.codomain.member_set
        if len(self.images) != len(self.domain.members):
            raise NotAGroup("image list length mismatch")
        for y in self.images:
            if y not in cod:
                raise NotAGroup("image leaves the codomain")
        return self

    def validate(self) -> "Hom":
        """``check_shape``, then multiplicativity on every pair."""
        self.check_shape()
        mul_d = self.domain.parent._mul
        mul_c = self.codomain.parent._mul
        mp = self._map
        for a in self.domain.members:
            fa = mp[a]
            for b in self.domain.members:
                if mp[mul_d[a][b]] != mul_c[fa][mp[b]]:
                    raise NotAGroup(f"map is not multiplicative at ({a},{b})")
        return self

    # -- identity and ordering ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Hom) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def sort_key(self) -> tuple:
        return (self.domain.sort_key(), self.codomain.sort_key(), self.images)

    def __repr__(self) -> str:
        pairs = ", ".join(f"{a}->{b}" for a, b in zip(self.domain.members, self.images))
        return f"Hom({pairs})"

    # -- queries -------------------------------------------------------------

    def __call__(self, x: int) -> int:
        return self._map[x]

    def apply_set(self, xs: Iterable[int]) -> tuple[int, ...]:
        mp = self._map
        return tuple(sorted(mp[x] for x in xs))

    @property
    def image(self) -> Subgroup:
        img = self._image_sub
        if img is None:
            img = Subgroup(self.codomain.parent, tuple(sorted(set(self.images))))
            self._image_sub = img
        return img

    @property
    def is_injective(self) -> bool:
        return len(set(self.images)) == len(self.images)

    def is_identity(self) -> bool:
        return (self.domain == self.codomain
                and self.domain.parent is self.codomain.parent
                and self.images == self.domain.members)

    def subgroup_image(self, P: Subgroup) -> Subgroup:
        return Subgroup(self.codomain.parent, self.apply_set(P.members))

    # -- constructions -------------------------------------------------------

    def then(self, other: "Hom") -> "Hom":
        """Composite: apply self first, then other (left-to-right order)."""
        mp = other._map
        return Hom(self.domain, other.codomain, tuple(mp[y] for y in self.images))

    def cores(self) -> "Hom":
        """Corestriction onto the image (the canonical iso form)."""
        img = self.image
        if img == self.codomain:
            return self
        return Hom(self.domain, img, self.images)

    def restrict_cores(self, P: Subgroup) -> "Hom":
        mp = self._map
        imgs = tuple(mp[x] for x in P.members)
        cod = Subgroup(self.codomain.parent, tuple(sorted(imgs)))
        return Hom(P, cod, imgs)

    def inverse(self) -> "Hom":
        if not self.is_injective or self.image != self.codomain:
            raise NotAGroup("only isomorphisms onto the codomain invert")
        pairs = sorted(zip(self.images, self.domain.members))
        return Hom(self.codomain, self.domain, tuple(b for _, b in pairs))

    @staticmethod
    def identity(P: Subgroup) -> "Hom":
        return Hom(P, P, P.members)

    @staticmethod
    def conjugation(P: Subgroup, g: int) -> "Hom":
        """c_g restricted to P and corestricted to P^g: x -> g^-1 x g; the
        images are the row of g in P's table."""
        imgs = P.row(g)
        return Hom(P, Subgroup(P.parent, tuple(sorted(imgs))), imgs)

    @staticmethod
    def from_generator_images(domain: Subgroup, codomain: Subgroup,
                              gens: Sequence[int], images: Sequence[int]) -> "Hom":
        """Extend gen -> image multiplicatively over <gens> = domain, for
        outside input: the map is checked by ``validate``."""
        if len(gens) != len(images):
            raise NotAGroup("generator and image counts differ")
        mp = extend_by_generators(domain.parent, codomain.parent, gens, images)
        if mp is None:
            raise NotAGroup("generator images are inconsistent")
        if set(mp) != domain.member_set:
            raise NotAGroup("generators do not generate the domain")
        return Hom(domain, codomain, tuple(mp[x] for x in domain.members)).validate()


class Twist:
    """phi -> phi^alpha on image keys, for one alpha and the morphisms phi
    from one subgroup P, where alpha is injective on <P, P^phi>.

    phi^alpha sends x^alpha to (x^phi)^alpha.  ``target`` is P^alpha as a
    sorted member tuple and ``images(phi.images)`` is the image key of
    phi^alpha on it.  The same holds for any map alpha injective there, in
    another universe too, which is how ``fusion.transport_isos`` pushes
    iso-sets; the Hom form is ``push`` in ``tests/oracles.py``.  The moved
    domain and its sort order are computed once, so each phi costs one
    tuple."""

    __slots__ = ("target", "_order", "_map")

    def __init__(self, alpha: Hom, P: Subgroup) -> None:
        a = alpha._map
        moved = [a[x] for x in P.members]
        self._order = sorted(range(len(moved)), key=moved.__getitem__)
        self.target = tuple([moved[i] for i in self._order])
        self._map = a

    def images(self, phi_images: Sequence[int]) -> tuple[int, ...]:
        a = self._map
        return tuple([a[phi_images[i]] for i in self._order])


# -- classical operators ------------------------------------------------------


def normalizer(ambient: Subgroup, H: Subgroup, base: Subgroup) -> Subgroup:
    """N_ambient(H): the g with H^g <= H, that is gens(H)^g <= H, picked
    off the conjugation table of ``base``, a subgroup containing H."""
    mem = H.member_set
    at = base.positions
    of_gens = picker([at[x] for x in H.generators])
    keys = map(of_gens, base.rows(ambient.members))
    out = compress(ambient.members, map(mem.issuperset, keys))
    return Subgroup(ambient.parent, tuple(out))


def centralizer(ambient: Subgroup, H: Subgroup, base: Subgroup) -> Subgroup:
    """C_ambient(H): the g that commute with gens(H), that is fix them,
    picked off the conjugation table of ``base``, a subgroup containing
    H."""
    gens = H.generators
    at = base.positions
    of_gens = picker([at[x] for x in gens])
    keys = map(of_gens, base.rows(ambient.members))
    out = compress(ambient.members, map(gens.__eq__, keys))
    return Subgroup(ambient.parent, tuple(out))


def center(ambient: Subgroup) -> Subgroup:
    return centralizer(ambient, ambient, ambient)


def sylow_subgroup(ambient: Subgroup, p: int) -> Subgroup:
    """A Sylow p-subgroup of ``ambient``; canonical smallest member tuple,
    the least P^g over every g of ambient."""
    P = _sylow_search(ambient, p)
    best = min(tuple(sorted(P.row(g))) for g in ambient.members)
    return Subgroup(ambient.parent, best)


def _sylow_search(ambient: Subgroup, p: int) -> Subgroup:
    """Some Sylow p-subgroup of ``ambient``, grown from 1 by steps P ->
    P<g_p>: g is the first member of ambient, in member order, outside P
    whose p-part g_p lies outside P and which normalizes P.

    The conditions are tested cheapest first, so g's row in P's table is
    read only for the g that pass the others, and N_ambient(P) is never
    formed; the first g found is the first member of N_ambient(P) that
    passes, which is what filtering the normalizer gives (the eager form
    is ``sylow_search_literal`` in ``tests/oracles.py``).  g normalizes P
    iff its whole row lies in P: ``row`` builds the row in full anyway,
    and gens(P) would cost a Dimino run for each P of the walk.  Each
    step grows P to a larger p-group: g_p is a power of g, so it
    normalizes P too, and P<g_p>/P is cyclic of p-power order.  While P
    is not a Sylow subgroup, p divides |N_ambient(P) : P| (Sylow's
    theorem), so a p-element of the normalizer outside P exists and the
    walk finds one."""
    G = ambient.parent
    target = p_part(ambient.order, p)
    P = Subgroup(G, (0,))
    while P.order < target:
        mem = P.member_set
        for g in ambient.members:
            k = G.element_order(g)
            if g in mem or k % p:
                continue
            gp = G.power(g, k // p_part(k, p))
            if gp not in mem and mem.issuperset(P.row(g)):
                P = G.generated_subgroup(P.members + (gp,))
                break
        else:
            raise NotAGroup("Sylow search stalled; ambient is not a group?")
    return P


def core(ambient: Subgroup, P: Subgroup) -> Subgroup:
    """The largest subgroup of P normal in ``ambient``: P cut down to its
    meet with its images under gens(ambient), read off its table, until
    no generator moves it.  Every step keeps the core, which each g fixes;
    the last subgroup C lies in C^g for every generator, so C^g = C and
    C is normalized by the group they generate."""
    C = P
    while True:
        mem = C.member_set
        cut = mem.intersection(*C.rows(ambient.generators))
        if len(cut) == len(mem):
            return C
        C = Subgroup(ambient.parent, tuple(sorted(cut)))


def o_p(ambient: Subgroup, p: int) -> Subgroup:
    """O_p: the intersection of all Sylow p-subgroups, that is the core of
    any one of them; no canonical Sylow subgroup is needed."""
    return core(ambient, _sylow_search(ambient, p))


def o_p_prime(ambient: Subgroup, p: int) -> Subgroup:
    """O_{p'}: the largest normal subgroup of order coprime to p, as the
    join of the normal closures <x^ambient> of the p'-elements x whose
    closure is a p'-group, one per conjugacy class.

    Why the join is O_{p'}.  Each such closure is a normal p'-subgroup,
    so it lies in O_{p'}, and so does their join.  Conversely, every x of
    O_{p'} is a p'-element whose closure lies in O_{p'}, a p'-group, so x
    lies in one of the joined closures.  The closures are normal, so the
    join is their product (``Subgroup.product``).  The walk over every
    normal subgroup is ``o_p_prime_literal`` in ``tests/oracles.py``."""
    G = ambient.parent
    atoms = (G.generated_subgroup(cls) for cls in conjugacy_classes(ambient)
             if G.element_order(cls[0]) % p)
    return reduce(Subgroup.product, (atom for atom in atoms if atom.order % p),
                  G.trivial_subgroup)


def o_upper_p(ambient: Subgroup, p: int) -> Subgroup:
    """O^p: the subgroup generated by all p'-elements."""
    G = ambient.parent
    gens = [g for g in ambient.members if G.element_order(g) % p != 0]
    sub = G.generated_subgroup(gens) if gens else Subgroup(G, (0,))
    return sub


def derived_subgroup(ambient: Subgroup) -> Subgroup:
    """G' = [G, G] for G = ``ambient``, as the normal closure N of the
    commutators [a, b] of the generators a, b of G: the subgroup generated
    by their conjugacy classes, each the orbit under conjugation by
    gens(G).

    Why N = G'.  N is generated by conjugates of commutators, so N <= G'.
    G/N is generated by the images of gens(G), which commute pairwise
    because every [a, b] lies in N; so G/N is abelian, and G' <= N.  The
    all-pairs form is ``derived_subgroup_literal`` in ``tests/oracles.py``."""
    G = ambient.parent
    gens = ambient.generators
    seen = {G.commutator(a, b) for a in gens for b in gens}
    orbit = list(seen)
    for x in orbit:                     # orbit grows
        for g in gens:
            y = G.conj(x, g)
            if y not in seen:
                seen.add(y)
                orbit.append(y)
    return G.generated_subgroup(seen)


class QuotientGroup(NamedTuple):
    """G/N with a deterministic coset labeling (minimal representatives)."""

    group: FiniteGroup
    projection: Hom
    kernel: Subgroup


def quotient(ambient: Subgroup, N: Subgroup) -> QuotientGroup:
    """Quotient of ``ambient`` by a normal subgroup N."""
    G = ambient.parent
    if not N.member_set <= ambient.member_set or not N.is_normal_in(ambient):
        raise NotNormal(f"subgroup of order {N.order} is not normal")
    mul = G._mul
    nset = N.members
    coset_of: dict[int, int] = {}
    reps: list[int] = []
    for g in ambient.members:
        if g in coset_of:
            continue
        rep_index = len(reps)
        members = sorted(mul[g][n] for n in nset)
        for x in members:
            coset_of[x] = rep_index
        reps.append(members[0])
    m = len(reps)
    table = [[coset_of[mul[reps[i]][reps[j]]] for j in range(m)] for i in range(m)]
    qname = f"{G.name}/{N.order}"
    Q = FiniteGroup(qname, table)
    # Index 0 really is the identity coset: reps[0] is the minimal element of N.
    if coset_of[0] != 0:
        raise NotAGroup("identity coset mislabeled")
    proj = Hom(ambient, Q.full_subgroup,
               tuple(coset_of[g] for g in ambient.members))
    return QuotientGroup(Q, proj, N)


def as_group(H: Subgroup, name: Optional[str] = None) -> tuple[FiniteGroup, Hom]:
    """Materialize a subgroup as a standalone FiniteGroup plus the embedding.
    Row a of the table is the row of a in the parent's table, picked at
    H's members and renumbered by H's positions."""
    G = H.parent
    index_of = H.positions.__getitem__
    pick = picker(H.members)
    table = [list(map(index_of, pick(G._mul[a]))) for a in H.members]
    grp = FiniteGroup(name or f"{G.name}|{H.order}", table)
    embed = Hom(grp.full_subgroup, H, H.members)
    return grp, embed


# -- subgroup enumeration ------------------------------------------------------


def subgroup_lattice(H: Subgroup) -> tuple[Subgroup, ...]:
    """All subgroups of the p-group H in the canonical order (descending
    size, then lex), at most ``active_caps.lattice`` of them; ValueError
    when |H| is not a prime power.

    The walk starts at 1 and goes up by steps of index p: from each P
    found, to P<x> for every x of N_H(P) outside P with x^p in P, the
    normalizer read off H's conjugation table.  Why that finds every
    subgroup, and only subgroups.  P<x> is the union of the cosets P x^i,
    i < p: x normalizes P and x^p lies in P, so those cosets are closed
    under multiplication, and P<x> is a subgroup of order p|P|.
    Conversely, every subgroup Q of a p-group has a chain 1 = Q_0 < Q_1 <
    ... < Q_m = Q in which each Q_i is normal in Q_{i+1} of index p (a
    maximal subgroup of a p-group is normal of index p), and Q_{i+1} =
    Q_i<x> for any x in Q_{i+1} outside Q_i: x normalizes Q_i, and x^p
    lies in Q_i since Q_{i+1}/Q_i has order p.  So by induction on i the
    walk reaches every Q_i (Holt, Eick and O'Brien, *Handbook of
    Computational Group Theory*, 2005).  Every x of P<x> outside P gives
    the same step, so those x are skipped once it is taken.  The
    closure-join form is ``subgroup_lattice_literal`` in
    ``tests/oracles.py``.

    This order is the iteration order used by every other module.  The
    lattice is kept on H (``Subgroup.derived``) under the cap it was walked
    with, so a smaller cap walks again and raises.
    """
    cap = active_caps.lattice
    G = H.parent
    key = ("lattice", cap)
    cached = H.derived.get(key)
    if cached is not None:
        return cached
    n = H.order
    p = next((q for q in range(2, n + 1) if n % q == 0), 2)
    if p_part(n, p) != n:
        raise ValueError(f"subgroup_lattice needs a p-group, got order {n}")
    mul = G._mul
    at = H.positions
    h_rows = H.rows(H.members)
    to_p = {}                               # x -> x^p
    for x in H.members:
        y = x
        for _ in range(p - 1):
            y = mul[y][x]
        to_p[x] = y
    trivial = Subgroup(G, (0,))
    seen: dict[tuple[int, ...], Subgroup] = {trivial.members: trivial}
    frontier = [trivial]
    while frontier:
        new: list[Subgroup] = []
        for P in frontier:
            pset = P.member_set
            of_gens = picker([at[x] for x in P.generators])
            done = set(pset)
            for x, r in zip(H.members, h_rows):
                if (x in done or to_p[x] not in pset
                        or not pset.issuperset(of_gens(r))):
                    continue
                elems, y = list(P.members), x
                for _ in range(p - 1):      # the cosets P x^i, 0 < i < p
                    elems.extend([mul[h][y] for h in P.members])
                    y = mul[y][x]
                done.update(elems)
                mem = tuple(sorted(elems))
                if mem not in seen:
                    seen[mem] = bigger = Subgroup(G, mem)
                    new.append(bigger)
                    if len(seen) > cap:
                        raise CapExceeded(
                            f"subgroup lattice exceeds cap {cap}")
        frontier = new
    out = H.derived[key] = tuple(sorted(seen.values(), key=Subgroup.sort_key))
    return out


def conjugacy_classes(ambient: Subgroup) -> tuple[tuple[int, ...], ...]:
    """The conjugacy classes of the non-identity elements of ``ambient``,
    in order of their first member: each the orbit of that member under
    gens(ambient), read off the rows of gens(ambient) in its table."""
    rows = ambient.rows(ambient.generators)
    at = ambient.positions
    seen = {0}
    out = []
    for g in ambient.members:
        if g in seen:
            continue
        orbit = [g]
        seen.add(g)
        for x in orbit:
            i = at[x]
            for row in rows:
                y = row[i]
                if y not in seen:
                    seen.add(y)
                    orbit.append(y)
        out.append(tuple(orbit))
    return tuple(out)


def normal_joins(ambient: Subgroup, start: Subgroup,
                 keep: Callable[[Subgroup], bool]) -> list[Subgroup]:
    """The normal subgroups of ``ambient`` that the atom-join walk from
    ``start``, a normal subgroup of it, reaches: ``start``, then,
    breadth-first, each join of a reached subgroup with an atom, the
    normal closure of one conjugacy class, that ``keep`` accepts.  A join
    that ``keep`` refuses is not walked from.

    Every normal subgroup above ``start`` is the join of ``start`` with
    atoms, so with every join kept the walk meets all of them.  A join is
    ``Subgroup.product``: for H and K normal, HK = KH is <H, K>, and no
    closure runs."""
    G = ambient.parent
    atoms = {a.members: a
             for a in map(G.generated_subgroup, conjugacy_classes(ambient))}
    found = {start.members: start}
    frontier = [start]
    while frontier:
        new = []
        for sub in frontier:
            for atom in atoms.values():
                j = sub.product(atom)  # both are normal
                if j.members not in found and keep(j):
                    found[j.members] = j
                    new.append(j)
        frontier = new
    return list(found.values())


def normal_subgroups(ambient: Subgroup) -> tuple[Subgroup, ...]:
    """All normal subgroups of ``ambient``, canonical order: the atom-join
    walk from 1 with every join kept."""
    cached = ambient.derived.get("normals")
    if cached is not None:
        return cached
    trivial = Subgroup(ambient.parent, (0,))
    out = ambient.derived["normals"] = tuple(sorted(
        normal_joins(ambient, trivial, lambda _: True), key=Subgroup.sort_key))
    return out


def picker(pos: Sequence[int]) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """t -> (t[pos[0]], t[pos[1]], ...), a tuple even for one position or
    none (a trivial subgroup has no generators).

    With ``pos`` the positions of the members of Q in the members of P, it
    restricts an image key given on P to Q; with ``pos`` the positions of
    the images of a map h in its codomain, it turns the image key of a map
    g from that codomain into the key of h then g."""
    if not pos:
        return lambda t: ()
    if len(pos) == 1:
        j = pos[0]
        return lambda t: (t[j],)
    return itemgetter(*pos)


def lattice_covers(H: Subgroup) -> tuple[tuple[tuple[int, Callable], ...], ...]:
    """The covering relation of ``subgroup_lattice(H)``, by lattice position:
    entry i holds a pair (j, restrict) for each maximal subgroup M =
    lattice[j] of P = lattice[i], in lattice order, where ``restrict`` is
    the ``picker`` of the positions of M.members in P.members.  Kept on H
    beside the lattice, under the same cap.

    One pass from the smallest member up keeps, per member, the bit mask of
    the members strictly below it (K <= P iff gens(K) <= P); M is maximal
    in P iff it is strictly below P and strictly below no member strictly
    below P."""
    key = ("covers", active_caps.lattice)
    cached = H.derived.get(key)
    if cached is not None:
        return cached
    subs = subgroup_lattice(H)
    n = len(subs)
    below = [0] * n
    out: list[tuple[tuple[int, Callable], ...]] = [()] * n
    for i in range(n - 1, -1, -1):        # smaller members come later
        P = subs[i]
        pset, order = P.member_set, P.order
        mask = 0
        for j in range(i + 1, n):
            K = subs[j]
            if (K.order < order and order % K.order == 0
                    and pset.issuperset(K.generators)):
                mask |= 1 << j
        below[i] = mask
        under = 0
        for j in _bits(mask):
            under |= below[j]
        at = P.positions
        out[i] = tuple((j, picker([at[x] for x in subs[j].members]))
                       for j in _bits(mask & ~under))
    got = H.derived[key] = tuple(out)
    return got


def _bits(mask: int) -> Iterable[int]:
    """Positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# -- outside input: tables built and checked from generator columns -----------


def cayley_columns(n: int, gens: Sequence[int],
                   gen_columns: Sequence[Sequence[int]],
                   given: Optional[Sequence[tuple[int, ...]]] = None,
                   ) -> list[tuple[int, ...]]:
    """The columns of a group of order ``n`` (``cols[y][x]`` is xy, with 0
    the identity), built or checked from the right multiplications by a
    generating set: ``gen_columns[k][x]`` is x ``gens[k]``.

    Each generator column must be a permutation of 0..n-1 made of exact
    integers whose entry 0 is its generator's index (NotAGroup otherwise;
    ParseError for a non-integer entry or an index out of range).  The walk
    starts at 0, whose column is the identity, and runs breadth-first over
    the right Cayley graph.  On each edge (y, g) it forms ((xy)g)_x with one
    ``picker(cols[y])`` call on g's column.  When the walk first reaches z
    = yg, that tuple becomes the column of z, unless the columns are
    ``given`` (a table read from outside), and is otherwise compared with
    the column of z, whose entries are x(yg).  A failed comparison raises
    NotAGroup naming an (x, y, g) with (xy)g != x(yg).  The walk must reach
    all n elements, or ParseError: the generators do not generate.  Last,
    0 must be a two-sided identity: its column is the identity and entry 0
    of every column is its own index.

    Why that proves a group.  The n |gens| comparisons are Light's test
    (Clifford and Preston, *The Algebraic Theory of Semigroups* I, Section
    1.2): (xy)g = x(yg) for all x, y and every g in gens, where every z is
    ((0 g_1) g_2) ... g_k with each g_i in gens, since the walk reached it.
    Then (xy)z = x(yz) for all x, y, z, by induction on k:
    (xy)(wg) = ((xy)w)g = (x(yw))g = x((yw)g) = x(y(wg)).  So the table
    is associative, and 0 is its identity.  Each column is a composite of
    generator columns (the column of yg is that of y followed by that of
    g), so each is a permutation: right multiplication by z is a bijection,
    z has a left inverse, and an associative table with an identity and
    left inverses is a group.  The rows are ``zip(*columns)``.  The work is
    n |gens| pickers of n entries, in C."""
    full = set(range(n))
    if not set(map(type, gens)) <= {int}:
        raise ParseError(f"generator_indices {list(gens)!r} are not all integers")
    if not all(0 <= g < n for g in gens):
        raise ParseError(f"generator_indices {list(gens)} out of range 0..{n-1}")
    if len(gens) != len(gen_columns):
        raise ParseError(f"{len(gens)} generator indices but "
                         f"{len(gen_columns)} generator columns")
    pairs = list(zip(gens, map(tuple, gen_columns)))
    for g, col in pairs:
        if not set(map(type, col)) <= {int}:
            raise ParseError(f"the column of generator {g} has a non-integer entry")
        if len(col) != n or set(col) != full:
            raise NotAGroup(f"the column of generator {g} is not a permutation "
                            f"of 0..{n-1}")
        if col[0] != g:
            raise NotAGroup(f"entry 0 of the column of generator {g} is {col[0]}")
    cols: list = list(given) if given is not None else [None] * n
    if given is None:
        cols[0] = tuple(range(n))
    seen = bytearray(n)
    seen[0] = 1
    reached = [0]
    for y in reached:                                # reached grows
        times_y = picker(cols[y])                    # col -> ((xy)g)_x
        for g, col in pairs:
            z = col[y]
            got = times_y(col)
            if not seen[z]:
                seen[z] = 1
                reached.append(z)
                if given is None:
                    cols[z] = got
                    continue
            have = cols[z]                           # (x(yg))_x
            if have != got:
                x = next(x for x in range(n) if have[x] != got[x])
                raise NotAGroup(f"associativity fails at ({x},{y},{g})")
    if len(reached) != n:
        raise ParseError(f"generator_indices {list(gens)} do not generate "
                         f"the table")
    if cols[0] != tuple(range(n)) or any(col[0] != z for z, col in enumerate(cols)):
        raise NotAGroup("index 0 is not a two-sided identity")
    return cols


def _from_columns(name: str, gens: Sequence[int],
                  cols: list[tuple[int, ...]]) -> FiniteGroup:
    G = FiniteGroup(name, list(zip(*cols)))
    G.generator_indices = tuple(gens)
    return G


def group_from_columns(name: str, order: int, generator_indices: Sequence[int],
                       generator_columns: Sequence[Sequence[int]]) -> FiniteGroup:
    """The group of ``order`` elements whose right multiplications by
    ``generator_indices`` are ``generator_columns``, checked as outside
    input by ``cayley_columns``."""
    if type(order) is not int or order < 1:
        raise ParseError(f"order {order!r} is not a positive integer")
    gens = list(generator_indices)
    return _from_columns(name, gens,
                         cayley_columns(order, gens, list(generator_columns)))


def group_from_permutations(name: str,
                            generators: Sequence[Sequence[int]]) -> FiniteGroup:
    """The group generated by 1-based permutation images, of order at most
    ``active_caps.group``.  Its elements are the identity, then the other
    permutations in sorted order; a then b applies a first.  Only the
    columns of the generators are computed, during the enumeration, and
    ``cayley_columns`` builds the table from them.  The per-pair form is
    ``group_from_permutations_literal`` in ``tests/oracles.py``."""
    cap = active_caps.group
    if not generators:
        raise NotAGroup("at least one generator is required")
    degree = len(generators[0])
    gens: list[tuple[int, ...]] = []
    for images in generators:
        if len(images) != degree:
            raise NotAGroup("generators act on different point sets")
        if not set(map(type, images)) <= {int}:
            raise ParseError(f"{list(images)} has a non-integer image")
        perm = tuple(x - 1 for x in images)
        if sorted(perm) != list(range(degree)):
            raise NotAGroup(f"{list(images)} is not a permutation of 1..{degree}")
        gens.append(perm)
    ident = tuple(range(degree))
    # a then b (right action on points) is picker(a)(b); times[x] holds
    # x then g for each generator g.
    times = {ident: None}
    frontier = [ident]
    while frontier:
        new = []
        for x in frontier:
            then = picker(x)
            times[x] = row = [then(g) for g in gens]
            for y in row:
                if y not in times:
                    times[y] = None
                    new.append(y)
                    if len(times) > cap:
                        raise CapExceeded(
                            f"group generated exceeds cap {cap}")
        frontier = new
    ordered = [ident] + sorted(p for p in times if p != ident)
    index = {p: i for i, p in enumerate(ordered)}.__getitem__
    gen_cols = [tuple(map(index, col))
                for col in zip(*map(times.__getitem__, ordered))]
    gen_idx = [index(g) for g in gens]
    G = _from_columns(name, gen_idx, cayley_columns(len(ordered), gen_idx, gen_cols))
    G.perm_images = tuple(ordered)
    return G


def right_span_generators(mul: Sequence[Sequence[int]]) -> list[int]:
    """Greedy generators of a table by right multiplication from 0: each
    element not yet reached from 0 by right multiplication by those kept
    before it."""
    gens: list[int] = []
    reached = {0}
    for a in range(len(mul)):
        if a in reached:
            continue
        gens.append(a)
        frontier = list(reached)
        while frontier:
            new = []
            for x in frontier:
                row = mul[x]
                for g in gens:
                    y = row[g]
                    if y not in reached:
                        reached.add(y)
                        new.append(y)
            frontier = new
    return gens


def group_from_table(name: str, table: Sequence[Sequence[int]]) -> FiniteGroup:
    """A group given by its full multiplication table, index 0 the
    identity.  The table is outside input: it must be n rows of n exact
    integers (ParseError otherwise), each row a permutation of 0..n-1
    (NotAGroup otherwise).  ``cayley_columns`` then runs Light's test with
    every column given, on ``right_span_generators``, and checks the
    identity; its argument shows that the columns are permutations too.
    The order is bounded by ``active_caps.group``."""
    cap = active_caps.group
    n = len(table)
    if n > cap:
        raise CapExceeded(f"group order {n} exceeds cap {cap}")
    if n == 0:
        raise NotAGroup("empty multiplication table")
    rows = tuple(map(tuple, table))
    full = set(range(n))
    for a, row in enumerate(rows):
        if not set(map(type, row)) <= {int}:
            raise ParseError(f"row {a} has a non-integer entry")
        if len(row) != n:
            raise NotAGroup(f"row {a} has length {len(row)}, expected {n}")
        if set(row) != full:
            raise NotAGroup(f"row {a} is not a permutation of 0..{n-1}")
    cols = list(zip(*rows))
    gens = right_span_generators(rows)
    cayley_columns(n, gens, [cols[g] for g in gens], given=cols)
    G = FiniteGroup(name, rows)
    G.generator_indices = tuple(gens)
    return G
