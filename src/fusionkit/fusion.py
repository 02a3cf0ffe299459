"""Fusion systems at desk scale.

A fusion system is stored through its sets of isomorphisms-onto-image: for
each subgroup P of the support, ``isos_from(P)`` lists every morphism from P
corestricted to its image.  Full hom-sets Hom(P,Q) are derived views (every
morphism factors as an isomorphism onto its image followed by an inclusion),
so this representation is lossless.

Systems are immutable once constructed; only ``name`` may be reassigned.  A
system given by a witness group alone is determined by its content key
``(support.members, witness.members)``.  Its derived data (iso-sets,
classes, classification, saturation, local subsystems, normality reports)
lives in a slot of the registry on its top system, shared by every system
with the same content key under that top, so it is computed once per
content.  A system with explicit iso-sets has no content key, even when it
also carries a witness, and keeps its derived data on the object itself.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from .errors import (DomainMismatch, MorphismOutsideSupport, NotAGroup,
                     NotSylow)
from .groups import (FiniteGroup, Hom, Subgroup, maximal_subgroups, p_part,
                     subgroup_lattice)


class FusionSystem:
    """Fusion system over ``support`` inside the parent group of the support.

    Either ``witness`` (a realizing subgroup W: morphisms are conjugations by
    elements of W) or ``explicit`` iso-sets must be supplied.  ``ambient``
    points at the outermost (top) system a subsystem lives in; subsystems of
    subsystems are re-based so towers never form.

    ``content_key`` is ``(support.members, witness.members)`` when the
    witness alone defines the system.  It is None when ``explicit`` tables
    are given, with or without a witness: then the witness does not determine
    the hom-sets (the mutation self-tests corrupt systems this way).  Systems
    with equal content keys under one top share a slot of derived data
    (``_isos``, ``_iso_keys``, ``_cache``) in the top's ``_registry``.  The
    registry lives on the top, not on the universe, so it is freed with the
    top system, and a mutated top, being a new top, starts an empty one.  A
    system without a content key owns its slot.

    A result that depends on two systems is memoized in one system's slot
    under the other's content key (see ``pair_key`` and ``memo``).
    """

    def __init__(self, support: Subgroup, p: int,
                 witness: Optional[Subgroup] = None,
                 explicit: Optional[dict[tuple[int, ...], tuple[Hom, ...]]] = None,
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
        self.content_key: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = (
            (support.members, witness.members) if explicit is None else None)
        self._registry: Optional[dict[tuple, tuple[dict, dict, dict]]] = (
            {} if self.ambient is None else None)
        top = self.top()
        if self.content_key is not None and top.universe is self.universe:
            slot = top._registry.setdefault(self.content_key, ({}, {}, {}))
        else:
            slot = ({}, {}, {})
        self._isos: dict[tuple[int, ...], tuple[Hom, ...]] = slot[0]
        self._iso_keys: dict[tuple[int, ...], frozenset] = slot[1]
        self._cache: dict = slot[2]

    def top(self) -> "FusionSystem":
        return self.ambient if self.ambient is not None else self

    @property
    def realized(self) -> bool:
        return self.witness is not None

    def pair_key(self, tag: str, *others: "FusionSystem") -> Optional[tuple]:
        """Key for a result on this system and ``others``, memoized in this
        system's slot; None when some other system has no content key in
        this universe, so that result is not memoized."""
        if any(D.content_key is None or D.universe is not self.universe
               for D in others):
            return None
        return (tag, *(D.content_key for D in others))

    def memo(self, key: Optional[tuple], compute: Callable[[], Any]) -> Any:
        """``compute()``, stored in this system's slot under ``key``."""
        if key is None:
            return compute()
        got = self._cache.get(key)
        if got is None:
            got = compute()
            self._cache[key] = got
        return got

    def __repr__(self) -> str:
        return f"FusionSystem({self.name}, |S|={self.support.order}, p={self.p})"

    # -- objects ---------------------------------------------------------------

    def subgroups(self) -> tuple[Subgroup, ...]:
        return subgroup_lattice(self.support)

    def subgroup(self, members: Iterable[int]) -> Subgroup:
        return Subgroup(self.universe, tuple(sorted(set(members))))

    # -- morphisms ---------------------------------------------------------------

    def isos_from(self, P: Subgroup) -> tuple[Hom, ...]:
        """All morphisms from P, corestricted onto their images."""
        got = self._isos.get(P.members)
        if got is not None:
            return got
        if not P.member_set <= self.support.member_set:
            raise DomainMismatch("subgroup is not inside the support")
        if self._explicit is not None:
            out = self._explicit.get(P.members)
            if out is None:
                raise DomainMismatch("iso-sets do not cover this subgroup")
        else:
            found: dict[tuple, Hom] = {}
            supp = self.support.member_set
            conj = self.universe.conj
            for w in self.witness.members:
                imgs = tuple(conj(x, w) for x in P.members)
                if not set(imgs) <= supp:
                    continue
                key = imgs
                if key not in found:
                    cod = Subgroup(self.universe, tuple(sorted(imgs)), check=False)
                    found[key] = Hom(P, cod, imgs, witness=w, check=False)
            out = tuple(sorted(found.values(), key=Hom.sort_key))
        self._isos[P.members] = out
        return out

    def _keys_from(self, P: Subgroup) -> frozenset:
        got = self._iso_keys.get(P.members)
        if got is None:
            got = frozenset(h.images for h in self.isos_from(P))
            self._iso_keys[P.members] = got
        return got

    def extensions(self, phi: Hom, U: Subgroup) -> Iterator[Hom]:
        """Lazily yield each psi in ``isos_from(U)``, in that order, with
        psi|_{dom phi} = phi; dom phi must lie in U.  A generator, so that
        a caller needing one witness stops at the first."""
        if not phi.domain.member_set <= U.member_set:
            raise DomainMismatch("phi is not defined inside U")
        at = {x: i for i, x in enumerate(U.members)}
        pairs = [(at[x], y) for x, y in zip(phi.domain.members, phi.images)]
        for psi in self.isos_from(U):
            imgs = psi.images
            if all(imgs[i] == y for i, y in pairs):
                yield psi

    def contains_morphism(self, h: Hom) -> bool:
        """Is ``h`` (any codomain) a morphism of this system?"""
        if h.domain.parent is not self.universe:
            return False
        if not (h.domain.member_set <= self.support.member_set
                and set(h.images) <= self.support.member_set):
            return False
        return h.images in self._keys_from(h.domain)

    def hom_set(self, P: Subgroup, Q: Subgroup) -> tuple[Hom, ...]:
        """The exact set Hom(P,Q), morphisms carried with codomain Q."""
        qset = Q.member_set
        out = [h.into(Q) for h in self.isos_from(P) if set(h.images) <= qset]
        return tuple(sorted(out, key=Hom.sort_key))

    def automorphisms(self, P: Subgroup) -> tuple[Hom, ...]:
        return tuple(h for h in self.isos_from(P) if h.codomain == P)

    def inner_automorphisms(self, P: Subgroup) -> tuple[Hom, ...]:
        """Aut_P(P): conjugations by elements of P itself."""
        found = {}
        for x in P.members:
            h = Hom.conjugation(P, x, codomain=P)
            found.setdefault(h.images, h)
        return tuple(sorted(found.values(), key=Hom.sort_key))

    def automizer_in(self, R: Subgroup, P: Subgroup) -> tuple[Hom, ...]:
        """Aut_R(P): conjugations by elements of N_R(P)."""
        found = {}
        conj = self.universe.conj
        pset = P.member_set
        for g in R.members:
            imgs = tuple(conj(x, g) for x in P.members)
            if imgs not in found and set(imgs) == pset:
                found[imgs] = Hom(P, P, imgs, witness=g, check=False)
        return tuple(sorted(found.values(), key=Hom.sort_key))

    # -- conjugacy ---------------------------------------------------------------

    def classes(self) -> tuple[tuple[Subgroup, ...], ...]:
        got = self._cache.get("classes")
        if got is not None:
            return got
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
        out = tuple(sorted((tuple(sorted(b, key=Subgroup.sort_key))
                            for b in buckets.values()),
                           key=lambda c: c[0].sort_key()))
        self._cache["classes"] = out
        return out

    def class_of(self, P: Subgroup) -> tuple[Subgroup, ...]:
        for cls in self.classes():
            if P in cls:
                return cls
        raise DomainMismatch("subgroup is not inside the support")

    # -- whole-system views --------------------------------------------------------

    def materialize(self) -> dict[tuple[int, ...], tuple[Hom, ...]]:
        return {P.members: self.isos_from(P) for P in self.subgroups()}

    def morphism_count(self) -> int:
        return sum(len(self.isos_from(P)) for P in self.subgroups())


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


def close_morphisms(support: Subgroup, seeds: Iterable[Hom],
                    ) -> dict[tuple[int, ...], tuple[Hom, ...]]:
    """Fixed-point closure over ``support``: inner maps of the support plus
    ``seeds``, closed under restriction, corestriction and composition.

    The fusion-system axioms do not force inverses of isomorphisms, so no
    inverses are added.  Termination: all sets are subsets of the finite set
    of injections between subgroups of the support.
    """
    subs = subgroup_lattice(support)
    registry: dict[tuple[int, ...], dict[tuple, Hom]] = {P.members: {} for P in subs}
    by_image: dict[tuple[int, ...], list[Hom]] = {P.members: [] for P in subs}
    maxsubs: dict[tuple[int, ...], tuple[Subgroup, ...]] = {}
    for P in subs:
        inside = [K for K in subs if K.member_set <= P.member_set]
        maxsubs[P.members] = maximal_subgroups(P, inside)
    work: deque[Hom] = deque()

    def add(h: Hom) -> None:
        slot = registry.get(h.domain.members)
        if slot is None:
            raise MorphismOutsideSupport("morphism domain leaves the support")
        if h.codomain.members not in registry:
            raise MorphismOutsideSupport("morphism image leaves the support")
        key = h.images
        old = slot.get(key)
        if old is None:
            slot[key] = h
            by_image[h.codomain.members].append(h)
            work.append(h)
        elif (old.witness is None and h.witness is not None):
            slot[key] = h  # same map, better provenance

    for r in support.members:
        add(Hom.conjugation(support, r))
    for h in seeds:
        add(h.cores())
    while work:
        h = work.popleft()
        for M in maxsubs[h.domain.members]:
            add(h.restrict_cores(M))
        for g in list(registry[h.codomain.members].values()):
            add(h.then(g))
        for f in list(by_image[h.domain.members]):
            add(f.then(h))
    return {mem: tuple(sorted(slot.values(), key=Hom.sort_key))
            for mem, slot in registry.items()}


def generated_subsystem(F: FusionSystem, R: Subgroup,
                        generators: Iterable[Hom],
                        check_inside: bool = True) -> FusionSystem:
    """<C>_R: the smallest subsystem of F over R containing the generators."""
    gens = [h.cores() for h in generators]
    rset = R.member_set
    for h in gens:
        if not (h.domain.member_set <= rset and set(h.images) <= rset):
            raise MorphismOutsideSupport(
                f"generator {h!r} leaves the support of order {R.order}")
        if check_inside and not F.contains_morphism(h):
            raise MorphismOutsideSupport(f"generator {h!r} is not a morphism of F")
    explicit = close_morphisms(R, gens)
    return FusionSystem(R, F.p, explicit=explicit, ambient=F.top(),
                        name=f"<{len(gens)} gens>_{R.order}")


def generated_fusion_system(support: Subgroup, p: int,
                            generators: Iterable[Hom],
                            name: str = "") -> FusionSystem:
    """A free-standing generated fusion system (no ambient), e.g. a direct product."""
    explicit = close_morphisms(support, [h.cores() for h in generators])
    return FusionSystem(support, p, explicit=explicit,
                        name=name or f"gen_{support.order}")


# -- morphism/subsystem transport -----------------------------------------------


def conjugate_morphism(phi: Hom, alpha: Hom) -> Optional[Hom]:
    """phi^alpha = (alpha|_P)^-1 . phi . alpha on P^alpha: the map
    x^alpha -> (x^phi)^alpha, corestricted onto its image.  None when phi
    or alpha is not injective on <P, P^phi> (``Hom.push``)."""
    dom = phi.domain.member_set | set(phi.images)
    if not dom <= alpha.domain.member_set:
        raise DomainMismatch("alpha is not defined on <P, P^phi>")
    return phi.push(alpha)


def transport_isos(E: FusionSystem, sigma: Hom) -> dict[tuple[int, ...], tuple[Hom, ...]]:
    """Iso-sets of E pushed through an injective map defined on the support."""
    if not E.support.member_set <= sigma.domain.member_set:
        raise DomainMismatch("transport map is not defined on the support")
    out: dict[tuple[int, ...], tuple[Hom, ...]] = {}
    for P in E.subgroups():
        out[sigma.apply_set(P.members)] = tuple(
            sorted((h.push(sigma) for h in E.isos_from(P)), key=Hom.sort_key))
    return out


def conjugate_subsystem(E: FusionSystem, alpha: Hom) -> FusionSystem:
    """E^alpha: the subsystem over T^alpha with hom-sets {phi^alpha}."""
    explicit = transport_isos(E, alpha)
    return FusionSystem(alpha.subgroup_image(E.support), E.p, explicit=explicit, ambient=E.ambient,
                        name=f"({E.name})^a")


def transported_system(E: FusionSystem, sigma: Hom, name: str = "") -> FusionSystem:
    """E carried into another universe along an injective map (no ambient)."""
    explicit = transport_isos(E, sigma)
    return FusionSystem(sigma.subgroup_image(E.support), E.p, explicit=explicit, name=name or f"{E.name}^t")


# -- comparisons -----------------------------------------------------------------


def subsystem_contains(D1: FusionSystem, D2: FusionSystem) -> bool:
    """Exact hom-set-wise containment D2 <= D1 over the smaller support."""
    if D1.universe is not D2.universe:
        return False
    if not D2.support.member_set <= D1.support.member_set:
        return False
    for P in D2.subgroups():
        if not D2._keys_from(P) <= D1._keys_from(P):
            return False
    return True


def subsystem_equal(D1: FusionSystem, D2: FusionSystem) -> bool:
    if D1.universe is not D2.universe or D1.support != D2.support:
        return False
    return all(D1._keys_from(P) == D2._keys_from(P) for P in D1.subgroups())


def full_subcategory(F: FusionSystem, R: Subgroup) -> FusionSystem:
    """F|_{<=R}: all F-morphisms between subgroups of R, as an explicit system."""
    explicit: dict[tuple[int, ...], tuple[Hom, ...]] = {}
    rset = R.member_set
    for P in subgroup_lattice(R):
        homs = tuple(h for h in F.isos_from(P) if set(h.images) <= rset)
        explicit[P.members] = homs
    return FusionSystem(R, F.p, explicit=explicit, ambient=F.top(),
                        name=f"{F.name}|<= {R.order}")


# -- axioms ----------------------------------------------------------------------


def validate_fusion_system(F: FusionSystem) -> list[str]:
    """Exhaustive fusion-axiom audit; returns a list of violations (empty = ok).

    Checks: Hom_S(P,Q) is contained in the system, morphisms are injective
    maps between subgroups of the support, and the iso-sets are closed under
    restriction and composition (divisibility is built into the encoding).
    """
    problems: list[str] = []
    subs = subgroup_lattice(F.support)
    inside = {P.members for P in subs}
    for P in subs:
        isos = F.isos_from(P)
        keys = {h.images for h in isos}
        for x in F.support.members:
            h = Hom.conjugation(P, x)
            if set(h.images) <= F.support.member_set and h.images not in keys:
                problems.append(f"missing inner map by {x} on {P.members}")
        for h in isos:
            if not h.is_injective:
                problems.append(f"non-injective morphism on {P.members}")
            if h.codomain.members not in inside:
                problems.append(f"image escapes the support from {P.members}")
            sub_lattice_P = [K for K in subs if K.member_set <= P.member_set]
            for M in maximal_subgroups(P, sub_lattice_P):
                r = h.restrict_cores(M)
                if r.images not in F._keys_from(M):
                    problems.append(
                        f"restriction of {h!r} to {M.members} missing")
            for g in F.isos_from(h.codomain):
                c = h.then(g)
                if c.images not in keys:
                    problems.append(f"composition {h!r};{g!r} missing")
    return problems


# -- automorphism groups as finite groups -------------------------------------------


class MorphismGroup:
    """A finite group of automorphisms of one subgroup, under composition.

    Elements are Hom objects with equal domain and codomain; index 0 is the
    identity.  Used to run the group-theoretic operators (O_p, O^p, Sylow)
    on automorphism groups.
    """

    def __init__(self, autos: Sequence[Hom]) -> None:
        if not autos:
            raise NotAGroup("empty automorphism set")
        P = autos[0].domain
        for h in autos:
            if h.domain != P or h.codomain != P:
                raise NotAGroup("not all maps are automorphisms of one subgroup")
        ident = Hom.identity(P)
        rest = sorted({h for h in autos if h != ident}, key=Hom.sort_key)
        if len(rest) == len(autos):
            raise NotAGroup("automorphism set lacks the identity")
        self.homs: tuple[Hom, ...] = (ident,) + tuple(rest)
        self.base = P
        index = {h.images: i for i, h in enumerate(self.homs)}
        table = []
        for a in self.homs:
            row = []
            for b in self.homs:
                c = a.then(b)
                k = index.get(c.images)
                if k is None:
                    raise NotAGroup("automorphism set is not closed under composition")
                row.append(k)
            table.append(row)
        self.group = FiniteGroup(f"Aut({P.order})", table, check=False)
        self._index = index

    def index_of(self, h: Hom) -> int:
        k = self._index.get(h.images)
        if k is None:
            raise NotAGroup("automorphism is not in this group")
        return k

    def subgroup_from_homs(self, homs: Iterable[Hom]) -> Subgroup:
        return self.group.subgroup(sorted(self.index_of(h) for h in homs),
                                   check=False)

    def homs_of(self, sub: Subgroup) -> tuple[Hom, ...]:
        if sub.parent is not self.group:
            raise DomainMismatch("subgroup of a different automorphism group")
        return tuple(sorted((self.homs[i] for i in sub.members), key=Hom.sort_key))
