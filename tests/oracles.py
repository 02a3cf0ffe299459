"""Reference code the tests run against the package: brute-force oracles,
the member-level forms of the group kernel (closure, normalizer,
centralizer, normality, automizers, iso-sets, extension groups, normal
subgroups, maximal subgroups) that the package computes on generating sets,
subgroup conjugation tables or the lattice's covering relation, the
subgroup lattice of any group by a fresh closure per join (the package
walks p-groups by steps of index p), the per-pair tables of a permutation group
(``group_from_permutations_literal``) and of an automorphism group
(``Hom.then`` per pair), the columns the Cayley-graph walk of
``groups.cayley_columns`` meets, entry by entry
(``cayley_columns_literal``), the exhaustive
fusion-axiom audit, the literal morphism and subsystem transports
(``push`` and ``from_pairs``; ``conjugate_morphism`` is the Hom form of
``groups.Twist`` and ``transport_isos_literal`` that of
``fusion.transport_isos``), the greedy automorphism generating sets of the
persisted records, and the direct product F1 x F2 with the product
structure theorem behind ``induced_by_some_pair``.

The Hom forms of the morphism-algebra paths the package runs on image keys
or on the table of Aut_F(P) are here too: the worklist closure
(``close_morphisms_literal``), the reachability search of conjugation
families (``reachable_literal``), the star generators
(``star_generators_literal``), the central-product test
(``is_central_product_literal`` over ``push_product_pair`` and
``induced_by_some_pair``), the subgroup, normality and product tests on
automorphism sets (``aut_sets_normal_literal``, ``a_circle_literal``,
``h_group_literal``, ``frattini_cons_literal``,
``coincide_check_literal``), and the per-morphism forms of the
predicates the package decides on counts and restriction keys: the
classification (``classify_literal``), the saturation report through
``extend_morphism`` (``saturation_report_literal``), F-normality of a
subgroup (``normal_in_system_literal``) and strong closure
(``is_strongly_closed_literal``).  The model of a constrained system
built on O_p(F), found by the scan for F-normal subgroups
(``model_on_o_p_literal``, with ``o_p_prime_literal``,
``verify_model_literal`` and ``core_literal``), the eager Sylow search
(``sylow_search_literal``), the commutators of all pairs
(``derived_subgroup_literal``), the normal model searched
over every normal subgroup (``normal_model_literal``), R* on that
model (``r_star_on_o_p_literal``) and the isomorphism search that
closes a partial map under products on both sides
(``find_isomorphism_literal``) are here, as are the loops over every
automorphism of the stability and extension clauses of the normality
report (``stability_literal``, and ``extension_property_literal``, a
search over ``extensions`` per alpha where the package reads one table
of image keys), the
Frattini property's loop over every alpha^-1, applied member by member
(``frattini_property_literal``), the per-product table of ``as_group``
(``as_group_literal``) and ``EasyCentralizer`` with clause (a) tested
beta by beta for every (X, phi) (``easy_centralizer_literal``).  As in
the package, a Hom is its domain, codomain and image tuple: no oracle
records which element realizes a map, and none compares such elements.
No package code path calls any of it."""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from fusionkit.centralizers import (c_F_of, c_s_of, centralized_set,
                                    normalizer_family, z_of)
from fusionkit.errors import (CapExceeded, DomainMismatch, ModelNotFound,
                              ModelNotUnique, MorphismOutsideSupport,
                              NotAGroup, NotConstrained, VerificationFailed)
from fusionkit.fusion import (FusionSystem, close_morphisms,
                              fusion_of_group, subsystem_contains,
                              transport_isos)
from fusionkit.groups import (FiniteGroup, Hom, Subgroup, Twist, active_caps,
                              as_group, centralizer, normal_subgroups,
                              normalizer, o_p, p_part, quotient,
                              subgroup_lattice, sylow_subgroup)
from fusionkit.models import Model, is_constrained, script_G
from fusionkit.saturation import (SaturationReport, SubgroupClassification,
                                  aut_group, canonical_family, classify,
                                  is_saturated, o_upper_p_automorphisms)
from fusionkit.subsystems import centralizer_subsystem


# -- groups ---------------------------------------------------------------------


def subgroup_lattice_bruteforce(H: Subgroup) -> tuple[Subgroup, ...]:
    """Independent oracle: test every subset.  Only viable for tiny groups."""
    G = H.parent
    if H.order > 16:
        raise CapExceeded("brute-force subset oracle limited to order 16")
    rest = [x for x in H.members if x != 0]
    out = []
    for r in range(len(rest) + 1):
        for combo in itertools.combinations(rest, r):
            mem = (0,) + combo
            mset = set(mem)
            if all(G.inv(a) in mset and G.mul(a, b) in mset
                   for a in mem for b in mem):
                out.append(Subgroup(G, tuple(sorted(mem))))
    return tuple(sorted(out, key=Subgroup.sort_key))


def maximal_subgroups(H: Subgroup, subs_of: Optional[Sequence[Subgroup]] = None) -> tuple[Subgroup, ...]:
    """Maximal proper subgroups of H (within a precomputed lattice if given):
    the proper subgroups below no other proper subgroup."""
    lattice = subs_of if subs_of is not None else subgroup_lattice(H)
    proper = [K for K in lattice if K.order < H.order and K.member_set <= H.member_set]
    out = []
    for K in proper:
        if not any(K < L and L.member_set <= H.member_set and L.order < H.order
                   for L in proper):
            out.append(K)
    return tuple(sorted(out, key=Subgroup.sort_key))


def product_group(A: FiniteGroup, B: FiniteGroup, cap: Optional[int] = None,
                  name: Optional[str] = None) -> tuple[FiniteGroup, Hom, Hom, Hom, Hom]:
    """Direct product AxB: returns (group, incl_A, incl_B, proj_A, proj_B).

    Element (a, b) has index a*|B| + b, so the identity is index 0.
    """
    if cap is None:
        cap = active_caps.group
    n = A.order * B.order
    if n > cap:
        raise CapExceeded(f"product order {n} exceeds cap {cap}")
    nb = B.order
    table = [[0] * n for _ in range(n)]
    for a1 in range(A.order):
        for b1 in range(B.order):
            i = a1 * nb + b1
            row = table[i]
            for a2 in range(A.order):
                pa = A.mul(a1, a2) * nb
                mb = B._mul[b1]
                base = a2 * nb
                for b2 in range(B.order):
                    row[base + b2] = pa + mb[b2]
    P = FiniteGroup(name or f"{A.name}x{B.name}", table)
    full = P.full_subgroup
    iota_a = Hom(A.full_subgroup, full, tuple(a * nb for a in range(A.order)))
    iota_b = Hom(B.full_subgroup, full, tuple(range(B.order)))
    proj_a = Hom(full, A.full_subgroup, tuple(i // nb for i in range(n)))
    proj_b = Hom(full, B.full_subgroup, tuple(i % nb for i in range(n)))
    return P, iota_a, iota_b, proj_a, proj_b


# -- the group kernel, member by member -----------------------------------------


def closure_literal(G: FiniteGroup, seed: Iterable[int]) -> tuple[int, ...]:
    """<seed> by multiplying every element reached by every seed element,
    on both sides, until nothing new appears."""
    elems = {0}
    frontier = [0]
    gens = sorted(set(seed))
    for g in gens:
        if g not in elems:
            elems.add(g)
            frontier.append(g)
    mul = G._mul
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                for y in (mul[x][g], mul[g][x]):
                    if y not in elems:
                        elems.add(y)
                        new.append(y)
        frontier = new
    return tuple(sorted(elems))


def _composition_table(ordered: Sequence[tuple[int, ...]]) -> list[list[int]]:
    """a*b for every pair of permutations of ``ordered``, by index: one
    composition per pair, applying a first, then b."""
    degree = len(ordered[0])
    index_of = {perm: i for i, perm in enumerate(ordered)}

    def compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(b[a[i]] for i in range(degree))

    return [[index_of[compose(a, b)] for b in ordered] for a in ordered]


def permutation_table_literal(G: FiniteGroup) -> list[list[int]]:
    """The multiplication table of a group built by
    ``group_from_permutations``, from its ``perm_images`` with one
    composition per pair: a*b applies a first, then b."""
    return _composition_table(G.perm_images)


def group_from_permutations_literal(name: str,
                                    generators: Sequence[Sequence[int]]
                                    ) -> FiniteGroup:
    """``group_from_permutations`` with the whole table filled pair by
    pair: the closure of the 1-based generators under composition, the
    identity first and the other permutations sorted, and a*b the index of
    a then b."""
    gens = [tuple(x - 1 for x in images) for images in generators]
    ident = tuple(range(len(gens[0])))
    elems, frontier = {ident}, [ident]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = tuple(g[i] for i in x)
                if y not in elems:
                    elems.add(y)
                    new.append(y)
        frontier = new
    ordered = [ident] + sorted(elems - {ident})
    G = FiniteGroup(name, _composition_table(ordered))
    G.perm_images = tuple(ordered)
    G.generator_indices = tuple(ordered.index(g) for g in gens)
    return G


def cayley_columns_literal(n: int, gen_columns: Sequence[Sequence[int]],
                           ) -> dict[int, list[int]]:
    """The column of each element reached from 0 by right multiplication
    by the generators, as ``groups.cayley_columns`` first meets it: the
    composite of generator columns along the first path of a
    breadth-first walk, generators in the given order, entry by entry.
    Nothing is checked, so on columns that are not a group's the columns
    are those the kernel compared against."""
    cols = {0: list(range(n))}
    queue = deque([0])
    while queue:
        y = queue.popleft()
        for col in gen_columns:
            z = col[y]
            if z not in cols:
                cols[z] = [col[cols[y][x]] for x in range(n)]
                queue.append(z)
    return cols


def normalizer_literal(ambient: Subgroup, H: Subgroup) -> Subgroup:
    """The g in ambient with x^g in H for every member x of H."""
    G = ambient.parent
    mem = H.member_set
    return Subgroup(G, tuple(g for g in ambient.members
                             if all(G.conj(x, g) in mem for x in H.members)))


def centralizer_literal(ambient: Subgroup, H: Subgroup) -> Subgroup:
    """The g in ambient commuting with every member of H."""
    mul = ambient.parent._mul
    return Subgroup(ambient.parent,
                    tuple(g for g in ambient.members
                          if all(mul[g][x] == mul[x][g] for x in H.members)))


def is_normal_in_literal(H: Subgroup, K: Subgroup) -> bool:
    """x^g in H for every member x of H and every member g of K."""
    conj = H.parent.conj
    mem = H.member_set
    return all(conj(x, g) in mem for x in H.members for g in K.members)


def is_elementwise_commuting_literal(H: Subgroup, K: Subgroup) -> bool:
    mul = H.parent._mul
    return all(mul[a][b] == mul[b][a] for a in H.members for b in K.members)


def automizer_in_literal(F: FusionSystem, R: Subgroup,
                         P: Subgroup) -> tuple[Hom, ...]:
    """Aut_R(P): c_g on every member of P, for every g in R with P^g = P,
    one Hom per distinct map."""
    found: dict[tuple, Hom] = {}
    conj = F.universe.conj
    pset = P.member_set
    for g in R.members:
        imgs = tuple(conj(x, g) for x in P.members)
        if imgs not in found and set(imgs) == pset:
            found[imgs] = Hom(P, P, imgs)
    return tuple(sorted(found.values(), key=Hom.sort_key))


def isos_from_literal(F: FusionSystem, P: Subgroup) -> tuple[Hom, ...]:
    """The iso-set of a realized system: c_w on every member of P, for
    every w in the witness group with P^w in S, one Hom per distinct
    map."""
    found: dict[tuple, Hom] = {}
    supp = F.support.member_set
    conj = F.universe.conj
    for w in F.witness.members:
        imgs = tuple(conj(x, w) for x in P.members)
        if imgs not in found and set(imgs) <= supp:
            cod = Subgroup(F.universe, tuple(sorted(imgs)))
            found[imgs] = Hom(P, cod, imgs)
    return tuple(sorted(found.values(), key=Hom.sort_key))


def extension_group_literal(F: FusionSystem, phi: Hom) -> Subgroup:
    """N_phi = {g in N_S(P) : phi^-1 c_g phi in Aut_S(Q)}, with both maps
    compared on every member of Q = P^phi."""
    phi = phi.cores()
    P, Q = phi.domain, phi.codomain
    conj = F.universe.conj
    back = dict(zip(phi.images, P.members))
    keys = {h.images for h in automizer_in_literal(F, F.support, Q)}
    return Subgroup(F.universe, tuple(
        g for g in normalizer_literal(F.support, P).members
        if tuple(phi(conj(back[y], g)) for y in Q.members) in keys))


def extensions(F: FusionSystem, phi: Hom, U: Subgroup) -> Iterator[Hom]:
    """Lazily yield each psi in ``F.isos_from(U)``, in that order, with
    psi|_{dom phi} = phi, compared member by member; dom phi must lie in
    U."""
    if not phi.domain.member_set <= U.member_set:
        raise DomainMismatch("phi is not defined inside U")
    for psi in F.isos_from(U):
        if all(psi(x) == y for x, y in zip(phi.domain.members, phi.images)):
            yield psi


def extend_morphism(F: FusionSystem, phi: Hom, U: Subgroup) -> Optional[Hom]:
    """Some psi in Hom_F(U, S) with psi|_P = phi, or None (Absent)."""
    return next(extensions(F, phi, U), None)


def normal_subgroups_literal(ambient: Subgroup) -> tuple[Subgroup, ...]:
    """Joins of the normal closures of single elements, one full orbit per
    element."""
    G = ambient.parent
    atoms: dict[tuple[int, ...], Subgroup] = {}
    for g in ambient.members:
        if g != 0:
            mem = closure_literal(G, {G.conj(g, h) for h in ambient.members})
            atoms.setdefault(mem, Subgroup(G, mem))
    found = {(0,): Subgroup(G, (0,))}
    frontier = list(found.values())
    while frontier:
        new = []
        for sub in frontier:
            for atom in atoms.values():
                mem = closure_literal(G, sub.members + atom.members)
                if mem not in found:
                    found[mem] = Subgroup(G, mem)
                    new.append(found[mem])
        frontier = new
    return tuple(sorted(found.values(), key=Subgroup.sort_key))


def subgroup_lattice_literal(H: Subgroup) -> tuple[Subgroup, ...]:
    """All subgroups of H, canonical order: the cyclic subgroups, then joins
    with them until nothing new appears, each join a fresh closure of the
    members of both."""
    G = H.parent
    seen: dict[tuple[int, ...], Subgroup] = {(0,): Subgroup(G, (0,))}
    cyclics: list[tuple[int, ...]] = []
    for g in H.members:
        mem = G.closure((g,))
        if mem not in seen:
            seen[mem] = Subgroup(G, mem)
            cyclics.append(mem)
    frontier = list(seen.values())
    while frontier:
        new: list[Subgroup] = []
        for sub in frontier:
            for cyc in cyclics:
                if set(cyc) <= sub.member_set:
                    continue
                mem = G.closure(sub.members + cyc)
                if mem not in seen:
                    seen[mem] = Subgroup(G, mem)
                    new.append(seen[mem])
        frontier = new
    return tuple(sorted(seen.values(), key=Subgroup.sort_key))


def morphism_group_table_literal(homs: Sequence[Hom]) -> list[list[int]]:
    """The composition table of ``MorphismGroup.homs``: the index of
    ``a.then(b)``, one Hom per pair; NotAGroup when a composite is
    missing."""
    index = {h.images: i for i, h in enumerate(homs)}
    table = []
    for a in homs:
        row = []
        for b in homs:
            k = index.get(a.then(b).images)
            if k is None:
                raise NotAGroup("automorphism set is not closed under composition")
            row.append(k)
        table.append(row)
    return table


# -- subgroups of Aut_F(P), pair by pair ----------------------------------------


def _closed(homs: Sequence[Hom]) -> bool:
    """Every composite a then b of two members is a member."""
    keys = {h.images for h in homs}
    return all(a.then(b).images in keys for a in homs for b in homs)


def _normalized(homs: Sequence[Hom], F: FusionSystem, P: Subgroup) -> bool:
    """Every conjugate a^chi, chi in Aut_F(P), of a member is a member."""
    keys = {h.images for h in homs}
    return all(conjugate_morphism(a, chi).images in keys
               for chi in F.automorphisms(P) for a in homs)


def aut_sets_normal_literal(F: FusionSystem, E: FusionSystem,
                            P: Subgroup) -> bool:
    """Aut_E(P) lies in Aut_F(P), holds the identity, is closed under
    composition and is normalized by Aut_F(P)."""
    aut_e = E.automorphisms(P)
    keys_e = {h.images for h in aut_e}
    return (keys_e <= {h.images for h in F.automorphisms(P)}
            and P.members in keys_e and _closed(aut_e)
            and _normalized(aut_e, F, P))


def a_circle_literal(F: FusionSystem, E: FusionSystem,
                     P: Subgroup) -> tuple[Hom, ...]:
    """The automorphisms moving P only inside P n T whose restriction to
    P n T, built as a Hom, lies in E; the same alarms as the package."""
    G = F.universe
    PT = P.meet(E.support)
    out = [phi for phi in F.automorphisms(P)
           if all(G.mul(G.inv(x), phi(x)) in PT.member_set for x in P.members)
           and phi.restrict_cores(PT).images in E._keys_from(PT)]
    if not _closed(out):
        raise VerificationFailed("A-circle is not closed under composition")
    if not _normalized(out, F, P):
        raise VerificationFailed("A-circle is not normal in Aut_F(P)")
    return tuple(sorted(out, key=Hom.sort_key))


def h_group_literal(F: FusionSystem, E: FusionSystem,
                    P: Subgroup) -> tuple[Hom, ...]:
    """The automorphisms of P extending to P N_T(P); the same alarm as the
    package."""
    NT = normalizer(E.support, P, P)
    PN = F.universe.generated_subgroup(P.members + NT.members)
    out = [phi for phi in F.automorphisms(P)
           if any(psi.codomain == PN for psi in extensions(F, phi, PN))]
    if not _closed(out):
        raise VerificationFailed("H(P) is not closed under composition")
    return tuple(sorted(out, key=Hom.sort_key))


def frattini_cons_literal(F: FusionSystem, E: FusionSystem,
                          h_sets: Optional[dict] = None,
                          a_sets: Optional[dict] = None) -> Optional[dict]:
    """Aut_F(P) = H(P) A-circle(P) for every fully normalized P, with the
    product formed as ``g.then(b)`` per pair; the first missing image key
    located.  A factor that is not a subgroup of Aut_F(P) (a map outside
    it, no identity, or a composite ``a.then(b)`` outside the factor) is
    reported first, as the package reports an injected one."""
    cls = classify(F)
    for P in F.subgroups():
        if not cls.is_fully_normalized(P):
            continue
        hs = (h_sets or {}).get(P.members)
        if hs is None:
            hs = h_group_literal(F, E, P)
        asets = (a_sets or {}).get(P.members)
        if asets is None:
            asets = a_circle_literal(F, E, P)
        want = {h.images for h in F.automorphisms(P)}
        for factor in (hs, asets):
            keys = {h.images for h in factor}
            if not (keys <= want and P.members in keys and _closed(factor)):
                return {"P": list(P.members),
                        "kind": "factor is not a subgroup of Aut_F(P)"}
        product = {g.then(b).images for g in hs for b in asets}
        if product != want:
            return {"P": list(P.members), "missing": sorted(want - product)[:1]}
    return None


def coincide_check_literal(F: FusionSystem, E: FusionSystem) -> bool:
    """Aut_{C_F(E)}(P) = O^p(Aut_{C_F(T)}(P)) * Aut_{C_S(E)}(P) for every
    P fully normalized and centric in C_F(E), the product formed as
    ``a.then(b)`` per pair."""
    R = c_s_of(F, E)
    cfe = c_F_of(F, E, C_S_E=R)
    CFT = centralizer_subsystem(F, E.support)
    cls = classify(cfe)
    for P in cfe.subgroups():
        if not (cls.is_fully_normalized(P) and cls.is_centric(P)):
            continue
        lhs = {h.images for h in cfe.automorphisms(P)}
        rhs = {a.then(b).images for a in o_upper_p_automorphisms(CFT, P)
               for b in cfe.automizer_in(R, P)}
        if lhs != rhs:
            return False
    return True


# -- saturation, F-normality and strong closure, morphism by morphism --------


def classify_literal(F: FusionSystem) -> SubgroupClassification:
    """The flags with Aut_S(P) built as Homs (``automizer_in``), C_S(Q)
    computed again for the centric test, and O_p(Aut_F(P)) for every P, so
    ``radical`` covers every subgroup."""
    S = F.support
    n_of: dict[tuple[int, ...], int] = {}
    c_of: dict[tuple[int, ...], int] = {}
    for P in F.subgroups():
        n_of[P.members] = normalizer(S, P, P).order
        c_of[P.members] = centralizer(S, P, P).order
    fully_n, fully_c, fully_a, centric, radical = set(), set(), set(), set(), set()
    for cls in F.classes():
        max_n = max(n_of[Q.members] for Q in cls)
        max_c = max(c_of[Q.members] for Q in cls)
        cls_centric = all(c_of[Q.members] <= Q.order
                          and centralizer(S, Q, Q).member_set <= Q.member_set
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


def _automizer_keys(F: FusionSystem, Q: Subgroup) -> frozenset:
    """Aut_S(Q) keyed by the images of gens(Q), from its Homs."""
    return frozenset(tuple(h(y) for y in Q.generators)
                     for h in F.automizer_in(F.support, Q))


def _extension_group(F: FusionSystem, phi: Hom, n_s_p: Subgroup,
                     aut_s_keys: frozenset) -> Subgroup:
    """N_phi by one pick per member g of N_S(P): g is in N_phi iff pre^g,
    pre = phi^-1(gens(Q)), is a key of Aut_S(Q) pulled back through
    phi^-1."""
    P, Q = phi.domain, phi.codomain
    back = dict(zip(phi.images, P.members))
    if len(back) != P.order:
        raise NotAGroup("only isomorphisms onto the codomain invert")
    pull = back.__getitem__
    pre = list(map(pull, Q.generators))
    pulled = {tuple(map(pull, key)) for key in aut_s_keys}
    G = F.universe
    out = [g for g in n_s_p.members
           if tuple(G.conj(x, g) for x in pre) in pulled]
    return Subgroup(G, tuple(out))


def saturation_report_literal(F: FusionSystem) -> SaturationReport:
    """The Sylow failures, then N_phi computed for each isomorphism phi
    onto a fully centralized subgroup and an extension to it searched
    morphism by morphism (``extend_morphism``)."""
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
                n_s_p = normalizer(F.support, P, P)
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


def normal_in_system_literal(F: FusionSystem, P: Subgroup) -> bool:
    """P normal in F with the extensions to QP searched per morphism phi
    from each source Q, psi(P) = P tested as a set."""
    if not P.is_normal_in(F.support):
        return False
    if is_saturated(F).ok:
        sources = [(R, F.automorphisms(R)) for R in canonical_family(F)]
    else:
        sources = [(Q, F.isos_from(Q)) for Q in F.subgroups()]
    pset = P.member_set
    for Q, homs in sources:
        QP = F.universe.generated_subgroup(Q.members + P.members)
        for phi in homs:
            if not any({psi(x) for x in P.members} == pset
                       for psi in extensions(F, phi, QP)):
                return False
    return True


def is_strongly_closed_literal(F: FusionSystem, T: Subgroup) -> bool:
    """h(x) in T for every x in P n T, every morphism h from every P."""
    tset = T.member_set
    for P in F.subgroups():
        cut = P.member_set & tset
        if not cut:
            continue
        for h in F.isos_from(P):
            if not {h(x) for x in cut} <= tset:
                return False
    return True


# -- fusion systems -------------------------------------------------------------


def close_morphisms_literal(support: Subgroup, seeds: Iterable[Hom],
                            ) -> dict[tuple[int, ...], tuple[Hom, ...]]:
    """Worklist closure on Hom objects: inner maps of the support plus
    ``seeds``, closed under restriction to maximal subgroups and composition
    on both sides, one Hom per distinct map."""
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
        if h.images not in slot:
            slot[h.images] = h
            by_image[h.codomain.members].append(h)
            work.append(h)

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


def keys_of(table: dict[tuple[int, ...], Iterable[Hom]]
            ) -> dict[tuple[int, ...], frozenset]:
    """A table of Homs by domain members as the package stores one: each
    domain's members with the set of image keys of its maps."""
    return {mem: frozenset(h.images for h in homs)
            for mem, homs in table.items()}


def reachable_literal(F: FusionSystem, P: Subgroup,
                      family: Sequence[Subgroup]) -> dict[tuple[int, ...], Hom]:
    """Morphisms from P reachable by composing restrictions of family
    automorphisms, breadth-first on Hom objects, by image key."""
    start = Hom.identity(P)
    reached: dict[tuple[int, ...], Hom] = {start.images: start}
    queue: deque[Hom] = deque([start])
    while queue:
        h = queue.popleft()
        cur = h.codomain
        for R in family:
            if not cur.member_set <= R.member_set:
                continue
            for a in F.automorphisms(R):
                nh = h.then(a.restrict_cores(cur))
                if nh.images not in reached:
                    reached[nh.images] = nh
                    queue.append(nh)
    return reached


def star_generators_literal(F: FusionSystem, F1: FusionSystem,
                            F2: FusionSystem) -> list[Hom]:
    """Morphisms on P1 P2 landing in S1 S2 whose restrictions, built as
    Homs, lie in the factors."""
    T = F.universe.generated_subgroup(F1.support.members + F2.support.members)
    tset = T.member_set
    gens: list[Hom] = []
    seen: set[tuple] = set()
    for P1 in F1.subgroups():
        for P2 in F2.subgroups():
            P = F.universe.generated_subgroup(P1.members + P2.members)
            for psi in F.isos_from(P):
                if not set(psi.images) <= tset:
                    continue
                if psi.restrict_cores(P1).images not in F1._keys_from(P1):
                    continue
                if psi.restrict_cores(P2).images not in F2._keys_from(P2):
                    continue
                key = (P.members, psi.images)
                if key not in seen:
                    seen.add(key)
                    gens.append(psi)
    return gens


def push_product_pair(D: FusionSystem, phi1: Hom, phi2: Hom) -> Optional[Hom]:
    """Image of phi1 x phi2 under the multiplication map, or None when the
    pushed map is ill-defined or non-injective."""
    mul = D.universe._mul
    return from_pairs(D.universe,
                      ((mul[x1][x2], mul[y1][y2])
                       for x1, y1 in zip(phi1.domain.members, phi1.images)
                       for x2, y2 in zip(phi2.domain.members, phi2.images)))


def induced_by_some_pair(D: FusionSystem, F1: FusionSystem, F2: FusionSystem,
                         psi: Hom) -> bool:
    """Is psi the multiplication-map image of some (phi1 x phi2) restriction?

    Every product-system morphism is such a restriction, so the image
    hom-sets come down to pairs (phi1, phi2) together with the largest
    compatible preimage: {(x1,x2) : x1 x2 in dom(psi), psi(x1 x2) =
    phi1(x1) phi2(x2)} is a subgroup, and psi is induced exactly when its
    multiplication image covers dom(psi)."""
    G = D.universe
    mul, inv = G._mul, G._inv
    Pp = psi.domain
    s2set = F2.support.member_set
    cand1 = tuple(sorted(x1 for x1 in F1.support.members
                         if any(mul[inv[x1]][p] in s2set for p in Pp.members)))
    P1max = Subgroup(G, cand1)
    s1set = F1.support.member_set
    cand2 = tuple(sorted(x2 for x2 in F2.support.members
                         if any(mul[p][inv[x2]] in s1set for p in Pp.members)))
    P2max = Subgroup(G, cand2)
    pset = Pp.member_set
    for P1 in subgroup_lattice(P1max):
        for phi1 in F1.isos_from(P1):
            for P2 in subgroup_lattice(P2max):
                for phi2 in F2.isos_from(P2):
                    covered = set()
                    for x1 in P1.members:
                        fx1 = phi1(x1)
                        for x2 in P2.members:
                            t = mul[x1][x2]
                            if t in pset and psi(t) == mul[fx1][phi2(x2)]:
                                covered.add(t)
                    if pset <= covered:
                        return True
    return False


def is_central_product_literal(D: FusionSystem, F1: FusionSystem,
                               F2: FusionSystem) -> bool:
    """The clauses of the definition, checked literally on Homs: central
    intersection, commuting supports, D over S1 S2 containing both factors,
    every pushed pair (phi1, phi2) a morphism of D, and every psi of D
    induced by some pair."""
    S1, S2 = F1.support, F2.support
    meet = S1.meet(S2)
    for Fi in (F1, F2):
        if not meet.member_set <= z_of(Fi).member_set:
            return False
    if not S1.is_elementwise_commuting(S2):
        return False
    T = D.universe.generated_subgroup(S1.members + S2.members)
    if D.support != T:
        return False
    if not (subsystem_contains(D, F1) and subsystem_contains(D, F2)):
        return False
    for P1 in F1.subgroups():
        for phi1 in F1.isos_from(P1):
            for P2 in F2.subgroups():
                for phi2 in F2.isos_from(P2):
                    pushed = push_product_pair(D, phi1, phi2)
                    if pushed is None or not D.contains_morphism(pushed):
                        return False
    for Pp in D.subgroups():
        for psi in D.isos_from(Pp):
            if not induced_by_some_pair(D, F1, F2, psi):
                return False
    return True


def generated_fusion_system(support: Subgroup, p: int,
                            generators: Iterable[Hom],
                            name: str = "") -> FusionSystem:
    """A free-standing generated fusion system (no ambient), e.g. a direct product."""
    explicit = close_morphisms(support, [(h.domain.members, h.images)
                                         for h in generators])
    return FusionSystem(support, p, explicit=explicit,
                        name=name or f"gen_{support.order}")


def from_pairs(parent: FiniteGroup,
               pairs: Iterable[tuple[int, int]]) -> Optional[Hom]:
    """The map x -> y of ``pairs`` in ``parent``, from the set of the x's
    onto the set of the y's (neither is checked to be a subgroup).  None
    when some x is paired with two different y's or two x's share one y."""
    mp: dict[int, int] = {}
    for x, y in pairs:
        if mp.setdefault(x, y) != y:
            return None
    image = set(mp.values())
    if len(image) != len(mp):
        return None
    members = tuple(sorted(mp))
    return Hom(Subgroup(parent, members),
               Subgroup(parent, tuple(sorted(image))),
               tuple(mp[x] for x in members))


def push(h: Hom, sigma: Hom) -> Optional[Hom]:
    """sigma(x) -> sigma(h(x)), corestricted onto its image; None when that
    map is ill-defined or not injective (see ``from_pairs``), never when
    sigma and h are both injective."""
    return from_pairs(sigma.codomain.parent,
                      ((sigma(x), sigma(y))
                       for x, y in zip(h.domain.members, h.images)))


def transport_isos_literal(E: FusionSystem, sigma: Hom
                           ) -> dict[tuple[int, ...], tuple[Hom, ...]]:
    """Iso-sets of E pushed through an injective map defined on the
    support, one ``push`` per morphism."""
    if not E.support.member_set <= sigma.domain.member_set:
        raise DomainMismatch("transport map is not defined on the support")
    return {sigma.apply_set(P.members): tuple(
                sorted((push(h, sigma) for h in E.isos_from(P)),
                       key=Hom.sort_key))
            for P in E.subgroups()}


def conjugate_morphism(phi: Hom, alpha: Hom) -> Optional[Hom]:
    """phi^alpha = (alpha|_P)^-1 . phi . alpha on P^alpha: the map
    x^alpha -> (x^phi)^alpha, corestricted onto its image.  None when phi
    or alpha is not injective on <P, P^phi> (``push``)."""
    dom = phi.domain.member_set | set(phi.images)
    if not dom <= alpha.domain.member_set:
        raise DomainMismatch("alpha is not defined on <P, P^phi>")
    return push(phi, alpha)


def conjugate_subsystem(E: FusionSystem, alpha: Hom) -> FusionSystem:
    """E^alpha: the subsystem over T^alpha with hom-sets {phi^alpha}."""
    explicit = keys_of(transport_isos_literal(E, alpha))
    return FusionSystem(alpha.subgroup_image(E.support), E.p, explicit=explicit, ambient=E.ambient,
                        name=f"({E.name})^a")


def transported_system(E: FusionSystem, sigma: Hom, name: str = "") -> FusionSystem:
    """E carried into another universe along an injective map (no ambient)."""
    explicit = keys_of(transport_isos_literal(E, sigma))
    return FusionSystem(sigma.subgroup_image(E.support), E.p, explicit=explicit, name=name or f"{E.name}^t")


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


def aut_generating_set_greedy(F: FusionSystem, P: Subgroup) -> list[Hom]:
    """Each automorphism of Aut_F(P), in canonical order, that lies outside
    the span of those kept before it; the span is closed by composing on
    both sides until nothing new appears."""
    auts = F.automorphisms(P)
    lookup = {a.images: a for a in auts}
    chosen: list[Hom] = []
    span: set[tuple[int, ...]] = {P.members}
    for h in auts:
        if h.images in span:
            continue
        chosen.append(h)
        span.add(h.images)
        frontier = [h.images]
        while frontier:
            new = []
            for key in frontier:
                a = lookup[key]
                for b in list(span):
                    for c in (a.then(lookup[b]), lookup[b].then(a)):
                        if c.images not in span:
                            span.add(c.images)
                            new.append(c.images)
            frontier = new
    return chosen


# -- models and the normality report ----------------------------------------------


def as_group_literal(H: Subgroup) -> FiniteGroup:
    """H as a standalone group, its table filled product by product."""
    G = H.parent
    index_of = {g: i for i, g in enumerate(H.members)}
    return FiniteGroup(f"{G.name}|{H.order}",
                       [[index_of[G.mul(a, b)] for b in H.members]
                        for a in H.members])


def core_literal(ambient: Subgroup, P: Subgroup) -> Subgroup:
    """The largest subgroup of P normal in ``ambient``: the meet of P^g
    over every g of ambient."""
    G = ambient.parent
    members = set(P.members)
    for g in ambient.members:
        members &= {G.conj(x, g) for x in P.members}
    return Subgroup(G, tuple(sorted(members)))


def sylow_search_literal(ambient: Subgroup, p: int) -> Subgroup:
    """The Sylow search of ``groups._sylow_search`` in its eager form: at
    each step the whole normalizer N_ambient(P), member by member, then
    its first member g outside P whose p-part g_p is outside P and for
    which P<g_p> is a larger p-group."""
    G = ambient.parent
    target = p_part(ambient.order, p)
    P = Subgroup(G, (0,))
    while P.order < target:
        for g in normalizer_literal(ambient, P).members:
            k = G.element_order(g)
            if g in P or k % p:
                continue
            gp = G.power(g, k // p_part(k, p))
            if gp in P:
                continue
            Q = Subgroup(G, closure_literal(G, P.members + (gp,)))
            if Q.order == p_part(Q.order, p) and Q.order > P.order:
                P = Q
                break
        else:
            raise NotAGroup("Sylow search stalled")
    return P


def derived_subgroup_literal(ambient: Subgroup) -> Subgroup:
    """[G, G]: the closure of the commutators of all |G|^2 pairs."""
    G = ambient.parent
    return Subgroup(G, closure_literal(G, {G.commutator(x, y) for x in ambient.members
                                           for y in ambient.members}))


def o_p_prime_literal(ambient: Subgroup, p: int) -> Subgroup:
    """O_{p'}: the largest member of order prime to p in the walk over
    every normal subgroup."""
    best = Subgroup(ambient.parent, (0,))
    for N in normal_subgroups(ambient):
        if N.order % p != 0 and N.order > best.order:
            best = N
    return best


def verify_model_literal(F: FusionSystem, M: FiniteGroup, sigma: Hom) -> None:
    """The model alarms with the fusion compared over the lattice of
    sigma(S) in M and O_p(M) the meet of the conjugates of a Sylow
    subgroup found by search."""
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
    Q = core_literal(M.full_subgroup, sylow_subgroup(M.full_subgroup, p))
    if not centralizer_literal(M.full_subgroup, Q).member_set <= Q.member_set:
        raise VerificationFailed("model is not p-constrained: C_M(O_p) leaves O_p")


def model_on_o_p_literal(F: FusionSystem) -> Model:
    """The model built on O_p(F), O_p(F) found by the scan for F-normal
    subgroups: N_W(O_p(F))/O_{p'}, with O_{p'} from the walk over every
    normal subgroup, verified by ``verify_model_literal``."""
    if not F.realized:
        raise NotConstrained("model construction needs a group-realized system")
    constrained, Q = is_constrained(F)
    if not constrained:
        raise NotConstrained("system has no normal centric subgroup")
    H = normalizer_literal(F.witness, Q)
    Hgrp = as_group_literal(H)
    K = o_p_prime_literal(Hgrp.full_subgroup, F.p)
    qt = quotient(Hgrp.full_subgroup, K)
    M = qt.group
    back = {g: i for i, g in enumerate(H.members)}
    sigma = Hom(F.support, M.full_subgroup,
                tuple(qt.projection(back[x]) for x in F.support.members))
    verify_model_literal(F, M, sigma)
    return Model(M, sigma)


def normal_model_literal(F: FusionSystem, model: Model, E: FusionSystem) -> Subgroup:
    """The normal subgroup of the model realizing E, searched over every
    normal subgroup of the model."""
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
        if all(EN._keys_from(Subgroup(M, mem)) == keys
               for mem, keys in target.items()):
            hits.append(N)
    if not hits:
        raise ModelNotFound("no normal subgroup of the model realizes the subsystem")
    if len(hits) > 1:
        raise ModelNotUnique(
            f"{len(hits)} normal subgroups realize the subsystem")
    return hits[0]


def r_star_on_o_p_literal(F: FusionSystem, E: FusionSystem
                          ) -> tuple[Subgroup, Model, Subgroup]:
    """(R*, the model, the normal model of N_E(T)) with the local system's
    model built on its O_p (``model_on_o_p_literal``)."""
    Gsys, NET = script_G(F, E)
    model = model_on_o_p_literal(Gsys)
    N = normal_model_literal(Gsys, model, NET)
    CSN = centralizer_literal(model.sylow_image, N)
    members = tuple(x for x in F.support.members
                    if model.sigma(x) in CSN.member_set)
    return Subgroup(F.universe, members), model, N


def _close_partial(G1: FiniteGroup, G2: FiniteGroup,
                   pairs: dict[int, int]) -> Optional[dict[int, int]]:
    """Multiplicative closure of a partial map, the identity sent to the
    identity unless a pin sends it elsewhere; None on any conflict (a pin
    0 -> y != 0 is one, as y y != y)."""
    mp = {0: 0, **pairs}
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


def find_isomorphism_literal(G1: FiniteGroup, G2: FiniteGroup,
                             pins: dict[int, int]) -> Optional[dict[int, int]]:
    """Backtracking isomorphism search G1 -> G2 extending the pinned map:
    the partial map closed under products on both sides, then extended at
    the least unmapped element by each unused image of its order."""
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


def stability_literal(F: FusionSystem, E: FusionSystem) -> Optional[dict]:
    """E^alpha <= E on every P, for every alpha in Aut_F(T) in turn."""
    T = E.support
    subs = E.subgroups()
    by_members = {P.members: P for P in subs}
    for alpha in F.automorphisms(T):
        for P in subs:
            twist = Twist(alpha, P)
            if twist.target not in by_members:
                raise NotAGroup(f"alpha {list(alpha.images)} carries P "
                                f"{list(P.members)} to no subgroup")
            keys = E._keys_from(by_members[twist.target])
            for phi in E.isos_from(P):
                if twist.images(phi.images) not in keys:
                    return {"kind": "unstable", "alpha": list(alpha.images),
                            "P": list(P.members), "phi": list(phi.images)}
    return None


def frattini_property_literal(F: FusionSystem, E: FusionSystem
                              ) -> Optional[dict]:
    """The Frattini property with each alpha^-1, alpha in Aut_F(T), kept as
    a dict and applied to phi member by member."""
    T = E.support
    inverses = [dict(zip(alpha.images, T.members))
                for alpha in F.automorphisms(T)]
    for P in E.subgroups():
        keys = E._keys_from(P)
        for phi in F.isos_from(P):
            if not any(tuple(back[y] for y in phi.images) in keys
                       for back in inverses):
                return {"P": list(P.members), "phi": list(phi.images)}
    return None


def extension_property_literal(F: FusionSystem, E: FusionSystem,
                               bound: Subgroup) -> Optional[dict]:
    """For every alpha in Aut_E(T) in turn, a search of ``extensions`` to
    V = TC_S(T) for an automorphism ext of V with [c, ext] in ``bound``
    for every c in C_S(T)."""
    T, G = E.support, F.universe
    C = centralizer(F.support, T, T)
    V = G.generated_subgroup(T.members + C.members)
    for alpha in E.automorphisms(T):
        if not any(ext.codomain == V
                   and all(G.mul(G.inv(c), ext(c)) in bound.member_set
                           for c in C.members)
                   for ext in extensions(F, alpha, V)):
            return {"alpha": list(alpha.images), "bound": list(bound.members)}
    return None


def easy_centralizer_literal(F: FusionSystem, E: FusionSystem
                             ) -> Optional[dict]:
    """``verify.verify_easy_centralizer`` with clause (a) tested beta by
    beta for every (X, phi): beta in C_F(X) iff beta^phi in C_F(X^phi)."""
    T = E.support
    CST = centralizer(F.support, T, F.table_for(T))
    family = {X.members for X in centralized_set(F, E)}
    net_family = {X.members for X in normalizer_family(F, E)}
    for X in subgroup_lattice(CST):
        XT = F.universe.generated_subgroup(X.members + T.members)
        C_X = centralizer_subsystem(F, X)
        inside = [(P, [(beta, C_X.contains_morphism(beta))
                       for beta in E.isos_from(P)]) for P in E.subgroups()]
        for phi in F.isos_from(XT):
            Xphi = phi.subgroup_image(X)
            if not Xphi.member_set <= CST.member_set:
                return {"clause": "a", "X": list(X.members),
                        "phi": list(phi.images), "kind": "image leaves C_S(T)"}
            C_Xphi = centralizer_subsystem(F, Xphi)
            for P, betas in inside:
                twist = Twist(phi, P)
                for beta, lhs in betas:
                    rhs = C_Xphi.contains_key(twist.target,
                                              twist.images(beta.images))
                    if lhs != rhs:
                        return {"clause": "a", "X": list(X.members),
                                "P": list(P.members),
                                "beta": list(beta.images),
                                "phi": list(phi.images)}
            if X.members in family and Xphi.members not in family:
                return {"clause": "b", "X": list(X.members),
                        "image": list(Xphi.members)}
            if X.members in net_family and Xphi.members not in net_family:
                return {"clause": "c", "X": list(X.members),
                        "image": list(Xphi.members)}
    return None


# -- direct products --------------------------------------------------------------


@dataclass(frozen=True)
class DirectProduct:
    """F1 x F2 over a concrete product group, with embeddings materialized."""

    system: FusionSystem
    group: FiniteGroup
    iota1: Hom                 # S1 -> S1 x S2
    iota2: Hom
    pi1: Hom                   # S1 x S2 -> S1
    pi2: Hom
    hat1: FusionSystem         # canonical image of F1
    hat2: FusionSystem


def direct_product(F1: FusionSystem, F2: FusionSystem) -> DirectProduct:
    """The fusion system generated by all maps phi1 x phi2 over S1 x S2; the
    product group is bounded by ``groups.active_caps.group``."""
    if F1.p != F2.p:
        raise VerificationFailed("direct product of systems at different primes")
    A1, e1 = as_group(F1.support, name="S1")
    A2, e2 = as_group(F2.support, name="S2")
    back1 = {g: i for i, g in enumerate(F1.support.members)}
    back2 = {g: i for i, g in enumerate(F2.support.members)}
    PG, _, _, _, _ = product_group(A1, A2, name=f"{F1.name}x{F2.name}")
    nb = A2.order
    full = PG.full_subgroup

    def pack(x1: int, x2: int) -> int:
        return back1[x1] * nb + back2[x2]

    gens: list[Hom] = []
    for P1 in F1.subgroups():
        for h1 in F1.isos_from(P1):
            for P2 in F2.subgroups():
                for h2 in F2.isos_from(P2):
                    gens.append(from_pairs(
                        PG, ((pack(x1, x2), pack(h1(x1), h2(x2)))
                             for x1 in P1.members for x2 in P2.members)))
    system = generated_fusion_system(full, F1.p, gens,
                                     name=f"{F1.name}x{F2.name}")
    iota1 = Hom(F1.support, full, tuple(pack(x, 0) for x in F1.support.members))
    iota2 = Hom(F2.support, full, tuple(pack(0, x) for x in F2.support.members))
    pi1 = Hom(full, F1.support,
              tuple(F1.support.members[i // nb] for i in range(PG.order)))
    pi2 = Hom(full, F2.support,
              tuple(F2.support.members[i % nb] for i in range(PG.order)))
    hat1 = FusionSystem(iota1.image, F1.p, explicit=keys_of(transport_isos_literal(F1, iota1)),
                        ambient=system, name="hat1")
    hat2 = FusionSystem(iota2.image, F2.p, explicit=keys_of(transport_isos_literal(F2, iota2)),
                        ambient=system, name="hat2")
    return DirectProduct(system, PG, iota1, iota2, pi1, pi2, hat1, hat2)


def direct_product_structure_ok(dp: DirectProduct,
                                F1: FusionSystem, F2: FusionSystem) -> bool:
    """Every product-system morphism is (phi1 x phi2) restricted: its push
    along each projection is well defined, injective and a morphism of
    that factor."""
    for P in dp.system.subgroups():
        for h in dp.system.isos_from(P):
            for F_i, pi in ((F1, dp.pi1), (F2, dp.pi2)):
                comp = push(h, pi)
                if comp is None or not F_i.contains_morphism(comp):
                    return False
    return True
