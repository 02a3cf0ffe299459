"""Fusion-system data model: hom-sets, closure, transport, comparisons."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from fusionkit.corpus import builtin_group, builtin_group_path, ingest
from fusionkit.errors import (DomainMismatch, MorphismOutsideSupport,
                              NotAGroup, NotSylow)
from fusionkit.fusion import (MorphismGroup, derived, full_subcategory,
                              fusion_of_group, generated_subsystem,
                              inner_system, realized_subsystem,
                              subsystem_contains, subsystem_equal)
from fusionkit.groups import (Hom, Twist, center, centralizer,
                              group_from_permutations, normal_subgroups,
                              normalizer, o_p, o_upper_p, sylow_subgroup)
from fusionkit.saturation import classify, is_saturated
from fusionkit.subsystems import (centralizer_subsystem, is_normal,
                                  normal_subsystem_in, normalizer_subsystem)
from fusionkit import fusion
from fusionkit.verify import (inner_only_shadow, run_suite, with_added_iso,
                              with_removed_iso, with_replaced_isos)
from oracles import (conjugate_morphism, conjugate_subsystem,
                     validate_fusion_system)


def order3_autos(F, V):
    return [h for h in F.automorphisms(V)
            if all(h(x) != x for x in V.members if x != 0)]


class TestRealizedSystems:
    def test_not_sylow_rejected(self, s4, V4):
        with pytest.raises(NotSylow):
            fusion_of_group(s4, V4, 2)

    def test_aut_v4_has_order_six(self, F_s4, V4, s4):
        # independent oracle: |N_G(V4)| / |C_G(V4)| = 24/4
        n = normalizer(s4.full_subgroup, V4, V4).order
        c = centralizer(s4.full_subgroup, V4, V4).order
        assert n // c == 6
        assert len(F_s4.automorphisms(V4)) == 6

    def test_hom_set_central_c2_to_v4(self, F_s4, V4, s4):
        Z = center(F_s4.support)
        # oracle: distinct conjugation maps over all of G
        maps = {tuple(s4.conj(x, g) for x in Z.members)
                for g in range(24)
                if all(s4.conj(x, g) in V4.member_set for x in Z.members)}
        assert len(maps) == 3
        # Hom(Z, V4): the morphisms from Z whose image lies in V4
        assert len([h for h in F_s4.isos_from(Z)
                    if h.image.member_set <= V4.member_set]) == 3

    def test_inner_maps_present(self, F_s4, V4):
        keys = {h.images for h in F_s4.automorphisms(V4)}
        for s in F_s4.support.members:
            h = Hom.conjugation(V4, s)
            assert h.images in keys

    def test_axioms_exhaustive(self, F_s4):
        assert validate_fusion_system(F_s4) == []

    def test_axioms_for_subsystem(self, E_a4):
        assert validate_fusion_system(E_a4) == []

    def test_abelian_sylow_only_inclusions(self):
        g = builtin_group("c2xc4")
        F = fusion_of_group(g, g.full_subgroup, 2)
        assert F.morphism_count() == len(F.subgroups())

    def test_trivial_sylow(self):
        g = builtin_group("c3xc3")
        S = sylow_subgroup(g.full_subgroup, 2)   # 2 does not divide 9
        F = fusion_of_group(g, S, 2)
        assert S.order == 1 and F.morphism_count() == 1
        assert is_saturated(F).ok

    def test_witness_round_trip(self, F_s4, V4, s4):
        """The iso-set from V4 is exactly the maps c_g|V4, g in S4, with
        image in S."""
        keys = {h.images for h in F_s4.isos_from(V4)}
        conjugations = {Hom.conjugation(V4, g).images for g in range(s4.order)}
        assert keys == {imgs for imgs in conjugations
                        if set(imgs) <= F_s4.support.member_set}


class TestGeneratedSubsystems:
    def test_empty_generators_give_inner_fusion(self, F_s4, V4):
        gen = generated_subsystem(F_s4, V4, [])
        assert subsystem_equal(gen, inner_system(F_s4, V4))

    def test_a4_fusion_from_aut_generators(self, F_s4, E_a4, V4):
        gen = generated_subsystem(F_s4, V4, E_a4.automorphisms(V4))
        assert subsystem_equal(gen, E_a4)

    def test_single_auto_generates_everything(self, F_s4, V4):
        phi = order3_autos(F_s4, V4)[0]
        gen = generated_subsystem(F_s4, F_s4.support, [phi])
        assert subsystem_equal(gen, F_s4)

    def test_idempotent(self, F_s4, E_a4, V4):
        gen = generated_subsystem(F_s4, V4, E_a4.automorphisms(V4))
        again = generated_subsystem(F_s4, V4,
                                    [h for P in gen.subgroups()
                                     for h in gen.isos_from(P)])
        assert subsystem_equal(gen, again)

    def test_monotone(self, F_s4, V4):
        auts = order3_autos(F_s4, V4)
        small = generated_subsystem(F_s4, V4, auts[:1])
        big = generated_subsystem(F_s4, V4, auts)
        assert subsystem_contains(big, small)

    def test_generator_outside_support_rejected(self, F_s4, V4):
        phi = order3_autos(F_s4, V4)[0]
        with pytest.raises(MorphismOutsideSupport):
            generated_subsystem(F_s4, center(F_s4.support), [phi])

    def test_generated_stays_inside_ambient(self, F_s4, V4):
        gen = generated_subsystem(F_s4, F_s4.support,
                                  [order3_autos(F_s4, V4)[0]])
        assert subsystem_contains(F_s4, gen)

    def test_closure_runs_once_per_input(self, monkeypatch):
        """One suite pass on s4xc2@2 closes each distinct (support,
        generator keys) input once."""
        runs = Counter()
        close = fusion.close_morphisms

        def counted(support, seeds):
            seeds = list(seeds)
            runs[support.members, frozenset(seeds)] += 1
            return close(support, seeds)

        monkeypatch.setattr(fusion, "close_morphisms", counted)
        results = run_suite("s4xc2@2", builtin_group("s4xc2"), 2)
        assert all(r.status == "pass" for r in results)
        assert runs and max(runs.values()) == 1

    def test_closure_is_shared_under_one_top(self, monkeypatch):
        """One input asked under a top and under a subsystem of it is
        closed once: the memo lives in the top's slot."""
        runs = []
        close = fusion.close_morphisms

        def counted(support, seeds):
            runs.append(support)
            return close(support, seeds)

        monkeypatch.setattr(fusion, "close_morphisms", counted)
        G = builtin_group("s4")
        F = fusion_of_group(G, sylow_subgroup(G.full_subgroup, 2), 2)
        V4 = o_p(G.full_subgroup, 2)
        E = normal_subsystem_in(F, o_upper_p(G.full_subgroup, 2))
        gens = E.automorphisms(V4)
        tables = [generated_subsystem(D, V4, gens)._explicit for D in (F, E, F)]
        assert runs == [V4]
        assert tables[0] is tables[1] is tables[2]

    def test_memoized_closure_still_checks_and_is_fresh(self, F_s4, E_a4, V4):
        """A repeated input returns a new system with the same table, and
        the inside check runs on every call: an automorphism of V4 outside
        E is refused although its closure is memoized."""
        tau = next(h for h in F_s4.automorphisms(V4)
                   if not E_a4.contains_morphism(h))
        first = generated_subsystem(E_a4, V4, [tau], check_inside=False)
        again = generated_subsystem(E_a4, V4, [tau], check_inside=False)
        assert again is not first and again.content_key == first.content_key
        again.name = "renamed"
        assert first.name != "renamed"
        with pytest.raises(MorphismOutsideSupport, match="not a morphism of F"):
            generated_subsystem(E_a4, V4, [tau])


class TestConjugation:
    def test_identity_twist(self, F_s4, V4):
        phi = order3_autos(F_s4, V4)[0]
        assert conjugate_morphism(phi, Hom.identity(V4)) == phi

    def test_conjugation_identity_on_witnesses(self, F_s4, s4, V4):
        # (c_g|_P)^{c_h} = c_{g^h}|_{P^h}
        g, h = 9, 14
        P = V4
        phi = Hom.conjugation(P, g)
        if set(phi.images) <= F_s4.support.member_set:
            alpha = Hom.conjugation(s4.full_subgroup, h)
            lhs = conjugate_morphism(phi, alpha)
            rhs = Hom.conjugation(P.conjugate(h), s4.conj(g, h))
            assert lhs.images == rhs.images

    def test_order3_twisted_by_involution_is_inverse(self, F_s4, V4):
        r = order3_autos(F_s4, V4)[0]
        invs = [h for h in F_s4.automorphisms(V4)
                if not h.is_identity() and h.then(h).is_identity()]
        t = invs[0]
        assert conjugate_morphism(r, t).images in (
            r.then(r).images,)  # r^t = r^2 = r^{-1}

    def test_domain_mismatch(self, F_s4, V4):
        phi = order3_autos(F_s4, V4)[0]
        Z = center(F_s4.support)
        with pytest.raises(DomainMismatch):
            conjugate_morphism(phi, Hom.identity(Z))

    def test_conjugate_subsystem_by_inner_fixes_e(self, F_s4, E_a4, V4):
        for t in V4.members:
            alpha = Hom.conjugation(V4, t)
            assert subsystem_equal(conjugate_subsystem(E_a4, alpha), E_a4)

    def test_normal_subsystem_invariant_under_all_twists(self, F_s4, E_a4, V4):
        for alpha in F_s4.automorphisms(V4):
            assert subsystem_equal(conjugate_subsystem(E_a4, alpha), E_a4)

    def test_twist_composes(self, F_s4, E_a4, V4):
        a, b = F_s4.automorphisms(V4)[1:3]
        lhs = conjugate_subsystem(conjugate_subsystem(E_a4, a), b)
        rhs = conjugate_subsystem(E_a4, a.then(b))
        assert subsystem_equal(lhs, rhs)


class TestComparisons:
    def test_reflexive(self, F_s4):
        assert subsystem_contains(F_s4, F_s4)
        assert subsystem_equal(F_s4, F_s4)

    def test_inner_inside_a4_fusion(self, F_s4, E_a4, V4):
        inner = inner_system(F_s4, V4)
        assert subsystem_contains(E_a4, inner)
        assert not subsystem_contains(inner, E_a4)

    def test_full_subcategory(self, F_s4, V4):
        cut = full_subcategory(F_s4, V4)
        assert cut.support == V4
        assert len(cut.automorphisms(V4)) == 6

    def test_realized_subsystem_needs_sylow(self, F_s4, A4, V4, s4):
        with pytest.raises(NotSylow):
            realized_subsystem(F_s4, A4, center(F_s4.support))


class TestMorphismGroup:
    def test_table_matches_composition(self, F_s4, V4):
        mg = MorphismGroup(F_s4.automorphisms(V4))
        assert mg.group.order == 6
        assert center(mg.group.full_subgroup) != mg.group.full_subgroup
        for i, a in enumerate(mg.homs):
            for j, b in enumerate(mg.homs):
                assert mg.homs[mg.group.mul(i, j)] == a.then(b)

    def test_subgroup_round_trip(self, F_s4, V4):
        mg = MorphismGroup(F_s4.automorphisms(V4))
        inner = F_s4.automizer_in(V4, V4)
        sub = mg.subgroup_of(inner)
        assert set(mg.homs_of(sub)) == set(inner)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.sets(st.integers(min_value=0, max_value=5), max_size=3))
def test_generated_monotone_property(picks):
    g = builtin_group("s4")
    S = sylow_subgroup(g.full_subgroup, 2)
    F = fusion_of_group(g, S, 2)
    V = o_p(g.full_subgroup, 2)
    auts = list(F.automorphisms(V))
    chosen = [auts[i] for i in sorted(picks)]
    small = generated_subsystem(F, V, chosen)
    big = generated_subsystem(F, V, auts)
    assert subsystem_contains(big, small)
    assert subsystem_contains(F, small)


# -- the content-keyed registry ----------------------------------------------------


def fresh_s4_system():
    """F_S(S4) on a new top, so its registry starts empty."""
    g = builtin_group("s4")
    return fusion_of_group(g, sylow_subgroup(g.full_subgroup, 2), 2)


def s4_mutants(F):
    """The three witness-plus-explicit corruptions of F_S(S4) the self-tests use."""
    g = F.universe
    V = o_p(g.full_subgroup, 2)
    order3 = next(i for i, h in enumerate(F.isos_from(V))
                  if h.codomain == V and all(h(x) != x for x in V.members if x))
    other_klein = next(P for P in F.subgroups() if P.order == 4 and P != V
                       and all(g.element_order(x) <= 2 for x in P.members))
    a, b = [x for x in other_klein.members if x][:2]
    three_cycle = Hom.from_generator_images(other_klein, other_klein,
                                            [a, b], [b, g.mul(a, b)])
    return {"removed": with_removed_iso(F, V, order3, keep_witness=True),
            "added": with_added_iso(F, three_cycle, keep_witness=True),
            "shadow": inner_only_shadow(F)}


class TestContentRegistry:
    def test_explicit_keys_never_meet_realized_or_other_tables(self, F_s4, E_a4):
        assert F_s4.content_key == (F_s4.support.members,
                                    F_s4.witness.members)
        assert E_a4.content_key == (E_a4.support.members,
                                    E_a4.witness.members)
        gen = generated_subsystem(F_s4, E_a4.support, [])
        again = generated_subsystem(F_s4, E_a4.support, [])
        assert gen is not again and gen.content_key == again.content_key
        assert hash(gen.content_key) == hash(again.content_key)
        assert gen._cache is again._cache
        # the same hom-sets as F, yet an explicit key never equals a realized one
        full = full_subcategory(F_s4, F_s4.support)
        assert subsystem_equal(full, F_s4)
        assert full.content_key != F_s4.content_key
        assert F_s4.content_key != full.content_key
        assert gen.content_key != E_a4.content_key
        mutants = s4_mutants(F_s4)
        for M in mutants.values():
            assert M.witness is not None
            assert M.content_key != F_s4.content_key
            assert M.content_key != full.content_key
        keys = [M.content_key for M in mutants.values()]
        assert all(a != b for i, a in enumerate(keys) for b in keys[i + 1:])

    def test_mutant_key_is_the_set_of_its_maps(self, E_a4, V4):
        """A mutant's table holds a set of maps per subgroup: one iso-set
        given in two orders gives one content key and, under one top, one
        slot, and a map given twice is one member of it."""
        homs = E_a4.isos_from(V4)[1:]
        one = with_replaced_isos(E_a4, V4, homs)
        two = with_replaced_isos(E_a4, V4, homs[::-1])
        assert one.content_key == two.content_key
        assert one._cache is two._cache and one._isos is two._isos
        twice = with_replaced_isos(E_a4, V4, homs + homs[:1])
        assert twice.content_key == one.content_key
        assert twice.isos_from(V4) == one.isos_from(V4) == homs

    def test_equal_content_shares_one_slot(self, F_s4, A4, V4):
        E1 = realized_subsystem(F_s4, A4, V4)
        E2 = realized_subsystem(F_s4, A4, V4)
        assert E1 is not E2
        assert classify(E2) is classify(E1)
        assert is_saturated(E2) is is_saturated(E1)
        assert is_normal(F_s4, E2) is is_normal(F_s4, E1)
        # N_F(V4) has the content of F itself: V4 is normal in S4
        assert is_saturated(normalizer_subsystem(F_s4, V4)) is is_saturated(F_s4)

    def test_equal_tables_share_one_slot_whatever_the_seeds(self, F_s4, V4):
        """A morphism is its image key: the same non-inner automorphism of
        V4, once read off F and once built from generator images, seeds one
        table, so both generated systems have one content key and slot."""
        inner = {h.images for h in F_s4.automizer_in(F_s4.support, V4)}
        h = next(a for a in F_s4.automorphisms(V4) if a.images not in inner)
        gens = V4.generators
        same = Hom.from_generator_images(V4, V4, gens, [h(x) for x in gens])
        assert same is not h and same.images == h.images
        A = generated_subsystem(F_s4, V4, [h])
        B = generated_subsystem(F_s4, V4, [same])
        assert A is not B and A.content_key == B.content_key
        assert A._cache is B._cache

    def test_normal_subsystem_in_twice_computes_once(self, counted_memo):
        F = fresh_s4_system()
        A4 = o_upper_p(F.universe.full_subgroup, 2)
        with counted_memo() as (fills, _):
            E1 = normal_subsystem_in(F, A4)
            E2 = normal_subsystem_in(F, A4)
            assert E1 is not E2 and fills[is_normal] == 1
            assert classify(E2) is classify(E1)
            assert is_saturated(E2) is is_saturated(E1)
            assert is_normal(F, E2) is is_normal(F, E1)
        assert fills[is_normal] == 1

    def test_derived_keys_by_content(self, F_s4, V4):
        """``derived`` keeps a value in its first system's slot under the
        content of the later arguments: equal contents read one value, a
        system of another universe is computed afresh each time, and an
        argument that has no content, such as a list or a tuple holding a
        non-subgroup, raises TypeError."""
        made = []

        @derived
        def probe(F, *args):
            made.append(args)
            return object()

        A4 = o_upper_p(F_s4.universe.full_subgroup, 2)
        E1, E2 = (realized_subsystem(F_s4, A4, V4) for _ in range(2))
        assert probe(F_s4, E1, V4) is probe(F_s4, E2, V4)
        assert probe(F_s4) is probe(F_s4) is not probe(F_s4, E1, V4)
        assert F_s4._cache[(probe, E1.content_key, V4.members)] is \
            probe(F_s4, E2, V4)
        G = ingest(builtin_group_path("s4"))
        other = fusion_of_group(G, sylow_subgroup(G.full_subgroup, 2), 2)
        assert other.content_key == F_s4.content_key
        stored = len(F_s4._cache)
        assert probe(F_s4, other) is not probe(F_s4, other)
        assert len(F_s4._cache) == stored
        assert len(made) == 4
        for bad in (3, (V4, 3), [V4]):
            with pytest.raises(TypeError):
                probe(F_s4, bad)
        assert probe.__wrapped__(F_s4) is not probe(F_s4)

    def test_registry_is_per_top(self, F_s4, A4, V4):
        F = fresh_s4_system()
        assert F._registry is not F_s4._registry
        assert realized_subsystem(F, A4, V4).ambient is F
        mine = is_saturated(realized_subsystem(F, A4, V4))
        theirs = is_saturated(realized_subsystem(F_s4, A4, V4))
        assert mine is not theirs and mine == theirs

    def test_mutated_systems_never_read_the_honest_slot(self):
        F = fresh_s4_system()
        honest_classes = F.classes()
        classify(F), is_saturated(F)
        mutants = s4_mutants(F)
        for M in mutants.values():
            assert M._registry is not None and M._registry is not F._registry
            assert M._cache is not F._cache and M._isos is not F._isos
            for P in M.subgroups():
                assert M._keys_from(P) is M._explicit[P.members]
                assert {h.images for h in M.isos_from(P)} == M._keys_from(P)
        with pytest.raises(NotAGroup):
            classify(mutants["removed"])
        assert len(mutants["added"].classes()) < len(honest_classes)
        assert len(mutants["shadow"].classes()) > len(honest_classes)
        for M in (mutants["added"], mutants["shadow"]):
            assert classify(M) is not classify(F)
            assert is_saturated(M) is not is_saturated(F)
        # each mutant's results are those of the same mutant on a fresh top
        again = s4_mutants(fresh_s4_system())
        for key in ("added", "shadow"):
            M, M2 = mutants[key], again[key]
            assert classify(M).fully_normalized == classify(M2).fully_normalized
            assert classify(M).fully_automized == classify(M2).fully_automized
            assert is_saturated(M) == is_saturated(M2)

    def test_mutated_subsystem_never_reads_the_honest_slot(self):
        F = fresh_s4_system()
        V = o_p(F.universe.full_subgroup, 2)
        E = realized_subsystem(F, o_upper_p(F.universe.full_subgroup, 2), V)
        honest_isos = E.isos_from(V)
        classify(E), is_saturated(E)
        order3 = next(i for i, h in enumerate(honest_isos)
                      if all(h(x) != x for x in V.members if x))
        M = with_removed_iso(E, V, order3, keep_witness=True)
        assert M.ambient is F and M.content_key != E.content_key
        assert M._cache is not E._cache
        assert len(M.isos_from(V)) == len(honest_isos) - 1
        with pytest.raises(NotAGroup):
            classify(M)
        with pytest.raises(NotAGroup):
            is_saturated(M)

    def test_subsystems_of_a_mutated_top_use_its_registry(self, F_s4, A4, V4):
        shadow = inner_only_shadow(F_s4)
        E = realized_subsystem(shadow, A4, V4)
        honest = realized_subsystem(F_s4, A4, V4)
        assert E.content_key == honest.content_key
        assert E._cache is not honest._cache
        assert shadow.content_key != F_s4.content_key

    def test_normality_against_mutants_is_never_shared(self, F_s4, E_a4):
        assert is_normal(F_s4, E_a4).normal
        mutants = s4_mutants(F_s4)
        reports = {key: is_normal(M, E_a4) for key, M in mutants.items()}
        assert not any(r.normal for r in reports.values())
        assert reports["added"].to_json() != reports["shadow"].to_json()
        for key, M in mutants.items():
            fresh = is_normal.__wrapped__(M, E_a4)
            assert reports[key].to_json() == fresh.to_json()

    def test_two_mutant_tops_never_read_each_others_pair_memo(self):
        """Two mutant tops over one universe, each the first explicit
        system of its own registry, memoize their normality reports on one
        honest E each in its own slot under E's content key; each reads
        back its own report, in either order."""
        def setting():
            F = fresh_s4_system()
            E = normal_subsystem_in(F, o_upper_p(F.universe.full_subgroup, 2))
            return F, E, lambda i: with_removed_iso(F, E.support, i,
                                                    keep_witness=True)
        F, E, removed = setting()
        normal = [is_normal.__wrapped__(removed(i), E).normal
                  for i in range(len(F.isos_from(E.support)))]
        pair = (normal.index(False), normal.index(True))
        for order in (pair, pair[::-1]):
            F, E, removed = setting()
            tops = [removed(i) for i in order]
            assert all(M.top() is M for M in tops)
            assert tops[0]._cache is not tops[1]._cache
            reports = [is_normal(M, E) for M in tops]
            assert [r.normal for r in reports] == [normal[i] for i in order]
            for M, report in zip(tops, reports):
                assert is_normal(M, E) is report
                assert M._cache[(is_normal, E.content_key)] is report
                assert report.to_json() == \
                    is_normal.__wrapped__(M, E).to_json()


@st.composite
def perm_groups(draw):
    """(G, p): G generated by two permutations of degree 3 to 5, p a prime
    dividing |G| (2 when G is trivial)."""
    n = draw(st.integers(min_value=3, max_value=5))
    perms = draw(st.lists(st.permutations(range(1, n + 1)),
                          min_size=2, max_size=2))
    G = group_from_permutations("gen", perms)
    p = draw(st.sampled_from([q for q in (2, 3, 5) if G.order % q == 0]
                             or [2]))
    return G, p


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.data())
def test_shared_results_match_a_fresh_registry(data):
    """Over groups generated by two permutations of degree <= 5, the
    results shared by separately built copies of a system, realized or
    generated, are those of a freshly built system with an empty
    registry."""
    G, p = data.draw(perm_groups())
    S = sylow_subgroup(G.full_subgroup, p)
    F = fusion_of_group(G, S, p)
    N = data.draw(st.sampled_from(normal_subgroups(G.full_subgroup)))
    cls = classify(F)
    Q = data.draw(st.sampled_from(      # fully normalized: N_S(Q) is Sylow
        [P for P in F.subgroups() if cls.is_fully_normalized(P)]))
    shared = []
    for _ in range(2):
        E = realized_subsystem(F, N, S.meet(N))
        local = realized_subsystem(F, normalizer(G.full_subgroup, Q, Q),
                                   normalizer(S, Q, Q))
        gen = generated_subsystem(F, S, F.automorphisms(S))
        shared.append((is_saturated(E), is_normal(F, E), is_saturated(local),
                       is_saturated(gen), is_normal(F, gen)))
    assert all(a is b for a, b in zip(shared[0], shared[1]))
    F0 = fusion_of_group(G, S, p)
    E0 = realized_subsystem(F0, N, S.meet(N))
    sat, report, local_sat, gen_sat, gen_report = shared[0]
    assert sat == is_saturated(E0)
    assert report.to_json() == is_normal(F0, E0).to_json()
    assert local_sat == is_saturated(normalizer_subsystem(F0, Q))
    gen0 = generated_subsystem(F0, S, F0.automorphisms(S))
    assert gen_sat == is_saturated(gen0)
    assert gen_report.to_json() == is_normal(F0, gen0).to_json()


def twist_outcomes(F, E):
    """Check ``Twist`` and ``contains_key`` against ``conjugate_morphism``
    and ``contains_morphism`` for every alpha in Aut_F(T) and every
    morphism phi of E, judged by E, F, the inner system of T and C_F(T);
    returns the set of membership answers seen."""
    T = E.support
    judges = (E, F, inner_system(F, T), centralizer_subsystem(F, T))
    seen = set()
    for alpha in F.automorphisms(T):
        for P in E.subgroups():
            twist = Twist(alpha, P)
            for phi in E.isos_from(P):
                moved = conjugate_morphism(phi, alpha)
                key = twist.images(phi.images)
                assert twist.target == moved.domain.members
                assert key == moved.images
                for D in judges:
                    inside = D.contains_key(twist.target, key)
                    assert inside == D.contains_morphism(moved)
                    seen.add(inside)
    return seen


@pytest.mark.parametrize("name", ["s4", "d8xc2", "gl23"])
def test_key_level_twist_matches_the_hom_form(name):
    G = builtin_group(name)
    S = sylow_subgroup(G.full_subgroup, 2)
    F = fusion_of_group(G, S, 2)
    seen = set()
    for N in normal_subgroups(G.full_subgroup):
        seen |= twist_outcomes(F, realized_subsystem(F, N, S.meet(N)))
    assert seen == {True, False}


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.data())
def test_key_level_twist_matches_the_hom_form_on_generated_groups(data):
    G, p = data.draw(perm_groups())
    S = sylow_subgroup(G.full_subgroup, p)
    F = fusion_of_group(G, S, p)
    N = data.draw(st.sampled_from(normal_subgroups(G.full_subgroup)))
    assert twist_outcomes(F, realized_subsystem(F, N, S.meet(N)))
