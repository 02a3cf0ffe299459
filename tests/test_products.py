"""Central products, and direct products built by the test oracles."""

from __future__ import annotations

import tracemalloc
from collections import Counter

import pytest

from fusionkit import products
from fusionkit.cli import resolve_subgroup
from fusionkit.corpus import builtin_group, builtin_group_path, ingest
from fusionkit.errors import CapExceeded, NotCentralizing
from fusionkit.fusion import (fusion_of_group, inner_system,
                              subsystem_contains, subsystem_equal)
from fusionkit.groups import (FiniteGroup, Hom, Subgroup, active_caps, center,
                              group_from_permutations, normal_subgroups,
                              subgroup_lattice, sylow_subgroup)
from fusionkit.products import (_star_product, central_product_subsystem,
                                centralize_each_other, is_central_product,
                                radical_intersect_failure, star_generators,
                                verify_product_theorems,
                                zcentralize_witnesses)
from fusionkit.saturation import classify, is_saturated
from fusionkit.subsystems import is_strongly_closed, normal_subsystem_in
from fusionkit.verify import commuting_pairs, with_replaced_isos
from conftest import entry_system
from oracles import (direct_product, direct_product_structure_ok,
                     transported_system)


@pytest.fixture(scope="module")
def F_a4():
    a4 = builtin_group("a4")
    V = sylow_subgroup(a4.full_subgroup, 2)
    return fusion_of_group(a4, V, 2)


@pytest.fixture(scope="module")
def F_c2():
    c2 = builtin_group("c2")
    return fusion_of_group(c2, c2.full_subgroup, 2)


class TestDirectProduct:
    def test_abelian_inner_times_inner(self, F_c2):
        dp = direct_product(F_c2, F_c2)
        assert dp.system.support.order == 4
        assert dp.system.morphism_count() == len(dp.system.subgroups())

    def test_a4_times_c2_matches_realized(self, F_a4, F_c2):
        dp = direct_product(F_a4, F_c2)
        realized = group_from_permutations(
            "a4xc2", [[2, 3, 1, 4, 5, 6], [1, 3, 4, 2, 5, 6],
                      [1, 2, 3, 4, 6, 5]])
        S = sylow_subgroup(realized.full_subgroup, 2)
        FR = fusion_of_group(realized, S, 2)
        # compare through the support isomorphism (packed index -> element)
        iso = Hom(dp.system.support, S,
                  tuple(sorted_match(dp, FR))).validate()
        moved = transported_system(dp.system, iso)
        assert subsystem_equal(moved, FR)

    def test_group_cap_bounds_the_product(self, monkeypatch):
        d8 = builtin_group("d8")
        F_d8 = fusion_of_group(d8, d8.full_subgroup, 2)
        monkeypatch.setattr(active_caps, "group", 10)
        with pytest.raises(CapExceeded):
            direct_product(F_d8, F_d8)

    def test_structure_theorem(self, F_a4, F_c2):
        dp = direct_product(F_a4, F_c2)
        assert direct_product_structure_ok(dp, F_a4, F_c2)

    def test_s4_times_c2_matches_realized(self, F_s4, F_c2):
        dp = direct_product(F_s4, F_c2)
        realized = builtin_group("s4xc2")
        S = sylow_subgroup(realized.full_subgroup, 2)
        FR = fusion_of_group(realized, S, 2)
        iso = Hom(dp.system.support, S, tuple(sorted_match(dp, FR))).validate()
        assert subsystem_equal(transported_system(dp.system, iso), FR)

    def test_a4_times_a4_matches_realized(self, F_a4):
        dp = direct_product(F_a4, F_a4)
        realized = builtin_group("a4xa4")
        S = sylow_subgroup(realized.full_subgroup, 2)
        FR = fusion_of_group(realized, S, 2)
        iso = Hom(dp.system.support, S, tuple(sorted_match(dp, FR))).validate()
        assert subsystem_equal(transported_system(dp.system, iso), FR)

    def test_saturated_when_factors_are(self, F_a4, F_c2):
        dp = direct_product(F_a4, F_c2)
        assert is_saturated(dp.system).ok

    def test_hats_are_subsystems(self, F_a4, F_c2):
        dp = direct_product(F_a4, F_c2)
        assert subsystem_contains(dp.system, dp.hat1)
        assert subsystem_contains(dp.system, dp.hat2)

    def test_hats_centralize_each_other(self, F_a4, F_c2):
        dp = direct_product(F_a4, F_c2)
        assert centralize_each_other(dp.system, dp.hat1, dp.hat2)


def sorted_match(dp, FR, deg1=4):
    """Support isomorphism between the packed product support and a realized
    product group acting on disjoint point sets (first factor on 1..deg1)."""
    S = FR.support
    out = []
    for i in dp.system.support.members:
        a = dp.pi1(i)
        b = dp.pi2(i)
        G = S.parent
        match = [g for g in S.members if component_ok(G, g, a, b, dp, deg1)]
        assert len(match) == 1
        out.append(match[0])
    return out


def component_ok(G, g, a, b, dp, deg1):
    perm = G.perm_images[g]
    pa = dp.iota1.domain.parent.perm_images[a]
    pb = dp.iota2.domain.parent.perm_images[b]
    return perm[:deg1] == pa and perm[deg1:] == tuple(x + deg1 for x in pb)


class TestInducedFunctors:
    """The projection of a direct product onto a factor induces a functor."""

    def test_kernel_strongly_closed(self, F_a4, F_c2):
        dp = direct_product(F_a4, F_c2)
        ker = Subgroup(dp.group,
                       tuple(sorted(i for i in dp.system.support.members
                                    if dp.pi1(i) == 0)))
        assert is_strongly_closed(dp.system, ker)


class TestCentralizeEachOther:
    def test_q8_and_center(self, F_q8c4, q8c4):
        q8 = next(P for P in subgroup_lattice(q8c4.full_subgroup)
                  if P.order == 8 and
                  sum(1 for x in P.members if q8c4.element_order(x) == 2) == 1)
        F1 = inner_system(F_q8c4, q8)
        F2 = inner_system(F_q8c4, center(q8c4.full_subgroup))
        assert centralize_each_other(F_q8c4, F1, F2)

    def test_noncentral_self_pair(self, F_s4, E_a4):
        assert not centralize_each_other(F_s4, E_a4, E_a4)

    def test_trivial_always_centralizes(self, F_s4, E_a4, s4):
        Et = normal_subsystem_in(F_s4, s4.trivial_subgroup)
        assert centralize_each_other(F_s4, Et, E_a4)


class TestCentralProduct:
    def test_q8c4_star_is_inner_system(self, F_q8c4, q8c4):
        q8 = next(P for P in subgroup_lattice(q8c4.full_subgroup)
                  if P.order == 8 and
                  sum(1 for x in P.members if q8c4.element_order(x) == 2) == 1)
        F1 = normal_subsystem_in(F_q8c4, q8)
        F2 = normal_subsystem_in(F_q8c4, center(q8c4.full_subgroup))
        D = central_product_subsystem(F_q8c4, F1, F2)
        assert subsystem_equal(D, F_q8c4)
        assert is_central_product(D, F1, F2)

    def test_a4xa4_star_is_whole_system(self):
        g = builtin_group("a4xa4")
        S = sylow_subgroup(g.full_subgroup, 2)
        F = fusion_of_group(g, S, 2)
        twelves = [N for N in normal_subgroups(g.full_subgroup)
                   if N.order == 12]
        E1, E2 = (normal_subsystem_in(F, N) for N in twelves[:2])
        D = central_product_subsystem(F, E1, E2)
        assert subsystem_equal(D, F)
        assert is_central_product(D, E1, E2)

    def test_trivial_factor_degenerates(self, F_s4, E_a4, s4):
        Et = normal_subsystem_in(F_s4, s4.trivial_subgroup)
        D = central_product_subsystem(F_s4, Et, E_a4)
        assert subsystem_equal(D, E_a4)

    def test_not_centralizing_rejected(self, F_s4, E_a4):
        with pytest.raises(NotCentralizing):
            central_product_subsystem(F_s4, E_a4, E_a4)

    def test_star_products_in_either_order_share_derived_data(self, s4xc2):
        """Every commuting pair of distinct factors: both orders generate
        the same image tables, and a content key is its table, so both
        orders give one content key."""
        F = entry_system(s4xc2, 2)
        pairs = [(A, B) for A, B in commuting_pairs(F) if A is not B]
        assert len(pairs) == 21
        for E1, E2 in pairs:
            D12 = _star_product(F, E1, E2)
            D21 = _star_product(F, E2, E1)
            assert D12 is not D21 and D12.name != D21.name
            assert D12.content_key == D21.content_key
            assert is_saturated(D21) is is_saturated(D12)
            assert classify(D21) is classify(D12)

    def test_inner_only_candidate_is_not_a_central_product(self, F_q8c4, q8c4):
        # strip the non-inner morphisms at the top level: surjectivity of the
        # induced functor fails for a factor with outer automorphisms
        q8 = next(P for P in subgroup_lattice(q8c4.full_subgroup)
                  if P.order == 8 and
                  sum(1 for x in P.members if q8c4.element_order(x) == 2) == 1)
        F1 = normal_subsystem_in(F_q8c4, q8)
        F2 = normal_subsystem_in(F_q8c4, center(q8c4.full_subgroup))
        S = F_q8c4.support
        only_id = [h for h in F_q8c4.automorphisms(S) if h.is_identity()]
        D_bad = with_replaced_isos(F_q8c4, S, only_id)
        assert not is_central_product(D_bad, F1, F2)


class TestProductTheorems:
    def test_q8c4_report(self, F_q8c4, q8c4):
        q8 = next(P for P in subgroup_lattice(q8c4.full_subgroup)
                  if P.order == 8 and
                  sum(1 for x in P.members if q8c4.element_order(x) == 2) == 1)
        F1 = normal_subsystem_in(F_q8c4, q8)
        F2 = normal_subsystem_in(F_q8c4, center(q8c4.full_subgroup))
        rep = verify_product_theorems(F_q8c4, F1, F2)
        assert rep.ok and rep.centralize and rep.iff_holds
        assert rep.star_saturated and rep.star_central_product and rep.star_normal

    def test_noncentral_pair_consistent(self, F_s4, E_a4):
        rep = verify_product_theorems(F_s4, E_a4, E_a4)
        assert rep.ok and not rep.centralize
        assert not rep.central_in_z1 and not rep.central_in_z2

    def test_radical_intersect_direct(self, F_s4, V4, s4):
        # F1 = F2 = the V4 subsystem: T = V4, fine on every centric radical
        assert radical_intersect_failure(F_s4, V4, V4) is None

    def test_radical_intersect_fails_on_injected_member(self, F_q8c4, q8c4,
                                                        monkeypatch):
        q8 = next(P for P in subgroup_lattice(q8c4.full_subgroup)
                  if P.order == 8 and
                  sum(1 for x in P.members if q8c4.element_order(x) == 2) == 1)
        Z = center(q8c4.full_subgroup)
        mixed = next(P for P in subgroup_lattice(q8c4.full_subgroup)
                     if P.order == 2 and not P.member_set <= q8.member_set
                     and not P.member_set <= Z.member_set)
        # the classification's one centric radical is the injected member
        only = frozenset({mixed.members})
        injected = classify(F_q8c4)._replace(centric=only, radical=only)
        monkeypatch.setattr(products, "classify", lambda F: injected)
        bad = radical_intersect_failure(F_q8c4, q8, Z)
        assert bad == list(mixed.members)

    def test_zcentralize_witnesses(self, F_q8c4, q8c4):
        q8 = next(P for P in subgroup_lattice(q8c4.full_subgroup)
                  if P.order == 8 and
                  sum(1 for x in P.members if q8c4.element_order(x) == 2) == 1)
        F1 = normal_subsystem_in(F_q8c4, q8)
        F2 = normal_subsystem_in(F_q8c4, center(q8c4.full_subgroup))
        assert zcentralize_witnesses(F_q8c4, F1, F2)
        assert zcentralize_witnesses(F_q8c4, F2, F1)


def a4xa4_request():
    """The pair of the request ``product a4xa4@2 --f1 elts:3,8,36,96 --f2
    elts:3,8,36,96`` on a freshly ingested group: twice the subsystem over
    the abelian Sylow 2-subgroup of order 16, whose 67 subgroups make the
    largest pair walk of the corpus, 4,489 pairs."""
    G = ingest(builtin_group_path("a4xa4"))
    F = fusion_of_group(G, sylow_subgroup(G.full_subgroup, 2), 2)
    E = normal_subsystem_in(F, resolve_subgroup(F, "elts:3,8,36,96"))
    assert len(E.subgroups()) == 67
    return F, E


def test_largest_request_star_generators_run_no_closure(monkeypatch):
    """Every P1 P2 is the product set of two commuting subgroups: no
    ``generated_subgroup`` call and no Dimino run (4,490 calls and 1,828
    runs when each P1 P2 was a closure)."""
    F, E = a4xa4_request()
    calls = Counter()
    run, generate = FiniteGroup._dimino, FiniteGroup.generated_subgroup

    def counted_dimino(self, seed):
        calls["dimino"] += 1
        return run(self, seed)

    def counted_generate(self, seed):
        calls["generated_subgroup"] += 1
        return generate(self, seed)

    monkeypatch.setattr(FiniteGroup, "_dimino", counted_dimino)
    monkeypatch.setattr(FiniteGroup, "generated_subgroup", counted_generate)
    assert len(star_generators(F, E, E)) == 67
    assert not calls


def test_largest_request_memory():
    """The tracemalloc peak of the report: 12.9 MB when each pushed key of
    the 4,489 pairs was kept for the surjectivity pass, 2.2 MB with none
    kept (Python 3.11)."""
    F, E = a4xa4_request()
    tracemalloc.start()
    try:
        report = verify_product_theorems(F, E, E)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok and report.star_central_product
    assert (report.star_order, report.star_morphisms) == (16, 67)
    assert peak < 4_000_000
