"""The centralizer pipeline: the family, C_S(E), R*, focal subgroups,
C_F(E) and the coincidence formula."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from fusionkit import centralizers, verify
from fusionkit.centralizers import (a_circle, c_F_of, c_s_of, centralized_set,
                                    compute_centralizer_data,
                                    focal_subgroup, h_group, hyperfocal_subgroup, r_star,
                                    z_of)
from fusionkit.corpus import builtin_group
from fusionkit.errors import TheoremViolation, VerificationFailed
from fusionkit.fusion import (fusion_of_group, inner_system, subsystem_equal)
from fusionkit.groups import (center, centralizer, derived_subgroup,
                              normal_subgroups, sylow_subgroup)
from fusionkit.products import (_star_product, centralize_each_other,
                                is_central_product)
from fusionkit.subsystems import (is_strongly_closed, normal_subsystem_in,
                                  normalizer_subsystem)
from fusionkit.verify import commuting_pairs, normal_pairs, run_suite
from conftest import entry_system
from oracles import is_central_product_literal, is_strongly_closed_literal
from test_fusion import perm_groups

# The three property tests below each run 100 derandomized perm_groups
# examples.  Counted by (|G|, |Z(G)|, |[G,G]|), those cover 13 distinct
# groups in 21 (group, prime) pairs for the focal subgroup, 15 groups in
# 22 pairs for strong closure, and 14 groups in 21 pairs for the
# containment differential test, of orders 1 to 120: S5, A5 and S3 x C2 in
# all three, the Frobenius group of order 20 in the last two.
GENERATED = settings(max_examples=100, deadline=None, derandomize=True)


class TestCentralizedFamily:
    def test_trivial_always_in_family(self, F_s4, E_a4):
        xs = centralized_set(F_s4, E_a4)
        assert any(X.order == 1 for X in xs)

    def test_s4_pair_family_is_trivial_only(self, F_s4, E_a4):
        assert [X.order for X in centralized_set(F_s4, E_a4)] == [1]

    def test_product_case_second_factor_in_family(self):
        g = builtin_group("a4xa4")
        S = sylow_subgroup(g.full_subgroup, 2)
        F = fusion_of_group(g, S, 2)
        N = next(N for N in normal_subgroups(g.full_subgroup) if N.order == 12)
        E = normal_subsystem_in(F, N)
        data = compute_centralizer_data(F, E)
        # C_S(E) is the Sylow of the other factor
        assert data.C_S_E.order == 4
        CST = centralizer(S, E.support, E.support)
        assert data.C_S_E.member_set <= CST.member_set
        assert data.R_star == data.C_S_E

    def test_abelian_self_pair(self):
        g = builtin_group("c2xc4")
        F = fusion_of_group(g, g.full_subgroup, 2)
        E = normal_subsystem_in(F, g.full_subgroup)
        assert c_s_of(F, E) == g.full_subgroup


class TestCentralizerOracle:
    """``centralizer-oracle`` compares the definition with the
    generating-set route, for E and for N_E(T)."""

    S4_TOP = {"N_order": 24, "T": [0, 1, 6, 7, 16, 17, 22, 23]}

    @staticmethod
    def oracle_on_s4():
        return run_suite("s4@2", builtin_group("s4"), 2,
                         check_ids=["centralizer-oracle"])[0]

    def test_passes_on_honest_input(self):
        assert self.oracle_on_s4().passed

    @pytest.mark.parametrize("system,payload", [
        ("E", {"brute": [[0]], "structured": []}),
        ("N_E(T)", {"system": "N_E(T)", "brute": [[0, 7], [0]],
                    "structured": [[0]]}),
    ])
    def test_a_dropped_member_is_located(self, monkeypatch, system, payload):
        """A generating route that loses the first member of one family
        (N_E(T) is the system whose name starts with ``N_``) fails at the
        first normal pair, S4 itself, and says which family differs."""
        real = verify._generated_family

        def dropping(F, D):
            family = real(F, D)
            hit = D.name.startswith("N_") == (system == "N_E(T)")
            return family[1:] if hit else family

        monkeypatch.setattr(verify, "_generated_family", dropping)
        result = self.oracle_on_s4()
        assert result.status == "fail"
        assert result.counterexample == {**payload, "pair": self.S4_TOP}

    @GENERATED
    @given(perm_groups())
    def test_containment_agrees_on_generated_groups(self, group):
        """For every normal subsystem E of a generated group: the
        centralized families of E and of N_E(T) by the definition and by
        the generating-set route agree, and for each commuting pair the
        star product's central-product test matches the literal one, and
        E1 and E2 centralize each other iff S1 n S2 <= Z(E1) n Z(E2)."""
        G, p = group
        F = entry_system(G, p)
        for _, E in normal_pairs(F):
            for D in (E, normalizer_subsystem(E, E.support)):
                assert centralized_set(F, D) == \
                    verify._generated_family(F, D)
        for E1, E2 in commuting_pairs(F):
            D = _star_product(F, E1, E2)
            assert is_central_product(D, E1, E2) == \
                is_central_product_literal(D, E1, E2)
            meet = E1.support.meet(E2.support).member_set
            central = all(meet <= z_of(Ei).member_set for Ei in (E1, E2))
            assert centralize_each_other(F, E1, E2) == central


class TestCSE:
    def test_s4_pair(self, F_s4, E_a4):
        assert c_s_of(F_s4, E_a4).order == 1

    def test_c_s_of_f_is_the_center(self, F_s4, s4):
        EF = normal_subsystem_in(F_s4, s4.full_subgroup)
        assert c_s_of(F_s4, EF).order == 1  # Z(F_{D8}(S4)) is trivial

    def test_z_of_inner_d8(self, d8):
        F = fusion_of_group(d8, d8.full_subgroup, 2)
        assert z_of(F) == center(d8.full_subgroup)

    def test_s4xc2_values(self, F_s4xc2, E_s4x1):
        data = compute_centralizer_data(F_s4xc2, E_s4x1)
        assert data.C_S_E.order == 2
        assert data.R_star.order == 4
        assert data.C_S_E.member_set < data.R_star.member_set

    @GENERATED
    @given(perm_groups())
    def test_strongly_closed_on_generated_groups(self, group):
        """C_S(E) is strongly closed in F for E = F_{S n N}(N), every
        normal subgroup N of G, by the package test and the per-morphism
        oracle."""
        G, p = group
        F = fusion_of_group(G, sylow_subgroup(G.full_subgroup, p), p)
        for N in normal_subgroups(G.full_subgroup):
            C = c_s_of(F, normal_subsystem_in(F, N))
            assert is_strongly_closed(F, C)
            assert is_strongly_closed_literal(F, C)

    def test_theorem_a_c_on_s4xc2(self, F_s4xc2, E_s4x1):
        assert verify.verify_main_cse_c(F_s4xc2, E_s4x1) is None


class TestPostChecks:
    def test_c_s_of_raises_on_an_injected_member(self, F_s4, E_a4,
                                                 monkeypatch):
        """Z(S) injected into E's family; the uncached ``c_s_of`` (its
        memo may hold the honest C_S(E)) joins and post-checks it."""
        Z = center(F_s4.support)
        monkeypatch.setattr(centralizers, "centralized_set",
                            lambda F, E: (F.universe.trivial_subgroup, Z))
        with pytest.raises(TheoremViolation, match="join is not centralized"):
            c_s_of.__wrapped__(F_s4, E_a4)

    def test_centralizer_data_raises_on_a_wrong_rstar(self, monkeypatch):
        """The library post-check on R* stays: a wrong R* from the
        derivation aborts compute_centralizer_data."""
        derive = centralizers.r_star

        def trivial_r_star(F, E):
            return (F.universe.trivial_subgroup, *derive(F, E)[1:])

        monkeypatch.setattr(centralizers, "r_star", trivial_r_star)
        g = builtin_group("s4xc2")
        F = fusion_of_group(g, sylow_subgroup(g.full_subgroup, 2), 2)
        E = normal_subsystem_in(F, g.full_subgroup)
        with pytest.raises(TheoremViolation, match="R\\* characterization fails"):
            compute_centralizer_data(F, E)


class TestRStar:
    def test_s4_pair(self, F_s4, E_a4):
        rs, Gsys, model, N = r_star(F_s4, E_a4)
        assert rs.order == 1
        assert model.group.order == 24 and N.order == 12

    def test_abelian_self_pair(self):
        g = builtin_group("c2xc4")
        F = fusion_of_group(g, g.full_subgroup, 2)
        E = normal_subsystem_in(F, g.full_subgroup)
        rs, _, model, N = r_star(F, E)
        assert rs == g.full_subgroup
        assert N.order == 8 and N.parent is model.group


class TestFocal:
    @pytest.mark.parametrize("name,p", [("s4", 2), ("d8", 2), ("q8", 2),
                                        ("a4", 2), ("sl23", 2), ("gl23", 2),
                                        ("a5", 2), ("a6", 2), ("s3xs3", 3),
                                        ("c3c4", 3)])
    def test_focal_equals_s_meet_derived(self, name, p):
        G = builtin_group(name)
        S = sylow_subgroup(G.full_subgroup, p)
        F = fusion_of_group(G, S, p)
        assert focal_subgroup(F) == S.meet(derived_subgroup(G.full_subgroup))

    @GENERATED
    @given(perm_groups())
    def test_focal_equals_s_meet_derived_on_generated_groups(self, group):
        G, p = group
        S = sylow_subgroup(G.full_subgroup, p)
        F = fusion_of_group(G, S, p)
        assert focal_subgroup(F) == S.meet(derived_subgroup(G.full_subgroup))

    def test_focal_of_abelian_inner_is_trivial(self):
        g = builtin_group("c2xc4")
        F = fusion_of_group(g, g.full_subgroup, 2)
        assert focal_subgroup(F).order == 1

    def test_hyperfocal_sl23(self):
        sl = builtin_group("sl23")
        S = sylow_subgroup(sl.full_subgroup, 2)
        F = fusion_of_group(sl, S, 2)
        assert hyperfocal_subgroup(F) == S  # [Q8, O^2] = Q8

    def test_hyperfocal_inside_focal(self, F_s4):
        assert hyperfocal_subgroup(F_s4).member_set <= \
            focal_subgroup(F_s4).member_set


class TestFrattiniSubgroups:
    def test_a_circle_v4(self, F_s4, E_a4, V4):
        ac = a_circle(F_s4, E_a4, V4)
        assert len(ac) == 3  # the odd part of S3

    def test_h_group_when_normalizer_inside(self, F_s4, E_a4, V4):
        # N_T(V4) = V4 <= V4, so H(V4) is all of Aut_F(V4)
        assert len(h_group(F_s4, E_a4, V4)) == 6

    def test_identity_in_both(self, F_s4, E_a4):
        for P in F_s4.subgroups():
            assert any(h.is_identity() for h in a_circle(F_s4, E_a4, P))
            assert any(h.is_identity() for h in h_group(F_s4, E_a4, P))

    @staticmethod
    def factorizations(F, E, P):
        """The images of gamma then beta, gamma in H(P), beta in A-circle(P)."""
        return {g.then(b).images
                for g in h_group(F, E, P) for b in a_circle(F, E, P)}

    def test_factorize_identity(self, F_s4, E_a4, V4):
        assert V4.members in self.factorizations(F_s4, E_a4, V4)

    def test_factorize_order3(self, F_s4, E_a4, V4):
        phi = next(h for h in F_s4.automorphisms(V4)
                   if all(h(x) != x for x in V4.members if x))
        assert phi.images in self.factorizations(F_s4, E_a4, V4)

    def test_alarm_on_corrupt_candidate_subsystem(self, F_s4, V4):
        # Inner Sylow fusion posing as the normal subsystem: the inner part
        # of Aut(V4) is not normal in S3, so A-circle raises its alarm.
        ES = inner_system(F_s4, F_s4.support)
        with pytest.raises(VerificationFailed):
            a_circle(F_s4, ES, V4)


class TestCFE:
    def test_s4_pair_trivial(self, F_s4, E_a4):
        cfe = c_F_of(F_s4, E_a4)
        assert cfe.support.order == 1

    def test_trivial_e_gives_whole_system(self, F_s4, s4):
        Et = normal_subsystem_in(F_s4, s4.trivial_subgroup)
        cfe = c_F_of(F_s4, Et)
        assert subsystem_equal(cfe, F_s4)

    def test_s4xc2_gives_inner_c2(self, F_s4xc2, E_s4x1):
        data = compute_centralizer_data(F_s4xc2, E_s4x1)
        cfe = c_F_of(F_s4xc2, E_s4x1, C_S_E=data.C_S_E)
        assert cfe.support.order == 2
        assert cfe.morphism_count() == 2  # inclusions only

    def test_a4xa4_gives_other_factor(self):
        g = builtin_group("a4xa4")
        S = sylow_subgroup(g.full_subgroup, 2)
        F = fusion_of_group(g, S, 2)
        twelves = [N for N in normal_subgroups(g.full_subgroup) if N.order == 12]
        E = normal_subsystem_in(F, twelves[0])
        other = next(N for N in twelves if N.meet(E.witness).order == 1)
        cfe = c_F_of(F, E)
        expected = normal_subsystem_in(F, other)
        assert subsystem_equal(cfe, expected)

    def test_coincide(self, F_s4xc2, E_s4x1):
        assert verify.verify_coincide(F_s4xc2, E_s4x1) is None

    def test_focprop_alarm_on_corrupted_bound(self):
        # A4 x A4 has a nontrivial foc(C_F(T)), so an undershot C_S(E)
        # must abort the construction.
        g = builtin_group("a4xa4")
        S = sylow_subgroup(g.full_subgroup, 2)
        F = fusion_of_group(g, S, 2)
        N = next(N for N in normal_subgroups(g.full_subgroup) if N.order == 12)
        E = normal_subsystem_in(F, N)
        with pytest.raises(TheoremViolation):
            c_F_of(F, E, C_S_E=F.universe.trivial_subgroup)
