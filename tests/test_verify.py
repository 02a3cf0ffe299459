"""The verification suite: happy paths, determinism, and mutation
self-tests.  Every check id is shown non-vacuous: a deliberately corrupted
input makes exactly that verifier fail."""

from __future__ import annotations

import json
import sys
from collections import Counter

import pytest

from fusionkit import centralizers, verify as verify_mod
from fusionkit.centralizers import (compute_centralizer_data,
                                    contained_in_centralizer)
from fusionkit.corpus import builtin_group
from fusionkit.fusion import (FusionSystem, fusion_of_group,
                              generated_subsystem, inner_system)
from fusionkit.groups import (Hom, center, centralizer, normal_subgroups, o_p,
                              subgroup_lattice, sylow_subgroup)
from fusionkit.products import (is_central_product, verify_product_theorems,
                                zcentralize_witnesses)
from fusionkit.saturation import is_saturated
from fusionkit.subsystems import (extension_witness, is_normal,
                                  normal_subsystem_in, normalizer_subsystem)
from fusionkit.verify import (CHECK_ORDER, inner_only_shadow,
                              run_suite, suite_report, verify_cfcg0,
                              verify_cfe_normal, verify_coincide,
                              verify_easy_centralizer, verify_ffef,
                              verify_finvariant_equiv,
                              verify_first_characterization, verify_focprop,
                              verify_frattini_cons, verify_gn, verify_l_f1f2,
                              verify_local_normal, verify_main_cfe,
                              verify_main_cse_a, verify_main_cse_b,
                              verify_main_cse_c, verify_model1b,
                              verify_prophelp, verify_show_weakly_normal,
                              verify_weakly_closed_centralized,
                              verify_wellknown, verify_x_invariant,
                              with_added_iso, with_removed_iso,
                              with_replaced_isos)


def order3_index(F, V4):
    for i, h in enumerate(F.isos_from(V4)):
        if h.codomain == V4 and all(h(x) != x for x in V4.members if x):
            return i
    raise AssertionError("no order-3 automorphism found")


def detected(probe):
    """A corruption counts as caught when the probe reports falsy or raises
    (the suite runner records an exception inside a check as a failure)."""
    from fusionkit.errors import FusionkitError
    try:
        return not probe()
    except FusionkitError:
        return True


@pytest.fixture(scope="module")
def s3_closure(F_s4, E_a4, V4):
    """E_a4 enlarged by an involution of Aut_F(V4): full S3 at V4, which is
    no longer saturated over the abelian support."""
    t = next(h for h in F_s4.automorphisms(V4)
             if not h.is_identity() and h.then(h).is_identity())
    return with_added_iso(E_a4, t, close=True)


@pytest.fixture(scope="module")
def data_s4xc2(F_s4xc2, E_s4x1):
    return compute_centralizer_data(F_s4xc2, E_s4x1)


@pytest.fixture(scope="module")
def a4xa4_pair():
    g = builtin_group("a4xa4")
    S = sylow_subgroup(g.full_subgroup, 2)
    F = fusion_of_group(g, S, 2)
    N = next(N for N in normal_subgroups(g.full_subgroup) if N.order == 12)
    return F, normal_subsystem_in(F, N)


# Named results of the verified theory, one check id each; split theorems
# carry their part letters.  Everything else in CHECK_ORDER is
# harness-level (the saturation gate and the two independent oracles).
LABELED_RESULT_CHECKS = (
    "MainCSE.a", "MainCSE.b", "MainCSE.c", "FocProp", "MainCFE",
    "MainCentralProduct", "Model1.a", "Model1.b", "Model1.c",
    "Finvariant.equiv", "FfEf", "Wellknown", "LocalNormalSubsystems",
    "PropHelp", "EasyCentralizer", "FrattiniCons", "XInvariant",
    "WeaklyClosedCentralized", "GN", "CFCG0", "FirstCharacterization",
    "ShowWeaklyNormal", "CFENormal", "Coincide", "RadicalIntersect",
    "ZCentralize", "NormalCentralizeEachOther", "L:F1F2Centralize",
    "P:F1F2Centralize",
)


def test_manifest_covers_every_label():
    assert set(LABELED_RESULT_CHECKS) <= set(CHECK_ORDER)
    extras = set(CHECK_ORDER) - set(LABELED_RESULT_CHECKS)
    assert extras == {"saturation", "focal-oracle", "centralizer-oracle"}
    assert len(CHECK_ORDER) == len(set(CHECK_ORDER))


class TestSuiteRuns:
    def test_s4_all_pass(self, s4):
        res = run_suite("s4@2", s4, 2)
        assert [r.check_id for r in res] == list(CHECK_ORDER)
        assert all(r.passed for r in res)

    def test_unknown_id_rejected(self, s4):
        with pytest.raises(KeyError):
            run_suite("s4@2", s4, 2, check_ids=["NoSuchTheorem"])

    def test_subset_of_checks(self, s4):
        res = run_suite("s4@2", s4, 2, check_ids=["FocProp", "saturation"])
        assert [r.check_id for r in res] == ["saturation", "FocProp"]

    def test_report_shape(self, s4):
        res = run_suite("s4@2", s4, 2, check_ids=["saturation"])
        rep = suite_report("s4@2", 2, res)
        assert rep["entry"] == "s4@2" and rep["prime"] == 2
        assert rep["checks"][0] == {"id": "saturation", "status": "pass"}
        with_t = suite_report("s4@2", 2, res, timings=True)
        assert "millis" in with_t["checks"][0]

    def test_each_content_is_saturated_once_per_top(self, counted_memo):
        """Equal generated, local and product systems share one slot, so
        the suite saturates each content once under each top."""
        with counted_memo(is_saturated) as (_, kept):
            results = run_suite("d8xc2@2", builtin_group("d8xc2"), 2)
        assert all(r.passed for r in results)
        # the kept systems hold their tops, so no top's id is reused
        counts = Counter((id(F.top()), F.content_key) for F, _ in kept)
        assert counts and max(counts.values()) == 1

    def test_checks_read_the_memoized_family(self, monkeypatch, counted_memo):
        """A suite pass on s4@2 (4 normal pairs) computes E's centralized
        family once per pair for C_S(E), and EasyCentralizer, XInvariant,
        WeaklyClosedCentralized and FocProp read it from the pair's
        centralizer data.  N_E(T)'s family is computed once per pair too
        (``normalizer_family``), for the post-check on R*, and
        EasyCentralizer and CFCG0 read it.  The other calls are the two of
        centralizer-oracle and Z(E) (``c_s_of``) in the product reports:
        20 calls, 24 when EasyCentralizer and CFCG0 each recomputed N_E(T)'s
        family, 40 when four checks recomputed E's."""
        callers: Counter = Counter()
        real = centralizers.centralized_set

        def counted(F, E):
            callers[sys._getframe(1).f_code.co_name] += 1
            return real(F, E)

        monkeypatch.setattr(centralizers, "centralized_set", counted)
        monkeypatch.setattr(verify_mod, "centralized_set", counted)
        with counted_memo() as (fills, _):
            results = run_suite("s4@2", builtin_group("s4"), 2)
        assert all(r.passed for r in results)
        assert fills[compute_centralizer_data] == 4
        assert fills[centralizers.normalizer_family] == 4
        assert callers == {"compute_centralizer_data": 4,
                           "normalizer_family": 4, "c_s_of": 4,
                           "_centralizer_oracle": 8}

    def test_determinism_two_runs_identical(self, s4):
        ids = ["saturation", "MainCSE.a", "FocProp", "Coincide",
               "P:F1F2Centralize", "centralizer-oracle"]
        a = json.dumps(suite_report("s4@2", 2, run_suite("s4@2", s4, 2, ids)))
        b = json.dumps(suite_report("s4@2", 2, run_suite("s4@2", s4, 2, ids)))
        assert a == b


class TestMutationsCore:
    """Corrupted systems must flip the matching check to fail."""

    def test_saturation_detects_deleted_morphism(self, F_s4, V4):
        # deleting one morphism breaks composition closure: detected either
        # as a failed report or as a structural error (the suite runner
        # records both as check failures)
        bad = with_removed_iso(F_s4, V4, order3_index(F_s4, V4))
        assert detected(lambda: is_saturated(bad).ok)

    def test_finvariant_equiv_on_nonsubgroup_aut_set(self, F_s4, V4):
        invs = [h for h in F_s4.automorphisms(V4)
                if h.is_identity() or h.then(h).is_identity()]
        assert len(invs) == 4  # id + three involutions: not a subgroup
        c2s = [P for P in subgroup_lattice(V4) if P.order == 2]
        explicit = {V4.members: tuple(invs),
                    (0,): (Hom.identity(F_s4.universe.trivial_subgroup),)}
        for P in c2s:
            explicit[P.members] = tuple(
                h for h in F_s4.isos_from(P)
                if h.codomain.member_set <= V4.member_set)
        bad = FusionSystem(V4, 2, explicit=explicit, ambient=F_s4)
        out = verify_finvariant_equiv(F_s4, bad)
        assert out is not None
        vals = out["conditions"]
        assert vals["f"] and not vals["b"]

    def test_ffef_detects_injected_fusion(self, F_s4xc2, E_s4x1, s4xc2):
        T = E_s4x1.support
        z = center(T)
        refl = next(P for P in subgroup_lattice(T)
                    if P.order == 2 and P != z
                    and not P.is_normal_in(T))
        bogus = Hom(refl, z, tuple(z.members[i] for i, _ in
                                   enumerate(refl.members)), check=True)
        bad = with_added_iso(E_s4x1, bogus, close=True)
        assert verify_ffef(F_s4xc2, bad) is not None

    def test_wellknown_detects_injected_conjugate(self, F_s4, E_a4, V4, s4):
        Vp = next(P for P in F_s4.subgroups()
                  if P.order == 4 and P != V4 and
                  all(s4.element_order(x) <= 2 for x in P.members))
        a, b = [x for x in V4.members if x][:2]
        x, y = [x for x in Vp.members if x][:2]
        bogus = Hom.from_generator_images(V4, Vp, [a, b], [x, y])
        bad_F = with_added_iso(F_s4, bogus, close=True)
        assert verify_wellknown(bad_F, E_a4) is not None

    def test_local_normal_detects_unsaturated_local(self, F_s4, s3_closure):
        assert verify_local_normal(F_s4, s3_closure) is not None

    def test_prophelp_detects_unsaturated_local(self, F_s4, s3_closure):
        assert verify_prophelp(F_s4, s3_closure) is not None

    def test_gn_detects_bad_subsystem(self, F_s4, s3_closure):
        assert verify_gn(F_s4, s3_closure) is not None


class TestMutationsCentralizer:
    def test_easy_centralizer_family_injection(self, F_s4, E_a4):
        Z = center(F_s4.support)
        bad = verify_easy_centralizer(F_s4, E_a4,
                                      X_set=[F_s4.universe.trivial_subgroup, Z])
        assert bad is not None and bad["clause"] == "b"

    def test_frattini_cons_injection(self, F_s4, E_a4, V4):
        ident = (Hom.identity(V4),)
        bad = verify_frattini_cons(F_s4, E_a4,
                                   h_sets={V4.members: ident},
                                   a_sets={V4.members: ident})
        assert bad is not None

    def test_x_invariant_injection(self, F_s4, E_a4):
        Z = center(F_s4.support)
        assert verify_x_invariant(F_s4, E_a4, X_set=[Z]) is not None

    def test_weakly_closed_injection(self, F_s4, E_a4):
        assert verify_weakly_closed_centralized(F_s4, E_a4, X_set=[]) is not None

    def test_cfcg0_unextendable_automorphism(self, F_s4xc2, E_s4x1, s4xc2):
        T = E_s4x1.support
        r = next(x for x in T.members if s4xc2.element_order(x) == 4)
        refl = next(x for x in T.members
                    if s4xc2.element_order(x) == 2
                    and x not in center(T).member_set
                    and s4xc2.conj(x, r) != x)
        outer = Hom.from_generator_images(T, T, [r, refl],
                                          [r, s4xc2.mul(r, refl)])
        assert verify_cfcg0(F_s4xc2, E_s4x1, auts=[outer]) is not None

    def test_first_characterization_bad_rstar(self, F_s4xc2, E_s4x1):
        bad = verify_first_characterization(
            F_s4xc2, E_s4x1, R_star=F_s4xc2.universe.trivial_subgroup)
        assert bad is not None

    def test_first_characterization_rstar_outside_cst(self, F_s4xc2, E_s4x1):
        bad = verify_first_characterization(
            F_s4xc2, E_s4x1, R_star=F_s4xc2.support)
        assert bad == {"kind": "R* leaves C_S(T)",
                       "R_star": list(F_s4xc2.support.members)}

    def test_suite_first_characterization_locates_a_wrong_rstar(
            self, monkeypatch):
        """A wrong R* from the derivation fails FirstCharacterization with
        a located counterexample, not with a raised error."""
        def trivial_r_star(F, E, **_):
            return (F.universe.trivial_subgroup,)

        monkeypatch.setattr(verify_mod, "r_star", trivial_r_star)
        [res] = run_suite("s4xc2@2", builtin_group("s4xc2"), 2,
                          ["FirstCharacterization"])
        assert res.status == "fail"
        assert {"X", "inside_R_star", "centralizes"} <= set(res.counterexample)
        assert "error" not in res.counterexample

    def test_main_cse_a_injected_member(self, F_s4, E_a4):
        Z = center(F_s4.support)
        bad = verify_main_cse_a(F_s4, E_a4,
                                X_set=[F_s4.universe.trivial_subgroup, Z])
        assert bad is not None

    def test_main_cse_a_deleted_hom(self, F_s4, E_a4, V4):
        bad_F = with_removed_iso(F_s4, V4, order3_index(F_s4, V4))
        assert verify_main_cse_a(bad_F, E_a4) is not None

    def test_main_cse_a_join_not_centralized(self, F_s4, E_a4, s4):
        """C_S(E) = 1 for E = F_V4(A4); Z(S) injected as the join is not
        centralized by E's automorphisms of order 3."""
        Z = center(F_s4.support)
        bad = verify_main_cse_a(F_s4, E_a4, X_set=[s4.trivial_subgroup], C_S_E=Z)
        assert bad == {"kind": "join is not centralized", "C_S_E": list(Z.members)}

    def test_main_cse_a_member_escapes_the_join(self, F_s4, s4):
        """The trivial system is centralized by every X <= S; the trivial
        subgroup injected as the join misses the family's first member, S."""
        E1 = normal_subsystem_in(F_s4, s4.trivial_subgroup)
        bad = verify_main_cse_a(F_s4, E1, C_S_E=s4.trivial_subgroup)
        assert bad == {"kind": "family member escapes the join",
                       "X": list(F_s4.support.members)}

    def test_main_cse_a_join_not_strongly_closed(self, F_s4, s4):
        """Z(S) holds the injected family {1, Z(S)} and centralizes the
        trivial system, but S4 fuses its involution into V4 outside Z(S)."""
        E1 = normal_subsystem_in(F_s4, s4.trivial_subgroup)
        Z = center(F_s4.support)
        bad = verify_main_cse_a(F_s4, E1, X_set=[Z, s4.trivial_subgroup],
                                C_S_E=Z)
        assert bad == {"kind": "not strongly closed", "C_S_E": list(Z.members)}

    def test_main_cse_b_corrupted_data(self, F_s4xc2, E_s4x1, data_s4xc2):
        bad_data = data_s4xc2._replace(
            R_star=F_s4xc2.universe.trivial_subgroup)
        assert verify_main_cse_b(F_s4xc2, E_s4x1, data=bad_data) is not None

    def test_main_cse_c_corrupted_data(self, F_s4xc2, E_s4x1, data_s4xc2):
        bad_data = data_s4xc2._replace(
            C_S_E=F_s4xc2.universe.trivial_subgroup)
        assert verify_main_cse_c(F_s4xc2, E_s4x1, bad_data) is not None

    def test_focprop_undershot_bound(self, a4xa4_pair):
        F, E = a4xa4_pair
        bad = verify_focprop(F, E, C_S_E=F.universe.trivial_subgroup)
        assert bad is not None and bad["kind"] == "focal"

    def test_show_weakly_normal_bad_cfe(self, F_s4xc2, E_s4x1):
        z1 = next(P for P in subgroup_lattice(F_s4xc2.support)
                  if P.order == 2 and
                  P.member_set <= E_s4x1.support.member_set)
        bad_cfe = inner_system(F_s4xc2, z1)
        assert verify_show_weakly_normal(F_s4xc2, E_s4x1, bad_cfe) is not None

    def test_cfe_normal_bad_cfe(self, F_s4xc2, E_s4x1):
        z1 = next(P for P in subgroup_lattice(F_s4xc2.support)
                  if P.order == 2 and
                  P.member_set <= E_s4x1.support.member_set)
        assert verify_cfe_normal(F_s4xc2, E_s4x1,
                                 inner_system(F_s4xc2, z1)) is not None

    def test_main_cfe_undersized_cfe(self, F_s4xc2, E_s4x1, data_s4xc2):
        small = inner_system(F_s4xc2, F_s4xc2.universe.trivial_subgroup)
        honest_d = inner_system(F_s4xc2, data_s4xc2.C_S_E)
        bad = verify_main_cfe(F_s4xc2, E_s4x1, small, [honest_d])
        assert bad is not None

    def test_coincide_stripped_cfe(self, a4xa4_pair):
        F, E = a4xa4_pair
        data = compute_centralizer_data(F, E)
        bad_cfe = inner_system(F, data.C_S_E)
        assert verify_coincide(F, E, bad_cfe, data.C_S_E) is not None


class TestMutationsModels:
    def _twisted_model(self, F_s4, s4):
        from fusionkit.models import Model, model_of
        m = model_of(F_s4)
        S = F_s4.support
        r = next(x for x in S.members if s4.element_order(x) == 4)
        refl = next(x for x in S.members if s4.element_order(x) == 2
                    and x not in o_p(s4.full_subgroup, 2).member_set)
        theta = Hom.from_generator_images(S, S, [r, refl],
                                          [r, s4.mul(r, refl)])
        sigma = Hom(S, m.group.full_subgroup,
                    tuple(m.sigma(theta(x)) for x in S.members), check=False)
        return m, Model(m.group, sigma)

    def test_model1a_twisted_embedding(self, F_s4, s4):
        from fusionkit.models import models_isomorphic_over_s
        m, twisted = self._twisted_model(F_s4, s4)
        assert not models_isomorphic_over_s(F_s4, m, twisted)

    def test_model1b_twisted_embedding(self, F_s4, s4):
        _, twisted = self._twisted_model(F_s4, s4)
        assert verify_model1b(F_s4, twisted) is not None

    def test_model1c_unrealizable_subsystem(self, F_s4, V4, s4):
        from fusionkit.errors import ModelNotFound
        from fusionkit.models import model_of, normal_model
        full = generated_subsystem(F_s4, V4, F_s4.automorphisms(V4))
        with pytest.raises(ModelNotFound):
            normal_model(F_s4, model_of(F_s4), full)


@pytest.fixture(scope="module")
def q8c4_factors(F_q8c4, q8c4):
    q8 = next(P for P in subgroup_lattice(q8c4.full_subgroup)
              if P.order == 8 and
              sum(1 for x in P.members if q8c4.element_order(x) == 2) == 1)
    F1 = normal_subsystem_in(F_q8c4, q8)
    F2 = normal_subsystem_in(F_q8c4, center(q8c4.full_subgroup))
    return F1, F2


class TestMutationsProducts:
    def test_iff_fails_on_stripped_system(self, F_q8c4, q8c4, q8c4_factors):
        F1, F2 = q8c4_factors
        S = F_q8c4.support
        keep = [h for h in F_q8c4.automorphisms(S) if h.is_identity()]
        bad_F = with_replaced_isos(F_q8c4, S, keep)
        assert detected(
            lambda: verify_product_theorems(bad_F, F1, F2).iff_holds)

    def test_l_lemma_injected_center(self, F_q8c4, q8c4_factors):
        F1, F2 = q8c4_factors
        bad = verify_l_f1f2(
            F_q8c4, F1, F2,
            z_values={F1.support.members: F_q8c4.universe.trivial_subgroup})
        assert bad is not None

    def test_central_product_fails_on_stripped_candidate(self, F_q8c4,
                                                         q8c4_factors):
        F1, F2 = q8c4_factors
        S = F_q8c4.support
        keep = [h for h in F_q8c4.automorphisms(S) if h.is_identity()]
        bad_D = with_replaced_isos(F_q8c4, S, keep)
        assert not is_central_product(bad_D, F1, F2)

    def test_central_product_normality_fails_on_stripped(self, F_q8c4,
                                                         q8c4_factors):
        S = F_q8c4.support
        keep = [h for h in F_q8c4.automorphisms(S) if h.is_identity()]
        bad_D = with_replaced_isos(F_q8c4, S, keep)
        assert detected(lambda: is_normal(F_q8c4, bad_D).normal)

    def test_zcentralize_missing_witness(self, F_s4xc2, E_s4x1, s4xc2):
        T = E_s4x1.support
        r = next(x for x in T.members if s4xc2.element_order(x) == 4)
        refl = next(x for x in T.members
                    if s4xc2.element_order(x) == 2
                    and x not in center(T).member_set
                    and s4xc2.conj(x, r) != x)
        outer = Hom.from_generator_images(T, T, [r, refl],
                                          [r, s4xc2.mul(r, refl)])
        bad_E1 = with_added_iso(E_s4x1, outer, close=True)
        other = next(P for P in subgroup_lattice(F_s4xc2.support)
                     if P.order == 2 and
                     not P.member_set <= T.member_set and
                     P.is_elementwise_commuting(F_s4xc2.support))
        E2 = inner_system(F_s4xc2, other)
        assert not zcentralize_witnesses(F_s4xc2, bad_E1, E2)


class TestSuiteLevelMutations:
    def test_hom_deleted_system_fails_main_cse_a(self, s4):
        """A failure in context building, not a MainCSE.a counterexample:
        on F without an automorphism of order 3 of V4, building the normal
        pairs (``verify.normal_pairs``) already rejects F_T(N), whose
        normality report fails through extension_z, so the check records
        that error.  The verifier's own clauses are hit by the direct
        injections of ``TestMutationsCentralizer``."""
        def mutate(F):
            V = next(P for P in F.subgroups()
                     if P.order == 4 and len(F.automorphisms(P)) == 6)
            return with_removed_iso(F, V, order3_index(F, V),
                                    keep_witness=True)
        res = run_suite("s4@2", s4, 2, check_ids=["MainCSE.a"],
                        system_mutator=mutate)
        assert res[0].status == "fail"
        assert res[0].counterexample is not None
        error = res[0].counterexample["error"]
        assert "VerificationFailed" in error and "normality report" in error
        assert "extension_z" in error

    def test_main_cse_a_failure_located_at_pair(self, s4, monkeypatch):
        # a C_S(E) that E does not centralize fails at the first normal pair,
        # and the normal-pair runner locates it by |N| and T
        honest = verify_mod.compute_centralizer_data

        def corrupted(F, E):
            data = honest(F, E)
            return data._replace(C_S_E=center(F.support))

        monkeypatch.setattr(verify_mod, "compute_centralizer_data", corrupted)
        res = run_suite("s4@2", s4, 2, check_ids=["MainCSE.a"])
        bad = res[0].counterexample
        assert res[0].status == "fail"
        assert bad["kind"] == "join is not centralized"
        assert bad["pair"] == {"N_order": 24, "T": list(sylow_subgroup(
            s4.full_subgroup, 2).members)}

    def test_product_failure_located_at_commuting_pair(self, s4, monkeypatch):
        # with every center forced trivial the L lemma fails on a pair whose
        # supports meet nontrivially; the commuting-pair runner names both
        monkeypatch.setattr(verify_mod, "z_of",
                            lambda E: E.universe.trivial_subgroup)
        res = run_suite("s4@2", s4, 2, check_ids=["L:F1F2Centralize"])
        bad = res[0].counterexample
        assert res[0].status == "fail"
        assert list(bad)[:2] == ["S1", "S2"]
        assert set(bad["meet"]) <= set(bad["S1"]) & set(bad["S2"])

    def test_system_without_witness_fails_its_normal_pairs(self, s4):
        """A copy of F by explicit iso-sets alone has no group to take the
        normal subgroups of: each check that reads the normal pairs
        records the typed error."""
        def forget(F):
            P = F.subgroups()[0]
            return with_replaced_isos(F, P, F.isos_from(P))

        res = run_suite("s4@2", s4, 2, system_mutator=forget,
                        check_ids=["saturation", "FfEf", "RadicalIntersect"])
        assert [r.counterexample for r in res] == [{
            "error": "VerificationFailed: normal subsystems from groups "
                     "need a realized F"}] * 3

    def test_alternative_sylow_top_built_once(self, s4, monkeypatch):
        # one top for F and one for the alternative Sylow choice, shared by
        # every normal pair of both checks
        calls = []
        honest = verify_mod.fusion_of_group

        def counting(*args, **kwargs):
            calls.append(args[1].members)
            return honest(*args, **kwargs)

        monkeypatch.setattr(verify_mod, "fusion_of_group", counting)
        res = run_suite("s4@2", s4, 2, check_ids=["MainCSE.b", "Model1.a"])
        assert all(r.passed for r in res)
        assert len(calls) == 2 and calls[0] != calls[1]

    def test_inner_shadow_fails_focal_oracle(self, s4):
        res = run_suite("s4@2", s4, 2, check_ids=["focal-oracle"],
                        system_mutator=inner_only_shadow)
        assert res[0].status == "fail"

    def test_inner_shadow_fails_saturation_pairing(self, s4):
        # the shadow is itself saturated but its normal pairs break loudly
        res = run_suite("s4@2", s4, 2,
                        check_ids=["Wellknown", "centralizer-oracle"],
                        system_mutator=inner_only_shadow)
        assert any(r.status == "fail" for r in res)


def cfcg0_per_pair(F, E, auts=None):
    """The literal CFCG0 search: one ``extension_witness`` per (X, alpha),
    X-major, each recomputing C_S(T) and TC_S(T)."""
    T = E.support
    NET = normalizer_subsystem(E, T)
    targets = [X for X in subgroup_lattice(centralizer(F.support, T, T))
               if contained_in_centralizer(F, NET, X)]
    alphas = tuple(auts) if auts is not None else E.automorphisms(T)
    for X in targets:
        for alpha in alphas:
            if extension_witness(F, alpha, T, fixed=X) is None:
                return {"X": list(X.members), "alpha": list(alpha.images)}
    return None


@pytest.mark.parametrize("name", ["s4xc2", "d8xc2", "gl23"])
def test_cfcg0_matches_the_per_pair_search(name):
    """Hoisting the extension search out of the X loop reports the same
    first (X, alpha), also for an automorphism list that fails."""
    G = builtin_group(name)
    S = sylow_subgroup(G.full_subgroup, 2)
    F = fusion_of_group(G, S, 2)
    for N in normal_subgroups(G.full_subgroup):
        E = normal_subsystem_in(F, N)
        assert verify_cfcg0(F, E) == cfcg0_per_pair(F, E) is None
        auts = F.automorphisms(E.support)       # Aut_F(T), beyond Aut_E(T)
        assert verify_cfcg0(F, E, auts) == cfcg0_per_pair(F, E, auts)
