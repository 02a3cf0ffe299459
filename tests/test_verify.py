"""The verification suite: happy paths, determinism, and mutation
self-tests.  Every check id is shown non-vacuous: a deliberately corrupted
input makes exactly that verifier fail."""

from __future__ import annotations

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import fusionkit
from fusionkit import centralizers, verify as verify_mod
from fusionkit.centralizers import (compute_centralizer_data,
                                    contained_in_centralizer,
                                    normalizer_family)
from fusionkit.corpus import builtin_group, builtin_group_path, ingest
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
from mutation_scenarios import at_subgroup, z_replaced
from oracles import keys_of


PACKAGE = Path(fusionkit.__file__).parent
TYPED_ERRORS = {name for name, cls in vars(fusionkit.errors).items()
                if isinstance(cls, type)
                and issubclass(cls, fusionkit.errors.FusionkitError)}


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
        """A suite pass on s4@2 (4 normal pairs) fills 8 slots of
        ``centralizing_keys``: the keys of E and of N_E(T) for each pair.
        The four checks that read E's family (EasyCentralizer, XInvariant,
        WeaklyClosedCentralized and MainCSE.a) each read, for every pair,
        the tuple that ``compute_centralizer_data(F, E).X_set`` holds.
        centralizer-oracle recomputes both families by the definition, one
        ``contained_in_centralizer`` per X <= C_S(T): 2 x 22 calls over the
        pairs' lattices of 10, 5, 5 and 2 subgroups.  No call of
        ``centralizing_keys`` is made under it, so its "family drifted"
        comparison never compares the memo with itself."""
        reads = []
        calls: Counter = Counter()
        real_set = verify_mod.centralized_set
        real_keys = centralizers.centralizing_keys
        real_contained = verify_mod.contained_in_centralizer

        def under_oracle() -> bool:
            frame = sys._getframe(2)
            while frame is not None:
                if frame.f_code.co_name == "_check_centralizer_oracle":
                    return True
                frame = frame.f_back
            return False

        def recorded(F, E):
            got = real_set(F, E)
            reads.append((sys._getframe(1).f_code.co_name, F, E, got))
            return got

        def keys_watched(F, E):
            calls["keys", under_oracle()] += 1
            return real_keys(F, E)

        def contained(F, E, X):
            calls["definition", under_oracle()] += 1
            return real_contained(F, E, X)

        monkeypatch.setattr(verify_mod, "centralized_set", recorded)
        monkeypatch.setattr(verify_mod, "contained_in_centralizer", contained)
        for module in (verify_mod, centralizers):
            monkeypatch.setattr(module, "centralizing_keys", keys_watched)
        with counted_memo() as (fills, _):
            results = run_suite("s4@2", builtin_group("s4"), 2)
        assert all(r.passed for r in results)
        assert fills[real_keys] == 8
        assert calls["definition", True] == 44
        assert calls["keys", True] == 0 and calls["keys", False] > 0
        assert Counter(name for name, *_ in reads) == {
            "verify_easy_centralizer": 4, "verify_x_invariant": 4,
            "verify_weakly_closed_centralized": 4, "verify_main_cse_a": 4}
        assert all(got == compute_centralizer_data(F, E).X_set
                   for _, F, E, got in reads)

    @pytest.mark.parametrize("name", ["s4", "d8", "c2xc4"])
    def test_each_check_alone_matches_the_full_pass(self, name):
        """Each check reads its data through derived functions of F, not
        from what an earlier check left: run alone, on a freshly ingested
        group, it gives the status and payload of the full pass."""
        label = f"{name}@2"
        full = run_suite(label, ingest(builtin_group_path(name)), 2)
        assert [r.check_id for r in full] == list(CHECK_ORDER)
        for r in full:
            [alone] = run_suite(label, ingest(builtin_group_path(name)), 2,
                                [r.check_id])
            assert (alone.check_id, alone.status, alone.counterexample) == (
                r.check_id, r.status, r.counterexample)

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
        bad = FusionSystem(V4, 2, explicit=keys_of(explicit), ambient=F_s4)
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
                                   enumerate(refl.members))).validate()
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


def returning(value):
    """A stand-in for a function of ``verify`` that returns ``value``."""
    return lambda *args: value


class TestMutationsCentralizer:
    """A verifier takes only systems; each corrupted datum is injected at
    the function of ``verify`` the verifier reads it from."""

    def test_easy_centralizer_family_injection(self, F_s4, E_a4, monkeypatch):
        Z = center(F_s4.support)
        monkeypatch.setattr(verify_mod, "centralized_set",
                            returning((F_s4.universe.trivial_subgroup, Z)))
        bad = verify_easy_centralizer(F_s4, E_a4)
        assert bad is not None and bad["clause"] == "b"

    def test_frattini_cons_injection(self, F_s4, E_a4, V4, monkeypatch):
        ident = {V4.members: (Hom.identity(V4),)}
        for name in ("h_group", "a_circle"):
            monkeypatch.setattr(verify_mod, name,
                                at_subgroup(getattr(verify_mod, name), ident))
        assert verify_frattini_cons(F_s4, E_a4) is not None

    def test_x_invariant_injection(self, F_s4, E_a4, monkeypatch):
        Z = center(F_s4.support)
        monkeypatch.setattr(verify_mod, "centralized_set", returning((Z,)))
        assert verify_x_invariant(F_s4, E_a4) is not None

    def test_weakly_closed_injection(self, F_s4, E_a4, monkeypatch):
        monkeypatch.setattr(verify_mod, "centralized_set", returning(()))
        assert verify_weakly_closed_centralized(F_s4, E_a4) is not None

    def test_cfcg0_unextendable_automorphism(self, F_s4xc2, E_s4x1, s4xc2,
                                             monkeypatch):
        """E with Aut_E(T) replaced by an outer automorphism of D8 that
        does not extend to S, with N_E(T)'s family injected as that of
        the honest E."""
        T = E_s4x1.support
        r = next(x for x in T.members if s4xc2.element_order(x) == 4)
        refl = next(x for x in T.members
                    if s4xc2.element_order(x) == 2
                    and x not in center(T).member_set
                    and s4xc2.conj(x, r) != x)
        outer = Hom.from_generator_images(T, T, [r, refl],
                                          [r, s4xc2.mul(r, refl)])
        monkeypatch.setattr(verify_mod, "normalizer_family", returning(
            verify_mod.normalizer_family(F_s4xc2, E_s4x1)))
        bad_E = with_replaced_isos(E_s4x1, T, [outer])
        assert bad_E.automorphisms(T) == (outer,)
        assert verify_cfcg0(F_s4xc2, bad_E) == {
            "X": [0, 1, 14, 15], "alpha": list(outer.images)}

    def test_first_characterization_bad_rstar(self, F_s4xc2, E_s4x1,
                                              monkeypatch):
        monkeypatch.setattr(verify_mod, "r_star", returning(
            (F_s4xc2.universe.trivial_subgroup,)))
        bad = verify_first_characterization(F_s4xc2, E_s4x1)
        assert bad is not None

    def test_first_characterization_rstar_outside_cst(self, F_s4xc2, E_s4x1,
                                                      monkeypatch):
        monkeypatch.setattr(verify_mod, "r_star", returning((F_s4xc2.support,)))
        bad = verify_first_characterization(F_s4xc2, E_s4x1)
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

    def test_main_cse_a_injected_member(self, F_s4, E_a4, monkeypatch):
        Z = center(F_s4.support)
        monkeypatch.setattr(verify_mod, "centralized_set",
                            returning((F_s4.universe.trivial_subgroup, Z)))
        bad = verify_main_cse_a(F_s4, E_a4)
        assert bad is not None

    def test_main_cse_a_deleted_hom(self, F_s4, E_a4, V4):
        bad_F = with_removed_iso(F_s4, V4, order3_index(F_s4, V4))
        assert verify_main_cse_a(bad_F, E_a4) is not None

    def test_main_cse_a_join_not_centralized(self, F_s4, E_a4, s4,
                                             monkeypatch):
        """C_S(E) = 1 for E = F_V4(A4); Z(S) injected as the join is not
        centralized by E's automorphisms of order 3."""
        Z = center(F_s4.support)
        monkeypatch.setattr(verify_mod, "centralized_set",
                            returning((s4.trivial_subgroup,)))
        monkeypatch.setattr(verify_mod, "family_join", returning(Z))
        bad = verify_main_cse_a(F_s4, E_a4)
        assert bad == {"kind": "join is not centralized", "C_S_E": list(Z.members)}

    def test_main_cse_a_member_escapes_the_join(self, F_s4, s4, monkeypatch):
        """The trivial system is centralized by every X <= S; the trivial
        subgroup injected as the join misses the family's first member, S."""
        E1 = normal_subsystem_in(F_s4, s4.trivial_subgroup)
        monkeypatch.setattr(verify_mod, "family_join",
                            returning(s4.trivial_subgroup))
        bad = verify_main_cse_a(F_s4, E1)
        assert bad == {"kind": "family member escapes the join",
                       "X": list(F_s4.support.members)}

    def test_main_cse_a_join_not_strongly_closed(self, F_s4, s4, monkeypatch):
        """Z(S) holds the injected family {1, Z(S)} and centralizes the
        trivial system, but S4 fuses its involution into V4 outside Z(S)."""
        E1 = normal_subsystem_in(F_s4, s4.trivial_subgroup)
        Z = center(F_s4.support)
        monkeypatch.setattr(verify_mod, "centralized_set",
                            returning((Z, s4.trivial_subgroup)))
        monkeypatch.setattr(verify_mod, "family_join", returning(Z))
        bad = verify_main_cse_a(F_s4, E1)
        assert bad == {"kind": "not strongly closed", "C_S_E": list(Z.members)}

    def test_main_cse_b_corrupted_data(self, F_s4xc2, E_s4x1, data_s4xc2,
                                       monkeypatch):
        bad_data = data_s4xc2._replace(
            R_star=F_s4xc2.universe.trivial_subgroup)
        monkeypatch.setattr(verify_mod, "compute_centralizer_data",
                            returning(bad_data))
        assert verify_main_cse_b(F_s4xc2, E_s4x1) is not None

    def test_main_cse_c_corrupted_data(self, F_s4xc2, E_s4x1, data_s4xc2,
                                       monkeypatch):
        bad_data = data_s4xc2._replace(
            C_S_E=F_s4xc2.universe.trivial_subgroup)
        monkeypatch.setattr(verify_mod, "compute_centralizer_data",
                            returning(bad_data))
        assert verify_main_cse_c(F_s4xc2, E_s4x1) is not None

    def test_focprop_undershot_bound(self, a4xa4_pair, monkeypatch):
        F, E = a4xa4_pair
        monkeypatch.setattr(verify_mod, "c_s_of",
                            returning(F.universe.trivial_subgroup))
        bad = verify_focprop(F, E)
        assert bad is not None and bad["kind"] == "focal"

    def test_show_weakly_normal_bad_cfe(self, F_s4xc2, E_s4x1, monkeypatch):
        z1 = next(P for P in subgroup_lattice(F_s4xc2.support)
                  if P.order == 2 and
                  P.member_set <= E_s4x1.support.member_set)
        monkeypatch.setattr(verify_mod, "c_F_of",
                            returning(inner_system(F_s4xc2, z1)))
        assert verify_show_weakly_normal(F_s4xc2, E_s4x1) is not None

    def test_cfe_normal_bad_cfe(self, F_s4xc2, E_s4x1, monkeypatch):
        z1 = next(P for P in subgroup_lattice(F_s4xc2.support)
                  if P.order == 2 and
                  P.member_set <= E_s4x1.support.member_set)
        monkeypatch.setattr(verify_mod, "c_F_of",
                            returning(inner_system(F_s4xc2, z1)))
        assert verify_cfe_normal(F_s4xc2, E_s4x1) is not None

    def test_main_cfe_undersized_cfe(self, F_s4xc2, E_s4x1, data_s4xc2,
                                     monkeypatch):
        small = inner_system(F_s4xc2, F_s4xc2.universe.trivial_subgroup)
        honest_d = inner_system(F_s4xc2, data_s4xc2.C_S_E)
        monkeypatch.setattr(verify_mod, "c_F_of", returning(small))
        monkeypatch.setattr(verify_mod, "candidate_subsystems",
                            returning((honest_d,)))
        bad = verify_main_cfe(F_s4xc2, E_s4x1)
        assert bad is not None

    def test_coincide_stripped_cfe(self, a4xa4_pair, monkeypatch):
        """Coincide reads C_F(E) from ``verify.c_F_of``, as the other
        C_F(E) checks do."""
        F, E = a4xa4_pair
        data = compute_centralizer_data(F, E)
        monkeypatch.setattr(verify_mod, "c_F_of",
                            returning(inner_system(F, data.C_S_E)))
        assert verify_coincide(F, E) is not None


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
                    tuple(m.sigma(theta(x)) for x in S.members))
        return m, Model(m.group, sigma)

    def test_model1a_twisted_embedding(self, F_s4, s4):
        from fusionkit.models import models_isomorphic_over_s
        m, twisted = self._twisted_model(F_s4, s4)
        assert not models_isomorphic_over_s(F_s4, m, twisted)

    def test_model1b_twisted_embedding(self, F_s4, E_a4, s4, monkeypatch):
        """F_s4 and a twisted model of it injected as the R*-local system
        and its model."""
        _, twisted = self._twisted_model(F_s4, s4)
        data = compute_centralizer_data(F_s4, E_a4)
        monkeypatch.setattr(verify_mod, "compute_centralizer_data", returning(
            data._replace(local_system=F_s4, model=twisted)))
        assert verify_model1b(F_s4, E_a4) is not None

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

    def test_l_lemma_injected_center(self, F_q8c4, q8c4_factors, monkeypatch):
        F1, F2 = q8c4_factors
        monkeypatch.setattr(verify_mod, "z_of", z_replaced(
            F1.support, F_q8c4.universe.trivial_subgroup))
        bad = verify_l_f1f2(F_q8c4, F1, F2)
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
        # a join that E does not centralize fails at the first normal pair,
        # and the normal-pair runner locates it by |N| and T
        monkeypatch.setattr(verify_mod, "family_join",
                            lambda F, X_set: center(F.support))
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
        normal subgroups of, or S n [W, W] for the focal oracle: each
        check that reads the witness records the typed error."""
        def forget(F):
            P = F.subgroups()[0]
            return with_replaced_isos(F, P, F.isos_from(P))

        res = run_suite("s4@2", s4, 2, system_mutator=forget,
                        check_ids=["saturation", "FfEf", "RadicalIntersect",
                                   "focal-oracle"])
        assert [r.counterexample for r in res] == [{
            "error": "VerificationFailed: group-level checks "
                     "need a realized F"}] * 4

    def test_identity_removed_system_ends_with_a_typed_failure(self):
        """Without the identity of the order-2 subgroup P = (0, 1) of s4@2,
        Aut_F(P) is empty, and the order 0 has no p-part: ``classify`` used
        to loop in ``groups.p_part`` for ever.  In a subprocess with a time
        limit, the suite ends on both mutants.  Without the witness every
        check fails, and ``saturation`` records the empty automorphism set,
        which ``classify`` builds before it counts.  With the witness kept,
        no check records an error outside ``FusionkitError`` either."""
        script = (f"import json, sys\n"
                  f"sys.path.insert(0, {str(PACKAGE.parent)!r})\n"
                  f"from fusionkit.corpus import builtin_group\n"
                  f"from fusionkit.verify import run_suite, with_removed_iso\n"
                  f"def mutant(keep):\n"
                  f"    def mutate(F):\n"
                  f"        P = next(P for P in F.subgroups()\n"
                  f"                 if P.members == (0, 1))\n"
                  f"        assert F.isos_from(P)[0].is_identity()\n"
                  f"        return with_removed_iso(F, P, 0, keep_witness=keep)\n"
                  f"    return mutate\n"
                  f"print(json.dumps([[[r.check_id, r.status, r.counterexample]\n"
                  f"                   for r in run_suite('s4@2',\n"
                  f"                       builtin_group('s4'), 2,\n"
                  f"                       system_mutator=mutant(keep))]\n"
                  f"                  for keep in (False, True)]))\n")
        run = subprocess.run([sys.executable, "-I", "-c", script],
                             capture_output=True, text=True, check=True,
                             timeout=60)
        bare, kept = json.loads(run.stdout)
        for results in (bare, kept):
            assert [check_id for check_id, _, _ in results] == list(CHECK_ORDER)
        assert all(status == "fail" for _, status, _ in bare)
        assert bare[0] == ["saturation", "fail", {
            "error": "NotAGroup: empty automorphism set"}]
        raised = [bad["error"].split(":")[0] for _, _, bad in bare + kept
                  if bad is not None and "error" in bad]
        assert raised and set(raised) <= TYPED_ERRORS

    @pytest.mark.parametrize("name", ["c4", "c2xc4"])
    def test_non_multiplicative_automorphism_fails_typed(self, name):
        """The bijection of S that swaps its members at positions 1 and 2 is
        no automorphism, and ``with_added_iso(..., close=False)`` adds it as
        given.  It carries some subgroup to a set that is no subgroup, so
        ``subsystems._stability`` raises ``NotAGroup`` naming alpha and P.
        Every error a check records is a ``FusionkitError``."""
        def mutate(F):
            S = F.support
            images = list(S.members)
            images[1], images[2] = images[2], images[1]
            return with_added_iso(F, Hom(S, S, images), close=False,
                                  keep_witness=True)

        res = run_suite(f"{name}@2", builtin_group(name), 2,
                        system_mutator=mutate)
        raised = [r.counterexample["error"] for r in res
                  if r.counterexample is not None and "error" in r.counterexample]
        assert any(e.startswith("NotAGroup: alpha ") for e in raised)
        assert {e.split(":")[0] for e in raised} <= TYPED_ERRORS


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


def cfcg0_per_pair(F, E, NET):
    """The literal CFCG0 search with N_E(T) given as ``NET``: one
    ``extension_witness`` per (X, alpha), X-major, over the X <= C_S(T)
    found by testing whether C_F(X) contains N_E(T)."""
    T = E.support
    targets = [X for X in subgroup_lattice(centralizer(F.support, T, T))
               if contained_in_centralizer(F, NET, X)]
    for X in targets:
        for alpha in E.automorphisms(T):
            if extension_witness(F, alpha, T, fixed=X) is None:
                return {"X": list(X.members), "alpha": list(alpha.images)}
    return None


# The normal pairs of each entry whose E with Aut_E(T) replaced by Aut_F(T)
# fails CFCG0.
WIDER_FAILING = {"s4xc2": 2, "d8xc2": 9, "gl23": 0}


@pytest.mark.parametrize("name", WIDER_FAILING)
def test_cfcg0_matches_the_per_pair_search(name, monkeypatch):
    """``verify_cfcg0`` on the family of N_E(T) (``normalizer_family``)
    reports the same first (X, alpha) as the per-pair search, also for an
    automorphism list that fails: E with Aut_E(T) replaced by Aut_F(T),
    with N_E(T)'s family injected as that of E (``WIDER_FAILING``)."""
    G = builtin_group(name)
    S = sylow_subgroup(G.full_subgroup, 2)
    F = fusion_of_group(G, S, 2)
    failed = 0
    for N in normal_subgroups(G.full_subgroup):
        E = normal_subsystem_in(F, N)
        T = E.support
        NET = normalizer_subsystem(E, T)
        assert verify_cfcg0(F, E) == cfcg0_per_pair(F, E, NET) is None
        wider = with_replaced_isos(E, T, F.automorphisms(T))
        with monkeypatch.context() as mp:
            mp.setattr(verify_mod, "normalizer_family",
                       returning(normalizer_family(F, E)))
            bad = verify_cfcg0(F, wider)
        assert bad == cfcg0_per_pair(F, wider, NET)
        failed += bad is not None
    assert failed == WIDER_FAILING[name]
