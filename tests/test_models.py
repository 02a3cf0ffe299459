"""Constrained systems and models."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from fusionkit import models, verify
from fusionkit.centralizers import r_star
from fusionkit.corpus import builtin_group, builtin_group_path, corpus_entries
from fusionkit.errors import ModelNotFound, NotConstrained
from fusionkit.fusion import (fusion_of_group, generated_subsystem,
                              subsystem_equal)
from fusionkit.groups import Hom, center, centralizer, o_p, sylow_subgroup
from fusionkit.models import (Model, constrained_local_system,
                              find_isomorphism_extending, is_constrained,
                              model_of, models_isomorphic_over_s,
                              normal_in_system, normal_model, o_p_system,
                              script_G)
from fusionkit.subsystems import normal_subsystem_in
from fusionkit.verify import run_suite, with_replaced_isos
from oracles import find_isomorphism_literal
from test_fusion import perm_groups


class TestNormalInSystem:
    def test_v4_normal_in_f(self, F_s4, V4):
        assert normal_in_system(F_s4, V4)

    def test_center_not_normal_in_f(self, F_s4):
        assert not normal_in_system(F_s4, center(F_s4.support))

    def test_o_p(self, F_s4, V4):
        assert o_p_system(F_s4) == V4

    def test_o_p_of_inner(self, d8):
        F = fusion_of_group(d8, d8.full_subgroup, 2)
        assert o_p_system(F) == d8.full_subgroup


class TestConstrained:
    def test_s4_constrained_with_v4_witness(self, F_s4, V4):
        flag, witness = is_constrained(F_s4)
        assert flag and witness == V4

    def test_inner_system_constrained(self, d8):
        F = fusion_of_group(d8, d8.full_subgroup, 2)
        flag, witness = is_constrained(F)
        assert flag and witness == d8.full_subgroup

    def test_a6_not_constrained(self):
        a6 = builtin_group("a6")
        S = sylow_subgroup(a6.full_subgroup, 2)
        F = fusion_of_group(a6, S, 2)
        flag, witness = is_constrained(F)
        assert not flag and witness is None
        assert o_p_system(F).order == 1


class TestModels:
    def test_s4_model(self, F_s4):
        m = model_of(F_s4)
        assert m.group.order == 24
        assert m.sigma.is_injective

    def test_inner_model_is_the_group(self, d8):
        F = fusion_of_group(d8, d8.full_subgroup, 2)
        assert model_of(F).group.order == 8

    def test_sl23_model(self):
        sl = builtin_group("sl23")
        S = sylow_subgroup(sl.full_subgroup, 2)
        F = fusion_of_group(sl, S, 2)
        m = model_of(F)
        assert m.group.order == 24
        # Q8 = O_2, odd core trivial
        assert sum(1 for x in range(24) if m.group.element_order(x) == 2) >= 1

    def test_odd_core_is_quotiented_away(self):
        # S3 x S3 at p = 3: the local model construction divides by O_3'.
        g = builtin_group("s3xs3")
        S = sylow_subgroup(g.full_subgroup, 3)
        F = fusion_of_group(g, S, 3)
        E = normal_subsystem_in(F, g.full_subgroup)
        Gsys, NET = script_G(F, E)
        m = model_of(Gsys)
        assert m.group.order % 3 == 0

    def test_not_constrained_rejected(self):
        a6 = builtin_group("a6")
        S = sylow_subgroup(a6.full_subgroup, 2)
        F = fusion_of_group(a6, S, 2)
        with pytest.raises(NotConstrained):
            model_of(F)


class TestModelMemo:
    def test_model_is_built_once_per_content(self):
        g = builtin_group("s4")
        F = fusion_of_group(g, sylow_subgroup(g.full_subgroup, 2), 2)
        copy = fusion_of_group(g, F.support, 2)
        assert model_of(F) is model_of(F)
        assert model_of(copy) is not model_of(F)    # another top, another slot

    def test_run_suite_builds_each_local_model_once(self, monkeypatch):
        """Every local system whose model the suite needs is built and
        verified once per content, however many checks and pairs ask."""
        built = []
        verify_model = models._verify_model

        def counted(F, M, sigma):
            built.append((id(F.top()), F.content_key))
            verify_model(F, M, sigma)

        monkeypatch.setattr(models, "_verify_model", counted)
        results = run_suite("s4@2", builtin_group("s4"), 2)
        assert all(r.passed for r in results)
        assert built and len(built) == len(set(built))


class TestNormalModels:
    def test_unique_a4(self, F_s4, E_a4):
        m = model_of(F_s4)
        N = normal_model(F_s4, m, E_a4)
        assert N.order == 12

    def test_full_system_models_to_whole_group(self, F_s4, s4):
        m = model_of(F_s4)
        EF = normal_subsystem_in(F_s4, s4.full_subgroup)
        assert normal_model(F_s4, m, EF).order == 24

    def test_trivial_subsystem_models_to_trivial(self, F_s4, s4):
        m = model_of(F_s4)
        Et = normal_subsystem_in(F_s4, s4.trivial_subgroup)
        assert normal_model(F_s4, m, Et).order == 1

    def test_inner_v4(self, F_s4, V4, s4):
        m = model_of(F_s4)
        EV = normal_subsystem_in(F_s4, V4)
        assert normal_model(F_s4, m, EV).order == 4

    def test_unrealizable_subsystem_not_found(self, F_s4, V4, E_a4):
        # the S3-closure over V4 is not the fusion of any normal subgroup
        # with V4 as a Sylow 2-subgroup
        full = generated_subsystem(F_s4, V4,
                                   F_s4.automorphisms(V4))
        m = model_of(F_s4)
        with pytest.raises(ModelNotFound):
            normal_model(F_s4, m, full)


class TestScriptG:
    def test_s4_pair_gives_f(self, F_s4, E_a4):
        Gsys, NET = script_G(F_s4, E_a4)
        assert subsystem_equal(Gsys, F_s4)
        assert subsystem_equal(NET, E_a4)

    def test_a5_pair(self):
        a5 = builtin_group("a5")
        S = sylow_subgroup(a5.full_subgroup, 2)
        F = fusion_of_group(a5, S, 2)
        E = normal_subsystem_in(F, a5.full_subgroup)
        Gsys, NET = script_G(F, E)
        assert Gsys.support == S
        m = model_of(Gsys)
        assert m.group.order == 12  # N_{A5}(V4) = A4, trivial odd part of... A4
        N = normal_model(Gsys, m, NET)
        assert centralizer(m.sylow_image, N, N).order == 1

    @pytest.mark.parametrize("route", [constrained_local_system, script_G,
                                       r_star])
    def test_system_with_no_witness(self, route, F_s4, E_a4):
        """F_S4's fusion given by its iso-sets alone: the local system has
        no witness to prove T C_S(T) normal and centric."""
        S = F_s4.support
        F = with_replaced_isos(F_s4, S, F_s4.isos_from(S))
        assert not F.realized
        with pytest.raises(NotConstrained):
            route(F, E_a4)


class TestIsomorphismSearch:
    def test_self_isomorphism(self, s4):
        assert find_isomorphism_extending(s4, s4, {}) is not None

    def test_distinguishes_d8_q8(self):
        d8 = builtin_group("d8")
        q8 = builtin_group("q8")
        assert find_isomorphism_extending(d8, q8, {}) is None

    def test_pinned_search(self, F_s4):
        m = model_of(F_s4)
        assert models_isomorphic_over_s(F_s4, m, m)

    def test_wrong_pin_fails(self, F_s4, s4):
        m = model_of(F_s4)
        # twist the embedding by an outer automorphism of D8: no completion
        S = F_s4.support
        r = next(x for x in S.members if s4.element_order(x) == 4)
        refl = next(x for x in S.members
                    if s4.element_order(x) == 2 and x not in
                    o_p_members(s4))
        theta = Hom.from_generator_images(S, S, [r, refl],
                                          [r, s4.mul(r, refl)])
        twisted = Model(m.group, Hom(S, m.group.full_subgroup,
                                     tuple(m.sigma(theta(x)) for x in S.members)))
        assert not models_isomorphic_over_s(F_s4, m, twisted)


def o_p_members(s4):
    return o_p(s4.full_subgroup, 2).member_set


def agree(G1, G2, pins):
    """The search and its literal form agree on whether an isomorphism
    G1 -> G2 extends ``pins``; a map the search returns is a bijective
    homomorphism extending them.  Returns whether one exists."""
    got = find_isomorphism_extending(G1, G2, pins)
    assert (got is None) == (find_isomorphism_literal(G1, G2, pins) is None)
    if got is not None:
        iso = Hom(G1.full_subgroup, G2.full_subgroup,
                  tuple(got[x] for x in range(G1.order))).validate()
        assert iso.is_injective
        assert all(got[x] == y for x, y in pins.items())
    return got is not None


def test_search_matches_literal_on_model1a_pairs(monkeypatch):
    """Every model pair that Model1.a compares over the corpus, pinned on
    the embeddings of S."""
    asked = []

    def recorded(F, m1, m2):
        pins = {m1.sigma(x): m2.sigma(x) for x in F.support.members}
        asked.append(agree(m1.group, m2.group, pins))
        return asked[-1]

    monkeypatch.setattr(verify, "models_isomorphic_over_s", recorded)
    for label, G, p in corpus_entries():
        assert all(r.passed for r in run_suite(label, G, p,
                                               check_ids=["Model1.a"]))
    assert len(asked) == 26 and all(asked)


def test_search_matches_literal_on_bundled_groups():
    """Every ordered pair of bundled groups of equal order, unpinned."""
    names = sorted(path.stem for path in
                   builtin_group_path("c2").parent.glob("*.json"))
    groups = [builtin_group(name) for name in names]
    found = [agree(G1, G2, {}) for G1 in groups for G2 in groups
             if G1.order == G2.order]
    assert len(found) == 38 and sum(found) == len(groups)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.data())
def test_search_matches_literal_on_generated_groups(data):
    """A group generated by two permutations, pinned on a Sylow subgroup
    by an inner automorphism c_g, which extends, on the identity by a
    non-identity element, which nothing extends, and on the whole group by
    c_g with the images of two elements x != y of one order swapped,
    which does not: that bijection is no homomorphism once |G| > 4, as an
    automorphism moving just two elements would fix a subgroup of order
    |G| - 2, which divides |G| only when |G| <= 4."""
    G, p = data.draw(perm_groups())
    g = data.draw(st.sampled_from(range(G.order)))
    S = sylow_subgroup(G.full_subgroup, p)
    assert agree(G, G, {x: G.conj(x, g) for x in S.members})
    if G.order > 1:
        assert not agree(G, G, {0: data.draw(st.sampled_from(range(1, G.order)))})
    if G.order > 4:
        x, y = data.draw(st.sampled_from(
            [(x, y) for x in range(1, G.order) for y in range(x + 1, G.order)
             if G.element_order(x) == G.element_order(y)]))
        pins = {z: G.conj(z, g) for z in range(G.order)}
        pins[x], pins[y] = pins[y], pins[x]
        assert not agree(G, G, pins)
