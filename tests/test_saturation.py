"""Saturation machinery: flags, extension axiom, families, Alperin."""

from __future__ import annotations

import re
from collections import Counter
from itertools import chain

import pytest
from hypothesis import given, settings

from fusionkit import saturation
from fusionkit.corpus import builtin_group, corpus_entries
from fusionkit.errors import DomainMismatch, NotAGroup, NotSaturated
from fusionkit.fusion import (TRIVIAL_TABLE, MorphismGroup, fusion_of_group,
                              generated_subsystem, realized_subsystem)
from fusionkit.groups import (Hom, Subgroup, center, centralizer, normalizer,
                              sylow_subgroup)
from fusionkit.saturation import (alperin_decompose, canonical_family,
                                  classify, is_conjugation_family,
                                  is_saturated, o_upper_p_automorphisms)
from fusionkit.subsystems import centralizer_subsystem, normalizer_subsystem
from fusionkit.verify import (inner_only_shadow, normal_pairs, run_suite,
                              with_added_iso, with_removed_iso,
                              with_replaced_isos)
from conftest import entry_system, extension_group
from oracles import (automizer_in_literal, centralizer_literal,
                     classify_literal, extend_morphism, normalizer_literal,
                     saturation_report_literal)
from test_fusion import perm_groups, s4_mutants
from test_key_forms import mutants as key_form_mutants


def cross_map(F, V4):
    """An isomorphism between two different order-2 subgroups of V4."""
    c2s = [P for P in F.subgroups() if P.order == 2
           and P.member_set <= V4.member_set]
    return next(h for h in F.isos_from(c2s[0]) if h.codomain == c2s[1])


def count_tables(monkeypatch) -> list[MorphismGroup]:
    """The list that every ``saturation.aut_group`` fill appends its
    MorphismGroup to from now on."""
    built = []

    class Counted(MorphismGroup):
        def __init__(self, autos):
            super().__init__(autos)
            built.append(self)

    monkeypatch.setattr(saturation, "MorphismGroup", Counted)
    return built


def tables(built: list[MorphismGroup]) -> list[int]:
    """The orders of the tables the MorphismGroups of ``built`` made; every
    one-element group reads the shared ``TRIVIAL_TABLE`` and makes none."""
    assert all(mg.group is TRIVIAL_TABLE
               for mg in built if len(mg.homs) == 1)
    return [mg.group.order for mg in built if mg.group is not TRIVIAL_TABLE]


class TestClassification:
    def test_trivial_automizers_build_no_table(self, monkeypatch):
        """Classifying builds a MorphismGroup for each centric P and for no
        other: on s4@2 for its 4 centric subgroups, none of them with a
        one-element Aut_F(P), so its 6 one-element ones build nothing; on
        c2xc4@2, whose one centric subgroup is S with Aut_F(S) = 1, the
        one MorphismGroup reads the shared order-1 table.  The flags are
        those of the Hom form."""
        built = count_tables(monkeypatch)
        for name, made, trivial in (("s4", 4, 0), ("c2xc4", 1, 1)):
            built.clear()
            G = builtin_group(name)
            F = fusion_of_group(G, sylow_subgroup(G.full_subgroup, 2), 2)
            got = classify(F)
            assert {mg.base.members for mg in built} == got.centric
            assert len(built) == made
            assert sum(len(mg.homs) == 1 for mg in built) == trivial
            assert 1 not in tables(built)
            want = classify_literal(F)
            assert (got.centric, got.fully_automized) == (want.centric,
                                                          want.fully_automized)
            assert got.radical == want.radical & want.centric

    def test_suite_pass_builds_no_one_element_table(self, monkeypatch):
        """A suite pass on s4xc2@2 decides every statement about Aut_F(P)
        on its MorphismGroup (h_group, A-circle, FrattiniCons, O^p,
        invariance and coincidence, and the radical test of centric P),
        108 of them, and the 48 one-element ones read the shared order-1
        table: 60 tables, none of order 1.  It made 520 MorphismGroups and
        125 tables while the classification built one for every P and
        every saturation report classified its system."""
        built = count_tables(monkeypatch)
        results = run_suite("s4xc2@2", builtin_group("s4xc2"), 2)
        assert all(r.passed for r in results)
        assert len(built) == 108
        assert sum(len(mg.homs) == 1 for mg in built) == 48
        assert 1 not in tables(built) and len(tables(built)) == 60

    def test_v4_flags(self, F_s4, V4):
        cls = classify(F_s4)
        assert cls.is_fully_normalized(V4)
        assert cls.is_centric(V4) and V4.members in cls.radical

    def test_sylow_always_centric_radical(self, F_s4):
        cls = classify(F_s4)
        assert F_s4.support in cls.cr_set()

    def test_center_fully_centralized_but_classmates_not(self, F_s4):
        cls = classify(F_s4)
        Z = center(F_s4.support)
        assert cls.is_fully_centralized(Z)
        mates = [Q for c in F_s4.classes() if Z in c for Q in c if Q != Z]
        assert mates and all(not cls.is_fully_centralized(Q) for Q in mates)

    def test_crf_family_for_s4(self, F_s4, V4):
        fam = canonical_family(F_s4)
        assert {P.members for P in fam} == {V4.members, F_s4.support.members}

    def test_c_and_cr_closed_under_conjugacy(self, F_s4):
        cls = classify(F_s4)
        cr = cls.cr_set()
        for c in F_s4.classes():
            for P in c:
                for Q in c:
                    assert cls.is_centric(P) == cls.is_centric(Q)
                    assert (P in cr) == (Q in cr)

    def test_o_upper_p_automorphisms(self, F_s4, V4):
        op = o_upper_p_automorphisms(F_s4, V4)
        assert len(op) == 3  # C3 inside S3


def assert_action_is_literal(F) -> dict:
    """S's action in the class datum of F, checked against the literal
    forms for every P <= S: its values partition S in member order, each
    key is gens(P)^g for the g of its value, the value at gens(P) is
    C_S(P), the values whose key lies in P make up N_S(P), and the keys
    inside P are the images of gens(P) under Aut_S(P).  Returns it."""
    S, conj = F.support, F.universe.conj
    action = saturation._classes_and_counts(F)[1]
    assert set(action) == {P.members for P in F.subgroups()}
    for P in F.subgroups():
        cosets, gens, pset = action[P.members], P.generators, P.member_set
        values = list(cosets.values())
        assert all(list(v) == sorted(v) for v in values)
        assert [v[0] for v in values] == sorted(v[0] for v in values)
        assert sorted(chain.from_iterable(values)) == list(S.members)
        for key, v in cosets.items():
            assert all(tuple(conj(x, g) for x in gens) == key for g in v)
        assert tuple(cosets[gens]) == centralizer_literal(S, P).members
        inside = [key for key in cosets if pset.issuperset(key)]
        assert tuple(sorted(chain.from_iterable(
            cosets[key] for key in inside))) == normalizer_literal(S, P).members
        assert set(inside) == {tuple(map(h, gens))
                               for h in automizer_in_literal(F, S, P)}
    return action


class TestActionDatum:
    def test_corpus_and_mutants(self):
        """On the corpus entries of order <= 48, and on mutants of each
        (``with_removed_iso``, ``inner_only_shadow``): a mutant's table
        differs from F's, but S's action on each P does not."""
        for label, G, p in corpus_entries():
            if G.order > 48:
                continue
            F = entry_system(G, p)
            action = assert_action_is_literal(F)
            S = F.support
            removed = with_removed_iso(F, S, len(F.isos_from(S)) - 1)
            for M in (removed, inner_only_shadow(F)):
                assert assert_action_is_literal(M) == action

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(perm_groups())
    def test_generated_groups(self, group):
        G, p = group
        assert_action_is_literal(
            fusion_of_group(G, sylow_subgroup(G.full_subgroup, p), p))


def extension_group_by_composition(F, phi):
    """N_phi by its definition, composing Homs: the g in N_S(P) with
    phi^-1 c_g phi in Aut_S(P^phi)."""
    phi = phi.cores()
    P, Q = phi.domain, phi.codomain
    aut_s = {h.images for h in F.automizer_in(F.support, Q)}
    inv = phi.inverse()
    return Subgroup(F.universe, tuple(
        g for g in normalizer(F.support, P, P).members
        if inv.then(Hom.conjugation(P, g)).then(phi).images
        in aut_s))


class TestExtensionAxiom:
    def test_extension_group_matches_composition(self, F_s4):
        d8xc2 = builtin_group("d8xc2")
        F_d8xc2 = fusion_of_group(
            d8xc2, sylow_subgroup(d8xc2.full_subgroup, 2), 2)
        mutant = s4_mutants(F_s4)["added"]   # built by with_added_iso
        assert mutant.content_key != F_s4.content_key
        for F in (F_s4, F_d8xc2, mutant):
            for P in F.subgroups():
                for phi in F.isos_from(P):
                    assert extension_group(F, phi) == \
                        extension_group_by_composition(F, phi)

    def test_n_phi_of_inclusion_is_normalizer(self, F_s4, V4):
        incl = Hom.identity(V4)     # V4 -> S corestricted onto its image
        assert extension_group(F_s4, incl) == normalizer(F_s4.support, V4, V4)

    def test_n_phi_of_order3_is_v4(self, F_s4, V4):
        phi = next(h for h in F_s4.automorphisms(V4)
                   if all(h(x) != x for x in V4.members if x))
        assert extension_group(F_s4, phi) == V4

    def test_n_phi_of_inner_twist(self, F_s4, V4):
        for s in F_s4.support.members:
            phi = Hom.conjugation(V4, s)
            assert extension_group(F_s4, phi).order == normalizer(
                F_s4.support, V4, V4).order

    def test_sandwich(self, F_s4):
        for P in F_s4.subgroups():
            for phi in F_s4.isos_from(P):
                nphi = extension_group(F_s4, phi)
                lower = P.product_set(centralizer(F_s4.support, P, P))
                assert set(lower) <= nphi.member_set
                assert nphi.member_set <= normalizer(F_s4.support, P, P).member_set

    def test_extend_identity(self, F_s4, V4):
        got = extend_morphism(F_s4, Hom.identity(V4), F_s4.support)
        assert got is not None

    def test_extend_cross_map_over_v4(self, F_s4, V4):
        psi = cross_map(F_s4, V4)
        ext = extend_morphism(F_s4, psi, V4)
        assert ext is not None
        assert ext.codomain == V4 and not ext.is_identity()
        assert all(ext(x) == psi(x) for x in psi.domain.members)

    def test_absent_extension_in_unsaturated_closure(self, F_s4, V4):
        psi = cross_map(F_s4, V4)
        bad = generated_subsystem(F_s4, V4, [psi])
        assert extend_morphism(bad, psi, V4) is None


class TestSaturation:
    @pytest.mark.parametrize("name,p", [("d8", 2), ("q8", 2), ("s4", 2),
                                        ("a4", 2), ("a4", 3), ("sl23", 2),
                                        ("gl23", 2), ("a5", 2), ("s3xs3", 3)])
    def test_realized_systems_saturated(self, name, p):
        G = builtin_group(name)
        S = sylow_subgroup(G.full_subgroup, p)
        assert is_saturated(fusion_of_group(G, S, p)).ok

    def test_subsystem_saturated(self, E_a4):
        assert is_saturated(E_a4).ok

    def test_one_way_cross_map_not_saturated(self, F_s4, V4):
        psi = cross_map(F_s4, V4)
        bad = generated_subsystem(F_s4, V4, [psi])
        rep = is_saturated(bad)
        assert not rep.ok
        assert any(f["axiom"] == "extension" for f in rep.failures)

    def test_fully_normalized_conjugator(self, F_s4):
        # in a saturated system every P has a morphism on N_S(P) taking it
        # to a fully normalized subgroup
        cls = classify(F_s4)
        for P in F_s4.subgroups():
            assert any(cls.is_fully_normalized(alpha.subgroup_image(P))
                       for alpha in F_s4.isos_from(normalizer(F_s4.support, P, P)))


LOCAL_ENTRIES = ("s4@2", "d8xc2@2", "a6@2")


def saturation_systems():
    """Every corpus entry's F (a4xa4@2 included) and the subsystems of its
    normal pairs, and C_F(X) and N_F(Q) for every X, Q <= S on the
    entries of ``LOCAL_ENTRIES``."""
    for label, G, p in corpus_entries():
        F = entry_system(G, p)
        yield F
        for _, E in normal_pairs(F):
            yield E
        if label in LOCAL_ENTRIES:
            for X in F.subgroups():
                yield centralizer_subsystem(F, X)
                yield normalizer_subsystem(F, X)


def by_classes(F) -> bool:
    """Does ``is_saturated`` decide F class by class?"""
    return F.from_witness and F.support.member_set <= F.witness.member_set


class TestSaturationByClasses:
    def test_class_test_matches_the_report(self):
        """On every system of ``saturation_systems`` the report is that of
        the per-phi Hom form, and on those given by a witness over a
        support inside it the class test says saturated exactly when that
        report does.  All 264 are such witness systems, and 12 of them are
        not saturated (C_F(X) over C_S(X) for an X that is not fully
        centralized), so the exhaustive report is made after the class
        test fails."""
        seen: Counter = Counter()
        for D in saturation_systems():
            got = is_saturated.__wrapped__(D)
            assert got == saturation_report_literal(D)
            if by_classes(D):
                assert saturation._saturated_by_classes(D) == got.ok
            seen[by_classes(D), got.ok] += 1
        assert seen[True, True] > 200 and seen[True, False] >= 10

    @pytest.mark.parametrize("keep_witness", [False, True])
    def test_mutants_keep_the_exhaustive_report(self, keep_witness):
        """Mutants of the small entries by ``with_removed_iso``,
        ``with_replaced_isos`` and ``with_added_iso`` (the mutants of
        ``test_key_forms``, and a bijection of S that is no automorphism
        added unclosed) have explicit iso-sets, with or without the
        witness, so none is decided class by class, and each report or
        error is that of the per-phi Hom form."""
        seen: Counter = Counter()
        for label, G, p in corpus_entries():
            if G.order > 48:
                continue
            F = entry_system(G, p)
            S = F.support
            found = [] if keep_witness else key_form_mutants(F)
            for P in F.subgroups():
                homs = F.isos_from(P)
                found.append(with_removed_iso(F, P, len(homs) - 1,
                                              keep_witness=keep_witness))
                found.append(with_replaced_isos(F, P, homs[:1],
                                                keep_witness=keep_witness))
            swapped = list(S.members)
            if len(swapped) > 3:
                swapped[1], swapped[2] = swapped[2], swapped[1]
                found.append(with_added_iso(F, Hom(S, S, tuple(swapped)),
                                            close=False,
                                            keep_witness=keep_witness))
            for M in found:
                assert not by_classes(M)
                try:
                    got = is_saturated.__wrapped__(M)
                except (NotAGroup, DomainMismatch) as exc:
                    with pytest.raises(type(exc), match=re.escape(str(exc))):
                        saturation_report_literal(M)
                    seen[type(exc)] += 1
                    continue
                assert got == saturation_report_literal(M)
                seen[got.ok] += 1
        assert seen[True] > 100 and seen[False] > 50 and seen[NotAGroup] > 100


class TestConjugationFamilies:
    def test_all_subgroups_always_work(self, F_s4):
        assert is_conjugation_family(F_s4, list(F_s4.subgroups()))

    @pytest.mark.parametrize("name,p", [("s4", 2), ("d8", 2), ("q8", 2),
                                        ("q8c4", 2), ("a4", 2), ("sl23", 2),
                                        ("gl23", 2), ("a5", 2), ("a6", 2),
                                        ("s3xs3", 3), ("c3c4", 3)])
    def test_crf_family_works_across_corpus(self, name, p):
        G = builtin_group(name)
        S = sylow_subgroup(G.full_subgroup, p)
        F = fusion_of_group(G, S, p)
        assert is_conjugation_family(F, canonical_family(F))

    def test_center_alone_fails(self, F_s4):
        assert not is_conjugation_family(F_s4, [center(F_s4.support)])

    def test_answer_is_memoized_per_content(self, monkeypatch):
        """A second call on F and the same family, in any order or on a copy
        of F sharing its slot, runs no reachability search."""
        G = builtin_group("gl23")
        F = fusion_of_group(G, sylow_subgroup(G.full_subgroup, 2), 2)
        searched = []
        reachable = saturation._reachable

        def counting(F, P, family, record_paths=False):
            searched.append(P.members)
            return reachable(F, P, family, record_paths)

        monkeypatch.setattr(saturation, "_reachable", counting)
        family = canonical_family(F)
        assert is_conjugation_family(F, family)
        assert len(searched) == len(F.subgroups())
        copy = realized_subsystem(F, F.witness, F.support)
        assert is_conjugation_family(F, tuple(reversed(family)))
        assert is_conjugation_family(copy, family)
        assert len(searched) == len(F.subgroups())


class TestAlperin:
    def test_cross_map_single_factor(self, F_s4, V4):
        psi = cross_map(F_s4, V4)
        fact = alperin_decompose(F_s4, psi)
        assert len(fact.steps) == 1
        assert fact.steps[0].member == V4
        assert fact.recompose().images == psi.cores().images

    def test_every_morphism_recomposes(self, F_s4):
        for P in F_s4.subgroups():
            for phi in F_s4.isos_from(P):
                fact = alperin_decompose(F_s4, phi)
                rec = fact.recompose()
                assert rec.domain == phi.domain
                assert rec.images == phi.images

    def test_every_morphism_recomposes_q8c4(self, F_q8c4):
        for P in F_q8c4.subgroups():
            for phi in F_q8c4.isos_from(P):
                assert alperin_decompose(F_q8c4, phi).recompose().images == phi.images

    @pytest.mark.parametrize("name,p", [("d8", 2), ("q8", 2), ("a4", 2),
                                        ("sl23", 3), ("a4", 3), ("s3xs3", 3),
                                        ("c3c4", 3), ("a5", 2)])
    def test_recomposition_across_corpus(self, name, p):
        G = builtin_group(name)
        S = sylow_subgroup(G.full_subgroup, p)
        F = fusion_of_group(G, S, p)
        for P in F.subgroups():
            for phi in F.isos_from(P):
                fact = alperin_decompose(F, phi)
                assert fact.recompose().images == phi.images

    def test_unsaturated_rejected(self, F_s4, V4):
        psi = cross_map(F_s4, V4)
        bad = generated_subsystem(F_s4, V4, [psi])
        with pytest.raises(NotSaturated):
            alperin_decompose(bad, psi)
