"""Closure and normality theory."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from fusionkit.corpus import builtin_group, corpus_entries
from fusionkit.errors import NotNormal, NotStronglyClosed
from fusionkit.fusion import (full_subcategory, fusion_of_group,
                              generated_subsystem, inner_system,
                              realized_subsystem, subsystem_equal)
from fusionkit.groups import (Hom, center, centralizer, normal_subgroups,
                              normalizer, o_upper_p, subgroup_lattice,
                              sylow_subgroup)
from fusionkit.subsystems import (_condition_f, _stability,
                                  bounded_extensions, centralizer_subsystem,
                                  extension_witness,
                                  invariance_conditions, is_normal,
                                  is_strongly_closed, is_weakly_closed,
                                  normal_subsystem_in, normalizer_subsystem)
from fusionkit.verify import (inner_only_shadow, verify_finvariant_equiv,
                              with_added_iso, with_removed_iso)
from oracles import conjugate_subsystem, validate_fusion_system
from test_fusion import perm_groups


class TestClosure:
    def test_support_always_strongly_closed(self, F_s4):
        assert is_strongly_closed(F_s4, F_s4.support)

    def test_v4_strongly_closed(self, F_s4, V4):
        assert is_strongly_closed(F_s4, V4)

    def test_center_not_strongly_closed_in_s4(self, F_s4):
        assert not is_strongly_closed(F_s4, center(F_s4.support))

    def test_strongly_closed_implies_weakly(self, F_s4, V4):
        assert is_weakly_closed(F_s4, V4)

    def test_weakly_closed_in_inner_system(self, d8):
        F = fusion_of_group(d8, d8.full_subgroup, 2)
        # every subgroup normal in D8 is weakly closed in inner fusion
        for P in F.subgroups():
            assert is_weakly_closed(F, P) == P.is_normal_in(d8.full_subgroup)


def local_paths_agree(G, p, local):
    """On F = F_S(G), the local subsystem at every R <= S, the system of
    the witness's centralizer or normalizer, equals the one read off F's
    table by extension, that of the full subcategory F|<=S, which has the
    same table and no witness, morphism for morphism."""
    S = sylow_subgroup(G.full_subgroup, p)
    F = fusion_of_group(G, S, p)
    table = full_subcategory(F, S)
    for R in F.subgroups():
        assert subsystem_equal(local(F, R), local(table, R))


def kept_witness_mutants(F):
    """Mutants of F that keep its witness: the last iso-onto-image removed
    at the first member of each F-class that has more than one, a
    bijection of S that is no automorphism (its members at positions 1
    and 2 swapped) added unclosed, and the inner shadow."""
    S = F.support
    found = [with_removed_iso(F, P, len(F.isos_from(P)) - 1,
                              keep_witness=True)
             for P, *_ in F.classes() if len(F.isos_from(P)) > 1]
    if S.order > 3:
        swapped = list(S.members)
        swapped[1], swapped[2] = swapped[2], swapped[1]
        found.append(with_added_iso(F, Hom(S, S, tuple(swapped)),
                                    close=False, keep_witness=True))
    return found + [inner_only_shadow(F)]


def locals_read_the_table(M):
    """C_M(X) and N_M(X) at every X <= S are those of M's table alone,
    the full subcategory M|<=S, which has no witness.  Returns how many
    differ from the system of M's witness."""
    table = full_subcategory(M, M.support)
    moved = 0
    for X in M.subgroups():
        for local in (centralizer_subsystem, normalizer_subsystem):
            got = local(M, X)
            assert subsystem_equal(got, local(table, X))
            moved += not got.from_witness
    return moved


class TestLocalSubsystems:
    def test_centralizer_of_trivial_is_f(self, F_s4):
        C = centralizer_subsystem(F_s4, F_s4.universe.trivial_subgroup)
        assert subsystem_equal(C, F_s4)

    def test_centralizer_of_v4_is_inner_v4(self, F_s4, V4):
        C = centralizer_subsystem(F_s4, V4)
        assert subsystem_equal(C, inner_system(F_s4, V4))

    def test_witness_and_extension_paths_agree(self):
        for _, G, p in corpus_entries():
            if G.order <= 48:
                local_paths_agree(G, p, centralizer_subsystem)

    def test_normalizer_paths_agree(self):
        for _, G, p in corpus_entries():
            if G.order <= 48:
                local_paths_agree(G, p, normalizer_subsystem)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(perm_groups())
    def test_paths_agree_on_generated_groups(self, group):
        local_paths_agree(*group, centralizer_subsystem)
        local_paths_agree(*group, normalizer_subsystem)

    def test_mutants_with_a_witness_read_their_table(self):
        """A mutant that keeps the honest witness gets the local systems
        of its own table, not those of the witness.  On the inner shadow
        of F_S(S4) the witness's would differ at 3 C_F(X) and 4 N_F(Q)."""
        moved = 0
        for _, G, p in corpus_entries():
            if G.order <= 48:
                S = sylow_subgroup(G.full_subgroup, p)
                for M in kept_witness_mutants(fusion_of_group(G, S, p)):
                    moved += locals_read_the_table(M)
        assert moved > 0

    def test_the_inner_shadow_of_s4_reads_its_table(self, F_s4):
        M = inner_only_shadow(F_s4)
        assert locals_read_the_table(M) == 7
        assert sum(not centralizer_subsystem(M, X).from_witness
                   for X in M.subgroups()) == 3

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(perm_groups())
    def test_mutants_of_generated_groups_read_their_table(self, group):
        G, p = group
        S = sylow_subgroup(G.full_subgroup, p)
        for M in kept_witness_mutants(fusion_of_group(G, S, p)):
            locals_read_the_table(M)

    def test_normalizer_of_normal_subgroup_is_f(self, F_s4, V4):
        assert subsystem_equal(normalizer_subsystem(F_s4, V4), F_s4)

    def test_normalizer_of_transposition_subgroup(self, F_s4, s4, V4):
        P = next(P for P in F_s4.subgroups()
                 if P.order == 2 and not P.member_set <= V4.member_set)
        N = normalizer_subsystem(F_s4, P)
        assert N.support == normalizer(F_s4.support, P, P)
        assert N.witness == normalizer(s4.full_subgroup, P, P)

    def test_centralizer_axioms(self, F_s4, V4):
        assert validate_fusion_system(centralizer_subsystem(F_s4, V4)) == []
        Z = center(F_s4.support)
        assert validate_fusion_system(centralizer_subsystem(F_s4, Z)) == []

    def test_local_subsystem_of_subsystem(self, E_a4, V4):
        NET = normalizer_subsystem(E_a4, V4)
        assert NET.support == V4
        assert subsystem_equal(NET, E_a4)  # V4 is normal in A4


class TestInvariance:
    def test_all_six_conditions_for_normal_subsystem(self, F_s4, E_a4):
        assert invariance_conditions(F_s4, E_a4) == dict.fromkeys("abcdef", True)

    def test_inner_v4_invariant(self, F_s4, V4):
        EV = inner_system(F_s4, V4)
        assert invariance_conditions(F_s4, EV) == dict.fromkeys("abcdef", True)

    def test_inner_sylow_fails_strong_condition(self, F_s4):
        ES = inner_system(F_s4, F_s4.support)
        assert invariance_conditions(F_s4, ES) == dict.fromkeys("abcdef", False)

    def test_condition_f_runs_once_per_pair(self, counted_memo):
        """Conditions (a) and (f) share one evaluation of the literal
        condition (f), and its passing result, None, is memoized too."""
        g = builtin_group("s4")
        F = fusion_of_group(g, sylow_subgroup(g.full_subgroup, 2), 2)
        E = normal_subsystem_in(F, o_upper_p(g.full_subgroup, 2))
        with counted_memo() as (fills, _):
            assert verify_finvariant_equiv(F, E) is None
            assert fills[_condition_f] == 1
            assert F._cache[(_condition_f, E.content_key)] is None
            assert verify_finvariant_equiv(F, E) is None
        assert fills[_condition_f] == 1

    def test_requires_strongly_closed_support(self, F_s4):
        Z = center(F_s4.support)
        with pytest.raises(NotStronglyClosed):
            invariance_conditions(F_s4, inner_system(F_s4, Z))

    def test_morphism_leaving_the_support_twists_out(self, F_s4):
        """Z(S) is not strongly closed in F_S(S4): a morphism psi of F
        carries it out of Z(S), and (f) fails at P = Z(S) with phi the
        identity, whose twist by psi is no morphism of the inner system."""
        Z = center(F_s4.support)
        bad = _condition_f(F_s4, inner_system(F_s4, Z))
        assert bad["kind"] == "twist_escapes"
        assert bad["P"] == bad["phi"] == list(Z.members)
        assert not set(bad["psi"]) <= Z.member_set


def invariance_systems(G, p):
    """F = F_S(G) and, for every strongly closed T of F, the subsystems E
    over T among F_T(N) (S n N = T), the inner system on T, <Aut_F(T)>_T
    and <alpha>_T for alpha in Aut_F(T) (often not Aut_F(T)-stable)."""
    S = sylow_subgroup(G.full_subgroup, p)
    F = fusion_of_group(G, S, p)
    normals = normal_subgroups(G.full_subgroup)
    systems = []
    for T in F.subgroups():
        if not is_strongly_closed(F, T):
            continue
        systems += [realized_subsystem(F, N, T) for N in normals
                    if S.meet(N) == T]
        auts = F.automorphisms(T)
        systems += [inner_system(F, T), generated_subsystem(F, T, auts)]
        systems += [generated_subsystem(F, T, [alpha]) for alpha in auts]
    return F, systems


def invariance_verdicts(G, p):
    """Check the fast invariance tests against their literal oracles on
    the ``invariance_systems`` of G; return the invariance and stability
    verdicts."""
    F, systems = invariance_systems(G, p)
    verdicts = []
    for E in systems:
        invariant = is_normal(F, E).invariant
        assert invariant == (_condition_f(F, E) is None)
        stable = all(subsystem_equal(conjugate_subsystem(E, alpha), E)
                     for alpha in F.automorphisms(E.support))
        assert (_stability(F, E) is None) == stable
        verdicts.append((invariant, stable))
    return verdicts


class TestInvarianceOracles:
    """Aut_F(T)-stability plus Frattini decides invariance as the strong
    invariance condition (f) does, and key-level stability agrees with
    comparing each conjugate subsystem E^alpha with E."""

    def test_corpus_up_to_order_48(self):
        verdicts = []
        for _, G, p in corpus_entries():
            if G.order <= 48:
                verdicts += invariance_verdicts(G, p)
        invariant, stable = zip(*verdicts)
        assert set(invariant) == set(stable) == {True, False}
        assert True in {s and not i for i, s in verdicts}

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(perm_groups())
    def test_generated_groups(self, group):
        invariance_verdicts(*group)


def literal_extension_exists(F, alpha, bound, fixed, over):
    """The extension search as it was written before ``extension_witness``:
    some ext in Aut_F(TC_S(T)) agreeing with alpha on T, with [x, ext] in
    ``bound`` for every x in ``over`` and fixing ``fixed`` pointwise."""
    T = alpha.domain
    C = centralizer(F.support, T, T)
    V = F.universe.generated_subgroup(T.members + C.members)
    G = F.universe
    for ext in F.automorphisms(V):
        if not all(ext(x) == alpha(x) for x in T.members):
            continue
        if not all(G.mul(G.inv(x), ext(x)) in bound.member_set
                   for x in over(C, V).members):
            continue
        if all(ext(x) == x for x in fixed.members):
            return True
    return False


def extension_verdicts(G, p):
    """``extension_witness`` against the literal search on F = F_S(G), for
    every T <= S, every alpha in F.isos_from(T), bound 1, Z(T), T or S
    and every fixed X <= C_S(T).  On a strongly closed T, where
    alpha is an automorphism, [C_S(T), ext] <= T and [TC_S(T), ext] <= T
    give the same verdict (ext|_T = alpha and T is normal in TC_S(T)).
    Bounds 1 and S and the T that are not strongly closed make the bound
    and automorphism tests of ``extension_witness`` decisive somewhere."""
    S = sylow_subgroup(G.full_subgroup, p)
    F = fusion_of_group(G, S, p)
    on_c, on_v = (lambda C, V: C), (lambda C, V: V)
    verdicts = []
    for T in F.subgroups():
        C = centralizer(S, T, T)
        closed = is_strongly_closed(F, T)
        bounds = ((G.trivial_subgroup, (on_c,)), (center(T), (on_c,)),
                  (T, (on_c, on_v) if closed else (on_c,)), (S, (on_c,)))
        for alpha in F.isos_from(T):
            for fixed in subgroup_lattice(C):
                for bound, overs in bounds:
                    ext = extension_witness(F, alpha, bound, fixed)
                    for over in overs:
                        assert (ext is not None) == literal_extension_exists(
                            F, alpha, bound, fixed, over)
                    verdicts.append(ext is not None)
    return verdicts


class TestExtensionWitness:
    """``extension_witness`` returns None exactly when the literal search
    finds no extension."""

    def test_corpus_up_to_order_48(self):
        verdicts = []
        for _, G, p in corpus_entries():
            if G.order <= 48:
                verdicts += extension_verdicts(G, p)
        assert set(verdicts) == {True, False}

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(perm_groups())
    def test_generated_groups(self, group):
        extension_verdicts(*group)

    def test_witness_properties(self, F_s4xc2, E_s4x1):
        T = E_s4x1.support
        Z, trivial = center(T), F_s4xc2.universe.trivial_subgroup
        for alpha in F_s4xc2.automorphisms(T):
            ext = extension_witness(F_s4xc2, alpha, Z, trivial)
            assert ext is not None and ext.codomain == ext.domain
            assert all(ext(x) == alpha(x) for x in T.members)

    def test_outer_automorphism_has_none(self, F_s4xc2, E_s4x1, s4xc2):
        """The CFCG0 mutant's automorphism of T = D8 x 1 lies outside
        Aut_F(T), so nothing in F extends it."""
        T = E_s4x1.support
        r = next(x for x in T.members if s4xc2.element_order(x) == 4)
        refl = next(x for x in T.members
                    if s4xc2.element_order(x) == 2
                    and x not in center(T).member_set
                    and s4xc2.conj(x, r) != x)
        outer = Hom.from_generator_images(T, T, [r, refl],
                                          [r, s4xc2.mul(r, refl)])
        trivial = F_s4xc2.universe.trivial_subgroup
        for bound in (center(T), T):
            assert extension_witness(F_s4xc2, outer, bound, trivial) is None
            assert not literal_extension_exists(F_s4xc2, outer, bound, trivial,
                                                lambda C, V: V)


def extension_table_literal(F, T, bound):
    """The table of ``bounded_extensions`` by a loop over every
    automorphism of V = TC_S(T): the image key of each ext with [c, ext]
    in ``bound`` for every c in C_S(T), listed under its restriction to
    T, in ``isos_from`` order."""
    G = F.universe
    C = centralizer(F.support, T, T)
    V = G.generated_subgroup(T.members + C.members)
    table = {}
    for ext in F.automorphisms(V):
        if all(G.mul(G.inv(c), ext(c)) in bound.member_set
               for c in C.members):
            table.setdefault(tuple(ext(x) for x in T.members),
                             []).append(ext.images)
    return V, table


def tables_agree(F, T) -> dict:
    """``bounded_extensions`` equals the literal loop at T for the bounds
    1, Z(T), T and S: the same V, restrictions and keys, in the same
    order.  Returns the tables by bound."""
    got = {}
    for bound in (F.universe.trivial_subgroup, center(T), T, F.support):
        got[bound.members] = bounded_extensions(F, T, bound)
        assert got[bound.members] == extension_table_literal(F, T, bound)
    return got


def mutants_at_v(F, T):
    """Mutants of F at V = TC_S(T), each with and without the witness:
    its last automorphism removed, and a bijection of V that is no
    homomorphism (its members at positions 1 and 2 swapped) added
    unclosed."""
    V = F.universe.generated_subgroup(
        T.members + centralizer(F.support, T, T).members)
    last = max(i for i, h in enumerate(F.isos_from(V)) if h.codomain == V)
    swapped = list(V.members)
    if V.order > 3:
        swapped[1], swapped[2] = swapped[2], swapped[1]
    for keep in (False, True):
        yield with_removed_iso(F, V, last, keep_witness=keep)
        if V.order > 3:
            yield with_added_iso(F, Hom(V, V, tuple(swapped)), close=False,
                                 keep_witness=keep)


def extension_tables(G, p, mutate: bool) -> int:
    """The table at every T <= S of F = F_S(G), and with ``mutate`` of the
    mutants at TC_S(T); returns how many mutant tables differ from F's."""
    S = sylow_subgroup(G.full_subgroup, p)
    F = fusion_of_group(G, S, p)
    moved = 0
    for T in F.subgroups():
        honest = tables_agree(F, T)
        for M in (mutants_at_v(F, T) if mutate else ()):
            moved += tables_agree(M, T) != honest
    return moved


class TestExtensionTable:
    """``bounded_extensions`` is the loop over every automorphism of
    TC_S(T), on honest systems and on mutants at TC_S(T)."""

    def test_corpus_up_to_order_48(self):
        moved = sum(extension_tables(G, p, True)
                    for _, G, p in corpus_entries() if G.order <= 48)
        assert moved > 0

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(perm_groups())
    def test_generated_groups(self, group):
        extension_tables(*group, True)


class TestNormality:
    def test_a4_fusion_normal(self, F_s4, E_a4):
        report = is_normal(F_s4, E_a4)
        assert report.normal and report.weakly_normal
        assert report.frattini
        assert report.extension_z and report.extension_t

    def test_f_normal_in_itself(self, F_s4, s4):
        EF = normal_subsystem_in(F_s4, s4.full_subgroup)
        assert is_normal(F_s4, EF).normal

    def test_trivial_subsystem_normal(self, F_s4, s4):
        Et = normal_subsystem_in(F_s4, s4.trivial_subgroup)
        assert is_normal(F_s4, Et).normal

    def test_inner_v4_normal(self, F_s4, V4, s4):
        EV = normal_subsystem_in(F_s4, V4)
        assert is_normal(F_s4, EV).normal

    def test_non_strongly_closed_support_not_normal(self, F_s4, V4):
        P = next(P for P in F_s4.subgroups()
                 if P.order == 2 and not P.member_set <= V4.member_set)
        report = is_normal(F_s4, inner_system(F_s4, P))
        assert not report.normal
        assert report.counterexamples[0][0] == "strongly_closed"

    def test_inner_sylow_not_normal(self, F_s4):
        report = is_normal(F_s4, inner_system(F_s4, F_s4.support))
        assert not report.normal and not report.invariant

    def test_from_group_entry_point(self, s4, A4):
        S = sylow_subgroup(s4.full_subgroup, 2)
        E = normal_subsystem_in(fusion_of_group(s4, S, 2), A4)
        assert E.support == S.meet(A4) and E.support.order == 4
        assert E.witness == A4

    def test_non_normal_subgroup_raises_not_normal(self, F_s4, s4):
        N = s4.generated_subgroup([1])
        assert N.order == 2 and not N.is_normal_in(s4.full_subgroup)
        with pytest.raises(NotNormal, match="^subgroup of order 2 is not "
                                            "normal in the witness$"):
            normal_subsystem_in(F_s4, N)

    def test_every_normal_subgroup_gives_normal_subsystem(self):
        for name, p in [("s4", 2), ("sl23", 2), ("s3xs3", 3), ("q8c4", 2)]:
            G = builtin_group(name)
            S = sylow_subgroup(G.full_subgroup, p)
            F = fusion_of_group(G, S, p)
            for N in normal_subgroups(G.full_subgroup):
                E = normal_subsystem_in(F, N)  # raises on a negative report
                assert is_normal(F, E).normal

    def test_report_serializes(self, F_s4, E_a4):
        js = is_normal(F_s4, E_a4).to_json()
        assert js["normal"] is True and js["counterexamples"] == []
