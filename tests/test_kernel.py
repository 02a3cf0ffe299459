"""The group kernel on generating sets against its member-level oracles.

``FiniteGroup.closure`` runs Dimino's algorithm, and the action tests
(normalizer, centralizer, normality, commuting, automizers, realized
iso-sets, extension groups) read only ``Subgroup.generators``, picked off
the conjugation table ``Subgroup.row`` of a subgroup containing them.
Each is compared with the literal form in ``oracles``, over every subgroup
pair of a few corpus groups and over groups generated by two permutations,
as are the tables themselves and the picker-built permutation tables;
there the product of two subgroups one of which normalizes the other is
the subgroup they generate.
The index-p lattice of every subgroup of a Sylow subgroup and the
picker-built table of ``MorphismGroup`` are compared with their
closure-join and ``Hom.then`` forms, and the derived subgroup and the
Sylow search with their all-pairs and eager forms.  The interned
``Subgroup`` keeps its validation, and two constructions give one object.
Interning is weak: a subgroup held across ``run_suite`` stays the one
object for its members, what the suite made dies with it, a subgroup
holding its own lattice is freed by the cyclic collector, and a subgroup
made again reuses the group's closure and generator memos."""

from __future__ import annotations

import gc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from fusionkit.corpus import (CORPUS_ENTRIES, builtin_group, builtin_group_path,
                              ingest)
from fusionkit.errors import NotAGroup
from fusionkit.fusion import MorphismGroup, fusion_of_group
from fusionkit.groups import (FiniteGroup, Subgroup, _forget, _sylow_search,
                              centralizer, derived_subgroup, lattice_covers,
                              normal_subgroups, normalizer, picker,
                              subgroup_lattice, sylow_subgroup)
from fusionkit.verify import run_suite
from conftest import extension_group
from oracles import (automizer_in_literal, centralizer_literal,
                     closure_literal, derived_subgroup_literal,
                     extension_group_literal,
                     is_elementwise_commuting_literal, is_normal_in_literal,
                     isos_from_literal, morphism_group_table_literal,
                     normal_subgroups_literal, normalizer_literal,
                     permutation_table_literal, subgroup_lattice_literal,
                     sylow_search_literal)
from test_fusion import perm_groups


def _homs(homs):
    return [(h.domain.members, h.codomain.members, h.images) for h in homs]


def check_generators(H: Subgroup) -> None:
    """gens(H) generates H and has at most log2|H| members; a second
    construction of H is H itself."""
    G, gens = H.parent, H.generators
    assert set(gens) <= H.member_set
    assert G.closure(gens) == H.members
    assert 2 ** len(gens) <= H.order
    assert Subgroup(G, H.members) is H


def check_table(A: Subgroup) -> None:
    """A.row(g)[i] is members[i]^g for every member and every g of the
    group, and a row is built once."""
    G = A.parent
    for g in range(G.order):
        row = A.row(g)
        assert row == tuple(G.conj(x, g) for x in A.members)
        assert A.row(g) is row


def check_rows(G) -> None:
    """The tables of G, of a Sylow subgroup and of the trivial subgroup,
    and the picker-built table is the per-pair composition table."""
    for p in (2, 3):
        check_table(sylow_subgroup(G.full_subgroup, p))
    check_table(G.full_subgroup)
    check_table(G.trivial_subgroup)
    assert G._mul == tuple(map(tuple, permutation_table_literal(G)))


def check_pair(ambient: Subgroup, H: Subgroup) -> None:
    """The action tests against their literal forms, read off H's own
    table and off the whole group's."""
    for base in (H, H.parent.full_subgroup):
        assert normalizer(ambient, H, base) == normalizer_literal(ambient, H)
        assert centralizer(ambient, H, base) == centralizer_literal(ambient, H)
    assert H.is_normal_in(ambient) == is_normal_in_literal(H, ambient)
    assert (H.is_elementwise_commuting(ambient)
            == is_elementwise_commuting_literal(H, ambient))


def check_system(G, p: int) -> None:
    """Realized iso-sets, automizers and extension groups of F_S(G)."""
    S = sylow_subgroup(G.full_subgroup, p)
    F = fusion_of_group(G, S, p)
    for P in F.subgroups():
        assert _homs(F.isos_from(P)) == _homs(isos_from_literal(F, P))
        for R in (S, G.full_subgroup, P):
            assert (_homs(F.automizer_in(R, P))
                    == _homs(automizer_in_literal(F, R, P)))
        for phi in F.isos_from(P):
            assert extension_group(F, phi) == extension_group_literal(F, phi)


def check_lattices_and_auts(G, p: int) -> None:
    """The index-p lattice of every subgroup of a Sylow p-subgroup S
    matches the closure-join form, member tuple for member tuple and in
    order, and the table of each Aut_F(P) of F_S(G) matches the per-pair
    Hom.then table."""
    S = sylow_subgroup(G.full_subgroup, p)
    for H in subgroup_lattice(S):
        assert ([K.members for K in subgroup_lattice(H)]
                == [K.members for K in subgroup_lattice_literal(H)])
    F = fusion_of_group(G, S, p)
    for P in F.subgroups():
        mg = MorphismGroup(F.automorphisms(P))
        assert ([list(row) for row in mg.group._mul]
                == morphism_group_table_literal(mg.homs))


SMALL = sorted({(name, p) for name, p in CORPUS_ENTRIES
                if builtin_group(name).order <= 48})


@pytest.mark.parametrize("name,p", SMALL, ids=[f"{n}@{p}" for n, p in SMALL])
def test_lattices_and_aut_tables(name, p):
    check_lattices_and_auts(builtin_group(name), p)


def test_morphism_group_rejects_an_open_set():
    """A set with the identity that is not closed under composition is not
    a group, in the picker form as in the Hom.then form."""
    G = builtin_group("s4")
    F = fusion_of_group(G, sylow_subgroup(G.full_subgroup, 2), 2)
    P = next(P for P in F.subgroups() if len(F.automorphisms(P)) == 6)
    ident = next(h for h in F.automorphisms(P) if h.is_identity())
    third = next(h for h in F.automorphisms(P)
                 if not h.is_identity() and not h.then(h).is_identity())
    with pytest.raises(NotAGroup, match="not closed"):
        MorphismGroup([ident, third])
    with pytest.raises(NotAGroup, match="not closed"):
        morphism_group_table_literal([ident, third])


@pytest.mark.parametrize("name", ["d8", "s4", "q8c4", "s3xs3", "gl23", "d8xc2"])
def test_every_subgroup_pair(name):
    """Every pair of subgroups, and where one normalizes the other their
    product, which is the subgroup they generate."""
    G = builtin_group(name)
    check_rows(G)
    subs = subgroup_lattice_literal(G.full_subgroup)
    products = 0
    for H in subs:
        check_generators(H)
        for K in subs:
            check_pair(K, H)
            assert G.closure(H.members + K.members) == closure_literal(
                G, H.members + K.members)
            if H.is_normal_in(K) or K.is_normal_in(H):
                assert H.product(K) is G.generated_subgroup(H.members
                                                            + K.members)
                products += 1
    assert products > len(subs)
    assert normal_subgroups(G.full_subgroup) == normal_subgroups_literal(
        G.full_subgroup)


@pytest.mark.parametrize("name,p", [("s4", 2), ("s3xs3", 3), ("sl23", 2)])
def test_corpus_systems(name, p):
    check_system(builtin_group(name), p)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.data())
def test_generated_groups(data):
    """Over groups generated by two permutations of degree <= 5:
    conjugation tables and the table, closure of a random seed, generators,
    three drawn subgroups against each other and the whole group, normal
    subgroups, F_S(G), the lattices of the subgroups of S and the tables
    of the Aut_F(P)."""
    G, p = data.draw(perm_groups())
    check_rows(G)
    seed = data.draw(st.lists(st.integers(0, G.order - 1), max_size=4))
    assert G.closure(seed) == closure_literal(G, seed)
    subs = subgroup_lattice_literal(G.full_subgroup)
    drawn = [data.draw(st.sampled_from(subs)) for _ in range(3)]
    drawn.append(G.full_subgroup)
    for H in drawn:
        check_generators(H)
        for K in drawn:
            check_pair(K, H)
    assert normal_subgroups(G.full_subgroup) == normal_subgroups_literal(
        G.full_subgroup)
    check_system(G, p)
    check_lattices_and_auts(G, p)


def test_picker_of_no_positions():
    """A trivial subgroup has no generators, so its picker reads nothing."""
    assert builtin_group("s4").trivial_subgroup.generators == ()
    assert picker(())((5, 6, 7)) == ()
    assert picker((2,))((5, 6, 7)) == (7,)


def test_slotted_subgroup():
    """The slotted Subgroup is interned, one per (group, member tuple):
    every construction of a member tuple, trusted or validated, is the same
    object, and ``G.subgroup`` validates on every call, also for a tuple
    already made trusted."""
    G = builtin_group("s4")
    H = sylow_subgroup(G.full_subgroup, 2)
    with pytest.raises(NotAGroup, match="identity"):
        G.subgroup(H.members[1:])
    with pytest.raises(NotAGroup, match="closed"):
        G.subgroup((0,) + tuple(x for x in H.members if x != 0)[:2])
    a, b = G.subgroup(H.members), Subgroup(G, H.members)
    assert a is b is H and a == H and hash(a) == hash(H)
    assert G.subgroup(reversed(H.members)) is H
    assert G.generated_subgroup(H.generators) is H
    assert a != G.full_subgroup and G.full_subgroup is G.full_subgroup
    assert not hasattr(a, "__dict__")
    bad = (0,) + tuple(x for x in H.members if x != 0)[:2]
    kept = Subgroup(G, bad)                # trusted, so kept
    with pytest.raises(NotAGroup, match="closed"):
        G.subgroup(bad)
    assert Subgroup(G, bad) is kept
    assert Subgroup(builtin_group("c2"), (0,)) is not G.trivial_subgroup


def test_closure_is_memoized_by_seed_set():
    """Seeds with one set share one closure, whatever their order and
    repeats, and it is the literal closure."""
    G = builtin_group("s4")
    seed = [5, 9, 5, 2]
    sub = G.generated_subgroup(seed)
    assert G.generated_subgroup([2, 9, 5]) is sub
    assert G.closure(seed) == sub.members == closure_literal(G, seed)


@pytest.mark.parametrize("name", sorted({name for name, _ in CORPUS_ENTRIES}))
def test_tables_of_bundled_groups(name):
    """The conjugation tables of each bundled group's Sylow subgroups,
    whole group and trivial subgroup against G.conj."""
    check_rows(builtin_group(name))


def check_index_p_lattices(G, p: int) -> None:
    """The index-p lattice of every subgroup of a Sylow p-subgroup is the
    closure-join lattice, member tuple for member tuple and in order."""
    S = sylow_subgroup(G.full_subgroup, p)
    for H in subgroup_lattice(S):
        assert ([K.members for K in subgroup_lattice(H)]
                == [K.members for K in subgroup_lattice_literal(H)])


@pytest.mark.parametrize("name,p", CORPUS_ENTRIES,
                         ids=[f"{n}@{p}" for n, p in CORPUS_ENTRIES])
def test_index_p_lattice_on_corpus_entries(name, p):
    check_index_p_lattices(builtin_group(name), p)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(perm_groups())
def test_index_p_lattice_on_generated_groups(group):
    """At p = 2 and p = 3 on groups generated by two permutations."""
    for p in (2, 3):
        check_index_p_lattices(group[0], p)


def test_lattice_needs_a_p_group():
    G = builtin_group("s4")
    with pytest.raises(ValueError, match="p-group"):
        subgroup_lattice(G.full_subgroup)
    assert subgroup_lattice(G.trivial_subgroup) == (G.trivial_subgroup,)


# -- the derived subgroup and the Sylow search against their literal forms ----


def check_derived_and_sylow(G) -> None:
    """G' from the generators' commutators is the closure of all |G|^2
    commutators, also in each Sylow subgroup, and the lazy Sylow search
    finds the subgroup the eager search over the whole normalizer finds."""
    full = G.full_subgroup
    assert derived_subgroup(full) is derived_subgroup_literal(full)
    for p in (q for q in (2, 3, 5) if G.order % q == 0):
        assert _sylow_search(full, p) is sylow_search_literal(full, p)
        S = sylow_subgroup(full, p)
        assert derived_subgroup(S) is derived_subgroup_literal(S)


@pytest.mark.parametrize("name", sorted({name for name, _ in CORPUS_ENTRIES}))
def test_derived_and_sylow_on_corpus_groups(name):
    check_derived_and_sylow(builtin_group(name))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(perm_groups())
def test_derived_and_sylow_on_generated_groups(group):
    check_derived_and_sylow(group[0])


# -- weak interning ------------------------------------------------------------


def live_subgroups(G: FiniteGroup) -> list[Subgroup]:
    """The subgroups G interns, after the cyclic collector ran; an entry
    whose subgroup died is gone from the table."""
    gc.collect()
    subs = [ref() for ref in list(G._subgroups.values())]
    assert None not in subs
    return subs


def test_held_subgroups_outlive_the_suite_and_nothing_else_does():
    """Across ``run_suite`` on a group the test holds, the subgroups the
    test holds stay the objects their members give (V lies in every Sylow
    2-subgroup, so the suite's lattices hold it).  Afterwards the only
    subgroups of the entry still alive are those and the lattice members
    they keep."""
    G = ingest(builtin_group_path("s4"))
    V = next(N for N in normal_subgroups(G.full_subgroup) if N.order == 4)
    T = G.generated_subgroup([next(x for x in range(24) if G.element_order(x) == 3)])
    assert live_subgroups(G) == [V, T]
    results = run_suite("s4@2", G, 2)
    assert results and all(r.passed for r in results)
    assert Subgroup(G, V.members) is V and Subgroup(G, T.members) is T
    held = {V, T}
    for got in (*V.derived.values(), *T.derived.values()):
        held.update(K for K in got if isinstance(K, Subgroup))
    assert set(live_subgroups(G)) == held


def test_a_subgroup_holding_its_lattice_is_collected():
    """The lattice and the normal subgroups of S hold S, a reference
    cycle that the cyclic collector frees, together with S's entry."""
    G = ingest(builtin_group_path("d8"))
    S = sylow_subgroup(G.full_subgroup, 2)
    assert S in subgroup_lattice(S) and S in normal_subgroups(S)
    lattice_covers(S)
    dead, members = weakref.ref(S), S.members
    del S
    assert live_subgroups(G) == [] and dead() is None
    assert members not in G._subgroups


def test_a_subgroup_made_again_runs_no_dimino(monkeypatch):
    """A closure and the generators of a member tuple outlive the subgroup
    they were computed for."""
    G = ingest(builtin_group_path("s4"))
    seed = (5, 9, 2)
    H = G.generated_subgroup(seed)
    members, gens = H.members, H.generators
    del H
    assert live_subgroups(G) == []

    def no_dimino(*args):
        raise AssertionError("Dimino ran again")

    monkeypatch.setattr(FiniteGroup, "_dimino", no_dimino)
    H = G.generated_subgroup(reversed(seed))
    assert H.members == members and H.generators == gens


def test_a_dead_reference_drops_only_its_own_entry():
    """The callback of a dead reference leaves an entry that already
    interns a newer subgroup of the same members."""
    G = builtin_group("c2")
    table: dict = {}
    H = Subgroup(G, (0, 1))
    old, new = (weakref.ref(H, lambda ref: None) for _ in range(2))
    table[H.members] = new
    _forget(table, H.members)(old)
    assert table == {H.members: new}
    _forget(table, H.members)(new)
    assert table == {}
