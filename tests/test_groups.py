"""Group-core tests: oracles first, then the operators against them."""

from __future__ import annotations

import itertools
import re

import pytest
from hypothesis import given, settings, strategies as st

from fusionkit.corpus import CORPUS_ENTRIES, builtin_group
from fusionkit.errors import CapExceeded, NotAGroup, NotNormal, ParseError
from fusionkit.fusion import fusion_of_group
from fusionkit.groups import (Hom, Subgroup, active_caps, as_group,
                              cayley_columns, center, centralizer,
                              derived_subgroup, group_from_columns,
                              group_from_permutations, group_from_table,
                              lattice_covers, normalizer,
                              normal_subgroups, o_p, o_p_prime, o_upper_p,
                              p_part, quotient, subgroup_lattice,
                              sylow_subgroup)
from oracles import (cayley_columns_literal, conjugate_morphism, from_pairs,
                     group_from_permutations_literal, maximal_subgroups,
                     product_group, push, subgroup_lattice_bruteforce,
                     subgroup_lattice_literal)
from test_fusion import perm_groups


def brute_centralizer(G, H):
    """Independent oracle: direct element scan."""
    return sorted(g for g in range(G.order)
                  if all(G.mul(g, x) == G.mul(x, g) for x in H.members))


class TestStructures:
    def test_identity_and_inverses(self, s4):
        for a in range(s4.order):
            assert s4.mul(a, 0) == a == s4.mul(0, a)
            assert s4.mul(a, s4.inv(a)) == 0 == s4.mul(s4.inv(a), a)

    def test_conjugation_is_right_action(self, s4):
        for a, g, h in itertools.product(range(0, 24, 5), repeat=3):
            gh = s4.mul(g, h)
            assert s4.conj(s4.conj(a, g), h) == s4.conj(a, gh)

    def test_element_orders_divide_group_order(self, s4):
        assert all(s4.order % s4.element_order(a) == 0 for a in range(s4.order))

    def test_subgroup_rejects_non_closed(self, s4):
        with pytest.raises(NotAGroup):
            s4.subgroup((0, 1, 2))

    @pytest.mark.parametrize("members,outside", [([-1, 0, 23], -1),
                                                 ([0, 99], 99)])
    def test_subgroup_rejects_members_outside_the_group(self, s4, members,
                                                        outside):
        """Members are checked to be elements 0..23 first: -1 would alias
        the involution 23 and pass the closure test as a third member, and
        99 would index past the table."""
        with pytest.raises(ParseError, match=f"subgroup member {outside} is "
                                            f"not an element of s4 "
                                            r"\(0\.\.23\)"):
            s4.subgroup(members)

    def test_not_a_group_table(self):
        # Latin square (addition mod 3 with a transposition applied) fails.
        bad = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]
        with pytest.raises(NotAGroup):
            group_from_table("bad", bad)

    def test_malformed_latin_square(self):
        with pytest.raises(NotAGroup):
            group_from_table("bad", [[0, 1], [1, 1]])


class TestSubgroupLattice:
    @pytest.mark.parametrize("name,count", [("c2", 2), ("c2xc2", 5), ("d8", 10),
                                            ("q8", 6), ("a4", 10)])
    def test_lattice_counts_match_subset_oracle(self, name, count):
        """The index-p walk on the p-groups, the closure-join form on a4."""
        G = builtin_group(name)
        lattice = subgroup_lattice if name != "a4" else subgroup_lattice_literal
        lat = lattice(G.full_subgroup)
        if G.order <= 16:
            oracle = subgroup_lattice_bruteforce(G.full_subgroup)
            assert [s.members for s in lat] == [s.members for s in oracle]
        assert len(lat) == count

    def test_canonical_order_descending_then_lex(self, d8):
        lat = subgroup_lattice(d8.full_subgroup)
        keys = [s.sort_key() for s in lat]
        assert keys == sorted(keys)

    def test_lattice_contains_derived_subgroups_of_members(self, d8):
        lat = subgroup_lattice(d8.full_subgroup)
        mem = {s.members for s in lat}
        for H in lat:
            assert normalizer(d8.full_subgroup, H, H).members in mem
            assert centralizer(d8.full_subgroup, H, H).members in mem
        assert center(d8.full_subgroup).members in mem

    def test_cap_exceeded(self, monkeypatch):
        """The Sylow 2-subgroup of a4xa4 has 67 subgroups: a cap of 66
        stops the walk, a cap of 67 does not."""
        S = sylow_subgroup(builtin_group("a4xa4").full_subgroup, 2)
        monkeypatch.setattr(active_caps, "lattice", 66)
        with pytest.raises(CapExceeded):
            subgroup_lattice(S)
        monkeypatch.setattr(active_caps, "lattice", 67)
        assert len(subgroup_lattice(S)) == 67

    def test_smaller_cap_after_a_cached_lattice(self, monkeypatch):
        """A lattice and its covers kept on S under a cap of 67 do not
        serve a cap of 66 (``--lattice-cap 66``), which still raises, and
        serve 67 again."""
        S = sylow_subgroup(builtin_group("a4xa4").full_subgroup, 2)
        monkeypatch.setattr(active_caps, "lattice", 67)
        lattice, covers = subgroup_lattice(S), lattice_covers(S)
        monkeypatch.setattr(active_caps, "lattice", 66)
        with pytest.raises(CapExceeded):
            subgroup_lattice(S)
        with pytest.raises(CapExceeded):
            lattice_covers(S)
        monkeypatch.setattr(active_caps, "lattice", 67)
        assert subgroup_lattice(S) is lattice and lattice_covers(S) is covers


class TestClassicalOperators:
    def test_sylow_s4(self, s4):
        S = sylow_subgroup(s4.full_subgroup, 2)
        assert S.order == 8 == p_part(24, 2)

    def test_sylow_unique_in_abelian(self):
        c6ish = builtin_group("c2xc4")
        assert sylow_subgroup(c6ish.full_subgroup, 2).order == 8

    def test_sylow_a4_is_the_klein_four(self):
        a4 = builtin_group("a4")
        S = sylow_subgroup(a4.full_subgroup, 2)
        oracle = [H for H in subgroup_lattice_bruteforce(a4.full_subgroup)
                  if H.order == 4]
        assert len(oracle) == 1 and S == oracle[0]

    def test_sylow_trivial_prime(self, s4):
        assert sylow_subgroup(s4.full_subgroup, 5).order == 1

    def test_p_part_needs_a_prime_power_to_exist(self):
        """Every power of p divides 0, so p_part(0, p) has no answer; it
        raises, as for p < 2, instead of dividing 0 by p for ever."""
        assert p_part(1, 2) == 1 and p_part(24, 2) == 8
        for n, p in ((0, 2), (-8, 2), (0, 3), (8, 1)):
            with pytest.raises(ValueError):
                p_part(n, p)

    def test_centralizer_of_v4_in_s4(self, s4, V4):
        assert centralizer(s4.full_subgroup, V4, V4) == V4
        assert brute_centralizer(s4, V4) == list(V4.members)

    def test_normalizer_of_whole_group(self, s4):
        G = s4.full_subgroup
        assert normalizer(G, G, G) == G

    def test_center_of_d8(self, d8):
        assert center(d8.full_subgroup).order == 2

    def test_core_operators_s4(self, s4, V4, A4):
        G = s4.full_subgroup
        assert o_p(G, 2) == V4
        assert o_upper_p(G, 2) == A4
        assert o_p_prime(G, 2).order == 1
        assert derived_subgroup(G) == A4

    def test_o_upper_p_contains_p_prime_elements(self, s4):
        O = o_upper_p(s4.full_subgroup, 2)
        for g in range(s4.order):
            if s4.element_order(g) % 2 != 0:
                assert g in O
        assert p_part(24 // O.order, 2) == 24 // O.order


class TestQuotients:
    def test_quotient_by_trivial(self, s4):
        q = quotient(s4.full_subgroup, s4.trivial_subgroup)
        assert q.group.order == 24
        assert all(q.projection(g) is not None for g in range(24))

    def test_s4_mod_v4_is_s3(self, s4, V4):
        q = quotient(s4.full_subgroup, V4)
        assert q.group.order == 6
        assert center(q.group.full_subgroup) != q.group.full_subgroup

    def test_s4_mod_a4_is_c2(self, s4, A4):
        assert quotient(s4.full_subgroup, A4).group.order == 2

    def test_projection_is_multiplicative_everywhere(self, s4, V4):
        q = quotient(s4.full_subgroup, V4)
        pr = q.projection
        for a in range(24):
            for b in range(24):
                assert pr(s4.mul(a, b)) == q.group.mul(pr(a), pr(b))

    def test_not_normal_rejected(self, s4):
        H = s4.generated_subgroup([g for g in range(24)
                                   if s4.element_order(g) == 2][:1])
        with pytest.raises(NotNormal):
            quotient(s4.full_subgroup, H)

    def test_order_product(self, s4, V4):
        q = quotient(s4.full_subgroup, V4)
        assert q.group.order * q.kernel.order == s4.order


class TestHoms:
    def test_conjugation_morphism(self, s4, V4):
        for g in range(0, 24, 7):
            h = Hom.conjugation(V4, g)
            h.validate()
            assert h.is_injective

    def test_composition_order_is_left_to_right(self, s4):
        S = sylow_subgroup(s4.full_subgroup, 2)
        g, h = 1, 2
        a = Hom.conjugation(s4.full_subgroup, g)
        b = Hom.conjugation(s4.full_subgroup, h)
        gh = s4.mul(g, h)
        c = Hom.conjugation(s4.full_subgroup, gh)
        assert a.then(b).images == c.images

    def test_from_generator_images_rejects_inconsistent(self, s4, V4):
        xs = [x for x in V4.members if x != 0]
        with pytest.raises(NotAGroup, match="inconsistent"):
            Hom.from_generator_images(V4, V4, xs, [xs[0], xs[0], xs[1]])

    def test_from_generator_images_rejects_bad_shapes(self, s4, V4):
        xs = [x for x in V4.members if x != 0]
        with pytest.raises(NotAGroup, match="counts differ"):
            Hom.from_generator_images(V4, V4, xs, xs[:2])
        # one involution generates an order-2 subgroup, not V4
        with pytest.raises(NotAGroup, match="do not generate the domain"):
            Hom.from_generator_images(V4, V4, xs[:1], xs[:1])

    def test_inverse_round_trip(self, s4, V4, F_s4):
        for h in F_s4.automorphisms(V4):
            assert h.then(h.inverse()).is_identity()


def conjugate_pointwise(phi, alpha):
    """phi^alpha by its definition: alpha(x) -> alpha(phi(x)) for x in P,
    on the subgroup alpha(P), corestricted onto its image."""
    G = alpha.codomain.parent
    back = {alpha(x): x for x in phi.domain.members}
    dom = tuple(sorted(back))
    imgs = tuple(alpha(phi(back[y])) for y in dom)
    return Hom(Subgroup(G, dom), Subgroup(G, tuple(sorted(imgs))), imgs)


class TestPush:
    @pytest.fixture(scope="class")
    def c2xc2(self):
        c2 = builtin_group("c2")
        return product_group(c2, c2)

    def test_from_pairs_builds_the_corestricted_map(self, s4, V4):
        h = Hom.conjugation(V4, 5)
        got = from_pairs(s4, reversed(list(zip(V4.members, h.images))))
        assert got == h and got.codomain == V4

    def test_from_pairs_ill_defined(self, s4):
        assert from_pairs(s4, [(0, 0), (1, 2), (1, 3)]) is None

    def test_from_pairs_not_injective(self, s4):
        assert from_pairs(s4, [(0, 0), (1, 0)]) is None

    def test_push_ill_defined(self, c2xc2):
        # the swap (a, b) -> (b, a) does not respect the kernel 1 x C2 of
        # the first projection
        P, _, _, proj_a, _ = c2xc2
        full = P.full_subgroup
        swap = Hom(full, full, tuple((i % 2) * 2 + i // 2 for i in range(4)))
        assert push(swap, proj_a) is None

    def test_push_not_injective(self, c2xc2):
        # (a, b) -> (a, 1) pushed along the identity is not injective
        P, _, _, _, _ = c2xc2
        full = P.full_subgroup
        flatten = Hom(full, full, tuple((i // 2) * 2 for i in range(4)))
        assert push(flatten, Hom.identity(full)) is None

    def test_push_along_kernel_compatible_map(self, c2xc2):
        P, _, _, proj_a, _ = c2xc2
        full = P.full_subgroup
        fix_a = Hom(full, full, (0, 1, 3, 2))       # (a, b) -> (a, a + b)
        pushed = push(fix_a, proj_a)
        assert pushed is not None and pushed.is_identity()

    @pytest.mark.parametrize("name", ["s4", "d8xc2"])
    def test_conjugate_morphism_is_pointwise(self, name):
        G = builtin_group(name)
        S = sylow_subgroup(G.full_subgroup, 2)
        F = fusion_of_group(G, S, 2)
        for alpha in F.automorphisms(S):
            for P in F.subgroups():
                for phi in F.isos_from(P):
                    assert (conjugate_morphism(phi, alpha)
                            == conjugate_pointwise(phi, alpha))


class TestEnumeration:
    def test_normal_subgroups_s4(self, s4):
        orders = [N.order for N in normal_subgroups(s4.full_subgroup)]
        assert sorted(orders) == [1, 4, 12, 24]

    def test_normal_subgroups_a6_simple(self):
        a6 = builtin_group("a6")
        assert sorted(N.order for N in normal_subgroups(a6.full_subgroup)) == [1, 360]

    def test_maximal_subgroups_of_d8(self, d8):
        maxes = maximal_subgroups(d8.full_subgroup)
        assert sorted(m.order for m in maxes) == [4, 4, 4]

    def test_as_group_embedding(self, s4, V4):
        grp, embed = as_group(V4)
        assert grp.order == 4
        for i in range(4):
            for j in range(4):
                assert embed(grp.mul(i, j)) == s4.mul(embed(i), embed(j))

    def test_product_group(self):
        c2 = builtin_group("c2")
        c4 = builtin_group("c4")
        P, ia, ib, pa, pb = product_group(c2, c4)
        assert P.order == 8 and center(P.full_subgroup) == P.full_subgroup
        for a in range(2):
            assert pa(ia(a)) == a
        for b in range(4):
            assert pb(ib(b)) == b


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.integers(min_value=0, max_value=23), max_size=4))
def test_closure_is_subgroup(seed):
    s4 = builtin_group("s4")
    H = s4.generated_subgroup(seed)
    mem = H.member_set
    assert 0 in mem
    assert all(s4.inv(a) in mem for a in H.members)
    assert all(s4.mul(a, b) in mem for a in H.members for b in H.members)
    assert s4.order % H.order == 0


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=23), st.integers(min_value=0, max_value=23))
def test_conjugate_subgroups_share_order(g, h):
    s4 = builtin_group("s4")
    H = s4.generated_subgroup([g, h])
    for x in (1, 5, 13):
        assert H.conjugate(x).order == H.order


# -- associativity: Light's test against the literal triple loop ---------------


def literal_associative(table):
    """Oracle: (ab)c == a(bc) for every triple."""
    n = len(table)
    return all(table[table[a][b]][c] == table[a][table[b][c]]
               for a in range(n) for b in range(n) for c in range(n))


def strided_sample_associative(table):
    """The former check above order 128: triples from a stride of n // 64."""
    n = len(table)
    picks = range(0, n, max(1, n // 64))
    return all(table[table[a][b]][c] == table[a][table[b][c]]
               for a in picks for b in picks for c in picks)


def intercalates(table, rows, cols):
    """2x2 Latin subsquares (a, b, c, d): T[a][c] = T[b][d], T[a][d] = T[b][c]."""
    n = len(table)
    out = []
    for a in rows:
        for b in rows:
            if b <= a:
                continue
            col_of = {table[b][d]: d for d in range(n)}
            for c in cols:
                d = col_of[table[a][c]]
                if d > c and d in cols and table[a][d] == table[b][c]:
                    out.append((a, b, c, d))
    return out


def swap_intercalate(table, quad):
    a, b, c, d = quad
    out = [list(row) for row in table]
    out[a][c], out[a][d] = out[a][d], out[a][c]
    out[b][c], out[b][d] = out[b][d], out[b][c]
    return out


SMALL_TABLES = sorted({name for name, _ in CORPUS_ENTRIES
                       if builtin_group(name).order <= 128})


class TestLightAssociativity:
    def test_rejects_what_the_stride_skipped(self):
        """An intercalate on odd rows and columns of a4xa4 (order 144) is
        invisible to the stride-2 sample, but Light's test rejects it."""
        table = [list(row) for row in builtin_group("a4xa4")._mul]
        odd = set(range(1, len(table), 2))
        quad = intercalates(table, sorted(odd), odd)[0]
        bad = swap_intercalate(table, quad)
        assert strided_sample_associative(bad)
        assert not literal_associative(bad)
        with pytest.raises(NotAGroup, match="associativity"):
            group_from_table("bad", bad)

    @pytest.mark.parametrize("name", SMALL_TABLES)
    def test_agrees_with_literal_on_corpus(self, name):
        """Each corpus table of order <= 128 is accepted, and so is the
        table with its first intercalate swapped exactly when it is
        associative."""
        table = builtin_group(name)._mul
        assert literal_associative(table)
        group_from_table(name, table)
        rest = range(1, len(table))
        for quad in intercalates(table, rest, set(rest))[:1]:
            bad = swap_intercalate(table, quad)
            assert light_accepts(bad) == literal_associative(bad)

    def test_generator_indices_must_generate(self):
        G = builtin_group("s4")
        gens = G.generator_indices
        cols = columns_of(G, gens)
        assert group_from_columns("s4", 24, gens, cols)._mul == G._mul
        with pytest.raises(ParseError, match="out of range"):
            group_from_columns("s4", 24, [999], cols[:1])
        with pytest.raises(ParseError, match="do not generate"):
            group_from_columns("s4", 24, gens[:1], cols[:1])


@st.composite
def small_tables(draw):
    """(table, generator_indices): a group of two permutations of degree
    3 or 4, possibly with one intercalate swapped."""
    n = draw(st.integers(min_value=3, max_value=4))
    perms = draw(st.lists(st.permutations(range(1, n + 1)),
                          min_size=2, max_size=2))
    G = group_from_permutations("gen", perms)
    table = [list(row) for row in G._mul]
    rest = range(1, G.order)
    quads = intercalates(table, rest, set(rest))
    quad = draw(st.none() | st.sampled_from(quads)) if quads else None
    if quad is not None:
        table = swap_intercalate(table, quad)
    return table, G.generator_indices


def light_accepts(table, gens=None):
    """Does the table pass as a group: through ``group_from_table``, or,
    with ``gens``, through ``cayley_columns`` walked on them with every
    column given?"""
    try:
        if gens is None:
            group_from_table("t", table)
        else:
            cols = list(zip(*table))
            cayley_columns(len(table), gens, [cols[g] for g in gens], given=cols)
    except NotAGroup:
        return False
    return True


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_tables())
def test_light_agrees_with_literal_on_swapped_tables(case):
    table, gens = case
    literal = literal_associative(table)
    assert light_accepts(table) == literal
    try:
        accepted = light_accepts(table, gens)
    except ParseError:                 # gens do not generate the swapped table
        return
    assert accepted == literal


# -- the Cayley-graph kernel ----------------------------------------------------


def failing_triple(exc):
    """The (x, y, g) named by an associativity NotAGroup."""
    found = re.search(r"associativity fails at \((\d+),(\d+),(\d+)\)", str(exc))
    assert found, str(exc)
    return tuple(map(int, found.groups()))


def columns_of(G, gens):
    """The right multiplications by ``gens``: column g is (xg)_x."""
    return [[row[g] for row in G._mul] for g in gens]


def generators_of(G):
    """The 1-based permutation generators ``group_from_permutations`` got."""
    return [[x + 1 for x in G.perm_images[g]] for g in G.generator_indices]


def assert_same_group(got, want):
    assert got._mul == want._mul
    assert got.generator_indices == want.generator_indices
    assert got.perm_images == want.perm_images


BUNDLED = sorted({name for name, _ in CORPUS_ENTRIES})


class TestCayleyColumns:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_permutations_match_literal(self, name):
        """The table built from the generator columns is the per-pair
        table, with the same generator indices and permutations."""
        G = builtin_group(name)
        assert_same_group(G, group_from_permutations_literal(
            name, generators_of(G)))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(perm_groups())
    def test_generated_permutations_match_literal(self, case):
        G, _ = case
        assert_same_group(G, group_from_permutations_literal(
            "gen", generators_of(G)))

    @pytest.mark.parametrize("name", BUNDLED)
    def test_columns_rebuild_the_table(self, name):
        G = builtin_group(name)
        gens = G.generator_indices
        got = group_from_columns(name, G.order, gens, columns_of(G, gens))
        assert got._mul == G._mul and got.generator_indices == gens

    def test_column_that_is_not_a_permutation(self):
        G = builtin_group("s4")
        cols = columns_of(G, G.generator_indices)
        cols[0][5] = cols[0][4]
        with pytest.raises(NotAGroup, match="not a permutation"):
            group_from_columns("s4", 24, G.generator_indices, cols)

    def test_column_whose_entry_0_is_another_element(self):
        """A right multiplication by another element, stored under a
        generator's index."""
        G = builtin_group("s4")
        gens = G.generator_indices
        cols = columns_of(G, [gens[0] + 1, gens[1]])
        with pytest.raises(NotAGroup, match="entry 0"):
            group_from_columns("s4", 24, gens, cols)

    def test_columns_that_do_not_generate(self):
        """The columns of <(1 2)> in S4 reach 2 of 24 elements."""
        G = builtin_group("s4")
        g = G.generator_indices[0]
        with pytest.raises(ParseError, match="do not generate"):
            group_from_columns("s4", 24, [g], columns_of(G, [g]))

    @pytest.mark.parametrize("name", ["s3xs3", "s4", "q8", "gl23"])
    def test_swapped_column_entries_name_a_failing_triple(self, name):
        """Swapping two entries (not entry 0) of a generator column leaves
        a permutation, and the walk reports an (x, y, g) at which the
        columns it met disagree: (xy)g != x(yg), re-checked on the columns
        of the breadth-first walk."""
        G = builtin_group(name)
        gens = G.generator_indices
        for i, j in [(1, 2), (2, G.order - 1)]:
            cols = columns_of(G, gens)
            cols[-1][i], cols[-1][j] = cols[-1][j], cols[-1][i]
            with pytest.raises(NotAGroup, match="associativity") as info:
                group_from_columns(name, G.order, gens, cols)
            x, y, g = failing_triple(info.value)
            walked = cayley_columns_literal(G.order, cols)
            col_g = cols[gens.index(g)]
            assert col_g[walked[y][x]] != walked[col_g[y]][x]
