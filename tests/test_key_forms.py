"""The morphism algebra on image keys against its Hom forms in
``oracles.py``: the closure of generated systems, the reachability search
of conjugation families, the star generators and the central-product test.
The inputs are the ones a full ``run_suite`` pass builds for every corpus
entry of order at most 48, recorded as it runs."""

from __future__ import annotations

import pytest

from fusionkit import fusion, groups, persist, products, saturation, verify
from fusionkit.corpus import builtin_group, corpus_entries
from fusionkit.errors import MorphismOutsideSupport
from fusionkit.fusion import close_morphisms
from fusionkit.groups import (Hom, lattice_covers, subgroup_lattice,
                              sylow_subgroup)
from fusionkit.products import (_star_product, centralize_each_other,
                                is_central_product, star_generators)
from fusionkit.saturation import _reachable, canonical_family
from fusionkit.verify import EntryContext, run_suite, with_replaced_isos
from oracles import (close_morphisms_literal, is_central_product_literal,
                     maximal_subgroups, reachable_literal,
                     star_generators_literal)

SMALL = [(label, G, p) for label, G, p in corpus_entries() if G.order <= 48]


@pytest.fixture(scope="module")
def recorded():
    """The arguments of every closure, reachability search and star
    generator call in one ``run_suite`` pass over the small entries."""
    calls = {"close": [], "reach": [], "star": []}

    def closing(support, seeds):
        seeds = list(seeds)
        calls["close"].append((support, seeds))
        return close_morphisms(support, seeds)

    def reaching(F, P, family, record_paths=False):
        calls["reach"].append((F, P, tuple(family)))
        return _reachable(F, P, family, record_paths)

    def starring(F, F1, F2):
        calls["star"].append((F, F1, F2))
        return star_generators(F, F1, F2)

    with pytest.MonkeyPatch.context() as mp:
        for module in (fusion, verify, persist):
            mp.setattr(module, "close_morphisms", closing)
        mp.setattr(saturation, "_reachable", reaching)
        mp.setattr(products, "star_generators", starring)
        for label, G, p in SMALL:
            run_suite(label, G, p)
    return calls


def _rows(table):
    return {mem: [(h.domain, h.codomain, h.images) for h in homs]
            for mem, homs in table.items()}


def test_closure_matches_the_hom_form(recorded):
    """Equal image tables, in order; a witness is None exactly when the
    first-met witness of the Hom form is, and otherwise no larger."""
    seen, lower = set(), 0
    for support, seeds in recorded["close"]:
        key = (id(support.parent), support.members,
               tuple((h.domain.members, h.images, h.witness) for h in seeds))
        if key in seen:
            continue
        seen.add(key)
        new = close_morphisms(support, seeds)
        old = close_morphisms_literal(support, seeds)
        assert list(new) == list(old)
        assert _rows(new) == _rows(old)
        for mem in new:
            for a, b in zip(new[mem], old[mem]):
                assert (a.witness is None) == (b.witness is None)
                if a.witness is not None:
                    assert a.witness <= b.witness
                    lower += a.witness < b.witness
    assert len(seen) > 300      # generated C_F(E), F1*F2, mutants, records
    assert lower > 0            # the smallest witness is not the first met


def test_reachable_matches_the_hom_form(recorded):
    seen = set()
    for F, P, family in recorded["reach"]:
        key = (id(F), P.members, tuple(R.members for R in family))
        if key in seen:
            continue
        seen.add(key)
        reached, paths = _reachable(F, P, family)
        assert paths is None
        assert reached == set(reachable_literal(F, P, family))
    assert len(seen) > 100


@pytest.mark.parametrize("label", ["s4@2", "gl23@2"])
def test_reachable_matches_for_every_family_member(label):
    """Each single family member, the whole lattice and the canonical
    family, from every subgroup, with and without recorded paths."""
    G, p = next((G, p) for lab, G, p in SMALL if lab == label)
    F = EntryContext(label, G, p).F
    families = ([canonical_family(F), F.subgroups()]
                + [(R,) for R in canonical_family(F)])
    for family in families:
        for P in F.subgroups():
            want = set(reachable_literal(F, P, family))
            assert _reachable(F, P, family)[0] == want
            reached, paths = _reachable(F, P, family, record_paths=True)
            assert reached == want == set(paths)


def test_star_generators_match_the_hom_form(recorded):
    for F, F1, F2 in recorded["star"]:
        new = [(h.domain.members, h.images) for h in star_generators(F, F1, F2)]
        old = [(h.domain.members, h.images)
               for h in star_generators_literal(F, F1, F2)]
        assert new == old
    assert len(recorded["star"]) > 100


def test_central_product_matches_the_hom_form():
    """Every commuting pair of the small entries, judged on its star
    product (non-centralizing pairs give candidates that fail), on that
    product with only the identity left in Aut(S1 S2) (a table not closed
    under restriction) and on the top system."""
    answers = {}
    for label, G, p in SMALL:
        ctx = EntryContext(label, G, p)
        for E1, E2 in ctx.commuting_pairs:
            D = _star_product(ctx.F, E1, E2)
            ident = [h for h in D.automorphisms(D.support) if h.is_identity()]
            cut = with_replaced_isos(D, D.support, ident)
            ce = centralize_each_other(ctx.F, E1, E2)
            for X in (D, cut, ctx.F):
                got = is_central_product(X, E1, E2)
                assert got == is_central_product_literal(X, E1, E2), label
                answers[got, ce] = answers.get((got, ce), 0) + 1
    assert answers.get((True, True), 0) > 500
    assert answers.get((False, True), 0) > 100      # cut tables, top systems
    assert answers.get((False, False), 0) > 50      # non-centralizing pairs


@pytest.fixture
def hom_count(monkeypatch):
    """A counter of ``Hom.__init__`` calls."""
    count = [0]
    init = groups.Hom.__init__

    def counting(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(groups.Hom, "__init__", counting)
    return count


@pytest.mark.parametrize("label", ["s4xc2@2", "q8c4@2"])
def test_key_forms_build_no_surplus_homs(label, hom_count):
    """The closure builds one Hom per morphism it returns, the inner seeds
    included; reachability without paths and the central-product test
    build none once the systems' iso-sets exist."""
    G, p = next((G, p) for lab, G, p in SMALL if lab == label)
    ctx = EntryContext(label, G, p)
    F = ctx.F
    family = canonical_family(F)
    for P in F.subgroups():
        F.automorphisms(P)
    for E1, E2 in ctx.commuting_pairs:
        D = _star_product(F, E1, E2)
        is_central_product(D, E1, E2)      # fills the centres z_of(E_i)
        gens = star_generators(F, E1, E2)
        before = hom_count[0]
        table = close_morphisms(D.support, gens)
        assert hom_count[0] - before == sum(len(v) for v in table.values())
        before = hom_count[0]
        is_central_product(D, E1, E2)
        assert hom_count[0] == before
    before = hom_count[0]
    for P in F.subgroups():
        _reachable(F, P, family)
    assert hom_count[0] == before


@pytest.mark.parametrize("name", ["d8", "s4", "q8c4", "s4xc2", "gl23", "a4xa4"])
def test_lattice_covers_are_the_maximal_subgroups(name):
    """On the Sylow 2-subgroup, and on the whole group up to order 24."""
    G = builtin_group(name)
    tops = [sylow_subgroup(G.full_subgroup, 2)]
    if G.order <= 24:
        tops.append(G.full_subgroup)
    for top in tops:
        subs = subgroup_lattice(top)
        covers = lattice_covers(top)
        assert lattice_covers(top) is covers            # cached per lattice
        for P, row in zip(subs, covers):
            maxes = maximal_subgroups(P, [K for K in subs if K <= P])
            assert [subs[j] for j, _ in row] == list(maxes)
            for j, restrict in row:
                assert restrict(P.members) == subs[j].members


def test_closure_rejects_what_leaves_the_support(d8):
    """The errors of the Hom form: a seed domain outside the support, a
    seed image outside it, and a restriction whose image is no subgroup
    (from a seed that is not a homomorphism)."""
    S = d8.full_subgroup
    small = next(P for P in subgroup_lattice(S) if P.order == 4)
    z = next(x for x in small.members if d8.element_order(x) == 2)
    y = next(x for x in S.members if x not in small and d8.element_order(x) == 2)
    bad_domain = Hom(S, S, S.members, check=False)
    bad_image = Hom(d8.subgroup([0, z]), d8.subgroup([0, y]), (0, y), check=False)
    cyclic = next(P for P in subgroup_lattice(S) if P.order == 4
                  and any(d8.element_order(x) == 4 for x in P.members))
    a = next(x for x in cyclic.members if d8.element_order(x) == 4)
    a2 = d8.mul(a, a)
    swap = {a: a2, a2: a}
    not_a_hom = Hom(cyclic, cyclic, tuple(swap.get(x, x) for x in cyclic.members),
                    check=False)
    for closure in (close_morphisms, close_morphisms_literal):
        with pytest.raises(MorphismOutsideSupport):
            closure(small, [bad_domain])
        with pytest.raises(MorphismOutsideSupport):
            closure(small, [bad_image])
        with pytest.raises(MorphismOutsideSupport):
            closure(S, [not_a_hom])
