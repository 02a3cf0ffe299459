"""The key and count forms against their Hom forms in ``oracles.py``: the
closure of generated systems, the reachability search of conjugation
families, the star generators, the central-product test, the
classification flags, the saturation report, F-normality of subgroups
and strong closure.  The inputs are the ones a full ``run_suite`` pass
builds for every corpus entry of order at most 48, recorded as it runs,
with hom-removed and hom-added mutants of those entries and groups
generated by two permutations."""

from __future__ import annotations

import inspect
import sys
from collections import Counter

import pytest
from hypothesis import given, settings

import oracles
from fusionkit import (centralizers, fusion, groups, models, persist,
                       products, saturation, subsystems, verify)
from fusionkit.corpus import builtin_group, corpus_entries
from fusionkit.errors import DomainMismatch, MorphismOutsideSupport, NotAGroup
from fusionkit.fusion import (FusionSystem, close_morphisms, fusion_of_group,
                              generated_subsystem, realized_subsystem)
from fusionkit.groups import (Hom, Subgroup, lattice_covers, normal_subgroups,
                              subgroup_lattice, sylow_subgroup)
from fusionkit.models import normal_in_system
from fusionkit.products import (_star_product, centralize_each_other,
                                is_central_product, star_generators)
from fusionkit.saturation import (_reachable, canonical_family, classify,
                                  is_saturated)
from fusionkit.subsystems import is_strongly_closed
from fusionkit.verify import (commuting_pairs, normal_pairs, run_suite,
                              with_added_iso, with_removed_iso,
                              with_replaced_isos)
from conftest import entry_system
from oracles import (classify_literal, close_morphisms_literal, keys_of,
                     is_central_product_literal, is_strongly_closed_literal,
                     maximal_subgroups, normal_in_system_literal,
                     reachable_literal, saturation_report_literal,
                     star_generators_literal)
from test_fusion import perm_groups

SMALL = [(label, G, p) for label, G, p in corpus_entries() if G.order <= 48]


@pytest.fixture(scope="module")
def recorded(counted_memo):
    """The arguments of every closure, reachability search, star generator
    call, classification, saturation report, F-normality test of a
    subgroup and strong-closure test in one ``run_suite`` pass over the
    small entries."""
    calls = {"close": [], "reach": [], "star": [], "classify": [],
             "saturation": [], "normal": [], "strong": []}

    def closing(support, seeds):
        seeds = list(seeds)
        calls["close"].append((support, seeds))
        return close_morphisms(support, seeds)

    def generating(F, R, generators, check_inside=True):
        # a memoized closure runs once, but each call's input is recorded
        generators = list(generators)
        calls["close"].append((R, [(h.domain.members, h.images)
                                   for h in generators]))
        return generated_subsystem(F, R, generators, check_inside)

    def reaching(F, P, family, record_paths=False):
        calls["reach"].append((F, P, tuple(family)))
        return _reachable(F, P, family, record_paths)

    def starring(F, F1, F2):
        calls["star"].append((F, F1, F2))
        return star_generators(F, F1, F2)

    def normal_in(F, P):
        calls["normal"].append((F, P))
        return normal_in_system(F, P)

    def strongly_closed(F, T):
        calls["strong"].append((F, T))
        return is_strongly_closed(F, T)

    with (counted_memo(classify, is_saturated) as (_, kept),
          pytest.MonkeyPatch.context() as mp):
        for module in (fusion, verify, persist):
            mp.setattr(module, "close_morphisms", closing)
        for module in (centralizers, products, subsystems):
            mp.setattr(module, "generated_subsystem", generating)
        mp.setattr(saturation, "_reachable", reaching)
        mp.setattr(products, "star_generators", starring)
        mp.setattr(models, "normal_in_system", normal_in)
        for module in (subsystems, centralizers):
            mp.setattr(module, "is_strongly_closed", strongly_closed)
        for label, G, p in SMALL:
            run_suite(label, G, p)
    for F, key in kept:
        calls["classify" if key[0] is classify else "saturation"].append(F)
    return calls


def _rows(table):
    return {mem: [(h.domain, h.codomain, h.images) for h in homs]
            for mem, homs in table.items()}


def test_closure_matches_the_hom_form(recorded):
    """Equal image-key tables; an explicit system on the key table lists
    the Homs of the literal table, in order."""
    seen = set()
    for support, seeds in recorded["close"]:
        key = (id(support.parent), support.members, tuple(seeds))
        if key in seen:
            continue
        seen.add(key)
        U = support.parent
        new = close_morphisms(support, seeds)
        old = close_morphisms_literal(support, [Hom(Subgroup(U, d), support, i)
                                                for d, i in seeds])
        assert list(new) == list(old)
        assert new == keys_of(old)
        n = support.order      # a power of p; any prime serves for n = 1
        p = next((q for q in range(2, n + 1) if n % q == 0), 2)
        D = FusionSystem(support, p, explicit=new)
        assert _rows({P.members: D.isos_from(P) for P in D.subgroups()}
                     ) == _rows(old)
    assert len(seen) > 300      # generated C_F(E), F1*F2, mutants, records


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
    F = entry_system(G, p)
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
        F = entry_system(G, p)
        for E1, E2 in commuting_pairs(F):
            D = _star_product(F, E1, E2)
            ident = [h for h in D.automorphisms(D.support) if h.is_identity()]
            cut = with_replaced_isos(D, D.support, ident)
            ce = centralize_each_other(F, E1, E2)
            for X in (D, cut, F):
                got = is_central_product(X, E1, E2)
                assert got == is_central_product_literal(X, E1, E2), label
                answers[got, ce] = answers.get((got, ce), 0) + 1
    assert answers.get((True, True), 0) > 500
    assert answers.get((False, True), 0) > 100      # cut tables, top systems
    assert answers.get((False, False), 0) > 50      # non-centralizing pairs


@pytest.mark.parametrize("label", ["c2xc4@2", "c2xc2@2", "c3xc3@3"])
def test_self_pairs_on_abelian_supports_match_the_hom_forms(label):
    """Each pair (E, E) of an abelian entry, where S1 n S2 is all of S1:
    the meets P1 n P2 of the walk are as large as they can be, and the
    well-definedness of every push is decided on them.  Star generators,
    and the central-product test on the star product, on it with only the
    identity left in Aut(S1 S2) and on the top system."""
    G, p = next((G, p) for lab, G, p in SMALL if lab == label)
    F = entry_system(G, p)
    answers = []
    for _, E in normal_pairs(F):
        assert [(h.domain.members, h.images)
                for h in star_generators(F, E, E)] == [
            (h.domain.members, h.images)
            for h in star_generators_literal(F, E, E)]
        D = _star_product(F, E, E)
        ident = [h for h in D.automorphisms(D.support) if h.is_identity()]
        for X in (D, with_replaced_isos(D, D.support, ident), F):
            answers.append(is_central_product(X, E, E))
            assert answers[-1] == is_central_product_literal(X, E, E)
    assert True in answers


def test_pushes_that_disagree_on_the_meet_are_rejected(monkeypatch):
    """On c2xc4@2, S = <a> x <b> is abelian and F = F_S(S).  F2 is F with
    one more automorphism of V = <a, b^2>: the swap of b^2 and a.  A pair
    (id on P1, swap) disagrees on P1 n V when P1 holds b^2 or a, as
    (id on <b>, swap) does at b^2 alone, so its push onto P1 V is not a
    map.  D adds the swap to F and closes, so it contains both factors,
    and Z(F2) is read as Z(F): the meet rule is the one clause left to
    reject the pairs, and both forms do; without the swap both accept.
    Z(F2) = C_S(F2) is read through ``centralizers.c_s_of``, which is
    patched to answer Z(F) for F2."""
    G, p = next((G, p) for lab, G, p in SMALL if lab == "c2xc4@2")
    F = entry_system(G, p)
    V = next(P for P in F.subgroups() if P.order == 4
             and all(G.element_order(x) <= 2 for x in P.members))
    C4 = next(P for P in F.subgroups() if P.order == 4 and P is not V)
    b2 = next(x for x in C4.members if G.element_order(x) == 2)
    a = next(x for x in V.members if x not in C4.member_set and x != 0)
    swap = Hom(V, V, tuple({b2: a, a: b2}.get(x, x) for x in V.members)).validate()
    F2 = with_replaced_isos(F, V, list(F.isos_from(V)) + [swap])
    c_s_of = centralizers.c_s_of
    monkeypatch.setattr(centralizers, "c_s_of", lambda X, E: c_s_of(
        *((F, F) if X is E is F2 else (X, E))))
    assert centralizers.z_of(F2) is centralizers.z_of(F)
    D = with_added_iso(F, swap)
    assert D.support is F.support and fusion.subsystem_contains(D, F2)
    assert not is_central_product(D, F, F2)
    assert not is_central_product_literal(D, F, F2)
    assert is_central_product(F, F, F) and is_central_product_literal(F, F, F)


def test_surjectivity_keeps_the_bounds_of_the_literal_form():
    """On c2xc2@2, with F = F_S(S) and the factors over <a> and <b>: F2
    with no morphism on 1 leaves the identity of <a> in D = F induced by
    no pair within the bounds, P2 <= S2 n S1 <a> = 1, though the pair
    (<a>, <b>), out of them, covers it.  Both forms reject; with F2
    whole, both accept."""
    G, p = next((G, p) for lab, G, p in SMALL if lab == "c2xc2@2")
    F = entry_system(G, p)
    A, B = [P for P in F.subgroups() if P.order == 2][:2]
    F1, F2 = (subsystems.normal_subsystem_in(F, P) for P in (A, B))
    assert is_central_product(F, F1, F2) and is_central_product_literal(F, F1, F2)
    cut = with_replaced_isos(F2, G.trivial_subgroup, [])
    assert not is_central_product(F, F1, cut)
    assert not is_central_product_literal(F, F1, cut)


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
    """The closure builds no Hom, the inner seeds included; reachability
    without paths and the central-product test build none once the
    systems' iso-sets exist."""
    G, p = next((G, p) for lab, G, p in SMALL if lab == label)
    F = entry_system(G, p)
    family = canonical_family(F)
    for P in F.subgroups():
        F.automorphisms(P)
    for E1, E2 in commuting_pairs(F):
        D = _star_product(F, E1, E2)
        is_central_product(D, E1, E2)      # fills the centres z_of(E_i)
        gens = star_generators(F, E1, E2)
        before = hom_count[0]
        close_morphisms(D.support, [(h.domain.members, h.images)
                                    for h in gens])
        is_central_product(D, E1, E2)
        assert hom_count[0] == before
    before = hom_count[0]
    for P in F.subgroups():
        _reachable(F, P, family)
    assert hom_count[0] == before


@pytest.mark.parametrize("name", ["d8", "s4", "q8c4", "s4xc2", "gl23", "a4xa4"])
def test_lattice_covers_are_the_maximal_subgroups(name):
    """On the Sylow 2-subgroup; the lattice needs a p-group."""
    G = builtin_group(name)
    top = sylow_subgroup(G.full_subgroup, 2)
    subs = subgroup_lattice(top)
    covers = lattice_covers(top)
    assert lattice_covers(top) is covers                # cached per lattice
    for P, row in zip(subs, covers):
        maxes = maximal_subgroups(P, [K for K in subs if K <= P])
        assert [subs[j] for j, _ in row] == list(maxes)
        for j, restrict in row:
            assert restrict(P.members) == subs[j].members


def test_closure_rejects_what_leaves_the_support(d8):
    """The errors of the Hom form, message for message, on the seed's key
    pair: a seed domain outside the support, a seed image outside it, and
    a restriction whose image is no subgroup (from a seed that is not a
    homomorphism)."""
    S = d8.full_subgroup
    small = next(P for P in subgroup_lattice(S) if P.order == 4)
    z = next(x for x in small.members if d8.element_order(x) == 2)
    y = next(x for x in S.members if x not in small and d8.element_order(x) == 2)
    bad_domain = Hom(S, S, S.members)
    bad_image = Hom(d8.subgroup([0, z]), d8.subgroup([0, y]), (0, y))
    cyclic = next(P for P in subgroup_lattice(S) if P.order == 4
                  and any(d8.element_order(x) == 4 for x in P.members))
    a = next(x for x in cyclic.members if d8.element_order(x) == 4)
    a2 = d8.mul(a, a)
    swap = {a: a2, a2: a}
    not_a_hom = Hom(cyclic, cyclic, tuple(swap.get(x, x) for x in cyclic.members))
    for support, h, leaves in ((small, bad_domain, "domain"),
                               (small, bad_image, "image"),
                               (S, not_a_hom, "image")):
        message = f"^morphism {leaves} leaves the support$"
        with pytest.raises(MorphismOutsideSupport, match=message):
            close_morphisms(support, [(h.domain.members, h.images)])
        with pytest.raises(MorphismOutsideSupport, match=message):
            close_morphisms_literal(support, [h])


# -- classification, saturation, F-normality and strong closure ---------------


def _outcome(compute):
    """The value of ``compute()``, or the type of the package error it
    raises."""
    try:
        return compute()
    except (NotAGroup, DomainMismatch) as exc:
        return type(exc)


def _flags(cls):
    """The flag sets, ``radical`` on centric subgroups, and ``cr_set``."""
    if isinstance(cls, type):
        return cls
    return (cls.fully_normalized, cls.fully_centralized, cls.fully_automized,
            cls.centric, cls.radical & cls.centric,
            [P.members for P in cls.cr_set()])


def _kind(got):
    return got.__name__ if isinstance(got, type) else bool(got)


def compare_system(F: FusionSystem, seen: Counter) -> None:
    """The classification and the saturation report of F in both forms:
    equal flags and ``cr_set``, equal reports (failures included, in
    order), or the same error.  The new ``radical`` holds centric
    subgroups only."""
    new = _outcome(lambda: classify.__wrapped__(F))
    assert _flags(new) == _flags(_outcome(lambda: classify_literal(F)))
    if not isinstance(new, type):
        assert new.radical <= new.centric
    seen["classify", _kind(new)] += 1
    report = _outcome(lambda: is_saturated.__wrapped__(F))
    assert report == _outcome(lambda: saturation_report_literal(F))
    seen["saturation", _kind(report)] += 1


def compare_subgroup(F: FusionSystem, P, seen: Counter) -> None:
    """F-normality of P and strong closure of P in F, in both forms."""
    got = _outcome(lambda: normal_in_system(F, P))
    assert got == _outcome(lambda: normal_in_system_literal(F, P))
    seen["normal", _kind(got)] += 1
    got = _outcome(lambda: is_strongly_closed(F, P))
    assert got == _outcome(lambda: is_strongly_closed_literal(F, P))
    seen["strong", _kind(got)] += 1


def _distinct(systems):
    """Each content once per top (the calls hold their systems alive)."""
    out = {}
    for F in systems:
        out.setdefault((id(F.top()), F.content_key), F)
    return list(out.values())


def test_classification_and_saturation_match_the_hom_forms(recorded):
    """Every system the suite classifies or saturates: the entries, their
    normal subsystems, C_F(E), local systems and F1*F2 candidates.  All
    of them are saturated; the failing reports come from the mutants."""
    seen: Counter = Counter()
    for F in _distinct(recorded["classify"] + recorded["saturation"]):
        compare_system(F, seen)
    assert seen["classify", True] > 300
    assert seen["saturation", True] > 300


def test_normality_and_strong_closure_match_the_hom_forms(recorded):
    seen: Counter = Counter()
    calls = {(id(F.top()), F.content_key, P.members): (F, P)
             for F, P in recorded["normal"] + recorded["strong"]}
    for F, P in calls.values():
        compare_subgroup(F, P, seen)
    assert seen["normal", True] > 20 and seen["normal", False] > 0
    assert seen["strong", True] > 100 and seen["strong", False] > 0


def mutants(F: FusionSystem) -> list[FusionSystem]:
    """F without its first non-identity morphism from each P
    (``with_removed_iso``); F with the map x -> y on <x> added, for the
    first two cyclic <x> and the first y of x's order it is not a
    morphism for, closed and not closed (``with_added_iso``); F with a
    map onto the trivial subgroup added to the first subgroup of order p;
    and F missing the iso-set of its smallest nontrivial subgroup."""
    G, S = F.universe, F.support
    out = []
    for P in F.subgroups():
        isos = F.isos_from(P)
        first = next((i for i, h in enumerate(isos) if not h.is_identity()),
                     None)
        if first is not None:
            out.append(with_removed_iso(F, P, first))
    added = 0
    for P in F.subgroups():
        if added == 2 or len(P.generators) != 1:
            continue
        x = P.generators[0]
        for y in S.members:
            if G.element_order(y) == P.order:
                hom = Hom.from_generator_images(
                    P, G.generated_subgroup([y]), [x], [y])
                if not F.contains_morphism(hom):
                    out += [with_added_iso(F, hom),
                            with_added_iso(F, hom, close=False)]
                    added += 1
                    break
    small = [P for P in F.subgroups() if P.order == F.p]
    if small:
        P = small[0]
        trivial = Hom(P, G.trivial_subgroup, (0,) * P.order)
        out.append(with_replaced_isos(F, P, F.isos_from(P) + (trivial,)))
    if len(F.subgroups()) > 1:
        explicit = keys_of(F.materialize())
        del explicit[F.subgroups()[-2].members]
        out.append(FusionSystem(S, F.p, explicit=explicit))
    return out


def test_mutants_match_the_hom_forms():
    """The four predicates on mutants of the small entries: failing
    reports, and the errors of the literal forms (NotAGroup for a removed
    automorphism or a map that is not injective, DomainMismatch for a
    missing iso-set or a subgroup outside the support)."""
    seen: Counter = Counter()
    for _, G, p in SMALL:
        F = fusion_of_group(G, sylow_subgroup(G.full_subgroup, p), p)
        for M in mutants(F):
            compare_system(M, seen)
            for P in M.subgroups():
                compare_subgroup(M, P, seen)
        compare_subgroup(F, G.full_subgroup, seen)
    assert seen["classify", "NotAGroup"] > 0
    assert seen["classify", "DomainMismatch"] > 0
    assert seen["saturation", False] > 20 and seen["saturation", True] > 0
    assert seen["saturation", "NotAGroup"] > seen["classify", "NotAGroup"]
    assert seen["normal", "DomainMismatch"] > 0
    assert seen["strong", "DomainMismatch"] > 0
    for kind in ("normal", "strong"):
        assert seen[kind, True] > 0 and seen[kind, False] > 0


@settings(max_examples=25, deadline=None, derandomize=True)
@given(perm_groups())
def test_generated_groups_match_the_hom_forms(group):
    """F, its normal subsystems F_{S n N}(N) (realized, so saturated) and
    the system generated by Aut_F(S), with every subgroup of S tested for
    F-normality and strong closure."""
    G, p = group
    S = sylow_subgroup(G.full_subgroup, p)
    F = fusion_of_group(G, S, p)
    seen: Counter = Counter()
    realized = [F] + [realized_subsystem(F, N, S.meet(N))
                      for N in normal_subgroups(G.full_subgroup)]
    for D in realized + [generated_subsystem(F, S, F.automorphisms(S))]:
        compare_system(D, seen)
    for P in F.subgroups():
        compare_subgroup(F, P, seen)
    assert seen["saturation", True] >= len(realized)


@pytest.mark.parametrize("label", ["s4@2", "d8xc2@2"])
def test_classify_takes_o_p_once_per_centric_subgroup(label, monkeypatch):
    G, p = next((G, p) for lab, G, p in SMALL if lab == label)
    F = fusion_of_group(G, sylow_subgroup(G.full_subgroup, p), p)
    calls = []
    o_p = saturation.o_p

    def counting(ambient, q):
        calls.append(ambient)
        return o_p(ambient, q)

    monkeypatch.setattr(saturation, "o_p", counting)
    cls = classify(F)
    assert 0 < len(calls) == len(cls.centric) < len(F.subgroups())


def test_the_suite_calls_no_oracle(s4):
    """No function of ``oracles.py`` runs in a suite pass on s4@2."""
    codes = {fn.__code__: name for name, fn in vars(oracles).items()
             if inspect.isfunction(fn) and fn.__module__ == "oracles"}
    called = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            called.add(codes[frame.f_code])

    sys.setprofile(profile)
    try:
        results = run_suite("s4@2", s4, 2)
    finally:
        sys.setprofile(None)
    assert all(r.passed for r in results)
    assert len(codes) > 40 and not called
