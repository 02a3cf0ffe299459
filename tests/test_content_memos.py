"""Every result the suite asks again with the same content is memoized in
the registry, in the slot of its first system (``fusion.derived``): strong
closure, O^p(Aut_F(P)), the focal and hyperfocal subgroups in F's slot,
stability, the normality of Aut_E(P), condition (f) and the normality
report in F's slot under E's content key.  No key lets a corrupted system
read an honest system's answer, or the other way round, and one
``run_suite`` pass over the 21 ``suite-corpus`` entries computes each
content once, family by family.  The cross-checks that exist to
recompute (``centralizer-oracle``'s family, ``Model1.c``'s normal model,
``FirstCharacterization``'s and ``MainCSE.b``'s R*) still recompute.  The
closure of a generated subsystem is keyed by the set of its generators'
keys and a conjugation-family verdict by the family's members, whatever
their order, and a subgroup of another universe keys nothing."""

from __future__ import annotations

import sys
from collections import Counter

import pytest

from fusionkit import (centralizers, fusion, groups, models, saturation,
                       subsystems, verify as verify_mod)
from fusionkit.centralizers import (c_s_of, centralizing_keys,
                                    compute_centralizer_data, focal_subgroup,
                                    hyperfocal_subgroup)
from fusionkit.corpus import (CORPUS_ENTRIES, builtin_group,
                              builtin_group_path, ingest)
from fusionkit.fusion import (TRIVIAL_TABLE, _first_conjugations,
                              fusion_of_group, generated_subsystem)
from fusionkit.groups import Hom, center, centralizer, o_p, sylow_subgroup
from fusionkit.models import model_on, normal_subgroups_of_system
from fusionkit.products import verify_product_theorems
from fusionkit.saturation import (aut_group, classify, is_conjugation_family,
                                  is_saturated,
                                  o_upper_p_automorphisms)
from fusionkit.subsystems import (_aut_sets_normal, _condition_f, _stability,
                                  centralizer_subsystem, is_normal,
                                  is_strongly_closed, normalizer_subsystem)
from fusionkit.verify import inner_only_shadow, run_suite

# Each family of the registry under a short name: the function declared
# with ``derived``.
FAMILIES = {
    "CF": centralizer_subsystem, "autgrp": aut_group,
    "NF": normalizer_subsystem, "classification": classify,
    "class-counts": saturation._classes_and_counts,
    "saturation": is_saturated, "strongly-closed": is_strongly_closed,
    "C_S(E)": c_s_of, "normality": is_normal,
    "centralizer-data": compute_centralizer_data,
    "product-report": verify_product_theorems,
    "aut-sets-normal": _aut_sets_normal,
    "O^p-auts": o_upper_p_automorphisms, "stability": _stability,
    "F-normal-subgroups": normal_subgroups_of_system,
    "closure": fusion._closure_table,
    "family": centralizing_keys, "C_F(E)": centralizers._c_F_of,
    "model": model_on,
    "condition-f": _condition_f, "focal": focal_subgroup,
    "conjugation-family": saturation._factors_through,
    "hyperfocal": hyperfocal_subgroup,
    "normal-pairs": verify_mod.normal_pairs,
    "candidate-subsystems": verify_mod.candidate_subsystems,
    "commuting-pairs": verify_mod.commuting_pairs,
    "alternative-Sylow": verify_mod.alternative_sylow,
    "extension-table": subsystems.bounded_extensions,
}


def systems(s4):
    """A fresh F = F_S(S4), its inner shadow M (a new top whose hom-sets
    are those of S alone) and E = <alpha>_V4 under F, for alpha the
    automorphism of V4 that S induces, so Aut_M(V4) = <alpha>."""
    S = sylow_subgroup(s4.full_subgroup, 2)
    F = fusion_of_group(s4, S, 2)
    V4 = o_p(s4.full_subgroup, 2)
    alpha = next(h for h in F.automizer_in(S, V4) if not h.is_identity())
    return F, inner_only_shadow(F), generated_subsystem(F, V4, [alpha]), V4


ASKS = {
    "strongly-closed": lambda D, E, V4: is_strongly_closed(D, center(D.support)),
    "stability": lambda D, E, V4: _stability(D, E) is None,
    "aut-sets-normal": lambda D, E, V4: _aut_sets_normal(D, E, V4),
    "O^p-auts": lambda D, E, V4: len(o_upper_p_automorphisms(D, V4)),
    "focal": lambda D, E, V4: focal_subgroup(D).order,
    "hyperfocal": lambda D, E, V4: hyperfocal_subgroup(D).order,
    "normality": lambda D, E, V4: is_normal(D, E),
    "condition-f": lambda D, E, V4: _condition_f(D, E),
}


@pytest.mark.parametrize("family", ASKS)
def test_mutant_and_honest_system_read_their_own_answers(family, s4):
    """F and its shadow M answer differently; asked in either order, each
    reads its own answer.  E is one object under F's top; the pair
    families keep F's answer in F's slot and M's in M's, each under E's
    content key."""
    ask = ASKS[family]
    F, M, E, V4 = systems(s4)
    honest, mutant = ask(F, E, V4), ask(M, E, V4)
    F2, M2, E2, _ = systems(s4)
    assert (ask(M2, E2, V4), ask(F2, E2, V4)) == (mutant, honest)
    assert honest != mutant
    assert (ask(F, E, V4), ask(M, E, V4)) == (honest, mutant)


@pytest.fixture(scope="module")
def suite_pass(counted_memo):
    """Memo fills by family and Dimino runs in one ``run_suite`` pass over
    the 21 entries besides a4xa4@2, each on a freshly ingested group as
    the benchmark runs them.  Every memo lives on its entry's top, so the
    counts do not depend on the order of the entries.  The shared order-1
    table of every one-element automorphism group (``TRIVIAL_TABLE``)
    keeps its closures for the whole process, so its Dimino runs, one
    per seed set ever asked, are left out of the count."""
    dimino = [0]
    run = groups.FiniteGroup._dimino

    def counted_dimino(self, seed):
        dimino[0] += self is not TRIVIAL_TABLE
        return run(self, seed)

    with counted_memo() as (fills, _), pytest.MonkeyPatch.context() as mp:
        mp.setattr(groups.FiniteGroup, "_dimino", counted_dimino)
        for name, p in CORPUS_ENTRIES:
            if name == "a4xa4":
                continue
            results = run_suite(f"{name}@{p}",
                                ingest(builtin_group_path(name)), p)
            assert all(r.passed for r in results)
    return fills, dimino[0]


def test_each_content_is_asked_once_per_pass(suite_pass):
    """The fills of every family: 7,103 in all, with one fill per entry
    of each of the four entry families (``verify.normal_pairs`` and the
    data built from it).  Each of the 121 normal pairs asks the
    centralizing keys of three systems, from which the centralized
    families are read (E's and N_E(T)'s in F, and E's in E for Z(E)),
    and two joins (C_S(E) and Z(E)); equal contents share a slot, so
    they fill 230 and 221.  Without the memos the pass makes 2,463
    strong-closure tests, 884 stability tests, 1,596 normality tests of
    Aut_E(P), 2,137 O^p computations and 263 and 121 focal and
    hyperfocal subgroups.  The counts are the same as when the
    four families on (F, E) kept their results in E's slot: keeping them
    in F's slot lost no sharing and merged no keys.  A saturated system
    given by its witness alone is decided class by class with no
    classification, and the classification builds the table of Aut_F(P)
    for centric P only: with every report classifying its system and
    every P's table built, the pass filled 380 classifications and 1,923
    automorphism groups (7,765 fills in all).  The F-classes with the
    counts of |N_S(P)| and |C_S(P)| are one datum (380 fills) of every
    system that is saturation-tested or classified, which both read; as
    two computations of each reader, they added no fill (6,481 in all).
    The extension table of each (T, bound), which the extension property,
    CFCG0 and the extension witnesses read, is one datum (242 fills); as
    a search per alpha it added no fill (6,861 in all)."""
    fills, _ = suite_pass
    assert {name: fills[f] for name, f in FAMILIES.items()} == {
        "CF": 534, "autgrp": 750, "NF": 646, "classification": 269,
        "class-counts": 380,
        "saturation": 380, "strongly-closed": 385, "C_S(E)": 221,
        "normality": 348, "centralizer-data": 121, "product-report": 412,
        "aut-sets-normal": 654, "O^p-auts": 365, "stability": 357,
        "F-normal-subgroups": 52, "closure": 247, "family": 230,
        "C_F(E)": 121, "model": 46, "condition-f": 134,
        "focal": 52, "conjugation-family": 21, "hyperfocal": 52,
        "normal-pairs": 21, "candidate-subsystems": 21,
        "commuting-pairs": 21, "alternative-Sylow": 21,
        "extension-table": 242}
    assert sum(fills.values()) == 7103


def test_dimino_runs_per_pass(suite_pass):
    """The joins of the atom-join walk (``groups.normal_joins``),
    EasyCentralizer's XT and H(P)'s P N_T(P) are each a subgroup times one
    that normalizes it, and the central-product checks' P1 P2 and S1 S2
    are products of commuting subgroups, so they are product sets and run
    no Dimino; with the first three as closures the pass ran it 4,286
    times, and 3,451 with the products' as closures.  So are
    PropHelp's X C_S(X), the local systems' P R, the F-normality test's
    Q P, T C_S(T) and the join of the p'-atoms of O_{p'}: 3,042 runs with
    those as closures, and 2,928 while the classification also closed
    Aut_P(P) on the table of every P, not of the centric P alone.  With
    every saturation report classifying its system (O_p and Aut_P(P) of
    each centric P closed on its table) the pass ran it 2,825 times."""
    _, runs = suite_pass
    assert runs == 2743


WITNESS_ROWS = {"a4xa4@2": 9, "a6@2": 180}


@pytest.mark.parametrize("name,p", CORPUS_ENTRIES,
                         ids=[f"{n}@{p}" for n, p in CORPUS_ENTRIES])
def test_one_witness_row_per_coset(name, p):
    """A realized top keeps |W : C_W(S)| witness rows, one per coset of
    C_W(S) (9 of the 144 on a4xa4@2, 180 of the 360 on a6@2), and reads
    from them the keys of every subgroup in the order that all the rows
    of W give."""
    G = builtin_group(name)
    S = sylow_subgroup(G.full_subgroup, p)
    F = fusion_of_group(G, S, p)
    every_row = S.rows(G.full_subgroup.members)
    for P in F.subgroups():
        assert list(F._conjugation_keys(P)) == list(_first_conjugations(
            P, every_row, S.member_set, S))
    index = G.order // centralizer(G.full_subgroup, S, S).order
    assert len(F._witness_rows) == index
    assert WITNESS_ROWS.get(f"{name}@{p}", index) == index


def test_normal_joins_leave_no_closure(s4xc2):
    """The walk over the normal subgroups of S4 x C2 records no seed set
    besides the conjugacy classes of its atoms."""
    G = ingest(builtin_group_path("s4xc2"))
    groups.normal_subgroups(G.full_subgroup)
    classes = {frozenset(c) for c in groups.conjugacy_classes(G.full_subgroup)}
    assert set(G._closures) == classes
    assert [N.members for N in groups.normal_subgroups(G.full_subgroup)] == [
        N.members for N in groups.normal_subgroups(s4xc2.full_subgroup)]


def test_cross_checks_recompute(monkeypatch, counted_memo):
    """On s4@2 (4 normal pairs, a second Sylow 2-subgroup): R* is computed
    for the centralizer data, filled once per pair, again by
    FirstCharacterization and on the transported pair by MainCSE.b;
    Model1.c searches the normal model again after each ``r_star`` found
    it; centralizer-oracle recomputes both families (``test_verify`` pins
    those calls)."""
    callers: Counter = Counter()
    r_star, normal_model = verify_mod.r_star, models.normal_model

    def counted_r_star(F, E):
        callers["r_star", sys._getframe(1).f_code.co_name] += 1
        return r_star(F, E)

    def counted_normal_model(F, model, E):
        callers["normal_model", sys._getframe(1).f_code.co_name] += 1
        return normal_model(F, model, E)

    for module in (verify_mod, centralizers):
        monkeypatch.setattr(module, "r_star", counted_r_star)
        monkeypatch.setattr(module, "normal_model", counted_normal_model)
    with counted_memo() as (fills, _):
        results = run_suite("s4@2", builtin_group("s4"), 2)
    assert all(r.passed for r in results)
    assert fills[compute_centralizer_data] == 4
    assert callers == {("r_star", "compute_centralizer_data"): 4,
                       ("r_star", "verify_first_characterization"): 4,
                       ("r_star", "verify_main_cse_b"): 4,
                       ("normal_model", "r_star"): 12,
                       ("normal_model", "verify_model1c"): 4}


def test_equal_generator_sets_fill_one_closure(s4, counted_memo):
    """The automorphisms of V4 in F_S(S4), and the same maps in the
    opposite order as other Hom objects, fill one closure table on F's
    top; a smaller set fills a second."""
    F = fusion_of_group(s4, sylow_subgroup(s4.full_subgroup, 2), 2)
    V4 = o_p(s4.full_subgroup, 2)
    gens = F.automorphisms(V4)
    rebuilt = [Hom.from_generator_images(V4, V4, V4.generators,
                                         [h(x) for x in V4.generators])
               for h in reversed(gens)]
    assert len(gens) > 1
    assert not any(a is b for a, b in zip(rebuilt, reversed(gens)))
    with counted_memo() as (fills, _):
        tables = [generated_subsystem(F, V4, seeds)._explicit
                  for seeds in (gens, rebuilt)]
        assert fills[fusion._closure_table] == 1
        generated_subsystem(F, V4, gens[:1])
    assert tables[0] is tables[1]
    assert fills[fusion._closure_table] == 2


def test_equal_families_fill_one_verdict(s4, counted_memo):
    """A family asked as a list, a reversed tuple and sorted fills one
    conjugation-family verdict; another family fills a second."""
    F = fusion_of_group(s4, sylow_subgroup(s4.full_subgroup, 2), 2)
    family = list(F.subgroups())
    with counted_memo() as (fills, _):
        assert all(is_conjugation_family(F, fam) for fam in
                   (family, tuple(reversed(family)), sorted(family, key=id)))
        assert fills[saturation._factors_through] == 1
        assert not is_conjugation_family(F, [center(F.support)])
    assert fills[saturation._factors_through] == 2


def test_a_subgroup_of_another_universe_is_not_kept(s4, counted_memo):
    """The Sylow subgroup of a second copy of S4 has the members of F's
    support but another parent: a closure over it, or a family holding
    it, is computed on each call and never kept in F's slot."""
    F = fusion_of_group(s4, sylow_subgroup(s4.full_subgroup, 2), 2)
    G = ingest(builtin_group_path("s4"))
    other = sylow_subgroup(G.full_subgroup, 2)
    assert other.members == F.support.members and other.parent is not s4
    stored = len(F._cache)
    with counted_memo() as (fills, _):
        tables = [generated_subsystem(F, other, [])._explicit
                  for _ in range(2)]
        verdicts = [is_conjugation_family(F, [other]) for _ in range(2)]
    assert tables[0] is not tables[1] and tables[0].keys() == tables[1].keys()
    assert verdicts[0] == verdicts[1]
    assert fills[fusion._closure_table] == fills[saturation._factors_through] == 0
    assert len(F._cache) == stored
