"""``EasyCentralizer``'s set form against the loop over every (X, phi) and
beta (``easy_centralizer_literal`` in ``oracles.py``): the same payload on
every corpus normal pair, on systems over a strongly closed T that
Aut_F(T) does not keep (where the twist tau is not a permutation of E's
keys), on hom-removed mutants of F and of E, on systems with a bogus map
on XT adjoined, which fail clause (a) in both of its shapes, and on
groups generated by two permutations.  On each of those systems, and on
its N_E(T), the datum the check reads (``centralizing_keys``) is its
definition: K(Y) is E's keys that C_F(Y) contains, key by key, and it is
full exactly when E <= C_F(Y)."""

from __future__ import annotations

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings

from fusionkit import verify
from fusionkit.centralizers import centralizing_keys, contained_in_centralizer
from fusionkit.corpus import builtin_group, corpus_entries
from fusionkit.errors import NotAGroup
from fusionkit.groups import Hom, Subgroup, centralizer, subgroup_lattice
from fusionkit.subsystems import centralizer_subsystem, normalizer_subsystem
from fusionkit.verify import (inner_only_shadow, normal_pairs,
                              verify_easy_centralizer, with_added_iso,
                              with_removed_iso)
from conftest import entry_system
from oracles import easy_centralizer_literal
from test_fusion import perm_groups
from test_subsystems import invariance_systems

SMALL = [(label, G, p) for label, G, p in corpus_entries() if G.order <= 48]


def shape(payload) -> tuple:
    """The clause of a payload and, for clause (a), its kind: the image
    leaving C_S(T) or a located (P, beta)."""
    if payload is None:
        return (None,)
    if payload["clause"] != "a":
        return (payload["clause"],)
    return ("a", payload.get("kind", "P, beta"))


def agree(F, E, seen: Counter) -> None:
    got = verify_easy_centralizer(F, E)
    assert got == easy_centralizer_literal(F, E)
    seen[shape(got)] += 1
    for D in (E, normalizer_subsystem(E, E.support)):
        keys_are_the_definition(F, D)


def keys_are_the_definition(F, E) -> Counter:
    """``centralizing_keys(F, E)`` walks the Y <= C_S(T) in lattice order,
    and each K(Y) is the set of E's keys that C_F(Y) contains, key by key;
    it is full exactly when E <= C_F(Y).  Counts the K(Y) by fullness."""
    T = E.support
    rows = centralizing_keys(F, E)
    CST = centralizer(F.support, T, F.table_for(T))
    assert [Y.members for Y, _ in rows] == [
        Y.members for Y in subgroup_lattice(CST)]
    keys = {(P.members, b) for P in E.subgroups() for b in E._keys_from(P)}
    full: Counter = Counter()
    for Y, K in rows:
        C_Y = centralizer_subsystem(F, Y)
        assert K == {k for k in keys if C_Y.contains_key(*k)}
        assert (K == keys) == contained_in_centralizer(F, E, Y)
        full[K == keys] += 1
    return full


@pytest.fixture
def taus(monkeypatch):
    """Counts tau by whether it permutes E's keys, and each run of the
    per-beta loop by whether that tau was a permutation and the loop
    failed."""
    seen: Counter = Counter()
    twist, clause_a = verify._key_twist, verify._clause_a

    def counted_twist(phi, E, keys):
        tau = twist(phi, E, keys)
        seen["tau", tau is not None] += 1
        return tau

    def counted_clause_a(F, E, X, phi, Xphi, K_X):
        bad = clause_a(F, E, X, phi, Xphi, K_X)
        keys = frozenset((P.members, b) for P in E.subgroups()
                         for b in E._keys_from(P))
        seen["loop", twist(phi, E, keys) is not None, bad is not None] += 1
        return bad

    monkeypatch.setattr(verify, "_key_twist", counted_twist)
    monkeypatch.setattr(verify, "_clause_a", counted_clause_a)
    return seen


def test_corpus_normal_pairs(taus):
    """All 132 normal pairs of the corpus pass both forms; each tau of a
    normal E permutes E's keys, so the per-beta loop never runs."""
    seen: Counter = Counter()
    for label, G, p in corpus_entries():
        F = entry_system(G, p)
        for _, E in normal_pairs(F):
            agree(F, E, seen)
    assert seen == {(None,): 132}
    assert taus["tau", True] > 0 and taus["tau", False] == 0
    assert not any(key[0] == "loop" for key in taus)


def test_keys_in_the_inner_shadow():
    """In the inner shadow M of F = F_S(S4), whose C_M(Y) keep only S's own
    conjugations, some K(Y) of F's normal pairs is short of E's keys, and
    each is still the definition, for E and for N_E(T)."""
    F = entry_system(builtin_group("s4"), 2)
    M = inner_only_shadow(F)
    full: Counter = Counter()
    for _, E in normal_pairs(F):
        for D in (E, normalizer_subsystem(E, E.support)):
            full += keys_are_the_definition(M, D)
    assert full[True] > 0 and full[False] > 0


def test_systems_aut_f_t_does_not_keep(taus):
    """Over the strongly closed T of the small entries: F_T(N), the inner
    system, <Aut_F(T)>_T and each <alpha>_T.  Where some phi|_T does not
    keep E, tau is no permutation and the per-beta loop decides."""
    seen: Counter = Counter()
    for _, G, p in SMALL:
        F, systems = invariance_systems(G, p)
        for E in systems:
            agree(F, E, seen)
    assert taus["tau", False] > 0
    assert taus["loop", False, False] > 0
    assert seen[("b",)] > 0 and seen[(None,)] > 0


def test_hom_removed_mutants(taus):
    """F without its first non-identity map from XT, for each X <= C_S(T),
    and E without its first non-identity map from each P <= T, both
    keeping the witness (``with_removed_iso``)."""
    seen: Counter = Counter()
    for label, G, p in SMALL:
        F = entry_system(G, p)
        for _, E in normal_pairs(F):
            T = E.support
            CST = centralizer(F.support, T, F.table_for(T))
            for X in subgroup_lattice(CST):
                XT = Subgroup(F.universe, X.product_set(T))
                agree(without_first_map(F, XT), E, seen)
            for P in E.subgroups():
                agree(F, without_first_map(E, P), seen)
    assert seen[(None,)] > 300


def without_first_map(D, P):
    """D without its first non-identity map from P, witness kept; D itself
    when P has none."""
    first = next((i for i, h in enumerate(D.isos_from(P))
                  if not h.is_identity()), None)
    return D if first is None else with_removed_iso(D, P, first,
                                                    keep_witness=True)


def injections(XT: Subgroup, S: Subgroup, fixed: Subgroup):
    """The injective homomorphisms XT -> S that are the identity on
    ``fixed``, a subgroup of XT, corestricted onto their images."""
    rest = [g for g in XT.generators if g not in fixed.member_set]
    gens = list(fixed.generators) + rest
    for images in itertools.product(S.members, repeat=len(rest)):
        try:
            h = Hom.from_generator_images(XT, S, gens,
                                          list(fixed.generators) + list(images))
        except NotAGroup:
            continue
        if h.is_injective:
            yield h.cores()


def bogus_systems(F, pairs, fixing_T: bool):
    """(F with one map phi on some XT adjoined, unclosed, witness kept; E)
    for every injection phi: XT -> S outside F, the identity on T when
    ``fixing_T`` and on the trivial subgroup otherwise."""
    for E in pairs:
        T = E.support
        CST = centralizer(F.support, T, F.table_for(T))
        for X in subgroup_lattice(CST):
            XT = Subgroup(F.universe, X.product_set(T))
            known = F._keys_from(XT)
            fixed = T if fixing_T else F.universe.trivial_subgroup
            for h in injections(XT, F.support, fixed):
                if h.images not in known:
                    yield with_added_iso(F, h, close=False,
                                         keep_witness=True), E


def test_bogus_maps_fail_clause_a(s4, s4xc2, E_s4x1, taus):
    """Adjoined maps that the honest systems do not have make clause (a)
    fail, with the same payload in both forms: on s4@2 every injection
    of every XT, where X^phi leaves C_S(T) or tau is no permutation; on
    s4xc2@2, for E = S4 x 1, the injections of XT that fix T, so that tau
    is the identity and the two sets K differ."""
    seen: Counter = Counter()
    top = entry_system(s4, 2)
    for F, E in bogus_systems(top, [E for _, E in normal_pairs(top)], False):
        agree(F, E, seen)
    assert seen[("a", "image leaves C_S(T)")] > 0
    assert taus["loop", False, True] > 0
    top = entry_system(s4xc2, 2)
    E = next(E for _, E in normal_pairs(top)
             if E.content_key == E_s4x1.content_key)
    for F, E in bogus_systems(top, [E], True):
        agree(F, E, seen)
    assert taus["loop", True, True] > 0
    assert seen[("a", "P, beta")] > 0 and seen[(None,)] > 0


@settings(max_examples=25, deadline=None, derandomize=True)
@given(perm_groups())
def test_generated_groups(group):
    """The invariance systems of groups generated by two permutations."""
    F, systems = invariance_systems(*group)
    seen: Counter = Counter()
    for E in systems:
        agree(F, E, seen)
