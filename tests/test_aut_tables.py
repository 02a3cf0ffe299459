"""The statements about subgroups of Aut_F(P) against their Hom forms in
``oracles.py``: whether Aut_E(P) is a normal subgroup of Aut_F(P) (the
invariance conditions (b)-(e)), A-circle(P) and H(P) with their alarms, the
Frattini factorization Aut_F(P) = H(P) A-circle(P) and the coincidence
formula.  The package decides them on the table of Aut_F(P)
(``saturation.aut_group``); the oracles compose Homs pair by pair.  The
transport of iso-sets on keys is compared with its Hom form too."""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from typing import Optional

import pytest
from hypothesis import given, settings

from fusionkit import verify
from fusionkit.centralizers import a_circle, compute_centralizer_data, h_group
from fusionkit.corpus import corpus_entries
from fusionkit.errors import FusionkitError
from fusionkit.fusion import TRIVIAL_TABLE, transport_isos
from fusionkit.groups import Hom
from fusionkit.models import model_of
from fusionkit.saturation import aut_group
from fusionkit.subsystems import (_aut_sets_normal, invariance_conditions,
                                  is_normal, normalizer_subsystem)
from fusionkit.verify import (inner_only_shadow, normal_pairs, verify_coincide,
                              verify_frattini_cons, with_replaced_isos)
from conftest import entry_system
from mutation_scenarios import at_subgroup
from oracles import (a_circle_literal, aut_sets_normal_literal,
                     coincide_check_literal, frattini_cons_literal,
                     h_group_literal, transport_isos_literal)
from test_fusion import perm_groups
from test_subsystems import invariance_systems

SMALL = [(label, G, p) for label, G, p in corpus_entries() if G.order <= 48]


def outcome(f, *args):
    """``f(*args)``, or the type and message of the error it raises."""
    try:
        return f(*args)
    except FusionkitError as exc:
        return type(exc).__name__, str(exc)


def compare(F, E, seen: Counter) -> None:
    """The package and the Hom forms agree on (F, E): whether Aut_E(P) is
    normal in Aut_F(P) for every P <= T, A-circle(P) and H(P), or their
    alarms, for every P <= S, and the Frattini factorization.  ``seen``
    counts the normality answers and the alarms."""
    for P in E.subgroups():
        got = _aut_sets_normal(F, E, P)
        assert got == aut_sets_normal_literal(F, E, P)
        seen[got] += 1
    for P in F.subgroups():
        for new, old in ((a_circle, a_circle_literal),
                         (h_group, h_group_literal)):
            got = outcome(new, F, E, P)
            assert got == outcome(old, F, E, P)
            if got and isinstance(got[0], str):
                seen[got[1]] += 1
    assert (outcome(verify_frattini_cons, F, E)
            == outcome(frattini_cons_literal, F, E))


def test_corpus_normal_pairs_and_shadows():
    """Every normal pair of the entries of order at most 48, with the
    coincidence formula, and the inner-shadow system posing as E, on which
    A-circle raises its alarm."""
    seen: Counter = Counter()
    pairs = 0
    for label, G, p in SMALL:
        F = entry_system(G, p)
        for _, E in normal_pairs(F):
            compare(F, E, seen)
            assert (verify_coincide(F, E) is None) == coincide_check_literal(F, E)
            pairs += 1
        compare(F, inner_only_shadow(F), seen)
    assert pairs == 117
    assert seen[True] > 700 and seen[False] > 0
    assert seen["A-circle is not normal in Aut_F(P)"] > 0


def test_invariance_systems():
    """The 570 systems the invariance oracles judge on the small entries,
    stable or not: both answers of the normality of Aut_E(P) are seen, and
    A-circle's alarm."""
    seen: Counter = Counter()
    for _, G, p in SMALL:
        F, systems = invariance_systems(G, p)
        for E in systems:
            compare(F, E, seen)
    assert seen[True] > 3000 and seen[False] > 50
    assert seen["A-circle is not normal in Aut_F(P)"] > 50


@settings(max_examples=25, deadline=None, derandomize=True)
@given(perm_groups())
def test_generated_groups(group):
    """The invariance systems of groups generated by two permutations, with
    the coincidence formula on the normal ones."""
    F, systems = invariance_systems(*group)
    seen: Counter = Counter()
    for E in systems:
        compare(F, E, seen)
        if is_normal(F, E).normal:
            assert (verify_coincide(F, E) is None) == coincide_check_literal(F, E)


@contextmanager
def injected(h_sets: Optional[dict], a_sets: Optional[dict]):
    """H(P) and A-circle(P) replaced at the P that ``h_sets`` and
    ``a_sets`` name, where ``verify_frattini_cons`` reads them."""
    with pytest.MonkeyPatch.context() as mp:
        for name, values in (("h_group", h_sets), ("a_circle", a_sets)):
            mp.setattr(verify, name, at_subgroup(getattr(verify, name),
                                                 values or {}))
        yield


def test_injected_factors(F_s4, E_a4, V4):
    """Identity-only factors on V4 leave the same first automorphism
    outside the product in both forms; a factor that is not a subgroup of
    Aut_F(V4) = S3, the identity and two of its three involutions, is
    reported as such."""
    ident = {V4.members: (Hom.identity(V4),)}
    with injected(ident, ident):
        got = verify_frattini_cons(F_s4, E_a4)
    assert got == frattini_cons_literal(F_s4, E_a4, h_sets=ident,
                                        a_sets=ident)
    assert got["missing"] != []
    invs = [h for h in F_s4.automorphisms(V4) if h.then(h).is_identity()]
    broken = {V4.members: tuple(invs[:3])}
    with injected(broken, None):
        got = verify_frattini_cons(F_s4, E_a4)
    assert got == {"P": list(V4.members),
                   "kind": "factor is not a subgroup of Aut_F(P)"}


def test_injected_empty_factors_are_taken_literally(F_s4, E_a4, V4):
    """An injected empty H(V4) and A-circle(V4) replace the computed
    factors: their product is empty, so both forms find a counterexample
    where the computed factors give none."""
    empty = {V4.members: ()}
    assert verify_frattini_cons(F_s4, E_a4) is None
    with injected(empty, empty):
        got = verify_frattini_cons(F_s4, E_a4)
    assert got == {"P": list(V4.members),
                   "kind": "factor is not a subgroup of Aut_F(P)"}
    assert frattini_cons_literal(F_s4, E_a4, h_sets=empty,
                                 a_sets=empty)["P"] == list(V4.members)


def test_injected_factors_on_a_trivial_automizer(F_s4, E_a4, V4):
    """At P = 1 of s4@2, Aut_F(P) is the identity alone, and its table is
    the shared order-1 one.  Injected there as H(P) and A-circle(P), the
    identity, the empty set and a map outside Aut_F(P) (an automorphism
    of V4) give the payload of the Hom form: none for the identity, a
    factor that is not a subgroup for the other two."""
    one = next(P for P in F_s4.subgroups() if P.order == 1)
    assert len(F_s4.automorphisms(one)) == 1
    assert aut_group(F_s4, one).group is TRIVIAL_TABLE
    outside = next(h for h in F_s4.automorphisms(V4) if not h.is_identity())
    payloads = []
    for factor in ((Hom.identity(one),), (), (outside,)):
        for h_sets, a_sets in (({one.members: factor}, None),
                               (None, {one.members: factor}),
                               ({one.members: factor}, {one.members: factor})):
            with injected(h_sets, a_sets):
                got = verify_frattini_cons(F_s4, E_a4)
            assert got == frattini_cons_literal(F_s4, E_a4, h_sets, a_sets)
            payloads.append(got)
    bad = {"P": [0], "kind": "factor is not a subgroup of Aut_F(P)"}
    assert payloads == [None] * 3 + [bad] * 6


def test_nontrivial_aut_e_over_a_trivial_aut_f():
    """A mutant E of c2xc4@2, where every Aut_F(P) is the identity alone,
    with the inversion of a cyclic subgroup of order 4 added to
    Aut_E(P): Aut_E(P) is not a subgroup of Aut_F(P) there, and the
    package agrees with the Hom forms on every P (``compare``)."""
    G, p = next((G, p) for lab, G, p in SMALL if lab == "c2xc4@2")
    F = entry_system(G, p)
    assert all(len(F.automorphisms(P)) == 1 for P in F.subgroups())
    C4 = next(P for P in F.subgroups()
              if P.order == 4 and len(P.generators) == 1)
    inversion = Hom(C4, C4, tuple(G.inv(x) for x in C4.members))
    E = with_replaced_isos(F, C4, list(F.isos_from(C4)) + [inversion])
    assert len(E.automorphisms(C4)) == 2
    seen: Counter = Counter()
    compare(F, E, seen)
    assert not _aut_sets_normal(F, E, C4)
    assert seen[False] == 1 and seen[True] == len(E.subgroups()) - 1


@pytest.mark.parametrize("label", ["s4@2", "s4xc2@2"])
def test_predicates_compose_no_hom_pair(label, monkeypatch):
    """With ``Hom.then`` refusing to run, the six invariance conditions,
    A-circle, H(P), the Frattini factorization and the coincidence formula
    still decide every normal pair."""
    G, p = next((G, p) for lab, G, p in SMALL if lab == label)
    F = entry_system(G, p)
    pairs = normal_pairs(F)

    def refuse(self, other):
        raise AssertionError("a pair of Homs was composed")

    monkeypatch.setattr(Hom, "then", refuse)
    for _, E in pairs:
        assert all(invariance_conditions(F, E).values())
        for P in F.subgroups():
            assert a_circle(F, E, P) and h_group(F, E, P)
        assert verify_frattini_cons(F, E) is None
        assert verify_coincide(F, E) is None


def test_transport_matches_the_hom_form():
    """The constrained local system of each normal pair of the small
    entries, and N_E(T) in it, pushed into the local system's model by its
    embedding sigma as ``models`` does: the keys are those of the pushed
    Homs."""
    count = 0
    for label, G, p in SMALL:
        F = entry_system(G, p)
        for _, E in normal_pairs(F):
            data = compute_centralizer_data(F, E)
            sigma = model_of(data.local_system).sigma
            for D in (data.local_system,
                      normalizer_subsystem(E, E.support)):
                want = {mem: {h.images for h in homs} for mem, homs
                        in transport_isos_literal(D, sigma).items()}
                assert transport_isos(D, sigma) == want
                count += 1
    assert count > 50

