"""R* on the model of V = T C_S(T) against the model on O_p of the local
system, and the exact cheaper forms inside both against their literal forms
in ``oracles.py``.

``r_star`` builds the model of the constrained local system on V, which the
local system's witness proves normal and centric, and ``oracles`` builds it
on O_p of the local system, found by the scan for F-normal subgroups, with
O_{p'} from the walk over every normal subgroup, the normal model searched
over every normal subgroup of the model and the model verified over the
lattice of sigma(S) in M.  The two models are isomorphic over S and give
the same R* and model orders.  The normality report decides Aut_F(T)-
stability on generating sets, the extension property on one table of
image keys and the Frattini property on rows of the alpha^-1; the loops
over every automorphism give the same payloads and exceptions, on honest
systems and on mutants whose automorphism sets are not closed."""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings

from fusionkit.centralizers import compute_centralizer_data
from fusionkit.corpus import builtin_group, corpus_entries
from fusionkit.errors import FusionkitError
from fusionkit.fusion import fusion_of_group
from fusionkit.groups import (Hom, as_group, center, centralizer, core,
                              normal_subgroups, o_p, o_p_prime,
                              sylow_subgroup)
from fusionkit.models import (is_constrained, models_isomorphic_over_s,
                              normal_model)
from fusionkit.saturation import key_generators
from fusionkit.subsystems import (_extension_property, _frattini_property,
                                  _stability, is_strongly_closed,
                                  normal_subsystem_in, normalizer_subsystem)
from fusionkit.verify import normal_pairs, with_added_iso, with_removed_iso
from conftest import entry_system
from oracles import (as_group_literal, core_literal,
                     extension_property_literal,
                     frattini_property_literal, normal_model_literal,
                     o_p_prime_literal, r_star_on_o_p_literal,
                     stability_literal)
from test_fusion import perm_groups
from test_subsystems import invariance_systems

SMALL = [(label, G, p) for label, G, p in corpus_entries() if G.order <= 48]


def outcome(f, *args):
    """``f(*args)``, or the type and message of the error it raises."""
    try:
        return f(*args)
    except FusionkitError as exc:
        return type(exc).__name__, str(exc)


def routes_agree(F, E) -> bool:
    """The model on V and the model on O_p of the local system are
    isomorphic over S, with the same R*, model order and normal model
    order, and the normal model is the one the walk over every normal
    subgroup finds; True when O_p of the local system is not V."""
    data = compute_centralizer_data(F, E)
    local = data.local_system
    R, model, N = r_star_on_o_p_literal(F, E)
    assert models_isomorphic_over_s(local, data.model, model)
    assert R == data.R_star
    assert model.group.order == data.model.group.order
    assert N.order == data.N.order
    NET = normalizer_subsystem(E, E.support)
    assert normal_model(local, model, NET) == N
    assert normal_model_literal(local, data.model, NET) == data.N
    T = E.support
    V = F.universe.generated_subgroup(
        T.members + centralizer(F.support, T, T).members)
    return is_constrained(local)[1] != V


def test_corpus_models_on_v_and_on_o_p():
    """Every normal pair of the corpus; in 24 pairs of four entries O_p of
    the local system is larger than V, so the routes differ there."""
    pairs = 0
    differ: Counter = Counter()
    for label, G, p in corpus_entries():
        F = entry_system(G, p)
        for _, E in normal_pairs(F):
            pairs += 1
            if routes_agree(F, E):
                differ[label] += 1
    assert pairs == 132
    assert sum(differ.values()) == 24
    assert set(differ) == {"d8@2", "q8@2", "q8c4@2", "d8xc2@2"}


@settings(max_examples=25, deadline=None, derandomize=True)
@given(perm_groups())
def test_generated_models_on_v_and_on_o_p(group):
    G, p = group
    F = fusion_of_group(G, sylow_subgroup(G.full_subgroup, p), p)
    for N in normal_subgroups(G.full_subgroup):
        routes_agree(F, normal_subsystem_in(F, N))


def check_group(G) -> None:
    """O_{p'} as a join of class closures, O_p as the core of a Sylow
    subgroup found by search, and the picked table of ``as_group``."""
    full = G.full_subgroup
    for p in (2, 3, 5):
        assert o_p_prime(full, p) == o_p_prime_literal(full, p)
        S = sylow_subgroup(full, p)
        assert o_p(full, p) == core(full, S) == core_literal(full, S)
    for H in normal_subgroups(full):
        assert as_group(H)[0]._mul == as_group_literal(H)._mul


def test_group_forms_on_corpus_groups():
    for name in ("s4", "d8xc2", "sl23", "s3xs3", "gl23", "a5", "c3c4"):
        check_group(builtin_group(name))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(perm_groups())
def test_group_forms_on_generated_groups(group):
    check_group(group[0])


def _swap(T):
    """A bijection of T, the identity but for two swapped non-identity
    members: not an automorphism when |T| > 3."""
    m = list(T.members)
    if len(m) > 2:
        m[1], m[2] = m[2], m[1]
    return Hom(T, T, tuple(m))


def report_clauses_agree(F, E, seen: Counter) -> None:
    """The generator form of stability gives the payload or exception of
    its loop over every automorphism, both extension bounds read off the
    extension table give those of the Hom search per alpha, and the
    Frattini property on rows of the alpha^-1 gives the first payload of
    its member-by-member loop on a strongly closed T, the only T the
    normality report asks it of.  ``seen`` counts stability by the branch
    its generator form takes: no generating set (the keys are not
    closed), or a generating set with a passing or a failing verdict;
    and the extension and Frattini properties by their verdicts."""
    T = E.support
    if is_strongly_closed(F, T):
        got = outcome(_frattini_property, F, E)
        assert got == outcome(frattini_property_literal, F, E)
        seen["frattini", got is None] += 1
    stable_gens = key_generators(T, F.automorphisms(T)) is not None
    got = outcome(_stability, F, E)
    assert got == outcome(stability_literal, F, E)
    seen["stability", stable_gens, got is None] += 1
    for bound in (center(T), T):
        got = outcome(_extension_property, F, E, bound)
        assert got == outcome(extension_property_literal, F, E, bound)
        seen["extension", got is None] += 1


def test_report_clauses_on_honest_systems():
    """The normal pairs of the small entries and the invariance systems,
    many of them not Aut_F(T)-stable."""
    seen: Counter = Counter()
    for _, G, p in SMALL:
        F, systems = invariance_systems(G, p)
        for E in systems:
            report_clauses_agree(F, E, seen)
    assert seen["stability", True, True] > 500
    assert seen["stability", True, False] >= 20
    assert seen["extension", True] > 1000
    assert seen["frattini", True] > 500 and seen["frattini", False] >= 20


def test_frattini_property_on_corpus_pairs():
    """Every normal pair of every corpus entry, a4xa4@2 included, has the
    Frattini property in both forms."""
    for _, G, p in corpus_entries():
        F = entry_system(G, p)
        for _, E in normal_pairs(F):
            assert _frattini_property(F, E) is None
            assert frattini_property_literal(F, E) is None


def test_report_clauses_on_mutants():
    """On mutants of F at T and at TC_S(T) (one map removed, or a bijection
    of T added that is no automorphism), and of E at T (the same, or the
    closure of E with an automorphism of T from F added).  Every branch
    of stability is taken: keys that are not closed, and generating sets
    that pass and that fail; the extension and Frattini properties both
    pass and fail."""
    seen: Counter = Counter()
    for label, G, p in SMALL:
        F = entry_system(G, p)
        for _, E in normal_pairs(F):
            T = E.support
            V = F.universe.generated_subgroup(
                T.members + centralizer(F.support, T, T).members)
            mutants = [(with_added_iso(F, _swap(T), close=False), E),
                       (F, with_added_iso(E, _swap(T), close=False))]
            for P in {T.members: T, V.members: V}.values():
                autos = [i for i, h in enumerate(F.isos_from(P))
                         if h.codomain == P][:3]
                mutants += [(with_removed_iso(F, P, i), E) for i in autos]
            autos = [i for i, h in enumerate(E.isos_from(T))
                     if h.codomain == T][:3]
            mutants += [(F, with_removed_iso(E, T, i)) for i in autos]
            keys = E._keys_from(T)
            outer = [a for a in F.automorphisms(T) if a.images not in keys][:3]
            mutants += [(F, with_added_iso(E, a)) for a in outer]
            for mF, mE in mutants:
                report_clauses_agree(mF, mE, seen)
    assert seen["frattini", True] > 500 and seen["frattini", False] > 100
    assert seen["extension", True] > 1000 and seen["extension", False] > 300
    assert (seen["stability", False, True] > 20
            and seen["stability", False, False] > 20)
    assert (seen["stability", True, True] > 100
            and seen["stability", True, False] > 5)
