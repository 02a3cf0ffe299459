"""Shared fixtures: module-scoped systems so caches warm up once,
``counted_memo``, which counts the fills of the registry,
``entry_system``, the system the suite builds for a corpus entry, and
``extension_group``, N_phi for one map."""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager

import pytest

from fusionkit import fusion
from fusionkit.corpus import builtin_group
from fusionkit.fusion import FusionSystem, fusion_of_group
from fusionkit.groups import (FiniteGroup, Hom, Subgroup, centralizer,
                              normal_subgroups, o_p, o_upper_p, sylow_subgroup)
from fusionkit.saturation import _extension_groups
from fusionkit.subsystems import normal_subsystem_in


def entry_system(G: FiniteGroup, p: int) -> FusionSystem:
    """F_S(G) for S the canonical Sylow p-subgroup of G: the system that
    ``verify.run_suite`` checks for a corpus entry (G, p)."""
    return fusion_of_group(G, sylow_subgroup(G.full_subgroup, p), p)


def extension_group(F: FusionSystem, phi: Hom) -> Subgroup:
    """N_phi = {g in N_S(P) : phi^-1 c_g phi in Aut_S(P^phi)}, by the
    class form the saturation report runs (``_extension_groups``)."""
    phi = phi.cores()
    return _extension_groups(F, phi.domain)(phi)


@pytest.fixture(scope="session")
def s4():
    return builtin_group("s4")


@pytest.fixture(scope="session")
def F_s4(s4):
    S = sylow_subgroup(s4.full_subgroup, 2)
    return fusion_of_group(s4, S, 2)


@pytest.fixture(scope="session")
def V4(s4):
    return o_p(s4.full_subgroup, 2)


@pytest.fixture(scope="session")
def A4(s4):
    return o_upper_p(s4.full_subgroup, 2)


@pytest.fixture(scope="session")
def E_a4(F_s4, A4):
    return normal_subsystem_in(F_s4, A4)


@pytest.fixture(scope="session")
def d8():
    return builtin_group("d8")


@pytest.fixture(scope="session")
def q8c4():
    return builtin_group("q8c4")


@pytest.fixture(scope="session")
def F_q8c4(q8c4):
    return fusion_of_group(q8c4, q8c4.full_subgroup, 2)


@pytest.fixture(scope="session")
def s4xc2():
    return builtin_group("s4xc2")


@pytest.fixture(scope="session")
def F_s4xc2(s4xc2):
    S = sylow_subgroup(s4xc2.full_subgroup, 2)
    return fusion_of_group(s4xc2, S, 2)


@pytest.fixture(scope="session")
def E_s4x1(F_s4xc2, s4xc2):
    """The copy of the S4-fusion over D8 x 1 inside S4 x C2."""
    cands = [N for N in normal_subgroups(s4xc2.full_subgroup)
             if N.order == 24 and centralizer(N, N, N).order == 1]
    return normal_subsystem_in(F_s4xc2, cands[0])


@contextmanager
def _counting(*held):
    """Count the fills of the registry by family while the block runs.  A
    fill is one computation stored in a slot, at the one site where
    ``fusion.derived`` fills one (``fusion._computed``); its family is the
    ``derived`` function of its key.  Yields the Counter of fills by
    family and a list of (system, key) for each fill of a family in
    ``held``, in the order the fills end; only those systems are kept
    alive."""
    fills: Counter = Counter()
    kept: list = []
    compute = fusion._computed

    def counted(F, key, fn, args):
        got = compute(F, key, fn, args)
        fills[key[0]] += 1
        if key[0] in held:
            kept.append((F, key))
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fusion, "_computed", counted)
        yield fills, kept


@pytest.fixture(scope="session")
def counted_memo():
    """``with counted_memo(*families) as (fills, kept)``: see ``_counting``."""
    return _counting
