"""Acceptance suite: one test and one printed pass/fail line per criterion.

All identities are exact (algebraic equality, zero tolerance); the only
numeric tolerances are the stated runtime budgets.  The corpus is the
bundled one; every criterion consumes the same canonical full-suite run.
"""

from __future__ import annotations

import hashlib
import json
import time

import pytest

from fusionkit.corpus import corpus_entries
from fusionkit.verify import CHECK_ORDER, run_suite, suite_report

SATURATION_BUDGET_PER_ENTRY_S = 60.0   # entries with |G| <= 200
CENTRALIZER_THEOREM_BUDGET_S = 600.0             # full corpus
# sha256 of json.dumps(reports, sort_keys=True) over the 22 corpus entries in
# corpus order.  A change of any report, on any entry, updates it on purpose.
REPORT_SHA256 = "0c9c219b55814ca83724af8b2eafef7c696f576fc8a6d86529ff889ec13d60cc"
CHECKS_BY_CRITERION = {
    2: ("FirstCharacterization", "MainCSE.a", "MainCSE.b", "MainCSE.c"),
    3: ("FocProp",),
    4: ("CFENormal", "MainCFE"),
    5: ("Coincide",),
    6: ("P:F1F2Centralize", "MainCentralProduct",
        "NormalCentralizeEachOther", "RadicalIntersect"),
    7: ("FfEf", "Wellknown", "LocalNormalSubsystems", "EasyCentralizer",
        "FrattiniCons", "XInvariant", "WeaklyClosedCentralized", "GN",
        "CFCG0", "PropHelp", "ZCentralize", "L:F1F2Centralize"),
    8: ("focal-oracle", "centralizer-oracle"),
}


@pytest.fixture(scope="module")
def full_run():
    """One full corpus run: {label: (group, prime, results, wall seconds)}."""
    out = {}
    for label, G, p in corpus_entries():
        t0 = time.perf_counter()
        results = run_suite(label, G, p)
        out[label] = (G, p, results, time.perf_counter() - t0)
    return out


def _line(num: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")


def _collect(full_run, check_ids):
    bad = []
    for label, (G, p, results, _) in full_run.items():
        for r in results:
            if r.check_id in check_ids and not r.passed:
                bad.append((label, r.check_id, r.counterexample))
    return bad


def test_criterion_1_saturation(full_run):
    bad = _collect(full_run, ("saturation",))
    slow = [(label, dt) for label, (G, p, res, dt) in full_run.items()
            if G.order <= 200
            for r in res if r.check_id == "saturation"
            and r.millis / 1000.0 > SATURATION_BUDGET_PER_ENTRY_S]
    ok = not bad and not slow
    _line(1, ok, f"saturation of all {len(full_run)} realized corpus systems, "
                 f"exhaustively, within budget")
    assert not bad, bad
    assert not slow, slow


def test_criterion_2_theorem_a(full_run):
    bad = _collect(full_run, CHECKS_BY_CRITERION[2])
    spent = sum(r.millis / 1000.0 for _, (_, _, res, _) in full_run.items()
                for r in res if r.check_id in CHECKS_BY_CRITERION[2])
    ok = not bad and spent < CENTRALIZER_THEOREM_BUDGET_S
    _line(2, ok, f"centralizing-subgroup theorem (membership, uniqueness, "
                 f"strong closure, R* set equality, closure flags) on every "
                 f"normal pair; {spent:.1f}s")
    assert not bad, bad
    assert spent < CENTRALIZER_THEOREM_BUDGET_S


def test_criterion_3_focal_bound(full_run):
    bad = _collect(full_run, CHECKS_BY_CRITERION[3])
    _line(3, not bad, "focal and hyperfocal subgroups of C_F(T) inside C_S(E)")
    assert not bad, bad


def test_criterion_4_centralizer_subsystem(full_run):
    bad = _collect(full_run, CHECKS_BY_CRITERION[4])
    _line(4, not bad, "C_F(E) normal; containment iff centralizing, over all "
                      "saturated candidate subsystems")
    assert not bad, bad


def test_criterion_5_coincidence(full_run):
    bad = _collect(full_run, CHECKS_BY_CRITERION[5])
    _line(5, not bad, "automorphism product formula on fully normalized "
                      "centric subgroups of C_F(E)")
    assert not bad, bad


def test_criterion_6_products(full_run):
    bad = _collect(full_run, CHECKS_BY_CRITERION[6])
    required = {"q8c4@2", "a4xa4@2", "s4xc2@2"}
    missing = required - set(full_run)
    ok = not bad and not missing
    _line(6, ok, "central/direct product theorems incl. the Q8*C4, A4xA4 "
                 "and direct-product cases")
    assert not bad, bad
    assert not missing, missing


def test_criterion_7_lemma_suite(full_run):
    bad = _collect(full_run, CHECKS_BY_CRITERION[7])
    from mutation_scenarios import Env, make_scenarios
    scenarios = make_scenarios(Env())
    assert set(scenarios) == set(CHECKS_BY_CRITERION[7])
    not_caught = [check_id for check_id, probe in sorted(scenarios.items())
                  if not probe()]
    ok = not bad and not not_caught
    _line(7, ok, "twelve proof-internal lemmas pass everywhere and each "
                 "fails its mutation self-test")
    assert not bad, bad
    assert not not_caught, not_caught


def test_criterion_8_oracles(full_run):
    bad = _collect(full_run, CHECKS_BY_CRITERION[8])
    _line(8, not bad, "focal subgroup matches S n [G,G]; brute-force "
                      "centralized family matches the structured route")
    assert not bad, bad


def test_criterion_9_determinism(full_run):
    first = [suite_report(label, p, results)
             for label, (G, p, results, _) in full_run.items()]
    second = []
    for label, (G, p, _, _) in full_run.items():
        second.append(suite_report(label, p, run_suite(label, G, p)))
    a = json.dumps(first, sort_keys=True)
    b = json.dumps(second, sort_keys=True)
    ok = a == b
    _line(9, ok, "two full corpus runs serialize byte-identically")
    assert ok


def test_full_report_matches_the_recorded_digest(full_run):
    reports = [suite_report(label, p, results)
               for label, (G, p, results, _) in full_run.items()]
    assert len(reports) == 22
    digest = hashlib.sha256(
        json.dumps(reports, sort_keys=True).encode()).hexdigest()
    assert digest == REPORT_SHA256


def test_every_check_ran_everywhere(full_run):
    for label, (G, p, results, _) in full_run.items():
        assert [r.check_id for r in results] == list(CHECK_ORDER), label
