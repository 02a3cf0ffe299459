"""Regenerate ``perfbench/reference.json``, the benchmark's correctness gate.

    python3 perfbench/make_reference.py

It records, from the current program:

- per suite entry, the digest of the canonical timing-free ``suite_report``
  of all its checks;
- per corpus entry, the candidate CLI requests the queries workload draws
  from (every normal subgroup, every ordered pair of normal subgroups, a
  fixed sample of morphisms) with each request's exit code and stdout
  digest.

Regenerate only when a change is meant to alter the program's output, and
say so in that change: the benchmark compares every run against this file.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
from pathlib import Path

import inputs

sys.path.insert(0, str(inputs.SRC))

from fusionkit import cli  # noqa: E402
from fusionkit.corpus import builtin_group  # noqa: E402
from fusionkit.groups import normal_subgroups  # noqa: E402
from fusionkit.persist import load_system  # noqa: E402
from fusionkit.verify import run_suite, suite_report  # noqa: E402

from worker import build_systems, group_file, run_request  # noqa: E402

ALPERIN_PER_ENTRY = 12


def alperin_specs(F) -> list[str]:
    """Morphisms out of the first two members of each nontrivial F-class,
    first and last in canonical order, thinned evenly to ALPERIN_PER_ENTRY."""
    specs: list[str] = []
    for cls in F.classes():
        for P in cls[:2]:
            if P.is_trivial():
                continue
            isos = F.isos_from(P)
            for h in dict.fromkeys((isos[0], isos[-1])):
                specs.append(inputs.morphism_spec(h))
    specs = list(dict.fromkeys(specs))
    if len(specs) > ALPERIN_PER_ENTRY:
        step = len(specs) / ALPERIN_PER_ENTRY
        specs = [specs[int(i * step)] for i in range(ALPERIN_PER_ENTRY)]
    return specs


def outcome(kind: str, label: str, args: list[str]) -> list:
    code, stdout = run_request(cli, inputs.request_argv(kind, label, args, group_file(label)))
    return [args, code, inputs.digest(stdout)]


def entry_requests(label: str) -> dict:
    build = outcome("build", label, [])
    build_systems(cli, {label: group_file(label)}, [label])
    F = load_system(inputs.system_file(label))
    specs = [inputs.subgroup_spec(N) for N in normal_subgroups(F.universe.full_subgroup)]
    return {
        "build": [build],
        "centralizer": [outcome("centralizer", label, [s]) for s in specs],
        "product": [outcome("product", label, [s1, s2]) for s1 in specs for s2 in specs],
        "alperin": [outcome("alperin", label, [m]) for m in alperin_specs(F)],
    }


def suite_digests() -> dict[str, str]:
    out = {}
    for label in sorted(inputs.suite_plan(0)):
        name, p = inputs.split_label(label)
        results = run_suite(label, builtin_group(name), p)
        failing = [r.check_id for r in results if not r.passed]
        if failing:
            raise RuntimeError(f"{label}: checks fail on this program: {failing}")
        out[label] = inputs.digest(json.dumps(suite_report(label, p, results), sort_keys=True))
        print(f"suite {label}: {len(results)} checks pass", file=sys.stderr)
    return out


def main() -> int:
    workdir = inputs.ROOT / ".perfbench_out" / "reference-work"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    here = Path.cwd()
    try:
        os.chdir(workdir)
        requests = {}
        for label in inputs.corpus_labels():
            t0 = time.perf_counter()
            requests[label] = entry_requests(label)
            counts = {k: len(v) for k, v in requests[label].items()}
            print(f"requests {label}: {counts} in {time.perf_counter() - t0:.1f} s",
                  file=sys.stderr)
        suites = suite_digests()
    finally:
        os.chdir(here)
        shutil.rmtree(workdir, ignore_errors=True)
    reference = {
        "about": "Correctness gate of perfbench: timing-free suite_report digests "
                 "and CLI request outcomes [args, exit code, stdout digest]. "
                 "Regenerate with: python3 perfbench/make_reference.py",
        "suites": suites,
        "requests": requests,
    }
    inputs.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
