"""Show that the benchmark's correctness gate is not vacuous.

    python3 perfbench/selftest.py

1. A suite-corpus-style run of s4@2 under ``verify.inner_only_shadow``
   (the inner fusion of S posing as F) must fail through the same gate the
   suite workload uses; every one of the 32 checks fails on this program.
2. A query whose stdout or exit code is tampered with after a correct run
   must fail through the same gate the queries workload uses.

Exits 0 when every corruption is reported as a failure, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import sys

import inputs

sys.path.insert(0, str(inputs.SRC))

from fusionkit import cli  # noqa: E402
from fusionkit.corpus import builtin_group  # noqa: E402
from fusionkit.verify import inner_only_shadow, run_suite  # noqa: E402

from worker import (build_systems, gate_request, gate_suite_entry, group_file,  # noqa: E402
                    run_request)


def shadow_suite(reference: dict) -> bool:
    label = "s4@2"
    results = run_suite(label, builtin_group("s4"), 2, system_mutator=inner_only_shadow)
    failed, note = gate_suite_entry(reference, label, results)
    print(f"shadow suite on {label}: gate reports {failed} of {len(results)} checks failed")
    honest, _ = gate_suite_entry(reference, label, run_suite(label, builtin_group("s4"), 2))
    print(f"honest suite on {label}: gate reports {honest} failed")
    return note is not None and failed == len(results) == 32 and honest == 0


def tampered_query(reference: dict) -> bool:
    expected = inputs.expected_outcomes(reference)
    label = "s4@2"
    build_systems(cli, {label: group_file(label)}, [label])
    args = reference["requests"][label]["centralizer"][0][0]
    key = inputs.request_key("centralizer", label, args)
    code, stdout = run_request(cli, inputs.request_argv("centralizer", label, args,
                                                        group_file(label)))
    honest = gate_request(expected, key, code, stdout)
    bad_out = gate_request(expected, key, code, stdout.replace("C_S(E)", "C_S(F)", 1))
    bad_code = gate_request(expected, key, 1, stdout)
    print(f"honest query: {'caught' if honest else 'passes'}")
    print(f"tampered stdout: {'caught' if bad_out else 'MISSED'}")
    print(f"tampered exit code: {'caught' if bad_code else 'MISSED'}")
    return honest is None and bad_out is not None and bad_code is not None


def main() -> int:
    reference = inputs.load_reference()
    workdir = inputs.ROOT / ".perfbench_out" / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    here = os.getcwd()
    os.chdir(workdir)
    try:
        ok = shadow_suite(reference) & tampered_query(reference)
    finally:
        os.chdir(here)
        shutil.rmtree(workdir, ignore_errors=True)
    print("gate self-test:", "ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
