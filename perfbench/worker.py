"""One benchmark job in a fresh process, so that ``corpus._group_cache`` and
every ``FiniteGroup._cache`` start empty and peak RSS belongs to this job.

    python3 perfbench/worker.py JOB --workload W --seed N --seconds S --workdir DIR

JOB is ``setup`` (set-up only), ``measure`` (set-up, then the untraced timed
phase and the correctness gate) or ``replay`` (set-up, then the traced
replay).  The job prints one JSON object on stdout; the program's own
output is captured and never reaches it.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import inputs  # noqa: E402

# Seconds of the run budget per repeat of the workload's work.  At 40 s a
# run makes 2 corpus passes (about 50 s on a 2-CPU machine) or 3 rounds of
# the same 220 requests (about 40 s).  More corpus passes would not fit the
# time the benchmark's runs have together.
SECONDS_PER_REPEAT = {"suite-corpus": 20, "queries": 13}


def run_request(cli, argv: list[str]) -> tuple[object, str]:
    """Run one CLI request in-process: (exit code, captured stdout).

    An exception escaping ``cli.main`` is reported by its type name as the
    exit code; the known ``product`` defect raises a bare KeyError."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code: object = cli.main(argv)
    except Exception as exc:  # recorded as the request's outcome
        code = type(exc).__name__
    return code, out.getvalue()


# -- the correctness gate -----------------------------------------------------------


def gate_request(expected: dict, key: str, code: object, stdout: str) -> str | None:
    """None when exit code and stdout digest match the reference."""
    want_code, want_digest = expected[key]
    got = inputs.digest(stdout)
    if code == want_code and got == want_digest:
        return None
    return f"{key}: got exit {code} stdout {got}, want exit {want_code} stdout {want_digest}"


def gate_suite_entry(reference: dict, label: str, results) -> tuple[int, str | None]:
    """(failed checks, mismatch note): every check must pass and the
    timing-free report must match the reference digest."""
    from fusionkit.verify import suite_report
    p = inputs.split_label(label)[1]
    bad = [r.check_id for r in results if not r.passed]
    got = inputs.digest(json.dumps(suite_report(label, p, results), sort_keys=True))
    want = reference["suites"].get(label)
    if not bad and got == want:
        return 0, None
    return max(1, len(bad)), f"{label}: failing checks {bad}, report {got} != {want}"


def group_file(label: str) -> str:
    from fusionkit.corpus import builtin_group_path
    return str(builtin_group_path(inputs.split_label(label)[0]))


def fresh_groups(labels: list[str]) -> dict:
    """A freshly ingested group per entry, so that no entry's run warms
    another's caches (a4 and sl23 appear at two primes)."""
    from fusionkit.corpus import builtin_group_path, ingest
    return {lab: ingest(builtin_group_path(inputs.split_label(lab)[0])) for lab in labels}


def build_systems(cli, files: dict[str, str], labels) -> None:
    """Write ``<label>.fsk`` for each entry through the CLI's build command."""
    for label in labels:
        p = inputs.split_label(label)[1]
        code, _ = run_request(cli, ["build", files[label], "-p", str(p),
                                    "--out", inputs.system_file(label)])
        if code != 0:
            raise RuntimeError(f"building {label} exited {code}")


def setup(workload: str, seed: int) -> dict:
    """Import, ingest and, for queries, build every ``.fsk`` file and
    generate the request round."""
    sys.path.insert(0, str(inputs.SRC))
    from fusionkit import cli, verify  # noqa: F401  (import cost is set-up)
    reference = inputs.load_reference()
    files = {lab: group_file(lab) for lab in reference["requests"]}
    state: dict = {"reference": reference, "group_files": files}
    if workload == "queries":
        build_systems(cli, files, reference["requests"])
        state["expected"] = inputs.expected_outcomes(reference)
        state["requests"] = inputs.query_round(reference, seed)
    else:
        labels = inputs.suite_plan(seed)
        state.update(labels=labels, groups=fresh_groups(labels))
    state["setup_s"] = time.perf_counter() - T_START
    return state


def repeats(workload: str, seconds: float) -> int:
    """How often a run repeats the workload's work: whole suite passes or
    rounds of the same requests."""
    return max(1, int(seconds // SECONDS_PER_REPEAT[workload]))


def best_of(samples: list[dict]) -> dict:
    """Per operation, its fastest time over the repeats.

    The repeats are far apart in time, and a shared host slows the same work
    by up to 2x in phases from under a second to over a minute.  Only
    slowdowns occur, so the fastest repeat of each operation is the steadiest
    estimate of its cost."""
    return {key: min(s[key] for s in samples) for key in samples[0]}


def measure_suite(state: dict, seconds: float) -> dict:
    """Every check of every entry, each timed as the best of the passes.

    An entry's set-up inside ``run_suite`` (its Sylow subgroup and fusion
    system) is an operation of its own, keyed ``(label, "context")``."""
    from fusionkit.verify import run_suite
    labels, reference = state["labels"], state["reference"]
    passes: list[dict[tuple[str, str], float]] = []
    attempted = failed = 0
    mismatches: list[str] = []
    groups = state["groups"]
    for repeat in range(repeats("suite-corpus", seconds)):
        if repeat:
            groups = fresh_groups(labels)   # cold again
        times: dict[tuple[str, str], float] = {}
        for label in labels:
            gc.collect()    # as if each entry ran in its own process
            t0 = time.perf_counter()
            results = run_suite(label, groups[label], inputs.split_label(label)[1])
            took = time.perf_counter() - t0
            for r in results:
                times[(label, r.check_id)] = r.millis / 1000.0
            times[(label, "context")] = took - sum(r.millis for r in results) / 1000.0
            attempted += len(results)
            n_bad, note = gate_suite_entry(reference, label, results)
            if note:
                failed += n_bad
                mismatches.append(note)
        passes.append(times)
    best = best_of(passes)
    check_s: dict[str, float] = {}
    for (_, check), t in best.items():
        if check != "context":
            check_s[check] = check_s.get(check, 0.0) + t
    return {"wall_s": sum(best.values()), "repeat_s": [sum(p.values()) for p in passes],
            "latencies_s": [t for (_, c), t in best.items() if c != "context"],
            "check_s": check_s, "attempted": attempted, "failed": failed,
            "failed_ops": failed, "known_defect": 0, "mismatches": mismatches}


def measure_queries(state: dict, seconds: float) -> dict:
    """The round's requests, each timed as the best of the rounds."""
    from fusionkit import cli
    expected, files, requests = state["expected"], state["group_files"], state["requests"]
    rounds: list[dict[int, float]] = []
    attempted = failed = failed_ops = known_defect = 0
    mismatches: list[str] = []
    for _ in range(repeats("queries", seconds)):
        times: dict[int, float] = {}
        for i, (kind, label, args) in enumerate(requests):
            argv = inputs.request_argv(kind, label, args, files[label])
            gc.collect()    # as if each request ran in its own process
            t0 = time.perf_counter()
            code, stdout = run_request(cli, argv)
            times[i] = time.perf_counter() - t0
            attempted += 1
            note = gate_request(expected, inputs.request_key(kind, label, args), code, stdout)
            if note:
                failed += 1
                mismatches.append(note)
            known_defect += int(kind == "product" and code == "KeyError")
            failed_ops += int(code != 0 or note is not None)
        rounds.append(times)
    best = best_of(rounds)
    return {"wall_s": sum(best.values()), "repeat_s": [sum(r.values()) for r in rounds],
            "latencies_s": list(best.values()), "check_s": {}, "attempted": attempted,
            "failed": failed, "failed_ops": failed_ops,
            "known_defect": known_defect, "mismatches": mismatches}


def traced_replay(state: dict, workload: str, seed: int, trace_path: Path) -> dict:
    import replay as rp
    from fusionkit import cli
    tracer = rp.Tracer()
    reference = state["reference"]
    if workload == "queries":
        requests = state["requests"]
        entries = list(dict.fromkeys(label for _, label, _ in requests))
    else:
        entries = state["labels"]
        requests = inputs.derived_requests(reference, entries, seed)
        build_systems(cli, state["group_files"], entries)
    t0 = time.perf_counter()
    for i, (kind, label, args) in enumerate(requests):
        rp.replay_request(tracer, f"q{i}", kind, label, args)
    requests_s = time.perf_counter() - t0
    for label in entries:
        rp.replay_entry(tracer, label)
    tracer.write(trace_path)
    metrics = {name: list(v) for name, v in rp.layer_metrics(tracer).items()}
    return {"layers": metrics, "requests_s": requests_s, "spans": len(tracer.spans)}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("job", choices=("setup", "measure", "replay"))
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace-file")
    args = ap.parse_args()
    os.chdir(args.workdir)
    state = setup(args.workload, args.seed)
    out: dict = {"setup_s": state["setup_s"]}
    if args.job == "measure":
        if args.workload == "queries":
            out.update(measure_queries(state, args.seconds))
        else:
            out.update(measure_suite(state, args.seconds))
    elif args.job == "replay":
        out.update(traced_replay(state, args.workload, args.seed, Path(args.trace_file)))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
