"""fusionkit benchmark: one command per named workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json and perfbench/README.md):

- ``suite-corpus``: ``verify.run_suite`` with all checks on the 21 corpus
  entries other than a4xa4@2; the seed permutes the entry order.
- ``queries``: a closed loop with one client sending seeded CLI requests
  (build, centralizer, product, alperin) in-process through ``cli.main``.

A run repeats its work (suite passes, rounds of the same requests) and
times each operation as the best of its repeats.

Every piece of work runs in a fresh worker process (no threads, no pools).
With ``--trace 0`` the result line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of the traced replay.  Every
metric is also printed by name and unit on the lines before it.  The run
exits 1 when an output fails the correctness gate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from inputs import BENCH_DIR, REFERENCE, ROOT, WORKLOADS

OUT_DIR = ROOT / ".perfbench_out"
SETUP_SAMPLES = 1           # set-up only workers before and after the measuring one
WORKER_TIMEOUT_S = 170.0

# The untraced run's CheckResult.millis, summed per suite workload.  These
# checks cover more than 95% of suite time; the rest is verify.other_s.
CHECK_LAYERS = ("LocalNormalSubsystems", "EasyCentralizer", "RadicalIntersect",
                "PropHelp", "Finvariant.equiv", "saturation", "ShowWeaklyNormal",
                "FirstCharacterization", "MainCSE.a", "MainCSE.b", "Model1.a")


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str:
    """HEAD of the checkout, if the checkout itself is a git repository."""
    try:
        got = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = got.stdout.split()
    if got.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def environment() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit(), "source_sha256": source_digest(),
            "loadavg": list(os.getloadavg())}


def worker(job: str, args: argparse.Namespace, workdir: Path, deadline: float,
           trace_file: Path | None = None, seconds: int | None = None) -> dict:
    """Run one job in a fresh process and return its JSON object."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), job,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds if seconds is None else seconds),
           "--workdir", str(workdir)]
    if trace_file is not None:
        cmd += ["--trace-file", str(trace_file)]
    timeout = max(1.0, min(WORKER_TIMEOUT_S, deadline - time.monotonic()))
    # subprocess.run kills the child on timeout and waits for it to end.
    got = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    if got.returncode != 0:
        raise RuntimeError(f"{job} worker exited {got.returncode}:\n{got.stderr[-3000:]}")
    return json.loads(got.stdout.strip().splitlines()[-1])


def percentile_ms(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1000.0


def end_to_end(measured: dict, setups: list[float]) -> dict[str, tuple[float, str]]:
    return {
        "wall_s": (measured["wall_s"], "s"),
        "peak_rss_mb": (measured["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }


def check_layers(measured: dict) -> dict[str, tuple[float, str]]:
    check_s = measured["check_s"]
    out = {f"verify.{c}_s": (check_s.get(c, 0.0), "s") for c in CHECK_LAYERS}
    other = sum(v for c, v in check_s.items() if c not in CHECK_LAYERS)
    out["verify.other_s"] = (other, "s")
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "fusionkit" / "__init__.py").is_file():
        return fail(f"no fusionkit sources under {ROOT / 'src'}; run from a full checkout")
    if not REFERENCE.is_file():
        return fail("perfbench/reference.json is missing")

    deadline = time.monotonic() + WORKER_TIMEOUT_S
    env = environment()
    workdir = OUT_DIR / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    try:
        # Set-up samples sit on both sides of the measurement, so that a
        # slow or fast phase of the machine does not decide their median.
        setups = [worker("setup", args, workdir, deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES)]
        # A traced run reports the replay's metrics, so it times its work
        # only once; that keeps it well within the time limit of a run.
        measured = worker("measure", args, workdir, deadline,
                          seconds=1 if args.trace else None)
        setups += [measured["setup_s"]] + [worker("setup", args, workdir, deadline)["setup_s"]
                                           for _ in range(SETUP_SAMPLES)]
        traced = (worker("replay", args, workdir, deadline, trace_file)
                  if args.trace else None)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = measured["attempted"], measured["failed"]
    correct = not measured["mismatches"]
    e2e = end_to_end(measured, setups)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("environment: " + json.dumps(env))
    lat = measured["latencies_s"]
    op = "query" if args.workload == "queries" else "check"
    repeat_s = ", ".join(f"{t:.3f}" for t in measured["repeat_s"])
    print(f"repeats: {len(measured['repeat_s'])}, taking {repeat_s} s; "
          f"{op} samples: {len(lat)}")
    print(f"fail_share: {measured['failed_ops'] / attempted:.6f} ratio "
          f"({measured['failed_ops']} failed operations of {attempted}; "
          f"{measured['known_defect']} are the known product KeyError, "
          f"{failed} fail the correctness gate)")
    for note in measured["mismatches"][:10]:
        print(f"MISMATCH {note}")
    for name, (value, unit) in e2e.items():
        print(f"{name}: {value:.6f} {unit}")
    print(f"{op}_p50_ms: {percentile_ms(lat, 50):.6f} ms")
    print(f"{op}_p90_ms: {percentile_ms(lat, 90):.6f} ms")
    layers: dict[str, tuple[float, str]] = {}
    if traced is not None:
        if args.workload != "queries":
            for name, (value, unit) in check_layers(measured).items():
                print(f"{name}: {value:.6f} {unit}")
        layers = {name: tuple(v) for name, v in traced["layers"].items()}
        for name, (value, unit) in layers.items():
            print(f"{name}: {value:.6f} {unit}")
        if args.workload == "queries":
            overhead = traced["requests_s"] - measured["repeat_s"][0]
            print(f"trace.overhead_s: {overhead:.6f} s (traced replay of the round "
                  f"minus its untraced run)")
        print(f"trace spans: {traced['spans']} written to {trace_file.relative_to(ROOT)}")
    chosen = layers if args.trace else e2e
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in chosen.items()}}
    record = dict(result, workload=args.workload, seed=args.seed, environment=env)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
