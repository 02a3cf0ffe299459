"""Benchmark inputs: workload plans, CLI request candidates, seeded streams.

Only this module decides what the program is asked to do.  The program
receives the generated inputs (entry order, check ids, argv lists) and
nothing else: the seed never reaches it.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"

WORKLOADS = ("suite-corpus", "queries")

# The suite workload leaves out a4xa4@2: its suite is one 75-90 s piece of
# work on a 2-CPU machine, too long to repeat within a run (see README.md).
A4XA4 = "a4xa4@2"

# One round of the queries workload: per entry, this many requests of each
# kind (10/40/30/20 percent).  Entries are therefore drawn uniformly.
ROUND_MIX = (("build", 1), ("centralizer", 4), ("product", 3), ("alperin", 2))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def split_label(label: str) -> tuple[str, int]:
    name, p = label.split("@")
    return name, int(p)


def corpus_labels() -> list[str]:
    from fusionkit.corpus import CORPUS_ENTRIES
    return [f"{name}@{p}" for name, p in CORPUS_ENTRIES]


def suite_plan(seed: int) -> list[str]:
    """The suite workload's entry labels, in the seed's run order."""
    labels = [lab for lab in corpus_labels() if lab != A4XA4]
    random.Random(seed).shuffle(labels)
    return labels


# -- CLI requests ---------------------------------------------------------------
#
# A request is (kind, entry label, spec args).  Its argv names the system
# file by a relative path, so stdout never depends on where the run happens.


def system_file(label: str) -> str:
    return f"{label}.fsk"


def request_argv(kind: str, label: str, args: list[str], group_file: str) -> list[str]:
    if kind == "build":
        p = split_label(label)[1]
        return ["build", group_file, "-p", str(p), "--out", f"built-{label}.fsk"]
    if kind == "centralizer":
        return ["centralizer", system_file(label), "--normal", args[0]]
    if kind == "product":
        return ["product", system_file(label), "--f1", args[0], "--f2", args[1]]
    if kind == "alperin":
        return ["alperin", system_file(label), "--morphism", args[0]]
    raise ValueError(f"unknown request kind {kind!r}")


def request_key(kind: str, label: str, args: list[str]) -> str:
    return " ".join([kind, label, *args])


def stratified(rng: random.Random, cands: list, count: int) -> list:
    """``count`` draws, one uniformly from each of ``count`` contiguous strata
    of the candidate list.  The list runs from large subgroups to small ones,
    so every round mixes expensive and cheap arguments in the same shares;
    this keeps run-to-run spread low without leaving any candidate out."""
    out = []
    for i in range(count):
        lo = i * len(cands) // count
        hi = max(lo + 1, (i + 1) * len(cands) // count)
        out.append(cands[rng.randrange(lo, hi)])
    return out


def query_round(reference: dict, seed: int) -> list[tuple[str, str, list[str]]]:
    """The seeded round of requests: every entry gets ROUND_MIX requests
    with arguments drawn from its candidates; order shuffled."""
    rng = random.Random(seed)
    out = []
    for label, kinds in reference["requests"].items():
        for kind, count in ROUND_MIX:
            for args, _code, _digest in stratified(rng, kinds[kind], count):
                out.append((kind, label, list(args)))
    rng.shuffle(out)
    return out


def derived_requests(reference: dict, labels: list[str], seed: int
                     ) -> list[tuple[str, str, list[str]]]:
    """One request of each kind per suite entry, for the traced replay."""
    rng = random.Random(f"{seed}:suite-requests")
    out = []
    for label in labels:
        kinds = reference["requests"][label]
        for kind, _ in ROUND_MIX:
            args, _code, _digest = rng.choice(kinds[kind])
            out.append((kind, label, list(args)))
    return out


def expected_outcomes(reference: dict) -> dict[str, tuple[object, str]]:
    out = {}
    for label, kinds in reference["requests"].items():
        for kind, cands in kinds.items():
            for args, code, dig in cands:
                out[request_key(kind, label, args)] = (code, dig)
    return out


# -- specs for subgroups and morphisms --------------------------------------------


def generators_of(sub) -> list[int]:
    """A small generating set, chosen greedily in member order."""
    G = sub.parent
    gens: list[int] = []
    span = {0}
    for x in sub.members:
        if x not in span:
            gens.append(x)
            span = set(G.closure(gens))
    return gens


def subgroup_spec(sub) -> str:
    return "elts:" + ",".join(str(x) for x in generators_of(sub) or [0])


def morphism_spec(hom) -> str:
    gens = generators_of(hom.domain) or [0]
    images = [hom(x) for x in gens]
    return ",".join(map(str, gens)) + "->" + ",".join(map(str, images))
