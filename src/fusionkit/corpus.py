"""Bundled corpus of small groups and the file-ingestion path.

Group files are JSON: either permutation generators (1-based image arrays)
or a full multiplication table with identity at index 0.  The bundled corpus
covers constrained and non-constrained systems, trivial and nontrivial
centralizers, and central-/direct-product geometry at p = 2 and p = 3.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

from .errors import CapExceeded, ParseError
from .groups import (FiniteGroup, active_caps, group_from_permutations,
                     group_from_table, is_prime)


def parse_group_json(payload: dict) -> FiniteGroup:
    try:
        name = str(payload["name"])
        kind = payload["kind"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"group file missing required field: {exc}") from exc
    try:
        if kind == "permutation-generators":
            gens = payload.get("generators")
            if (not isinstance(gens, list) or not gens
                    or not all(isinstance(g, list) for g in gens)):
                raise ParseError("permutation-generators file needs a list of "
                                 "image lists")
            return group_from_permutations(name, gens)
        if kind == "multiplication-table":
            table = payload.get("table")
            if not isinstance(table, list) or not table:
                raise ParseError("multiplication-table file needs a table")
            return group_from_table(name, table)
    except (ValueError, TypeError, IndexError) as exc:
        raise ParseError(f"group file {name!r} is malformed: {exc}") from exc
    raise ParseError(f"unknown group file kind {kind!r}")


def ingest(path: str | Path) -> FiniteGroup:
    """Load and validate a group file.

    Raises ParseError on malformed JSON or malformed fields (non-integer
    entries, generators that are not lists), NotAGroup on invalid tables or
    generators, CapExceeded past ``active_caps.group``.
    """
    p = Path(path)
    try:
        payload = json.loads(p.read_text())
    except OSError as exc:
        raise ParseError(f"cannot read {p}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{p} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ParseError(f"{p}: top level must be an object")
    return parse_group_json(payload)


def designated_primes(path: str | Path) -> tuple[int, ...]:
    """The ``primes`` of a group file that ``ingest`` accepted (default
    [2]); ParseError unless it is a list of primes."""
    primes = json.loads(Path(path).read_text()).get("primes", [2])
    if not (isinstance(primes, list)
            and all(type(q) is int and is_prime(q) for q in primes)):
        raise ParseError(f"{path}: primes must be a list of primes, "
                         f"not {primes!r}")
    return tuple(primes)


# Entries in canonical run order: (group file stem, prime).
CORPUS_ENTRIES: tuple[tuple[str, int], ...] = (
    ("c2", 2),
    ("c4", 2),
    ("c2xc2", 2),
    ("c2xc4", 2),
    ("d8", 2),
    ("q8", 2),
    ("q8c4", 2),
    ("a4", 2),
    ("c3xc3", 3),
    ("c9", 3),
    ("a4", 3),
    ("c3c4", 3),
    ("sl23", 2),
    ("sl23", 3),
    ("s4", 2),
    ("d8xc2", 2),
    ("s3xs3", 3),
    ("gl23", 2),
    ("s4xc2", 2),
    ("a5", 2),
    ("a4xa4", 2),
    ("a6", 2),
)

_group_cache: dict[str, FiniteGroup] = {}


def builtin_group_path(name: str) -> Path:
    res = resources.files("fusionkit.data").joinpath(f"{name}.json")
    with resources.as_file(res) as p:
        return Path(p)


def builtin_group(name: str) -> FiniteGroup:
    got = _group_cache.get(name)
    if got is None:
        res = resources.files("fusionkit.data").joinpath(f"{name}.json")
        payload = json.loads(res.read_text())
        got = parse_group_json(payload)
        _group_cache[name] = got
    return got


def corpus_entries() -> tuple[tuple[str, FiniteGroup, int], ...]:
    """(label, group, prime) for each bundled entry whose group order is
    within ``active_caps.group``."""
    out = []
    for name, p in CORPUS_ENTRIES:
        try:
            G = builtin_group(name)
        except CapExceeded:
            continue
        if G.order > active_caps.group:     # cached under a larger cap
            continue
        out.append((f"{name}@{p}", G, p))
    return tuple(out)
