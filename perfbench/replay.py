"""Traced replay: the benchmark's own calls into each module's public
functions, wrapped in spans.

A span records (name, start, end, parent span, request id).  Spans stay in
memory and are written out once, at the end.  A layer's self time is the
duration of its spans minus the part covered by their child spans.

The module replay walks one corpus entry on a freshly ingested group, so
every call runs cold except for what earlier calls of the same replay
cached on the group.  The request replay expands each CLI request into the
public calls its handler makes.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import inputs

# Per-layer timings (self time, seconds) and counts reported in the result
# line of a traced run, in print order.
TIMED_LAYERS = (
    "groups.lattice", "groups.normal_subgroups", "fusion.isos", "fusion.classes",
    "saturation.classify", "saturation.is_saturated",
    "subsystems.normal_subsystem_in", "subsystems.is_normal", "models.model",
    "centralizers.centralizer_data", "centralizers.c_F_of",
    "products.product_theorems", "persist.load", "persist.save",
    "corpus.ingest", "cli.resolve", "saturation.alperin",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []          # [name, start, end, parent, request]
        self.counts: Counter = Counter()
        self.request: str = ""
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.request]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, float]:
        child_time: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child_time[i]
        return dict(out)

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "request"],
                                    "spans": self.spans}) + "\n")


def replay_entry(tr: Tracer, label: str) -> None:
    """Cold public calls on one entry, in dependency order."""
    from fusionkit.centralizers import c_F_of, compute_centralizer_data
    from fusionkit.corpus import builtin_group_path, ingest
    from fusionkit.fusion import fusion_of_group, inner_system, realized_subsystem
    from fusionkit.groups import normal_subgroups, subgroup_lattice, sylow_subgroup
    from fusionkit.models import model_of, normal_model, script_G
    from fusionkit.products import verify_product_theorems
    from fusionkit.saturation import classify, is_saturated
    from fusionkit.subsystems import is_normal, normal_subsystem_in

    name, p = inputs.split_label(label)
    tr.request = f"entry:{label}"
    with tr.span("corpus.ingest"):
        G = ingest(builtin_group_path(name))
    with tr.span("groups.sylow_subgroup"):
        S = sylow_subgroup(G.full_subgroup, p)
    F = fusion_of_group(G, S, p)
    with tr.span("groups.lattice"):
        lattice = subgroup_lattice(S)
    tr.counts["groups.lattice_size"] += len(lattice)
    with tr.span("groups.normal_subgroups"):
        normals = normal_subgroups(G.full_subgroup)
    with tr.span("fusion.isos"):
        F.materialize()
    tr.counts["fusion.morphisms"] += F.morphism_count()
    with tr.span("fusion.classes"):
        F.classes()
    with tr.span("saturation.classify"):
        classify(F)
    with tr.span("saturation.is_saturated"):
        is_saturated(F)
    for P in lattice:
        D = inner_system(F, P)
        with tr.span("saturation.is_saturated"):
            ok = is_saturated(D).ok
        tr.counts["saturation.candidates_tried"] += 1
        tr.counts["saturation.candidates_saturated"] += int(ok)

    distinct: dict[tuple, tuple] = {}
    for N in normals:
        with tr.span("subsystems.normal_subsystem_in"):
            E = normal_subsystem_in(F, N)
        key = tuple(sorted((P.members, tuple(sorted(E._keys_from(P))))
                           for P in E.subgroups()))
        distinct.setdefault(key, (N, E))
    tr.counts["subsystems.normal_subgroups"] += len(normals)
    tr.counts["subsystems.distinct"] += len(distinct)
    pairs = sorted(distinct.values(), key=lambda pair: pair[0].sort_key())
    for N, E in pairs:
        fresh = realized_subsystem(F, N, E.support)
        with tr.span("subsystems.is_normal"):
            is_normal(F, fresh)
        with tr.span("models.model"):
            local, net = script_G(F, E)
            normal_model(local, model_of(local), net)
        with tr.span("centralizers.centralizer_data"):
            data = compute_centralizer_data(F, E)
        with tr.span("centralizers.c_F_of"):
            c_F_of(F, E, C_S_E=data.C_S_E)
    es = [E for _, E in pairs]
    for i, E1 in enumerate(es):
        for E2 in es[i:]:
            if not E1.support.is_elementwise_commuting(E2.support):
                continue
            tr.counts["products.commuting_pairs"] += 1
            with tr.span("products.product_theorems"):
                verify_product_theorems(F, E1, E2)


def replay_request(tr: Tracer, rid: str, kind: str, label: str, args: list[str]) -> None:
    """The public calls the CLI handler for ``kind`` makes, in its order."""
    from fusionkit.centralizers import c_F_of, compute_centralizer_data
    from fusionkit.cli import resolve_morphism, resolve_subgroup
    from fusionkit.corpus import builtin_group_path, ingest
    from fusionkit.fusion import fusion_of_group
    from fusionkit.groups import sylow_subgroup
    from fusionkit.persist import load_system, save_system
    from fusionkit.products import central_product_subsystem, verify_product_theorems
    from fusionkit.saturation import alperin_decompose
    from fusionkit.subsystems import is_normal, normal_subsystem_in

    name, p = inputs.split_label(label)
    tr.request = rid
    with tr.span(f"request.{kind}"):
        if kind == "build":
            with tr.span("corpus.ingest"):
                G = ingest(builtin_group_path(name))
            with tr.span("groups.sylow_subgroup"):
                S = sylow_subgroup(G.full_subgroup, p)
            F = fusion_of_group(G, S, p, name=f"F({G.name}@{p})")
            with tr.span("persist.save"):
                save_system(F, f"built-{label}.fsk")
            with tr.span("fusion.isos"):
                F.morphism_count()
            return
        with tr.span("persist.load"):
            F = load_system(inputs.system_file(label))
        if kind == "centralizer":
            with tr.span("cli.resolve"):
                N = resolve_subgroup(F, args[0])
            with tr.span("subsystems.normal_subsystem_in"):
                E = normal_subsystem_in(F, N)
            with tr.span("centralizers.centralizer_data"):
                data = compute_centralizer_data(F, E)
            with tr.span("centralizers.c_F_of"):
                cfe = c_F_of(F, E, C_S_E=data.C_S_E)
            with tr.span("subsystems.is_normal"):
                is_normal(F, E)
                is_normal(F, cfe)
        elif kind == "product":
            with tr.span("cli.resolve"):
                N1 = resolve_subgroup(F, args[0])
                N2 = resolve_subgroup(F, args[1])
            with tr.span("subsystems.normal_subsystem_in"):
                E1 = normal_subsystem_in(F, N1)
                E2 = normal_subsystem_in(F, N2)
            tr.counts["products.requests"] += 1
            try:
                with tr.span("products.product_theorems"):
                    report = verify_product_theorems(F, E1, E2)
            except KeyError:    # the known defect on non-commuting supports
                tr.counts["products.failed"] += 1
                return
            if report.centralize:
                tr.counts["products.centralize"] += 1
                with tr.span("products.central_product"):
                    central_product_subsystem(F, E1, E2)
        elif kind == "alperin":
            with tr.span("cli.resolve"):
                phi = resolve_morphism(F, args[0])
            with tr.span("saturation.alperin"):
                fact = alperin_decompose(F, phi)
                fact.recompose()
            tr.counts["saturation.alperin_requests"] += 1
            tr.counts["saturation.alperin_steps"] += len(fact.steps)


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: self times by layer, then counts and ratios."""
    times = tr.self_times()
    c = tr.counts
    out: dict[str, tuple[float, str]] = {
        f"{layer}_s": (times.get(layer, 0.0), "s") for layer in TIMED_LAYERS}
    out["groups.lattice_size"] = (c["groups.lattice_size"], "count")
    out["fusion.morphisms"] = (c["fusion.morphisms"], "count")
    out["subsystems.distinct_share"] = (
        c["subsystems.distinct"] / max(1, c["subsystems.normal_subgroups"]), "ratio")
    out["products.commuting_pairs"] = (c["products.commuting_pairs"], "count")
    out["saturation.candidate_share"] = (
        c["saturation.candidates_saturated"] / max(1, c["saturation.candidates_tried"]),
        "ratio")
    out["products.failed"] = (c["products.failed"], "count")
    completed = c["products.requests"] - c["products.failed"]
    out["products.centralize_share"] = (c["products.centralize"] / max(1, completed), "ratio")
    out["saturation.alperin_steps"] = (c["saturation.alperin_steps"], "count")
    return out
