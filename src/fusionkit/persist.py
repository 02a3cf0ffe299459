"""Versioned on-disk container for built fusion systems (.fsk files).

The container stores the ambient group table, the support, the prime, and a
generator record: one representative per conjugacy class of subgroups, a
generating set of its automorphism group, and bridging isomorphisms (both
directions) to every other class member.  Loading reconstructs the system
by closure from the record and cross-checks it against the witness fusion
recomputed from the stored table, so a corrupted file cannot load quietly.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import ParseError, VerificationFailed
from .fusion import (FusionSystem, Hom, close_morphisms, fusion_of_group,
                     subsystem_equal)
from .groups import FiniteGroup, Subgroup

FORMAT_VERSION = 1


def _aut_generating_set(F: FusionSystem, P: Subgroup) -> list[Hom]:
    """Greedy generating subset of Aut_F(P), canonical order."""
    auts = F.automorphisms(P)
    chosen: list[Hom] = []
    span: set[tuple[int, ...]] = {P.members}
    for h in auts:
        if h.images in span:
            continue
        chosen.append(h)
        frontier = [h.images]
        lookup = {a.images: a for a in auts}
        span.add(h.images)
        while frontier:
            new = []
            for key in frontier:
                a = lookup[key]
                for b in list(span):
                    for c in (a.then(lookup[b]), lookup[b].then(a)):
                        if c.images not in span:
                            span.add(c.images)
                            new.append(c.images)
            frontier = new
    return chosen


def system_payload(F: FusionSystem) -> dict:
    if not F.realized:
        raise VerificationFailed("only group-realized systems persist")
    G = F.universe
    classes = []
    for cls in F.classes():
        rep = cls[0]
        entry = {
            "rep": list(rep.members),
            "aut_generators": [list(h.images) for h in _aut_generating_set(F, rep)],
            "bridges": [],
        }
        for member in cls[1:]:
            to_member = next(h for h in F.isos_from(rep) if h.codomain == member)
            to_rep = next(h for h in F.isos_from(member) if h.codomain == rep)
            entry["bridges"].append({
                "member": list(member.members),
                "from_rep": list(to_member.images),
                "to_rep": list(to_rep.images),
            })
        classes.append(entry)
    payload = {
        "format": FORMAT_VERSION,
        "name": F.name,
        "group_name": G.name,
        "prime": F.p,
        "order": G.order,
        "table": [list(row) for row in G._mul],
        "support": list(F.support.members),
        "witness": list(F.witness.members),
        "classes": classes,
    }
    if G.generator_indices is not None:
        payload["generator_indices"] = list(G.generator_indices)
    return payload


def save_system(F: FusionSystem, path: str | Path) -> None:
    Path(path).write_text(json.dumps(system_payload(F), indent=1) + "\n")


def load_system(path: str | Path) -> FusionSystem:
    """Load a persisted system; the generator-record closure must agree with
    the witness fusion rebuilt from the stored table."""
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot load {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != FORMAT_VERSION:
        raise ParseError(f"{path}: unsupported container format")
    try:
        G = FiniteGroup(payload["group_name"], payload["table"], check=True)
        gi = payload.get("generator_indices")
        if gi is not None:
            G.generator_indices = tuple(int(x) for x in gi)
        S = G.subgroup(payload["support"])
        W = G.subgroup(payload["witness"])
        p = int(payload["prime"])
        fresh = fusion_of_group(W, S, p, name=payload.get("name", ""))
        seeds: list[Hom] = []
        for entry in payload["classes"]:
            rep = G.subgroup(entry["rep"])
            for images in entry["aut_generators"]:
                seeds.append(Hom(rep, rep, images, check=True))
            for bridge in entry["bridges"]:
                member = G.subgroup(bridge["member"])
                seeds.append(Hom(rep, member, bridge["from_rep"], check=True))
                seeds.append(Hom(member, rep, bridge["to_rep"], check=True))
        explicit = close_morphisms(S, seeds)
        rebuilt = FusionSystem(S, p, explicit=explicit, name="rebuilt")
        if not subsystem_equal(rebuilt, fresh):
            raise VerificationFailed(
                f"{path}: generator record does not regenerate the stored fusion")
        return fresh
    except KeyError as exc:
        raise ParseError(f"{path}: missing field {exc}") from exc
