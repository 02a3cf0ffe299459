"""Versioned on-disk container for built fusion systems (.fsk files).

The container stores the ambient group as the right multiplications by a
generating set (format 2: ``order``, ``generator_indices`` and
``generator_columns``, with no n x n table), the support, the prime, and a
generator record: one representative per conjugacy class of subgroups, a
generating set of its automorphism group, and bridging isomorphisms (both
directions) to every other class member.  The generators are the maps of
Aut_F(rep), in canonical order, outside the span of those kept before them,
picked by a closure on image keys (``saturation.key_generators``) with no
table of Aut_F(rep).  Only a system given by its witness is saved.  A
format-1 file, which stored the whole table, is refused as an unsupported
format; rebuild it from its group file with ``fusionkit build``.

Files are compact JSON.  Every integer field (the order, generator indices
and columns, the prime, the support, the witness, class members and record
map images) must hold exact integers, so ``true`` is not 1 (ParseError
otherwise).  Loading builds the table from the generator columns and proves
it a group on the way (``groups.cayley_columns``: each column a
permutation whose entry 0 is its generator, a walk of the right Cayley
graph that reaches every element, and Light's associativity test on every
edge), rebuilds F = F_S(W) from it, and then proves that the record
generates exactly F.  A witness holding every element is the whole group
and is not checked again (``_witness``).  The proof is a certificate
checked against F (``_record_certifies``); when it fails, the record is
closed literally (``close_morphisms``) and compared with F, so a record
with a dropped generator or class still loads when its closure agrees, and
a corrupted record cannot load quietly.  A record map is checked for its
length and codomain as it is read.  A map the certificate accepts is a
member of F, so a homomorphism: multiplicativity is tested only before the
closure, or when reading or certifying the record raises (``_validate``).
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import FusionkitError, ParseError, VerificationFailed
from .fusion import (FusionSystem, Hom, close_morphisms, fusion_of_group,
                     subsystem_equal)
from .groups import (FiniteGroup, Subgroup, group_from_columns, is_prime,
                     right_span_generators)
from .saturation import key_generators, key_span

FORMAT_VERSION = 2


def system_payload(F: FusionSystem) -> dict:
    """The payload of F_S(W), given by its witness W alone: a file stores
    W, so a system with iso-sets of its own has no file that loads as it,
    and each Aut_F(rep) is a group, whose generators a record keeps."""
    if not F.from_witness:
        raise VerificationFailed(
            "only systems given by their witness alone persist")
    G = F.universe
    classes = []
    for cls in F.classes():
        rep = cls[0]
        auts = key_generators(rep, F.automorphisms(rep))
        entry = {
            "rep": list(rep.members),
            "aut_generators": [list(h.images) for h in auts],
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
    gens = G.generator_indices
    if gens is None:
        gens = right_span_generators(G._mul)
    return {
        "format": FORMAT_VERSION,
        "name": F.name,
        "group_name": G.name,
        "prime": F.p,
        "order": G.order,
        "generator_indices": list(gens),
        "generator_columns": [[row[g] for row in G._mul] for g in gens],
        "support": list(F.support.members),
        "witness": list(F.witness.members),
        "classes": classes,
    }


def write_file(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path``; a FusionkitError naming the path when it
    cannot be written, as a failed read is a ParseError."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise FusionkitError(f"cannot write {path}: {exc}") from exc


def save_system(F: FusionSystem, path: str | Path) -> None:
    """Write ``system_payload(F)`` as compact JSON.  Without ``indent`` the
    standard library encodes with its C encoder."""
    write_file(path, json.dumps(system_payload(F), separators=(",", ":")) + "\n")


def _ints(values: list) -> list:
    """``values`` if all are exact integers (a ``bool`` is an ``int``, so
    ``true`` would pass as 1); ParseError otherwise."""
    if not set(map(type, values)) <= {int}:
        raise ParseError(f"{values!r} are not all integers")
    return values


def _witness(G: FiniteGroup, members: list) -> Subgroup:
    """The stored witness as a subgroup of the checked group G.

    When its members, sorted and de-duplicated, are 0..|G|-1, it is
    ``G.full_subgroup`` with no further check: G is a group, so the set of
    all its elements holds the identity and every inverse and product.  Any
    other witness is checked as a subgroup."""
    if set(members) == set(range(G.order)):
        return G.full_subgroup
    return G.subgroup(members)


def _record_certifies(
        F: FusionSystem,
        record: list[tuple[Subgroup, list[Hom], list[tuple[Hom, Hom]]]]) -> bool:
    """Does the record provably generate exactly F?

    ``record`` holds, per class, ``(rep, aut_generators, bridges)`` with
    each bridge ``(from_rep, to_rep)``.  The certificate holds when

    1. every generator and bridge is a morphism of F (a bridge ``to_rep``
       through its inverse, which is in F exactly when it is);
    2. each recorded class, rep and bridge members, equals the set of
       codomains of ``F.isos_from(rep)``;
    3. the recorded classes cover every subgroup of S exactly once;
    4. each class's aut generators close under composition to
       |Aut_F(rep)| maps, counted by a closure on image keys
       (``saturation.key_span``), with no table of Aut_F(rep).

    Then closure(record) = F.  By 1, every seed lies in F, which contains
    the inner maps of S and is closed under restriction and composition, so
    closure(record) <= F.  By 1 and 4, the closure of the generators is a
    subgroup of Aut_F(rep) of full order, so Aut_F(rep) <= closure(record).
    Let phi: P -> Q be an isomorphism of F.  P and Q are F-conjugate, so by
    2 and 3 they lie in one recorded class with rep R; write to_rep(R) =
    from_rep(R) = id_R, which every closure holds.  F contains the inverses
    of its isomorphisms, so gamma = to_rep(P)^-1 ; phi ; from_rep(Q)^-1 lies
    in Aut_F(R), and phi = to_rep(P) ; gamma ; from_rep(Q) is a composite
    of maps of closure(record).  Hence F <= closure(record).
    """
    support = F.support.member_set
    covered: set[tuple[int, ...]] = set()
    for rep, auts, bridges in record:
        if not rep.member_set <= support:
            return False
        cls = {rep.members}
        for from_rep, to_rep in bridges:
            # from_rep in F makes |member| >= |rep|, so an injective to_rep
            # is onto rep and inverts
            if not (F.contains_morphism(from_rep) and to_rep.is_injective
                    and F.contains_morphism(to_rep.inverse())):
                return False
            cls.add(to_rep.domain.members)
        if (len(cls) != 1 + len(bridges) or not cls.isdisjoint(covered)
                or cls != {h.codomain.members for h in F.isos_from(rep)}):
            return False
        covered |= cls
        if not all(F.contains_morphism(h) for h in auts):
            return False
        span = key_span(rep, [h.images for h in auts])
        if len(span) != len(F.automorphisms(rep)):
            return False
    return len(covered) == len(F.subgroups())


def _read_record(G: FiniteGroup, classes: list, maps: list[Hom]
                 ) -> list[tuple[Subgroup, list[Hom], list[tuple[Hom, Hom]]]]:
    """The generator record of ``classes`` in the form ``_record_certifies``
    reads, each map appended to ``maps`` in record order.  A map's image
    list is checked for its length and its codomain here, and not for
    multiplicativity (``_validate``)."""

    def record_map(domain: Subgroup, codomain: Subgroup, images: list) -> Hom:
        h = Hom(domain, codomain, _ints(images)).check_shape()
        maps.append(h)
        return h

    record = []
    for entry in classes:
        rep = G.subgroup(_ints(entry["rep"]))
        auts = [record_map(rep, rep, images) for images in entry["aut_generators"]]
        bridges = []
        for bridge in entry["bridges"]:
            member = G.subgroup(_ints(bridge["member"]))
            bridges.append((record_map(rep, member, bridge["from_rep"]),
                            record_map(member, rep, bridge["to_rep"])))
        record.append((rep, auts, bridges))
    return record


def _validate(maps: list[Hom]) -> None:
    """NotAGroup at the first of ``maps`` that is not a homomorphism.

    A certified record needs no such test: each of its maps is a morphism
    of F = F_S(W), a conjugation map c_w|P or (``to_rep``) the inverse of
    one, and so a homomorphism.  It runs, in record order, before the
    record is closed, and when reading or certifying the record raises, so
    that a map the record reads before the failure is reported first."""
    for h in maps:
        h.validate()


def load_system(path: str | Path) -> FusionSystem:
    """Load a persisted system: F_S(W) over the group built from the stored
    generator columns, once the generator record is shown to generate
    exactly it.

    The proof is the record certificate (``_record_certifies``).  When it
    fails, the decision falls back to closing the record literally and
    comparing the closure with F_S(W), so a record that still generates the
    system loads.  Record maps are tested for multiplicativity only when
    the certificate fails or raises (``_validate``).  Raises ParseError on
    unreadable or malformed files,
    NotAGroup on generator columns or record maps that do not make a group
    or a homomorphism, VerificationFailed when the record regenerates other
    fusion.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot load {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != FORMAT_VERSION:
        raise ParseError(f"{path}: unsupported container format")
    try:
        G = group_from_columns(payload["group_name"], payload["order"],
                               payload["generator_indices"],
                               payload["generator_columns"])
        S = G.subgroup(_ints(payload["support"]))
        W = _witness(G, _ints(payload["witness"]))
        p = payload["prime"]
        if type(p) is not int or not is_prime(p):
            raise ParseError(f"prime {p!r} is not a prime")
        fresh = fusion_of_group(W, S, p, name=payload.get("name", ""))
        maps: list[Hom] = []
        try:
            record = _read_record(G, payload["classes"], maps)
            certified = _record_certifies(fresh, record)
        except Exception:
            _validate(maps)
            raise
        if certified:
            return fresh
        _validate(maps)
        explicit = close_morphisms(S, [(h.domain.members, h.images)
                                       for h in maps])
        rebuilt = FusionSystem(S, p, explicit=explicit, name="rebuilt")
        if not subsystem_equal(rebuilt, fresh):
            raise VerificationFailed(
                f"{path}: generator record does not regenerate the stored fusion")
        return fresh
    except KeyError as exc:
        raise ParseError(f"{path}: missing field {exc}") from exc
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except (ValueError, TypeError, IndexError) as exc:
        raise ParseError(f"{path}: malformed record: {exc}") from exc
