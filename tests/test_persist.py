"""Saving and loading .fsk files: the record certificate against the
literal closure, the round trip (of every corpus entry and of a
multiplication-table group), the full-group witness, the associativity
report on stored generator columns and the refusal of format 1."""

from __future__ import annotations

import copy
import hashlib
import itertools
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings

from fusionkit import persist
from fusionkit.cli import main
from fusionkit.corpus import (CORPUS_ENTRIES, builtin_group, builtin_group_path,
                              ingest)
from fusionkit.errors import (MorphismOutsideSupport, NotAGroup, ParseError,
                              VerificationFailed)
from fusionkit.fusion import (FusionSystem, close_morphisms, fusion_of_group,
                              subsystem_equal)
from fusionkit.groups import (FiniteGroup, Hom, group_from_table,
                              right_span_generators, sylow_subgroup)
from fusionkit.persist import load_system, save_system, system_payload
from fusionkit.saturation import aut_group, key_generators, key_span
from fusionkit.verify import inner_only_shadow, with_removed_iso
from oracles import (aut_generating_set_greedy, cayley_columns_literal,
                     close_morphisms_literal, keys_of)
from test_fusion import perm_groups
from test_groups import (failing_triple, intercalates, literal_associative,
                         swap_intercalate)


def corpus_payload(name, p):
    G = builtin_group(name)
    return system_payload(fusion_of_group(G, sylow_subgroup(G.full_subgroup, p), p))


def literal_group(payload):
    """The group of a payload's generator columns, its table read off the
    columns of the breadth-first walk, entry by entry; nothing checked."""
    n = payload["order"]
    cols = cayley_columns_literal(n, payload["generator_columns"])
    return FiniteGroup(payload["group_name"],
                       [[cols[y][x] for y in range(n)] for x in range(n)])


def literal_load(payload):
    """Oracle: close the whole record with the Hom-form closure and compare
    it with F_S(W)."""
    G = literal_group(payload)
    S = G.subgroup(payload["support"])
    W = G.subgroup(payload["witness"])
    p = int(payload["prime"])
    fresh = fusion_of_group(W, S, p)
    seeds = []
    for entry in payload["classes"]:
        rep = G.subgroup(entry["rep"])
        for images in entry["aut_generators"]:
            seeds.append(Hom(rep, rep, images).validate())
        for bridge in entry["bridges"]:
            member = G.subgroup(bridge["member"])
            seeds.append(Hom(rep, member, bridge["from_rep"]).validate())
            seeds.append(Hom(member, rep, bridge["to_rep"]).validate())
    rebuilt = FusionSystem(S, p,
                           explicit=keys_of(close_morphisms_literal(S, seeds)))
    if not subsystem_equal(rebuilt, fresh):
        raise VerificationFailed("generator record does not regenerate")


def outcome(call):
    try:
        call()
    except Exception as exc:                    # noqa: BLE001 - compared by type
        return type(exc)
    return None


def automorphisms_of(P, limit=2000):
    """Up to ``limit`` candidate automorphisms of P as a group, each as its
    image list over P.members (identity first)."""
    G = P.parent
    gens, span = [], {0}
    for x in P.members:
        if x not in span:
            gens.append(x)
            span = set(G.closure(gens))
    choices = [[y for y in P.members if G.element_order(y) == G.element_order(g)]
               for g in gens]
    out = []
    for images in itertools.islice(itertools.product(*choices), limit):
        try:
            h = Hom.from_generator_images(P, P, gens, list(images))
        except NotAGroup:
            continue
        if h.is_injective:
            out.append(h.images)
    return out


def map_order(P, images):
    """Order of the automorphism of P with these images."""
    step = dict(zip(P.members, images))
    k, cur = 1, tuple(images)
    while cur != P.members:
        cur = tuple(step[y] for y in cur)
        k += 1
    return k


def mutations(payload):
    """(label, mutated payload): dropped generators, bridges and classes,
    foreign automorphisms added or swapped in, a class split in two, and
    bridges replaced by other group maps or collapsed onto 1."""
    G = literal_group(payload)
    W = G.subgroup(payload["witness"])
    F = fusion_of_group(W, G.subgroup(payload["support"]), payload["prime"])

    def mutated(edit):
        out = copy.deepcopy(payload)
        edit(out["classes"])
        return out

    for i, entry in enumerate(payload["classes"]):
        yield f"drop class {i}", mutated(lambda cs, i=i: cs.pop(i))
        for j in range(len(entry["aut_generators"])):
            yield (f"drop aut {i}.{j}",
                   mutated(lambda cs, i=i, j=j: cs[i]["aut_generators"].pop(j)))
        for j in range(len(entry["bridges"])):
            yield (f"drop bridge {i}.{j}",
                   mutated(lambda cs, i=i, j=j: cs[i]["bridges"].pop(j)))
        rep = G.subgroup(entry["rep"])
        if rep.order > 16:
            continue
        in_f = F._keys_from(rep)
        autos = automorphisms_of(rep)
        foreign = next((a for a in autos if a not in in_f), None)
        inner = next((a for a in autos if a in in_f and a != rep.members), None)
        if foreign is not None:
            yield (f"add foreign aut {i}",
                   mutated(lambda cs, i=i: cs[i]["aut_generators"].append(list(foreign))))
        for j, gen in enumerate(entry["aut_generators"]):
            # same order as the generator, so the span may keep its size
            twin = next((a for a in autos if a not in in_f
                         and map_order(rep, a) == map_order(rep, gen)), None)
            if twin is not None:

                def swap(cs, i=i, j=j, twin=twin):
                    cs[i]["aut_generators"][j] = list(twin)
                yield f"swap aut {i}.{j} for foreign", mutated(swap)
        if entry["bridges"]:

            def collapse(cs, i=i):
                cs[i]["bridges"][0] = {"member": [0], "to_rep": [0],
                                       "from_rep": [0] * len(cs[i]["rep"])}
            yield f"bridge {i}.0 to the trivial subgroup", mutated(collapse)

            def split(cs, i=i):
                member = G.subgroup(cs[i]["bridges"].pop()["member"])
                cs.append({"rep": list(member.members), "bridges": [],
                           "aut_generators": [list(h.images)
                                              for h in F.automorphisms(member)]})
            yield f"split class {i}", mutated(split)
        for j, bridge in enumerate(entry["bridges"]):
            old = dict(zip(rep.members, bridge["from_rep"]))
            for tag, alpha in (("F-map", inner), ("foreign map", foreign)):
                if alpha is None:
                    continue
                new = [old[y] for y in alpha]       # alpha, then from_rep

                def edit(cs, i=i, j=j, new=new):
                    cs[i]["bridges"][j]["from_rep"] = new
                yield f"bridge {i}.{j} by {tag}", mutated(edit)


SMALL = [(name, p) for name, p in CORPUS_ENTRIES
         if builtin_group(name).order <= 48]


@pytest.mark.parametrize("name,p", CORPUS_ENTRIES,
                         ids=[f"{n}@{p}" for n, p in CORPUS_ENTRIES])
def test_corpus_records_load_without_closure(name, p, tmp_path, monkeypatch):
    """Every honest record is certified, so neither the closure nor the
    multiplicativity test of a record map runs."""
    path = tmp_path / "x.fsk"
    path.write_text(json.dumps(corpus_payload(name, p)))

    def closure_called(*args):
        raise AssertionError("closure fallback ran on an honest record")

    def validated(self):
        raise AssertionError("a certified record map was validated")

    monkeypatch.setattr(persist, "close_morphisms", closure_called)
    monkeypatch.setattr(Hom, "validate", validated)
    F = load_system(path)
    G = builtin_group(name)
    assert F.universe._mul == G._mul
    assert F.universe.generator_indices == G.generator_indices


@pytest.mark.parametrize("name,p", CORPUS_ENTRIES,
                         ids=[f"{n}@{p}" for n, p in CORPUS_ENTRIES])
def test_aut_generators_match_greedy_span(name, p):
    """The generators a record keeps on Aut_F(rep) (``key_generators``)
    are the greedy span's choice, class by class, so records keep their
    bytes."""
    G = builtin_group(name)
    F = fusion_of_group(G, sylow_subgroup(G.full_subgroup, p), p)
    for cls in F.classes():
        got = key_generators(cls[0], F.automorphisms(cls[0]))
        assert got == aut_generating_set_greedy(F, cls[0]), cls[0].members


@pytest.mark.parametrize("name,p", SMALL, ids=[f"{n}@{p}" for n, p in SMALL])
def test_key_span_counts_the_table_closure(name, p):
    """Clause 4 of the certificate counts a span by a closure on image keys
    (``saturation.key_span``); it is the closure on the table of
    Aut_F(rep), for the recorded generators and for each set that drops
    one of them."""
    G = builtin_group(name)
    F = fusion_of_group(G, sylow_subgroup(G.full_subgroup, p), p)
    for cls in F.classes():
        rep = cls[0]
        gens = key_generators(rep, F.automorphisms(rep))
        mg = aut_group(F, rep)
        for drop in range(-1, len(gens)):
            kept = [h for i, h in enumerate(gens) if i != drop]
            want = {mg.homs[i].images
                    for i in mg.group.closure(mg.index_of(h) for h in kept)}
            assert key_span(rep, [h.images for h in kept]) == want


@pytest.mark.parametrize("mutant", ["removed", "shadow"])
def test_mutants_with_a_witness_do_not_save(F_s4, mutant, tmp_path):
    """A mutant that keeps the witness beside its own iso-sets has no file
    that loads as it: the file stores the witness, which regenerates the
    honest F.  Saving it is VerificationFailed and writes nothing, both
    for a removed automorphism, which leaves an Aut_F(P) that is no group,
    and for the inner shadow, whose automorphism sets are groups."""
    if mutant == "removed":
        P = next(P for P in F_s4.subgroups()
                 if len(F_s4.automorphisms(P)) == 6)
        index = next(i for i, h in enumerate(F_s4.isos_from(P))
                     if h.images != P.members)
        M = with_removed_iso(F_s4, P, index, keep_witness=True)
    else:
        M = inner_only_shadow(F_s4)
    assert M.realized and not M.from_witness
    path = tmp_path / "mutant.fsk"
    with pytest.raises(VerificationFailed, match="witness alone"):
        save_system(M, path)
    assert not path.exists()


# sha256 of the file ``fusionkit build`` writes for each corpus entry
BUILD_SHA256 = {
    "c2@2": "3bcd4e8de8bac80b54e97e452162fcb7496f2a34636c3eeb036228033eb849ee",
    "c4@2": "bc298c043c9553344645852da034fa0b1124a97c2b96df042219ccc4100c0d76",
    "c2xc2@2": "616ab66b6a02bc5184dfe6decbd6e1ec10a2f4b7bfabd5ab7671adb36b0b47a6",
    "c2xc4@2": "7368b6c9bb88abc2baeb7ccd8a2b2a8bff53bb09b2a80dea48d0f47d78205cb3",
    "d8@2": "908f2075dcf7618d69214b48fdfe6674955e91deb2606e65099a83bef7c9b923",
    "q8@2": "1fa578a190b8f8de8e93b5bf9ffc3b94be21fc66e6b5a115b0fe8639987514fb",
    "q8c4@2": "4dd5126dc9c208654fbb8e97f1fe0f5796be91f414633fe4480aaf1630c7dce4",
    "a4@2": "1ab2a0be51d5768cf91059de610dcafda8f44e09db949c206dc2277b1a1e9dd2",
    "c3xc3@3": "bb4b5ce58c4ab304d08cef396c8443c0bfb3125c4bd86cc730d4ce3a6716dc99",
    "c9@3": "39b39acfaf0df60dbea3f93993b2d3eb6d7e504c55f12537327e2d16c96642da",
    "a4@3": "e252c0aecf0a10b10d82aca549c93c60324f77a746a7717abe933ac41900df68",
    "c3c4@3": "83bce59885505ca64858bb6500e36ec77f974f127f84b6bd126c93591c7e48a6",
    "sl23@2": "df06191a543515907c97a1d7479371238c2afb5381ef54746c25e942850dcdb3",
    "sl23@3": "2f98fb320442aa79e38772ab0b1cdc9682c28569582ef3a36da644ea0f9f6e3e",
    "s4@2": "c7ab6921358ee47e84506e0bd1be22cbe7988f1b50378a43745f3cfe8888bd1a",
    "d8xc2@2": "4ab2d9f78c075fdbe00985682c5c6ca9dce8b0639013ae8e04ba397e36e70aec",
    "s3xs3@3": "edb0922fcb13c4a110c890f6be2765f16461d7f1c1bf5a073325052c78a77a37",
    "gl23@2": "53daab8f43b82958cbb671ff212b3c6b0f44b1d0d03b44185ff098e8bb977504",
    "s4xc2@2": "2a4cf73f9df243f1a92ce3c80dcd7ecb86f4113ae4d9d229092941e9cfacbf44",
    "a5@2": "82598ca6d254ae31396e18580495ef364c3e7f35e8ba2c384900dee6bd4bc70d",
    "a4xa4@2": "d403541d237a0d947c71a3939ab729935d93579b93760d1a55ce58ab99477464",
    "a6@2": "f3e031ecad4149e504da4a5db3644346e1c4d9bae93ba6032ee8c5aa87be770f",
}


@pytest.mark.parametrize("name,p", CORPUS_ENTRIES,
                         ids=[f"{n}@{p}" for n, p in CORPUS_ENTRIES])
def test_build_bytes_are_pinned(name, p, tmp_path, capsys):
    """``fusionkit build`` writes the recorded bytes for every entry."""
    path = tmp_path / "x.fsk"
    assert main(["build", str(builtin_group_path(name)), "-p", str(p),
                 "--out", str(path)]) == 0
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == BUILD_SHA256[f"{name}@{p}"]


def decide(path, monkeypatch):
    """(outcome of load_system, whether the closure fallback ran)."""
    fallbacks = []

    def counted(*args):
        fallbacks.append(1)
        return close_morphisms(*args)

    monkeypatch.setattr(persist, "close_morphisms", counted)
    return outcome(lambda: load_system(path)), bool(fallbacks)


@pytest.mark.parametrize("name,p", SMALL, ids=[f"{n}@{p}" for n, p in SMALL])
def test_mutated_records_match_literal_closure(name, p, tmp_path, monkeypatch):
    """load_system decides every mutated record as the literal closure does;
    in particular, whenever the certificate accepts, so does the closure."""
    for k, (label, payload) in enumerate(mutations(corpus_payload(name, p))):
        path = tmp_path / f"m{k}.fsk"
        path.write_text(json.dumps(payload))
        got, _ = decide(path, monkeypatch)
        assert got is outcome(lambda: literal_load(payload)), label


def test_mutations_reach_every_decision(tmp_path, monkeypatch):
    """The mutations include records the certificate accepts, records only
    the closure accepts (healed), and records both reject."""
    kinds = set()
    for k, (label, payload) in enumerate(mutations(corpus_payload("gl23", 2))):
        path = tmp_path / f"m{k}.fsk"
        path.write_text(json.dumps(payload))
        kinds.add(decide(path, monkeypatch))
    assert {(None, False), (None, True), (VerificationFailed, True)} <= kinds


def swap_aut_images(payload):
    """Swap the second and third images of the first aut generator of the
    support's class: a bijection that is not multiplicative."""
    images = payload["classes"][0]["aut_generators"][0]
    images[1], images[2] = images[2], images[1]


def _first_bridge(payload):
    return next(c for c in payload["classes"] if c["bridges"])["bridges"][0]


def from_rep_leaves_member(payload):
    bridge = _first_bridge(payload)
    bridge["from_rep"][-1] = min(set(range(payload["order"])) - set(bridge["member"]))


def to_rep_not_onto(payload):
    """The first bridge through the trivial subgroup: ``to_rep`` is
    injective and not onto its rep, ``from_rep`` the trivial map."""
    bridge = _first_bridge(payload)
    bridge.update(member=[0], to_rep=[0], from_rep=[0] * len(bridge["from_rep"]))


def swap_aut_images_then_bad_rep(payload):
    swap_aut_images(payload)
    payload["classes"][-1]["rep"] = [0, payload["order"]]


RECORD_FAULTS = {"swap-aut": swap_aut_images,
                 "from-rep-leaves-member": from_rep_leaves_member,
                 "to-rep-not-onto": to_rep_not_onto,
                 "swap-aut-then-bad-rep": swap_aut_images_then_bad_rep}
# The error each faulty record loads to, as when every record map was tested
# for multiplicativity as it was read; "{path}" stands for the file.
NOT_MULTIPLICATIVE = {"s4@2": (NotAGroup, "map is not multiplicative at (1,16)"),
                      "a6@2": (NotAGroup, "map is not multiplicative at (3,60)"),
                      "gl23@2": (NotAGroup, "map is not multiplicative at (3,12)")}
NOT_REGENERATED = (VerificationFailed,
                   "{path}: generator record does not regenerate the stored fusion")
RECORD_FAULT_OUTCOMES = {
    **{(label, "swap-aut"): NOT_MULTIPLICATIVE[label]
       for label in NOT_MULTIPLICATIVE},
    **{(label, "swap-aut-then-bad-rep"): NOT_MULTIPLICATIVE[label]
       for label in NOT_MULTIPLICATIVE},
    **{(label, "from-rep-leaves-member"): (NotAGroup, "image leaves the codomain")
       for label in NOT_MULTIPLICATIVE},
    ("s4@2", "to-rep-not-onto"): NOT_REGENERATED,
    ("a6@2", "to-rep-not-onto"): NOT_REGENERATED,
    ("gl23@2", "to-rep-not-onto"): (MorphismOutsideSupport,
                                    "morphism image leaves the support"),
}


@pytest.mark.parametrize("label,fault", sorted(RECORD_FAULT_OUTCOMES),
                         ids=[f"{lab}-{f}" for lab, f in sorted(RECORD_FAULT_OUTCOMES)])
def test_faulty_record_maps_raise_as_checked_on_read(label, fault, tmp_path):
    """Record maps are tested for multiplicativity only once the
    certificate fails or raises, and every faulty record still raises the
    error, type and message, of testing each map as it is read."""
    name, p = label.split("@")
    payload = corpus_payload(name, int(p))
    RECORD_FAULTS[fault](payload)
    path = tmp_path / "x.fsk"
    path.write_text(json.dumps(payload))
    kind, message = RECORD_FAULT_OUTCOMES[label, fault]
    with pytest.raises(kind) as info:
        load_system(path)
    assert str(info.value) == message.format(path=path)


# -- round trip, witnesses and the associativity report -------------------------


def check_round_trip(F, path):
    """``path`` holds ``save_system(F)``: it parses to ``system_payload(F)``
    and loads to a system with F's table, content key and iso-sets."""
    assert json.loads(path.read_text()) == system_payload(F)
    got = load_system(path)
    assert got.universe._mul == F.universe._mul
    assert got.content_key == F.content_key
    assert [P.members for P in got.subgroups()] == [P.members for P in F.subgroups()]
    assert all(got._keys_from(P) == F._keys_from(F.universe.subgroup(P.members))
               for P in got.subgroups())
    # the same system rebuilt over the loaded table is equal to it
    G = got.universe
    assert subsystem_equal(got, fusion_of_group(
        G.subgroup(F.witness.members), G.subgroup(F.support.members), F.p))


@pytest.mark.parametrize("name,p", SMALL, ids=[f"{n}@{p}" for n, p in SMALL])
def test_build_round_trip(name, p, tmp_path, capsys):
    """``fusionkit build`` then ``load_system`` on each entry of order <= 48."""
    path = tmp_path / "x.fsk"
    assert main(["build", str(builtin_group_path(name)), "-p", str(p),
                 "--out", str(path)]) == 0
    G = builtin_group(name)
    check_round_trip(fusion_of_group(G, sylow_subgroup(G.full_subgroup, p), p,
                                     name=f"F({G.name}@{p})"), path)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(perm_groups())
def test_generated_round_trip(case):
    """``save_system`` then ``load_system`` on groups generated by two
    permutations of degree <= 5."""
    G, p = case
    F = fusion_of_group(G, sylow_subgroup(G.full_subgroup, p), p)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.fsk"
        save_system(F, path)
        check_round_trip(F, path)


def test_saved_files_are_compact(tmp_path):
    """One line of JSON with no whitespace between tokens."""
    path = tmp_path / "x.fsk"
    G = builtin_group("s4")
    save_system(fusion_of_group(G, sylow_subgroup(G.full_subgroup, 2), 2), path)
    text = path.read_text()
    assert text.count("\n") == 1 and text.endswith("\n")
    assert ", " not in text and ": " not in text


@pytest.mark.parametrize("edit", [lambda w: w[::-1], lambda w: w + w[:3]],
                         ids=["unsorted", "repeats"])
def test_full_witness_is_not_rechecked(edit, tmp_path, monkeypatch):
    """A witness holding every element, in any order and with repeats, is
    the whole group: it loads without the checked subgroup construction."""
    payload = corpus_payload("s4", 2)
    payload["witness"] = edit(payload["witness"])
    path = tmp_path / "x.fsk"
    path.write_text(json.dumps(payload))
    checked = []
    subgroup = FiniteGroup.subgroup

    def counted(self, members):
        members = list(members)
        if len(set(members)) == self.order:
            checked.append(members)
        return subgroup(self, members)

    monkeypatch.setattr(FiniteGroup, "subgroup", counted)
    F = load_system(path)
    assert not checked
    assert F.witness is F.universe.full_subgroup


def test_witness_that_is_not_a_subgroup_exits_two(tmp_path, capsys):
    """A witness one element short of the whole group is still checked as a
    subgroup, and fails."""
    payload = corpus_payload("s4", 2)
    payload["witness"] = payload["witness"][:-1]
    path = tmp_path / "x.fsk"
    path.write_text(json.dumps(payload))
    with pytest.raises(NotAGroup):
        load_system(path)
    assert main(["centralizer", str(path), "--normal", "order:4"]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("outside", [99, -1])
def test_support_member_outside_the_group_exits_two(outside, tmp_path,
                                                     capsys):
    """A support holding a member that is no element of the group fails
    to load with a ParseError that names it, where 99 failed as a
    malformed record (an index past the table) and -1 aliased the last
    element."""
    payload = corpus_payload("s4", 2)
    payload["support"] = payload["support"] + [outside]
    path = tmp_path / "x.fsk"
    path.write_text(json.dumps(payload))
    message = f"subgroup member {outside} is not an element"
    with pytest.raises(ParseError, match=message):
        load_system(path)
    assert main(["centralizer", str(path), "--normal", "order:4"]) == 2
    assert message in capsys.readouterr().err


def assert_names_a_failing_triple(table, call):
    with pytest.raises(NotAGroup, match="associativity") as info:
        call()
    x, y, g = failing_triple(info.value)
    assert table[table[x][y]][g] != table[x][table[y][g]]


@pytest.mark.parametrize("name", sorted({n for n, p in SMALL}))
def test_associativity_report_names_a_failing_triple(name):
    """On every non-associative swap of the first intercalates of each table
    of order <= 48, the reported (x, y, g) really fails (xy)g = x(yg)."""
    table = [list(row) for row in builtin_group(name)._mul]
    rest = range(1, len(table))
    for quad in intercalates(table, rest, set(rest))[:4]:
        bad = swap_intercalate(table, quad)
        if not literal_associative(bad):
            assert_names_a_failing_triple(bad, lambda: group_from_table("t", bad))


def test_load_reports_a_failing_triple(tmp_path):
    """A stored generator column with two entries swapped is still a
    permutation with the right entry 0, and fails to load with NotAGroup
    at an (x, y, g) where the columns the walk met give (xy)g != x(yg)."""
    payload = corpus_payload("s4", 2)
    col = payload["generator_columns"][0]
    col[1], col[2] = col[2], col[1]
    path = tmp_path / "x.fsk"
    path.write_text(json.dumps(payload))
    with pytest.raises(NotAGroup, match="associativity") as info:
        load_system(path)
    x, y, g = failing_triple(info.value)
    cols = payload["generator_columns"]
    walked = cayley_columns_literal(payload["order"], cols)
    col_g = cols[payload["generator_indices"].index(g)]
    assert col_g[walked[y][x]] != walked[col_g[y]][x]


def test_format_1_file_exits_two(tmp_path, capsys):
    """A file of the format that stored the whole table is refused."""
    payload = corpus_payload("s4", 2)
    G = builtin_group("s4")
    payload["format"] = 1
    payload["table"] = [list(row) for row in G._mul]
    del payload["generator_columns"]
    path = tmp_path / "x.fsk"
    path.write_text(json.dumps(payload))
    with pytest.raises(ParseError, match="unsupported container format"):
        load_system(path)
    assert main(["centralizer", str(path), "--normal", "order:4"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_table_group_round_trip(tmp_path, capsys):
    """A system built from a multiplication-table group file stores the
    greedy right-span generators and loads to the same table."""
    table = [list(row) for row in builtin_group("q8")._mul]
    group_file = tmp_path / "q8t.json"
    group_file.write_text(json.dumps(
        {"name": "q8t", "kind": "multiplication-table", "table": table}))
    path = tmp_path / "q8t.fsk"
    assert main(["build", str(group_file), "-p", "2", "--out", str(path)]) == 0
    G = ingest(group_file)
    assert list(G.generator_indices) == right_span_generators(table)
    assert json.loads(path.read_text())["generator_indices"] == \
        right_span_generators(table)
    check_round_trip(fusion_of_group(G, sylow_subgroup(G.full_subgroup, 2), 2,
                                     name="F(q8t@2)"), path)
