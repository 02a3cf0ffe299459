"""CLI and persistence: round-trips, exit codes, malformed input."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from fusionkit import verify
from fusionkit.cli import main, resolve_morphism, resolve_subgroup
from fusionkit.corpus import (builtin_group, builtin_group_path,
                              corpus_entries, ingest)
from fusionkit.errors import (FusionkitError, NotAGroup, ParseError,
                              TheoremViolation)
from fusionkit.groups import active_caps, sylow_subgroup
from fusionkit.persist import load_system, save_system
from fusionkit.verify import run_suite, suite_report


@pytest.fixture()
def s4_file(tmp_path):
    src = builtin_group_path("s4").read_text()
    out = tmp_path / "s4.json"
    out.write_text(src)
    return out


@pytest.fixture()
def s4_fsk(tmp_path, s4_file):
    assert main(["build", str(s4_file), "-p", "2",
                 "--out", str(tmp_path / "s4.fsk")]) == 0
    return tmp_path / "s4.fsk"


@pytest.fixture()
def corrupt_fsk(s4_fsk, tmp_path):
    # Deletions heal through the closure (conjugation-family redundancy),
    # so corrupt by injecting extra fusion: a valid automorphism of the
    # Klein subgroup whose F-automizer is only C2 (a 3-cycle on its
    # involutions is a group automorphism but not a fusion morphism).
    payload = json.loads(Path(s4_fsk).read_text())
    hit = False
    for entry in payload["classes"]:
        rep = entry["rep"]
        if len(rep) == 4 and len(entry["aut_generators"]) == 1:
            m = rep
            entry["aut_generators"].append([m[0], m[2], m[3], m[1]])
            hit = True
            break
    assert hit
    bad = tmp_path / "bad.fsk"
    bad.write_text(json.dumps(payload))
    return bad


class TestIngest:
    def test_permutation_generators(self, s4_file):
        G = ingest(s4_file)
        assert G.order == 24

    def test_table_kind(self, tmp_path):
        payload = {"name": "q8t", "kind": "multiplication-table",
                   "table": builtin_table("q8")}
        f = tmp_path / "q8t.json"
        f.write_text(json.dumps(payload))
        assert ingest(f).order == 8

    def test_malformed_json(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text("{not json")
        with pytest.raises(ParseError):
            ingest(f)

    def test_malformed_latin_square(self, tmp_path):
        payload = {"name": "bad", "kind": "multiplication-table",
                   "table": [[0, 1], [1, 1]]}
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(payload))
        with pytest.raises(NotAGroup):
            ingest(f)

    def test_bad_generator_length(self, tmp_path):
        payload = {"name": "bad", "kind": "permutation-generators",
                   "generators": [[2, 1], [1, 2, 3]]}
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(payload))
        with pytest.raises(NotAGroup):
            ingest(f)


def builtin_table(name):
    G = builtin_group(name)
    return [list(row) for row in G._mul]


class TestPersistence:
    def test_round_trip(self, s4_fsk):
        F = load_system(s4_fsk)
        from fusionkit.fusion import fusion_of_group
        g = builtin_group("s4")
        fresh = fusion_of_group(g, sylow_subgroup(g.full_subgroup, 2), 2)
        # same universe table, same support, hom-set-wise equal
        assert F.universe.order == fresh.universe.order
        assert F.support.members == fresh.support.members
        assert {P.members: {h.images for h in F.isos_from(P)}
                for P in F.subgroups()} == \
               {P.members: {h.images for h in fresh.isos_from(P)}
                for P in fresh.subgroups()}

    def test_corrupted_record_rejected(self, corrupt_fsk):
        with pytest.raises(FusionkitError):
            load_system(corrupt_fsk)

    def test_unsupported_format(self, tmp_path):
        f = tmp_path / "x.fsk"
        f.write_text(json.dumps({"format": 99}))
        with pytest.raises(ParseError):
            load_system(f)


def _set(key, value):
    return lambda payload: payload.__setitem__(key, value)


def _set_column(payload):
    payload["generator_columns"][0] = 5


def _set_generator_index(value):
    def mutate(payload):
        payload["generator_indices"][0] = value
    return mutate


def _set_column_value(at, value):
    def mutate(payload):
        payload["generator_columns"][0][at] = value
    return mutate


def _swap_column_entries(i, j):
    def mutate(payload):
        col = payload["generator_columns"][0]
        col[i], col[j] = col[j], col[i]
    return mutate


def _first_generator_only(payload):
    """The first generator of s4, (1 2), which does not generate it."""
    payload["generator_indices"] = payload["generator_indices"][:1]
    payload["generator_columns"] = payload["generator_columns"][:1]


def _add_support_index(payload):
    payload["support"].append(999)


def _float_generator_index(payload):
    payload["generator_indices"][0] += 0.5      # int() would truncate it back


def _bool_entry(pick):
    """Replace the first 0 or 1 in the list ``pick(payload)`` with the
    bool of equal value: ``bool`` is an ``int`` subclass, so an unchecked
    ``true`` would load as 1."""
    def mutate(payload):
        values = pick(payload)
        i = next(i for i, v in enumerate(values) if v in (0, 1))
        values[i] = bool(values[i])
    return mutate


def _bridge(payload):
    return next(e for e in payload["classes"] if e["bridges"])["bridges"][0]


def _aut_image(payload):
    return next(e for e in payload["classes"] if e["aut_generators"])[
        "aut_generators"][0]


def _table_with(entry):
    """q8's table with the entry 1 at (1, 0) replaced by ``entry``."""
    table = builtin_table("q8")
    table[1][0] = entry
    return {"name": "g", "kind": "multiplication-table", "table": table}


def _s4_with_image(image):
    """s4's generators with the image 2 of the first replaced by ``image``."""
    return {"name": "g", "kind": "permutation-generators",
            "generators": [[image, 1, 3, 4], [2, 3, 4, 1]]}


class TestMalformedInput:
    """Malformed fields exit 2 with an ``error:`` line, never a traceback.
    Integer fields take exact integers only: a string, float or bool that
    ``int()`` would accept is still a parse error."""

    @pytest.mark.parametrize("mutate", [
        _set("prime", "x"), _set_column_value(2, "x"), _set("generator_columns", 5),
        _set("classes", 3), _add_support_index,
        _set_generator_index(999), _first_generator_only,
        _set("prime", 4), _set("prime", 1), _set("prime", 2.5),
        _set("prime", "2"), _float_generator_index,
        _bool_entry(lambda d: d["support"]), _bool_entry(lambda d: d["witness"]),
        _bool_entry(lambda d: d["classes"][-1]["rep"]),
        _bool_entry(lambda d: _bridge(d)["member"]), _bool_entry(_aut_image),
        _bool_entry(lambda d: _bridge(d)["from_rep"]),
        _bool_entry(lambda d: _bridge(d)["to_rep"]),
        _set_column, _bool_entry(lambda d: d["generator_columns"][0]),
        _set_generator_index("6"), _set("generator_indices", 5),
        _set_generator_index(True), _set("order", "24"), _set("order", True),
        _set("order", 24.0), _set("order", [24]),
    ], ids=["prime", "column-entry", "columns", "classes", "support-index",
            "generator-index-range", "generator-index-span", "prime-composite",
            "prime-one", "prime-float", "prime-string", "generator-index-float",
            "support-bool", "witness-bool", "rep-bool", "member-bool",
            "aut-image-bool", "from-rep-bool", "to-rep-bool", "column",
            "column-bool", "generator-index-string", "generator-indices",
            "generator-index-bool", "order-string", "order-bool", "order-float",
            "order-list"])
    def test_malformed_fsk(self, mutate, s4_fsk, tmp_path, capsys):
        payload = json.loads(s4_fsk.read_text())
        mutate(payload)
        bad = tmp_path / "bad.fsk"
        bad.write_text(json.dumps(payload))
        with pytest.raises(ParseError):
            load_system(bad)
        code = main(["centralizer", str(bad), "--normal", "gens:g0"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("mutate,match", [
        (_set_column_value(5, 4), "not a permutation"),
        (_swap_column_entries(0, 1), "entry 0"),
        (_swap_column_entries(1, 2), "associativity"),
    ], ids=["column-not-a-permutation", "column-entry-0", "column-swap"])
    def test_generator_columns_that_are_not_a_group(self, mutate, match, s4_fsk,
                                                    tmp_path, capsys):
        payload = json.loads(s4_fsk.read_text())
        mutate(payload)
        bad = tmp_path / "bad.fsk"
        bad.write_text(json.dumps(payload))
        with pytest.raises(NotAGroup, match=match):
            load_system(bad)
        assert main(["centralizer", str(bad), "--normal", "gens:g0"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("payload", [
        {"name": "g", "kind": "permutation-generators", "generators": ["21", "12"]},
        {"name": "g", "kind": "permutation-generators", "generators": [5, 6]},
        {"name": "g", "kind": "multiplication-table", "table": [[0, 1], [1, "x"]]},
        _table_with("1"), _table_with(1.0), _table_with(True),
        _s4_with_image(2.5), _s4_with_image("2"),
    ], ids=["string-generators", "non-list-generators", "string-table-entry",
            "numeric-string-table-entry", "float-table-entry",
            "bool-table-entry", "float-image", "string-image"])
    def test_malformed_group_file(self, payload, tmp_path, capsys):
        f = tmp_path / "g.json"
        f.write_text(json.dumps(payload))
        with pytest.raises(ParseError):
            ingest(f)
        code = main(["build", str(f), "-p", "2", "--out", str(tmp_path / "g.fsk")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("spec", ["order:x", "elts:a", "elts:99",
                                      "gens:gx", "gens:g9"])
    def test_malformed_subgroup_spec(self, spec, s4_fsk, capsys):
        code = main(["centralizer", str(s4_fsk), "--normal", spec])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("spec", ["99->0", "0->99"])
    def test_out_of_range_morphism_spec(self, spec, s4_fsk, capsys):
        code = main(["alperin", str(s4_fsk), "--morphism", spec])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("primes", ["x", [0], 2, [4]],
                             ids=["string", "zero", "not-a-list", "composite"])
    def test_malformed_primes(self, primes, s4_file, tmp_path, capsys):
        payload = json.loads(s4_file.read_text())
        payload["primes"] = primes
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "s4.json").write_text(json.dumps(payload))
        code = main(["verify", "corpus", "--corpus-dir", str(corpus),
                     "--checks", "focal-oracle"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")


    @pytest.mark.parametrize("prime", ["0", "1", "4", "6"])
    def test_non_prime_build(self, prime, s4_file, tmp_path, capsys):
        """A non-prime exits 2 before any group work: ``p_part`` is undefined
        at p = 0 and p = 1, and at p = 4 or 6 no Sylow subgroup exists."""
        out = tmp_path / "s4.fsk"
        code = main(["build", str(s4_file), "-p", prime, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "must be a prime" in err
        assert not out.exists()


class TestSubgroupSpecs:
    def test_order_spec(self, s4_fsk):
        F = load_system(s4_fsk)
        assert resolve_subgroup(F, "order:12").order == 12

    def test_missing_order(self, s4_fsk):
        F = load_system(s4_fsk)
        with pytest.raises(FusionkitError):
            resolve_subgroup(F, "order:7")

    def test_elts_spec(self, s4_fsk):
        F = load_system(s4_fsk)
        sub = resolve_subgroup(F, "elts:1")
        assert sub.order == F.universe.element_order(1)

    def test_gens_spec(self, s4_fsk):
        F = load_system(s4_fsk)
        # g0 = (12), g1 = (1234); <g1^2, g0*g1...> just exercise the parser
        sub = resolve_subgroup(F, "gens:g1^2")
        assert sub.order == 2
        whole = resolve_subgroup(F, "gens:g0,g1")
        assert whole.order == 24

    def test_morphism_spec(self, s4_fsk):
        F = load_system(s4_fsk)
        Z = [P for P in F.subgroups() if P.order == 2]
        a = Z[0].members[1]
        targets = [h.codomain.members[1] for h in F.isos_from(Z[0])
                   if h.codomain != Z[0]]
        phi = resolve_morphism(F, f"{a}->{targets[0]}")
        assert phi.domain.order == 2

    def test_bad_morphism_spec(self, s4_fsk):
        F = load_system(s4_fsk)
        with pytest.raises(FusionkitError):
            resolve_morphism(F, "nonsense")


class TestCommands:
    def test_build_summary(self, s4_fsk):
        assert s4_fsk.exists()

    def test_centralizer_json(self, s4_fsk, tmp_path, capsys):
        out = tmp_path / "c.json"
        code = main(["centralizer", str(s4_fsk), "--normal", "order:12",
                     "--json", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["C_S_E"] == [0]
        assert payload["R_star"] == [0]
        captured = capsys.readouterr().out
        assert "C_S(E)" in captured

    def test_product_command(self, s4_fsk, capsys):
        code = main(["product", str(s4_fsk), "--f1", "order:4",
                     "--f2", "order:4"])
        assert code == 0
        assert "radical_intersect" in capsys.readouterr().out

    def test_alperin_command(self, s4_fsk, capsys):
        F = load_system(s4_fsk)
        Z = [P for P in F.subgroups() if P.order == 2][0]
        cross = next(h for h in F.isos_from(Z) if h.codomain != Z)
        spec = f"{Z.members[1]}->{cross(Z.members[1])}"
        code = main(["alperin", str(s4_fsk), "--morphism", spec])
        assert code == 0
        assert "recomposition matches: True" in capsys.readouterr().out

    def test_verify_fsk(self, s4_fsk, tmp_path):
        out = tmp_path / "report.json"
        code = main(["verify", str(s4_fsk), "--checks",
                     "saturation,FocProp,MainCSE.a", "--json", str(out)])
        assert code == 0
        reports = json.loads(out.read_text())
        assert reports[0]["checks"][0]["status"] == "pass"

    def test_verify_checks_the_loaded_system(self, F_s4, E_a4, tmp_path,
                                             capsys, monkeypatch):
        """``verify SYSTEM`` checks the system in the file, not F_S(G) of
        its universe: on F_{V4}(A4) of s4@2 the normal pairs are those of
        the witness A4 over V4, three of them, and all 32 checks pass."""
        path = tmp_path / "a4.fsk"
        save_system(E_a4, path)
        seen = []
        build = verify.normal_subsystem_in

        def recorded(F, N):
            seen.append((F.support.order, F.witness.order))
            return build(F, N)

        monkeypatch.setattr(verify, "normal_subsystem_in", recorded)
        assert main(["verify", str(path)]) == 0
        assert "pass  (32/32 checks)" in capsys.readouterr().out
        assert seen == [(4, 12)] * 3
        assert len(verify.normal_pairs(load_system(path))) == 3

    def test_verify_fsk_reports_the_corpus_entry(self, s4_fsk, tmp_path):
        """The full report on the saved F_S(S4) is the corpus report of
        s4@2 but for the label."""
        out = tmp_path / "report.json"
        assert main(["verify", str(s4_fsk), "--json", str(out)]) == 0
        [report] = json.loads(out.read_text())
        s4 = builtin_group("s4")
        assert {**report, "entry": "s4@2"} == suite_report(
            "s4@2", 2, run_suite("s4@2", s4, 2))

    def test_verify_exit_code_contract(self, tmp_path, s4_file, capsys):
        # unknown check id is a usage error
        code = main(["verify", "corpus", "--checks", "NoSuch"])
        assert code == 2

    @pytest.mark.parametrize("checks", [",", "", " , "])
    def test_empty_check_selection_is_a_usage_error(self, checks, capsys):
        """A selection that names no check verifies nothing: exit 2."""
        code = main(["verify", "corpus", "--checks", checks])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error:") and "no check" in captured.err

    def test_corpus_dir_without_group_files_is_a_usage_error(self, tmp_path,
                                                             capsys):
        (tmp_path / "notes.txt").write_text("not a group file")
        code = main(["verify", "corpus", "--corpus-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error:") and "no entry" in captured.err

    def test_verification_failed_exits_one(self, corrupt_fsk, capsys):
        code = main(["centralizer", str(corrupt_fsk), "--normal", "order:12"])
        assert code == 1
        assert "does not regenerate" in capsys.readouterr().err

    def test_theorem_violation_exits_one(self, s4_fsk, monkeypatch):
        def violated(F, E):
            raise TheoremViolation("C_S(E) is not strongly closed")

        monkeypatch.setattr("fusionkit.cli.compute_centralizer_data", violated)
        code = main(["centralizer", str(s4_fsk), "--normal", "order:12"])
        assert code == 1

    def test_other_library_error_exits_two(self, s4_fsk):
        # a plain FusionkitError: S4 has no normal subgroup of order 7
        code = main(["centralizer", str(s4_fsk), "--normal", "order:7"])
        assert code == 2

    def test_non_normal_subgroup_exits_two(self, s4_fsk, capsys):
        """elts:1 is a subgroup of order 2 that is not normal in S4: exit 2
        with the reason on stderr and nothing on stdout."""
        code = main(["centralizer", str(s4_fsk), "--normal", "elts:1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == ("error: subgroup of order 2 is not normal "
                                "in the witness\n")

    def test_usage_error_on_bad_file(self, tmp_path):
        missing = tmp_path / "missing.fsk"
        code = main(["verify", str(missing)])
        assert code == 2

    @pytest.mark.parametrize("command", [
        lambda fsk, out: ["build", str(builtin_group_path("s4")), "-p", "2",
                          "--out", out],
        lambda fsk, out: ["centralizer", fsk, "--normal", "order:12",
                          "--json", out],
        lambda fsk, out: ["verify", fsk, "--checks", "saturation",
                          "--json", out],
    ], ids=["build-out", "centralizer-json", "verify-json"])
    def test_unwritable_output_is_a_usage_error(self, command, s4_fsk,
                                                tmp_path, capsys):
        """An output path into a missing directory exits 2 with an error
        line naming it, not a traceback."""
        out = str(tmp_path / "nodir" / "x.out")
        code = main(command(str(s4_fsk), out))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: cannot write {out}:")

    def test_report_has_no_timings_by_default(self, s4_fsk, tmp_path):
        out = tmp_path / "r.json"
        main(["verify", str(s4_fsk), "--checks", "saturation",
              "--json", str(out)])
        payload = json.loads(out.read_text())
        assert "millis" not in payload[0]["checks"][0]
        out2 = tmp_path / "r2.json"
        main(["verify", str(s4_fsk), "--checks", "saturation", "--timings",
              "--json", str(out2)])
        assert "millis" in json.loads(out2.read_text())[0]["checks"][0]

    def test_byte_identical_reports(self, s4_fsk, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["verify", str(s4_fsk), "--checks",
                "saturation,MainCSE.a,Coincide,P:F1F2Centralize"]
        main(args + ["--json", str(a)])
        main(args + ["--json", str(b)])
        assert a.read_bytes() == b.read_bytes()


def test_one_process_serves_several_requests(s4_file, tmp_path, capsys):
    """``main`` reuses one parser per process: build, centralizer, a usage
    error, then centralizer again, each with its own exit code and output."""
    fsk = tmp_path / "s4@2.fsk"
    assert main(["build", str(s4_file), "-p", "2", "--out", str(fsk)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("built F(s4@2): |G|=24, |S|=8") and str(fsk) in out
    argv = ["centralizer", str(fsk), "--normal", "order:4"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert first.startswith("T = S n N: order 4\n")
    assert "C_F(E): support order" in first
    with pytest.raises(SystemExit) as usage:
        main(["centralizer", str(fsk)])
    assert usage.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--normal" in captured.err
    assert main(argv) == 0
    assert capsys.readouterr().out == first


@pytest.mark.xfail(strict=True, raises=KeyError,
                   reason="product on factors whose supports do not commute "
                          "dies in subsystems.extension_witness (known defect)")
def test_product_on_non_commuting_supports_exits(tmp_path, capsys):
    src = tmp_path / "d8.json"
    src.write_text(builtin_group_path("d8").read_text())
    fsk = tmp_path / "d8.fsk"
    assert main(["build", str(src), "-p", "2", "--out", str(fsk)]) == 0
    code = main(["product", str(fsk), "--f1", "order:8", "--f2", "order:4"])
    assert isinstance(code, int)


class TestCaps:
    """The cap flags set the process-wide ``active_caps``; main() leaves
    them set, so each test restores them."""

    @pytest.fixture(autouse=True)
    def restore_caps(self, monkeypatch):
        monkeypatch.setattr(active_caps, "group", active_caps.group)
        monkeypatch.setattr(active_caps, "lattice", active_caps.lattice)

    @pytest.mark.parametrize("flag", ["--group-cap", "--lattice-cap"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_non_positive_cap_verify(self, flag, value, capsys):
        code = main([flag, value, "verify", "corpus", "--checks", "focal-oracle"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("flag", ["--group-cap", "--lattice-cap"])
    def test_non_positive_cap_build(self, flag, s4_file, tmp_path, capsys):
        out = tmp_path / "s4.fsk"
        code = main([flag, "-1", "build", str(s4_file), "-p", "2",
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "must be positive" in err
        assert not out.exists()

    def test_corpus_entries_honour_group_cap(self, monkeypatch):
        monkeypatch.setattr(active_caps, "group", 100)
        labels = [label for label, _, _ in corpus_entries()]
        assert len(labels) == 20
        assert "a4xa4@2" not in labels and "a6@2" not in labels

    def test_verify_corpus_honours_group_cap(self, capsys):
        code = main(["--group-cap", "100", "verify", "corpus",
                     "--checks", "focal-oracle"])
        assert code == 0
        labels = [line.split()[0]
                  for line in capsys.readouterr().out.splitlines()]
        assert len(labels) == 20
        assert "a4xa4@2" not in labels and "a6@2" not in labels

    def test_group_cap_below_every_entry_is_a_usage_error(self, capsys):
        code = main(["--group-cap", "1", "verify", "corpus"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error:") and "no entry" in captured.err

    def test_caps_do_not_leak_into_later_calls(self, capsys):
        """A cap set by one in-process call is not the default of the next."""
        assert main(["--group-cap", "100", "verify", "corpus",
                     "--checks", "focal-oracle"]) == 0
        capsys.readouterr()
        assert main(["verify", "corpus", "--checks", "focal-oracle"]) == 0
        labels = [line.split()[0]
                  for line in capsys.readouterr().out.splitlines()]
        assert len(labels) == 22
        assert "a4xa4@2" in labels and "a6@2" in labels
