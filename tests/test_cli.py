"""Tests for the command-line front end: reports, determinism, exit codes."""

import argparse
import hashlib
import json
from pathlib import Path

import pytest

from qsubgroups.cli import (
    EXIT_GUARD,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_PARSE,
    _Parser,
    build_parser,
    main,
)

from oracles import clear_library_memos

C3_FLAGS = ["--type", "C", "--rank", "3", "--ell", "11", "--family-c3", "1,2,0"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def json_lines(text):
    return [json.loads(line) for line in text.splitlines() if line.strip()]


class TestValidatePhi:
    def test_worked_family_valid(self, capsys):
        code, out = run_cli(capsys, "validate-phi", *C3_FLAGS)
        assert code == EXIT_OK
        (record,) = json_lines(out)
        assert record["results"]["valid"] is True
        assert record["inputs"]["y"] == [[2, -1, -1], [4, -1, -1], [5, -1, -1]]

    def test_zero_matrix_valid(self, capsys):
        code, out = run_cli(
            capsys, "validate-phi", "--type", "A", "--rank", "2", "--ell", "5"
        )
        assert code == EXIT_OK
        (record,) = json_lines(out)
        assert record["results"]["valid"] is True

    def test_all_ones_invalid_with_report(self, capsys):
        code, out = run_cli(
            capsys,
            "validate-phi",
            "--type",
            "C",
            "--rank",
            "3",
            "--ell",
            "11",
            "--y",
            "[[1,1,1],[1,1,1],[1,1,1]]",
        )
        assert code == EXIT_INVALID
        (record,) = json_lines(out)
        conditions = {v["condition"] for v in record["results"]["violations"]}
        assert "dx_antisymmetric" in conditions


class TestKernel:
    def test_worked_pair(self, capsys):
        code, out = run_cli(
            capsys, "kernel", *C3_FLAGS, "--iplus", "2", "--iminus", "1"
        )
        assert code == EXIT_OK
        records = json_lines(out)
        results = records[0]["results"]
        assert results["matrix"] == [[2, 3, 2], [5, 8, 10]]
        assert results["matrix_canonical_rows"] == [[1, 0, 8], [0, 1, 10]]
        assert results["kernel_order"] == 11

    def test_worked_pair_b(self, capsys):
        code, out = run_cli(
            capsys,
            "kernel",
            *C3_FLAGS,
            "--iplus",
            "2",
            "--sigma-gen",
            "5,8,10",
            "--sigma-gen",
            "2,3,2",
        )
        assert code == EXIT_OK
        records = json_lines(out)
        assert records[0]["results"]["kernel_order"] == 121
        triple = records[1]["results"]
        assert triple["sigma_order"] == 121
        assert triple["n_order"] == 11
        assert triple["order_identity"] is True

    def test_empty_sets_full_kernel(self, capsys):
        code, out = run_cli(capsys, "kernel", *C3_FLAGS)
        assert code == EXIT_OK
        (record,) = json_lines(out)
        assert record["results"]["matrix"] == []
        assert record["results"]["kernel_order"] == 11**3

    def test_invalid_triple_exit(self, capsys):
        code, out = run_cli(
            capsys,
            "kernel",
            *C3_FLAGS,
            "--iplus",
            "2",
            "--iminus",
            "1",
            "--sigma-gen",
            "2,3,2",
        )
        assert code == EXIT_INVALID
        assert json_lines(out)[-1]["results"]["triple_valid"] is False

    def test_malformed_sigma_generator_prints_nothing(self, capsys, tmp_path):
        """A Sigma generator of the wrong length fails the command before
        the kernel record is written, inline or from a spec file."""
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"type": "A", "rank": 2, "ell": 3,
                                    "sigma": {"generators": [[1, 2, 3]]}}))
        a2 = ["--type", "A", "--rank", "2", "--ell", "3"]
        for argv in (["kernel", *a2, "--sigma-gen", "1,2,3"],
                     ["kernel", *a2, "--sigma-sym", "vector:1,2,3"],
                     ["kernel", "--spec", str(path)]):
            code = main(argv)
            captured = capsys.readouterr()
            assert (code, captured.out) == (EXIT_INVALID, ""), argv
            assert captured.err == "invalid input: generator length mismatch\n"


class TestGoldenTranscripts:
    def test_worked_c3_transcripts(self, capsys):
        """The worked C3 kernel and datum commands and the enumerate
        commands keep their exit codes and their stdout byte for byte."""
        path = Path(__file__).parent / "fixtures" / "cli_golden.json"
        for case in json.loads(path.read_text(encoding="utf-8")):
            code, out = run_cli(capsys, *case["argv"])
            assert (code, out) == (case["exit"], case["stdout"]), case["argv"]


class TestDatum:
    def test_worked_datum(self, capsys):
        code, out = run_cli(
            capsys,
            "datum",
            *C3_FLAGS,
            "--iplus",
            "2",
            "--sigma-sym",
            "ktilde:1",
            "--sigma-sym",
            "kbar:2",
        )
        assert code == EXIT_OK
        (record,) = json_lines(out)
        results = record["results"]
        assert results["valid"] is True
        assert results["n_order"] == 11
        assert results["sigma_order"] == 121
        assert results["dim_h"] == {"base": 11, "cofactor": 1, "exponent": 3}

    def test_worked_datum_validates_once(self, capsys, monkeypatch):
        """One datum report runs validate_datum exactly once."""
        import qsubgroups.cli as cli_module
        import qsubgroups.datum as datum_module

        clear_library_memos()
        calls = []
        original = datum_module.validate_datum

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(datum_module, "validate_datum", counting)
        monkeypatch.setattr(cli_module, "validate_datum", counting)
        code, _ = run_cli(
            capsys, "datum", *C3_FLAGS,
            "--iplus", "2", "--sigma-sym", "ktilde:1", "--sigma-sym", "kbar:2",
        )
        assert code == EXIT_OK
        assert len(calls) == 1

    def test_worked_datum_computes_dim_h_once(self, capsys, monkeypatch):
        """One datum report derives dim H once (datum._dim_h, which dim_H
        fronts), on the twisted side: the obstruction check reuses it, and
        reads the untwisted side from |Sigma_0| alone."""
        import qsubgroups.datum as datum_module

        clear_library_memos()
        calls = []
        original = datum_module._dim_h

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(datum_module, "_dim_h", counting)
        code, _ = run_cli(
            capsys, "datum", *C3_FLAGS,
            "--iplus", "2", "--sigma-sym", "ktilde:1", "--sigma-sym", "kbar:2",
        )
        assert code == EXIT_OK
        assert [args[0].is_zero() for args in calls] == [False]

    def test_trivial_datum(self, capsys):
        code, out = run_cli(capsys, "datum", *C3_FLAGS)
        assert code == EXIT_OK
        (record,) = json_lines(out)
        assert record["results"]["dim_a"] == {
            "base": 11,
            "cofactor": 1,
            "exponent": 3,
        }

    def test_worked_obstruction_comparison(self, capsys):
        code, out = run_cli(
            capsys,
            "datum",
            *C3_FLAGS,
            "--iplus",
            "2",
            "--iminus",
            "1",
            "--sigma-sym",
            "kbar:2",
            "--sigma-sym",
            "ktilde:1",
            "--sigma-sym",
            "tau:3",
            "--sigma-sym",
            "tau:2",
        )
        assert code == EXIT_OK
        (record,) = json_lines(out)
        results = record["results"]
        assert results["predicates"]["cocycle_deformation_obstructed"] is True
        comparison = results["untwisted_comparison"]
        assert comparison["sigma_order_untwisted"] == 121
        assert comparison["n_order_untwisted"] == 11
        assert comparison["dim_ratio"] == "11"

    def test_spec_file_datum(self, capsys, tmp_path):
        doc = {
            "type": "C",
            "rank": 3,
            "ell": 11,
            "family_c3": [1, 2, 0],
            "iplus": [2],
            "datum": {
                "n_generators": [[3, 1, 1]],
                "gamma": {"factors": [2], "embedding": [[1], [0], [0]]},
            },
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli(capsys, "datum", "--spec", str(path))
        assert code == EXIT_OK
        (record,) = json_lines(out)
        assert record["results"]["gamma_order"] == 2
        assert record["results"]["dim_a"] == {
            "base": 11,
            "cofactor": 2,
            "exponent": 3,
        }


class TestEnumerate:
    def test_rank_one(self, capsys):
        code, out = run_cli(
            capsys, "enumerate", "--type", "A", "--rank", "1", "--ell", "3"
        )
        assert code == EXIT_OK
        records = json_lines(out)
        assert records[-1]["total"] == 5
        counts = {}
        for rec in records[:-1]:
            key = (tuple(rec["triple"]["iplus"]), tuple(rec["triple"]["iminus"]))
            counts[key] = counts.get(key, 0) + 1
        assert counts == {((), ()): 2, ((1,), ()): 1, ((), (1,)): 1, ((1,), (1,)): 1}

    def test_fixed_pair(self, capsys):
        code, out = run_cli(
            capsys, "enumerate", *C3_FLAGS, "--iplus", "2", "--iminus", "1"
        )
        assert code == EXIT_OK
        records = json_lines(out)
        assert records[-1]["total"] == 2

    def test_max_results_zero(self, capsys):
        code, out = run_cli(
            capsys, "enumerate", *C3_FLAGS, "--max-results", "0"
        )
        assert code == EXIT_OK
        assert json_lines(out)[-1]["total"] == 0

    def test_max_results_negative(self, capsys):
        """A negative cap is a one-line parse error, not an empty listing."""
        code = main(["enumerate", "--type", "A", "--rank", "2", "--ell", "3",
                     "--max-results", "-1"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_PARSE, "")
        assert captured.err == "parse error: --max-results must be >= 0, got -1\n"

    def test_guard_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("QSUBGROUPS_ENUM_CAP", "3")
        code, out = run_cli(capsys, "enumerate", *C3_FLAGS)
        assert code == EXIT_GUARD


class TestTwistTable:
    def test_small_table(self, capsys):
        code, out = run_cli(
            capsys,
            "twist-table",
            "--type",
            "B",
            "--rank",
            "2",
            "--ell",
            "3",
            "--y",
            "[[1,-2],[1,-1]]",
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        header = json.loads(lines[0])
        assert header["results"]["rows"] == 9
        table = [[int(x) for x in line.split()] for line in lines[1:]]
        assert len(table) == 9 and all(len(row) == 9 for row in table)
        assert table[0] == [0] * 9  # normalization row for z1 = 0
        assert any(any(row) for row in table)

    def test_cap_guard(self, capsys):
        code, out = run_cli(capsys, "twist-table", *C3_FLAGS, "--cap", "10")
        assert code == EXIT_GUARD


class TestPaperExamples:
    def test_default_run_passes(self, capsys):
        code, out = run_cli(capsys, "paper-examples")
        assert code == EXIT_OK
        records = json_lines(out)
        assert records[-1]["failed"] == 0
        assert all(r["pass"] for r in records[:-1])

    def test_perturbed_family_fails(self, capsys):
        code, out = run_cli(capsys, "paper-examples", "--family-c3", "2,2,0")
        assert code == EXIT_INVALID
        records = json_lines(out)
        assert records[-1]["failed"] > 0

    def test_level_pin(self, capsys):
        code, out = run_cli(capsys, "paper-examples", "--ell", "9")
        assert code == EXIT_GUARD


class TestContract:
    def test_parse_failures(self, capsys):
        assert run_cli(capsys, "kernel", "--type", "C", "--rank", "3")[0] == EXIT_PARSE
        assert (
            run_cli(capsys, "kernel", "--type", "Z", "--rank", "3", "--ell", "11")[0]
            == EXIT_PARSE
        )
        assert (
            run_cli(capsys, "validate-phi", "--type", "C", "--rank", "3",
                    "--ell", "8")[0]
            == EXIT_PARSE
        )
        assert run_cli(capsys, "no-such-command")[0] == EXIT_PARSE

    def test_deterministic_output(self, capsys):
        _, first = run_cli(
            capsys, "kernel", *C3_FLAGS, "--iplus", "2", "--iminus", "1"
        )
        _, second = run_cli(
            capsys, "kernel", *C3_FLAGS, "--iplus", "2", "--iminus", "1"
        )
        assert first == second

    def test_g2_level_guard(self, capsys):
        code, _ = run_cli(
            capsys, "validate-phi", "--type", "G", "--rank", "2", "--ell", "9"
        )
        assert code == EXIT_PARSE

    def test_g2_level_guard_reads_the_matrix(self, capsys):
        """The guard reads the G2 triple bond (an entry -3) of the matrix,
        not the type label, so an explicit G2 matrix is refused too."""
        for matrix in ("[[2,-1],[-3,2]]", "[[2,-3],[-1,2]]"):
            assert main(["kernel", "--cartan", matrix, "--ell", "9"]) == EXIT_PARSE
            assert capsys.readouterr().err.strip() == \
                "parse error: --ell must be coprime to 3 in type G"
            assert run_cli(capsys, "kernel", "--cartan", matrix, "--ell", "5")[0] == EXIT_OK
        assert run_cli(capsys, "kernel", "--cartan", "[[2,-2],[-1,2]]",
                       "--ell", "9")[0] == EXIT_OK  # B2's double bond is no G2

    def test_family_c3_reads_the_matrix(self, capsys):
        """--family-c3 is decided by the C3 matrix, not the type label: the
        explicit matrix gives the named type's results, and B3 is refused."""
        family = ["--ell", "11", "--family-c3", "1,2,0"]
        code, named = run_cli(capsys, "validate-phi", "--type", "C", "--rank", "3", *family)
        assert code == EXIT_OK
        code, explicit = run_cli(capsys, "validate-phi", "--cartan",
                                 "[[2,-1,0],[-1,2,-1],[0,-2,2]]", *family)
        assert code == EXIT_OK
        assert [r["results"] for r in json_lines(explicit)] == \
            [r["results"] for r in json_lines(named)]
        assert main(["validate-phi", "--cartan", "[[2,-1,0],[-1,2,-2],[0,-1,2]]",
                     *family]) == EXIT_PARSE
        assert capsys.readouterr().err == \
            "parse error: --family-c3 only applies to type C rank 3\n"


class TestHardening:
    def test_inputs_echo_round_trips(self, capsys, tmp_path):
        code, first = run_cli(
            capsys,
            "kernel",
            *C3_FLAGS,
            "--iplus",
            "2",
            "--sigma-gen",
            "5,8,10",
            "--sigma-gen",
            "2,3,2",
        )
        assert code == EXIT_OK
        echo = json_lines(first)[0]["inputs"]
        path = tmp_path / "echo.json"
        path.write_text(json.dumps(echo))
        code, second = run_cli(capsys, "kernel", "--spec", str(path))
        assert code == EXIT_OK
        assert [r["results"] for r in json_lines(first)] == [
            r["results"] for r in json_lines(second)
        ]

    def test_explicit_cartan_flag(self, capsys):
        code, out = run_cli(
            capsys,
            "kernel",
            "--cartan",
            "[[2,-1,0],[-1,2,-2],[0,-1,2]]",
            "--ell",
            "11",
            "--family-c3",
            "1,2,0",
            "--iplus",
            "2",
            "--iminus",
            "1",
        )
        assert code == EXIT_PARSE  # the family needs the C3 matrix; this is B3
        code, out = run_cli(
            capsys,
            "kernel",
            "--cartan",
            "[[2,-1,0],[-1,2,-1],[0,-2,2]]",
            "--ell",
            "11",
            "--y",
            "[[2,-1,-1],[4,-1,-1],[5,-1,-1]]",
            "--iplus",
            "2",
            "--iminus",
            "1",
        )
        assert code == EXIT_OK
        (record,) = json_lines(out)
        assert record["results"]["matrix"] == [[2, 3, 2], [5, 8, 10]]

    def test_omega_order_reported(self, capsys):
        code, out = run_cli(
            capsys,
            "kernel",
            *C3_FLAGS,
            "--iplus",
            "2",
            "--sigma-gen",
            "5,8,10",
            "--sigma-gen",
            "2,3,2",
        )
        assert code == EXIT_OK
        triple = json_lines(out)[1]["results"]
        assert triple["omega_order"] == 11

    def test_spec_file_nontrivial_delta(self, capsys, tmp_path):
        doc = {
            "type": "C",
            "rank": 3,
            "ell": 11,
            "family_c3": [1, 2, 0],
            "iplus": [2],
            "datum": {
                "n_generators": [[3, 1, 1]],
                "gamma": {"factors": [11], "embedding": [[1], [0], [0]]},
                "delta": [[4]],
            },
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli(capsys, "datum", "--spec", str(path))
        assert code == EXIT_OK
        (record,) = json_lines(out)
        assert record["results"]["valid"] is True
        assert record["results"]["gamma_order"] == 11

    def test_spec_file_ill_defined_delta_rejected(self, capsys, tmp_path):
        doc = {
            "type": "C",
            "rank": 3,
            "ell": 11,
            "family_c3": [1, 2, 0],
            "iplus": [2],
            "datum": {
                "n_generators": [[3, 1, 1]],
                "gamma": {"factors": [2], "embedding": [[1], [0], [0]]},
                "delta": [[1]],
            },
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli(capsys, "datum", "--spec", str(path))
        assert code == EXIT_INVALID
        (record,) = json_lines(out)
        assert any(
            v["condition"] == "delta_well_defined"
            for v in record["results"]["violations"]
        )

    def test_spec_file_delta_length_mismatch_rejected(self, capsys, tmp_path):
        # a delta image shorter or longer than Gamma's rank is invalid input
        for factors, embedding, delta in (
            ([3, 3], [[1, 0], [0, 1], [0, 0]], [[1]]),
            ([3], [[1], [0], [0]], [[0, 5]]),
        ):
            doc = {
                "type": "C",
                "rank": 3,
                "ell": 11,
                "family_c3": [1, 2, 0],
                "iplus": [2],
                "datum": {
                    "n_generators": [[3, 1, 1]],
                    "gamma": {"factors": factors, "embedding": embedding},
                    "delta": delta,
                },
            }
            path = tmp_path / "spec.json"
            path.write_text(json.dumps(doc))
            code = main(["datum", "--spec", str(path)])
            captured = capsys.readouterr()
            assert code == EXIT_INVALID, delta
            json_lines(captured.out)  # every stdout line is JSON
            assert "Traceback" not in captured.err
            assert "invalid input" in captured.err

    def test_malformed_payloads_are_parse_failures(self, capsys):
        cases = [
            ["validate-phi", "--type", "C", "--rank", "3", "--ell", "11",
             "--y", "[[1,2],[3]]"],
            ["validate-phi", "--cartan", "[[2,-1],[-1]]", "--ell", "5"],
            ["validate-phi", "--type", "C", "--rank", "3", "--ell", "11",
             "--family-c3", "1,x,0"],
            ["kernel", "--type", "C", "--rank", "3", "--ell", "11",
             "--sigma-sym", "kbar:x"],
            ["kernel", "--type", "C", "--rank", "3", "--ell", "11",
             "--sigma-sym", "nonsense"],
        ]
        for argv in cases:
            assert run_cli(capsys, *argv)[0] == EXIT_PARSE, argv

    def test_json_payload_reader(self, capsys):
        """--family-c3 wins over a malformed --y, whose JSON is never read,
        and a malformed --cartan or --y names its flag."""
        c3 = ["validate-phi", "--type", "C", "--rank", "3", "--ell", "11"]
        assert run_cli(capsys, *c3, "--family-c3", "1,2,0", "--y", "[[1,") == \
            run_cli(capsys, *c3, "--family-c3", "1,2,0")
        for argv, err in (
            (["validate-phi", "--cartan", "[[2,-1],[-1", "--ell", "5"],
             "bad --cartan payload: Expecting ',' delimiter: line 1 column 12 (char 11)"),
            ([*c3, "--y", "[[1,"], "bad --y payload: Expecting value: line 1 column 5 (char 4)"),
        ):
            code = main(argv)
            captured = capsys.readouterr()
            assert (code, captured.out) == (EXIT_PARSE, "")
            assert captured.err == f"parse error: {err}\n"

    def test_spec_ell_and_rank_must_be_integers(self, capsys, tmp_path):
        """A spec file's ell and rank are read strictly: a string, a bool
        or a float is a one-line parse error, never coerced."""
        for key, value in (("ell", "abc"), ("ell", True), ("ell", 5.0),
                           ("rank", "2"), ("rank", True)):
            path = tmp_path / "spec.json"
            path.write_text(json.dumps({"type": "A", "rank": 2, "ell": 5, key: value}))
            code = main(["validate-phi", "--spec", str(path)])
            captured = capsys.readouterr()
            assert (code, captured.out) == (EXIT_PARSE, ""), (key, value)
            assert captured.err == (
                f"parse error: --{key} must be an integer, got {value!r}\n"
            )

    def test_rank_must_match_explicit_cartan(self, capsys, tmp_path):
        """A rank that disagrees with an explicit Cartan matrix is a parse
        failure naming both sizes, inline and in a spec file; a matching
        rank reads as if it were absent."""
        a2 = ["validate-phi", "--ell", "5", "--cartan", "[[2,-1],[-1,2]]"]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"rank": 3, "ell": 5, "cartan": [[2, -1], [-1, 2]]}))
        for argv in ([*a2, "--rank", "3"], ["validate-phi", "--spec", str(path)]):
            code = main(argv)
            captured = capsys.readouterr()
            assert (code, captured.out) == (EXIT_PARSE, ""), argv
            assert captured.err == \
                "parse error: --rank 3 disagrees with the 2x2 --cartan matrix\n"
        assert run_cli(capsys, *a2, "--rank", "2") == run_cli(capsys, *a2)

    def test_type_must_match_explicit_cartan(self, capsys, tmp_path):
        """A type whose Cartan matrix is not the explicit one is a one-line
        parse failure, inline and in a spec file, whether the type is
        unknown, has no matrix of that size, or has another matrix; X and
        the matching type read as if the type were absent."""
        a2 = ["validate-phi", "--ell", "5", "--cartan", "[[2,-1],[-1,2]]"]
        path = tmp_path / "spec.json"
        expected = {
            "Q": "--type Q disagrees with the 2x2 --cartan matrix: unknown type 'Q'",
            "E": "--type E disagrees with the 2x2 --cartan matrix: "
                 "invalid rank 2 for type E",
            "C": "--type C disagrees with the 2x2 --cartan matrix",
        }
        for lie_type, message in expected.items():
            path.write_text(json.dumps({"type": lie_type, "ell": 5,
                                        "cartan": [[2, -1], [-1, 2]]}))
            for argv in ([*a2, "--type", lie_type], ["validate-phi", "--spec", str(path)]):
                code = main(argv)
                captured = capsys.readouterr()
                assert (code, captured.out) == (EXIT_PARSE, ""), argv
                assert captured.err == f"parse error: {message}\n", argv
        for lie_type in ("X", "A", "a"):
            assert run_cli(capsys, *a2, "--type", lie_type) == run_cli(capsys, *a2)

    def test_sigma_symbol_index_out_of_range(self, capsys):
        """kbar:9 at rank 2 is a one-line parse error, not an IndexError."""
        for sym in ("kbar:9", "ktilde:0", "tau:3"):
            code = main(["datum", "--type", "A", "--rank", "2", "--ell", "5",
                         "--sigma-sym", sym])
            captured = capsys.readouterr()
            assert code == EXIT_PARSE, sym
            assert captured.out == ""
            assert captured.err == (
                f"parse error: sigma symbol index {sym.split(':')[1]} "
                "out of range 1..2\n"
            )

    def test_spec_index_and_generator_entries_must_be_integers(self, capsys, tmp_path):
        """A spec file's iplus, iminus and sigma generator entries are read
        strictly: true, 1.7 and 0.5 are one-line parse errors, never
        coerced to 1, 1 and 0."""
        for extra, message in (
            ({"iplus": [True]}, "--iplus must be an integer, got True"),
            ({"iplus": [1.7]}, "--iplus must be an integer, got 1.7"),
            ({"iminus": [True]}, "--iminus must be an integer, got True"),
            ({"sigma": {"generators": [[0.5, 1]]}},
             "sigma generators must be an integer, got 0.5"),
        ):
            path = tmp_path / "spec.json"
            path.write_text(json.dumps({"type": "A", "rank": 2, "ell": 5} | extra))
            code = main(["kernel", "--spec", str(path)])
            captured = capsys.readouterr()
            assert (code, captured.out) == (EXIT_PARSE, ""), extra
            assert captured.err == f"parse error: {message}\n"

    def test_repeated_simple_index_is_a_parse_failure(self, capsys, tmp_path):
        """--iplus 2,2 (or a spec's "iplus": [2, 2]) is refused with exit 3,
        not echoed as [2, 2] while the math runs on {2}."""
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"type": "A", "rank": 2, "ell": 5, "iminus": [1, 2, 1]}))
        for argv, message in (
            (["enumerate", "--type", "A", "--rank", "2", "--ell", "5", "--iplus", "2,2"],
             "--iplus repeats a simple index: [2, 2]"),
            (["kernel", "--type", "A", "--rank", "2", "--ell", "5", "--iplus", "2,1,2"],
             "--iplus repeats a simple index: [1, 2, 2]"),
            (["kernel", "--spec", str(path)], "--iminus repeats a simple index: [1, 1, 2]"),
        ):
            code = main(argv)
            captured = capsys.readouterr()
            assert (code, captured.out) == (EXIT_PARSE, ""), argv
            assert captured.err == f"parse error: {message}\n"

    def test_non_integral_parameter_matrix_is_a_parse_failure(self, capsys, tmp_path):
        """0.5 in --y and JSON true in a spec's y are refused with exit 3,
        not truncated to the zero twist or read as 1."""
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"type": "B", "rank": 2, "ell": 5,
                                    "y": [[True, 0], [0, 0]]}))
        for argv, shown in (
            (["validate-phi", "--type", "B", "--rank", "2", "--ell", "5",
              "--y", "[[0.5,0],[0,0]]"], "float 0.5"),
            (["validate-phi", "--spec", str(path)], "bool True"),
        ):
            code = main(argv)
            captured = capsys.readouterr()
            assert (code, captured.out) == (EXIT_PARSE, ""), argv
            assert captured.err == (
                f"parse error: bad parameter matrix: matrix entries must be int, "
                f"got {shown}\n"
            )


def _all_parsers():
    """The top parser and each subcommand's, in registration order."""
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return [parser, *sub.choices.values()]


# sha256 prefixes of format_help() for the top parser, validate-phi, kernel,
# datum, enumerate, twist-table and paper-examples, as argparse formats them
# through shutil at a fixed COLUMNS (80 is also what a pipe gets)
HELP_DIGESTS = {
    "50": ["a5c835f8df2d6453", "fa99f077fd4e51b9", "f61d6a576b7b4d9b", "4342f649b48229aa",
           "1cbdfc50692fb087", "e5282ae8888f97f2", "48135fcd52125606"],
    "80": ["a4566cfd81712be2", "bb84268c987e5d0e", "0daee12e6fe11a78", "9f320d49d9393b65",
           "f471e653a5bae66f", "b3ea98da423ee150", "396878267f8dab14"],
    "200": ["bcb82b4919b18c84", "f42f137d4a6a2ba7", "886c3bf9da78cc76", "54c2d54dc60bbeb5",
            "f6306b576478804a", "aa966bf9eed04926", "396878267f8dab14"],
}


class TestHelpWidth:
    """The parser takes its help width by shutil.get_terminal_size's rule
    without importing shutil; the help it prints does not change."""

    @pytest.mark.parametrize("columns", [None, "50", "200", "abc", "0"])
    def test_width_and_help_match_argparse(self, monkeypatch, columns):
        import shutil

        if columns is None:
            monkeypatch.delenv("COLUMNS", raising=False)
        else:
            monkeypatch.setenv("COLUMNS", columns)
        parsers = _all_parsers()
        width = shutil.get_terminal_size().columns - 2
        assert [p._get_formatter()._width for p in parsers] == [width] * len(parsers)
        ours = [p.format_help() for p in parsers]
        monkeypatch.delattr(_Parser, "_get_formatter")  # argparse's own, through shutil
        assert [p.format_help() for p in parsers] == ours

    @pytest.mark.parametrize("columns", sorted(HELP_DIGESTS))
    def test_help_text_is_pinned(self, monkeypatch, columns):
        monkeypatch.setenv("COLUMNS", columns)
        digests = [hashlib.sha256(p.format_help().encode()).hexdigest()[:16]
                   for p in _all_parsers()]
        assert digests == HELP_DIGESTS[columns]
