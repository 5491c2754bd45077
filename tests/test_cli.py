import dataclasses
import json
import os
import re
import stat
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import atlsat.cli
import atlsat.formula
from atlsat.approx import check_validity
from atlsat.cli import _solver_config, build_parser, main
from atlsat.formula import (
    MAX_NESTING,
    GenParams,
    connective_count,
    format_formula,
    generate_random_formula,
    normalize,
    parse_formula,
    strategic_depth,
)
from atlsat.solver import SolverConfig
from atlsat.witness import read_witness_json

EXAMPLE_FORMULA = (
    "<<0,1>> F (p0 & !p1 & !p2) & <<0>> F (!p0 & p1 & !p2) & <<0,1>> X (!p0 & !p1 & p2)"
)


@pytest.fixture
def req32(tmp_path):
    path = tmp_path / "req.json"
    path.write_text(
        json.dumps(
            {
                "agents": [{"locals": 3, "initial": 0}, {"locals": 2, "initial": 0}],
                "props": 3,
            }
        )
    )
    return str(path)


@pytest.fixture
def req221(tmp_path):
    path = tmp_path / "req221.json"
    path.write_text(
        json.dumps({"agents": [{"locals": 2}, {"locals": 2}], "props": 1})
    )
    return str(path)


NODE_RE = re.compile(r'^  s\d+ \[label="[^"]*"(, penwidth=2)?\];$')
EDGE_RE = re.compile(r'^  s\d+ -> s\d+ \[label="\([0-9,]*\)"\];$')


def assert_valid_dot(text: str) -> None:
    lines = text.strip().splitlines()
    assert lines[0] == "digraph model {"
    assert lines[-1] == "}"
    for line in lines[1:-1]:
        assert NODE_RE.match(line) or EDGE_RE.match(line), f"bad DOT line: {line!r}"


class TestCheck:
    def test_sat_exit_code_and_witness(self, req32, tmp_path, capsys):
        out_json = tmp_path / "w.json"
        out_dot = tmp_path / "w.dot"
        code = main(
            [
                "check",
                "-f",
                EXAMPLE_FORMULA,
                "--req",
                req32,
                "--out-json",
                str(out_json),
                "--out-dot",
                str(out_dot),
            ]
        )
        assert code == 10
        assert "s SATISFIABLE" in capsys.readouterr().out
        model = read_witness_json(str(out_json))
        assert check_validity(model, normalize(parse_formula(EXAMPLE_FORMULA)))
        assert_valid_dot(out_dot.read_text())

    def test_unsat_exit_code(self, req32, capsys):
        assert main(["check", "-f", "p0 & !p0", "--req", req32]) == 20
        assert "s UNSATISFIABLE" in capsys.readouterr().out

    def test_verbose_reports_propagations(self, req221, capsys):
        assert main(["check", "-v", "-f", "p0 & !p0", "--req", req221]) == 20
        stats = re.search(r"^c .* propagations=(\d+) ", capsys.readouterr().out, re.M)
        assert stats and int(stats.group(1)) > 0

    def test_verbose_reports_rechecks(self, req221, capsys):
        argv = ["check", "-v", "-f", "<<0>> X p0 & <<1>> X !p0", "--req", req221]
        assert main(argv) == 20
        assert re.search(r"^c .* rechecks=0 ", capsys.readouterr().out, re.M)
        assert main(argv + ["--minimize-conflicts"]) == 20
        stats = re.search(r"^c .* propagations=\d+ rechecks=(\d+) ", capsys.readouterr().out, re.M)
        assert stats and int(stats.group(1)) > 0

    def test_verbose_reports_the_cone(self, req221, capsys):
        # Of the 12 cells at [2,2] with 1 prop: p0 at the initial state
        # alone, then every cell once a strategic step reads p0 everywhere.
        for text, code, cone in (("p0 & !p0", 20, "1/12"), ("p0 & <<0>> X !p0", 10, "12/12")):
            assert main(["check", "-v", "-f", text, "--req", req221]) == code
            assert re.search(rf"^c .* reused=\d+ cone={cone} time=", capsys.readouterr().out, re.M)

    def test_verbose_reports_reused(self, req32, capsys):
        # The worked example reuses strategic results, the same number in
        # each of two solves; p0 & !p0 has no strategic step to reuse.
        argv = ["check", "-v", "-f", EXAMPLE_FORMULA, "--req", req32]
        counts = []
        for _ in range(2):
            assert main(argv) == 10
            stats = re.search(r"^c .* rechecks=\d+ reused=(\d+) ", capsys.readouterr().out, re.M)
            counts.append(int(stats.group(1)))
        assert counts[0] > 0 and counts[0] == counts[1]
        assert main(["check", "-v", "-f", "p0 & !p0", "--req", req32]) == 20
        assert re.search(r"^c .* reused=0 ", capsys.readouterr().out, re.M)

    def test_malformed_formula_errors(self, req32, capsys):
        assert main(["check", "-f", "p0 & & p1", "--req", req32]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_requirements_file(self, tmp_path, capsys):
        assert main(["check", "-f", "p0", "--req", str(tmp_path / "nope.json")]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data, field",
        [
            ({"props": 1}, "agents"),
            ({"agents": 3, "props": 1}, "agents"),
            ({"agents": [{"locals": 2}], "props": 1, "cp": [[5, 0, 0, 1]]}, "cp"),
            # JSON booleans are not integers, though Python's bool is one.
            ({"agents": [{"locals": True}], "props": 1}, "agents"),
            ({"agents": [{"locals": 2, "initial": False}], "props": 1}, "agents"),
            ({"agents": [{"locals": 2}], "props": True}, "props"),
            ({"agents": [{"locals": 2}], "props": 1, "cp": [[0, 0, 0, True]]}, "cp"),
            ({"agents": [{"locals": 2}], "props": 1, "cv": [[0, False, 1]]}, "cv"),
            # Values outside 0/1, and two rows forcing one cell both ways.
            ({"agents": [{"locals": 2}], "props": 1, "cp": [[0, 0, 0, 2]]}, "cp"),
            ({"agents": [{"locals": 2}], "props": 1, "cv": [[0, 0, -1]]}, "cv"),
            ({"agents": [{"locals": 2}], "props": 1, "cp": [[0, 1, 1, 1], [0, 1, 1, 0]]}, "cp"),
            ({"agents": [{"locals": 2}], "props": 1, "cv": [[1, 0, 0], [1, 0, 1]]}, "cv"),
            # A protocol row forced to 0 in every cell.
            ({"agents": [{"locals": 2}], "props": 1, "cp": [[0, 0, 0, 0], [0, 0, 1, 0]]}, "cp"),
            # Shapes past the limits; tables this large could not even be
            # sized, so the check must come before any is built.
            ({"agents": [{"locals": 10**6}] * 4, "props": 1}, "agents"),
            ({"agents": [{"locals": 2}], "props": 10**30}, "props"),
            ({"agents": [{"locals": 2}], "props": 100000}, "props"),
            # Protocol cells alone past the cell limit: 300**2 > 65536.
            ({"agents": [{"locals": 300}], "props": 1}, "agents"),
        ],
    )
    def test_malformed_requirements_name_the_field(self, data, field, tmp_path, capsys):
        req = tmp_path / "req.json"
        req.write_text(json.dumps(data))
        formulas = tmp_path / "formulas.txt"
        formulas.write_text("p0\n")
        for argv in (["check", "-f", "p0"], ["bench", str(formulas)]):
            assert main(argv + ["--req", str(req)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert repr(field) in err

    def test_nesting_past_the_limit_errors(self, req32, capsys):
        text = "!" * (MAX_NESTING + 1) + "p0"
        assert main(["check", "-f", text, "--req", req32]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nested deeper" in err

    def test_formula_from_file(self, req32, tmp_path):
        path = tmp_path / "f.atl"
        path.write_text("p0\n")
        assert main(["check", "--formula-file", str(path), "--req", req32]) == 10

    def test_independent_verify_pass(self, req32, tmp_path, capsys):
        out_json = tmp_path / "w.json"
        main(["check", "-f", EXAMPLE_FORMULA, "--req", req32, "--out-json", str(out_json)])
        code = main(["verify", "-f", EXAMPLE_FORMULA, "--witness", str(out_json)])
        assert code == 0
        assert "verified" in capsys.readouterr().out


GOOD_WITNESS = {
    "agents": [{"locals": 2, "initial": 0}],
    "props": 1,
    "protocols": [["11", "01"]],
    "valuation": [[0], []],
    "bits": "110110",
}

NO_BITS = {k: v for k, v in GOOD_WITNESS.items() if k != "bits"}


class TestVerify:
    def test_good_witness_verifies(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps(GOOD_WITNESS))
        assert main(["verify", "-f", "p0", "--witness", str(path)]) == 0

    @pytest.mark.parametrize(
        "data, field",
        [
            ({}, "agents"),
            ([], "agents"),
            ({"shape": 3}, "agents"),
            ({**GOOD_WITNESS, "agents": [{"locals": 2}]}, "agents"),
            ({**GOOD_WITNESS, "props": "1"}, "props"),
            ({**GOOD_WITNESS, "protocols": 5}, "protocols"),
            ({**GOOD_WITNESS, "protocols": [["11"]]}, "protocols"),
            ({**GOOD_WITNESS, "valuation": [[[0]], []]}, "valuation"),
            ({**GOOD_WITNESS, "valuation": [[0]]}, "valuation"),
            ({**GOOD_WITNESS, "bits": 5}, "bits"),
            ({**GOOD_WITNESS, "bits": "111110"}, "bits"),
            ({**NO_BITS, "protocols": [["1x", "01"]]}, "protocols"),
            ({**NO_BITS, "valuation": [[5], []]}, "valuation"),
            ({**NO_BITS, "valuation": [["0"], []]}, "valuation"),
            ({**GOOD_WITNESS, "agents": [{"locals": 10**6, "initial": 0}] * 4}, "agents"),
            ({**GOOD_WITNESS, "agents": [{"locals": True, "initial": 0}]}, "agents"),
            ({**GOOD_WITNESS, "agents": [{"locals": 2, "initial": False}]}, "agents"),
            ({**GOOD_WITNESS, "props": True}, "props"),
            ({**GOOD_WITNESS, "agents": [{"locals": 1.5, "initial": 0}]}, "agents"),
        ],
    )
    def test_malformed_witness_names_the_field(self, data, field, tmp_path, capsys):
        path = tmp_path / "w.json"
        path.write_text(json.dumps(data))
        assert main(["verify", "-f", "p0", "--witness", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert repr(field) in err


    def test_rejects_wrong_formula(self, req32, tmp_path, capsys):
        out_json = tmp_path / "w.json"
        main(["check", "-f", "p0", "--req", req32, "--out-json", str(out_json)])
        code = main(["verify", "-f", "!p0", "--witness", str(out_json)])
        assert code == 1
        assert "FAILED" in capsys.readouterr().out

    def test_rejects_corrupted_bits(self, req32, tmp_path, capsys):
        out_json = tmp_path / "w.json"
        main(["check", "-f", "p0", "--req", req32, "--out-json", str(out_json)])
        data = json.loads(out_json.read_text())
        data["bits"] = data["bits"][:-1] + ("0" if data["bits"][-1] == "1" else "1")
        out_json.write_text(json.dumps(data))
        assert main(["verify", "-f", "p0", "--witness", str(out_json)]) == 1


class TestBoundsErrors:
    @pytest.mark.parametrize(
        "formula, message",
        [
            ("p4", "formula uses p4 but only 1 propositions are declared"),
            ("<<3>> X p0", "formula names agent 3 but only 1 agents are declared"),
        ],
    )
    def test_commands_agree(self, formula, message, tmp_path, capsys):
        # One shape, one agent and one proposition: check, bench and verify
        # report an out-of-range index with the same message.
        req = tmp_path / "req.json"
        req.write_text(json.dumps({"agents": [{"locals": 2}], "props": 1}))
        witness = tmp_path / "w.json"
        witness.write_text(json.dumps(GOOD_WITNESS))
        formulas = tmp_path / "formulas.txt"
        formulas.write_text(formula + "\n")
        assert main(["check", "-f", formula, "--req", str(req)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert main(["verify", "-f", formula, "--witness", str(witness)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert main(["bench", str(formulas), "--req", str(req)]) == 0
        assert capsys.readouterr().err == f"error: formula {formula!r}: {message}\n"

    def test_constant_names_its_stand_in(self, tmp_path, capsys):
        # true normalizes to a formula over p0, which a shape without
        # propositions lacks; the one error line says where p0 came from.
        req = tmp_path / "req.json"
        req.write_text(json.dumps({"agents": [{"locals": 2}], "props": 0}))
        assert main(["check", "-f", "<<0>> X true", "--req", str(req)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "true" in err


def test_non_ascii_formula_is_a_positioned_error(req221, capsys):
    assert main(["check", "-f", "p\u00b2", "--req", req221]) == 1
    assert capsys.readouterr().err == "error: 1:2: unexpected character '\u00b2'\n"


@pytest.mark.parametrize("command", ["check", "bench", "verify"])
def test_deeply_nested_json_is_one_error_line(command, tmp_path, capsys):
    # Nesting past the JSON decoder's recursion limit, in the requirements
    # file or the witness file.
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    formulas = tmp_path / "formulas.txt"
    formulas.write_text("p0\n")
    argv = {
        "check": ["check", "-f", "p0", "--req", str(deep)],
        "bench": ["bench", str(formulas), "--req", str(deep)],
        "verify": ["verify", "-f", "p0", "--witness", str(deep)],
    }[command]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {deep}: JSON nested too deeply\n"


# Bad input for each command: the argv, with ``{name}`` for a path from the
# ``input_files`` fixture, and a text its one error line must hold.  A file
# that cannot be opened, decoded or parsed is named in the error.
BAD_INPUTS = {
    "check-missing-req": (["check", "-f", "p0", "--req", "{missing}"], "{missing}"),
    "check-missing-formula-file": (
        ["check", "--formula-file", "{missing}", "--req", "{req}"], "{missing}"),
    "check-directory-req": (["check", "-f", "p0", "--req", "{directory}"], "{directory}"),
    "check-truncated-req": (["check", "-f", "p0", "--req", "{truncated}"], "{truncated}: "),
    "check-non-utf8-req": (["check", "-f", "p0", "--req", "{non_utf8}"], "{non_utf8}: "),
    "check-non-utf8-formula-file": (
        ["check", "--formula-file", "{non_utf8}", "--req", "{req}"], "{non_utf8}: "),
    "check-syntax-error": (["check", "-f", "p0 & & p1", "--req", "{req}"], "1:6: "),
    "check-syntax-error-in-formula-file": (
        ["check", "--formula-file", "{bad_formula}", "--req", "{req}"], "{bad_formula}: 1:6: "),
    "check-out-of-range-p4": (["check", "-f", "p4", "--req", "{req}"], "formula uses p4"),
    "check-timeout-0": (
        ["check", "-f", "p0", "--req", "{req}", "--timeout", "0"], "time limit"),
    "bench-missing-formulas": (["bench", "{missing}", "--req", "{req}"], "{missing}"),
    "bench-missing-req": (["bench", "{formulas}", "--req", "{missing}"], "{missing}"),
    "bench-directory-formulas": (["bench", "{directory}", "--req", "{req}"], "{directory}"),
    "bench-truncated-req": (["bench", "{formulas}", "--req", "{truncated}"], "{truncated}: "),
    "bench-non-utf8-req": (["bench", "{formulas}", "--req", "{non_utf8}"], "{non_utf8}: "),
    "bench-non-utf8-formulas": (["bench", "{non_utf8}", "--req", "{req}"], "{non_utf8}: "),
    "bench-syntax-error": (
        ["bench", "{bad_formulas}", "--req", "{req}"], "formula 'p0 & & p1': 1:6: "),
    "bench-timeout-0": (
        ["bench", "{formulas}", "--req", "{req}", "--timeout", "0"], "time limit"),
    "verify-missing-witness": (["verify", "-f", "p0", "--witness", "{missing}"], "{missing}"),
    "verify-directory-witness": (
        ["verify", "-f", "p0", "--witness", "{directory}"], "{directory}"),
    "verify-truncated-witness": (
        ["verify", "-f", "p0", "--witness", "{truncated}"], "{truncated}: "),
    "verify-non-utf8-witness": (
        ["verify", "-f", "p0", "--witness", "{non_utf8}"], "{non_utf8}: "),
    "verify-non-utf8-formula-file": (
        ["verify", "--formula-file", "{non_utf8}", "--witness", "{witness}"], "{non_utf8}: "),
    "verify-syntax-error": (["verify", "-f", "p0 & & p1", "--witness", "{witness}"], "1:6: "),
    "verify-syntax-error-in-formula-file": (
        ["verify", "--formula-file", "{bad_formula}", "--witness", "{witness}"],
        "{bad_formula}: 1:6: "),
    "verify-out-of-range-p4": (
        ["verify", "-f", "p4", "--witness", "{witness}"], "formula uses p4"),
    "generate-count-minus-1": (
        ["generate", "--agents", "2", "--groups", "1", "--props", "1", "--depth", "1",
         "--count", "-1"], "--count must be >= 0"),
}


@pytest.fixture
def input_files(tmp_path):
    """Paths for ``BAD_INPUTS``: good inputs, bad ones, a directory and a
    path that does not exist."""
    files = {
        "req": json.dumps({"agents": [{"locals": 2}], "props": 1}).encode(),
        "witness": json.dumps(GOOD_WITNESS).encode(),
        "formulas": b"p0\n",
        "bad_formulas": b"p0\np0 & & p1\n",
        "bad_formula": b"p0 & & p1\n",
        "truncated": b'{"agents": [',
        "non_utf8": b"p0 \xff\n",
    }
    paths = {"missing": str(tmp_path / "missing.json"), "directory": str(tmp_path)}
    for name, content in files.items():
        (tmp_path / name).write_bytes(content)
        paths[name] = str(tmp_path / name)
    return paths


@pytest.mark.parametrize("argv, expect", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_is_one_error_line(argv, expect, input_files, capsys):
    # Every command ends through main's one handler: one error line naming
    # the cause, nothing on stdout, exit 1, and no traceback.
    assert main([arg.format(**input_files) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert expect.format(**input_files) in captured.err


def test_input_may_start_with_a_byte_order_mark(tmp_path, capsys):
    # Each file is read as if it had no mark: the cv row makes p0 false at
    # the initial state, and the first formula of the list is plain p0.
    texts = {
        "req": json.dumps({"agents": [{"locals": 2}], "props": 1, "cv": [[0, 0, 0]]}),
        "formula": "p0 | !p0\n",
        "formulas": "p0\np0 & !p0\n",
        "witness": json.dumps(GOOD_WITNESS),
    }
    paths = {}
    for name, text in texts.items():
        (tmp_path / name).write_bytes(b"\xef\xbb\xbf" + text.encode())
        paths[name] = str(tmp_path / name)
    report = tmp_path / "report.json"
    assert main(["check", "-f", "p0", "--req", paths["req"]]) == 20
    assert main(["check", "--formula-file", paths["formula"], "--req", paths["req"]]) == 10
    assert main(["bench", paths["formulas"], "--req", paths["req"], "--out-json", str(report),
                 "--deterministic-report"]) == 0
    assert [(r["formula"], r["verdict"]) for r in json.loads(report.read_text())] == [
        ("p0", "UNSAT"), ("p0 & !p0", "UNSAT")]
    assert main(["verify", "-f", "p0", "--witness", paths["witness"]]) == 0
    assert capsys.readouterr().err == ""


def run_cli(*argv: str) -> subprocess.CompletedProcess:
    """``python -m atlsat.cli`` in a child process, importing this atlsat."""
    src = str(Path(atlsat.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "atlsat.cli", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60)


def test_process_exit_codes(req221, tmp_path):
    # The codes reach the shell through sys.exit, not only as main's value.
    assert run_cli("check", "-f", "p0", "--req", req221).returncode == 10
    assert run_cli("check", "-f", "p0 & !p0", "--req", req221).returncode == 20
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"agents": 3}))
    failed = run_cli("check", "-f", "p0", "--req", str(bad))
    assert failed.returncode == 1 and failed.stdout == ""
    assert failed.stderr.startswith("error: ") and failed.stderr.count("\n") == 1


class TestGenerate:
    def test_count_and_stability(self, capsys):
        args = ["generate", "--agents", "3", "--groups", "4", "--props", "3",
                "--depth", "4", "--seed", "11", "--count", "5"]
        assert main(args) == 0
        first = capsys.readouterr().out.strip().splitlines()
        assert main(args) == 0
        second = capsys.readouterr().out.strip().splitlines()
        assert first == second
        assert len(first) == 5
        for line in first:
            f = parse_formula(line)
            assert strategic_depth(f) <= 4

    def test_depth_row_sweep(self, capsys):
        # The benchmark sweep: one formula per requested depth, each
        # reporting exactly that depth.
        for depth in (9, 13, 17, 20, 23, 26, 30, 33):
            assert main(
                ["generate", "--agents", "3", "--groups", "4", "--props", "3",
                 "--depth", str(depth)]
            ) == 0
            line = capsys.readouterr().out.strip()
            assert strategic_depth(parse_formula(line)) == depth

    def test_connective_target(self, capsys):
        assert main(
            ["generate", "--agents", "3", "--groups", "4", "--props", "3",
             "--depth", "9", "--connectives", "13"]
        ) == 0
        f = parse_formula(capsys.readouterr().out.strip())
        assert strategic_depth(f) == 9
        assert connective_count(f) == 13

    def test_depth_limit_is_the_nesting_limit(self, capsys):
        # A strategic depth past MAX_NESTING could never parse back.  At
        # MAX_NESTING itself the drawn formula parses back, with that depth.
        args = ["generate", "--agents", "3", "--groups", "4", "--props", "3", "--depth"]
        assert main(args + [str(MAX_NESTING), "--seed", "7"]) == 0
        f = parse_formula(capsys.readouterr().out.strip())
        assert strategic_depth(f) == MAX_NESTING
        for depth in (MAX_NESTING + 1, 1000):
            assert main(args + [str(depth)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
            assert str(MAX_NESTING) in captured.err

    def test_deep_draws_parse_back(self, capsys):
        # At depth 40 the draw of seed 4 used to nest past MAX_NESTING; the
        # generator's nesting budget keeps every draw parsable.
        args = ["generate", "--agents", "3", "--groups", "4", "--props", "3",
                "--depth", "40", "--count", "5"]
        assert main(args) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert len(lines) == 5
        assert lines[4] == format_formula(generate_random_formula(GenParams(3, 4, 3, 40, 4)))
        for line in lines:
            assert strategic_depth(parse_formula(line)) == 40

    def test_connective_target_prints_distinct_formulas(self, capsys):
        # Each scan starts one seed past the last match, so --count 4 prints
        # the formulas of the first four matching seeds.
        assert main(
            ["generate", "--agents", "3", "--groups", "4", "--props", "3",
             "--depth", "9", "--connectives", "13", "--count", "4"]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            format_formula(generate_random_formula(GenParams(3, 4, 3, 9, seed)))
            for seed in (8, 12, 20, 49)
        ]
        for line in lines:
            f = parse_formula(line)
            assert strategic_depth(f) == 9 and connective_count(f) == 13

    @pytest.mark.parametrize("flag, value", [("--connectives", "-5"), ("--count", "-1")])
    def test_negative_count_is_refused_before_any_draw(self, flag, value, capsys, monkeypatch):
        draws = []
        real = atlsat.formula.generate_random_formula
        monkeypatch.setattr(
            atlsat.formula, "generate_random_formula", lambda p: draws.append(p) or real(p)
        )
        args = ["generate", "--agents", "3", "--groups", "4", "--props", "3", "--depth", "9"]
        assert main(args + [flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert value in captured.err
        assert draws == []

    def test_invalid_params_exit_one(self, capsys):
        assert main(
            ["generate", "--agents", "2", "--groups", "9", "--props", "1", "--depth", "2"]
        ) == 1
        assert "error" in capsys.readouterr().err
        # More agents than MAX_GEN_AGENTS is refused before any pool is drawn.
        assert main(
            ["generate", "--agents", "17", "--groups", "2", "--props", "1", "--depth", "1"]
        ) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.fixture
def solves(monkeypatch):
    """The formulas ``atlsat.cli`` hands to the solver, in order."""
    seen = []
    real = atlsat.cli.solve_satisfiability
    monkeypatch.setattr(
        atlsat.cli, "solve_satisfiability", lambda f, *rest: seen.append(f) or real(f, *rest)
    )
    return seen


class TestUnwritableOutput:
    """An output path that cannot be written is one ``error:`` line and exit
    1, with nothing on stdout: ``check`` writes its witness files before it
    prints the verdict, and ``bench`` opens its report before the first
    solve."""

    @staticmethod
    def assert_one_error_line(capsys):
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    @pytest.mark.parametrize("flag", ["--out-json", "--out-dot"])
    def test_check_into_a_missing_directory(self, req221, tmp_path, capsys, flag):
        out = tmp_path / "missing" / "w"
        assert main(["check", "-f", "p0", "--req", req221, flag, str(out)]) == 1
        self.assert_one_error_line(capsys)

    @pytest.mark.parametrize("flag", ["--out-json", "--out-dot"])
    def test_check_onto_a_directory(self, req221, tmp_path, capsys, flag):
        assert main(["check", "-f", "p0", "--req", req221, flag, str(tmp_path)]) == 1
        self.assert_one_error_line(capsys)

    def test_bench_report_into_a_missing_directory(self, req221, tmp_path, capsys, solves):
        formulas = tmp_path / "formulas.txt"
        formulas.write_text("p0\n")
        out = tmp_path / "missing" / "report.json"
        assert main(["bench", str(formulas), "--req", req221, "--out-json", str(out)]) == 1
        self.assert_one_error_line(capsys)
        assert solves == []

    def test_bench_report_onto_a_directory(self, req221, tmp_path, capsys, solves):
        formulas = tmp_path / "formulas.txt"
        formulas.write_text("p0\np0 & !p0\n")
        assert main(["bench", str(formulas), "--req", req221, "--out-json", str(tmp_path)]) == 1
        self.assert_one_error_line(capsys)
        assert solves == []

    # Writes to /dev/full open and then fail: the error names the path.
    full_device = pytest.mark.skipif(
        not (os.path.exists("/dev/full") and stat.S_ISCHR(os.stat("/dev/full").st_mode)),
        reason="/dev/full is not a character device here")

    @full_device
    @pytest.mark.parametrize("flag", ["--out-json", "--out-dot"])
    def test_check_onto_a_full_device(self, req221, capsys, flag):
        assert main(["check", "-f", "p0", "--req", req221, flag, "/dev/full"]) == 1
        assert self.assert_one_error_line(capsys).startswith("error: /dev/full: ")

    @full_device
    def test_bench_report_onto_a_full_device(self, req221, tmp_path, capsys):
        formulas = tmp_path / "formulas.txt"
        formulas.write_text("p0\n")
        assert main(["bench", str(formulas), "--req", req221, "--out-json", "/dev/full"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: /dev/full: ") and err.count("\n") == 1


class TestBench:
    def test_syntax_error_on_a_later_line_stops_before_any_solve(
        self, req221, tmp_path, capsys, solves
    ):
        formulas = tmp_path / "formulas.txt"
        formulas.write_text("p0\np0 & !p0\np0 & & p1\n")
        out_json = tmp_path / "report.json"
        code = main(["bench", str(formulas), "--req", req221, "--out-json", str(out_json)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: formula 'p0 & & p1': ")
        assert captured.err.count("\n") == 1
        assert solves == []
        assert not out_json.exists()

    def test_error_row_reads_zero_counts(self, req221, tmp_path, capsys):
        formulas = tmp_path / "formulas.txt"
        formulas.write_text("p0 & !p0\np5\n")
        out_json = tmp_path / "report.json"
        argv = ["bench", str(formulas), "--req", req221, "--out-json", str(out_json)]
        assert main(argv + ["--deterministic-report"]) == 0
        unsat, error = json.loads(out_json.read_text())
        assert unsat["verdict"] == "UNSAT" and unsat["conflicts"] > 0
        assert error == {
            "id": 2, "formula": "p5", "depth": 0, "connectives": 0, "verdict": "ERROR",
            "decisions": 0, "conflicts": 0, "theory_checks": 0, "propagations": 0,
            "rechecks": 0, "reused": 0, "cone_cells": 0,
        }
        assert main(argv) == 0
        assert all(isinstance(r["time"], float) for r in json.loads(out_json.read_text()))

    def test_comment_lines_may_be_indented(self, req221, tmp_path, capsys):
        formulas = tmp_path / "formulas.txt"
        formulas.write_text("# header\np0\n  # note\n\t# tabbed note\np0 & !p0\n")
        out_json = tmp_path / "report.json"
        code = main(["bench", str(formulas), "--req", req221, "--out-json", str(out_json)])
        assert code == 0 and capsys.readouterr().err == ""
        assert [r["formula"] for r in json.loads(out_json.read_text())] == ["p0", "p0 & !p0"]

    def test_table_and_json_agree(self, req221, tmp_path, capsys):
        formulas = tmp_path / "formulas.txt"
        formulas.write_text("p0\np0 & !p0\n<<0>> G p0\n")
        out_json = tmp_path / "report.json"
        code = main(["bench", str(formulas), "--req", req221, "--out-json", str(out_json)])
        assert code == 0
        table = capsys.readouterr().out.strip().splitlines()
        rows = json.loads(out_json.read_text())
        assert len(rows) == 3
        assert [r["verdict"] for r in rows] == ["SAT", "UNSAT", "SAT"]
        # The human table carries the same verdict column.
        for row, line in zip(rows, table[2:]):
            assert row["verdict"] in line
            assert str(row["depth"]) in line
        # Counts are recomputed from the parsed tree.
        assert rows[2]["depth"] == 1
        assert rows[0]["connectives"] == 0
        # The cells each search could decide, of the 12 at [2,2] with 1 prop.
        assert [r["cone_cells"] for r in rows] == [1, 1, 12]

    def test_empty_list(self, req221, tmp_path, capsys):
        formulas = tmp_path / "empty.txt"
        formulas.write_text("")
        assert main(["bench", str(formulas), "--req", req221]) == 0
        out = capsys.readouterr().out
        assert "Id" in out

    def test_timeout_row_does_not_stop_sweep(self, tmp_path, capsys):
        # Row 2 is a slow refutation at a 36-cell shape; rows 1 and 3 are
        # instant.  The sweep must mark the slow row and keep going.
        from atlsat.formula import GenParams, format_formula, generate_random_formula

        req = tmp_path / "req.json"
        req.write_text(
            json.dumps({"agents": [{"locals": 2}, {"locals": 2}, {"locals": 2}], "props": 3})
        )
        slow = format_formula(generate_random_formula(GenParams(3, 4, 3, 20, 3)))
        formulas = tmp_path / "formulas.txt"
        formulas.write_text(f"p0\n{slow}\n!p1\n")
        out_json = tmp_path / "report.json"
        code = main(
            ["bench", str(formulas), "--req", str(req), "--timeout", "0.3",
             "--out-json", str(out_json)]
        )
        assert code == 0
        rows = json.loads(out_json.read_text())
        assert [r["verdict"] for r in rows] == ["SAT", "TIMEOUT", "SAT"]
        assert rows[1]["decisions"] == rows[1]["conflicts"] == rows[1]["theory_checks"] == 0

    def test_deterministic_report_is_byte_identical(self, req221, tmp_path):
        formulas = tmp_path / "formulas.txt"
        formulas.write_text("p0\n<<0,1>> X p0\np0 & !p0\n")
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            main(
                ["bench", str(formulas), "--req", req221,
                 "--out-json", str(out), "--deterministic-report"]
            )
        assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("value", ["nan", "0", "-1"])
def test_timeout_must_be_positive(value, req221, tmp_path, capsys):
    # Rejected once, before any formula is solved: no table, no ERROR rows.
    formulas = tmp_path / "formulas.txt"
    formulas.write_text("p0\np0 & !p0\n")
    for argv in (["check", "-f", "p0"], ["bench", str(formulas)]):
        assert main(argv + ["--req", req221, "--timeout", value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "time limit must be a number > 0" in captured.err


def test_every_solver_config_field_is_a_flag(tmp_path):
    # A SolverConfig field no flag sets is a knob only code can reach.
    args = build_parser().parse_args(
        ["check", "-f", "p0", "--req", str(tmp_path / "req.json"), "--timeout", "5",
         "--minimize-conflicts"]
    )
    config, default = _solver_config(args), SolverConfig()
    for f in dataclasses.fields(SolverConfig):
        assert getattr(config, f.name) != getattr(default, f.name), f.name


@pytest.mark.parametrize("command", ["check", "bench"])
@pytest.mark.parametrize("flag", ["--policy", "--seed"])
def test_decision_order_is_not_a_flag(tmp_path, capsys, command, flag):
    # Decisions follow one rule, so there is no policy or seed to pick.
    source = ["-f", "p0"] if command == "check" else [str(tmp_path / "formulas.txt")]
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([command, *source, "--req", "req.json", flag, "3"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err


def _readme_commands() -> list[list[str]]:
    """The ``atlsat`` commands in README's "Command line" block, split as a
    shell would: ``\\``-continued lines joined, ``#`` comments skipped."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(ln) for ln in lines if ln.strip() and not ln.lstrip().startswith("#")]


def test_readme_commands_parse():
    commands = _readme_commands()
    assert len(commands) >= 5
    for argv in commands:
        assert argv[0] == "atlsat"
        build_parser().parse_args(argv[1:])
