import json
import re

import pytest

from atlsat.approx import check_validity
from atlsat.cli import main
from atlsat.formula import (
    MAX_NESTING,
    connective_count,
    normalize,
    parse_formula,
    strategic_depth,
)
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


class TestVerify:
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

    def test_invalid_params_exit_one(self, capsys):
        assert main(
            ["generate", "--agents", "2", "--groups", "9", "--props", "1", "--depth", "2"]
        ) == 1
        assert "error" in capsys.readouterr().err


class TestBench:
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
