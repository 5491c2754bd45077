"""Command-line front-end.

Subcommands: ``check`` (decide one formula against a requirements file),
``generate`` (emit random formulas), ``bench`` (run a formula list and
tabulate), ``verify`` (re-check a witness file against a formula).

``check`` exits 10 on Sat, 20 on Unsat, and 1 on any error, mirroring the
usual solver-competition convention.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass

from .approx import check_validity
from .formula import (
    Formula,
    FormulaSyntaxError,
    GenParams,
    connective_count,
    format_formula,
    generate_random_formula,
    generate_with_counts,
    normalize,
    parse_formula,
    strategic_depth,
)
from .mas import ModelShape
from .solver import (
    BoundsError,
    Requirements,
    SolveTimeout,
    SolverConfig,
    solve_satisfiability,
)
from .witness import read_witness_json, witness_to_dot, write_witness_json

EXIT_SAT = 10
EXIT_UNSAT = 20
EXIT_ERROR = 1


@dataclass
class RunReport:
    """One solved formula: structure counts recomputed from the parsed tree,
    never trusted from the input."""

    formula: str
    depth: int
    connectives: int
    verdict: str
    wall_time: float
    decisions: int = 0
    conflicts: int = 0
    theory_checks: int = 0

    def to_dict(self, include_time: bool = True) -> dict:
        d = {
            "formula": self.formula,
            "depth": self.depth,
            "connectives": self.connectives,
            "verdict": self.verdict,
            "decisions": self.decisions,
            "conflicts": self.conflicts,
            "theory_checks": self.theory_checks,
        }
        if include_time:
            d["time"] = self.wall_time
        return d


def _int_rows(data: dict, field: str, width: int) -> tuple[tuple[int, ...], ...]:
    rows = data.get(field, [])
    if not isinstance(rows, list) or not all(
        isinstance(row, list) and len(row) == width and all(isinstance(x, int) for x in row)
        for row in rows
    ):
        raise ValueError(f"requirements field {field!r}: expected rows of {width} integers")
    return tuple(map(tuple, rows))


def load_requirements(path: str) -> Requirements:
    """Read a requirements file; malformed content raises ``ValueError``
    naming the bad field."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    agents = data.get("agents") if isinstance(data, dict) else None
    if not isinstance(agents, list) or not all(
        isinstance(a, dict)
        and isinstance(a.get("locals"), int)
        and isinstance(a.get("initial", 0), int)
        for a in agents
    ):
        raise ValueError(
            "requirements field 'agents': expected a list of objects with an "
            "integer 'locals' and an optional integer 'initial'"
        )
    props = data.get("props", 0)
    if not isinstance(props, int) or props < 0:
        raise ValueError("requirements field 'props': expected an integer >= 0")
    cp, cv = _int_rows(data, "cp", 4), _int_rows(data, "cv", 3)
    try:
        shape = ModelShape(
            [a["locals"] for a in agents], [a.get("initial", 0) for a in agents], props
        )
    except ValueError as exc:
        raise ValueError(f"requirements field 'agents': {exc}") from None
    for field, rows, cell in (("cp", cp, shape.tb_bit), ("cv", cv, shape.vb_bit)):
        for row in rows:
            try:
                cell(*row[:-1])
            except IndexError as exc:
                raise ValueError(f"requirements field {field!r}: {exc}") from None
    return Requirements(shape, cp, cv)


def _read_formula(args) -> Formula:
    if args.formula is not None:
        return parse_formula(args.formula)
    with open(args.formula_file, "r", encoding="utf-8") as fh:
        return parse_formula(fh.read().strip())


def _solver_config(args) -> SolverConfig:
    return SolverConfig(
        policy=args.policy,
        minimize_conflicts=args.minimize_conflicts,
        seed=args.seed,
        time_limit=args.timeout,
    )


def cmd_check(args) -> int:
    try:
        formula = _read_formula(args)
        req = load_requirements(args.req)
        result = solve_satisfiability(formula, req, _solver_config(args))
    except (FormulaSyntaxError, BoundsError, ValueError, OSError, SolveTimeout) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    stats = result.stats
    if args.verbose:
        print(
            f"c decisions={stats.decisions} conflicts={stats.conflicts} "
            f"theory_checks={stats.theory_checks} time={stats.wall_time:.3f}s"
        )
    if result.satisfiable:
        print("s SATISFIABLE")
        if args.out_json:
            write_witness_json(result.witness, args.out_json)
        if args.out_dot:
            with open(args.out_dot, "w", encoding="utf-8") as fh:
                fh.write(witness_to_dot(result.witness))
        return EXIT_SAT
    print("s UNSATISFIABLE")
    return EXIT_UNSAT


def cmd_generate(args) -> int:
    try:
        for k in range(args.count):
            if args.connectives is not None:
                f, _ = generate_with_counts(
                    args.agents,
                    args.groups,
                    args.props,
                    args.depth,
                    args.connectives,
                    base_seed=args.seed + k,
                )
            else:
                f = generate_random_formula(
                    GenParams(args.agents, args.groups, args.props, args.depth, args.seed + k)
                )
            print(format_formula(f))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return 0


def cmd_bench(args) -> int:
    try:
        req = load_requirements(args.req)
        with open(args.formulas, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    reports: list[RunReport] = []
    for line in lines:
        try:
            formula = parse_formula(line)
        except FormulaSyntaxError as exc:
            print(f"error in formula {line!r}: {exc}", file=sys.stderr)
            return EXIT_ERROR
        depth = strategic_depth(formula)
        con = connective_count(formula)
        start = time.perf_counter()
        try:
            result = solve_satisfiability(formula, req, _solver_config(args))
            verdict = "SAT" if result.satisfiable else "UNSAT"
            stats = result.stats
            reports.append(
                RunReport(
                    line,
                    depth,
                    con,
                    verdict,
                    time.perf_counter() - start,
                    stats.decisions,
                    stats.conflicts,
                    stats.theory_checks,
                )
            )
        except SolveTimeout:
            reports.append(RunReport(line, depth, con, "TIMEOUT", time.perf_counter() - start))
        except (BoundsError, ValueError) as exc:
            print(f"error in formula {line!r}: {exc}", file=sys.stderr)
            reports.append(RunReport(line, depth, con, "ERROR", time.perf_counter() - start))

    header = f"{'Id':>3} {'Depth':>5} {'Con.':>5} {'Verdict':>8} {'Time[s]':>9}"
    print(header)
    print("-" * len(header))
    for i, r in enumerate(reports, start=1):
        print(f"{i:>3} {r.depth:>5} {r.connectives:>5} {r.verdict:>8} {r.wall_time:>9.3f}")

    if args.out_json:
        include_time = not args.deterministic_report
        rows = [
            {"id": i, **r.to_dict(include_time=include_time)}
            for i, r in enumerate(reports, start=1)
        ]
        with open(args.out_json, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


def cmd_verify(args) -> int:
    try:
        formula = _read_formula(args)
        model = read_witness_json(args.witness)
        holds = check_validity(model, normalize(formula))
    except (FormulaSyntaxError, IndexError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if holds:
        print("verified: formula holds at the initial state")
        return 0
    print("verification FAILED: formula does not hold at the initial state")
    return EXIT_ERROR


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--timeout", type=float, default=None, help="time limit in seconds")
    p.add_argument(
        "--minimize-conflicts",
        action="store_true",
        help="greedily shrink learned theory conflict clauses",
    )
    p.add_argument(
        "--policy",
        default="default",
        choices=["default", "one-first", "zero-first", "random"],
        help="decision policy",
    )
    p.add_argument("--seed", type=int, default=0, help="seed for randomized policies")


def _add_formula_source(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("-f", "--formula", help="formula text")
    group.add_argument("--formula-file", help="file containing one formula")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atlsat",
        description="Bounded satisfiability and model synthesis for "
        "alternating-time temporal logic",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide satisfiability against a requirements file")
    _add_formula_source(p)
    p.add_argument("--req", required=True, help="requirements JSON file")
    p.add_argument("--out-json", help="write the witness model as JSON on Sat")
    p.add_argument("--out-dot", help="write the witness transition graph as DOT on Sat")
    p.add_argument("-v", "--verbose", action="store_true", help="print solver statistics")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("generate", help="emit random formulas, one per line")
    p.add_argument("--agents", type=int, required=True)
    p.add_argument("--groups", type=int, required=True)
    p.add_argument("--props", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--connectives", type=int, default=None,
                   help="scan seeds until the Boolean connective count matches")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("bench", help="solve a list of formulas and tabulate")
    p.add_argument("formulas", help="file with one formula per line")
    p.add_argument("--req", required=True, help="requirements JSON file")
    p.add_argument("--out-json", help="write machine-readable reports")
    p.add_argument(
        "--deterministic-report",
        action="store_true",
        help="omit wall times from the machine-readable report",
    )
    _add_solver_flags(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("verify", help="re-check a witness file against a formula")
    _add_formula_source(p)
    p.add_argument("--witness", required=True, help="witness JSON file")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
