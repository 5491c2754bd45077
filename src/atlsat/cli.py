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
from contextlib import nullcontext
from dataclasses import asdict

from .approx import check_validity
from .formula import (
    Formula,
    FormulaSyntaxError,
    connective_count,
    format_formula,
    generate_with_counts,
    normalize,
    parse_formula,
    strategic_depth,
)
from .solver import SolveTimeout, SolverConfig, SolverStats, solve_satisfiability
from .witness import (
    read_requirements_json,
    read_text,
    read_witness_json,
    witness_to_dot,
    write_text,
    write_witness_json,
)

EXIT_SAT = 10
EXIT_UNSAT = 20
EXIT_ERROR = 1


def _read_formula(args) -> Formula:
    if args.formula is not None:
        return parse_formula(args.formula)
    text = read_text(args.formula_file).strip()
    try:
        return parse_formula(text)
    except FormulaSyntaxError as exc:
        raise ValueError(f"{args.formula_file}: {exc}") from None


def _solver_config(args) -> SolverConfig:
    return SolverConfig(minimize_conflicts=args.minimize_conflicts, time_limit=args.timeout)


def _error(message) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_ERROR


def cmd_check(args) -> int:
    # Write the witness files first: an unwritable path leaves stdout empty.
    formula = _read_formula(args)
    req = read_requirements_json(args.req)
    result = solve_satisfiability(formula, req, _solver_config(args))
    if result.satisfiable and args.out_json:
        write_witness_json(result.witness, args.out_json)
    if result.satisfiable and args.out_dot:
        with open(args.out_dot, "w", encoding="utf-8") as fh:
            write_text(fh, witness_to_dot(result.witness))
    stats = result.stats
    if args.verbose:
        print(
            f"c decisions={stats.decisions} conflicts={stats.conflicts} "
            f"theory_checks={stats.theory_checks} propagations={stats.propagations} "
            f"rechecks={stats.rechecks} reused={stats.reused} "
            f"cone={stats.cone_cells}/{req.shape.bit_count} time={stats.wall_time:.3f}s"
        )
    if result.satisfiable:
        print("s SATISFIABLE")
        return EXIT_SAT
    print("s UNSATISFIABLE")
    return EXIT_UNSAT


def cmd_generate(args) -> int:
    # Every formula is drawn before any is printed.  Each scan starts one
    # seed past the seed of the formula before it.
    if args.count < 0:
        raise ValueError(f"--count must be >= 0, got {args.count}")
    lines, seed = [], args.seed
    for _ in range(args.count):
        f, seed = generate_with_counts(
            args.agents, args.groups, args.props, args.depth, args.connectives, seed
        )
        lines.append(format_formula(f))
        seed += 1
    for line in lines:
        print(line)
    return 0


def _report_rows(lines: list[str], formulas: list[Formula], req, config) -> list[dict]:
    """Solve each formula: one report row each, its structure counts
    recomputed from the parsed tree, its time the solve's alone, and every
    count of its ``SolverStats``.  A TIMEOUT or ERROR row reads the zero
    counts of a fresh ``SolverStats``."""
    rows = []
    for line, formula in zip(lines, formulas):
        stats, start = SolverStats(), time.perf_counter()
        try:
            result = solve_satisfiability(formula, req, config)
            verdict, stats = ("SAT" if result.satisfiable else "UNSAT"), result.stats
        except SolveTimeout:
            verdict = "TIMEOUT"
        except ValueError as exc:
            _error(f"formula {line!r}: {exc}")
            verdict = "ERROR"
        elapsed = time.perf_counter() - start
        rows.append({
            "id": len(rows) + 1,
            "formula": line,
            "depth": strategic_depth(formula),
            "connectives": connective_count(formula),
            "verdict": verdict,
            "time": elapsed,
            **{k: v for k, v in asdict(stats).items() if k != "wall_time"},
        })
    return rows


def cmd_bench(args) -> int:
    # Every input is checked, and the report file opened, before the first solve.
    config = _solver_config(args)
    req = read_requirements_json(args.req)
    text = read_text(args.formulas)
    lines = [ln for ln in map(str.strip, text.split("\n")) if ln and not ln.startswith("#")]
    formulas = []
    for line in lines:
        try:
            formulas.append(parse_formula(line))
        except FormulaSyntaxError as exc:
            raise ValueError(f"formula {line!r}: {exc}") from None
    with open(args.out_json, "w", encoding="utf-8") if args.out_json else nullcontext() as fh:
        rows = _report_rows(lines, formulas, req, config)
        header = f"{'Id':>3} {'Depth':>5} {'Con.':>5} {'Verdict':>8} {'Time[s]':>9}"
        print(header)
        print("-" * len(header))
        for r in rows:
            print(f"{r['id']:>3} {r['depth']:>5} {r['connectives']:>5} {r['verdict']:>8} "
                  f"{r['time']:>9.3f}")
            if args.deterministic_report:
                del r["time"]
        if fh is not None:
            write_text(fh, json.dumps(rows, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_verify(args) -> int:
    formula = _read_formula(args)
    model = read_witness_json(args.witness)
    if check_validity(model, normalize(formula)):
        print("verified: formula holds at the initial state")
        return 0
    print("verification FAILED: formula does not hold at the initial state")
    return EXIT_ERROR


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--timeout", type=float, default=None, help="time limit in seconds, > 0")
    p.add_argument(
        "--minimize-conflicts",
        action="store_true",
        help="justify each theory conflict clause by the cells the failed over-approximation "
        "read, then greedily shrink it; without this flag the clause negates the whole trail",
    )


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
    try:
        return args.func(args)
    except (ValueError, OSError, SolveTimeout) as exc:
        return _error(exc)


if __name__ == "__main__":
    sys.exit(main())
