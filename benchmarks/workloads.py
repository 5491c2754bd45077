"""The benchmark's instance sets.

Every instance is a (formula, requirements, solver config) triple whose
verdict is known in advance:

* ``sweep``: the criterion-6 formulas (formula 1 plus the eight frozen
  generator rows) at shapes ``[2,2,2]`` and ``[2,2,2,2]`` with three
  propositions, default search.  Each has a witness the independent
  checker accepts, so UNSAT is wrong.
* ``refute-bool``: ``p0 & !p0`` with conflict minimization off, refuted by
  Boolean conflicts alone.
* ``refute-theory``: ATL contradictions refuted through theory conflicts
  with minimization on, plus the criterion-7 minimized ``p0 & !p0`` ladder.
  Disjoint coalitions cannot force contradictory next states, and a state
  where every path reaches ``!p0`` admits no strategy keeping ``p0``.

The seed only fixes the order the instances are solved in.  Fresh generator
draws, and relabelling agents or propositions of the frozen formulas, make
single instances take from 0.1 s to over 30 s, so they are not used.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from atlsat import (
    Formula,
    GenParams,
    ModelShape,
    Requirements,
    SolverConfig,
    connective_count,
    generate_random_formula,
    parse_formula,
    strategic_depth,
)


@dataclass(frozen=True)
class Instance:
    id: str
    formula: Formula
    req: Requirements
    config: SolverConfig
    expect_sat: bool


@dataclass(frozen=True)
class Workload:
    """``min_passes`` is the least number of passes a timed run makes; the
    tail percentile is fixed from it."""

    name: str
    min_passes: int


WORKLOADS = {
    "sweep": Workload("sweep", min_passes=2),
    "refute-bool": Workload("refute-bool", min_passes=10),
    "refute-theory": Workload("refute-theory", min_passes=2),
}

# Criterion 6: formula 1, then (strategic depth, connectives, generator seed)
# rows of GenParams(3 agents, 4 coalitions, 3 props).
SWEEP_FORMULA_1 = (
    "<<0>> X (!p0 | <<1>> G (!p1 | <<0,1>> F (!p1 | <<0,1>> F (!p0 | "
    "<<2>> F <<0>> X (!p0 | <<1>> G (!p1 | <<0,1>> G (<<0>> F !p0)))))))"
)
SWEEP_ROWS = (
    (9, 13, 8),
    (13, 19, 21),
    (17, 25, 24),
    (20, 31, 17),
    (23, 35, 15),
    (26, 41, 21),
    (30, 49, 60),
    (33, 55, 9),
)
# [3,3,3] is left out: its pass takes about 13 s, so a run would time each
# instance once, and single short solves vary by up to 50% on a shared host.
SWEEP_SHAPES = ((2, 2, 2), (2, 2, 2, 2))

# The ladder's next rung, [3,2] with 2 props, is left out: one solve takes
# about 25 s, longer than a whole timed run.
REFUTE_BOOL_SHAPES = (((2, 2), 1), ((3, 1), 1), ((2, 2, 2), 1))

REFUTE_THEORY_CASES = (
    ("<<0>> X p0 & <<1>> X !p0", (((2, 2, 2), 1), ((2, 2, 2), 2), ((3, 2, 2), 2))),
    # [3,2,2] with 2 props is left out for this formula: at about 5 s it was
    # half of each pass, so fewer passes fit in a run.
    ("<<0,1>> X p0 & <<2>> X !p0", (((2, 2, 2), 1), ((2, 2, 2), 2))),
    ("<<0>> G p0 & <<>> F !p0", (((2, 2, 2), 1), ((2, 2, 2), 2), ((3, 2), 1))),
)
# Criterion 7: (local states per agent, initial locals, props).
MINIMIZED_LADDER = (
    ((2, 2), (0, 0), 1),
    ((3, 2), (0, 0), 2),
    ((2, 2, 2), (0, 0, 0), 2),
    ((5,), (0,), 1),
    ((4, 2), (1, 1), 1),
    ((3, 3), (2, 2), 1),
    ((2, 2, 2), (1, 1, 1), 2),
)


def _req(locals_per_agent, props: int, initial=None) -> Requirements:
    return Requirements(ModelShape(locals_per_agent, initial, props))


def _shape_tag(locals_per_agent, props: int, initial=None) -> str:
    tag = "x".join(map(str, locals_per_agent)) + f"p{props}"
    if initial is not None and any(initial):
        tag += "i" + "".join(map(str, initial))
    return tag


def sweep_formulas() -> list[tuple[str, Formula]]:
    out = [("f1", parse_formula(SWEEP_FORMULA_1))]
    for depth, connectives, seed in SWEEP_ROWS:
        f = generate_random_formula(GenParams(3, 4, 3, depth, seed))
        if strategic_depth(f) != depth or connective_count(f) != connectives:
            raise RuntimeError(f"generator no longer reproduces sweep row {depth}/{seed}")
        out.append((f"d{depth}s{seed}", f))
    return out


def _sweep() -> list[Instance]:
    config = SolverConfig()
    formulas = sweep_formulas()
    return [
        Instance(f"sweep/{_shape_tag(locs, 3)}/{name}", f, _req(locs, 3), config, True)
        for locs in SWEEP_SHAPES
        for name, f in formulas
    ]


def _refute_bool() -> list[Instance]:
    f = parse_formula("p0 & !p0")
    config = SolverConfig(minimize_conflicts=False)
    return [
        Instance(f"refute-bool/{_shape_tag(locs, p)}", f, _req(locs, p), config, False)
        for locs, p in REFUTE_BOOL_SHAPES
    ]


def _refute_theory() -> list[Instance]:
    config = SolverConfig(minimize_conflicts=True)
    out = []
    for text, shapes in REFUTE_THEORY_CASES:
        f = parse_formula(text)
        for locs, p in shapes:
            tag = _shape_tag(locs, p)
            out.append(Instance(f"refute-theory/{tag}/{text}", f, _req(locs, p), config, False))
    f = parse_formula("p0 & !p0")
    for locs, init, p in MINIMIZED_LADDER:
        tag = _shape_tag(locs, p, init)
        out.append(Instance(f"refute-theory/{tag}/p0 & !p0", f, _req(locs, p, init), config, False))
    return out


_BUILDERS = {"sweep": _sweep, "refute-bool": _refute_bool, "refute-theory": _refute_theory}


def build_instances(workload: str, seed: int) -> list[Instance]:
    """The workload's instances, in the solve order the seed fixes."""
    instances = _BUILDERS[workload]()
    random.Random(seed).shuffle(instances)
    return instances
