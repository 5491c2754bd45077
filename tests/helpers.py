"""Helpers the tests share that the solver itself does not need: a model's
transition structure, operator evaluation one operator at a time, the core
grammar test, the cone of influence, cell classification, partial models
built from and read as tables or assignments, a partial model computed in
bulk as the reference for the incremental one, split structures built on
their own, the evaluations a compiled program makes, and the search in a
seeded random decision order."""

from __future__ import annotations

import random
from itertools import compress, repeat
from operator import eq, ne
from types import SimpleNamespace

from atlsat.approx import _MODES, Mode, PartialModel, Program
from atlsat.formula import (
    And, Formula, Globally, Next, Not, Prop, Until, iter_subformulas, normalize,
)
from atlsat.mas import Assignment, Model, ModelShape, TransitionStructure
from atlsat.mc import StateSet, solve_globally, solve_next, solve_until
from atlsat.solver import Requirements, SolverConfig, SolverResult, _Search


def structure(m: Model) -> TransitionStructure:
    """The transition structure of a model's rows and masks, the one
    :meth:`~atlsat.approx.Program.exact` evaluates on."""
    return TransitionStructure(m.shape, m.enabled, m.prop_masks)


def solve_op(
    op: str, m: TransitionStructure, y1: StateSet, y2: StateSet | None = None, coalition=()
) -> StateSet:
    """Evaluate one operator on already-solved argument sets."""
    binary = op in ("and", "until")
    if binary and y2 is None:
        raise ValueError(f"operator {op!r} takes two state sets")
    if not binary and y2 is not None:
        raise ValueError(f"operator {op!r} takes one state set")
    if op == "not":
        return m.shape.full_mask & ~y1
    if op == "and":
        return y1 & y2
    plan, full = m.choice_masks(coalition), m.shape.full_mask
    if op == "next":
        return solve_next(plan, full, y1)
    if op == "globally":
        return solve_globally(plan, full, y1)
    if op == "until":
        return solve_until(plan, full, y1, y2)
    raise ValueError(f"unknown operator {op!r}")


# The node types of the core grammar, the only ones ``normalize`` emits.
CORE_TYPES = (Prop, Not, And, Next, Globally, Until)


def is_core(f: Formula) -> bool:
    """Whether every node of ``f`` is of a core type."""
    return all(isinstance(node, CORE_TYPES) for node in iter_subformulas(f))


def cone_of_influence(f: Formula, shape: ModelShape) -> frozenset[int]:
    """The cells the theory verdict on core formula ``f`` can read: the
    valuation cells of the propositions ``f`` names and, when ``f`` has a
    strategic operator, every protocol cell.  Without one the verdict is the
    initial state's bit of a set computed state by state, so only valuation
    cells at the initial state count."""
    nodes = list(iter_subformulas(f))
    props = {node.index for node in nodes if isinstance(node, Prop)}
    if any(isinstance(node, (Next, Globally, Until)) for node in nodes):
        states = range(shape.state_count)
        cells = set(range(shape.vb_offset))
    else:
        states, cells = (shape.initial_state,), set()
    cells.update(shape.vb_bit(s, v) for s in states for v in props)
    return frozenset(cells)


def bit_owner(shape: ModelShape, index: int) -> tuple:
    """Classify a cell index: ('tb', agent, local, action) or
    ('vb', state, prop)."""
    if not 0 <= index < shape.bit_count:
        raise IndexError(f"cell {index} out of range (bit count {shape.bit_count})")
    if index >= shape.vb_offset:
        rel = index - shape.vb_offset
        return ("vb", rel // shape.prop_count, rel % shape.prop_count)
    for agent in range(shape.agent_count - 1, -1, -1):
        if index >= shape.tb_offsets[agent]:
            rel = index - shape.tb_offsets[agent]
            n = shape.locals_per_agent[agent]
            return ("tb", agent, rel // n, rel % n)
    raise AssertionError


def partial_model(shape: ModelShape, cp, cv) -> PartialModel:
    """The partial model of per-agent partial protocol tables ``cp`` (row =
    local state) and per-state partial valuation rows ``cv``."""
    cp = tuple(tuple(tuple(row) for row in table) for table in cp)
    cv = tuple(tuple(row) for row in cv)
    if len(cp) != shape.agent_count:
        raise ValueError("one partial protocol per agent required")
    for i, table in enumerate(cp):
        n = shape.locals_per_agent[i]
        if len(table) != n or any(len(row) != n for row in table):
            raise ValueError(f"partial protocol of agent {i} must be {n}x{n}")
    if len(cv) != shape.state_count or any(len(row) != shape.prop_count for row in cv):
        raise ValueError("partial valuation must be |St| x prop_count")
    cells = tuple(c for table in cp for row in table for c in row)
    return PartialModel(shape, cells + tuple(c for row in cv for c in row))


def unconstrained(shape: ModelShape) -> PartialModel:
    """The partial model with every cell undefined."""
    return PartialModel(shape, (None,) * shape.bit_count)


def to_assignment(pm: PartialModel) -> Assignment:
    """The partial model's cells as an assignment."""
    return Assignment(pm.shape, tuple(pm.cells))


def flipped(mode: Mode) -> Mode:
    """The other approximation mode."""
    return Mode.UNDER if mode is Mode.OVER else Mode.OVER


def visits(program: Program, mode: Mode) -> list[tuple[Formula, Mode]]:
    """The ``(subformula, mode)`` evaluations of root mode ``mode``, in step
    order."""
    steps = program.steps[_MODES.index(mode)]
    return [(program.nodes[out >> 1], _MODES[out & 1]) for _, out, *_ in steps]


def with_cell(pm: PartialModel, index: int, value) -> PartialModel:
    """A refined copy of ``pm`` with one cell set."""
    cells = list(pm.cells)
    cells[index] = value
    return PartialModel(pm.shape, tuple(cells))


def protocol_tables(pm: PartialModel) -> tuple:
    """Per agent, the partial protocol table, row = local state."""
    shape = pm.shape
    return tuple(
        tuple(tuple(pm.cells[k : k + n]) for k in range(off, off + n * n, n))
        for off, n in zip(shape.tb_offsets, shape.locals_per_agent)
    )


def valuation_rows(pm: PartialModel) -> tuple:
    """Per global state, the partial valuation row."""
    p, off = pm.shape.prop_count, pm.shape.vb_offset
    return tuple(
        tuple(pm.cells[off + s * p : off + s * p + p]) for s in range(pm.shape.state_count)
    )


def prop_masks(shape: ModelShape, valuation) -> tuple[tuple[int, ...], ...]:
    """Per proposition its state mask from the valuation cells, computed in
    bulk: first necessary (an undefined cell counts as 0), then possible
    (as 1)."""
    powers = [1 << s for s in range(shape.state_count)]
    p = shape.prop_count
    return tuple(
        tuple(sum(compress(powers, ones[v::p])) for v in range(p))
        for ones in (tuple(map(eq, valuation, repeat(1))), tuple(map(ne, valuation, repeat(0))))
    )


def reference_partial_model(shape: ModelShape, cells) -> SimpleNamespace:
    """What a :class:`PartialModel` of ``cells`` reads as, computed from
    scratch: per agent its slice, the (necessary, possible) rows, per local
    state the actions whose cell is 1 and those whose cell is not 0 (a row
    determined empty included), then the ``agent_shifts`` of each; and
    :func:`prop_masks`.  It serves :func:`split_structure` as a partial
    model does."""
    cells = tuple(cells)
    slices = []
    for i, (off, n) in enumerate(zip(shape.tb_offsets, shape.locals_per_agent)):
        rows = tuple(
            tuple(
                tuple(a for a in range(n) if enabled(cells[k + a]))
                for k in range(off, off + n * n, n)
            )
            for enabled in (lambda c: c == 1, lambda c: c != 0)
        )
        slices.append(rows + tuple(shape.agent_shifts(i, r) for r in rows))
    slices = tuple(slices)
    masks = prop_masks(shape, cells[shape.vb_offset :])
    return SimpleNamespace(shape=shape, cells=cells, slices=lambda: slices, masks=masks)


def split_structure(pm: PartialModel, coalition, mode: Mode) -> TransitionStructure:
    """The structure a strategic operator over ``coalition`` evaluates on in
    ``mode``: in ``OVER`` coalition agents get possible protocols, the rest
    necessary ones, and the valuation is possible; ``UNDER`` is the dual.

    ``split_structure(pm, all agents, Mode.UNDER)`` is the all-necessary
    structure.  Its rows may be empty, which leaves a state without
    successors; a goal state with no successors still under-approximates
    soundly, since every compatible total model is serial.
    """
    optimistic = mode is Mode.OVER
    enabled = tuple(entry[(i in coalition) == optimistic] for i, entry in enumerate(pm.slices()))
    return TransitionStructure(pm.shape, enabled, pm.masks[optimistic])


class RandomOrderSearch(_Search):
    """The search with decisions drawn from ``random.Random(seed)``: a free
    cone cell, then its value, each uniformly.  Any decision order over the
    cone keeps the verdict, so this exercises orders the activity rule never
    takes."""

    def __init__(self, f, req: Requirements, config: SolverConfig, seed: int):
        super().__init__(f, req, config)
        self.rng = random.Random(seed)
        self.cone = sorted(self.program.cone)

    def decide(self) -> bool:
        free = [v for v in self.cone if self.value[v] is None]
        if not free:
            return False
        v = self.rng.choice(free)
        self.trail_lim.append(len(self.trail))
        self.stats.decisions += 1
        self.assign((v + 1) if self.rng.random() < 0.5 else -(v + 1), None)
        return True


def solve_in_random_order(
    f: Formula, req: Requirements, seed: int, config: SolverConfig = SolverConfig()
) -> SolverResult:
    """``solve_satisfiability`` with the decisions of :class:`RandomOrderSearch`."""
    return RandomOrderSearch(normalize(f), req, config, seed).run()
