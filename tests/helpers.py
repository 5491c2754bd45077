"""Helpers the tests share that the solver itself does not need: operator
evaluation one operator at a time, and cell classification."""

from __future__ import annotations

from atlsat.mas import ModelShape, TransitionStructure
from atlsat.mc import StateSet, solve_globally, solve_next, solve_until


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
        return m.full_mask & ~y1
    if op == "and":
        return y1 & y2
    if op == "next":
        return solve_next(m, coalition, y1)
    if op == "globally":
        return solve_globally(m, coalition, y1)
    if op == "until":
        return solve_until(m, coalition, y1, y2)
    raise ValueError(f"unknown operator {op!r}")


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
