"""Coalition pre-image and the fixpoints of the strategic operators.

State sets are int bitmasks over the global state indices of the ambient
shape.  Strategic operators are round-based fixpoints of the coalition
pre-image :func:`atl_pre`, which never enumerates joint actions: it
eliminates the outsiders (for all), then the coalition members (exists), one
agent at a time.  Protocol rows may be empty in the split structures of
:mod:`atlsat.approx`, whose formula recursion calls these: an empty
coalition row gives no choice, an empty outsider row constrains nothing.
"""

from __future__ import annotations

from .mas import TransitionStructure

StateSet = int


def atl_pre(m: TransitionStructure, coalition, x: StateSet) -> StateSet:
    """States from which the coalition can force the next state into ``x``:
    some joint choice of enabled coalition actions such that every completion
    by the other agents' enabled actions lands in ``x``.  The grand coalition
    gives the existential pre-image, the empty coalition the universal one.

    Each step of the :meth:`~atlsat.mas.TransitionStructure.choice_masks`
    plan moves one agent from target to source coordinate: slot ``l`` takes
    the slices of ``y`` at the actions enabled at local state ``l``, shifted
    into place, ANDed for an outsider and ORed for a member.
    """
    y = x
    for member, weight, slots, rows in m.choice_masks(tuple(coalition)):
        z = 0
        for l, (slot, row) in enumerate(zip(slots, rows)):
            if member:
                for a in row:
                    d = (l - a) * weight
                    z |= (y << d if d >= 0 else y >> -d) & slot
                continue
            acc = slot
            for a in row:
                d = (l - a) * weight
                acc &= y << d if d >= 0 else y >> -d
            z |= acc
        y = z
    return y


def solve_next(m: TransitionStructure, coalition, x: StateSet) -> StateSet:
    return atl_pre(m, coalition, x)


def solve_globally(m: TransitionStructure, coalition, x: StateSet) -> StateSet:
    y = x
    while True:
        y2 = x & atl_pre(m, coalition, y)
        if y2 == y:
            return y
        y = y2


def solve_until(m: TransitionStructure, coalition, x1: StateSet, x2: StateSet) -> StateSet:
    y = x2
    while True:
        y2 = x2 | (x1 & atl_pre(m, coalition, y))
        if y2 == y:
            return y
        y = y2


def solve_op(op: str, m: TransitionStructure, y1: StateSet, y2: StateSet | None = None, coalition=()) -> StateSet:
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
