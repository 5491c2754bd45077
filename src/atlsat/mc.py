"""Coalition pre-image and the fixpoints of the strategic operators.

State sets are int bitmasks over the global state indices of a shape.
Strategic operators are round-based fixpoints of the coalition pre-image
:func:`atl_pre`, which never enumerates joint actions: it reads a plan that
eliminates the outsiders (for all), then the members (exists), one agent at
a time, each by a few grouped shifts, one shift and one mask per distinct
offset its enabled actions move its coordinate by
(:meth:`~atlsat.mas.ModelShape.agent_shifts`).  The plan comes from a
transition structure (:meth:`~atlsat.mas.TransitionStructure.choice_masks`)
or a split view of :mod:`atlsat.approx`, whose rows may be empty: an empty
row is in no mask, so an empty coalition row gives no choice and an empty
outsider row constrains nothing.
"""

from __future__ import annotations

StateSet = int
# Per agent, outsiders first: (is member, the (d, mask_d) pair of each offset).
Plan = tuple[tuple[bool, tuple[tuple[int, int], ...]], ...]


def atl_pre(plan: Plan, full: StateSet, x: StateSet) -> StateSet:
    """States from which the plan's coalition can force the next state into
    ``x``: some joint choice of enabled coalition actions such that every
    completion by the other agents' enabled actions lands in ``x``.  The
    grand coalition gives the existential pre-image, the empty coalition the
    universal one.  ``full`` is every state of the shape.

    Each step of the plan moves one agent from target to source coordinate:
    ``z = OR_d shift(y, d) & mask_d`` over the agent's distinct offsets
    ``d``.  That is a member's step.  An outsider's is its dual, ``full &
    ~z`` with ``z`` taken on ``full & ~y``; the outsiders come first, so the
    set is complemented once before them and once after.
    """
    y, complemented = x, False
    for member, shifts in plan:
        if member == complemented:
            y, complemented = full & ~y, not complemented
        z = 0
        for d, mask in shifts:
            z |= (y << d if d >= 0 else y >> -d) & mask
        y = z
    return full & ~y if complemented else y


def solve_next(plan: Plan, full: StateSet, x: StateSet) -> StateSet:
    return atl_pre(plan, full, x)


def solve_globally(plan: Plan, full: StateSet, x: StateSet) -> StateSet:
    y = x
    while True:
        y2 = x & atl_pre(plan, full, y)
        if y2 == y:
            return y
        y = y2


def solve_until(plan: Plan, full: StateSet, x1: StateSet, x2: StateSet) -> StateSet:
    y = x2
    while True:
        y2 = x2 | (x1 & atl_pre(plan, full, y))
        if y2 == y:
            return y
        y = y2
