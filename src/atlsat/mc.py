"""Coalition pre-image and the fixpoints of the strategic operators.

State sets are int bitmasks over the global state indices of the ambient
shape.  Strategic operators are round-based fixpoints of the coalition
pre-image :func:`atl_pre`, which never enumerates joint actions: it
eliminates the outsiders (for all), then the coalition members (exists), one
agent at a time.  Each agent's step is a few grouped shifts: the enabled
cells of its protocol table are grouped by the offset they move the agent's
coordinate by, one shift and one mask per distinct offset
(:meth:`~atlsat.mas.ModelShape.agent_shifts`).  A member's step ORs the
masked shifts of the set; an outsider's step is the same OR on the
complement, complemented back.  Protocol rows may be empty in the split
views of :mod:`atlsat.approx`: an empty row is in no mask, so an empty
coalition row gives no choice and an empty outsider row constrains nothing.
"""

from __future__ import annotations

from .mas import TransitionStructure

StateSet = int


def atl_pre(m: TransitionStructure, coalition, x: StateSet) -> StateSet:
    """States from which the coalition can force the next state into ``x``:
    some joint choice of enabled coalition actions such that every completion
    by the other agents' enabled actions lands in ``x``.  The grand coalition
    gives the existential pre-image, the empty coalition the universal one.

    ``m`` is a transition structure or a split view of
    :mod:`atlsat.approx`; each has a ``shape`` and gives its plan through
    ``choice_masks(coalition)``, as
    :meth:`~atlsat.mas.TransitionStructure.choice_masks` does.  Each step of
    the plan moves one agent from target to source coordinate: ``z = OR_d
    shift(y, d) & mask_d`` over the agent's distinct offsets ``d``.  That is
    a member's step.  An outsider's is its dual, ``full & ~z`` with ``z``
    taken on ``full & ~y``; the outsiders come first, so the set is
    complemented once before them and once after.
    """
    full = m.shape.full_mask
    y, complemented = x, False
    for member, shifts in m.choice_masks(coalition):
        if member == complemented:
            y, complemented = full & ~y, not complemented
        z = 0
        for d, mask in shifts:
            z |= (y << d if d >= 0 else y >> -d) & mask
        y = z
    return full & ~y if complemented else y


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
