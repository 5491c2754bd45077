"""Partial models, split views, and the one evaluator for exact and
approximate checking.

A :class:`PartialModel` is a three-valued view over the model cell vector:
each protocol and valuation cell is determined-true, determined-false, or
undefined.  Undefined cells resolve pessimistically (*necessary*: undef
excluded) or optimistically (*possible*: undef included).

:func:`sapp` computes, for a core formula, a state set guaranteed to contain
(mode ``OVER``) or be contained in (mode ``UNDER``) the exact satisfaction
set of every total model compatible with the partial model.  Negation swaps
the mode of the subformula; strategic operators evaluate on a split
view, whose optimism is split by coalition membership:

* ``OVER``: coalition agents get possible protocols, all others necessary
  ones, and the valuation is possible — extra coalition options and fewer
  adversary options can only grow the result;
* ``UNDER``: coalition agents get necessary protocols, all others possible
  ones, and the valuation is necessary — the exact dual.

The under split is what makes the lower bound sound: giving the adversary
anything less than its full possible protocol would let a state pass here
and still fail in some compatible completion where the adversary uses an
undetermined action.

Once every cell is determined both bounds equal the exact satisfaction set,
so exact checking (:func:`solve_formula`) runs the same steps on the plans
of one structure, built from the model's rows and masks, for every mode.

Both run a :class:`Program`: the core formula compiled for a shape into
hash-consed slots, evaluated by one loop with no recursion.  The pre-image
(:func:`~atlsat.mc.atl_pre`) reads only a plan, the ``(is member, shifts)``
steps of one coalition; a split view is its enabled rows and that plan.
The partial model keeps one memo entry per agent, its rows and their
shifts, in one tuple that is replaced only when an agent's slice changed.
A view kept across the theory calls of one solve refreshes itself from that
tuple: it skips the tuple it last read, and rebuilds its plan, by picking
each agent's shifts in elimination order, only when its enabled rows change.
The program reuses each strategic step's last result while its plan and
operands repeat.

When the over approximation excludes the initial state,
:meth:`Program.explain` walks that evaluation backwards and returns the
cells it read to do so, in ascending order and all of them assigned: the
valuation cells of the atoms it used, and the protocol cells that fix each
split row at the states whose strategic steps it used.  Least fixpoints in
``OVER`` and greatest ones in ``UNDER`` are justified by a set closed under
the step, the others by the ranks of their iterates.  Every partial model
that agrees with these cells excludes the initial state too, so the search
learns their negation as a theory conflict clause.  With the cells it
returns the sub-program of the value positions the pass justified, only
their steps, every other position held at its neutral value, which
minimization rechecks evaluate.  Its OVER contains the whole program's on
every partial model, so each candidate it refutes is a theory conflict.

A partial model is updated in place, one cell at a time, and recomputes a
proposition mask or an agent's rows only when one of its cells changed.  A
solve keeps two: the search's view of its assignment, and a probe of the
requirements that minimization rechecks move from candidate to candidate.
"""

from __future__ import annotations

from copy import copy
from enum import Enum
from itertools import compress
from operator import getitem, ne
from typing import Sequence

from . import mc
from .formula import And, Formula, Globally, Next, Not, Prop, Until
from .mas import CELL_VALUES, Assignment, Model, ModelShape, TransitionStructure, encode_model
from .mc import Plan, StateSet, solve_globally, solve_next, solve_until

Cell = int | None


class BoundsError(IndexError, ValueError):
    """A formula or requirements row names an index beyond the shape."""


class Mode(Enum):
    OVER = "over"
    UNDER = "under"


class PartialModel:
    """Shape plus the three-valued cell vector, laid out as in
    :class:`~atlsat.mas.Assignment`, updated in place one cell at a time.

    Setting a valuation cell sets or clears its state's bit in its
    proposition's necessary and possible masks.  Setting a protocol cell
    marks its agent stale; ``slices()`` looks a stale agent's slice up
    again in the shape's memo (:meth:`~atlsat.mas.ModelShape.agent_slice`),
    whose entry holds its rows and the pre-image shifts of each, and only
    then builds a new tuple of entries.  A protocol row determined false
    everywhere admits no compatible model: construction, and ``slices()``
    after an update, raise ``ValueError`` on it.
    """

    def __init__(self, shape: ModelShape, cells: Sequence[Cell]):
        if len(cells) != shape.bit_count:
            raise ValueError(
                f"partial model has {len(cells)} cells, shape needs {shape.bit_count}"
            )
        if not CELL_VALUES.issuperset(cells):
            raise ValueError("cells must be 0, 1 or None")
        self.shape = shape
        self.cells: list[Cell] = [None] * shape.bit_count
        self._vb, self._p = shape.vb_offset, shape.prop_count
        # Per proposition its state mask, first necessary, then possible.
        self.masks = ([0] * self._p, [shape.full_mask] * self._p)
        self._slices: tuple = (None,) * shape.agent_count
        self._agent = [i for i, n in enumerate(shape.locals_per_agent) for _ in range(n * n)]
        self._stale = set(range(shape.agent_count))
        self.load(cells)
        self.slices()

    @classmethod
    def from_assignment(cls, a: Assignment) -> "PartialModel":
        return cls(a.shape, a.bits)

    def put(self, cell: int, value: Cell) -> None:
        """Set one cell to 0, 1 or None."""
        cells = self.cells
        if cells[cell] == value:
            return
        cells[cell] = value
        k = cell - self._vb
        if k < 0:
            self._stale.add(self._agent[cell])
            return
        p = self._p
        v, bit = k % p, 1 << k // p
        necessary, possible = self.masks
        if value == 1:
            necessary[v] |= bit
        else:
            necessary[v] &= ~bit
        if value == 0:
            possible[v] &= ~bit
        else:
            possible[v] |= bit

    def load(self, cells: Sequence[Cell]) -> None:
        """Set every cell that differs from ``cells``."""
        for cell in compress(range(len(cells)), map(ne, self.cells, cells)):
            self.put(cell, cells[cell])

    def slices(self) -> tuple[tuple[tuple, ...], ...]:
        """Per agent the shape memo's entry for its protocol slice:
        ``(necessary rows, possible rows, necessary shifts, possible
        shifts)``.  The tuple is the same object until a stale agent is
        looked up again."""
        stale = self._stale
        if stale:
            shape, cells, slices = self.shape, self.cells, list(self._slices)
            for i in sorted(stale):
                off, n = shape.tb_offsets[i], shape.locals_per_agent[i]
                entry = slices[i] = shape.agent_slice(i, tuple(cells[off : off + n * n]))
                if () in entry[1]:
                    raise ValueError(
                        f"agent {i}, local state {entry[1].index(())}: row determined empty, "
                        "no compatible model exists"
                    )
            self._slices = tuple(slices)
            stale.clear()
        return self._slices


def is_compatible(m: Model, pm: PartialModel) -> bool:
    """Whether every determined cell of the partial model agrees with the
    model; undefined cells are unconstrained."""
    if m.shape != pm.shape:
        raise ValueError("model and partial model have different shapes")
    return all(
        want is None or have == want for have, want in zip(encode_model(m).bits, pm.cells)
    )


_MODES = (Mode.OVER, Mode.UNDER)  # by the ``u`` of a value position
_PROP, _NOT, _AND, _NEXT, _GLOBALLY, _UNTIL = range(6)
_KINDS = {Prop: _PROP, Not: _NOT, And: _AND, Next: _NEXT, Globally: _GLOBALLY, Until: _UNTIL}


def _cons(f: Formula, shape: ModelShape) -> tuple[list[tuple], list[Formula], int]:
    """The distinct subformulas of ``f`` as ``(kind, prop index or coalition,
    child slots)`` slots, children first, one node of ``f`` per slot, and
    the slot of ``f``.  Equal subformulas share a slot: the key holds child
    slots, never subtrees, so consing hashes no subtree.  Bounds are checked
    here, once, and raise :class:`BoundsError`."""
    # Pre-order, so each node comes before its children; consed in reverse.
    order: list[tuple[Formula, int, tuple[Formula, ...]]] = []
    stack = [f]
    while stack:
        node = stack.pop()
        kind = _KINDS.get(type(node))
        if kind is None:
            raise ValueError(f"formula is not core-normalized: {node!r}")
        if kind == _PROP:
            children = ()
        elif kind == _AND or kind == _UNTIL:
            children = (node.left, node.right)
        else:
            children = (node.child,)
        order.append((node, kind, children))
        stack.extend(children)
    slots: list[tuple] = []
    nodes: list[Formula] = []
    index: dict[tuple, int] = {}
    slot_of: dict[int, int] = {}  # id of a node of f -> its slot
    for node, kind, children in reversed(order):
        if kind == _PROP:
            arg = node.index
            if arg >= shape.prop_count:
                sugar = " (true, false and F are written with p0)" if arg == 0 else ""
                raise BoundsError(
                    f"formula uses p{arg} but only {shape.prop_count} propositions are "
                    f"declared{sugar}"
                )
        elif kind >= _NEXT:
            arg = node.coalition.members
            if arg and arg[-1] >= shape.agent_count:
                raise BoundsError(
                    f"formula names agent {arg[-1]} but only {shape.agent_count} agents "
                    "are declared"
                )
        else:
            arg = None
        key = (kind, arg, tuple([slot_of[id(c)] for c in children]))
        slot = index.get(key)
        if slot is None:
            slot = index[key] = len(slots)
            slots.append(key)
            nodes.append(node)
        slot_of[id(node)] = slot
    return slots, nodes, slot_of[id(f)]


class _Split:
    """A split view of one coalition and mode: the ``coalition``, which
    :meth:`Program.exact` reads, per agent which of its (necessary, possible)
    rows the view takes, the enabled rows, which :meth:`Program.explain`
    reads, and the pre-image plan that :func:`~atlsat.mc.atl_pre` reads.
    ``source`` is the partial model's slices tuple of the last refresh."""

    __slots__ = ("coalition", "picks", "order", "source", "enabled", "plan")

    def __init__(self, shape: ModelShape, members: tuple[int, ...], mode: Mode):
        optimistic = mode is Mode.OVER
        self.coalition = members
        self.order = shape.elimination_plan(members)
        self.picks = tuple(int((i in members) == optimistic) for i in range(shape.agent_count))
        self.source = self.enabled = None
        self.plan: Plan = ()

    def refresh(self, slices: tuple[tuple[tuple, ...], ...]) -> Plan:
        """Read the view from :meth:`PartialModel.slices` and return its
        plan, rebuilt, by picking each agent's shifts in elimination order,
        only when the enabled rows changed."""
        if slices is not self.source:
            self.source, picks = slices, self.picks
            enabled = tuple(map(getitem, slices, picks))
            if enabled != self.enabled:
                self.enabled = enabled
                self.plan = tuple([(member, slices[i][2 + picks[i]]) for i, member in self.order])
        return self.plan


class Program:
    """A core formula compiled for one shape.

    Values live at ``2 * slot + u``, where ``u`` is 0 in ``OVER`` and 1 in
    ``UNDER``; ``steps``, ``roots`` and ``used`` are indexed by the root
    mode's ``u``.  For each root mode, ``steps[u]`` lists the ``(slot, mode)``
    evaluations it needs, children first, as ``(kind, out, a, b, view)``:
    ``a`` and ``b`` are the operand positions (for an atom the proposition
    and the valuation side), and a strategic step's ``view`` is its
    ``(coalition, mode)`` split, indexing ``views`` and ``plans``.  The split
    ``views[view]`` keeps the coalition and refreshes ``plans[view]``, the
    plan the last approximation read, from the partial model's slices.
    Each strategic step keeps its last plan, operand sets and result, and
    reuses the result when the inputs repeat: within one view equal plans
    mean equal rows, as a shift's mask is a union of disjoint slot masks.
    ``reused`` counts the steps answered from their last result.  Keep a
    program to one solve: these caches hold one entry each and live as long
    as it does.

    ``cone`` is the set of cells the verdict at the initial state can read,
    in either mode: partial models that agree on it agree on that verdict.
    """

    def __init__(self, f: Formula, shape: ModelShape):
        self.shape = shape
        self.full = shape.full_mask
        slots, self.nodes, root = _cons(f, shape)
        # Bit u of need[slot]: root mode OVER evaluates the slot in mode u.
        # Root mode UNDER needs the same slots with the modes swapped.  Bit 2:
        # the slot sits under a strategic step, so its value is read at every
        # state, not only the initial one; it is no mode and never swaps.
        need = [0] * len(slots)
        need[root] = 1
        strategic = False
        for slot in range(root, -1, -1):
            kind, _, children = slots[slot]
            bits = need[slot]
            if kind == _NOT:
                bits = (bits & 1) << 1 | bits >> 1 & 1 | bits & 4
            elif kind >= _NEXT:
                bits |= 4
                strategic = True
            for c in children:
                need[c] |= bits
        # The cells a verdict at the initial state can read: every protocol
        # cell once a strategic step exists, and per atom its proposition's
        # valuation cells, at every state under a strategic step, else only
        # at the initial state.
        p, vb = shape.prop_count, shape.vb_offset
        cone = set(range(vb)) if strategic else set()
        for slot, (kind, arg, _) in enumerate(slots):
            if kind == _PROP:
                states = range(shape.state_count) if need[slot] & 4 else (shape.initial_state,)
                cone.update([vb + s * p + arg for s in states])
        self.cone = frozenset(cone)
        views: dict[tuple[tuple[int, ...], int], int] = {}
        steps: tuple[list[tuple], list[tuple]] = ([], [])
        for slot, (kind, arg, children) in enumerate(slots):
            bits = need[slot]
            for u in (0, 1):
                # need[slot] is nonzero, so one root mode or the other needs (slot, u).
                over, under = bits >> u & 1, bits >> (1 - u) & 1
                view = None
                if kind == _PROP:
                    a, b = arg, 1 - u
                elif kind == _NOT:
                    a, b = 2 * children[0] + 1 - u, None
                else:
                    a = 2 * children[0] + u
                    b = 2 * children[1] + u if len(children) == 2 else None
                    if kind != _AND:
                        view = views.setdefault((arg, u), len(views))
                step = (kind, 2 * slot + u, a, b, view)
                if over:
                    steps[0].append(step)
                if under:
                    steps[1].append(step)
        self.steps = steps
        self.roots = (2 * root, 2 * root + 1)
        # Per root mode, the views its steps use.
        self.used = tuple(
            sorted({step[4] for step in mode_steps if step[4] is not None}) for mode_steps in steps
        )
        self.views = [_Split(shape, members, _MODES[u]) for members, u in views]
        self.plans: list[Plan] = [()] * len(views)
        self._last: list[tuple | None] = [None] * (2 * len(slots))
        self.reused = 0
        # The values of the last approximation, kept for explain, and the
        # partial model they approximate OVER, else None.
        self._values: list[StateSet] = [0] * len(self._last)
        self._over: PartialModel | None = None
        # Per set of justified positions, its sub-program.
        self._pruned: dict[tuple[bool, ...], Program] = {}

    @classmethod
    def of(cls, f: Formula | Program, shape: ModelShape) -> Program:
        """``f`` itself when it is a program, otherwise ``f`` compiled.  A
        program compiled for another shape raises ``ValueError``."""
        if not isinstance(f, Program):
            return cls(f, shape)
        if f.shape is not shape and f.shape != shape:
            raise ValueError(f"program compiled for {f.shape}, used with {shape}")
        return f

    def approximate(self, pm: PartialModel, mode: Mode) -> StateSet:
        """:func:`sapp` of the compiled formula."""
        slices, views, plans = pm.slices(), self.views, self.plans
        u = 1 if mode is Mode.UNDER else 0
        for view in self.used[u]:
            plans[view] = views[view].refresh(slices)
        self._over = None if u else pm
        return self._run(u, pm.masks, plans, self._last, self._values)

    def exact(self, m: Model | TransitionStructure) -> StateSet:
        """:func:`solve_formula` of the compiled formula, without the reuse
        caches, from one plan per distinct ``coalition`` of the splits, asked
        of a structure of ``m``'s rows and masks, the only one a solve builds."""
        st = TransitionStructure(m.shape, m.enabled, m.prop_masks)
        coalitions = [split.coalition for split in self.views]
        plans = {c: st.choice_masks(c) for c in dict.fromkeys(coalitions)}
        masks, n = (m.prop_masks, m.prop_masks), len(self._last)
        return self._run(0, masks, [plans[c] for c in coalitions], [None] * n, [0] * n)

    def _run(
        self,
        u: int,
        masks: Sequence[Sequence[int]],
        plans: Sequence[Plan],
        last: list[tuple | None],
        values: list[StateSet],
    ) -> StateSet:
        # ``plans[view]`` is the plan each view the steps of ``u`` use reads;
        # ``last`` holds each strategic step's last inputs and result.  Each
        # step writes its value position before any later step reads it, so
        # ``values`` may hold an earlier run's values.
        full = self.full
        for kind, out, a, b, view in self.steps[u]:
            if kind == _PROP:
                values[out] = masks[b][a]
            elif kind == _NOT:
                values[out] = full & ~values[a]
            elif kind == _AND:
                values[out] = values[a] & values[b]
            else:
                plan, x = plans[view], values[a]
                y = None if b is None else values[b]
                prior = last[out]
                if prior is not None and prior[1] == x and prior[2] == y and prior[0] == plan:
                    self.reused += 1
                    values[out] = prior[3]
                    continue
                if kind == _NEXT:
                    result = solve_next(plan, full, x)
                elif kind == _GLOBALLY:
                    result = solve_globally(plan, full, x)
                else:
                    result = solve_until(plan, full, x, y)
                last[out] = (plan, x, y, result)
                values[out] = result
        return values[self.roots[u]]

    def explain(self, pm: PartialModel) -> tuple[list[int], Program]:
        """The cells that keep the initial state out of the last
        approximation, which must be ``approximate(pm, Mode.OVER)`` with
        ``pm`` unchanged since, and the sub-program that minimization
        rechecks evaluate.  The cells are ascending and all of them
        assigned; any partial model that agrees with ``pm`` on them excludes
        the initial state too.

        One backward pass over ``steps[0]`` carries a state mask per value
        position: states to be justified outside the value at an ``OVER``
        position, inside it at an ``UNDER`` one.  The sub-program keeps the
        steps of ``steps[0]`` whose value position the pass justified, in
        order, every other position held at its neutral value, ``full`` in
        ``OVER`` and 0 in ``UNDER``.  Its OVER contains this program's on
        every partial model: the root's OVER value is monotone in ``OVER``
        positions and antitone in ``UNDER`` ones, and every step is monotone
        in its operands.  Its UNDER is empty.

        The sub-program shares the views, plans and reuse cache, which
        neutral operands cannot corrupt, since a step's reuse is keyed on its
        operand sets; it refreshes only the views its steps use and
        evaluates into values of its own.  One is built per set of justified
        positions and kept as long as this program, and its ``reused`` count
        restarts at 0 each time it is returned.  Once it runs, the shared
        views no longer show this program's last evaluation, so ``explain``
        ends that evaluation: it cannot be explained again."""
        if self._over is not pm:
            raise ValueError("explain needs the OVER approximation of pm as the last evaluation")
        values, views = self._values, self.views
        shape, full, cells = self.shape, self.full, pm.cells
        root, initial = self.roots[0], 1 << shape.initial_state
        if values[root] & initial:
            raise ValueError("the OVER approximation holds at the initial state")
        p, vb = shape.prop_count, shape.vb_offset
        locals_table, slot_masks = shape.state_locals_table, shape.slot_masks
        offsets, widths = shape.tb_offsets, shape.locals_per_agent
        kept: set[int] = set()
        successors: dict[tuple[int, int], StateSet] = {}

        def step(view: int, s: int) -> StateSet:
            # Keep the cells that fix the rows of the view's split at s, and
            # return s's split successors.
            succ = successors.get((view, s))
            if succ is None:
                succ, split = full, views[view]
                for i, (l, pick) in enumerate(zip(locals_table[s], split.picks)):
                    n = widths[i]
                    row = offsets[i] + l * n
                    # The 0-cells of a possible row, the 1-cells of a necessary one.
                    kept.update(c for c in range(row, row + n) if cells[c] == 1 - pick)
                    reach = 0
                    for a in split.enabled[i][l]:
                        reach |= slot_masks[i][a]
                    succ &= reach
                successors[view, s] = succ
            return succ

        pending = [0] * len(values)
        pending[root] = initial
        for kind, out, a, b, view in reversed(self.steps[0]):
            todo = pending[out]
            if not todo:
                continue
            under = out & 1
            if kind == _PROP:
                kept.update(vb + s * p + a for s in _members(todo))
            elif kind == _NOT:
                pending[a] |= todo
            elif kind == _AND:
                # In UNDER both conjuncts hold; in OVER the left one fails,
                # or else the right one.
                pending[a] |= todo if under else todo & ~values[a]
                pending[b] |= todo if under else todo & values[a]
            elif kind == _NEXT:
                x = values[a] if under else full & ~values[a]
                for s in _members(todo):
                    pending[a] |= step(view, s) & x
            elif (kind == _UNTIL) != under:
                # OVER U and UNDER G: close the states under the step, a trap
                # outside the result or a post-fixpoint inside it.  In OVER U
                # a state outside x is justified by x alone.
                x, inside = values[a], values[out] if under else full & ~values[out]
                closed = todo
                while todo:
                    low = todo & -todo
                    todo ^= low
                    if low & x:
                        new = step(view, low.bit_length() - 1) & inside & ~closed
                        closed |= new
                        todo |= new
                if under:
                    pending[a] |= closed
                else:
                    pending[a] |= closed & ~x
                    pending[b] |= closed
            else:
                # OVER G and UNDER U: recompute the iterates.  zs[k] holds the
                # states that left them (OVER G) or joined them (UNDER U) by
                # iterate k; a state of rank k > 0 is justified by its step
                # into rank k - 1, one of rank 0 by x (OVER G) or y (UNDER U).
                x, plan = values[a], views[view].plan
                goal = values[b] if under else 0
                ys = [goal if under else x]
                # Through the module, so a wrapper of mc.atl_pre sees these calls.
                while True:
                    y = goal | (x & mc.atl_pre(plan, full, ys[-1]))
                    if y == ys[-1]:
                        break
                    ys.append(y)
                zs = ys if under else [full & ~y for y in ys]
                for k in range(len(zs) - 1, 0, -1):
                    for s in _members(todo & zs[k] & ~zs[k - 1]):
                        todo |= step(view, s) & zs[k - 1]
                if under:
                    pending[a] |= todo & ~zs[0]
                    pending[b] |= todo & zs[0]
                else:
                    pending[a] |= todo & zs[0]
        # Explained: the sub-program's runs refresh the shared views.
        self._over = None
        key = tuple(map(bool, pending))
        sub = self._pruned.get(key)
        if sub is None:
            steps = [step for step in self.steps[0] if pending[step[1]]]
            sub = self._pruned[key] = copy(self)
            sub.steps = (steps, [])
            sub.used = ({step[4] for step in steps if step[4] is not None}, [])
            # Value positions alternate OVER and UNDER.
            sub._values = [self.full, 0] * (len(self._values) // 2)
            # No shared memo, which would hold the copy in a cycle.
            sub._pruned = {}
        sub.reused = 0
        return sorted(kept), sub


def _members(states: StateSet):
    """The states of a set, ascending."""
    while states:
        low = states & -states
        yield low.bit_length() - 1
        states ^= low


def sapp(pm: PartialModel, f: Formula | Program, mode: Mode) -> StateSet:
    """Approximate the satisfaction set of a core formula across all models
    compatible with the partial model: a superset in mode ``OVER``, a subset
    in mode ``UNDER``.  The two coincide with the exact set once the partial
    model is fully determined.  ``f`` may be a :class:`Program` compiled
    for the partial model's shape; a formula is compiled for this call."""
    return Program.of(f, pm.shape).approximate(pm, mode)


def solve_formula(m: Model | TransitionStructure, f: Formula | Program) -> StateSet:
    """Exact satisfaction set of a core-normalized formula, or of the
    formula a :class:`Program` compiled for the model's shape."""
    return Program.of(f, m.shape).exact(m)


def check_validity(m: Model | TransitionStructure, f: Formula | Program) -> bool:
    """Whether the formula holds at the model's initial state."""
    return bool(solve_formula(m, f) >> m.shape.initial_state & 1)
