"""Partial models, split structures, and the one evaluator for exact and
approximate checking.

A :class:`PartialModel` is a three-valued view over the model cell vector:
each protocol and valuation cell is determined-true, determined-false, or
undefined.  Undefined cells resolve pessimistically (*necessary*: undef
excluded) or optimistically (*possible*: undef included).

:func:`sapp` computes, for a core formula, a state set guaranteed to contain
(mode ``OVER``) or be contained in (mode ``UNDER``) the exact satisfaction
set of every total model compatible with the partial model.  Negation swaps
the mode of the subformula; strategic operators evaluate on the
:func:`split_structure`, whose optimism is split by coalition membership:

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
so exact checking (:func:`solve_formula`) runs the same steps with the model
itself as the structure for every coalition and mode.

Both run a :class:`Program`: the core formula compiled for a shape into
hash-consed slots, evaluated by one loop with no recursion.  A program kept
across the theory calls of one solve reuses each strategic step's last
result while its inputs repeat.
"""

from __future__ import annotations

from enum import Enum
from itertools import compress, repeat
from operator import eq, getitem, ne
from typing import Iterator, Sequence

from .formula import And, Formula, Globally, Next, Not, Prop, Until
from .mas import Assignment, Model, ModelShape, TransitionStructure, encode_model
from .mc import StateSet, solve_globally, solve_next, solve_until

Cell = int | None

_CELL_VALUES = frozenset((0, 1, None))


class Mode(Enum):
    OVER = "over"
    UNDER = "under"

    def flipped(self) -> "Mode":
        return Mode.UNDER if self is Mode.OVER else Mode.OVER


class PartialModel:
    """Shape plus the three-valued cell vector, laid out as in
    :class:`~atlsat.mas.Assignment`.

    Rejects protocol rows that are determined false everywhere; such a row
    admits no compatible model.
    """

    def __init__(
        self,
        shape: ModelShape,
        cp: Sequence[Sequence[Sequence[Cell]]],
        cv: Sequence[Sequence[Cell]],
    ):
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
        self._adopt(shape, cells + tuple(c for row in cv for c in row))

    def _adopt(self, shape: ModelShape, cells: tuple[Cell, ...]) -> None:
        if not _CELL_VALUES.issuperset(cells):
            raise ValueError("cells must be 0, 1 or None")
        # Per agent its (necessary, possible) enabled rows, one lookup of the
        # agent's protocol slice in the shape's memo.
        rows = [
            shape.protocol_rows(cells[off : off + n * n])
            for off, n in zip(shape.tb_offsets, shape.locals_per_agent)
        ]
        for i, (_, possible) in enumerate(rows):
            if () in possible:
                raise ValueError(
                    f"agent {i}, local state {possible.index(())}: row determined empty, "
                    "no compatible model exists"
                )
        self.shape = shape
        self.cells = cells
        self._rows = rows

    @classmethod
    def unconstrained(cls, shape: ModelShape) -> "PartialModel":
        return cls.from_assignment(Assignment(shape, (None,) * shape.bit_count))

    @classmethod
    def from_assignment(cls, a: Assignment) -> "PartialModel":
        return cls.from_cells(a.shape, tuple(a.bits))

    @classmethod
    def from_cells(cls, shape: ModelShape, cells: tuple[Cell, ...]) -> "PartialModel":
        """The partial model over a cell vector of the shape's length."""
        pm = cls.__new__(cls)
        pm._adopt(shape, cells)
        return pm

    def to_assignment(self) -> Assignment:
        return Assignment(self.shape, self.cells)

    def with_cell(self, index: int, value: Cell) -> "PartialModel":
        """A refined copy with one cell set (used by tests and diagnostics)."""
        cells = list(self.cells)
        cells[index] = value
        return PartialModel.from_assignment(Assignment(self.shape, tuple(cells)))

    @property
    def cp(self) -> tuple[tuple[tuple[Cell, ...], ...], ...]:
        """Per agent, the partial protocol table, row = local state."""
        return tuple(map(tuple, _tables(self.shape, self.cells)))

    @property
    def cv(self) -> tuple[tuple[Cell, ...], ...]:
        """Per global state, the partial valuation row."""
        p, off = self.shape.prop_count, self.shape.vb_offset
        return tuple(
            self.cells[off + s * p : off + s * p + p] for s in range(self.shape.state_count)
        )


def _prop_masks(shape: ModelShape, valuation: Sequence[Cell]) -> tuple[tuple[int, ...], ...]:
    # Per proposition its state mask from the valuation cells: first
    # necessary (an undefined cell counts as 0), then possible (as 1).
    powers = [1 << s for s in range(shape.state_count)]
    p = shape.prop_count
    return tuple(
        tuple(sum(compress(powers, ones[v::p])) for v in range(p))
        for ones in (tuple(map(eq, valuation, repeat(1))), tuple(map(ne, valuation, repeat(0))))
    )


def _tables(shape: ModelShape, seq: Sequence) -> Iterator[Iterator[Sequence]]:
    # Per agent, the slices of a cell-indexed sequence that hold its
    # protocol rows, lazily.
    return (
        (seq[k : k + n] for k in range(off, off + n * n, n))
        for off, n in zip(shape.tb_offsets, shape.locals_per_agent)
    )


def _picks(agent_count: int, members, mode: Mode) -> tuple[int, ...]:
    # Per agent, which of its (necessary, possible) rows the split structure
    # for this coalition and mode takes.
    optimistic = mode is Mode.OVER
    return tuple(int((i in members) == optimistic) for i in range(agent_count))


def split_structure(pm: PartialModel, coalition, mode: Mode) -> TransitionStructure:
    """The structure a strategic operator over ``coalition`` evaluates on in
    ``mode``: in ``OVER`` coalition agents get possible protocols, the rest
    necessary ones, and the valuation is possible; ``UNDER`` is the dual.

    ``split_structure(pm, all agents, Mode.UNDER)`` is the all-necessary
    structure.  Its rows may be empty, which leaves a state without
    successors; a goal state with no successors still under-approximates
    soundly, since every compatible total model is serial.
    """
    shape = pm.shape
    enabled = tuple(map(getitem, pm._rows, _picks(shape.agent_count, set(coalition), mode)))
    masks = _prop_masks(shape, pm.cells[shape.vb_offset :])
    return TransitionStructure(shape, enabled, masks[mode is Mode.OVER])


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
    here, once."""
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
                raise IndexError(f"p{arg} out of range ({shape.prop_count} propositions)")
        elif kind >= _NEXT:
            arg = node.coalition.members
            if arg and arg[-1] >= shape.agent_count:
                raise IndexError(f"agent {arg[-1]} out of range ({shape.agent_count} agents)")
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


class Program:
    """A core formula compiled for one shape.

    Values live at ``2 * slot + u``, where ``u`` is 0 in ``OVER`` and 1 in
    ``UNDER``; ``steps``, ``roots`` and ``used`` are indexed by the root
    mode's ``u``.  For each root mode, ``steps[u]`` lists the ``(slot, mode)``
    evaluations it needs, children first, as ``(kind, out, a, b, view,
    coalition)``: ``a`` and ``b`` are the operand positions (for an atom the
    proposition and the valuation side), and a strategic step's ``view`` is
    its ``(coalition, mode)`` split, one of ``picks``.

    Each strategic step keeps its last enabled rows, operand sets and
    result, and reuses the result when the inputs repeat; the program also
    keeps the last valuation slice and its proposition masks.  ``reused``
    counts the steps answered from their last result.  Keep a program to
    one solve: both caches hold one entry and live as long as it does.
    """

    def __init__(self, f: Formula, shape: ModelShape):
        self.formula = f
        self.shape = shape
        self.full = shape.full_mask
        slots, self.nodes, root = _cons(f, shape)
        # Bit u of need[slot]: root mode OVER evaluates the slot in mode u.
        # Root mode UNDER needs the same slots with the modes swapped.
        need = [0] * len(slots)
        need[root] = 1
        for slot in range(root, -1, -1):
            kind, _, children = slots[slot]
            bits = need[slot]
            if kind == _NOT:
                bits = (bits & 1) << 1 | bits >> 1
            for c in children:
                need[c] |= bits
        views: dict[tuple[tuple[int, ...], int], int] = {}
        steps: tuple[list[tuple], list[tuple]] = ([], [])
        for slot, (kind, arg, children) in enumerate(slots):
            bits = need[slot]
            for u in (0, 1):
                over, under = bits >> u & 1, bits >> (1 - u) & 1
                if not (over or under):
                    continue
                view = coalition = None
                if kind == _PROP:
                    a, b = arg, 1 - u
                elif kind == _NOT:
                    a, b = 2 * children[0] + 1 - u, None
                else:
                    a = 2 * children[0] + u
                    b = 2 * children[1] + u if len(children) == 2 else None
                    if kind != _AND:
                        view, coalition = views.setdefault((arg, u), len(views)), arg
                step = (kind, 2 * slot + u, a, b, view, coalition)
                if over:
                    steps[0].append(step)
                if under:
                    steps[1].append(step)
        self.steps = steps
        self.roots = (2 * root, 2 * root + 1)
        self.picks = [_picks(shape.agent_count, members, _MODES[u]) for members, u in views]
        self.sides = [1 - u for _, u in views]
        # Per root mode, the views its steps use.
        self.used = tuple(
            sorted({step[4] for step in mode_steps if step[4] is not None}) for mode_steps in steps
        )
        self._last: list[tuple | None] = [None] * (2 * len(slots))
        self._valuation: tuple[Cell, ...] | None = None
        self._masks: tuple[tuple[int, ...], ...] = ()
        self.reused = 0

    @classmethod
    def of(cls, f: Formula | Program, shape: ModelShape) -> Program:
        """``f`` itself when it is a program (compiled for ``shape``),
        otherwise ``f`` compiled."""
        return f if isinstance(f, Program) else cls(f, shape)

    def visits(self, mode: Mode) -> list[tuple[Formula, Mode]]:
        """The ``(subformula, mode)`` evaluations of root mode ``mode``, in
        step order."""
        steps = self.steps[_MODES.index(mode)]
        return [(self.nodes[out >> 1], _MODES[out & 1]) for _, out, *_ in steps]

    def approximate(self, pm: PartialModel, mode: Mode) -> StateSet:
        """:func:`sapp` of the compiled formula."""
        valuation = pm.cells[self.shape.vb_offset :]
        if valuation != self._valuation:
            self._valuation = valuation
            self._masks = _prop_masks(self.shape, valuation)
        rows, picks = pm._rows, self.picks
        u = 1 if mode is Mode.UNDER else 0
        enabled: list[tuple | None] = [None] * len(picks)
        for view in self.used[u]:
            enabled[view] = tuple(map(getitem, rows, picks[view]))
        return self._run(u, self._masks, enabled, [None] * len(picks), self._last)

    def exact(self, m: TransitionStructure) -> StateSet:
        """:func:`solve_formula` of the compiled formula.  It neither reads
        nor feeds the reuse cache."""
        views = len(self.picks)
        masks = (m.prop_masks, m.prop_masks)
        return self._run(0, masks, [m.enabled] * views, [m] * views, [None] * len(self._last))

    def _run(
        self,
        u: int,
        masks: Sequence[Sequence[int]],
        enabled: list[tuple],
        structures: list[TransitionStructure | None],
        last: list[tuple | None],
    ) -> StateSet:
        # ``enabled[view]`` are the rows a view's structure has, and
        # ``structures[view]`` the structure, built on first need; ``last``
        # holds each strategic step's last inputs and result.
        full = self.full
        sides = self.sides
        values: list[StateSet] = [0] * len(last)
        for kind, out, a, b, view, coalition in self.steps[u]:
            if kind == _PROP:
                values[out] = masks[b][a]
            elif kind == _NOT:
                values[out] = full & ~values[a]
            elif kind == _AND:
                values[out] = values[a] & values[b]
            else:
                rows, x = enabled[view], values[a]
                y = None if b is None else values[b]
                prior = last[out]
                if prior is not None and prior[1] == x and prior[2] == y and prior[0] == rows:
                    self.reused += 1
                    values[out] = prior[3]
                    continue
                st = structures[view]
                if st is None:
                    st = structures[view] = TransitionStructure(self.shape, rows, masks[sides[view]])
                if kind == _NEXT:
                    result = solve_next(st, coalition, x)
                elif kind == _GLOBALLY:
                    result = solve_globally(st, coalition, x)
                else:
                    result = solve_until(st, coalition, x, y)
                last[out] = (rows, x, y, result)
                values[out] = result
        return values[self.roots[u]]


def sapp(pm: PartialModel, f: Formula | Program, mode: Mode) -> StateSet:
    """Approximate the satisfaction set of a core formula across all models
    compatible with the partial model: a superset in mode ``OVER``, a subset
    in mode ``UNDER``.  The two coincide with the exact set once the partial
    model is fully determined.  ``f`` may be a :class:`Program` compiled
    for the partial model's shape; a formula is compiled for this call."""
    return Program.of(f, pm.shape).approximate(pm, mode)


def solve_formula(m: TransitionStructure, f: Formula | Program) -> StateSet:
    """Exact satisfaction set of a core-normalized formula, or of the
    formula a :class:`Program` compiled for the model's shape."""
    return Program.of(f, m.shape).exact(m)


def check_validity(m: Model, f: Formula | Program) -> bool:
    """Whether the formula holds at the model's initial state."""
    return bool(solve_formula(m, f) >> m.shape.initial_state & 1)
