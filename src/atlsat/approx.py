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
so exact checking (:func:`solve_formula`) runs the same recursion with the
model itself as the structure for every coalition and mode.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from itertools import compress, repeat
from operator import eq, ne
from typing import Callable, Iterator, Sequence

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
        for i, table in enumerate(_tables(shape, cells)):
            for k, row in enumerate(table):
                if 1 not in row and None not in row:
                    raise ValueError(
                        f"agent {i}, local state {k}: row determined empty, "
                        "no compatible model exists"
                    )
        self.shape = shape
        self.cells = cells

    @classmethod
    def unconstrained(cls, shape: ModelShape) -> "PartialModel":
        return cls.from_assignment(Assignment(shape, (None,) * shape.bit_count))

    @classmethod
    def from_assignment(cls, a: Assignment) -> "PartialModel":
        pm = cls.__new__(cls)
        pm._adopt(a.shape, tuple(a.bits))
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

    # Both views map optimistic -> the resolved cells: per agent and local
    # state the enabled actions, and per proposition its state mask.  They
    # are derived on first use, so a formula without strategic operators
    # never derives protocol rows.

    @cached_property
    def _rows(self) -> dict[bool, tuple[tuple[tuple[int, ...], ...], ...]]:
        return {
            optimistic: tuple(
                tuple(tuple(compress(range(len(row)), row)) for row in table)
                for table in _tables(self.shape, ones)
            )
            for optimistic, ones in _ones(self.cells[: self.shape.vb_offset])
        }

    @cached_property
    def _masks(self) -> dict[bool, tuple[int, ...]]:
        powers = [1 << s for s in range(self.shape.state_count)]
        p = self.shape.prop_count
        return {
            optimistic: tuple(sum(compress(powers, ones[v::p])) for v in range(p))
            for optimistic, ones in _ones(self.cells[self.shape.vb_offset :])
        }


def _ones(cells: Sequence[Cell]) -> tuple[tuple[bool, tuple[bool, ...]], ...]:
    # (optimistic, per cell whether it counts as 1): an undefined cell
    # counts as 1 only when optimistic.
    return (False, tuple(map(eq, cells, repeat(1)))), (True, tuple(map(ne, cells, repeat(0))))


def _tables(shape: ModelShape, seq: Sequence) -> Iterator[Iterator[Sequence]]:
    # Per agent, the slices of a cell-indexed sequence that hold its
    # protocol rows, lazily.
    return (
        (seq[k : k + n] for k in range(off, off + n * n, n))
        for off, n in zip(shape.tb_offsets, shape.locals_per_agent)
    )


def split_structure(pm: PartialModel, coalition, mode: Mode) -> TransitionStructure:
    """The structure a strategic operator over ``coalition`` evaluates on in
    ``mode``: in ``OVER`` coalition agents get possible protocols, the rest
    necessary ones, and the valuation is possible; ``UNDER`` is the dual.

    ``split_structure(pm, all agents, Mode.UNDER)`` is the all-necessary
    structure.  Its rows may be empty, which leaves a state without
    successors; a goal state with no successors still under-approximates
    soundly, since every compatible total model is serial.
    """
    members = set(coalition)
    optimistic = mode is Mode.OVER
    rows = pm._rows
    enabled = tuple(rows[(i in members) == optimistic][i] for i in range(pm.shape.agent_count))
    return TransitionStructure(pm.shape, enabled, pm._masks[optimistic])


def is_compatible(m: Model, pm: PartialModel) -> bool:
    """Whether every determined cell of the partial model agrees with the
    model; undefined cells are unconstrained."""
    if m.shape != pm.shape:
        raise ValueError("model and partial model have different shapes")
    return all(
        want is None or have == want for have, want in zip(encode_model(m).bits, pm.cells)
    )


def _evaluate(
    f: Formula,
    mode: Mode,
    shape: ModelShape,
    valuation: Callable[[Mode], Sequence[int]],
    structure: Callable[[tuple[int, ...], Mode], TransitionStructure],
    trace: Callable[[Formula, Mode], None] | None = None,
) -> StateSet:
    """The formula recursion shared by exact and approximate checking.
    ``valuation(mode)`` gives the proposition masks and
    ``structure(members, mode)`` the structure a strategic operator over
    that coalition evaluates on."""
    full = (1 << shape.state_count) - 1

    def rec(node: Formula, md: Mode) -> StateSet:
        if trace is not None:
            trace(node, md)
        if isinstance(node, Prop):
            if node.index >= shape.prop_count:
                raise IndexError(
                    f"p{node.index} out of range ({shape.prop_count} propositions)"
                )
            return valuation(md)[node.index]
        if isinstance(node, Not):
            return full & ~rec(node.child, md.flipped())
        if isinstance(node, And):
            return rec(node.left, md) & rec(node.right, md)
        if isinstance(node, (Next, Globally, Until)):
            members = node.coalition.members
            if members and members[-1] >= shape.agent_count:
                raise IndexError(
                    f"agent {members[-1]} out of range ({shape.agent_count} agents)"
                )
            st = structure(members, md)
            if isinstance(node, Next):
                return solve_next(st, members, rec(node.child, md))
            if isinstance(node, Globally):
                return solve_globally(st, members, rec(node.child, md))
            return solve_until(st, members, rec(node.left, md), rec(node.right, md))
        raise ValueError(f"formula is not core-normalized: {node!r}")

    return rec(f, mode)


def sapp(
    pm: PartialModel,
    f: Formula,
    mode: Mode,
    _trace: Callable[[Formula, Mode], None] | None = None,
) -> StateSet:
    """Approximate the satisfaction set of a core formula across all models
    compatible with the partial model: a superset in mode ``OVER``, a subset
    in mode ``UNDER``.  The two coincide with the exact set once the partial
    model is fully determined."""
    structures: dict[tuple[Mode, tuple[int, ...]], TransitionStructure] = {}

    def structure(members: tuple[int, ...], md: Mode) -> TransitionStructure:
        s = structures.get((md, members))
        if s is None:
            s = structures[md, members] = split_structure(pm, members, md)
        return s

    masks = pm._masks
    return _evaluate(f, mode, pm.shape, lambda md: masks[md is Mode.OVER], structure, _trace)


def solve_formula(m: TransitionStructure, f: Formula) -> StateSet:
    """Exact satisfaction set of a core-normalized formula."""
    return _evaluate(f, Mode.OVER, m.shape, lambda md: m.prop_masks, lambda members, md: m)


def check_validity(m: Model, f: Formula) -> bool:
    """Whether the formula holds at the model's initial state."""
    return bool(solve_formula(m, f) >> m.shape.initial_state & 1)
