"""Multi-agent system frames, concrete models, and the model bit vector.

A frame (:class:`ModelShape`) fixes the agent count, the per-agent local
state counts, the initial local states, and the proposition count.  Models
are kept in canonical form: agent ``i`` has exactly as many actions as local
states, and action ``j`` moves it to local state ``j`` from anywhere, so the
whole transition function is determined by the protocol tables.

Every model of a given shape is encodable as a bit vector with
``sum(n_i**2) + |St| * prop_count`` cells: first the protocol tables in agent
order (row-major: row = local state, column = action), then the valuation
table (state-major).  :class:`Assignment` is the three-valued version of
that vector; it carries cells between models, partial models and text.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import isqrt
from typing import Iterable, Sequence


class UndefCellError(ValueError):
    """A cell that must be decided is still undefined."""

    def __init__(self, index: int):
        super().__init__(f"cell {index} is undefined")
        self.index = index


class EmptyProtocolRowError(ValueError):
    """A local state with no available action (protocols must be nonempty)."""

    def __init__(self, agent: int, local: int):
        super().__init__(f"agent {agent} has no action available at local state {local}")
        self.agent = agent
        self.local = local


# The largest shape accepted: global states, and cells of the bit vector.
MAX_STATES = 4096
MAX_CELLS = 65536


@dataclass(frozen=True)
class ModelShape:
    """The fixed quantities of a model family.

    ``locals_per_agent[i]`` is the number of local states (and so actions)
    of agent ``i``; ``initial_locals[i]`` its initial local state.  A shape
    past :data:`MAX_STATES` or :data:`MAX_CELLS` is rejected before any
    table is built.
    """

    locals_per_agent: tuple[int, ...]
    initial_locals: tuple[int, ...]
    prop_count: int

    def __init__(
        self,
        locals_per_agent: Iterable[int],
        initial_locals: Iterable[int] | None = None,
        prop_count: int = 0,
    ):
        locs = tuple(locals_per_agent)
        init = tuple(initial_locals) if initial_locals is not None else (0,) * len(locs)
        object.__setattr__(self, "locals_per_agent", locs)
        object.__setattr__(self, "initial_locals", init)
        object.__setattr__(self, "prop_count", prop_count)
        # Exactly int: a bool or a float would pass the range checks below.
        if not all(type(x) is int for x in (*locs, *init, prop_count)):
            raise ValueError("local state counts, initial locals and prop_count must be integers")
        if not locs or any(n < 1 for n in locs):
            raise ValueError("every agent needs at least one local state")
        if len(init) != len(locs) or any(not 0 <= l < n for l, n in zip(init, locs)):
            raise ValueError("initial local states out of range")
        if prop_count < 0:
            raise ValueError("prop_count must be >= 0")
        states = 1
        for n in locs:
            states *= n
            if states > MAX_STATES:
                raise ValueError(f"more than {MAX_STATES} global states")
        if self.bit_count > MAX_CELLS:
            raise ValueError(f"more than {MAX_CELLS} model cells")

    @property
    def agent_count(self) -> int:
        return len(self.locals_per_agent)

    @cached_property
    def state_count(self) -> int:
        n = 1
        for k in self.locals_per_agent:
            n *= k
        return n

    @cached_property
    def bit_count(self) -> int:
        return sum(n * n for n in self.locals_per_agent) + self.state_count * self.prop_count

    @cached_property
    def tb_offsets(self) -> tuple[int, ...]:
        offs = []
        acc = 0
        for n in self.locals_per_agent:
            offs.append(acc)
            acc += n * n
        return tuple(offs)

    @cached_property
    def vb_offset(self) -> int:
        return sum(n * n for n in self.locals_per_agent)

    @cached_property
    def radix_weights(self) -> tuple[int, ...]:
        # Agent 0 most significant.
        w = [0] * self.agent_count
        acc = 1
        for i in range(self.agent_count - 1, -1, -1):
            w[i] = acc
            acc *= self.locals_per_agent[i]
        return tuple(w)

    @cached_property
    def state_locals_table(self) -> tuple[tuple[int, ...], ...]:
        return tuple(product(*(range(n) for n in self.locals_per_agent)))

    @cached_property
    def slot_masks(self) -> tuple[tuple[int, ...], ...]:
        """``slot_masks[i][a]``: the states whose agent-``i`` coordinate is ``a``."""
        return tuple(
            tuple(sum(1 << s for s, locs in enumerate(self.state_locals_table) if locs[i] == a)
                  for a in range(n))
            for i, n in enumerate(self.locals_per_agent)
        )

    @cached_property
    def full_mask(self) -> int:
        """Every state of the shape."""
        return (1 << self.state_count) - 1

    def elimination_plan(self, coalition: tuple[int, ...]) -> tuple[tuple[int, bool], ...]:
        """The order :func:`~atlsat.mc.atl_pre` eliminates agents in: one
        ``(agent, is member)`` pair per agent, outsiders before members.
        Built once per coalition."""
        plan = self._plans.get(coalition)
        if plan is None:
            members = set(coalition)
            plan = self._plans[coalition] = tuple(
                (i, i in members)
                for i in sorted(range(self.agent_count), key=members.__contains__)
            )
        return plan

    def agent_shifts(
        self, agent: int, rows: tuple[tuple[int, ...], ...]
    ) -> tuple[tuple[int, int], ...]:
        """One agent's step of the pre-image for its enabled ``rows``: the
        ``(d, mask_d)`` pairs, one per distinct offset.  An enabled action
        ``a`` at local state ``l`` moves the agent's coordinate by ``d = (l -
        a) * radix_weights[agent]``, and ``mask_d`` is the union of the slot
        masks of the local states that use ``d``.  An empty row is in no
        mask."""
        weight, slots = self.radix_weights[agent], self.slot_masks[agent]
        masks: dict[int, int] = {}
        for l, row in enumerate(rows):
            for a in row:
                d = (l - a) * weight
                masks[d] = masks.get(d, 0) | slots[l]
        return tuple(masks.items())

    def agent_slice(self, agent: int, table: tuple[int | None, ...]) -> tuple[tuple, ...]:
        """One agent's n x n slice of three-valued protocol cells (row-major,
        cells 0, 1 or None) read both ways, as ``(necessary rows, possible
        rows, necessary shifts, possible shifts)``: per local state the
        actions whose cell is 1 and those whose cell is not 0, and the
        :meth:`agent_shifts` of each.  Built once per agent and distinct
        slice.  A partial slice reads as its two total completions, None as 0
        and None as 1, so it shares their rows and shifts."""
        key = (agent, table)
        entry = self._slices.get(key)
        if entry is None:
            if None in table:
                low = self.agent_slice(agent, tuple([c or 0 for c in table]))
                high = self.agent_slice(agent, tuple([1 if c is None else c for c in table]))
                entry = (low[0], high[1], low[2], high[3])
            else:
                n = isqrt(len(table))
                rows = tuple(
                    tuple(a for a in range(n) if table[k + a]) for k in range(0, n * n, n)
                )
                shifts = self.agent_shifts(agent, rows)
                entry = (rows, rows, shifts, shifts)
            self._slices[key] = entry
        return entry

    # Per-shape memos of elimination_plan and agent_slice, keyed by their
    # arguments.
    @cached_property
    def _plans(self) -> dict:
        return {}

    @cached_property
    def _slices(self) -> dict:
        return {}

    @cached_property
    def initial_state(self) -> int:
        return state_index(self, self.initial_locals)

    def tb_bit(self, agent: int, local: int, action: int) -> int:
        if not 0 <= agent < self.agent_count:
            raise IndexError(f"agent {agent} out of range ({self.agent_count} agents)")
        n = self.locals_per_agent[agent]
        if not (0 <= local < n and 0 <= action < n):
            raise IndexError(f"agent {agent}: cell ({local},{action}) out of range")
        return self.tb_offsets[agent] + local * n + action

    def vb_bit(self, state: int, prop: int) -> int:
        if not (0 <= state < self.state_count and 0 <= prop < self.prop_count):
            raise IndexError(f"valuation cell ({state},{prop}) out of range")
        return self.vb_offset + state * self.prop_count + prop


def state_index(shape: ModelShape, locals_tuple: Sequence[int]) -> int:
    """Mixed-radix index of a global state, agent 0 most significant."""
    if len(locals_tuple) != shape.agent_count:
        raise IndexError("wrong number of local components")
    idx = 0
    for l, n, w in zip(locals_tuple, shape.locals_per_agent, shape.radix_weights):
        if not 0 <= l < n:
            raise IndexError(f"local state {l} out of range (< {n})")
        idx += l * w
    return idx


def state_locals(shape: ModelShape, state: int) -> tuple[int, ...]:
    """Inverse of :func:`state_index`."""
    return shape.state_locals_table[state]


class TransitionStructure:
    """Canonical-rule transition semantics over a shape.

    ``enabled[i][k]`` lists the actions available to agent ``i`` at its local
    state ``k``.  Rows may be empty here, unlike a :class:`Model`'s; states
    where some agent has an empty row have no successors.  A solve builds one
    only to check a model exactly (:meth:`~atlsat.approx.Program.exact`).
    """

    def __init__(
        self,
        shape: ModelShape,
        enabled: Sequence[Sequence[Sequence[int]]],
        prop_masks: Sequence[int],
    ):
        self.shape = shape
        self.enabled = tuple(tuple(map(tuple, table)) for table in enabled)
        self.prop_masks = tuple(prop_masks)

    def choice_masks(self, coalition: Sequence[int]) -> tuple[tuple[bool, tuple], ...]:
        """The coalition's plan over these rows, as :func:`~atlsat.mc.atl_pre`
        reads it: one ``(is member, shifts)`` step per agent, outsiders (for
        all) before members (exists), ``shifts`` being the shape's
        :meth:`~ModelShape.agent_shifts` of the agent's rows.  Built anew on
        each call; an exact check asks once per distinct coalition."""
        shape, enabled = self.shape, self.enabled
        return tuple([
            (member, shape.agent_shifts(i, enabled[i]))
            for i, member in shape.elimination_plan(tuple(coalition))
        ])


class Model:
    """A concrete model: total protocols (every row nonempty), a total
    valuation, and the ``enabled`` rows and ``prop_masks`` read from them, as
    a :class:`TransitionStructure` holds them.  Immutable once built."""

    def __init__(
        self,
        shape: ModelShape,
        protocols: Sequence[Sequence[Sequence[bool]]],
        valuation: Sequence[Sequence[bool]],
    ):
        protocols = tuple(
            tuple(tuple(bool(x) for x in row) for row in agent) for agent in protocols
        )
        valuation = tuple(tuple(bool(x) for x in row) for row in valuation)
        if len(protocols) != shape.agent_count:
            raise ValueError("one protocol table per agent required")
        for i, table in enumerate(protocols):
            n = shape.locals_per_agent[i]
            if len(table) != n or any(len(row) != n for row in table):
                raise ValueError(f"protocol table of agent {i} must be {n}x{n}")
            for k, row in enumerate(table):
                if not any(row):
                    raise EmptyProtocolRowError(i, k)
        if len(valuation) != shape.state_count or any(
            len(row) != shape.prop_count for row in valuation
        ):
            raise ValueError("valuation must be |St| x prop_count")
        self.shape = shape
        self.protocols = protocols
        self.valuation = valuation
        self.enabled = tuple(
            tuple(tuple(j for j, on in enumerate(row) if on) for row in table)
            for table in protocols
        )
        self.prop_masks = tuple(
            sum(row[v] << s for s, row in enumerate(valuation)) for v in range(shape.prop_count)
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Model)
            and self.shape == other.shape
            and self.protocols == other.protocols
            and self.valuation == other.valuation
        )

    def __hash__(self) -> int:
        return hash((self.shape, self.protocols, self.valuation))


# The values of a cell: 0, 1, or None while it is undefined.
CELL_VALUES = frozenset((0, 1, None))


@dataclass(frozen=True)
class Assignment:
    """Three-valued vector over the model cells; ``None`` marks undefined."""

    shape: ModelShape
    bits: tuple[int | None, ...]

    def __post_init__(self) -> None:
        if len(self.bits) != self.shape.bit_count:
            raise ValueError(
                f"assignment has {len(self.bits)} cells, shape needs {self.shape.bit_count}"
            )
        if not CELL_VALUES.issuperset(self.bits):
            raise ValueError("cells must be 0, 1 or None")

    def to_string(self) -> str:
        return "".join("x" if b is None else str(b) for b in self.bits)

    @classmethod
    def from_string(cls, shape: ModelShape, text: str) -> "Assignment":
        table = {"0": 0, "1": 1, "x": None}
        try:
            bits = tuple(table[ch] for ch in text)
        except KeyError as exc:
            raise ValueError(f"invalid cell character {exc.args[0]!r}") from None
        return cls(shape, bits)


def encode_model(m: Model) -> Assignment:
    """Lay the protocol and valuation tables out as a fully assigned vector."""
    bits: list[int | None] = []
    for table in m.protocols:
        for row in table:
            bits.extend(int(x) for x in row)
    for row in m.valuation:
        bits.extend(int(x) for x in row)
    return Assignment(m.shape, tuple(bits))


def decode_model(a: Assignment) -> Model:
    """Rebuild the model; every cell must be assigned and rows nonempty
    (``Model`` raises :class:`EmptyProtocolRowError` for an empty one)."""
    for idx, b in enumerate(a.bits):
        if b is None:
            raise UndefCellError(idx)
    shape = a.shape
    protocols = []
    for i, n in enumerate(shape.locals_per_agent):
        off = shape.tb_offsets[i]
        protocols.append(
            tuple(tuple(bool(a.bits[off + k * n + j]) for j in range(n)) for k in range(n))
        )
    valuation = []
    off = shape.vb_offset
    for s in range(shape.state_count):
        valuation.append(
            tuple(bool(a.bits[off + s * shape.prop_count + v]) for v in range(shape.prop_count))
        )
    return Model(shape, tuple(protocols), tuple(valuation))


def successors(m: Model, state: int) -> list[tuple[tuple[int, ...], int]]:
    """All (joint action, successor) pairs from a state, in lexicographic
    joint-action order.  The successor's local components equal the joint
    action, by the canonical rule."""
    shape = m.shape
    locs = state_locals(shape, state)
    options = [m.enabled[i][locs[i]] for i in range(shape.agent_count)]
    out = []
    for joint in product(*options):
        out.append((joint, state_index(shape, joint)))
    return out
