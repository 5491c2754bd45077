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
that vector used during search.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
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


@dataclass(frozen=True)
class ModelShape:
    """The fixed quantities of a model family.

    ``locals_per_agent[i]`` is the number of local states (and so actions)
    of agent ``i``; ``initial_locals[i]`` its initial local state.
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
        if not locs or any(n < 1 for n in locs):
            raise ValueError("every agent needs at least one local state")
        if len(init) != len(locs) or any(not 0 <= l < n for l, n in zip(init, locs)):
            raise ValueError("initial local states out of range")
        if prop_count < 0:
            raise ValueError("prop_count must be >= 0")

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

    def bit_owner(self, index: int) -> tuple:
        """Classify a cell index: ('tb', agent, local, action) or
        ('vb', state, prop)."""
        if not 0 <= index < self.bit_count:
            raise IndexError(f"cell {index} out of range (bit count {self.bit_count})")
        if index >= self.vb_offset:
            rel = index - self.vb_offset
            return ("vb", rel // self.prop_count, rel % self.prop_count)
        for agent in range(self.agent_count - 1, -1, -1):
            if index >= self.tb_offsets[agent]:
                rel = index - self.tb_offsets[agent]
                n = self.locals_per_agent[agent]
                return ("tb", agent, rel // n, rel % n)
        raise AssertionError


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
    state ``k``.  Rows may be empty here (the concrete :class:`Model`
    subclass forbids that); states where some agent has an empty row have no
    successors.
    """

    def __init__(
        self,
        shape: ModelShape,
        enabled: Sequence[Sequence[Sequence[int]]],
        prop_masks: Sequence[int],
    ):
        self.shape = shape
        self.enabled = tuple(tuple(tuple(row) for row in agent) for agent in enabled)
        self.prop_masks = tuple(prop_masks)
        self._choice_masks: dict[tuple[int, ...], list[list[int]]] = {}

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.shape.state_count) - 1

    def choice_masks(self, coalition: Sequence[int]) -> list[list[int]]:
        """Per state, one successor-set mask per joint coalition choice.

        Each mask covers the states reachable when the coalition fixes that
        choice and the remaining agents move freely.  An empty coalition row
        yields no choices; an empty outsider row yields mask 0 (no
        successors to constrain).
        """
        key = tuple(coalition)
        cached = self._choice_masks.get(key)
        if cached is not None:
            return cached
        shape = self.shape
        weights = shape.radix_weights
        coal = list(key)
        others = [i for i in range(shape.agent_count) if i not in key]
        per_state: list[list[int]] = []
        for locs in shape.state_locals_table:
            coal_opts = [self.enabled[i][locs[i]] for i in coal]
            other_opts = [self.enabled[i][locs[i]] for i in others]
            masks = []
            for choice in product(*coal_opts):
                base = sum(a * weights[i] for i, a in zip(coal, choice))
                m = 0
                for completion in product(*other_opts):
                    m |= 1 << (base + sum(a * weights[i] for i, a in zip(others, completion)))
                masks.append(m)
            per_state.append(masks)
        self._choice_masks[key] = per_state
        return per_state


class Model(TransitionStructure):
    """A concrete model: total protocols (every row nonempty) plus a total
    valuation.  Immutable once built."""

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
        self.protocols = protocols
        self.valuation = valuation
        enabled = tuple(
            tuple(tuple(j for j, on in enumerate(row) if on) for row in table)
            for table in protocols
        )
        prop_masks = [0] * shape.prop_count
        for s, row in enumerate(valuation):
            for v, on in enumerate(row):
                if on:
                    prop_masks[v] |= 1 << s
        super().__init__(shape, enabled, prop_masks)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Model)
            and self.shape == other.shape
            and self.protocols == other.protocols
            and self.valuation == other.valuation
        )

    def __hash__(self) -> int:
        return hash((self.shape, self.protocols, self.valuation))


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

    def is_total(self) -> bool:
        return all(b is not None for b in self.bits)

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
    """Rebuild the model; every cell must be assigned and rows nonempty."""
    for idx, b in enumerate(a.bits):
        if b is None:
            raise UndefCellError(idx)
    shape = a.shape
    protocols = []
    for i, n in enumerate(shape.locals_per_agent):
        off = shape.tb_offsets[i]
        table = []
        for k in range(n):
            row = tuple(bool(a.bits[off + k * n + j]) for j in range(n))
            if not any(row):
                raise EmptyProtocolRowError(i, k)
            table.append(row)
        protocols.append(tuple(table))
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
