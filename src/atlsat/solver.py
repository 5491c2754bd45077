"""Bounded satisfiability via clause-learning search over the model cells.

The search assigns the model bit vector one cell at a time.  Unit
propagation runs over structural clauses (one per protocol row, so rows stay
nonempty, plus one unit clause per requirement) and learned clauses.  After
propagation settles at each level, the partial assignment is read as a
partial model and the two-sided approximation decides the step:

* initial state outside the over set: no compatible completion can satisfy
  the formula, so a conflict clause over the assigned cells is learned;
* initial state inside the under set: every compatible completion satisfies
  the formula, so the assignment is completed and the witness returned;
* otherwise the search deepens.

Both approximations tighten monotonically as cells get decided and coincide
with exact model checking at total assignments, so the search is sound and
complete for the bounded problem.  Witnesses are re-checked exactly before
they are returned.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .approx import Mode, PartialModel, check_validity, is_compatible, sapp
from .formula import Formula, normalize, validate_within
from .mas import Assignment, Model, ModelShape, decode_model


class BoundsError(ValueError):
    """The formula references agents or propositions beyond the shape."""


class SolveTimeout(Exception):
    """The configured time limit ran out before a verdict."""


@dataclass(frozen=True)
class Requirements:
    """The model family to search: a shape plus forced protocol and
    valuation cells."""

    shape: ModelShape
    cp_constraints: tuple[tuple[int, int, int, int], ...] = ()
    cv_constraints: tuple[tuple[int, int, int], ...] = ()

    def __post_init__(self) -> None:
        seen: dict[int, int] = {}
        for agent, local, action, value in self.cp_constraints:
            bit = self.shape.tb_bit(agent, local, action)
            self._note(seen, bit, value)
        for state, prop, value in self.cv_constraints:
            bit = self.shape.vb_bit(state, prop)
            self._note(seen, bit, value)
        # Raises if some protocol row is forced entirely empty.
        self.induced_partial_model()

    @staticmethod
    def _note(seen: dict[int, int], bit: int, value: int) -> None:
        if value not in (0, 1):
            raise ValueError(f"constraint value must be 0 or 1, got {value!r}")
        if seen.setdefault(bit, value) != value:
            raise ValueError(f"contradictory constraints on cell {bit}")

    def constraint_bits(self) -> list[tuple[int, int]]:
        out = []
        for agent, local, action, value in self.cp_constraints:
            out.append((self.shape.tb_bit(agent, local, action), value))
        for state, prop, value in self.cv_constraints:
            out.append((self.shape.vb_bit(state, prop), value))
        return out

    def induced_partial_model(self) -> PartialModel:
        bits: list[int | None] = [None] * self.shape.bit_count
        for bit, value in self.constraint_bits():
            bits[bit] = value
        return PartialModel.from_assignment(Assignment(self.shape, tuple(bits)))


@dataclass(frozen=True)
class Clause:
    """A disjunction of literals over model cells.  Literal ``v+1`` asserts
    cell ``v`` true, ``-(v+1)`` asserts it false.  The empty clause is the
    distinguished unsatisfiable one."""

    literals: tuple[int, ...]

    def __post_init__(self) -> None:
        vars_seen = set()
        for lit in self.literals:
            if lit == 0:
                raise ValueError("literal 0 is not allowed")
            v = abs(lit) - 1
            if v in vars_seen:
                raise ValueError(f"duplicate variable {v} in clause")
            vars_seen.add(v)

    def __iter__(self):
        return iter(self.literals)

    def __len__(self) -> int:
        return len(self.literals)


@dataclass
class SolverStats:
    decisions: int = 0
    conflicts: int = 0
    theory_checks: int = 0
    wall_time: float = 0.0
    learned: list[Clause] = field(default_factory=list)


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the search.

    ``policy`` picks the next cell and its first value: ``"default"`` takes
    the lowest-index unassigned cell, trying 1 first for protocol cells and
    0 first for valuation cells; ``"one-first"`` and ``"zero-first"`` fix
    the first value; ``"random"`` draws both from ``seed``.
    """

    policy: str = "default"
    minimize_conflicts: bool = False
    seed: int = 0
    time_limit: float | None = None
    collect_learned: bool = False

    def __post_init__(self) -> None:
        if self.policy not in ("default", "one-first", "zero-first", "random"):
            raise ValueError(f"unknown decision policy {self.policy!r}")


@dataclass(frozen=True)
class SolverResult:
    satisfiable: bool
    witness: Model | None
    stats: SolverStats


@dataclass(frozen=True)
class TheoryOutcome:
    """Verdict of one approximation round: ``"pass"``, ``"early_accept"``,
    or ``"conflict"`` with the clause to learn."""

    verdict: str
    clause: Clause | None = None

    def is_conflict(self) -> bool:
        return self.verdict == "conflict"

    def is_early_accept(self) -> bool:
        return self.verdict == "early_accept"


def structural_clauses(req: Requirements) -> list[Clause]:
    """One at-least-one clause per protocol row plus one unit clause per
    requirement constraint."""
    shape = req.shape
    clauses = []
    for agent, n in enumerate(shape.locals_per_agent):
        for local in range(n):
            clauses.append(
                Clause(tuple(shape.tb_bit(agent, local, a) + 1 for a in range(n)))
            )
    for bit, value in req.constraint_bits():
        clauses.append(Clause((bit + 1,) if value else (-(bit + 1),)))
    return clauses


def _merge_with_requirements(asg: Assignment, req: Requirements) -> list[int | None]:
    bits = list(asg.bits)
    for bit, value in req.constraint_bits():
        if bits[bit] is None:
            bits[bit] = value
        elif bits[bit] != value:
            raise ValueError(f"assignment contradicts requirement on cell {bit}")
    return bits


def theory_check(
    asg: Assignment,
    f: Formula,
    req: Requirements,
    minimize: bool = False,
) -> TheoryOutcome:
    """Run the approximation on the assignment merged with the requirements.

    Conflict means no compatible completion satisfies the formula; the
    returned clause negates the currently assigned cells (greedily reduced
    when ``minimize``).  Early acceptance means every compatible completion
    satisfies it.
    """
    f = normalize(f)
    bits = _merge_with_requirements(asg, req)
    pm = PartialModel.from_assignment(Assignment(req.shape, tuple(bits)))
    return _decide(pm, f, _make_recheck(f, req) if minimize else None)


def _decide(
    pm: PartialModel, f: Formula, recheck: Callable[[tuple[int, ...]], bool] | None
) -> TheoryOutcome:
    """The theory verdict on a partial model; a conflict clause negates
    every determined cell, reduced by ``recheck`` when given."""
    iota = pm.shape.initial_state
    if not sapp(pm, f, Mode.OVER) >> iota & 1:
        clause = Clause(
            tuple(
                -(v + 1) if value else (v + 1)
                for v, value in enumerate(pm.cells)
                if value is not None
            )
        )
        if recheck is not None:
            clause = minimize_conflict(clause, recheck)
        return TheoryOutcome("conflict", clause)
    if sapp(pm, f, Mode.UNDER) >> iota & 1:
        return TheoryOutcome("early_accept")
    return TheoryOutcome("pass")


def _make_recheck(f: Formula, req: Requirements) -> Callable[[tuple[int, ...]], bool]:
    """Oracle for clause minimization: does the conflict survive when only
    the cells named by these clause literals stay assigned?"""
    iota = req.shape.initial_state

    def recheck(candidate: tuple[int, ...]) -> bool:
        bits: list[int | None] = [None] * req.shape.bit_count
        for lit in candidate:
            bits[abs(lit) - 1] = 0 if lit > 0 else 1
        try:
            merged = _merge_with_requirements(Assignment(req.shape, tuple(bits)), req)
            pm = PartialModel.from_assignment(Assignment(req.shape, tuple(merged)))
        except ValueError:
            # Dropping cells uncovered a requirement contradiction or an
            # empty row; that assignment cannot occur, treat as conflicting.
            return True
        return not sapp(pm, f, Mode.OVER) >> iota & 1

    return recheck


def minimize_conflict(
    clause: Clause, recheck: Callable[[tuple[int, ...]], bool]
) -> Clause:
    """Greedily drop literals while the theory oracle still reports a
    conflict for the reduced assignment."""
    lits = list(clause.literals)
    i = 0
    while i < len(lits):
        candidate = tuple(lits[:i] + lits[i + 1 :])
        if recheck(candidate):
            del lits[i]
        else:
            i += 1
    return Clause(tuple(lits))


def extract_model(asg: Assignment) -> Model:
    """Decode a total assignment into its model."""
    return decode_model(asg)


class _Search:
    """One satisfiability run.  Not reusable across calls."""

    def __init__(self, f: Formula, req: Requirements, config: SolverConfig):
        self.req = req
        self.config = config
        self.shape = req.shape
        self.formula = f
        self.n = self.shape.bit_count
        self.value: list[int | None] = [None] * self.n
        self.level: list[int] = [0] * self.n
        self.reason: list[tuple[int, ...] | None] = [None] * self.n
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.clauses: list[tuple[int, ...]] = [
            tuple(c.literals) for c in structural_clauses(req)
        ]
        self.stats = SolverStats()
        self.rng = random.Random(config.seed) if config.policy == "random" else None
        self._recheck = _make_recheck(f, req) if config.minimize_conflicts else None

    # -- assignment plumbing

    @property
    def decision_level(self) -> int:
        return len(self.trail_lim)

    def lit_value(self, lit: int) -> bool | None:
        v = self.value[abs(lit) - 1]
        if v is None:
            return None
        return v == 1 if lit > 0 else v == 0

    def assign(self, lit: int, reason: tuple[int, ...] | None) -> None:
        v = abs(lit) - 1
        self.value[v] = 1 if lit > 0 else 0
        self.level[v] = self.decision_level
        self.reason[v] = reason
        self.trail.append(lit)

    def backjump(self, target_level: int) -> None:
        cut = self.trail_lim[target_level]
        for lit in self.trail[cut:]:
            v = abs(lit) - 1
            self.value[v] = None
            self.reason[v] = None
        del self.trail[cut:]
        del self.trail_lim[target_level:]

    # -- propagation

    def propagate(self) -> tuple[int, ...] | None:
        """Unit-propagate to fixpoint; returns a falsified clause or None."""
        changed = True
        while changed:
            changed = False
            for clause in self.clauses:
                unassigned = None
                satisfied = False
                for lit in clause:
                    lv = self.lit_value(lit)
                    if lv is True:
                        satisfied = True
                        break
                    if lv is None:
                        if unassigned is None:
                            unassigned = lit
                        else:
                            unassigned = 0  # two free literals, nothing to do
                            break
                if satisfied:
                    continue
                if unassigned is None:
                    return clause
                if unassigned != 0:
                    self.assign(unassigned, clause)
                    changed = True
        return None

    # -- conflict analysis

    def analyze(self, conflict: Sequence[int]) -> tuple[tuple[int, ...], int] | None:
        """Resolve a falsified clause to an asserting one; returns the
        learned clause and backjump level, or None when the conflict stands
        at level 0 (unsatisfiable)."""
        conflict = list(conflict)
        if not conflict:
            return None
        conflict_level = max(self.level[abs(l) - 1] for l in conflict)
        if conflict_level == 0:
            return None
        seen: set[int] = set()
        counter = 0
        learned: list[int] = []
        for lit in conflict:
            v = abs(lit) - 1
            if v not in seen:
                seen.add(v)
                if self.level[v] == conflict_level:
                    counter += 1
                elif self.level[v] > 0:
                    learned.append(lit)
                # root-level literals are permanently false, drop them
        idx = len(self.trail) - 1
        uip_lit = None
        while True:
            while self.level[abs(self.trail[idx]) - 1] != conflict_level or (
                abs(self.trail[idx]) - 1
            ) not in seen:
                idx -= 1
            lit = self.trail[idx]
            idx -= 1
            counter -= 1
            if counter == 0:
                uip_lit = lit
                break
            reason = self.reason[abs(lit) - 1]
            for other in reason:
                v = abs(other) - 1
                if v == abs(lit) - 1 or v in seen:
                    continue
                seen.add(v)
                if self.level[v] == conflict_level:
                    counter += 1
                elif self.level[v] > 0:
                    learned.append(other)
        learned.append(-uip_lit)
        if len(learned) == 1:
            return tuple(learned), 0
        backjump = max(
            self.level[abs(l) - 1] for l in learned if l != -uip_lit
        )
        return tuple(learned), backjump

    def learn(self, clause: tuple[int, ...]) -> None:
        self.clauses.append(clause)
        if self.config.collect_learned:
            self.stats.learned.append(Clause(clause))

    # -- theory interface

    def run_theory(self) -> TheoryOutcome:
        self.stats.theory_checks += 1
        pm = PartialModel.from_assignment(Assignment(self.shape, tuple(self.value)))
        return _decide(pm, self.formula, self._recheck)

    # -- decisions

    def decide(self) -> int | None:
        free = [v for v in range(self.n) if self.value[v] is None]
        if not free:
            return None
        if self.rng is not None:
            v = self.rng.choice(free)
            return (v + 1) if self.rng.random() < 0.5 else -(v + 1)
        v = free[0]
        policy = self.config.policy
        if policy == "one-first":
            positive = True
        elif policy == "zero-first":
            positive = False
        else:
            positive = v < self.shape.vb_offset  # protocol cells rich-first
        return (v + 1) if positive else -(v + 1)

    # -- completion on early acceptance

    def complete_and_extract(self) -> Model:
        bits = list(self.value)
        for v in range(self.n):
            if bits[v] is None:
                bits[v] = 0
        shape = self.shape
        for agent, n in enumerate(shape.locals_per_agent):
            for local in range(n):
                row_bits = [shape.tb_bit(agent, local, a) for a in range(n)]
                if not any(bits[b] for b in row_bits):
                    repair = next(b for b in row_bits if self.value[b] is None)
                    bits[repair] = 1
        return decode_model(Assignment(shape, tuple(bits)))


def solve_satisfiability(
    f: Formula, req: Requirements, config: SolverConfig | None = None
) -> SolverResult:
    """Decide whether some model of the required shape satisfies the formula
    at the initial state; on success the witness is verified exactly before
    being returned."""
    config = config or SolverConfig()
    start = time.perf_counter()
    core = normalize(f)
    try:
        validate_within(core, req.shape.agent_count, req.shape.prop_count)
    except ValueError as exc:
        raise BoundsError(str(exc)) from None

    search = _Search(core, req, config)

    def finish(satisfiable: bool, witness: Model | None) -> SolverResult:
        search.stats.wall_time = time.perf_counter() - start
        return SolverResult(satisfiable, witness, search.stats)

    while True:
        if config.time_limit is not None and time.perf_counter() - start > config.time_limit:
            raise SolveTimeout(f"time limit of {config.time_limit}s exceeded")

        conflict = search.propagate()
        if conflict is not None:
            search.stats.conflicts += 1
            result = search.analyze(conflict)
            if result is None:
                return finish(False, None)
            learned, backjump = result
            search.backjump(backjump)
            search.learn(learned)
            continue

        outcome = search.run_theory()
        if outcome.is_conflict():
            search.stats.conflicts += 1
            result = search.analyze(outcome.clause.literals)
            if result is None:
                return finish(False, None)
            learned, backjump = result
            search.backjump(backjump)
            search.learn(learned)
            continue
        if outcome.is_early_accept():
            witness = search.complete_and_extract()
            _verify_witness(witness, core, req)
            return finish(True, witness)

        decision = search.decide()
        if decision is None:
            # Over and under coincide at total assignments, so the theory
            # verdict above must have been conflict or acceptance.
            raise AssertionError("total assignment reached without a verdict")
        search.trail_lim.append(len(search.trail))
        search.stats.decisions += 1
        search.assign(decision, None)


def _verify_witness(witness: Model, core: Formula, req: Requirements) -> None:
    if not is_compatible(witness, req.induced_partial_model()):
        raise AssertionError("witness violates the requirements")
    if not check_validity(witness, core):
        raise AssertionError("witness fails exact model checking")
