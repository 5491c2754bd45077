"""Bounded satisfiability via clause-learning search over the model cells.

The search assigns the model bit vector one cell at a time, in the cell list
of the partial model the approximation reads, so theory calls see the
assignment without a copy.  A clause is a tuple of literals over model
cells: literal ``v+1`` asserts cell ``v`` true, ``-(v+1)`` asserts it false,
and the empty tuple is unsatisfiable.  The search assigns only cells of the
cone of the compiled formula (``Program.cone``), the cells its verdict can
read.  It starts from one at-least-one clause per protocol row of the cone,
so rows stay nonempty, and from the forced cone cells of the requirements,
assigned at level 0 without a reason, as MiniSat enqueues unit input
clauses.  Unit propagation runs over the row clauses and learned clauses.
Each clause watches two literals, non-false ones while it has them, and is
visited only when a watched literal becomes false; a visit that finds the
other watch true ends there, since the clause is satisfied (the blocker
rule).  Propagation walks the trail in order, as in Chaff and MiniSat; a
clause entering the search implies its literal itself when it is unit on
arrival.  Decisions follow clause activity (VSIDS, as in Chaff and MiniSat):
each conflict analysis bumps the activity of every cell in the clauses it
resolves, by an amount that grows with each conflict, so recent conflicts
weigh most.  A decision takes the free cone cell of highest activity, ties
going to the lowest index, so before the first conflict it is the
lowest-index free cone cell; it sets 1 for a protocol cell and 0 for a
valuation cell.  After propagation settles at each level, the over
approximation of the partial assignment decides the step:

* initial state outside the over set: no compatible completion can satisfy
  the formula, so a conflict clause over the assigned cells is learned (when
  minimizing, over the cells the over evaluation read and the requirements
  leave free, then shrunk greedily by rechecks that evaluate only the steps
  that evaluation's justification rests on, the sub-program that
  ``Program.explain`` returns with those cells);
* otherwise the search deepens, until no cone cell is free.  Over and under
  then coincide at the initial state, so the under approximation, asked
  this once per solve, accepts: every compatible completion satisfies the
  formula.  The witness takes the forced cells outside the cone from the
  requirements and completes the rest.

The formula is asserted true, so only the over approximation can refute an
assignment, and the under one serves acceptance alone, as in SAT modulo
monotonic theories.  Both approximations tighten monotonically as cells get
decided and coincide with exact model checking at total assignments, so the
search is sound and complete for the bounded problem.  Witnesses are
re-checked exactly before they are returned.

Monotonicity also lets the search leap to its first conflict.  Until then
its steps are fixed in advance: decisions follow the cell order, propagation
meets only the row clauses, which those decisions never falsify, and each
over check asks about a longer prefix of one trail.  So the search makes
every decision at once, asks over on the whole trail, and when it fails
finds the first failing level by bisection, then backjumps there.  The
decisions, propagations, conflicts and learned clauses are those of the
search one step at a time; only the over checks differ, fewer unless the
first conflict comes within a few levels.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .approx import BoundsError, Mode, PartialModel, Program, check_validity, is_compatible, sapp
from .formula import Formula, normalize
from .mas import Assignment, Model, ModelShape, decode_model


class SolveTimeout(Exception):
    """The configured time limit ran out before a verdict."""


# The clock time limits are measured on.
_clock = time.perf_counter


@dataclass(frozen=True)
class Requirements:
    """The model family to search: a shape plus forced protocol and
    valuation cells, which ``cells`` holds as a bit vector with None where a
    cell is free.  Rows may be any iterables, such as JSON lists, and are kept
    as tuples.  Each error names its field, ``cp`` or ``cv``: a
    :class:`BoundsError` for a cell outside the shape, else a ``ValueError``."""

    shape: ModelShape
    cp_constraints: tuple[tuple[int, int, int, int], ...] = ()
    cv_constraints: tuple[tuple[int, int, int], ...] = ()
    cells: tuple[int | None, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        shape = self.shape
        cells: list[int | None] = [None] * shape.bit_count
        for name, width, rows, cell in (("cp", 4, self.cp_constraints, shape.tb_bit),
                                        ("cv", 3, self.cv_constraints, shape.vb_bit)):
            try:
                rows = tuple(map(tuple, rows))
                for row in rows:
                    # Exactly int, as in ModelShape: a bool or a float would pass.
                    if len(row) != width or not all(type(x) is int for x in row):
                        raise ValueError(f"expected rows of {width} integers")
                    *at, value = row
                    bit = cell(*at)
                    if value not in (0, 1):
                        raise ValueError(f"constraint value must be 0 or 1, got {value!r}")
                    if cells[bit] not in (None, value):
                        raise ValueError(f"contradictory constraints on cell {bit}")
                    cells[bit] = value
                if name == "cp":
                    # Raises if some protocol row is forced entirely empty.
                    PartialModel(shape, cells)
            except (IndexError, TypeError, ValueError) as exc:
                kind = BoundsError if isinstance(exc, IndexError) else ValueError
                raise kind(f"requirements field {name!r}: {exc}") from None
            object.__setattr__(self, f"{name}_constraints", rows)
        object.__setattr__(self, "cells", tuple(cells))

    def induced_partial_model(self) -> PartialModel:
        return PartialModel.from_assignment(Assignment(self.shape, self.cells))


@dataclass
class SolverStats:
    """What one solve did.

    * ``decisions``: decision levels opened, counting only the levels a leap
      keeps;
    * ``conflicts``: Boolean and theory conflicts analyzed, the last one at
      level 0 on a refutation;
    * ``theory_checks``: over evaluations of the whole program that the
      search made, a leap's probes included and minimization rechecks not;
    * ``propagations``: cells implied by a clause, at the levels kept;
    * ``rechecks``: minimization rechecks, each one over evaluation of the
      justified sub-program;
    * ``reused``: strategic steps answered from their last result, in theory
      checks, rechecks and the acceptance test;
    * ``cone_cells``: the cells the verdict can read, the ones the search
      assigns;
    * ``wall_time``: seconds from the start of construction to the verdict.
    """

    decisions: int = 0
    conflicts: int = 0
    theory_checks: int = 0
    propagations: int = 0
    rechecks: int = 0
    reused: int = 0
    cone_cells: int = 0
    wall_time: float = 0.0


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the search."""

    minimize_conflicts: bool = False
    time_limit: float | None = None

    def __post_init__(self) -> None:
        limit = self.time_limit
        # Exactly int or float, as in ModelShape; NaN fails the negated test.
        if limit is not None and not (type(limit) in (int, float) and limit > 0):
            raise ValueError(f"time limit must be a number > 0, got {limit!r}")


@dataclass(frozen=True)
class SolverResult:
    satisfiable: bool
    witness: Model | None
    stats: SolverStats


def minimize_conflict(
    clause: tuple[int, ...], recheck: Callable[[tuple[int, ...]], bool]
) -> tuple[int, ...]:
    """Greedily drop literals while the theory oracle still reports a
    conflict for the reduced assignment."""
    lits = list(clause)
    i = 0
    while i < len(lits):
        candidate = tuple(lits[:i] + lits[i + 1 :])
        if recheck(candidate):
            del lits[i]
        else:
            i += 1
    return tuple(lits)


class _Search:
    """One satisfiability run, from the formula to the result: compiling
    it, the Boolean search, its theory side (the over verdict on each
    settled assignment, conflict minimization and the one acceptance test),
    the time limit and the witness.  The time limit counts from the start
    of construction, so it covers normalizing and compiling.  Not reusable
    across calls.

    The assignment is ``value``, the cells of ``view``, a
    :class:`~atlsat.approx.PartialModel` that theory calls evaluate on.  The
    view shows the trail, through ``view.put`` in ``assign`` and
    ``backjump``, except inside ``leap``, whose probes move it between
    prefixes of the trail.
    Minimization rechecks evaluate ``rechecked`` on ``probe``, a partial
    model of the requirements built once per solve, and each recheck changes
    only the probe's cells whose literal entered or left the candidate since
    the previous recheck.  ``rechecked`` is the whole program until the
    first theory conflict, and then the sub-program that the last
    justification returned (:meth:`~atlsat.approx.Program.explain`).

    Decisions read ``score``: a free cone cell's ``activity``, and -1.0 for
    an assigned cell, which ``assign`` writes and ``backjump`` undoes, and
    for every cell outside the cone, for the whole solve.  Only ``analyze``
    bumps an activity, and only of a cell it saw assigned, so the score of a
    free cone cell always equals its activity.

    No cell outside the cone is ever on the trail.  Row clauses and forced
    cells enter the search only for cone cells, a decision picks a cone
    cell, and a theory clause names trail cells or cells the verdict read,
    so every clause, learned ones too, names cone cells alone.  The trail
    thus holds every cone cell, and decisions stop, once its length is the
    cone's size.  Watch sets are built on demand, for cone literals alone."""

    def __init__(self, f: Formula, req: Requirements, config: SolverConfig):
        self.start = _clock()
        self.req = req
        self.config = config
        self.shape = req.shape
        # Compiled once: its strategic steps reuse results across the
        # theory calls and rechecks of this run.
        self.program = Program(normalize(f), req.shape)
        self.n = self.shape.bit_count
        self.view = PartialModel(self.shape, [None] * self.n)
        # One list: nothing may write ``value`` directly, since ``put``
        # skips an unchanged cell and would leave the masks and rows stale.
        self.value = self.view.cells
        self.level: list[int] = [0] * self.n
        self.reason: list[tuple[int, ...] | None] = [None] * self.n
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.activity = [0.0] * self.n
        cone = self.program.cone
        self.score = [-1.0] * self.n
        for v in cone:
            self.score[v] = 0.0
        # The activity a conflict adds to each cell it sees; it grows by
        # 1/0.95 per conflict, which decays every older bump relative to it.
        self.bump = 1.0
        self.clauses: list[tuple[int, ...]] = []
        # Per clause, its watched literals; per literal, the clauses that
        # watch it (and so must be revisited when it becomes false).
        self.watched: list[tuple[int, ...]] = []
        self.watchers: defaultdict[int, set[int]] = defaultdict(set)
        # Trail literals before ``head`` have had their watchers visited.
        self.head = 0
        self.stats = SolverStats(cone_cells=len(cone))
        # Protocol cells are all in the cone or all outside it.
        for off, n in zip(self.shape.tb_offsets, self.shape.locals_per_agent):
            for row in range(off, off + n * n, n):
                if row in cone:
                    self.add_clause(tuple(range(row + 1, row + n + 1)))
        # The forced cone cells, less those a one-cell row has already implied.
        for v, b in enumerate(req.cells):
            if b is not None and v in cone and self.value[v] is None:
                self.assign(v + 1 if b else -(v + 1), None)
        if config.minimize_conflicts:
            self.probe = PartialModel(self.shape, req.cells)
            # The literals of the last recheck's candidate, shown on the probe.
            self.shown: set[int] = set()
            self.rechecked = self.program

    # -- the loop

    def run(self) -> SolverResult:
        """Search to a verdict.  Each step propagates and asks the over
        approximation of the settled assignment for a theory conflict; a
        Boolean or theory conflict is resolved by analyze, backjump and
        learn, and otherwise the next decision opens a level.  Before the
        first conflict the decisions are made by ``leap``.  Once no cone
        cell is free, ``accepts`` gives the verdict, asked once per solve."""
        while True:
            self.deadline()
            conflict = self.propagate()
            if conflict is None:
                conflict = self.run_theory()
                if conflict is None and not self.stats.conflicts:
                    conflict = self.leap()
            if conflict is not None:
                self.stats.conflicts += 1
                result = self.analyze(conflict)
                if result is None:
                    return self.finish(None)
                learned, backjump = result
                self.backjump(backjump)
                self.add_clause(learned)
            elif not self.decide():
                # Over and under read only cone cells at the initial state, so
                # they coincide once every cone cell is set: over held, and
                # under must too.
                if self.accepts():
                    return self.finish(self.witness())
                raise AssertionError("total assignment reached without a verdict")

    def deadline(self) -> None:
        """Raise :class:`SolveTimeout` once more than ``config.time_limit``
        seconds have passed since ``start``; never, without a limit."""
        limit = self.config.time_limit
        if limit is not None and _clock() - self.start > limit:
            raise SolveTimeout(f"time limit of {limit}s exceeded")

    def finish(self, witness: Model | None) -> SolverResult:
        self.stats.wall_time = _clock() - self.start
        self.stats.reused += self.program.reused
        return SolverResult(witness is not None, witness, self.stats)

    # -- assignment plumbing

    def assign(self, lit: int, reason: tuple[int, ...] | None) -> None:
        v = abs(lit) - 1
        self.view.put(v, 1 if lit > 0 else 0)
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.score[v] = -1.0
        self.trail.append(lit)

    def backjump(self, target_level: int) -> None:
        cut = self.trail_lim[target_level]
        put, score, activity = self.view.put, self.score, self.activity
        for lit in self.trail[cut:]:
            v = abs(lit) - 1
            put(v, None)
            score[v] = activity[v]
        del self.trail[cut:]
        del self.trail_lim[target_level:]
        self.head = min(self.head, cut)

    def show_prefix(self, shown: int, end: int) -> int:
        """Move the view from the first ``shown`` trail literals to the
        first ``end``; returns ``end``."""
        put, trail = self.view.put, self.trail
        for lit in trail[end:shown]:
            put(abs(lit) - 1, None)
        for lit in trail[shown:end]:
            put(abs(lit) - 1, 1 if lit > 0 else 0)
        return end

    # -- propagation

    def add_clause(self, clause: tuple[int, ...]) -> None:
        """Append a clause and watch it, implying its literal when it is
        unit.  Clauses enter at construction (row clauses, where a one-cell
        row implies its cell) and right after the backjump that
        makes a learned clause asserting, where it implies its last literal.
        Neither kind is false on arrival; a clause that is, added before the
        walk of the trail passes its literals, is found as that walk's
        conflict."""
        self.clauses.append(clause)
        self.watched.append(())
        self.rewatch(len(self.clauses) - 1)

    def rewatch(self, i: int) -> list[int]:
        """Re-pick clause ``i``'s watches and return its non-false literals,
        stopping at two; when the one non-false literal is free, imply it,
        with the clause as its reason.  Two non-false literals are watched
        when there are; otherwise the false literals of highest level fill
        the places, so a backjump that frees the clause frees them first."""
        clause = self.clauses[i]
        value = self.value
        free = []
        for lit in clause:
            # Not false: unassigned (None differs from both bools) or true.
            if value[abs(lit) - 1] != (lit < 0):
                free.append(lit)
                if len(free) == 2:
                    break
        new = tuple(free)
        if len(free) < 2 and len(clause) > len(free):
            level = self.level
            false = [lit for lit in clause if lit not in free]
            false.sort(key=lambda lit: level[abs(lit) - 1], reverse=True)
            new += tuple(false[: 2 - len(free)])
        old = self.watched[i]
        if old != new:
            watchers = self.watchers
            for lit in old:
                if lit not in new:
                    watchers[lit].discard(i)
            for lit in new:
                watchers[lit].add(i)
            self.watched[i] = new
        if len(free) == 1 and value[abs(free[0]) - 1] is None:
            self.assign(free[0], clause)
            self.stats.propagations += 1
        return free

    def propagate(self) -> tuple[int, ...] | None:
        """Unit-propagate to fixpoint; returns a falsified clause or None.

        The trail is walked from ``head``: for each literal, the clauses
        watching its negation are visited in ascending index, from a
        snapshot taken when the walk reaches it.  A visit that finds a true
        watch ends there (the blocker rule); otherwise the clause is
        re-watched, and it is the conflict when no literal of it is left
        non-false, or implies its one unassigned literal.

        A clause left unvisited has two non-false watches, or a true one
        and a false one of no lower level; either way it cannot be unit or
        false until a watch becomes false, and a backjump keeps that so.  A
        blocked visit keeps this too: the watch that just became false did
        so at the current level, no lower than the true one's.  On a
        conflict the rest of the walk is dropped: the backjump that follows
        rewinds ``head`` below every literal whose visits were cut short."""
        watchers = self.watchers
        watched = self.watched
        value = self.value
        trail = self.trail
        while self.head < len(trail):
            lit = trail[self.head]
            self.head += 1
            for i in sorted(watchers[-lit]):
                for w in watched[i]:
                    if value[abs(w) - 1] == (w > 0):
                        break  # a true watch blocks the visit
                else:
                    if not self.rewatch(i):
                        return self.clauses[i]
        return None

    # -- conflict analysis

    def analyze(self, clause: Sequence[int]) -> tuple[tuple[int, ...], int] | None:
        """Resolve a falsified clause to an asserting one (first UIP); returns
        the learned clause and backjump level, or None when the conflict
        stands at level 0 (unsatisfiable).  One loop resolves the conflict
        clause and then the reason of each pivot, the latest trail literal
        pending at the conflict level, until one is left pending.  Each cell
        is marked once: at the conflict level it is pending, below it its
        literal is kept, and at level 0, false for good, dropped.  The
        learned clause is the kept literals in marking order, which picks its
        watches, then the negated last pivot; the backjump level is the
        highest level among the kept literals, or 0 for a unit clause.

        Each cell marked above level 0 gains ``bump`` activity, and ``bump``
        then grows by 1/0.95; once it passes 1e100, every activity and
        ``bump`` are scaled by 1e-100, which keeps their order."""
        level = self.level
        conflict_level = max((level[abs(lit) - 1] for lit in clause), default=0)
        if conflict_level == 0:
            return None
        activity, bump = self.activity, self.bump
        seen: set[int] = set()
        pending: set[int] = set()
        learned: list[int] = []
        backjump = 0
        walk = reversed(self.trail)
        while True:
            for lit in clause:
                v = abs(lit) - 1
                if v not in seen:
                    seen.add(v)
                    lv = level[v]
                    if lv == conflict_level:
                        pending.add(v)
                    elif lv:
                        learned.append(lit)
                        if lv > backjump:
                            backjump = lv
                    else:
                        continue  # level 0: false for good, dropped
                    activity[v] += bump
            pivot = next(lit for lit in walk if abs(lit) - 1 in pending)
            pending.remove(abs(pivot) - 1)
            if not pending:
                break
            clause = self.reason[abs(pivot) - 1]
        learned.append(-pivot)
        self.bump = bump / 0.95
        if self.bump > 1e100:
            self.rescale()
        return tuple(learned), backjump

    def rescale(self) -> None:
        """Scale every activity, the free cells' scores and ``bump`` by
        1e-100, in place."""
        activity, score = self.activity, self.score
        activity[:] = [a * 1e-100 for a in activity]
        score[:] = [a if s >= 0 else -1.0 for a, s in zip(activity, score)]
        self.bump *= 1e-100

    # -- theory interface

    def run_theory(self) -> tuple[int, ...] | None:
        """The conflict clause when the over approximation excludes the
        initial state, else None."""
        return None if self.over_holds() else self.theory_conflict()

    def over_holds(self) -> bool:
        """One theory check: whether the over approximation of the view
        holds at the initial state."""
        self.stats.theory_checks += 1
        return bool(sapp(self.view, self.program, Mode.OVER) >> self.shape.initial_state & 1)

    def leap(self) -> tuple[int, ...] | None:
        """Make the search's steps up to its first conflict at once.  Until
        then the only clauses are the row clauses, each decision takes the
        next cell of a fixed order, and each theory check asks over of a
        longer prefix of one trail.  Over only shrinks as the trail grows,
        so the first failing prefix can be found by bisection.

        Decide and propagate until no cone cell is free or a Boolean
        conflict comes, and ask over once at the last settled level.  When
        it holds, return the Boolean conflict, or None on a full cone.
        Otherwise bisect the levels between the current one, where over
        holds, and that one for the first failing level, moving the view
        between prefixes; backjump to it and return its theory conflict,
        which explains the last probe when that probe was at this level.
        Decisions and propagations then count the levels kept alone.  The
        deadline runs before each decision and each probe.  With fewer than
        two cone cells free the leap would be the plain step: it returns
        None at once, and ``run`` takes that step."""
        trail, lims = self.trail, self.trail_lim
        if len(self.program.cone) - len(trail) < 2:
            return None
        good = len(lims)
        conflict = None
        while conflict is None:
            self.deadline()
            if not self.decide():
                break
            conflict = self.propagate()
        top = len(lims)
        bad = top - (conflict is not None)  # the last settled level
        if bad == good:
            return conflict
        ends = [*lims, len(trail)]  # the trail's length at each level
        shown = self.show_prefix(ends[top], ends[bad])
        self.deadline()
        if self.over_holds():
            self.show_prefix(shown, ends[top])
            return conflict
        # Over holds at level ``good`` and fails at ``bad``.
        probe = bad
        while bad - good > 1:
            probe = (good + bad) // 2
            self.deadline()
            shown = self.show_prefix(shown, ends[probe])
            if self.over_holds():
                good = probe
            else:
                bad = probe
        self.show_prefix(shown, ends[bad])
        if bad < top:
            self.stats.decisions -= top - bad
            self.stats.propagations -= len(trail) - ends[bad] - (top - bad)
            self.backjump(bad)
        if probe == bad:
            return self.theory_conflict()
        # The last probe held, one level below: evaluate this level again.
        self.deadline()
        return self.run_theory()

    def theory_conflict(self) -> tuple[int, ...]:
        """The conflict clause of the over evaluation that just failed on
        the view, which shows the trail.  The clause negates the trail, in
        cell order; when minimizing, it negates only the cells that the
        failing evaluation read (:meth:`~atlsat.approx.Program.explain`)
        and the requirements leave free, is confirmed by one recheck, and is
        then reduced greedily.  Its rechecks evaluate the sub-program that
        ``explain`` returns with those cells, and their reuses are added to
        ``stats.reused``.  A justified clause that the recheck does not
        confirm raises ``AssertionError``."""
        if not self.config.minimize_conflicts:
            return tuple(sorted([-lit for lit in self.trail], key=abs))
        cells, self.rechecked = self.program.explain(self.view)
        value = self.value
        # Every justified cell is assigned.  A forced one is a level-0 fact
        # that the probe always shows and analyze would drop, so it is left out.
        forced = self.req.cells
        clause = tuple(-(v + 1) if value[v] else (v + 1) for v in cells if forced[v] is None)
        if not self.recheck(clause):
            raise AssertionError("the justified clause is not a theory conflict")
        clause = minimize_conflict(clause, self.recheck)
        self.stats.reused += self.rechecked.reused
        return clause

    def accepts(self) -> bool:
        """Whether the under approximation holds at the initial state, so
        every completion of the assignment satisfies the formula.  ``run``
        asks it only once every cone cell is set, where under and over
        coincide at the initial state; before that an under evaluation
        almost always fails, and costs more than an over one."""
        return bool(sapp(self.view, self.program, Mode.UNDER) >> self.shape.initial_state & 1)

    def recheck(self, candidate: tuple[int, ...]) -> bool:
        """Oracle for clause minimization: does the conflict survive when only
        the requirements and the cells these clause literals negate stay
        assigned?  It asks ``rechecked``, whose OVER contains the whole
        program's, so a yes is a theory conflict; a no may miss one that an
        unjustified step would have shown.  A candidate names no forced
        cell, so a cell whose literal leaves it is freed.  The deadline runs
        first, so a time limit holds inside a minimization.  A candidate
        that empties a protocol row raises ``ValueError``.  The probe is left
        showing the candidate."""
        self.deadline()
        self.stats.rechecks += 1
        probe = self.probe
        shown, new = self.shown, set(candidate)
        self.shown = new
        for lit in shown - new:
            probe.put(abs(lit) - 1, None)
        for lit in new - shown:
            probe.put(abs(lit) - 1, 0 if lit > 0 else 1)
        return not sapp(probe, self.rechecked, Mode.OVER) >> self.shape.initial_state & 1

    # -- decisions

    def decide(self) -> bool:
        """Open a decision level and assign the free cone cell of highest
        activity, the lowest-index one among equals, 1 for a protocol cell
        and 0 for a valuation cell; False when no cone cell is free."""
        if len(self.trail) == len(self.program.cone):
            return False
        score = self.score
        v = score.index(max(score))
        self.trail_lim.append(len(self.trail))
        self.stats.decisions += 1
        self.assign((v + 1) if v < self.shape.vb_offset else -(v + 1), None)
        return True

    # -- the witness on acceptance

    def witness(self) -> Model:
        """Complete the assignment to a model and check it exactly.  A free
        cell takes its forced value if the requirements have one, else 0,
        except that a protocol row left all 0 gets its first cell that
        neither the search nor the requirements set to 1.  A model that
        breaks the requirements or fails the formula raises
        ``AssertionError``."""
        cells = [f if b is None else b for b, f in zip(self.value, self.req.cells)]
        shape = self.shape
        for off, n in zip(shape.tb_offsets, shape.locals_per_agent):
            for row in range(off, off + n * n, n):
                if not any(cells[row : row + n]):
                    cells[cells.index(None, row, row + n)] = 1
        model = decode_model(Assignment(shape, tuple([b or 0 for b in cells])))
        # Exact checking of a program does not use its reuse cache.
        if not is_compatible(model, self.req.induced_partial_model()):
            raise AssertionError("witness violates the requirements")
        if not check_validity(model, self.program):
            raise AssertionError("witness fails exact model checking")
        return model


def solve_satisfiability(
    f: Formula, req: Requirements, config: SolverConfig | None = None
) -> SolverResult:
    """Decide whether some model of the required shape satisfies the formula
    at the initial state; on success the witness is verified exactly before
    being returned.  A formula naming an agent or proposition the shape
    lacks raises :class:`BoundsError`."""
    return _Search(f, req, config or SolverConfig()).run()
