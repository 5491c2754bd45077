import random
import time
from collections import Counter, namedtuple
from types import SimpleNamespace

import pytest

import atlsat
from atlsat import approx
from atlsat.approx import (
    Mode,
    PartialModel,
    Program,
    check_validity,
    is_compatible,
    sapp,
    solve_formula,
)
from atlsat.formula import (
    And,
    Coalition,
    GenParams,
    Globally,
    Next,
    Not,
    Prop,
    Until,
    format_formula,
    generate_random_formula,
    normalize,
    parse_formula,
)
from atlsat import mc, solver
from atlsat.mas import Assignment, ModelShape, TransitionStructure, decode_model, encode_model
from atlsat.solver import (
    BoundsError,
    Requirements,
    SolveTimeout,
    SolverConfig,
    _Search,
    minimize_conflict,
    solve_satisfiability,
)
from helpers import (
    RandomOrderSearch,
    cone_of_influence,
    protocol_tables,
    reference_partial_model,
    solve_in_random_order,
    to_assignment,
    valuation_rows,
    visits,
)
from oracles import compatible_completions, enumerate_models, oracle_check_validity
from samplers import random_core_formula, random_model, random_partial_model, random_shape
from test_acceptance import BENCH_FORMULA_1, BENCH_ROWS

S22P1 = ModelShape([2, 2], [0, 0], 1)


def empty_assignment(shape):
    return Assignment(shape, (None,) * shape.bit_count)


def assert_view_shows_value(search):
    """The search's view reads as a partial model of its assignment computed
    from scratch: the same protocol slices, rows and shifts, and proposition
    masks."""
    ref = reference_partial_model(search.shape, search.value)
    assert search.view.slices() == ref.slices()
    assert tuple(map(tuple, search.view.masks)) == ref.masks


def load(search, cells):
    """Assign the search's cells through its own assignment path, at level
    0, so its live view follows."""
    for v, b in enumerate(cells):
        if b is not None:
            search.assign(v + 1 if b else -(v + 1), None)


Outcome = namedtuple("Outcome", "verdict clause")


@pytest.fixture
def theory_check():
    """The search's theory verdict on an assignment merged with the
    requirements, taken by a fresh search on formula ``f``: ``"conflict"``
    with the clause to learn, ``"early_accept"`` or ``"pass"``."""

    def check(asg, f, req, minimize=False):
        search = _Search(normalize(f), req, SolverConfig(minimize_conflicts=minimize))
        cells = list(asg.bits)
        for bit, value in enumerate(req.cells):
            if value is not None:
                assert cells[bit] in (None, value)
                cells[bit] = value
        load(search, cells)
        clause = search.run_theory()
        if clause is not None:
            return Outcome("conflict", clause)
        return Outcome("early_accept" if search.accepts() else "pass", None)

    return check


class TestRequirements:
    def test_out_of_range_constraint(self):
        with pytest.raises(IndexError):
            Requirements(S22P1, cp_constraints=((0, 2, 0, 1),))
        with pytest.raises(IndexError):
            Requirements(S22P1, cv_constraints=((4, 0, 1),))

    @pytest.mark.parametrize(
        "cp, cv",
        [
            (((0, 0, 0, True),), ()),
            (((0, 0, 0, 1.0),), ()),
            (((0, 0, 1),), ()),
            (5, ()),
            ((), ((0, False, 1),)),
            ((), ((0, 0, 1, 1),)),
        ],
    )
    def test_rows_must_be_exact_integers(self, cp, cv):
        # A bool or a float is not a cell value or index, and a short row
        # or a non-list is a ValueError naming its field, never a TypeError.
        field = "cp" if cp else "cv"
        with pytest.raises(ValueError, match=f"requirements field '{field}'"):
            Requirements(S22P1, cp_constraints=cp, cv_constraints=cv)

    def test_rows_read_as_lists_are_kept_as_tuples(self):
        listed = Requirements(S22P1, [[0, 1, 1, 1]], [[3, 0, 0]])
        assert listed == Requirements(S22P1, ((0, 1, 1, 1),), ((3, 0, 0),))
        assert listed.cp_constraints == ((0, 1, 1, 1),) and hash(listed)

    def test_contradictory_constraints(self):
        with pytest.raises(ValueError):
            Requirements(S22P1, cp_constraints=((0, 0, 0, 1), (0, 0, 0, 0)))

    def test_row_forced_empty(self):
        with pytest.raises(ValueError):
            Requirements(S22P1, cp_constraints=((0, 0, 0, 0), (0, 0, 1, 0)))

    def test_induced_partial_model(self):
        req = Requirements(S22P1, ((0, 0, 1, 1),), ((3, 0, 0),))
        pm = req.induced_partial_model()
        assert protocol_tables(pm)[0][0] == (None, 1)
        assert valuation_rows(pm)[3] == (0,)


class TestLevelZeroFacts:
    # Agent 0 has one local state, so its one protocol row is a one-cell row.
    SHAPE = ModelShape([1, 2], [0, 0], 1)

    def search(self, cp=(), cv=(), text="<<0>> X p0"):
        # By default a strategic formula: every cell is in its cone.
        return _Search(normalize(parse_formula(text)), Requirements(self.SHAPE, cp, cv),
                       SolverConfig())

    def test_trail_is_one_cell_rows_then_forced_cells_in_order(self):
        # Valuation rows given first, and the one-cell row's cell forced too:
        # the row clause implies that cell, and the forced cells follow in
        # cell order, each assigned once with no reason.
        shape = self.SHAPE
        search = self.search(cp=((1, 1, 0, 1), (0, 0, 0, 1), (1, 0, 1, 0)),
                             cv=((1, 0, 1), (0, 0, 0)))
        one_cell = shape.tb_bit(0, 0, 0) + 1
        forced = [-(shape.tb_bit(1, 0, 1) + 1), shape.tb_bit(1, 1, 0) + 1,
                  -(shape.vb_bit(0, 0) + 1), shape.vb_bit(1, 0) + 1]
        assert search.trail == [one_cell] + forced and search.trail_lim == []
        assert all(search.level[abs(lit) - 1] == 0 for lit in search.trail)
        assert search.reason[one_cell - 1] == (one_cell,)
        assert all(search.reason[abs(lit) - 1] is None for lit in forced)
        # Only the one-cell row was implied by a clause.
        assert search.stats.propagations == 1

    def test_clauses_are_the_protocol_rows(self):
        shape = self.SHAPE
        rows = [(shape.tb_bit(0, 0, 0) + 1,)] + [
            tuple(shape.tb_bit(1, local, a) + 1 for a in range(2)) for local in range(2)
        ]
        for cp, cv in (((), ()), (((1, 1, 0, 1), (1, 0, 1, 0)), ((1, 0, 0),))):
            assert self.search(cp, cv).clauses == rows

    def test_a_repeated_row_is_one_fact(self):
        search = self.search(cp=((1, 1, 0, 1), (1, 1, 0, 1)))
        assert search.trail == [self.SHAPE.tb_bit(0, 0, 0) + 1, self.SHAPE.tb_bit(1, 1, 0) + 1]

    def test_a_boolean_formula_has_no_row_clauses(self):
        # p0 reads p0 at the initial state alone: no protocol row is in its
        # cone, so no row clause is built, the one-cell row is not implied,
        # and of the forced cells only the cone cell is on the trail.
        shape = self.SHAPE
        search = self.search(cp=((1, 1, 0, 1), (0, 0, 0, 1), (1, 0, 1, 0)),
                             cv=((1, 0, 1), (0, 0, 0)), text="p0")
        assert search.program.cone == {shape.vb_bit(0, 0)}
        assert search.clauses == []
        assert search.trail == [-(shape.vb_bit(0, 0) + 1)]
        assert search.stats.propagations == 0


class TestActivity:
    SHAPE = ModelShape([2, 2, 2], [0, 0, 0], 2)
    # (formula, shape, minimize): without minimization the strategic
    # refutations at [2,2,2] take over 10 s.
    CASES = (("<<0>> X p0 & <<1>> X !p0", SHAPE, True),
             ("<<0>> G p0 & <<>> F !p0", SHAPE, True),
             ("<<0>> G p0 & <<1,2>> F p1", SHAPE, False),
             ("<<0>> G p0 & <<1,2>> F p1", SHAPE, True),
             ("p0 & !p0", S22P1, False))

    class Logged(_Search):
        """The search, logging per decision the conflicts so far, the
        lowest-index free cone cell, the free cone cell of highest activity
        (lowest index among equals, found by a plain scan) and the cell
        decided."""

        def decide(self):
            cone = self.program.cone
            free = [v for v in range(self.n) if self.value[v] is None and v in cone]
            top = max(free, key=lambda v: (self.activity[v], -v), default=None)
            decided = super().decide()
            assert decided == bool(free)
            if decided:
                lit = self.trail[-1]
                assert (lit > 0) == (abs(lit) - 1 < self.shape.vb_offset)
                self.log.append((self.stats.conflicts, free[0], top, abs(lit) - 1))
            return decided

    def logged_runs(self):
        for text, shape, minimize in self.CASES:
            search = self.Logged(normalize(parse_formula(text)), Requirements(shape),
                                 SolverConfig(minimize_conflicts=minimize))
            search.log = []
            search.run()
            yield search.log

    def test_before_any_conflict_the_lowest_index_free_cell_is_decided(self):
        # The lowest-index free cone cell.
        early = [(lowest, cell) for log in self.logged_runs()
                 for conflicts, lowest, _, cell in log if conflicts == 0]
        assert len(early) > 20
        assert all(cell == lowest for lowest, cell in early)

    def test_the_most_active_free_cell_is_decided(self):
        late = [(top, lowest, cell) for log in self.logged_runs()
                for conflicts, lowest, top, cell in log if conflicts > 0]
        assert all(cell == top for top, _, cell in late)
        # Activity, not the index, picked some of them.
        assert sum(cell != lowest for _, lowest, cell in late) > 20

    def search(self):
        # A strategic formula: every protocol cell is in its cone.
        return _Search(normalize(parse_formula("<<0>> X p0")), Requirements(self.SHAPE),
                       SolverConfig())

    def test_ties_go_to_the_lowest_index(self):
        search = self.search()
        search.bump = 1 / 0.95  # as after one conflict
        for v, a in ((3, 2.0), (5, 2.0), (9, 1.0)):
            search.activity[v] = search.score[v] = a
        assert search.decide() and search.trail[-1] == 4
        search.activity[5] = search.score[5] = 3.0
        search.backjump(0)
        assert search.decide() and search.trail[-1] == 6

    def test_no_decision_without_a_free_cell(self):
        # Before and after the first bump.
        for bump in (1.0, 1 / 0.95):
            search = self.search()
            search.bump = bump
            cone = search.program.cone
            load(search, [1 if v in cone else None for v in range(search.n)])
            assert not search.decide() and search.trail_lim == []

    @pytest.mark.parametrize("f, shape, bumped", [
        (Prop(0), S22P1, True),  # after one conflict: the max(score) branch
        (generate_random_formula(GenParams(3, 4, 3, 9, 8)),
         ModelShape([2, 2, 2], [0, 0, 0], 3), False),  # before any bump
    ])
    def test_a_full_trail_without_a_verdict_is_an_error(self, monkeypatch, f, shape, bumped):
        # A theory that never accepts lets the search set every cone cell;
        # decide then finds no free cone cell, which the loop reports as a
        # broken search.
        monkeypatch.setattr(_Search, "accepts", lambda self: False)
        search = _Search(f, Requirements(shape), SolverConfig())
        with pytest.raises(AssertionError, match="total assignment reached without a verdict"):
            search.run()
        assert all(search.value[v] is not None for v in search.program.cone)
        assert len(search.trail) == len(search.program.cone)
        assert (search.bump > 1.0) is bumped
        assert search.stats.conflicts == (1 if bumped else 0)

    def test_score_is_activity_of_free_cells(self):
        # After every assign and backjump of random-order searches, with and
        # without minimization, a free cone cell's score is its activity, and
        # an assigned cell's or one outside the cone is -1.0.
        checks = Counter()

        class Checked(RandomOrderSearch):
            def holds(self):
                cone = self.program.cone
                assert self.score == [a if b is None and v in cone else -1.0
                                      for v, (a, b) in enumerate(zip(self.activity, self.value))]

            def assign(self, lit, reason):
                super().assign(lit, reason)
                self.holds()
                checks["assign"] += 1

            def backjump(self, target_level):
                super().backjump(target_level)
                self.holds()
                checks["backjump"] += 1

        for seed, (text, shape, minimize) in enumerate(self.CASES):
            Checked(normalize(parse_formula(text)), Requirements(shape),
                    SolverConfig(minimize_conflicts=minimize), seed).run()
        assert checks["backjump"] > 100 and checks["assign"] > checks["backjump"]

    def test_rescale_keeps_the_order_of_activities(self):
        # With ``bump`` just under 1e100 the first conflict passes it: every
        # activity and ``bump`` are scaled by 1e-100, once, in order.
        seen = []

        class Rescaled(_Search):
            def rescale(self):
                before = list(self.activity)
                super().rescale()
                seen.append((before, list(self.activity), self.bump))

        search = Rescaled(normalize(parse_formula("<<0>> X p0 & <<1>> X !p0")),
                          Requirements(self.SHAPE), SolverConfig(minimize_conflicts=True))
        search.bump = 0.96e100
        assert not search.run().satisfiable
        assert len(seen) == 1
        before, after, bump = seen[0]
        assert max(before) > 1e99 and 1e-2 < max(after) < 1
        assert after == [a * 1e-100 for a in before]
        assert bump == pytest.approx(0.96 / 0.95)
        cells = range(search.n)
        assert sorted(cells, key=before.__getitem__) == sorted(cells, key=after.__getitem__)


class TestSolverConfig:
    def test_time_limit_must_be_a_positive_number(self):
        # A bool is an int to isinstance; True would read as a 1 s limit.
        for limit in (0, 0.0, -1, float("nan"), "5", True, False):
            with pytest.raises(ValueError, match="time limit must be a number > 0"):
                SolverConfig(time_limit=limit)
        for limit in (None, 0.001, 5, float("inf")):
            assert SolverConfig(time_limit=limit).time_limit == limit


class TestTheoryCheck:
    def test_contradiction_on_empty_assignment_passes(self, theory_check):
        # The approximation treats the two occurrences of p0 independently,
        # so it cannot see p0 & !p0 as contradictory while the valuation
        # cell is still open; the refutation happens within a couple of
        # decisions instead (see the solver tests).
        req = Requirements(S22P1)
        out = theory_check(empty_assignment(S22P1), parse_formula("p0 & !p0"), req)
        assert out.verdict == "pass"

    def test_grand_coalition_next_tautology_on_empty_assignment(self, theory_check):
        # Every completion satisfies <<0,1>>X true, but the under structure
        # gives the coalition no necessary action yet, so acceptance waits
        # for protocol cells to be decided.
        req = Requirements(S22P1)
        out = theory_check(empty_assignment(S22P1), parse_formula("<<0,1>> X true"), req)
        assert out.verdict == "pass"

    def test_total_assignments_match_exact_checking(self, theory_check):
        rng = random.Random(0)
        req = Requirements(S22P1)
        for _ in range(300):
            m = random_model(rng, S22P1)
            f = random_core_formula(rng, 2, 1, rng.randint(0, 2))
            out = theory_check(encode_model(m), f, req)
            if check_validity(m, f):
                assert out.verdict == "early_accept"
            else:
                assert out.verdict == "conflict"

    def test_conflict_clause_negates_assigned_cells(self, theory_check):
        req = Requirements(S22P1)
        bits = [None] * S22P1.bit_count
        bits[S22P1.vb_bit(0, 0)] = 0  # p0 false at the initial state
        out = theory_check(Assignment(S22P1, tuple(bits)), parse_formula("p0"), req)
        assert out.verdict == "conflict"
        assert out.clause == (S22P1.vb_bit(0, 0) + 1,)

    def test_conflict_stable_under_extension(self, theory_check):
        # Once the over approximation excludes the initial state, deciding
        # more cells can only keep it excluded.
        rng = random.Random(1)
        req = Requirements(S22P1)
        found = 0
        while found < 200:
            m = random_model(rng, S22P1)
            base = list(encode_model(m).bits)
            for i in rng.sample(range(len(base)), rng.randint(0, 6)):
                base[i] = None
            f = random_core_formula(rng, 2, 1, rng.randint(1, 2))
            try:
                out = theory_check(Assignment(S22P1, tuple(base)), f, req)
            except ValueError:
                continue
            if out.verdict != "conflict":
                continue
            found += 1
            bits = list(base)
            undef = [i for i, b in enumerate(bits) if b is None]
            rng.shuffle(undef)
            for i in undef[: rng.randint(0, len(undef))]:
                bits[i] = rng.randint(0, 1)
            try:
                out2 = theory_check(Assignment(S22P1, tuple(bits)), f, req)
            except ValueError:
                continue  # extension emptied a protocol row
            assert out2.verdict == "conflict"


class TestMinimizeConflict:
    def test_protocol_only_cause_drops_valuation_literals(self, theory_check):
        # Valuation fully forced by requirements: p0 true only at state 3.
        # <<>>X p0 then fails exactly when both agents' first rows are
        # pinned to action 0, so only those two protocol cells survive.
        shape = S22P1
        cv = tuple((s, 0, 1 if s == 3 else 0) for s in range(4))
        req = Requirements(shape, cv_constraints=cv)
        bits = [None] * shape.bit_count
        bits[shape.tb_bit(0, 0, 0)] = 1
        bits[shape.tb_bit(0, 0, 1)] = 0
        bits[shape.tb_bit(1, 0, 0)] = 1
        bits[shape.tb_bit(1, 0, 1)] = 0
        f = parse_formula("<<>> X p0")
        full = theory_check(Assignment(shape, tuple(bits)), f, req)
        assert full.verdict == "conflict"
        minimized = theory_check(Assignment(shape, tuple(bits)), f, req, minimize=True)
        vb_lits = [l for l in minimized.clause if abs(l) - 1 >= shape.vb_offset]
        assert vb_lits == []
        assert 0 < len(minimized.clause) < len(full.clause)

    def test_single_literal_cause(self, theory_check):
        req = Requirements(S22P1)
        bits = [None] * S22P1.bit_count
        bits[S22P1.tb_bit(0, 0, 0)] = 1
        bits[S22P1.vb_bit(0, 0)] = 0
        out = theory_check(Assignment(S22P1, tuple(bits)), parse_formula("p0"), req, minimize=True)
        assert out.verdict == "conflict"
        assert out.clause == (S22P1.vb_bit(0, 0) + 1,)

    def test_an_unconfirmed_justification_raises(self, theory_check, monkeypatch):
        # The justified clause must pass one recheck before greedy sees it.
        monkeypatch.setattr(Program, "explain", lambda self, pm: ([], self))
        bits = [None] * S22P1.bit_count
        bits[S22P1.vb_bit(0, 0)] = 0
        with pytest.raises(AssertionError, match="justified clause"):
            theory_check(Assignment(S22P1, tuple(bits)), parse_formula("p0"), Requirements(S22P1),
                         minimize=True)

    def test_minimization_off_keeps_clause(self, theory_check):
        req = Requirements(S22P1)
        bits = [None] * S22P1.bit_count
        bits[S22P1.tb_bit(0, 0, 0)] = 1
        bits[S22P1.vb_bit(0, 0)] = 0
        out = theory_check(Assignment(S22P1, tuple(bits)), parse_formula("p0"), req)
        assert len(out.clause) == 2

    def test_greedy_subset_property(self):
        # The minimized clause is a subset that still fails the oracle.
        calls = []

        def recheck(lits):
            calls.append(lits)
            return 2 in lits  # literal 2 must stay to keep the conflict

        out = minimize_conflict((1, 2, 3), recheck)
        assert out == (2,)

    def test_cone_filter_keeps_the_greedy_clause(self, theory_check):
        # Random conflicts on the refute-theory formulas: dropping the
        # literals outside the cone of influence first gives the clause
        # greedy minimization gives on the full conflict, with fewer rechecks.
        rng = random.Random(12)
        shape = ModelShape([2, 2, 2], [0, 0, 0], 2)
        req = Requirements(shape)
        texts = ("<<0>> X p0 & <<1>> X !p0", "<<0,1>> X p0 & <<2>> X !p0",
                 "<<0>> G p0 & <<>> F !p0", "p0 & !p0")
        for text in texts:
            f = normalize(parse_formula(text))
            cone = cone_of_influence(f, shape)
            conflicts = dropped = 0
            while conflicts < 40:
                pm = random_partial_model(rng, shape, rng.randint(0, shape.bit_count))
                outcome = theory_check(to_assignment(pm), f, req)
                if outcome.verdict != "conflict":
                    continue
                conflicts += 1
                full = outcome.clause
                inside = tuple(lit for lit in full if abs(lit) - 1 in cone)
                config = SolverConfig(minimize_conflicts=True)
                plain, filtered = _Search(f, req, config), _Search(f, req, config)
                expected = minimize_conflict(full, plain.recheck)
                assert minimize_conflict(inside, filtered.recheck) == expected
                assert plain.stats.rechecks - filtered.stats.rechecks == len(full) - len(inside)
                dropped += len(full) - len(inside)
            assert dropped > 0, text

    def test_recheck_rejects_an_emptied_row(self):
        # Every recheck of a real conflict keeps each protocol row open; a
        # candidate that sets a whole row to 0 has no compatible model.
        search = _Search(normalize(parse_formula("p0")), Requirements(S22P1),
                         SolverConfig(minimize_conflicts=True))
        row = tuple(S22P1.tb_bit(0, 0, a) + 1 for a in range(2))
        with pytest.raises(ValueError):
            search.recheck(row)


class TestLiveView:
    """The search's live view reads as a partial model of its assignment
    after every minimization, whether it returns or raises, and after every
    backjump."""

    def test_view_restored_after_minimization(self):
        # The requirements pin two valuation cells, which every recheck
        # keeps and the restore must leave as assigned.
        rng = random.Random(5)
        shape = ModelShape([2, 2, 2], [0, 0, 0], 2)
        req = Requirements(shape, cv_constraints=((1, 0, 1), (2, 0, 0)))
        config = SolverConfig(minimize_conflicts=True)
        for text in ("<<0>> X p0 & <<1>> X !p0", "<<0>> G p0 & <<>> F !p0"):
            f = normalize(parse_formula(text))
            conflicts = 0
            while conflicts < 20:
                search = _Search(f, req, config)
                pm = random_partial_model(rng, shape, rng.randint(0, shape.bit_count))
                cells = [b if r is None else r for b, r in zip(pm.cells, req.cells)]
                load(search, cells)
                clause = search.run_theory()
                assert_view_shows_value(search)
                if clause is not None and search.stats.rechecks:
                    conflicts += 1

    def _conflict_search(self, text, config):
        # A search whose loaded assignment the formula refutes: protocol
        # cells set, and p0 false at every state.
        shape = S22P1
        search = _Search(normalize(parse_formula(text)), Requirements(shape), config)
        cells = [None] * shape.bit_count
        cells[shape.tb_bit(0, 0, 0)] = 1
        cells[shape.tb_bit(1, 1, 1)] = 0
        for s in range(shape.state_count):
            cells[shape.vb_bit(s, 0)] = 0
        load(search, cells)
        return search

    def test_view_restored_after_an_emptied_row(self, monkeypatch):
        # Agent 1 must allow both actions at local 0, so the justified
        # clause keeps both cells; without the first one, the successors
        # through action 1 still exclude the initial state.
        def minimize(clause, recheck):
            assert recheck(clause[1:])
            recheck(tuple(S22P1.tb_bit(0, 1, a) + 1 for a in range(2)))

        monkeypatch.setattr(solver, "minimize_conflict", minimize)
        search = self._conflict_search("<<0>> X p0", SolverConfig(minimize_conflicts=True))
        cells = [None] * S22P1.bit_count
        for a in range(2):
            cells[S22P1.tb_bit(1, 0, a)] = 1
        load(search, cells)
        with pytest.raises(ValueError, match="row determined empty"):
            search.run_theory()
        assert_view_shows_value(search)

    def test_view_restored_after_a_timeout(self, monkeypatch):
        # Construction reads the clock once; the first recheck runs in time
        # and moves the view; the second finds the limit passed before it
        # counts itself.
        ticks = iter([0.0, 0.0])
        monkeypatch.setattr(solver, "_clock", lambda: next(ticks, 5.0))
        search = self._conflict_search(
            "<<0,1>> X p0", SolverConfig(minimize_conflicts=True, time_limit=1.0))
        with pytest.raises(SolveTimeout):
            search.run_theory()
        assert search.stats.rechecks == 1
        assert_view_shows_value(search)

    def test_view_follows_backjumps_and_theory_calls(self, monkeypatch):
        calls = {"backjump": 0, "run_theory": 0}

        def follow(name):
            original = getattr(_Search, name)

            def wrapper(self, *args):
                out = original(self, *args)
                assert_view_shows_value(self)
                calls[name] += 1
                return out

            monkeypatch.setattr(_Search, name, wrapper)

        follow("backjump")
        follow("run_theory")
        for text, locs, p, minimize in (
            ("<<0>> G p0 & <<>> F !p0", [3, 2], 1, True),
            ("<<0>> X p0 & <<1>> X !p0", [2, 2, 2], 1, True),
            ("p0 & !p0", [3, 2], 2, False),
        ):
            req = Requirements(ModelShape(locs, None, p))
            r = solve_satisfiability(parse_formula(text), req,
                                     SolverConfig(minimize_conflicts=minimize))
            assert not r.satisfiable
        assert calls["backjump"] > 0 and calls["run_theory"] > 0


class TestProbe:
    """Minimization rechecks evaluate on the search's probe, which carries
    its cells from one recheck, and one minimization, to the next."""

    def test_probe_shows_each_candidate(self, monkeypatch):
        # After every recheck the probe holds the requirements with the
        # candidate's cells set, and reads like a partial model of those
        # cells computed from scratch; the view shows the assignment
        # throughout.  The requirements pin cells that no candidate names.
        original = solver.minimize_conflict
        minimizations: dict[_Search, int] = {}
        rechecks = 0

        def minimize(clause, recheck):
            search = recheck.__self__
            required = list(search.req.cells)

            def checked(candidate):
                nonlocal rechecks
                assert all(required[abs(lit) - 1] is None for lit in candidate)
                assert_view_shows_value(search)
                out = recheck(candidate)
                cells = list(required)
                for lit in candidate:
                    cells[abs(lit) - 1] = 0 if lit > 0 else 1
                assert search.probe.cells == cells
                ref = reference_partial_model(search.shape, cells)
                assert search.probe.slices() == ref.slices()
                assert tuple(map(tuple, search.probe.masks)) == ref.masks
                assert_view_shows_value(search)
                rechecks += 1
                return out

            minimizations[search] = minimizations.get(search, 0) + 1
            out = original(clause, checked)
            assert_view_shows_value(search)
            return out

        monkeypatch.setattr(solver, "minimize_conflict", minimize)
        config = SolverConfig(minimize_conflicts=True)
        for text, locs, p, cv in (
            ("<<0>> X p0 & <<1>> X !p0", [2, 2, 2], 2, ((1, 1, 1), (2, 0, 0))),
            ("<<0,1>> X p0 & <<2>> X !p0", [2, 2, 2], 1, ()),
            ("<<0>> G p0 & <<>> F !p0", [3, 2], 1, ((3, 0, 1),)),
        ):
            req = Requirements(ModelShape(locs, None, p), cv_constraints=cv)
            r = solve_satisfiability(parse_formula(text), req, config)
            assert not r.satisfiable
        assert len(minimizations) == 3 and min(minimizations.values()) >= 2
        assert rechecks > 0


class ConeKept(_Search):
    """The search, asserting that no cell outside the cone enters the trail,
    at any level, which the exhaustion test of ``decide`` rests on, and
    counting per search the cells it leaves free on acceptance."""

    left_free = 0

    def assign(self, lit, reason):
        v = abs(lit) - 1
        assert v in self.program.cone, f"cell {v} outside the cone assigned"
        super().assign(lit, reason)

    def witness(self):
        self.left_free = self.value.count(None)
        return super().witness()


class RandomConeKept(ConeKept, RandomOrderSearch):
    """:class:`ConeKept` in the random decision order."""


class TestCone:
    """Assignments over the cone only (``Program.cone``): verdicts, witnesses
    and the invariant behind the exhaustion test."""

    # Formulas that name only some of the declared propositions, Boolean
    # ones, and shallow atoms beside strategic steps.
    TEXTS = ("p0", "!p0", "p0 & !p0", "p1", "!p1 & p0", "!(p1 & !p0)", "p1 & <<0>> X p0",
             "!p1 & <<>> G p0", "<<0>> X p1", "p0 & <<>> F !p0", "<<0>> (p0 U p1) & !p1",
             "!(p0 & <<0>> G !p0)")
    SHAPES = (ModelShape([2], [0], 2), ModelShape([2, 1], [1, 0], 2), S22P1)

    def test_verdicts_match_enumeration(self):
        # Random cp/cv rows force cells inside and outside the cone.  The
        # verdict in the activity order and in a random order over the cone,
        # with and without minimization, equals exact checking of every
        # compatible model, and each witness keeps the requirements and
        # satisfies the formula under the oracle.
        rng = random.Random(26)
        models = {shape: list(enumerate_models(shape)) for shape in self.SHAPES}
        satisfying = {}
        counts = Counter()
        while counts["solves"] < 400:
            shape = rng.choice(self.SHAPES)
            if rng.random() < 0.5:
                text = rng.choice(self.TEXTS)
                if shape.prop_count < 2:
                    text = text.replace("p1", "p0")
                f = normalize(parse_formula(text))
            else:
                f = random_core_formula(rng, shape.agent_count, rng.randint(1, shape.prop_count),
                                        rng.randint(0, 2))
            cp = {(a, rng.randrange(n), rng.randrange(n)): rng.randint(0, 1)
                  for a, n in enumerate(shape.locals_per_agent) for _ in range(rng.randint(0, 2))}
            cv = {(rng.randrange(shape.state_count), rng.randrange(shape.prop_count)):
                  rng.randint(0, 1) for _ in range(rng.randint(0, 3))}
            try:
                req = Requirements(shape, [(*at, b) for at, b in cp.items()],
                                   [(*at, b) for at, b in cv.items()])
            except ValueError:
                continue  # a row forced empty
            key = (shape, f)
            if key not in satisfying:
                satisfying[key] = [m for m in models[shape] if check_validity(m, f)]
            pm = req.induced_partial_model()
            exists = any(is_compatible(m, pm) for m in satisfying[key])
            cone = Program(f, shape).cone
            forced = {v for v, b in enumerate(req.cells) if b is not None}
            counts["forced inside"] += bool(forced & cone)
            counts["forced outside"] += bool(forced - cone)
            # A protocol row outside the cone that the requirements leave
            # one free cell: the witness, not the search, sets that cell.
            counts["one-free row outside"] += any(
                row not in cone and req.cells[row : row + n].count(None) == 1
                for off, n in zip(shape.tb_offsets, shape.locals_per_agent)
                for row in range(off, off + n * n, n))
            seed = counts["solves"]
            for minimize in (False, True):
                config = SolverConfig(minimize_conflicts=minimize)
                for search in (ConeKept(f, req, config), RandomConeKept(f, req, config, seed)):
                    r = search.run()
                    assert r.satisfiable == exists, (format_formula(f), req)
                    assert r.stats.cone_cells == len(cone)
                    if r.satisfiable:
                        assert is_compatible(r.witness, pm)
                        assert oracle_check_validity(r.witness, f)
                        counts["left free"] += search.left_free > 0
            counts["solves"] += 1
            counts[exists] += 1
        assert counts[True] > 100 and counts[False] > 50, counts
        assert counts["forced inside"] > 100 and counts["forced outside"] > 100, counts
        # Acceptance with cells still free, and rows outside the cone that
        # the requirements leave one free cell.
        assert counts["left free"] > 100 and counts["one-free row outside"] > 50, counts

    def test_a_row_left_one_free_cell_outside_the_cone(self):
        # !p0 reads p0 at the initial state alone.  The forced 0-cell leaves
        # agent 1's row at local 1 one free cell.  The search assigns neither
        # it nor the forced cells, which all lie outside the cone; it decides
        # the one cone cell, and the witness sets the row's free cell to 1
        # and keeps the forced cells.
        shape = S22P1
        req = Requirements(shape, cp_constraints=((1, 1, 1, 0),), cv_constraints=((2, 0, 1),))
        search = ConeKept(normalize(parse_formula("!p0")), req, SolverConfig())
        assert search.program.cone == {shape.vb_bit(0, 0)}
        r = search.run()
        assert r.satisfiable and r.stats.decisions == 1
        assert search.trail == [-(shape.vb_bit(0, 0) + 1)]
        bits = encode_model(r.witness).bits
        assert bits[shape.tb_bit(1, 1, 0)] == 1 and bits[shape.tb_bit(1, 1, 1)] == 0
        assert bits[shape.vb_bit(2, 0)] == 1 and bits[shape.vb_bit(0, 0)] == 0

    def test_the_witness_keeps_forced_cells_outside_the_cone(self):
        # p0 reads one cell.  Agent 0's row at local 1 is forced to hold
        # action 1 and agent 1's row at local 0 is forced down to its middle
        # cell; p0 is forced true at state 1.  None of these cells is in the
        # cone, so the trail holds p0 at the initial state alone, and the
        # witness keeps each forced cell, sets the one free cell of agent 1's
        # row, and completes every other row with its first cell.
        shape = ModelShape([2, 3], [0, 0], 1)
        req = Requirements(shape, cp_constraints=((0, 1, 1, 1), (1, 0, 0, 0), (1, 0, 2, 0)),
                           cv_constraints=((1, 0, 1),))
        search = ConeKept(normalize(parse_formula("p0")), req, SolverConfig())
        r = search.run()
        assert r.satisfiable and search.trail == [shape.vb_bit(0, 0) + 1]
        bits = encode_model(r.witness).bits
        assert [bits[shape.tb_bit(0, 1, a)] for a in range(2)] == [0, 1]
        assert [bits[shape.tb_bit(1, 0, a)] for a in range(3)] == [0, 1, 0]
        assert [bits[shape.tb_bit(0, 0, a)] for a in range(2)] == [1, 0]
        assert bits[shape.vb_bit(1, 0)] == 1


class TestJustification:
    """``Program.explain``: the cells it keeps, and when it may be called."""

    def test_justified_cells_keep_the_conflict(self):
        """On the OVER conflicts of random core formulas over random partial
        models, loaded into a search with random valuation requirements, the
        cells kept are assigned and in the program's cone, and with the
        requirements alone they still exclude the initial state: by the
        evaluator, and by the oracle over every compatible completion on
        shapes of up to 4 states where at most 6 cells stay free."""
        rng = random.Random(20)
        reached = Counter()
        conflicts = oracle_checked = 0
        while conflicts < 1000:
            shape = random_shape(rng, max_states=8)
            if shape.prop_count == 0:
                continue
            f = random_core_formula(rng, shape.agent_count, shape.prop_count, rng.randint(1, 3))
            cv = {(rng.randrange(shape.state_count), rng.randrange(shape.prop_count)):
                  rng.randint(0, 1) for _ in range(rng.randint(0, 2))}
            req = Requirements(shape, cv_constraints=[(*at, b) for at, b in cv.items()])
            search = _Search(f, req, SolverConfig(minimize_conflicts=True))
            pm = random_partial_model(rng, shape, rng.randint(0, shape.bit_count))
            load(search, [b if r is None else r for b, r in zip(pm.cells, req.cells)])
            program = search.program
            if sapp(search.view, program, Mode.OVER) >> shape.initial_state & 1:
                continue
            conflicts += 1
            cells, sub = program.explain(search.view)
            assert cells == sorted(set(cells))
            assert all(search.value[c] is not None for c in cells)
            assert set(cells) <= program.cone
            for _, out, *_ in sub.steps[0]:
                node = program.nodes[out >> 1]
                if isinstance(node, (Next, Globally, Until)):
                    reached[type(node).__name__, out & 1] += 1
            kept = set(cells)
            reduced = PartialModel(shape, [
                b if v in kept or r is not None else None
                for v, (b, r) in enumerate(zip(search.value, req.cells))
            ])
            assert not sapp(reduced, f, Mode.OVER) >> shape.initial_state & 1
            # The completions double with each free cell.
            if shape.state_count <= 4 and reduced.cells.count(None) <= 6:
                oracle_checked += 1
                assert not any(oracle_check_validity(m, f) for m in compatible_completions(reduced))
        # Each strategic rule, in OVER (0) and UNDER (1), was reached.
        assert set(reached) == {(op, u) for op in ("Next", "Globally", "Until") for u in (0, 1)}
        assert oracle_checked >= 200

    def test_only_the_last_over_approximation_is_explained(self):
        # Not before any evaluation, nor after an UNDER one or one of
        # another partial model.
        cells = [None] * S22P1.bit_count
        cells[S22P1.vb_bit(0, 0)] = 0
        pm, other = PartialModel(S22P1, cells), PartialModel(S22P1, cells)
        program = Program(Prop(0), S22P1)
        with pytest.raises(ValueError, match="last evaluation"):
            program.explain(pm)
        assert program.approximate(pm, Mode.OVER) == 0b1110
        cells, sub = program.explain(pm)
        assert cells == [S22P1.vb_bit(0, 0)]
        # Nor twice: explain ends the evaluation it explained, until the next
        # OVER approximation.  The same justified positions hand out the
        # same sub-program.
        with pytest.raises(ValueError, match="last evaluation"):
            program.explain(pm)
        assert program.approximate(other, Mode.OVER) == 0b1110
        again, same = program.explain(other)
        assert again == cells and same is sub
        with pytest.raises(ValueError, match="last evaluation"):
            program.explain(other)
        for last, mode in ((pm, Mode.UNDER), (other, Mode.OVER)):
            program.approximate(last, mode)
            with pytest.raises(ValueError, match="last evaluation"):
                program.explain(pm)
        # Nor after an OVER approximation that holds at the initial state.
        holds = PartialModel(S22P1, [None] * S22P1.bit_count)
        assert program.approximate(holds, Mode.OVER) & 1
        with pytest.raises(ValueError, match="holds at the initial state"):
            program.explain(holds)

    def test_rank_walks_call_the_pre_image_through_mc(self, monkeypatch):
        # A wrapper of mc.atl_pre, such as a tracer's, sees the pre-images
        # that explain computes to rank the iterates of an OVER G.
        calls = Counter()
        explaining = []
        atl_pre, explain = mc.atl_pre, Program.explain

        def counted_pre(*args):
            calls["explain" if explaining else "other"] += 1
            return atl_pre(*args)

        def marked_explain(program, pm):
            explaining.append(True)
            try:
                return explain(program, pm)
            finally:
                explaining.pop()

        monkeypatch.setattr(mc, "atl_pre", counted_pre)
        monkeypatch.setattr(Program, "explain", marked_explain)
        r = solve_satisfiability(parse_formula("<<0>> G p0 & <<>> F !p0"),
                                 Requirements(ModelShape([3, 2], None, 1)),
                                 SolverConfig(minimize_conflicts=True))
        assert not r.satisfiable
        assert calls["explain"] > 0 and calls["other"] > 0


REFUTE_THEORY_TEXTS = ("<<0>> X p0 & <<1>> X !p0", "<<0,1>> X p0 & <<2>> X !p0",
                       "<<0>> G p0 & <<>> F !p0")


class TestPrunedRechecks:
    """Minimization rechecks evaluate the sub-program of the value positions
    that ``Program.explain`` justified, which it returns with the cells."""

    def test_pruned_over_contains_the_full_over(self):
        """On random partial models that the formula refutes, the
        sub-program's OVER contains the whole program's on a probe showing
        the justified clause, random candidates drawn from it, or every
        assigned cell, with the two evaluated in a random order on shared
        views and reuse cache.  So a candidate that the sub-program refutes
        is refuted by the whole program too.  Both refute the justified
        clause itself, and the sub-program's UNDER is empty."""
        rng = random.Random(33)
        sweep = " & ".join(format_formula(generate_random_formula(GenParams(3, 4, 3, depth, seed)))
                           for depth, _, seed in BENCH_ROWS[:3])
        cases = [(text, ModelShape([2, 2, 2], [0, 0, 0], 2)) for text in REFUTE_THEORY_TEXTS]
        cases.append((sweep, ModelShape([2, 2, 2], [0, 0, 0], 3)))
        for text, shape in cases:
            f = normalize(parse_formula(text))
            req, initial = Requirements(shape), 1 << shape.initial_state
            counts = Counter()
            while counts["conflicts"] < 40:
                search = _Search(f, req, SolverConfig(minimize_conflicts=True))
                pm = random_partial_model(rng, shape, rng.randint(0, shape.bit_count))
                load(search, pm.cells)
                program = search.program
                if sapp(search.view, program, Mode.OVER) & initial:
                    continue
                counts["conflicts"] += 1
                cells, sub = program.explain(search.view)
                clause = [-(v + 1) if search.value[v] else v + 1 for v in cells]
                counts["pruned"] += len(sub.steps[0]) < len(program.steps[0])
                candidates = [clause] + [rng.sample(clause, rng.randint(0, len(clause)))
                                         for _ in range(6)]
                probe = PartialModel(shape, req.cells)
                for k, candidate in enumerate(candidates + [None]):
                    if candidate is None:
                        cells = search.value
                    else:
                        cells = [None] * shape.bit_count
                        for lit in candidate:
                            cells[abs(lit) - 1] = 0 if lit > 0 else 1
                    probe.load(cells)
                    order = (program, sub) if rng.random() < 0.5 else (sub, program)
                    over = {p: sapp(probe, p, Mode.OVER) for p in order}
                    assert over[program] & ~over[sub] == 0, text
                    assert k or not over[sub] & initial, text
                    assert sapp(probe, sub, Mode.UNDER) == 0
                    counts["strict"] += over[sub] != over[program]
            # Sub-programs drop steps, and their OVER is at times strictly larger.
            assert counts["pruned"] > 0 and counts["strict"] > 0, (text, counts)

    def test_a_recheck_holds_no_step_of_an_unjustified_conjunct(self):
        # With every action enabled, p0 false everywhere refutes the left
        # conjunct alone, and p0 true everywhere the right one alone.  OVER
        # justifies a conjunction by its left conjunct where that fails, else
        # by its right one, so the program each recheck evaluates holds the
        # steps of one conjunct.
        f = normalize(parse_formula("<<0>> X p0 & <<1>> X !p0"))
        over, under = Mode.OVER, Mode.UNDER
        p0, left, right = Prop(0), f.left, f.right
        expected = {
            0: [(p0, over), (left, over), (f, over)],
            1: [(p0, under), (right.child, over), (right, over), (f, over)],
        }
        for value, steps in expected.items():
            search = _Search(f, Requirements(S22P1), SolverConfig(minimize_conflicts=True))
            assert search.rechecked is search.program
            load(search, [value if v >= S22P1.vb_offset else 1 for v in range(S22P1.bit_count)])
            assert search.run_theory() is not None and search.stats.rechecks > 1
            assert len(visits(search.program, over)) == 6
            assert visits(search.rechecked, over) == steps

    def test_reused_counts_the_rechecks_reuses(self, monkeypatch):
        # The solve's reused count adds, per minimization, the reuses of the
        # program its rechecks evaluated to the whole program's.  That is one
        # sub-program per set of justified positions, built once.
        in_rechecks, programs = [], set()
        original = solver.minimize_conflict

        def minimize(clause, recheck):
            out = original(clause, recheck)
            in_rechecks.append(recheck.__self__.rechecked.reused)
            programs.add(recheck.__self__.rechecked)
            return out

        monkeypatch.setattr(solver, "minimize_conflict", minimize)
        req = Requirements(ModelShape([2, 2, 2], [0, 0, 0], 2))
        search = _Search(normalize(parse_formula(REFUTE_THEORY_TEXTS[0])), req,
                         SolverConfig(minimize_conflicts=True))
        r = search.run()
        assert not r.satisfiable and len(in_rechecks) == 35
        assert sum(in_rechecks) > 0 and search.program.reused > 0
        assert r.stats.reused == search.program.reused + sum(in_rechecks)
        assert search.program not in programs
        assert programs == set(search.program._pruned.values()) and len(programs) == 2


class TestSplitViews:
    # Theory calls evaluate on the program's split views; only the exact
    # witness check builds a transition structure, the one Program.exact
    # evaluates on.  The model itself is no structure.
    @pytest.fixture
    def built(self, monkeypatch):
        counts, checking = Counter(), []
        init, witness = TransitionStructure.__init__, _Search.witness

        def counted_init(structure, *args):
            counts["witness" if checking else "elsewhere"] += 1
            init(structure, *args)

        def marked_witness(search):
            checking.append(True)
            try:
                return witness(search)
            finally:
                checking.pop()

        monkeypatch.setattr(TransitionStructure, "__init__", counted_init)
        monkeypatch.setattr(_Search, "witness", marked_witness)
        return counts

    def test_a_strategic_refutation_builds_no_structure(self, built):
        r = solve_satisfiability(parse_formula("<<0>> X p0 & <<1>> X !p0"),
                                 Requirements(ModelShape([2, 2, 2], None, 1)),
                                 SolverConfig(minimize_conflicts=True))
        assert not r.satisfiable and r.stats.theory_checks > 100
        assert built == Counter()

    @pytest.fixture
    def asked(self, monkeypatch):
        # Per exact check, the coalitions whose plans it asked its structure
        # for, and the program's coalitions; and those asked anywhere else.
        asked = SimpleNamespace(checks=[], elsewhere=[])
        inside, exact, choice_masks = [], Program.exact, TransitionStructure.choice_masks

        def recorded_exact(program, m):
            inside.append([])
            try:
                return exact(program, m)
            finally:
                asked.checks.append((inside.pop(), program.coalitions))

        def recorded_choice_masks(structure, coalition):
            (inside[-1] if inside else asked.elsewhere).append(tuple(coalition))
            return choice_masks(structure, coalition)

        monkeypatch.setattr(Program, "exact", recorded_exact)
        monkeypatch.setattr(TransitionStructure, "choice_masks", recorded_choice_masks)
        return asked

    def test_a_solve_builds_only_the_witness_checks_structures(self, built, asked):
        r = solve_satisfiability(parse_formula("<<0>> G p0 & <<1>> X !p1 & <<>> F p1"),
                                 Requirements(ModelShape([2, 2, 2], None, 2)))
        assert r.satisfiable and r.stats.theory_checks > 10
        assert built == Counter(witness=1)
        # Only Program.exact reads a structure's plans, never approximate:
        # once per distinct coalition of the formula.
        assert asked.elsewhere == [] and len(asked.checks) == 1
        for coalitions, of_views in asked.checks:
            assert sorted(coalitions) == sorted(set(of_views)) == [(), (0,), (1,)]


def falsified_by_unit_propagation(clauses, assumed):
    """Whether assigning the literals ``assumed`` and unit-propagating over
    ``clauses``, by rescanning them until nothing changes, falsifies one."""
    value = {abs(lit): lit > 0 for lit in assumed}
    changed = True
    while changed:
        changed = False
        for clause in clauses:
            free = [lit for lit in clause if abs(lit) not in value]
            if any(value.get(abs(lit)) == (lit > 0) for lit in clause):
                continue
            if not free:
                return True
            if len(free) == 1:
                value[abs(free[0])] = free[0] > 0
                changed = True
    return False


class TestAnalyze:
    def test_learned_clauses_assert_and_follow_by_propagation(self, monkeypatch):
        """For each conflict, the learned clause's last literal is its one
        literal at the conflict level; every other literal is false at a
        level from 1 to one below it; the backjump level is the highest of
        those, or 0 for a unit; and the clause is RUP: its negation
        propagates to a falsified clause over the search's clauses, its
        forced cells as unit premises, and the conflict."""
        analyze = _Search.analyze
        counts = {"unit": 0, "longer": 0}

        def checked_analyze(search, conflict):
            result = analyze(search, conflict)
            level, value = search.level, search.value
            conflict_level = max(level[abs(lit) - 1] for lit in conflict)
            assert (result is None) == (conflict_level == 0)
            if result is None:
                return result
            learned, backjump = result
            *rest, last = learned
            assert value[abs(last) - 1] == (last < 0)
            assert level[abs(last) - 1] == conflict_level
            for lit in rest:
                assert value[abs(lit) - 1] == (lit < 0), (learned, lit)
                assert 1 <= level[abs(lit) - 1] < conflict_level, (learned, lit)
            assert backjump == max((level[abs(lit) - 1] for lit in rest), default=0)
            assert len({abs(lit) for lit in learned}) == len(learned)
            facts = [(v + 1 if b else -(v + 1),)
                     for v, b in enumerate(search.req.cells) if b is not None]
            assert falsified_by_unit_propagation(
                search.clauses + facts + [conflict], [-lit for lit in learned])
            counts["longer" if rest else "unit"] += 1
            return result

        monkeypatch.setattr(_Search, "analyze", checked_analyze)
        s222 = ModelShape([2, 2, 2], [0, 0, 0], 2)
        cases = [
            ("p0 & !p0", Requirements(S22P1), False),
            ("<<0>> X p0 & <<1>> X !p0", Requirements(s222), True),
            ("<<0>> G p0 & <<>> F !p0", Requirements(ModelShape([3, 2], None, 1)), True),
            ("<<0>> G p0 & <<1,2>> F p1",
             Requirements(s222, ((0, 0, 1, 0), (1, 1, 0, 1)), ((0, 1, 0), (5, 0, 1))), False),
        ]
        rng = random.Random(3)
        while len(cases) < 20:
            f = random_core_formula(rng, 2, 1, rng.randint(1, 3))
            cases.append((format_formula(f), Requirements(S22P1), len(cases) % 2 == 0))
        verdicts = set()
        for text, req, minimize in cases:
            r = solve_satisfiability(parse_formula(text), req,
                                     SolverConfig(minimize_conflicts=minimize))
            verdicts.add(r.satisfiable)
        assert verdicts == {True, False}
        assert counts["unit"] > 0 and counts["longer"] > 100


class TestSolveSatisfiability:
    def test_trivial_unsat(self):
        for shape in [S22P1, ModelShape([3, 2], [0, 0], 2), ModelShape([2, 2, 2], [0, 0, 0], 2)]:
            r = solve_satisfiability(parse_formula("p0 & !p0"), Requirements(shape))
            assert not r.satisfiable
            assert r.witness is None

    def test_example_conjunction_is_satisfiable(self):
        shape = ModelShape([3, 2], [0, 0], 3)
        f = parse_formula(
            "<<0,1>> F (p0 & !p1 & !p2) & <<0>> F (!p0 & p1 & !p2) & <<0,1>> X (!p0 & !p1 & p2)"
        )
        r = solve_satisfiability(f, Requirements(shape))
        assert r.satisfiable
        assert check_validity(r.witness, normalize(f))
        assert oracle_check_validity(r.witness, normalize(f))

    def test_benchmark_formula_one(self):
        f = parse_formula(
            "<<0>> X (!p0 | <<1>> G (!p1 | <<0,1>> F (!p1 | <<0,1>> F (!p0 | "
            "<<2>> F <<0>> X (!p0 | <<1>> G (!p1 | <<0,1>> G (<<0>> F !p0)))))))"
        )
        r = solve_satisfiability(f, Requirements(ModelShape([2, 2, 2], [0, 0, 0], 3)))
        assert r.satisfiable

    @pytest.mark.parametrize(
        "call",
        [
            lambda: Program(Prop(1), S22P1),
            lambda: sapp(PartialModel(S22P1, [None] * S22P1.bit_count), Prop(1), Mode.OVER),
            lambda: solve_formula(
                decode_model(Assignment(S22P1, (1,) * S22P1.bit_count)),
                Next(Coalition([2]), Prop(0)),
            ),
            lambda: Requirements(S22P1, cp_constraints=((0, 2, 0, 1),)),
            lambda: Requirements(S22P1, cv_constraints=((4, 0, 1),)),
            lambda: solve_satisfiability(parse_formula("<<0,2>> X p0"), Requirements(S22P1)),
        ],
        ids=["program", "sapp", "solve_formula", "requirements-cp", "requirements-cv", "solve"],
    )
    def test_one_bounds_error_type(self, call):
        # An index beyond the shape raises one type, wherever it is found,
        # and callers catching either base class still catch it.
        assert atlsat.BoundsError is solver.BoundsError is approx.BoundsError
        for caught in (BoundsError, IndexError, ValueError):
            with pytest.raises(caught):
                call()

    def test_bounds_error(self):
        with pytest.raises(BoundsError):
            solve_satisfiability(parse_formula("p5"), Requirements(S22P1))
        with pytest.raises(BoundsError):
            solve_satisfiability(parse_formula("<<7>> X p0"), Requirements(S22P1))

    def test_requirements_respected(self):
        req = Requirements(
            S22P1,
            cp_constraints=((0, 0, 0, 0),),
            cv_constraints=((0, 0, 1), (3, 0, 0)),
        )
        r = solve_satisfiability(parse_formula("p0"), Requirements(S22P1))
        assert r.satisfiable
        r = solve_satisfiability(parse_formula("p0"), req)
        assert r.satisfiable
        assert not r.witness.protocols[0][0][0]
        assert r.witness.valuation[0][0]
        assert not r.witness.valuation[3][0]

    def test_immediate_acceptance_completion_repairs_rows(self):
        # With the initial valuation cell forced true, acceptance fires
        # before any protocol cell is decided; the completion must then
        # repair every row deterministically.
        req = Requirements(S22P1, cv_constraints=((0, 0, 1),))
        r = solve_satisfiability(parse_formula("p0"), req)
        assert r.satisfiable
        assert r.stats.decisions == 0
        for table in r.witness.protocols:
            for row in table:
                assert row == (True, False)

    def test_bounded_completeness_against_enumeration(self):
        shapes = [S22P1, ModelShape([2], [0], 2), ModelShape([3], [0], 1)]
        cache = {s: list(enumerate_models(s)) for s in shapes}
        rng = random.Random(42)
        done = 0
        while done < 500:
            shape = rng.choice(shapes)
            cp, cv = [], []
            for _ in range(rng.randint(0, 2)):
                agent = rng.randrange(shape.agent_count)
                n = shape.locals_per_agent[agent]
                cp.append((agent, rng.randrange(n), rng.randrange(n), rng.randint(0, 1)))
            for _ in range(rng.randint(0, 2)):
                cv.append(
                    (rng.randrange(shape.state_count), rng.randrange(shape.prop_count), rng.randint(0, 1))
                )
            try:
                req = Requirements(shape, tuple(cp), tuple(cv))
            except ValueError:
                continue
            f = random_core_formula(rng, shape.agent_count, shape.prop_count, rng.randint(0, 3))
            pm = req.induced_partial_model()
            exists = any(
                is_compatible(m, pm) and check_validity(m, f) for m in cache[shape]
            )
            result = solve_satisfiability(f, req)
            assert result.satisfiable == exists, f"{format_formula(f)} {cp} {cv}"
            if result.satisfiable:
                assert is_compatible(result.witness, pm)
                assert check_validity(result.witness, normalize(f))
            done += 1

    def test_minimized_verdicts_match_enumeration(self):
        # Random formulas and requirements on tiny shapes with minimization
        # on: the verdict in the default decision order and in a random
        # order equals exhaustive enumeration under the oracle semantics.
        shapes = [ModelShape([2], [0], 2), ModelShape([2, 1], [1, 0], 1),
                  ModelShape([3], [0], 1), S22P1]
        models = {s: list(enumerate_models(s)) for s in shapes}
        rng = random.Random(21)
        config = SolverConfig(minimize_conflicts=True)
        verdicts = Counter()
        while sum(verdicts.values()) < 80:
            shape = rng.choice(shapes)
            cp = {(rng.randrange(shape.agent_count), rng.randrange(2), rng.randrange(2)):
                  rng.randint(0, 1) for _ in range(rng.randint(0, 2))}
            cv = {(rng.randrange(shape.state_count), rng.randrange(shape.prop_count)):
                  rng.randint(0, 1) for _ in range(rng.randint(0, 2))}
            try:
                req = Requirements(shape, [(*at, b) for at, b in cp.items()],
                                   [(*at, b) for at, b in cv.items()])
            except ValueError:
                continue  # a cell out of range or a row forced empty
            f = random_core_formula(rng, shape.agent_count, shape.prop_count, rng.randint(1, 3))
            pm = req.induced_partial_model()
            exists = any(is_compatible(m, pm) and oracle_check_validity(m, f)
                         for m in models[shape])
            seed = sum(verdicts.values())
            for r in (solve_satisfiability(f, req, config),
                      solve_in_random_order(f, req, seed, config)):
                assert r.satisfiable == exists, (format_formula(f), req)
            verdicts[exists] += 1
        assert verdicts[True] >= 10 and verdicts[False] >= 10, verdicts

    def test_learned_clauses_never_exclude_models(self, monkeypatch):
        # Every clause learned during search is entailed: no compatible
        # satisfying model falsifies it.
        learned = []
        analyze = _Search.analyze

        def recording_analyze(search, conflict):
            result = analyze(search, conflict)
            if result is not None:
                learned.append(result[0])
            return result

        monkeypatch.setattr(_Search, "analyze", recording_analyze)
        rng = random.Random(7)
        cache = list(enumerate_models(S22P1))
        checked = 0
        while checked < 40:
            f = random_core_formula(rng, 2, 1, rng.randint(1, 3))
            req = Requirements(S22P1)
            learned.clear()
            solve_satisfiability(f, req)
            if not learned:
                continue
            checked += 1
            satisfying = [m for m in cache if check_validity(m, f)]
            for m in satisfying:
                bits = encode_model(m).bits
                for clause in learned:
                    assert any(
                        (lit > 0) == bool(bits[abs(lit) - 1]) for lit in clause
                    ), f"learned clause {clause} excludes a model of {format_formula(f)}"

    def test_deterministic_across_runs(self):
        # A random decision order repeats with its seed.
        rng = random.Random(9)
        for _ in range(20):
            f = random_core_formula(rng, 2, 1, rng.randint(1, 3))
            a = solve_in_random_order(f, Requirements(S22P1), seed=5)
            b = solve_in_random_order(f, Requirements(S22P1), seed=5)
            assert a.satisfiable == b.satisfiable
            assert a.witness == b.witness
            assert (a.stats.decisions, a.stats.conflicts, a.stats.theory_checks) == (
                b.stats.decisions,
                b.stats.conflicts,
                b.stats.theory_checks,
            )

    def test_decision_orders_agree_on_verdict(self):
        # The activity rule and random orders from three seeds.
        rng = random.Random(10)
        for _ in range(15):
            f = random_core_formula(rng, 2, 1, rng.randint(1, 2))
            req = Requirements(S22P1)
            verdicts = set()
            for r in [solve_satisfiability(f, req)] + [
                solve_in_random_order(f, req, seed) for seed in (3, 4, 5)
            ]:
                verdicts.add(r.satisfiable)
                if r.satisfiable:
                    assert check_validity(r.witness, normalize(f))
            assert len(verdicts) == 1

    def test_minimization_preserves_verdicts(self):
        rng = random.Random(11)
        for _ in range(25):
            f = random_core_formula(rng, 2, 1, rng.randint(1, 3))
            plain = solve_satisfiability(f, Requirements(S22P1))
            minimized = solve_satisfiability(
                f, Requirements(S22P1), SolverConfig(minimize_conflicts=True)
            )
            assert plain.satisfiable == minimized.satisfiable

    def test_criterion_6_rows_at_444(self):
        # Formula 1 and the criterion-6 rows at [4,4,4], where the cost of the
        # coalition pre-image decides whether each stays inside the limit.
        # Witnesses are re-checked exactly inside the solver.
        req = Requirements(ModelShape([4, 4, 4], [0, 0, 0], 3))
        formulas = [parse_formula(BENCH_FORMULA_1)] + [
            generate_random_formula(GenParams(3, 4, 3, depth, seed))
            for depth, _, seed in BENCH_ROWS
        ]
        for f in formulas:
            assert solve_satisfiability(f, req, SolverConfig(time_limit=20)).satisfiable

    def test_random_order_decides_sweep_rows_when_minimizing(self):
        # Without minimization each theory conflict clause negates every
        # assigned cell, and the limit runs out on d33s9 in the random order
        # of seed 7; with it each row is decided in well under a second.
        # Witnesses are re-checked exactly inside the solver.
        req = Requirements(ModelShape([2, 2, 2], [0, 0, 0], 3))
        config = SolverConfig(minimize_conflicts=True, time_limit=10)
        for depth, _, seed in [row for row in BENCH_ROWS if row[0] in (13, 23, 33)]:
            f = generate_random_formula(GenParams(3, 4, 3, depth, seed))
            r = solve_in_random_order(f, req, 7, config)
            assert r.satisfiable, (depth, seed)
            assert check_validity(r.witness, normalize(f))

    def test_hard_draws_are_decided(self):
        # Three draws at [2,2,2] that took over 5 s each when every decision
        # took the lowest-index free cell.  The SAT witness is checked
        # exactly here and by the independent oracle.
        req = Requirements(ModelShape([2, 2, 2], [0, 0, 0], 3))
        config = SolverConfig(minimize_conflicts=True, time_limit=10)
        for depth, seed, sat in ((17, 3, False), (25, 3, False), (33, 3, True)):
            f = generate_random_formula(GenParams(3, 4, 3, depth, seed))
            r = solve_satisfiability(f, req, config)
            assert r.satisfiable == sat, (depth, seed)
            if sat:
                assert check_validity(r.witness, normalize(f))
                assert oracle_check_validity(r.witness, normalize(f))

    def test_unsat_ladder_search_is_pinned(self):
        # Minimization off, the [3,2] rung: its cone is p0's cell at the
        # initial state, so one decision and its unit clause refute it.
        req = Requirements(ModelShape([3, 2], [0, 0], 2))
        config = SolverConfig(minimize_conflicts=False)
        r = solve_satisfiability(parse_formula("p0 & !p0"), req, config)
        assert not r.satisfiable
        assert (r.stats.decisions, r.stats.conflicts) == (1, 2)
        assert (r.stats.propagations, r.stats.theory_checks) == (1, 3)
        assert r.stats.cone_cells == 1

    def test_criterion_6_search_is_pinned(self):
        # Formula 1 and the criterion-6 rows at [2,2,2] under the default
        # config: (verdict, decisions, conflicts, theory checks) pin the
        # search that propagation order and the theory verdicts drive, and
        # the reused strategic steps pin the split views' reuse cache.
        req = Requirements(ModelShape([2, 2, 2], [0, 0, 0], 3))
        formulas = [parse_formula(BENCH_FORMULA_1)] + [
            generate_random_formula(GenParams(3, 4, 3, depth, seed))
            for depth, _, seed in BENCH_ROWS
        ]
        runs = [solve_satisfiability(f, req, SolverConfig()) for f in formulas]
        assert [
            (r.satisfiable, r.stats.decisions, r.stats.conflicts, r.stats.theory_checks)
            for r in runs
        ] == [
            (True, 19, 0, 20),
            (True, 25, 0, 26),
            (True, 36, 1, 38),
            (True, 14, 0, 15),
            (True, 28, 0, 29),
            (True, 43, 13, 57),
            (True, 23, 0, 24),
            (True, 27, 0, 28),
            (True, 35, 2, 38),
        ]
        assert [r.stats.reused for r in runs] == [198, 301, 699, 253, 981, 1608, 817, 1136, 1692]

    def test_refute_theory_search_is_pinned(self):
        # The refute-theory formulas at [2,2,2] with 2 props, minimization
        # on: (verdict, decisions, conflicts, theory checks, propagations,
        # rechecks) pin the search that the minimized theory conflicts drive,
        # and the activity they give the cells they learn over; the reused
        # strategic steps pin the reuse cache across view and probe, which the
        # rechecks' sub-programs share.
        req = Requirements(ModelShape([2, 2, 2], [0, 0, 0], 2))
        config = SolverConfig(minimize_conflicts=True)
        texts = ("<<0>> X p0 & <<1>> X !p0", "<<0,1>> X p0 & <<2>> X !p0",
                 "<<0>> G p0 & <<>> F !p0")
        runs = [solve_satisfiability(parse_formula(text), req, config) for text in texts]
        assert [
            (r.satisfiable, r.stats.decisions, r.stats.conflicts, r.stats.theory_checks,
             r.stats.propagations, r.stats.rechecks)
            for r in runs
        ] == [
            (False, 92, 37, 127, 107, 226),
            (False, 117, 71, 181, 202, 417),
            (False, 200, 92, 288, 294, 765),
        ]
        assert [r.stats.reused for r in runs] == [164, 188, 346]

    def test_criterion_6_search_at_2222_is_pinned(self):
        # The sweep's other shape, [2,2,2,2] with 3 props, default config:
        # (verdict, decisions, conflicts, theory checks, propagations).
        req = Requirements(ModelShape([2, 2, 2, 2], [0, 0, 0, 0], 3))
        formulas = [parse_formula(BENCH_FORMULA_1)] + [
            generate_random_formula(GenParams(3, 4, 3, depth, seed))
            for depth, _, seed in BENCH_ROWS
        ]
        runs = [solve_satisfiability(f, req, SolverConfig()) for f in formulas]
        assert [
            (r.satisfiable, r.stats.decisions, r.stats.conflicts, r.stats.theory_checks,
             r.stats.propagations)
            for r in runs
        ] == [
            (True, 31, 0, 32, 0),
            (True, 44, 0, 45, 0),
            (True, 64, 2, 67, 2),
            (True, 21, 0, 22, 0),
            (True, 50, 0, 51, 0),
            (True, 134, 82, 217, 82),
            (True, 39, 0, 40, 0),
            (True, 46, 0, 47, 0),
            (True, 63, 2, 66, 2),
        ]

    def test_refute_bool_search_is_pinned(self):
        # p0 & !p0 with minimization off at the refute-bool shapes, 1 prop:
        # (verdict, decisions, conflicts, theory checks, propagations).  The
        # cone is p0's cell at the initial state: one decision, one learned
        # unit clause, and the conflict at level 0.  No protocol row is in
        # the cone, so [3,1]'s one-cell row is no clause and is not implied.
        config = SolverConfig(minimize_conflicts=False)
        runs = [
            solve_satisfiability(parse_formula("p0 & !p0"),
                                 Requirements(ModelShape(locs, None, 1)), config)
            for locs in ([2, 2], [3, 1], [2, 2, 2])
        ]
        assert [
            (r.satisfiable, r.stats.decisions, r.stats.conflicts, r.stats.theory_checks,
             r.stats.propagations)
            for r in runs
        ] == [
            (False, 1, 2, 3, 1),
            (False, 1, 2, 3, 1),
            (False, 1, 2, 3, 1),
        ]

    def test_boolean_refutation_over_the_whole_cone_is_pinned(self):
        # <<>> G p0 & !p0 at [2,2,2], 1 prop, minimization off: the strategic
        # step puts every cell in the cone, and each theory conflict clause
        # negates every assigned cell, so Boolean conflicts do most of the
        # refuting.  (verdict, decisions, conflicts, theory checks,
        # propagations, cone cells.)
        shape = ModelShape([2, 2, 2], None, 1)
        r = solve_satisfiability(parse_formula("<<>> G p0 & !p0"), Requirements(shape),
                                 SolverConfig(minimize_conflicts=False))
        assert shape.bit_count == 20
        assert (r.satisfiable, r.stats.decisions, r.stats.conflicts, r.stats.theory_checks,
                r.stats.propagations, r.stats.cone_cells) == (False, 1457, 1458, 2915, 1821, 20)

    def test_constrained_search_is_pinned(self):
        # Requirements with a repeated row: their forced cells drive the
        # search from level 0.  (verdict, decisions, conflicts, theory
        # checks, propagations, rechecks).  No justified clause names a
        # forced cell, so greedy spends no recheck dropping one.
        req = Requirements(
            ModelShape([2, 2, 2], [0, 0, 0], 2),
            cp_constraints=((0, 0, 1, 0), (1, 1, 0, 1), (0, 0, 1, 0)),
            cv_constraints=((0, 1, 0), (5, 0, 1), (7, 1, 1)),
        )
        runs = [
            solve_satisfiability(parse_formula(text), req,
                                 SolverConfig(minimize_conflicts=minimize))
            for text, minimize in (
                ("<<0>> G p0 & <<1,2>> F p1", False),
                ("<<0>> G p0 & <<1,2>> F p1", True),
                ("<<1>> (p0 U p1) & <<0>> G !p1", True),
            )
        ]
        assert [
            (r.satisfiable, r.stats.decisions, r.stats.conflicts, r.stats.theory_checks,
             r.stats.propagations, r.stats.rechecks)
            for r in runs
        ] == [
            (True, 16, 5, 22, 6, 0),
            (True, 35, 5, 41, 7, 25),
            (False, 53, 20, 73, 39, 121),
        ]

    def test_propagations_counted_and_repeatable(self):
        req = Requirements(ModelShape([2, 2], [0, 0], 1))
        runs = [solve_satisfiability(parse_formula("p0 & !p0"), req) for _ in range(2)]
        assert runs[0].stats.propagations > 0
        assert runs[0].stats.propagations == runs[1].stats.propagations

    def test_rechecks_counted_and_repeatable(self):
        req = Requirements(ModelShape([2, 2, 2], [0, 0, 0], 2))
        f = parse_formula("<<0>> X p0 & <<1>> X !p0")
        runs = [
            solve_satisfiability(f, req, SolverConfig(minimize_conflicts=True)) for _ in range(2)
        ]
        assert [r.stats.rechecks for r in runs] == [226, 226]
        off = solve_satisfiability(parse_formula("p0 & !p0"), Requirements(S22P1))
        assert off.stats.conflicts > 0 and off.stats.rechecks == 0

    def test_reused_counted_and_repeatable(self):
        # Criterion-6 formulas re-judge fixpoints whose inputs did not move;
        # a formula without strategic operators has nothing to reuse.
        req = Requirements(ModelShape([2, 2, 2], [0, 0, 0], 3))
        for depth, _, seed in BENCH_ROWS[:3]:
            f = generate_random_formula(GenParams(3, 4, 3, depth, seed))
            runs = [solve_satisfiability(f, req) for _ in range(2)]
            assert runs[0].stats.reused > 0
            assert runs[0].stats.reused == runs[1].stats.reused
        off = solve_satisfiability(parse_formula("p0 & !p0"), Requirements(S22P1))
        assert off.stats.theory_checks > 0 and off.stats.reused == 0

    def test_timeout_holds_inside_minimization(self, monkeypatch):
        # The clock passes the deadline during the first recheck of the
        # first minimization: the solve stops before the next recheck.
        now = [0.0]
        monkeypatch.setattr(solver, "_clock", lambda: now[0])
        rechecks = []
        minimize = solver.minimize_conflict

        def late_minimize(clause, recheck):
            def late_recheck(candidate):
                rechecks.append(candidate)
                now[0] = 100.0
                return recheck(candidate)

            return minimize(clause, late_recheck)

        monkeypatch.setattr(solver, "minimize_conflict", late_minimize)
        req = Requirements(ModelShape([2, 2, 2], [0, 0, 0], 2))
        f = parse_formula("<<0>> X p0 & <<1>> X !p0")
        with pytest.raises(SolveTimeout):
            solve_satisfiability(f, req, SolverConfig(minimize_conflicts=True, time_limit=10))
        assert len(rechecks) == 1

    def test_timeout_covers_normalizing_and_compiling(self, monkeypatch):
        # The clock passes the limit while the formula is normalized: the
        # solve stops at its first deadline, before any propagation.
        now = [0.0]
        monkeypatch.setattr(solver, "_clock", lambda: now[0])

        def slow_normalize(f):
            now[0] = 2.0
            return normalize(f)

        def propagate(self):
            raise AssertionError("propagated past the deadline")

        monkeypatch.setattr(solver, "normalize", slow_normalize)
        monkeypatch.setattr(_Search, "propagate", propagate)
        with pytest.raises(SolveTimeout):
            solve_satisfiability(parse_formula("p0"), Requirements(S22P1),
                                 SolverConfig(time_limit=1.0))

    def test_timeout_raises(self):
        f = generate_random_formula(GenParams(3, 4, 3, 20, 3))  # a slow refutation
        req = Requirements(ModelShape([2, 2, 2], [0, 0, 0], 3))
        with pytest.raises(SolveTimeout):
            solve_satisfiability(f, req, SolverConfig(time_limit=0.2))


class TestExtractModel:
    """The search extracts its witness from a total assignment with
    ``decode_model``."""

    def test_delegates_to_decode(self):
        rng = random.Random(12)
        m = random_model(rng, S22P1)
        assert decode_model(encode_model(m)) == m

    def test_errors_propagate(self):
        from atlsat.mas import UndefCellError

        with pytest.raises(UndefCellError):
            decode_model(empty_assignment(S22P1))

    def test_a_witness_that_breaks_the_requirements_raises(self, monkeypatch):
        # The decoded model flips p0 at the initial state, which cv forces.
        forced = S22P1.vb_bit(0, 0)

        def flipped_decode(a):
            bits = list(a.bits)
            bits[forced] ^= 1
            return decode_model(Assignment(a.shape, tuple(bits)))

        monkeypatch.setattr(solver, "decode_model", flipped_decode)
        req = Requirements(S22P1, cv_constraints=((0, 0, 1),))
        with pytest.raises(AssertionError, match="witness violates the requirements"):
            solve_satisfiability(parse_formula("p0"), req)

    def test_a_witness_that_fails_the_formula_raises(self, monkeypatch):
        monkeypatch.setattr(solver, "check_validity", lambda m, f: False)
        with pytest.raises(AssertionError, match="witness fails exact model checking"):
            solve_satisfiability(parse_formula("p0"), Requirements(S22P1))


class TestPropagation:
    SHAPE = ModelShape([2, 2], [0, 0], 2)  # 16 cells

    class Rescan(_Search):
        """The search with the reference propagation: rescan every clause, in
        index order, pass after pass until one changes nothing."""

        def add_clause(self, clause):
            self.clauses.append(tuple(clause))

        def mirror(self, search):
            """Take over the clauses and the assignment of ``search``."""
            self.clauses = list(search.clauses)
            self.view.load(search.value)
            self.level = list(search.level)
            self.reason = list(search.reason)
            self.trail = list(search.trail)
            self.trail_lim = list(search.trail_lim)

        def propagate(self):
            changed = True
            while changed:
                changed = False
                for clause in self.clauses:
                    unassigned = None
                    satisfied = False
                    for lit in clause:
                        x = self.value[abs(lit) - 1]
                        if x is not None and x == (lit > 0):
                            satisfied = True
                            break
                        if x is None:
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

    @staticmethod
    def assert_watches_settled(search):
        """The invariant of a settled propagation: every clause of two or
        more literals watches two non-false literals, or a true one and a
        false one of no lower level; ``watchers[lit]`` holds exactly the
        clauses that watch ``lit``."""
        value, level = search.value, search.level

        def truth(lit):
            x = value[abs(lit) - 1]
            return None if x is None else x == (lit > 0)

        expected = {lit: set() for lit in search.watchers}
        for i, (clause, watched) in enumerate(zip(search.clauses, search.watched)):
            for lit in watched:
                expected[lit].add(i)
            if len(clause) < 2:
                continue
            assert len(watched) == 2 and set(watched) <= set(clause)
            a, b = watched
            if truth(a) is False:
                a, b = b, a
            if truth(b) is False:
                assert truth(a) is True, (clause, watched)
                assert level[abs(b) - 1] >= level[abs(a) - 1], (clause, watched)
        assert search.watchers == expected

    @staticmethod
    def assert_reasons_hold(search):
        """Every implied literal on the trail is in its reason, and the
        reason's other literals are false and earlier on the trail."""
        position = {abs(lit): k for k, lit in enumerate(search.trail)}
        for k, lit in enumerate(search.trail):
            reason = search.reason[abs(lit) - 1]
            if reason is None:
                continue
            assert lit in reason, (lit, reason)
            for other in reason:
                if other != lit:
                    assert search.value[abs(other) - 1] == (other < 0), (lit, reason)
                    assert position[abs(other)] < k, (lit, reason)

    def test_watched_matches_rescan(self):
        """The search starts from random clauses, added at level 0, and goes
        through random decisions, Boolean conflicts and theory-style
        conflicts (the negation of some assigned literals), each resolved by
        analyze, backjump and learn.  Before every propagation a rescan
        takes over its clauses and assignment; the propagation returns a
        conflict exactly when the rescan finds one, the clause it returns is
        falsified, and without a conflict it reaches the rescan's closure.
        Every reason holds, a settled propagation meets its watch invariant,
        and a learned clause implies its last literal as it is added."""
        req = Requirements(self.SHAPE)
        core = normalize(parse_formula("p0"))
        boolean = theory = arrivals = 0
        for seed in range(500):
            rng = random.Random(seed)
            search = _Search(core, req, SolverConfig())
            rescan = self.Rescan(core, req, SolverConfig())
            n = search.n
            doomed = False
            for _ in range(rng.randint(16, 48)):
                length = rng.choice((1, 2, 3, 3, 3, 4, 4, 5, 6, 7, 8))
                cells = rng.sample(range(1, n + 1), length)
                clause = tuple(v if rng.random() < 0.5 else -v for v in cells)
                search.add_clause(clause)
                # A clause false on arrival is a level-0 conflict, which
                # the walk of the trail must find as the rescan does.
                if all(search.value[abs(lit) - 1] == (lit < 0) for lit in clause):
                    doomed = True
                    arrivals += 1
                    break
            for _ in range(200):
                rescan.mirror(search)
                conflict = search.propagate()
                assert (conflict is None) == (rescan.propagate() is None)
                if doomed:
                    assert conflict is not None and search.analyze(conflict) is None
                if conflict is None:
                    assert search.value == rescan.value
                    self.assert_watches_settled(search)
                else:
                    assert all(search.value[abs(lit) - 1] == (lit < 0) for lit in conflict)
                self.assert_reasons_hold(search)
                free = [v for v in range(n) if search.value[v] is None]
                # A total assignment always gets a theory verdict; refute it.
                if conflict is None and (not free or rng.random() < 0.05) and search.trail_lim:
                    above = [l for l in search.trail if search.level[abs(l) - 1]]
                    conflict = tuple(-l for l in rng.sample(above, rng.randint(1, len(above))))
                    theory += 1
                elif conflict is not None:
                    boolean += 1
                if conflict is not None:
                    result = search.analyze(conflict)
                    if result is None:
                        break
                    learned, level = result
                    search.backjump(level)
                    search.add_clause(learned)
                    assert search.trail[-1] == learned[-1]
                    assert search.reason[abs(learned[-1]) - 1] is learned
                    continue
                if not free:
                    break
                v = rng.choice(free) + 1
                search.trail_lim.append(len(search.trail))
                search.assign(v if rng.random() < 0.5 else -v, None)
        assert boolean > 500 and theory > 500  # both kinds of conflict were driven
        assert arrivals > 0

    def test_asserting_clause_implies_on_arrival(self):
        # Two decisions on valuation cells, which no row clause
        # reads, then a conflict on both: the learned clause is asserting
        # after the backjump to level 1, implies its last literal there as it
        # is added, and the walk of the trail that follows implies nothing.
        search = _Search(normalize(parse_formula("p0")), Requirements(self.SHAPE), SolverConfig())
        assert search.propagate() is None
        a, b = search.shape.vb_offset + 1, search.shape.vb_offset + 2
        for lit in (a, -b):
            search.trail_lim.append(len(search.trail))
            search.assign(lit, None)
            assert search.propagate() is None
        learned, level = search.analyze((-a, b))
        assert (learned, level) == ((-a, b), 1)
        search.backjump(level)
        before = search.stats.propagations
        search.add_clause(learned)
        assert search.trail[-1] == b and search.level[b - 1] == 1
        assert search.reason[b - 1] is learned
        assert search.stats.propagations == before + 1
        assert search.propagate() is None and search.stats.propagations == before + 1
