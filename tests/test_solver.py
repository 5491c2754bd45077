import random
import time

import pytest

from atlsat.approx import Mode, PartialModel, check_validity, is_compatible, sapp
from atlsat.formula import (
    And,
    Coalition,
    GenParams,
    Next,
    Not,
    Prop,
    format_formula,
    generate_random_formula,
    normalize,
    parse_formula,
)
from atlsat.mas import Assignment, ModelShape, decode_model, encode_model
from atlsat.solver import (
    BoundsError,
    Clause,
    Requirements,
    SolveTimeout,
    SolverConfig,
    extract_model,
    minimize_conflict,
    solve_satisfiability,
    structural_clauses,
    theory_check,
)
from oracles import enumerate_models, oracle_check_validity
from samplers import random_core_formula, random_model

S22P1 = ModelShape([2, 2], [0, 0], 1)


def empty_assignment(shape):
    return Assignment(shape, (None,) * shape.bit_count)


class TestRequirements:
    def test_out_of_range_constraint(self):
        with pytest.raises(IndexError):
            Requirements(S22P1, cp_constraints=((0, 2, 0, 1),))
        with pytest.raises(IndexError):
            Requirements(S22P1, cv_constraints=((4, 0, 1),))

    def test_contradictory_constraints(self):
        with pytest.raises(ValueError):
            Requirements(S22P1, cp_constraints=((0, 0, 0, 1), (0, 0, 0, 0)))

    def test_row_forced_empty(self):
        with pytest.raises(ValueError):
            Requirements(S22P1, cp_constraints=((0, 0, 0, 0), (0, 0, 1, 0)))

    def test_induced_partial_model(self):
        req = Requirements(S22P1, ((0, 0, 1, 1),), ((3, 0, 0),))
        pm = req.induced_partial_model()
        assert pm.cp[0][0] == (None, 1)
        assert pm.cv[3] == (0,)


class TestStructuralClauses:
    def test_row_clauses_only(self):
        req = Requirements(S22P1)
        clauses = structural_clauses(req)
        assert len(clauses) == 4
        assert all(len(c) == 2 for c in clauses)
        assert all(lit > 0 for c in clauses for lit in c)

    def test_protocol_unit_clause(self):
        req = Requirements(S22P1, cp_constraints=((0, 0, 1, 1),))
        units = [c for c in structural_clauses(req) if len(c) == 1]
        assert units == [Clause((S22P1.tb_bit(0, 0, 1) + 1,))]

    def test_valuation_negative_unit_clause(self):
        req = Requirements(S22P1, cv_constraints=((3, 0, 0),))
        units = [c for c in structural_clauses(req) if len(c) == 1]
        assert units == [Clause((-(S22P1.vb_bit(3, 0) + 1),))]


class TestClause:
    def test_duplicate_variable_rejected(self):
        with pytest.raises(ValueError):
            Clause((1, -1))

    def test_empty_clause_allowed(self):
        assert len(Clause(())) == 0


class TestTheoryCheck:
    def test_contradiction_on_empty_assignment_passes(self):
        # The approximation treats the two occurrences of p0 independently,
        # so it cannot see p0 & !p0 as contradictory while the valuation
        # cell is still open; the refutation happens within a couple of
        # decisions instead (see the solver tests).
        req = Requirements(S22P1)
        out = theory_check(empty_assignment(S22P1), parse_formula("p0 & !p0"), req)
        assert out.verdict == "pass"

    def test_grand_coalition_next_tautology_on_empty_assignment(self):
        # Every completion satisfies <<0,1>>X true, but the under structure
        # gives the coalition no necessary action yet, so acceptance waits
        # for protocol cells to be decided.
        req = Requirements(S22P1)
        out = theory_check(empty_assignment(S22P1), parse_formula("<<0,1>> X true"), req)
        assert out.verdict == "pass"

    def test_total_assignments_match_exact_checking(self):
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

    def test_conflict_clause_negates_assigned_cells(self):
        req = Requirements(S22P1)
        bits = [None] * S22P1.bit_count
        bits[S22P1.vb_bit(0, 0)] = 0  # p0 false at the initial state
        out = theory_check(Assignment(S22P1, tuple(bits)), parse_formula("p0"), req)
        assert out.verdict == "conflict"
        assert out.clause == Clause((S22P1.vb_bit(0, 0) + 1,))

    def test_conflict_stable_under_extension(self):
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
    def test_protocol_only_cause_drops_valuation_literals(self):
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

    def test_single_literal_cause(self):
        req = Requirements(S22P1)
        bits = [None] * S22P1.bit_count
        bits[S22P1.tb_bit(0, 0, 0)] = 1
        bits[S22P1.vb_bit(0, 0)] = 0
        out = theory_check(Assignment(S22P1, tuple(bits)), parse_formula("p0"), req, minimize=True)
        assert out.verdict == "conflict"
        assert out.clause == Clause((S22P1.vb_bit(0, 0) + 1,))

    def test_minimization_off_keeps_clause(self):
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

        out = minimize_conflict(Clause((1, 2, 3)), recheck)
        assert out == Clause((2,))


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

    def test_learned_clauses_never_exclude_models(self):
        # Every clause learned during search is entailed: no compatible
        # satisfying model falsifies it.
        rng = random.Random(7)
        cache = list(enumerate_models(S22P1))
        checked = 0
        while checked < 40:
            f = random_core_formula(rng, 2, 1, rng.randint(1, 3))
            req = Requirements(S22P1)
            result = solve_satisfiability(f, req, SolverConfig(collect_learned=True))
            if not result.stats.learned:
                continue
            checked += 1
            satisfying = [m for m in cache if check_validity(m, f)]
            for m in satisfying:
                bits = encode_model(m).bits
                for clause in result.stats.learned:
                    assert any(
                        (lit > 0) == bool(bits[abs(lit) - 1]) for lit in clause
                    ), f"learned clause {clause} excludes a model of {format_formula(f)}"

    def test_deterministic_across_runs(self):
        rng = random.Random(9)
        for _ in range(20):
            f = random_core_formula(rng, 2, 1, rng.randint(1, 3))
            cfg = SolverConfig(policy="random", seed=5)
            a = solve_satisfiability(f, Requirements(S22P1), cfg)
            b = solve_satisfiability(f, Requirements(S22P1), cfg)
            assert a.satisfiable == b.satisfiable
            assert a.witness == b.witness
            assert (a.stats.decisions, a.stats.conflicts, a.stats.theory_checks) == (
                b.stats.decisions,
                b.stats.conflicts,
                b.stats.theory_checks,
            )

    def test_policies_agree_on_verdict(self):
        rng = random.Random(10)
        for _ in range(15):
            f = random_core_formula(rng, 2, 1, rng.randint(1, 2))
            verdicts = set()
            for policy in ("default", "one-first", "zero-first", "random"):
                r = solve_satisfiability(
                    f, Requirements(S22P1), SolverConfig(policy=policy, seed=3)
                )
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

    def test_timeout_raises(self):
        f = generate_random_formula(GenParams(3, 4, 3, 20, 3))  # a slow refutation
        req = Requirements(ModelShape([2, 2, 2], [0, 0, 0], 3))
        with pytest.raises(SolveTimeout):
            solve_satisfiability(f, req, SolverConfig(time_limit=0.2))


class TestExtractModel:
    def test_delegates_to_decode(self):
        rng = random.Random(12)
        m = random_model(rng, S22P1)
        assert extract_model(encode_model(m)) == decode_model(encode_model(m)) == m

    def test_errors_propagate(self):
        from atlsat.mas import UndefCellError

        with pytest.raises(UndefCellError):
            extract_model(empty_assignment(S22P1))
