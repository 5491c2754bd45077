import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atlsat.formula import (
    MAX_NESTING,
    And,
    Coalition,
    Eventually,
    FalseConst,
    FormulaSyntaxError,
    GenParams,
    Globally,
    Implies,
    Next,
    Not,
    Or,
    Prop,
    TrueConst,
    Until,
    connective_count,
    format_formula,
    generate_random_formula,
    generate_with_counts,
    is_core,
    max_agent_index,
    max_prop_index,
    normalize,
    parse_formula,
    strategic_depth,
    validate_within,
)
from atlsat.mas import ModelShape
from atlsat.solver import Requirements, solve_satisfiability


def core_taut():
    return Not(And(Prop(0), Not(Prop(0))))


class TestCoalition:
    def test_sorted_deduplicated(self):
        assert Coalition([2, 0, 2, 1]).members == (0, 1, 2)

    def test_empty_allowed(self):
        assert len(Coalition([])) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Coalition([-1])


class TestParse:
    def test_atomic(self):
        assert parse_formula("p0") == Prop(0)

    def test_eventually_sugar_desugars_to_until(self):
        f = normalize(parse_formula("<<1,2>> F (p0 & !p1 & !p2)"))
        assert f == Until(
            Coalition([1, 2]),
            core_taut(),
            And(Prop(0), And(Not(Prop(1)), Not(Prop(2)))),
        )

    def test_disjunction_desugars_by_de_morgan(self):
        f = normalize(parse_formula("<<0>> X (!p0 | <<1>> G !p1)"))
        assert f == Next(
            Coalition([0]),
            Not(And(Prop(0), Not(Globally(Coalition([1]), Not(Prop(1)))))),
        )

    def test_until_requires_parentheses(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("<<0>> p0 U p1")

    def test_empty_coalition(self):
        f = parse_formula("<<>> X p0")
        assert f == Next(Coalition([]), Prop(0))

    def test_syntax_error_carries_position(self):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse_formula("p0 &\n& p1")
        assert exc.value.line == 2
        assert exc.value.column == 1

    def test_unknown_identifier(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("q0")

    def test_implication_and_constants(self):
        f = parse_formula("true -> false")
        assert f == Implies(TrueConst(), FalseConst())

    def test_nesting_limit(self):
        # At the limit the formula parses and solves; one level past it the
        # parser stops at the token opening the extra level.
        ok = "!" * (MAX_NESTING - 2) + "(p0 & p0)"
        f = parse_formula(ok)
        req = Requirements(ModelShape([2], None, 1))
        assert solve_satisfiability(f, req).satisfiable == (MAX_NESTING % 2 == 0)
        too_deep = "!" * (MAX_NESTING - 1) + "(p0 & p0)"
        with pytest.raises(FormulaSyntaxError) as exc:
            parse_formula(too_deep)
        assert exc.value.column == too_deep.index("&") + 1
        with pytest.raises(FormulaSyntaxError):
            parse_formula("(" * (MAX_NESTING + 1) + "p0" + ")" * (MAX_NESTING + 1))

    def test_right_associative_conjunction(self):
        assert parse_formula("p0 & p1 & p2") == And(Prop(0), And(Prop(1), Prop(2)))


class TestFormat:
    def test_prop(self):
        assert format_formula(Prop(2)) == "p2"

    def test_negation(self):
        assert format_formula(Not(Prop(0))) == "!p0"

    def test_until_rendering(self):
        f = Until(Coalition([0, 1]), Prop(0), Prop(1))
        assert format_formula(f) == "<<0,1>> (p0 U p1)"

    def test_left_nested_conjunction_keeps_parens(self):
        f = And(And(Prop(0), Prop(1)), Prop(2))
        assert parse_formula(format_formula(f)) == f

    def test_round_trip_bulk(self):
        # Round-trip identity over a large sample of random core formulas.
        from samplers import random_core_formula

        rng = random.Random(7)
        for _ in range(10_000):
            f = random_core_formula(rng, agent_count=3, prop_count=3, depth=rng.randint(0, 3))
            assert parse_formula(format_formula(f)) == f

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32), st.integers(0, 4))
    def test_round_trip_generated(self, seed, depth):
        f = generate_random_formula(GenParams(3, 4, 3, depth, seed))
        assert parse_formula(format_formula(f)) == f


class TestNormalize:
    def test_core_formula_is_fixpoint(self):
        f = Until(Coalition([0]), Not(Not(Prop(0))), And(Prop(1), Prop(0)))
        assert normalize(f) is f

    def test_idempotent(self):
        from samplers import random_core_formula

        rng = random.Random(3)
        for _ in range(500):
            f = generate_random_formula(GenParams(3, 4, 3, rng.randint(0, 3), rng.randrange(10**6)))
            once = normalize(f)
            assert normalize(once) == once

    def test_output_core_and_depth_preserved(self):
        for seed in range(300):
            f = generate_random_formula(GenParams(3, 4, 2, 3, seed))
            g = normalize(f)
            assert is_core(g)
            assert strategic_depth(g) == strategic_depth(f)

    def test_or_de_morgan(self):
        assert normalize(Or(Prop(0), Prop(1))) == Not(And(Not(Prop(0)), Not(Prop(1))))

    def test_true_false_rewrites(self):
        assert normalize(TrueConst()) == core_taut()
        assert normalize(FalseConst()) == And(Prop(0), Not(Prop(0)))

    def test_eventually_rewrite(self):
        f = Eventually(Coalition([1]), Prop(2))
        assert normalize(f) == Until(Coalition([1]), core_taut(), Prop(2))


class TestQueries:
    def test_counts_on_benchmark_prefix(self):
        text = (
            "<<0>> X (!p0 | <<1>> G (!p1 | <<0,1>> F (!p1 | <<0,1>> F (!p0 | "
            "<<2>> F <<0>> X (!p0 | <<1>> G (!p1 | <<0,1>> G (<<0>> F !p0)))))))"
        )
        f = parse_formula(text)
        assert strategic_depth(f) == 9
        assert connective_count(f) == 13

    def test_validate_within(self):
        f = parse_formula("<<2>> X p1")
        validate_within(f, agent_count=3, prop_count=2)
        with pytest.raises(ValueError):
            validate_within(f, agent_count=2, prop_count=2)
        with pytest.raises(ValueError):
            validate_within(f, agent_count=3, prop_count=1)

    def test_index_queries(self):
        f = parse_formula("<<1>> (p0 U <<0,2>> X p3)")
        assert max_prop_index(f) == 3
        assert max_agent_index(f) == 2


class TestGenerator:
    def test_deterministic(self):
        params = GenParams(3, 4, 3, 9, 123)
        assert generate_random_formula(params) == generate_random_formula(params)

    def test_depth_zero_is_propositional(self):
        for seed in range(50):
            f = generate_random_formula(GenParams(2, 3, 2, 0, seed))
            assert strategic_depth(f) == 0

    def test_bounds_hold_in_bulk(self):
        # Depth, atom indices and coalition pool membership over many seeds.
        for seed in range(10_000):
            params = GenParams(3, 4, 2, seed % 6, seed)
            f = generate_random_formula(params)
            assert strategic_depth(f) <= params.max_depth
            assert max_prop_index(f) < params.prop_count
            assert max_agent_index(f) < params.agent_count

    def test_coalition_pool_size(self):
        from atlsat.formula import Globally, Next, Until, iter_subformulas

        for seed in range(200):
            f = generate_random_formula(GenParams(3, 2, 2, 5, seed))
            coalitions = {
                n.coalition.members
                for n in iter_subformulas(f)
                if isinstance(n, (Next, Globally, Eventually, Until))
            }
            assert len(coalitions) <= 2
            assert all(len(c) >= 1 for c in coalitions)

    def test_explicit_pool_respected(self):
        from atlsat.formula import iter_subformulas

        pool = (Coalition([0]), Coalition([1, 2]))
        params = GenParams(3, 2, 2, 6, 5, coalition_pool=pool)
        f = generate_random_formula(params)
        used = {
            n.coalition.members
            for n in iter_subformulas(f)
            if isinstance(n, (Next, Globally, Eventually, Until))
        }
        assert used <= {c.members for c in pool}

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            GenParams(2, 4, 1, 3, 0)  # only 3 nonempty coalitions over 2 agents
        with pytest.raises(ValueError):
            GenParams(0, 1, 1, 3, 0)

    def test_can_hit_benchmark_depth_and_connectives(self):
        f, seed = generate_with_counts(3, 4, 3, depth=9, connectives=13)
        assert strategic_depth(f) == 9
        assert connective_count(f) == 13
        again, seed2 = generate_with_counts(3, 4, 3, depth=9, connectives=13)
        assert again == f and seed2 == seed
