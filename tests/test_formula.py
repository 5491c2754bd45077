import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atlsat import formula
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
    iter_subformulas,
    normalize,
    parse_formula,
    strategic_depth,
)
from atlsat.mas import ModelShape
from atlsat.solver import Requirements, solve_satisfiability
from helpers import is_core


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

    @pytest.mark.parametrize("member", [0.5, 1.0, True, False, "1", None])
    def test_members_are_exact_ints(self, member):
        # 0.5 would name no agent, yet <<0.5>> X p0 was solved as <<>> X p0;
        # True acted as agent 1 but printed as <<True>>.
        with pytest.raises(ValueError, match="agent index must be a non-negative int"):
            Coalition([0, member])


class TestProp:
    @pytest.mark.parametrize("index", [-1, -2, 0.0, 1.5, True, False, "0", None])
    def test_index_is_an_exact_non_negative_int(self, index):
        with pytest.raises(ValueError, match="proposition index must be a non-negative int"):
            Prop(index)

    def test_a_negative_index_never_reaches_a_solve(self):
        # Prop(-1) used to reach the search and end in an AssertionError,
        # and with two props p-1 was refuted as if it were p1.
        with pytest.raises(ValueError):
            solve_satisfiability(Prop(-1), Requirements(ModelShape([2], None, 1)))
        with pytest.raises(ValueError):
            And(Prop(-1), Not(Prop(1)))


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

    def test_nesting_limit_counts_left_operands(self):
        # Each level adds "(", "&", "|" and "->" around the innermost atom;
        # the left operands deepen the tree as much as the right ones do.
        level = " & p0 | p0 -> p0)"
        levels = MAX_NESTING // 4
        f = parse_formula("(" * levels + "p0" + level * levels)
        assert f == parse_formula(format_formula(f))
        tower = "(" * 99 + "p0" + level * 99
        with pytest.raises(FormulaSyntaxError) as exc:
            parse_formula(tower)
        # The innermost "|" is the first too deep: the atom in its left
        # operand already sits inside 99 parentheses and the "&".
        assert exc.value.column == tower.index("|") + 1

    def test_right_associative_conjunction(self):
        assert parse_formula("p0 & p1 & p2") == And(Prop(0), And(Prop(1), Prop(2)))


def syntax_error(text: str) -> FormulaSyntaxError:
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_formula(text)
    return exc.value


# Printable ASCII the grammar uses, the three skipped control characters, and
# a few non-ASCII letters and digits the scanner must reject.
SCAN_ALPHABET = list("p0123456789 \t\n\r()!&|,<>-XGFUq_") + [
    "<<", ">>", "->", "true", "false", "a1_b", "\u00b2", "\u0663", "\u00e9", "\u00a0",
]


class TestScanner:
    @pytest.mark.parametrize(
        "text, line, column, message",
        [
            ("p0 &\r\n& p1", 2, 1, "expected formula, got '&'"),
            ("\tp0 &", 1, 6, "expected formula, got end of input"),
            ("p0 &\n\t\t", 2, 3, "expected formula, got end of input"),
            ("\n\n", 3, 1, "expected formula, got end of input"),
            ("!\r\n!\r\n?", 3, 1, "unexpected character '?'"),
            ("p0 # c", 1, 4, "unexpected character '#'"),
            ("p0_1", 1, 1, "unknown identifier 'p0_1'"),
            ("<<0 1>> X p0", 1, 5, "expected '>>', got '1'"),
            ("<<0,>> X p0", 1, 5, "expected agent index, got '>>'"),
            ("<<0>> (p0 X p1)", 1, 11, "expected 'U' inside coalition scope, got 'X'"),
        ],
    )
    def test_ascii_positions(self, text, line, column, message):
        err = syntax_error(text)
        assert (err.line, err.column, str(err)) == (line, column, f"{line}:{column}: {message}")

    def test_punctuation_needs_no_spaces(self):
        assert parse_formula("<<0>>X p0") == Next(Coalition([0]), Prop(0))
        assert parse_formula("p0->p1") == Implies(Prop(0), Prop(1))

    @pytest.mark.parametrize(
        "text, column, char",
        [("p\u00b2", 2, "\u00b2"), ("p\u0663", 2, "\u0663"),
         ("<<\u00b2>> X p0", 3, "\u00b2"), ("p\u00e9", 2, "\u00e9")],
    )
    def test_non_ascii_is_a_syntax_error(self, text, column, char):
        # Unicode digits and letters are not part of an index or identifier.
        err = syntax_error(text)
        assert (err.line, err.column) == (1, column)
        assert str(err) == f"1:{column}: unexpected character {char!r}"

    @pytest.mark.parametrize(
        "text, column",
        [("p" + "9" * 5000, 1), ("<<" + "9" * 5000 + ">> X p0", 3)],
        ids=["proposition", "agent"],
    )
    def test_overlong_index_is_a_syntax_error(self, text, column):
        # More digits than int() converts (4,300 by default): reported at the
        # index token.
        err = syntax_error(text)
        assert (err.line, err.column) == (1, column)
        assert "5000 digits" in str(err)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(SCAN_ALPHABET), max_size=30).map("".join))
    def test_errors_point_into_the_text(self, text):
        try:
            parse_formula(text)
        except FormulaSyntaxError as err:
            lines = text.split("\n")
            assert 1 <= err.line <= len(lines)
            assert 1 <= err.column <= len(lines[err.line - 1]) + 1


class TestFormat:
    def test_prop(self):
        assert format_formula(Prop(2)) == "p2"

    def test_negation(self):
        assert format_formula(Not(Prop(0))) == "!p0"

    def test_until_rendering(self):
        f = Until(Coalition([0, 1]), Prop(0), Prop(1))
        assert format_formula(f) == "<<0,1>> (p0 U p1)"

    def test_constants_round_trip(self):
        f = Or(Not(TrueConst()), Eventually(Coalition([1]), FalseConst()))
        assert format_formula(f) == "!true | <<1>> F false"
        assert parse_formula(format_formula(f)) == f

    def test_str_and_repr(self):
        f = Next(Coalition([0]), And(Prop(0), Not(Prop(1))))
        assert str(f) == "<<0>> X (p0 & !p1)"
        assert repr(f) == "Next('<<0>> X (p0 & !p1)')"

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

    # The parser caps nesting; a chain built through the API is capped only
    # by the recursion, and past it fails as one ValueError.
    @staticmethod
    def chain(conjuncts: int):
        f = Prop(0)
        for _ in range(conjuncts - 1):
            f = And(f, Prop(0))
        return f

    def test_a_500_conjunct_api_chain_solves(self):
        f = self.chain(500)
        assert normalize(f) is f
        assert solve_satisfiability(f, Requirements(ModelShape([2, 2], None, 1))).satisfiable

    def test_a_2000_conjunct_api_chain_is_nested_too_deeply(self):
        f = self.chain(2000)
        with pytest.raises(ValueError, match="nested too deeply"):
            normalize(f)
        with pytest.raises(ValueError, match="nested too deeply"):
            solve_satisfiability(f, Requirements(ModelShape([2, 2], None, 1)))


class TestQueries:
    @pytest.mark.parametrize("walk", [format_formula, normalize, strategic_depth])
    @pytest.mark.parametrize("node", ["p0", None, Coalition([0])])
    def test_a_non_formula_is_refused(self, walk, node):
        for f in (node, Not(node)):
            with pytest.raises(TypeError, match="not a formula"):
                walk(f)

    def test_counts_on_benchmark_prefix(self):
        text = (
            "<<0>> X (!p0 | <<1>> G (!p1 | <<0,1>> F (!p1 | <<0,1>> F (!p0 | "
            "<<2>> F <<0>> X (!p0 | <<1>> G (!p1 | <<0,1>> G (<<0>> F !p0)))))))"
        )
        f = parse_formula(text)
        assert strategic_depth(f) == 9
        assert connective_count(f) == 13


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
            nodes = list(iter_subformulas(f))
            assert all(n.index < params.prop_count for n in nodes if isinstance(n, Prop))
            assert all(
                n.coalition.members[-1] < params.agent_count
                for n in nodes
                if isinstance(n, (Next, Globally, Eventually, Until)) and len(n.coalition)
            )

    def test_every_depth_parses_back(self):
        # Boolean connectives and their parentheses nest too, so past depth
        # 37 an unbudgeted draw could print deeper than MAX_NESTING.
        for depth in range(MAX_NESTING + 1):
            for seed in range(5):
                f = generate_random_formula(GenParams(3, 4, 3, depth, seed))
                g = parse_formula(format_formula(f))
                assert g == f and strategic_depth(g) == depth, (depth, seed)

    def test_shallow_draws_are_pinned(self):
        # The nesting budget never binds on these draws, so they are the
        # draws the generator made before it had one.
        digest = hashlib.sha256()
        for depth in range(34):
            for seed in range(20):
                text = format_formula(generate_random_formula(GenParams(3, 4, 3, depth, seed)))
                digest.update(text.encode() + b"\n")
        assert digest.hexdigest()[:16] == "a9af0b90358e865c"

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

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            GenParams(2, 4, 1, 3, 0)  # only 3 nonempty coalitions over 2 agents
        with pytest.raises(ValueError):
            GenParams(0, 1, 1, 3, 0)
        with pytest.raises(ValueError):
            GenParams(17, 1, 1, 1, 0)  # past MAX_GEN_AGENTS

    def test_can_hit_benchmark_depth_and_connectives(self):
        f, seed = generate_with_counts(3, 4, 3, depth=9, connectives=13)
        assert strategic_depth(f) == 9
        assert connective_count(f) == 13
        again, seed2 = generate_with_counts(3, 4, 3, depth=9, connectives=13)
        assert again == f and seed2 == seed

    def test_any_connective_count_takes_the_first_seed(self):
        # The generator realizes the requested depth, so with connectives=None
        # the scan stops at its first seed.
        for depth, seed in ((0, 0), (5, 3), (17, 41)):
            f, found = generate_with_counts(3, 4, 3, depth, None, base_seed=seed)
            assert found == seed
            assert f == generate_random_formula(GenParams(3, 4, 3, depth, seed))

    def test_the_scan_gives_up_after_count_tries_seeds(self, monkeypatch):
        # 20 seeds stand in for the real 50,000, whose scan takes seconds.
        monkeypatch.setattr(formula, "COUNT_TRIES", 20)
        with pytest.raises(ValueError, match=r"no seed in \[5, 25\) yields depth=9 with 1000"):
            generate_with_counts(3, 4, 3, depth=9, connectives=1000, base_seed=5)

    def test_negative_connectives_are_refused(self):
        with pytest.raises(ValueError, match="connectives must be >= 0"):
            generate_with_counts(3, 4, 3, depth=9, connectives=-1)
