import itertools
import random
import time

import pytest

from atlsat.approx import check_validity, solve_formula
from atlsat.formula import (
    And,
    Coalition,
    Globally,
    Next,
    Not,
    Prop,
    Until,
    normalize,
    parse_formula,
)
from atlsat.mas import (
    Assignment,
    Model,
    ModelShape,
    TransitionStructure,
    decode_model,
    encode_model,
    state_index,
    state_locals,
)
from atlsat.mc import atl_pre
from helpers import solve_op, structure
from oracles import (
    enumerate_models,
    fixpoint_globally,
    fixpoint_until,
    oracle_check_validity,
    oracle_pre,
    oracle_solve,
    strategy_count,
)
from samplers import SMALL_SHAPES, random_core_formula, random_model, random_shape

EXAMPLE_SHAPE = ModelShape([3, 2], [0, 0], 3)
EXAMPLE_PROTOCOLS = (((1, 0, 1), (0, 1, 0), (0, 1, 1)), ((1, 1), (0, 1)))
EXAMPLE_FORMULA = (
    "<<0,1>> F (p0 & !p1 & !p2) & <<0>> F (!p0 & p1 & !p2) & <<0,1>> X (!p0 & !p1 & p2)"
)


class TestAtlPre:
    def test_grand_coalition_on_full_set(self):
        rng = random.Random(0)
        for _ in range(50):
            m = structure(random_model(rng, rng.choice(SMALL_SHAPES)))
            everyone = tuple(range(m.shape.agent_count))
            full = m.shape.full_mask
            assert atl_pre(m.choice_masks(everyone), full, full) == full

    def test_empty_coalition_on_empty_set(self):
        rng = random.Random(1)
        for _ in range(50):
            m = structure(random_model(rng, rng.choice(SMALL_SHAPES)))
            assert atl_pre(m.choice_masks(()), m.shape.full_mask, 0) == 0

    def test_matches_joint_action_enumeration(self):
        # Single-agent coalition over two-agent models, per the contract.
        rng = random.Random(2)
        for _ in range(500):
            shape = rng.choice([s for s in SMALL_SHAPES if s.agent_count == 2])
            m = random_model(rng, shape)
            x = rng.getrandbits(shape.state_count)
            plan = structure(m).choice_masks((0,))
            assert atl_pre(plan, shape.full_mask, x) == oracle_pre(m, (0,), x)

    def test_matches_enumeration_any_coalition(self):
        rng = random.Random(3)
        for _ in range(500):
            shape = random_shape(rng)
            m = random_model(rng, shape)
            coal = tuple(sorted(rng.sample(range(shape.agent_count), rng.randint(0, shape.agent_count))))
            x = rng.getrandbits(shape.state_count)
            plan = structure(m).choice_masks(coal)
            assert atl_pre(plan, shape.full_mask, x) == oracle_pre(m, coal, x)

    def test_matches_enumeration_with_empty_rows(self):
        # Split structures may have empty protocol rows.  Reference: joint
        # actions enumerated here, with the convention that an empty
        # coalition row gives no choice and an empty outsider row constrains
        # nothing.
        rng = random.Random(11)
        seen_empty = {True: 0, False: 0}
        for _ in range(120):
            while True:
                locals_per_agent = [rng.randint(1, 5) for _ in range(rng.randint(1, 4))]
                shape = ModelShape(locals_per_agent)
                if shape.state_count <= 128:
                    break
            density, empty = rng.random(), rng.random() * 0.4
            enabled = [
                [
                    () if rng.random() < empty
                    else tuple(a for a in range(n) if rng.random() < density)
                    for _ in range(n)
                ]
                for n in locals_per_agent
            ]
            st = TransitionStructure(shape, enabled, ())
            for size in range(shape.agent_count + 1):
                coal = tuple(sorted(rng.sample(range(shape.agent_count), size)))
                for i, rows in enumerate(enabled):
                    seen_empty[i in coal] += () in rows
                x = rng.getrandbits(shape.state_count)
                pre = atl_pre(st.choice_masks(coal), shape.full_mask, x)
                assert pre == enumerated_pre(st, coal, x), (enabled, coal, x)
        assert seen_empty[True] and seen_empty[False]


def enumerated_pre(st, coalition, x):
    shape = st.shape
    others = [i for i in range(shape.agent_count) if i not in coalition]
    result = 0
    for s in range(shape.state_count):
        locs = state_locals(shape, s)
        for choice in itertools.product(*(st.enabled[i][locs[i]] for i in coalition)):
            joint = list(locs)
            for i, a in zip(coalition, choice):
                joint[i] = a
            forced = True
            for completion in itertools.product(*(st.enabled[i][locs[i]] for i in others)):
                for i, a in zip(others, completion):
                    joint[i] = a
                forced = forced and bool(x >> state_index(shape, joint) & 1)
            if forced:
                result |= 1 << s
                break
    return result


def find_example_valuation():
    """Find a valuation for the worked example's protocol tables that
    satisfies the three-part conjunction at the initial state.  At most one
    proposition is made true per state, scanned in lexicographic order."""
    f = normalize(parse_formula(EXAMPLE_FORMULA))
    for combo in itertools.product(range(4), repeat=6):
        valuation = tuple(
            tuple(c > 0 and v == c - 1 for v in range(3)) for c in combo
        )
        m = Model(EXAMPLE_SHAPE, EXAMPLE_PROTOCOLS, valuation)
        if check_validity(m, f):
            return m
    raise AssertionError("no valuation satisfies the example formula")


class TestSolveFormula:
    def test_example_model_contains_initial_state(self):
        m = find_example_valuation()
        f = normalize(parse_formula(EXAMPLE_FORMULA))
        # Confirm with the strategy-enumeration semantics, independently of
        # the fixpoint path that found the valuation.
        assert oracle_check_validity(m, f)
        assert solve_formula(m, f) >> m.shape.initial_state & 1

    def test_contradiction_is_empty(self):
        rng = random.Random(4)
        f = And(Prop(0), Not(Prop(0)))
        for _ in range(50):
            shape = random_shape(rng, max_props=2)
            if shape.prop_count == 0:
                continue
            m = random_model(rng, shape)
            assert solve_formula(m, f) == 0

    def test_matches_strategy_enumeration(self):
        # The load-bearing equivalence: fixpoint evaluation against explicit
        # memoryless strategies with outcome-path inspection.
        rng = random.Random(5)
        done = 0
        while done < 1000:
            shape = rng.choice(SMALL_SHAPES + [ModelShape([2, 2, 2], [0, 0, 0], 1)])
            m = random_model(rng, shape)
            f = random_core_formula(rng, shape.agent_count, shape.prop_count, rng.randint(1, 2))
            strategic = [
                n
                for n in _strategic_nodes(f)
            ]
            if sum(strategy_count(m, n.coalition) for n in strategic) > 3000:
                continue
            assert solve_formula(m, f) == oracle_solve(m, f), (
                f"mismatch on {f} over {m.protocols} / {m.valuation}"
            )
            done += 1

    def test_a_model_and_its_structure_have_one_set(self):
        rng = random.Random(14)
        for _ in range(300):
            shape = rng.choice(SMALL_SHAPES)
            m = random_model(rng, shape)
            f = random_core_formula(rng, shape.agent_count, shape.prop_count, rng.randint(0, 3))
            assert solve_formula(m, f) == solve_formula(structure(m), f)

    def test_out_of_range_raises(self):
        m = random_model(random.Random(6), ModelShape([2], [0], 1))
        with pytest.raises(IndexError):
            solve_formula(m, Prop(3))
        with pytest.raises(IndexError):
            solve_formula(m, Next(Coalition([4]), Prop(0)))


def _strategic_nodes(f):
    from atlsat.formula import iter_subformulas

    return [n for n in iter_subformulas(f) if isinstance(n, (Next, Globally, Until))]


class TestSolveOp:
    def test_not_is_complement(self):
        rng = random.Random(7)
        m = random_model(rng, ModelShape([2, 2], [0, 0], 1))
        y = rng.getrandbits(4)
        assert solve_op("not", m, y) == m.shape.full_mask & ~y

    def test_and_is_intersection(self):
        rng = random.Random(8)
        m = random_model(rng, ModelShape([2, 2], [0, 0], 1))
        y1, y2 = rng.getrandbits(4), rng.getrandbits(4)
        assert solve_op("and", m, y1, y2) == y1 & y2

    def test_globally_matches_direct_fixpoint(self):
        rng = random.Random(9)
        for _ in range(300):
            shape = random_shape(rng)
            m = random_model(rng, shape)
            coal = tuple(sorted(rng.sample(range(shape.agent_count), rng.randint(0, shape.agent_count))))
            x = rng.getrandbits(shape.state_count)
            assert solve_op("globally", structure(m), x, coalition=coal) == (
                fixpoint_globally(m, coal, x))

    def test_until_matches_direct_fixpoint(self):
        rng = random.Random(10)
        for _ in range(300):
            shape = random_shape(rng)
            m = random_model(rng, shape)
            coal = tuple(sorted(rng.sample(range(shape.agent_count), rng.randint(0, shape.agent_count))))
            x1, x2 = rng.getrandbits(shape.state_count), rng.getrandbits(shape.state_count)
            assert solve_op("until", structure(m), x1, x2, coalition=coal) == (
                fixpoint_until(m, coal, x1, x2))

    def test_arity_mismatch(self):
        m = random_model(random.Random(11), ModelShape([2], [0], 1))
        with pytest.raises(ValueError):
            solve_op("not", m, 1, 2)
        with pytest.raises(ValueError):
            solve_op("until", m, 1)

    def test_solve_formula_is_solve_op_composition(self):
        def compose(m, f):
            if isinstance(f, Prop):
                return m.prop_masks[f.index]
            if isinstance(f, Not):
                return solve_op("not", m, compose(m, f.child))
            if isinstance(f, And):
                return solve_op("and", m, compose(m, f.left), compose(m, f.right))
            if isinstance(f, Next):
                return solve_op("next", m, compose(m, f.child), coalition=f.coalition.members)
            if isinstance(f, Globally):
                return solve_op("globally", m, compose(m, f.child), coalition=f.coalition.members)
            return solve_op(
                "until", m, compose(m, f.left), compose(m, f.right), coalition=f.coalition.members
            )

        rng = random.Random(12)
        for _ in range(1000):
            shape = rng.choice(SMALL_SHAPES)
            m = random_model(rng, shape)
            f = random_core_formula(rng, shape.agent_count, shape.prop_count, rng.randint(0, 3))
            assert solve_formula(m, f) == compose(structure(m), f)


class TestCheckValidity:
    def test_example_formula_valid(self):
        m = find_example_valuation()
        assert check_validity(m, normalize(parse_formula(EXAMPLE_FORMULA)))

    def test_tautology_and_contradiction(self):
        rng = random.Random(13)
        taut = normalize(parse_formula("true"))
        contra = normalize(parse_formula("p0 & !p0"))
        for _ in range(50):
            shape = random_shape(rng, max_props=2)
            if shape.prop_count == 0:
                continue
            m = random_model(rng, shape)
            assert check_validity(m, taut)
            assert not check_validity(m, contra)


def _flip_bit(m: Model, bit: int, value: int) -> Model:
    bits = list(encode_model(m).bits)
    bits[bit] = value
    return decode_model(Assignment(m.shape, tuple(bits)))


def _strategic_forms(c: Coalition):
    return [
        Next(c, Prop(0)),
        Globally(c, Prop(0)),
        Until(c, Prop(0), Prop(1)),
    ]


class TestMonotonicitySuites:
    """Single-bit flip properties of the satisfaction sets, 1000 trials per
    suite with zero tolerated violations."""

    def test_positive_monotone_in_valuation(self):
        # Flipping a valuation cell on never shrinks the satisfaction set of
        # negation-free forms.
        rng = random.Random(20)
        done = 0
        while done < 1000:
            shape = ModelShape([2, 2], [rng.randint(0, 1), rng.randint(0, 1)], 2)
            m = random_model(rng, shape)
            c = Coalition(sorted(rng.sample(range(2), rng.randint(0, 2))))
            f = rng.choice(
                [Prop(0), And(Prop(0), Prop(1))] + _strategic_forms(c)
            )
            zeros = [
                shape.vb_bit(s, v)
                for s in range(shape.state_count)
                for v in range(shape.prop_count)
                if not m.valuation[s][v]
            ]
            if not zeros:
                continue
            before = solve_formula(m, f)
            after = solve_formula(_flip_bit(m, rng.choice(zeros), 1), f)
            assert before & ~after == 0
            done += 1

    def test_negative_monotone_in_valuation_for_negation(self):
        rng = random.Random(21)
        f = Not(Prop(0))
        done = 0
        while done < 1000:
            shape = ModelShape([2, 2], [0, 0], 1)
            m = random_model(rng, shape)
            ones = [
                shape.vb_bit(s, v)
                for s in range(shape.state_count)
                for v in range(shape.prop_count)
                if m.valuation[s][v]
            ]
            if not ones:
                continue
            before = solve_formula(m, f)
            after = solve_formula(_flip_bit(m, rng.choice(ones), 0), f)
            assert before & ~after == 0
            done += 1

    def test_propositional_forms_ignore_protocols(self):
        rng = random.Random(22)
        done = 0
        while done < 1000:
            shape = ModelShape([2, 2], [0, 0], 2)
            m = random_model(rng, shape)
            f = rng.choice([Prop(0), Not(Prop(0)), And(Prop(0), Prop(1))])
            agent = rng.randrange(2)
            n = shape.locals_per_agent[agent]
            local = rng.randrange(n)
            action = rng.randrange(n)
            bit = shape.tb_bit(agent, local, action)
            current = m.protocols[agent][local][action]
            if current and sum(m.protocols[agent][local]) == 1:
                continue  # the flip would empty the row
            flipped = _flip_bit(m, bit, 0 if current else 1)
            assert solve_formula(m, f) == solve_formula(flipped, f)
            done += 1

    def test_positive_monotone_in_coalition_protocols(self):
        rng = random.Random(23)
        done = 0
        while done < 1000:
            shape = ModelShape([2, 2], [0, 0], 2)
            m = random_model(rng, shape)
            members = sorted(rng.sample(range(2), rng.randint(1, 2)))
            c = Coalition(members)
            f = rng.choice(_strategic_forms(c))
            agent = rng.choice(members)
            n = shape.locals_per_agent[agent]
            zeros = [
                (l, a)
                for l in range(n)
                for a in range(n)
                if not m.protocols[agent][l][a]
            ]
            if not zeros:
                continue
            local, action = rng.choice(zeros)
            flipped = _flip_bit(m, shape.tb_bit(agent, local, action), 1)
            before, after = solve_formula(m, f), solve_formula(flipped, f)
            assert before & ~after == 0
            done += 1

    def test_negative_monotone_in_outsider_protocols(self):
        rng = random.Random(24)
        done = 0
        while done < 1000:
            shape = ModelShape([2, 2], [0, 0], 2)
            m = random_model(rng, shape)
            members = sorted(rng.sample(range(2), rng.randint(0, 1)))
            c = Coalition(members)
            outsiders = [i for i in range(2) if i not in members]
            f = rng.choice(_strategic_forms(c))
            agent = rng.choice(outsiders)
            n = shape.locals_per_agent[agent]
            ones = [
                (l, a)
                for l in range(n)
                for a in range(n)
                if m.protocols[agent][l][a] and sum(m.protocols[agent][l]) > 1
            ]
            if not ones:
                continue
            local, action = rng.choice(ones)
            flipped = _flip_bit(m, shape.tb_bit(agent, local, action), 0)
            before, after = solve_formula(m, f), solve_formula(flipped, f)
            assert before & ~after == 0
            done += 1


class TestNonMonotonicityWitness:
    def test_search_finds_flips_in_both_directions(self):
        # Validity of <<c>>Xp & <<c>>X!p is neither positively nor
        # negatively monotone: some single-bit 0->1 flip destroys it and
        # some single-bit 0->1 flip creates it.  The search must succeed,
        # and quickly.
        start = time.perf_counter()
        shape = ModelShape([2, 1], [0, 0], 1)
        f = normalize(
            And(Next(Coalition([0]), Prop(0)), Next(Coalition([0]), Not(Prop(0))))
        )
        destroyed = created = None
        for m in enumerate_models(shape):
            base_bits = encode_model(m).bits
            base_valid = check_validity(m, f)
            for bit, value in enumerate(base_bits):
                if value == 1:
                    continue
                bits = list(base_bits)
                bits[bit] = 1
                try:
                    m2 = decode_model(Assignment(shape, tuple(bits)))
                except ValueError:
                    continue
                flipped_valid = check_validity(m2, f)
                if base_valid and not flipped_valid and destroyed is None:
                    destroyed = (m, m2)
                if not base_valid and flipped_valid and created is None:
                    created = (m, m2)
            if destroyed and created:
                break
        elapsed = time.perf_counter() - start
        assert destroyed is not None, "no validity-destroying upward flip found"
        assert created is not None, "no validity-creating upward flip found"
        assert elapsed < 10.0
