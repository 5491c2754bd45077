import random

import pytest

from atlsat.approx import (
    Mode,
    PartialModel,
    is_compatible,
    sapp,
    solve_formula,
    split_structure,
)
from atlsat.formula import And, Coalition, Next, Not, Prop, iter_subformulas
from atlsat.mas import Assignment, Model, ModelShape, encode_model
from oracles import compatible_completions, enumerate_models
from samplers import (
    TINY_SHAPES,
    random_core_formula,
    random_model,
    random_partial_model,
)


def all_ones_pm(shape):
    cp = tuple(tuple((1,) * n for _ in range(n)) for n in shape.locals_per_agent)
    cv = tuple((1,) * shape.prop_count for _ in range(shape.state_count))
    return PartialModel(shape, cp, cv)


class TestPartialModel:
    def test_rejects_determined_empty_row(self):
        # Minimization's recheck counts this error as a conflict, so the
        # flat-vector path must raise it too.
        shape = ModelShape([2], [0], 0)
        with pytest.raises(ValueError):
            PartialModel(shape, (((0, 0), (1, None)),), ((), ()))
        with pytest.raises(ValueError):
            PartialModel.from_assignment(Assignment(shape, (0, 0, 1, None)))

    def test_assignment_round_trip(self):
        rng = random.Random(0)
        for _ in range(200):
            shape = rng.choice(TINY_SHAPES)
            pm = random_partial_model(rng, shape)
            assert PartialModel.from_assignment(pm.to_assignment()).cp == pm.cp


def all_necessary(pm):
    return split_structure(pm, range(pm.shape.agent_count), Mode.UNDER)


class TestUnderModel:
    def test_fully_determined_ones(self):
        shape = ModelShape([2, 2], [0, 0], 1)
        pm = all_ones_pm(shape)
        under = all_necessary(pm)
        assert under.enabled == tuple(
            tuple(tuple(range(n)) for _ in range(n)) for n in shape.locals_per_agent
        )
        assert under.prop_masks == ((1 << shape.state_count) - 1,)

    def test_single_forced_cell_per_row(self):
        shape = ModelShape([2, 2], [0, 0], 1)
        cp = tuple(
            tuple(tuple(1 if a == local else None for a in range(2)) for local in range(2))
            for _ in range(2)
        )
        cv = tuple((None,) for _ in range(4))
        under = all_necessary(PartialModel(shape, cp, cv))
        assert under.enabled == ((((0,), (1,))) , (((0,), (1,))))
        assert under.prop_masks == (0,)

    def test_under_rows_subset_of_over_rows(self):
        rng = random.Random(1)
        for _ in range(500):
            shape = rng.choice(TINY_SHAPES)
            pm = random_partial_model(rng, shape)
            under = all_necessary(pm)
            for c_members in _some_coalitions(rng, shape.agent_count):
                over = split_structure(pm, c_members, Mode.OVER)
                for i in range(shape.agent_count):
                    for k in range(shape.locals_per_agent[i]):
                        assert set(under.enabled[i][k]) <= set(over.enabled[i][k])


def _some_coalitions(rng, agent_count):
    everyone = tuple(range(agent_count))
    picks = [(), everyone]
    picks.append(tuple(sorted(rng.sample(everyone, rng.randint(0, agent_count)))))
    return picks


class TestOverModel:
    def test_all_undef_grand_coalition_is_universal(self):
        shape = ModelShape([2, 2], [0, 0], 1)
        pm = PartialModel.unconstrained(shape)
        over = split_structure(pm, (0, 1), Mode.OVER)
        assert over.enabled == tuple(
            tuple(tuple(range(n)) for _ in range(n)) for n in shape.locals_per_agent
        )
        assert over.prop_masks == ((1 << shape.state_count) - 1,)

    def test_empty_coalition_uses_necessary_protocols(self):
        rng = random.Random(2)
        for _ in range(200):
            shape = rng.choice(TINY_SHAPES)
            pm = random_partial_model(rng, shape)
            over = split_structure(pm, (), Mode.OVER)
            under = all_necessary(pm)
            assert over.enabled == under.enabled
            # Valuation side stays possible.
            for v in range(shape.prop_count):
                assert under.prop_masks[v] & ~over.prop_masks[v] == 0

    def test_vector_sandwich_on_encodings(self):
        # Over dominates under cellwise on coalition protocol cells and on
        # the valuation cells; outsiders coincide with the necessary rows.
        rng = random.Random(3)
        for _ in range(500):
            shape = rng.choice(TINY_SHAPES)
            pm = random_partial_model(rng, shape)
            coal = tuple(sorted(rng.sample(range(shape.agent_count), rng.randint(0, shape.agent_count))))
            over = split_structure(pm, coal, Mode.OVER)
            under = all_necessary(pm)
            for i in range(shape.agent_count):
                for k in range(shape.locals_per_agent[i]):
                    u_row, o_row = set(under.enabled[i][k]), set(over.enabled[i][k])
                    if i in coal:
                        assert u_row <= o_row
                    else:
                        assert u_row == o_row
            for v in range(shape.prop_count):
                assert under.prop_masks[v] & ~over.prop_masks[v] == 0


class TestCompatibility:
    def test_unconstrained_accepts_everything(self):
        rng = random.Random(4)
        for _ in range(100):
            shape = rng.choice(TINY_SHAPES)
            pm = PartialModel.unconstrained(shape)
            assert is_compatible(random_model(rng, shape), pm)

    def test_determined_zero_cell_rejects(self):
        shape = ModelShape([2], [0], 0)
        m = Model(shape, (((1, 1), (0, 1)),), ((), ()))
        pm = PartialModel(shape, (((1, 0), (None, None)),), ((), ()))
        assert not is_compatible(m, pm)

    def test_shape_mismatch_raises(self):
        m = Model(ModelShape([2], [0], 0), (((1, 1), (1, 1)),), ((), ()))
        with pytest.raises(ValueError):
            is_compatible(m, PartialModel.unconstrained(ModelShape([3], [0], 0)))

    def test_compatible_set_equals_agreeing_encodings(self):
        # Brute force over every model of the shape: compatibility holds
        # exactly when the encoding agrees with the determined cells.
        rng = random.Random(5)
        shape = ModelShape([2, 2], [0, 0], 1)
        for _ in range(10):
            pm = random_partial_model(rng, shape, max_undef=10)
            determined = {
                i: b for i, b in enumerate(pm.to_assignment().bits) if b is not None
            }
            for m in enumerate_models(shape):
                bits = encode_model(m).bits
                agrees = all(bits[i] == v for i, v in determined.items())
                assert is_compatible(m, pm) == agrees


class TestSApp:
    def test_fully_determined_collapses_to_exact(self):
        rng = random.Random(6)
        for _ in range(300):
            shape = rng.choice([s for s in TINY_SHAPES if s.prop_count > 0])
            m = random_model(rng, shape)
            pm = PartialModel.from_assignment(encode_model(m))
            f = random_core_formula(rng, shape.agent_count, shape.prop_count, rng.randint(0, 2))
            exact = solve_formula(m, f)
            assert sapp(pm, f, Mode.UNDER) == exact
            assert sapp(pm, f, Mode.OVER) == exact

    def test_all_undef_atom(self):
        shape = ModelShape([2, 2], [0, 0], 1)
        pm = PartialModel.unconstrained(shape)
        assert sapp(pm, Prop(0), Mode.UNDER) == 0
        assert sapp(pm, Prop(0), Mode.OVER) == (1 << shape.state_count) - 1

    def test_sandwich_over_all_compatible_completions(self):
        # For every compatible total completion, the under set is contained
        # in the exact satisfaction set, which is contained in the over set.
        rng = random.Random(7)
        done = 0
        while done < 1000:
            shape = rng.choice([s for s in TINY_SHAPES if s.prop_count > 0])
            pm = random_partial_model(rng, shape, max_undef=8)
            f = random_core_formula(rng, shape.agent_count, shape.prop_count, rng.randint(1, 2))
            under = sapp(pm, f, Mode.UNDER)
            over = sapp(pm, f, Mode.OVER)
            assert under & ~over == 0
            for m in compatible_completions(pm):
                exact = solve_formula(m, f)
                assert under & ~exact == 0, f"under leak: {f} on {m.protocols}"
                assert exact & ~over == 0, f"over leak: {f} on {m.protocols}"
            done += 1

    def test_refinement_monotone(self):
        # Deciding one undefined cell never shrinks the under set and never
        # grows the over set, along chains down to total assignments.
        rng = random.Random(8)
        done = 0
        while done < 1000:
            shape = rng.choice([s for s in TINY_SHAPES if s.prop_count > 0])
            pm = random_partial_model(rng, shape, max_undef=6)
            undef = [i for i, b in enumerate(pm.to_assignment().bits) if b is None]
            if not undef:
                continue
            f = random_core_formula(rng, shape.agent_count, shape.prop_count, rng.randint(1, 2))
            under, over = sapp(pm, f, Mode.UNDER), sapp(pm, f, Mode.OVER)
            while undef:
                cell = rng.choice(undef)
                try:
                    pm = pm.with_cell(cell, rng.randint(0, 1))
                except ValueError:
                    pm = pm.with_cell(cell, 1)
                undef.remove(cell)
                under2, over2 = sapp(pm, f, Mode.UNDER), sapp(pm, f, Mode.OVER)
                assert under & ~under2 == 0, "under set shrank on refinement"
                assert over2 & ~over == 0, "over set grew on refinement"
                under, over = under2, over2
            assert under == over  # total assignment: both sides exact
            done += 1

    def test_negation_flips_mode(self):
        # Instrument the recursion: mode alternates across nested negations.
        shape = ModelShape([2, 2], [0, 0], 1)
        pm = PartialModel.unconstrained(shape)
        f = Not(Not(Not(Prop(0))))
        seen = []
        sapp(pm, f, Mode.OVER, _trace=lambda node, mode: seen.append((node, mode)))
        modes = [mode for node, mode in seen]
        assert modes == [Mode.OVER, Mode.UNDER, Mode.OVER, Mode.UNDER]
        # An even number of negations restores the entry mode at the atom.
        seen.clear()
        sapp(pm, Not(Not(Prop(0))), Mode.UNDER, _trace=lambda node, mode: seen.append((node, mode)))
        assert [mode for _, mode in seen] == [Mode.UNDER, Mode.OVER, Mode.UNDER]

    def test_conjunction_keeps_mode(self):
        shape = ModelShape([2, 2], [0, 0], 1)
        pm = PartialModel.unconstrained(shape)
        seen = []
        sapp(pm, And(Prop(0), Not(Prop(0))), Mode.OVER, _trace=lambda n, md: seen.append(md))
        assert seen == [Mode.OVER, Mode.OVER, Mode.OVER, Mode.UNDER]

    def test_out_of_range_raises(self):
        pm = PartialModel.unconstrained(ModelShape([2], [0], 1))
        with pytest.raises(IndexError):
            sapp(pm, Prop(2), Mode.OVER)
        with pytest.raises(IndexError):
            sapp(pm, Next(Coalition([3]), Prop(0)), Mode.OVER)
