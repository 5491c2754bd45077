import itertools
import random
import re

import pytest

from atlsat.approx import (
    _MODES,
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
    generate_random_formula,
    iter_subformulas,
    normalize,
    parse_formula,
)
from atlsat.mas import Assignment, Model, ModelShape, encode_model, state_index
from atlsat.mc import solve_globally, solve_next, solve_until
from helpers import (
    bit_owner,
    cone_of_influence,
    flipped,
    partial_model,
    protocol_tables,
    reference_partial_model,
    split_structure,
    structure,
    to_assignment,
    unconstrained,
    visits,
    with_cell,
)
from oracles import compatible_completions, enumerate_models
from samplers import (
    SMALL_SHAPES,
    TINY_SHAPES,
    random_coalition,
    random_core_formula,
    random_model,
    random_partial_model,
    random_shape,
)


def all_ones_pm(shape):
    cp = tuple(tuple((1,) * n for _ in range(n)) for n in shape.locals_per_agent)
    cv = tuple((1,) * shape.prop_count for _ in range(shape.state_count))
    return partial_model(shape, cp, cv)


class TestPartialModel:
    def test_rejects_determined_empty_row(self):
        # Minimization's recheck raises this error when a candidate empties a
        # row, so a partial model built from a flat vector must raise it too.
        shape = ModelShape([2], [0], 0)
        with pytest.raises(ValueError):
            partial_model(shape, (((0, 0), (1, None)),), ((), ()))
        with pytest.raises(ValueError):
            PartialModel.from_assignment(Assignment(shape, (0, 0, 1, None)))

    def test_rejects_wrong_cell_count(self):
        shape = ModelShape([2], [0], 1)
        with pytest.raises(ValueError, match="has 5 cells, shape needs 6"):
            PartialModel(shape, (None,) * 5)

    @pytest.mark.parametrize("cell", [2, -1, 0.5, "1"])
    def test_rejects_other_cell_values(self, cell):
        shape = ModelShape([2], [0], 1)
        with pytest.raises(ValueError, match="cells must be 0, 1 or None"):
            PartialModel(shape, (1, 1, 1, 1, None, cell))

    def test_assignment_round_trip(self):
        rng = random.Random(0)
        for _ in range(200):
            shape = rng.choice(TINY_SHAPES)
            pm = random_partial_model(rng, shape)
            round_trip = PartialModel.from_assignment(to_assignment(pm))
            assert protocol_tables(round_trip) == protocol_tables(pm)


class TestDerivation:
    def test_against_per_cell_definition(self):
        # Random shapes and three-valued cell vectors: the memoized rows,
        # the split structures, the rejection of determined-empty rows and
        # the elimination plans, against definitions cell by cell.
        rng = random.Random(9)
        rejected = accepted = 0
        while rejected + accepted < 500:
            agents = rng.randint(1, 4)
            shape = ModelShape([rng.randint(1, 5) for _ in range(agents)], None, rng.randint(0, 2))
            zero = rng.random() * 0.8
            cells = tuple(
                0 if rng.random() < zero else rng.choice((1, None)) for _ in range(shape.bit_count)
            )

            def rows(i, counts):
                n = shape.locals_per_agent[i]
                return tuple(
                    tuple(a for a in range(n) if counts(cells[shape.tb_bit(i, k, a)]))
                    for k in range(n)
                )

            necessary = [rows(i, lambda c: c == 1) for i in range(agents)]
            possible = [rows(i, lambda c: c != 0) for i in range(agents)]
            for i, n in enumerate(shape.locals_per_agent):
                table = cells[shape.tb_offsets[i] : shape.tb_offsets[i] + n * n]
                assert shape.agent_slice(i, table)[:2] == (necessary[i], possible[i])

            empty = [(i, k) for i in range(agents) for k, row in enumerate(possible[i]) if not row]
            if empty:
                rejected += 1
                message = "^agent %d, local state %d: row determined empty" % empty[0]
                with pytest.raises(ValueError, match=message):
                    PartialModel.from_assignment(Assignment(shape, cells))
                continue
            accepted += 1
            pm = PartialModel.from_assignment(Assignment(shape, cells))
            for size in range(agents + 1):
                for coal in itertools.combinations(range(agents), size):
                    for mode in Mode:
                        st = split_structure(pm, coal, mode)
                        assert st.enabled == tuple(
                            possible[i] if (i in coal) == (mode is Mode.OVER) else necessary[i]
                            for i in range(agents)
                        )
                    outsiders_first = [i for i in range(agents) if i not in coal] + list(coal)
                    plan = st.choice_masks(coal)
                    assert [member for member, _ in plan] == [i in coal for i in outsiders_first]
                    for i, (_, shifts) in zip(outsiders_first, plan):
                        assert all(mask for _, mask in shifts)
                        assert dict(shifts) == per_cell_shifts(shape, i, st.enabled[i])
                        assert len(shifts) == len(dict(shifts))
            # Equal slices share one memo entry: its rows and its shifts.
            twin = PartialModel.from_assignment(Assignment(shape, cells))
            for i, entry in enumerate(pm.slices()):
                assert twin.slices()[i] is entry
                for rows, shifts in zip(entry[:2], entry[2:]):
                    assert dict(shifts) == per_cell_shifts(shape, i, rows)
        assert rejected > 20 and accepted > 20


def per_cell_shifts(shape, agent, rows):
    # Per offset d, the states s with an enabled action a at agent's local
    # state in s such that s - d is s with that coordinate set to a.
    shifts = {}
    for s, locs in enumerate(shape.state_locals_table):
        for a in rows[locs[agent]]:
            d = s - state_index(shape, locs[:agent] + (a,) + locs[agent + 1 :])
            shifts[d] = shifts.get(d, 0) | 1 << s
    return shifts


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
        under = all_necessary(partial_model(shape, cp, cv))
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
        pm = unconstrained(shape)
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
            pm = unconstrained(shape)
            assert is_compatible(random_model(rng, shape), pm)

    def test_determined_zero_cell_rejects(self):
        shape = ModelShape([2], [0], 0)
        m = Model(shape, (((1, 1), (0, 1)),), ((), ()))
        pm = partial_model(shape, (((1, 0), (None, None)),), ((), ()))
        assert not is_compatible(m, pm)

    def test_shape_mismatch_raises(self):
        m = Model(ModelShape([2], [0], 0), (((1, 1), (1, 1)),), ((), ()))
        with pytest.raises(ValueError):
            is_compatible(m, unconstrained(ModelShape([3], [0], 0)))

    def test_compatible_set_equals_agreeing_encodings(self):
        # Brute force over every model of the shape: compatibility holds
        # exactly when the encoding agrees with the determined cells.
        rng = random.Random(5)
        shape = ModelShape([2, 2], [0, 0], 1)
        for _ in range(10):
            pm = random_partial_model(rng, shape, max_undef=10)
            determined = {
                i: b for i, b in enumerate(to_assignment(pm).bits) if b is not None
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

    def test_on_a_total_model_every_view_reads_the_exact_plan(self):
        # The bridge between exact and approximate evaluation, at the level
        # of plans: on a total model each split view, in either mode,
        # refreshes to the plan of its coalition over the model's structure.
        rng = random.Random(23)
        views = 0
        for _ in range(200):
            shape = random_shape(rng, max_states=12, max_props=2)
            if not shape.prop_count:
                continue
            m = random_model(rng, shape)
            slices = PartialModel(shape, encode_model(m).bits).slices()
            f = random_core_formula(rng, shape.agent_count, shape.prop_count, rng.randint(1, 3))
            program = Program(f, shape)
            for split in program.views:
                assert split.refresh(slices) == structure(m).choice_masks(split.coalition), (
                    f, split.coalition)
                views += 1
        assert views > 300

    def test_all_undef_atom(self):
        shape = ModelShape([2, 2], [0, 0], 1)
        pm = unconstrained(shape)
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
            undef = [i for i, b in enumerate(to_assignment(pm).bits) if b is None]
            if not undef:
                continue
            f = random_core_formula(rng, shape.agent_count, shape.prop_count, rng.randint(1, 2))
            under, over = sapp(pm, f, Mode.UNDER), sapp(pm, f, Mode.OVER)
            while undef:
                cell = rng.choice(undef)
                try:
                    pm = with_cell(pm, cell, rng.randint(0, 1))
                except ValueError:
                    pm = with_cell(pm, cell, 1)
                undef.remove(cell)
                under2, over2 = sapp(pm, f, Mode.UNDER), sapp(pm, f, Mode.OVER)
                assert under & ~under2 == 0, "under set shrank on refinement"
                assert over2 & ~over == 0, "over set grew on refinement"
                under, over = under2, over2
            assert under == over  # total assignment: both sides exact
            done += 1

    def test_negation_flips_mode(self):
        # The compiled steps: mode alternates across nested negations.
        shape = ModelShape([2, 2], [0, 0], 1)
        f = Not(Not(Not(Prop(0))))
        assert set(visits(Program(f, shape), Mode.OVER)) == {
            (f, Mode.OVER),
            (f.child, Mode.UNDER),
            (f.child.child, Mode.OVER),
            (Prop(0), Mode.UNDER),
        }
        # An even number of negations restores the entry mode at the atom.
        f = Not(Not(Prop(0)))
        assert set(visits(Program(f, shape), Mode.UNDER)) == {
            (f, Mode.UNDER),
            (f.child, Mode.OVER),
            (Prop(0), Mode.UNDER),
        }

    def test_conjunction_keeps_mode(self):
        shape = ModelShape([2, 2], [0, 0], 1)
        f = And(Prop(0), Not(Prop(0)))
        assert set(visits(Program(f, shape), Mode.OVER)) == {
            (f, Mode.OVER),
            (Prop(0), Mode.OVER),
            (Not(Prop(0)), Mode.OVER),
            (Prop(0), Mode.UNDER),
        }

    def test_out_of_range_raises(self):
        pm = unconstrained(ModelShape([2], [0], 1))
        with pytest.raises(IndexError):
            sapp(pm, Prop(2), Mode.OVER)
        with pytest.raises(IndexError):
            sapp(pm, Next(Coalition([3]), Prop(0)), Mode.OVER)


def recursive_sapp(pm, f, mode):
    """Reference for the compiled program: the recursive evaluator it
    replaced, which solves every subformula afresh on every call."""
    full = (1 << pm.shape.state_count) - 1

    def rec(node, md):
        if isinstance(node, Prop):
            return split_structure(pm, (), md).prop_masks[node.index]
        if isinstance(node, Not):
            return full & ~rec(node.child, flipped(md))
        if isinstance(node, And):
            return rec(node.left, md) & rec(node.right, md)
        members = node.coalition.members
        plan = split_structure(pm, members, md).choice_masks(members)
        if isinstance(node, Next):
            return solve_next(plan, full, rec(node.child, md))
        if isinstance(node, Globally):
            return solve_globally(plan, full, rec(node.child, md))
        return solve_until(plan, full, rec(node.left, md), rec(node.right, md))

    return rec(f, mode)


def _shared_formula(rng, agents, props):
    # A core formula whose subformulas repeat: a generator draw, or a
    # random formula used twice under one operator.
    if rng.random() < 0.5:
        params = GenParams(agents, rng.randint(1, 2**agents - 1), props, rng.randint(1, 4),
                           rng.randrange(1000))
        return normalize(generate_random_formula(params))
    g = random_core_formula(rng, agents, props, rng.randint(1, 2))
    c, d = random_coalition(rng, agents), random_coalition(rng, agents)
    return rng.choice((
        And(g, Not(g)),
        Until(c, g, Not(g)),
        And(Next(c, g), Globally(d, g)),
        Globally(c, And(g, Next(d, g))),
    ))


class TestProgram:
    def test_reuse_matches_reference(self):
        # One program across a sequence of partial models like a search
        # visits: refinements, un-assignments (backjumps) and unrelated
        # jumps (minimization rechecks).  Every answer, both modes, equals
        # the recursive reference and a freshly compiled program.
        rng = random.Random(11)
        reused = 0
        for _ in range(60):
            agents = rng.randint(1, 3)
            shape = ModelShape([rng.randint(1, 3) for _ in range(agents)], None, rng.randint(1, 2))
            f = _shared_formula(rng, agents, shape.prop_count)
            program = Program(f, shape)
            bits, trail = None, []
            for _ in range(25):
                move = rng.random()
                if bits is None or move < 0.15:
                    pm = random_partial_model(rng, shape, shape.bit_count)
                    bits, trail = list(pm.cells), []
                elif move < 0.4 and trail:
                    for cell in trail[-rng.randint(1, len(trail)) :]:
                        bits[cell] = None
                        trail.remove(cell)
                else:
                    free = [i for i, b in enumerate(bits) if b is None]
                    if not free:
                        continue
                    cell = rng.choice(free)
                    bits[cell] = rng.randint(0, 1)
                    trail.append(cell)
                try:
                    pm = PartialModel.from_assignment(Assignment(shape, tuple(bits)))
                except ValueError:  # that refinement emptied a row
                    bits[trail.pop()] = 1
                    pm = PartialModel.from_assignment(Assignment(shape, tuple(bits)))
                for mode in (rng.choice(list(Mode)), Mode.OVER, Mode.UNDER):
                    expected = recursive_sapp(pm, f, mode)
                    assert sapp(pm, program, mode) == expected, (f, mode, bits)
                    assert sapp(pm, f, mode) == expected
            reused += program.reused
        assert reused > 0

    def test_program_for_another_shape_raises(self):
        # A program compiled for [2] read a [2,2] partial model's cells at
        # the wrong offsets: p0 came out as 0b11, where the formula compiled
        # for the right shape gives 0b1000.
        f = normalize(Prop(0))
        program = Program(f, ModelShape([2], [0], 1))
        shape = ModelShape([2, 2], [1, 1], 1)
        cells = (1,) * shape.vb_offset + (0, 0, 0, 1)
        pm = PartialModel(shape, cells)
        assert sapp(pm, f, Mode.OVER) == 0b1000
        m = random_model(random.Random(14), shape)
        for call in (
            lambda: sapp(pm, program, Mode.OVER),
            lambda: solve_formula(m, program),
            lambda: check_validity(m, program),
        ):
            with pytest.raises(ValueError, match=r"compiled for .*\(2,\).*, used with .*\(2, 2\)"):
                call()
        # An equal shape built separately is the same shape.
        same = Program(f, ModelShape([2, 2], [1, 1], 1))
        assert sapp(pm, same, Mode.OVER) == 0b1000
        assert check_validity(m, same) == bool(m.valuation[shape.initial_state][0])

    def test_rejects_a_formula_that_is_not_core(self):
        with pytest.raises(ValueError, match="not core-normalized"):
            Program(parse_formula("p0 | p0"), ModelShape([2], [0], 1))

    def test_shared_subformulas_share_a_slot(self):
        shape = ModelShape([2, 2], [0, 0], 2)
        g = Next(Coalition([0]), And(Prop(0), Not(Prop(1))))
        program = Program(And(Globally(Coalition([1]), g), Not(g)), shape)
        assert len(program.nodes) == len(set(program.nodes)) == 8
        # g is evaluated once in each mode.
        steps = visits(program, Mode.OVER)
        assert len(steps) == len(set(steps))
        assert (g, Mode.OVER) in steps and (g, Mode.UNDER) in steps

    def test_deep_nesting_needs_no_recursion(self):
        # Far past Python's recursion limit; an even number of negations
        # gives back the inner set.
        shape = ModelShape([2, 2], [0, 0], 1)
        inner = Next(Coalition([0]), Prop(0))
        f = inner
        for _ in range(20_000):
            f = Not(f)
        pm = random_partial_model(random.Random(13), shape)
        for mode in Mode:
            assert sapp(pm, f, mode) == recursive_sapp(pm, inner, mode)


def _mode_walk(f):
    """The ``(subformula, mode)`` evaluations of root mode ``OVER``, by a
    recursive walk in which only negation swaps the mode."""
    out, stack = set(), [(f, Mode.OVER)]
    while stack:
        node, mode = stack.pop()
        if (node, mode) in out:
            continue
        out.add((node, mode))
        if isinstance(node, Not):
            stack.append((node.child, flipped(mode)))
        elif isinstance(node, (And, Until)):
            stack += [(node.left, mode), (node.right, mode)]
        elif not isinstance(node, Prop):
            stack.append((node.child, mode))
    return out


class TestCone:
    """``Program.cone``: the cells a verdict at the initial state can read."""

    def test_a_subset_of_the_reference_cone(self):
        # Strictly smaller when a proposition is read at the initial state
        # alone, and equal when every atom sits under a strategic step: here,
        # the random formula wrapped in one.
        rng = random.Random(26)
        strict = 0
        for _ in range(400):
            shape = random_shape(rng, max_states=8, max_props=3)
            if shape.prop_count == 0:
                continue
            f = random_core_formula(rng, shape.agent_count, shape.prop_count, rng.randint(0, 3))
            if rng.random() < 0.5:  # a shallow atom beside whatever f holds
                f = And(random_core_formula(rng, shape.agent_count, shape.prop_count, 0), f)
            cone = Program(f, shape).cone
            assert cone <= cone_of_influence(f, shape)
            strict += cone != cone_of_influence(f, shape)
            wrapped = Next(random_coalition(rng, shape.agent_count), f)
            assert Program(wrapped, shape).cone == cone_of_influence(wrapped, shape)
        assert strict > 15

    def test_a_shallow_atom_reads_the_initial_state_alone(self):
        shape = ModelShape([2, 2], [1, 0], 2)
        program = Program(normalize(parse_formula("p1 & <<0>> X p0")), shape)
        assert program.cone == frozenset(range(shape.vb_offset)) | {
            shape.vb_bit(s, 0) for s in range(shape.state_count)} | {
            shape.vb_bit(shape.initial_state, 1)}
        # Under a negation, and below one inside a strategic step.
        for text, deep in (("!p1 & !<<0>> X p0", False), ("<<0>> X !p1 & p0", True)):
            cone = Program(normalize(parse_formula(text)), shape).cone
            p1 = {s for s in range(shape.state_count) if shape.vb_bit(s, 1) in cone}
            assert p1 == (set(range(shape.state_count)) if deep else {shape.initial_state})
        # Without a strategic step no protocol cell is read.
        cone = Program(normalize(parse_formula("p1 & !p0")), shape).cone
        assert cone == {shape.vb_bit(shape.initial_state, v) for v in (0, 1)}

    def test_the_strategic_bit_never_reaches_the_modes(self):
        # The bit that marks slots under a strategic step passes through
        # negations unswapped: each root mode evaluates exactly what a
        # recursive walk in which only negation swaps the mode evaluates.
        rng = random.Random(27)
        for _ in range(300):
            shape = random_shape(rng, max_props=2)
            if shape.prop_count == 0:
                continue
            f = random_core_formula(rng, shape.agent_count, shape.prop_count, rng.randint(1, 3))
            f = rng.choice((f, Not(f), Next(Coalition(()), Not(f))))
            program = Program(f, shape)
            assert set(visits(program, Mode.OVER)) == _mode_walk(f)
            assert set(visits(program, Mode.UNDER)) == {
                (node, flipped(mode)) for node, mode in _mode_walk(f)}

    def test_cells_outside_the_cone_leave_the_verdict(self):
        # Partial models that agree on the cone agree on both approximations
        # at the initial state, whatever the other cells hold.
        rng = random.Random(28)
        moved = 0
        for _ in range(300):
            shape = random_shape(rng, max_props=3)
            if shape.prop_count == 0:
                continue
            f = random_core_formula(rng, shape.agent_count, shape.prop_count, rng.randint(0, 2))
            program = Program(f, shape)
            pm = random_partial_model(rng, shape, shape.bit_count)
            cells = [b if v in program.cone else rng.choice((0, 1, None))
                     for v, b in enumerate(pm.cells)]
            try:
                other = PartialModel(shape, cells)
            except ValueError:
                continue  # a protocol row determined empty
            moved += cells != pm.cells
            for mode in Mode:
                bit = sapp(pm, program, mode) >> shape.initial_state & 1
                assert sapp(other, program, mode) >> shape.initial_state & 1 == bit
        assert moved > 100


# The refute-theory formulas, and a strategic G alone.
LIVE_VIEW_TEXTS = (
    "<<0>> X p0 & <<1>> X !p0",
    "<<0,1>> X p0 & <<2>> X !p0",
    "<<0>> G p0 & <<>> F !p0",
    "p0 & !p0",
    "<<0>> G p0",
)


def _fitting_programs(shape):
    # (formula, program over the view) for each text the shape can express.
    out = []
    for text in LIVE_VIEW_TEXTS:
        f = normalize(parse_formula(text))
        try:
            out.append((f, Program(f, shape)))
        except IndexError:
            pass
    return out


class TestLiveView:
    def test_updates_match_a_fresh_partial_model(self):
        # Random cell updates, resets to None and overwrites included.
        # After each the partial model reads like one computed from scratch
        # (reference_partial_model): the same rows, masks and sapp sets, or
        # the same empty-row error.  One program serves the whole sequence,
        # as in a search.
        rng = random.Random(31)
        shapes = SMALL_SHAPES + [random_shape(rng) for _ in range(10)]
        shapes = [shape for shape in shapes if shape.prop_count] + [
            ModelShape([2, 2, 2], [0, 0, 0], 1), ModelShape([3, 2, 2], [0, 0, 0], 2)]
        checked = raised = 0
        for shape in shapes:
            pm, cells = PartialModel(shape, (None,) * shape.bit_count), [None] * shape.bit_count
            programs = _fitting_programs(shape)
            assert programs
            for _ in range(80):
                cell = rng.randrange(shape.bit_count)
                value = rng.choice((0, 1, None, None))
                cells[cell] = value
                pm.put(cell, value)
                assert pm.cells == cells
                ref = reference_partial_model(shape, cells)
                empty = [(i, entry[1].index(())) for i, entry in enumerate(ref.slices())
                         if () in entry[1]]
                if empty:
                    message = "^agent %d, local state %d: row determined empty" % empty[0]
                    with pytest.raises(ValueError, match=message):
                        sapp(pm, programs[0][1], Mode.OVER)
                    cells[cell] = None
                    pm.put(cell, None)
                    raised += 1
                    continue
                assert pm.slices() == ref.slices()
                assert tuple(map(tuple, pm.masks)) == ref.masks
                for f, program in programs:
                    for mode in Mode:
                        assert sapp(pm, program, mode) == recursive_sapp(ref, f, mode), (
                            f, mode, cells)
                checked += 1
        assert checked > 500 and raised > 0

    def test_view_plans_follow_the_partial_model(self):
        # Random puts, and backjumps that reset the latest cells to None.
        # After each, every (coalition, mode) view of a program that has all
        # of them plans as a split structure built from scratch, and an agent
        # whose protocol cell changed has new shifts, matching its rows.  The
        # program alternates between the moved partial model and a probe
        # that keeps a random part of its cells, as a search's view and its
        # minimization probe do, and a second evaluation of one partial
        # model keeps every view's rows and plan objects.
        rng = random.Random(28)
        shapes = [ModelShape([2, 2], [0, 0], 1), ModelShape([3, 2], [1, 0], 1),
                  ModelShape([2, 2, 2], [0, 0, 0], 1), ModelShape([1, 3], [0, 2], 1)]
        changed = backjumps = 0
        for shape in shapes:
            agents = range(shape.agent_count)
            coalitions = [c for k in range(len(agents) + 1)
                          for c in itertools.combinations(agents, k)]
            f = normalize(parse_formula(" & ".join(
                f"(<<{','.join(map(str, c))}>> X p0 & !<<{','.join(map(str, c))}>> X p0)"
                for c in coalitions)))
            program = Program(f, shape)
            views = {(program.views[view].coalition, _MODES[out & 1]): view
                     for _, out, _, _, view in program.steps[0] if view is not None}
            assert len(views) == 2 * len(coalitions)
            pm, trail = PartialModel(shape, (None,) * shape.bit_count), []
            probe = PartialModel(shape, (None,) * shape.bit_count)
            cells = [None] * shape.bit_count
            for _ in range(120):
                if trail and rng.random() < 0.25:
                    moves = [(cell, None) for cell in reversed(trail[rng.randrange(len(trail)):])]
                    backjumps += 1
                else:
                    moves = [(rng.randrange(shape.bit_count), rng.choice((0, 1)))
                             for _ in range(rng.randint(1, 3))]
                for cell, value in moves:
                    before = pm.slices()
                    old, cells[cell] = cells[cell], value
                    pm.put(cell, value)
                    if any(() in entry[1]
                           for entry in reference_partial_model(shape, cells).slices()):
                        cells[cell] = old  # a protocol row determined empty
                        pm.put(cell, old)
                        continue
                    if value is None:
                        trail.remove(cell)
                    elif cell not in trail:
                        trail.append(cell)
                    after = pm.slices()
                    kind, agent, *_ = bit_owner(shape, cell)
                    moved = agent if kind == "tb" and old != value else None
                    for i in agents:
                        if i == moved:
                            assert after[i][2:] != before[i][2:]
                            changed += 1
                        else:
                            assert after[i] is before[i]
                        for rows, shifts in zip(after[i][:2], after[i][2:]):
                            assert dict(shifts) == per_cell_shifts(shape, i, rows)
                assert pm.slices() == reference_partial_model(shape, cells).slices()
                # Undetermining cells never empties a possible row.
                probe.load([c if rng.random() < 0.5 else None for c in cells])
                for model in (pm, probe, pm):
                    for mode in Mode:
                        program.approximate(model, mode)
                    kept = [(split.enabled, split.plan) for split in program.views]
                    for mode in Mode:
                        program.approximate(model, mode)
                    for split, (enabled, plan) in zip(program.views, kept):
                        assert split.enabled is enabled and split.plan is plan
                    for (coalition, mode), view in views.items():
                        expected = split_structure(model, coalition, mode)
                        assert program.views[view].enabled == expected.enabled
                        assert program.views[view].plan == expected.choice_masks(coalition)
        assert changed > 300 and backjumps > 50

    def test_an_emptied_row_raises_at_the_next_evaluation(self):
        shape = ModelShape([2, 2], [0, 0], 1)
        f = normalize(parse_formula("<<0>> G p0"))
        pm, cells = PartialModel(shape, (None,) * shape.bit_count), [None] * shape.bit_count
        for action in range(2):
            cell = shape.tb_bit(1, 1, action)
            pm.put(cell, 0)
            cells[cell] = 0
        with pytest.raises(ValueError) as expected:
            PartialModel(shape, tuple(cells))
        for _ in range(2):  # the agent stays stale until its rows are valid
            with pytest.raises(ValueError, match=re.escape(str(expected.value))):
                sapp(pm, f, Mode.UNDER)
        pm.put(shape.tb_bit(1, 1, 0), None)
        cells[shape.tb_bit(1, 1, 0)] = None
        assert sapp(pm, f, Mode.UNDER) == sapp(PartialModel(shape, tuple(cells)), f, Mode.UNDER)
