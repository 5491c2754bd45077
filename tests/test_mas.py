import json
import random

import pytest

from atlsat.mas import (
    MAX_CELLS,
    MAX_STATES,
    Assignment,
    EmptyProtocolRowError,
    Model,
    ModelShape,
    TransitionStructure,
    UndefCellError,
    decode_model,
    encode_model,
    state_index,
    state_locals,
    successors,
)
from atlsat.witness import witness_from_dict, witness_to_dict
from helpers import bit_owner
from samplers import random_model, random_shape

# The worked two-agent example: agent 0 with three local states and protocol
# rows {a0,a2}, {a1}, {a1,a2}; agent 1 with two local states and rows
# {a0,a1}, {a1}.
EX_SHAPE = ModelShape([3, 2], [0, 0], 3)
EX_P0 = ((1, 0, 1), (0, 1, 0), (0, 1, 1))
EX_P1 = ((1, 1), (0, 1))


def example_model(valuation=None):
    val = valuation or tuple((0, 0, 0) for _ in range(6))
    return Model(EX_SHAPE, (EX_P0, EX_P1), val)


class TestShape:
    def test_counts(self):
        assert EX_SHAPE.state_count == 6
        assert EX_SHAPE.bit_count == 9 + 4 + 18

    @pytest.mark.parametrize(
        "locs, init, props",
        [([True], [0], 0), ([2], [False], 0), ([2], [0], True), ([1.5], [0], 0),
         ([2], [0.0], 0), ([2], [0], 1.0), (["2"], [0], 0)],
    )
    def test_rejects_counts_that_are_not_int(self, locs, init, props):
        # A bool or a float would pass the range checks, and a string would
        # fail them with a TypeError.
        with pytest.raises(ValueError, match="must be integers"):
            ModelShape(locs, init, props)

    def test_state_index_corners(self):
        shape = ModelShape([3, 2])
        assert state_index(shape, (0, 0)) == 0
        assert state_index(shape, (2, 1)) == 5
        assert state_index(shape, (1, 0)) == 2

    def test_state_index_bijection(self):
        rng = random.Random(0)
        for _ in range(200):
            shape = random_shape(rng)
            seen = set()
            for s in range(shape.state_count):
                locs = state_locals(shape, s)
                assert state_index(shape, locs) == s
                seen.add(locs)
            assert len(seen) == shape.state_count

    def test_state_index_out_of_range(self):
        with pytest.raises(IndexError):
            state_index(ModelShape([3, 2]), (3, 0))

    def test_state_index_wrong_arity(self):
        for locs in ((0,), (0, 0, 0)):
            with pytest.raises(IndexError, match="wrong number of local components"):
                state_index(ModelShape([3, 2]), locs)

    def test_bit_owner_round_trip(self):
        shape = EX_SHAPE
        for agent in range(2):
            n = shape.locals_per_agent[agent]
            for local in range(n):
                for action in range(n):
                    bit = shape.tb_bit(agent, local, action)
                    assert bit_owner(shape, bit) == ("tb", agent, local, action)
        for state in range(shape.state_count):
            for prop in range(shape.prop_count):
                bit = shape.vb_bit(state, prop)
                assert bit_owner(shape, bit) == ("vb", state, prop)

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            ModelShape([0, 2])
        with pytest.raises(ValueError):
            ModelShape([2], [2])
        with pytest.raises(ValueError, match="prop_count must be >= 0"):
            ModelShape([2], [0], -1)

    def test_size_limits(self):
        # [6,6,6] with 3 props (216 states, 756 cells) is the largest shape
        # measured; each limit is inclusive.
        for locs, props in (([6, 6, 6], 3), ([2] * 12, 15), ([64], 960)):
            ModelShape(locs, None, props)
        for locs, props, limit in (([2] * 13, 0, MAX_STATES), ([2] * 12, 16, MAX_CELLS),
                                   ([64], 961, MAX_CELLS), ([10**6] * 4, 1, MAX_STATES)):
            with pytest.raises(ValueError, match=str(limit)):
                ModelShape(locs, None, props)


class TestEncode:
    def test_example_protocol_bits(self):
        bits = encode_model(example_model()).to_string()
        assert bits[:9] == "101010011"
        assert bits[9:13] == "1101"

    def test_no_propositions_means_no_valuation_cells(self):
        shape = ModelShape([2], [0], 0)
        m = Model(shape, (((1, 0), (0, 1)),), tuple(() for _ in range(2)))
        assert len(encode_model(m).bits) == 4

    def test_witness_json_round_trip_is_equal_and_hashes_equal(self):
        m = example_model(tuple((s % 2, 0, 1) for s in range(6)))
        again = witness_from_dict(json.loads(json.dumps(witness_to_dict(m))))
        assert again == m and again is not m
        assert hash(again) == hash(m)
        assert len({m, again, example_model()}) == 2

    def test_a_decoded_model_is_its_tables(self):
        # No pre-image plan and no memo: only Program.exact builds a
        # structure, from these rows and masks.
        m = decode_model(encode_model(example_model(tuple((s % 2, 0, 1) for s in range(6)))))
        assert not isinstance(m, TransitionStructure)
        assert not hasattr(m, "choice_masks") and not hasattr(m, "_choice_masks")
        assert not hasattr(m, "full_mask")
        assert m.enabled == (((0, 2), (1,), (1, 2)), ((0, 1), (1,)))
        assert m.prop_masks == (0b101010, 0, 0b111111)

    def test_round_trip_bulk(self):
        rng = random.Random(11)
        count = 0
        while count < 10_000:
            shape = random_shape(rng, max_states=8, max_props=2)
            if shape.bit_count > 64:
                continue
            m = random_model(rng, shape)
            assert decode_model(encode_model(m)) == m
            count += 1


class TestDecodeErrors:
    def test_undef_cell(self):
        bits = list(encode_model(example_model()).bits)
        bits[5] = None
        with pytest.raises(UndefCellError) as exc:
            decode_model(Assignment(EX_SHAPE, tuple(bits)))
        assert exc.value.index == 5

    def test_empty_protocol_row(self):
        bits = list(encode_model(example_model()).bits)
        bits[0] = bits[1] = bits[2] = 0
        with pytest.raises(EmptyProtocolRowError) as exc:
            decode_model(Assignment(EX_SHAPE, tuple(bits)))
        assert (exc.value.agent, exc.value.local) == (0, 0)

    def test_model_constructor_rejects_empty_row(self):
        with pytest.raises(EmptyProtocolRowError):
            Model(ModelShape([2]), (((0, 0), (1, 0)),), tuple(() for _ in range(2)))

    def test_model_constructor_rejects_a_missing_table(self):
        with pytest.raises(ValueError, match="one protocol table per agent"):
            Model(EX_SHAPE, (EX_P0,), tuple((0, 0, 0) for _ in range(6)))

    def test_assignment_length_checked(self):
        with pytest.raises(ValueError):
            Assignment(EX_SHAPE, (0,) * 5)

    def test_assignment_string_round_trip(self):
        a = Assignment(ModelShape([2], [0], 0), (1, None, 0, 1))
        assert a.to_string() == "1x01"
        assert Assignment.from_string(a.shape, "1x01") == a

    @pytest.mark.parametrize("bad", [2, "x", -1, 0.5])
    def test_assignment_rejects_other_cell_values(self, bad):
        # 2 or 'x' used to decode as a true cell, and to_string wrote a 2
        # that from_string then rejected.
        with pytest.raises(ValueError, match="cells must be 0, 1 or None"):
            Assignment(ModelShape([1], None, 1), (1, bad))

    def test_assignment_string_rejects_other_characters(self):
        with pytest.raises(ValueError, match="invalid cell character '2'"):
            Assignment.from_string(ModelShape([2], [0], 0), "1x21")


class TestSuccessors:
    def test_example_initial_state(self):
        m = example_model()
        succ = successors(m, 0)
        # Enabled joint actions {a0,a2} x {a0,a1}, lexicographic.
        assert [joint for joint, _ in succ] == [(0, 0), (0, 1), (2, 0), (2, 1)]
        assert dict(succ)[(2, 1)] == state_index(EX_SHAPE, (2, 1))

    def test_single_state_self_loop(self):
        shape = ModelShape([1], [0], 0)
        m = Model(shape, (((1,),),), ((),))
        assert successors(m, 0) == [((0,), 0)]

    def test_full_product_covers_all_states(self):
        shape = ModelShape([2, 2], [0, 0], 0)
        ones = ((1, 1), (1, 1))
        m = Model(shape, (ones, ones), tuple(() for _ in range(4)))
        for s in range(4):
            assert sorted(t for _, t in successors(m, s)) == [0, 1, 2, 3]

    def test_count_is_product_of_row_popcounts(self):
        rng = random.Random(5)
        for _ in range(1000):
            shape = random_shape(rng)
            m = random_model(rng, shape)
            for s in range(shape.state_count):
                locs = state_locals(shape, s)
                expected = 1
                for i, l in enumerate(locs):
                    expected *= sum(m.protocols[i][l])
                succ = successors(m, s)
                assert len(succ) == expected
                assert expected >= 1  # seriality from row nonemptiness
