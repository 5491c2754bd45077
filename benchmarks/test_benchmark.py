"""Tests of the benchmark's own code: span arithmetic, wrapper lifetime,
the independent verdict check and the metric catalogue."""

import importlib
import json

import pytest

import atlsat
from atlsat import Assignment, ModelShape, Requirements, decode_model, encode_model, parse_formula
import yardstick
from run import (
    END_TO_END_UNITS,
    INSTANCE_LIMIT_S,
    ROOT,
    TAIL_BEYOND,
    Record,
    instance_times,
    median_rank,
    per_layer_unit,
    tail_rank,
)
from tracing import PER_LAYER_METRICS, TARGETS, Tracer, installed, layer_metrics
from verdicts import witness_errors
from workloads import WORKLOADS, build_instances


def test_self_time_on_synthetic_span_tree():
    # solve [0,10] holds sapp [1,3] and sapp [4,8]; the second holds pre [5,7].
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 7.0, 8.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    tracer.instance = "i"
    tracer.enter("solve")
    tracer.enter("sapp", "sapp.over")
    tracer.exit()
    tracer.enter("sapp", "sapp.under")
    tracer.enter("pre")
    tracer.exit()
    tracer.exit()
    tracer.exit()
    assert tracer.top is None
    agg = tracer.by_key()
    assert agg["solve"] == [1, 10.0, 4.0]
    assert agg["sapp.over"] == [1, 2.0, 2.0]
    assert agg["sapp.under"] == [1, 4.0, 2.0]
    assert agg["pre"] == [1, 2.0, 2.0]

    counts = {"decisions": 0, "conflicts": 0, "theory_checks": 0}
    metrics = layer_metrics(tracer, 2, counts, 0, 0.5, 10.0, 9.0)
    assert tuple(metrics) == PER_LAYER_METRICS
    assert metrics["solver.self_s"] == 1.0
    assert metrics["approx.self_s"] == 1.0
    assert metrics["approx.under.s"] == 1.0
    assert metrics["trace.overhead_s"] == 1.0


def _originals():
    out = {}
    for module, cls, attr, *_ in TARGETS:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        out[module, cls, attr] = vars(owner)[attr]
    return out


def test_wrappers_restore_the_originals():
    before = _originals()
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with installed(tracer):
            assert all(now is not before[k] for k, now in _originals().items())
            req = Requirements(ModelShape([2, 2], None, 1))
            assert atlsat.solve_satisfiability(parse_formula("<<0>> G p0"), req).satisfiable
            raise RuntimeError("leave the block early")
    assert all(now is before[k] for k, now in _originals().items())
    assert tracer.top is None and not tracer.missing
    assert {"solve", "normalize", "sapp.over", "sapp.under", "from_assignment", "fixpoint",
            "pre", "recheck/pre", "structure", "choice_masks", "recheck"} <= set(tracer.by_key())


def _flipped(model, cell):
    bits = list(encode_model(model).bits)
    bits[cell] ^= 1
    return decode_model(Assignment(model.shape, tuple(bits)))


def test_checker_rejects_a_witness_with_one_flipped_cell():
    shape = ModelShape([2, 2], None, 1)
    f = parse_formula("p0 & <<0>> X p0")
    req = Requirements(shape, cv_constraints=((3, 0, 1),))
    witness = atlsat.solve_satisfiability(f, req).witness
    assert witness_errors(witness, f, req) == []

    at_initial = _flipped(witness, shape.vb_bit(shape.initial_state, 0))
    assert witness_errors(at_initial, f, req) == [
        "formula fails at the initial state under the oracle"
    ]
    pinned = _flipped(witness, shape.vb_bit(3, 0))
    assert witness_errors(pinned, f, req) == ["valuation cell (3,0) is not the pinned 1"]


def test_instance_times_are_scaled_means_over_decided_passes():
    assert yardstick.scale(2 * yardstick.REFERENCE_S, 2 * yardstick.REFERENCE_S) == 0.5
    passes = [
        [Record("a", 4.0, 2.0, "SAT"), Record("b", 1.0, 1.0, "timeout")],
        [Record("a", 2.0, 1.0, "SAT"), Record("b", 1.0, 1.0, "error")],
        [Record("a", 9.0, 6.0, "SAT"), Record("b", 1.0, 1.0, "timeout")],
    ]
    assert instance_times(passes) == [3.0, INSTANCE_LIMIT_S]


def test_every_workload_has_a_tail_at_or_above_the_median():
    for name, workload in WORKLOADS.items():
        n = len(build_instances(name, 0))
        tail = tail_rank(n, workload.min_passes)
        assert (n - tail) * workload.min_passes >= TAIL_BEYOND
        assert tail >= median_rank(n)


def test_benchmark_json_lists_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert [m["name"] for m in spec["per_layer"]] == list(PER_LAYER_METRICS)
    assert all(m["unit"] == per_layer_unit(m["name"]) for m in spec["per_layer"])
