"""Solver benchmark: time to a verdict, end to end and per layer.

Run from the repository root:

    python3 benchmarks/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Each workload is a fixed instance set (see ``workloads.py``) decided through
``atlsat.solve_satisfiability``, one instance at a time in one process.
Passes over the set repeat until the next one would end after ``--seconds``,
with at least the workload's minimum.  Each solve is timed between two runs
of the fixed work in ``yardstick.py`` and scaled to a host of reference
speed, because a shared host changes speed by up to a factor of two within
a run.  An instance's solve time is its mean over the passes; ``suite_s``
is their sum and the percentiles are taken over instances.  Every verdict
is then checked outside the timed region: refutation instances must come
out UNSAT, and every SAT witness is re-checked by ``verdicts.py``.
Verdict, decisions, conflicts, theory checks and witness must repeat
exactly between passes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` first measures
an untraced pass in a child process, then traces passes in this one with the
wrappers of ``tracing.py`` and prints the per-layer metrics; the aggregates
are written to ``.bench_out/``.  The last line of standard output is one JSON
object with keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "atlsat").is_dir() or not (ROOT / "tests" / "oracles.py").is_file():
    sys.exit(f"error: no atlsat sources under {ROOT}; run from a full checkout")
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import atlsat  # noqa: E402
from atlsat import Model, SolveTimeout, encode_model  # noqa: E402
from atlsat.formula import iter_subformulas  # noqa: E402
from tracing import PER_LAYER_METRICS, Tracer, installed, layer_metrics  # noqa: E402
from verdicts import witness_errors  # noqa: E402
import yardstick  # noqa: E402
from workloads import WORKLOADS, Instance, build_instances  # noqa: E402

END_TO_END_UNITS = {
    "suite_s": "s",
    "solve_s.p50": "s",
    "solve_s.tail": "s",
    "verdict_frac": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
INSTANCE_LIMIT_S = 20.0  # the slowest instance takes under 5 s
RUN_DEADLINE_S = 140.0  # no solve starts later, so the run ends within 180 s
SETUP_PROBES = 7
TAIL_BEYOND = 10


def per_layer_unit(name: str) -> str:
    if name == "mc.pre_per_fixpoint":
        return "pre/fixpoint"
    return "s" if name.endswith(("_s", ".s")) else "count"


@dataclass(frozen=True)
class Record:
    """``seconds`` is wall time; ``scaled`` is that time on the reference
    host of ``yardstick.py``."""

    id: str
    seconds: float
    scaled: float
    verdict: str  # "SAT", "UNSAT", "timeout" or "error"
    decisions: int = 0
    conflicts: int = 0
    theory_checks: int = 0
    witness: Model | None = None

    @property
    def ok(self) -> bool:
        return self.verdict in ("SAT", "UNSAT")

    def signature(self) -> str:
        """What must repeat exactly between passes of the same code."""
        text = f"{self.verdict} decisions={self.decisions} conflicts={self.conflicts} " \
               f"theory_checks={self.theory_checks}"
        if self.witness is not None:
            bits = encode_model(self.witness).to_string().encode()
            text += f" witness={hashlib.sha256(bits).hexdigest()[:12]}"
        return text


def solve_once(inst: Instance, deadline: float, tracer: Tracer | None) -> Record:
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        return Record(inst.id, 0.0, 0.0, "timeout")
    config = replace(inst.config, time_limit=min(INSTANCE_LIMIT_S, remaining))
    if tracer is not None:
        tracer.instance = inst.id
    gc.collect()  # garbage of the previous solve is not this one's cost
    before = yardstick.seconds()
    result, verdict = None, "timeout"
    start = time.perf_counter()
    try:
        result = atlsat.solve_satisfiability(inst.formula, inst.req, config)
        verdict = "SAT" if result.satisfiable else "UNSAT"
    except SolveTimeout:
        pass
    except Exception:  # a crash fails this instance, the run reports it
        traceback.print_exc(file=sys.stderr)
        verdict = "error"
    seconds = time.perf_counter() - start
    scaled = seconds * yardstick.scale(before, yardstick.seconds())
    if result is None:
        return Record(inst.id, seconds, scaled, verdict)
    s = result.stats
    return Record(inst.id, seconds, scaled, verdict,
                  s.decisions, s.conflicts, s.theory_checks, result.witness)


def timed_passes(instances, seconds: float, min_passes: int, deadline: float,
                 tracer: Tracer | None = None) -> tuple[list[list[Record]], list[float]]:
    passes, pass_s = [], []
    t0 = time.perf_counter()
    while True:
        start = time.perf_counter()
        passes.append([solve_once(inst, deadline, tracer) for inst in instances])
        pass_s.append(time.perf_counter() - start)
        now = time.perf_counter()
        if now >= deadline:
            break
        if len(passes) >= min_passes and now - t0 + statistics.fmean(pass_s) > seconds:
            break
    return passes, pass_s


def tail_rank(instance_count: int, min_passes: int) -> int:
    """1-based rank, among the instances ordered by median solve time, of
    the slowest one whose slower instances still give TAIL_BEYOND samples
    at the workload's minimum pass count.  Fixed per workload, so the tail
    names the same instance however many passes fit in a run."""
    r = instance_count - -(-TAIL_BEYOND // min_passes)
    if r < median_rank(instance_count):
        raise ValueError(f"{instance_count} instances x {min_passes} passes leave no tail")
    return r


def median_rank(instance_count: int) -> int:
    return (instance_count + 1) // 2


def check(instances: list[Instance], passes: list[list[Record]],
          reference: dict[str, str] | None = None) -> tuple[list[str], set[str]]:
    """Problems found, and the ids of instances whose verdict is wrong.
    Checks determinism between passes (and against ``reference``, the
    signatures of another process), the expected verdicts and each SAT
    witness."""
    problems, wrong = [], set()
    for i, inst in enumerate(instances):
        done = [p[i] for p in passes if p[i].ok]
        if not done:
            continue
        signatures = {r.signature() for r in done}
        if reference is not None and inst.id in reference:
            signatures.add(reference[inst.id])
        if len(signatures) > 1:
            problems.append(f"{inst.id}: differs between repetitions: {sorted(signatures)}")
        first = done[0]
        if (first.verdict == "SAT") != inst.expect_sat:
            problems.append(f"{inst.id}: wrong verdict {first.verdict}")
            wrong.add(inst.id)
        elif first.witness is not None:
            errors = witness_errors(first.witness, inst.formula, inst.req)
            if errors:
                problems.append(f"{inst.id}: witness rejected: {'; '.join(errors)}")
                wrong.add(inst.id)
    return problems, wrong


def instance_times(passes: list[list[Record]]) -> list[float]:
    """Each instance's mean scaled time over the passes that decided it,
    in instance order; an instance never decided counts as the time limit.
    Scaled samples scatter evenly about their centre, where the mean of a
    handful varies less than their median."""
    times = []
    for i in range(len(passes[0])):
        done = [p[i].scaled for p in passes if p[i].ok]
        times.append(statistics.fmean(done) if done else INSTANCE_LIMIT_S)
    return times


def wall_share(passes: list[list[Record]]) -> float:
    """Scaled over wall time, summed over every timed solve."""
    records = [r for p in passes for r in p]
    return sum(r.scaled for r in records) / max(sum(r.seconds for r in records), 1e-9)


def count_failed(passes: list[list[Record]], wrong: set[str]) -> tuple[int, int]:
    records = [r for p in passes for r in p]
    return len(records), sum(1 for r in records if not r.ok or r.id in wrong)


def setup_seconds(args) -> float:
    """Median time from starting a fresh process to its first solve being
    ready: interpreter start, imports, formula building, requirements.
    Scaled like solve times, by yardstick runs on either side."""
    samples = []
    for _ in range(SETUP_PROBES):
        before = yardstick.seconds()
        start = time.perf_counter()
        with subprocess.Popen(_child_argv(args, "setup"), stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            seconds = time.perf_counter() - start
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError("setup probe failed")
        samples.append(seconds * yardstick.scale(before, yardstick.seconds()))
    return statistics.median(samples)


def _child_argv(args, role: str, seconds: float | None = None) -> list[str]:
    return [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(seconds or args.seconds),
            "--trace", "0", "--role", role]


def print_records(instances: list[Instance], passes: list[list[Record]]) -> None:
    for i, inst in enumerate(instances):
        print(f"instance {inst.id}: {passes[0][i].signature()}")


def emit(correct: bool, attempted: int, failed: int, metrics: dict, units) -> None:
    for name, value in metrics.items():
        print(f"metric {name} = {value} {units(name)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units(name)} for name, value in metrics.items()},
    }))


def run_untraced(args, instances, deadline) -> None:
    workload = WORKLOADS[args.workload]
    setup_s = setup_seconds(args)
    passes, pass_s = timed_passes(instances, args.seconds, workload.min_passes, deadline)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems, wrong = check(instances, passes)
    attempted, failed = count_failed(passes, wrong)
    per_instance = instance_times(passes)
    times = sorted(per_instance)
    tail = tail_rank(len(instances), workload.min_passes)
    print_records(instances, passes)
    for problem in problems:
        print(f"problem {problem}")
    print(f"passes {len(passes)} taking {' '.join(f'{t:.3f}' for t in pass_s)} s of wall time; "
          f"scaled time is {wall_share(passes):.3f} of it")
    print(f"solve_s.tail is p{100 * tail / len(times):.1f} of {len(times)} instance means, "
          f"with {(len(times) - tail) * len(passes)} solve samples beyond it")
    emit(not problems, attempted, failed, {
        "suite_s": sum(per_instance),
        "solve_s.p50": times[median_rank(len(times)) - 1],
        "solve_s.tail": times[tail - 1],
        "verdict_frac": (attempted - failed) / attempted,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
    }, END_TO_END_UNITS.__getitem__)


def run_child(args, instances, deadline) -> None:
    """The untraced half of a traced run, in its own process."""
    passes, _ = timed_passes(instances, args.seconds, 1, deadline)
    attempted, failed = count_failed(passes, set())
    print(json.dumps({
        "suite_s": sum(instance_times(passes)),
        "attempted": attempted,
        "failed": failed,
        "signatures": {r.id: r.signature() for r in passes[0] if r.ok},
    }))


def run_traced(args, instances, deadline) -> None:
    half = args.seconds / 2
    child = subprocess.run(_child_argv(args, "untraced", half), capture_output=True,
                           text=True, timeout=max(1.0, deadline - time.perf_counter()))
    if child.returncode != 0:
        sys.stderr.write(child.stderr)
        raise RuntimeError("untraced child run failed")
    untraced = json.loads(child.stdout.strip().splitlines()[-1])

    tracer = Tracer()
    with installed(tracer):
        passes, _ = timed_passes(instances, half, 1, deadline, tracer)
    for name in tracer.missing:
        print(f"note: {name} no longer exists; its metrics read zero", file=sys.stderr)

    problems, wrong = check(instances, passes, untraced["signatures"])
    attempted, failed = count_failed(passes, wrong)
    first = [r for r in passes[0] if r.ok]
    counts = {k: sum(getattr(r, k) for r in first) for k in ("decisions", "conflicts", "theory_checks")}
    core_nodes = sum(1 for inst in instances for _ in iter_subformulas(atlsat.normalize(inst.formula)))
    # Span times are wall time; the run's mean factor puts them on the
    # reference host with suite_s.
    metrics = layer_metrics(tracer, len(passes), counts, core_nodes, wall_share(passes),
                            sum(instance_times(passes)), untraced["suite_s"])

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps({
        "passes": len(passes),
        "spans": [{"instance": inst, "key": key, "calls": c, "total_s": t, "self_s": s}
                  for (inst, key), (c, t, s) in sorted(tracer.spans.items())],
        "counters": dict(tracer.counters),
        "missing": tracer.missing,
    }, indent=1))

    print_records(instances, passes)
    for problem in problems:
        print(f"problem {problem}")
    emit(not problems and untraced["failed"] == 0, attempted + untraced["attempted"],
         failed + untraced["failed"], metrics, per_layer_unit)


def main(argv=None) -> int:
    started = time.perf_counter()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("main", "setup", "untraced"), default="main",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    instances = build_instances(args.workload, args.seed)
    if args.role == "setup":
        print("ready", flush=True)
        return 0
    deadline = started + RUN_DEADLINE_S
    if args.role == "untraced":
        run_child(args, instances, deadline)
    elif args.trace:
        run_traced(args, instances, deadline)
    else:
        run_untraced(args, instances, deadline)
    return 0


if __name__ == "__main__":
    sys.exit(main())
