"""Per-layer tracing from outside the program.

:func:`installed` wraps public functions of each ``atlsat`` module in spans
and restores the originals on exit.  Spans nest like the calls they wrap:
each records its name, start, end, parent span and the instance being
solved.  Closed spans are folded into per-(instance, key) aggregates of call
count, total time and self time, where self time is the span's time minus
the time its child spans cover.  Calls are synchronous, so children never
overlap and the covered time is the sum of their durations.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

# (layer, its metrics, the end-to-end metric it should move and where).
# Performance claims cite these rows by layer name.
LAYER_MAP = (
    ("solver", ("solver.self_s", "solver.decisions", "solver.conflicts", "solver.theory_checks"),
     "suite_s on refute-bool; under 5% of sweep"),
    ("solver.minimize", ("solver.minimize.calls", "solver.minimize.s", "solver.minimize.rechecks",
                         "solver.minimize.lits_in", "solver.minimize.lits_out"),
     "suite_s on refute-theory; zero calls on sweep and refute-bool"),
    ("approx", ("approx.over.calls", "approx.over.s", "approx.under.calls", "approx.under.s",
                "approx.self_s", "approx.from_assignment.calls", "approx.from_assignment.s"),
     "solve_s.p50 on refute-theory and sweep"),
    ("mas", ("mas.structures_built", "mas.choice_masks.calls", "mas.choice_masks.builds",
             "mas.choice_masks.s"),
     "suite_s on sweep; zero on refute-bool"),
    ("mc", ("mc.fixpoint.calls", "mc.fixpoint.s", "mc.pre.calls", "mc.pre.self_s",
            "mc.pre_per_fixpoint", "mc.recheck_s"),
     "suite_s on sweep; zero on refute-bool"),
    ("formula", ("formula.normalize.s", "formula.core_nodes"),
     "approx.self_s on sweep"),
    ("tracer", ("trace.suite_s", "trace.overhead_s"), "none"),
)
PER_LAYER_METRICS = tuple(name for _, names, _ in LAYER_MAP for name in names)


@dataclass
class _Frame:
    name: str
    key: str
    start: float
    parent: "_Frame | None"
    instance: str | None
    child_s: float = 0.0


class Tracer:
    """Open spans as a stack, closed spans as aggregates."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.instance: str | None = None
        self.top: _Frame | None = None
        self.open: Counter[str] = Counter()
        # (instance, key) -> [calls, total seconds, self seconds]
        self.spans: defaultdict[tuple, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: Counter[str] = Counter()
        self.missing: list[str] = []

    def enter(self, name: str, key: str | None = None) -> None:
        self.top = _Frame(name, key or name, self.clock(), self.top, self.instance)
        self.open[name] += 1

    def exit(self) -> None:
        frame = self.top
        duration = self.clock() - frame.start
        self.top = frame.parent
        if frame.parent is not None:
            frame.parent.child_s += duration
        self.open[frame.name] -= 1
        agg = self.spans[(frame.instance, frame.key)]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - frame.child_s

    def by_key(self) -> dict[str, list]:
        """Aggregates summed over instances."""
        out: defaultdict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for (_, key), (calls, total, own) in self.spans.items():
            agg = out[key]
            agg[0] += calls
            agg[1] += total
            agg[2] += own
        return dict(out)


# Span keys carry the context a metric needs: sapp calls made while
# minimizing a conflict, and pre-images taken for the witness re-check.
def _sapp_key(tracer: Tracer, args, kwargs) -> str:
    mode = kwargs.get("mode", args[2] if len(args) > 2 else None)
    key = f"sapp.{getattr(mode, 'value', mode)}"
    return "minimize/" + key if tracer.open["minimize"] else key


def _pre_key(tracer: Tracer, args, kwargs) -> str:
    return "recheck/pre" if tracer.open["recheck"] else "pre"


def _choice_masks_key(tracer: Tracer, args, kwargs) -> str:
    structure = args[0]
    coalition = args[1] if len(args) > 1 else kwargs["coalition"]
    cache = getattr(structure, "_choice_masks", None)
    if cache is None or tuple(coalition) not in cache:
        tracer.counters["choice_masks.builds"] += 1
    return "choice_masks"


def _count_lits(tracer: Tracer, args, result) -> None:
    tracer.counters["minimize.lits_in"] += len(args[0])
    tracer.counters["minimize.lits_out"] += len(result)


# (module, class or None, attribute, span name, key function, result hook)
TARGETS = (
    # The benchmark calls the package's re-export of solve_satisfiability.
    ("atlsat", None, "solve_satisfiability", "solve", None, None),
    ("atlsat.solver", None, "solve_satisfiability", "solve", None, None),
    ("atlsat.solver", None, "sapp", "sapp", _sapp_key, None),
    ("atlsat.solver", None, "minimize_conflict", "minimize", None, _count_lits),
    ("atlsat.solver", None, "normalize", "normalize", None, None),
    ("atlsat.solver", None, "check_validity", "recheck", None, None),
    ("atlsat.approx", "PartialModel", "from_assignment", "from_assignment", None, None),
    ("atlsat.approx", None, "solve_next", "fixpoint", None, None),
    ("atlsat.approx", None, "solve_globally", "fixpoint", None, None),
    ("atlsat.approx", None, "solve_until", "fixpoint", None, None),
    ("atlsat.mc", None, "atl_pre", "pre", _pre_key, None),
    ("atlsat.mas", "TransitionStructure", "__init__", "structure", None, None),
    ("atlsat.mas", "TransitionStructure", "choice_masks", "choice_masks", _choice_masks_key, None),
)


def _wrap(tracer: Tracer, fn: Callable, name: str, key_fn, hook) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name, key_fn(tracer, args, kwargs) if key_fn else None)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if hook is not None:
            hook(tracer, args, result)
        return result

    return wrapper


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target that exists; restore all of them on exit.  A
    target a later version of the program no longer has is listed in
    ``tracer.missing`` and its metrics read zero."""
    restore = []
    try:
        for module, cls, attr, name, key_fn, hook in TARGETS:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                tracer.missing.append(f"{module}.{cls + '.' if cls else ''}{attr}")
                continue
            if isinstance(original, classmethod):
                wrapped = classmethod(_wrap(tracer, original.__func__, name, key_fn, hook))
            else:
                wrapped = _wrap(tracer, original, name, key_fn, hook)
            restore.append((owner, attr, original))
            setattr(owner, attr, wrapped)
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, passes: int, search_counts: dict[str, int],
                  core_nodes: int, time_scale: float, traced_suite_s: float,
                  untraced_suite_s: float) -> dict:
    """Every per-layer metric, per pass over the workload.  ``search_counts``
    holds the summed ``SolverStats`` counts of one pass; span times are
    multiplied by ``time_scale``."""
    agg = tracer.by_key()

    def calls(*keys):
        return sum(agg.get(k, (0, 0.0, 0.0))[0] for k in keys) / passes

    def total(*keys):
        return sum(agg.get(k, (0, 0.0, 0.0))[1] for k in keys) * time_scale / passes

    def own(*keys):
        return sum(agg.get(k, (0, 0.0, 0.0))[2] for k in keys) * time_scale / passes

    sapp_keys = ("sapp.over", "sapp.under", "minimize/sapp.over", "minimize/sapp.under")
    fixpoints = calls("fixpoint")
    values = {
        "solver.self_s": own("solve"),
        "solver.decisions": search_counts["decisions"],
        "solver.conflicts": search_counts["conflicts"],
        "solver.theory_checks": search_counts["theory_checks"],
        "solver.minimize.calls": calls("minimize"),
        "solver.minimize.s": total("minimize"),
        "solver.minimize.rechecks": calls("minimize/sapp.over", "minimize/sapp.under"),
        "solver.minimize.lits_in": tracer.counters["minimize.lits_in"] / passes,
        "solver.minimize.lits_out": tracer.counters["minimize.lits_out"] / passes,
        "approx.over.calls": calls("sapp.over"),
        "approx.over.s": total("sapp.over"),
        "approx.under.calls": calls("sapp.under"),
        "approx.under.s": total("sapp.under"),
        "approx.self_s": own(*sapp_keys),
        "approx.from_assignment.calls": calls("from_assignment"),
        "approx.from_assignment.s": total("from_assignment"),
        "mas.structures_built": calls("structure"),
        "mas.choice_masks.calls": calls("choice_masks"),
        "mas.choice_masks.builds": tracer.counters["choice_masks.builds"] / passes,
        "mas.choice_masks.s": total("choice_masks"),
        "mc.fixpoint.calls": fixpoints,
        "mc.fixpoint.s": total("fixpoint"),
        "mc.pre.calls": calls("pre", "recheck/pre"),
        "mc.pre.self_s": own("pre", "recheck/pre"),
        "mc.pre_per_fixpoint": calls("pre") / fixpoints if fixpoints else 0.0,
        "mc.recheck_s": total("recheck"),
        "formula.normalize.s": total("normalize"),
        "formula.core_nodes": core_nodes,
        "trace.suite_s": traced_suite_s,
        "trace.overhead_s": traced_suite_s - untraced_suite_s,
    }
    return {name: values[name] for name in PER_LAYER_METRICS}
