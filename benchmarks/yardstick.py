"""A fixed amount of interpreter work that every timing is scaled by.

The benchmark runs on a shared host whose speed changes by up to a factor
of two over periods from a fraction of a second to minutes, for the solver
and any other code alike.  So each timed solve is bracketed by two runs of
:func:`seconds`, and the solve time is reported as it would read on a host
where this routine takes ``REFERENCE_S``: measured seconds times
``REFERENCE_S`` over the mean of the two yardstick times (:func:`scale`).
A change to the program moves the solve time and not the yardstick, so it
shows in full.

The work resembles the solver's: unit propagation over a clause list with
a per-literal method call, and product-enumerated successor bitmasks.  It is
frozen: changing it, or ``REFERENCE_S``, changes the unit of every timing
the benchmark reports, so results before and after such a change do not
compare.
"""

from __future__ import annotations

import random
import time
from itertools import product

# About the routine's time at its fastest on a shared 2.1 GHz Xeon host
# under CPython 3.11.
REFERENCE_S = 0.003

_VARS = 60
_rng = random.Random(5)
_CLAUSES = tuple(
    tuple(_rng.choice((1, -1)) * _rng.randint(1, _VARS) for _ in range(3)) for _ in range(150)
)
_RADIX = (2, 2, 2, 2)
_COALITION = (0, 1)


class _Propagator:
    def __init__(self) -> None:
        self.values: list[bool | None] = [None] * (_VARS + 1)

    def lit_value(self, lit: int) -> bool | None:
        v = self.values[abs(lit)]
        if v is None:
            return None
        return v if lit > 0 else not v

    def propagate(self) -> int:
        """Unit-propagate to a fixpoint or a conflict; the number of
        literals assigned."""
        assigned = 0
        changed = True
        while changed:
            changed = False
            for clause in _CLAUSES:
                unassigned = None
                satisfied = False
                for lit in clause:
                    lv = self.lit_value(lit)
                    if lv is True:
                        satisfied = True
                        break
                    if lv is None:
                        if unassigned is None:
                            unassigned = lit
                        else:
                            unassigned = 0
                            break
                if satisfied:
                    continue
                if unassigned is None:
                    return assigned
                if unassigned != 0:
                    self.values[abs(unassigned)] = unassigned > 0
                    assigned += 1
                    changed = True
        return assigned


def _successor_masks() -> int:
    weights = [1]
    for r in _RADIX[:0:-1]:
        weights.insert(0, weights[0] * r)
    others = [i for i in range(len(_RADIX)) if i not in _COALITION]
    count = 0
    for _ in product(*(range(r) for r in _RADIX)):
        coal_opts = [range(_RADIX[i]) for i in _COALITION]
        other_opts = [range(_RADIX[i]) for i in others]
        for choice in product(*coal_opts):
            base = sum(a * weights[i] for i, a in zip(_COALITION, choice))
            m = 0
            for completion in product(*other_opts):
                m |= 1 << (base + sum(a * weights[i] for i, a in zip(others, completion)))
            count += m.bit_count()
    return count


def work() -> int:
    total = 0
    for k in range(24):
        p = _Propagator()
        for v in range(1, _VARS, 7):
            p.values[v] = (v * k) % 2 == 0
        total += p.propagate()
    for _ in range(6):
        total += _successor_masks()
    return total


def seconds() -> float:
    """Wall time of one run of the fixed work."""
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor from seconds measured between yardstick runs taking ``before``
    and ``after`` seconds to seconds on the reference host."""
    return REFERENCE_S / ((before + after) / 2)
