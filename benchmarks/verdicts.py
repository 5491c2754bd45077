"""Independent verdict check, run outside the timed region.

A SAT witness is re-checked against the requirements' pinned cells, read
straight from the witness tables, and by evaluating the formula with the
enumeration pre-image and fixpoints of ``tests/oracles.py``.  No code of
``atlsat.mc`` or ``atlsat.approx`` takes part.
"""

from __future__ import annotations

from atlsat import And, Formula, Globally, Model, Next, Not, Prop, Requirements, Until, normalize
from oracles import fixpoint_globally, fixpoint_until, oracle_pre


def oracle_eval(m: Model, f: Formula) -> int:
    """Satisfaction set of a core formula, as a state bitmask."""
    if isinstance(f, Prop):
        return sum(1 << s for s, row in enumerate(m.valuation) if row[f.index])
    if isinstance(f, Not):
        return ((1 << m.shape.state_count) - 1) & ~oracle_eval(m, f.child)
    if isinstance(f, And):
        return oracle_eval(m, f.left) & oracle_eval(m, f.right)
    members = f.coalition.members
    if isinstance(f, Next):
        return oracle_pre(m, members, oracle_eval(m, f.child))
    if isinstance(f, Globally):
        return fixpoint_globally(m, members, oracle_eval(m, f.child))
    if isinstance(f, Until):
        return fixpoint_until(m, members, oracle_eval(m, f.left), oracle_eval(m, f.right))
    raise TypeError(f"not a core formula: {f!r}")


def witness_errors(witness: Model, f: Formula, req: Requirements) -> list[str]:
    """Why the witness is not a model of the formula within the
    requirements; empty when it is one."""
    if witness.shape != req.shape:
        return [f"witness shape {witness.shape} is not the required {req.shape}"]
    errors = []
    for agent, local, action, value in req.cp_constraints:
        if int(witness.protocols[agent][local][action]) != value:
            errors.append(f"protocol cell ({agent},{local},{action}) is not the pinned {value}")
    for state, prop, value in req.cv_constraints:
        if int(witness.valuation[state][prop]) != value:
            errors.append(f"valuation cell ({state},{prop}) is not the pinned {value}")
    for agent, table in enumerate(witness.protocols):
        for local, row in enumerate(table):
            if not any(row):
                errors.append(f"agent {agent} has no action at local state {local}")
    if errors:
        return errors
    if not oracle_eval(witness, normalize(f)) >> req.shape.initial_state & 1:
        errors.append("formula fails at the initial state under the oracle")
    return errors
