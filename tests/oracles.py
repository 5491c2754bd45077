"""Independent reference implementations used to check the production code.

Everything here recomputes results from first principles: pre-images by
enumerating joint actions through ``successors``, strategic operators by
enumerating memoryless strategies and inspecting outcome paths (with lasso
detection for until) or as fixpoints of that pre-image, and model families
by exhaustive enumeration of protocol-valid bit vectors.  None of it shares
code with the fixpoint checker or the approximation machinery it validates.
"""

from __future__ import annotations

import itertools

from atlsat.formula import And, Coalition, Formula, Globally, Next, Not, Prop, Until
from atlsat.mas import (
    Assignment,
    Model,
    ModelShape,
    decode_model,
    state_locals,
    successors,
)


def oracle_pre(m: Model, coalition, x: int) -> int:
    """Joint-action enumeration of the coalition pre-image."""
    shape = m.shape
    coal = tuple(coalition)
    result = 0
    for s in range(shape.state_count):
        locs = state_locals(shape, s)
        coal_opts = [m.enabled[i][locs[i]] for i in coal]
        for choice in itertools.product(*coal_opts):
            compatible = [
                t
                for joint, t in successors(m, s)
                if all(joint[i] == a for i, a in zip(coal, choice))
            ]
            if compatible and all(x >> t & 1 for t in compatible):
                result |= 1 << s
                break
    return result


def _strategy_wins(succ: list[list[int]], op: str, s: int, x1: int, x2: int | None) -> bool:
    if op == "X":
        return bool(succ[s]) and all(x1 >> t & 1 for t in succ[s])
    if op == "G":
        if not x1 >> s & 1:
            return False
        seen = {s}
        stack = [s]
        while stack:
            u = stack.pop()
            for t in succ[u]:
                if not x1 >> t & 1:
                    return False
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        return True
    assert op == "U"
    if x2 >> s & 1:
        return True
    if not x1 >> s & 1:
        return False
    # Collect states reachable without passing through x2; fail on an x1
    # violation or on any cycle (an outcome path avoiding x2 forever).
    reach = {s}
    stack = [s]
    while stack:
        u = stack.pop()
        for t in succ[u]:
            if x2 >> t & 1:
                continue
            if not x1 >> t & 1:
                return False
            if t not in reach:
                reach.add(t)
                stack.append(t)
    color: dict[int, int] = {}

    def has_cycle(u: int) -> bool:
        color[u] = 1
        for t in succ[u]:
            if x2 >> t & 1:
                continue
            c = color.get(t, 0)
            if c == 1:
                return True
            if c == 0 and has_cycle(t):
                return True
        color[u] = 2
        return False

    return not any(has_cycle(u) for u in reach if color.get(u, 0) == 0)


def oracle_strategic(m: Model, coalition, op: str, x1: int, x2: int | None = None) -> int:
    """States where some memoryless strategy of the coalition enforces the
    temporal goal on every outcome path."""
    shape = m.shape
    coal = tuple(coalition)
    per_state = []
    for s in range(shape.state_count):
        locs = state_locals(shape, s)
        per_state.append(list(itertools.product(*(m.enabled[i][locs[i]] for i in coal))))
    result = 0
    for sigma in itertools.product(*per_state):
        succ = []
        for s in range(shape.state_count):
            outs = sorted(
                {
                    t
                    for joint, t in successors(m, s)
                    if all(joint[i] == a for i, a in zip(coal, sigma[s]))
                }
            )
            succ.append(outs)
        for s in range(shape.state_count):
            if not result >> s & 1 and _strategy_wins(succ, op, s, x1, x2):
                result |= 1 << s
    return result


def strategy_count(m: Model, coalition) -> int:
    shape = m.shape
    coal = tuple(coalition)
    total = 1
    for s in range(shape.state_count):
        locs = state_locals(shape, s)
        k = 1
        for i in coal:
            k *= len(m.enabled[i][locs[i]])
        total *= k
    return total


def oracle_solve(m: Model, f: Formula) -> int:
    """Strategy-enumeration semantics of a core formula."""
    full = (1 << m.shape.state_count) - 1
    if isinstance(f, Prop):
        return m.prop_masks[f.index]
    if isinstance(f, Not):
        return full & ~oracle_solve(m, f.child)
    if isinstance(f, And):
        return oracle_solve(m, f.left) & oracle_solve(m, f.right)
    if isinstance(f, Next):
        return oracle_strategic(m, f.coalition, "X", oracle_solve(m, f.child))
    if isinstance(f, Globally):
        return oracle_strategic(m, f.coalition, "G", oracle_solve(m, f.child))
    if isinstance(f, Until):
        return oracle_strategic(
            m, f.coalition, "U", oracle_solve(m, f.left), oracle_solve(m, f.right)
        )
    raise TypeError(f"not core: {f!r}")


def oracle_check_validity(m: Model, f: Formula) -> bool:
    return bool(oracle_solve(m, f) >> m.shape.initial_state & 1)


def fixpoint_globally(m: Model, coalition, x: int) -> int:
    """Direct greatest-fixpoint recomputation, using the enumeration
    pre-image rather than the production one."""
    y = x
    while True:
        y2 = x & oracle_pre(m, coalition, y)
        if y2 == y:
            return y
        y = y2


def fixpoint_until(m: Model, coalition, x1: int, x2: int) -> int:
    y = x2
    while True:
        y2 = x2 | (x1 & oracle_pre(m, coalition, y))
        if y2 == y:
            return y
        y = y2


def oracle_fixpoint_solve(m: Model, f: Formula) -> int:
    """Fixpoint semantics of a core formula over the enumeration pre-image:
    :func:`oracle_pre`, :func:`fixpoint_globally` and :func:`fixpoint_until`.
    Its cost grows with the joint actions, not with the strategies, so it
    checks models whose rows are too wide for :func:`oracle_solve`."""
    if isinstance(f, Prop):
        return m.prop_masks[f.index]
    if isinstance(f, Not):
        return ((1 << m.shape.state_count) - 1) & ~oracle_fixpoint_solve(m, f.child)
    if isinstance(f, And):
        return oracle_fixpoint_solve(m, f.left) & oracle_fixpoint_solve(m, f.right)
    if isinstance(f, Next):
        return oracle_pre(m, f.coalition, oracle_fixpoint_solve(m, f.child))
    if isinstance(f, Globally):
        return fixpoint_globally(m, f.coalition, oracle_fixpoint_solve(m, f.child))
    if isinstance(f, Until):
        return fixpoint_until(m, f.coalition, oracle_fixpoint_solve(m, f.left),
                              oracle_fixpoint_solve(m, f.right))
    raise TypeError(f"not core: {f!r}")


def row_choices(width: int) -> list[tuple[int, ...]]:
    """All nonempty 0/1 rows of the given width."""
    return [
        tuple(c >> j & 1 for j in range(width)) for c in range(1, 2**width)
    ]


def enumerate_models(shape: ModelShape):
    """Every protocol-valid total model of the shape, as Model objects."""
    per_agent_tables = []
    for n in shape.locals_per_agent:
        rows = row_choices(n)
        per_agent_tables.append([tuple(t) for t in itertools.product(rows, repeat=n)])
    vb_cells = shape.state_count * shape.prop_count
    for protocol_combo in itertools.product(*per_agent_tables):
        for vbits in range(2**vb_cells):
            valuation = tuple(
                tuple(vbits >> (s * shape.prop_count + v) & 1 for v in range(shape.prop_count))
                for s in range(shape.state_count)
            )
            yield Model(shape, protocol_combo, valuation)


def compatible_completions(pm) -> list[Model]:
    """All total models agreeing with a partial model's determined cells."""
    asg = Assignment(pm.shape, tuple(pm.cells))
    undef = [i for i, b in enumerate(asg.bits) if b is None]
    models = []
    for combo in itertools.product((0, 1), repeat=len(undef)):
        bits = list(asg.bits)
        for i, v in zip(undef, combo):
            bits[i] = v
        try:
            models.append(decode_model(Assignment(pm.shape, tuple(bits))))
        except ValueError:
            continue  # an empty protocol row; not a valid completion
    return models
