"""Acceptance suite: every release criterion, each printing one verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.  The criteria are ordered and each enforces its own
time budget; all expected values come from independent recomputation
(exhaustive enumeration, strategy semantics, direct fixpoints) inside this
module or the shared oracle helpers.
"""

import itertools
import json
import random
import time

from atlsat.approx import Mode, PartialModel, check_validity, is_compatible, sapp, solve_formula
from atlsat.formula import (
    And,
    Coalition,
    GenParams,
    Globally,
    Next,
    Not,
    Prop,
    Until,
    connective_count,
    generate_random_formula,
    normalize,
    parse_formula,
    strategic_depth,
)
from atlsat.mas import Assignment, Model, ModelShape, decode_model, encode_model
from atlsat.mc import solve_op
from atlsat.solver import Requirements, SolverConfig, solve_satisfiability
from oracles import compatible_completions, enumerate_models
from samplers import TINY_SHAPES, random_core_formula, random_model, random_partial_model


def report(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


# Criterion 1: the fixed formula suite for the exhaustive 12-cell family.
CRIT1_SHAPE = ModelShape([2, 2], [0, 0], 1)
CRIT1_FORMULAS = [
    "p0",
    "!p0",
    "p0 & !p0",
    "true",
    "false",
    "<<>> X p0",
    "<<0>> X !p0",
    "<<1>> X p0",
    "<<0,1>> X p0",
    "<<0>> G p0",
    "<<>> G !p0",
    "<<0,1>> G p0",
    "<<1>> (p0 U !p0)",
    "<<0>> F !p0",
    "<<0,1>> F p0 & <<0,1>> F !p0",
    "<<0>> G p0 & <<1>> F !p0",
    "<<0>> X (p0 & <<1>> X !p0)",
    "!<<0>> G p0",
    "<<0>> X <<1>> X <<0,1>> X p0",
    "<<>> G (p0 -> <<0>> X !p0)",
]


def crit1_report() -> list[dict]:
    req = Requirements(CRIT1_SHAPE)
    models = list(enumerate_models(CRIT1_SHAPE))
    rows = []
    for text in CRIT1_FORMULAS:
        f = parse_formula(text)
        core = normalize(f)
        exists = any(check_validity(m, core) for m in models)
        result = solve_satisfiability(f, req)
        rows.append(
            {
                "formula": text,
                "oracle_exists": exists,
                "verdict": "SAT" if result.satisfiable else "UNSAT",
                "decisions": result.stats.decisions,
                "conflicts": result.stats.conflicts,
                "theory_checks": result.stats.theory_checks,
            }
        )
    return rows


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    rows = crit1_report()
    mismatches = [
        r for r in rows if (r["verdict"] == "SAT") != r["oracle_exists"]
    ]
    elapsed = time.perf_counter() - start
    report(
        "1 oracle equivalence",
        not mismatches and elapsed < 300,
        f"{len(rows)} formulas, {len(mismatches)} mismatches, {elapsed:.1f}s",
    )


def test_criterion_2_sandwich():
    start = time.perf_counter()
    rng = random.Random(2024)
    shapes = [s for s in TINY_SHAPES if s.prop_count > 0]
    violations = 0
    pairs = 0
    while pairs < 1000:
        shape = rng.choice(shapes)
        assert shape.bit_count <= 14
        pm = random_partial_model(rng, shape, max_undef=8)
        f = random_core_formula(rng, shape.agent_count, shape.prop_count, rng.randint(1, 2))
        under = sapp(pm, f, Mode.UNDER)
        over = sapp(pm, f, Mode.OVER)
        for m in compatible_completions(pm):
            exact = solve_formula(m, f)
            if under & ~exact or exact & ~over:
                violations += 1
        pairs += 1
    elapsed = time.perf_counter() - start
    report(
        "2 sandwich",
        violations == 0 and elapsed < 600,
        f"{pairs} pairs, {violations} violations, {elapsed:.1f}s",
    )


def _flip(m: Model, bit: int, value: int) -> Model:
    bits = list(encode_model(m).bits)
    bits[bit] = value
    return decode_model(Assignment(m.shape, tuple(bits)))


def test_criterion_3_monotonicity_suites():
    start = time.perf_counter()
    shape = ModelShape([2, 2], [0, 0], 2)
    violations = {}

    def strategic_forms(c):
        return [Next(c, Prop(0)), Globally(c, Prop(0)), Until(c, Prop(0), Prop(1))]

    # Valuation cell turned on never shrinks negation-free results.
    rng = random.Random(31)
    bad = 0
    done = 0
    while done < 1000:
        m = random_model(rng, shape)
        c = Coalition(sorted(rng.sample(range(2), rng.randint(0, 2))))
        f = rng.choice([Prop(0), And(Prop(0), Prop(1))] + strategic_forms(c))
        zeros = [shape.vb_bit(s, v) for s in range(4) for v in range(2) if not m.valuation[s][v]]
        if not zeros:
            continue
        if solve_formula(m, f) & ~solve_formula(_flip(m, rng.choice(zeros), 1), f):
            bad += 1
        done += 1
    violations["valuation up"] = bad

    # Valuation cell turned off never shrinks a negated atom's result.
    rng = random.Random(32)
    bad = 0
    done = 0
    while done < 1000:
        m = random_model(rng, shape)
        ones = [shape.vb_bit(s, v) for s in range(4) for v in range(2) if m.valuation[s][v]]
        if not ones:
            continue
        if solve_formula(m, Not(Prop(0))) & ~solve_formula(_flip(m, rng.choice(ones), 0), Not(Prop(0))):
            bad += 1
        done += 1
    violations["valuation down, negation"] = bad

    # Propositional forms never see protocol flips.
    rng = random.Random(33)
    bad = 0
    done = 0
    while done < 1000:
        m = random_model(rng, shape)
        f = rng.choice([Prop(0), Not(Prop(0)), And(Prop(0), Prop(1))])
        agent, local, action = rng.randrange(2), rng.randrange(2), rng.randrange(2)
        current = m.protocols[agent][local][action]
        if current and sum(m.protocols[agent][local]) == 1:
            continue
        flipped = _flip(m, shape.tb_bit(agent, local, action), 0 if current else 1)
        if solve_formula(m, f) != solve_formula(flipped, f):
            bad += 1
        done += 1
    violations["protocol flips, propositional"] = bad

    # Extra coalition action never shrinks strategic results.
    rng = random.Random(34)
    bad = 0
    done = 0
    while done < 1000:
        m = random_model(rng, shape)
        members = sorted(rng.sample(range(2), rng.randint(1, 2)))
        f = rng.choice(strategic_forms(Coalition(members)))
        agent = rng.choice(members)
        zeros = [(l, a) for l in range(2) for a in range(2) if not m.protocols[agent][l][a]]
        if not zeros:
            continue
        local, action = rng.choice(zeros)
        flipped = _flip(m, shape.tb_bit(agent, local, action), 1)
        if solve_formula(m, f) & ~solve_formula(flipped, f):
            bad += 1
        done += 1
    violations["coalition protocol up"] = bad

    # Removing an outsider action never shrinks strategic results.
    rng = random.Random(35)
    bad = 0
    done = 0
    while done < 1000:
        m = random_model(rng, shape)
        members = sorted(rng.sample(range(2), rng.randint(0, 1)))
        outsiders = [i for i in range(2) if i not in members]
        f = rng.choice(strategic_forms(Coalition(members)))
        agent = rng.choice(outsiders)
        ones = [
            (l, a)
            for l in range(2)
            for a in range(2)
            if m.protocols[agent][l][a] and sum(m.protocols[agent][l]) > 1
        ]
        if not ones:
            continue
        local, action = rng.choice(ones)
        flipped = _flip(m, shape.tb_bit(agent, local, action), 0)
        if solve_formula(m, f) & ~solve_formula(flipped, f):
            bad += 1
        done += 1
    violations["outsider protocol down"] = bad

    # Operator evaluation composes exactly like formula evaluation.
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

    rng = random.Random(36)
    bad = 0
    for _ in range(1000):
        m = random_model(rng, shape)
        f = random_core_formula(rng, 2, 2, rng.randint(0, 3))
        if solve_formula(m, f) != compose(m, f):
            bad += 1
    violations["operator composition"] = bad

    # Refining one cell of a partial model keeps the approximation nested.
    rng = random.Random(37)
    bad = 0
    done = 0
    while done < 1000:
        s = rng.choice([t for t in TINY_SHAPES if t.prop_count > 0])
        pm = random_partial_model(rng, s, max_undef=6)
        undef = [i for i, b in enumerate(pm.to_assignment().bits) if b is None]
        if not undef:
            continue
        f = random_core_formula(rng, s.agent_count, s.prop_count, rng.randint(1, 2))
        under, over = sapp(pm, f, Mode.UNDER), sapp(pm, f, Mode.OVER)
        cell = rng.choice(undef)
        try:
            refined = pm.with_cell(cell, rng.randint(0, 1))
        except ValueError:
            refined = pm.with_cell(cell, 1)
        under2, over2 = sapp(refined, f, Mode.UNDER), sapp(refined, f, Mode.OVER)
        if under & ~under2 or over2 & ~over:
            bad += 1
        done += 1
    violations["approximation refinement"] = bad

    elapsed = time.perf_counter() - start
    total = sum(violations.values())
    report(
        "3 monotonicity suites",
        total == 0,
        ", ".join(f"{k}: {v}" for k, v in violations.items()) + f", {elapsed:.1f}s",
    )


def test_criterion_4_non_monotonicity_witness():
    start = time.perf_counter()
    shape = ModelShape([2, 1], [0, 0], 1)
    f = normalize(And(Next(Coalition([0]), Prop(0)), Next(Coalition([0]), Not(Prop(0)))))
    destroyed = created = False
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
            destroyed = destroyed or (base_valid and not flipped_valid)
            created = created or (not base_valid and flipped_valid)
        if destroyed and created:
            break
    elapsed = time.perf_counter() - start
    report(
        "4 non-monotonicity witness",
        destroyed and created and elapsed < 10,
        f"both flip directions found, {elapsed:.2f}s",
    )


def test_criterion_5_worked_example():
    start = time.perf_counter()
    shape = ModelShape([3, 2], [0, 0], 3)
    protocols = (((1, 0, 1), (0, 1, 0), (0, 1, 1)), ((1, 1), (0, 1)))
    valuation = tuple((0, 0, 0) for _ in range(6))
    bits = encode_model(Model(shape, protocols, valuation)).to_string()
    encodings_ok = bits[:9] == "101010011" and bits[9:13] == "1101"

    f = parse_formula(
        "<<0,1>> F (p0 & !p1 & !p2) & <<0>> F (!p0 & p1 & !p2) & <<0,1>> X (!p0 & !p1 & p2)"
    )
    result = solve_satisfiability(f, Requirements(shape))
    witness_ok = result.satisfiable and check_validity(result.witness, normalize(f))
    elapsed = time.perf_counter() - start
    report(
        "5 worked example",
        encodings_ok and witness_ok and elapsed < 10,
        f"protocol cells exact, witness verified, {elapsed:.2f}s",
    )


# Criterion 6: benchmark sweep over increasing strategic depth.  Seeds are
# frozen as the first whose formula hits that row's depth and connective
# targets and is satisfiable at this shape: random formulas of matching size
# are sometimes unsatisfiable, and the sweep measures Sat scaling.
BENCH_SHAPE = ModelShape([2, 2, 2], [0, 0, 0], 3)
BENCH_ROWS = [
    (9, 13, 8),
    (13, 19, 21),
    (17, 25, 24),
    (20, 31, 17),
    (23, 35, 15),
    (26, 41, 21),
    (30, 49, 60),
    (33, 55, 9),
]
BENCH_FORMULA_1 = (
    "<<0>> X (!p0 | <<1>> G (!p1 | <<0,1>> F (!p1 | <<0,1>> F (!p0 | "
    "<<2>> F <<0>> X (!p0 | <<1>> G (!p1 | <<0,1>> G (<<0>> F !p0)))))))"
)


def crit6_report() -> list[dict]:
    req = Requirements(BENCH_SHAPE)
    rows = []
    for depth, con, seed in BENCH_ROWS:
        f = generate_random_formula(GenParams(3, 4, 3, depth, seed))
        assert strategic_depth(f) == depth and connective_count(f) == con
        t = time.perf_counter()
        result = solve_satisfiability(f, req, SolverConfig(time_limit=1800))
        rows.append(
            {
                "depth": depth,
                "connectives": con,
                "seed": seed,
                "verdict": "SAT" if result.satisfiable else "UNSAT",
                "decisions": result.stats.decisions,
                "conflicts": result.stats.conflicts,
                "time": time.perf_counter() - t,
            }
        )
    return rows


def test_criterion_6_benchmark_scaling():
    start = time.perf_counter()
    f1 = parse_formula(BENCH_FORMULA_1)
    assert strategic_depth(f1) == 9 and connective_count(f1) == 13
    t = time.perf_counter()
    r1 = solve_satisfiability(f1, Requirements(BENCH_SHAPE), SolverConfig(time_limit=60))
    f1_time = time.perf_counter() - t
    f1_ok = r1.satisfiable and f1_time < 60

    rows = crit6_report()
    sweep_time = sum(r["time"] for r in rows)
    all_sat = all(r["verdict"] == "SAT" for r in rows)
    times = ", ".join(f"d{r['depth']}={r['time']:.2f}s" for r in rows)
    elapsed = time.perf_counter() - start
    report(
        "6 benchmark scaling",
        f1_ok and all_sat and elapsed < 1800,
        f"formula 1 Sat in {f1_time:.2f}s; sweep all-Sat in {sweep_time:.2f}s [{times}]",
    )


def test_criterion_7_trivial_unsat():
    f = parse_formula("p0 & !p0")
    # Greedy clause minimization keeps the refutation at the one relevant
    # valuation cell; the naive clause would drag every protocol cell in and
    # enumerate the protocol space.
    config = SolverConfig(minimize_conflicts=True)
    shapes = [
        ModelShape([2, 2], [0, 0], 1),
        ModelShape([3, 2], [0, 0], 2),
        ModelShape([2, 2, 2], [0, 0, 0], 2),
        ModelShape([5], [0], 1),
        ModelShape([4, 2], [1, 1], 1),
        ModelShape([3, 3], [2, 2], 1),
        ModelShape([2, 2, 2], [1, 1, 1], 2),
    ]
    worst = 0.0
    ok = True
    for shape in shapes:
        assert shape.bit_count <= 30
        t = time.perf_counter()
        result = solve_satisfiability(f, Requirements(shape), config)
        dt = time.perf_counter() - t
        worst = max(worst, dt)
        ok = ok and not result.satisfiable and dt < 1.0
    report("7 trivial unsat", ok, f"{len(shapes)} shapes, worst {worst*1000:.0f}ms")


def test_criterion_8_determinism():
    a = json.dumps(crit1_report(), sort_keys=True).encode()
    b = json.dumps(crit1_report(), sort_keys=True).encode()
    first_ok = a == b

    def strip_time(rows):
        return [{k: v for k, v in r.items() if k != "time"} for r in rows]

    c = json.dumps(strip_time(crit6_report()), sort_keys=True).encode()
    d = json.dumps(strip_time(crit6_report()), sort_keys=True).encode()
    second_ok = c == d
    report(
        "8 determinism",
        first_ok and second_ok,
        "criterion 1 and 6 reports byte-identical across reruns",
    )
