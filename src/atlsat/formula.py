"""ATL formulas: syntax tree, parser, printer, normalizer, random generator.

The core grammar is

    phi ::= p_k | !phi | phi & phi
          | <<C>> X phi | <<C>> G phi | <<C>> (phi U phi)

where ``C`` is a coalition of agent indices.  The surface syntax additionally
accepts ``|``, ``->``, ``F``, ``true`` and ``false``; these parse to sugar
nodes that :func:`normalize` rewrites into the core grammar.

Agent indices are 0-based throughout.  Atoms are written ``p0``, ``p1``, ...
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator


@dataclass(frozen=True)
class Coalition:
    """An ordered set of agent indices bound by a strategic modality.

    May be empty; indices are deduplicated and kept strictly increasing.
    """

    members: tuple[int, ...]

    def __init__(self, members: Iterable[int] = ()):
        ms = tuple(sorted(set(members)))
        if ms and ms[0] < 0:
            raise ValueError(f"negative agent index in coalition: {ms}")
        object.__setattr__(self, "members", ms)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __contains__(self, agent: int) -> bool:
        return agent in self.members

    def __len__(self) -> int:
        return len(self.members)

    def __str__(self) -> str:
        return "<<" + ",".join(str(a) for a in self.members) + ">>"


class Formula:
    """Base class for all formula nodes.  Instances are immutable."""

    __slots__ = ()

    def __str__(self) -> str:
        return format_formula(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({format_formula(self)!r})"


# Core productions.

@dataclass(frozen=True, repr=False)
class Prop(Formula):
    index: int


@dataclass(frozen=True, repr=False)
class Not(Formula):
    child: Formula


@dataclass(frozen=True, repr=False)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, repr=False)
class Next(Formula):
    coalition: Coalition
    child: Formula


@dataclass(frozen=True, repr=False)
class Globally(Formula):
    coalition: Coalition
    child: Formula


@dataclass(frozen=True, repr=False)
class Until(Formula):
    coalition: Coalition
    left: Formula
    right: Formula


# Sugar productions, removed by normalize().

@dataclass(frozen=True, repr=False)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, repr=False)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, repr=False)
class Eventually(Formula):
    coalition: Coalition
    child: Formula


@dataclass(frozen=True, repr=False)
class TrueConst(Formula):
    pass


@dataclass(frozen=True, repr=False)
class FalseConst(Formula):
    pass


CORE_TYPES = (Prop, Not, And, Next, Globally, Until)


class FormulaSyntaxError(ValueError):
    """Raised on malformed formula text; carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


# ---------------------------------------------------------------------------
# Parsing


# Deepest nesting parse_formula accepts.  Each "!", each temporal operator,
# each parenthesis pair and each right operand of "&", "|" or "->" opens one
# level.  Keeps the recursive parser, normalizer and evaluator within
# Python's default recursion limit; the deepest criterion-6 formula nests 62
# levels by this count.
MAX_NESTING = 100

_PUNCT2 = ("<<", ">>", "->")
_PUNCT1 = ("(", ")", "!", "&", "|", ",")


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1
        self.tokens: list[tuple[str, str, int, int]] = []
        self._scan()
        self.idx = 0

    def _scan(self) -> None:
        text = self.text
        n = len(text)
        while self.pos < n:
            ch = text[self.pos]
            if ch in " \t\r\n":
                self._advance(1)
                continue
            two = text[self.pos : self.pos + 2]
            if two in _PUNCT2:
                self.tokens.append(("punct", two, self.line, self.col))
                self._advance(2)
                continue
            if ch in _PUNCT1:
                self.tokens.append(("punct", ch, self.line, self.col))
                self._advance(1)
                continue
            if ch.isalpha():
                start = self.pos
                line, col = self.line, self.col
                while self.pos < n and (text[self.pos].isalnum() or text[self.pos] == "_"):
                    self._advance(1)
                self.tokens.append(("word", text[start : self.pos], line, col))
                continue
            if ch.isdigit():
                start = self.pos
                line, col = self.line, self.col
                while self.pos < n and text[self.pos].isdigit():
                    self._advance(1)
                self.tokens.append(("int", text[start : self.pos], line, col))
                continue
            raise FormulaSyntaxError(f"unexpected character {ch!r}", self.line, self.col)
        self.tokens.append(("eof", "", self.line, self.col))

    def _advance(self, k: int) -> None:
        for _ in range(k):
            if self.text[self.pos] == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
            self.pos += 1

    def peek(self) -> tuple[str, str, int, int]:
        return self.tokens[self.idx]

    def next(self) -> tuple[str, str, int, int]:
        tok = self.tokens[self.idx]
        if tok[0] != "eof":
            self.idx += 1
        return tok


class _Parser:
    """Recursive descent over: implies > or > and > unary > primary.

    ``&``, ``|`` and ``->`` associate to the right.  ``U`` appears only in
    the parenthesized form ``<<C>> (a U b)``.
    """

    def __init__(self, text: str):
        self.toks = _Tokenizer(text)
        self.depth = 0

    def parse(self) -> Formula:
        f = self._implies()
        kind, val, line, col = self.toks.peek()
        if kind != "eof":
            raise FormulaSyntaxError(f"unexpected {val!r} after formula", line, col)
        return f

    def _expect(self, value: str) -> None:
        kind, val, line, col = self.toks.next()
        if val != value or kind == "eof":
            got = "end of input" if kind == "eof" else repr(val)
            raise FormulaSyntaxError(f"expected {value!r}, got {got}", line, col)

    def _deeper(self, tok: tuple[str, str, int, int], parse) -> Formula:
        """Parse one nesting level below ``tok``, the token that opens it."""
        if self.depth == MAX_NESTING:
            raise FormulaSyntaxError(f"formula nested deeper than {MAX_NESTING} levels", *tok[2:])
        self.depth += 1
        f = parse()
        self.depth -= 1
        return f

    def _implies(self) -> Formula:
        left = self._or()
        if self.toks.peek()[1] == "->":
            return Implies(left, self._deeper(self.toks.next(), self._implies))
        return left

    def _or(self) -> Formula:
        left = self._and()
        if self.toks.peek()[1] == "|":
            return Or(left, self._deeper(self.toks.next(), self._or))
        return left

    def _and(self) -> Formula:
        left = self._unary()
        if self.toks.peek()[1] == "&":
            return And(left, self._deeper(self.toks.next(), self._and))
        return left

    def _unary(self) -> Formula:
        kind, val, line, col = self.toks.peek()
        if val == "!":
            return Not(self._deeper(self.toks.next(), self._unary))
        if val == "<<":
            return self._modal()
        return self._primary()

    def _modal(self) -> Formula:
        self._expect("<<")
        members: list[int] = []
        if self.toks.peek()[1] != ">>":
            while True:
                kind, val, line, col = self.toks.next()
                if kind != "int":
                    raise FormulaSyntaxError(f"expected agent index, got {val!r}", line, col)
                members.append(int(val))
                if self.toks.peek()[1] == ",":
                    self.toks.next()
                else:
                    break
        self._expect(">>")
        coalition = Coalition(members)
        kind, val, line, col = self.toks.peek()
        if val in ("X", "G", "F"):
            child = self._deeper(self.toks.next(), self._unary)
            if val == "X":
                return Next(coalition, child)
            if val == "G":
                return Globally(coalition, child)
            return Eventually(coalition, child)
        if val == "(":
            left = self._deeper(self.toks.next(), self._implies)
            kind2, val2, line2, col2 = tok = self.toks.next()
            if val2 != "U":
                raise FormulaSyntaxError(
                    f"expected 'U' inside coalition scope, got {val2!r}", line2, col2
                )
            right = self._deeper(tok, self._implies)
            self._expect(")")
            return Until(coalition, left, right)
        raise FormulaSyntaxError(
            f"expected temporal operator after coalition, got {val!r}", line, col
        )

    def _primary(self) -> Formula:
        kind, val, line, col = tok = self.toks.next()
        if val == "(":
            f = self._deeper(tok, self._implies)
            self._expect(")")
            return f
        if kind == "word":
            if val == "true":
                return TrueConst()
            if val == "false":
                return FalseConst()
            if val.startswith("p") and val[1:].isdigit():
                return Prop(int(val[1:]))
            raise FormulaSyntaxError(f"unknown identifier {val!r}", line, col)
        got = "end of input" if kind == "eof" else repr(val)
        raise FormulaSyntaxError(f"expected formula, got {got}", line, col)


def parse_formula(text: str) -> Formula:
    """Parse formula text into a syntax tree, keeping any surface sugar.
    Nesting deeper than :data:`MAX_NESTING` is a syntax error."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Printing

# Precedence levels: higher binds tighter.  Unary and modal operators bind
# tightest; a right operand at the same binary level prints without parens
# (the parser is right-associative).
_PREC_IMPLIES, _PREC_OR, _PREC_AND, _PREC_UNARY = 1, 2, 3, 4


def format_formula(f: Formula) -> str:
    """Render a formula; ``parse_formula(format_formula(f))`` equals ``f``."""
    return _fmt(f, 0)


def _fmt(f: Formula, parent_prec: int) -> str:
    if isinstance(f, Prop):
        return f"p{f.index}"
    if isinstance(f, TrueConst):
        return "true"
    if isinstance(f, FalseConst):
        return "false"
    if isinstance(f, Not):
        return "!" + _fmt(f.child, _PREC_UNARY)
    if isinstance(f, And):
        s = f"{_fmt(f.left, _PREC_AND + 1)} & {_fmt(f.right, _PREC_AND)}"
        return f"({s})" if parent_prec > _PREC_AND else s
    if isinstance(f, Or):
        s = f"{_fmt(f.left, _PREC_OR + 1)} | {_fmt(f.right, _PREC_OR)}"
        return f"({s})" if parent_prec > _PREC_OR else s
    if isinstance(f, Implies):
        s = f"{_fmt(f.left, _PREC_IMPLIES + 1)} -> {_fmt(f.right, _PREC_IMPLIES)}"
        return f"({s})" if parent_prec > _PREC_IMPLIES else s
    if isinstance(f, Next):
        return f"{f.coalition} X {_fmt(f.child, _PREC_UNARY)}"
    if isinstance(f, Globally):
        return f"{f.coalition} G {_fmt(f.child, _PREC_UNARY)}"
    if isinstance(f, Eventually):
        return f"{f.coalition} F {_fmt(f.child, _PREC_UNARY)}"
    if isinstance(f, Until):
        return f"{f.coalition} ({_fmt(f.left, 0)} U {_fmt(f.right, 0)})"
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Normalization


def _tautology() -> Formula:
    # "true" over declared atoms: !(p0 & !p0)
    return Not(And(Prop(0), Not(Prop(0))))


def _neg(f: Formula) -> Formula:
    # Collapse double negations introduced while desugaring; never touches
    # negations already present in core input.
    if isinstance(f, Not):
        return f.child
    return Not(f)


def normalize(f: Formula) -> Formula:
    """Rewrite to the six core productions.  Idempotent; core input is
    returned structurally unchanged."""
    if isinstance(f, Prop):
        return f
    if isinstance(f, Not):
        child = normalize(f.child)
        return f if child is f.child else Not(child)
    if isinstance(f, And):
        left, right = normalize(f.left), normalize(f.right)
        return f if left is f.left and right is f.right else And(left, right)
    if isinstance(f, Next):
        child = normalize(f.child)
        return f if child is f.child else Next(f.coalition, child)
    if isinstance(f, Globally):
        child = normalize(f.child)
        return f if child is f.child else Globally(f.coalition, child)
    if isinstance(f, Until):
        left, right = normalize(f.left), normalize(f.right)
        return f if left is f.left and right is f.right else Until(f.coalition, left, right)
    if isinstance(f, Or):
        return Not(And(_neg(normalize(f.left)), _neg(normalize(f.right))))
    if isinstance(f, Implies):
        return Not(And(normalize(f.left), _neg(normalize(f.right))))
    if isinstance(f, Eventually):
        return Until(f.coalition, _tautology(), normalize(f.child))
    if isinstance(f, TrueConst):
        return _tautology()
    if isinstance(f, FalseConst):
        return And(Prop(0), Not(Prop(0)))
    raise TypeError(f"not a formula: {f!r}")


def is_core(f: Formula) -> bool:
    for node in iter_subformulas(f):
        if not isinstance(node, CORE_TYPES):
            return False
    return True


# ---------------------------------------------------------------------------
# Structure queries


def iter_subformulas(f: Formula) -> Iterator[Formula]:
    """Yield every node of the tree, root first."""
    stack = [f]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Not):
            stack.append(node.child)
        elif isinstance(node, (And, Or, Implies)):
            stack.append(node.right)
            stack.append(node.left)
        elif isinstance(node, (Next, Globally, Eventually)):
            stack.append(node.child)
        elif isinstance(node, Until):
            stack.append(node.right)
            stack.append(node.left)


def strategic_depth(f: Formula) -> int:
    """Maximal nesting of strategic modalities."""
    if isinstance(f, (Prop, TrueConst, FalseConst)):
        return 0
    if isinstance(f, Not):
        return strategic_depth(f.child)
    if isinstance(f, (And, Or, Implies)):
        return max(strategic_depth(f.left), strategic_depth(f.right))
    if isinstance(f, (Next, Globally, Eventually)):
        return 1 + strategic_depth(f.child)
    if isinstance(f, Until):
        return 1 + max(strategic_depth(f.left), strategic_depth(f.right))
    raise TypeError(f"not a formula: {f!r}")


def connective_count(f: Formula) -> int:
    """Number of Boolean connectives (!, &, |, ->) in the tree as written."""
    return sum(1 for n in iter_subformulas(f) if isinstance(n, (Not, And, Or, Implies)))


def max_prop_index(f: Formula) -> int:
    """Largest atom index used, or -1 if none."""
    return max((n.index for n in iter_subformulas(f) if isinstance(n, Prop)), default=-1)


def max_agent_index(f: Formula) -> int:
    """Largest agent index named by any coalition, or -1 if none."""
    best = -1
    for n in iter_subformulas(f):
        if isinstance(n, (Next, Globally, Eventually, Until)) and len(n.coalition):
            best = max(best, n.coalition.members[-1])
    return best


def validate_within(f: Formula, agent_count: int, prop_count: int) -> None:
    """Check all atom and agent indices against the ambient counts."""
    p = max_prop_index(f)
    if p >= prop_count:
        raise ValueError(f"formula uses p{p} but only {prop_count} propositions are declared")
    a = max_agent_index(f)
    if a >= agent_count:
        raise ValueError(f"formula names agent {a} but only {agent_count} agents are declared")


# ---------------------------------------------------------------------------
# Random generation


@dataclass(frozen=True)
class GenParams:
    """Parameters of the random formula generator.

    ``max_depth`` bounds the nesting of strategic modalities; the generated
    formula always realizes it exactly.  ``coalition_pool`` may pin the
    coalitions to draw from; when None a pool of ``group_count`` distinct
    nonempty coalitions is derived from the seed.
    """

    agent_count: int
    group_count: int
    prop_count: int
    max_depth: int
    seed: int
    coalition_pool: tuple[Coalition, ...] | None = None

    def __post_init__(self) -> None:
        if self.agent_count < 1 or self.group_count < 1 or self.prop_count < 1:
            raise ValueError("agent, group and proposition counts must be >= 1")
        if self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        if self.group_count > 2**self.agent_count - 1:
            raise ValueError("group_count exceeds the number of nonempty coalitions")
        if self.coalition_pool is not None:
            for c in self.coalition_pool:
                if len(c) == 0 or c.members[-1] >= self.agent_count:
                    raise ValueError(f"coalition {c} invalid for {self.agent_count} agents")


def _draw_pool(params: GenParams, rng: random.Random) -> list[Coalition]:
    if params.coalition_pool is not None:
        return list(params.coalition_pool)
    all_masks = list(range(1, 2**params.agent_count))
    rng.shuffle(all_masks)
    pool = []
    for mask in all_masks[: params.group_count]:
        pool.append(Coalition(i for i in range(params.agent_count) if mask >> i & 1))
    return pool


def _clamped_normal(rng: random.Random, mean: float, spread: float, lo: int, hi: int) -> int:
    v = int(round(rng.normalvariate(mean, spread)))
    return max(lo, min(hi, v))


def generate_random_formula(params: GenParams) -> Formula:
    """Draw a random formula whose strategic nesting depth is exactly
    ``params.max_depth``.  Deterministic in the seed.

    Formulas grow along a spine of strategic modalities that consumes the
    whole depth budget, interleaved with Boolean connectives; sibling
    subtrees get a depth drawn from a clamped normal, usually small, so the
    Boolean-connective count stays near 1.5 per depth level, matching the
    profile of the bundled benchmark sweep.
    """
    rng = random.Random(params.seed)
    pool = _draw_pool(params, rng)

    def literal() -> Formula:
        p = Prop(rng.randrange(params.prop_count))
        return Not(p) if rng.random() < 0.5 else p

    def propositional(budget: int) -> Formula:
        if budget <= 0:
            return literal()
        op = rng.choice(("!", "&", "|", "leaf"))
        if op == "leaf":
            return literal()
        if op == "!":
            return Not(propositional(budget - 1))
        sub = rng.choice((And, Or))
        return sub(propositional(budget - 1), propositional(budget - 1))

    def side_tree(depth: int) -> Formula:
        if depth == 0:
            return propositional(_clamped_normal(rng, 0.8, 0.8, 0, 2))
        return spine(depth)

    def side_depth(limit: int) -> int:
        # Mostly flat siblings; occasionally a modal one, kept shallow so the
        # connective count stays roughly linear in the depth budget.
        if limit > 0 and rng.random() < 0.05:
            return _clamped_normal(rng, limit / 3, limit / 4 + 0.5, 1, max(1, limit // 2))
        return 0

    def spine(depth: int, boolean_run: int = 0) -> Formula:
        if depth == 0:
            return propositional(_clamped_normal(rng, 0.8, 0.8, 0, 2))
        boolean_allowed = boolean_run < 2
        if boolean_allowed and rng.random() < 0.50:
            op = rng.choice(("!", "&", "|"))
            if op == "!":
                return Not(spine(depth, boolean_run + 1))
            main = spine(depth, boolean_run + 1)
            side = side_tree(side_depth(depth))
            pair = (main, side) if rng.random() < 0.5 else (side, main)
            return (And if op == "&" else Or)(*pair)
        coalition = rng.choice(pool)
        op = rng.choice(("X", "G", "F", "U"))
        if op == "X":
            return Next(coalition, spine(depth - 1))
        if op == "G":
            return Globally(coalition, spine(depth - 1))
        if op == "F":
            return Eventually(coalition, spine(depth - 1))
        return Until(coalition, side_tree(side_depth(depth - 1)), spine(depth - 1))

    return spine(params.max_depth)


def generate_with_counts(
    agent_count: int,
    group_count: int,
    prop_count: int,
    depth: int,
    connectives: int,
    base_seed: int = 0,
    max_tries: int = 50_000,
) -> tuple[Formula, int]:
    """Scan seeds from ``base_seed`` until the generated formula has the
    requested strategic depth and Boolean connective count.  Returns the
    formula and the seed that produced it."""
    for seed in range(base_seed, base_seed + max_tries):
        params = GenParams(agent_count, group_count, prop_count, depth, seed)
        f = generate_random_formula(params)
        if strategic_depth(f) == depth and connective_count(f) == connectives:
            return f, seed
    raise ValueError(
        f"no seed in [{base_seed}, {base_seed + max_tries}) yields depth={depth} "
        f"with {connectives} connectives"
    )
