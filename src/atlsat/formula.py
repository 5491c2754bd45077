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
import re
from dataclasses import dataclass
from typing import Iterable, Iterator


def _check_index(i: object, what: str) -> None:
    # Exactly int: a bool or a float would index as another number.
    if type(i) is not int or i < 0:
        raise ValueError(f"{what} index must be a non-negative int, not {i!r}")


@dataclass(frozen=True)
class Coalition:
    """An ordered set of agent indices bound by a strategic modality.

    May be empty; indices are ints >= 0, deduplicated and kept increasing.
    """

    members: tuple[int, ...]

    def __init__(self, members: Iterable[int] = ()):
        ms = tuple(members)
        for i in ms:
            _check_index(i, "agent")
        object.__setattr__(self, "members", tuple(sorted(set(ms))))

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

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

    def __post_init__(self) -> None:
        _check_index(self.index, "proposition")


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


class FormulaSyntaxError(ValueError):
    """Raised on malformed formula text; carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


# ---------------------------------------------------------------------------
# Parsing


# Deepest nesting parse_formula accepts: the number of operators and
# parenthesis pairs around any proposition or constant, so the parse tree is
# at most one level higher.  Keeps the recursive parser, normalizer and
# equality within Python's default recursion limit (the evaluator, Program, is
# iterative); the deepest criterion-6 formula nests 68 levels by this count.
MAX_NESTING = 100

# One token per match within a line: the characters between matches are
# exactly the skipped spaces, tabs and CRs, and any other one is ``bad``.
_TOKEN = re.compile(
    r"(?P<punct><<|>>|->|[()!&|,])|(?P<word>[A-Za-z][A-Za-z0-9_]*)|(?P<int>[0-9]+)"
    r"|(?P<bad>[^ \t\r])"
)


def _tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """``(kind, text, line, column)`` tokens of ``text``, 1-based, ending with
    ``eof``.  Identifiers and indices are ASCII; a character that is neither
    in a token nor a space, tab, CR or LF is a syntax error at its position."""
    tokens = []
    for line, chars in enumerate(text.split("\n"), 1):
        for m in _TOKEN.finditer(chars):
            if m.lastgroup == "bad":
                raise FormulaSyntaxError(f"unexpected character {m[0]!r}", line, m.start() + 1)
            tokens.append((m.lastgroup, m[0], line, m.start() + 1))
    tokens.append(("eof", "", line, len(chars) + 1))
    return tokens


class _Parser:
    """Recursive descent over: implies > or > and > unary > primary.

    ``&``, ``|`` and ``->`` associate to the right.  ``U`` appears only in
    the parenthesized form ``<<C>> (a U b)``.
    """

    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.idx = 0
        # Nesting at the current token; deepest atom nesting of the last parse.
        self.depth = self.peak = 0

    def _peek(self) -> tuple[str, str, int, int]:
        return self.toks[self.idx]

    def _next(self) -> tuple[str, str, int, int]:
        tok = self.toks[self.idx]
        if tok[0] != "eof":
            self.idx += 1
        return tok

    @staticmethod
    def _index(digits: str, tok: tuple[str, str, int, int]) -> int:
        try:
            return int(digits)
        except ValueError:  # more digits than int() converts
            raise FormulaSyntaxError(f"index too long: {len(digits)} digits", *tok[2:]) from None

    def parse(self) -> Formula:
        f = self._implies()
        kind, val, line, col = self._peek()
        if kind != "eof":
            raise FormulaSyntaxError(f"unexpected {val!r} after formula", line, col)
        return f

    def _expect(self, value: str) -> None:
        kind, val, line, col = self._next()
        if val != value or kind == "eof":
            got = "end of input" if kind == "eof" else repr(val)
            raise FormulaSyntaxError(f"expected {value!r}, got {got}", line, col)

    @staticmethod
    def _check(tok: tuple[str, str, int, int], level: int) -> None:
        if level > MAX_NESTING:
            raise FormulaSyntaxError(f"formula nested deeper than {MAX_NESTING} levels", *tok[2:])

    def _deeper(self, tok: tuple[str, str, int, int], parse) -> Formula:
        """Parse one nesting level below ``tok``, the token that opens it."""
        self._check(tok, self.depth + 1)
        self.depth += 1
        f = parse()
        self.depth -= 1
        return f

    def _binary(self, operand, op: str, node, rest) -> Formula:
        # The operator token also deepens the left operand, parsed before it.
        left = operand()
        if self._peek()[1] != op:
            return left
        tok, left_peak = self._next(), self.peak + 1
        self._check(tok, left_peak)
        right = self._deeper(tok, rest)
        self.peak = max(self.peak, left_peak)
        return node(left, right)

    def _implies(self) -> Formula:
        return self._binary(self._or, "->", Implies, self._implies)

    def _or(self) -> Formula:
        return self._binary(self._and, "|", Or, self._or)

    def _and(self) -> Formula:
        return self._binary(self._unary, "&", And, self._and)

    def _unary(self) -> Formula:
        kind, val, line, col = self._peek()
        if val == "!":
            return Not(self._deeper(self._next(), self._unary))
        if val == "<<":
            return self._modal()
        return self._primary()

    def _modal(self) -> Formula:
        self._expect("<<")
        members: list[int] = []
        if self._peek()[1] != ">>":
            while True:
                kind, val, line, col = tok = self._next()
                if kind != "int":
                    raise FormulaSyntaxError(f"expected agent index, got {val!r}", line, col)
                members.append(self._index(val, tok))
                if self._peek()[1] == ",":
                    self._next()
                else:
                    break
        self._expect(">>")
        coalition = Coalition(members)
        kind, val, line, col = self._peek()
        if val in ("X", "G", "F"):
            child = self._deeper(self._next(), self._unary)
            if val == "X":
                return Next(coalition, child)
            if val == "G":
                return Globally(coalition, child)
            return Eventually(coalition, child)
        if val == "(":
            left, left_peak = self._deeper(self._next(), self._implies), self.peak
            kind2, val2, line2, col2 = tok = self._next()
            if val2 != "U":
                raise FormulaSyntaxError(
                    f"expected 'U' inside coalition scope, got {val2!r}", line2, col2
                )
            right = self._deeper(tok, self._implies)
            self._expect(")")
            self.peak = max(self.peak, left_peak)
            return Until(coalition, left, right)
        raise FormulaSyntaxError(
            f"expected temporal operator after coalition, got {val!r}", line, col
        )

    def _primary(self) -> Formula:
        kind, val, line, col = tok = self._next()
        if val == "(":
            f = self._deeper(tok, self._implies)
            self._expect(")")
            return f
        self.peak = self.depth
        if kind == "word":
            if val == "true":
                return TrueConst()
            if val == "false":
                return FalseConst()
            if val.startswith("p") and val[1:].isdigit():
                return Prop(self._index(val[1:], tok))
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
_BINARY = {And: ("&", _PREC_AND), Or: ("|", _PREC_OR), Implies: ("->", _PREC_IMPLIES)}
_MODAL = {Next: "X", Globally: "G", Eventually: "F"}


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
    if type(f) in _BINARY:
        op, prec = _BINARY[type(f)]
        s = f"{_fmt(f.left, prec + 1)} {op} {_fmt(f.right, prec)}"
        return f"({s})" if parent_prec > prec else s
    if type(f) in _MODAL:
        return f"{f.coalition} {_MODAL[type(f)]} {_fmt(f.child, _PREC_UNARY)}"
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
    returned structurally unchanged.  A formula too deep for the recursion (a
    chain of thousands of conjuncts built through the API) raises ValueError."""
    try:
        return _normalize(f)
    except RecursionError:
        raise ValueError("formula nested too deeply to normalize") from None


def _normalize(f: Formula) -> Formula:
    if isinstance(f, Prop):
        return f
    if isinstance(f, Not):
        child = _normalize(f.child)
        return f if child is f.child else Not(child)
    if isinstance(f, And):
        left, right = _normalize(f.left), _normalize(f.right)
        return f if left is f.left and right is f.right else And(left, right)
    if isinstance(f, (Next, Globally)):
        child = _normalize(f.child)
        return f if child is f.child else type(f)(f.coalition, child)
    if isinstance(f, Until):
        left, right = _normalize(f.left), _normalize(f.right)
        return f if left is f.left and right is f.right else Until(f.coalition, left, right)
    if isinstance(f, Or):
        return Not(And(_neg(_normalize(f.left)), _neg(_normalize(f.right))))
    if isinstance(f, Implies):
        return Not(And(_normalize(f.left), _neg(_normalize(f.right))))
    if isinstance(f, Eventually):
        return Until(f.coalition, _tautology(), _normalize(f.child))
    if isinstance(f, TrueConst):
        return _tautology()
    if isinstance(f, FalseConst):
        return And(Prop(0), Not(Prop(0)))
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Structure queries


def iter_subformulas(f: Formula) -> Iterator[Formula]:
    """Yield every node of the tree, root first."""
    stack = [f]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (Not, Next, Globally, Eventually)):
            stack.append(node.child)
        elif isinstance(node, (And, Or, Implies, Until)):
            stack.extend((node.right, node.left))


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


# ---------------------------------------------------------------------------
# Random generation


# Drawing a coalition pool builds and shuffles all 2**agent_count - 1
# nonempty coalitions: 0.05 s and 18 MB at 16 agents, 4 s and 176 MB at 22,
# about 4x more of each per two agents (measured on a 2-vCPU host).
MAX_GEN_AGENTS = 16

# How many seeds generate_with_counts scans before it gives up.
COUNT_TRIES = 50_000


@dataclass(frozen=True)
class GenParams:
    """Parameters of the random formula generator.

    ``max_depth`` bounds the nesting of strategic modalities; the generated
    formula always realizes it exactly.  Its coalitions come from a pool of
    ``group_count`` distinct nonempty coalitions derived from the seed.
    """

    agent_count: int
    group_count: int
    prop_count: int
    max_depth: int
    seed: int

    def __post_init__(self) -> None:
        if self.agent_count < 1 or self.group_count < 1 or self.prop_count < 1:
            raise ValueError("agent, group and proposition counts must be >= 1")
        if not 0 <= self.max_depth <= MAX_NESTING:
            # A deeper formula nests past what parse_formula accepts.
            raise ValueError(f"max_depth must be between 0 and {MAX_NESTING}")
        if self.agent_count > MAX_GEN_AGENTS:
            raise ValueError(f"agent_count must be at most {MAX_GEN_AGENTS}")
        if self.group_count > 2**self.agent_count - 1:
            raise ValueError("group_count exceeds the number of nonempty coalitions")


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
    profile of the bundled benchmark sweep.  The drawn formula prints
    within :data:`MAX_NESTING`: where a connective would not fit, the spine
    takes its modal branch and a propositional subtree draws a literal.
    """
    rng = random.Random(params.seed)
    all_masks = list(range(1, 2**params.agent_count))
    rng.shuffle(all_masks)
    pool = [
        Coalition(i for i in range(params.agent_count) if mask >> i & 1)
        for mask in all_masks[: params.group_count]
    ]

    def cost(node: type, ctx: int) -> int:
        # The nesting a node adds at the printer's precedence context ctx:
        # its operator, plus the parentheses format_formula wraps it in.
        return 1 + (node in _BINARY and ctx > _BINARY[node][1])

    def under(node: type) -> int:
        # The context of a node's operands; an &/| operand is charged as a
        # left one, since the side it takes is drawn after it.
        return _BINARY[node][1] + 1 if node in _BINARY else _PREC_UNARY

    # ``room`` is the nesting a subtree may still add; no check draws.
    def literal(room: int) -> Formula:
        p = Prop(rng.randrange(params.prop_count))
        return Not(p) if rng.random() < 0.5 and room >= 1 else p

    def propositional(budget: int, room: int, ctx: int) -> Formula:
        if budget <= 0:
            return literal(room)
        op = rng.choice(("!", "&", "|", "leaf"))
        if op == "leaf":
            return literal(room)
        node = Not if op == "!" else rng.choice((And, Or))
        rest = room - cost(node, ctx)
        if rest < 0:
            return literal(room)
        if node is Not:
            return Not(propositional(budget - 1, rest, _PREC_UNARY))
        return node(propositional(budget - 1, rest, under(node)),
                    propositional(budget - 1, rest, under(node)))

    def side_depth(limit: int) -> int:
        # Mostly flat siblings; occasionally a modal one, kept shallow so the
        # connective count stays roughly linear in the depth budget.
        if limit > 0 and rng.random() < 0.05:
            return _clamped_normal(rng, limit / 3, limit / 4 + 0.5, 1, max(1, limit // 2))
        return 0

    def spine(depth: int, room: int, ctx: int, boolean_run: int = 0) -> Formula:
        # room >= depth: the modal branch always fits.
        if depth == 0:
            return propositional(_clamped_normal(rng, 0.8, 0.8, 0, 2), room, ctx)
        boolean_allowed = boolean_run < 2
        if boolean_allowed and rng.random() < 0.50:
            node = rng.choice((Not, And, Or))
            rest = room - cost(node, ctx)
            if rest >= depth:
                if node is Not:
                    return Not(spine(depth, rest, _PREC_UNARY, boolean_run + 1))
                main = spine(depth, rest, under(node), boolean_run + 1)
                side = spine(side_depth(depth), rest, under(node))
                pair = (main, side) if rng.random() < 0.5 else (side, main)
                return node(*pair)
        coalition = rng.choice(pool)
        node = rng.choice((Next, Globally, Eventually, Until))
        if node is Until:
            return Until(coalition, spine(side_depth(depth - 1), room - 1, 0),
                         spine(depth - 1, room - 1, 0))
        return node(coalition, spine(depth - 1, room - 1, _PREC_UNARY))

    return spine(params.max_depth, MAX_NESTING, 0)


def generate_with_counts(
    agent_count: int,
    group_count: int,
    prop_count: int,
    depth: int,
    connectives: int | None,
    base_seed: int = 0,
) -> tuple[Formula, int]:
    """Scan up to ``COUNT_TRIES`` seeds from ``base_seed`` for a formula of
    strategic depth ``depth`` with ``connectives`` Boolean connectives, or any
    number of them when None.  Returns the formula and the seed that drew it."""
    if connectives is not None and connectives < 0:
        raise ValueError(f"connectives must be >= 0, got {connectives}")
    for seed in range(base_seed, base_seed + COUNT_TRIES):
        params = GenParams(agent_count, group_count, prop_count, depth, seed)
        f = generate_random_formula(params)
        if strategic_depth(f) == depth and connectives in (None, connective_count(f)):
            return f, seed
    raise ValueError(
        f"no seed in [{base_seed}, {base_seed + COUNT_TRIES}) yields depth={depth} "
        f"with {connectives} connectives"
    )
