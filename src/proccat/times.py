"""Finite time scales, termination bounds, and the temporal index category.

A time scale is a finite, strictly ascending tuple of exact rationals.  The
index category over a scale has objects (t, t0) with t <= t0 (present time,
observation time) and exactly one morphism (t, t0') -> (t, t0) whenever
t0 <= t0', recorded as the triple (t, t0, t0').  Restriction along such a
morphism forgets everything learned after t0.

The scale owns its index category: it makes each pair and arrow once,
so they compare by identity, and hands them out by the ranks of their
points.

A termination bound is a scale point, or `UNBOUNDED` (None) for the top
element above every point.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import isqrt
from operator import attrgetter
from typing import Optional, Union


class ParseError(ValueError):
    """Raised on any syntax or shape problem in a scale expression or a
    space descriptor."""


class ScaleOverlapError(ValueError):
    """Parts of a union overlap, or could not be shown disjoint within
    `SEARCH_BUDGET` steps."""


class Value:
    """A value: its fields are its `__slots__`, which its own `__init__`
    (a `TimeScale`'s `__new__`) sets with `object.__setattr__`; any later
    assignment or deletion raises AttributeError.  Instances are equal
    only within one class, when their fields are; the hash is that of the
    tuple of fields, and the repr `Name(field=value, ...)` unless the
    class writes its own.
    A slot whose name starts with `_` holds state, not a field: equality,
    hash and repr leave it out."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._names = tuple(n for n in cls.__slots__ if not n.startswith("_"))
        # One field reads bare, several as a tuple; not a method, so
        # `self._get` is the getter itself.
        cls._get = attrgetter(*cls._names)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._get(self) == self._get(other)
        return NotImplemented

    def __hash__(self) -> int:
        fields = self._get(self)
        return hash(fields if len(self._names) > 1 else (fields,))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._names)
        return f"{type(self).__qualname__}({fields})"


class IndexPair:
    """Object (t, t0) of the index category: present time t, observed up
    to t0.  r <= r0 are the ranks of t and t0 among the scale's points,
    and `identity` is the pair's identity arrow.  The scale makes each
    pair once, so pairs compare and hash by identity; they are immutable."""

    __slots__ = ("t", "t0", "r", "r0", "identity")
    __setattr__, __delattr__ = Value.__setattr__, Value.__delattr__

    def __init__(self, points: tuple, r: int, r0: int) -> None:
        for name, value in (("t", points[r]), ("t0", points[r0]), ("r", r), ("r0", r0)):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "identity", IndexMor(self, self))

    def __repr__(self) -> str:
        return f"({self.t}, {self.t0})"


class IndexMor:
    """Morphism (t, t0, t0'): forgets information acquired after t0.

    Runs from the better-informed pair `src` = (t, t0') to `dst` =
    (t, t0); t0 <= t0', and r <= r0 <= r0p are the ranks of t, t0 and
    t0'.  Made once by the scale, like a pair, so an identity arrow is one
    with `src is dst`."""

    __slots__ = ("t", "t0", "t0p", "r", "r0", "r0p", "src", "dst")
    __setattr__, __delattr__ = Value.__setattr__, Value.__delattr__

    def __init__(self, src: IndexPair, dst: IndexPair) -> None:
        for name, value in (("t", dst.t), ("t0", dst.t0), ("t0p", src.t0), ("r", dst.r),
                            ("r0", dst.r0), ("r0p", src.r0), ("src", src), ("dst", dst)):
            object.__setattr__(self, name, value)

    def __repr__(self) -> str:
        return f"({self.t}, {self.t0}, {self.t0p})"


_SCALES: dict = {}  # points -> the one TimeScale over them


class TimeScale(Value):
    """Strictly ascending points, as Fractions, and the index category
    over them.  There is one scale per tuple of points, which
    `TimeScale(points)` returns, so scales compare by identity; the hash
    is still that of the points.  A scale makes all its index pairs with
    itself, and its arrows when first read, a column at a time: the
    arrows (u, t0, t0') for every u, kept in `_arrows` under the ranks
    of t0 and t0'."""

    __slots__ = ("points", "_rank", "_columns", "_indices", "_arrows")
    __eq__ = object.__eq__
    __hash__ = Value.__hash__

    def __new__(cls, points: tuple[Union[int, str, Fraction], ...]) -> "TimeScale":
        points = tuple(map(Fraction, points))
        made = _SCALES.get(points)
        if made is not None:
            return made
        if not points:
            raise ValueError("time scale needs at least one point")
        if any(b <= a for a, b in zip(points, points[1:])):
            raise ValueError(f"time scale points must be strictly ascending: {points}")
        made, n = object.__new__(cls), len(points)
        # _columns[r0][r] is the pair of ranks (r, r0).
        columns = tuple(tuple(IndexPair(points, r, r0) for r in range(r0 + 1))
                        for r0 in range(n))
        for name, value in (
                ("points", points),
                ("_rank", {p: r for r, p in enumerate(points)}),
                ("_columns", columns),
                ("_indices", tuple(columns[r0][r] for r in range(n) for r0 in range(r, n))),
                ("_arrows", {(r0, r0): tuple(i.identity for i in column)
                             for r0, column in enumerate(columns)})):
            object.__setattr__(made, name, value)
        _SCALES[points] = made
        return made

    @classmethod
    def of(cls, *values: Union[int, str, Fraction]) -> "TimeScale":
        return cls(values)

    @property
    def start(self) -> Fraction:
        return self.points[0]

    @property
    def end(self) -> Fraction:
        return self.points[-1]

    def __contains__(self, t: Fraction) -> bool:
        return t in self._rank

    def open_closed(self, a: Fraction, b: Fraction) -> tuple[Fraction, ...]:
        """The points in (a, b], for points a and b of the scale."""
        return self.points[self._rank[a] + 1:self._rank[b] + 1]

    def pair(self, t: Fraction, t0: Fraction) -> Optional[IndexPair]:
        """The index pair (t, t0); None unless t <= t0 are points of the scale."""
        r, r0 = self._rank.get(t), self._rank.get(t0)
        if r is None or r0 is None or r > r0:
            return None
        return self._columns[r0][r]

    def column(self, r0: int) -> tuple[IndexPair, ...]:
        """The pairs (u, t0) for every point u <= t0, by rank of u, where
        t0 is the point of rank r0."""
        return self._columns[r0]

    def arrows(self, r0: int, r0p: int) -> tuple[IndexMor, ...]:
        """The arrows (u, t0, t0') for every point u <= t0, by rank of u,
        where t0 <= t0' are the points of ranks r0 <= r0p; made on first
        read."""
        found = self._arrows.get((r0, r0p))
        if found is None:
            if not 0 <= r0 <= r0p:
                raise ValueError(f"no arrows from rank {r0p} to rank {r0}")
            found = self._arrows[r0, r0p] = tuple(
                map(IndexMor, self._columns[r0p], self._columns[r0]))
        return found

    def indices(self) -> tuple[IndexPair, ...]:
        """Every index pair, ordered by t, then t0."""
        return self._indices

    def index_mors(self) -> tuple[IndexMor, ...]:
        """Every index morphism, ordered by t, then t0, then t0'."""
        return tuple(self.arrows(r0, r0p)[r]
                     for r, r0, r0p in combinations_with_replacement(range(len(self.points)), 3))

    def covers(self) -> tuple[IndexMor, ...]:
        """The index morphisms (t, p, q) with q the point after p, in
        `index_mors` order.  Every other non-identity morphism is a
        composite of covers."""
        n = len(self.points)
        return tuple(self.arrows(r0, r0 + 1)[r] for r in range(n) for r0 in range(r, n - 1))

    def __repr__(self) -> str:
        return "{" + ", ".join(str(p) for p in self.points) + "}"


# A termination bound: a scale point the process stops at or before, or
# UNBOUNDED (None), which lies above every point.
TermBound = Optional[Fraction]
UNBOUNDED: TermBound = None


def w_leq(a: TermBound, b: TermBound) -> bool:
    """Order with unbounded on top: bounded values compare as points."""
    return b is None or a is not None and a <= b


def w_meet(a: TermBound, b: TermBound) -> TermBound:
    return a if w_leq(a, b) else b


# -- symbolic scale expressions and the well-foundedness validator ----------
#
# finite(..)      a finite set of rational points
# desc_above(z)   the descending chain {z + 1/n : n >= 1}, converging to z
#                 from above; well-founded (no infinite descent *below* any
#                 member stays inside)
# asc_below(z)    the ascending chain {z - 1/n : n >= 1}, bounded above by
#                 its limit z; rejected, since it encodes infinitely many
#                 steps before a finite horizon
# union(..)       disjoint union of the above


class FiniteScale(Value):
    __slots__ = ("points",)

    def __init__(self, points: tuple[Fraction, ...]) -> None:
        object.__setattr__(self, "points", points)
        if len(set(points)) != len(points):
            raise ParseError(f"duplicate points in finite scale: {self}")

    def __str__(self) -> str:
        return "finite(" + ", ".join(map(str, self.points)) + ")"


class Chain(Value):
    """The points anchor + sign/n for n >= 1: desc_above(anchor) for sign
    1, asc_below(anchor) for sign -1."""

    __slots__ = ("anchor", "sign")

    def __init__(self, anchor: Fraction, sign: int) -> None:
        object.__setattr__(self, "anchor", anchor)
        object.__setattr__(self, "sign", sign)

    def __str__(self) -> str:
        return f"{'desc_above' if self.sign > 0 else 'asc_below'}({self.anchor})"


class ScaleUnion(Value):
    __slots__ = ("parts",)

    def __init__(self, parts: tuple["ScaleExpr", ...]) -> None:
        object.__setattr__(self, "parts", parts)

    def __str__(self) -> str:
        return "union(" + ", ".join(map(str, self.parts)) + ")"


ScaleExpr = Union[FiniteScale, Chain, ScaleUnion]


def _chain_member(p: Fraction, anchor: Fraction, sign: int) -> bool:
    """Is p = anchor + sign/n for a positive integer n."""
    gap = (p - anchor) * sign
    if gap <= 0:
        return False
    inv = 1 / gap
    return inv.denominator == 1


# The most steps either search below may take; past it two chains are
# reported as not shown disjoint rather than searched for hours.
SEARCH_BUDGET = 10**6


def _chain_points_equal_gap(d: Fraction, s1: int, s2: int) -> Optional[bool]:
    """Does s1/n - s2/m = d have a solution in positive integers n, m;
    None when neither search below decides it within SEARCH_BUDGET steps.

    Covers chain/chain intersection: anchor1 + s1/n = anchor2 + s2/m with
    d = anchor2 - anchor1.
    """
    if d == 0:
        return s1 == s2
    # With s1 == s2 this is 1/n - 1/m = |d|, up to swapping n and m;
    # otherwise 1/n + 1/m = s1 * d, which needs s1 * d > 0.
    plus = s1 != s2
    e = s1 * d if plus else abs(d)
    if e < 0:
        return False
    p, q = e.numerator, e.denominator
    scan_steps, trial_steps = (2 if plus else 1) * q // p, isqrt(q)
    if min(scan_steps, trial_steps) > SEARCH_BUDGET:
        return None
    if scan_steps <= trial_steps:
        return _unit_pair_scan(p, q, plus, scan_steps)
    return _unit_pair_divisors(p, q, plus)


def _unit_pair_scan(p: int, q: int, plus: bool, steps: int) -> bool:
    """Is p/q = 1/n + 1/m (plus) or 1/n - 1/m, with n, m positive, found by
    trying each n up to `steps`: for a sum the larger term 1/n is at
    least p/2q, for a difference 1/n exceeds p/q.  Then 1/m is
    (pn - q)/qn or (q - pn)/qn, a unit fraction when its numerator is
    positive and divides qn."""
    sign = 1 if plus else -1
    for n in range(1, steps + 1):
        rest = sign * (p * n - q)
        if rest > 0 and q * n % rest == 0:
            return True
    return False


def _unit_pair_divisors(p: int, q: int, plus: bool) -> bool:
    """The question `_unit_pair_scan` answers, by a divisor search.

    For a sum, (pn - q)(pm - q) = q*q, and both factors are positive, so
    a solution is a divisor a of q*q with a and q*q/a both -q mod p.  For
    a difference, (q - pn)(q + pm) = q*q: a divisor a < q with a and
    q*q/a both q mod p.  The divisors come from factoring q by trial
    division, about sqrt(q) steps."""
    square, r = q * q, -q % p if plus else q % p
    return any(a % p == r and square // a % p == r and (plus or a < q)
               for a in _square_divisors(q))


def _square_divisors(q: int) -> list:
    """Every divisor of q*q."""
    divisors, k = [1], 2
    while k * k <= q:
        e = 0
        while q % k == 0:
            q //= k
            e += 1
        if e:
            divisors = [d * k**j for d in divisors for j in range(2 * e + 1)]
        k += 1
    if q > 1:
        divisors = [d * q**j for d in divisors for j in range(3)]
    return divisors


def _parts_overlap(x: ScaleExpr, y: ScaleExpr) -> bool:
    if isinstance(x, ScaleUnion) or isinstance(y, ScaleUnion):
        xs = x.parts if isinstance(x, ScaleUnion) else (x,)
        ys = y.parts if isinstance(y, ScaleUnion) else (y,)
        return any(_parts_overlap(a, b) for a in xs for b in ys)
    if isinstance(x, FiniteScale) and isinstance(y, FiniteScale):
        return bool(set(x.points) & set(y.points))
    if isinstance(x, FiniteScale) or isinstance(y, FiniteScale):
        fin, chain = (x, y) if isinstance(x, FiniteScale) else (y, x)
        return any(_chain_member(p, chain.anchor, chain.sign) for p in fin.points)
    meet = _chain_points_equal_gap(y.anchor - x.anchor, x.sign, y.sign)
    if meet is None:
        raise ScaleOverlapError(
            f"cannot tell within {SEARCH_BUDGET} steps whether {x} and {y} overlap")
    return meet


def _check_union_disjoint(expr: ScaleExpr) -> None:
    if isinstance(expr, ScaleUnion):
        for part in expr.parts:
            _check_union_disjoint(part)
        for i, a in enumerate(expr.parts):
            for b in expr.parts[i + 1 :]:
                if _parts_overlap(a, b):
                    raise ScaleOverlapError(f"union members overlap: {a} and {b}")


def validate_scale(expr: ScaleExpr) -> Optional[str]:
    """The witness that rejects the scale, or None to accept it: a scale
    is rejected iff some component ascends toward a finite limit from
    below.

    A descending chain above its base always has a least element ahead of
    any present position, so stepwise constructions terminate.  An ascending
    chain below its limit packs infinitely many points before the limit;
    any process crossing it would need infinitely many steps in finite time.
    Unions must be disjoint; overlap is a structural error, not a rejection.
    """
    _check_union_disjoint(expr)
    bad = _find_asc(expr)
    if bad is None:
        return None
    return (f"ascending chain approaching {bad.anchor} from below: "
            f"{bad.anchor}-1, {bad.anchor}-1/2, {bad.anchor}-1/3, ... has no final step")


def _find_asc(expr: ScaleExpr) -> Optional[Chain]:
    if isinstance(expr, Chain) and expr.sign < 0:
        return expr
    if isinstance(expr, ScaleUnion):
        for part in expr.parts:
            found = _find_asc(part)
            if found is not None:
                return found
    return None


# -- textual syntax ----------------------------------------------------------


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r}") from exc


def tokenize(text: str, symbols: tuple, words: tuple, bad: str) -> list[str]:
    """The tokens of `text`, which spaces separate.  At each position the
    token is the first of `symbols` that starts there, else the longest
    run read by the first `(first, rest)` character test in `words` whose
    `first` holds; any other character is refused with `bad.format(ch)`."""
    tokens: list[str] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        for sym in symbols:
            if text.startswith(sym, i):
                j = i + len(sym)
                break
        else:
            for first, rest in words:
                if first(ch):
                    break
            else:
                raise ParseError(bad.format(ch))
            j = i + 1
            while j < n and rest(text[j]):
                j += 1
        tokens.append(text[i:j])
        i = j
    return tokens


class Reader:
    """A cursor over a token list for a recursive-descent parser; `end` is
    the message when the tokens run out.  A subclass keeps its grammar, and
    reads a comma list inside a recursive production inline: a helper that
    called the item reader would add a frame per level of nesting."""

    def __init__(self, tokens: list[str], end: str) -> None:
        self.tokens = tokens
        self.pos = 0
        self.end = end

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        if self.pos == len(self.tokens):
            raise ParseError(self.end)
        self.pos += 1
        return self.tokens[self.pos - 1]

    def accept(self, tok: str) -> bool:
        if self.peek() == tok:
            self.pos += 1
            return True
        return False

    def expect(self, tok: str) -> None:
        got = self.take()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r}")

    def done(self, value, trailing: str):
        """`value` once every token is read; else `trailing.format(token)`."""
        if self.peek() is not None:
            raise ParseError(trailing.format(self.peek()))
        return value


# Names, then numbers: `1a` reads as `1` and `a`, and `.` is no token.
_SCALE_WORDS = ((lambda ch: ch.isalpha() or ch == "_", lambda ch: ch.isalnum() or ch == "_"),
                (lambda ch: ch.isdigit() or ch == "-", lambda ch: ch.isdigit() or ch == "/"))


class _ScaleParser(Reader):
    def expr(self) -> ScaleExpr:
        head = self.take()
        if head in ("finite", "desc_above", "asc_below"):
            self.expect("(")
            points = []
            if not self.accept(")"):
                points.append(parse_fraction(self.take()))
                while self.accept(","):
                    points.append(parse_fraction(self.take()))
                self.expect(")")
            if head == "finite":
                if not points:
                    raise ParseError("finite takes at least one point")
                return FiniteScale(tuple(points))
            if len(points) != 1:
                raise ParseError(f"{head} takes one point, got {len(points)}")
            return Chain(points[0], 1 if head == "desc_above" else -1)
        if head == "union":
            self.expect("(")
            parts = [self.expr()]
            while self.accept(","):
                parts.append(self.expr())
            self.expect(")")
            return ScaleUnion(tuple(parts))
        raise ParseError(f"unknown scale constructor {head!r}")


def parse_scale_expr(text: str) -> ScaleExpr:
    tokens = tokenize(text, ("(", ")", ","), _SCALE_WORDS,
                      "unexpected character {!r} in scale expression")
    parser = _ScaleParser(tokens, "unexpected end of scale expression")
    return parser.done(parser.expr(), "trailing input after scale expression: {!r}")


def scale_from_expr(expr: ScaleExpr) -> TimeScale:
    """Concrete scale for a finite expression; chains have no finite model."""
    if isinstance(expr, FiniteScale):
        return TimeScale(tuple(sorted(expr.points)))
    raise ParseError(f"only finite(..) scales can be evaluated, got {expr}")
