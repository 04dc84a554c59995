"""Descriptors for the carrier_dump workload: a seeded generator over the
`proccat dump` grammar and a counting oracle that predicts carrier sizes
without importing proccat.

The oracle follows the process semantics stated in the proccat module
docstrings, not its code.  On the scale finite(0,1,2) a process viewed at
(t, t0) under bound w either stopped at some tp in (t, hi], with one value
per scale point strictly between t and tp and a result at tp, or (only when
the bound lies beyond the horizon) is still running with one value per
point in (t, t0].  hi is w when t <= w <= t0 and t0 when w > t0; the
carrier is empty when w < t.
"""
from __future__ import annotations

import math
import random

POINTS = (0, 1, 2)
INDICES = tuple((t, t0) for t in POINTS for t0 in POINTS if t <= t0)
INDEX_MORS = tuple(
    (t, t0, t0p) for t in POINTS for t0 in POINTS for t0p in POINTS
    if t <= t0 <= t0p
)
DUMP_INDEX = (0, 2)
ARROWS = ("|>''", "|>'", "|>")
BOUNDS = (None, 0, 1, 2)  # None is `inf`; every finite bound is a scale point

# Carrier size at DUMP_INDEX a drawn descriptor must have.  The band keeps
# every dump of a draw within a few seconds on the seed code, where
# validating a map scans its codomain and so grows with the square of the
# carrier.
SIZE_BAND = (300, 4000)
# Largest exp(a, b) carrier allowed: building one enumerates every family
# of maps over up to three horizons, 27 ** 3 candidates at this limit.
MAX_EXP_SIZE = 27
# Largest Cost.quad a drawn descriptor may have: about 1.5 s per dump on
# the seed code.  Without it a few giant carriers (a product of three
# large flags under a dead bound) would decide a whole draw.
MAX_QUAD = 5_000_000


# -- descriptor trees ---------------------------------------------------------
#
# ("unit",) | ("empty",) | ("flag", n) | ("prod", args) | ("sum", args)
# | ("exp", a, b) | ("box'", x) | ("dia'", x) | ("arrow", op, w, left, right)


def render(node) -> str:
    """Descriptor text for a tree, in the grammar `proccat dump` parses."""
    kind = node[0]
    if kind in ("unit", "empty"):
        return kind
    if kind == "flag":
        return f"flag({node[1]})"
    if kind in ("prod", "sum"):
        return f"{kind}({', '.join(render(a) for a in node[1])})"
    if kind == "exp":
        return f"exp({render(node[1])}, {render(node[2])})"
    if kind in ("box'", "dia'"):
        return f"{kind} {_operand(node[1])}"
    _, op, w, left, right = node
    bound = "inf" if w is None else str(w)
    return f"{_operand(left)} {op}[{bound}] {render(right)}"


def _operand(node) -> str:
    text = render(node)
    return f"({text})" if node[0] == "arrow" else text


def count_exp(node) -> int:
    if node[0] == "exp":
        return 1
    if node[0] in ("prod", "sum"):
        return sum(count_exp(a) for a in node[1])
    if node[0] in ("box'", "dia'"):
        return count_exp(node[1])
    if node[0] == "arrow":
        return count_exp(node[3]) + count_exp(node[4])
    return 0


# -- counting oracle ----------------------------------------------------------


def _const(n: int) -> dict:
    return {i: n for i in INDICES}


def _proc_sizes(w, a: dict, b: dict) -> dict:
    out = {}
    for t, t0 in INDICES:
        if w is not None and w < t:
            out[(t, t0)] = 0
            continue
        hi = w if w is not None and w <= t0 else t0
        total = 0
        for tp in POINTS:
            if t < tp <= hi:
                total += math.prod(a[(u, t0)] for u in POINTS if t < u < tp) * b[(tp, t0)]
        if w is None or w > t0:
            total += math.prod(a[(u, t0)] for u in POINTS if t < u <= t0)
        out[(t, t0)] = total
    return out


def _live_sizes(w, a: dict, b: dict) -> dict:
    proc = _proc_sizes(w, a, b)
    return {i: a[i] * proc[i] for i in INDICES}


def _step_sizes(w, a: dict, b: dict) -> dict:
    live = _live_sizes(w, a, b)
    return {i: b[i] + live[i] for i in INDICES}


def sizes(node) -> dict:
    """Carrier size at every index of finite(0,1,2)."""
    return _walk(node, Cost())


class Cost:
    """Work the seed code does to build a described space.

    quad sums |src| * |dst| over the restriction maps of every temporal
    object built, the scan that validating each map performs.  elems sums
    carrier sizes over every index of every object built.
    """

    def __init__(self):
        self.quad = 0
        self.elems = 0

    def built(self, s: dict) -> None:
        self.quad += sum(s[(t, t0p)] * s[(t, t0)] for t, t0, t0p in INDEX_MORS)
        self.elems += sum(s.values())


def _walk(node, cost: Cost) -> dict:
    kind = node[0]
    if kind == "unit":
        return _const(1)
    if kind == "empty":
        return _const(0)
    if kind == "flag":
        return _const(node[1])
    if kind in ("prod", "sum"):
        parts = [_walk(a, cost) for a in node[1]]
        combine = math.prod if kind == "prod" else sum
        out = {i: combine(p[i] for p in parts) for i in INDICES}
        cost.built(out)
        return out
    if kind == "exp":
        a, b = _walk(node[1], cost), _walk(node[2], cost)
        out = _const(b[DUMP_INDEX] ** a[DUMP_INDEX])
        cost.built(out)
        return out
    if kind == "box'":
        return _space(cost, _live_sizes, None, _walk(node[1], cost), _const(0))
    if kind == "dia'":
        return _space(cost, _live_sizes, POINTS[-1], _const(1), _walk(node[1], cost))
    _, op, w, left, right = node
    a, b = _walk(left, cost), _walk(right, cost)
    builder = {"|>''": _proc_sizes, "|>'": _live_sizes, "|>": _step_sizes}[op]
    return _space(cost, builder, w, a, b)


def _space(cost: Cost, builder, w, a: dict, b: dict) -> dict:
    # A live space builds its process space and then a product; a step
    # space builds a live space and then a coproduct.
    cost.built(_proc_sizes(w, a, b))
    if builder is _proc_sizes:
        return _proc_sizes(w, a, b)
    cost.built(_live_sizes(w, a, b))
    if builder is _live_sizes:
        return _live_sizes(w, a, b)
    out = _step_sizes(w, a, b)
    cost.built(out)
    return out


def cost_of(node) -> Cost:
    cost = Cost()
    _walk(node, cost)
    return cost


# -- generator ----------------------------------------------------------------


def _gen_const(rng: random.Random, depth: int, allow_exp: bool):
    roll = rng.random()
    if depth <= 0 or roll < 0.45:
        return ("flag", rng.choice((rng.randint(1, 4), rng.randint(2, 12), rng.randint(12, 64))))
    if roll < 0.55:
        return ("unit",)
    if roll < 0.7 and allow_exp:
        return ("exp", _gen_small(rng), _gen_small(rng))
    kind = rng.choice(("prod", "sum"))
    return (kind, tuple(_gen_const(rng, depth - 1, False)
                        for _ in range(rng.randint(2, 3))))


def _gen_small(rng: random.Random):
    return ("unit",) if rng.random() < 0.2 else ("flag", rng.randint(1, 3))


def _gen_space(rng: random.Random, depth: int):
    roll = rng.random()
    if roll < 0.2:
        return (rng.choice(("box'", "dia'")), _gen_operand(rng, depth - 1))
    left = _gen_operand(rng, depth - 1)
    right = _gen_operand(rng, depth - 1) if rng.random() < 0.75 else ("unit",)
    return ("arrow", rng.choice(ARROWS), rng.choice(BOUNDS), left, right)


def _gen_operand(rng: random.Random, depth: int):
    if depth > 0 and rng.random() < 0.25:
        return _gen_space(rng, depth)
    return _gen_const(rng, 1, True)


def in_band(node) -> bool:
    """Dumpable, in the size band, and cheap enough to build that a pass
    holds several dumps."""
    if count_exp(node) > 1 or not _exp_ok(node):
        return False
    lo, hi = SIZE_BAND
    return lo <= sizes(node)[DUMP_INDEX] <= hi and cost_of(node).quad <= MAX_QUAD


def _exp_ok(node) -> bool:
    kind = node[0]
    if kind == "exp":
        return (_is_const(node[1]) and _is_const(node[2])
                and sizes(node)[DUMP_INDEX] <= MAX_EXP_SIZE)
    if kind in ("prod", "sum"):
        return all(_exp_ok(a) for a in node[1])
    if kind in ("box'", "dia'"):
        return _exp_ok(node[1])
    if kind == "arrow":
        return _exp_ok(node[3]) and _exp_ok(node[4])
    return True


def _is_const(node) -> bool:
    """Built from unit, empty and flags only, so every restriction is an
    identity and exp over it counts |b| ** |a| at every index."""
    if node[0] in ("unit", "empty", "flag"):
        return True
    return node[0] in ("prod", "sum") and all(_is_const(a) for a in node[1])


def candidates(rng: random.Random, count: int) -> list:
    """`count` distinct in-band descriptor trees, drawn from rng."""
    seen, out = set(), []
    while len(out) < count:
        node = _gen_space(rng, 3)
        text = render(node)
        if text not in seen and in_band(node):
            seen.add(text)
            out.append(node)
    return out
