"""Solving corecursive and recursive definitions over process spaces.

A CoiterProblem holds a seed-consuming map whose output process may stop
with either a final answer or a new seed; solving it produces the map that
keeps restarting on new seeds until a final answer appears.  Productivity
is automatic here: a restart can only happen at the stop time of the
previous round, which lies strictly in the future, and time scales are
finite.

A RecurProblem is the mirror image: a map consuming processes whose
recorded values are paired with an auxiliary component; solving it feeds
each suffix of the input process back through the solved map to fabricate
that component.  Each suffix starts strictly later, so this also has to
bottom out.

Variants cover the step-shaped and strict-future-shaped versions of both.
"""
from __future__ import annotations

from typing import Optional

from .finset import FinMor, Tup, fin_mor
from .operators import expand, expanded_space, join, join_live, joining_space
from .process import (
    LiveSpace,
    Ongoing,
    ProcSpace,
    StepSpace,
    Terminated,
    live_map,
    proc_map,
    rest_after,
)
from .temporal import (
    TemporalMor,
    TemporalObj,
    first_difference,
    pointwise_coproduct,
    pointwise_product,
    temporal_mor,
    t_compose,
    t_coproduct_mor,
    t_identity,
    t_product_mor,
)
from .times import IndexPair, TermBound


class CoiterProblem:
    """A map from seeds into running processes that finish with either a
    final result or a fresh seed.

    ``f`` must be a natural map from ``c`` into the space of (value,
    process) pairs over value object ``a`` whose process part has result
    object ``b + c`` (left summand final, right summand fresh seed).
    """

    def __init__(self, w: TermBound, a: TemporalObj, b: TemporalObj,
                 c: TemporalObj, f: TemporalMor):
        self.w, self.a, self.b, self.c = w, a, b, c
        self.mixed = LiveSpace(w, a, pointwise_coproduct([b, c]))
        self.target = LiveSpace(w, a, b)
        self._lift_space: Optional[LiveSpace] = None
        self._flatten: Optional[TemporalMor] = None
        if f.dom != c:
            raise ValueError("seed map must start from the seed object")
        if f.cod != self.mixed.obj:
            raise ValueError(
                "seed map must land in value-process pairs whose result "
                "is final-or-seed"
            )
        self.f = f

    def solve(self) -> TemporalMor:
        """Iterate the seed map to exhaustion: from seeds to processes
        whose result object is final answers only."""
        memo: dict = {}
        active: set = set()

        def value_at(i: IndexPair, z):
            key = (i, z)
            if key in memo:
                return memo[key]
            if key in active:
                raise RuntimeError(
                    "seed map is not productive: a seed at %r restarts at "
                    "its own time" % (i,)
                )
            active.add(key)
            x, v = self.mixed.decode(i, self.f.at(i)(z))
            if isinstance(v, Ongoing):
                out = (x, v)
            elif v.result.tag == 0:
                out = (x, Terminated(v.at_time, v.seen, v.result.value))
            else:
                here = IndexPair(v.at_time, i.t0)
                x2, v2 = value_at(here, v.result.value)
                seen = v.seen + ((v.at_time, x2),) + v2.seen
                if isinstance(v2, Terminated):
                    out = (x, Terminated(v2.at_time, seen, v2.result))
                else:
                    out = (x, Ongoing(seen))
            active.discard(key)
            memo[key] = out
            return out

        def component(i: IndexPair) -> FinMor:
            def step(z):
                x, v = value_at(i, z)
                return self.target.encode(i, x, v)

            return fin_mor(self.c.at(i), self.target.obj.at(i), step)

        return temporal_mor(self.c, self.target.obj, component)

    def equation_gap(self, cand: TemporalMor) -> Optional[str]:
        """Check the defining property of a solution: mapping fresh seeds
        through the candidate and concatenating must reproduce the
        candidate.  Returns a witness of the first violation, or None."""
        if self._lift_space is None:
            self._lift_space = LiveSpace(
                self.w, self.a,
                pointwise_coproduct([self.b, self.target.obj]),
            )
            self._flatten = join_live(self.target)
        onward = t_coproduct_mor([t_identity(self.b), cand])
        lifted = live_map(self.mixed, self._lift_space, res=onward)
        return first_difference(
            cand, t_compose(self._flatten, t_compose(lifted, self.f))
        )


def coiter_step(w: TermBound, a: TemporalObj, b: TemporalObj, c: TemporalObj,
                f: TemporalMor) -> TemporalMor:
    """Step-shaped variant: the seed map may answer immediately instead of
    starting a process.  ``f`` goes from ``c`` to ``b + (value-process
    pairs with result object c)``; the solution goes from ``c`` to the
    step space over ``b``."""
    live_c = LiveSpace(w, a, c)
    mixed = pointwise_coproduct([b, live_c.obj])
    if f.dom != c or f.cod != mixed:
        raise ValueError("seed map endpoints do not fit the step shape")
    restart = live_map(live_c, LiveSpace(w, a, mixed), res=f)
    inner = CoiterProblem(w, a, b, live_c.obj, restart).solve()
    return t_compose(t_coproduct_mor([t_identity(b), inner]), f)


def coiter_proc(w: TermBound, a: TemporalObj, b: TemporalObj, c: TemporalObj,
                f: TemporalMor) -> TemporalMor:
    """Strict-future variant: seeds map to processes whose result is
    either final or a (current value, fresh seed) pair.  The solution maps
    seeds to plain processes over ``b``."""
    ac = pointwise_product([a, c])
    src = ProcSpace(w, a, pointwise_coproduct([b, ac]))
    if f.dom != c or f.cod != src.obj:
        raise ValueError("seed map endpoints do not fit the process shape")
    paired = t_product_mor([t_identity(a), f])
    inner = CoiterProblem(w, a, b, ac, paired).solve()
    plain = ProcSpace(w, a, b)
    widen = proc_map(src, joining_space(plain),
                     res=t_coproduct_mor([t_identity(b), inner]))
    return t_compose(join(plain), t_compose(widen, f))


class RecurProblem:
    """A map consuming processes whose recorded values carry an auxiliary
    component, producing that component.

    ``f`` must be a natural map from the process space over value object
    ``a x c`` (results ``b``) to ``c``.  Solving produces the map on
    processes over plain ``a``: each recorded value is paired with the
    solved map's output on the suffix starting at that record's time.
    """

    def __init__(self, w: TermBound, a: TemporalObj, b: TemporalObj,
                 c: TemporalObj, f: TemporalMor):
        self.w, self.a, self.b, self.c = w, a, b, c
        self.source = ProcSpace(w, a, b)
        self.paired = ProcSpace(w, pointwise_product([a, c]), b)
        self._expanded: Optional[ProcSpace] = None
        self._dup: Optional[TemporalMor] = None
        if f.dom != self.paired.obj:
            raise ValueError(
                "consumer must start from processes over paired values"
            )
        if f.cod != c:
            raise ValueError("consumer must land in the auxiliary object")
        self.f = f

    def solve(self) -> TemporalMor:
        memo: dict = {}
        active: set = set()

        def value_at(i: IndexPair, elem):
            key = (i, elem)
            if key in memo:
                return memo[key]
            if key in active:
                raise RuntimeError(
                    "consumer is not well founded: the process at %r is its "
                    "own suffix" % (i,)
                )
            active.add(key)
            v = self.source.decode(i, elem)
            seen = tuple(
                (
                    u,
                    Tup(
                        (
                            x,
                            value_at(
                                IndexPair(u, i.t0),
                                self.source.encode(
                                    IndexPair(u, i.t0), rest_after(v, u)
                                ),
                            ),
                        )
                    ),
                )
                for u, x in v.seen
            )
            if isinstance(v, Terminated):
                fed = Terminated(v.at_time, seen, v.result)
            else:
                fed = Ongoing(seen)
            out = self.f.at(i)(self.paired.encode(i, fed))
            active.discard(key)
            memo[key] = out
            return out

        def component(i: IndexPair) -> FinMor:
            return fin_mor(self.source.obj.at(i), self.c.at(i),
                           lambda elem: value_at(i, elem))

        return temporal_mor(self.source.obj, self.c, component)

    def equation_gap(self, cand: TemporalMor) -> Optional[str]:
        """Check the defining property of a solution: pairing every record
        with the candidate's output on its suffix and consuming must
        reproduce the candidate.  Returns a witness of the first
        violation, or None."""
        if self._expanded is None:
            self._expanded = expanded_space(self.source)
            self._dup = expand(self.source)
        lift = proc_map(self._expanded, self.paired,
                        act=t_product_mor([t_identity(self.a), cand]))
        return first_difference(
            cand, t_compose(self.f, t_compose(lift, self._dup))
        )


def recur_live(w: TermBound, a: TemporalObj, b: TemporalObj, c: TemporalObj,
               f: TemporalMor) -> TemporalMor:
    """Pair-shaped variant: the consumer takes a current value together
    with a process whose recorded values are auxiliary components.  The
    solution consumes (value, process) pairs over plain ``a``."""
    cproc = ProcSpace(w, c, b)
    src = pointwise_product([a, cproc.obj])
    if f.dom != src or f.cod != c:
        raise ValueError("consumer endpoints do not fit the pair shape")
    relabel = proc_map(ProcSpace(w, src, b), cproc, act=f)
    solved = RecurProblem(w, a, b, cproc.obj, relabel).solve()
    return t_compose(f, t_product_mor([t_identity(a), solved]))
