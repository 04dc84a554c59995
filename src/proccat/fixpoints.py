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

from typing import Callable, Optional

from .finset import Inj, Tup, fin_mor
from .operators import join, joining_space, splice
from .process import (
    LiveSpace,
    Ongoing,
    ProcSpace,
    Terminated,
    live_map,
    proc_map,
    rest_after,
)
from .temporal import (
    TemporalMor,
    TemporalObj,
    first_mismatch,
    pointwise_coproduct,
    pointwise_product,
    temporal_mor,
    t_compose,
    t_coproduct_mor,
    t_identity,
    t_product_mor,
)
from .times import IndexPair, TermBound


def finish_round(mixed: LiveSpace, target: LiveSpace, i: IndexPair, elem,
                 onward: Callable):
    """Finish one round of a seed map.  ``elem`` is a (value, process)
    pair of ``mixed`` at ``i`` whose result is final (left) or a fresh
    seed (right), which ``onward(here, seed)`` turns into an element of
    the step space over ``target`` at the stop; the process is spliced
    with it as `join` does.  Returns the element of ``target`` at ``i``."""
    x, v = mixed.decode(i, elem)
    if isinstance(v, Terminated):
        r = v.result
        if r.tag == 1:
            r = onward(target.scale.pairs()[v.at_time, i.t0], r.value)
        v = splice(target.proc, i.t0, v, r)
    return target.encode(i, x, v)


def _memo_solve(dom: TemporalObj, cod: TemporalObj, step: Callable,
                cycle: str) -> TemporalMor:
    """The family dom -> cod whose image of z at i is ``step(i, z, rec)``,
    where ``rec(here, z')`` is the family's own image there, computed
    once each.  RuntimeError(``cycle % (i,)``) when an image needs
    itself."""
    memo: dict = {}
    active: set = set()

    def value_at(i: IndexPair, z):
        key = (i, z)
        if key in memo:
            return memo[key]
        if key in active:
            raise RuntimeError(cycle % (i,))
        active.add(key)
        out = memo[key] = step(i, z, value_at)
        active.discard(key)
        return out

    try:
        return temporal_mor(dom, cod, lambda i: fin_mor(
            dom.at(i), cod.at(i), lambda z: value_at(i, z)))
    finally:
        del value_at  # a self-reference: the memo dies with the call


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
        return _memo_solve(
            self.c, self.target.obj,
            lambda i, z, rec: finish_round(self.mixed, self.target, i, self.f.at(i)(z),
                                           lambda here, seed: Inj(1, rec(here, seed))),
            "seed map is not productive: a seed at %r restarts at its own time")

    def image(self, cand: TemporalMor) -> Callable:
        """The right-hand side of the defining equation, pointwise: a seed
        through the seed map, each fresh seed through the candidate, then
        concatenated.  A solution is its own image."""
        def onward(here: IndexPair, seed):
            return Inj(1, cand.at(here)(seed))

        return lambda i, z: finish_round(self.mixed, self.target, i,
                                         self.f.at(i)(z), onward)

    def equation_gap(self, cand: TemporalMor) -> Optional[str]:
        """A witness of the first seed where the candidate differs from its
        image, or None."""
        return first_mismatch(cand, self.image(cand))


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
        if f.dom != self.paired.obj:
            raise ValueError(
                "consumer must start from processes over paired values"
            )
        if f.cod != c:
            raise ValueError("consumer must land in the auxiliary object")
        self.f = f

    def solve(self) -> TemporalMor:
        return _memo_solve(
            self.source.obj, self.c, self._consume,
            "consumer is not well founded: the process at %r is its own suffix")

    def _consume(self, i: IndexPair, elem, aux: Callable):
        """The consumer's output on process ``elem`` at ``i`` once every
        record is paired with ``aux(here, suffix)``, the auxiliary
        component of the suffix starting at that record: the recursive
        memo when solving, the candidate when checking."""
        v = self.source.decode(i, elem)
        pair = self.source.scale.pairs()
        seen = []
        for u, x in v.seen:
            here = pair[u, i.t0]
            suffix = self.source.encode(here, rest_after(v, u))
            seen.append((u, Tup((x, aux(here, suffix)))))
        if isinstance(v, Terminated):
            fed = Terminated(v.at_time, tuple(seen), v.result)
        else:
            fed = Ongoing(tuple(seen))
        return self.f.at(i)(self.paired.encode(i, fed))

    def image(self, cand: TemporalMor) -> Callable:
        """The right-hand side of the defining equation, pointwise: every
        record paired with the candidate's output on its suffix, then
        consumed.  A solution is its own image."""
        return lambda i, elem: self._consume(i, elem, lambda here, suffix:
                                             cand.at(here)(suffix))

    def equation_gap(self, cand: TemporalMor) -> Optional[str]:
        """A witness of the first process where the candidate differs from
        its image, or None."""
        return first_mismatch(cand, self.image(cand))


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
