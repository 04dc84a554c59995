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

from .finset import FinMor
from .operators import join, joining_space, splice
from .process import LiveSpace, ProcSpace, live_map, proc_map
from .temporal import (
    TemporalMor,
    TemporalObj,
    first_mismatch,
    pointwise_coproduct,
    pointwise_product,
    t_compose,
    t_coproduct_mor,
    t_identity,
    t_product_mor,
)
from .times import IndexPair, TermBound


def finish_round(mixed: LiveSpace, target: LiveSpace, i: IndexPair, p: int,
                 onward: Callable) -> int:
    """Finish one round of a seed map, by position: ``p`` is a (value,
    process) pair of ``mixed`` at ``i`` whose result is final (left) or a
    fresh seed (right), which ``onward(here, seed)`` turns into a
    position in the step space over ``target`` at the stop, spliced on
    as `join` does.  Returns the position in ``target`` at ``i``."""
    x, q = divmod(p, len(mixed.proc._carriers[i]))
    k, r = mixed.proc._layout[i].locate(q)
    lay = target.proc._layout[i]
    if k == lay.stops:  # still running: the record carries over
        out = lay.offsets[k] + r
    else:
        here = lay.run[k]
        prefix, y = divmod(r, len(mixed.b.at(here)))
        n = len(target.b.at(here))
        out = splice(target.proc, i, k, prefix, y if y < n else onward(here, y - n))
    return x * len(target.proc._carriers[i]) + out


def _memo_solve(dom: TemporalObj, cod: TemporalObj, step: Callable,
                cycle: str) -> TemporalMor:
    """The family dom -> cod whose image of position z at i is ``step(i,
    z, rec)``, where ``rec(here, z')`` is the family's own image there,
    computed once each.  RuntimeError(``cycle % (i,)``) when an image
    needs itself."""
    memo = {i: [None] * len(dom.at(i)) for i in dom.scale.indices()}

    def value_at(i: IndexPair, z: int) -> int:
        row = memo[i]
        out = row[z]
        if out is None:
            row[z] = -1  # in progress
            out = row[z] = step(i, z, value_at)
        elif out < 0:
            raise RuntimeError(cycle % (i,))
        return out

    try:
        return TemporalMor(dom, cod, {i: FinMor(dom.at(i), cod.at(i), pos=[
            value_at(i, z) for z in range(len(row))]) for i, row in memo.items()}.__getitem__)
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
        whose result object is final answers only.  Kept: later calls
        return the same map, which callers must not change."""
        if "_solution" not in vars(self):
            self._solution = _memo_solve(
                self.c, self.target.obj, self._round,
                "seed map is not productive: a seed at %r restarts at its own time")
        return self._solution

    def _round(self, i: IndexPair, z: int, then: Callable) -> int:
        """Seed position z at i through the seed map, each fresh seed
        handed to ``then(here, seed)``, a position in the target there,
        and concatenated."""
        b = self.b
        return finish_round(self.mixed, self.target, i, self.f.at(i).pos[z],
                            lambda here, seed: len(b.at(here)) + then(here, seed))

    def image(self, cand: TemporalMor) -> Callable:
        """The right-hand side of the defining equation, by position: a
        seed through the seed map, each fresh seed through the candidate,
        then concatenated.  A solution is its own image."""
        return lambda i, z: self._round(i, z, lambda here, seed: cand.at(here).pos[seed])

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
        """Kept for later calls, as `CoiterProblem.solve` is."""
        if "_solution" not in vars(self):
            self._solution = _memo_solve(
                self.source.obj, self.c, self._consume,
                "consumer is not well founded: the process at %r is its own suffix")
        return self._solution

    def _consume(self, i: IndexPair, q: int, aux: Callable) -> int:
        """The consumer's output on process position ``q`` at ``i`` once
        every record is paired with ``aux(here, suffix)``, the auxiliary
        component of the suffix starting at that record: the recursive
        memo when solving, the candidate when checking.  By position: the
        process keeps its summand k (its stop, or the running record), and
        value digit j gains the auxiliary digit of its suffix, the trailing
        digits in summand k - j - 1 at the record's index, as in `expand`."""
        lay = self.source._layout[i]
        k, r = lay.locate(q)
        width = len(self.b.at(lay.run[k])) if k < lay.stops else 1
        out, scale = r % width, width
        for j in reversed(range(k)):
            here = lay.run[j]
            n, nc = len(self.a.at(here)), len(self.c.at(here))
            suffix = self.source._layout[here].offsets[k - j - 1] + r % width
            out += (r // width % n * nc + aux(here, suffix)) * scale
            scale *= n * nc
            width *= n
        return self.f.at(i).pos[self.paired._layout[i].offsets[k] + out]

    def image(self, cand: TemporalMor) -> Callable:
        """The right-hand side of the defining equation, by position:
        every record paired with the candidate's output on its suffix,
        then consumed.  A solution is its own image."""
        return lambda i, q: self._consume(i, q, lambda here, s: cand.at(here).pos[s])

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
