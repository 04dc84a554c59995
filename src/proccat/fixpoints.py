"""Solving corecursive and recursive definitions over process spaces.

A CoiterProblem holds a seed-consuming map whose output process may stop
with either a final answer or a new seed; solving it produces the map that
keeps restarting on new seeds until a final answer appears.

A RecurProblem is the mirror image: a map consuming processes whose
recorded values are paired with an auxiliary component; solving it feeds
each suffix of the input process back through the solved map to fabricate
that component.

Each problem is an equation: a solution is its own `image`, the
right-hand side read by position off the operator map it is made of,
which the problem holds.  A round (`finish_round`) is the seed map, each
fresh seed replaced by the candidate, then `join`; a consumer step
(`RecurProblem._consume`) is `expand`, each suffix replaced by the
candidate's output on it, then the consumer.  Productivity is the order
it is read in.  The image at (t, t0) reads the family only at later
stops (u, t0), u > t: a seed restarts at the stop of its round, a suffix
starts at a record.  So `temporal.fixpoint` fixes the components latest
stop first (`temporal.solve_order`), each the image of those fixed
before, and a finite scale runs out: the solution exists and is unique.
`search` sweeps the candidates in the same order, pruned by the same
image, so it shows that the image has exactly one natural fixpoint but
cannot show that the image is the right one.

Variants cover the step-shaped and strict-future-shaped versions of both.
"""
from __future__ import annotations

from typing import Callable, Optional

from .finset import DEFAULT_CAP
from .operators import expand, join, joining_space
from .process import LiveSpace, ProcSpace, live_map, proc_map
from .temporal import (
    TemporalMor,
    TemporalObj,
    enumerate_nat_trans,
    first_mismatch,
    fixpoint,
    pointwise_coproduct,
    pointwise_product,
    t_compose,
    t_coproduct_mor,
    t_identity,
    t_product_mor,
)
from .times import IndexPair, TermBound


def finish_round(mixed: LiveSpace, target: LiveSpace, joined: TemporalMor,
                 i: IndexPair, p: int, onward: Callable) -> int:
    """Finish one round of a seed map, by position: ``p`` is a (value,
    process) pair of ``mixed`` at ``i`` whose result is final (left) or a
    fresh seed (right), which ``onward(here, seed)`` turns into a
    position in the step space over ``target`` at the stop.  With that
    step as its result, the process goes through ``joined``, `join` over
    ``target.proc``.  Returns the position in ``target`` at ``i``."""
    x, q = divmod(p, len(mixed.proc._carriers[i]))
    k, r = mixed.proc._layout[i].locate(q)
    lay = joined.dom.layout[i]
    if k < lay.stops:  # else still running: the record carries over
        here = lay.run[k]
        prefix, y = divmod(r, len(mixed.b.at(here)))
        n = len(target.b.at(here))
        step = y if y < n else onward(here, y - n)
        r = prefix * (n + len(target.obj.at(here))) + step
    return x * len(target.proc._carriers[i]) + joined.at(i).pos[lay.offsets[k] + r]


# A problem is its `dom`, `cod` and `image`.  Each class binds the functions
# below that it offers as its own attributes, not inherited ones: those are
# what `perfbench/spans.py` counts, each under the first class it meets.


def solve(pr) -> TemporalMor:
    """The `fixpoint` of the problem's image, built on the first call and
    kept: later calls return the same map, which callers must not change."""
    if "_solution" not in vars(pr):
        pr._solution = fixpoint(pr.dom, pr.cod, pr.image)
    return pr._solution


def equation_gap(pr, cand: TemporalMor) -> Optional[str]:
    """Where the candidate first differs from its image, or None."""
    return first_mismatch(cand, pr.image(cand))


def is_solution(pr, cand: TemporalMor) -> bool:
    """Whether the candidate is its own image."""
    return equation_gap(pr, cand) is None


def search(pr, cap: int = DEFAULT_CAP) -> list:
    """Every natural family dom -> cod that is its own image, by the sweep
    pruned by it.  It reads the same `image` that `solve` reads, so it
    shows that the image has exactly one natural fixpoint; a wrong image
    it cannot catch."""
    return enumerate_nat_trans(pr.dom, pr.cod, cap, pr.image)


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
        self.dom, self.cod = c, self.target.obj
        if f.dom != c:
            raise ValueError("seed map must start from the seed object")
        if f.cod != self.mixed.obj:
            raise ValueError(
                "seed map must land in value-process pairs whose result "
                "is final-or-seed"
            )
        self.f = f
        self.join = join(self.target.proc)

    def image(self, cand: TemporalMor) -> Callable:
        """The right-hand side of the defining equation, by position: a
        seed through the seed map, each fresh seed through the candidate,
        then concatenated.  A solution is its own image."""
        b = self.b
        return lambda i, z: finish_round(
            self.mixed, self.target, self.join, i, self.f.at(i).pos[z],
            lambda here, seed: len(b.at(here)) + cand.at(here).pos[seed])

    solve, equation_gap, search = solve, equation_gap, search


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
    inner = CoiterProblem(w, a, b, ac, t_product_mor([t_identity(a), f]))
    widen = proc_map(src, joining_space(inner.target.proc),
                     res=t_coproduct_mor([t_identity(b), inner.solve()]))
    return t_compose(inner.join, t_compose(widen, f))


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
        self.dom, self.cod = self.source.obj, c
        if f.dom != self.paired.obj:
            raise ValueError(
                "consumer must start from processes over paired values"
            )
        if f.cod != c:
            raise ValueError("consumer must land in the auxiliary object")
        self.f = f
        self.expand = expand(self.source)

    def _consume(self, i: IndexPair, q: int, aux: Callable) -> int:
        """The consumer's output on process position ``q`` at ``i`` once
        every record is paired with ``aux(here, suffix)``, the auxiliary
        component of the suffix starting at that record, which `image`
        reads off the candidate.  By position: `expand` pairs each value
        digit with its suffix, and each (value, suffix) digit becomes
        (value, auxiliary) in the paired space, in the same summand k
        (the process's stop, or the running record)."""
        lay = self.expand.cod.layout[i]
        k, r = lay.locate(self.expand.at(i).pos[q])
        width = len(self.b.at(lay.run[k])) if k < lay.stops else 1
        r, out = divmod(r, width)
        for here in reversed(lay.run[:k]):
            n, nc = len(self.source._carriers[here]), len(self.c.at(here))
            r, digit = divmod(r, len(self.a.at(here)) * n)
            x, suffix = divmod(digit, n)
            out += (x * nc + aux(here, suffix)) * width
            width *= len(self.a.at(here)) * nc
        return self.f.at(i).pos[self.paired._layout[i].offsets[k] + out]

    def image(self, cand: TemporalMor) -> Callable:
        """The right-hand side of the defining equation, by position:
        every record paired with the candidate's output on its suffix,
        then consumed.  A solution is its own image."""
        return lambda i, q: self._consume(i, q, lambda here, s: cand.at(here).pos[s])

    solve, equation_gap, search = solve, equation_gap, search


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
