"""Structural operations on process spaces.

* expand: rewrite a process so that every recorded value is paired with the
  suffix of the process starting at that moment.
* join: a process whose final result is itself a (possibly already stopped)
  process becomes the concatenation of the two.
* merge: two processes over the same scale combine into one process over
  paired values, running until the first of them stops; this is a bijection
  and both directions are provided.

Every map here is position arithmetic on the carrier layouts of the spaces
involved.  `expand`, `join`, `expanded_space` and `joining_space` are
hash-consed on the space's object like the spaces themselves, so the laws
checked on one space share one map for as long as any of them holds it.
"""
from __future__ import annotations

from functools import wraps
from itertools import chain, cycle, product
from math import prod

from .finset import FinMor, _interned
from .process import LiveSpace, ProcSpace, StepSpace
from .temporal import (
    TemporalMor,
    pointwise_coproduct,
    pointwise_product,
    t_compose,
    t_copairing,
    t_coproduct_mor,
    t_identity,
    t_inj,
    t_pairing,
    t_product_mor,
    t_proj,
)
from .times import IndexPair, w_meet


def _per_space(build):
    """`build(sp)`, a map or a space over `sp`, shared while held:
    interned on `sp.obj`, which fixes the bound and both objects.
    `laws.poison` breaks a copy, never the shared map."""
    @wraps(build)
    def shared(sp: ProcSpace):
        return _interned(build.__name__, (sp.obj,), lambda: build(sp))

    return shared


# -- expansion --------------------------------------------------------------


@_per_space
def expanded_space(sp: ProcSpace) -> ProcSpace:
    """The space whose recorded values are (value, suffix) pairs."""
    return ProcSpace(sp.w, LiveSpace(sp.w, sp.a, sp.b).obj, sp.b)


def _live(sp: ProcSpace, here: IndexPair, k: int) -> list:
    """The positions in the live object over `sp` at `here` of (value,
    process) pairs whose process is in summand k there, in order."""
    size, lay = len(sp._carriers[here]), sp._layout[here]
    return [x * size + lay.offsets[k] + r
            for x in range(len(sp.a.at(here))) for r in range(len(lay.summands[k]))]


@_per_space
def expand(sp: ProcSpace) -> TemporalMor:
    """Pair every recorded value with the suffix starting at its time.

    Stop time, final result, and the stopped/running shape are preserved;
    only the records change, each becoming a process in its own right based
    at the record's time.

    By position: the suffix after the j-th record is the same stop (or
    the running record) at the record's index, and its digits are the
    trailing digits of the process, so the expansion of digits j, j+1,
    ... is the pair of value j and that suffix followed by the expansion
    of the suffix.
    """
    target = expanded_space(sp)

    def component(i: IndexPair) -> FinMor:
        lay = sp._layout[i]
        pos = []
        for k, base in enumerate(target._layout[i].offsets):
            tail = list(range(len(sp.b.at(lay.run[k])) if k < lay.stops else 1))
            width = len(tail)
            for j in reversed(range(k)):
                here = lay.run[j]
                live = _live(sp, here, k - j - 1)
                tail = [p * width + c for p, c in zip(live, cycle(tail))]
                width *= len(target.a.at(here))
            pos.extend(map(base.__add__, tail))
        return FinMor(sp._carriers[i], target._carriers[i], pos=pos)

    return TemporalMor(sp.obj, target.obj, component)


def expand_live(sp: LiveSpace) -> TemporalMor:
    """Pair the whole running process with itself expanded: the first
    component is kept, the future part is expanded."""
    future = t_compose(expand(sp.proc), t_proj([sp.a, sp.proc.obj], 1))
    return t_pairing([t_identity(sp.obj), future])


def expand_step(sp: StepSpace) -> TemporalMor:
    """Already-stopped results pass through; running processes expand."""
    return t_coproduct_mor([t_identity(sp.b), expand_live(sp.live)])


# -- joining ----------------------------------------------------------------


@_per_space
def joining_space(sp: ProcSpace) -> ProcSpace:
    """Processes whose final result is itself a step process of the same
    shape: the domain of join."""
    return ProcSpace(sp.w, sp.a, StepSpace(sp.w, sp.a, sp.b).obj)


def _stopped(sp: ProcSpace, i: IndexPair, k: int) -> list:
    """Per result at the k-th point of i's run, the (base, width) that
    put the process stopping with it there in summand k at i, at base +
    p * width for the prefix p of its first k values."""
    n = len(sp.b.at(sp._layout[i].run[k]))
    return [(sp._layout[i].offsets[k] + y, n) for y in range(n)]


def _onward(sp: ProcSpace, i: IndexPair, k: int) -> list:
    """The inverse of `_live`: per position of the live object over `sp`
    at the k-th point of i's run, a value x and a suffix in summand q
    there, the (base, width) that put the process going on with them in
    summand k + 1 + q at i, as in `_stopped`."""
    here = sp._layout[i].run[k]
    offsets, n = sp._layout[i].offsets, len(sp.a.at(here))
    return [(offsets[k + 1 + q] + x * len(s) + r, n * len(s))
            for x in range(n) for q, s in enumerate(sp._layout[here].summands)
            for r in range(len(s))]


@_per_space
def join(sp: ProcSpace) -> TemporalMor:
    """Concatenate a process with the process its final result carries.

    If the outer process runs forever the result is the outer record
    unchanged; if it stops, the two are spliced.

    By position: a process stopped at the k-th point is a prefix record
    and a result, which either stops right there or hands over a value
    and a process q at that point.  The splice is the prefix digits,
    the handed-over value, then q's digits, in the summand of q's stop
    (or the running record) counted k + 1 further on: `_stopped` and
    `_onward` place each result and each handover.
    """
    outer = joining_space(sp)

    def component(i: IndexPair) -> FinMor:
        lay, into = outer._layout[i], sp._layout[i]
        pos = []
        for k in range(lay.stops):
            tails = _stopped(sp, i, k) + _onward(sp, i, k)
            prefixes = range(prod(len(sp.a.at(p)) for p in lay.run[:k]))
            pos.extend(base + p * width for p in prefixes for base, width in tails)
        if lay.running:
            pos.extend(range(into.offsets[-1], into.offsets[-1] + len(lay.summands[-1])))
        return FinMor(outer._carriers[i], sp._carriers[i], pos=pos)

    return TemporalMor(outer.obj, sp.obj, component)


def join_live(sp: LiveSpace) -> TemporalMor:
    """Keep the current value; concatenate the future part."""
    return t_product_mor([t_identity(sp.a), join(sp.proc)])


def join_step(sp: StepSpace) -> TemporalMor:
    """A step whose non-stopped branch carries a step-valued process: the
    already-stopped branch passes through, the other concatenates."""
    live_part = t_compose(t_inj([sp.b, sp.live.obj], 1), join_live(sp.live))
    return t_copairing([t_identity(sp.obj), live_part])


# -- merging ----------------------------------------------------------------


class MergeSpace:
    """Two processes merged into one over paired values.

    The merged process runs until the first of the two stops.  Its final
    result records which side stopped: both together, only the left, or
    only the right; the side still running contributes its current value
    and its remaining future.
    """

    def __init__(self, left: ProcSpace, right: ProcSpace):
        if left.scale != right.scale:
            raise ValueError("merging processes over different scales")
        self.left, self.right, self.scale = left, right, left.scale
        self.live_left = LiveSpace(left.w, left.a, left.b)
        self.live_right = LiveSpace(right.w, right.a, right.b)
        # Both stop, the left stops first, the right stops first.
        self.outcome = pointwise_coproduct(list(map(pointwise_product, [
            [left.b, right.b], [left.b, self.live_right.obj],
            [self.live_left.obj, right.b]])))
        self.merged = ProcSpace(w_meet(left.w, right.w),
                                pointwise_product([left.a, right.a]), self.outcome)

    def split(self) -> TemporalMor:
        """The inverse of zip: merged -> left x right.

        By position, the inverse arithmetic of `_zip_rows`.  Merged
        summand k stops at the k-th point of the run (past its end, it is
        the running record).  A side that stopped there is in its own
        summand k, a side still running is in a later one, and a
        running record is the side's running record.  Each side's value
        digits are its half of each paired value digit, and its position
        the (base, width) of `_stopped` or `_onward` taken at its
        prefix."""
        left, right = self.left, self.right
        pair_obj = pointwise_product([left.obj, right.obj])

        def component(i: IndexPair) -> FinMor:
            run, n = left._layout[i].run, len(right._carriers[i])
            prefixes, pos = [(0, 0)], []
            for k in range(len(self.merged._layout[i].summands)):
                if k == len(run):
                    tails = [((left._layout[i].offsets[k], 1),
                              (right._layout[i].offsets[k], 1))]
                else:
                    sl, sr = _stopped(left, i, k), _stopped(right, i, k)
                    # Both stop, the left stops first, the right stops first.
                    tails = [*product(sl, sr), *product(sl, _onward(right, i, k)),
                             *product(_onward(left, i, k), sr)]
                pos.extend((lb + pl * lw) * n + rb + pr * rw
                           for pl, pr in prefixes for (lb, lw), (rb, rw) in tails)
                if k < len(run):
                    la, ra = len(left.a.at(run[k])), len(right.a.at(run[k]))
                    prefixes = [(pl * la + x, pr * ra + z) for pl, pr in prefixes
                                for x in range(la) for z in range(ra)]
            return FinMor(self.merged._carriers[i], pair_obj.at(i), pos=pos)

        return TemporalMor(self.merged.obj, pair_obj, component)

    def zip(self) -> TemporalMor:
        """The inverse of split: run two processes side by side until the
        first stop.

        By position, a case split on the summands of the two sides: the
        pair stops with the one that stops first (or runs on when both
        run).  Summand k of a carrier stops at the k-th point of the
        run, and summand len(run) is the running record."""
        pair_obj = pointwise_product([self.left.obj, self.right.obj])

        def component(i: IndexPair) -> FinMor:
            pos = []
            for k1 in range(len(self.left._layout[i].summands)):
                blocks = [self._zip_rows(i, k1, k2)
                          for k2 in range(len(self.right._layout[i].summands))]
                pos.extend(chain.from_iterable(chain.from_iterable(zip(*blocks))))
            return FinMor(pair_obj.at(i), self.merged._carriers[i], pos=pos)

        return TemporalMor(pair_obj, self.merged.obj, component)

    def _zip_rows(self, i: IndexPair, k1: int, k2: int) -> list:
        """Per element of summand k1 of the left carrier at i, the merged
        positions of its pairs with summand k2 of the right one.

        The pair stops (or runs) as merged summand k = min(k1, k2).  Its
        result is both results, or the result of the side that stopped
        with the other side's value and suffix there.  Going back from
        it, each of the first k points pairs one value from each side."""
        left, right = self.left, self.right
        run = left._layout[i].run
        k = min(k1, k2)
        base = self.merged._layout[i].offsets[k]
        rows, width = [[base]], 1
        if k < len(run):
            here = run[k]
            lb, rb = len(left.b.at(here)), len(right.b.at(here))
            live_l = len(self.live_left.obj.at(here))
            live_r = len(self.live_right.obj.at(here))
            if k1 == k2:
                rows = [[base + y1 * rb + y2 for y2 in range(rb)] for y1 in range(lb)]
            elif k1 < k2:
                live = _live(right, here, k2 - k - 1)
                rows = [[base + lb * rb + y1 * live_r + q for q in live] for y1 in range(lb)]
            else:
                rows = [[base + lb * rb + lb * live_r + q * rb + y2 for y2 in range(rb)]
                        for q in _live(left, here, k1 - k - 1)]
            width = lb * rb + lb * live_r + live_l * rb
        for j in reversed(range(k)):
            la, ra = len(left.a.at(run[j])), len(right.a.at(run[j]))
            rows = [[(x * ra + z) * width + c for z in range(ra) for c in row]
                    for x in range(la) for row in rows]
            width *= la * ra
        return rows
