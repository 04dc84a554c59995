"""Structural operations on process spaces.

* expand: rewrite a process so that every recorded value is paired with the
  suffix of the process starting at that moment.
* join: a process whose final result is itself a (possibly already stopped)
  process becomes the concatenation of the two.
* merge: two processes over the same scale combine into one process over
  paired values, running until the first of them stops; this is a bijection
  and both directions are provided.
"""
from __future__ import annotations

from itertools import chain, cycle
from math import prod

from .finset import FinMor
from .process import (
    LiveSpace,
    Ongoing,
    ProcSpace,
    ProcessValue,
    StepSpace,
    Terminated,
    proc_map,
)
from .temporal import (
    TemporalMor,
    pointwise_coproduct,
    pointwise_product,
    temporal_mor,
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


# -- expansion --------------------------------------------------------------


def expanded_space(sp: ProcSpace) -> ProcSpace:
    """The space whose recorded values are (value, suffix) pairs."""
    return ProcSpace(sp.w, LiveSpace(sp.w, sp.a, sp.b).obj, sp.b)


def _live(sp: ProcSpace, here: IndexPair, k: int) -> list:
    """The positions in the live object over `sp` at `here` of (value,
    process) pairs whose process is in summand k there, in order."""
    size, lay = len(sp._carriers[here]), sp._layout[here]
    return [x * size + lay.offsets[k] + r
            for x in range(len(sp.a.at(here))) for r in range(len(lay.summands[k]))]


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

    return temporal_mor(sp.obj, target.obj, component)


def expand_live(sp: LiveSpace) -> TemporalMor:
    """Pair the whole running process with itself expanded: the first
    component is kept, the future part is expanded."""
    future = t_compose(expand(sp.proc), t_proj([sp.a, sp.proc.obj], 1))
    return t_pairing([t_identity(sp.obj), future])


def expand_step(sp: StepSpace) -> TemporalMor:
    """Already-stopped results pass through; running processes expand."""
    return t_coproduct_mor([t_identity(sp.b), expand_live(sp.live)])


# -- joining ----------------------------------------------------------------


def joining_space(sp: ProcSpace) -> ProcSpace:
    """Processes whose final result is itself a step process of the same
    shape: the domain of join."""
    return ProcSpace(sp.w, sp.a, StepSpace(sp.w, sp.a, sp.b).obj)


def splice(sp: ProcSpace, t0, v: Terminated, then) -> ProcessValue:
    """The stopped process ``v`` (horizon ``t0``) continued by ``then``, an
    element of the step space over ``sp`` at ``v``'s stop time.  An
    already-stopped ``then`` stops the concatenation right there;
    otherwise the handed-over process contributes its current value at
    the splice time and everything after."""
    if then.tag == 0:
        return Terminated(v.at_time, v.seen, then.value)
    x, q_elem = then.value.items
    q = sp.decode(sp.scale.pairs()[v.at_time, t0], q_elem)
    seen = v.seen + ((v.at_time, x),) + q.seen
    if isinstance(q, Terminated):
        return Terminated(q.at_time, seen, q.result)
    return Ongoing(seen)


def join(sp: ProcSpace) -> TemporalMor:
    """Concatenate a process with the process its final result carries.

    If the outer process runs forever the result is the outer record
    unchanged; if it stops, the two are spliced.

    By position: a process stopped at the k-th point is a prefix record
    and a result, which either stops right there or hands over a value
    and a process q at that point.  The splice is the prefix digits,
    the handed-over value, then q's digits, in the summand of q's stop
    (or the running record) counted k + 1 further on.
    """
    outer = joining_space(sp)

    def component(i: IndexPair) -> FinMor:
        lay, into = outer._layout[i], sp._layout[i]
        pos = []
        for k in range(lay.stops):
            here = lay.run[k]
            m, n = len(sp.b.at(here)), len(sp.a.at(here))
            # (prefix multiplier, start, length) per run of consecutive images
            rows = [(m, into.offsets[k], m)]
            rows += [(n * len(s), into.offsets[k + 1 + q] + x * len(s), len(s))
                     for x in range(n) for q, s in enumerate(sp._layout[here].summands)]
            for prefix in range(prod(len(sp.a.at(p)) for p in lay.run[:k])):
                for mult, start, length in rows:
                    start += prefix * mult
                    pos.extend(range(start, start + length))
        if lay.case == 3:
            pos.extend(range(into.offsets[-1], into.offsets[-1] + len(lay.summands[-1])))
        return FinMor(outer._carriers[i], sp._carriers[i], pos=pos)

    return temporal_mor(outer.obj, sp.obj, component)


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
        self._outcomes = [[left.b, right.b], [left.b, self.live_right.obj],
                          [self.live_left.obj, right.b]]
        self.outcome = pointwise_coproduct(list(map(pointwise_product, self._outcomes)))
        self.merged = ProcSpace(w_meet(left.w, right.w),
                                pointwise_product([left.a, right.a]), self.outcome)

    def _side_pieces(self, first: bool):
        sp = self.left if first else self.right
        step = StepSpace(sp.w, sp.a, sp.b)
        k, running = (0, 2) if first else (1, 1)
        branches = [t_compose(t_inj([sp.b, step.live.obj], int(n == running)),
                              t_proj(factors, k))
                    for n, factors in enumerate(self._outcomes)]
        return sp, step, t_copairing(branches)

    def project(self, first: bool) -> TemporalMor:
        """Recover one side from the merged process: map values and the
        outcome onto that side, then concatenate."""
        sp, step, outcome_map = self._side_pieces(first)
        act = t_proj([self.left.a, self.right.a], 0 if first else 1)
        widen = proc_map(
            self.merged,
            ProcSpace(sp.w, sp.a, step.obj),
            act=act,
            res=outcome_map,
        )
        return t_compose(join(sp), widen)

    def split(self) -> TemporalMor:
        """Both projections paired: merged -> left x right."""
        return t_pairing([self.project(True), self.project(False)])

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

        return temporal_mor(pair_obj, self.merged.obj, component)

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
