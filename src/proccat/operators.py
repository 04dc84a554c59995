"""Structural operations on process spaces.

* expand: rewrite a process so that every recorded value is paired with the
  suffix of the process starting at that moment.
* join: a process whose final result is itself a (possibly already stopped)
  process becomes the concatenation of the two.
* merge: two processes over the same scale combine into one process over
  paired values, running until the first of them stops; `split` is a
  bijection, and `zip`, its inverse, is read off `split`.

Every map here is position arithmetic on the carrier layouts of the spaces
involved.  `expand`, `join`, `expanded_space` and `joining_space` are
hash-consed on the space's object like the spaces themselves, so the laws
checked on one space share one map for as long as any of them holds it.
"""
from __future__ import annotations

from functools import wraps
from itertools import cycle, product
from math import prod

from .finset import FinMor, _interned
from .process import LiveSpace, ProcSpace, StepSpace
from .temporal import TemporalMor, pointwise_coproduct, pointwise_product
from .times import IndexPair, w_meet


def _per_space(build):
    """`build(sp)`, a map or a space over `sp`, shared while held:
    interned on `sp.obj`, which fixes the bound and both objects.
    `laws.poison` breaks a copy, never the shared map."""
    @wraps(build)
    def shared(sp: ProcSpace):
        return _interned(build.__name__, (sp.obj,), build, sp)

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
    component is kept, the future part is expanded.  By position, a pair
    q of a value and a process p goes to q paired with p's expansion."""
    ex = expand(sp.proc)
    cod = pointwise_product([sp.obj, ex.cod])

    def component(i: IndexPair) -> FinMor:
        n, dom = len(ex.cod.at(i)), sp.obj.at(i)
        pos = [q * n + e for q, e in zip(range(len(dom)), cycle(ex.at(i).pos))]
        return FinMor(dom, cod.at(i), pos=pos)

    return TemporalMor(sp.obj, cod, component)


def expand_step(sp: StepSpace) -> TemporalMor:
    """Already-stopped results pass through; running processes expand,
    each by `expand_live` into the summand after the results."""
    live = expand_live(sp.live)
    cod = pointwise_coproduct([sp.b, live.cod])

    def component(i: IndexPair) -> FinMor:
        n = len(sp.b.at(i))
        return FinMor(sp.obj.at(i), cod.at(i), pos=[*range(n), *map(n.__add__, live.at(i).pos)])

    return TemporalMor(sp.obj, cod, component)


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
    """Keep the current value; concatenate the future part: by position,
    `join` once per current value."""
    inner = join(sp.proc)
    dom = pointwise_product([sp.a, inner.dom])

    def component(i: IndexPair) -> FinMor:
        n, pos = len(sp.proc.obj.at(i)), inner.at(i).pos
        return FinMor(dom.at(i), sp.obj.at(i),
                      pos=[x * n + p for x in range(len(sp.a.at(i))) for p in pos])

    return TemporalMor(dom, sp.obj, component)


def join_step(sp: StepSpace) -> TemporalMor:
    """A step whose non-stopped branch carries a step-valued process: the
    already-stopped branch passes through, the other concatenates by
    `join_live` into the summand after the results."""
    live = join_live(sp.live)
    dom = pointwise_coproduct([sp.obj, live.dom])

    def component(i: IndexPair) -> FinMor:
        here, n = sp.obj.at(i), len(sp.b.at(i))
        return FinMor(dom.at(i), here, pos=[*range(len(here)), *map(n.__add__, live.at(i).pos)])

    return TemporalMor(dom, sp.obj, component)


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
        """Merged -> left x right, the one place that matches merged
        positions with pair positions; zip is its inverse.

        By position, merged summand k stops at the k-th point of the run
        (past its end, it is the running record).  A side that stopped
        there is in its own summand k, a side still running is in a
        later one, and a running record is the side's running record.
        Each side's value digits are its half of each paired value digit,
        and its position the (base, width) of `_stopped` or `_onward`
        taken at its prefix."""
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
        first stop.  By position, split read backwards at each index.  A
        pair position split reaches from no merged position goes to 0, so
        a split that is no bijection fails the merging law with a witness."""
        split = self.split()

        def component(i: IndexPair) -> FinMor:
            there = split.at(i)
            pos = [0] * len(there.cod)
            for m, p in enumerate(there.pos):
                pos[p] = m
            return FinMor(there.cod, there.dom, pos=pos)

        return TemporalMor(split.cod, split.dom, component)
