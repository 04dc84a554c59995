"""Process carriers over a finite time scale.

A process viewed from present time t under information horizon t0 is one of

* Terminated: it was seen to stop at a time t' in (t, t0], with a record of
  the values it produced at every scale point strictly between t and t' and
  a final result produced at t';
* Ongoing: no stop has been observed by t0, and the record covers every
  scale point in (t, t0].

A termination bound constrains how late the final event may occur.  With a
bound w <= t0 the carrier at (t, t0) holds only the Terminated values with
stop time in (t, w], so none when w lies before t (the promised stop lies
in the past).  With no bound, or one beyond the horizon, it holds the
Ongoing values too.  The value recorded at time u lives in the value object
at index (u, t0); the final result at t' lives in the result object at
(t', t0).

Restricting the horizon from t0' down to t0 restricts every recorded value
pointwise and forgets a stop that happens after t0, turning such a view
back into an Ongoing one.

Carriers are coproducts of products: one summand per admissible stop time
(the record's value pools times the result pool), then, when running views
exist, the running record's value pools.  So a layout has two cases,
running or not, and an empty carrier is the coproduct of no summands.
Restriction, and every map between process spaces here and in
`operators`, is position arithmetic on those summands; it builds and
decodes no element.  Nor does `listing`, which prints a carrier in that
order from its pools.
"""
from __future__ import annotations

import copy
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate, chain, product as iter_product, repeat
from math import prod
from typing import NamedTuple, Optional

from .finset import (
    CapExceeded,
    DEFAULT_CAP,
    FinMor,
    FinObj,
    Inj,
    Tup,
    _interned,
    coproduct,
    product,
    product_pos,
)
from .temporal import (
    TemporalMor,
    TemporalObj,
    empty_obj,
    pointwise_coproduct,
    pointwise_product,
    t_identity,
    t_product_mor,
    unit_obj,
)
from .times import (
    IndexMor,
    IndexPair,
    TermBound,
    TimeScale,
    UNBOUNDED,
    Value,
    w_leq,
)


class Terminated(Value):
    """A process seen to stop at at_time, with its record and final result.

    seen is a tuple of (time, value) pairs, ascending, covering exactly the
    scale points strictly between the present time and at_time.
    """

    __slots__ = ("at_time", "seen", "result")

    def __init__(self, at_time: Fraction, seen: tuple, result: object) -> None:
        object.__setattr__(self, "at_time", at_time)
        object.__setattr__(self, "seen", seen)
        object.__setattr__(self, "result", result)


class Ongoing(Value):
    """A process still running at the horizon; seen covers (t, t0]."""

    __slots__ = ("seen",)

    def __init__(self, seen: tuple) -> None:
        object.__setattr__(self, "seen", seen)


ProcessValue = object  # Terminated | Ongoing


class _Layout(NamedTuple):
    """The carrier at one index as a coproduct of products."""

    # Whether a process may still be running: the bound is beyond t0, or
    # there is none.  Otherwise every process stops by the bound, and a
    # bound before t admits no stop, so the carrier is empty.
    running: bool
    times: tuple  # the scale points in (t, t0]
    run: tuple  # the index pair (u, t0) for each u in times
    stops: int  # the admissible stop times are times[:stops]
    summands: tuple  # per stop time, then if running the running record
    offsets: tuple  # the position of each summand's first element

    def locate(self, q: int) -> tuple:
        """(k, r): carrier position q is position r of summand k, the
        stop at the k-th point of the run or, at k == stops, the running
        record.  Either way the process has recorded k values."""
        k = bisect_right(self.offsets, q) - 1
        return k, q - self.offsets[k]


class ProcSpace:
    """The time-indexed object of strictly-future processes with values
    drawn from `a`, results drawn from `b`, under termination bound `w`.

    Instances are cheap views: the carrier object is hash-consed on the
    bound's value and the identities of `a` and `b`, so spaces built from
    the same objects share one `obj`, and with it `obj.layout`, the
    `_Layout` per index that everything below reads.
    """

    def __init__(self, w: TermBound, a: TemporalObj, b: TemporalObj):
        if a.scale != b.scale:
            raise ValueError("value and result objects live over different scales")
        self.w, self.a, self.b, self.scale = w, a, b, a.scale
        self.obj = _interned(("ProcSpace", w), (a, b), self._build)
        self._carriers = self.obj.carrier
        self._layout = self.obj.layout

    def _build(self) -> TemporalObj:
        # The object keeps `_restrict_at` for `check_functor`: a copy with
        # no `obj` builds it, so that the two form no reference cycle.
        builder = copy.copy(self)
        builder._layout = {i: builder._layout_at(i) for i in self.scale.indices()}
        obj = TemporalObj(self.scale, builder._carrier_at, builder._restrict_at)
        builder._carriers = obj.carrier
        obj.layout = builder._layout
        return obj

    def _layout_at(self, i: IndexPair) -> _Layout:
        """Per stop time the record's value pools times the result pool,
        then if running the running record's value pools; CapExceeded
        before any is built when they hold more than DEFAULT_CAP
        elements."""
        times = self.scale.points[i.r + 1:i.r0 + 1]
        run = self.scale.column(i.r0)[i.r + 1:]
        running = self.w is None or self.w > i.t0
        stops = len(run) if running else bisect_right(times, self.w)
        pools = [self.a.at(p) for p in run]
        ends = [self.b.at(p) for p in run[:stops]]
        counts = [len(y) * prod(map(len, pools[:k])) for k, y in enumerate(ends)]
        if running:
            counts.append(prod(map(len, pools)))
        if sum(counts) > DEFAULT_CAP:
            raise CapExceeded(sum(counts), DEFAULT_CAP)
        summands = [product([product(pools[:k]), y]) for k, y in enumerate(ends)]
        if running:
            summands.append(product(pools))
        offsets = tuple(accumulate(counts[:-1], initial=0)) if counts else ()
        return _Layout(running, times, run, stops, tuple(summands), offsets)

    def _carrier_at(self, i: IndexPair) -> FinObj:
        """The element trees `encode` makes, in `elem_key` order: the
        stopped summands, then if running the running one, as coproducts."""
        lay = self._layout[i]
        if not lay.running:
            return coproduct(lay.summands)
        return coproduct([coproduct(lay.summands[:-1]), lay.summands[-1]])

    def encode(self, i: IndexPair, value: ProcessValue):
        """The element representing a process value at index i."""
        lay = self._layout[i]
        if isinstance(value, Terminated):
            candidates = lay.times[:lay.stops]
            if value.at_time not in candidates:
                raise ValueError(f"stop time {value.at_time} not admissible at {i}")
            k = candidates.index(value.at_time)
            expected = lay.times[:k]
            if tuple(u for u, _ in value.seen) != expected:
                raise ValueError(f"record times {value.seen!r} do not cover {expected}")
            inner = Inj(k, Tup((Tup(tuple(x for _, x in value.seen)), value.result)))
            return Inj(0, inner) if lay.running else inner
        if not lay.running:
            raise ValueError("running values require the bound beyond the horizon")
        if tuple(u for u, _ in value.seen) != lay.times:
            raise ValueError(f"record times {value.seen!r} do not cover {lay.times}")
        return Inj(1, Tup(tuple(x for _, x in value.seen)))

    def decode(self, i: IndexPair, elem) -> ProcessValue:
        """The process value an element of the carrier at i represents."""
        lay = self._layout[i]
        if lay.running:
            if elem.tag == 1:
                return Ongoing(tuple(zip(lay.times, elem.value.items)))
            elem = elem.value
        values, result = elem.value.items
        return Terminated(lay.times[elem.tag], tuple(zip(lay.times, values.items)), result)

    def _restrict_at(self, m: IndexMor) -> FinMor:
        """Restriction along m by position arithmetic on the summands.

        The stops by m.t0 are the target's stops; each maps by the
        product of its value and result restrictions into its summand
        there.  A later stop or a running record is truncated: its values
        at the kept points (m.t, m.t0] are its leading factors, so each
        image of their restriction repeats once per combination of the
        factors dropped."""
        src, dst = self._layout[m.src], self._layout[m.dst]
        # The arrow (u, m.t0, m.t0p) for each u in (m.t, m.t0].
        along = self.scale.arrows(m.r0, m.r0p)[m.r + 1:]
        values = [*map(self.a.res, along)]
        pos = []
        for k, off in zip(range(dst.stops), dst.offsets):
            ending = self.b.res(along[k])
            pos.extend(map(off.__add__, product_pos([*values[:k], ending])))
        late = [s for s in src.summands[dst.stops:] if len(s)]
        if late:
            running = product_pos(values)
            for s in late:
                inner = len(s) // len(running)
                pos.extend(chain.from_iterable(repeat(dst.offsets[-1] + q, inner)
                                               for q in running))
        return FinMor(self._carriers[m.src], self._carriers[m.dst], pos=pos)


def proc_map(src: ProcSpace, dst: ProcSpace, act: Optional[TemporalMor] = None,
             res: Optional[TemporalMor] = None) -> TemporalMor:
    """Map a process space by a morphism on values, a morphism on results,
    and a weakening of the termination bound, all applied pointwise.

    The value map is applied to every recorded value, the result map to the
    final result; stop times and the stopped/running shape are preserved.
    The bound may only weaken (src bound at most dst bound), which keeps
    every admissible stop time admissible: the destination's summands
    start with the source's stops, so each summand maps by the product of
    the value and result components into its namesake.
    """
    act = act if act is not None else t_identity(src.a)
    res = res if res is not None else t_identity(src.b)
    if act.dom != src.a or act.cod != dst.a:
        raise ValueError("value morphism endpoints do not match the spaces")
    if res.dom != src.b or res.cod != dst.b:
        raise ValueError("result morphism endpoints do not match the spaces")
    if not w_leq(src.w, dst.w):
        # Only a bounded dst.w fails, so only src.w may be UNBOUNDED here.
        raise ValueError(f"bound may only weaken: {'inf' if src.w is None else src.w}"
                         f" -> {dst.w}")

    def component(i: IndexPair) -> FinMor:
        s, d = src._layout[i], dst._layout[i]
        values = [act.at(p) for p in s.run]
        pos = []
        for k, off in zip(range(s.stops), d.offsets):
            pos.extend(map(off.__add__, product_pos([*values[:k], res.at(s.run[k])])))
        if s.running:
            pos.extend(map(d.offsets[-1].__add__, product_pos(values)))
        return FinMor(src._carriers[i], dst._carriers[i], pos=pos)

    return TemporalMor(src.obj, dst.obj, component)


class LiveSpace:
    """Processes running from the present: a current value from `a` paired
    with a strictly-future process."""

    def __init__(self, w: TermBound, a: TemporalObj, b: TemporalObj):
        self.w, self.a, self.b, self.scale = w, a, b, a.scale
        self.proc = ProcSpace(w, a, b)
        self.obj = pointwise_product([a, self.proc.obj])

    def encode(self, i: IndexPair, x, value: ProcessValue):
        return Tup((x, self.proc.encode(i, value)))


class StepSpace:
    """Processes that may have stopped at the present: either a result
    from `b` right now, or a running process."""

    def __init__(self, w: TermBound, a: TemporalObj, b: TemporalObj):
        self.w, self.a, self.b, self.scale = w, a, b, a.scale
        self.live = LiveSpace(w, a, b)
        self.obj = pointwise_coproduct([b, self.live.obj])


def live_map(src: LiveSpace, dst: LiveSpace, act: Optional[TemporalMor] = None,
             res: Optional[TemporalMor] = None) -> TemporalMor:
    """The value morphism on the current value, the full pointwise map on
    the future part."""
    act = act if act is not None else t_identity(src.a)
    return t_product_mor([act, proc_map(src.proc, dst.proc, act, res)])


# -- behaviors, events, and the nonstop process -----------------------------


def behavior_space(a: TemporalObj) -> ProcSpace:
    """Never-terminating time-varying values of `a`, strictly future.

    With an empty result object no stopped view exists, so every carrier
    element is a running record.
    """
    return ProcSpace(UNBOUNDED, a, empty_obj(a.scale))


def behavior_live_space(a: TemporalObj) -> LiveSpace:
    """Never-terminating time-varying values including the present one."""
    return LiveSpace(UNBOUNDED, a, empty_obj(a.scale))


def event_space(b: TemporalObj) -> LiveSpace:
    """A value of `b` attached to a strictly-future time, guaranteed to
    occur by the end of the scale."""
    return LiveSpace(b.scale.end, unit_obj(b.scale), b)


def event_step_space(b: TemporalObj) -> StepSpace:
    """An event that may also occur right now."""
    return StepSpace(b.scale.end, unit_obj(b.scale), b)


def nonstop_space(scale: TimeScale) -> LiveSpace:
    """Trivial never-stopping processes; the carrier is a singleton at
    every index."""
    return LiveSpace(UNBOUNDED, unit_obj(scale), empty_obj(scale))


# -- rendering --------------------------------------------------------------


def listing(space, i: IndexPair) -> list:
    """The `dump` lines of the carrier at i, in carrier order, read off
    the layout: each pool element is printed once, and no carrier element
    is built or decoded.  A bare temporal object lists its elements."""
    if isinstance(space, StepSpace):
        return [f"done({y!r})" for y in space.b.at(i)] + listing(space.live, i)
    if isinstance(space, LiveSpace):
        lines = listing(space.proc, i)
        return [f"now {x!r}; {line}" for x in space.a.at(i) for line in lines]
    if not isinstance(space, ProcSpace):
        return [repr(e) for e in space.at(i)]
    lay = space._layout[i]
    pieces = [[f"{u} -> {x!r}" for x in space.a.at(p)] for u, p in zip(lay.times, lay.run)]
    lines = []
    for k in range(lay.stops):
        head, ends = f"term({lay.times[k]}; ", [f"; {y!r})" for y in space.b.at(lay.run[k])]
        lines += [head + seen + end for seen in map(", ".join, iter_product(*pieces[:k]))
                  for end in ends]
    if lay.running:
        lines += [f"ongoing({seen})" for seen in map(", ".join, iter_product(*pieces))]
    return lines
