"""Process carriers over a finite time scale.

A process viewed from present time t under information horizon t0 is one of

* Terminated: it was seen to stop at a time t' in (t, t0], with a record of
  the values it produced at every scale point strictly between t and t' and
  a final result produced at t';
* Ongoing: no stop has been observed by t0, and the record covers every
  scale point in (t, t0].

A termination bound constrains how late the final event may occur.  With a
bound w the carrier at (t, t0) is empty when w < t (the promised stop lies
in the past), contains only Terminated values with stop time at most w when
t <= w <= t0, and contains both kinds when the bound lies beyond the
horizon.  The value recorded at time u lives in the value object at index
(u, t0); the final result at t' lives in the result object at (t', t0).

Restricting the horizon from t0' down to t0 restricts every recorded value
pointwise and forgets a stop that happens after t0, turning such a view
back into an Ongoing one.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from math import prod
from typing import Optional

from .finset import (
    CapExceeded,
    DEFAULT_CAP,
    EMPTY,
    FinMor,
    FinObj,
    Inj,
    Tup,
    _interned,
    fin_mor,
    fin_obj,
)
from .temporal import (
    TemporalMor,
    TemporalObj,
    empty_obj,
    pointwise_coproduct,
    pointwise_product,
    temporal_mor,
    temporal_obj,
    t_identity,
    unit_obj,
)
from .times import (
    IndexMor,
    IndexPair,
    TermBound,
    TimeScale,
    UNBOUNDED,
    w_leq,
)


@dataclass(frozen=True)
class Terminated:
    """A process seen to stop at at_time, with its record and final result.

    seen is a tuple of (time, value) pairs, ascending, covering exactly the
    scale points strictly between the present time and at_time.
    """

    at_time: Fraction
    seen: tuple
    result: object


@dataclass(frozen=True)
class Ongoing:
    """A process still running at the horizon; seen covers (t, t0]."""

    seen: tuple


ProcessValue = object  # Terminated | Ongoing


def seen_value(value: ProcessValue, u: Fraction):
    for time, x in value.seen:
        if time == u:
            return x
    raise KeyError(f"no recorded value at time {u}")


def rest_after(value: ProcessValue, u: Fraction) -> ProcessValue:
    """The suffix of a process value strictly after time u.

    The result is a process value based at present time u (same horizon).
    For a Terminated value u must lie strictly before the stop time.
    """
    later = tuple((time, x) for time, x in value.seen if time > u)
    if isinstance(value, Terminated):
        if u >= value.at_time:
            raise ValueError(f"no suffix after {u}: process stopped at {value.at_time}")
        return Terminated(value.at_time, later, value.result)
    return Ongoing(later)


class ProcSpace:
    """The time-indexed object of strictly-future processes with values
    drawn from `a`, results drawn from `b`, under termination bound `w`.

    Instances are cheap views: the carrier object is hash-consed on the
    bound's value and the identities of `a` and `b`, so spaces built from
    the same objects share one `obj`.
    """

    def __init__(self, w: TermBound, a: TemporalObj, b: TemporalObj):
        if a.scale != b.scale:
            raise ValueError("value and result objects live over different scales")
        self.w = w
        self.a = a
        self.b = b
        self.scale: TimeScale = a.scale
        self.obj = _interned(("ProcSpace", w), (a, b), self._build)
        self._carriers = self.obj.carrier

    def _build(self) -> TemporalObj:
        # `_restrict_at` reads the carriers while the object is built.
        self._carriers = {i: self._carrier_at(i) for i in self.scale.indices()}
        return temporal_obj(self.scale, self._carriers.__getitem__, self._restrict_at)

    def case_of(self, i: IndexPair) -> int:
        """1: bound in the past (empty); 2: bound inside the horizon
        (must have stopped); 3: bound beyond the horizon."""
        if self.w.bounded:
            if self.w.time < i.t:
                return 1
            if self.w.time <= i.t0:
                return 2
        return 3

    def term_times(self, i: IndexPair) -> tuple:
        """Candidate stop times at index i, ascending."""
        case = self.case_of(i)
        if case == 1:
            return ()
        hi = self.w.time if case == 2 else i.t0
        return self.scale.open_closed(i.t, hi)

    def has_ongoing(self, i: IndexPair) -> bool:
        return self.case_of(i) == 3

    def _stopped_choices(self, i: IndexPair):
        for tp in self.term_times(i):
            prior = self.scale.open_open(i.t, tp)
            value_pools = [self.a.at(IndexPair(u, i.t0)) for u in prior]
            result_pool = self.b.at(IndexPair(tp, i.t0))
            for combo in iter_product(*value_pools):
                for y in result_pool:
                    yield Terminated(tp, tuple(zip(prior, combo)), y)

    def _running_choices(self, i: IndexPair):
        times = self.scale.open_closed(i.t, i.t0)
        pools = [self.a.at(IndexPair(u, i.t0)) for u in times]
        for combo in iter_product(*pools):
            yield Ongoing(tuple(zip(times, combo)))

    def carrier_size(self, i: IndexPair) -> int:
        """Element count of the carrier at i, from the sizes of the pools
        its values are drawn from."""
        count = sum(
            prod(len(self.a.at(IndexPair(u, i.t0))) for u in self.scale.open_open(i.t, tp))
            * len(self.b.at(IndexPair(tp, i.t0)))
            for tp in self.term_times(i))
        if self.has_ongoing(i):
            count += prod(len(self.a.at(IndexPair(u, i.t0)))
                          for u in self.scale.open_closed(i.t, i.t0))
        return count

    def _carrier_at(self, i: IndexPair) -> FinObj:
        case = self.case_of(i)
        if case == 1:
            return EMPTY
        count = self.carrier_size(i)
        if count > DEFAULT_CAP:
            raise CapExceeded(count, DEFAULT_CAP)
        elems = [self.encode(i, v) for v in self._stopped_choices(i)]
        if case == 3:
            elems.extend(self.encode(i, v) for v in self._running_choices(i))
        return fin_obj(elems)

    def encode(self, i: IndexPair, value: ProcessValue):
        """The element representing a process value at index i."""
        case = self.case_of(i)
        if isinstance(value, Terminated):
            if case == 1:
                raise ValueError("no stopped values below the bound")
            candidates = self.term_times(i)
            if value.at_time not in candidates:
                raise ValueError(f"stop time {value.at_time} not admissible at {i}")
            k = candidates.index(value.at_time)
            expected = self.scale.open_open(i.t, value.at_time)
            if tuple(u for u, _ in value.seen) != expected:
                raise ValueError(f"record times {value.seen!r} do not cover {expected}")
            inner = Inj(k, Tup((Tup(tuple(x for _, x in value.seen)), value.result)))
            return inner if case == 2 else Inj(0, inner)
        if case != 3:
            raise ValueError("running values require the bound beyond the horizon")
        expected = self.scale.open_closed(i.t, i.t0)
        if tuple(u for u, _ in value.seen) != expected:
            raise ValueError(f"record times {value.seen!r} do not cover {expected}")
        return Inj(1, Tup(tuple(x for _, x in value.seen)))

    def decode(self, i: IndexPair, elem) -> ProcessValue:
        """The process value an element of the carrier at i represents."""
        case = self.case_of(i)
        if case == 1:
            raise ValueError("empty carrier")
        if case == 3:
            if elem.tag == 1:
                times = self.scale.open_closed(i.t, i.t0)
                return Ongoing(tuple(zip(times, elem.value.items)))
            elem = elem.value
        tp = self.term_times(i)[elem.tag]
        pair = elem.value
        prior = self.scale.open_open(i.t, tp)
        return Terminated(tp, tuple(zip(prior, pair.items[0].items)), pair.items[1])

    def values(self, i: IndexPair):
        """Carrier at i, decoded, in canonical element order."""
        return [self.decode(i, e) for e in self.obj.at(i)]

    def _restrict_value(self, desc: TemporalObj, u, t0, t0p, x):
        if t0 == t0p:
            return x
        return desc.res(IndexMor(u, t0, t0p))(x)

    def _restrict_at(self, m: IndexMor) -> FinMor:
        src, dst = m.src, m.dst

        def step(elem):
            v = self.decode(src, elem)
            if isinstance(v, Terminated) and v.at_time <= m.t0:
                seen = tuple(
                    (u, self._restrict_value(self.a, u, m.t0, m.t0p, x)) for u, x in v.seen
                )
                y = self._restrict_value(self.b, v.at_time, m.t0, m.t0p, v.result)
                return self.encode(dst, Terminated(v.at_time, seen, y))
            seen = tuple(
                (u, self._restrict_value(self.a, u, m.t0, m.t0p, x))
                for u, x in v.seen
                if u <= m.t0
            )
            return self.encode(dst, Ongoing(seen))

        return fin_mor(self._carriers[src], self._carriers[dst], step)


def proc_map(
    src: ProcSpace,
    dst: ProcSpace,
    act: Optional[TemporalMor] = None,
    res: Optional[TemporalMor] = None,
) -> TemporalMor:
    """Map a process space by a morphism on values, a morphism on results,
    and a weakening of the termination bound, all applied pointwise.

    The value map is applied to every recorded value, the result map to the
    final result; stop times and the stopped/running shape are preserved.
    The bound may only weaken (src bound at most dst bound), which keeps
    every admissible stop time admissible.
    """
    act = act if act is not None else t_identity(src.a)
    res = res if res is not None else t_identity(src.b)
    if act.dom != src.a or act.cod != dst.a:
        raise ValueError("value morphism endpoints do not match the spaces")
    if res.dom != src.b or res.cod != dst.b:
        raise ValueError("result morphism endpoints do not match the spaces")
    if not w_leq(src.w, dst.w):
        raise ValueError(f"bound may only weaken: {src.w} -> {dst.w}")

    def component(i: IndexPair) -> FinMor:
        def step(elem):
            v = src.decode(i, elem)
            seen = tuple((u, act.at(IndexPair(u, i.t0))(x)) for u, x in v.seen)
            if isinstance(v, Terminated):
                y = res.at(IndexPair(v.at_time, i.t0))(v.result)
                return dst.encode(i, Terminated(v.at_time, seen, y))
            return dst.encode(i, Ongoing(seen))

        return fin_mor(src.obj.at(i), dst.obj.at(i), step)

    return temporal_mor(src.obj, dst.obj, component)


class LiveSpace:
    """Processes running from the present: a current value from `a` paired
    with a strictly-future process."""

    def __init__(self, w: TermBound, a: TemporalObj, b: TemporalObj):
        self.w = w
        self.a = a
        self.b = b
        self.scale = a.scale
        self.proc = ProcSpace(w, a, b)
        self.obj = pointwise_product([a, self.proc.obj])

    def decode(self, i: IndexPair, elem):
        return elem.items[0], self.proc.decode(i, elem.items[1])

    def encode(self, i: IndexPair, x, value: ProcessValue):
        return Tup((x, self.proc.encode(i, value)))


class StepSpace:
    """Processes that may have stopped at the present: either a result
    from `b` right now, or a running process."""

    def __init__(self, w: TermBound, a: TemporalObj, b: TemporalObj):
        self.w = w
        self.a = a
        self.b = b
        self.scale = a.scale
        self.live = LiveSpace(w, a, b)
        self.obj = pointwise_coproduct([b, self.live.obj])


def live_map(
    src: LiveSpace,
    dst: LiveSpace,
    act: Optional[TemporalMor] = None,
    res: Optional[TemporalMor] = None,
) -> TemporalMor:
    """The value morphism on the current value, the full pointwise map on
    the future part."""
    act = act if act is not None else t_identity(src.a)
    future = proc_map(src.proc, dst.proc, act, res)

    def component(i: IndexPair) -> FinMor:
        def step(elem):
            return Tup((act.at(i)(elem.items[0]), future.at(i)(elem.items[1])))

        return fin_mor(src.obj.at(i), dst.obj.at(i), step)

    return temporal_mor(src.obj, dst.obj, component)


def step_map(
    src: StepSpace,
    dst: StepSpace,
    act: Optional[TemporalMor] = None,
    res: Optional[TemporalMor] = None,
) -> TemporalMor:
    res = res if res is not None else t_identity(src.b)
    running = live_map(src.live, dst.live, act, res)

    def component(i: IndexPair) -> FinMor:
        def step(elem):
            if elem.tag == 0:
                return Inj(0, res.at(i)(elem.value))
            return Inj(1, running.at(i)(elem.value))

        return fin_mor(src.obj.at(i), dst.obj.at(i), step)

    return temporal_mor(src.obj, dst.obj, component)


# -- behaviors, events, and the nonstop process -----------------------------


def strong_bound(scale: TimeScale) -> TermBound:
    """Termination by the last point of the scale: the strongest guarantee
    a finite scale can express."""
    return TermBound.at(scale.end)


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
    return LiveSpace(strong_bound(b.scale), unit_obj(b.scale), b)


def event_step_space(b: TemporalObj) -> StepSpace:
    """An event that may also occur right now."""
    return StepSpace(strong_bound(b.scale), unit_obj(b.scale), b)


def nonstop_space(scale: TimeScale) -> LiveSpace:
    """Trivial never-stopping processes; the carrier is a singleton at
    every index."""
    return LiveSpace(UNBOUNDED, unit_obj(scale), empty_obj(scale))


def nonstop_value(space: LiveSpace, i: IndexPair):
    """The sole element of the nonstop carrier at index i."""
    times = space.scale.open_closed(i.t, i.t0)
    unit = Tup(())
    return space.encode(i, unit, Ongoing(tuple((u, unit) for u in times)))


# -- rendering --------------------------------------------------------------


def render_value(value: ProcessValue) -> str:
    seen = ", ".join(f"{u} -> {x!r}" for u, x in value.seen)
    if isinstance(value, Terminated):
        return f"term({value.at_time}; {seen}; {value.result!r})"
    return f"ongoing({seen})"
