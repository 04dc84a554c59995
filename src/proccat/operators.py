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

from .finset import FinMor, Inj, Tup, fin_mor
from .process import (
    LiveSpace,
    Ongoing,
    ProcSpace,
    ProcessValue,
    StepSpace,
    Terminated,
    proc_map,
    rest_after,
    seen_value,
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


def expand(sp: ProcSpace) -> TemporalMor:
    """Pair every recorded value with the suffix starting at its time.

    Stop time, final result, and the stopped/running shape are preserved;
    only the records change, each becoming a process in its own right based
    at the record's time.
    """
    target = expanded_space(sp)

    def component(i: IndexPair) -> FinMor:
        def step(elem):
            v = sp.decode(i, elem)
            seen = tuple(
                (u, Tup((x, sp.encode(IndexPair(u, i.t0), rest_after(v, u)))))
                for u, x in v.seen
            )
            if isinstance(v, Terminated):
                return target.encode(i, Terminated(v.at_time, seen, v.result))
            return target.encode(i, Ongoing(seen))

        return fin_mor(sp.obj.at(i), target.obj.at(i), step)

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
    q = sp.decode(IndexPair(v.at_time, t0), q_elem)
    seen = v.seen + ((v.at_time, x),) + q.seen
    if isinstance(q, Terminated):
        return Terminated(q.at_time, seen, q.result)
    return Ongoing(seen)


def join(sp: ProcSpace) -> TemporalMor:
    """Concatenate a process with the process its final result carries.

    If the outer process runs forever the result is the outer record
    unchanged; if it stops, the two are spliced.
    """
    outer = joining_space(sp)

    def component(i: IndexPair) -> FinMor:
        def step(elem):
            v = outer.decode(i, elem)
            if isinstance(v, Terminated):
                v = splice(sp, i.t0, v, v.result)
            return sp.encode(i, v)

        return fin_mor(outer.obj.at(i), sp.obj.at(i), step)

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
        self.left = left
        self.right = right
        self.scale = left.scale
        self.live_left = LiveSpace(left.w, left.a, left.b)
        self.live_right = LiveSpace(right.w, right.a, right.b)
        self.outcome = pointwise_coproduct(
            [
                pointwise_product([left.b, right.b]),
                pointwise_product([left.b, self.live_right.obj]),
                pointwise_product([self.live_left.obj, right.b]),
            ]
        )
        self.merged = ProcSpace(
            w_meet(left.w, right.w),
            pointwise_product([left.a, right.a]),
            self.outcome,
        )

    def _side_pieces(self, first: bool):
        sp = self.left if first else self.right
        b1, b2 = self.left.b, self.right.b
        l1, l2 = self.live_left.obj, self.live_right.obj
        step = StepSpace(sp.w, sp.a, sp.b)
        into_stop = lambda factors, k: t_compose(
            t_inj([sp.b, step.live.obj], 0), t_proj(factors, k)
        )
        into_run = lambda factors, k: t_compose(
            t_inj([sp.b, step.live.obj], 1), t_proj(factors, k)
        )
        if first:
            branches = [
                into_stop([b1, b2], 0),
                into_stop([b1, l2], 0),
                into_run([l1, b2], 0),
            ]
        else:
            branches = [
                into_stop([b1, b2], 1),
                into_run([b1, l2], 1),
                into_stop([l1, b2], 1),
            ]
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
        first stop."""
        pair_obj = pointwise_product([self.left.obj, self.right.obj])

        def component(i: IndexPair) -> FinMor:
            def combine(elem):
                v1 = self.left.decode(i, elem.items[0])
                v2 = self.right.decode(i, elem.items[1])
                t1 = v1.at_time if isinstance(v1, Terminated) else None
                t2 = v2.at_time if isinstance(v2, Terminated) else None
                if t1 is None and t2 is None:
                    seen = tuple(
                        (u, Tup((x1, seen_value(v2, u)))) for u, x1 in v1.seen
                    )
                    return self.merged.encode(i, Ongoing(seen))
                if t2 is None or (t1 is not None and t1 < t2):
                    stop, out_tag = t1, 1
                elif t1 is None or t2 < t1:
                    stop, out_tag = t2, 2
                else:
                    stop, out_tag = t1, 0
                seen = tuple(
                    (u, Tup((seen_value(v1, u), seen_value(v2, u))))
                    for u in self.scale.open_open(i.t, stop)
                )
                here = IndexPair(stop, i.t0)
                if out_tag == 0:
                    outcome = Inj(0, Tup((v1.result, v2.result)))
                elif out_tag == 1:
                    live = Tup(
                        (seen_value(v2, stop), self.right.encode(here, rest_after(v2, stop)))
                    )
                    outcome = Inj(1, Tup((v1.result, live)))
                else:
                    live = Tup(
                        (seen_value(v1, stop), self.left.encode(here, rest_after(v1, stop)))
                    )
                    outcome = Inj(2, Tup((live, v2.result)))
                return self.merged.encode(i, Terminated(stop, seen, outcome))

            return fin_mor(pair_obj.at(i), self.merged.obj.at(i), combine)

        return temporal_mor(pair_obj, self.merged.obj, component)
