"""The positional maps between process spaces against element-level
references.

`proc_map`, `live_map`, `expand`, `join`, `MergeSpace.zip` and
`MergeSpace.split` compute positions from the carrier layout.  The
references below decode every element, rebuild its image as a process
value and encode it, the way the package built these maps before its
layout existed; `ref_split` maps the merged process onto each side's
step space and joins, as `split` did before it was positional.  The
live and step forms of `expand` and `join` are checked against the
composites of identities, projections, injections and pairings they
were built from before they were positional.
"""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from proccat.finset import Inj, Tup, fin_mor
from proccat.laws import law_grid, merge_extras, merge_pair, stamp_parity_obj
from proccat.operators import (
    MergeSpace, expand, expand_live, expand_step, expanded_space, join, join_live, join_step,
    joining_space,
)
from proccat.process import (
    LiveSpace,
    Ongoing,
    ProcSpace,
    StepSpace,
    Terminated,
    live_map,
    proc_map,
)
from proccat.temporal import (
    TemporalMor,
    empty_obj,
    flag_temporal,
    mor_equal,
    pointwise_product,
    t_compose,
    t_copairing,
    t_coproduct_mor,
    t_identity,
    t_inj,
    t_product_mor,
    t_proj,
    unit_obj,
)
from proccat.times import TimeScale, UNBOUNDED

from process_values import rest_after, seen_value

# -- element-level references ------------------------------------------------


def ref_proc_map(src, dst, act, res):
    def component(i):
        def step(elem):
            v = src.decode(i, elem)
            seen = tuple((u, act.at(src.scale.pair(u, i.t0))(x)) for u, x in v.seen)
            if isinstance(v, Terminated):
                y = res.at(src.scale.pair(v.at_time, i.t0))(v.result)
                return dst.encode(i, Terminated(v.at_time, seen, y))
            return dst.encode(i, Ongoing(seen))

        return fin_mor(src.obj.at(i), dst.obj.at(i), step)

    return TemporalMor(src.obj, dst.obj, component)


def ref_live_map(src, dst, act, res):
    future = ref_proc_map(src.proc, dst.proc, act, res)
    return TemporalMor(src.obj, dst.obj, lambda i: fin_mor(
        src.obj.at(i), dst.obj.at(i),
        lambda e: Tup((act.at(i)(e.items[0]), future.at(i)(e.items[1])))))


def ref_expand(sp):
    target = expanded_space(sp)

    def component(i):
        def step(elem):
            v = sp.decode(i, elem)
            seen = tuple(
                (u, Tup((x, sp.encode(sp.scale.pair(u, i.t0), rest_after(v, u)))))
                for u, x in v.seen)
            if isinstance(v, Terminated):
                return target.encode(i, Terminated(v.at_time, seen, v.result))
            return target.encode(i, Ongoing(seen))

        return fin_mor(sp.obj.at(i), target.obj.at(i), step)

    return TemporalMor(sp.obj, target.obj, component)


def ref_join(sp):
    outer = joining_space(sp)

    def component(i):
        def step(elem):
            v = outer.decode(i, elem)
            if not isinstance(v, Terminated):
                return sp.encode(i, v)
            then = v.result
            if then.tag == 0:
                return sp.encode(i, Terminated(v.at_time, v.seen, then.value))
            x, q_elem = then.value.items
            q = sp.decode(sp.scale.pair(v.at_time, i.t0), q_elem)
            seen = v.seen + ((v.at_time, x),) + q.seen
            if isinstance(q, Terminated):
                return sp.encode(i, Terminated(q.at_time, seen, q.result))
            return sp.encode(i, Ongoing(seen))

        return fin_mor(outer.obj.at(i), sp.obj.at(i), step)

    return TemporalMor(outer.obj, sp.obj, component)


def ref_zip(m):
    pair_obj = pointwise_product([m.left.obj, m.right.obj])

    def component(i):
        def combine(elem):
            v1 = m.left.decode(i, elem.items[0])
            v2 = m.right.decode(i, elem.items[1])
            t1 = v1.at_time if isinstance(v1, Terminated) else None
            t2 = v2.at_time if isinstance(v2, Terminated) else None
            if t1 is None and t2 is None:
                seen = tuple((u, Tup((x1, seen_value(v2, u)))) for u, x1 in v1.seen)
                return m.merged.encode(i, Ongoing(seen))
            if t2 is None or (t1 is not None and t1 < t2):
                stop, tag = t1, 1
            elif t1 is None or t2 < t1:
                stop, tag = t2, 2
            else:
                stop, tag = t1, 0
            seen = tuple((u, Tup((seen_value(v1, u), seen_value(v2, u))))
                         for u in m.scale.points if i.t < u < stop)
            here = m.scale.pair(stop, i.t0)
            if tag == 0:
                outcome = Inj(0, Tup((v1.result, v2.result)))
            elif tag == 1:
                live = Tup((seen_value(v2, stop), m.right.encode(here, rest_after(v2, stop))))
                outcome = Inj(1, Tup((v1.result, live)))
            else:
                live = Tup((seen_value(v1, stop), m.left.encode(here, rest_after(v1, stop))))
                outcome = Inj(2, Tup((live, v2.result)))
            return m.merged.encode(i, Terminated(stop, seen, outcome))

        return fin_mor(pair_obj.at(i), m.merged.obj.at(i), combine)

    return TemporalMor(pair_obj, m.merged.obj, component)


def ref_pair(f, g):
    """The map sending e to the pair of its images under f and g."""
    cod = pointwise_product([f.cod, g.cod])
    return TemporalMor(f.dom, cod, lambda i: fin_mor(
        f.dom.at(i), cod.at(i), lambda e: Tup((f.at(i)(e), g.at(i)(e)))))


def ref_split(m):
    """Both sides recovered by mapping the merged values and outcome onto
    each side's step space and joining."""
    outcomes = [[m.left.b, m.right.b], [m.left.b, m.live_right.obj],
                [m.live_left.obj, m.right.b]]

    def side(first):
        sp = m.left if first else m.right
        step = StepSpace(sp.w, sp.a, sp.b)
        k, running = (0, 2) if first else (1, 1)
        to_step = t_copairing([
            t_compose(t_inj([sp.b, step.live.obj], int(n == running)), t_proj(factors, k))
            for n, factors in enumerate(outcomes)])
        act = t_proj([m.left.a, m.right.a], k)
        widen = ref_proc_map(m.merged, ProcSpace(sp.w, sp.a, step.obj), act, to_step)
        return t_compose(ref_join(sp), widen)

    return ref_pair(side(True), side(False))


# -- agreement ----------------------------------------------------------------


def diagonal(x):
    """x -> x * x: a natural map that moves every position."""
    return ref_pair(t_identity(x), t_identity(x))


def bang(x):
    """x -> unit: a natural map that merges every position."""
    u = unit_obj(x.scale)
    return TemporalMor(x, u, lambda i: fin_mor(x.at(i), u.at(i), lambda e: Tup(())))


def swap(x):
    """x + x -> x + x, exchanging the summands: a natural map that
    reorders positions."""
    return t_copairing([t_inj([x, x], 1), t_inj([x, x], 0)])


def assert_maps_match(a, b, w):
    """Every positional map out of the spaces over a, b and w equals its
    reference; the process maps also under a weakened bound."""
    sp = ProcSpace(w, a, b)
    assert mor_equal(expand(sp), ref_expand(sp))
    assert mor_equal(join(sp), ref_join(sp))
    lv, st = LiveSpace(w, a, b), StepSpace(w, a, b)
    expanded = ref_pair(t_identity(lv.obj), t_compose(expand(sp), t_proj([a, sp.obj], 1)))
    joined = t_product_mor([t_identity(a), join(sp)])
    assert mor_equal(expand_live(lv), expanded)
    assert mor_equal(expand_step(st), t_coproduct_mor([t_identity(b), expanded]))
    assert mor_equal(join_live(lv), joined)
    assert mor_equal(join_step(st), t_copairing(
        [t_identity(st.obj), t_compose(t_inj([b, lv.obj], 1), joined)]))
    for act, res in ((diagonal(a), bang(b)), (bang(a), diagonal(b)), (swap(a), swap(b))):
        for w2 in dict.fromkeys((w, UNBOUNDED)):
            src, dst = ProcSpace(w, act.dom, res.dom), ProcSpace(w2, act.cod, res.cod)
            assert mor_equal(proc_map(src, dst, act, res), ref_proc_map(src, dst, act, res))
            src, into = LiveSpace(w, act.dom, res.dom), LiveSpace(w2, act.cod, res.cod)
            assert mor_equal(live_map(src, into, act, res),
                             ref_live_map(src, into, act, res))
    for right in (sp, ProcSpace(UNBOUNDED, b, a), ProcSpace(a.scale.end, a, a)):
        m = MergeSpace(sp, right)
        assert mor_equal(m.zip(), ref_zip(m))
        assert mor_equal(m.split(), ref_split(m))


def test_grid_maps_match_the_references():
    for case in law_grid():
        assert_maps_match(case.a, case.b, case.w)


def test_merge_pairs_zip_like_the_reference():
    for case in (*law_grid(), *merge_extras()):
        _, left, right = merge_pair(case)
        m = MergeSpace(left, right)
        assert mor_equal(m.zip(), ref_zip(m))
        assert mor_equal(m.split(), ref_split(m))


def forgetful_obj(scale):
    """A process space used as a value object: its restrictions forget
    late stops, so they are not identities."""
    return ProcSpace(UNBOUNDED, unit_obj(scale), unit_obj(scale)).obj


KINDS = {"empty": empty_obj, "unit": unit_obj, "flag": flag_temporal,
         "stamp": stamp_parity_obj, "forget": forgetful_obj}


@pytest.mark.parametrize("a_kind", sorted(KINDS))
def test_off_grid_maps_match_the_references(a_kind):
    scale = TimeScale.of(Fraction(1, 2), 3, 7)
    for b_kind in KINDS:
        for w in (*scale.points, UNBOUNDED):
            assert_maps_match(KINDS[a_kind](scale), KINDS[b_kind](scale), w)


@given(st.lists(st.fractions(-3, 5, max_denominator=3), min_size=1, max_size=4,
                unique=True),
       st.sampled_from(sorted(KINDS)), st.sampled_from(sorted(KINDS)),
       st.one_of(st.none(), st.integers(0, 3)))
@settings(max_examples=25, deadline=None)
def test_maps_match_the_references_on_drawn_scales(points, a_kind, b_kind, w_at):
    scale = TimeScale.of(*sorted(points))
    w = UNBOUNDED if w_at is None else scale.points[w_at % len(points)]
    assert_maps_match(KINDS[a_kind](scale), KINDS[b_kind](scale), w)
