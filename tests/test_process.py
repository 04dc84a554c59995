"""Carrier counts are pinned by an independent counting oracle written
before the space construction: a stopped view chooses a stop time, one
recorded value per point strictly between, and a result at the stop; a
running view chooses one recorded value per point up to the horizon and
exists only when the bound does not force a stop by then."""
from fractions import Fraction
from itertools import product as iter_product

import pytest
from hypothesis import given, settings, strategies as st

from proccat.cli import parse_descriptor
from proccat.finset import (
    Atom, CapExceeded, DEFAULT_CAP, EMPTY, FinMor, FinObj, Tup, UNIT_ELEM, fin_mor,
)
from proccat.laws import law_grid, stamp_parity_obj
from proccat.process import (
    LiveSpace,
    Ongoing,
    ProcSpace,
    StepSpace,
    Terminated,
    behavior_live_space,
    behavior_space,
    event_space,
    event_step_space,
    listing,
    live_map,
    nonstop_space,
    proc_map,
)
from proccat.temporal import (
    TemporalMor,
    TemporalObj,
    check_functor,
    empty_obj,
    flag_temporal,
    mor_equal,
    naturality_witness,
    t_identity,
    unit_obj,
)
from proccat.times import IndexPair, TimeScale, UNBOUNDED

from process_values import arrow, render_element, render_value, rest_after, seen_value

SCALE = TimeScale.of(0, 1, 2)
I02 = SCALE.pair(0, 2)
I22 = SCALE.pair(2, 2)


def count_processes(scale, w, size_a, size_b, i):
    """Independent count of process views at index i.

    size_a(u) and size_b(v) give carrier sizes of the value and result
    objects at (u, i.t0) and (v, i.t0).
    """
    if w is not None and w < i.t:
        return 0
    total = 0
    for v in scale.open_closed(i.t, i.t0):
        if w is not None and v > w:
            continue
        stopped = size_b(v)
        for u in (p for p in scale.points if i.t < p < v):
            stopped *= size_a(u)
        total += stopped
    if not (w is not None and w <= i.t0):
        running = 1
        for u in scale.open_closed(i.t, i.t0):
            running *= size_a(u)
        total += running
    return total


def const_sizes(n):
    return lambda _: n


def space_sizes(space):
    return [len(space.obj.at(i)) for i in space.scale.indices()]


# -- frozen regression counts (all from the oracle above) -------------------


def test_unit_process_counts():
    one = const_sizes(1)
    sp = ProcSpace(UNBOUNDED, unit_obj(SCALE), unit_obj(SCALE))
    assert count_processes(SCALE, UNBOUNDED, one, one, I02) == 3
    assert count_processes(SCALE, UNBOUNDED, one, one, I22) == 1
    assert space_sizes(sp) == [1, 2, 3, 1, 2, 1]


def test_behavior_of_unit_is_unique():
    lv = behavior_live_space(unit_obj(SCALE))
    # live pair = value now x strictly-future process with empty results
    assert count_processes(SCALE, UNBOUNDED, const_sizes(1), const_sizes(0),
                           I02) == 1
    assert len(lv.obj.at(I02)) == 1


def test_event_of_unit_counts():
    ev = event_space(unit_obj(SCALE))
    w = SCALE.end
    assert count_processes(SCALE, w, const_sizes(1), const_sizes(1), I02) == 2
    assert len(ev.obj.at(I02)) == 2


def test_tight_bound_empties_late_carriers():
    w = Fraction(1)
    sp = ProcSpace(w, unit_obj(SCALE), unit_obj(SCALE))
    assert count_processes(SCALE, w, const_sizes(1), const_sizes(1), I22) == 0
    assert len(sp.obj.at(I22)) == 0
    # The bound lies before t = 2: no stop is admissible and none runs.
    lay = sp.obj.layout[I22]
    assert not lay.running and lay.stops == 0
    assert sp.obj.at(I22) == EMPTY
    assert listing(sp, I22) == []
    with pytest.raises(ValueError):
        sp.encode(I22, Terminated(Fraction(2), (), UNIT_ELEM))
    with pytest.raises(ValueError):
        sp.encode(I22, Ongoing(((Fraction(2), UNIT_ELEM),)))


@given(st.integers(0, 2), st.integers(0, 2),
       st.sampled_from([None, 0, 1, 2]), st.integers(0, 5))
@settings(max_examples=60, deadline=None)
def test_counting_oracle_matches_carriers(na, nb, wt, pick):
    w = UNBOUNDED if wt is None else Fraction(wt)
    sp = ProcSpace(w, flag_temporal(SCALE, na), flag_temporal(SCALE, nb))
    i = SCALE.indices()[pick % len(SCALE.indices())]
    assert len(sp.obj.at(i)) == count_processes(
        SCALE, w, const_sizes(na), const_sizes(nb), i
    )


@given(st.integers(0, 2), st.integers(0, 2), st.sampled_from([None, 0, 1, 2]))
@settings(max_examples=30, deadline=None)
def test_predicted_carrier_sizes_match_the_carriers(na, nb, wt):
    w = UNBOUNDED if wt is None else Fraction(wt)
    sp = ProcSpace(w, flag_temporal(SCALE, na), flag_temporal(SCALE, nb))
    for i in SCALE.indices():
        assert sum(map(len, sp.obj.layout[i].summands)) == len(sp.obj.at(i))


def test_process_carriers_over_the_cap_are_refused_before_enumeration():
    # 1001 values at each of two points: 1001 ** 2 running views at (0, 2).
    with pytest.raises(CapExceeded) as err:
        ProcSpace(UNBOUNDED, flag_temporal(SCALE, 1001), empty_obj(SCALE))
    assert err.value.count == 1001 ** 2 and err.value.cap == DEFAULT_CAP


def test_a_process_carrier_of_exactly_the_cap_is_built():
    # 1000 values at each of two points: 10 ** 6 running views at (0, 2),
    # which the cap admits.
    sp = ProcSpace(UNBOUNDED, flag_temporal(SCALE, 1000), empty_obj(SCALE))
    assert sum(map(len, sp.obj.layout[I02].summands)) == DEFAULT_CAP


# -- value round trips and views --------------------------------------------


def test_encode_decode_roundtrip():
    sp = ProcSpace(UNBOUNDED, flag_temporal(SCALE), unit_obj(SCALE))
    for i in SCALE.indices():
        for e in sp.obj.at(i).elements:
            assert sp.encode(i, sp.decode(i, e)) == e


def test_values_enumerates_the_carrier():
    sp = ProcSpace(UNBOUNDED, unit_obj(SCALE), unit_obj(SCALE))
    vals = [sp.decode(I02, e) for e in sp.obj.at(I02)]
    assert len(vals) == 3
    assert set(sp.encode(I02, v) for v in vals) == set(sp.obj.at(I02).elements)


def test_restriction_truncates_late_stops():
    # a process seen to stop at 2 becomes, at horizon 1, still running
    sp = ProcSpace(UNBOUNDED, unit_obj(SCALE), unit_obj(SCALE))
    late = sp.encode(I02, Terminated(Fraction(2), ((Fraction(1), UNIT_ELEM),),
                                     UNIT_ELEM))
    shorter = sp.obj.res(arrow(SCALE, 0, 1, 2))(late)
    v = sp.decode(SCALE.pair(0, 1), shorter)
    assert isinstance(v, Ongoing)
    assert v.seen == ((Fraction(1), UNIT_ELEM),)


def test_early_stops_survive_restriction():
    sp = ProcSpace(UNBOUNDED, unit_obj(SCALE), unit_obj(SCALE))
    early = sp.encode(I02, Terminated(Fraction(1), (), UNIT_ELEM))
    v = sp.decode(SCALE.pair(0, 1), sp.obj.res(arrow(SCALE, 0, 1, 2))(early))
    assert isinstance(v, Terminated) and v.at_time == Fraction(1)


def test_seen_value_and_rest_after():
    v = Terminated(Fraction(2), ((Fraction(1), UNIT_ELEM),), UNIT_ELEM)
    assert seen_value(v, Fraction(1)) == UNIT_ELEM
    rest = rest_after(v, Fraction(1))
    assert isinstance(rest, Terminated)
    assert rest.seen == () and rest.at_time == Fraction(2)


def test_proc_map_preserves_identity():
    sp = ProcSpace(UNBOUNDED, flag_temporal(SCALE), unit_obj(SCALE))
    lifted = proc_map(sp, sp, act=t_identity(sp.a), res=t_identity(sp.b))
    assert mor_equal(lifted, t_identity(sp.obj))


def test_process_maps_are_natural():
    # The maps are built without a naturality check.
    f, u = flag_temporal(SCALE), unit_obj(SCALE)
    flip = TemporalMor(f, f, lambda i: fin_mor(
        f.at(i), f.at(i), lambda e: Atom("v1") if e == Atom("v0") else Atom("v0")))
    forget = TemporalMor(f, u, lambda i: fin_mor(f.at(i), u.at(i),
                                                  lambda e: UNIT_ELEM))
    for w in (UNBOUNDED, Fraction(1)):
        for mor in (proc_map(ProcSpace(w, f, f), ProcSpace(UNBOUNDED, f, u),
                             act=flip, res=forget),
                    live_map(LiveSpace(w, f, f), LiveSpace(w, f, u),
                             act=flip, res=forget)):
            assert naturality_witness(mor) is None


@pytest.mark.parametrize("src_w, dst_w, message", [
    (UNBOUNDED, Fraction(1), "bound may only weaken: inf -> 1"),
    (Fraction(2), Fraction(0), "bound may only weaken: 2 -> 0"),
])
def test_a_bound_may_only_weaken(src_w, dst_w, message):
    u = unit_obj(SCALE)
    with pytest.raises(ValueError, match=f"^{message}$"):
        proc_map(ProcSpace(src_w, u, u), ProcSpace(dst_w, u, u))
    proc_map(ProcSpace(dst_w, u, u), ProcSpace(src_w, u, u))


@pytest.mark.parametrize("w", [Fraction(1, 2), Fraction(3)])
def test_a_bound_off_the_scale_is_refused(w):
    u = unit_obj(SCALE)
    with pytest.raises(ValueError, match=f"^bound {w} is not a point of the scale "
                                         r"\{0, 1, 2\}$"):
        ProcSpace(w, u, u)


def test_bound_beyond_horizon_is_required_for_running_views():
    sp = ProcSpace(Fraction(2), unit_obj(SCALE), unit_obj(SCALE))
    with pytest.raises(ValueError):
        sp.encode(I02, Ongoing(((Fraction(1), UNIT_ELEM),
                                (Fraction(2), UNIT_ELEM))))


def test_step_space_is_result_plus_live():
    stp = StepSpace(UNBOUNDED, unit_obj(SCALE), flag_temporal(SCALE))
    lv = LiveSpace(UNBOUNDED, unit_obj(SCALE), flag_temporal(SCALE))
    for i in SCALE.indices():
        assert len(stp.obj.at(i)) == 2 + len(lv.obj.at(i))


def nonstop_value(space: LiveSpace, i: IndexPair):
    """The sole element of the nonstop carrier at index i."""
    times = space.scale.open_closed(i.t, i.t0)
    unit = Tup(())
    return space.encode(i, unit, Ongoing(tuple((u, unit) for u in times)))


def test_nonstop_space_is_a_point():
    space = nonstop_space(SCALE)
    for i in SCALE.indices():
        elems = space.obj.at(i).elements
        assert elems == (nonstop_value(space, i),)


def test_behavior_space_never_stops():
    sp = behavior_space(unit_obj(SCALE))
    for i in SCALE.indices():
        for e in sp.obj.at(i).elements:
            assert isinstance(sp.decode(i, e), Ongoing)


def test_event_step_space_counts():
    stp = event_step_space(unit_obj(SCALE))
    assert len(stp.obj.at(I02)) == 3


def test_render_value_is_stable():
    v = Terminated(Fraction(1), (), Tup(()))
    assert render_value(v) == "term(1; ; ())"
    o = Ongoing(((Fraction(1), Tup(())), (Fraction(2), Tup(()))))
    assert render_value(o) == "ongoing(1 -> (), 2 -> ())"


# Scales of one to three rational points, and process descriptors over
# one: every operator with every bound and every prefix, over values and
# results that are processes again or small products, sums, flags and one
# small exponential.
POINTS = st.lists(st.sampled_from([Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1),
                                   Fraction(3, 2), Fraction(2)]),
                  min_size=1, max_size=3, unique=True).map(sorted)


def process_descriptors(scale):
    def process(arg):
        return st.one_of(
            st.builds("{} {}[{}] {}".format, arg, st.sampled_from(["|>''", "|>'", "|>"]),
                      st.sampled_from(["inf", *map(str, scale.points)]), arg),
            st.builds("{} {}".format, st.sampled_from(["box'", "box", "dia'", "dia"]), arg))

    def extend(inner):
        return st.one_of(st.builds("prod({}, {})".format, inner, inner),
                         st.builds("sum({}, {})".format, inner, inner),
                         process(inner).map("({})".format))

    leaves = st.sampled_from(["unit", "empty", "flag", "flag(1)", "flag(3)", "exp(unit, flag)"])
    return process(st.recursive(leaves, extend, max_leaves=3))


@given(data=st.data())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_listing_matches_decoding_each_element(data):
    # Budget: at most 2 s for the whole test (about 1 s on 2 cores).
    scale = TimeScale.of(*data.draw(POINTS))
    space = parse_descriptor(data.draw(process_descriptors(scale)), scale)
    for i in scale.indices():
        lines = listing(space, i)
        assert lines == [render_element(space, i, e) for e in space.obj.at(i)]
        assert len(lines) == space.obj.at(i).size


# -- hash-consing -----------------------------------------------------------


def test_process_spaces_share_one_carrier_object():
    a, b = unit_obj(SCALE), flag_temporal(SCALE, 2)
    sp = ProcSpace(Fraction(1), a, b)
    # The bound is keyed by rank, the value and result objects by identity.
    assert ProcSpace(Fraction(1), a, b).obj is sp.obj
    assert ProcSpace(UNBOUNDED, a, b).obj is not sp.obj
    assert sp._carriers is sp.obj.carrier
    # Equal but distinct objects are a different key with an equal value.
    again = ProcSpace(Fraction(1), unit_obj(SCALE), flag_temporal(SCALE, 2))
    assert again.obj is not sp.obj and again.obj == sp.obj
    assert TemporalObj(SCALE, sp._carrier_at, sp._restrict_at) == sp.obj


# -- positional carriers and restrictions against element-level ones -------


def reference_values(sp, i):
    """Every process value at i, enumerated from the value and result
    pools."""
    def pool(obj, u):
        return obj.at(sp.scale.pair(u, i.t0)).elements

    lay = sp.obj.layout[i]
    out = []
    for tp in lay.times[:lay.stops]:
        prior = tuple(u for u in sp.scale.points if i.t < u < tp)
        for combo in iter_product(*(pool(sp.a, u) for u in prior)):
            out.extend(Terminated(tp, tuple(zip(prior, combo)), y) for y in pool(sp.b, tp))
    if lay.running:
        times = sp.scale.open_closed(i.t, i.t0)
        for combo in iter_product(*(pool(sp.a, u) for u in times)):
            out.append(Ongoing(tuple(zip(times, combo))))
    return out


def reference_restrict(sp, m, v):
    """Restrict each recorded value and the result along m, and forget a
    stop after m.t0 together with the values recorded after m.t0."""
    def down(obj, u, x):
        return obj.res(arrow(sp.scale, u, m.t0, m.t0p))(x)

    seen = tuple((u, down(sp.a, u, x)) for u, x in v.seen if u <= m.t0)
    if isinstance(v, Terminated) and v.at_time <= m.t0:
        return Terminated(v.at_time, seen, down(sp.b, v.at_time, v.result))
    return Ongoing(seen)


def assert_matches_reference(sp):
    """Carriers are the encoded values in key order; along every index
    morphism, identities and composites included, both the derived
    restriction and the direct one send each element where decoding,
    restricting and encoding does."""
    for i in sp.scale.indices():
        expected = FinObj(sp.encode(i, v) for v in reference_values(sp, i))
        assert sp.obj.at(i).elements == expected.elements
    for m in sp.scale.index_mors():
        src = sp.obj.at(m.src).elements
        expected = [sp.encode(m.dst, reference_restrict(sp, m, sp.decode(m.src, e)))
                    for e in src]
        for f in (sp.obj.res(m), sp._restrict_at(m)):
            assert (f.dom, f.cod) == (sp.obj.at(m.src), sp.obj.at(m.dst))
            assert [f(e) for e in src] == expected, m


def forgetful_obj(scale):
    """A process space used as a value object: its restrictions forget
    late stops, so they are not identities."""
    return ProcSpace(UNBOUNDED, unit_obj(scale), unit_obj(scale)).obj


KINDS = {"empty": empty_obj, "unit": unit_obj, "flag": flag_temporal,
         "stamp": stamp_parity_obj, "forget": forgetful_obj}


def test_grid_spaces_match_the_element_level_reference():
    for case in law_grid():
        assert_matches_reference(case.space)


def test_off_grid_spaces_match_the_element_level_reference():
    scale = TimeScale.of(Fraction(1, 2), 3, 7)
    for a_kind in KINDS:
        for b_kind in KINDS:
            for w in (*scale.points, UNBOUNDED):
                a, b = KINDS[a_kind](scale), KINDS[b_kind](scale)
                assert_matches_reference(ProcSpace(w, a, b))


@given(st.lists(st.fractions(-3, 5, max_denominator=3), min_size=1, max_size=4,
                unique=True),
       st.sampled_from(sorted(KINDS)), st.sampled_from(sorted(KINDS)),
       st.one_of(st.none(), st.integers(0, 3)))
@settings(max_examples=40, deadline=None)
def test_spaces_match_the_element_level_reference_on_drawn_scales(points, a_kind, b_kind,
                                                                  w_at):
    scale = TimeScale.of(*sorted(points))
    w = UNBOUNDED if w_at is None else scale.points[w_at % len(points)]
    assert_matches_reference(ProcSpace(w, KINDS[a_kind](scale), KINDS[b_kind](scale)))


FOUR = TimeScale.of(0, 1, 2, 3)
COVER = arrow(FOUR, 0, 1, 2)
COMPOSITE = arrow(FOUR, 0, 1, 3)  # COVER after (0, 2, 3)


def swapped(f: FinMor) -> FinMor:
    """f with the images of its first element and the first element
    mapped elsewhere exchanged."""
    pos = list(f.pos)
    k = next(k for k, p in enumerate(pos) if p != pos[0])
    pos[0], pos[k] = pos[k], pos[0]
    return FinMor(f.dom, f.cod, pos=pos)


@pytest.mark.parametrize("target", [COVER, COMPOSITE], ids=["cover", "composite"])
def test_a_broken_restriction_fails_the_functor_check_with_an_element(monkeypatch, target):
    # A swapped cover reaches the composite built from it; a swapped
    # composite differs from the covers.  Either way the direct
    # restriction along COMPOSITE and the composite of covers disagree.
    restrict_at = ProcSpace._restrict_at

    def broken(self, m):
        f = restrict_at(self, m)
        return swapped(f) if m == target else f

    monkeypatch.setattr(ProcSpace, "_restrict_at", broken)
    sp = ProcSpace(UNBOUNDED, flag_temporal(FOUR), unit_obj(FOUR))
    witness = check_functor(sp.obj)
    assert witness.startswith(f"restriction along {COMPOSITE} is not the "
                              "composite of its covers at ")


def test_the_functor_check_builds_each_restriction_once(monkeypatch):
    # A cover's direct restriction is the one `res` keeps, so the check
    # asks the space for every arrow exactly once.
    restrict_at, asked = ProcSpace._restrict_at, []

    def counted(self, m):
        asked.append(m)
        return restrict_at(self, m)

    monkeypatch.setattr(ProcSpace, "_restrict_at", counted)
    sp = ProcSpace(UNBOUNDED, flag_temporal(FOUR), unit_obj(FOUR))
    assert check_functor(sp.obj) is None
    assert len(asked) == len(set(asked)) and set(asked) == set(FOUR.index_mors())
