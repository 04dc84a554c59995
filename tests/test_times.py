import operator
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from proccat.process import ProcSpace
from proccat.temporal import flag_temporal, unit_obj
from proccat.times import (
    IndexMor,
    IndexPair,
    ScaleOverlapError,
    ScaleParseError,
    TermBound,
    Time,
    TimeScale,
    UNBOUNDED,
    as_time,
    parse_fraction,
    parse_scale_expr,
    scale_from_expr,
    validate_scale,
    w_leq,
    w_meet,
)

SCALE = TimeScale.of(0, 1, 2)

bounds = st.sampled_from(
    [UNBOUNDED, TermBound.at(0), TermBound.at(1), TermBound.at(2)]
)


def test_scale_needs_ascending_points():
    with pytest.raises(ValueError):
        TimeScale.of(1, 0)
    with pytest.raises(ValueError):
        TimeScale.of(0, 0)
    with pytest.raises(ValueError):
        TimeScale(())


def test_index_pair_and_mor_validation():
    with pytest.raises(ValueError):
        IndexPair(Fraction(2), Fraction(1))
    with pytest.raises(ValueError):
        IndexMor(Fraction(0), Fraction(2), Fraction(1))


def test_index_counts_match_direct_enumeration():
    # oracle: count pairs t <= t0 and triples t <= t0 <= t0' directly
    for pts in [(0,), (0, 1), (0, 1, 2), (0, "1/2", 1, 5)]:
        scale = TimeScale.of(*pts)
        pairs = [
            (t, t0)
            for t in scale.points
            for t0 in scale.points
            if t <= t0
        ]
        triples = [
            (t, t0, t0p)
            for t in scale.points
            for t0 in scale.points
            for t0p in scale.points
            if t <= t0 <= t0p
        ]
        assert len(scale.indices()) == len(pairs)
        assert len(scale.index_mors()) == len(triples)


def test_interval_helpers():
    two = Fraction(2)
    assert SCALE.open_closed(Fraction(0), two) == (Fraction(1), two)
    assert SCALE.open_open(Fraction(0), two) == (Fraction(1),)
    assert SCALE.closed_closed(Fraction(0), two) == SCALE.points
    assert SCALE.open_closed(two, two) == ()
    assert SCALE.start == Fraction(0) and SCALE.end == two


@given(bounds)
def test_no_bound_is_top(x):
    assert w_leq(x, UNBOUNDED)


@given(bounds, bounds)
def test_meet_is_a_lower_bound(x, y):
    m = w_meet(x, y)
    assert w_leq(m, x) and w_leq(m, y)
    assert w_meet(y, x) == m


@given(bounds, bounds, bounds)
def test_meet_is_associative(x, y, z):
    assert w_meet(w_meet(x, y), z) == w_meet(x, w_meet(y, z))


@given(st.lists(st.integers(0, 30), min_size=1, max_size=5, unique=True))
def test_finite_expression_roundtrip(points):
    text = "finite(" + ",".join(str(p) for p in points) + ")"
    scale = scale_from_expr(parse_scale_expr(text))
    assert scale == TimeScale.of(*sorted(points))


def test_parse_accepts_fractions_and_nesting():
    expr = parse_scale_expr("union(finite(0, 1/2), desc_above(3))")
    assert validate_scale(expr).accepted


def test_parse_errors():
    for bad in ["finite()", "finite(0", "finite(0,0)", "finite(0) junk",
                "mystery(1)", "finite(one)", "desc_above(0,1)", "asc_below(1,2)"]:
        with pytest.raises(ScaleParseError):
            parse_scale_expr(bad)


def test_validator_accepts_descending_chains():
    verdict = validate_scale(
        parse_scale_expr("union(desc_above(0), desc_above(1))")
    )
    assert verdict.accepted and verdict.witness is None


def test_validator_rejects_ascent_to_a_limit_anywhere():
    verdict = validate_scale(
        parse_scale_expr("union(finite(10), union(desc_above(5), asc_below(1)))")
    )
    assert not verdict.accepted
    assert "1" in verdict.witness


def test_overlapping_union_is_a_structural_error():
    with pytest.raises(ScaleOverlapError):
        validate_scale(parse_scale_expr("union(desc_above(0), desc_above(0))"))


def test_only_finite_expressions_evaluate():
    with pytest.raises(ScaleParseError):
        scale_from_expr(parse_scale_expr("desc_above(0)"))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_memoized_intervals_match_the_direct_filter(n):
    points = [Fraction(k, 2) for k in range(n)]
    scale = TimeScale(tuple(points))
    for a in points:
        for b in points:
            for _ in range(2):  # the first call fills the table, the second reads it
                assert scale.open_open(a, b) == tuple(p for p in points if a < p < b)
                assert scale.open_closed(a, b) == tuple(p for p in points if a < p <= b)
                assert scale.closed_closed(a, b) == tuple(p for p in points if a <= p <= b)
    assert scale.indices() == tuple(
        IndexPair(t, t0) for t in points for t0 in points if t <= t0)
    assert scale.index_mors() == tuple(
        IndexMor(t, t0, t0p) for t in points for t0 in points for t0p in points
        if t <= t0 <= t0p)


# -- Time: a Fraction that hashes once --------------------------------------

rationals = st.fractions(max_denominator=12)
COMPARISONS = (operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge)


def _compares_like(x, y, fx, fy):
    """Every comparison of x with y reads as that of the Fractions fx, fy."""
    for op in COMPARISONS:
        assert op(x, y) == op(fx, fy), op.__name__


@given(rationals, rationals)
def test_time_compares_and_hashes_like_fraction(a, b):
    ta, tb = Time(a), Time(b)
    assert hash(ta) == hash(a) and ta == a and a == ta
    for y, fy in ((tb, b), (b, b)):
        _compares_like(ta, y, a, fy)
        _compares_like(y, ta, fy, a)


@given(rationals, st.integers(-20, 20))
def test_time_compares_with_int_like_fraction(a, n):
    _compares_like(Time(a), n, a, n)
    _compares_like(n, Time(a), n, a)
    assert hash(Time(n)) == hash(n) == hash(Fraction(n))


@given(rationals)
def test_time_prints_like_fraction(a):
    assert str(Time(a)) == str(a)
    assert repr(Time(a)) == repr(a)


def test_every_time_the_package_makes_is_a_time():
    scale = TimeScale((Fraction(1, 2), Fraction(3)))
    assert all(type(p) is Time for p in scale.points)
    assert all(type(p) is Time for p in TimeScale.of("1/2", 3, 7).points)
    assert type(as_time("3/4")) is Time and type(parse_fraction("-5/2")) is Time
    assert type(TermBound.at(2).time) is Time


def test_a_term_bound_hashes_once():
    b = TermBound.at(1)
    assert hash(b) == b._hash == hash(TermBound.at("1")) == hash((b.time,))
    assert {b: "one", UNBOUNDED: "inf"}[TermBound.at(1)] == "one"
    assert hash(UNBOUNDED) == hash((None,))
    t = Time(1, 2)
    assert as_time(t) is t


def test_plain_fraction_keys_find_the_scales_own_entries():
    scale = TimeScale.of("1/2", 3, 7)
    obj = ProcSpace(UNBOUNDED, flag_temporal(scale), unit_obj(scale)).obj
    i = IndexPair(Fraction(1, 2), Fraction(7))
    m = IndexMor(Fraction(1, 2), Fraction(3), Fraction(7))
    own_i = next(k for k in obj.carrier if k == i)
    own_m = next(k for k in obj.restrict if k == m)
    assert type(own_i.t) is Time and type(i.t) is Fraction
    assert hash(i) == hash(own_i) and hash(m) == hash(own_m)
    assert obj.at(i) is obj.carrier[own_i]
    assert obj.res(m) is obj.restrict[own_m]
    assert len(obj.at(i)) == 7  # stop at 3 or 7, or run on through both
