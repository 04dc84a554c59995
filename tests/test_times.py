import operator
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from proccat.cli import parse_descriptor
from proccat.process import ProcSpace
from proccat.temporal import flag_temporal, unit_obj
from proccat.times import (
    ParseError,
    ScaleOverlapError,
    SEARCH_BUDGET,
    TimeScale,
    UNBOUNDED,
    _chain_points_equal_gap,
    _unit_pair_divisors,
    _unit_pair_scan,
    parse_fraction,
    parse_scale_expr,
    scale_from_expr,
    validate_scale,
    w_leq,
    w_meet,
)

from process_values import arrow

SCALE = TimeScale.of(0, 1, 2)

bounds = st.sampled_from([UNBOUNDED, *SCALE.points])


def test_scale_needs_ascending_points():
    with pytest.raises(ValueError):
        TimeScale.of(1, 0)
    with pytest.raises(ValueError):
        TimeScale.of(0, 0)
    with pytest.raises(ValueError):
        TimeScale(())


def test_index_pair_and_mor_validation():
    # Only the scale makes index values; a lookup outside its index
    # category finds none.
    assert SCALE.pair(Fraction(2), Fraction(1)) is None
    assert SCALE.pair(0, 3) is None and SCALE.pair(Fraction(1, 2), 1) is None
    with pytest.raises(ValueError, match=r"^no arrows from rank 1 to rank 2$"):
        SCALE.arrows(2, 1)


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
    assert SCALE.open_closed(two, two) == () == SCALE.open_closed(two, 0)
    assert SCALE.start == Fraction(0) and SCALE.end == two


@given(bounds)
def test_no_bound_is_top(x):
    assert w_leq(x, UNBOUNDED)


@given(bounds, bounds)
def test_meet_is_a_lower_bound(x, y):
    m = w_meet(x, y)
    assert w_leq(m, x) and w_leq(m, y)
    assert w_meet(y, x) == m


@given(bounds, bounds)
def test_bounds_compare_as_points_below_unbounded(x, y):
    if x is None or y is None:
        assert w_leq(x, y) == (y is None)
        assert w_meet(x, y) == (y if x is None else x)
    else:
        assert w_leq(x, y) == (x <= y)
        assert w_meet(x, y) == min(x, y)


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
    assert validate_scale(expr) is None


def test_parse_errors():
    for bad in ["finite()", "finite(0", "finite(0,0)", "finite(0) junk",
                "mystery(1)", "finite(one)", "desc_above(0,1)", "asc_below(1,2)"]:
        with pytest.raises(ParseError):
            parse_scale_expr(bad)


def test_validator_accepts_descending_chains():
    assert validate_scale(
        parse_scale_expr("union(desc_above(0), desc_above(1))")
    ) is None


def test_validator_rejects_ascent_to_a_limit_anywhere():
    witness = validate_scale(
        parse_scale_expr("union(finite(10), union(desc_above(5), asc_below(1)))")
    )
    assert witness is not None
    assert "1" in witness


def test_overlapping_union_is_a_structural_error():
    with pytest.raises(ScaleOverlapError):
        validate_scale(parse_scale_expr("union(desc_above(0), desc_above(0))"))


def reference_equal_gap(d: Fraction, s1: int, s2: int) -> bool:
    """Does s1/n - s2/m = d have a solution in positive integers n, m, by
    a plain scan over about 2/|d| candidates: the reference for both
    searches of `_chain_points_equal_gap`."""
    if d == 0:
        return s1 == s2
    # s1/n = d + s2/m.  The larger of |s1/n|, |s2/m| is at least |d|/2, which
    # confines one of the indices to a finite range; test both roles.
    half = abs(d) / 2
    bound = int(1 / half) + 1
    for k in range(1, bound + 1):
        recip = Fraction(1, k)
        other = recip * s1 - d  # candidate for s2/m with n = k
        if other * s2 > 0 and (s2 / other).denominator == 1 and s2 / other >= 1:
            return True
        other = recip * s2 + d  # candidate for s1/n with m = k
        if other * s1 > 0 and (s1 / other).denominator == 1 and s1 / other >= 1:
            return True
    return False


anchors = st.fractions(min_value=-3, max_value=3, max_denominator=12)
signs = st.sampled_from([1, -1])


@given(anchors, anchors, signs, signs)
def test_both_overlap_searches_agree_with_the_reference_scan(a1, a2, s1, s2):
    d = a2 - a1
    expected = reference_equal_gap(d, s1, s2)
    assert _chain_points_equal_gap(d, s1, s2) == expected
    # Each search on its own, on the sum or difference of unit fractions
    # the selector reduces the gap to.
    plus = s1 != s2
    e = s1 * d if plus else abs(d)
    if e > 0:
        p, q = e.numerator, e.denominator
        assert _unit_pair_scan(p, q, plus, (2 if plus else 1) * q // p) == expected
        assert _unit_pair_divisors(p, q, plus) == expected


def test_tiny_gaps_are_decided_or_refused_never_scanned():
    # 1/n + 1/m = 1/10**9 at n = m = 2 * 10**9: a scan of 2 * 10**9 steps,
    # a divisor search of about 31,623.
    with pytest.raises(ScaleOverlapError, match=r"^union members overlap: "
                       r"desc_above\(0\) and asc_below\(1/1000000000\)$"):
        validate_scale(parse_scale_expr("union(desc_above(0), asc_below(1/1000000000))"))
    # 999999999989 is prime and 2 mod 3, so 1/n - 1/m = 3/999999999989 has
    # no solution; only the divisor search fits the budget.
    disjoint = parse_scale_expr("union(desc_above(0), desc_above(3/999999999989))")
    assert validate_scale(disjoint) is None
    # Past the budget both ways: an error, not a verdict.
    assert 10**13 > SEARCH_BUDGET**2
    with pytest.raises(ScaleOverlapError, match=r"^cannot tell within \d+ steps whether "
                       r"desc_above\(0\) and asc_below\(1/10000000000000\) overlap$"):
        validate_scale(parse_scale_expr("union(desc_above(0), asc_below(1/10000000000000))"))


def test_only_finite_expressions_evaluate():
    with pytest.raises(ParseError):
        scale_from_expr(parse_scale_expr("desc_above(0)"))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_memoized_intervals_match_the_direct_filter(n):
    points = [Fraction(k, 2) for k in range(n)]
    scale = TimeScale(tuple(points))
    for a in points:
        for b in points:
            assert scale.open_closed(a, b) == tuple(p for p in points if a < p <= b)
    pairs = [(t, t0) for t in points for t0 in points if t <= t0]
    assert [(i.t, i.t0) for i in scale.indices()] == pairs
    assert scale.indices() == tuple(scale.pair(t, t0) for t, t0 in pairs)
    triples = [(t, t0, t0p) for t in points for t0 in points for t0p in points
               if t <= t0 <= t0p]
    assert [(m.t, m.t0, m.t0p) for m in scale.index_mors()] == triples
    assert scale.index_mors() == tuple(arrow(scale, *x) for x in triples)
    assert [(m.t, m.t0, m.t0p) for m in scale.covers()] == [
        (t, t0, t0p) for t, t0, t0p in triples
        if t0p in points[1:] and points[points.index(t0p) - 1] == t0]


# -- time points are plain Fractions ---------------------------------------


rationals = st.fractions(max_denominator=12)
COMPARISONS = (operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge)


def _compares_like(x, y, fx, fy):
    """Every comparison of x with y reads as that of the Fractions fx, fy."""
    for op in COMPARISONS:
        assert op(x, y) == op(fx, fy), op.__name__


def _times_made_from(a):
    """The time points the package makes for the rational a."""
    return (TimeScale((a,)).points[0], TimeScale.of(str(a)).points[0],
            parse_fraction(str(a)))


@given(rationals, rationals)
def test_time_compares_and_hashes_like_fraction(a, b):
    for ta in _times_made_from(a):
        assert hash(ta) == hash(a) and ta == a and a == ta
        for tb in _times_made_from(b):
            _compares_like(ta, tb, a, b)
            _compares_like(ta, b, a, b)
            _compares_like(b, ta, b, a)


@given(rationals, st.integers(-20, 20))
def test_time_compares_with_int_like_fraction(a, n):
    for ta in _times_made_from(a):
        _compares_like(ta, n, a, n)
        _compares_like(n, ta, n, a)
    for tn in _times_made_from(Fraction(n)):
        assert tn == n and hash(tn) == hash(n) == hash(Fraction(n))


def test_every_time_the_package_makes_is_a_time():
    """Points, bounds and parsed rationals are exact, plain Fractions."""
    scale = TimeScale.of(0, "3/4", 2)
    parsed = [parse_descriptor(f"unit |>[{w}] unit", scale).w for w in ("3/4", "2")]
    made = [(TimeScale((Fraction(1, 2), 3)).points, (Fraction(1, 2), 3)),
            (TimeScale.of("1/2", 3, 7).points, (Fraction(1, 2), 3, 7)),
            (parsed, (Fraction(3, 4), 2)),
            ((parse_fraction("-5/2"), parse_fraction("4")), (Fraction(-5, 2), 4))]
    for points, values in made:
        for t, x in zip(points, values, strict=True):
            assert type(t) is Fraction
            assert t == x == Fraction(x) and hash(t) == hash(x) == hash(Fraction(x))


def test_plain_fraction_keys_find_the_scales_own_entries():
    scale = TimeScale.of("1/2", 3, 7)
    obj = ProcSpace(UNBOUNDED, flag_temporal(scale), unit_obj(scale)).obj
    i = scale.pair(Fraction(1, 2), 7)
    m = arrow(scale, Fraction(1, 2), Fraction(3), Fraction(7))
    own_i = next(k for k in obj.carrier if (k.t, k.t0) == (Fraction(1, 2), 7))
    own_m = next(k for k in obj.restrict if (k.t, k.t0, k.t0p) == (Fraction(1, 2), 3, 7))
    assert own_i is i and own_m is m
    assert obj.at(i) is obj.carrier[own_i]
    assert obj.res(m) is obj.restrict[own_m]
    assert len(obj.at(i)) == 7  # stop at 3 or 7, or run on through both


def test_an_index_value_has_one_instance():
    # One per value per scale: the scale makes each pair and arrow once.
    scale = TimeScale.of("1/2", 7)
    i = scale.pair(Fraction(1, 2), 7)
    assert i is scale.pair(Fraction(1, 2), Fraction(7)) is scale.column(1)[0]
    assert i in scale.indices() and i.identity is arrow(scale, Fraction(1, 2), 7, 7)
    assert type(i.t) is Fraction and type(i.t0) is Fraction and repr(i) == "(1/2, 7)"
    assert (i.r, i.r0) == (0, 1)
    m = arrow(SCALE, 0, 1, 2)
    assert m is arrow(SCALE, Fraction(0), 1, 2) is SCALE.arrows(1, 2)[0]
    assert m in SCALE.index_mors() and m in SCALE.covers() and repr(m) == "(0, 1, 2)"
    assert all(type(x) is Fraction for x in (m.t, m.t0, m.t0p))
    assert (m.r, m.r0, m.r0p) == (0, 1, 2)
    assert m.src is SCALE.pair(0, 2) and m.dst is SCALE.pair(0, 1)
    # Identity hash and equality; no order.
    assert hash(i) == object.__hash__(i) and hash(m) == object.__hash__(m)
    with pytest.raises(TypeError):
        SCALE.pair(0, 1) < SCALE.pair(0, 2)
    with pytest.raises(AttributeError):
        i.t = Fraction(0)
    for scale in (SCALE, TimeScale.of("1/2", 3, 7)):
        identities = [m for m in scale.index_mors() if m.t0 == m.t0p]
        assert identities == [i.identity for i in scale.indices()]
        assert all(m.src is m.dst for m in identities)
        assert all(m.src is not m.dst for m in scale.index_mors() if m.t0 != m.t0p)


def test_equal_points_give_one_scale():
    s = TimeScale.of(0, "1/2", 1)
    assert s is TimeScale((Fraction(0), Fraction(1, 2), 1)) is TimeScale.of(0, Fraction(1, 2), 1)
    assert scale_from_expr(parse_scale_expr("finite(1, 0, 1/2)")) is s
    assert s is not TimeScale.of(0, 1) and s.pair(0, 1) is not TimeScale.of(0, 1).pair(0, 1)


def test_a_pair_from_an_equal_scale_keys_the_carriers():
    # The grid's and the CLI's scale over (0, 1, 2) are one scale, so a
    # pair read off either keys an object built on the other.
    obj = ProcSpace(UNBOUNDED, flag_temporal(SCALE), unit_obj(SCALE)).obj
    other = scale_from_expr(parse_scale_expr("finite(0, 1, 2)"))
    i = other.pair(Fraction(0), Fraction(2))
    assert len(obj.at(i)) == 7
    assert obj.res(arrow(other, 0, 1, 2)).dom is obj.at(i)


def test_arrows_are_made_when_first_read():
    # Points no other test uses, since a scale lives as long as the process.
    scale = TimeScale.of(*(Fraction(k, 64) for k in range(64)))
    # The identity arrows come with the pairs; of the 45,760 arrows no
    # other is made until read, and then its column alone.
    assert len(scale.indices()) == 2080
    assert sorted(scale._arrows) == [(r, r) for r in range(64)]
    p = scale.points
    m = arrow(scale, p[5], p[10], p[63])
    assert (m.r, m.r0, m.r0p) == (5, 10, 63)
    assert sorted(scale._arrows) == sorted([(r, r) for r in range(64)] + [(10, 63)])
    assert len(scale.arrows(10, 63)) == 11
    assert len(scale.index_mors()) == 45760 and len(scale._arrows) == 64 * 65 // 2
