import gc
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
import weakref
from itertools import combinations, product as iter_product
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import proccat
from proccat import temporal
from proccat.finset import (
    Atom, CapExceeded, DEFAULT_CAP, FinMor, FinObj, FnTab, Inj, Tup, _INTERNED, compose,
    enumerate_mors, fin_mor, flag_obj, identity,
)
from proccat.laws import law_grid, poison, stamp_parity_obj
from proccat.operators import expand, expanded_space, join, joining_space
from proccat.process import (
    LiveSpace, ProcSpace, StepSpace, behavior_live_space, behavior_space, event_space,
    event_step_space,
)
from proccat.temporal import (
    TemporalMor,
    TemporalObj,
    check_functor,
    const_obj,
    empty_obj,
    enumerate_nat_trans,
    exponential_end,
    first_difference,
    first_mismatch,
    fixpoint,
    flag_temporal,
    mor_equal,
    nat_trans_space,
    naturality_witness,
    pointwise_coproduct,
    pointwise_product,
    require_functor,
    require_natural,
    solve_order,
    t_compose,
    t_copairing,
    t_coproduct_mor,
    t_identity,
    t_product_mor,
    unit_obj,
)
from proccat.times import UNBOUNDED, TimeScale

from process_values import arrow

SCALE = TimeScale.of(0, 1, 2)
SMALL = TimeScale.of(0, 1)

# -- references ---------------------------------------------------------------


def ref_restrict(obj):
    """Every restriction of `obj`, derived eagerly from the covers it was
    built from, the way `TemporalObj` once stored them: identities
    restrict by the identity map, and each longer arrow by the arrow one
    cover shorter after the cover out of its source."""
    step_from = {m.src: obj.restrict_at(m) for m in obj.scale.covers()}
    restrict = {}
    # `index_mors` runs t0' up from t0 for each (t, t0), so the arrow one
    # cover shorter is the previous entry.
    for m in obj.scale.index_mors():
        if m.src is m.dst:
            below = None
            restrict[m] = identity(obj.at(m.src))
        else:
            step = step_from[m.src]
            below = restrict[m] = step if below is None else compose(below, step)
    return restrict


def brute_nat_trans(a, b, cap=DEFAULT_CAP):
    """Unpruned filter over the whole candidate space; oracle for the search."""
    space = nat_trans_space(a, b)
    if space > cap:
        raise CapExceeded(space, cap)
    indices = a.scale.indices()
    per_index = [enumerate_mors(a.at(i), b.at(i), cap) for i in indices]
    out = []
    for choice in iter_product(*per_index):
        cand = TemporalMor(a, b, dict(zip(indices, choice)).__getitem__)
        if naturality_witness(cand) is None:
            out.append(cand)
    return out


def ref_naturality_witness(mor):
    """The witness as first written: each cover's square compared by
    positions, and for the first that fails, the element where the two
    composite maps first differ."""
    for index in mor.dom.scale.indices():
        comp = mor.at(index)
        if comp.dom != mor.dom.at(index) or comp.cod != mor.cod.at(index):
            return f"component at {index} has wrong endpoints"
    for i in mor.dom.scale.covers():
        rb, ra = mor.cod.res(i), mor.dom.res(i)
        at_src, at_dst = mor.at(i.src), mor.at(i.dst)
        if [*map(rb.pos.__getitem__, at_src.pos)] != [*map(at_dst.pos.__getitem__, ra.pos)]:
            left = compose(mor.cod.res(i), mor.at(i.src))
            right = compose(mor.at(i.dst), mor.dom.res(i))
            bad = next(e for e in mor.dom.at(i.src) if left(e) != right(e))
            return f"square for {i} fails at {bad!r}: {left(bad)!r} vs {right(bad)!r}"
    return None


def single_swaps(mor):
    """Every family that differs from `mor` at one index by swapping the
    images of two domain elements with different images there."""
    for i in mor.dom.scale.indices():
        pos = mor.at(i).pos
        for p, q in combinations(range(len(pos)), 2):
            if pos[p] != pos[q]:
                swapped = list(pos)
                swapped[p], swapped[q] = pos[q], pos[p]
                comp = FinMor(mor.dom.at(i), mor.cod.at(i), pos=swapped)
                yield TemporalMor(mor.dom, mor.cod,
                                  lambda j, i=i, comp=comp: comp if j is i else mor.at(j))


def assert_res_matches_the_reference(obj):
    expected = ref_restrict(obj)
    for m in obj.scale.index_mors():
        assert obj.res(m) == expected[m], m
    assert obj.restrict == expected


def test_constant_objects_are_functors():
    for obj in (empty_obj(SCALE), unit_obj(SCALE), flag_temporal(SCALE, 3)):
        assert check_functor(obj) is None


def test_broken_restriction_is_caught():
    # identity components but a non-identity self-restriction
    def carrier(i):
        return flag_obj(2)

    def restrict(m):
        def go(e):
            if m.t0 == m.t0p:
                return Atom("v0")
            return e
        return fin_mor(flag_obj(2), flag_obj(2), go)

    broken = TemporalObj(SMALL, carrier, restrict)
    assert check_functor(broken)
    with pytest.raises(ValueError, match="not a functor"):
        require_functor(broken)


def test_the_functor_witness_names_an_element_where_a_long_arrow_differs():
    # The covers are identities, so the composite along (0, 0, 2) is too;
    # the direct restriction there moves v0 alone.
    flag = flag_obj(2)
    moved = FinMor(flag, flag, pos=[1, 1])

    def restrict(m):
        return moved if (m.r, m.r0, m.r0p) == (0, 0, 2) else identity(flag)

    obj = TemporalObj(SCALE, lambda i: flag, restrict)
    assert check_functor(obj) == ("restriction along (0, 0, 2) is not the composite "
                                  "of its covers at v0: v1 vs v0")


def test_naturality_witness_localizes_the_failure():
    a = flag_temporal(SMALL, 2)

    def component(i):
        def go(e):
            if i.t0 > i.t:
                return Atom("v1")
            return e
        return fin_mor(a.at(i), a.at(i), go)

    mor = TemporalMor(a, a, component)
    witness = naturality_witness(mor)
    assert witness is not None and "square" in witness
    with pytest.raises(ValueError, match="not natural"):
        require_natural(mor)


def test_the_witness_matches_the_reference_on_every_single_swap():
    # Every expand and join map of the standard grid, each swapped at one
    # index in every way that changes it.
    maps = {}
    for case in law_grid():
        for op in (expand, join):
            maps.setdefault(id(op(case.space)), op(case.space))
    caught = missed = 0
    for mor in maps.values():
        assert naturality_witness(mor) is None
        for mutant in single_swaps(mor):
            witness = naturality_witness(mutant)
            assert witness == ref_naturality_witness(mutant)
            caught, missed = caught + (witness is not None), missed + (witness is None)
    assert caught > 100 and missed > 100


def test_first_difference_reports_the_first_index():
    a = flag_temporal(SMALL, 2)
    flip = TemporalMor(
        a, a,
        lambda i: fin_mor(a.at(i), a.at(i),
                          lambda e: Atom("v1") if e == Atom("v0")
                          else Atom("v0")),
    )
    ident = t_identity(a)
    assert first_difference(ident, ident) is None
    gap = first_difference(flip, ident)
    assert gap is not None and "(0, 0)" in gap
    with pytest.raises(ValueError):
        first_difference(flip, t_identity(unit_obj(SMALL)))


def test_first_difference_compares_positions_before_elements():
    sp = ProcSpace(UNBOUNDED, flag_temporal(SCALE), unit_obj(SCALE))
    ident = t_identity(sp.obj)
    same = t_compose(ident, t_identity(sp.obj))
    assert first_difference(ident, same) is None
    # Equal maps are told apart by their positions alone.
    assert not any("table" in vars(m.at(i)) for m in (ident, same)
                   for i in SCALE.indices())
    # A difference prints the witness of the element-by-element walk.
    broken = poison(ident)
    walked = next(f"at {i}: {e!r} maps to {ident.at(i)(e)!r} vs {broken.at(i)(e)!r}"
                  for i in SCALE.indices() for e in sp.obj.at(i).elements
                  if ident.at(i)(e) != broken.at(i)(e))
    assert first_difference(ident, broken) == walked
    assert not walked.startswith("at (0, 0)")


@given(st.integers(0, 2), st.integers(0, 2))
@settings(max_examples=20, deadline=None)
def test_nat_trans_space_counts_componentwise(n, m):
    # oracle: the unconstrained family space is the product of |B|^|A|
    a, b = flag_temporal(SMALL, n), flag_temporal(SMALL, m)
    expected = 1
    for i in SMALL.indices():
        expected *= len(b.at(i)) ** len(a.at(i))
    assert nat_trans_space(a, b) == expected


def test_enumeration_agrees_with_brute_filter():
    # the pruned search must return exactly the brute-force survivors
    a = flag_temporal(SMALL, 2)
    b = pointwise_coproduct([unit_obj(SMALL), unit_obj(SMALL)])
    fast = enumerate_nat_trans(a, b)
    slow = brute_nat_trans(a, b)
    assert len(fast) == len(slow)
    for f in fast:
        assert any(mor_equal(f, g) for g in slow)
    for f in fast:
        assert naturality_witness(f) is None


def test_enumeration_keeps_the_brute_filter_order():
    # The search fixes the latest stops first, then sorts its finds back
    # into the order of a plain filter: indices ascending.
    a = stamp_parity_obj(SCALE)
    b = pointwise_coproduct([unit_obj(SCALE), unit_obj(SCALE)])
    fast, slow = enumerate_nat_trans(a, b), brute_nat_trans(a, b)
    assert len(fast) > 1
    assert [f.components for f in fast] == [g.components for g in slow]


def test_an_equation_reading_an_earlier_index_of_its_row_raises():
    # The image at (t, t0) is read with the later rows and (t, t0) itself
    # fixed, so even the point before t0 in the same row is not fixed.
    a = flag_temporal(SCALE, 2)

    def equation(f):
        def image(i, p):
            here = i if i.r0 == i.r else SCALE.column(i.r0 - 1)[i.r]
            return f.at(here).pos[p]
        return image

    with pytest.raises(LookupError, match="not fixed"):
        enumerate_nat_trans(a, a, equation=equation)
    # Reading its own index is allowed; every natural family passes.
    own = enumerate_nat_trans(a, a, equation=lambda f: lambda i, p: f.at(i).pos[p])
    assert [f.components for f in own] == [g.components for g in brute_nat_trans(a, a)]


def test_an_equation_reading_an_unfixed_index_raises():
    a = flag_temporal(SCALE, 2)
    first = SCALE.indices()[0]  # the earliest stop, fixed last
    with pytest.raises(LookupError, match="not fixed"):
        enumerate_nat_trans(a, a, equation=lambda f: lambda i, p: f.at(first).pos[p])


def test_a_fixpoint_reading_its_own_index_raises():
    # A component is fixed only once its whole image is known, so an
    # image that reads the family at its own index finds it unfixed.
    a = flag_temporal(SCALE, 2)
    first = solve_order(SCALE)[0]
    unfixed = re.escape(f"candidate at {first}, which is not fixed")
    with pytest.raises(LookupError, match=unfixed):
        fixpoint(a, a, lambda f: lambda i, p: f.at(i).pos[p])


def test_enumeration_cap():
    a = flag_temporal(SCALE, 2)
    with pytest.raises(CapExceeded):
        enumerate_nat_trans(a, a, cap=3)


def test_composition_and_identity():
    a = flag_temporal(SMALL, 3)
    rot = TemporalMor(
        a, a,
        lambda i: fin_mor(a.at(i), a.at(i),
                          lambda e: Atom("v" + str((int(e.name[1]) + 1) % 3))),
    )
    assert mor_equal(t_compose(t_identity(a), rot), rot)
    assert mor_equal(t_compose(rot, t_identity(a)), rot)
    triple = t_compose(rot, t_compose(rot, rot))
    assert mor_equal(triple, t_identity(a))


def test_products_and_coproducts_are_pointwise():
    a, b = flag_temporal(SMALL, 2), flag_temporal(SMALL, 3)
    p = pointwise_product([a, b])
    s = pointwise_coproduct([a, b])
    for i in SMALL.indices():
        assert len(p.at(i)) == 6
        assert len(s.at(i)) == 5
    assert check_functor(p) is None and check_functor(s) is None


def test_one_element_lists_build_the_one_factor_or_summand():
    # A one-factor product holds (x,), a one-summand coproduct in0(x),
    # both restricting as the factor does; the one-component copairing,
    # product and coproduct maps act on their one component.
    b = ProcSpace(UNBOUNDED, flag_temporal(SMALL, 2), unit_obj(SMALL)).obj
    prod_at = {i: FinObj(Tup((x,)) for x in b.at(i)) for i in SMALL.indices()}
    sum_at = {i: FinObj(Inj(0, x) for x in b.at(i)) for i in SMALL.indices()}
    assert pointwise_product([b]) == TemporalObj(
        SMALL, prod_at.__getitem__, lambda m: fin_mor(
            prod_at[m.src], prod_at[m.dst], lambda e: Tup((b.res(m)(e.items[0]),))))
    assert pointwise_coproduct([b]) == TemporalObj(
        SMALL, sum_at.__getitem__, lambda m: fin_mor(
            sum_at[m.src], sum_at[m.dst], lambda e: Inj(0, b.res(m)(e.value))))
    a = flag_temporal(SMALL, 2)
    swap = TemporalMor(a, a, lambda i: FinMor(a.at(i), a.at(i), pos=[1, 0]))
    swapped = {Atom("v0"): Atom("v1"), Atom("v1"): Atom("v0")}
    for mor, image in [
            (t_product_mor([swap]), lambda e: Tup((swapped[e.items[0]],))),
            (t_copairing([swap]), lambda e: swapped[e.value]),
            (t_coproduct_mor([swap]), lambda e: Inj(0, swapped[e.value]))]:
        assert naturality_witness(mor) is None
        for i in SMALL.indices():
            assert mor.at(i).table == {e: image(e) for e in mor.dom.at(i)}


def test_the_exponential_builds_at_its_cap_and_refuses_one_over(monkeypatch):
    # Maps unit -> flag: 2 at each index, so 2 * 2 families of maps at
    # (0, 1), the most of any index of the scale (0, 1).
    a, b = unit_obj(SMALL), flag_temporal(SMALL, 2)
    monkeypatch.setattr(temporal, "DEFAULT_CAP", 4)
    assert len(exponential_end(a, b).at(SMALL.pair(0, 1))) == 2
    monkeypatch.setattr(temporal, "DEFAULT_CAP", 3)
    with pytest.raises(CapExceeded, match="^enumeration of 4 candidates exceeds cap 3$"):
        exponential_end(a, b)


def test_exponential_collects_compatible_families():
    # maps 1 -> Flag pick one flag per observation level, coherently
    e = exponential_end(unit_obj(SMALL), flag_temporal(SMALL, 2))
    assert check_functor(e) is None
    i = SMALL.pair(SMALL.points[0], SMALL.points[1])
    # at (0,1) a family fixes images at (0,0) and (0,1); restriction of a
    # constant object forces them equal, so exactly two families remain
    assert len(e.at(i)) == 2


def ref_exponential_end(a, b, cap=DEFAULT_CAP):
    """b^a as a filter over every choice of one map per point in [t, t0],
    kept when each cover's square commutes as composite maps; restriction
    truncates the tuple of tables and looks the prefix up by element."""
    scale = a.scale

    def carrier_at(i):
        total, spaces = 1, []
        for q in range(i.r, i.r0 + 1):
            here = scale.column(q)[i.r]
            total *= len(b.at(here)) ** len(a.at(here))
            if total > cap:
                raise CapExceeded(total, cap)
            spaces.append(enumerate_mors(a.at(here), b.at(here)))
        covers = [scale.arrows(q, q + 1)[i.r] for q in range(i.r, i.r0)]
        return FinObj(
            Tup(tuple(FnTab(tuple(c.table.items())) for c in choice))
            for choice in iter_product(*spaces)
            if all(compose(b.res(m), choice[x + 1]) == compose(choice[x], a.res(m))
                   for x, m in enumerate(covers)))

    carriers = {i: carrier_at(i) for i in scale.indices()}

    def restrict_at(m):
        keep = m.r0 - m.r + 1
        return fin_mor(carriers[m.src], carriers[m.dst], lambda fam: Tup(fam.items[:keep]))

    return TemporalObj(scale, carriers.__getitem__, restrict_at)


def exp_operands(scale, w):
    """Builders of the objects `exp` is tested on: constant ones, process
    spaces and their views under the bound w, sums and the stamp object."""
    unit, flag, stamp = unit_obj(scale), flag_temporal(scale), stamp_parity_obj(scale)
    return {
        "unit": lambda: unit,
        "empty": lambda: empty_obj(scale),
        "flag": lambda: flag,
        "flag(3)": lambda: flag_temporal(scale, 3),
        "|>''": lambda: ProcSpace(w, flag, unit).obj,
        "|>'": lambda: LiveSpace(w, unit, flag).obj,
        "|>": lambda: StepSpace(w, unit, unit).obj,
        "box'": lambda: behavior_live_space(unit).obj,
        "box": lambda: behavior_space(flag).obj,
        "dia'": lambda: event_space(flag).obj,
        "dia": lambda: event_step_space(unit).obj,
        "sum": lambda: pointwise_coproduct([unit, stamp]),
        "stamp": lambda: stamp,
    }


def assert_exp_matches_the_reference(a, b, cap=DEFAULT_CAP):
    """Equal carriers and elements at every index, and equal restrictions
    along every arrow; or the same CapExceeded text from both."""
    try:
        expected = ref_exponential_end(a, b, cap)
    except CapExceeded as refused:
        with pytest.raises(CapExceeded) as exc:
            exponential_end(a, b)
        assert str(exc.value) == str(refused)
        return
    got = exponential_end(a, b)
    for i in a.scale.indices():
        assert got.at(i) == expected.at(i)
        assert got.at(i).elements == expected.at(i).elements, i
    for m in a.scale.index_mors():
        assert got.res(m).pos == expected.restrict_at(m).pos, m


OPERANDS = sorted(exp_operands(SCALE, UNBOUNDED))


@given(st.sampled_from([1, 2, 3, 4]).flatmap(lambda n: st.lists(
           st.fractions(-3, 5, max_denominator=3), min_size=n, max_size=n, unique=True)),
       st.one_of(st.none(), st.integers(0, 3)),
       st.sampled_from(OPERANDS), st.sampled_from(OPERANDS))
@settings(max_examples=80, deadline=None)
def test_exponential_matches_the_filter_over_every_choice(points, w_at, a, b):
    # A low cap keeps the reference's filter small; both read the same one.
    scale = TimeScale.of(*sorted(points))
    w = UNBOUNDED if w_at is None else scale.points[w_at % len(points)]
    build = exp_operands(scale, w)
    with mock.patch.object(temporal, "DEFAULT_CAP", 3000):
        assert_exp_matches_the_reference(build[a](), build[b](), cap=3000)


@pytest.mark.parametrize("a, b, points", [
    ("flag", "stamp", (0, 1, 2)), ("stamp", "flag", (0, 1, 2)),
    ("|>''", "dia", (0, 1, 2)), ("flag(3)", "|>'", (0, 1)),
    ("box", "flag(3)", (0, 1, 2, 3)), ("|>''", "flag", (0, 1, 2, 3)),
])
def test_exponential_matches_the_filter_at_the_default_cap(a, b, points):
    # The last two are refused with the count of every candidate family.
    scale = TimeScale.of(*points)
    build = exp_operands(scale, UNBOUNDED)
    assert_exp_matches_the_reference(build[a](), build[b]())


def drawn_equation(salt):
    """An equation whose image of position p at (t, t0), by the salt k for
    p, reads the candidate at its own index (k divisible by 3), else at
    the next row's (t', t0) when there is one, else nowhere."""
    def equation(f):
        def image(i, p):
            n, k = len(f.cod.at(i)), salt[p % len(salt)]
            if k % 3 == 0:
                return f.at(i).pos[p]
            if i.r0 > i.r:
                later = f.dom.scale.column(i.r0)[i.r + 1]
                width = len(f.dom.at(later))
                return (k + (f.at(later).pos[p % width] if width else 0)) % n
            return k % n
        return image
    return equation


@given(st.sampled_from([1, 2, 3]).flatmap(lambda n: st.lists(
           st.fractions(-3, 5, max_denominator=3), min_size=n, max_size=n, unique=True)),
       st.one_of(st.none(), st.integers(0, 2)),
       st.sampled_from(OPERANDS), st.sampled_from(OPERANDS),
       st.one_of(st.none(), st.lists(st.integers(0, 5), min_size=1, max_size=3)))
@settings(max_examples=80, deadline=None)
def test_enumeration_matches_the_brute_filter_on_drawn_objects(points, w_at, a, b, salt):
    # Components and order; with an equation, the brute survivors that
    # equal their image.  A low cap keeps the brute filter small.
    scale = TimeScale.of(*sorted(points))
    w = UNBOUNDED if w_at is None else scale.points[w_at % len(points)]
    build = exp_operands(scale, w)
    a, b = build[a](), build[b]()
    equation = None if salt is None else drawn_equation(salt)
    try:
        slow = brute_nat_trans(a, b, 3000)
    except CapExceeded as refused:
        with pytest.raises(CapExceeded) as exc:
            enumerate_nat_trans(a, b, 3000, equation)
        assert str(exc.value) == str(refused)
        return
    if equation is not None:
        slow = [g for g in slow if first_mismatch(g, equation(g)) is None]
    fast = enumerate_nat_trans(a, b, 3000, equation)
    assert [f.components for f in fast] == [g.components for g in slow]


@pytest.mark.parametrize("a", ["unit", "flag", "stamp", "empty"])
def test_a_row_without_candidates_leaves_no_family(a):
    # Stopped by the first point, the space is empty at every later
    # present time, so a nonempty `a` has no map there and no family.
    scale = TimeScale.of(0, 1, 2)
    build = exp_operands(scale, scale.start)
    src, dst = build[a](), build["|>''"]()
    assert not dst.at(scale.pair(1, 2)) and not dst.at(scale.pair(2, 2))
    fast = enumerate_nat_trans(src, dst)
    assert [f.components for f in fast] == [g.components for g in brute_nat_trans(src, dst)]
    assert len(fast) == (1 if a == "empty" else 0)


@pytest.mark.parametrize("points", [(0,), (0, 1), (0, "1/2", 1, 3)])
def test_an_object_is_built_from_its_covers(points):
    # `restrict_at` is asked for the covers alone; every other arrow is
    # the composite of the covers from t0' down to t0, and an identity
    # arrow the identity map.
    scale = TimeScale.of(*points)
    base = ProcSpace(UNBOUNDED, flag_temporal(scale), unit_obj(scale)).obj
    asked = []

    def restrict_at(m):
        asked.append(m)
        return base.restrict_at(m)

    obj = TemporalObj(scale, base.at, restrict_at)
    assert asked == []  # covers are built on first read
    obj.covers
    assert asked == list(scale.covers())
    for m in scale.index_mors():
        if m.t0 == m.t0p:
            assert obj.res(m).table == {e: e for e in obj.at(m.src)}
            continue
        steps = [p for p in scale.points if m.t0 <= p <= m.t0p]
        covers = [base.restrict_at(arrow(scale, m.t, lo, hi))
                  for lo, hi in reversed(list(zip(steps, steps[1:])))]
        for e in obj.at(m.src):
            image = e
            for c in covers:
                image = c(image)
            assert obj.res(m)(e) == image
    assert asked == list(scale.covers())


def test_res_matches_the_eager_reference_on_the_grid():
    for case in law_grid():
        sp = case.space
        for obj in (case.a, case.b, sp.obj, expanded_space(sp).obj,
                    joining_space(sp).obj, pointwise_product([case.a, sp.obj])):
            assert_res_matches_the_reference(obj)


@given(st.lists(st.fractions(-3, 5, max_denominator=3), min_size=1, max_size=4,
                unique=True),
       st.one_of(st.none(), st.integers(0, 3)))
@settings(max_examples=25, deadline=None)
def test_res_matches_the_eager_reference_on_drawn_scales(points, w_at):
    scale = TimeScale.of(*sorted(points))
    w = UNBOUNDED if w_at is None else scale.points[w_at % len(points)]
    stamp = stamp_parity_obj(scale)
    value = ProcSpace(UNBOUNDED, unit_obj(scale), unit_obj(scale)).obj
    for obj in (stamp, flag_temporal(scale), ProcSpace(w, stamp, unit_obj(scale)).obj,
                ProcSpace(w, value, flag_temporal(scale)).obj,
                pointwise_coproduct([stamp, value])):
        assert_res_matches_the_reference(obj)


def test_the_stamp_object_builds_each_carrier_once():
    # Its restrictions read the object's own carriers, so `check_functor`
    # finds their ends identical without comparing elements, and they
    # hold no reference to the object, which dies by reference counting.
    scale = TimeScale.of(0, "1/2", 1, 3)
    obj = stamp_parity_obj(scale)
    for m in scale.covers():
        assert obj.res(m).dom is obj.at(m.src) and obj.res(m).cod is obj.at(m.dst)
    gc.disable()
    try:
        dead = weakref.ref(obj)
        del obj
        assert dead() is None
    finally:
        gc.enable()


def test_a_process_space_object_builds_one_map_per_cover(monkeypatch):
    scale = TimeScale.of(0, "1/2", 1, 3)
    a, b = flag_temporal(scale), stamp_parity_obj(scale)
    a.covers, b.covers  # read first: the space's covers are made from them
    built = []
    init = FinMor.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FinMor, "__init__", counting)
    obj = ProcSpace(UNBOUNDED, a, b).obj
    assert built == []  # covers are built on first read
    covers = obj.covers
    assert len(built) == len(scale.covers()) == 6
    assert list(map(id, built)) == list(map(id, covers.values()))


def test_a_derived_restriction_is_built_once():
    obj = ProcSpace(UNBOUNDED, flag_temporal(SCALE), unit_obj(SCALE)).obj
    for m in SCALE.index_mors():
        assert obj.res(m) is obj.res(m)
    ident, again = t_identity(obj), t_identity(obj)
    for i in SCALE.indices():
        assert ident.at(i) is again.at(i) is obj.res(arrow(SCALE, i.t, i.t0, i.t0))


def test_the_covers_decide_equality():
    base = ProcSpace(UNBOUNDED, flag_temporal(SCALE), unit_obj(SCALE)).obj
    cover = next(m for m in SCALE.covers() if len(set(base.covers[m].pos)) > 1)

    def restrict_at(m):
        f = base.restrict_at(m)
        if m != cover:
            return f
        pos = list(f.pos)
        k = next(k for k, p in enumerate(pos) if p != pos[0])
        pos[0], pos[k] = pos[k], pos[0]
        return FinMor(f.dom, f.cod, pos=pos)

    same = TemporalObj(SCALE, base.at, base.restrict_at)
    other = TemporalObj(SCALE, base.at, restrict_at)
    assert same.carrier == other.carrier and other != base
    # Restrictions derived on read are kept outside equality.
    assert base.restrict and not same._derived and same == base


def test_const_obj_restricts_by_identity():
    obj = const_obj(SMALL, flag_obj(2))
    for m in SMALL.index_mors():
        comp = obj.res(m)
        assert comp.table == {e: e for e in flag_obj(2).elements}


# -- families built on read -------------------------------------------------


def test_separately_built_families_compare_by_their_components():
    # `mor_equal` reads every component, so it also tells apart families
    # that nothing has read yet.
    obj = ProcSpace(UNBOUNDED, flag_temporal(SCALE), unit_obj(SCALE)).obj
    last = [i for i in SCALE.indices() if len(obj.at(i)) > 1][-1]

    def family(swapped=None):
        def component(i):
            pos = list(range(len(obj.at(i))))
            if i is swapped:
                pos[0], pos[1] = pos[1], pos[0]
            return FinMor(obj.at(i), obj.at(i), pos=pos)
        return TemporalMor(obj, obj, component)

    assert mor_equal(family(), family())
    assert mor_equal(family(), t_identity(obj))
    assert not mor_equal(family(), family(last))


def test_a_component_that_cannot_be_built_raises_where_it_is_first_read():
    a = flag_temporal(SMALL, 2)
    *early, late = SMALL.indices()
    mor = TemporalMor(a, a, lambda i: FinMor(a.at(i), a.at(i),
                                             pos=[2, 2] if i is late else [0, 1]))
    for i in early:
        assert mor.at(i).pos == (0, 1)
    with pytest.raises(ValueError, match="outside the codomain"):
        mor.at(late)
    # A cover likewise raises where it is first read.
    obj = TemporalObj(SMALL, a.at, lambda m: FinMor(a.at(m.src), a.at(m.dst), pos=[2, 2]))
    with pytest.raises(ValueError, match="outside the codomain"):
        obj.res(SMALL.covers()[0])


# -- hash-consing -----------------------------------------------------------


def test_pointwise_products_and_coproducts_are_hash_consed():
    a, b = flag_temporal(SMALL, 2), flag_temporal(SMALL, 3)
    for build in (pointwise_product, pointwise_coproduct):
        assert build([a, b]) is build([a, b])
        # Equal but distinct factors are a different key with an equal value.
        assert build([flag_temporal(SMALL, 2), b]) == build([a, b])


def test_interned_pointwise_objects_match_the_definitions():
    # A process space restricts non-trivially, so the restriction maps
    # are compared too, not just identities.
    a = flag_temporal(SMALL, 2)
    b = ProcSpace(UNBOUNDED, unit_obj(SMALL), unit_obj(SMALL)).obj
    prod_at = {i: FinObj(Tup((x, y)) for x in a.at(i) for y in b.at(i))
               for i in SMALL.indices()}
    sum_at = {i: FinObj([Inj(0, x) for x in a.at(i)] + [Inj(1, y) for y in b.at(i)])
              for i in SMALL.indices()}
    direct_prod = TemporalObj(SMALL, prod_at.__getitem__, lambda m: fin_mor(
        prod_at[m.src], prod_at[m.dst],
        lambda e: Tup((a.res(m)(e.items[0]), b.res(m)(e.items[1])))))
    direct_sum = TemporalObj(SMALL, sum_at.__getitem__, lambda m: fin_mor(
        sum_at[m.src], sum_at[m.dst],
        lambda e: Inj(e.tag, (a, b)[e.tag].res(m)(e.value))))
    assert pointwise_product([a, b]) == direct_prod
    assert pointwise_coproduct([a, b]) == direct_sum


def test_an_interned_pointwise_entry_dies_with_its_last_holder():
    a, b = flag_temporal(SMALL, 2), flag_temporal(SMALL, 3)
    key = ("pointwise_coproduct", id(a), id(b))
    s = pointwise_coproduct([a, b])
    assert _INTERNED[key]() is s
    del s
    gc.collect()
    assert key not in _INTERNED


def test_the_harness_leaves_no_interned_entry_behind():
    # A table that kept every case's spaces alive would raise the peak
    # memory of a run; a fresh interpreter starts from an empty table.
    # The grid suites hold a case's spaces only until its last suite ran.
    code = ("import gc; from proccat.finset import _INTERNED; "
            "from proccat.laws import run_suites; run_suites(); "
            "gc.collect(); print(len(_INTERNED), len(gc.garbage))")
    env = {**os.environ, "PYTHONPATH": str(Path(proccat.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert (done.returncode, done.stdout) == (0, "0 0\n"), done.stderr


def test_no_function_takes_a_check_flag():
    # Constructors, operators and solvers build without checking; checks
    # run at the edges, through require_functor and require_natural.
    flagged = []
    for info in pkgutil.iter_modules(proccat.__path__):
        module = importlib.import_module("proccat." + info.name)
        for name, value in vars(module).items():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            members = [(name, value)]
            if inspect.isclass(value):
                members += [(f"{name}.{attr}", getattr(m, "__func__", m))
                            for attr, m in vars(value).items()]
            for qualname, fn in members:
                if (inspect.isfunction(fn)
                        and "check" in inspect.signature(fn).parameters):
                    flagged.append(f"{module.__name__}.{qualname}")
    assert flagged == []


def global_sections(a, b) -> list:
    """Every family of the exponential's (t, end) carriers, one per row:
    a Tup of function tables per row, rows ascending."""
    exp, scale = exponential_end(a, b), a.scale
    ends = scale.column(len(scale.points) - 1)
    return list(iter_product(*(exp.at(i).elements for i in ends)))


def test_the_global_sections_of_the_exponential_are_the_natural_families():
    # b^a's families at (t, end), one row each, multiply out to exactly
    # the natural families a -> b, in the same order.
    checked = 0
    for points in ((0,), (0, 1), (0, 1, 2)):
        scale = TimeScale.of(*points)
        unit, flag = unit_obj(scale), flag_temporal(scale)
        objs = [empty_obj(scale), unit, flag, pointwise_coproduct([unit, flag]),
                stamp_parity_obj(scale), ProcSpace(scale.end, unit, flag).obj]
        for a, b in iter_product(objs, repeat=2):
            try:
                sections = global_sections(a, b)
                families = enumerate_nat_trans(a, b)
            except CapExceeded:
                continue
            rows = [[scale.column(q)[r] for q in range(r, len(points))]
                    for r in range(len(points))]
            assert sections == [
                tuple(Tup(tuple(FnTab(tuple(f.at(i).table.items())) for i in row))
                      for row in rows)
                for f in families]
            checked += 1
    assert checked == 105
