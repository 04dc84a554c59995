import gc
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
import weakref
from itertools import product as iter_product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import proccat
from proccat.finset import (
    Atom, CapExceeded, DEFAULT_CAP, FinMor, FinObj, Inj, Tup, _INTERNED, compose,
    enumerate_mors, fin_mor, flag_obj, identity,
)
from proccat.laws import law_grid, poison, stamp_parity_obj
from proccat.operators import expanded_space, joining_space
from proccat.process import ProcSpace
from proccat.temporal import (
    TemporalMor,
    TemporalObj,
    check_functor,
    const_obj,
    empty_obj,
    enumerate_nat_trans,
    exponential_end,
    first_difference,
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
    t_identity,
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


def test_exponential_collects_compatible_families():
    # maps 1 -> Flag pick one flag per observation level, coherently
    e = exponential_end(unit_obj(SMALL), flag_temporal(SMALL, 2))
    assert check_functor(e) is None
    i = SMALL.pair(SMALL.points[0], SMALL.points[1])
    # at (0,1) a family fixes images at (0,0) and (0,1); restriction of a
    # constant object forces them equal, so exactly two families remain
    assert len(e.at(i)) == 2


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
