import gc

import pytest

from proccat.laws import (
    Diagram,
    GridCase,
    LawReport,
    MUTATIONS,
    PathEq,
    SUITES,
    build_case,
    check_diagram,
    law_grid,
    poison,
    run_suites,
)
from proccat.temporal import (
    TemporalMor,
    first_difference,
    flag_temporal,
    mor_equal,
    t_identity,
    temporal_mor,
    unit_obj,
)
from proccat.times import TimeScale
from proccat.finset import Atom, FinMor, FinObj, fin_mor

SCALE = TimeScale.of(0, 1)


def test_grid_shape():
    grid = law_grid()
    # one-point scales collapse the max bound onto the min bound
    assert len(grid) == 9 * 2 + 9 * 3 + 9 * 3
    assert len(set(c.label for c in grid)) == len(grid)


def test_build_case_resolves_bounds():
    case = GridCase((0, 1, 2), "flag", "unit", "max")
    scale, a, b, w = build_case(case)
    assert scale == TimeScale.of(0, 1, 2)
    assert w.time == scale.end
    assert len(a.at(scale.indices()[0])) == 2
    assert len(b.at(scale.indices()[0])) == 1


def test_every_suite_passes_clean(full_reports):
    bad = [r for r in full_reports if r.verdict != "pass"]
    assert bad == []
    assert len(full_reports) == 531
    assert set(r.suite for r in full_reports) == set(SUITES)


def test_reports_are_sorted_and_reproducible(full_reports):
    key = [(r.suite, r.instance) for r in full_reports]
    assert key == sorted(key)
    again = run_suites(["corecursion", "nonstop"])
    assert again == run_suites(["nonstop", "corecursion"])


def test_every_mutation_is_detected():
    for m in MUTATIONS:
        reports = run_suites([m], mutate=m)
        failures = [r for r in reports if r.verdict == "fail"]
        assert failures, m
        assert all(r.witness for r in failures), m


def test_mutation_must_target_a_selected_suite():
    with pytest.raises(ValueError):
        run_suites(["functor"], mutate="joining")
    with pytest.raises(ValueError):
        run_suites(["joining"], mutate="sabotage")
    with pytest.raises(ValueError):
        run_suites(["made_up_suite"])


def test_poison_swaps_two_images():
    a = flag_temporal(SCALE, 2)
    ident = t_identity(a)
    broken = poison(ident)
    assert first_difference(ident, broken) is not None
    assert broken.dom == ident.dom and broken.cod == ident.cod


def test_poison_leaves_constant_maps_alone():
    a = flag_temporal(SCALE, 2)
    const = temporal_mor(
        a, a,
        lambda i: fin_mor(a.at(i), a.at(i), lambda e: Atom("v0")),
    )
    assert mor_equal(poison(const), const)


def test_diagram_rejects_mismatched_edges():
    a, b = unit_obj(SCALE), flag_temporal(SCALE, 2)
    with pytest.raises(ValueError):
        Diagram(nodes={"x": a, "y": b},
                edges={"e": ("x", "y", t_identity(a))}, paths=[])


def test_diagram_rejects_broken_paths():
    a = unit_obj(SCALE)
    edges = {"e": ("x", "x", t_identity(a))}
    with pytest.raises(ValueError):
        Diagram(nodes={"x": a}, edges=edges,
                paths=[PathEq("x", "x", ("e", "missing"), ())])


def test_check_diagram_reports_a_witness():
    a = flag_temporal(SCALE, 2)
    flip = temporal_mor(
        a, a,
        lambda i: fin_mor(a.at(i), a.at(i),
                          lambda e: Atom("v1") if e == Atom("v0")
                          else Atom("v0")),
    )
    d = Diagram(nodes={"x": a},
                edges={"flip": ("x", "x", flip)},
                paths=[PathEq("x", "x", ("flip",), ())])
    rep = check_diagram(d, "demo", "flip-vs-id")
    assert rep.verdict == "fail"
    assert "flip" in rep.witness and "identity" in rep.witness


def test_law_report_has_no_timing_jitter(full_reports):
    assert all(r.millis == 0 for r in full_reports)
    assert all(isinstance(r, LawReport) for r in full_reports)


def test_uniqueness_caps_are_reported_not_raised():
    reports = run_suites(["uniqueness"], cap=1)
    assert all(r.verdict == "cap" for r in reports)
    assert all(r.witness for r in reports)


def test_the_solver_suites_leave_no_cyclic_garbage():
    # Maps and objects a solver or search held must die with the call
    # (by reference counting), not wait for the cyclic collector.
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run_suites(["corecursion", "derived", "recursion", "two_exit", "uniqueness"])
        gc.collect()
        left = [type(o).__name__ for o in gc.garbage
                if isinstance(o, (TemporalMor, FinMor, FinObj))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert left == []
