import ast
import gc
import json
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import proccat
from proccat import fixpoints, laws, operators, twoexit
from proccat.laws import (
    Case,
    Diagram,
    GRID_SUITES,
    LawReport,
    MUTATIONS,
    SUITES,
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
    unit_obj,
)
from proccat.times import TimeScale
from proccat.finset import Atom, FinMor, FinObj, fin_mor, flag_obj, product
from proccat.process import ProcSpace

SCALE = TimeScale.of(0, 1)
# Every report of a full run under each mutation, saved before the grid
# suites ran case by case.
GOLDEN_MUTATIONS = Path(__file__).parent / "fixtures" / "golden_mutations.jsonl"


def test_grid_shape():
    grid = tuple(law_grid())
    # one-point scales collapse the max bound onto the min bound
    assert len(grid) == 9 * 2 + 9 * 3 + 9 * 3
    assert len(set(c.label for c in grid)) == len(grid)
    assert grid[0].label == "scale=0 a=empty b=empty w=min"


def test_build_case_resolves_bounds():
    label = "scale=0-1-2 a=flag b=unit w=max"
    case = next(c for c in law_grid() if c.label == label)
    scale = case.a.scale
    assert scale == TimeScale.of(0, 1, 2)
    assert case.w == scale.end
    assert len(case.a.at(scale.indices()[0])) == 2
    assert len(case.b.at(scale.indices()[0])) == 1


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
    with pytest.raises(ValueError, match="^mutation joining targets a suite that is not selected$"):
        run_suites(["functor"], mutate="joining")
    with pytest.raises(ValueError, match="^unknown mutation 'sabotage'; choose from expansion, "):
        run_suites(["joining"], mutate="sabotage")
    with pytest.raises(ValueError, match="^unknown suites: made_up, nope$"):
        run_suites(["nope", "functor", "made_up"])


def test_poison_swaps_two_images():
    a = flag_temporal(SCALE, 2)
    ident = t_identity(a)
    broken = poison(ident)
    assert first_difference(ident, broken) is not None
    assert broken.dom == ident.dom and broken.cod == ident.cod


def test_poison_leaves_constant_maps_alone():
    a = flag_temporal(SCALE, 2)
    const = TemporalMor(
        a, a,
        lambda i: fin_mor(a.at(i), a.at(i), lambda e: Atom("v0")),
    )
    assert mor_equal(poison(const), const)


def test_poison_of_an_unread_family_swaps_what_it_swaps_on_a_read_one():
    # Poisoning reads components up to the first non-constant one; the
    # poisoned family must still have every other component.
    case = next(c for c in law_grid() if c.label == "scale=0-1-2 a=flag b=flag w=inf")
    shared = operators.expand(case.space)
    unread, read = (TemporalMor(shared.dom, shared.cod, shared.component_at)
                    for _ in range(2))
    read.components
    poisoned = poison(unread).components
    assert poisoned == poison(read).components
    changed = [i for i in poisoned if poisoned[i] != shared.at(i)]
    assert len(changed) == 1 and changed[0] != case.a.scale.indices()[0]


def test_a_checked_diagram_builds_only_the_components_its_paths_read(monkeypatch):
    # dup_inside reads its value map at (u, t0) for the recorded points
    # u > t alone, so nothing reads that map at the first point.
    case = next(c for c in law_grid() if c.label == "scale=0-1-2 a=flag b=flag w=inf")
    acts = []

    def expand_live(sp):
        acts.append(operators.expand_live(sp))
        return acts[-1]

    built = []
    init = FinMor.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(laws, "expand_live", expand_live)
    monkeypatch.setattr(FinMor, "__init__", counting)
    assert [r.verdict for r in SUITES["expansion"](case=case)] == ["pass"]
    monkeypatch.undo()
    [act] = acts
    read = {i for i in case.a.scale.indices() if any(act.at(i) is f for f in built)}
    assert read == {i for i in case.a.scale.indices() if i.t != 0}


def test_diagram_rejects_mismatched_edges():
    a, b = unit_obj(SCALE), flag_temporal(SCALE, 2)
    to_b = TemporalMor(a, b, lambda i: fin_mor(a.at(i), b.at(i), lambda e: Atom("v0")))
    edges = {"a": t_identity(a), "b": t_identity(b), "to_b": to_b}
    for pair in [(("a", "b"), ("a",)),        # b does not start where a ends
                 (("a",), ("to_b",)),         # the sides end apart
                 (("b",), ("a",)),            # the sides start apart
                 (("to_b",), ())]:            # an identity against a -> b
        with pytest.raises(ValueError):
            Diagram(edges=edges, paths=[pair])


def test_diagram_rejects_broken_paths():
    a = unit_obj(SCALE)
    edges = {"e": t_identity(a)}
    with pytest.raises(ValueError):
        Diagram(edges=edges, paths=[(("e", "missing"), ())])


def test_check_diagram_reports_a_witness():
    a = flag_temporal(SCALE, 2)
    flip = TemporalMor(
        a, a,
        lambda i: fin_mor(a.at(i), a.at(i),
                          lambda e: Atom("v1") if e == Atom("v0")
                          else Atom("v0")),
    )
    d = Diagram(edges={"flip": flip}, paths=[(("flip",), ())])
    witness = check_diagram(d)
    assert "flip" in witness and "identity" in witness


def test_only_report_makes_a_law_report():
    # One verdict rule: every LawReport in the package comes from
    # `laws._report`, which alone turns CapExceeded into a `cap` verdict.
    makers, handlers = [], []
    for path in sorted(Path(proccat.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            where = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "LawReport"):
                    makers.append(where)
                if (path.stem == "laws" and isinstance(node, ast.ExceptHandler)
                        and "CapExceeded" in ast.unparse(node.type)):
                    handlers.append(where)
    assert makers == ["laws._report"]
    assert handlers == ["laws._report"]


def test_law_report_has_no_timing_jitter(full_reports):
    assert all(r.millis == 0 for r in full_reports)
    assert all(isinstance(r, LawReport) for r in full_reports)


@pytest.mark.parametrize("suite", ["uniqueness", "two_exit"])
def test_uniqueness_caps_are_reported_not_raised(suite):
    reports = run_suites([suite], cap=1)
    assert len(reports) == 4
    assert all(r.verdict == "cap" for r in reports)
    assert all(r.witness for r in reports)


def _cyclic_garbage(names) -> list:
    """The maps and objects a run of the named suites leaves for the
    cyclic collector."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run_suites(names)
        gc.collect()
        return [type(o).__name__ for o in gc.garbage
                if isinstance(o, (TemporalMor, FinMor, FinObj))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def test_the_solver_suites_leave_no_cyclic_garbage():
    # Maps and objects a solver or search held must die with the call
    # (by reference counting), not wait for the cyclic collector.
    assert _cyclic_garbage(
        ["corecursion", "derived", "recursion", "two_exit", "uniqueness"]) == []


def test_the_grid_suites_leave_no_cyclic_garbage():
    # An interned operator map pins its space; a cycle through it would
    # keep a whole case alive after the case is dropped.
    assert _cyclic_garbage([*GRID_SUITES, "nonstop"]) == []


def test_a_broken_split_fails_merging_with_a_witness(monkeypatch):
    # split and zip share no code, so the merging law must catch a broken
    # split on its own.
    checked = laws._checked
    monkeypatch.setattr(laws, "_checked",
                        lambda case, d, poisoned: checked(case, d, "split"))
    failed = [r for case in law_grid() for r in SUITES["merging"](case=case)
              if r.verdict == "fail"]
    assert failed
    assert all(" maps to " in r.witness for r in failed)


@pytest.mark.parametrize("mutation", MUTATIONS)
def test_mutated_full_runs_match_the_golden_reports(mutation):
    # A poisoned morphism must break only its own suite, with the same
    # witness, however the suites share a case's spaces.
    golden = [json.loads(line) for line in
              GOLDEN_MUTATIONS.read_text(encoding="utf-8").splitlines()]
    want = [g for g in golden if g["mutate"] == mutation]
    got = [{"mutate": mutation, "suite": r.suite, "instance": r.instance,
            "verdict": r.verdict, "witness": r.witness, "millis": r.millis}
           for r in run_suites(None, mutate=mutation)]
    assert got == want


@lru_cache(maxsize=None)
def _run_alone(name, mutated):
    return tuple(run_suites([name], mutate=name if mutated else None))


@given(st.data())
@settings(max_examples=6, deadline=None)
def test_a_run_is_the_union_of_its_suites_run_alone(data):
    names = data.draw(st.sets(st.sampled_from(sorted(SUITES)), min_size=1))
    mutate = data.draw(st.sampled_from(
        [None, *sorted(n for n in names if n in MUTATIONS)]))
    union = sorted((r for n in names for r in _run_alone(n, n == mutate)),
                   key=lambda r: (r.suite, r.instance))
    assert run_suites(names, mutate=mutate) == union


def test_the_suites_on_a_case_build_each_space_once(monkeypatch):
    # With every space it builds kept alive by the test, a case's suites
    # build each distinct (w, a, b) once.  What the case itself holds
    # must give the same count; a space dropped between two suites would
    # be built again.
    built = {"n": 0, "keep": None}
    build = ProcSpace._build

    def counted(self):
        obj = build(self)
        built["n"] += 1
        if built["keep"] is not None:
            built["keep"].append(obj)
        return obj

    monkeypatch.setattr(ProcSpace, "_build", counted)
    for case in law_grid():
        counts = []
        for keep in (True, False):
            built["keep"], start = [] if keep else None, built["n"]
            shared = Case(case.label, case.a, case.b, case.w)
            for name in GRID_SUITES:
                SUITES[name](case=shared)
            counts.append(built["n"] - start)
        assert counts[0] > 0 and counts[1] == counts[0], case.label


SOLVER_SUITES = ["corecursion", "derived", "recursion", "two_exit", "uniqueness"]


def test_a_run_builds_and_solves_each_curated_problem_once(monkeypatch):
    # The solver suites share one run's problems: each family is built
    # once, and each problem, curated or built by a derived solver, is
    # solved once, however many suites check it.
    calls = {}

    def counted(name, fn):
        def wrapper(*args):
            calls.setdefault(name, []).append(args)
            return fn(*args)
        return wrapper

    for name in ("coiter_problems", "recur_problems", "two_exit_problems",
                 "uniqueness_problems"):
        monkeypatch.setattr(laws, name, counted(name, getattr(laws, name)))
    monkeypatch.setattr(fixpoints, "fixpoint", counted("fixpoint", fixpoints.fixpoint))
    for module, name in ((fixpoints, "join"), (twoexit, "join"), (fixpoints, "expand")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    reports = run_suites(SOLVER_SUITES)
    # Each problem holds the operator map its image reads, asked for once
    # when it is built, never per element: a join for each of the 11
    # one-exit and 4 two-exit problems, an expand for each of the 6
    # consumer problems.
    assert {name: len(args) for name, args in calls.items()} == {
        "coiter_problems": 1, "recur_problems": 1, "two_exit_problems": 1,
        "uniqueness_problems": 1, "fixpoint": 17, "join": 15, "expand": 6}
    # 5 seed maps, 5 consumers, 4 two-exit problems, 3 derived solvers;
    # the tuples keep every problem alive, so their ids are distinct.
    solved = {id(image.__self__) for _, _, image in calls["fixpoint"]}
    assert len(solved) == 17
    # Called on its own, a suite builds its own problems and says the same.
    alone = sorted(laws.suite_corecursion(), key=lambda r: r.instance)
    assert alone == [r for r in reports if r.suite == "corecursion"]
    assert len(calls["coiter_problems"]) == 2


def test_a_grid_run_builds_no_product_or_coproduct_elements(monkeypatch):
    # The grid suites check positions only, so the structured carriers of
    # a passing run never build their elements.
    built = []
    elements = FinObj.__dict__["elements"]
    build = elements.func

    def counting(obj):
        built.append(obj.kind)
        return build(obj)

    monkeypatch.setattr(elements, "func", counting)
    reports = run_suites(GRID_SUITES)
    assert {r.verdict for r in reports} == {"pass"}
    assert built == []
    assert len(reports) == 507
    # The counter sees a build: reading a fresh product's elements.
    assert len(product([flag_obj(2), flag_obj(3)]).elements) == 6 and built == ["product"]


def test_the_grid_suites_run_on_a_rebound_grid(monkeypatch):
    monkeypatch.setattr(laws, "GRID_SCALES", ((0, 1, 2, 3),))
    reports = run_suites(["functor", "naturality"])
    assert len(reports) == 27 + 2 * 27
    assert {r.verdict for r in reports} == {"pass"}
    assert all(r.instance.startswith("scale=0-1-2-3 ") for r in reports)


def test_the_grid_suites_pass_where_restrictions_are_not_identities(monkeypatch):
    # Every carrier kind of the standard grid is constant, so all of its
    # restrictions are identities and a wrongly derived cover could pass.
    monkeypatch.setattr(laws, "GRID_SCALES", ((0, 1, 2, 3),))
    monkeypatch.setattr(laws, "CARRIER_KINDS", (*laws.CARRIER_KINDS, "stamp"))
    monkeypatch.setattr(laws, "_MAKERS", {**laws._MAKERS, "stamp": laws.stamp_parity_obj})
    stamp = laws.stamp_parity_obj(TimeScale.of(0, 1, 2, 3))
    assert any(len(set(c.pos)) < len(c.pos) for c in stamp.covers.values())
    reports = run_suites(GRID_SUITES)
    # 48 cases; naturality checks two operators, merging three extra pairs.
    assert len(reports) == 7 * 48 + 3
    assert {r.verdict for r in reports} == {"pass"}
