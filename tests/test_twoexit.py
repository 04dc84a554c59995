from fractions import Fraction

import pytest

from proccat.finset import Atom, CapExceeded, Inj, UNIT_ELEM
from proccat.fixpoints import CoiterProblem
from proccat.laws import V0, _natural, _stop_next, coiter_problems, two_exit_problems
from proccat.process import LiveSpace
from proccat.temporal import (
    empty_obj,
    enumerate_nat_trans,
    flag_temporal,
    mor_equal,
    naturality_witness,
    pointwise_coproduct,
    unit_obj,
)
from proccat.times import IndexPair, TimeScale, UNBOUNDED
from proccat.twoexit import (
    TwoExitProblem,
    answers_from_collapse,
    check_roundtrips,
    collapse_from_answers,
    defer_all,
)

from process_values import decode_live

SCALE = TimeScale.of(0, 1, 2)
I02 = IndexPair(Fraction(0), Fraction(2))
PROBLEMS = {name: (pr, one_exit) for name, pr, one_exit in two_exit_problems(coiter_problems())}


def test_solutions_satisfy_the_two_exit_equation():
    for name, (pr, _) in PROBLEMS.items():
        assert pr.is_solution(pr.solve()), name


def test_every_two_exit_solution_is_natural():
    # The solver builds its result without checking naturality.
    for name, (pr, _) in PROBLEMS.items():
        assert naturality_witness(pr.solve()) is None, name


def test_search_finds_exactly_the_solver_output():
    pr, _ = PROBLEMS["early_or_wait"]
    found = pr.search()
    assert len(found) == 1
    assert mor_equal(found[0], pr.solve())


def test_early_exit_answers_immediately():
    pr, _ = PROBLEMS["early_or_wait"]
    sol = pr.solve()
    assert sol.at(I02)(Atom("v0")) == Inj(0, UNIT_ELEM)
    out = sol.at(I02)(Atom("v1"))
    assert out.tag == 1
    x, v = decode_live(pr.target, I02, out.value)
    assert x == UNIT_ELEM and v.at_time == Fraction(1)


def test_deferred_problems_translate_both_ways():
    for name in ("defer_finish_next", "defer_run_forever",
                 "defer_handoff_once"):
        pr, one_exit = PROBLEMS[name]
        inner = CoiterProblem(pr.w, pr.a, pr.b, pr.c, one_exit.f)
        one_sol = inner.solve()
        two_sol = pr.solve()
        # the two-exit answer is the one-exit answer, marked as deferred
        assert mor_equal(two_sol, answers_from_collapse(pr, one_sol))
        assert mor_equal(collapse_from_answers(pr, one_exit.f, two_sol),
                         one_sol)
        assert mor_equal(one_exit.solve(), one_sol)


def test_roundtrip_report_is_green_for_the_curated_set():
    for name, (pr, one_exit) in PROBLEMS.items():
        assert check_roundtrips(pr, one_exit) is None, name


def test_pointwise_check_agrees_with_the_graft():
    verdicts = []
    for name, (pr, _) in PROBLEMS.items():
        for cand in enumerate_nat_trans(pr.c, pr.answers):
            verdict = pr.is_solution(cand)
            assert verdict == mor_equal(cand, pr.classify(pr.graft(cand))), name
            verdicts.append(verdict)
    assert len(verdicts) == 1200 and sum(verdicts) == 4


def test_the_image_goes_through_a_round_at_the_first_process_position():
    # With no answers, position n == 0 of the seed map's exit is the first
    # process: stop at the next point with the seed.  The image must run
    # that round through the candidate, as the graft does element by
    # element, not read the position as an immediate answer.
    u, f, e = unit_obj(SCALE), flag_temporal(SCALE), empty_obj(SCALE)
    mixed = LiveSpace(UNBOUNDED, f, pointwise_coproduct([e, u]))
    seed = _natural(u, mixed.obj, lambda i, z: mixed.encode(
        i, V0, _stop_next(SCALE, i, Inj(1, UNIT_ELEM))))
    pr = defer_all(UNBOUNDED, f, e, u, seed)
    seeds = [(i, z) for i in SCALE.indices() for z in range(len(pr.c.at(i)))]
    assert [pr.g.at(i).pos[z] for i, z in seeds] == [0] * 6
    cands = enumerate_nat_trans(pr.c, pr.answers)
    assert len(cands) == 64
    for cand in cands:
        image, graft = pr.image(cand), pr.classify(pr.graft(cand))
        assert [image(i, z) for i, z in seeds] == [graft.at(i).pos[z] for i, z in seeds]


def test_search_builds_no_graft(monkeypatch):
    def refuse(self, cand):
        raise AssertionError("search grafted a candidate")

    monkeypatch.setattr(TwoExitProblem, "graft", refuse)
    for name, (pr, _) in PROBLEMS.items():
        assert len(pr.search()) == 1, name


def test_search_respects_the_cap():
    pr, _ = PROBLEMS["defer_handoff_once"]
    with pytest.raises(CapExceeded):
        pr.search(cap=2)


def test_defer_all_marks_every_seed_as_deferred():
    named = dict(coiter_problems())
    inner = named["finish_next"]
    pr = defer_all(inner.w, inner.a, inner.b, inner.c, inner.f)
    for i in SCALE.indices():
        for z in pr.c.at(i).elements:
            assert pr.g.at(i)(z).tag == 1


def test_a_roundtrip_witness_names_the_first_broken_promise(monkeypatch):
    pr, one_exit = PROBLEMS["defer_finish_next"]
    other = PROBLEMS["defer_run_forever"][1]
    assert other.f.dom == one_exit.f.dom and other.f.cod == one_exit.f.cod
    assert check_roundtrips(pr, other) == (
        "collapsing the two-exit solution misses the one-exit solution")
    wrong = next(c for c in enumerate_nat_trans(pr.c, pr.answers)
                 if not pr.is_solution(c))
    monkeypatch.setattr(TwoExitProblem, "solve", lambda self: wrong)
    assert check_roundtrips(pr, one_exit) == (
        "the solver's answer fails the two-exit equation")
    # An image every candidate meets: the search keeps all 24 natural maps.
    monkeypatch.setattr(TwoExitProblem, "image",
                        lambda self, cand: lambda i, p: cand.at(i).pos[p])
    assert check_roundtrips(pr, one_exit) == (
        "search finds 24 two-exit solutions, expected exactly the solver's")
