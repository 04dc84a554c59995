"""Solver outputs are pinned against values derived by hand from the
splice rule before the solvers were written, then the defining equations
are checked exactly."""
from fractions import Fraction
from itertools import product as iter_product

import pytest

from proccat.finset import Atom, CapExceeded, DEFAULT_CAP, FinMor, Inj, UNIT_ELEM
from proccat.fixpoints import (
    CoiterProblem,
    RecurProblem,
    coiter_proc,
    coiter_step,
    recur_live,
)
from proccat.laws import (
    _uniqueness_witness,
    coiter_problems,
    pair_variant_problem,
    parity_stop_elem,
    poison,
    proc_variant_problem,
    recur_problems,
    stamp_parity_obj,
    step_variant_problem,
    two_exit_problems,
    uniqueness_problems,
)
from proccat.operators import expand, expanded_space, join_live
from proccat.process import (
    LiveSpace,
    Ongoing,
    ProcSpace,
    live_map,
    proc_map,
)
from proccat.temporal import (
    TemporalMor,
    enumerate_nat_trans,
    first_difference,
    first_mismatch,
    flag_temporal,
    mor_equal,
    nat_trans_space,
    naturality_witness,
    pointwise_coproduct,
    pointwise_product,
    t_compose,
    t_coproduct_mor,
    t_identity,
    t_product_mor,
    unit_obj,
)
from proccat.times import TimeScale, UNBOUNDED
from proccat.twoexit import check_roundtrips, defer_all

from process_values import decode_live, render_value

SCALE = TimeScale.of(0, 1, 2)
I02 = SCALE.pair(0, 2)
COITER = dict(coiter_problems())
RECUR = dict(recur_problems())


def solved_view(pr, name_or_mor, i, z):
    sol = pr.solve() if name_or_mor is None else name_or_mor
    x, v = decode_live(pr.target, i, sol.at(i)(z))
    return x, render_value(v)


def test_finish_next_stops_at_the_following_point():
    pr = COITER["finish_next"]
    x, v = solved_view(pr, None, I02, UNIT_ELEM)
    assert (x, v) == (UNIT_ELEM, "term(1; ; ())")


def test_run_forever_never_stops():
    pr = COITER["run_forever"]
    x, v = solved_view(pr, None, I02, UNIT_ELEM)
    assert (x, v) == (UNIT_ELEM, "ongoing(1 -> (), 2 -> ())")


def test_handoff_splices_the_second_round():
    pr = COITER["handoff_once"]
    assert solved_view(pr, None, I02, Atom("v0"))[1] == "term(1; ; ())"
    assert solved_view(pr, None, I02, Atom("v1"))[1] == "term(2; 1 -> (); ())"


def test_alternation_flips_every_step():
    pr = COITER["alternate_values"]
    sol = pr.solve()
    x, v = decode_live(pr.target, I02, sol.at(I02)(Atom("v0")))
    assert x == Atom("v0")
    assert render_value(v) == "ongoing(1 -> v1, 2 -> v0)"


def test_bounded_replay_reproduces_its_seed():
    pr = COITER["bounded_replay"]
    sol = pr.solve()
    for i in SCALE.indices():
        for p in pr.c.at(i).elements:
            x, v = decode_live(pr.target, i, sol.at(i)(p))
            assert x == UNIT_ELEM
            assert pr.target.proc.encode(i, v) == p


def test_every_curated_solution_satisfies_its_equation():
    for name, pr in list(COITER.items()) + list(RECUR.items()):
        assert pr.equation_gap(pr.solve()) is None, name


def test_every_curated_solver_output_is_natural():
    # The solvers build their results without checking naturality.
    outputs = [(name, pr.solve())
               for name, pr in list(COITER.items()) + list(RECUR.items())]
    for solver, problem in ((coiter_step, step_variant_problem),
                            (coiter_proc, proc_variant_problem),
                            (recur_live, pair_variant_problem)):
        name, *args = problem()
        outputs.append((name, solver(*args)))
    for name, sol in outputs:
        assert naturality_witness(sol) is None, name


def test_a_broken_candidate_fails_the_equation():
    for pr in (COITER["handoff_once"], RECUR["stop_parity"]):
        broken = poison(pr.solve())
        assert pr.equation_gap(broken) is not None
    for name, pr, _ in two_exit_problems(coiter_problems()):
        sol = pr.solve()
        broken = poison(sol)
        if mor_equal(broken, sol):
            # One seed per index leaves poison nothing to swap.
            broken = repoint(sol)
        assert not mor_equal(broken, sol), name
        assert not pr.is_solution(broken), name


def repoint(mor):
    """mor with its first image moved to the next codomain element."""
    i = mor.dom.scale.indices()[0]
    comp = mor.at(i)
    pos = (comp.pos[0] + 1) % len(comp.cod), *comp.pos[1:]
    return TemporalMor(mor.dom, mor.cod,
                       {**mor.components, i: FinMor(comp.dom, comp.cod, pos=pos)}.__getitem__)


def reference_rhs(pr, cand):
    """The right-hand side of a defining equation built as a whole map:
    seeds through the seed map, fresh seeds through the candidate, then
    concatenated; or every record paired with the candidate on its
    suffix, then consumed.  The pointwise checks must agree with it."""
    if isinstance(pr, CoiterProblem):
        answers = LiveSpace(pr.w, pr.a, pointwise_coproduct([pr.b, pr.target.obj]))
        onward = t_coproduct_mor([t_identity(pr.b), cand])
        lifted = live_map(pr.mixed, answers, res=onward)
        return t_compose(join_live(pr.target), t_compose(lifted, pr.f))
    lift = proc_map(expanded_space(pr.source), pr.paired,
                    act=t_product_mor([t_identity(pr.a), cand]))
    return t_compose(pr.f, t_compose(lift, expand(pr.source)))


def curated_equations():
    """Every problem the uniqueness and two-exit suites filter candidates
    through, with its candidate endpoints."""
    out = []
    for name, pr in uniqueness_problems(coiter_problems(), recur_problems()):
        sol = pr.solve()
        out.append((name, pr, (sol.dom, sol.cod)))
    for name, pr, one_exit in two_exit_problems(coiter_problems()):
        if one_exit is not None:
            out.append(("one_exit_" + name, one_exit, (pr.c, one_exit.target.obj)))
    return out


def test_pointwise_equation_gap_agrees_with_the_composite():
    gaps = []
    for name, pr, (dom, cod) in curated_equations():
        for cand in enumerate_nat_trans(dom, cod):
            gap = pr.equation_gap(cand)
            assert gap == first_difference(cand, reference_rhs(pr, cand)), name
            gaps.append(gap)
    # One solution per problem; every other candidate has a witness.
    assert len(gaps) == 593 and gaps.count(None) == 7


def swept_equations():
    """Every equation the uniqueness and two-exit suites search solutions
    of: the four uniqueness problems, the three one-exit problems
    `check_roundtrips` counts, and the four two-exit problems."""
    two_exit = [("two_exit_" + name, pr, (pr.c, pr.answers))
                for name, pr, _ in two_exit_problems(coiter_problems())]
    return curated_equations() + two_exit


def ref_solutions(dom, cod, pr):
    """Enumerate-then-filter: every natural candidate, kept when it is its
    own image."""
    return [x for x in enumerate_nat_trans(dom, cod)
            if first_mismatch(x, pr.image(x)) is None]


def test_the_pruned_sweep_returns_the_filtered_candidates():
    equations = swept_equations()
    assert len(equations) == 11
    for name, pr, (dom, cod) in equations:
        got = enumerate_nat_trans(dom, cod, equation=pr.image)
        want = ref_solutions(dom, cod, pr)
        assert [x.components for x in got] == [x.components for x in want], name
        assert len(got) == 1 and mor_equal(got[0], pr.solve()), name


def test_a_pruned_sweep_keeps_the_plain_order():
    # An equation every candidate meets (reading only the index just
    # fixed) must give back the plain enumeration, in its order.
    for name, pr, (dom, cod) in swept_equations():
        everything = enumerate_nat_trans(
            dom, cod, equation=lambda cand: lambda i, p: cand.at(i).pos[p])
        plain = enumerate_nat_trans(dom, cod)
        assert [x.components for x in everything] == [x.components for x in plain], name


class Recording(dict):
    """Components that remember the indices read from them."""

    def __init__(self, components):
        super().__init__(components)
        self.read = set()

    def __getitem__(self, index):
        self.read.add(index)
        return super().__getitem__(index)


def test_every_equation_reads_only_later_stops():
    # What makes the pruned sweep exact: the image at (t, t0) reads the
    # candidate only at (u, t0) with u > t, which the sweep fixes first.
    reads = 0
    for name, pr, _ in swept_equations():
        sol = pr.solve()
        for i in sol.dom.scale.indices():
            for p in range(len(sol.dom.at(i))):
                components = Recording(sol.components)
                pr.image(TemporalMor(sol.dom, sol.cod, components.__getitem__))(i, p)
                assert all(j.t0 == i.t0 and j.t > i.t for j in components.read), (name, i)
                reads += len(components.read)
    assert reads > 0


def test_a_failed_uniqueness_witness_counts_every_natural_candidate(monkeypatch):
    pr = RECUR["stop_parity"]
    wrong = poison(pr.solve())
    monkeypatch.setattr(pr, "solve", lambda: wrong)
    assert _uniqueness_witness(pr, DEFAULT_CAP) == (
        "1 of 495 natural candidates satisfy the equation, expected exactly "
        "the solver's")
    # The cap bounds the whole candidate space, not the natural candidates.
    with pytest.raises(CapExceeded) as err:
        _uniqueness_witness(pr, 10124)
    assert (err.value.count, err.value.cap) == (10125, 10124)


def test_seed_map_endpoints_are_validated():
    u = unit_obj(SCALE)
    wrong = t_identity(u)
    with pytest.raises(ValueError):
        CoiterProblem(UNBOUNDED, u, u, u, wrong)
    with pytest.raises(ValueError):
        RecurProblem(UNBOUNDED, u, u, u, wrong)


def test_relabeling_consumers_solve_to_the_identity():
    for name in ("strip_labels", "carry_results"):
        pr = RECUR[name]
        assert mor_equal(pr.solve(), t_identity(pr.source.obj))


def test_stop_parity_counts_steps_through_its_own_suffixes():
    pr = RECUR["stop_parity"]
    sol = pr.solve()
    outs = {
        render_value(pr.source.decode(I02, e)): sol.at(I02)(e)
        for e in pr.source.obj.at(I02).elements
    }
    assert outs["term(1; ; ())"] == parity_stop_elem(SCALE, Fraction(0),
                                                     Fraction(1))
    assert outs["term(2; 1 -> (); ())"] == parity_stop_elem(
        SCALE, Fraction(0), Fraction(2)
    )
    assert outs["ongoing(1 -> (), 2 -> ())"] == Inj(0, UNIT_ELEM)


def test_stamp_object_sizes():
    st = stamp_parity_obj(SCALE)
    assert [len(st.at(i)) for i in SCALE.indices()] == [1, 3, 5, 1, 3, 1]


def test_step_variant_answers_or_defers():
    name, w, a, b, c, f = step_variant_problem()
    sol = coiter_step(w, a, b, c, f)
    assert sol.at(I02)(Atom("v0")) == Inj(0, UNIT_ELEM)
    out = sol.at(I02)(Atom("v1"))
    assert out.tag == 1
    lv = LiveSpace(w, a, b)
    x, v = decode_live(lv, I02, out.value)
    assert (x, render_value(v)) == (UNIT_ELEM, "term(1; ; ())")


def test_proc_variant_agrees_with_the_paired_solver():
    name, w, a, b, c, f = proc_variant_problem()
    sol = coiter_proc(w, a, b, c, f)
    plain = ProcSpace(w, a, b)
    v0 = plain.decode(I02, sol.at(I02)(Atom("v0")))
    v1 = plain.decode(I02, sol.at(I02)(Atom("v1")))
    assert render_value(v0) == "term(1; ; ())"
    assert render_value(v1) == "term(2; 1 -> (); ())"


def test_pair_variant_reads_off_stop_stamps():
    name, w, a, b, c, f = pair_variant_problem()
    sol = recur_live(w, a, b, c, f)
    cbase = ProcSpace(w, c, b)
    src_obj = sol.dom
    for e in src_obj.at(I02).elements:
        q = cbase.decode(I02, e.items[1])
        out = sol.at(I02)(e)
        if isinstance(q, Ongoing):
            assert out == Inj(0, UNIT_ELEM)
        else:
            assert out == parity_stop_elem(SCALE, Fraction(0), q.at_time)


# -- every seed: the paper's claim beyond the curated cases ------------------

# Every scale of one to three points orders its points as one of these
# does, and the unit and flag families depend only on that order.
SMALL_SCALES = (TimeScale.of(0), TimeScale.of(0, 1), SCALE)


def bounds(scale):
    """The bounds at the first and last points, and none: each once."""
    return tuple(dict.fromkeys((scale.start, scale.end, UNBOUNDED)))


def every_coiter_seed(scale=SCALE):
    """(w, a, b, c, seed) for every natural seed map over the value, final
    and seed objects (u, u, u), (u, u, f) and (u, f, u), under each bound."""
    u, f = unit_obj(scale), flag_temporal(scale)
    for a, b, c in ((u, u, u), (u, u, f), (u, f, u)):
        for w in bounds(scale):
            mixed = LiveSpace(w, a, pointwise_coproduct([b, c]))
            for seed in enumerate_nat_trans(c, mixed.obj):
                yield w, a, b, c, seed


def assert_unique_and_solved(pr) -> bool:
    """The search finds exactly the solver's answer, and a poisoned answer
    fails the equation unless poison leaves it as it is; whether it was
    changed."""
    sol = pr.solve()
    found = pr.search()
    assert len(found) == 1 and mor_equal(found[0], sol)
    broken = poison(sol)
    changed = not mor_equal(broken, sol)
    assert (pr.equation_gap(broken) is not None) == changed
    return changed


def test_every_coiter_seed_has_exactly_the_solvers_solution():
    """On finite(0,1,2) 15, 784 and 28 seeds, all unbounded; the scales
    of one and two points add 26 seeds and about 0.02 s to tier-1."""
    counts = []
    for scale in SMALL_SCALES:
        seeds = list(every_coiter_seed(scale))
        changed = sum(assert_unique_and_solved(CoiterProblem(*s)) for s in seeds)
        counts.append((len(seeds), changed))  # the rest are constant at every index
    assert counts == [(3, 0), (23, 6), (827, 522)]


def test_every_small_recur_consumer_has_exactly_the_solvers_solution():
    """Every unit/flag choice of (a, b, c) and bound whose consumers and
    solutions both fit under the cap; the scales of one and two points
    add 60 consumers and about 0.03 s to tier-1."""
    counts = []
    for scale in SMALL_SCALES:
        u, f = unit_obj(scale), flag_temporal(scale)
        consumers = []
        for a, b, c in iter_product((u, f), repeat=3):
            for w in bounds(scale):
                paired = ProcSpace(w, pointwise_product([a, c]), b)
                spaces = (nat_trans_space(paired.obj, c),
                          nat_trans_space(ProcSpace(w, a, b).obj, c))
                if max(spaces) <= DEFAULT_CAP:
                    consumers += [(w, a, b, c, g)
                                  for g in enumerate_nat_trans(paired.obj, c)]
        counts.append(len(consumers))
        for g in consumers:
            # Every solution here is constant at each index, so poison has
            # nothing to swap: a natural map into a constant object factors
            # through the carrier at (t, t), which holds at most one process.
            assert not assert_unique_and_solved(RecurProblem(*g))
    assert counts == [20, 40, 36]



# The stamp object's restrictions drop stamps beyond the new horizon, so
# they are not identities: solutions into it need not be constant, and
# the solvers' non-identity restriction arrows get exercised.
STAMP_SCALES = (TimeScale.of(0, 1), SCALE)


def test_every_stamp_recur_consumer_has_exactly_the_solvers_solution():
    """c is the stamp object, a and b unit or flag, under each bound: on
    two points 172 consumers, 144 of them with a solution that is not
    constant; on three points 439 and 348, with the cap refusing 7 of
    the 12 (a, b, w) choices.  About 0.6 s of tier-1 together."""
    counts = []
    for scale in STAMP_SCALES:
        u, f, s = unit_obj(scale), flag_temporal(scale), stamp_parity_obj(scale)
        consumers, refused = [], 0
        for a, b in iter_product((u, f), repeat=2):
            for w in bounds(scale):
                paired = ProcSpace(w, pointwise_product([a, s]), b)
                spaces = (nat_trans_space(paired.obj, s),
                          nat_trans_space(ProcSpace(w, a, b).obj, s))
                if max(spaces) > DEFAULT_CAP:
                    refused += 1
                    continue
                consumers += [(w, a, b, s, g) for g in enumerate_nat_trans(paired.obj, s)]
        changed = sum(assert_unique_and_solved(RecurProblem(*g)) for g in consumers)
        counts.append((len(consumers), changed, refused))
    assert counts == [(172, 144, 0), (439, 348, 7)]


def test_every_stamp_coiter_seed_has_exactly_the_solvers_solution():
    """On two points, with the stamp object as the final or seed object:
    (a, b, c) = (u, u, s), (u, s, u), (u, s, s) and (u, f, s) give 27, 3,
    27 and 64 seeds over the three bounds, 90 of them with a solution
    that is not constant."""
    scale = STAMP_SCALES[0]
    u, f, s = unit_obj(scale), flag_temporal(scale), stamp_parity_obj(scale)
    counts = []
    for a, b, c in ((u, u, s), (u, s, u), (u, s, s), (u, f, s)):
        seeds = [(w, a, b, c, seed) for w in bounds(scale)
                 for seed in enumerate_nat_trans(
                     c, LiveSpace(w, a, pointwise_coproduct([b, c])).obj)]
        changed = sum(assert_unique_and_solved(CoiterProblem(*x)) for x in seeds)
        counts.append((len(seeds), changed))
    assert counts == [(27, 18), (3, 0), (27, 18), (64, 54)]

def test_two_exit_roundtrips_hold_on_sampled_seeds():
    # Every fifth seed, which keeps this under a second; all 827 take
    # about 2 s on a 2-core machine.
    sampled = list(every_coiter_seed())[::5]
    assert len(sampled) == 166
    for w, a, b, c, seed in sampled:
        one_exit = CoiterProblem(w, a, b, c, seed)
        assert check_roundtrips(defer_all(w, a, b, c, seed), one_exit) is None
