"""The solver steps against element-level references.

`fixpoints.finish_round` reads `operators.join`, and
`RecurProblem._consume` reads `operators.expand`, each at a position
computed from the carrier layout.  The references below decode the
process, rebuild it as a process value and encode it, the way the
solvers took their steps before the layout reached them.  The steps are
checked on every curated problem, with the problem's own solution and
with an arbitrary onward map, and on drawn scales of one to four points;
`join`'s components are checked against the splice reference on the
same target spaces.
"""
from hypothesis import given, settings, strategies as st

from proccat.finset import FinMor, Tup
from proccat.fixpoints import RecurProblem, finish_round
from proccat.laws import coiter_problems, recur_problems, stamp_parity_obj, two_exit_problems
from proccat.operators import join, joining_space
from proccat.process import LiveSpace, Ongoing, ProcSpace, StepSpace, Terminated
from proccat.temporal import (
    TemporalMor,
    empty_obj,
    flag_temporal,
    pointwise_coproduct,
    pointwise_product,
    unit_obj,
)
from proccat.times import TimeScale, UNBOUNDED

from process_values import decode_live, rest_after

# -- element-level references ------------------------------------------------


def ref_splice(sp, t0, v, then):
    """The stopped process ``v`` (horizon ``t0``) continued by ``then``, an
    element of the step space over ``sp`` at ``v``'s stop time."""
    if then.tag == 0:
        return Terminated(v.at_time, v.seen, then.value)
    x, q_elem = then.value.items
    q = sp.decode(sp.scale.pair(v.at_time, t0), q_elem)
    seen = v.seen + ((v.at_time, x),) + q.seen
    if isinstance(q, Terminated):
        return Terminated(q.at_time, seen, q.result)
    return Ongoing(seen)


def ref_finish_round(mixed, target, i, elem, onward):
    """A (value, process) pair of ``mixed`` whose final-or-seed result is
    spliced with ``onward(here, seed)``, an element of the step space
    over ``target`` at the stop."""
    x, v = decode_live(mixed, i, elem)
    if isinstance(v, Terminated):
        r = v.result
        if r.tag == 1:
            r = onward(target.scale.pair(v.at_time, i.t0), r.value)
        v = ref_splice(target.proc, i.t0, v, r)
    return target.encode(i, x, v)


def ref_consume(pr, i, elem, aux):
    """The consumer's output on process ``elem`` once every record is
    paired with ``aux(here, suffix)``, an element of the auxiliary object."""
    v = pr.source.decode(i, elem)
    seen = []
    for u, x in v.seen:
        here = pr.source.scale.pair(u, i.t0)
        suffix = pr.source.encode(here, rest_after(v, u))
        seen.append((u, Tup((x, aux(here, suffix)))))
    if isinstance(v, Terminated):
        fed = Terminated(v.at_time, tuple(seen), v.result)
    else:
        fed = Ongoing(tuple(seen))
    return pr.f.at(i)(pr.paired.encode(i, fed))


# -- agreement ----------------------------------------------------------------


def assert_rounds_match(mixed, target, seeds, onward):
    """finish_round on every element of ``mixed`` equals the reference,
    with ``onward(here, seed position)`` a step-space position there.  A
    seed that stops where the step space is empty has no round, and is
    passed over."""
    step = StepSpace(target.w, target.a, target.b).obj
    joined = join(target.proc)
    checked = 0
    for i in mixed.scale.indices():
        for p, elem in enumerate(mixed.obj.at(i).elements):
            try:
                got = finish_round(mixed, target, joined, i, p, onward)
            except NoStep:
                continue
            want = ref_finish_round(mixed, target, i, elem, lambda here, seed: (
                step.at(here).elements[onward(here, seeds.at(here).index[seed])]))
            assert target.obj.at(i).elements[got] == want, (i, elem)
            checked += 1
    return checked


class NoStep(Exception):
    """An onward map was asked for a step where none exists."""


def arbitrary(objs):
    """A position map into ``objs``' carrier at each index: an onward or
    auxiliary map that is no solution of anything.  NoStep where that
    carrier is empty."""
    def pick(here, s):
        if not len(objs.at(here)):
            raise NoStep(here)
        return (s * 7 + 3) % len(objs.at(here))

    return pick


def assert_splices_match(sp):
    """join's component on every process of the joining space over
    ``sp`` equals the reference: a stopped one spliced with the answer
    or handover it stopped with, a running one as it is."""
    outer, joined = joining_space(sp), join(sp)
    for i in sp.scale.indices():
        for elem in outer.obj.at(i).elements:
            v = outer.decode(i, elem)
            want = ref_splice(sp, i.t0, v, v.result) if isinstance(v, Terminated) else v
            assert joined.at(i)(elem) == sp.encode(i, want), (i, elem)


def assert_consumes_match(pr, aux):
    """_consume on every process of ``pr``'s source equals the
    reference, with ``aux(here, suffix position)`` an auxiliary position."""
    checked = 0
    for i in pr.source.scale.indices():
        for q, elem in enumerate(pr.source.obj.at(i).elements):
            got = pr._consume(i, q, aux)
            want = ref_consume(pr, i, elem, lambda here, suffix: pr.c.at(here).elements[
                aux(here, pr.source.obj.at(here).index[suffix])])
            assert pr.c.at(i).elements[got] == want, (i, elem)
            checked += 1
    return checked


def test_curated_rounds_match_the_reference():
    checked = 0
    for name, pr in coiter_problems():
        sol = pr.solve()
        handover = lambda here, s, pr=pr, sol=sol: len(pr.b.at(here)) + sol.at(here).pos[s]
        step = StepSpace(pr.w, pr.a, pr.b).obj
        for onward in (handover, arbitrary(step)):
            checked += assert_rounds_match(pr.mixed, pr.target, pr.c, onward)
    for name, pr, _ in two_exit_problems(coiter_problems()):
        sol = pr.solve()
        checked += assert_rounds_match(pr.inner, pr.target, pr.c,
                                       lambda here, s, sol=sol: sol.at(here).pos[s])
    assert checked == 278


def test_curated_splices_match_the_reference():
    for name, pr in coiter_problems():
        assert_splices_match(pr.target.proc)
    for name, pr, _ in two_exit_problems(coiter_problems()):
        assert_splices_match(pr.target.proc)


def test_curated_consumes_match_the_reference():
    checked = 0
    for name, pr in recur_problems():
        sol = pr.solve()
        for aux in (lambda here, s, sol=sol: sol.at(here).pos[s], arbitrary(pr.c)):
            checked += assert_consumes_match(pr, aux)
    assert checked == 108


KINDS = {"empty": empty_obj, "unit": unit_obj, "flag": flag_temporal,
         "stamp": stamp_parity_obj}
NONEMPTY = sorted(set(KINDS) - {"empty"})


def relabeling(dom, cod):
    """An arbitrary family of maps dom -> cod, natural or not: a
    consumer for `RecurProblem`, which checks only its endpoints."""
    return TemporalMor(dom, cod, lambda i: FinMor(dom.at(i), cod.at(i), pos=[
        (p * 5 + 1) % len(cod.at(i)) for p in range(len(dom.at(i)))]))


@given(st.lists(st.fractions(-3, 5, max_denominator=3), min_size=1, max_size=4,
                unique=True),
       st.sampled_from(sorted(KINDS)), st.sampled_from(sorted(KINDS)),
       st.sampled_from(NONEMPTY), st.one_of(st.none(), st.integers(0, 3)))
@settings(max_examples=25, deadline=None)
def test_steps_match_the_references_on_drawn_scales(points, a_kind, b_kind, c_kind, w_at):
    scale = TimeScale.of(*sorted(points))
    w = UNBOUNDED if w_at is None else scale.points[w_at % len(points)]
    a, b, c = KINDS[a_kind](scale), KINDS[b_kind](scale), KINDS[c_kind](scale)
    target = LiveSpace(w, a, b)
    assert_rounds_match(LiveSpace(w, a, pointwise_coproduct([b, c])), target, c,
                        arbitrary(StepSpace(w, a, b).obj))
    assert_splices_match(target.proc)
    paired = ProcSpace(w, pointwise_product([a, c]), b).obj
    assert_consumes_match(RecurProblem(w, a, b, c, relabeling(paired, c)), arbitrary(c))
