"""A second formulation of corecursion used to cross-check the solver.

Here the seed map has two exits up front: it may answer immediately, or
hand over a running process whose result is again answer-or-seed.  A
solution assigns to every seed either an immediate answer or a finished
process.  The two formulations determine each other; the translations in
both directions are provided, along with an exhaustive search for
solutions that does not involve the solver at all, so uniqueness can be
established independently.  The search keeps, row by row latest stop
first as in `fixpoints`, the natural families equal to their image.
"""
from __future__ import annotations

from typing import Callable, Optional

from .finset import DEFAULT_CAP
from .fixpoints import CoiterProblem, finish_round, is_solution, search
from .operators import join, join_live
from .process import LiveSpace, live_map
from .temporal import (
    TemporalMor,
    TemporalObj,
    mor_equal,
    pointwise_coproduct,
    t_compose,
    t_copairing,
    t_coproduct_mor,
    t_identity,
    t_inj,
)
from .times import IndexPair, TermBound


class TwoExitProblem:
    """``g`` maps seeds to ``b + (running process with answer-or-seed
    result)``.  Solutions are natural maps from seeds to ``b + (finished
    process)`` satisfying :meth:`is_solution`."""

    def __init__(self, w: TermBound, a: TemporalObj, b: TemporalObj,
                 c: TemporalObj, g: TemporalMor):
        self.w, self.a, self.b, self.c = w, a, b, c
        self.inner = LiveSpace(w, a, pointwise_coproduct([b, c]))
        self.target = LiveSpace(w, a, b)
        self.answers = pointwise_coproduct([b, self.target.obj])
        self.dom, self.cod = c, self.answers
        if g.dom != c:
            raise ValueError("seed map must start from the seed object")
        if g.cod != pointwise_coproduct([b, self.inner.obj]):
            raise ValueError("seed map must have answer and process exits")
        self.g = g
        self.join = join(self.target.proc)

    def graft(self, cand: TemporalMor) -> TemporalMor:
        """Turn a candidate solution into a collapser of running
        processes: map each answer-or-seed result through the candidate,
        then concatenate."""
        res = t_copairing([t_inj([self.b, self.target.obj], 0), cand])
        lifted = live_map(self.inner, LiveSpace(self.w, self.a, self.answers), res=res)
        return t_compose(join_live(self.target), lifted)

    def classify(self, collapse: TemporalMor) -> TemporalMor:
        """Turn a collapser back into a candidate solution: run the seed
        map, collapsing the process exit."""
        return t_compose(
            t_coproduct_mor([t_identity(self.b), collapse]), self.g
        )

    def image(self, cand: TemporalMor) -> Callable:
        """Classifying the candidate's own graft, by position and without
        building the graft: a seed through the seed map, and on the
        process exit each fresh seed at a stop looked up in the candidate.
        A solution is its own image."""

        def image(i: IndexPair, z: int) -> int:
            y, n = self.g.at(i).pos[z], len(self.b.at(i))
            if y < n:
                return y
            return n + finish_round(self.inner, self.target, self.join, i, y - n,
                                    lambda here, seed: cand.at(here).pos[seed])

        return image

    def solve(self) -> TemporalMor:
        """The canonical solution, obtained through the one-exit solver:
        defer every seed through the seed map, iterate, classify.  Not the
        fixpoint of `image`, which would pass `is_solution` by design."""
        inner_obj = self.inner.obj
        res = t_copairing([t_inj([self.b, inner_obj], 0), self.g])
        restart = live_map(
            self.inner,
            LiveSpace(self.w, self.a, pointwise_coproduct([self.b, inner_obj])),
            res=res,
        )
        collapse = CoiterProblem(self.w, self.a, self.b, inner_obj, restart).solve()
        return self.classify(collapse)

    is_solution, search = is_solution, search


def defer_all(w: TermBound, a: TemporalObj, b: TemporalObj, c: TemporalObj,
              f: TemporalMor) -> TwoExitProblem:
    """View a one-exit seed map as a two-exit problem that never answers
    immediately."""
    inner = LiveSpace(w, a, pointwise_coproduct([b, c]))
    g = t_compose(t_inj([b, inner.obj], 1), f)
    return TwoExitProblem(w, a, b, c, g)


def collapse_from_answers(pr: TwoExitProblem, f: TemporalMor,
                          cand: TemporalMor) -> TemporalMor:
    """Given the one-exit seed map ``f`` underlying ``pr`` and a two-exit
    solution, recover the one-exit solution: graft, then run ``f``."""
    return t_compose(pr.graft(cand), f)


def answers_from_collapse(pr: TwoExitProblem, sol: TemporalMor) -> TemporalMor:
    """Recover a two-exit solution from a one-exit one by deferring into
    it: the process exit of every seed is collapsed by ``sol``."""
    return t_compose(t_inj([pr.b, pr.target.obj], 1), sol)


def check_roundtrips(pr: TwoExitProblem, one_exit: Optional[CoiterProblem] = None,
                     cap: int = DEFAULT_CAP) -> Optional[str]:
    """Everything the equivalence of the two formulations promises, on one
    problem: None when it all holds, else a witness naming the first
    broken promise.

    The canonical solution solves the equation, and exhaustive search
    finds it and nothing else.  When the one-exit problem underneath is
    supplied, translating solutions back and forth lands on its solver's
    answer, and that answer is itself unique under exhaustive search."""
    cand = pr.solve()
    if not pr.is_solution(cand):
        return "the solver's answer fails the two-exit equation"
    found = pr.search(cap)
    if len(found) != 1 or not mor_equal(found[0], cand):
        return (f"search finds {len(found)} two-exit solutions, "
                "expected exactly the solver's")
    if one_exit is None:
        return None
    sol = one_exit.solve()
    if not mor_equal(collapse_from_answers(pr, one_exit.f, cand), sol):
        return "collapsing the two-exit solution misses the one-exit solution"
    if not mor_equal(answers_from_collapse(pr, sol), cand):
        return "deferring into the one-exit solution misses the two-exit solution"
    count = len(one_exit.search(cap))
    if count != 1:
        return f"search finds {count} one-exit solutions, expected exactly one"
    return None
