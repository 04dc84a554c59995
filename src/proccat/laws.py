"""Exhaustive verification of the structural laws at desk scale.

Every law here is decided by composing finite maps and comparing them
element by element over every index of a small time scale, so a passing
suite is a finite proof for that instance.  The standard grid sweeps one-
to three-point scales, empty/singleton/two-point value and result
carriers, and the three stop-bound choices.  Seven deliberate mutations
are available to confirm that each family of checks actually has teeth:
each swaps two images inside one operation or solution (or tightens the
stop bound, for the nonstop check) and must be caught with an
element-level witness.

The grid suites run case-major: `run_suites` builds each grid case once
and runs every selected grid suite on it before building the next, so
the suites share the case's spaces and carriers, and the operator maps
built on them (`expand` and `join` are interned on their space).  The
case holds what they built until its last suite has run, so one case is
alive at a time.  The solver suites then share one `Curated` holder, so
a run builds and solves each curated problem once; nothing outlives
the run.

Every check returns a witness.  A string, which shows the law failing at
some element, makes the verdict `fail`; None makes it `pass`; and
CapExceeded, raised by a search that would enumerate more candidates than
the cap allows, makes it `cap`, with the exception's text as the witness.
`_report` applies that rule, and it alone makes a `LawReport`.
"""
from __future__ import annotations

from functools import cached_property, partial, reduce, wraps
from typing import Optional, Sequence

from .finset import (
    Atom,
    CapExceeded,
    DEFAULT_CAP,
    FinMor,
    FinObj,
    Inj,
    Tup,
    UNIT_ELEM,
    fin_mor,
)
from .fixpoints import (
    CoiterProblem,
    RecurProblem,
    coiter_proc,
    coiter_step,
    recur_live,
)
from .operators import (
    MergeSpace,
    expand,
    expand_live,
    expand_step,
    expanded_space,
    join,
    join_live,
    join_step,
    joining_space,
)
from .process import (
    LiveSpace,
    Ongoing,
    ProcSpace,
    StepSpace,
    Terminated,
    live_map,
    nonstop_space,
    proc_map,
)
from .temporal import (
    TemporalMor,
    TemporalObj,
    check_functor,
    empty_obj,
    enumerate_nat_trans,
    first_difference,
    flag_temporal,
    mor_equal,
    naturality_witness,
    pointwise_coproduct,
    pointwise_product,
    require_functor,
    require_natural,
    t_compose,
    t_coproduct_mor,
    t_identity,
    t_inj,
    t_product_mor,
    t_proj,
    unit_obj,
)
from .times import IndexPair, TermBound, TimeScale, UNBOUNDED, Value
from .twoexit import TwoExitProblem, check_roundtrips, defer_all


# -- diagrams and reports ---------------------------------------------------


class LawReport(Value):
    __slots__ = ("suite", "instance", "verdict", "witness", "millis")

    def __init__(self, suite: str, instance: str, verdict: str,
                 witness: Optional[str] = None, millis: int = 0) -> None:
        object.__setattr__(self, "suite", suite)
        object.__setattr__(self, "instance", instance)
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "millis", millis)


class Diagram:
    """Named morphisms, and pairs `(lhs, rhs)` of paths that must compose
    equally: edge names in the order they apply, `()` the identity on the
    other side's source.  Construction checks that each path composes and
    that a pair's sides share source and target; `paths` keeps each pair
    as `(source, lhs, rhs)`."""

    def __init__(self, edges: dict, paths: Sequence[tuple]):
        self.edges = edges
        self.paths = []
        for lhs, rhs in paths:
            src, dst = self._ends(lhs or rhs)
            if (src, dst) != (self._ends(rhs) if lhs and rhs else (src, src)):
                raise ValueError(f"{_path_label(lhs)} and {_path_label(rhs)} "
                                 "differ in source or target")
            self.paths.append((src, lhs, rhs))

    def _ends(self, seq) -> tuple:
        """The source and target of a path of at least one edge."""
        if not seq or any(name not in self.edges for name in seq):
            raise ValueError(f"path {seq} is empty or uses an unknown edge")
        mors = [self.edges[name] for name in seq]
        for name, before, mor in zip(seq[1:], mors, mors[1:]):
            if mor.dom != before.cod:
                raise ValueError(f"path breaks at {name}")
        return mors[0].dom, mors[-1].cod

    def composite(self, src: TemporalObj, seq) -> TemporalMor:
        """The path's edges composed in order after the identity on src."""
        return reduce(lambda out, name: t_compose(self.edges[name], out), seq,
                      t_identity(src))


def _path_label(seq) -> str:
    return " then ".join(seq) if seq else "identity"


def _chain(d: Diagram, src: TemporalObj, seq, i) -> list:
    """The positions of the path's composite at index i, looked up along
    its edges' components without building the composite."""
    pos = range(src.at(i).size)
    for name in seq:
        pos = map(d.edges[name].at(i).pos.__getitem__, pos)
    return [*pos]


def check_diagram(d: Diagram) -> Optional[str]:
    """Compare every asserted pair of paths by positions: the witness of
    the first pair that differs, from its composites, or None."""
    for src, lhs, rhs in d.paths:
        if any(_chain(d, src, lhs, i) != _chain(d, src, rhs, i)
               for i in src.scale.indices()):
            gap = first_difference(d.composite(src, lhs),
                                   d.composite(src, rhs))
            return (f"{_path_label(lhs)} differs from "
                    f"{_path_label(rhs)}: {gap}")
    return None


def _report(suite: str, label: str, witness_of) -> LawReport:
    """The report of one check: `witness_of()` is its witness or None,
    unless it raises CapExceeded (see the module docstring)."""
    try:
        witness = witness_of()
        verdict = "pass" if witness is None else "fail"
    except CapExceeded as e:
        witness, verdict = str(e), "cap"
    return LawReport(suite, label, verdict, witness)


# -- the standard grid ------------------------------------------------------


GRID_SCALES = ((0,), (0, 1), (0, 1, 2))
CARRIER_KINDS = ("empty", "unit", "flag")
_MAKERS = {"empty": empty_obj, "unit": unit_obj, "flag": flag_temporal}


def _bound_choices(scale: TimeScale) -> list:
    """The three bound kinds, deduplicated by value (on a one-point scale
    the earliest and latest point coincide)."""
    choices = [("min", scale.start), ("max", scale.end), ("inf", UNBOUNDED)]
    if scale.start == scale.end:
        del choices[1]
    return choices


class Case:
    """One case as the grid suites receive it: the space `ProcSpace(w, a,
    b)` under `label`, and for merging the other side's (w, a, b) when it
    is not the same space.  `held` keeps what the suites built on the case
    alive until the case is dropped, so that each later suite finds those
    spaces and carriers still interned."""

    def __init__(self, label: str, a: TemporalObj, b: TemporalObj, w: TermBound,
                 right: Optional[tuple] = None) -> None:
        self.label, self.a, self.b, self.w, self.right = label, a, b, w, right
        self.held = []

    @cached_property
    def space(self) -> ProcSpace:
        return ProcSpace(self.w, self.a, self.b)


def law_grid():
    """The standard grid's cases in order, built one at a time.  Each
    scale and its carrier objects are built once for all of its cases."""
    for pts in GRID_SCALES:
        scale = TimeScale.of(*pts)
        objs = {kind: _MAKERS[kind](scale) for kind in CARRIER_KINDS}
        name = "-".join(map(str, pts))
        for ak in CARRIER_KINDS:
            for bk in CARRIER_KINDS:
                for wn, w in _bound_choices(scale):
                    yield Case(f"scale={name} a={ak} b={bk} w={wn}",
                               objs[ak], objs[bk], w)


def merge_extras() -> list:
    """Hand-picked asymmetric pairs that merging checks after the grid."""
    sc = TimeScale.of(0, 1, 2)
    u, f = unit_obj(sc), flag_temporal(sc)
    return [
        Case("extra=flag-inf x unit-max", f, f, UNBOUNDED, (sc.end, u, u)),
        Case("extra=unit-min x flag-inf", u, f, sc.start, (UNBOUNDED, f, u)),
        Case("extra=flag-max x unit-inf", f, u, sc.end, (UNBOUNDED, u, f)),
    ]


def merge_pair(case: Case) -> tuple:
    """The label and the two spaces merging runs side by side on a case."""
    if case.right is None:
        return case.label + " x same", case.space, case.space
    return case.label, case.space, ProcSpace(*case.right)


# -- targeted mutations -----------------------------------------------------


def poison(mor: TemporalMor) -> TemporalMor:
    """Swap the images of the first two domain elements with different
    images, at the first index where such a pair exists.  Returns the
    morphism unchanged when every component is constant; otherwise a new
    family that reads every other component from `mor`."""
    for i in mor.dom.scale.indices():
        comp = mor.at(i)
        pos = list(comp.pos)
        for j in range(len(pos)):
            for k in range(j + 1, len(pos)):
                if pos[j] != pos[k]:
                    pos[j], pos[k] = pos[k], pos[j]
                    bad = FinMor(comp.dom, comp.cod, pos=pos)
                    return TemporalMor(mor.dom, mor.cod,
                                       lambda x: bad if x is i else mor.at(x))
    return mor


MUTATIONS = ("expansion", "joining", "interaction", "merging", "nonstop",
             "corecursion", "recursion")


# -- suites over the grid ---------------------------------------------------


def _suite(body):
    """The entry point `suite_<name>(cap, mutated, case)` of a suite from
    its body, a generator of `(label, witness_of)` pairs given the same
    arguments: one report per pair, each `witness_of` called before the
    body resumes.  A grid suite's body checks one `Case`; called with
    no case, it runs the whole grid (and, for merging, the extra pairs).
    The other suites take the run's `Curated` problems as their case, or
    build their own when called with none."""
    name = body.__name__.removeprefix("suite_")

    @wraps(body)
    def suite(cap: int = DEFAULT_CAP, mutated: bool = False,
              case: Optional[Case | Curated] = None) -> list:
        if case is None and name in GRID_SUITES:
            return _run([name], cap, name if mutated else None)
        case = Curated() if case is None else case
        return [_report(name, label, witness_of)
                for label, witness_of in body(cap, mutated, case)]

    return suite


def _checked(case: Case, d: Diagram,
             poisoned: Optional[str]) -> Optional[str]:
    """d's witness, with edge `poisoned` (if any) broken by `poison`; the
    case holds d until it is done."""
    if poisoned is not None:
        d.edges[poisoned] = poison(d.edges[poisoned])
    case.held.append(d)
    return check_diagram(d)


@_suite
def suite_functor(cap: int, mutated: bool, case: Case):
    yield case.label, partial(check_functor, case.space.obj)


@_suite
def suite_expansion(cap: int, mutated: bool, case: Case):
    """The comonad laws of expansion in the value slot: expansion is
    undone by forgetting the attached suffixes, and expanding twice
    agrees with expanding each attached suffix."""
    a, b, w = case.a, case.b, case.w
    plain = case.space
    packed = expanded_space(plain)
    repacked = expanded_space(packed)
    d = Diagram(
        edges={
            "dup": expand(plain),
            "forget": proc_map(packed, plain, act=t_proj([a, plain.obj], 0)),
            "dup_inside": proc_map(packed, repacked,
                                   act=expand_live(LiveSpace(w, a, b))),
            "dup_again": expand(packed),
        },
        paths=[
            (("dup", "forget"), ()),
            (("dup", "dup_inside"), ("dup", "dup_again")),
        ],
    )
    yield case.label, partial(_checked, case, d, "dup" if mutated else None)


@_suite
def suite_joining(cap: int, mutated: bool, case: Case):
    """The monad laws of joining in the result slot: joining undoes
    wrapping a result as already-finished, and collapsing nested
    handovers inside-first or outside-first agrees."""
    step = StepSpace(case.w, case.a, case.b)
    sp = case.space
    js = joining_space(sp)
    js2 = joining_space(js)
    d = Diagram(
        edges={
            "wrap": proc_map(sp, js, res=t_inj([case.b, step.live.obj], 0)),
            "join": join(sp),
            "collapse_inside": proc_map(js2, js, res=join_step(step)),
            "join_outer": join(js),
        },
        paths=[
            (("wrap", "join"), ()),
            (("collapse_inside", "join"), ("join_outer", "join")),
        ],
    )
    yield case.label, partial(_checked, case, d, "join" if mutated else None)


@_suite
def suite_interaction(cap: int, mutated: bool, case: Case):
    """Joining then expanding equals expanding both layers and joining the
    expanded ones."""
    a, b, w = case.a, case.b, case.w
    sp = case.space
    js = joining_space(sp)
    ex_sp = expanded_space(sp)
    d = Diagram(
        edges={
            "join": join(sp),
            "dup": expand(sp),
            "dup_outer": expand(js),
            "across": proc_map(expanded_space(js), joining_space(ex_sp),
                               act=join_live(LiveSpace(w, a, b)),
                               res=expand_step(StepSpace(w, a, b))),
            "join_expanded": join(ex_sp),
        },
        paths=[
            (("join", "dup"), ("dup_outer", "across", "join_expanded")),
        ],
    )
    yield case.label, partial(_checked, case, d, "join" if mutated else None)


@_suite
def suite_merging(cap: int, mutated: bool, case: Case):
    """Running two processes side by side until the first stop is a
    bijection: splitting recovers both, and zipping the split recovers
    the merged process."""
    label, left, right = merge_pair(case)
    m = MergeSpace(left, right)
    d = Diagram(
        edges={"zip": m.zip(), "split": m.split()},
        paths=[(("zip", "split"), ()), (("split", "zip"), ())],
    )
    yield label, partial(_checked, case, d, "zip" if mutated else None)


@_suite
def suite_naturality(cap: int, mutated: bool, case: Case):
    """Expansion and joining commute with restriction at every instance."""
    for opname, op in (("expand", expand), ("join", join)):
        yield (case.label + " op=" + opname,
               partial(naturality_witness, op(case.space)))


def _one_element_each(space: LiveSpace) -> Optional[str]:
    for i in space.scale.indices():
        n = space.obj.at(i).size
        if n != 1:
            return f"at {i}: carrier has {n} elements, expected 1"
    return None


@_suite
def suite_nonstop(cap: int, mutated: bool, case: Curated):
    """With no stop bound and no possible results, exactly one process
    exists at every index: the one that runs forever.  The mutated run
    tightens the bound to the last point, which empties late carriers."""
    for pts in GRID_SCALES:
        scale = TimeScale.of(*pts)
        if mutated:
            space = LiveSpace(scale.end, unit_obj(scale), empty_obj(scale))
        else:
            space = nonstop_space(scale)
        yield ("scale=" + "-".join(map(str, pts)),
               partial(_one_element_each, space))


# -- curated problems -------------------------------------------------------


def _standard() -> tuple:
    sc = TimeScale.of(0, 1, 2)
    return sc, unit_obj(sc), flag_temporal(sc)


def _natural(dom: TemporalObj, cod: TemporalObj, image) -> TemporalMor:
    """The family whose component at i sends z to `image(i, z)`, once it
    is checked natural."""
    return require_natural(TemporalMor(
        dom, cod,
        lambda i: fin_mor(dom.at(i), cod.at(i), lambda z: image(i, z))))


def _stop_next(scale: TimeScale, i: IndexPair, result):
    """The process at i that stops with `result` at the first point after
    i.t; still running when the horizon is empty."""
    if i.r == i.r0:
        return Ongoing(())
    return Terminated(scale.points[i.r + 1], (), result)


V0, V1 = Atom("v0"), Atom("v1")


def coiter_problems() -> list:
    """Seed maps spanning the interesting behaviors: finishing at once,
    restarting forever, handing off to another seed, alternating visible
    values, and a bounded no-restart replay."""
    sc, u, f = _standard()
    out = []

    mixed1 = LiveSpace(UNBOUNDED, u, pointwise_coproduct([u, u]))
    for name, tag in (("finish_next", 0), ("run_forever", 1)):
        seed = _natural(u, mixed1.obj, lambda i, z, tag=tag: mixed1.encode(
            i, UNIT_ELEM, _stop_next(sc, i, Inj(tag, UNIT_ELEM))))
        out.append((name, CoiterProblem(UNBOUNDED, u, u, u, seed)))

    mixed2 = LiveSpace(UNBOUNDED, u, pointwise_coproduct([u, f]))
    handoff = _natural(f, mixed2.obj, lambda i, z: mixed2.encode(
        i, UNIT_ELEM,
        _stop_next(sc, i, Inj(0, UNIT_ELEM) if z == V0 else Inj(1, V0))))
    out.append(("handoff_once", CoiterProblem(UNBOUNDED, u, u, f, handoff)))

    mixed3 = LiveSpace(UNBOUNDED, f, pointwise_coproduct([u, f]))
    alternate = _natural(f, mixed3.obj, lambda i, z: mixed3.encode(
        i, z, _stop_next(sc, i, Inj(1, V1 if z == V0 else V0))))
    out.append(("alternate_values",
                CoiterProblem(UNBOUNDED, f, u, f, alternate)))

    base = ProcSpace(sc.end, u, u)
    mixed4 = LiveSpace(sc.end, u, pointwise_coproduct([u, base.obj]))
    relabel = proc_map(base, mixed4.proc, res=t_inj([u, base.obj], 0))
    replay = _natural(base.obj, mixed4.obj, lambda i, p: mixed4.encode(
        i, UNIT_ELEM, mixed4.proc.decode(i, relabel.at(i)(p))))
    out.append(("bounded_replay", CoiterProblem(sc.end, u, u, base.obj, replay)))
    return out


UNKNOWN_STAMP = Inj(0, UNIT_ELEM)


def stamp_elem(v, parity: int):
    return Inj(1, Tup((Atom("upto" + str(v)), Inj(parity, UNIT_ELEM))))


def parity_stop_elem(scale: TimeScale, t, v):
    """The stamp recording a stop at v with the parity of the number of
    scale points strictly after t up to and including v."""
    return stamp_elem(v, len(scale.open_closed(t, v)) % 2)


def stamp_parity_obj(scale: TimeScale) -> TemporalObj:
    """Either nothing is known, or a stop time within the observation
    horizon is recorded together with a parity bit.  Restricting drops
    stamps that lie beyond the new horizon."""

    def carrier(i: IndexPair):
        elems = [UNKNOWN_STAMP]
        for v in scale.open_closed(i.t, i.t0):
            for parity in (0, 1):
                elems.append(stamp_elem(v, parity))
        return FinObj(elems)

    # Each built once, read by the object and by `restrict`, which holds
    # no reference to the object: no reference cycle.
    carriers = {i: carrier(i) for i in scale.indices()}

    def restrict(m):
        src, dst = carriers[m.src], carriers[m.dst]

        def go(e):
            if e.tag == 1 and e not in dst:
                return UNKNOWN_STAMP
            return e

        return fin_mor(src, dst, go)

    return require_functor(TemporalObj(scale, carriers.__getitem__, restrict))


def recur_problems() -> list:
    """Consumers spanning the interesting behaviors: trivial and constant
    outputs, relabeling consumers whose solutions are identities, and a
    parity counter that genuinely feeds on its own suffix outputs."""
    sc, u, f = _standard()
    out = []

    paired_u = ProcSpace(UNBOUNDED, pointwise_product([u, u]), u)
    collapse = _natural(paired_u.obj, u, lambda i, e: UNIT_ELEM)
    out.append(("collapse_unit", RecurProblem(UNBOUNDED, u, u, u, collapse)))

    paired_f = ProcSpace(UNBOUNDED, pointwise_product([u, f]), u)
    label = _natural(paired_f.obj, f, lambda i, e: V1)
    out.append(("constant_label", RecurProblem(UNBOUNDED, u, u, f, label)))

    for name, rb in (("strip_labels", u), ("carry_results", f)):
        base = ProcSpace(UNBOUNDED, u, rb)
        paired = ProcSpace(UNBOUNDED, pointwise_product([u, base.obj]), rb)
        strip = proc_map(paired, base, act=t_proj([u, base.obj], 0))
        out.append((name, RecurProblem(UNBOUNDED, u, rb, base.obj, strip)))

    stamps = stamp_parity_obj(sc)
    paired_s = ProcSpace(UNBOUNDED, pointwise_product([u, stamps]), u)

    def consume(i: IndexPair, elem):
        v = paired_s.decode(i, elem)
        if isinstance(v, Ongoing):
            return UNKNOWN_STAMP
        if not v.seen:
            return parity_stop_elem(sc, i.t, v.at_time)
        aux = v.seen[0][1].items[1]
        if aux.tag == 0:
            return UNKNOWN_STAMP
        stamp, parity = aux.value.items
        return Inj(1, Tup((stamp, Inj(1 - parity.tag, UNIT_ELEM))))

    parity = _natural(paired_s.obj, stamps, consume)
    out.append(("stop_parity", RecurProblem(UNBOUNDED, u, u, stamps, parity)))
    return out


def step_variant_problem():
    """Seed map with an immediate-answer exit: one seed answers at once,
    the other waits one step and hands over to it."""
    sc, u, f = _standard()
    live_c = LiveSpace(UNBOUNDED, u, f)
    mixed = pointwise_coproduct([u, live_c.obj])

    def answer(i: IndexPair, z):
        if z == V0:
            return Inj(0, UNIT_ELEM)
        return Inj(1, live_c.encode(i, UNIT_ELEM, _stop_next(sc, i, V0)))

    return ("answer_or_wait", UNBOUNDED, u, u, f, _natural(f, mixed, answer))


def proc_variant_problem():
    """Seed map into bare processes whose result either finishes or
    carries a value paired with the next seed."""
    sc, u, f = _standard()
    src = ProcSpace(UNBOUNDED, u,
                    pointwise_coproduct([u, pointwise_product([u, f])]))

    def restart(i: IndexPair, z):
        result = Inj(0, UNIT_ELEM) if z == V0 else Inj(1, Tup((UNIT_ELEM, V0)))
        return src.encode(i, _stop_next(sc, i, result))

    return ("stagger_restart", UNBOUNDED, u, u, f,
            _natural(f, src.obj, restart))


def pair_variant_problem():
    """Consumer of (value, process-with-stamp-records) pairs producing the
    stamp for the process's own stop time."""
    sc, u, _ = _standard()
    stamps = stamp_parity_obj(sc)
    cbase = ProcSpace(UNBOUNDED, stamps, u)
    src = pointwise_product([u, cbase.obj])

    def stamp(i: IndexPair, e):
        v = cbase.decode(i, e.items[1])
        if isinstance(v, Ongoing):
            return UNKNOWN_STAMP
        return parity_stop_elem(sc, i.t, v.at_time)

    return ("stamp_stops", UNBOUNDED, u, u, stamps,
            _natural(src, stamps, stamp))


def two_exit_problems(coiter: list) -> list:
    """Two-exit problems: deferred forms of three `coiter` seed maps, each
    with its one-exit problem, plus one that answers at once on one seed."""
    sc, u, f = _standard()
    named = dict(coiter)
    out = []
    for name in ("finish_next", "run_forever", "handoff_once"):
        pr = named[name]
        out.append(("defer_" + name,
                    defer_all(pr.w, pr.a, pr.b, pr.c, pr.f), pr))

    inner = LiveSpace(UNBOUNDED, u, pointwise_coproduct([u, f]))
    cod = pointwise_coproduct([u, inner.obj])

    def early(i: IndexPair, z):
        if z == V0:
            return Inj(0, UNIT_ELEM)
        return Inj(1, inner.encode(i, UNIT_ELEM,
                                   _stop_next(sc, i, Inj(1, V0))))

    out.append(("early_or_wait",
                TwoExitProblem(UNBOUNDED, u, u, f, _natural(f, cod, early)),
                None))
    return out


def uniqueness_problems(coiter: list, recur: list) -> list:
    """Problems whose full candidate spaces fit comfortably under the cap,
    picked from `coiter` and `recur`."""
    named_c, named_r = dict(coiter), dict(recur)
    return [
        ("finish_next", named_c["finish_next"]),
        ("handoff_once", named_c["handoff_once"]),
        ("constant_label", named_r["constant_label"]),
        ("stop_parity", named_r["stop_parity"]),
    ]


class Curated:
    """The curated problems of one run, as the solver suites receive them:
    each family built on first use, from the families it shares problems
    with.  A one-exit problem keeps its solution, so a run solves each
    once."""

    coiter = cached_property(lambda self: coiter_problems())
    recur = cached_property(lambda self: recur_problems())
    two_exit = cached_property(lambda self: two_exit_problems(self.coiter))
    uniqueness = cached_property(lambda self: uniqueness_problems(self.coiter, self.recur))


# -- suites over the curated problems ---------------------------------------


def _equation_gaps(problems: list, mutated: bool):
    """Each problem's solution, poisoned when mutated, against its
    equation."""
    for name, pr in problems:
        sol = pr.solve()
        yield "problem=" + name, partial(pr.equation_gap,
                                         poison(sol) if mutated else sol)


@_suite
def suite_corecursion(cap: int, mutated: bool, case: Curated):
    return _equation_gaps(case.coiter, mutated)


@_suite
def suite_recursion(cap: int, mutated: bool, case: Curated):
    return _equation_gaps(case.recur, mutated)


@_suite
def suite_derived(cap: int, mutated: bool, case: Curated):
    """Each derived solver satisfies its one-step unfolding identity."""
    name, w, a, b, c, f = step_variant_problem()
    sol = coiter_step(w, a, b, c, f)
    lifted = live_map(LiveSpace(w, a, c), LiveSpace(w, a, sol.cod), res=sol)
    once = t_compose(join_live(LiveSpace(w, a, b)), lifted)
    rhs = t_compose(t_coproduct_mor([t_identity(b), once]), f)
    yield "problem=" + name, partial(first_difference, sol, rhs)

    name, w, a, b, c, f = proc_variant_problem()
    sol = coiter_proc(w, a, b, c, f)
    plain = ProcSpace(w, a, b)
    src = ProcSpace(w, a,
                    pointwise_coproduct([b, pointwise_product([a, c])]))
    res = t_coproduct_mor([t_identity(b),
                           t_product_mor([t_identity(a), sol])])
    rhs = t_compose(join(plain),
                    t_compose(proc_map(src, joining_space(plain), res=res), f))
    yield "problem=" + name, partial(first_difference, sol, rhs)

    name, w, a, b, c, f = pair_variant_problem()
    sol = recur_live(w, a, b, c, f)
    base = ProcSpace(w, a, b)
    inner = t_compose(proc_map(expanded_space(base), ProcSpace(w, c, b), act=sol),
                      expand(base))
    rhs = t_compose(f, t_product_mor([t_identity(a), inner]))
    yield "problem=" + name, partial(first_difference, sol, rhs)


def _uniqueness_witness(pr, cap: int) -> Optional[str]:
    sol = pr.solve()
    matches = pr.search(cap)
    if len(matches) == 1 and mor_equal(matches[0], sol):
        return None
    # Only a failure counts the natural candidates, for its witness.
    total = len(enumerate_nat_trans(pr.dom, pr.cod, cap))
    return (f"{len(matches)} of {total} natural candidates "
            f"satisfy the equation, expected exactly the solver's")


@_suite
def suite_uniqueness(cap: int, mutated: bool, case: Curated):
    """Exhaustive search over all natural candidates confirms that exactly
    one satisfies each defining equation, and that it is the solver's."""
    for name, pr in case.uniqueness:
        yield "problem=" + name, partial(_uniqueness_witness, pr, cap)


@_suite
def suite_two_exit(cap: int, mutated: bool, case: Curated):
    for name, pr, one_exit in case.two_exit:
        yield ("problem=" + name,
               partial(check_roundtrips, pr, one_exit, cap))


# -- top-level entry --------------------------------------------------------


SUITES: dict = {
    "corecursion": suite_corecursion,
    "derived": suite_derived,
    "expansion": suite_expansion,
    "functor": suite_functor,
    "interaction": suite_interaction,
    "joining": suite_joining,
    "merging": suite_merging,
    "naturality": suite_naturality,
    "nonstop": suite_nonstop,
    "recursion": suite_recursion,
    "two_exit": suite_two_exit,
    "uniqueness": suite_uniqueness,
}


GRID_SUITES = ("expansion", "functor", "interaction", "joining", "merging",
               "naturality")


def _run(chosen: Sequence[str], cap: int, mutate: Optional[str]) -> list:
    """The chosen suites' reports in run order: the grid suites case by
    case, each case dropped with what they built on it before the next
    is built, then merging's extra pairs, then the other suites."""
    grid = [n for n in chosen if n in GRID_SUITES]
    reports = []
    for case in law_grid() if grid else ():
        for n in grid:
            reports.extend(SUITES[n](cap, n == mutate, case))
    if "merging" in grid:
        for case in merge_extras():
            reports.extend(SUITES["merging"](cap, mutate == "merging", case))
    curated = Curated()
    for n in chosen:
        if n not in GRID_SUITES:
            reports.extend(SUITES[n](cap, n == mutate, curated))
    return reports


def select_suites(names: Optional[Sequence[str]],
                  mutate: Optional[str]) -> list:
    """The named suites (all for None), sorted.  A ValueError says which
    names are not suites, or that `mutate` is not one of `MUTATIONS` or
    targets a suite not named."""
    chosen = sorted(SUITES) if names is None else sorted(set(names))
    unknown = [n for n in chosen if n not in SUITES]
    if unknown:
        raise ValueError("unknown suites: " + ", ".join(unknown))
    if mutate is not None and mutate not in MUTATIONS:
        raise ValueError(f"unknown mutation {mutate!r}; "
                         "choose from " + ", ".join(MUTATIONS))
    if mutate is not None and mutate not in chosen:
        raise ValueError(f"mutation {mutate} targets a suite that is not selected")
    return chosen


def run_suites(names: Optional[Sequence[str]] = None, cap: int = DEFAULT_CAP,
               mutate: Optional[str] = None) -> list:
    """Run the suites `select_suites` picks and return their reports
    sorted by suite then instance.  ``mutate`` names one of the seven
    mutations (see `MUTATIONS`); the matching suite then runs against the
    broken operation or solution and is expected to fail."""
    chosen = select_suites(names, mutate)
    return sorted(_run(chosen, cap, mutate), key=lambda r: (r.suite, r.instance))
