"""Exhaustive verification of the structural laws at desk scale.

Every law here is decided by composing finite maps and comparing them
element by element over every index of a small time scale, so a passing
suite is a finite proof for that instance.  The standard grid sweeps one-
to three-point scales, empty/singleton/two-point value and result
carriers, and the three stop-bound choices.  Five deliberate mutations
are available to confirm that each family of checks actually has teeth:
each swaps two images inside one operation (or tightens the stop bound,
for the nonstop check) and must be caught with an element-level witness.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .finset import (
    Atom,
    CapExceeded,
    DEFAULT_CAP,
    FinMor,
    Inj,
    Tup,
    UNIT_ELEM,
    fin_mor,
    fin_obj,
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
    temporal_mor,
    temporal_obj,
    t_compose,
    t_coproduct_mor,
    t_identity,
    t_inj,
    t_product_mor,
    t_proj,
    unit_obj,
)
from .times import IndexPair, TermBound, TimeScale, UNBOUNDED
from .twoexit import TwoExitProblem, check_roundtrips, defer_all


# -- diagrams and reports ---------------------------------------------------


@dataclass(frozen=True)
class PathEq:
    """Two edge sequences from src to dst that must compose equally; an
    empty sequence stands for the identity (then src == dst)."""

    src: str
    dst: str
    lhs: tuple
    rhs: tuple


@dataclass(frozen=True)
class LawReport:
    suite: str
    instance: str
    verdict: str
    witness: Optional[str] = None
    millis: int = 0


class Diagram:
    """Named objects and morphisms with path equalities to check.

    Edges map a name to (source node, target node, morphism); endpoints
    are validated on construction, as is composability of every path.
    """

    def __init__(self, nodes: dict, edges: dict, paths: Sequence[PathEq]):
        self.nodes = nodes
        self.edges = edges
        self.paths = list(paths)
        for name, (src, dst, mor) in edges.items():
            if mor.dom != nodes[src] or mor.cod != nodes[dst]:
                raise ValueError(f"edge {name} does not match its endpoints")
        for p in self.paths:
            for seq in (p.lhs, p.rhs):
                self._trace(p.src, p.dst, seq)

    def _trace(self, src: str, dst: str, seq) -> None:
        here = src
        for name in seq:
            if name not in self.edges:
                raise ValueError(f"path uses unknown edge {name}")
            s, d, _ = self.edges[name]
            if s != here:
                raise ValueError(f"path breaks at {name}: from {here}")
            here = d
        if here != dst:
            raise ValueError(f"path ends at {here}, expected {dst}")

    def composite(self, src: str, seq) -> TemporalMor:
        out = t_identity(self.nodes[src])
        for name in seq:
            out = t_compose(self.edges[name][2], out)
        return out


def _path_label(seq) -> str:
    return " then ".join(seq) if seq else "identity"


def check_diagram(d: Diagram, suite: str, instance: str) -> LawReport:
    """Compare every asserted pair of paths elementwise; the first failing
    pair produces the witness."""
    for p in d.paths:
        gap = first_difference(d.composite(p.src, p.lhs),
                               d.composite(p.src, p.rhs))
        if gap is not None:
            witness = (f"{_path_label(p.lhs)} differs from "
                       f"{_path_label(p.rhs)}: {gap}")
            return LawReport(suite, instance, "fail", witness)
    return LawReport(suite, instance, "pass")


# -- duplication and flattening packaged as instances -----------------------


class ComonadInstance:
    """The process functor in its value slot, together with expansion.

    The derived pieces follow the standard pattern: the carrier pairs a
    value with a process, the counit projects the value back out, and the
    full duplication keeps the pair while expanding its process half.
    """

    def __init__(self, w: TermBound, b: TemporalObj):
        self.w, self.b = w, b

    def outer(self, x: TemporalObj) -> ProcSpace:
        return ProcSpace(self.w, x, self.b)

    def carrier(self, x: TemporalObj) -> LiveSpace:
        return LiveSpace(self.w, x, self.b)

    def counit(self, x: TemporalObj) -> TemporalMor:
        return t_proj([x, self.outer(x).obj], 0)

    def dup(self, x: TemporalObj) -> TemporalMor:
        return expand(self.outer(x))

    def full_dup(self, x: TemporalObj) -> TemporalMor:
        return expand_live(self.carrier(x))

    def lift(self, g: TemporalMor) -> TemporalMor:
        """Apply the functor to a morphism between value objects."""
        return proc_map(self.outer(g.dom), self.outer(g.cod), act=g)


class MonadInstance:
    """The value-process-pair functor in its result slot, together with
    joining.  The carrier adds the already-finished summand, the unit is
    that summand's injection, and the full flattening copairs identity
    with the pair-level one."""

    def __init__(self, w: TermBound, a: TemporalObj):
        self.w, self.a = w, a

    def inner(self, y: TemporalObj) -> LiveSpace:
        return LiveSpace(self.w, self.a, y)

    def carrier(self, y: TemporalObj) -> StepSpace:
        return StepSpace(self.w, self.a, y)

    def unit(self, y: TemporalObj) -> TemporalMor:
        return t_inj([y, self.inner(y).obj], 0)

    def flatten(self, y: TemporalObj) -> TemporalMor:
        return join_live(self.inner(y))

    def full_flatten(self, y: TemporalObj) -> TemporalMor:
        return join_step(self.carrier(y))


# -- the standard grid ------------------------------------------------------


GRID_SCALES = ((0,), (0, 1), (0, 1, 2))
CARRIER_KINDS = ("empty", "unit", "flag")
_MAKERS = {"empty": empty_obj, "unit": unit_obj, "flag": flag_temporal}


@dataclass(frozen=True)
class GridCase:
    points: tuple
    a_kind: str
    b_kind: str
    w_kind: str

    @property
    def label(self) -> str:
        pts = "-".join(str(p) for p in self.points)
        return (f"scale={pts} a={self.a_kind} b={self.b_kind} "
                f"w={self.w_kind}")


def _bound_choices(scale: TimeScale) -> list:
    """The three bound kinds, deduplicated by value (on a one-point scale
    the earliest and latest point coincide)."""
    raw = [("min", TermBound.at(scale.start)),
           ("max", TermBound.at(scale.end)),
           ("inf", UNBOUNDED)]
    out, seen = [], set()
    for name, b in raw:
        if b in seen:
            continue
        seen.add(b)
        out.append((name, b))
    return out


def law_grid() -> tuple:
    cases = []
    for pts in GRID_SCALES:
        scale = TimeScale.of(*pts)
        bounds = [name for name, _ in _bound_choices(scale)]
        for ak in CARRIER_KINDS:
            for bk in CARRIER_KINDS:
                for wn in bounds:
                    cases.append(GridCase(pts, ak, bk, wn))
    return tuple(cases)


def build_case(case: GridCase):
    scale = TimeScale.of(*case.points)
    a = _MAKERS[case.a_kind](scale)
    b = _MAKERS[case.b_kind](scale)
    w = dict(_bound_choices(scale))[case.w_kind]
    return scale, a, b, w


# -- targeted mutations -----------------------------------------------------


def poison(mor: TemporalMor) -> TemporalMor:
    """Swap the images of the first two domain elements with different
    images, at the first index where such a pair exists.  Returns the
    morphism unchanged when every component is constant."""
    for i in mor.dom.scale.indices():
        comp = mor.at(i)
        pos = list(comp.pos)
        for j in range(len(pos)):
            for k in range(j + 1, len(pos)):
                if pos[j] != pos[k]:
                    pos[j], pos[k] = pos[k], pos[j]
                    components = dict(mor.components)
                    components[i] = FinMor(comp.dom, comp.cod, pos=pos)
                    return TemporalMor(mor.dom, mor.cod, components)
    return mor


MUTATIONS = ("expansion", "joining", "interaction", "merging", "nonstop",
             "corecursion", "recursion")


# -- suites over the grid ---------------------------------------------------


def suite_functor(cap: int = DEFAULT_CAP, mutated: bool = False) -> list:
    reports = []
    for case in law_grid():
        _, a, b, w = build_case(case)
        rep = check_functor(ProcSpace(w, a, b).obj)
        reports.append(LawReport("functor", case.label,
                                 "pass" if rep.ok else "fail", rep.witness))
    return reports


def suite_expansion(cap: int = DEFAULT_CAP, mutated: bool = False) -> list:
    """Expansion is undone by forgetting the attached suffixes, and
    expanding twice agrees with expanding each attached suffix."""
    reports = []
    for case in law_grid():
        _, a, b, w = build_case(case)
        inst = ComonadInstance(w, b)
        ua = inst.carrier(a).obj
        uua = inst.carrier(ua).obj
        dup = inst.dup(a)
        if mutated:
            dup = poison(dup)
        d = Diagram(
            nodes={
                "plain": inst.outer(a).obj,
                "packed": inst.outer(ua).obj,
                "repacked": inst.outer(uua).obj,
            },
            edges={
                "dup": ("plain", "packed", dup),
                "forget": ("packed", "plain", inst.lift(inst.counit(a))),
                "dup_inside": ("packed", "repacked",
                               inst.lift(inst.full_dup(a))),
                "dup_again": ("packed", "repacked", inst.dup(ua)),
            },
            paths=[
                PathEq("plain", "plain", ("dup", "forget"), ()),
                PathEq("plain", "repacked", ("dup", "dup_inside"),
                       ("dup", "dup_again")),
            ],
        )
        reports.append(check_diagram(d, "expansion", case.label))
    return reports


def suite_joining(cap: int = DEFAULT_CAP, mutated: bool = False) -> list:
    """Joining undoes wrapping a result as already-finished, and collapsing
    nested handovers inside-first or outside-first agrees."""
    reports = []
    for case in law_grid():
        _, a, b, w = build_case(case)
        inst = MonadInstance(w, a)
        sp = ProcSpace(w, a, b)
        js = joining_space(sp)
        js2 = joining_space(js)
        jn = join(sp)
        if mutated:
            jn = poison(jn)
        d = Diagram(
            nodes={"plain": sp.obj, "once": js.obj, "twice": js2.obj},
            edges={
                "wrap": ("plain", "once",
                         proc_map(sp, js, res=inst.unit(b))),
                "join": ("once", "plain", jn),
                "collapse_inside": ("twice", "once",
                                    proc_map(js2, js, res=inst.full_flatten(b))),
                "join_outer": ("twice", "once", join(js)),
            },
            paths=[
                PathEq("plain", "plain", ("wrap", "join"), ()),
                PathEq("twice", "plain", ("collapse_inside", "join"),
                       ("join_outer", "join")),
            ],
        )
        reports.append(check_diagram(d, "joining", case.label))
    return reports


def suite_interaction(cap: int = DEFAULT_CAP, mutated: bool = False) -> list:
    """Joining then expanding equals expanding both layers and joining the
    expanded ones."""
    reports = []
    for case in law_grid():
        _, a, b, w = build_case(case)
        sp = ProcSpace(w, a, b)
        lv = LiveSpace(w, a, b)
        st = StepSpace(w, a, b)
        js = joining_space(sp)
        ex_sp = ProcSpace(w, lv.obj, b)
        mid_src = expanded_space(js)
        jn = join(sp)
        if mutated:
            jn = poison(jn)
        d = Diagram(
            nodes={
                "outer": js.obj,
                "plain": sp.obj,
                "expanded": expanded_space(sp).obj,
                "outer_expanded": mid_src.obj,
                "expanded_outer": joining_space(ex_sp).obj,
            },
            edges={
                "join": ("outer", "plain", jn),
                "dup": ("plain", "expanded", expand(sp)),
                "dup_outer": ("outer", "outer_expanded", expand(js)),
                "across": ("outer_expanded", "expanded_outer",
                           proc_map(mid_src, joining_space(ex_sp),
                                    act=join_live(lv),
                                    res=expand_step(st))),
                "join_expanded": ("expanded_outer", "expanded",
                                  join(ex_sp)),
            },
            paths=[
                PathEq("outer", "expanded", ("join", "dup"),
                       ("dup_outer", "across", "join_expanded")),
            ],
        )
        reports.append(check_diagram(d, "interaction", case.label))
    return reports


def _merge_pairs() -> list:
    """Diagonal pairs from the grid plus hand-picked asymmetric pairs."""
    pairs = []
    for case in law_grid():
        _, a, b, w = build_case(case)
        pairs.append((case.label + " x same",
                      ProcSpace(w, a, b), ProcSpace(w, a, b)))
    sc = TimeScale.of(0, 1, 2)
    u, f = unit_obj(sc), flag_temporal(sc)
    bmax = TermBound.at(sc.end)
    bmin = TermBound.at(sc.start)
    extras = [
        ("extra=flag-inf x unit-max",
         ProcSpace(UNBOUNDED, f, f), ProcSpace(bmax, u, u)),
        ("extra=unit-min x flag-inf",
         ProcSpace(bmin, u, f), ProcSpace(UNBOUNDED, f, u)),
        ("extra=flag-max x unit-inf",
         ProcSpace(bmax, f, u), ProcSpace(UNBOUNDED, u, f)),
    ]
    pairs.extend(extras)
    return pairs


def suite_merging(cap: int = DEFAULT_CAP, mutated: bool = False) -> list:
    """Running two processes side by side until the first stop is a
    bijection: splitting recovers both, and zipping the split recovers
    the merged process."""
    reports = []
    for label, left, right in _merge_pairs():
        m = MergeSpace(left, right)
        pair = pointwise_product([left.obj, right.obj])
        z = m.zip()
        if mutated:
            z = poison(z)
        d = Diagram(
            nodes={"pair": pair, "merged": m.merged.obj},
            edges={
                "zip": ("pair", "merged", z),
                "split": ("merged", "pair", m.split()),
            },
            paths=[
                PathEq("pair", "pair", ("zip", "split"), ()),
                PathEq("merged", "merged", ("split", "zip"), ()),
            ],
        )
        reports.append(check_diagram(d, "merging", label))
    return reports


def suite_nonstop(cap: int = DEFAULT_CAP, mutated: bool = False) -> list:
    """With no stop bound and no possible results, exactly one process
    exists at every index: the one that runs forever.  The mutated run
    tightens the bound to the last point, which empties late carriers."""
    reports = []
    for pts in GRID_SCALES:
        scale = TimeScale.of(*pts)
        if mutated:
            space = LiveSpace(TermBound.at(scale.end), unit_obj(scale),
                              empty_obj(scale))
        else:
            space = nonstop_space(scale)
        witness = None
        for i in scale.indices():
            n = len(space.obj.at(i).elements)
            if n != 1:
                witness = f"at {i}: carrier has {n} elements, expected 1"
                break
        label = "scale=" + "-".join(str(p) for p in pts)
        reports.append(LawReport("nonstop", label,
                                 "fail" if witness else "pass", witness))
    return reports


def suite_naturality(cap: int = DEFAULT_CAP, mutated: bool = False) -> list:
    """Expansion and joining commute with restriction at every instance."""
    reports = []
    for case in law_grid():
        _, a, b, w = build_case(case)
        sp = ProcSpace(w, a, b)
        for opname, mor in (("expand", expand(sp)), ("join", join(sp))):
            witness = naturality_witness(mor)
            reports.append(LawReport("naturality",
                                     case.label + " op=" + opname,
                                     "fail" if witness else "pass", witness))
    return reports


# -- curated problems -------------------------------------------------------


def _standard() -> tuple:
    sc = TimeScale.of(0, 1, 2)
    return sc, unit_obj(sc), flag_temporal(sc)


def _next_point(scale: TimeScale, i: IndexPair):
    return min(u for u in scale.points if i.t < u <= i.t0)


V0, V1 = Atom("v0"), Atom("v1")


def coiter_problems() -> list:
    """Seed maps spanning the interesting behaviors: finishing at once,
    restarting forever, handing off to another seed, alternating visible
    values, and a bounded no-restart replay."""
    sc, u, f = _standard()
    out = []

    mixed1 = LiveSpace(UNBOUNDED, u, pointwise_coproduct([u, u]))

    def build_unit(tag: int):
        def component(i: IndexPair) -> FinMor:
            def go(z):
                if i.t == i.t0:
                    return mixed1.encode(i, UNIT_ELEM, Ongoing(()))
                stop = _next_point(sc, i)
                return mixed1.encode(
                    i, UNIT_ELEM, Terminated(stop, (), Inj(tag, UNIT_ELEM))
                )
            return fin_mor(u.at(i), mixed1.obj.at(i), go)
        return require_natural(temporal_mor(u, mixed1.obj, component))

    out.append(("finish_next",
                CoiterProblem(UNBOUNDED, u, u, u, build_unit(0))))
    out.append(("run_forever",
                CoiterProblem(UNBOUNDED, u, u, u, build_unit(1))))

    mixed2 = LiveSpace(UNBOUNDED, u, pointwise_coproduct([u, f]))

    def handoff_component(i: IndexPair) -> FinMor:
        def go(z):
            if i.t == i.t0:
                return mixed2.encode(i, UNIT_ELEM, Ongoing(()))
            stop = _next_point(sc, i)
            result = Inj(0, UNIT_ELEM) if z == V0 else Inj(1, V0)
            return mixed2.encode(i, UNIT_ELEM, Terminated(stop, (), result))
        return fin_mor(f.at(i), mixed2.obj.at(i), go)

    out.append(("handoff_once",
                CoiterProblem(UNBOUNDED, u, u, f,
                              require_natural(temporal_mor(
                                  f, mixed2.obj, handoff_component)))))

    mixed3 = LiveSpace(UNBOUNDED, f, pointwise_coproduct([u, f]))

    def alternate_component(i: IndexPair) -> FinMor:
        def go(z):
            if i.t == i.t0:
                return mixed3.encode(i, z, Ongoing(()))
            stop = _next_point(sc, i)
            other = V1 if z == V0 else V0
            return mixed3.encode(i, z, Terminated(stop, (), Inj(1, other)))
        return fin_mor(f.at(i), mixed3.obj.at(i), go)

    out.append(("alternate_values",
                CoiterProblem(UNBOUNDED, f, u, f,
                              require_natural(temporal_mor(
                                  f, mixed3.obj, alternate_component)))))

    wb = TermBound.at(sc.end)
    base = ProcSpace(wb, u, u)
    mixed4 = LiveSpace(wb, u, pointwise_coproduct([u, base.obj]))
    relabel = proc_map(base, mixed4.proc, res=t_inj([u, base.obj], 0))

    def bounded_component(i: IndexPair) -> FinMor:
        def go(p):
            return mixed4.encode(i, UNIT_ELEM,
                                 mixed4.proc.decode(i, relabel.at(i)(p)))
        return fin_mor(base.obj.at(i), mixed4.obj.at(i), go)

    out.append(("bounded_replay",
                CoiterProblem(wb, u, u, base.obj,
                              require_natural(temporal_mor(
                                  base.obj, mixed4.obj, bounded_component)))))
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
        return fin_obj(elems)

    def restrict(m):
        src, dst = carrier(m.src), carrier(m.dst)

        def go(e):
            if e.tag == 1 and e not in dst:
                return UNKNOWN_STAMP
            return e

        return fin_mor(src, dst, go)

    return require_functor(temporal_obj(scale, carrier, restrict))


def recur_problems() -> list:
    """Consumers spanning the interesting behaviors: trivial and constant
    outputs, relabeling consumers whose solutions are identities, and a
    parity counter that genuinely feeds on its own suffix outputs."""
    sc, u, f = _standard()
    out = []

    paired_u = ProcSpace(UNBOUNDED, pointwise_product([u, u]), u)
    out.append(("collapse_unit",
                RecurProblem(UNBOUNDED, u, u, u,
                             require_natural(temporal_mor(
                                 paired_u.obj, u,
                                 lambda i: fin_mor(paired_u.obj.at(i), u.at(i),
                                                   lambda e: UNIT_ELEM))))))

    paired_f = ProcSpace(UNBOUNDED, pointwise_product([u, f]), u)
    out.append(("constant_label",
                RecurProblem(UNBOUNDED, u, u, f,
                             require_natural(temporal_mor(
                                 paired_f.obj, f,
                                 lambda i: fin_mor(paired_f.obj.at(i), f.at(i),
                                                   lambda e: V1))))))

    for name, rb in (("strip_labels", u), ("carry_results", f)):
        base = ProcSpace(UNBOUNDED, u, rb)
        paired = ProcSpace(UNBOUNDED, pointwise_product([u, base.obj]), rb)
        strip = proc_map(paired, base, act=t_proj([u, base.obj], 0))
        out.append((name, RecurProblem(UNBOUNDED, u, rb, base.obj, strip)))

    stamps = stamp_parity_obj(sc)
    paired_s = ProcSpace(UNBOUNDED, pointwise_product([u, stamps]), u)

    def parity_component(i: IndexPair) -> FinMor:
        def consume(elem):
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
        return fin_mor(paired_s.obj.at(i), stamps.at(i), consume)

    out.append(("stop_parity",
                RecurProblem(UNBOUNDED, u, u, stamps,
                             require_natural(temporal_mor(
                                 paired_s.obj, stamps, parity_component)))))
    return out


def step_variant_problem():
    """Seed map with an immediate-answer exit: one seed answers at once,
    the other waits one step and hands over to it."""
    sc, u, f = _standard()
    live_c = LiveSpace(UNBOUNDED, u, f)
    mixed = pointwise_coproduct([u, live_c.obj])

    def component(i: IndexPair) -> FinMor:
        def go(z):
            if z == V0:
                return Inj(0, UNIT_ELEM)
            if i.t == i.t0:
                return Inj(1, live_c.encode(i, UNIT_ELEM, Ongoing(())))
            stop = _next_point(sc, i)
            return Inj(1, live_c.encode(i, UNIT_ELEM,
                                        Terminated(stop, (), V0)))
        return fin_mor(f.at(i), mixed.at(i), go)

    return ("answer_or_wait", UNBOUNDED, u, u, f,
            require_natural(temporal_mor(f, mixed, component)))


def proc_variant_problem():
    """Seed map into bare processes whose result either finishes or
    carries a value paired with the next seed."""
    sc, u, f = _standard()
    src = ProcSpace(UNBOUNDED, u,
                    pointwise_coproduct([u, pointwise_product([u, f])]))

    def component(i: IndexPair) -> FinMor:
        def go(z):
            if i.t == i.t0:
                return src.encode(i, Ongoing(()))
            stop = _next_point(sc, i)
            if z == V0:
                return src.encode(i, Terminated(stop, (), Inj(0, UNIT_ELEM)))
            return src.encode(
                i, Terminated(stop, (), Inj(1, Tup((UNIT_ELEM, V0))))
            )
        return fin_mor(f.at(i), src.obj.at(i), go)

    return ("stagger_restart", UNBOUNDED, u, u, f,
            require_natural(temporal_mor(f, src.obj, component)))


def pair_variant_problem():
    """Consumer of (value, process-with-stamp-records) pairs producing the
    stamp for the process's own stop time."""
    sc, u, _ = _standard()
    stamps = stamp_parity_obj(sc)
    cbase = ProcSpace(UNBOUNDED, stamps, u)
    src = pointwise_product([u, cbase.obj])

    def component(i: IndexPair) -> FinMor:
        def go(e):
            v = cbase.decode(i, e.items[1])
            if isinstance(v, Ongoing):
                return UNKNOWN_STAMP
            return parity_stop_elem(sc, i.t, v.at_time)
        return fin_mor(src.at(i), stamps.at(i), go)

    return ("stamp_stops", UNBOUNDED, u, u, stamps,
            require_natural(temporal_mor(src, stamps, component)))


def two_exit_problems() -> list:
    """Two-exit problems: three deferred forms of the curated seed maps
    plus one that genuinely answers immediately on one seed."""
    sc, u, f = _standard()
    named = dict(coiter_problems())
    out = []
    for name in ("finish_next", "run_forever", "handoff_once"):
        pr = named[name]
        out.append(("defer_" + name,
                    defer_all(pr.w, pr.a, pr.b, pr.c, pr.f), pr.f))

    inner = LiveSpace(UNBOUNDED, u, pointwise_coproduct([u, f]))
    cod = pointwise_coproduct([u, inner.obj])

    def early_component(i: IndexPair) -> FinMor:
        def go(z):
            if z == V0:
                return Inj(0, UNIT_ELEM)
            if i.t == i.t0:
                return Inj(1, inner.encode(i, UNIT_ELEM, Ongoing(())))
            stop = _next_point(sc, i)
            return Inj(1, inner.encode(i, UNIT_ELEM,
                                       Terminated(stop, (), Inj(1, V0))))
        return fin_mor(f.at(i), cod.at(i), go)

    out.append(("early_or_wait",
                TwoExitProblem(UNBOUNDED, u, u, f,
                               require_natural(temporal_mor(
                                   f, cod, early_component))),
                None))
    return out


def uniqueness_problems() -> list:
    """Problems whose full candidate spaces fit comfortably under the cap."""
    named_c = dict(coiter_problems())
    named_r = dict(recur_problems())
    return [
        ("finish_next", "coiter", named_c["finish_next"]),
        ("handoff_once", "coiter", named_c["handoff_once"]),
        ("constant_label", "recur", named_r["constant_label"]),
        ("stop_parity", "recur", named_r["stop_parity"]),
    ]


# -- suites over the curated problems ---------------------------------------


def suite_corecursion(cap: int = DEFAULT_CAP, mutated: bool = False) -> list:
    reports = []
    for name, pr in coiter_problems():
        gap = pr.equation_gap(poison(pr.solve()) if mutated else pr.solve())
        reports.append(LawReport("corecursion", "problem=" + name,
                                 "fail" if gap else "pass", gap))
    return reports


def suite_recursion(cap: int = DEFAULT_CAP, mutated: bool = False) -> list:
    reports = []
    for name, pr in recur_problems():
        gap = pr.equation_gap(poison(pr.solve()) if mutated else pr.solve())
        reports.append(LawReport("recursion", "problem=" + name,
                                 "fail" if gap else "pass", gap))
    return reports


def suite_derived(cap: int = DEFAULT_CAP, mutated: bool = False) -> list:
    """Each derived solver satisfies its one-step unfolding identity."""
    reports = []

    name, w, a, b, c, f = step_variant_problem()
    sol = coiter_step(w, a, b, c, f)
    live_c = LiveSpace(w, a, c)
    lifted = live_map(live_c, LiveSpace(w, a, sol.cod), res=sol)
    once = t_compose(join_live(LiveSpace(w, a, b)), lifted)
    rhs = t_compose(t_coproduct_mor([t_identity(b), once]), f)
    gap = first_difference(sol, rhs)
    reports.append(LawReport("derived", "problem=" + name,
                             "fail" if gap else "pass", gap))

    name, w, a, b, c, f = proc_variant_problem()
    sol = coiter_proc(w, a, b, c, f)
    plain = ProcSpace(w, a, b)
    src = ProcSpace(w, a,
                    pointwise_coproduct([b, pointwise_product([a, c])]))
    res = t_coproduct_mor([t_identity(b),
                           t_product_mor([t_identity(a), sol])])
    rhs = t_compose(join(plain),
                    t_compose(proc_map(src, joining_space(plain), res=res), f))
    gap = first_difference(sol, rhs)
    reports.append(LawReport("derived", "problem=" + name,
                             "fail" if gap else "pass", gap))

    name, w, a, b, c, f = pair_variant_problem()
    sol = recur_live(w, a, b, c, f)
    base = ProcSpace(w, a, b)
    inner = t_compose(proc_map(expanded_space(base), ProcSpace(w, c, b), act=sol),
                      expand(base))
    rhs = t_compose(f, t_product_mor([t_identity(a), inner]))
    gap = first_difference(sol, rhs)
    reports.append(LawReport("derived", "problem=" + name,
                             "fail" if gap else "pass", gap))
    return reports


def suite_uniqueness(cap: int = DEFAULT_CAP, mutated: bool = False) -> list:
    """Exhaustive search over all natural candidates confirms that exactly
    one satisfies each defining equation, and that it is the solver's."""
    reports = []
    for name, kind, pr in uniqueness_problems():
        label = "problem=" + name
        dom, cod = ((pr.c, pr.target.obj) if kind == "coiter"
                    else (pr.source.obj, pr.c))
        try:
            cands = enumerate_nat_trans(dom, cod, cap=cap)
            matches = [x for x in cands if pr.equation_gap(x) is None]
        except CapExceeded as e:
            reports.append(LawReport("uniqueness", label, "cap", str(e)))
            continue
        sol = pr.solve()
        if len(matches) == 1 and mor_equal(matches[0], sol):
            reports.append(LawReport("uniqueness", label, "pass"))
        else:
            witness = (f"{len(matches)} of {len(cands)} natural candidates "
                       f"satisfy the equation, expected exactly the solver's")
            reports.append(LawReport("uniqueness", label, "fail", witness))
    return reports


def suite_two_exit(cap: int = DEFAULT_CAP, mutated: bool = False) -> list:
    reports = []
    for name, pr, one_exit in two_exit_problems():
        label = "problem=" + name
        try:
            rep = check_roundtrips(pr, one_exit, cap=cap)
        except CapExceeded as e:
            reports.append(LawReport("two_exit", label, "cap", str(e)))
            continue
        if rep.ok:
            reports.append(LawReport("two_exit", label, "pass"))
        else:
            reports.append(LawReport("two_exit", label, "fail", repr(rep)))
    return reports


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


def run_suites(names: Optional[Sequence[str]] = None, cap: int = DEFAULT_CAP,
               mutate: Optional[str] = None) -> list:
    """Run the selected suites (all by default) and return their reports
    sorted by suite then instance.  ``mutate`` names one of the seven
    mutations (see `MUTATIONS`); the matching suite then runs against the
    broken operation or solution and is expected to fail."""
    chosen = sorted(SUITES) if names is None else sorted(set(names))
    for n in chosen:
        if n not in SUITES:
            raise ValueError(f"unknown suite: {n}")
    if mutate is not None:
        if mutate not in MUTATIONS:
            raise ValueError(f"unknown mutation: {mutate}")
        if mutate not in chosen:
            raise ValueError(
                f"mutation {mutate} targets a suite that is not selected"
            )
    reports = []
    for n in chosen:
        reports.extend(SUITES[n](cap=cap, mutated=(n == mutate)))
    reports.sort(key=lambda r: (r.suite, r.instance))
    return reports
