"""Layer spans and counters for the traced run, installed from outside the
program by rebinding names.

Every proccat module imports what it uses from the other modules under
its own names (`compose as f_compose`, the `_MAKERS` and `SUITES` dicts),
so a call crosses a layer boundary only through such a binding or through
a method of a class another layer defined.  `install` rebinds each of
those to a wrapper.  A wrapper opens a span when its layer differs from
the layer of the innermost open span, so a callback that a lower layer
runs (a `step` passed to `fin_mor`) is charged to its own layer as soon as
it calls back into one.

Nothing is kept per call.  Spans are folded as they close into self time
per layer and count plus time per caller-layer/callee pair, so memory
stays bounded however many millions of crossings a run makes.  Counters
whose bookkeeping costs time (value fingerprints for the duplicate
shares) run outside the spans and are reported as `trace.hook_s`, so
that the layer self times plus `trace.hook_s` add up to the traced wall
time.
"""
from __future__ import annotations

import importlib
import inspect
import time
import types
from collections import defaultdict

LAYERS = ("times", "finset", "temporal", "process", "operators",
          "fixpoints", "twoexit", "laws", "cli")
SUITE_NAMES = ("corecursion", "derived", "expansion", "functor",
               "interaction", "joining", "merging", "naturality", "nonstop",
               "recursion", "two_exit", "uniqueness")

# Methods left unwrapped: each is a field read or a dict lookup, cheaper
# than the wrapper itself, so a span around it would time the tracer.
TRIVIAL = {"at", "res"}
# Records built once per carrier element; the wrapper would cost as much
# as the construction, so their time stays with the layer that builds them.
RECORDS = {"Atom", "Tup", "Inj", "FnTab", "Terminated", "Ongoing"}


def _traced_method(cls, attr: str, meth) -> bool:
    if cls.__name__ in RECORDS or attr in TRIVIAL:
        return False
    if not isinstance(meth, types.FunctionType) or inspect.isgeneratorfunction(meth):
        return False
    if attr.startswith("__"):
        return attr in ("__init__", "__contains__") or (
            attr == "__eq__" and cls.__name__ in ("FinObj", "FinMor"))
    return True


def _fingerprint_obj(obj) -> int:
    """Hash of a temporal object's value: carriers and restriction tables."""
    return hash((
        obj.scale.points,
        tuple(obj.carrier.items()),
        tuple((m, f.dom, f.cod, frozenset(f.table.items()))
              for m, f in obj.restrict.items()),
    ))


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        # Open spans, innermost last: [layer, start, time in child spans].
        self.stack = [["bench", 0.0, 0.0]]
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls_in = dict.fromkeys(LAYERS, 0)
        self.pairs = defaultdict(lambda: [0, 0.0])
        self.counts = defaultdict(int)
        self.timers = defaultdict(float)
        self.hook_s = 0.0
        self.seen = defaultdict(set)
        self.max_carrier = 0

    # -- wrappers ---------------------------------------------------------

    def wrap(self, fn, layer: str, name: str, count=None, timer=None, hook=None):
        """A stand-in for fn that opens a span on entry into `layer` from
        another layer, counts every call under `count`, adds its inclusive
        time to `timer`, and passes (args, result) to `hook`."""
        stack, clock, tracer = self.stack, self.clock, self
        counts, timers = self.counts, self.timers

        def traced(*args, **kwargs):
            if count is not None:
                counts[count] += 1
            top = stack[-1]
            if top[0] == layer:
                if timer is None and hook is None:
                    return fn(*args, **kwargs)
                start = clock()
                result = fn(*args, **kwargs)
                if timer is not None:
                    timers[timer] += clock() - start
                if hook is not None:
                    tracer._run_hook(hook, top, args, result)
                return result
            frame = [layer, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    tracer._run_hook(hook, frame, args, result)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                tracer.self_s[layer] += dur - frame[2]
                top[2] += dur
                tracer.calls_in[layer] += 1
                pair = tracer.pairs[(top[0], name)]
                pair[0] += 1
                pair[1] += dur
                if timer is not None:
                    timers[timer] += dur
            return result

        traced.__wrapped__ = fn
        return traced

    def _run_hook(self, hook, frame, args, result) -> None:
        start = self.clock()
        hook(args, result)
        spent = self.clock() - start
        frame[2] += spent
        self.hook_s += spent

    def dup(self, kind: str, key) -> None:
        """Count one construction, and a duplicate when an equal value was
        already built in this run."""
        seen = self.seen[kind]
        self.counts[kind + ".built"] += 1
        if key in seen:
            self.counts[kind + ".dups"] += 1
        else:
            seen.add(key)

    # -- report -----------------------------------------------------------

    def raw(self) -> dict:
        """Everything measured, as plain numbers that several processes'
        records can be summed over (see `merge`)."""
        counts = dict(self.counts)
        counts["trace.hook_s"] = self.hook_s
        for layer in LAYERS:
            counts[layer + ".self_s"] = self.self_s[layer]
            counts[layer + ".calls_in"] = self.calls_in[layer]
        for key, secs in self.timers.items():
            counts["timer." + key] = secs
        return {"sums": counts, "max_carrier": self.max_carrier,
                "pairs": [[caller, callee, n, secs]
                          for (caller, callee), (n, secs) in self.pairs.items()]}


def merge(raws: list) -> dict:
    sums, pairs, top = defaultdict(float), defaultdict(lambda: [0, 0.0]), 0
    for raw in raws:
        for key, value in raw["sums"].items():
            sums[key] += value
        for caller, callee, n, secs in raw["pairs"]:
            pairs[(caller, callee)][0] += n
            pairs[(caller, callee)][1] += secs
        top = max(top, raw["max_carrier"])
    return {"sums": dict(sums), "max_carrier": top,
            "pairs": [[a, b, n, s] for (a, b), (n, s) in pairs.items()]}


COUNTS = {
    "finset": ("objs_built", "obj_elems", "maps_built", "map_entries",
               "compose_calls", "obj_eq_calls", "contains_calls",
               "enum_mors_listed"),
    "temporal": ("objs_built", "pointwise_built", "functor_checks",
                 "naturality_checks", "first_difference_calls",
                 "exp_end_built", "nat_trans_space", "nat_trans_found"),
    "process": ("carrier_elems", "encode_calls", "decode_calls", "maps_built"),
    "operators": ("expand_calls", "join_calls", "merge_spaces", "space_calls"),
    "fixpoints": ("solve_calls", "gap_calls"),
    "twoexit": ("graft_calls", "candidates", "solutions"),
    "laws": ("cases", "diagrams"),
    "times": ("indices_calls", "index_mors_calls"),
}


def metrics(raw: dict, src_lines: dict) -> dict:
    """Per-layer metrics by name, as (value, unit)."""
    c = defaultdict(float, raw["sums"])

    def share(part: str, whole: str) -> float:
        return c[part] / c[whole] if c[whole] else 0.0

    def timer(key: str) -> float:
        return c["timer." + key]

    out = {}
    for layer in LAYERS:
        out[layer + ".self_s"] = (c[layer + ".self_s"], "s")
        out[layer + ".calls_in"] = (int(c[layer + ".calls_in"]), "count")
        out[layer + ".src_lines"] = (src_lines[layer], "lines")
    for layer, names in COUNTS.items():
        for name in names:
            out[f"{layer}.{name}"] = (int(c[f"{layer}.{name}"]), "count")
    out["temporal.pointwise_dup_share"] = (share("pointwise.dups", "pointwise.built"), "share")
    out["process.spaces_built"] = (int(c["space.built"]), "count")
    out["process.space_dup_share"] = (share("space.dups", "space.built"), "share")
    out["process.max_carrier"] = (raw["max_carrier"], "count")
    out["twoexit.solution_yield"] = (share("twoexit.solutions", "twoexit.candidates"), "share")
    for suite in SUITE_NAMES:
        out["laws.suite_s." + suite] = (timer("suite." + suite), "s")
    out["cli.parse_s"] = (timer("parse"), "s")
    out["cli.render_s"] = (timer("render"), "s")
    # Writing reports and printing carriers: what the subcommands spend
    # outside the harness, the descriptor parser and the renderer.
    out["cli.report_s"] = (timer("cmd_check") + timer("cmd_dump") - timer("run_suites")
                           - timer("parse") - timer("render"), "s")
    out["trace.hook_s"] = (c["trace.hook_s"], "s")
    return out


def top_pairs(raw: dict, limit: int = 20) -> list:
    """The caller-layer/callee pairs that took the most time, inclusive."""
    return sorted(raw["pairs"], key=lambda p: -p[3])[:limit]


# -- installation -------------------------------------------------------------


def _hooks(tr: Tracer, mods: dict) -> dict:
    """Counters and timers, keyed by (layer, qualified name)."""
    c = tr.counts
    nat_trans_space = mods["temporal"].nat_trans_space

    def obj_init(args, _):
        c["finset.obj_elems"] += len(args[0].elements)

    def map_init(args, _):
        c["finset.map_entries"] += len(args[0].table)

    def listed(key):
        def hook(_, result):
            c[key] += len(result)
        return hook

    def pointwise(kind):
        def hook(args, _):
            tr.dup("pointwise", (kind, tuple(_fingerprint_obj(f) for f in args[0])))
        return hook

    def nat_trans(args, result):
        c["temporal.nat_trans_space"] += nat_trans_space(args[0], args[1])
        c["temporal.nat_trans_found"] += len(result)

    def space_init(args, _):
        sp = args[0]
        sizes = [len(x) for x in sp._carriers.values()]
        c["process.carrier_elems"] += sum(sizes)
        tr.max_carrier = max([tr.max_carrier, *sizes])
        tr.dup("space", (repr(sp.w), _fingerprint_obj(sp.a), _fingerprint_obj(sp.b)))

    def is_solution(_, result):
        c["twoexit.solutions"] += bool(result)

    def cases(_, result):
        c["laws.cases"] += len(result)

    spec = {
        ("finset", "FinObj.__init__"): dict(count="finset.objs_built", hook=obj_init),
        ("finset", "FinMor.__init__"): dict(count="finset.maps_built", hook=map_init),
        ("finset", "FinObj.__eq__"): dict(count="finset.obj_eq_calls"),
        ("finset", "FinObj.__contains__"): dict(count="finset.contains_calls"),
        ("finset", "compose"): dict(count="finset.compose_calls"),
        ("finset", "enumerate_mors"): dict(hook=listed("finset.enum_mors_listed")),
        ("temporal", "TemporalObj.__init__"): dict(count="temporal.objs_built"),
        ("temporal", "pointwise_product"): dict(count="temporal.pointwise_built",
                                                hook=pointwise("prod")),
        ("temporal", "pointwise_coproduct"): dict(count="temporal.pointwise_built",
                                                  hook=pointwise("sum")),
        ("temporal", "check_functor"): dict(count="temporal.functor_checks"),
        ("temporal", "naturality_witness"): dict(count="temporal.naturality_checks"),
        ("temporal", "first_difference"): dict(count="temporal.first_difference_calls"),
        ("temporal", "exponential_end"): dict(count="temporal.exp_end_built"),
        ("temporal", "enumerate_nat_trans"): dict(hook=nat_trans),
        ("process", "ProcSpace.__init__"): dict(hook=space_init),
        ("process", "ProcSpace.encode"): dict(count="process.encode_calls"),
        ("process", "ProcSpace.decode"): dict(count="process.decode_calls"),
        ("process", "proc_map"): dict(count="process.maps_built"),
        ("process", "live_map"): dict(count="process.maps_built"),
        ("process", "step_map"): dict(count="process.maps_built"),
        ("operators", "MergeSpace.__init__"): dict(count="operators.merge_spaces"),
        ("operators", "expanded_space"): dict(count="operators.space_calls"),
        ("operators", "joining_space"): dict(count="operators.space_calls"),
        ("fixpoints", "CoiterProblem.solve"): dict(count="fixpoints.solve_calls"),
        ("fixpoints", "RecurProblem.solve"): dict(count="fixpoints.solve_calls"),
        ("fixpoints", "CoiterProblem.equation_gap"): dict(count="fixpoints.gap_calls"),
        ("fixpoints", "RecurProblem.equation_gap"): dict(count="fixpoints.gap_calls"),
        ("twoexit", "TwoExitProblem.graft"): dict(count="twoexit.graft_calls"),
        ("twoexit", "TwoExitProblem.is_solution"): dict(count="twoexit.candidates",
                                                        hook=is_solution),
        ("laws", "check_diagram"): dict(count="laws.diagrams"),
        ("laws", "run_suites"): dict(timer="run_suites"),
        ("times", "TimeScale.indices"): dict(count="times.indices_calls"),
        ("times", "TimeScale.index_mors"): dict(count="times.index_mors_calls"),
        ("cli", "main"): dict(),
        ("cli", "parse_descriptor"): dict(timer="parse"),
        ("cli", "_render_element"): dict(timer="render"),
        ("cli", "cmd_check"): dict(timer="cmd_check"),
        ("cli", "cmd_dump"): dict(timer="cmd_dump"),
    }
    for op in ("expand", "expand_live", "expand_step"):
        spec[("operators", op)] = dict(count="operators.expand_calls")
    for op in ("join", "join_live", "join_step"):
        spec[("operators", op)] = dict(count="operators.join_calls")
    for suite in SUITE_NAMES:
        spec[("laws", "suite_" + suite)] = dict(timer="suite." + suite, hook=cases)
    return spec


def _layer_of(obj):
    module = getattr(obj, "__module__", None) or ""
    if module.startswith("proccat."):
        layer = module.split(".", 1)[1]
        return layer if layer in LAYERS else None
    return None


def install(tr: Tracer) -> None:
    """Rebind every cross-layer name in proccat to a traced wrapper.

    A function's own module keeps calling it directly (recursion inside
    `elem_key` stays unwrapped) unless a counter or timer needs every
    call.
    """
    mods = {layer: importlib.import_module("proccat." + layer) for layer in LAYERS}
    spec = _hooks(tr, mods)
    wrappers = {}

    def wrapper_for(fn, layer, qualname):
        if id(fn) not in wrappers:
            wrappers[id(fn)] = tr.wrap(fn, layer, f"{layer}.{qualname}",
                                       **spec.get((layer, qualname), {}))
        return wrappers[id(fn)]

    for layer, mod in mods.items():
        for value in list(vars(mod).values()):
            if isinstance(value, type) and _layer_of(value) == layer:
                for attr, meth in list(vars(value).items()):
                    if _traced_method(value, attr, meth):
                        setattr(value, attr,
                                wrapper_for(meth, layer, f"{value.__name__}.{attr}"))

    def traced_value(value, owner):
        if not isinstance(value, types.FunctionType) or inspect.isgeneratorfunction(value):
            return None
        layer = _layer_of(value)
        if layer is None:
            return None
        if layer == owner and (layer, value.__name__) not in spec:
            return None
        return wrapper_for(value, layer, value.__name__)

    for owner, mod in mods.items():
        for name, value in list(vars(mod).items()):
            new = traced_value(value, owner)
            if new is not None:
                setattr(mod, name, new)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    new = traced_value(item, None)
                    if new is not None:
                        value[key] = new
