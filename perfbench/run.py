"""The proccat benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; proccat is imported from src/.
Every repetition runs in a fresh interpreter (perfbench/child.py), since
every `proccat` invocation a user makes starts its caches from empty.

Workloads (see BENCHMARK.json and perfbench/METRICS.md for why each):
  grid_laws      proccat check over the seven grid suites (510 cases)
  solver_search  proccat check over the five solver suites (21 cases)
  carrier_dump   a seeded draw of `proccat dump <descriptor> 0 2` calls

With --trace 0 the run sets up (interpreter start through
`import proccat.cli`, median of SETUP_SPAWNS), then repeats the workload
while another repetition still fits in --seconds, and reports the
end-to-end metrics: wall_s (median repetition), setup_s, cpu_s,
peak_rss_mb and pass_share.  With --trace 1 it runs one repetition plain
and one under the layer tracer (perfbench/spans.py) and reports the
per-layer metrics plus the tracing overhead.  Every repetition's output
is checked against known answers; the last line of stdout is the JSON
result, and the lines before it give samples, percentiles and machine
context.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
ENV = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")

# Expected case count per suite; every case must pass.
HARNESS = {
    "grid_laws": {"expansion": 72, "functor": 72, "interaction": 72, "joining": 72,
                  "merging": 75, "naturality": 144, "nonstop": 3},
    "solver_search": {"corecursion": 5, "derived": 3, "recursion": 5,
                      "two_exit": 4, "uniqueness": 4},
}
WORKLOADS = (*HARNESS, "carrier_dump")
SETUP_SPAWNS = 15
DUMPS_PER_PASS = 8
# A run must end well inside the 180 s a benchmark run is allowed.
DEADLINE_S = 150.0


def fresh_workdir() -> None:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()


def spawn(args: list, trace: bool, tag: str, deadline: float) -> dict:
    """Run one proccat invocation in a fresh interpreter.

    Returns its exit code, the wall time of `main` measured inside it,
    its CPU seconds and peak resident memory, its stdout and, when
    traced, the tracer's raw sums.  A child still running at `deadline`
    (a time.monotonic() value) is killed and counts as failed.
    """
    record, out = WORK / f"{tag}.json", WORK / f"{tag}.out"
    cmd = [sys.executable, str(HERE / "child.py"), str(record), "1" if trace else "0",
           "--", *args]
    with open(out, "wb") as stdout, open(WORK / f"{tag}.err", "wb") as stderr:
        proc = subprocess.Popen(cmd, stdout=stdout, stderr=stderr, cwd=WORK, env=ENV)
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.005)
        proc.returncode = os.waitstatus_to_exitcode(status)
    result = {"code": proc.returncode, "wall_s": None, "trace": None, "pid": None,
              "cpu_s": usage.ru_utime + usage.ru_stime,
              "rss_mb": usage.ru_maxrss / 1024.0,
              "stdout": out.read_bytes()}
    if proc.returncode == 0 and record.is_file():
        inner = json.loads(record.read_text(encoding="utf-8"))
        result.update(code=inner["code"], wall_s=inner["wall_s"], pid=inner["pid"],
                      trace=inner.get("trace"))
    return result


def setup_seconds() -> tuple:
    """Median wall time of a fresh interpreter importing proccat.cli,
    after one unmeasured spawn that leaves the bytecode cache warm."""
    cmd = [sys.executable, "-c", "import proccat.cli"]
    subprocess.run(cmd, env=ENV, cwd=WORK, check=True)
    times = []
    for _ in range(SETUP_SPAWNS):
        start = time.perf_counter()
        subprocess.run(cmd, env=ENV, cwd=WORK, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times), times


# -- repetitions ----------------------------------------------------------------


class Rep:
    """One repetition: its timings, its resource use and its checks."""

    def __init__(self):
        self.walls = []  # one per proccat invocation
        self.cpu_s = 0.0
        self.rss_mb = 0.0
        self.attempted = 0
        self.failed = 0
        self.digest = None
        self.traces = []

    @property
    def wall_s(self) -> float:
        return sum(self.walls)

    def add(self, result: dict) -> None:
        self.walls.append(result["wall_s"] or 0.0)
        self.cpu_s += result["cpu_s"]
        self.rss_mb = max(self.rss_mb, result["rss_mb"])
        if result["trace"] is not None:
            self.traces.append(result["trace"])


def plan(workload: str, seed: int) -> list:
    """The proccat invocations of one repetition, each with the carrier
    size its output must show (None for the harness).  Only the
    carrier_dump draw depends on the seed."""
    if workload in HARNESS:
        return [(["check", "--suites", ",".join(HARNESS[workload])], None)]
    return [(["dump", text, "0", "2"], size) for text, size in draw(seed, load_pool())]


def harness_rep(workload: str, argv: list, k: int, trace: bool, deadline: float) -> Rep:
    expected = HARNESS[workload]
    out_dir = WORK / f"rep{k}"
    result = spawn([*argv, "--out", str(out_dir)], trace, f"rep{k}", deadline)
    rep = Rep()
    rep.add(result)
    rep.attempted = sum(expected.values())
    report = out_dir / "report.jsonl"
    if result["code"] != 0 or not report.is_file():
        rep.failed = rep.attempted
        return rep
    data = report.read_bytes()
    rep.digest = hashlib.sha256(data).hexdigest()
    rep.failed = failed_cases(data, expected)
    return rep


def failed_cases(report: bytes, expected: dict) -> int:
    """Cases of a report.jsonl that differ from the known answer: every
    case of a suite whose case count is wrong, every case not `pass`, and
    all of them when the report names other suites."""
    seen, passed = {}, {}
    for line in report.decode("utf-8").splitlines():
        case = json.loads(line)
        seen[case["suite"]] = seen.get(case["suite"], 0) + 1
        passed[case["suite"]] = passed.get(case["suite"], 0) + (case["verdict"] == "pass")
    if set(seen) != set(expected):
        return sum(expected.values())
    return sum(count - passed[suite] if seen[suite] == count else count
               for suite, count in expected.items())


def check_dump(stdout: bytes, size: int) -> bool:
    """The listing names the index, the oracle's size, and that many
    distinct elements."""
    lines = stdout.decode("utf-8").splitlines()
    body = lines[2:]
    return (lines[:2] == ["index (0, 2)", f"size {size}"]
            and len(body) == size
            and all(line.startswith("  ") for line in body)
            and len(set(body)) == size)


def dump_rep(invocations: list, k: int, trace: bool, deadline: float) -> Rep:
    rep = Rep()
    listings = hashlib.sha256()
    for j, (argv, size) in enumerate(invocations):
        result = spawn(argv, trace, f"rep{k}_{j}", deadline)
        rep.add(result)
        rep.attempted += 1
        rep.failed += not (result["code"] == 0 and check_dump(result["stdout"], size))
        listings.update(result["stdout"])
    rep.digest = listings.hexdigest()
    return rep


# -- the carrier_dump draw ------------------------------------------------------


def _untuple(node):
    return tuple(_untuple(x) if isinstance(x, list) else x for x in node)


def load_pool() -> list:
    pool = json.loads((HERE / "pool.json").read_text(encoding="utf-8"))
    for item in pool:
        item["tree"] = _untuple(item["tree"])
    return pool


def draw(seed: int, pool: list, count: int = DUMPS_PER_PASS) -> list:
    """`count` descriptors from the pool, chosen and ordered by the seed,
    whose seed-code seconds and built elements both sum to within 1% of
    `count` average pool entries.  Balancing on both keeps the requested
    work the same across seeds now, and after a change that makes dumps
    grow with the element count instead of its square.

    Returns (descriptor, oracle size at (0, 2)) pairs.
    """
    rng = random.Random(seed)
    cost = [item["seed_s"] for item in pool]
    elems = [oracle.cost_of(item["tree"]).elems for item in pool]
    want_cost = count * statistics.fmean(cost)
    want_elems = count * statistics.fmean(elems)

    def error(chosen) -> float:
        return max(abs(sum(cost[i] for i in chosen) / want_cost - 1),
                   abs(sum(elems[i] for i in chosen) / want_elems - 1))

    chosen = rng.sample(range(len(pool)), count)
    best = error(chosen)
    for _ in range(20000):
        if best < 0.01:
            break
        trial = list(chosen)
        trial[rng.randrange(count)] = rng.choice(
            [i for i in range(len(pool)) if i not in chosen])
        if error(trial) < best:
            chosen, best = trial, error(trial)
    return [(pool[i]["descriptor"], oracle.sizes(pool[i]["tree"])[oracle.DUMP_INDEX])
            for i in chosen]


# -- reporting --------------------------------------------------------------------


def summary(name: str, samples: list) -> str:
    """Median, sample count and the highest percentile that has at least
    ten samples beyond it."""
    ordered = sorted(samples)
    line = f"# {name}: n={len(ordered)} median={statistics.median(ordered):.6f}"
    if len(ordered) >= 11:
        idx = len(ordered) - 11
        line += f" p{100 * (idx + 1) // len(ordered)}={ordered[idx]:.6f}"
    return line


def machine_context() -> str:
    model = platform.processor() or platform.machine()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text(errors="replace").splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    load = ",".join(f"{x:.2f}" for x in os.getloadavg())
    return (f"# machine: nproc={os.cpu_count()} python={platform.python_version()} "
            f"cpu={model!r} loadavg_before={load}")


def src_lines() -> dict:
    return {layer: len((SRC / "proccat" / f"{layer}.py").read_text(encoding="utf-8").splitlines())
            for layer in spans.LAYERS}


def run_reps(workload: str, seed: int, seconds: float, trace: bool,
             deadline: float) -> list:
    start = time.perf_counter()
    invocations = plan(workload, seed)
    for argv, size in invocations:
        print(f"# invocation: proccat {' '.join(argv)}"
              + ("" if size is None else f"  (size {size})"))
    if workload in HARNESS:
        def one(k, traced):
            return harness_rep(workload, invocations[0][0], k, traced, deadline)
    else:
        def one(k, traced):
            return dump_rep(invocations, k, traced, deadline)
    if trace:
        return [one(0, False), one(1, True)]
    reps, longest = [], 0.0
    while True:
        began = time.perf_counter()
        reps.append(one(len(reps), False))
        longest = max(longest, time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if elapsed + longest > seconds or time.monotonic() + longest > deadline:
            return reps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "proccat" / "cli.py").is_file():
        print(f"error: no proccat sources under {SRC}", file=sys.stderr)
        return 2
    fresh_workdir()
    print(machine_context())

    metrics = {}
    if not args.trace:
        setup, spawns = setup_seconds()
        print(summary("setup_s", spawns))
        metrics["setup_s"] = {"value": setup, "unit": "s"}
    reps = run_reps(args.workload, args.seed, args.seconds, bool(args.trace), deadline)

    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    digests = {r.digest for r in reps if r.digest is not None}
    if len(digests) > 1:  # reports must be byte-identical across repetitions
        failed = attempted
    print(f"# output sha256: {sorted(digests)}")

    if args.trace:
        plain, traced = reps
        raw = spans.merge(traced.traces)
        for name, (value, unit) in spans.metrics(raw, src_lines()).items():
            metrics[name] = {"value": value, "unit": unit}
        metrics["trace.wall_s"] = {"value": traced.wall_s, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced.wall_s - plain.wall_s, "unit": "s"}
        for caller, callee, n, secs in spans.top_pairs(raw):
            print(f"# crossing: {caller} -> {callee}: {n} calls, {secs:.6f} s")
    else:
        walls = [r.wall_s for r in reps]
        print(summary("wall_s per repetition", walls)
              + " samples=" + ",".join(f"{w:.4f}" for w in walls))
        print(summary("wall_s per invocation", [w for r in reps for w in r.walls]))
        metrics["wall_s"] = {"value": statistics.median(walls), "unit": "s"}
        metrics["cpu_s"] = {"value": statistics.median(r.cpu_s for r in reps), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": statistics.median(r.rss_mb for r in reps),
                                  "unit": "MB"}
        metrics["pass_share"] = {"value": 1 - failed / attempted, "unit": "share"}
    shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
