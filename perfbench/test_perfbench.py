"""Tests of the benchmark itself.

    python3 -m pytest perfbench
"""
import contextlib
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def small_descriptors(seed: int, count: int) -> list:
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        node = oracle._gen_space(rng, 2)
        if oracle.count_exp(node) > 1 or not oracle._exp_ok(node):
            continue
        if max(oracle.sizes(node).values()) <= 120 and oracle.cost_of(node).elems <= 1500:
            out.append(node)
    return out


def dumped_size(text: str, t: int, t0: int) -> int:
    from proccat.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["dump", text, str(t), str(t0)]) == 0
    lines = buf.getvalue().splitlines()
    assert len(set(lines[2:])) == len(lines) - 2
    return int(lines[1].split()[1])


def test_oracle_agrees_with_dump_on_small_descriptors():
    for node in small_descriptors(5, 25):
        text = oracle.render(node)
        predicted = oracle.sizes(node)
        for t, t0 in oracle.INDICES:
            assert dumped_size(text, t, t0) == predicted[(t, t0)], (text, t, t0)


def test_pool_descriptors_render_from_their_trees_and_lie_in_the_band():
    pool = run.load_pool()
    assert len(pool) >= 3 * run.DUMPS_PER_PASS
    for item in pool:
        assert oracle.render(item["tree"]) == item["descriptor"]
        assert oracle.in_band(item["tree"])


def test_seed_changes_the_dump_draw_and_leaves_the_harness_alone():
    assert run.plan("carrier_dump", 1) == run.plan("carrier_dump", 1)
    assert run.plan("carrier_dump", 1) != run.plan("carrier_dump", 2)
    for workload in run.HARNESS:
        assert run.plan(workload, 1) == run.plan(workload, 2)


def test_every_draw_asks_for_the_same_work():
    pool = run.load_pool()
    by_text = {item["descriptor"]: item for item in pool}
    target = run.DUMPS_PER_PASS * sum(item["seed_s"] for item in pool) / len(pool)
    for seed in range(10):
        chosen = run.draw(seed, pool)
        assert len({text for text, _ in chosen}) == run.DUMPS_PER_PASS
        total = sum(by_text[text]["seed_s"] for text, _ in chosen)
        assert abs(total / target - 1) < 0.01


def test_metric_names_and_units_are_well_formed():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    names = [w["name"] for w in BENCH["workloads"]]
    names += [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in BENCH["end_to_end"] + BENCH["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])
    assert {w["name"] for w in BENCH["workloads"]} == set(run.WORKLOADS)


def test_per_layer_metrics_are_exactly_what_the_traced_run_reports():
    empty = {"sums": {}, "max_carrier": 0, "pairs": []}
    reported = set(spans.metrics(empty, run.src_lines())) | {"trace.wall_s", "trace.overhead_s"}
    assert reported == {m["name"] for m in BENCH["per_layer"]}


def test_each_invocation_runs_in_a_fresh_interpreter():
    run.fresh_workdir()
    deadline = time.monotonic() + 60
    argv = ["dump", "flag(3) |>''[inf] unit", "0", "2"]
    first = run.spawn(argv, False, "a", deadline)
    second = run.spawn(argv, False, "b", deadline)
    assert first["code"] == second["code"] == 0
    assert len({first["pid"], second["pid"], os.getpid()}) == 3
    assert run.check_dump(first["stdout"], 13)


def test_dump_check_rejects_wrong_listings():
    good = b"index (0, 2)\nsize 2\n  a\n  b\n"
    assert run.check_dump(good, 2)
    assert not run.check_dump(good, 3)
    assert not run.check_dump(b"index (0, 2)\nsize 2\n  a\n  a\n", 2)
    assert not run.check_dump(b"index (0, 1)\nsize 2\n  a\n  b\n", 2)


def test_report_check_counts_wrong_cases():
    expected = {"joining": 2, "nonstop": 1}

    def report(*cases):
        return "".join(json.dumps({"suite": suite, "instance": str(k), "verdict": verdict,
                                   "witness": None, "millis": 0}) + "\n"
                       for k, (suite, verdict) in enumerate(cases)).encode()

    good = [("joining", "pass"), ("joining", "pass"), ("nonstop", "pass")]
    assert run.failed_cases(report(*good), expected) == 0
    assert run.failed_cases(report(good[0], ("joining", "fail"), good[2]), expected) == 1
    assert run.failed_cases(report(good[0], good[2]), expected) == 2
    assert run.failed_cases(report(*good, ("merging", "pass")), expected) == 3


def test_traced_self_times_add_up_to_the_traced_wall_time():
    run.fresh_workdir()
    result = run.spawn(["dump", "flag(16) |>''[inf] unit", "0", "2"], True, "t",
                       time.monotonic() + 60)
    assert result["code"] == 0
    metrics = spans.metrics(spans.merge([result["trace"]]), run.src_lines())
    covered = sum(metrics[f"{layer}.self_s"][0] for layer in spans.LAYERS)
    covered += metrics["trace.hook_s"][0]
    assert abs(covered - result["wall_s"]) < 0.01 * result["wall_s"] + 1e-3
    assert metrics["process.spaces_built"][0] >= 1
    assert metrics["finset.contains_calls"][0] > 0
    assert metrics["cli.parse_s"][0] > 0


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "carrier_dump",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
