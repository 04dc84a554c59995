"""End-to-end gate for the whole package.

Each test prints one summary line (run with ``pytest -s`` to see them all)
and then asserts, so the module doubles as a human-readable checklist and
as an ordinary test file.
"""

import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from proccat.cli import main as cli_main
from proccat.laws import (
    MUTATIONS,
    coiter_problems,
    run_suites,
    suite_functor,
    two_exit_problems,
)
from proccat.process import (
    ProcSpace,
    behavior_live_space,
    event_space,
)
from proccat.times import TimeScale, UNBOUNDED
from proccat.temporal import unit_obj
from proccat.twoexit import check_roundtrips

SCALE = TimeScale.of(0, 1, 2)
# The full machine report saved before any optimisation of the element layer.
GOLDEN_REPORT = Path(__file__).parent / "fixtures" / "golden_report.jsonl"


def _report(num: int, name: str, ok: bool) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {verdict}")
    assert ok, f"acceptance criterion {num} ({name})"


def test_criterion_1_functor_grid(capsys):
    started = time.perf_counter()
    reports = suite_functor()
    elapsed = time.perf_counter() - started
    ok = all([
        len(reports) == 72,
        all(r.verdict == "pass" for r in reports),
        elapsed < 60.0,
    ])
    with capsys.disabled():
        _report(1, "restriction functors on the full grid", ok)


def test_criterion_2_structure_laws_and_mutations(full_reports, capsys):
    suites = ("expansion", "joining", "interaction", "merging", "nonstop")
    clean = [r for r in full_reports if r.suite in suites]
    ok = bool(clean) and all(r.verdict == "pass" for r in clean)
    for m in MUTATIONS:
        failures = [r for r in run_suites([m], mutate=m)
                    if r.verdict == "fail"]
        ok = ok and bool(failures) and all(r.witness for r in failures)
    with capsys.disabled():
        _report(2, "structural laws pass and every mutation is caught", ok)


def test_criterion_3_fixpoints_unique(full_reports, capsys):
    solved = [r for r in full_reports
              if r.suite in ("corecursion", "recursion")]
    unique = [r for r in full_reports if r.suite == "uniqueness"]
    ok = all([
        len(solved) >= 6,
        all(r.verdict == "pass" for r in solved),
        sum(1 for r in unique if r.verdict == "pass") >= 3,
    ])
    with capsys.disabled():
        _report(3, "solver outputs solve their equations uniquely", ok)


def test_criterion_4_one_step_unfoldings(full_reports, capsys):
    derived = [r for r in full_reports if r.suite == "derived"]
    ok = len(derived) == 3 and all(r.verdict == "pass" for r in derived)
    with capsys.disabled():
        _report(4, "single-step unfolding operators agree", ok)


def test_criterion_5_two_exit_equivalence(full_reports, capsys):
    summary = [r for r in full_reports if r.suite == "two_exit"]
    ok = len(summary) >= 3 and all(r.verdict == "pass" for r in summary)
    for name, pr, one_exit in two_exit_problems(coiter_problems()):
        ok = ok and check_roundtrips(pr, one_exit=one_exit) is None
    with capsys.disabled():
        _report(5, "two-exit and one-exit formulations interchange", ok)


def test_criterion_6_frozen_carrier_counts(capsys):
    u = unit_obj(SCALE)
    full = ProcSpace(UNBOUNDED, u, u)
    cut = ProcSpace(Fraction(1), u, u)
    expected = [
        (full.obj.at(SCALE.pair(0, 2)), 3),
        (full.obj.at(SCALE.pair(2, 2)), 1),
        (behavior_live_space(u).obj.at(SCALE.pair(0, 2)), 1),
        (event_space(u).obj.at(SCALE.pair(0, 2)), 2),
        (cut.obj.at(SCALE.pair(2, 2)), 0),
    ]
    ok = all(len(carrier) == n for carrier, n in expected)
    with capsys.disabled():
        _report(6, "carrier sizes match the frozen counts", ok)


def test_criterion_7_scale_validator_examples(capsys):
    with capsys.disabled():
        code_a = cli_main(["scale", "validate", "finite(0,1,2)"])
        code_b = cli_main(
            ["scale", "validate", "union(desc_above(0), desc_above(1))"])
        code_c = cli_main(["scale", "validate", "asc_below(1)"])
        _report(7, "scale validator CLI examples reproduce their codes",
                (code_a, code_b, code_c) == (0, 0, 1))


def test_criterion_8_deterministic_check_runs(tmp_path, capsys):
    outs = []
    for sub in ("first", "second"):
        done = subprocess.run(
            [sys.executable, "-c",
             "import sys; from proccat.cli import main; sys.exit(main())",
             "check", "--format", "machine",
             "--out", str(tmp_path / sub)],
            capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        outs.append(done.stdout)
    first = (tmp_path / "first" / "report.jsonl").read_bytes()
    second = (tmp_path / "second" / "report.jsonl").read_bytes()
    ok = first == second and outs[0] == outs[1] and len(first) > 0
    ok = ok and first == GOLDEN_REPORT.read_bytes()
    with capsys.disabled():
        _report(8, "consecutive full check runs are byte-identical", ok)
