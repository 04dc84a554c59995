"""The benchmark's traced child, run on this source tree.

`perfbench/` lies outside the tier-1 test paths, so a change to what its
tracer reads (`ProcSpace._carriers`, `TemporalObj.restrict`,
`FinMor.table`, one module per layer) would otherwise show only in a
benchmark run.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CHILD = ROOT / "perfbench" / "child.py"


@pytest.mark.parametrize("argv", [
    ["dump", "flag(3) |>[2] unit", "0", "2"],
    ["check", "--suites", "two_exit,uniqueness", "--out", "OUT"],
], ids=["dump", "check"])
def test_the_traced_child_runs_and_counts_spaces(tmp_path, argv):
    record = tmp_path / "record.json"
    argv = [str(tmp_path / "out") if a == "OUT" else a for a in argv]
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    done = subprocess.run(
        [sys.executable, str(CHILD), str(record), "1", "--", *argv],
        capture_output=True, text=True, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))))
    assert done.returncode == 0, done.stderr
    result = json.loads(record.read_text(encoding="utf-8"))
    assert result["code"] == 0
    assert result["trace"]["sums"]["space.built"] > 0
