import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from proccat import cli, finset, laws
from proccat.cli import main, parse_command_line

GOLDEN_DUMPS = json.loads(
    (Path(__file__).parent / "fixtures" / "golden_dumps.json").read_text(encoding="utf-8"))
# `check --suites two_exit,uniqueness --cap N` per cap N: exit code and
# both report files, saved before the solver steps became positional.
# The caps sit on and around the candidate counts the searches meet.
GOLDEN_CAPPED = json.loads(
    (Path(__file__).parent / "fixtures" / "golden_capped.json").read_text(encoding="utf-8"))

# Per descriptor of the benchmark's dump pool, the SHA-256 of the JSON list
# [exit code, stdout, stderr] of `dump <descriptor> 0 2`, saved before
# natural families were joined row by row.
POOL_DUMPS = json.loads(
    (Path(__file__).parent / "fixtures" / "pool_dumps.json").read_text(encoding="utf-8"))

DUMP_FULL = """\
index (0, 2)
size 3
  term(1; ; ())
  term(2; 1 -> (); ())
  ongoing(1 -> (), 2 -> ())
"""

DUMP_BEHAVIOR = """\
index (0, 2)
size 1
  now (); ongoing(1 -> (), 2 -> ())
"""


def run(capsys, argv):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_scale_validate_accepts_finite(capsys):
    code, out, _ = run(capsys, ["scale", "validate", "finite(0, 1/2, 1)"])
    assert (code, out) == (0, "Accept\n")


def test_scale_validate_accepts_descending_union(capsys):
    code, out, _ = run(
        capsys, ["scale", "validate", "union(finite(10), desc_above(5))"])
    assert (code, out) == (0, "Accept\n")


def test_scale_validate_rejects_nested_ascents(capsys):
    code, out, _ = run(
        capsys,
        ["scale", "validate", "union(asc_below(1), asc_below(2))"])
    assert code == 1
    assert out.startswith("Reject: ")


@pytest.mark.parametrize("expr, parts", [
    ("union(desc_above(0), asc_below(1/1000000000))",
     "desc_above(0) and asc_below(1/1000000000)"),
    ("union(finite(1/2,3), union(desc_above(0)))", "finite(1/2, 3) and union(desc_above(0))"),
])
def test_scale_validate_names_overlapping_parts_in_expression_syntax(capsys, expr, parts):
    code, out, err = run(capsys, ["scale", "validate", expr])
    assert (code, out, err) == (2, "", f"error: union members overlap: {parts}\n")


def test_scale_validate_parse_error(capsys):
    code, _, err = run(capsys, ["scale", "validate", "finite(0, oops)"])
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("expr", ["desc_above(0,1)", "asc_below(1,2)"])
@pytest.mark.parametrize("command", ["scale", "check", "dump"])
def test_a_chain_takes_one_point(capsys, tmp_path, command, expr):
    # Both used to escape as "ValueError: too many values to unpack".
    argv = {"scale": ["scale", "validate", expr],
            "check": ["check", "--scale", expr, "--out", str(tmp_path)],
            "dump": ["dump", "unit", "0", "0", "--scale", expr]}[command]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == f"error: {expr[:expr.index('(')]} takes one point, got 2\n"


def test_dump_full_process_space(capsys):
    argv = ["dump", "unit |>''[inf] unit", "0", "2"]
    code, out, _ = run(capsys, argv)
    assert (code, out) == (0, DUMP_FULL)


def test_dump_behavior_space(capsys):
    code, out, _ = run(capsys, ["dump", "box' unit", "0", "2"])
    assert (code, out) == (0, DUMP_BEHAVIOR)


def test_dump_a_one_summand_sum(capsys):
    code, out, _ = run(capsys, ["dump", "sum(unit)", "0", "0"])
    assert (code, out) == (0, "index (0, 0)\nsize 1\n  in0(())\n")


def test_dump_expired_bound_is_empty(capsys):
    code, out, _ = run(capsys, ["dump", "unit |>''[1] unit", "2", "2"])
    assert code == 0
    assert out == "index (2, 2)\nsize 0\n"


@pytest.mark.parametrize("case", GOLDEN_DUMPS, ids=lambda case: case["argv"][1])
def test_dump_matches_golden_listing(capsys, case):
    # Listings saved before the element layer was hashed; `exp(...)`
    # covers the order of function-table entries.
    code, out, _ = run(capsys, case["argv"])
    assert (code, out) == (0, case["stdout"])


def test_pool_dumps_match_their_digests(capsys):
    changed = []
    for case in POOL_DUMPS:
        blob = json.dumps(run(capsys, ["dump", case["descriptor"], "0", "2"]))
        if hashlib.sha256(blob.encode()).hexdigest() != case["sha256"]:
            changed.append(case["descriptor"])
    assert len(POOL_DUMPS) == 72 and changed == []


def test_a_descriptor_is_read_before_it_is_built(capsys, monkeypatch):
    # A space too large to build is refused only once the whole
    # descriptor parses; a parse error comes first, and nothing is built.
    code, out, err = run(capsys, ["dump", "flag(2000000)", "0", "2"])
    assert (code, out) == (3, "") and "exceeds cap 1000000" in err
    monkeypatch.setattr(cli, "flag_temporal", None)
    code, out, err = run(capsys, ["dump", "flag(2000000) |>[", "0", "2"])
    assert (code, out, err) == (2, "", "error: descriptor ends unexpectedly\n")


def test_dump_builds_no_element_of_the_listed_carrier(capsys, monkeypatch):
    # The listing is read off the layout: neither the carrier nor any
    # product or coproduct inside it builds its elements (`elements` is a
    # cached_property, so a built one sits in the instance's __dict__).
    # A fresh hash-consing table keeps out carriers other tests built.
    monkeypatch.setattr(finset, "_INTERNED", {})
    parse, parsed = cli.parse_descriptor, []

    def parse_and_keep(text, scale):
        parsed.append(parse(text, scale))
        return parsed[-1]

    monkeypatch.setattr(cli, "parse_descriptor", parse_and_keep)
    code, out, _ = run(capsys, ["dump", "flag(10) |>[inf] unit", "0", "2"])
    assert code == 0 and out.startswith("index (0, 2)\nsize 1111\n")
    (space,) = parsed
    todo, structured = [space.obj.at(space.scale.pair(0, 2))], 0
    while todo:
        carrier = todo.pop()
        if carrier.kind:
            structured += 1
            assert "elements" not in vars(carrier)
            todo.extend(carrier._parts)
    # The sum with `done`, the pair with `now`, the process carrier, its
    # stopped part, and the five products under those.
    assert structured == 9


def test_dump_rejects_bad_descriptor(capsys):
    code, _, err = run(capsys, ["dump", "unit |> |>", "0", "0"])
    assert code == 2 and "error:" in err


def test_dump_rejects_a_count_that_is_not_a_decimal(capsys):
    # "²" is a digit to `str.isdigit`, but `int` cannot read it.
    code, out, err = run(capsys, ["dump", "flag(²)", "0", "2"])
    assert (code, out) == (2, "")
    assert err == "error: expected a count, got '²'\n"


@pytest.mark.parametrize("argv", [
    ["dump", "(" * 400 + "unit" + ")" * 400, "0", "2"],
    ["dump", "box " * 1200 + "unit", "0", "2"],
    ["scale", "validate", "union(" * 1200 + "finite(1)" + ")" * 1200],
    ["check", "--scale", "union(" * 700 + "finite(1)" + ")" * 700],
    ["dump", "prod(" * 400 + "unit" + ")" * 400, "0", "2"],
    ["dump", "prod(" * 400 + "unit" + ")" * 400 + " |>''[inf] unit", "0", "2"],
], ids=["dump-parentheses", "dump-prefixes", "scale-unions", "check-scale-unions",
        "dump-printed-tuples", "dump-printed-process-values"])
def test_deeply_nested_input_is_a_usage_error(capsys, monkeypatch, tmp_path, argv):
    # The parsers and printers recurse once per level of nesting; each of
    # these used to end in a RecursionError traceback.  Nested products
    # are printed from their parts' names at every depth the parser
    # reads, so the two printed forms nest past what it reads.
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (2, "", "error: input nests too deeply\n")
    assert not (tmp_path / "reports").exists()


@pytest.mark.parametrize("argv, code, err", [
    (["dump", "(" * 250 + "unit" + ")" * 250, "0", "2"], 0, ""),
    (["dump", "prod(" * 150 + "unit" + ")" * 150, "0", "2"], 0, ""),
    (["dump", "box " * 800 + "unit", "0", "2"], 0, ""),
    (["scale", "validate", "union(" * 800 + "finite(1)" + ")" * 800], 0, ""),
    (["dump", "unit", "0", "0", "--scale", "union(" * 200 + "finite(1)" + ")" * 200], 2,
     "error: only finite(..) scales can be evaluated, got "
     + "union(" * 200 + "finite(1)" + ")" * 200 + "\n"),
], ids=["dump-parentheses", "dump-products", "dump-prefixes", "scale-unions",
        "dump-scale-unions"])
def test_moderately_nested_input_is_read(capsys, argv, code, err):
    # The parsers take a fixed number of frames per level of nesting; these
    # depths lie well inside what they read at the default recursion limit.
    assert run(capsys, argv)[::2] == (code, err)


@pytest.mark.parametrize("tail, lines", [
    ("", ["{}"]),
    (" |>''[inf] unit", ["term(1; ; ())", "term(2; 1 -> {}; ())", "ongoing(1 -> {}, 2 -> {})"]),
], ids=["dump-printed-tuples", "dump-printed-process-values"])
def test_deeply_nested_tuples_are_printed(capsys, tail, lines):
    # The one element of 300 nested one-factor products of unit, printed
    # by `repr` with room for its recursion.
    element = finset.UNIT_ELEM
    for _ in range(300):
        element = finset.Tup((element,))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 2000)
    try:
        nested = repr(element)
    finally:
        sys.setrecursionlimit(limit)
    assert nested == "(" * 300 + "()" + ")" * 300
    argv = ["dump", "prod(" * 300 + "unit" + ")" * 300 + tail, "0", "2"]
    expected = "".join(f"  {line.format(nested, nested)}\n" for line in lines)
    assert run(capsys, argv) == (0, f"index (0, 2)\nsize {len(lines)}\n" + expected, "")


def test_dump_rejects_off_scale_index(capsys):
    code, _, err = run(capsys, ["dump", "unit", "2", "1"])
    assert code == 2 and "not an index" in err


@pytest.mark.parametrize("bound", ["5", "1/2"])
def test_dump_rejects_off_scale_stop_bound(capsys, bound):
    # 5 used to read as unbounded and 1/2 to empty the carrier.
    code, out, err = run(capsys, ["dump", f"unit |>''[{bound}] unit", "0", "2"])
    assert (code, out) == (2, "")
    assert err == (f"error: stop bound {bound} is not a point of the scale "
                   "{0, 1, 2}; use inf or a scale point\n")


# One bad input per message of the scale and descriptor parsers, sent
# through `scale validate`, `check --scale` and `dump`.  A refused
# `check` creates no output directory.
@pytest.mark.parametrize("argv, err", [
    (["scale", "validate", "finite(0;1)"], "unexpected character ';' in scale expression"),
    (["scale", "validate", "finite(0,"], "unexpected end of scale expression"),
    (["scale", "validate", "finite(0 1)"], "expected ')', got '1'"),
    (["check", "--scale", "asc_below(1,2)"], "asc_below takes one point, got 2"),
    (["scale", "validate", "circle(0)"], "unknown scale constructor 'circle'"),
    (["scale", "validate", "finite(0) finite(1)"],
     "trailing input after scale expression: 'finite'"),
    (["scale", "validate", "finite()"], "finite takes at least one point"),
    (["dump", "unit", "0", "0", "--scale", "desc_above()"], "desc_above takes one point, got 0"),
    (["check", "--scale", "finite(0,1,0)"], "duplicate points in finite scale: finite(0, 1, 0)"),
    (["scale", "validate", "finite(0, 1/0)"], "bad rational '1/0'"),
    (["check", "--scale", "desc_above(0)"],
     "only finite(..) scales can be evaluated, got desc_above(0)"),
    (["dump", "unit", "0", "0", "--scale", "union(finite(0), finite(1))"],
     "only finite(..) scales can be evaluated, got union(finite(0), finite(1))"),
    (["dump", "unit ; unit", "0", "2"], "bad character ';' in descriptor"),
    (["dump", "prod(unit,", "0", "2"], "descriptor ends unexpectedly"),
    (["dump", "unit unit", "0", "2"], "trailing input: 'unit'"),
    (["dump", "blob", "0", "2"], "unknown descriptor token 'blob'"),
    (["dump", "exp(unit)", "0", "2"], "exp takes exactly two arguments"),
    (["dump", "flag(x)", "0", "2"], "expected a count, got 'x'"),
    (["dump", "unit |>[3] unit", "0", "2"],
     "stop bound 3 is not a point of the scale {0, 1, 2}; use inf or a scale point"),
    (["dump", "unit", "1", "3"], "(1, 3) is not an index of scale finite(0,1,2)"),
    (["scale", "validate", "finite(0.5)"], "unexpected character '.' in scale expression"),
    (["scale", "validate", "finite(1a)"], "expected ')', got 'a'"),
    (["scale", "validate", "union()"], "unknown scale constructor ')'"),
    (["dump", "prod()", "0", "2"], "unknown descriptor token ')'"),
    (["dump", "flag(1,2)", "0", "2"], "expected ')', got ','"),
    (["dump", "unit |>[1/0] unit", "0", "2"], "bad rational '1/0'"),
], ids=["unexpected-character", "unexpected-end", "expected-paren", "chain-arity",
        "unknown-constructor", "trailing-scale-input", "empty-finite", "empty-chain",
        "duplicate-points", "bad-rational", "check-non-finite", "dump-non-finite",
        "bad-character", "descriptor-end", "trailing-descriptor-input", "unknown-token",
        "exp-arity", "bad-count", "off-scale-bound", "off-scale-index",
        "scale-decimal-point", "scale-number-then-name", "empty-union", "empty-prod",
        "flag-arity", "bad-rational-bound"])
def test_each_input_error_has_its_message(capsys, tmp_path, argv, err):
    if argv[0] == "check":
        argv = [*argv, "--out", str(tmp_path / "OUT")]
    code, out, got = run(capsys, argv)
    assert (code, out, got) == (2, "", f"error: {err}\n")
    assert not (tmp_path / "OUT").exists()


def test_dump_respects_the_cap(capsys):
    code, out, err = run(capsys, ["dump", "exp(flag(9), flag(9))", "0", "2"])
    assert (code, out) == (3, "")
    assert err == "error: enumeration of 387420489 candidates exceeds cap 1000000\n"


def test_dump_caps_process_carriers_before_enumerating():
    # 8000 values at each of two points: 64,008,001 processes at (0, 2).
    done = subprocess.run(
        [sys.executable, "-m", "proccat", "dump",
         "prod(flag(20),flag(20),flag(20)) |>''[inf] unit", "0", "2"],
        capture_output=True, text=True, timeout=10)
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == "error: enumeration of 64008001 candidates exceeds cap 1000000\n"


def test_dump_caps_product_carriers(capsys):
    code, out, err = run(capsys, ["dump", "prod(flag(101), flag(100), flag(100))", "0", "2"])
    assert (code, out) == (3, "")
    assert err == "error: enumeration of 1010000 candidates exceeds cap 1000000\n"


def test_dump_caps_flag_before_building_it(capsys):
    # It used to build and list 2,000,000 atoms.
    code, out, err = run(capsys, ["dump", "flag(2000000)", "0", "2"])
    assert (code, out) == (3, "")
    assert err == "error: enumeration of 2000000 candidates exceeds cap 1000000\n"


def test_closed_pipe_exits_141_without_a_traceback():
    # The listing (6,481 lines) outgrows the pipe buffer, so the dump is
    # still writing when the reader goes away.  An unbuffered stdout hands
    # the whole listing to one write, which the closing pipe cuts short.
    for unbuffered in (False, True):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "proccat", "dump", "flag(80) |>''[inf] unit", "0", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141, unbuffered
        assert first == b"index (0, 2)\n"
        assert b"Traceback" not in err


def test_check_writes_reports_deterministically(capsys, tmp_path):
    argv = ["check", "--suites", "nonstop,corecursion",
            "--out", str(tmp_path / "a")]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert "passed" in out and "0 failed" in out
    argv2 = ["check", "--suites", "nonstop,corecursion",
             "--out", str(tmp_path / "b")]
    code2, out2, _ = run(capsys, argv2)
    assert code2 == 0 and out2 == out
    for name in ("report.txt", "report.jsonl"):
        first = (tmp_path / "a" / name).read_bytes()
        second = (tmp_path / "b" / name).read_bytes()
        assert first == second


def test_check_machine_format_is_jsonl(capsys, tmp_path):
    argv = ["check", "--suites", "nonstop", "--out", str(tmp_path),
            "--format", "machine"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    for line in out.splitlines():
        rec = json.loads(line)
        assert set(rec) == {"suite", "instance", "verdict",
                            "witness", "millis"}
        assert rec["verdict"] == "pass" and rec["millis"] == 0


def test_check_mutation_fails_loudly(capsys, tmp_path):
    argv = ["check", "--suites", "nonstop", "--mutate", "nonstop",
            "--out", str(tmp_path)]
    code, out, _ = run(capsys, argv)
    assert code == 1
    assert "FAIL" in out


def test_check_cap_exit_code(capsys, tmp_path):
    argv = ["check", "--suites", "uniqueness", "--cap", "1",
            "--out", str(tmp_path)]
    code, out, _ = run(capsys, argv)
    assert code == 3
    assert "capped" in out


@pytest.mark.parametrize("cap", sorted(GOLDEN_CAPPED, key=int))
def test_capped_solver_reports_match_the_golden_ones(capsys, tmp_path, cap):
    argv = ["check", "--suites", "two_exit,uniqueness", "--cap", cap, "--out", str(tmp_path)]
    code, out, _ = run(capsys, argv)
    want = GOLDEN_CAPPED[cap]
    assert code == want["exit"]
    for name in ("report.txt", "report.jsonl"):
        assert (tmp_path / name).read_bytes() == want[name].encode("utf-8"), name
    assert out == want["report.txt"]


def test_check_rejects_unknown_suite(capsys, tmp_path):
    argv = ["check", "--suites", "nope", "--out", str(tmp_path)]
    code, _, err = run(capsys, argv)
    assert code == 2 and "unknown suites" in err


def test_an_internal_fault_is_not_a_usage_error(capsys, monkeypatch, tmp_path):
    # A ValueError inside a check is a fault of the program: it propagates
    # rather than exiting 2 as if the command line were wrong.
    def broken(obj):
        raise ValueError("injected fault")

    monkeypatch.setattr(laws, "check_functor", broken)
    with pytest.raises(ValueError, match="injected fault"):
        main(["check", "--suites", "functor", "--out", str(tmp_path)])
    assert capsys.readouterr().err == ""
    code, out, err = run(capsys, ["check", "--suites", "functor,nope",
                                  "--out", str(tmp_path)])
    assert (code, out) == (2, "")
    assert err == "error: unknown suites: nope\n"


@pytest.mark.parametrize("suites", ["", ","])
def test_check_rejects_an_empty_suite_list(capsys, tmp_path, suites):
    code, out, err = run(capsys, ["check", "--suites", suites, "--out", str(tmp_path)])
    assert (code, out) == (2, "")
    assert err == "error: --suites names no suite; give suite names or 'all'\n"


@pytest.mark.parametrize("under", [False, True], ids=["file", "below-a-file"])
def test_check_rejects_an_out_path_that_is_not_a_directory(capsys, monkeypatch, tmp_path,
                                                           under):
    # It used to run every suite, then die with a FileExistsError traceback.
    def never(*args, **kwargs):
        raise AssertionError("no suite may run")

    monkeypatch.setattr("proccat.cli.run_suites", never)
    (tmp_path / "taken").write_text("")
    out_path = tmp_path / "taken" / "reports" if under else tmp_path / "taken"
    code, out, err = run(capsys, ["check", "--out", str(out_path)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: --out {out_path} is not a writable directory: ")
    assert err.count("\n") == 1


def test_check_rejects_mismatched_mutation(capsys, tmp_path):
    argv = ["check", "--suites", "functor", "--mutate", "nonstop",
            "--out", str(tmp_path / "reports")]
    code, _, err = run(capsys, argv)
    assert code == 2
    assert err == "error: mutation nonstop targets a suite that is not selected\n"
    assert not (tmp_path / "reports").exists()


@pytest.mark.parametrize("scale,hint", [
    ("finite(0, 1)", "law grid"),
    ("asc_below(1)", "scale rejected"),
])
def test_check_pins_the_grid_scale(capsys, tmp_path, scale, hint):
    argv = ["check", "--scale", scale, "--out", str(tmp_path)]
    code, _, err = run(capsys, argv)
    assert code == 2 and hint in err


def test_cap_environment_override(monkeypatch):
    monkeypatch.setenv("PROCCAT_CAP", "123")
    handler, args = parse_command_line(["check"])
    assert (handler, args.cap) == (cli.cmd_check, 123)
    monkeypatch.delenv("PROCCAT_CAP")
    handler, args = parse_command_line(["check"])
    assert (handler, args.cap) == (cli.cmd_check, 10 ** 6)


def test_bad_cap_environment_is_a_usage_error(monkeypatch, capsys, tmp_path):
    # The last case sets no variable and gives the bad cap as the option.
    for value, option in (("abc", []), ("-5", []), ("0", []), ("", []),
                          (None, ["--cap", "0"])):
        if value is None:
            monkeypatch.delenv("PROCCAT_CAP")
        else:
            monkeypatch.setenv("PROCCAT_CAP", value)
        code, out, err = run(capsys, ["check", "--suites", "nonstop", *option,
                                      "--out", str(tmp_path)])
        assert code == 2 and out == "", (value, option)
        assert any(line.startswith("error:") or ": error: " in line
                   for line in err.splitlines()), err
        assert not (tmp_path / "report.jsonl").exists()
        if value in ("abc", ""):  # not an integer: the message names the source
            assert "PROCCAT_CAP" in err and repr(value) in err


def test_bad_cap_environment_leaves_other_commands_alone(monkeypatch, capsys):
    monkeypatch.setenv("PROCCAT_CAP", "abc")
    code, out, _ = run(capsys, ["scale", "validate", "finite(0,1,2)"])
    assert (code, out) == (0, "Accept\n")


@pytest.mark.parametrize("module", ["proccat", "proccat.cli"])
def test_python_dash_m_entry_point(module):
    done = subprocess.run(
        [sys.executable, "-m", module, "scale", "validate", "finite(0,1,2)"],
        capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (0, "Accept\n")


def test_installed_entry_point():
    exe = shutil.which("proccat")
    assert exe, "proccat should be on PATH after pip install"
    done = subprocess.run([exe, "scale", "validate", "finite(0, 1)"],
                          capture_output=True, text=True)
    assert done.returncode == 0
    assert done.stdout == "Accept\n"


RATIONALS = st.sampled_from(["0", "1", "2", "1/2", "5", "-1", "0.5", "1e3", "x", "1/0", ""])
SCALES = st.one_of(
    st.sampled_from(["finite(0,1,2)", "finite(0, 1/2, 1)", "finite(0,1)", "finite()",
                     "finite(0,0)", "finite(0", "asc_below(1)", "desc_above(0)",
                     "union(finite(10), desc_above(5))",
                     "union(desc_above(0), desc_above(0))",
                     "union(asc_below(1), asc_below(2))", ""]),
    st.builds(lambda head, args: f"{head}({','.join(args)})",
              st.sampled_from(["finite", "desc_above", "asc_below", "union", "mystery"]),
              st.lists(RATIONALS, max_size=3)))
DESCRIPTORS = ["unit", "empty", "flag", "flag(3)", "(unit)", "prod(unit, flag)",
               "sum(flag, empty)", "exp(flag, flag)", "exp(flag(9), flag(9))",
               "unit |>''[inf] unit", "flag |>'[1] unit", "unit |>[2] flag",
               "box' unit", "dia flag"]


def _replace_one(text, k, new):
    k %= len(text) + 1
    return text[:k] + new + text[k + 1:]


# One character of a descriptor replaced by a token that may break it; no
# replacement makes a carrier that is both under the cap and slow to list.
MUTATED = st.builds(_replace_one, st.sampled_from(DESCRIPTORS), st.integers(0, 40),
                    st.sampled_from(["", "(", ")", ",", "[", "]", "|>", "'", "x", "inf",
                                     "1/2", "9", "$"]))


@pytest.fixture(scope="module")
def out_paths(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    (base / "taken").write_text("")
    return [str(base / "reports"), str(base / "taken"), str(base / "taken" / "reports")]


def _argv(data, out_paths):
    """A `dump`, `check` or `scale validate` argument list, valid or not."""
    command = data.draw(st.sampled_from(["dump", "check", "scale"]))
    if command == "scale":
        argv = ["scale", "validate", data.draw(SCALES)]
    elif command == "dump":
        desc = data.draw(st.one_of(st.sampled_from(DESCRIPTORS), MUTATED))
        argv = ["dump", desc, data.draw(RATIONALS), data.draw(RATIONALS)]
        if data.draw(st.booleans()):
            argv += ["--scale", data.draw(SCALES)]
    else:
        # Only suites that run in milliseconds, or none at all.
        argv = ["check", "--suites", data.draw(st.sampled_from(["nonstop", "", ",", "nope"])),
                "--out", data.draw(st.sampled_from(out_paths))]
        options = (("--cap", st.sampled_from(["1", "10", "0", "-5", "abc", "", "1e3"])),
                   ("--scale", SCALES),
                   ("--mutate", st.sampled_from(["nonstop", "joining", "sabotage"])),
                   ("--format", st.sampled_from(["human", "machine", "xml"])))
        for flag, values in options:
            if data.draw(st.booleans()):
                argv += [flag, data.draw(values)]
    if data.draw(st.integers(0, 3)) == 0:
        del argv[data.draw(st.integers(0, len(argv) - 1))]
    return argv


@given(data=st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_every_argument_list_gets_an_exit_code(out_paths, data):
    # Whatever the arguments and PROCCAT_CAP (None: unset), the command
    # ends with an exit code: a usage error (2) says why on stderr, and
    # nothing escapes as an exception.
    argv = _argv(data, out_paths)
    cap_env = data.draw(st.sampled_from([None, "1", "10", "0", "-5", "abc", ""]))
    stdout, stderr = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        os.environ.pop("PROCCAT_CAP", None)
        if cap_env is not None:
            os.environ["PROCCAT_CAP"] = cap_env
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, cap_env)
    if code == 2:
        assert "error:" in stderr.getvalue(), (argv, cap_env)


# -- the table parser against the argparse front end it replaced -----------
#
# `build_parser` and `_cap_arg` are the argparse front end as `proccat.cli`
# had it, kept as the reference: every argument list must get the same
# exit code from both, and where both accept, the same handler and values.


def _cap_arg(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r} (from --cap or {cli.CAP_ENV_VAR})"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    default_cap = os.environ.get(cli.CAP_ENV_VAR, str(finset.DEFAULT_CAP))
    parser = argparse.ArgumentParser(
        prog="proccat",
        description="Finite model of timed processes with a law-checking "
                    "harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run law suites")
    check.add_argument("--scale", default=cli.GRID_SCALE_TEXT)
    check.add_argument("--suites", default="all")
    check.add_argument("--cap", type=_cap_arg, default=default_cap)
    check.add_argument("--mutate", default=None)
    check.add_argument("--out", default="reports")
    check.add_argument("--format", choices=("human", "machine"), default="human")
    check.set_defaults(fn=cli.cmd_check)

    scale = sub.add_parser("scale", help="time scale utilities")
    scale_sub = scale.add_subparsers(dest="scale_command", required=True)
    validate = scale_sub.add_parser("validate")
    validate.add_argument("expr")
    validate.set_defaults(fn=cli.cmd_scale_validate)

    dump = sub.add_parser("dump", help="list a carrier at an index")
    dump.add_argument("descriptor")
    dump.add_argument("t")
    dump.add_argument("t0")
    dump.add_argument("--scale", default=cli.GRID_SCALE_TEXT)
    dump.set_defaults(fn=cli.cmd_dump)
    return parser


def _both(argv, cap_env=None):
    """What the reference and the table parser make of argv, each as
    (exit code or (handler, values), stdout, stderr), under PROCCAT_CAP
    (None: unset)."""
    def parse(parser):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                got = parser(argv)
            except SystemExit as exc:
                got = exc.code
        return got, stdout.getvalue(), stderr.getvalue()

    def reference(argv):
        values = vars(build_parser().parse_args(argv))
        handler = values.pop("fn")
        values.pop("command")
        values.pop("scale_command", None)
        return handler, values

    def table(argv):
        got = parse_command_line(argv)
        return got if isinstance(got, int) else (got[0], vars(got[1]))

    with mock.patch.dict(os.environ):
        os.environ.pop("PROCCAT_CAP", None)
        if cap_env is not None:
            os.environ["PROCCAT_CAP"] = cap_env
        return parse(reference), parse(table)


CHECK_USAGE = ("usage: proccat check [-h] [--scale SCALE] [--suites SUITES] [--cap CAP] "
               "[--mutate MUTATE] [--out OUT] [--format {human,machine}]\n")


@pytest.mark.parametrize("argv, cap_env, err", [
    (["check", "--cap", "abc"], None, CHECK_USAGE + "proccat check: error: argument --cap: "
     "expected an integer, got 'abc' (from --cap or PROCCAT_CAP)\n"),
    (["check"], "", CHECK_USAGE + "proccat check: error: argument --cap: "
     "expected an integer, got '' (from --cap or PROCCAT_CAP)\n"),
    (["check", "--format", "xml"], None, CHECK_USAGE + "proccat check: error: argument "
     "--format: invalid choice: 'xml' (choose from 'human', 'machine')\n"),
    (["bogus"], None, "usage: proccat [-h] {check,scale,dump} ...\nproccat: error: argument "
     "command: invalid choice: 'bogus' (choose from 'check', 'scale', 'dump')\n"),
    (["dump", "unit"], None, "usage: proccat dump [-h] [--scale SCALE] descriptor t t0\n"
     "proccat dump: error: the following arguments are required: t, t0\n"),
], ids=["cap-option", "cap-environment", "format-choice", "unknown-command",
        "missing-positionals"])
def test_usage_errors_keep_the_argparse_wording(argv, cap_env, err):
    # argparse wraps the usage line to the terminal; the table parser
    # prints it whole.
    (ref, _, ref_err), (got, out, got_err) = _both(argv, cap_env)
    assert (got, out, got_err) == (2, "", err)
    usage, error = ref_err.split("\nproccat")
    assert (ref, " ".join(usage.split()) + "\nproccat" + error) == (2, err)


def test_help_at_each_level_exits_0(capsys):
    for argv in (["-h"], ["--help"], ["scale", "-h"], ["scale", "validate", "--he"],
                 ["check", "--suites", "nonstop", "-h"], ["dump", "unit", "-h", "2"]):
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, ""), argv
        assert out.startswith("usage: proccat"), argv


OPTION_WORDS = {"--scale", "--suites", "--cap", "--mutate", "--out", "--format"}
INSERTED = st.sampled_from(["-h", "--help", "--he", "--", "--bogus", "-x", "-5", "-1/2",
                            "--su", "--s", "--sc", "--cap=", "--cap=7", "--format=machine",
                            "--scale=finite(0,1)", "nonstop", "check", "scale", "validate"])


def _varied(data, argv):
    """argv with its options joined to their values by `=` or cut to a
    prefix, one option repeated, and tokens argparse reads in more than
    one way put anywhere.  Never a second `--`: argparse turns it into an
    empty list where a positional is due (`t0=[]`), where the table
    parser takes `--` itself; nor `-hh`, help to argparse and an error to
    the table parser."""
    argv = list(argv)
    out = []
    k = 0
    while k < len(argv):
        token = argv[k]
        k += 1
        if token in OPTION_WORDS:
            token = token[:data.draw(st.integers(3, len(token)))]
            if k < len(argv) and data.draw(st.booleans()):
                token, k = f"{token}={argv[k]}", k + 1
        out.append(token)
    flags = [k for k, token in enumerate(out) if token.startswith("--")]
    if flags and data.draw(st.booleans()):
        k = data.draw(st.sampled_from(flags))
        out[len(out):] = out[k:k + 2]
    for _ in range(data.draw(st.integers(0, 2))):
        token = data.draw(INSERTED)
        if token != "--" or "--" not in out:
            out.insert(data.draw(st.integers(0, len(out))), token)
    return out


@given(data=st.data())
@settings(max_examples=500, deadline=None, derandomize=True)
def test_the_table_parser_agrees_with_argparse(out_paths, data):
    argv = _varied(data, _argv(data, out_paths))
    cap_env = data.draw(st.sampled_from([None, "1", "10", "0", "-5", "abc", ""]))
    (ref, ref_out, ref_err), (got, out, err) = _both(argv, cap_env)
    assert got == ref, (argv, cap_env)
    assert bool(out) == bool(ref_out) and bool(err) == bool(ref_err), (argv, cap_env)
    if ref == 2:
        assert err.splitlines()[-1] == ref_err.splitlines()[-1], (argv, cap_env)


def test_a_dump_and_a_scale_validation_import_no_argparse(tmp_path):
    # argparse, and the gettext and locale modules it imports, took about
    # 2 ms of every invocation; dataclasses, with the inspect module it
    # imports and the methods it compiles, took about 15 ms.
    forbidden = {"argparse", "gettext", "locale", "dataclasses", "inspect"}
    for argv in (["dump", "flag(3) |>[2] unit", "0", "2"], ["scale", "validate", "finite(0,1,2)"],
                 ["check", "--suites", "nonstop", "--out", str(tmp_path)]):
        code = ("import sys, proccat.cli\n"
                f"assert proccat.cli.main({argv!r}) == 0\n"
                f"print(sorted({forbidden!r} & set(sys.modules)))")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert (done.returncode, done.stderr) == (0, ""), argv
        assert done.stdout.splitlines()[-1] == "[]", argv
