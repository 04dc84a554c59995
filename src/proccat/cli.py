"""Command line front end: run the law suites, validate time scales, and
dump carriers of described spaces at a chosen index.

All output is deterministic: reports carry no timing, collections are
sorted, and identical invocations produce byte-identical stdout and
report files.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from .finset import DEFAULT_CAP, CapExceeded
from .laws import MUTATIONS, run_suites, select_suites
from .process import (
    LiveSpace,
    ProcSpace,
    StepSpace,
    behavior_live_space,
    behavior_space,
    event_space,
    event_step_space,
    listing,
)
from .temporal import (
    TemporalObj,
    empty_obj,
    exponential_end,
    flag_temporal,
    pointwise_coproduct,
    pointwise_product,
    unit_obj,
)
from .times import (
    IndexPair,
    ScaleOverlapError,
    ScaleParseError,
    TermBound,
    TimeScale,
    UNBOUNDED,
    parse_fraction,
    parse_scale_expr,
    scale_from_expr,
    validate_scale,
)

CAP_ENV_VAR = "PROCCAT_CAP"
GRID_SCALE_TEXT = "finite(0,1,2)"


class DescriptorError(ValueError):
    """Raised on any syntax or shape problem in a space descriptor."""


# -- space descriptors ------------------------------------------------------
#
# atom     := unit | empty | flag | flag(N) | prod(e, ...) | sum(e, ...)
#           | exp(e, e) | ( e )
# prefix   := box' | box | dia' | dia
# e        := prefix* atom ( OP[BOUND] e )?      right associative
# OP       := |>'' | |>' | |>
# BOUND    := inf | a point of the scale


_SYMBOLS = ("|>''", "|>'", "|>", "[", "]", "(", ")", ",")


def _tokenize(text: str) -> list:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(sym)
                i += len(sym)
                break
        else:
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] in "_'/-."):
                j += 1
            if j == i:
                raise DescriptorError(f"bad character {ch!r} in descriptor")
            tokens.append(text[i:j])
            i = j
    return tokens


class _DescriptorParser:
    """Recursive-descent parser producing a temporal object plus, when the
    top level describes a process-like space, that space for rendering."""

    def __init__(self, text: str, scale: TimeScale):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.scale = scale

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise DescriptorError("descriptor ends unexpectedly")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.take()
        if got != tok:
            raise DescriptorError(f"expected {tok!r}, got {got!r}")

    def parse(self):
        space = self.expr()
        if self.peek() is not None:
            raise DescriptorError(f"trailing input: {self.peek()!r}")
        return space

    def expr(self):
        left = self.term()
        if self.peek() in ("|>''", "|>'", "|>"):
            op = self.take()
            self.expect("[")
            bound = self.bound()
            self.expect("]")
            right = self.expr()
            a, b = _carrier_of(left), _carrier_of(right)
            if op == "|>''":
                return ProcSpace(bound, a, b)
            if op == "|>'":
                return LiveSpace(bound, a, b)
            return StepSpace(bound, a, b)
        return left

    def bound(self) -> TermBound:
        tok = self.take()
        if tok == "inf":
            return UNBOUNDED
        try:
            time = parse_fraction(tok)
        except ScaleParseError as exc:
            raise DescriptorError(str(exc)) from exc
        if time not in self.scale:
            raise DescriptorError(
                f"stop bound {tok} is not a point of the scale {self.scale}; "
                "use inf or a scale point")
        return TermBound.at(time)

    def term(self):
        tok = self.peek()
        if tok in ("box'", "box", "dia'", "dia"):
            self.take()
            arg = _carrier_of(self.term())
            builder = {"box'": behavior_live_space, "box": behavior_space,
                       "dia'": event_space, "dia": event_step_space}[tok]
            return builder(arg)
        return self.atom()

    def atom(self):
        tok = self.take()
        if tok == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        if tok == "unit":
            return unit_obj(self.scale)
        if tok == "empty":
            return empty_obj(self.scale)
        if tok == "flag":
            n = 2
            if self.peek() == "(":
                self.take()
                n = self._int(self.take())
                self.expect(")")
            return flag_temporal(self.scale, n)
        if tok in ("prod", "sum", "exp"):
            self.expect("(")
            args = [_carrier_of(self.expr())]
            while self.peek() == ",":
                self.take()
                args.append(_carrier_of(self.expr()))
            self.expect(")")
            if tok == "exp":
                if len(args) != 2:
                    raise DescriptorError("exp takes exactly two arguments")
                return exponential_end(args[0], args[1])
            if tok == "prod":
                return pointwise_product(args)
            return pointwise_coproduct(args)
        raise DescriptorError(f"unknown descriptor token {tok!r}")

    def _int(self, tok: str) -> int:
        if not tok.isdecimal():
            raise DescriptorError(f"expected a count, got {tok!r}")
        return int(tok)


def _carrier_of(space) -> TemporalObj:
    return space if isinstance(space, TemporalObj) else space.obj


def parse_descriptor(text: str, scale: TimeScale):
    """The space or bare temporal object a descriptor denotes."""
    return _DescriptorParser(text, scale).parse()


# -- report formatting ------------------------------------------------------


def _human_lines(reports) -> list:
    lines = []
    for r in reports:
        line = f"{r.verdict.upper():4s} {r.suite} :: {r.instance}"
        if r.witness:
            line += f" :: {r.witness}"
        lines.append(line)
    counts = {"pass": 0, "fail": 0, "cap": 0}
    for r in reports:
        counts[r.verdict] += 1
    lines.append(f"{counts['pass']} passed, {counts['fail']} failed, "
                 f"{counts['cap']} capped, {len(reports)} total")
    return lines


def _machine_lines(reports) -> list:
    lines = []
    for r in reports:
        record = {"suite": r.suite, "instance": r.instance,
                  "verdict": r.verdict, "witness": r.witness,
                  "millis": r.millis}
        lines.append(json.dumps(record, sort_keys=True))
    return lines


# -- subcommands ------------------------------------------------------------


# Outside input nested deeper than the recursive parsers or printers go.
TOO_DEEP = "input nests too deeply"


def _write_whole(text: str) -> None:
    """Write text to stdout or raise.  An unbuffered stdout is a bare file,
    whose write to a pipe closed midway takes only part of the text: write
    the rest, so that BrokenPipeError is raised instead of text lost."""
    out = getattr(sys.stdout, "buffer", None)
    if out is None:  # a text-only stream, such as io.StringIO
        sys.stdout.write(text)
        return
    sys.stdout.flush()
    data = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
    while data:
        data = data[out.write(data):]


def _fail(message: str) -> int:
    print("error: " + message, file=sys.stderr)
    return 2


def cmd_check(args) -> int:
    if args.scale != GRID_SCALE_TEXT:
        try:
            expr = parse_scale_expr(args.scale)
            rejection = validate_scale(expr)
            if rejection is not None:
                return _fail("scale rejected: " + rejection)
            scale = scale_from_expr(expr)
        except (ScaleParseError, ScaleOverlapError) as exc:
            return _fail(str(exc))
        except RecursionError:
            return _fail(TOO_DEEP)
        if scale != TimeScale.of(0, 1, 2):
            return _fail(f"the law grid is fixed to {GRID_SCALE_TEXT}; "
                         f"pass that scale or omit --scale")
    if args.cap < 1:
        return _fail("cap must be at least 1")
    names = None if args.suites == "all" else [s for s in args.suites.split(",") if s]
    if names == []:
        return _fail("--suites names no suite; give suite names or 'all'")
    out = Path(args.out)
    try:
        select_suites(names, args.mutate)
        out.mkdir(parents=True, exist_ok=True)
    except ValueError as exc:
        return _fail(str(exc))
    except OSError as exc:
        return _fail(f"--out {args.out} is not a writable directory: {exc.strerror}")
    reports = run_suites(names, cap=args.cap, mutate=args.mutate)

    human = "\n".join(_human_lines(reports)) + "\n"
    machine = "\n".join(_machine_lines(reports)) + "\n"
    (out / "report.txt").write_text(human, encoding="utf-8")
    (out / "report.jsonl").write_text(machine, encoding="utf-8")
    sys.stdout.write(machine if args.format == "machine" else human)

    if any(r.verdict == "fail" for r in reports):
        return 1
    if any(r.verdict == "cap" for r in reports):
        return 3
    return 0


def cmd_scale_validate(args) -> int:
    try:
        expr = parse_scale_expr(args.expr)
        rejection = validate_scale(expr)
    except (ScaleParseError, ScaleOverlapError) as exc:
        return _fail(str(exc))
    except RecursionError:
        return _fail(TOO_DEEP)
    if rejection is None:
        print("Accept")
        return 0
    print("Reject: " + rejection)
    return 1


def cmd_dump(args) -> int:
    try:
        scale = scale_from_expr(parse_scale_expr(args.scale))
        space = parse_descriptor(args.descriptor, scale)
        t, t0 = parse_fraction(args.t), parse_fraction(args.t0)
        if t not in scale.points or t0 not in scale.points or t > t0:
            return _fail(f"({t}, {t0}) is not an index of scale {args.scale}")
        i = IndexPair(t, t0)
        size = _carrier_of(space).at(i).size
        lines = listing(space, i)
    except (ScaleParseError, DescriptorError) as exc:
        return _fail(str(exc))
    except RecursionError:
        return _fail(TOO_DEEP)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    _write_whole(f"index ({t}, {t0})\nsize {size}\n"
                 + "".join(f"  {line}\n" for line in lines))
    return 0


# -- entry point ------------------------------------------------------------


def _cap_arg(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r} (from --cap or {CAP_ENV_VAR})"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    # A string default goes through `type` like a typed value, so a bad
    # PROCCAT_CAP is a usage error of `check` alone.
    default_cap = os.environ.get(CAP_ENV_VAR, str(DEFAULT_CAP))
    parser = argparse.ArgumentParser(
        prog="proccat",
        description="Finite model of timed processes with a law-checking "
                    "harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run law suites")
    check.add_argument("--scale", default=GRID_SCALE_TEXT,
                       help="ambient scale; the grid is fixed to "
                            + GRID_SCALE_TEXT)
    check.add_argument("--suites", default="all",
                       help="comma separated suite names, or 'all'")
    check.add_argument("--cap", type=_cap_arg, default=default_cap,
                       help="candidate enumeration bound "
                            f"(default {default_cap}, env {CAP_ENV_VAR})")
    check.add_argument("--mutate", default=None,
                       help="break one operation on purpose: "
                            + ", ".join(MUTATIONS))
    check.add_argument("--out", default="reports",
                       help="directory for report.txt and report.jsonl")
    check.add_argument("--format", choices=("human", "machine"),
                       default="human", help="stdout format")
    check.set_defaults(fn=cmd_check)

    scale = sub.add_parser("scale", help="time scale utilities")
    scale_sub = scale.add_subparsers(dest="scale_command", required=True)
    validate = scale_sub.add_parser("validate",
                                    help="accept or reject a scale "
                                         "expression")
    validate.add_argument("expr")
    validate.set_defaults(fn=cmd_scale_validate)

    dump = sub.add_parser("dump", help="list a carrier at an index")
    dump.add_argument("descriptor")
    dump.add_argument("t")
    dump.add_argument("t0")
    dump.add_argument("--scale", default=GRID_SCALE_TEXT,
                      help="finite scale expression "
                           f"(default {GRID_SCALE_TEXT})")
    dump.set_defaults(fn=cmd_dump)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage already; normalize other codes
        return 2 if exc.code not in (0,) else 0
    return args.fn(args)


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (`proccat dump ... | head`).  Point
        # stdout at devnull so the flush at exit cannot raise again, and
        # exit 128 + SIGPIPE, as a shell reports a process SIGPIPE killed.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(141)
    sys.exit(code)


if __name__ == "__main__":
    entry()
