"""Command line front end: run the law suites, validate time scales, and
dump carriers of described spaces at a chosen index.

All output is deterministic: reports carry no timing, collections are
sorted, and identical invocations produce byte-identical stdout and
report files.
"""
from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional, Sequence

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
    ParseError,
    Reader,
    ScaleOverlapError,
    TermBound,
    TimeScale,
    UNBOUNDED,
    parse_fraction,
    parse_scale_expr,
    scale_from_expr,
    tokenize,
    validate_scale,
)

CAP_ENV_VAR = "PROCCAT_CAP"
GRID_SCALE_TEXT = "finite(0,1,2)"


# -- space descriptors ------------------------------------------------------
#
# atom     := unit | empty | flag | flag(N) | prod(e, ...) | sum(e, ...)
#           | exp(e, e) | ( e )
# prefix   := box' | box | dia' | dia
# e        := prefix* atom ( OP[BOUND] e )?      right associative
# OP       := |>'' | |>' | |>
# BOUND    := inf | a point of the scale


_SYMBOLS = ("|>''", "|>'", "|>", "[", "]", "(", ")", ",")


def _word_char(ch: str) -> bool:
    return ch.isalnum() or ch in "_'/-."


class _DescriptorParser(Reader):
    """Recursive-descent parser producing a temporal object plus, when the
    top level describes a process-like space, that space for rendering."""

    def __init__(self, tokens: list, scale: TimeScale):
        super().__init__(tokens, "descriptor ends unexpectedly")
        self.scale = scale

    def expr(self):
        left = self.term()
        if self.peek() in ("|>''", "|>'", "|>"):
            op = self.take()
            self.expect("[")
            bound = self.bound()
            self.expect("]")
            right = self.expr()
            space = {"|>''": ProcSpace, "|>'": LiveSpace, "|>": StepSpace}[op]
            return space(bound, _carrier_of(left), _carrier_of(right))
        return left

    def bound(self) -> TermBound:
        tok = self.take()
        if tok == "inf":
            return UNBOUNDED
        time = parse_fraction(tok)
        if time not in self.scale:
            raise ParseError(
                f"stop bound {tok} is not a point of the scale {self.scale}; "
                "use inf or a scale point")
        return time

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
            if self.accept("("):
                count = self.take()
                if not count.isdecimal():
                    raise ParseError(f"expected a count, got {count!r}")
                n = int(count)
                self.expect(")")
            return flag_temporal(self.scale, n)
        if tok in ("prod", "sum", "exp"):
            self.expect("(")
            args = [_carrier_of(self.expr())]
            while self.accept(","):
                args.append(_carrier_of(self.expr()))
            self.expect(")")
            if tok != "exp":
                return (pointwise_product if tok == "prod" else pointwise_coproduct)(args)
            if len(args) != 2:
                raise ParseError("exp takes exactly two arguments")
            return exponential_end(*args)
        raise ParseError(f"unknown descriptor token {tok!r}")


def _carrier_of(space) -> TemporalObj:
    return space if isinstance(space, TemporalObj) else space.obj


def parse_descriptor(text: str, scale: TimeScale):
    """The space or bare temporal object a descriptor denotes."""
    tokens = tokenize(text, _SYMBOLS, ((_word_char, _word_char),),
                      "bad character {!r} in descriptor")
    parser = _DescriptorParser(tokens, scale)
    return parser.done(parser.expr(), "trailing input: {!r}")


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
        except (ParseError, ScaleOverlapError) as exc:
            return _fail(str(exc))
        except RecursionError:
            return _fail(TOO_DEEP)
        if scale is not TimeScale.of(0, 1, 2):
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
    except (ParseError, ScaleOverlapError) as exc:
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
        i = scale.pair(t, t0)
        if i is None:
            return _fail(f"({t}, {t0}) is not an index of scale {args.scale}")
        size = _carrier_of(space).at(i).size
        lines = listing(space, i)
    except ParseError as exc:
        return _fail(str(exc))
    except RecursionError:
        return _fail(TOO_DEEP)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    _write_whole(f"index ({t}, {t0})\nsize {size}\n"
                 + "".join(f"  {line}\n" for line in lines))
    return 0


# -- command line -----------------------------------------------------------
#
# One table holds the commands.  A group names its subcommands; a command
# names its handler, its positionals and its options.  An option is (name,
# default, help, check): `check` is None, the tuple of allowed values, or a
# function from the text to the value that raises ValueError.  A default
# may be a function, read when the line is parsed; a text default is
# checked like a given value, so a bad PROCCAT_CAP is a usage error of
# `check` alone.  `main` calls a handler through the module global of its
# name, read at call time, since the benchmark's tracer rebinds them.
#
# Tokens are read as argparse read them: `--opt value`, `--opt=value` and
# unique prefixes; a token that starts with `-` is an option unless it
# reads as a negative number or holds a space; `--` ends the options.
# `-h`/`--help` and a bad option value answer where they stand; missing
# positionals and unrecognized arguments once the line is read.


class _Group(NamedTuple):
    help: str
    dest: str  # what usage errors call the subcommand
    commands: dict


class _Command(NamedTuple):
    help: str
    handler: Callable
    positionals: tuple  # names
    options: tuple  # (name, default, help, check)


def _cap_value(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r} "
                         f"(from --cap or {CAP_ENV_VAR})") from None


def _cap_default() -> str:
    return os.environ.get(CAP_ENV_VAR, str(DEFAULT_CAP))


COMMANDS = _Group(
    "Finite model of timed processes with a law-checking harness.", "command", {
        "check": _Command("run law suites", cmd_check, (), (
            ("scale", GRID_SCALE_TEXT,
             "ambient scale; the grid is fixed to " + GRID_SCALE_TEXT, None),
            ("suites", "all", "comma separated suite names, or 'all'", None),
            ("cap", _cap_default, "candidate enumeration bound "
             f"(default {DEFAULT_CAP}, env {CAP_ENV_VAR})", _cap_value),
            ("mutate", None, "break one operation on purpose: " + ", ".join(MUTATIONS),
             None),
            ("out", "reports", "directory for report.txt and report.jsonl", None),
            ("format", "human", "stdout format", ("human", "machine")),
        )),
        "scale": _Group("time scale utilities", "scale_command", {
            "validate": _Command("accept or reject a scale expression",
                                 cmd_scale_validate, ("expr",), ()),
        }),
        "dump": _Command("list a carrier at an index", cmd_dump, ("descriptor", "t", "t0"), (
            ("scale", GRID_SCALE_TEXT,
             f"finite scale expression (default {GRID_SCALE_TEXT})", None),
        )),
    })
_HELP = ("-h", "--help")


def _metavar(option: tuple) -> str:
    name, _, _, check = option
    return "{" + ",".join(check) + "}" if isinstance(check, tuple) else name.upper()


def _usage(prog: str, node) -> str:
    if isinstance(node, _Group):
        return f"{prog} [-h] {{{','.join(node.commands)}}} ..."
    return " ".join([prog, "[-h]", *(f"[--{o[0]} {_metavar(o)}]" for o in node.options),
                     *node.positionals])


def _help(prog: str, node) -> str:
    options = [("-h, --help", "show this help message and exit")]
    if isinstance(node, _Group):
        heading, first = "commands", [(name, sub.help) for name, sub in node.commands.items()]
    else:
        heading, first = "positional arguments", [(name, "") for name in node.positionals]
        options += [(f"--{o[0]} {_metavar(o)}", o[2]) for o in node.options]
    width = max(len(left) for left, _ in first + options)
    lines = [f"usage: {_usage(prog, node)}", "", node.help]
    for title, rows in ((heading, first), ("options", options)):
        if rows:
            lines += ["", title + ":", *(f"  {left:{width}}  {text}".rstrip()
                                         for left, text in rows)]
    return "\n".join(lines) + "\n"


def _is_negative_number(token: str) -> bool:
    whole, dot, fraction = token[1:].partition(".")
    if not dot:
        return whole.isdecimal()
    return (not whole or whole.isdecimal()) and fraction.isdecimal()


def _flag(token: str, names: Sequence[str]):
    """None when the token is a positional, else the option it names (None
    when it names none) and the text after its `=` (None without one).
    ValueError when it abbreviates more than one option."""
    if len(token) < 2 or token[0] != "-":
        return None
    name, eq, value = token.partition("=")
    value = value if eq else None
    if name in names:
        return name, value
    if token[1] == "-":
        found = [n for n in names if n.startswith(name)]
        if len(found) > 1:
            raise ValueError(f"ambiguous option: {token} could match {', '.join(found)}")
        if found:
            return found[0], value
    elif token[:2] in names:  # `-hx` reads as `-h` given `x`
        return token[:2], token[2:]
    if _is_negative_number(token) or " " in token:
        return None
    return None, None


def _checked(option: tuple, text: str):
    name, _, _, check = option
    if check is None:
        return text
    if isinstance(check, tuple):
        if text in check:
            return text
        raise ValueError(f"argument --{name}: invalid choice: {text!r} "
                         f"(choose from {', '.join(map(repr, check))})")
    try:
        return check(text)
    except ValueError as exc:
        raise ValueError(f"argument --{name}: {exc}") from None


def _no_value(value: Optional[str]) -> None:
    if value is not None:
        raise ValueError(f"argument -h/--help: ignored explicit argument {value!r}")


def _read(command: _Command, tokens: list, extras: list) -> Optional[dict]:
    """The command's values from its tokens, or None for -h/--help.  Every
    ambiguous option is refused first, then the tokens are read in order;
    unrecognized ones go to `extras`."""
    names = (*_HELP, *("--" + option[0] for option in command.options))
    options = dict(zip(names[len(_HELP):], command.options))
    end = tokens.index("--") if "--" in tokens else len(tokens)
    flags = [_flag(token, names) for token in tokens[:end]]
    values, positionals = {}, []

    def positional(token: str) -> bool:
        fits = len(positionals) < len(command.positionals)
        (positionals if fits else extras).append(token)
        return fits

    k, taken = 0, False  # whether the last token read filled a positional
    while k < end:
        flag, token = flags[k], tokens[k]
        k += 1
        taken = flag is None and positional(token)
        if flag is None:
            continue
        name, value = flag
        if name is None:
            extras.append(token)
        elif name in _HELP:
            _no_value(value)
            return None
        else:
            if value is None:
                if k == end or flags[k] is not None:
                    raise ValueError(f"argument {name}: expected one argument")
                value, k = tokens[k], k + 1
            values[name[2:]] = _checked(options[name], value)
    if end < len(tokens):  # `--` goes with a positional beside it, if any
        if not taken and (end + 1 == len(tokens)
                          or len(positionals) == len(command.positionals)):
            extras.append("--")
        for token in tokens[end + 1:]:
            positional(token)
    missing = command.positionals[len(positionals):]
    if missing:
        raise ValueError("the following arguments are required: " + ", ".join(missing))
    for option in command.options:
        name, default = option[:2]
        if name not in values:
            default = default() if callable(default) else default
            values[name] = default if default is None else _checked(option, default)
    values.update(zip(command.positionals, positionals))
    return values


def parse_command_line(argv: Sequence[str]):
    """The handler and its arguments, or the exit code once help (0) or a
    usage error (2) is printed."""
    prog, node, tokens, extras = "proccat", COMMANDS, list(argv), []
    try:
        while isinstance(node, _Group):
            for k, token in enumerate(tokens):
                if token == "--":
                    if k + 1 < len(tokens):
                        break  # read as a subcommand's name
                    continue  # a last `--` names none
                flag = _flag(token, _HELP)
                if flag is None:
                    break
                if flag[0] is None:
                    extras.append(token)
                    continue
                _no_value(flag[1])
                sys.stdout.write(_help(prog, node))
                return 0
            else:
                raise ValueError(f"the following arguments are required: {node.dest}")
            if token not in node.commands:
                raise ValueError(f"argument {node.dest}: invalid choice: {token!r} "
                                 f"(choose from {', '.join(map(repr, node.commands))})")
            prog, node, tokens = f"{prog} {token}", node.commands[token], tokens[k + 1:]
        values = _read(node, tokens, extras)
        if values is None:
            sys.stdout.write(_help(prog, node))
            return 0
        if extras:
            prog, node = "proccat", COMMANDS
            raise ValueError("unrecognized arguments: " + " ".join(extras))
    except ValueError as exc:
        print(f"usage: {_usage(prog, node)}\n{prog}: error: {exc}", file=sys.stderr)
        return 2
    return node.handler, SimpleNamespace(**values)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parsed = parse_command_line(sys.argv[1:] if argv is None else argv)
    if isinstance(parsed, int):
        return parsed
    handler, args = parsed
    return globals()[handler.__name__](args)


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
