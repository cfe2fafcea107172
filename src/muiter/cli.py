"""Command line driver: run a script, print a report.

Exit codes: 0 success, 1 for usage, parse, or script-level errors, 2 when
an iteration hits its stage budget (the partial profile is still printed),
3 for internal invariant violations (including failed `check` suites).  A
reader of stdout that goes away before the report is written gives 1, with
the rest of the report dropped and no traceback.

`check samples N` takes at most MAX_SAMPLES (100,000) samples; a larger N
is a usage error, raised before any sampling.  At `depth 0` (or --depth 0)
it draws only leaf indices and sets of at most one element.  Under a plump
order one `check` draws at most size.MAX_DRAWN (1,000,000) tree nodes,
which bounds its time and memory at any depth: the next node stops it with
exit 2 and a budget-exceeded report.

Command line: `muiter [script] [--size S] [--budget N] [--depth N] [--seed N]
[--format text|json]`, plus -h/--help and --version, which print to stdout
and exit 0.  An option takes its value as the next word or after "=", a
unique prefix names a long option (--form json), "--" ends the options, and
the last of a repeated option wins.  parse_args reads argv by hand; its
usage and help texts are fixed at 80 columns.  A bad argv, and a negative
--depth, print the usage and an error to stderr and exit 1.
"""

from __future__ import annotations

import json
import os
import re
import sys
from typing import Dict, List, Optional, Tuple

from . import __version__
from .dsl import AlgDecl, Command, FuncDecl, SigDecl, parse_script
from .errors import (
    BudgetExceeded,
    DslError,
    DslNameError,
    IntegrityError,
    MuiterError,
    NonFunctorialDiagram,
)
from .finset import FiniteFn, FiniteSet
from .functors import eval_functor, expr_arity
from .iteration import (
    DEFAULT_BUDGET,
    AlgebraSpec,
    Profile,
    deflationary_nu,
    free_algebra,
    mu_initial_algebra,
    tower,
    tower_fold,
)
from .signature import Signature
from .size import kappa_sigma, nat_backend


MAX_SAMPLES = 100_000


class UsageError(MuiterError):
    """Bad command usage at script level; maps to exit code 1."""


class _Env:
    """Declarations a run has reached so far."""

    def __init__(self):
        self.sigs: Dict[str, Signature] = {}
        self.functors: Dict[str, object] = {}
        self.algebras: Dict[str, AlgDecl] = {}

    def declare(self, stmt) -> None:
        if isinstance(stmt, SigDecl):
            self.sigs[stmt.name] = stmt.sig
        elif isinstance(stmt, FuncDecl):
            if stmt.error is not None:
                raise DslNameError(stmt.error)
            self.functors[stmt.name] = stmt.expr
        elif isinstance(stmt, AlgDecl):
            self.algebras[stmt.name] = stmt

    def endofunctor(self, name: str, line: int):
        expr = self.functors[name]
        if expr_arity(expr) > 1:
            raise UsageError(
                f"line {line}: {name!r} takes {expr_arity(expr)} arguments, "
                "commands need an endofunctor of one"
            )
        return expr


def _backend_for(env: _Env, spec: str, line: int):
    """The size backend that spec names: nat, plump, or plump:<sig>.

    Bare plump orders the trees built from bottom and join alone, over no
    operations; plump:<sig> adds the operations of a declared signature.
    The signature of indexes is chosen with the order, not read off the
    functor.
    """
    if spec == "nat":
        return nat_backend()
    if spec == "plump":
        return kappa_sigma(Signature.of())
    if spec.startswith("plump:"):
        name = spec.split(":", 1)[1]
        if name not in env.sigs:
            raise UsageError(f"line {line}: {name!r} is not a declared signature")
        return kappa_sigma(env.sigs[name])
    raise UsageError(f"line {line}: unknown size discipline {spec!r}")


class Runner:
    def __init__(self, statements: tuple, defaults: dict):
        self.statements = statements
        self.defaults = defaults
        self.env = _Env()

    def run(self) -> Tuple[int, dict]:
        reports: List[dict] = []
        payload = {
            "version": __version__,
            "reports": reports,
        }
        for stmt in self.statements:
            if not isinstance(stmt, Command):
                self.env.declare(stmt)
                continue
            # each command writes its header into report before anything
            # that can stop it, and its results once it has them all
            report: dict = {}
            reports.append(report)
            try:
                getattr(self, "cmd_" + stmt.kind)(stmt, report)
            except BudgetExceeded as e:
                if stmt.kind != "check":  # a check's sampler drew too many nodes
                    report["stages"] = e.profile
                report["error"] = {"type": "budget-exceeded", "message": str(e)}
                return 2, payload
        for report in reports:
            if report["command"] == "check" and not all(
                c["ok"] for c in report["checks"]
            ):
                return 3, payload
        return 0, payload

    # -- option plumbing --------------------------------------------------

    def opt_size(self, cmd: Command) -> str:
        return cmd.option("size", self.defaults["size"])

    def opt_budget(self, cmd: Command) -> int:
        budget = cmd.option("budget", self.defaults["budget"])
        if budget < 1:
            raise UsageError(f"line {cmd.line}: budget must be at least 1")
        return budget

    def setup(self, cmd: Command) -> tuple:
        """The endofunctor, size, budget and backend a fixpoint command runs on.

        A cata command's algebra must be declared for its functor; that is
        checked after the functor and before the options.
        """
        expr = self.env.endofunctor(cmd.functor, cmd.line)
        if cmd.algebra is not None:
            decl = self.env.algebras[cmd.algebra]
            if decl.functor != cmd.functor:
                raise UsageError(
                    f"line {cmd.line}: algebra {cmd.algebra!r} is declared "
                    f"for {decl.functor!r}, not {cmd.functor!r}"
                )
        size = self.opt_size(cmd)
        budget = self.opt_budget(cmd)
        backend = _backend_for(self.env, size, cmd.line)
        return expr, size, budget, backend

    def header(
        self, report: dict, cmd: Command, size: Optional[str], budget: Optional[int]
    ) -> None:
        # the header of a finished or stopped run; a finished cata without an
        # inline stage adds its stationary index, which a stop never reaches
        report["command"], report["line"] = cmd.kind, cmd.line
        if cmd.functor is not None:
            report["functor"] = cmd.functor
        if cmd.algebra is not None:
            report["algebra"] = cmd.algebra
            if cmd.option("stage") is not None:
                report["stage"] = cmd.option("stage")
        if cmd.generators is not None:
            report["generators"] = cmd.generators
        if size is not None:
            report["size"] = size
        if budget is not None:
            report["budget"] = budget

    # -- commands ----------------------------------------------------------

    def cmd_iterate(self, cmd: Command, report: dict) -> None:
        expr, size, budget, backend = self.setup(cmd)
        self.header(report, cmd, size, budget)
        depth = cmd.option("depth", self.defaults.get("depth", budget))
        report["stages"] = tower(expr, backend, budget, length=depth)

    def cmd_mu(self, cmd: Command, report: dict) -> None:
        expr, size, budget, backend = self.setup(cmd)
        self.header(report, cmd, size, budget)
        result = mu_initial_algebra(expr, backend, budget)
        report["stages"] = result.profile
        report["stationaryAt"] = result.stationary_at
        report["mu"] = {"size": result.carrier.size}
        report["iota"] = result.structure.to_json()

    def cmd_free(self, cmd: Command, report: dict) -> None:
        expr, size, budget, backend = self.setup(cmd)
        self.header(report, cmd, size, budget)
        result = free_algebra(expr, FiniteSet(cmd.generators), backend, budget)
        report["stages"] = result.mu.profile
        report["stationaryAt"] = result.mu.stationary_at
        report["mu"] = {"size": result.mu.carrier.size}
        report["unit"] = result.unit.to_json()
        report["iota"] = result.structure.to_json()

    def cmd_cata(self, cmd: Command, report: dict) -> None:
        expr, size, budget, backend = self.setup(cmd)
        self.header(report, cmd, size, budget)
        decl = self.env.algebras[cmd.algebra]
        carrier = FiniteSet(decl.carrier)
        for v in decl.table:
            if v >= decl.carrier:
                raise UsageError(
                    f"line {decl.line}: algebra table entry {v} outside "
                    f"carrier of size {decl.carrier}"
                )
        fa = eval_functor(expr, (carrier,))
        if len(decl.table) != fa.size:
            raise UsageError(
                f"line {decl.line}: algebra table has {len(decl.table)} "
                f"entries, functor applied to the carrier has {fa.size}"
            )
        alg = AlgebraSpec(carrier, FiniteFn(fa, carrier, decl.table))
        stage = cmd.option("stage")
        length = None if stage is None else stage + 1
        profile = tower(expr, backend, budget, length=length)
        # the sized chain stops at its first repeated size: fold below it
        fold = tower_fold(expr, alg, len(profile) - 2 if stage is None else stage)
        if stage is None:
            report["stage"] = len(profile) - 1
        report["stages"] = profile
        report["fold"] = fold.to_json()

    def cmd_nu(self, cmd: Command, report: dict) -> None:
        expr = self.env.endofunctor(cmd.functor, cmd.line)
        size = cmd.option("size")
        if size not in (None, "nat"):
            raise UsageError(
                f"line {cmd.line}: the dual chain runs on numeric stages only"
            )
        budget = self.opt_budget(cmd)
        self.header(report, cmd, "nat", budget)
        result = deflationary_nu(expr, budget)
        report["stages"] = result.profile
        report["stationaryAt"] = result.stationary_at
        report["nu"] = {"size": result.carrier.size}

    def cmd_check(self, cmd: Command, report: dict) -> None:
        """Samples over MAX_SAMPLES are a usage error, raised before any
        sampling."""
        # only check runs the suites, so they and the colimit engine they
        # test load here, not at start-up
        from .checks import run_checks

        samples = cmd.option("samples", 200)
        if samples > MAX_SAMPLES:
            raise UsageError(
                f"line {cmd.line}: samples {samples} exceeds the cap {MAX_SAMPLES}"
            )
        self.header(report, cmd, self.opt_size(cmd), None)
        report["samples"] = samples
        report["seed"] = cmd.option("seed", self.defaults["seed"])
        report["depth"] = cmd.option("depth", self.defaults.get("depth", 3))
        backend = _backend_for(self.env, report["size"], cmd.line)
        report["checks"] = run_checks(
            backend,
            functors=self.env.functors,
            samples=report["samples"],
            depth=report["depth"],
            seed=report["seed"],
        )


# -- rendering -------------------------------------------------------------


def render_text(payload: dict, write) -> None:
    """Hand payload's text report to write in pieces.  A profile is one
    line per stage, and a table is written as its list."""
    for report in payload["reports"]:
        header = report["command"]
        for k in ("functor", "algebra"):
            if k in report:
                header += f" {report[k]}"
        if "generators" in report:
            header += f" {report['generators']}"
        opts = [
            f"{k}={report[k]}"
            for k in ("size", "budget", "stage", "samples", "seed", "depth")
            if k in report
        ]
        if opts:
            header += "  (" + ", ".join(opts) + ")"
        write(header + "\n")
        if "error" in report:
            write(f"  error[{report['error']['type']}]: {report['error']['message']}\n")
        if report.get("stages"):
            _write_rows(
                (f"  D[{index}] size={size}\n" for index, size in _stages(report["stages"])),
                "",
                write,
            )
        if "stationaryAt" in report:
            write(f"  stationary at stage {report['stationaryAt']}\n")
        if "mu" in report:
            write(f"  mu size={report['mu']['size']}\n")
        if "nu" in report:
            write(f"  nu size={report['nu']['size']}\n")
        for k in ("iota", "unit", "fold"):
            if k in report:
                table = report[k]["table"]
                write(f"  {k}: [")
                if table:
                    _write_table(table, ", ", write)
                write("]\n")
        for c in report.get("checks", ()):
            mark = "ok  " if c["ok"] else "FAIL"
            write(f"  {mark} {c['name']}: {c['detail']}\n")


def render_json(payload: dict, write) -> None:
    """Hand ``json.dumps(payload, sort_keys=True, indent=2)`` and a newline
    to write in pieces, a Profile read as the list of its rows.

    The stdlib's indenting encoder walks a table one entry at a time; here
    a list of plain ints, or ``bytes`` (the list of its ints), goes by
    _write_table, and a profile is written from its sizes and its stages'
    indices, one row at a time, by _write_rows.  Any other type raises
    TypeError.
    """
    _write_json(payload, "\n", write)
    write("\n")


def _write_json(value, newline: str, write) -> None:
    """Write value's indented JSON; newline is "\\n" plus its indent."""
    kind = type(value)
    inner = newline + "  "
    if kind is dict:
        for key in value:
            if type(key) is not str:
                raise TypeError(f"JSON keys must be str, not {type(key).__name__}")
        if not value:
            write("{}")
            return
        sep = "{" + inner
        for key in sorted(value):
            write(sep + _quote(key) + ": ")
            _write_json(value[key], inner, write)
            sep = "," + inner
        write(newline + "}")
    elif kind is list or kind is tuple or kind is bytes or kind is Profile:
        if not value:
            write("[]")
        elif kind is Profile:
            field = inner + "  "
            write("[" + inner)
            _write_rows(
                (
                    f'{{{field}"index": {_quote(index)},{field}"size": {size}{inner}}}'
                    for index, size in _stages(value)
                ),
                "," + inner,
                write,
            )
            write(newline + "]")
        elif kind is bytes or set(map(type, value)) == {int}:
            write("[" + inner)
            _write_table(value, "," + inner, write)
            write(newline + "]")
        else:
            sep = "[" + inner
            for item in value:
                write(sep)
                _write_json(item, inner, write)
                sep = "," + inner
            write(newline + "]")
    elif kind is str:
        write(_quote(value))
    elif kind is int:
        write(int.__repr__(value))
    elif kind in (float, bool, type(None)):
        write(json.dumps(value))
    else:
        raise TypeError(f"{kind.__name__} is not a JSON payload type")


def _stages(profile: Profile):
    """(index, size) of each stage of profile."""
    return zip(map(profile.backend.stage_index, range(len(profile))), profile.sizes)


def _write_rows(rows, sep: str, write) -> None:
    """Write the strs of rows with sep between them, in pieces that each
    end at the first row to take the piece's rows past _PIECE characters."""
    piece: list = []
    length, lead = 0, ""
    for row in rows:
        piece.append(row)
        length += len(row)
        if length >= _PIECE:
            write(lead + sep.join(piece))
            piece, length, lead = [], 0, sep
    if piece:
        write(lead + sep.join(piece))


# json.dumps's writer of a str; the table that writes each value 0..9 as
# its ASCII digit and every other byte as 0xff, which no digit is; a
# table piece's item count; and a profile piece's least character count
_quote = json.encoder.encode_basestring_ascii
_DIGITS = b"0123456789".ljust(256, b"\xff")
_CHUNK = 4096
_PIECE = 65536


def _write_table(table, sep: str, write) -> None:
    """Write the ints of a nonempty table with sep between them: the first
    item, then pieces of _CHUNK items with sep before each item.  In a
    piece of values 0..9, as a fold into a small algebra holds, every item
    is sep and one digit, so one buffer of at most _CHUNK copies of
    sep + "0" serves the whole table: one strided slice assignment puts a
    piece's digits in their slots, and the piece's items are decoded from
    its start through a memoryview, with no copy of the bytes.  Any other
    piece is one sep.join of its ints' reprs."""
    write(int.__repr__(table[0]))
    step = len(sep) + 1
    buf = bytearray((sep + "0").encode() * min(_CHUNK, len(table) - 1))
    for at in range(1, len(table), _CHUNK):
        part = table[at:at + _CHUNK]
        try:
            digits = bytes(part).translate(_DIGITS)
        except ValueError:  # a value outside 0..255
            digits = b"\xff"  # so the piece is not written as digits
        if b"\xff" in digits:
            write(sep + sep.join(map(int.__repr__, part)))
        else:
            end = len(digits) * step
            buf[step - 1:end:step] = digits
            write(str(memoryview(buf)[:end], "ascii"))


# -- entry point -------------------------------------------------------------


# The texts argparse printed for this command line at 80 columns.
USAGE = """\
usage: muiter [-h] [--size SIZE] [--budget BUDGET] [--depth DEPTH]
              [--seed SEED] [--format {text,json}] [--version]
              [script]
"""

HELP = (
    USAGE
    + """
Iterate set functors to their fixed points, per script.

positional arguments:
  script                script file to run ('-' or absent reads stdin)

options:
  -h, --help            show this help message and exit
  --size SIZE           default size discipline: nat, plump, or plump:<sig>
  --budget BUDGET
  --depth DEPTH
  --seed SEED
  --format {text,json}
  --version             show program's version number and exit
"""
)

# every option, in the order an ambiguous prefix lists its matches
_OPTIONS = (
    "-h", "--help", "--size", "--budget", "--depth", "--seed", "--format", "--version"
)
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _read_option(arg: str) -> Optional[Tuple[str, Optional[str]]]:
    """(option, attached value) for an option word, None for a value word.

    An unknown option is (arg, None); a unique prefix of a long option
    names it, and -h may carry text after it, as in -hx.
    """
    if not arg.startswith("-") or arg == "-":
        return None
    if arg in _OPTIONS:
        return arg, None
    name, eq, value = arg.partition("=")
    if eq and name in _OPTIONS:
        return name, value
    if arg.startswith("--"):
        matches = [o for o in _OPTIONS if o.startswith(name)]
        if len(matches) > 1:
            raise UsageError(
                f"ambiguous option: {arg} could match {', '.join(matches)}"
            )
        if matches:
            return matches[0], value if eq else None
    elif arg.startswith("-h"):
        return "-h", arg[2:]
    if _NEGATIVE_NUMBER.match(arg) or " " in arg:
        return None
    return arg, None


def parse_args(argv: List[str]) -> Optional[dict]:
    """The option values argv gives: script, size, budget, depth, seed, format.

    Reads argv as argparse read it for this command line: --opt value and
    --opt=value, unique prefixes of long options, a value starting with "-"
    only when it is a negative number or holds a space, "--" ending the
    options, and the last of a repeated option winning.  -h/--help and --version write their text
    to stdout and return None.  A bad argv raises UsageError with argparse's
    message; so does a negative --depth.
    """
    values = {
        "script": "-",
        "size": "nat",
        "budget": DEFAULT_BUDGET,
        "depth": None,
        "seed": 0,
        "format": "text",
    }
    words = []  # (option, attached value), or (None, value), or ("--", None)
    for at, arg in enumerate(argv):
        if arg == "--":
            words.append(("--", None))
            words.extend((None, rest) for rest in argv[at + 1:])
            break
        words.append(_read_option(arg) or (None, arg))
    extras: List[str] = []
    script_at = None
    at = 0
    while at < len(words):
        option, value = words[at]
        at += 1
        if option is None:
            if script_at is None:
                values["script"], script_at = value, at
            else:
                extras.append(value)
        elif option == "--":
            # dropped before the script or right after it
            if script_at not in (None, at - 1):
                extras.append(option)
        elif option not in _OPTIONS:
            extras.append(option)
        elif option in ("-h", "--help", "--version"):
            name = "--version" if option == "--version" else "-h/--help"
            if option == "-h" and value:
                value = value.lstrip("h") or None  # -hh is -h twice
            if value is not None:
                raise UsageError(
                    f"argument {name}: ignored explicit argument {value!r}"
                )
            sys.stdout.write(f"muiter {__version__}\n" if name == "--version" else HELP)
            return None
        else:
            if value is None:
                if at == len(words) or words[at][0] is not None:
                    raise UsageError(f"argument {option}: expected one argument")
                value = words[at][1]
                at += 1
            values[option[2:]] = _option_value(option, value)
    if extras:
        raise UsageError("unrecognized arguments: " + " ".join(extras))
    if values["depth"] is not None and values["depth"] < 0:
        raise UsageError(
            f"argument --depth: must be at least 0, not {values['depth']}"
        )
    return values


def _option_value(option: str, text: str):
    """The value of option, read from text."""
    if option == "--size":
        return text
    if option == "--format":
        if text not in ("text", "json"):
            raise UsageError(
                f"argument --format: invalid choice: {text!r} "
                "(choose from 'text', 'json')"
            )
        return text
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"argument {option}: invalid int value: {text!r}") from None


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as e:
        sys.stderr.write(f"{USAGE}error: {e}\n")
        return 1
    if args is None:  # help or version
        return 0
    try:
        if args["script"] == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(args["script"], "rb") as handle:
                data = handle.read()
    except OSError as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    # one reading for a file and for stdin, whatever encoding Python gave
    # sys.stdin: a byte that is not UTF-8 reaches the tokenizer as a lone
    # surrogate, and a line ends at \r\n or a lone \r as at \n, as under
    # universal newlines
    text = data.decode("utf-8", "surrogateescape")
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        statements = parse_script(text)
    except DslError as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    # a depth flag left out leaves each command its own default
    defaults = {
        k: args[k] for k in ("size", "budget", "seed", "depth") if args[k] is not None
    }
    runner = Runner(statements, defaults)
    try:
        code, payload = runner.run()
    except (IntegrityError, NonFunctorialDiagram) as e:
        sys.stderr.write(f"internal error: {e}\n")
        return 3
    except MuiterError as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    render = render_json if args["format"] == "json" else render_text
    try:
        render(payload, sys.stdout.write)
        sys.stdout.flush()  # a closed reader shows here, not at exit
    except BrokenPipeError:  # the flush at exit then writes to nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(main())
