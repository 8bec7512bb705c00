"""Command-line frontend: solve, ground, check-config, translate-config.

Exit codes follow ASP-solver and sysexits conventions: 0 for non-solve
success, 10 satisfiable, 20 unsatisfiable, 1 for failed configuration
checks, 64 for usage errors, 65 for unreadable or unparsable input.
"""

from __future__ import annotations

import argparse
import re
import sys
from itertools import count, islice
from pathlib import Path

from . import configkit
from .core import AssignmentAtom, Program, pretty_print
from .core import atoms_of  # noqa: F401  looked up here by the benchmark's tracer
from .grounder import ground
from .parser import parse_program
from .search import solve
from .semantics import MODES, Answers, numbered, valuation_text

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_SAT = 10
EXIT_UNSAT = 20
EXIT_USAGE = 64
EXIT_INPUT = 65

_CHUNK = 256  # answers per write; 256 to 65,536 took the same time, and memory grows with it

_DOMAIN_RE = re.compile(r"(-?\d+)\.\.(-?\d+)\Z")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _domain(text: str) -> tuple:
    m = _DOMAIN_RE.match(text)
    if not m:
        raise argparse.ArgumentTypeError(
            f"expected LO..HI with integer bounds, got {text!r}"
        )
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty domain {text!r}")
    return (lo, hi)


def _build() -> _Parser:
    top = _Parser(prog="htsolve", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Parser)

    ps = sub.add_parser("solve", help="enumerate answer sets of a program file")
    ps.add_argument("file")
    ps.add_argument("--semantics", choices=MODES, default="casp")
    ps.add_argument("--engine", choices=("oracle", "search"), default="oracle")
    ps.add_argument("--domain", type=_domain, default=None, metavar="LO..HI")
    ps.add_argument("--models", type=int, default=0, metavar="N",
                    help="print at most N answer sets (0 = all)")

    pg = sub.add_parser("ground", help="ground a program file")
    pg.add_argument("file")
    pg.add_argument("--text", action="store_true",
                    help="print the ground rules instead of a summary")

    pc = sub.add_parser("check-config", help="check an instance against a model")
    pc.add_argument("--model", required=True)
    pc.add_argument("--instance", required=True)

    pt = sub.add_parser("translate-config",
                        help="compile a model and optional partial instance")
    pt.add_argument("--model", required=True)
    pt.add_argument("--instance", default=None)
    pt.add_argument("--semantics", choices=MODES, required=True)
    pt.add_argument("-o", "--output", required=True)
    return top


_PARSER = _build()


def _fail_usage(message: str) -> int:
    print(f"htsolve: usage error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _read(path: str):
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"htsolve: cannot read {path}: {exc}", file=sys.stderr)
        return None


def _parse_file(path: str):
    src = _read(path)
    if src is None:
        return None
    result = parse_program(src)
    if not isinstance(result, Program):
        for d in result:
            print(f"{path}:{d.line}:{d.column}: {d.message}", file=sys.stderr)
        return None
    return result


def _ground_file(path: str):
    """The program in path, ground; None once its diagnostics are printed."""
    program = _parse_file(path)
    if program is None:
        return None
    try:
        return ground(program)
    except ValueError as exc:
        print(f"htsolve: {path}: {exc}", file=sys.stderr)
        return None


def _load_config_file(path: str, loader):
    parsed = _parse_file(path)
    if parsed is None:
        return None
    loaded = loader(parsed)
    if isinstance(loaded, list):
        for d in loaded:
            if d.rule_index is None:
                print(f"{path}: {d.message}", file=sys.stderr)
            else:
                print(f"{path}: rule {d.rule_index}: {d.message}", file=sys.stderr)
        return None
    return loaded


def _attach_negative_domain(argv: list) -> list:
    """Spell `--domain -2..0` as `--domain=-2..0`.

    argparse takes an argument that starts with '-' and is no plain negative
    number for an option, so the separate spelling of a negative range would
    fail with "expected one argument".  Abbreviations such as --dom count.
    """
    out: list = []
    for k, arg in enumerate(argv):
        if arg == "--":
            return out + argv[k:]
        prev = out[-1] if out else ""
        if len(prev) > 2 and "--domain".startswith(prev) and re.match(r"-\d", arg):
            out[-1] = f"{prev}={arg}"
        else:
            out.append(arg)
    return out


def run(argv) -> int:
    """Execute one invocation and return its exit code."""
    try:
        ns = _PARSER.parse_args(_attach_negative_domain(list(argv)))
    except _UsageError as exc:
        return _fail_usage(str(exc))
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    handlers = {
        "solve": _cmd_solve,
        "ground": _cmd_ground,
        "check-config": _cmd_check,
        "translate-config": _cmd_translate,
    }
    return handlers[ns.command](ns)


def _cmd_solve(ns: argparse.Namespace) -> int:
    if ns.models < 0:
        return _fail_usage("--models must be nonnegative")
    if ns.engine == "search" and ns.semantics == "founded":
        return _fail_usage("--engine search supports --semantics casp only")
    g = _ground_file(ns.file)
    if g is None:
        return EXIT_INPUT
    prog = numbered(g)
    if ns.engine == "search" and any(isinstance(e, AssignmentAtom) for e in prog.theory):
        return _fail_usage("--engine search does not support &in assignments")
    bounds = ns.domain
    if bounds is None:
        if prog.variables:
            return _fail_usage(
                "--domain is required for programs with integer variables: "
                + ", ".join(str(v) for v in prog.variables)
            )
        bounds = (0, 0)
    answers = solve(g, ns.semantics, bounds, ns.engine, ns.models)
    _print_answers(answers)
    sys.stdout.write("SATISFIABLE\n" if answers else "UNSATISFIABLE\n")
    return EXIT_SAT if answers else EXIT_UNSAT


def _print_answers(answers: Answers) -> None:
    """Write the answers from their value tuples, _CHUNK answers per write.

    One format string serves every answer: the answer number, the atoms
    line and the values.  The atoms line is made once per group, by joining
    the atoms' texts in id order, which is their text order, so no Atom is
    built.  An answer with an undefined variable (founded mode) lists only
    the defined ones.
    """
    names = [str(v) for v in answers.variables]
    fmt = "Answer: {}\n{}\n"
    if names:
        escaped = [n.replace("{", "{{").replace("}", "}}") for n in names]
        fmt += "val " + valuation_text(escaped, ["{}"] * len(names)) + "\n"
    fmt = fmt.format

    def partial(i: int, line: str, vals: tuple) -> str:
        text = valuation_text(names, vals)
        return f"Answer: {i}\n{line}\nval {text}\n" if text else f"Answer: {i}\n{line}\n"

    write = sys.stdout.write
    buf: list = []
    n = 0
    texts = answers.prog.texts
    for ids, values in answers.id_groups:
        line = " ".join(map(texts.__getitem__, ids))
        numbered_values = zip(count(n + 1), values)
        while True:
            k = len(buf)
            buf += [
                partial(i, line, vals) if None in vals else fmt(i, line, *vals)
                for i, vals in islice(numbered_values, _CHUNK - k)
            ]
            n += len(buf) - k
            if len(buf) < _CHUNK:
                break  # the group is done
            write("".join(buf))
            buf.clear()
    write("".join(buf))


def _cmd_ground(ns: argparse.Namespace) -> int:
    g = _ground_file(ns.file)
    if g is None:
        return EXIT_INPUT
    if ns.text:
        text = str(g)
        if text:
            print(text)
    else:
        print(f"rules: {g.rule_count()}")
        print(f"universe: {len(g.universe)}")
    return EXIT_OK


def _cmd_check(ns: argparse.Namespace) -> int:
    model = _load_config_file(ns.model, configkit.load_model)
    if model is None:
        return EXIT_INPUT
    instance = _load_config_file(ns.instance, configkit.load_instance)
    if instance is None:
        return EXIT_INPUT
    violations = configkit.check_instance(model, instance)
    if not violations:
        print("OK")
        return EXIT_OK
    for v in violations:
        print(str(v))
    return EXIT_VIOLATIONS


def _cmd_translate(ns: argparse.Namespace) -> int:
    model = _load_config_file(ns.model, configkit.load_model)
    if model is None:
        return EXIT_INPUT
    if ns.instance:
        partial = _load_config_file(ns.instance, configkit.load_instance)
        if partial is None:
            return EXIT_INPUT
    else:
        partial = configkit.EMPTY_INSTANCE
    try:
        program = configkit.translate(model, partial, ns.semantics)
    except ValueError as exc:
        print(f"htsolve: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        Path(ns.output).write_text(pretty_print(program) + "\n", encoding="utf-8")
    except OSError as exc:
        print(f"htsolve: cannot write {ns.output}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    raise SystemExit(main())
