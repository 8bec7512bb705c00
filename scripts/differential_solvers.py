#!/usr/bin/env python3
"""Stress the solvers against each other on random programs.

Generates random ground hybrid programs (Boolean atoms mixed with linear and
difference constraint atoms) and reports any disagreement, answers and
order, with the definitional enumerator ``naive_equilibrium`` of
``tests/oracles.py``.  In casp mode each program is solved by both engines,
the oracle and the search engine.  They share both the numbering of the
program and the Boolean core, so their agreement alone would not catch a
fault in either; ``naive_equilibrium`` is the independent check.  In
founded mode the programs also get &in assignment heads, and only the
oracle engine runs.  Every engine, each called through ``solve``, is also
asked for the first one and the first two answers (``models=1`` and
``2``), which must be the prefixes of the full list, also where the cut
falls inside a group of Boolean models.  Every engine also runs through
the command line, ``htsolve solve`` on the program's text, for every
answer and with ``--models 1`` and ``2``; its stdout must equal
``naive_equilibrium``'s answers for the program it reads (the text,
grounded again) rendered by ``oracles.cli_text``.  In both
modes ``is_equilibrium`` must accept every answer of ``naive_equilibrium``.  Exits nonzero on the
first mismatch, printing the offending program so it can be pasted into a
regression test.

Usage:
    python3 scripts/differential_solvers.py --count 500 --seed 7 --domain 0..3
    python3 scripts/differential_solvers.py --semantics founded --count 300 --seed 8
"""

import argparse
import contextlib
import io
import random
import re
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent.parent / d) for d in ("src", "tests")]
from htsolve import ground, is_equilibrium, parse_program, run, solve  # noqa: E402
from oracles import cli_text, naive_equilibrium  # noqa: E402
from randprog import random_hybrid_program  # noqa: E402


def domain(text: str) -> tuple:
    m = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", text)
    if not m or int(m.group(1)) > int(m.group(2)):
        raise argparse.ArgumentTypeError(f"expected LO..HI, got {text!r}")
    return (int(m.group(1)), int(m.group(2)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=500)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--atoms", type=int, default=6)
    ap.add_argument("--variables", type=int, default=3)
    ap.add_argument("--rules", type=int, default=6)
    ap.add_argument("--domain", type=domain, default=(0, 3), metavar="LO..HI")
    ap.add_argument("--semantics", choices=("casp", "founded"), default="casp")
    args = ap.parse_args(argv)

    bounds = args.domain
    engines = ("oracle", "search") if args.semantics == "casp" else ("oracle",)
    solvers = {
        engine: lambda g, engine=engine: solve(g, args.semantics, bounds, engine=engine)
        for engine in engines
    }
    solvers["naive"] = lambda g: naive_equilibrium(g, args.semantics, bounds)
    rng = random.Random(args.seed)
    answer_histogram = Counter()
    seconds = Counter()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "program.lp"
        for n in range(1, args.count + 1):
            g = random_hybrid_program(
                rng, n_atoms=args.atoms, n_vars=args.variables, max_rules=args.rules,
                assignments=args.semantics == "founded",
            )
            found = {}
            for name, solver in solvers.items():
                t0 = time.perf_counter()
                found[name] = solver(g)
                seconds[name] += time.perf_counter() - t0
            want = found["naive"]
            for name, answers in found.items():
                if answers != want:
                    print(f"MISMATCH on program {n}:")
                    print(g)
                    print(f"{name} found {len(answers)}, naive found {len(want)}")
                    return 1
            for ans in want:
                if not is_equilibrium(ans, g, args.semantics, bounds):
                    print(f"MISMATCH on program {n}:")
                    print(g)
                    print(f"is_equilibrium rejects naive's answer {ans}")
                    return 1
            for engine in engines:
                for k in (1, 2):
                    if solve(g, args.semantics, bounds, engine=engine, models=k) != want[:k]:
                        print(f"MISMATCH on program {n}:")
                        print(g)
                        print(f"{engine} with models={k} is not the first {k} of naive's answers")
                        return 1
            # the command line grounds the program's text, which drops the
            # rules that can never fire, and with them their variables
            path.write_text(f"{g}\n", encoding="utf-8")
            read = ground(parse_program(f"{g}\n"))
            printed = want
            if set(read.rules) != set(g.rules):
                printed = naive_equilibrium(read, args.semantics, bounds)
            for engine in engines:
                for k in (0, 1, 2):
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        run(["solve", str(path), "--semantics", args.semantics, "--engine", engine,
                             f"--domain={bounds[0]}..{bounds[1]}", "--models", str(k)])
                    if out.getvalue() != cli_text(printed, k):
                        print(f"MISMATCH on program {n}:")
                        print(g)
                        print(f"htsolve solve --engine {engine} --models {k} prints:")
                        print(out.getvalue(), end="")
                        return 1
            answer_histogram[len(want)] += 1

    print(f"{args.count} programs agree in {args.semantics} mode "
          f"(atoms<={args.atoms}, variables<={args.variables}, "
          f"rules<={args.rules}, domain {bounds[0]}..{bounds[1]})")
    print(", ".join(f"{name} {seconds[name]:.2f}s" for name in solvers))
    print("answer-set counts:",
          ", ".join(f"{k}x{v}" for k, v in sorted(answer_histogram.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
