#!/usr/bin/env python3
"""Compare the parser's token passes with the reference scanner.

Draws random parser inputs with ``random_source`` of ``tests/randprog.py``
(whole rules, tokens of the language, words next to its keywords, blanks,
comments, texts the lexer rejects, and now and then a 5,000-digit
integer).  For each it requires ``htsolve.parser._lex`` to give the same
tokens (kinds, texts, lines, columns) and diagnostics as ``reference_lex``
of ``tests/oracles.py``, a scanner with one alternative per token kind;
where there is no diagnostic, the parse path's kinds and texts must equal
the reference tokens'.  Exits nonzero on the first mismatch, printing the
input so it can be pasted into a regression test.

Usage:
    python3 scripts/parse_differential.py --count 20000 --seed 1111
"""

import argparse
import random
import sys
import time
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent.parent / d) for d in ("src", "tests")]
from htsolve.parser import _scan  # noqa: E402
from oracles import scanner_differences  # noqa: E402
from randprog import random_source  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args(argv)

    rng = random.Random(args.seed)
    started = time.perf_counter()
    rejected = 0
    for n in range(1, args.count + 1):
        src = random_source(rng)
        differences = scanner_differences(src)
        if differences:
            print(f"MISMATCH on input {n} ({', '.join(differences)}):")
            print(repr(src))
            return 1
        rejected += _scan(src) is None
    print(f"{args.count} inputs agree ({rejected} with lexer diagnostics)")
    print(f"{time.perf_counter() - started:.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
