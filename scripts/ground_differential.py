#!/usr/bin/env python3
"""Compare the join-based grounder with the cross-product reference.

Draws random safe programs of 2 to 7 rules (``--rules`` raises the 7) from
``_POOL`` of ``tests/randprog.py``, the rule pool the grounder tests draw from too
(facts, positive loops, function terms, theory atoms with rule variables,
&in heads, integrity constraints), grounds each with ``htsolve.ground``
and with ``naive_ground`` of ``tests/oracles.py``, and requires the same rules
in the same order, the same universe, and one object per distinct atom
and per distinct literal in ``ground``'s result.  It also requires both
producers of the numbered rule table to agree: ``numbered`` of ``ground``'s
result and of a program built by hand from the reference's rules give the
same atoms, theory atoms and variables, each in its text order, and rule
rows as a multiset.  Variable-free programs count too.  Exits nonzero on the first
mismatch, printing the program so it can be pasted into a regression test.

Bigger programs meet facts and recursive components together more often.
``--variable-free`` draws from ``_GROUND_POOL`` instead, rules without
variables (negation, positive loops, function terms, theory atoms, &in
heads, constraints, body atoms nothing derives), which ground keeps as data.

Usage:
    python3 scripts/ground_differential.py --count 2000 --seed 808
    python3 scripts/ground_differential.py --count 2000 --seed 818 --rules 14
    python3 scripts/ground_differential.py --variable-free --count 2000 --seed 828
"""

import argparse
import random
import sys
import time
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent.parent / d) for d in ("src", "tests")]
from htsolve import ground, parse_program  # noqa: E402
from htsolve.grounder import GroundProgram, check_safety  # noqa: E402
from oracles import _numbering, _one_object_each, naive_ground  # noqa: E402
from randprog import _GROUND_POOL, _POOL  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=8)
    ap.add_argument("--rules", type=int, default=7, metavar="MAX",
                    help="most rules per program, at least 2 (default 7)")
    ap.add_argument("--variable-free", action="store_true",
                    help="draw rules without variables only")
    args = ap.parse_args(argv)
    if args.rules < 2:
        ap.error("--rules must be at least 2")

    rng = random.Random(args.seed)
    pool = _GROUND_POOL if args.variable_free else _POOL
    seconds = {"ground": 0.0, "naive": 0.0}
    programs = rules = 0
    while programs < args.count:
        src = "\n".join(rng.choice(pool) for _ in range(rng.randint(2, args.rules)))
        p = parse_program(src)
        if check_safety(p):
            continue
        t0 = time.perf_counter()
        joined = ground(p)
        t1 = time.perf_counter()
        naive = naive_ground(p)
        seconds["ground"] += t1 - t0
        seconds["naive"] += time.perf_counter() - t1
        programs += 1
        if joined.rules != naive.rules or joined.universe != naive.universe:
            print(f"MISMATCH on program {programs}:")
            print(src)
            print(f"ground kept {len(joined.rules)} rules, naive_ground {len(naive.rules)}")
            return 1
        if not _one_object_each(joined):
            print(f"SHARING on program {programs}: an atom or literal has two objects:")
            print(src)
            return 1
        if _numbering(joined) != _numbering(GroundProgram(naive.rules, naive.universe)):
            print(f"NUMBERING on program {programs}: the grounder's table and the rules' differ:")
            print(src)
            return 1
        rules += len(joined.rules)

    print(f"{programs} programs agree ({rules} ground rules)")
    print(", ".join(f"{name} {s:.2f}s" for name, s in seconds.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
