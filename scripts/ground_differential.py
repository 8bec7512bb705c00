#!/usr/bin/env python3
"""Compare the join-based grounder with the cross-product reference.

Draws random safe programs of 2 to 7 rules from the rule pool of
``tests/test_grounder.py::test_ground_matches_naive_reference`` (facts,
positive loops, function terms, theory atoms with rule variables, &in
heads, integrity constraints), grounds each with ``htsolve.ground`` and
with ``naive_ground`` of ``tests/oracles.py``, and requires the same rules
in the same order, the same universe, and one object per distinct atom
and per distinct literal in ``ground``'s result.  Variable-free programs
count too.  Exits nonzero on the first mismatch, printing the program so
it can be pasted into a regression test.

Usage:
    python3 scripts/ground_differential.py --count 2000 --seed 808
"""

import argparse
import random
import sys
import time
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent.parent / d) for d in ("src", "tests")]
from htsolve import ground, parse_program  # noqa: E402
from htsolve.grounder import check_safety  # noqa: E402
from oracles import naive_ground  # noqa: E402
from test_grounder import _POOL, _one_object_each  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=8)
    args = ap.parse_args(argv)

    rng = random.Random(args.seed)
    seconds = {"ground": 0.0, "naive": 0.0}
    programs = rules = 0
    while programs < args.count:
        src = "\n".join(rng.choice(_POOL) for _ in range(rng.randint(2, 7)))
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
        rules += len(joined.rules)

    print(f"{programs} programs agree ({rules} ground rules)")
    print(", ".join(f"{name} {s:.2f}s" for name, s in seconds.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
