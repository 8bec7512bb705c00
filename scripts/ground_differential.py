#!/usr/bin/env python3
"""Compare the join-based grounder with the cross-product reference.

Draws random safe programs of 2 to 7 rules from the rule pool of
``tests/test_grounder.py::test_ground_matches_naive_reference`` (facts,
positive loops, function terms, theory atoms with rule variables, &in
heads, integrity constraints), grounds each with ``htsolve.ground`` and
with ``naive_ground`` of ``tests/oracles.py``, half of them with the
integer range 0..1, and requires the same rules in the same order and the
same universe.  Exits nonzero on the first mismatch, printing the program
so it can be pasted into a regression test.

Usage:
    python3 scripts/ground_differential.py --count 2000 --seed 808
"""

import argparse
import importlib.util
import random
import sys
import time
from pathlib import Path

from htsolve import GroundingOptions, ground, parse_program
from htsolve.core import rule_variables
from htsolve.grounder import check_safety

TESTS = Path(__file__).resolve().parent.parent / "tests"


def load_tests():
    """``naive_ground`` and the rule pool of ``tests/``, imported by path."""
    sys.path.insert(0, str(TESTS))  # test_grounder imports oracles by name
    modules = []
    for name in ("oracles", "test_grounder"):
        spec = importlib.util.spec_from_file_location(f"htsolve_tests_{name}", TESTS / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        modules.append(module)
    oracles, tests = modules
    return oracles.naive_ground, tests._POOL


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=8)
    args = ap.parse_args(argv)

    naive_ground, pool = load_tests()
    rng = random.Random(args.seed)
    seconds = {"ground": 0.0, "naive": 0.0}
    programs = rules = 0
    while programs < args.count:
        src = "\n".join(rng.choice(pool) for _ in range(rng.randint(2, 7)))
        p = parse_program(src)
        if check_safety(p) or not any(rule_variables(r) for r in p.rules):
            continue
        opts = rng.choice([GroundingOptions(), GroundingOptions(int_range=(0, 1))])
        t0 = time.perf_counter()
        joined = ground(p, opts)
        t1 = time.perf_counter()
        naive = naive_ground(p, opts)
        seconds["ground"] += t1 - t0
        seconds["naive"] += time.perf_counter() - t1
        programs += 1
        if joined.rules != naive.rules or joined.universe != naive.universe:
            print(f"MISMATCH on program {programs} ({opts}):")
            print(src)
            print(f"ground kept {len(joined.rules)} rules, naive_ground {len(naive.rules)}")
            return 1
        rules += len(joined.rules)

    print(f"{programs} programs agree ({rules} ground rules)")
    print(", ".join(f"{name} {s:.2f}s" for name, s in seconds.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
