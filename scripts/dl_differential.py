#!/usr/bin/env python3
"""Fuzz the incremental difference-logic graph against interval narrowing.

Random batches of x - y <= k constraints are asserted one by one into a
DiffGraph; the final Sat/Conflict verdict is compared with a brute-force
reference that narrows upper bounds inside a fixed window.  Sat endings are
re-verified by substituting the model the graph reports; Conflict endings by
summing the weights on the returned cycle.

Usage:
    python3 scripts/dl_differential.py --count 1000 --seed 13
"""

import argparse
import random
import sys
import time
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent.parent / d) for d in ("src", "tests")]
from htsolve import Conflict, DiffGraph  # noqa: E402
from randprog import random_dl_instance  # noqa: E402


def narrow(constraints, window):
    """Reference decision: witness dict inside the window, or None."""
    lo, hi = window
    upper = {v: hi for x, y, _ in constraints for v in (x, y)}
    changed = True
    while changed:
        changed = False
        for x, y, k in constraints:
            if upper[x] > upper[y] + k:
                upper[x] = upper[y] + k
                if upper[x] < lo:
                    return None
                changed = True
    return upper


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=13)
    ap.add_argument("--variables", type=int, default=6)
    ap.add_argument("--constraints", type=int, default=10)
    ap.add_argument("--weight", type=int, default=5)
    ap.add_argument("--window", type=int, default=30,
                    help="brute-force search window half-width")
    args = ap.parse_args(argv)

    rng = random.Random(args.seed)
    window = (-args.window, args.window)
    sats = conflicts = 0
    started = time.perf_counter()
    for n in range(1, args.count + 1):
        constraints = random_dl_instance(
            rng, n_vars=args.variables,
            max_constraints=args.constraints, weight=args.weight,
        )
        graph = DiffGraph()
        weight_of = {}
        conflict = None
        for i, (x, y, k) in enumerate(constraints, start=1):
            cid = f"c{i}"
            weight_of[cid] = k
            outcome = graph.assert_diff(x, y, k, cid)
            if isinstance(outcome, Conflict):
                conflict = outcome
                break
        witness = narrow(constraints, window)
        if conflict is None:
            sats += 1
            sol = graph.solution().as_dict()
            if witness is None:
                print(f"instance {n}: graph says Sat, reference says unsat")
                return 1
            bad = [(x, y, k) for x, y, k in constraints if sol[x] - sol[y] > k]
            if bad:
                print(f"instance {n}: reported model violates {bad}")
                return 1
        else:
            conflicts += 1
            if witness is not None:
                print(f"instance {n}: graph says Conflict, reference found {witness}")
                return 1
            total = sum(weight_of[cid] for cid in conflict.cycle)
            if total >= 0:
                print(f"instance {n}: conflict cycle sums to {total} >= 0")
                return 1
    elapsed = time.perf_counter() - started
    print(f"{args.count} instances agree: {sats} Sat, {conflicts} Conflict "
          f"({elapsed:.2f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
