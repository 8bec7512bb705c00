#!/usr/bin/env python3
"""Compare translate -> ground -> solve with the configuration instance reference.

Draws random configuration models with ``_draw_model`` of
``tests/test_configkit.py`` (a partonomy of 2-4 part types, multiplicities
up to 3, at most 6 minted slots, small attribute ranges, sometimes one
constraint rule), and requires the instances ``decode_instance`` reads off
the answers, and the answer count, to equal those of ``_reference``, which
builds every instance and keeps those ``check_instance`` passes: in
founded mode, in casp mode, and in casp mode on ``--engine search`` for
models without a constraint rule.  Exits nonzero on the first mismatch,
printing the model's facts so they can be pasted into a regression test.

Usage:
    python3 scripts/config_differential.py --count 500 --seed 2222
"""

import argparse
import random
import sys
import time
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent.parent / d) for d in ("src", "tests")]
from test_configkit import _draw_model, _reference, _solved  # noqa: E402

RUNS = [("founded", "oracle"), ("casp", "oracle"), ("casp", "search")]


def model_text(m) -> str:
    """The model's facts and constraint rules, as load_model reads them."""
    facts = [f"ptype({t})." for t in m.part_types] + [f"root({m.root})."]
    facts += [f"subpart({p},{c},{mn},{mx})." for p, c, mn, mx in m.edges]
    facts += [f"attrdom({t},{a},{lo},{hi})." for t, a, lo, hi in m.attributes]
    return " ".join(facts + [str(r) for r in m.constraints])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=100)
    ap.add_argument("--seed", type=int, default=22)
    args = ap.parse_args(argv)

    rng = random.Random(args.seed)
    seconds = {f"{mode}/{engine}": 0.0 for mode, engine in RUNS}
    seconds["reference"] = 0.0
    instances = answers = 0
    for n in range(1, args.count + 1):
        m = _draw_model(rng)
        t0 = time.perf_counter()
        reference = _reference(m)
        seconds["reference"] += time.perf_counter() - t0
        want = {
            "founded": (set(reference), len(reference)),
            "casp": (set(reference), sum(reference.values())),
        }
        for mode, engine in RUNS:
            if engine == "search" and m.constraints:
                continue  # the val/3 bridge a constraint rule brings is slow on search
            t0 = time.perf_counter()
            got = _solved(m, mode, engine)
            seconds[f"{mode}/{engine}"] += time.perf_counter() - t0
            if got != want[mode]:
                print(f"MISMATCH on model {n}, {mode} mode, engine {engine}:")
                print(model_text(m))
                print(f"solve gave {got[1]} answers, {len(got[0])} instances; "
                      f"the reference {want[mode][1]} answers, {len(want[mode][0])} instances")
                return 1
            answers += got[1]
        instances += len(reference)

    print(f"{args.count} models agree ({instances} instances, {answers} answers)")
    print(", ".join(f"{name} {s:.2f}s" for name, s in seconds.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
