#!/usr/bin/env python3
"""End-to-end product-configuration walkthrough on a small bike model.

Builds a two-wheel bike model, optionally injects a partial build, compiles
it to a solver program, enumerates every completion, decodes each answer
back into an instance, and re-checks the decoded instances against the
model.  Shows the founded and casp compilations side by side.

Usage:
    python3 scripts/configure_bike.py                # free configuration
    python3 scripts/configure_bike.py --pin-diam 26  # pin one wheel size
    python3 scripts/configure_bike.py --lo 16 --hi 18
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from htsolve import (  # noqa: E402
    ConfigInstance,
    check_instance,
    decode_instance,
    ground,
    load_model,
    parse_program,
    solve,
    translate,
    value_bounds,
)
from htsolve.configkit import EMPTY_INSTANCE  # noqa: E402


def bike_model(lo: int, hi: int):
    src = (
        "ptype(bike). root(bike).\n"
        "ptype(wheel).\n"
        "subpart(bike,wheel,2,2).\n"
        f"attrdom(wheel,diam,{lo},{hi})."
    )
    model = load_model(parse_program(src))
    if isinstance(model, list):
        raise SystemExit("\n".join(str(d) for d in model))
    return model


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--lo", type=int, default=16, help="smallest wheel diameter")
    ap.add_argument("--hi", type=int, default=17, help="largest wheel diameter")
    ap.add_argument("--pin-diam", type=int, default=None,
                    help="pre-assemble one wheel with this diameter")
    args = ap.parse_args(argv)

    model = bike_model(args.lo, args.hi)
    if args.pin_diam is None:
        partial = EMPTY_INSTANCE
        print("starting from an empty build")
    else:
        partial = ConfigInstance(
            individuals=(("b1", "bike"), ("w1", "wheel")),
            parents=(("w1", "b1"),),
            values=(("w1", "diam", args.pin_diam),),
        )
        print(f"starting from one mounted wheel with diam={args.pin_diam}")

    decoded_by_mode = {}
    for mode in ("founded", "casp"):
        program = translate(model, partial, mode)
        g = ground(program)
        answers = solve(g, mode, value_bounds(model))
        decoded = sorted(
            {decode_instance(a) for a in answers},
            key=lambda inst: sorted(inst.values),
        )
        decoded_by_mode[mode] = set(decoded)
        print(f"\n{mode}: {len(program.rules)} compiled rules, "
              f"{len(decoded)} complete configurations")
        for inst in decoded:
            wheels = ", ".join(
                f"{ident}.{attr}={value}" for ident, attr, value in inst.values
            )
            verdict = "ok" if check_instance(model, inst) == [] else "INVALID"
            print(f"  {wheels}  [{verdict}]")

    if decoded_by_mode["founded"] != decoded_by_mode["casp"]:
        print("\nmodes disagree!")
        return 1
    print("\nfounded and casp compilations enumerate the same configurations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
