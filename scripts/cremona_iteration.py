#!/usr/bin/env python3
"""Iterate the H-constant transformation law h -> s/(s+3) h.

Each generic-base-point transformation keeps the strict-transform
self-intersection and adds three blown-up points, so the trajectory
telescopes to h0 * s0/(s0 + 3n) while the member degree doubles each
step.  The default run starts from the Klein line configuration values.
"""

import argparse
import sys
from fractions import Fraction

from harbourne.cli import _plain_int
from harbourne.cremona import iterate_law
from harbourne.documents import DocumentError, parse_rational
from harbourne.hconst import format_decimal


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--h0", default="-3", help="a rational p or p/q")
    parser.add_argument("--s0", type=_plain_int, default=49)
    parser.add_argument("--steps", type=_plain_int, default=8)
    args = parser.parse_args(argv)

    try:
        h0 = parse_rational(args.h0, "--h0")
        steps = iterate_law(h0, args.s0, args.steps)
    except (DocumentError, ValueError) as err:
        parser.error(str(err))
    print(f"{'step':>4}  {'s':>6}  {'degree x':>8}  {'h':>16}  {'decimal':>9}")
    for idx, step in enumerate(steps):
        print(
            f"{idx:>4}  {step.s:>6}  {step.degree_multiplier:>8}  "
            f"{str(step.h):>16}  {format_decimal(step.h, 4):>9}"
        )
    final = steps[-1]
    telescoped = h0 * Fraction(args.s0, args.s0 + 3 * args.steps)
    assert final.h == telescoped
    print(f"\ntelescoped closed form h0*s0/(s0+3n) = {telescoped} confirmed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
