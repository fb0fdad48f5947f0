#!/usr/bin/env python3
"""Sweep the exact H-minimum over feasible conic profiles per curve count.

For each k the search covers every multiplicity vector satisfying the
incidence identity with no k-fold point, once filtered through the integer
positivity quadratic and once raw.  The raw combinatorial minimum dives
below -9/2 for larger k (t_9 = 17 on k = 18 reaches -81/17), while the
filtered minimum stays above it; the filter is doing real work there.
"""

import argparse
import sys
from fractions import Fraction

from harbourne.hconst import format_decimal
from harbourne.profiles import CONICS
from harbourne.search import Filter, SearchQuery, SearchResult, minimize_h


def _column(result: SearchResult, width: int) -> str:
    """Exact and decimal minimum."""
    h = result.min_h
    text = "none" if h is None else f"{h} {format_decimal(h, 3)}"
    return text.rjust(width)


def sweep(kmin: int, kmax: int):
    print(f"{'k':>3}  {'feasible':>9}  {'min_h (lt-filtered)':>22}  {'raw min_h':>16}")
    for k in range(kmin, kmax + 1):
        filtered = minimize_h(
            SearchQuery(
                CONICS, k, require_tk_zero=True, filters={Filter.LT_QUADRATIC}
            )
        )
        raw = minimize_h(SearchQuery(CONICS, k, require_tk_zero=True))
        fmin = filtered.min_h
        assert fmin is None or fmin >= Fraction(-9, 2), "filtered minimum broke -9/2"
        print(
            f"{k:>3}  {filtered.enumerated_count:>9}  "
            f"{_column(filtered, 22)}  {_column(raw, 16)}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kmin", type=int, default=3)
    parser.add_argument("--kmax", type=int, default=9)
    args = parser.parse_args(argv)
    sweep(args.kmin, args.kmax)
    return 0


if __name__ == "__main__":
    sys.exit(main())
