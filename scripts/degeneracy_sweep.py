#!/usr/bin/env python3
"""Sweep Gram-matrix degeneracy against the closed-form predictions.

For each integer delta in a range (characteristic 0), and optionally for
each residue in a prime field, compare the first level with a rank-deficient
Gram matrix against the first weight-vanishing level and the decision
procedure's bound.  Everything is exact; disagreements are printed loudly
and make the script exit nonzero.
"""

import argparse
import sys

from diagalg.criteria import UNBOUNDED, decide_brauer
from diagalg.gram import first_degenerate_level
from diagalg.weights import BrauerParams, IntegerDelta, ParameterError, vanishing_level


def sweep(p, deltas, n_max):
    """Prints one agreement table for characteristic p over the integer
    deltas (residues N in characteristic p), up to level n_max and the
    cap p - 1; returns the number of disagreements."""
    bad = 0
    cap = min(n_max, p - 1) if p else n_max
    print(f"characteristic {p}, levels 2..{cap}")
    print(f"{'N' if p else 'delta':>6}  {'gram':>6}  {'weights':>8}  {'decision':>9}")
    for d in deltas:
        if d == 0:
            continue
        spec = BrauerParams(p, IntegerDelta(d))
        try:
            gram_level = first_degenerate_level(spec, cap)
            vanish = vanishing_level(spec, cap)
        except ParameterError as exc:
            print(f"{d:>6}  skipped: {exc}")
            continue
        vanish_level = None if vanish is None else vanish[0]
        m = decide_brauer(spec).m
        decision = m if m is not UNBOUNDED and m <= cap else None
        agree = gram_level == vanish_level == decision
        row = f"{d:>6}  {str(gram_level):>6}  {str(vanish_level):>8}  {str(decision):>9}"
        if not agree:
            row += "  <-- DISAGREEMENT"
            bad += 1
        print(row)
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--delta-range", type=int, default=5,
                        help="sweep delta in [-R, R] over the rationals (default 5)")
    parser.add_argument("--primes", type=int, nargs="*", default=[5, 7],
                        help="prime characteristics to sweep (default 5 7)")
    parser.add_argument("--n-max", type=int, default=4,
                        help="deepest Gram level to test (default 4)")
    args = parser.parse_args(argv)
    r = args.delta_range
    bad = sweep(0, range(-r, r + 1), args.n_max)
    for p in args.primes:
        print()
        bad += sweep(p, range(1, p), args.n_max)
    if bad:
        print(f"\n{bad} disagreement(s)", file=sys.stderr)
        return 1
    print("\nall three computations agree everywhere")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
