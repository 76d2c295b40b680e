#!/usr/bin/env python3
"""Print semisimplicity-bound tables for three root-of-unity families.

The tables cover the q-Brauer algebras at q^e = 1 (odd e) and q^e = -1
(even e) with r = q^N, and the BMW algebras at odd e with f = 2e and
r = -q^(N-1).  Each cell shows the exact bound m: the algebra at level n
is semisimple exactly for n <= m.
"""

import argparse

from diagalg.criteria import decide
from diagalg.exactalg import RootSpec
from diagalg.weights import BMWParams, QBrauerParams, RootOfUnity, SignedPower


def qbrauer_table(e_values, doubled):
    kind = "q^e = -1 (f = 2e)" if doubled else "q^e = 1 (f = e)"
    print(f"q-Brauer, {kind}, r = q^N")
    for e in e_values:
        f = 2 * e if doubled else e
        cells = []
        for N in range(-e + 1, 0):
            m = decide(QBrauerParams(0, RootOfUnity(RootSpec(e, f)), SignedPower(1, N))).m
            cells.append(f"N={N}:{m}")
        print(f"  e={e:<3} " + "  ".join(cells))
    print()


def bmw_table(e_values):
    print("BMW, odd e, f = 2e, r = -q^(N-1)")
    for e in e_values:
        cells = []
        for N in range(-e + 1, 1):
            m = decide(BMWParams(0, RootOfUnity(RootSpec(e, 2 * e)), SignedPower(-1, N))).m
            cells.append(f"N={N}:{m}")
        print(f"  e={e:<3} " + "  ".join(cells))
    print()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--e-max", type=int, default=13, help="largest e to tabulate (default 13)")
    args = parser.parse_args(argv)
    qbrauer_table(range(3, args.e_max + 1, 2), doubled=False)
    qbrauer_table(range(2, args.e_max + 1, 2), doubled=True)
    bmw_table(range(3, args.e_max + 1, 2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
