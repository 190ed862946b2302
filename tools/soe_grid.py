"""Sweep the sum of exponentials of the far field (fraccalc._soe) over
the grid its docstring states, and fail above the figures stated there.

    PYTHONPATH=src python3 tools/soe_grid.py

The grid: alpha = 0.001, 0.002, 0.003, 0.005, 0.01, 0.02, ..., 0.99,
0.995, 0.999; delta = 1e-2, 1e-3, ..., 1e-15; geometric grids of 500 and
2000 points in [delta, 1], 2940 cases. A case's error is the largest
relative error of sum_l omega_l exp(-lam_l x) against x^{-alpha} on its
grid. Prints the worst case and the cases above 1e-15, for the whole grid
and from alpha = 0.2 on (the Gauss-Jacobi rule), and exits 1 when either
worst error or count exceeds the figures in STATED, or when the _soe
docstring no longer states them.
"""

import sys

import numpy as np

from hilferbvp import fraccalc

ALPHAS = (0.001, 0.002, 0.003, 0.005) + tuple(k / 100 for k in range(1, 100)) + (0.995, 0.999)
DELTAS = tuple(10.0**-k for k in range(2, 16))
POINTS = (500, 2000)
BAR = 1e-15
# (worst relative error, cases above BAR) as the _soe docstring states them
STATED = {"all": ("1.38e-15", 37), "alpha >= 0.2": ("1.05e-15", 1)}


def error(alpha, delta, points):
    lam, omega = fraccalc._soe(alpha, delta)
    x = np.geomspace(delta, 1.0, points)
    want = x ** (-alpha)
    return float(np.max(np.abs(np.exp(-np.outer(x, lam)) @ omega - want) / want))


def main():
    cases = [(a, d, n, error(a, d, n)) for a in ALPHAS for d in DELTAS for n in POINTS]
    doc = " ".join(fraccalc._soe.__doc__.split())
    failed = False
    for name, region in (("all", cases), ("alpha >= 0.2", [c for c in cases if c[0] >= 0.2])):
        worst = max(region, key=lambda c: c[3])
        above = sum(c[3] > BAR for c in region)
        bound, count = STATED[name]
        ok = worst[3] <= float(bound) and above <= count
        failed |= not ok
        print(f"{name}: {len(region)} cases, worst {worst[3]:.3g} (alpha = {worst[0]}, "
              f"delta = {worst[1]:.0e}, {worst[2]} points), {above} above {BAR:.0e}; "
              f"stated {bound} and {count}: {'ok' if ok else 'EXCEEDED'}")
        for figure in (bound, f"{count} of those {len(region)}"):
            if figure not in doc:
                print(f"error: the _soe docstring does not state {figure!r}")
                failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
