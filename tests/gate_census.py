"""Which midpoint systems the Gohberg-Semencul gate refuses, for a given seed order.

    PYTHONPATH=src python tests/gate_census.py --order 99

Builds the generator of 300 midpoint matrices A (alpha 1.05 to 2, M 400 to
8192, tau 1e-4 to 1e3, upsilon 0, 0.1 or 1, eta 1, on [-16, 16]) and of 225
more on the small grids M = 128, 200 and 320, from the LU of A's leading
section of the given order, as ``stepper.build_system_matrix`` does from
``_GS_SEED_ORDER``, and prints one line per build: the gate's verdict and the
number of corrections made. The last lines count the refusals of each set and
name the (alpha, tau) pairs that have any. A change of seed (order, or another seed
altogether) should leave that set as it is; compare the output before and after.

Run by hand: it is not collected by pytest and takes a few seconds.
"""

from __future__ import annotations

import argparse
import re
from itertools import product

from fgle.linalg import SingularMatrixError, lu_factor, symmetric_toeplitz
from fgle.stepper import GridSpec
from fgle.wsgd import assemble_operator, wsgd_weights

ALPHAS = (1.05, 1.3, 1.6, 1.9, 2.0)
CELLS = (400, 1024, 2048, 8192)
SMALL_CELLS = (128, 200, 320)
TAUS = (1e-4, 1e-2, 1.0, 1e2, 1e3)
UPSILONS = (0.0, 0.1, 1.0)
ETA = 1.0


def census(order: int, cells):
    """(alpha, M, tau, upsilon, refusal reason or None, corrections) for every build."""
    for alpha, m in product(ALPHAS, cells):
        grid = GridSpec(-16.0, 16.0, m)
        column = assemble_operator(wsgd_weights(alpha, m), m).column
        for tau, upsilon in product(TAUS, UPSILONS):
            # A's column as build_system_matrix forms it, with gamma = 0
            col = (tau / 2.0) * (upsilon + 1j * ETA) * grid.h ** (-alpha) * column
            col[0] += 1.0
            seed = lu_factor(symmetric_toeplitz(col[:order]))
            try:
                residuals = seed.with_gohberg_semencul(col).residuals
                reason = None
            except SingularMatrixError as error:
                reason = re.search(r": ([^;]+);", str(error)).group(1)
                residuals = re.search(r"generator residuals \[(.*)\]", str(error)).group(1).split(",")
            yield alpha, m, tau, upsilon, reason, len(residuals) - 1


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--order", type=int, default=99, help="order of the seed section")
    order = parser.parse_args().order
    print("alpha M tau upsilon verdict corrections")
    for cells in (CELLS, SMALL_CELLS):
        refused = []
        for alpha, m, tau, upsilon, reason, corrections in census(order, cells):
            print(f"{alpha:g} {m} {tau:g} {upsilon:g} {reason or 'passed'} {corrections}")
            if reason:
                refused.append((alpha, tau))
        pairs = sorted(set(refused))
        print(f"seed order {order}, M in {cells}: {len(refused)} of "
              f"{len(ALPHAS) * len(cells) * len(TAUS) * len(UPSILONS)} refused")
        print("refused (alpha, tau): " + ", ".join(f"({a:g}, {t:g}) x{refused.count((a, t))}"
                                                  for a, t in pairs))


if __name__ == "__main__":
    main()
