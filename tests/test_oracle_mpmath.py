"""theta_table against mpmath's Jacobi theta functions, an evaluator independent of theta4.

With q = exp(pi i tau) and the argument pi z, the four genus-1 characteristics are

    theta[0,0] = jtheta(3),  theta[0,1] = jtheta(4),
    theta[1,0] = jtheta(2),  theta[1,1] = -jtheta(1),

and the theta function of a diagonal tau is the product of its genus-1 factors.
mpmath takes q^(1/4) on the principal branch, which is exp(pi i tau / 4) for
|Re tau| < 1.
"""

import numpy as np
import pytest

from theta4.char2 import Characteristic, enumerate_characteristics
from theta4.theta_eval import PeriodMatrix, sample_cell_points, theta_table

mpmath = pytest.importorskip("mpmath")

# (a1, a2) -> (sign, jtheta index)
JACOBI = {(0, 0): (1, 3), (0, 1): (1, 4), (1, 0): (1, 2), (1, 1): (-1, 1)}


def jacobi_product(c: Characteristic, z, diagonal) -> complex:
    value = mpmath.mpc(1)
    for a1, a2, zj, tj in zip(c.a1, c.a2, z, diagonal):
        sign, n = JACOBI[(a1, a2)]
        q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tj))
        value *= sign * mpmath.jtheta(n, mpmath.pi * mpmath.mpc(zj), q)
    return complex(value)


@pytest.mark.parametrize(
    "diagonal",
    [
        [0.3 + 1.1j],
        [-0.45 + 0.8j],
        [0.2 + 1.3j, -0.35 + 1.0j],
        [0.1 + 1.0j, 0.4 + 1.7j, -0.25 + 0.9j],
    ],
)
def test_table_matches_jacobi_products(diagonal):
    tau = PeriodMatrix(np.diag(diagonal))
    g = tau.g
    points = np.vstack([np.zeros(g), sample_cell_points(tau, 3, seed=g), 0.5 + 0.5 * np.array(diagonal)])
    chars = enumerate_characteristics(g)
    table = theta_table(chars, points, tau)
    with mpmath.workdps(30):
        for i, c in enumerate(chars):
            for j, z in enumerate(points):
                expected = jacobi_product(c, z, diagonal)
                assert abs(table[i, j] - expected) <= 2e-11 * max(1.0, abs(expected)), (c, j)
