"""theta_table against evaluators independent of theta4, both in mpmath.

Diagonal tau: mpmath's Jacobi theta functions.  With q = exp(pi i tau) and
the argument pi z, the four genus-1 characteristics are

    theta[0,0] = jtheta(3),  theta[0,1] = jtheta(4),
    theta[1,0] = jtheta(2),  theta[1,1] = -jtheta(1),

and the theta function of a diagonal tau is the product of its genus-1 factors.
mpmath takes q^(1/4) on the principal branch, which is exp(pi i tau / 4) for
|Re tau| < 1.

General tau, where the cross terms tau_jk do not vanish: the defining series
summed term by term at 30 digits over every lattice point within a radius of
the summand's peak that leaves a relative tail far below the tolerance.
"""

import itertools
import math
import sys

import numpy as np
import pytest

from theta4.char2 import Characteristic, enumerate_characteristics
from theta4.theta_eval import PeriodMatrix, random_tau, sample_cell_points, theta_series, theta_table

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


def lattice_sum(c: Characteristic, z, tau: np.ndarray) -> complex:
    """theta[c](z) summed directly at the working precision.

    The terms decay from the peak n = -Y^-1 Im z at least like
    exp(-pi lambda_min |n - peak|^2), so a box of half-width R with
    pi lambda_min R^2 >= 50 drops a tail of order 1e-21 of the peak term.
    """
    g = len(z)
    peak = -np.linalg.solve(tau.imag, np.asarray(z).imag)
    half = math.ceil(math.sqrt(50.0 / (math.pi * np.linalg.eigvalsh(tau.imag).min()))) + 1
    t = [[mpmath.mpc(tau[i, j]) for j in range(g)] for i in range(g)]
    w = [mpmath.mpc(zj) + mpmath.mpf(b) / 2 for zj, b in zip(z, c.a2)]
    axes = [range(round(pj) - half, round(pj) + half + 1) for pj in peak]
    total = mpmath.mpc(0)
    for m in itertools.product(*axes):
        n = [mpmath.mpf(mj) + mpmath.mpf(a) / 2 for mj, a in zip(m, c.a1)]
        phase = sum(n[i] * t[i][j] * n[j] for i in range(g) for j in range(g))
        phase += 2 * sum(ni * wi for ni, wi in zip(n, w))
        total += mpmath.exp(1j * mpmath.pi * phase)
    return complex(total)


def guard_fires(a1, z, tau: PeriodMatrix) -> bool:
    """Whether the kernel sums (a1, z) term by term: its axis factors reach
    exp(growth), and growth >= log(float max) - g log(2r+1) is out of range."""
    radius = theta_series(Characteristic(a1, (0,) * tau.g), z, tau).radius
    alpha = np.array(a1) / 2.0
    shift = np.rint(-alpha - np.linalg.solve(tau.tau.imag, z.imag))
    growth = 2 * math.pi * (radius + alpha) @ np.abs((z + tau.tau @ shift).imag)
    return growth >= math.log(sys.float_info.max) - tau.g * math.log(2 * radius + 1)


# Im tau is large enough here that the range guard sends the far point to the
# term-by-term sum for some top halves a1 and not for others
GUARD_TAU = random_tau(2, seed=3).tau.real + 1j * np.array([[60.0, 20.0], [20.0, 40.0]])
GUARD_POINT = np.array([0.2 - 25j, -0.35 + 10j])


@pytest.mark.parametrize(
    "tau_matrix, guarded",
    [
        (random_tau(2, seed=3).tau, []),
        (random_tau(2, seed=11, floor=0.6).tau, []),
        (GUARD_TAU, [GUARD_POINT]),
    ],
)
def test_table_matches_lattice_sum_off_diagonal(tau_matrix, guarded):
    tau = PeriodMatrix(tau_matrix)
    assert tau.tau[0, 1] != 0 and tau.tau.imag[0, 1] != 0
    for z in guarded:
        fires = [guard_fires(a1, z, tau) for a1 in itertools.product((0, 1), repeat=2)]
        assert any(fires) and not all(fires)
    points = np.vstack([np.zeros(2), sample_cell_points(tau, 3, seed=2), *guarded])
    chars = enumerate_characteristics(2)
    table = theta_table(chars, points, tau)
    with mpmath.workdps(30):
        for i, c in enumerate(chars):
            for j, z in enumerate(points):
                expected = lattice_sum(c, z, tau.tau)
                assert abs(table[i, j] - expected) <= 2e-11 * max(1.0, abs(expected)), (c, j)
