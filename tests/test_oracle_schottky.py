"""Igusa's Schottky form on the theta-nulls, an oracle outside the order-four relations.

Over the even nulls v_a = theta[a](0, tau), 2^-g sum v_a^8 is the genus-g
theta series of the lattice E8 + E8 (the square below) and 2^-g sum v_a^16
that of D16+.  The two lattices have the same theta series in genus 1-3, so

    J = (2^-g sum v_a^8)^2 - 2^-g sum v_a^16

vanishes at every tau of genus g <= 3.  At genus 4 it vanishes exactly on the
closure of the Jacobian locus (Igusa, "Schottky's invariant and quadratic
forms", Christoffel Symposium 1981; Grushevsky, "The Schottky problem", MSRI
Publ. 59, 2012): at hyperelliptic tau and at products of lower-genus blocks,
but not at a general tau.  J is read relative to 2^-g sum |v_a|^16, the scale
of its terms.  Only theta_nulls is used; no relation of the package enters.
"""

import numpy as np
import pytest

from test_oracle_hyperelliptic import hyperelliptic_tau
from theta4.theta_eval import PeriodMatrix, block_diagonal_tau, random_tau, theta_nulls

BOUND = 1e-13  # worst case below: 1.6e-15 (random_tau, g <= 3), 8.6e-16 (genus 4)
FLOOR = 1e-5  # least value at random_tau(4, s, 0.5), s = 0-2: 6.6e-4


def schottky(nulls: np.ndarray, g: int) -> float:
    """|J| / (2^-g sum |v_a|^16) over the even nulls."""
    e8 = np.sum(nulls**8) / 2**g
    d16 = np.sum(nulls**16) / 2**g
    return abs(e8 * e8 - d16) / (np.sum(np.abs(nulls) ** 16) / 2**g)


def nulls_of(tau: PeriodMatrix) -> np.ndarray:
    return np.array(list(theta_nulls(tau).values()))


@pytest.mark.parametrize("g", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("floor", [1.0, 0.5])
def test_vanishes_below_genus_4(g, seed, floor):
    assert schottky(nulls_of(random_tau(g, seed, floor)), g) < BOUND


@pytest.mark.parametrize(
    "tau",
    [
        block_diagonal_tau([random_tau(3, 1), random_tau(1, 2)]),
        block_diagonal_tau([random_tau(2, 3), random_tau(2, 4)]),
        PeriodMatrix(hyperelliptic_tau(3)),
        PeriodMatrix(hyperelliptic_tau(4)),
    ],
    ids=["g3xg1", "g2xg2", "hyperelliptic-g3", "hyperelliptic-g4"],
)
def test_vanishes_on_jacobians(tau):
    assert schottky(nulls_of(tau), tau.g) < BOUND


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_nonzero_at_general_genus_4(seed):
    assert schottky(nulls_of(random_tau(4, seed, 0.5)), 4) > FLOOR


def test_one_perturbed_null_breaks_it():
    nulls = nulls_of(random_tau(3, 0))
    assert schottky(nulls, 3) < BOUND
    nulls[5] *= 1 + 1e-6
    assert schottky(nulls, 3) > 1e-9
