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

The same nulls give a second oracle, on the exact layer's sign matrix M:
the fourth powers (v_a^4) over the even a are eigenvectors of M for the
eigenvalue 2^g, and over many tau they span that whole eigenspace.  By
M^2 = 2^(g-1) M + 2^(2g-1) I the other eigenvalue is -2^(g-1), so the
multiplicity m+ of 2^g is read off the trace of M; it is
(2^g + 1)(2^(g-1) + 1) / 3, so 2, 5, 15 and 51 at g = 1-4.
"""

import numpy as np
import pytest

from test_oracle_hyperelliptic import hyperelliptic_tau
from test_oracle_modular import WORDS, moved, word
from theta4.mmatrix import build_m
from theta4.theta_eval import PeriodMatrix, block_diagonal_tau, random_tau, theta_nulls

BOUND = 1e-13  # worst case below: 5.7e-15 (Sp-moved tau, g <= 3), 8.6e-16 (genus 4)
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


@pytest.mark.parametrize("g, seed", [w for w in WORDS if w[0] <= 3])
def test_vanishes_on_sp_moved_tau(g, seed):
    # M tau has the smallest imaginary eigenvalue 0.05-0.5, another shape than random_tau's
    moved_tau, _ = moved(word(g, seed), random_tau(g, seed=g))
    assert schottky(nulls_of(moved_tau), g) < BOUND


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_nonzero_at_general_genus_4(seed):
    assert schottky(nulls_of(random_tau(4, seed, 0.5)), 4) > FLOOR


def test_one_perturbed_null_breaks_it():
    nulls = nulls_of(random_tau(3, 0))
    assert schottky(nulls, 3) < BOUND
    nulls[5] *= 1 + 1e-6
    assert schottky(nulls, 3) > 1e-9


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_null_fourth_powers_span_the_top_eigenspace(g):
    m = build_m(g)
    d = len(m)
    m_plus, rest = divmod(int(np.trace(m)) + d * 2 ** (g - 1), 2**g + 2 ** (g - 1))
    assert rest == 0 and m_plus == (2**g + 1) * (2 ** (g - 1) + 1) // 3  # 2, 5, 15, 51
    rows = np.array([nulls_of(random_tau(g, s)) ** 4 for s in range(2 * m_plus)])
    norms = np.linalg.norm(rows, axis=1)
    # each row is an eigenvector: ||(M - 2^g I) v|| <= 1e-12 2^g ||v||, measured <= 1.5e-15
    assert np.all(np.linalg.norm(rows @ m - 2**g * rows, axis=1) <= 1e-12 * 2**g * norms)
    # rank m+: at g = 4 the last kept singular value is 2.4e-5 of the first, the next 2.3e-16
    s = np.linalg.svd(rows / norms[:, None], compute_uv=False)
    assert np.count_nonzero(s > 1e-9 * s[0]) == m_plus
