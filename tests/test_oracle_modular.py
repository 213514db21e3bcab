"""theta_table against itself across the Sp(2g, Z) transformation law, g = 1-4.

For M = [[A, B], [C, D]] in Sp(2g, Z), M tau = (A tau + B)(C tau + D)^-1 and
z' = (C tau + D)^-T z, the law (Igusa, Theta Functions, 1972; Mumford, Tata
Lectures on Theta I, II.5) reads, in moduli so that its eighth root of unity
drops out,

    |theta[M.a](z', M tau)| = |det(C tau + D)|^(1/2) |exp(pi i z' (C tau + D)^-1 C z)| |theta[a](z, tau)|

with the characteristic action

    (M.a)_1 = D a_1 - C a_2 + diag(C D')  mod 2,
    (M.a)_2 = -B a_1 + A a_2 + diag(A B')  mod 2.

M tau has another shape than tau: the smallest eigenvalue of its imaginary
part is 0.05-0.5 for the words below, against at least 1 for tau, so the two
sides come from different lattice sums and share no table.  M is a seeded
word in the generators [[I, S], [0, I]] (S symmetric), [[0, -I], [I, 0]] and
[[U, 0], [0, U^-T]] (U unimodular).  Each word has C != 0 and an odd entry in
diag(C D'), so that each of three mutations of the law (dropping diag(C D'),
swapping the halves of M.a, omitting the exponential factor) breaks it.

The same law moves the vanishing even nulls: theta[a](0, tau) = 0 exactly when
theta[M.a](0, M tau) = 0.  At hyperelliptic tau and at products of blocks many
nulls vanish, and the words carry each vanishing set onto M tau's.
"""

import numpy as np
import pytest

from test_oracle_hyperelliptic import hyperelliptic_tau
from theta4.basis_analysis import split_nulls
from theta4.char2 import Characteristic, enumerate_characteristics
from theta4.theta_eval import (
    PeriodMatrix, block_diagonal_tau, random_tau, sample_cell_points, theta_nulls, theta_table,
)

# (genus, word seed): two words per genus, the smallest transformed eigenvalue first
WORDS = [(1, 11), (1, 2), (2, 20), (2, 8), (3, 13), (3, 4), (4, 7), (4, 22)]
MUTATIONS = {
    "diag(CD') dropped": {"drop_diag": True},
    "halves swapped": {"swap": True},
    "exp factor omitted": {"exp_factor": False},
}


def generator(rng: np.random.Generator, g: int) -> np.ndarray:
    eye, zero = np.eye(g, dtype=np.int64), np.zeros((g, g), dtype=np.int64)
    kind = rng.integers(3)
    if kind == 0:
        s = rng.integers(-1, 2, size=(g, g))
        return np.block([[eye, np.triu(s) + np.triu(s, 1).T], [zero, eye]])
    if kind == 1:
        return np.block([[zero, -eye], [eye, zero]])
    u = -eye
    if g > 1:
        u = eye.copy()
        i, j = rng.choice(g, 2, replace=False)
        u[i, j] = rng.choice([-1, 1])
    return np.block([[u, zero], [zero, np.rint(np.linalg.inv(u)).astype(np.int64).T]])


def word(g: int, seed: int, length: int = 6) -> np.ndarray:
    rng = np.random.default_rng([g, seed])
    m = np.eye(2 * g, dtype=np.int64)
    for _ in range(length):
        m = m @ generator(rng, g)
    return m


def act(m: np.ndarray, chars, drop_diag=False, swap=False) -> list[Characteristic]:
    g = len(m) // 2
    a, b, c, d = m[:g, :g], m[:g, g:], m[g:, :g], m[g:, g:]
    out = []
    for ch in chars:
        a1, a2 = np.array(ch.a1), np.array(ch.a2)
        top = (d @ a1 - c @ a2 + (0 if drop_diag else np.diag(c @ d.T))) % 2
        bottom = (-b @ a1 + a @ a2 + np.diag(a @ b.T)) % 2
        if swap:
            top, bottom = bottom, top
        out.append(Characteristic(tuple(map(int, top)), tuple(map(int, bottom))))
    return out


def moved(m: np.ndarray, tau: PeriodMatrix) -> tuple[PeriodMatrix, np.ndarray]:
    """(M tau, made symmetric, and C tau + D)."""
    g = tau.g
    a, b, c, d = m[:g, :g], m[:g, g:], m[g:, :g], m[g:, g:]
    ctd = c @ tau.tau + d
    image = (a @ tau.tau + b) @ np.linalg.inv(ctd)
    return PeriodMatrix((image + image.T) / 2), ctd


def law_error(g: int, seed: int, drop_diag=False, swap=False, exp_factor=True) -> tuple[float, float]:
    """(worst |lhs - rhs| over each point's largest lhs, lambda_min of M tau) at z = 0 and two cell points."""
    m = word(g, seed)
    c = m[g:, :g]
    tau = random_tau(g, seed=g)
    points = np.vstack([np.zeros(g), sample_cell_points(tau, 2, seed=g)])
    moved_tau, ctd = moved(m, tau)
    moved_points = np.linalg.solve(ctd.T, points.T).T
    chars = enumerate_characteristics(g)
    lhs = np.abs(theta_table(act(m, chars, drop_diag, swap), moved_points, moved_tau))
    quad = np.array([z @ np.linalg.solve(ctd, c @ z) for z in points])
    factor = np.sqrt(abs(np.linalg.det(ctd))) * (np.exp(-np.pi * quad.imag) if exp_factor else 1.0)
    rhs = factor * np.abs(theta_table(chars, points, tau))
    return float((np.abs(lhs - rhs).max(axis=0) / lhs.max(axis=0)).max()), moved_tau.lambda_min


@pytest.mark.parametrize("g, seed", WORDS)
def test_word_is_symplectic_and_moves_characteristics(g, seed):
    m = word(g, seed)
    j = np.block([[np.zeros((g, g), dtype=np.int64), np.eye(g, dtype=np.int64)],
                  [-np.eye(g, dtype=np.int64), np.zeros((g, g), dtype=np.int64)]])
    assert np.array_equal(m.T @ j @ m, j)
    c, d = m[g:, :g], m[g:, g:]
    assert c.any() and (np.diag(c @ d.T) % 2).any()
    # the action permutes the characteristics
    assert sorted(ch.index for ch in act(m, enumerate_characteristics(g))) == list(range(4**g))


@pytest.mark.parametrize("g, seed", WORDS)
def test_transformation_law(g, seed):
    err, lam = law_error(g, seed)
    assert err < 1e-12, err
    assert 0.04 < lam < 0.5, lam


@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize("g, seed", WORDS)
def test_mutated_law_fails(g, seed, mutation):
    err, _ = law_error(g, seed, **MUTATIONS[mutation])
    assert err > 1e-3, err


# vanishing even nulls of the hyperelliptic tau by genus, and of the products
# of random_tau blocks by their block genera
HYPERELLIPTIC_VANISHING = {1: 0, 2: 0, 3: 1, 4: 10}
PRODUCT_VANISHING = {(1, 1): 1, (2, 1): 6, (3, 1): 28, (2, 2): 36}
MOVED = [pytest.param(g, seed, None, id=f"hyperelliptic-g{g}-{seed}") for g, seed in WORDS] + [
    pytest.param(g, seed, blocks, id=f"product-{blocks[0]}x{blocks[1]}-{seed}")
    for blocks in PRODUCT_VANISHING for g, seed in WORDS if g == sum(blocks)
]


def vanishing(tau: PeriodMatrix) -> tuple[tuple[Characteristic, ...], float, float]:
    """The vanishing even nulls, then the largest of them and the smallest other null, relative to the largest."""
    nulls = theta_nulls(tau)
    top, zero, _ = split_nulls(nulls)
    ratios = {c: abs(v) / top for c, v in nulls.items()}
    return zero, max((ratios[c] for c in zero), default=0.0), min(r for c, r in ratios.items() if c not in zero)


@pytest.mark.parametrize("g, seed, blocks", MOVED)
def test_moved_tau_keeps_its_vanishing_nulls(g, seed, blocks):
    m = word(g, seed)
    if blocks is None:
        tau, count = PeriodMatrix(hyperelliptic_tau(g)), HYPERELLIPTIC_VANISHING[g]
    else:
        tau, count = block_diagonal_tau([random_tau(b, 5 + b) for b in blocks]), PRODUCT_VANISHING[blocks]
    zero, _, _ = vanishing(tau)
    moved_zero, largest, smallest_kept = vanishing(moved(m, tau)[0])
    assert len(zero) == len(moved_zero) == count
    assert set(act(m, zero)) == set(moved_zero)
    # far from the cut-off on either side, so the sets do not hang on it
    assert largest < 1e-12 and smallest_kept > 1e-3, (largest, smallest_kept)
