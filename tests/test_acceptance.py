"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here and nothing is deferred to later
calibration.
"""

import itertools
import time

import numpy as np

from theta4.basis_analysis import (
    NumericalRankPolicy,
    basis_report,
    fourth_power_rank,
    normalized_evaluation_matrix,
    mu,
    vanishing_nulls,
)
from theta4.char2 import (
    Characteristic,
    d_plus,
    enumerate_characteristics,
    even_characteristics,
    kappa_value,
    parity,
)
from theta4.cli import main, run_suite, standard_corpus
from theta4.identities import inversion_residuals, quartic_residuals, riemann_quartic_check
from theta4.jsonio import canonical_dumps
from theta4.mmatrix import build_m, inverse_m, verify_sign_matrix
from theta4.theta_eval import (
    PeriodMatrix,
    block_diagonal_tau,
    random_tau,
    theta_nulls,
    theta_series,
)
from pathlib import Path
from fractions import Fraction


def _report(number: int, name: str, elapsed: float) -> None:
    print(f"ACCEPTANCE {number} ({name}): PASS [{elapsed:.2f}s]")


def test_criterion_1_exact_m_suite():
    start = time.perf_counter()
    for g in (1, 2, 3, 4):
        m = build_m(g)
        assert m.dim == d_plus(g) == {1: 3, 2: 10, 3: 36, 4: 136}[g]
        checks = verify_sign_matrix(g)
        assert all(checks.values()), (g, checks)
    # exact rational product check at small genus on top of the integer route
    for g in (1, 2):
        m = build_m(g)
        inv = inverse_m(g)
        for i in range(m.dim):
            row = [
                sum(Fraction(int(m.entries[i][k])) * inv.entries[k][j] for k in range(m.dim))
                for j in range(m.dim)
            ]
            assert row == [Fraction(1 if i == j else 0) for j in range(m.dim)]
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"criterion 1 exceeded its 5 s budget: {elapsed:.2f}s"
    _report(1, "exact sign-matrix suite g=1..4", elapsed)


def test_criterion_2_odd_null_vanishing():
    start = time.perf_counter()
    for g in (1, 2, 3):
        odd_chars = [c for c in enumerate_characteristics(g) if parity(c) == -1]
        for seed in range(20):
            tau = random_tau(g, seed=seed, floor=1.0)
            top = max(abs(v) for v in theta_nulls(tau).values())
            zero = np.zeros(g, dtype=complex)
            for c in odd_chars:
                assert abs(theta_series(c, zero, tau).value) < 1e-10 * top, (g, seed, c)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"criterion 2 exceeded its 30 s budget: {elapsed:.2f}s"
    _report(2, "odd theta-nulls vanish on 20 seeded tau per genus", elapsed)


def test_criterion_3_quartic_relation():
    start = time.perf_counter()
    jacobi = riemann_quartic_check(Characteristic.zero(1), [0.0], PeriodMatrix([[1j]]))
    assert jacobi.rel_residual < 1e-9
    for g in (1, 2):
        for seed in range(20):
            tau = random_tau(g, seed=seed, floor=1.0)
            for res in quartic_residuals(tau, n_samples=1, seed=seed + 1000):
                assert res.rel_residual < 1e-8, (g, seed, res.char, res.rel_residual)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 3 exceeded its 60 s budget: {elapsed:.2f}s"
    _report(3, "quartic addition relation incl. Jacobi specialization", elapsed)


def test_criterion_4_inversion_formula():
    start = time.perf_counter()
    for g in (1, 2):
        for seed in range(20):
            tau = random_tau(g, seed=seed, floor=1.0)
            for res in inversion_residuals(tau, n_samples=1, seed=seed + 1000):
                assert res.rel_residual < 1e-8, (g, seed, res.char, res.rel_residual)
    elapsed = time.perf_counter() - start
    _report(4, "inversion over even pairs on the same corpus", elapsed)


def test_criterion_5_normalized_evaluation_equals_m():
    start = time.perf_counter()
    for g in (1, 2):
        nonzero = next(c for c in even_characteristics(g) if not c.is_zero)
        for seed in range(5):
            tau = random_tau(g, seed=seed, floor=1.0)
            assert vanishing_nulls(tau) == []
            for kappa0 in (Characteristic.zero(g), nonzero):
                _, deviation = normalized_evaluation_matrix(tau, kappa0)
                assert deviation < 1e-7, (g, seed, kappa0, deviation)
    elapsed = time.perf_counter() - start
    _report(5, "normalized evaluation matrix reproduces the sign matrix", elapsed)


def _product_vanishing_count(blocks: int) -> int:
    """Brute-force oracle: even products of genus-1 pairs with an odd factor."""
    genus1 = list(itertools.product((0, 1), repeat=2))
    count = 0
    for combo in itertools.product(genus1, repeat=blocks):
        parities = [(-1) ** (a1 * a2) for a1, a2 in combo]
        if np.prod(parities) == 1 and any(p == -1 for p in parities):
            count += 1
    return count


def test_criterion_6_rank_and_corank_law():
    start = time.perf_counter()
    tau_rand = random_tau(2, seed=7, floor=1.0)
    tau_prod2 = block_diagonal_tau([1j, 1j])
    tau_prod3 = block_diagonal_tau([1j, 1j, 1j])

    assert fourth_power_rank(tau_rand, seed=2) == 10
    assert fourth_power_rank(tau_prod2, seed=2) == 9
    assert vanishing_nulls(tau_prod2) == [Characteristic((1, 1), (1, 1))]

    oracle = _product_vanishing_count(3)
    assert oracle == 9
    vanishing3 = vanishing_nulls(tau_prod3)
    assert len(vanishing3) == oracle
    rank3 = fourth_power_rank(tau_prod3, seed=2)
    assert d_plus(3) - rank3 == oracle

    for tau, expected in ((tau_rand, 10), (tau_prod2, 9), (tau_prod3, 27)):
        ranks = {
            fourth_power_rank(tau, rank_policy=NumericalRankPolicy(t), seed=2)
            for t in (1e-8, 1e-7, 1e-6)
        }
        assert ranks == {expected}, (expected, ranks)
    elapsed = time.perf_counter() - start
    _report(6, "fourth-power rank, corank law, threshold stability", elapsed)


def test_criterion_7_mu_law():
    start = time.perf_counter()
    for g in (1, 2):
        tau = random_tau(g, seed=11, floor=1.0)
        evens = even_characteristics(g)
        for a in evens:
            for kappa in evens:
                for kappa_prime in evens:
                    value = mu(a, kappa, kappa_prime, tau)
                    expected = kappa_value(kappa, a) * kappa_value(kappa_prime, a)
                    assert abs(value - expected) < 1e-7, (g, a, kappa, kappa_prime)
    elapsed = time.perf_counter() - start
    _report(7, "mu quotient equals the product of quadratic forms", elapsed)


def test_criterion_8_deterministic_reports(tmp_path: Path):
    start = time.perf_counter()
    corpus = standard_corpus()
    text_a = canonical_dumps(run_suite(corpus, Path(".")))
    text_b = canonical_dumps(run_suite(corpus, Path(".")))
    assert text_a == text_b
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["run-suite", "--standard", "--out", str(first)]) == 0
    assert main(["run-suite", "--standard", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    elapsed = time.perf_counter() - start
    _report(8, "byte-identical suite reports", elapsed)
