import tracemalloc

import numpy as np
import pytest

import theta4.theta_eval as theta_eval
from theta4.theta_eval import PeriodMatrix, block_diagonal_tau, random_tau


@pytest.fixture()
def no_lattice_sum(monkeypatch):
    """Fail the test if anything reaches the lattice-sum kernel."""

    def refuse(*args):
        raise AssertionError("a lattice sum ran")

    monkeypatch.setattr(theta_eval, "_theta_groups", refuse)


@pytest.fixture()
def traced_peak():
    """measure(fn) -> (fn(), the tracemalloc peak of the call above the memory traced before it)."""

    def measure(fn):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            result = fn()
            return result, tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    return measure


@pytest.fixture(scope="session")
def tau_g1_i() -> PeriodMatrix:
    return PeriodMatrix([[1j]])


@pytest.fixture(scope="session")
def tau_g2_random() -> PeriodMatrix:
    return random_tau(2, seed=7, floor=1.0)


@pytest.fixture(scope="session")
def tau_g2_product() -> PeriodMatrix:
    return block_diagonal_tau([1j, 1j])


@pytest.fixture(scope="session")
def zero1() -> np.ndarray:
    return np.zeros(1, dtype=complex)


@pytest.fixture(scope="session")
def zero2() -> np.ndarray:
    return np.zeros(2, dtype=complex)
