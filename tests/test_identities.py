from fractions import Fraction

import numpy as np
import pytest

from theta4.char2 import (
    Characteristic,
    enumerate_characteristics,
    even_characteristics,
    weil_pairing,
)
from theta4.identities import (
    derive_inversion_coefficients,
    inversion_check,
    inversion_residuals,
    riemann_quartic_check,
    quartic_residuals,
)
from theta4.mmatrix import build_m
from theta4.theta_eval import (
    TruncationPolicy,
    random_tau,
    sample_cell_points,
    theta_with_char,
)

# theta3(0, i)^4 and twice it, frozen from an independent high-precision source
THETA3_4TH_AT_I = 1.3932039296856768592
TWICE_THETA3_4TH = 2.7864078593713537184


class TestQuartic:
    def test_jacobi_specialization(self, tau_g1_i, zero1):
        res = riemann_quartic_check(Characteristic.zero(1), zero1, tau_g1_i)
        assert res.rel_residual < 1e-9
        assert abs(res.lhs - THETA3_4TH_AT_I) < 1e-10
        # the relation at z=0, g=1 is literally theta3^4 = theta2^4 + theta4^4
        nulls = {c: theta_with_char(c, zero1, tau_g1_i) for c in enumerate_characteristics(1)}
        jacobi = nulls[Characteristic((0,), (0,))] ** 4 - (
            nulls[Characteristic((0,), (1,))] ** 4 + nulls[Characteristic((1,), (0,))] ** 4
        )
        assert abs(jacobi) < 1e-9

    @pytest.mark.parametrize("g", [1, 2])
    def test_all_characteristics_random_tau(self, g):
        for seed in (0, 1):
            tau = random_tau(g, seed=seed, floor=1.0)
            for res in quartic_residuals(tau, n_samples=2, seed=seed + 50):
                assert res.rel_residual < 1e-8

    def test_odd_characteristic(self, tau_g1_i):
        res = riemann_quartic_check(Characteristic((1,), (1,)), [0.23 + 0.11j], tau_g1_i)
        assert res.rel_residual < 1e-8

    def test_residual_fields_consistent(self, tau_g2_random):
        res = riemann_quartic_check(Characteristic.zero(2), [0.1j, 0.2], tau_g2_random)
        assert res.abs_residual == abs(res.lhs - res.rhs)
        assert res.rel_residual == res.abs_residual / max(abs(res.lhs), abs(res.rhs), 1e-30)
        assert res.abs_residual >= 0.0 and res.scale > 0.0
        assert res.kind == "quartic" and res.tau is tau_g2_random

    def test_batch_matches_single(self, tau_g2_random):
        z = sample_cell_points(tau_g2_random, 1, seed=9)[0]
        for batch_fn, single_fn in (
            (quartic_residuals, riemann_quartic_check),
            (inversion_residuals, inversion_check),
        ):
            for res in batch_fn(tau_g2_random, n_samples=1, seed=9)[:3]:
                single = single_fn(res.char, z, tau_g2_random)
                assert single.lhs == res.lhs and single.rhs == res.rhs


class TestInversion:
    def test_g1_z0(self, tau_g1_i, zero1):
        res = inversion_check(Characteristic.zero(1), zero1, tau_g1_i)
        assert res.rel_residual < 1e-9
        assert abs(res.lhs - TWICE_THETA3_4TH) < 1e-10
        assert abs(res.rhs - TWICE_THETA3_4TH) < 1e-10

    def test_g2_all_even(self, tau_g2_random):
        for res in inversion_residuals(tau_g2_random, n_samples=2, seed=3):
            assert res.rel_residual < 1e-8

    def test_rejects_odd(self, tau_g1_i):
        with pytest.raises(ValueError):
            inversion_check(Characteristic((1,), (1,)), [0.1], tau_g1_i)

    def test_vanishing_null_record_passes_at_scale(self, tau_g2_product):
        # at the product point the relation for the vanishing pair reads 0 = 0:
        # the relative residual is noise over noise, the absolute one is tiny
        vanishing = Characteristic((1, 1), (1, 1))
        [res] = [
            r
            for r in inversion_residuals(tau_g2_product, n_samples=1, seed=4)
            if r.char == vanishing
        ]
        assert abs(res.lhs) < 1e-12 * res.scale
        assert res.passes(1e-8)
        assert res.abs_residual < 1e-10 * res.scale

    def test_consistency_with_quartic_on_shared_samples(self, tau_g2_random):
        quartic = quartic_residuals(tau_g2_random, n_samples=2, seed=12)
        inversion = inversion_residuals(tau_g2_random, n_samples=2, seed=12)
        assert max(r.rel_residual for r in quartic) < 1e-8
        assert max(r.rel_residual for r in inversion) < 1e-8


class TestDegradation:
    """Zeroing one even null must break the identities loudly."""

    def test_inversion_detects_zeroed_null(self, tau_g2_random):
        g = 2
        z = sample_cell_points(tau_g2_random, 1, seed=21)[0]
        evens = even_characteristics(g)
        c = evens[0]
        res = inversion_check(c, z, tau_g2_random)
        zeroed_lhs = 0.0 + 0.0j  # pretend theta[c](0) = 0
        rel = abs(zeroed_lhs - res.rhs) / max(abs(zeroed_lhs), abs(res.rhs), 1e-30)
        assert rel > 1e-3

    def test_quartic_detects_dropped_term(self, tau_g2_random):
        g = 2
        z = sample_cell_points(tau_g2_random, 1, seed=22)[0]
        c = Characteristic.zero(g)
        res = riemann_quartic_check(c, z, tau_g2_random)
        dropped = evens_term(c, z, tau_g2_random, drop=Characteristic.zero(g))
        rel = abs(res.lhs - dropped) / max(abs(res.lhs), abs(dropped), 1e-30)
        assert rel > 1e-3


def evens_term(c, z, tau, drop):
    """Quartic right side with one pair's null zeroed out."""
    g = tau.g
    zero = np.zeros(g, dtype=complex)
    total = 0.0 + 0.0j
    for b in enumerate_characteristics(g):
        if b == drop:
            continue
        null = theta_with_char(b, zero, tau)
        total += weil_pairing(c, b) * null**3 * theta_with_char(b, 2.0 * np.asarray(z), tau)
    return total / 2**g


class TestCoefficients:
    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_exact_table(self, g):
        table = derive_inversion_coefficients(g)
        m = build_m(g)
        for i in range(m.dim):
            for j in range(m.dim):
                expected = Fraction(2 * int(m.entries[i, j]) - (2**g if i == j else 0), 2**g)
                assert table.entries[i][j] == expected

    def test_g1_first_row(self):
        table = derive_inversion_coefficients(1)
        assert list(table.entries[0]) == [Fraction(0), Fraction(1), Fraction(1)]

    @pytest.mark.parametrize("g", [1, 2])
    def test_reproduces_inversion_numerically(self, g):
        tau = random_tau(g, seed=g + 30, floor=1.0)
        policy = TruncationPolicy()
        z = sample_cell_points(tau, 1, seed=g + 31)[0]
        evens = even_characteristics(g)
        fourths = np.array([theta_with_char(a, z, tau, policy) ** 4 for a in evens])
        table = derive_inversion_coefficients(g)
        zero = np.zeros(g, dtype=complex)
        for i, c in enumerate(evens):
            row = np.array([float(x) for x in table.entries[i]])
            combo = row @ fourths
            direct = (
                theta_with_char(c, zero, tau, policy) ** 3
                * theta_with_char(c, 2.0 * z, tau, policy)
            )
            assert abs(combo - direct) <= 1e-8 * max(abs(combo), abs(direct), 1.0)

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_composition_with_quartic_is_identity(self, g):
        # the quartic relation transports fourth powers through M / 2^g, so the
        # coefficient table composed with it must be exactly the identity
        table = derive_inversion_coefficients(g)
        m = build_m(g)
        for i in range(m.dim):
            for j in range(m.dim):
                entry = sum(
                    table.entries[i][k] * Fraction(int(m.entries[k, j]), 2**g)
                    for k in range(m.dim)
                )
                assert entry == (1 if i == j else 0)

    def test_genus_range(self):
        with pytest.raises(ValueError):
            derive_inversion_coefficients(5)
