from fractions import Fraction

import numpy as np
import pytest

import theta4.identities as identities
from theta4.char2 import (
    Characteristic,
    d_plus,
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
from theta4.mmatrix import build_m, pairing_signs
from theta4.theta_eval import (
    TruncationPolicy,
    random_tau,
    sample_cell_points,
    theta_series,
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
        nulls = {c: theta_series(c, zero1, tau_g1_i).value for c in enumerate_characteristics(1)}
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

    def test_batch_matches_single(self):
        # every record of a sweep is bit for bit the record of its own single check
        for g in (1, 2, 3):
            tau = random_tau(g, seed=g + 40, floor=1.0)
            points = sample_cell_points(tau, 2, seed=9)
            for batch_fn, single_fn, n_chars in (
                (quartic_residuals, riemann_quartic_check, 4**g),
                (inversion_residuals, inversion_check, d_plus(g)),
            ):
                records = batch_fn(tau, n_samples=2, seed=9)
                assert len(records) == 2 * n_chars
                for k, res in enumerate(records):
                    single = single_fn(res.char, points[k // n_chars], tau)
                    for field in ("z", "lhs", "rhs", "scale", "abs_residual", "rel_residual"):
                        bits = [np.asarray(getattr(r, field)).tobytes() for r in (single, res)]
                        assert bits[0] == bits[1], (g, res.kind, res.char, field)

    def test_flipped_sign_fails_gate(self, monkeypatch, tau_g2_random):
        # one wrong sign on the b = 0 term of c = 0 must break the relation
        def flipped(rows, cols):
            signs = pairing_signs(rows, cols)
            signs[0, 0] *= -1
            return signs

        monkeypatch.setattr(identities, "pairing_signs", flipped)
        for sweep in (quartic_residuals, inversion_residuals):
            records = sweep(tau_g2_random, n_samples=1, seed=5)
            assert [r.passes(1e-8) for r in records].count(False) == 1


class TestReferenceLoops:
    """Sweep records against the per-pair loops of the literal sums."""

    @pytest.mark.parametrize("fixture", ["tau_g2_random", "tau_g2_product"])
    def test_records_match_literal_sums(self, fixture, request):
        tau = request.getfixturevalue(fixture)
        g = tau.g
        zero = np.zeros(g, dtype=complex)
        evens = even_characteristics(g)
        null = {b: theta_series(b, zero, tau).value for b in enumerate_characteristics(g)}
        records = quartic_residuals(tau, n_samples=2, seed=6) + inversion_residuals(tau, n_samples=2, seed=6)
        for res in records:
            z, c = np.array(res.z), res.char
            if res.kind == "quartic":
                terms = {b: n**3 * theta_series(b, 2.0 * z, tau).value / 2**g for b, n in null.items()}
                lhs = theta_series(c, z, tau).value ** 4
                rhs = sum(weil_pairing(c, b) * t for b, t in terms.items())
                largest = max(abs(t) for t in terms.values())
            else:
                fourth = {a: theta_series(a, z, tau).value ** 4 for a in evens}
                lhs = 2**g * null[c] ** 3 * theta_series(c, 2.0 * z, tau).value
                rhs = -(2**g) * fourth[c] + sum(weil_pairing(a, c) * 2 * f for a, f in fourth.items())
                largest = max(2**g * abs(fourth[c]), 2 * max(abs(f) for f in fourth.values()))
            assert res.lhs == lhs
            # two summation orders of at most n = 16 terms: within 2 (n-1) n u of the largest
            assert abs(res.rhs - rhs) <= 1e-13 * largest
            assert res.abs_residual == abs(res.lhs - res.rhs)
            assert res.rel_residual == res.abs_residual / max(abs(res.lhs), abs(res.rhs), 1e-30)
            assert res.scale == max(largest, abs(res.lhs), abs(res.rhs))


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
        null = theta_series(b, zero, tau).value
        total += weil_pairing(c, b) * null**3 * theta_series(b, 2.0 * np.asarray(z), tau).value
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
        fourths = np.array([theta_series(a, z, tau, policy).value ** 4 for a in evens])
        table = derive_inversion_coefficients(g)
        zero = np.zeros(g, dtype=complex)
        for i, c in enumerate(evens):
            row = np.array([float(x) for x in table.entries[i]])
            combo = row @ fourths
            direct = (
                theta_series(c, zero, tau, policy).value ** 3
                * theta_series(c, 2.0 * z, tau, policy).value
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
