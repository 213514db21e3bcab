import numpy as np
import pytest

from theta4.basis_analysis import (
    NULL_THRESHOLD,
    WARN_NULL_THRESHOLD,
    VanishingNullError,
    basis_report,
    evaluation_matrix,
    fourth_power_rank,
    mu,
    normalized_evaluation_matrix,
    numerical_rank,
    vanishing_nulls,
)
from theta4.char2 import (
    Characteristic,
    even_characteristics,
    kappa_value,
    parity,
)
from theta4.mmatrix import build_m
from theta4.theta_eval import (
    PeriodMatrix,
    block_diagonal_tau,
    random_tau,
    theta_nulls,
    theta_series,
    two_torsion_point,
)

VANISHING_G2 = Characteristic((1, 1), (1, 1))


@pytest.fixture(scope="module")
def tau_g2_warn() -> PeriodMatrix:
    # product surface nudged off the vanishing locus: the near-null sits
    # around 1e-6 of the largest one, inside the warn band
    return PeriodMatrix([[1j, 1e-6], [1e-6, 1j]])


class TestNumericalRank:
    def test_known_rank(self):
        m = np.diag([1.0, 1e-3, 1e-12])
        assert numerical_rank(m) == 2
        assert numerical_rank(m, sv_threshold=1e-15) == 3

    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((3, 3))) == 0

    def test_policy_validation(self):
        with pytest.raises(ValueError, match=r"sv_threshold must be in \(0, 1\), got 2.0"):
            numerical_rank(np.eye(2), sv_threshold=2.0)


class TestEvaluationMatrix:
    def test_first_column_is_nulls(self, tau_g2_random):
        ev = evaluation_matrix(tau_g2_random, Characteristic.zero(2))
        nulls = list(theta_nulls(tau_g2_random).values())
        assert np.allclose(ev[:, 0], nulls, rtol=0, atol=1e-10)

    def test_vanishing_null_row_is_zero(self, tau_g2_product):
        ev = evaluation_matrix(tau_g2_product, Characteristic.zero(2))
        row = even_characteristics(2).index(VANISHING_G2)
        assert np.max(np.abs(ev[row, :])) < 1e-10 * np.max(np.abs(ev))

    def test_g1_full_rank(self, tau_g1_i):
        ev = evaluation_matrix(tau_g1_i, Characteristic.zero(1))
        assert ev.shape == (3, 3)
        assert numerical_rank(ev) == 3

    def test_rejects_odd_kappa0(self, tau_g1_i):
        with pytest.raises(ValueError):
            evaluation_matrix(tau_g1_i, Characteristic((1,), (1,)))


class TestMu:
    def test_equal_characteristics(self, tau_g2_random):
        evens = even_characteristics(2)
        for a in evens[:4]:
            value = mu(a, evens[1], evens[1], tau_g2_random)
            assert abs(value - 1.0) < 1e-8

    def test_zero_point(self, tau_g2_random):
        evens = even_characteristics(2)
        value = mu(Characteristic.zero(2), evens[1], evens[2], tau_g2_random)
        assert abs(value - 1.0) < 1e-8

    def test_matches_kappa_products_g1(self, tau_g1_i):
        evens = even_characteristics(1)
        for a in evens:
            for k in evens:
                for kp in evens:
                    value = mu(a, k, kp, tau_g1_i)
                    assert abs(value - kappa_value(k, a) * kappa_value(kp, a)) < 1e-8

    def test_matches_kappa_products_g2_sampled(self, tau_g2_random):
        evens = even_characteristics(2)
        for a in evens[::3]:
            for k in evens[::4]:
                for kp in evens[::4]:
                    value = mu(a, k, kp, tau_g2_random)
                    assert abs(value - kappa_value(k, a) * kappa_value(kp, a)) < 1e-8

    def test_vanishing_null_reported(self, tau_g2_product):
        healthy = Characteristic.zero(2)
        point = even_characteristics(2)[1]
        with pytest.raises(VanishingNullError) as err:
            mu(point, healthy, VANISHING_G2, tau_g2_product)
        assert err.value.nulls == [VANISHING_G2]

    def test_zero_point_value_reported(self, tau_g2_product):
        healthy = Characteristic.zero(2)
        point = even_characteristics(2)[1]
        with pytest.raises(VanishingNullError) as err:
            mu(point, VANISHING_G2, healthy, tau_g2_product)
        assert err.value.nulls == [VANISHING_G2]  # cause is the null, not the point

    def test_small_null_is_not_vanishing(self):
        # theta[1,0](0) is about 0.018 of the largest null at tau = 6i, far
        # above the vanishing-null threshold: mu divides by it
        tau = PeriodMatrix([[6j]])
        zero, half = Characteristic.zero(1), Characteristic((1,), (0,))
        assert vanishing_nulls(tau) == []
        value = mu(half, zero, half, tau)
        assert abs(value - kappa_value(zero, half) * kappa_value(half, half)) < 1e-12

    @pytest.mark.parametrize(
        "tau",
        [
            PeriodMatrix([[6j]]),
            block_diagonal_tau([1j, 1j]),
            block_diagonal_tau([0.3 + 1.1j, -0.2 + 0.8j]),
            random_tau(2, 0),
            random_tau(2, 1),
            random_tau(2, 2),
        ],
        ids=["6i", "product-ii", "product-generic", "random-0", "random-1", "random-2"],
    )
    def test_raises_exactly_on_vanishing_nulls(self, tau):
        evens = even_characteristics(tau.g)
        vanishing = vanishing_nulls(tau)
        for a in evens:
            for k in evens:
                for kp in evens:
                    named = [c for c in vanishing if c in (k, kp)]
                    if named:
                        with pytest.raises(VanishingNullError) as err:
                            mu(a, k, kp, tau)
                        assert err.value.nulls == named
                    else:
                        value = mu(a, k, kp, tau)
                        assert abs(value - kappa_value(k, a) * kappa_value(kp, a)) < 1e-7

    def test_rejects_odd(self, tau_g1_i):
        odd = Characteristic((1,), (1,))
        with pytest.raises(ValueError):
            mu(Characteristic.zero(1), odd, Characteristic.zero(1), tau_g1_i)

    def test_rejects_wrong_genus(self, tau_g1_i):
        with pytest.raises(ValueError, match="genus mismatch"):
            mu(Characteristic.zero(1), Characteristic.zero(2), Characteristic.zero(1), tau_g1_i)

    def test_invariant_under_rescaling(self, tau_g2_random):
        # scaling each section by r and each evaluation point by c must cancel
        rng = np.random.default_rng(8)
        evens = even_characteristics(2)
        a, k, kp = evens[3], evens[2], evens[5]
        z2 = 2.0 * two_torsion_point(a, tau_g2_random)
        zero = np.zeros(2, dtype=complex)
        vals = {
            ("k", 0): theta_series(k, zero, tau_g2_random).value,
            ("k", 1): theta_series(k, z2, tau_g2_random).value,
            ("kp", 0): theta_series(kp, zero, tau_g2_random).value,
            ("kp", 1): theta_series(kp, z2, tau_g2_random).value,
        }
        r = rng.uniform(0.5, 2.0, 2) * np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
        col = rng.uniform(0.5, 2.0, 2) * np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
        scaled = {
            ("k", 0): vals[("k", 0)] * r[0] * col[0],
            ("k", 1): vals[("k", 1)] * r[0] * col[1],
            ("kp", 0): vals[("kp", 0)] * r[1] * col[0],
            ("kp", 1): vals[("kp", 1)] * r[1] * col[1],
        }
        quotient = (scaled[("k", 0)] * scaled[("kp", 1)]) / (scaled[("k", 1)] * scaled[("kp", 0)])
        assert abs(quotient - mu(a, k, kp, tau_g2_random)) < 1e-8


class TestNormalizedEvaluationMatrix:
    def test_g1_equals_sign_matrix(self, tau_g1_i):
        matrix, deviation = normalized_evaluation_matrix(tau_g1_i)
        assert deviation < 1e-8
        assert np.max(np.abs(matrix - build_m(1))) == deviation

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_g2_random_kappa0_zero(self, seed):
        tau = random_tau(2, seed=seed, floor=1.0)
        _, deviation = normalized_evaluation_matrix(tau)
        assert deviation < 1e-7

    def test_g2_nonzero_kappa0(self, tau_g2_random):
        for kappa0 in even_characteristics(2)[1:5]:
            _, deviation = normalized_evaluation_matrix(tau_g2_random, kappa0)
            assert deviation < 1e-7

    def test_vanishing_null_rejected(self, tau_g2_product):
        with pytest.raises(VanishingNullError) as err:
            normalized_evaluation_matrix(tau_g2_product)
        assert VANISHING_G2 in err.value.nulls


class TestVanishingNulls:
    def test_g1_empty(self, tau_g1_i):
        assert vanishing_nulls(tau_g1_i) == []

    def test_g2_product_exact(self, tau_g2_product):
        assert vanishing_nulls(tau_g2_product) == [VANISHING_G2]

    def test_g2_product_any_factors(self):
        tau = block_diagonal_tau([0.3 + 1.1j, -0.2 + 0.8j])
        assert vanishing_nulls(tau) == [VANISHING_G2]

    def test_g2_random_seeds_empty(self):
        for seed in range(20):
            assert vanishing_nulls(random_tau(2, seed=seed, floor=1.0)) == []

    def test_threshold_validation(self, tau_g1_i):
        # the cut-offs are pinned constants with a non-empty warn band between them
        assert 0.0 < NULL_THRESHOLD == 1e-8 < WARN_NULL_THRESHOLD == 1e-4 < 1.0
        with pytest.raises(TypeError):
            vanishing_nulls(tau_g1_i, null_threshold=0.0)


class TestFourthPowerRank:
    def test_g2_random_full(self, tau_g2_random):
        assert fourth_power_rank(tau_g2_random, seed=1) == 10

    def test_g2_product_drops_by_one(self, tau_g2_product):
        assert fourth_power_rank(tau_g2_product, seed=1) == 9

    def test_g1_full(self, tau_g1_i):
        assert fourth_power_rank(tau_g1_i, seed=1) == 3

    def test_threshold_stability(self, tau_g1_i, tau_g2_random, tau_g2_product):
        for tau, expected in ((tau_g1_i, 3), (tau_g2_random, 10), (tau_g2_product, 9)):
            ranks = {
                fourth_power_rank(tau, sv_threshold=t, seed=2)
                for t in (1e-8, 1e-7, 1e-6)
            }
            assert ranks == {expected}


class TestBasisReport:
    def test_g2_random(self, tau_g2_random):
        report = basis_report(tau_g2_random)
        assert report["ev_matrix_rank"] == 10
        assert report["fourth_power_rank"] == 10
        assert report["vanishing_nulls"] == []
        assert report["point_basis_verdict"] and report["fourth_power_basis_verdict"]
        assert report["consistent"]
        assert report["status"] == "ok"
        assert report["m_deviation"] is not None and report["m_deviation"] < 1e-7

    def test_g2_product(self, tau_g2_product):
        report = basis_report(tau_g2_product)
        assert report["ev_matrix_rank"] == 9
        assert report["fourth_power_rank"] == 9
        assert report["vanishing_nulls"] == [VANISHING_G2.to_json()]
        assert not report["point_basis_verdict"] and not report["fourth_power_basis_verdict"]
        assert report["consistent"]
        assert report["m_deviation"] is None

    def test_g1_2i(self):
        report = basis_report(PeriodMatrix([[2j]]))
        assert report["ev_matrix_rank"] == 3
        assert report["fourth_power_rank"] == 3
        assert report["point_basis_verdict"] and report["fourth_power_basis_verdict"]

    def test_kappa0_invariance_of_verdicts(self, tau_g2_random):
        reports = [basis_report(tau_g2_random, kappa0=k0) for k0 in even_characteristics(2)]
        assert len({r["point_basis_verdict"] for r in reports}) == 1
        assert len({r["fourth_power_basis_verdict"] for r in reports}) == 1
        assert all(r["consistent"] for r in reports)
        assert all(r["m_deviation"] < 1e-7 for r in reports)

    def test_warn_status_near_vanishing(self, tau_g2_warn):
        report = basis_report(tau_g2_warn)
        assert report["status"] == "warn"
        assert VANISHING_G2.to_json() in report["near_vanishing_nulls"]
        assert report["vanishing_nulls"] == []

    def test_rejects_odd_kappa0(self, tau_g1_i):
        with pytest.raises(ValueError):
            basis_report(tau_g1_i, kappa0=Characteristic((1,), (1,)))

    def test_rejects_kappa0_of_another_genus(self, tau_g1_i):
        with pytest.raises(ValueError, match="genus mismatch: kappa0 2, tau 1"):
            basis_report(tau_g1_i, kappa0=Characteristic.zero(2))

    def test_json_fields(self, tau_g2_random):
        payload = basis_report(tau_g2_random)
        for key in (
            "tau",
            "kappa0",
            "dim",
            "vanishing_nulls",
            "ev_matrix_rank",
            "fourth_power_rank",
            "m_deviation",
            "point_basis_verdict",
            "fourth_power_basis_verdict",
            "consistent",
            "status",
            "rel_sv_threshold",
            "seed",
        ):
            assert key in payload


@pytest.mark.parametrize(
    "call, message",
    [
        # the sign matrix caps the genus at 5
        (lambda: normalized_evaluation_matrix(random_tau(6, 1)), r"genus must be an integer in 1\.\.5, got 6"),
    ],
    ids=["normalized-genus-above-cap"],
)
def test_bad_argument_rejected_before_any_sum(no_lattice_sum, call, message):
    with pytest.raises(ValueError, match=message):
        call()
