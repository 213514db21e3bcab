import cmath
import itertools
import math
import sys

import numpy as np
import pytest

import theta4.theta_eval as theta_eval
from theta4.char2 import Characteristic, enumerate_characteristics, even_characteristics, parity
from theta4.theta_eval import (
    PeriodMatrix,
    TruncationError,
    TruncationPolicy,
    block_diagonal_tau,
    random_tau,
    sample_cell_points,
    theta_nulls,
    theta_series,
    theta_table,
    theta_with_char,
    two_torsion_point,
)

# theta3(0, i), computed independently to 20+ digits
THETA3_AT_I = 1.0864348112133080146


def brute_theta(c: Characteristic, z, tau, radius: int) -> complex:
    """Direct summation over a fixed centred box; deliberately naive."""
    g = c.g
    z = list(z)
    total = 0.0 + 0.0j
    for m in itertools.product(range(-radius, radius + 1), repeat=g):
        n = [mi + a / 2.0 for mi, a in zip(m, c.a1)]
        quad = sum(n[i] * tau[i][j] * n[j] for i in range(g) for j in range(g))
        lin = sum(n[i] * (z[i] + c.a2[i] / 2.0) for i in range(g))
        total += cmath.exp(1j * math.pi * (quad + 2.0 * lin))
    return total


def meshgrid_theta(c: Characteristic, z, tau: PeriodMatrix, radius: int) -> complex:
    """One characteristic summed over the kernel's recentred box, a2 inside the phase."""
    g = tau.g
    alpha = np.array(c.a1, dtype=float) / 2.0
    beta = np.array(c.a2, dtype=float) / 2.0
    center = -alpha - np.linalg.solve(tau.tau.imag, z.imag)
    axes = [np.arange(math.ceil(cj - radius), math.floor(cj + radius) + 1) for cj in center]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, g)
    n = grid + alpha
    phase = np.einsum("ij,jk,ik->i", n, tau.tau, n) + 2.0 * (n @ (z + beta))
    return complex(np.exp(1j * np.pi * phase).sum())


def meshgrid_group(a1, z, tau: PeriodMatrix, radius: int) -> np.ndarray:
    """All 2^g second halves of a1 at z, each summed term by term over the
    point's own box with a2 inside the phase; a2 bits MSB first."""
    g = tau.g
    alpha = np.array(a1, dtype=float) / 2.0
    center = -alpha - np.linalg.solve(tau.tau.imag, z.imag)
    axes = [np.arange(math.ceil(cj - radius), math.floor(cj + radius) + 1) for cj in center]
    n = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, g) + alpha
    phase = np.einsum("ij,jk,ik->i", n, tau.tau, n) + 2.0 * (n @ z)
    a2s = np.array(list(itertools.product((0, 1), repeat=g)))
    return np.exp(1j * np.pi * (phase[:, None] + n @ a2s.T)).sum(0)


def fallback_group(a1, z, tau: PeriodMatrix, radius: int) -> np.ndarray:
    """All 2^g second halves of a1 at z in the arithmetic of the kernel's
    term-by-term path: every term of the point's box, a2 signs by parity."""
    g = tau.g
    alpha = np.array(a1, dtype=float) / 2.0
    center = -alpha - np.linalg.solve(tau.tau.imag, z.imag)
    axes = [np.arange(math.ceil(cj - radius), math.floor(cj + radius) + 1) for cj in center]
    m = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, g).astype(np.int64)
    n = m + alpha
    bits = np.array(list(itertools.product((0, 1), repeat=g)))
    terms = np.exp(1j * np.pi * (((n @ tau.tau) * n).sum(1) + 2.0 * (n @ z)))
    return (terms @ (1 - 2 * (((m & 1) @ bits.T) & 1))) * np.exp(1j * np.pi * (bits @ alpha))


def assert_groups_match(groups, a1, points, tau, radii=None):
    """Each (values, radius, tail_bound) equals the reference at its radius;
    radius and tail bound are the default search's unless radii are forced."""
    assert len(groups) == len(points)
    for k, ((values, radius, tail), z) in enumerate(zip(groups, points)):
        if radii is None:
            assert (radius, tail) == searched_radius(z, tau, TruncationPolicy()), k
        else:
            assert radius == radii[k], k
        expected = meshgrid_group(a1, z + 0.0, tau, radius)
        assert np.all(np.isfinite(values)), k
        assert np.max(np.abs(values - expected) / np.maximum(1.0, np.abs(expected))) <= 1e-12, k


def searched_radius(z, tau: PeriodMatrix, policy: TruncationPolicy) -> tuple[int, float]:
    """Smallest radius whose _tail_bound meets the target, with that bound."""
    y = np.asarray(z).imag
    w = np.linalg.solve(tau.tau.imag, y)
    amp = math.exp(math.pi * float(y @ w))
    r0 = float(np.max(np.abs(w))) + 1.0
    for r in range(math.floor(r0) + 1, policy.max_radius + 1):
        bound = theta_eval._tail_bound(tau.g, tau.lambda_min, amp, r0, r)
        if bound <= policy.target_eps:
            return r, bound
    raise AssertionError("no radius meets the target")


@pytest.fixture()
def group_builds(monkeypatch):
    """(a1, point bytes) of every point the lattice-sum builder sums."""
    summed = []
    build = theta_eval._theta_groups

    def counting(a1, points, *args):
        summed.extend((a1, z.tobytes()) for z in points)
        return build(a1, points, *args)

    monkeypatch.setattr(theta_eval, "_theta_groups", counting)
    return summed


class TestPolicy:
    def test_defaults_valid(self):
        policy = TruncationPolicy()
        assert policy.target_eps == 1e-11
        assert policy.max_radius == 64

    @pytest.mark.parametrize("kwargs", [{"target_eps": 1e-15}, {"max_radius": 0}, {"max_radius": 65}])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            TruncationPolicy(**kwargs)


class TestPeriodMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            PeriodMatrix([[1j, 0.1], [0.2, 1j]])

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            PeriodMatrix([[-1j]])

    def test_rejects_near_degenerate(self):
        with pytest.raises(ValueError):
            PeriodMatrix([[1e-7j]])

    def test_rejects_non_square_and_non_finite(self):
        with pytest.raises(ValueError):
            PeriodMatrix([[1j, 0j]])
        with pytest.raises(ValueError):
            PeriodMatrix([[complex(math.nan, 1.0)]])

    def test_json_roundtrip(self, tau_g2_random):
        again = PeriodMatrix.from_json(tau_g2_random.to_json())
        assert np.array_equal(again.tau, tau_g2_random.tau)

    def test_json_validation(self):
        with pytest.raises(ValueError):
            PeriodMatrix.from_json({"re": [[0.0]]})
        with pytest.raises(ValueError):
            PeriodMatrix.from_json({"g": 2, "re": [[0.0]], "im": [[1.0]]})


class TestValues:
    def test_g1_null_matches_reference(self, tau_g1_i, zero1):
        value = theta_with_char(Characteristic.zero(1), zero1, tau_g1_i)
        assert abs(value - THETA3_AT_I) < 1e-11

    def test_g1_null_matches_brute_force(self, tau_g1_i, zero1):
        coarse = brute_theta(Characteristic.zero(1), [0.0], [[1j]], 8)
        fine = brute_theta(Characteristic.zero(1), [0.0], [[1j]], 16)
        assert abs(coarse - fine) < 1e-12  # oracle is converged
        value = theta_with_char(Characteristic.zero(1), zero1, tau_g1_i)
        assert abs(value - fine) < 1e-11

    def test_generic_point_matches_brute_force(self, tau_g2_random):
        z = np.array([0.31 + 0.12j, -0.05 + 0.4j])
        tau_list = tau_g2_random.tau.tolist()
        for c in enumerate_characteristics(2)[::5]:
            expected = brute_theta(c, z, tau_list, 12)
            assert abs(theta_with_char(c, z, tau_g2_random) - expected) < 1e-10

    def test_odd_nulls_vanish(self, tau_g1_i, tau_g2_random):
        for tau in (tau_g1_i, tau_g2_random):
            g = tau.g
            top = max(abs(v) for v in theta_nulls(tau).values())
            for c in enumerate_characteristics(g):
                if parity(c) == -1:
                    assert abs(theta_with_char(c, np.zeros(g), tau)) < 1e-10 * top

    def test_block_factorization(self):
        blocks = [1j, 0.2 + 1.3j]
        tau = block_diagonal_tau(blocks)
        tau1 = PeriodMatrix([[blocks[0]]])
        tau2 = PeriodMatrix([[blocks[1]]])
        for c in enumerate_characteristics(2):
            left = Characteristic((c.a1[0],), (c.a2[0],))
            right = Characteristic((c.a1[1],), (c.a2[1],))
            whole = theta_with_char(c, np.zeros(2), tau)
            split = theta_with_char(left, [0.0], tau1) * theta_with_char(right, [0.0], tau2)
            assert abs(whole - split) <= 1e-9 * max(abs(whole), abs(split), 1.0)

    def test_genus_mismatch_and_bad_point(self, tau_g1_i):
        with pytest.raises(ValueError):
            theta_with_char(Characteristic.zero(2), [0.0], tau_g1_i)
        with pytest.raises(ValueError):
            theta_with_char(Characteristic.zero(1), [0.0, 0.0], tau_g1_i)
        with pytest.raises(ValueError):
            theta_with_char(Characteristic.zero(1), [complex(math.inf, 0)], tau_g1_i)


class TestGroupKernel:
    @pytest.mark.parametrize("g, radius", [(1, 16), (2, 12)])
    def test_every_char_matches_brute_force(self, g, radius):
        tau = random_tau(g, seed=5)
        tau_list = tau.tau.tolist()
        corner = Characteristic((1,) * g, (1,) * g)
        points = {
            "zero": np.zeros(g, dtype=complex),
            "cell": sample_cell_points(tau, 1, seed=4)[0],
            "two-torsion": 2.0 * two_torsion_point(corner, tau),
        }
        for label, z in points.items():
            for c in enumerate_characteristics(g):
                expected = brute_theta(c, z, tau_list, radius)
                got = theta_series(c, z, tau).value
                assert abs(got - expected) <= 1e-10 * max(1.0, abs(expected)), (label, c)

    def test_g3_group_matches_per_char_sum(self, group_builds):
        tau = random_tau(3, seed=11)
        z = sample_cell_points(tau, 1, seed=2)[0]
        radius, bound = searched_radius(z, tau, TruncationPolicy())
        for a2 in itertools.product((0, 1), repeat=3):
            c = Characteristic((1, 0, 1), a2)
            result = theta_series(c, z, tau)
            assert result.radius == radius
            assert result.tail_bound == bound
            expected = meshgrid_theta(c, z, tau, radius)
            assert abs(result.value - expected) <= 1e-12 * max(1.0, abs(expected)), a2
        assert len(group_builds) == 1

    def test_one_sum_per_top_half_and_point(self, group_builds):
        tau = random_tau(2, seed=6)
        z = sample_cell_points(tau, 1, seed=1)[0]
        for c in enumerate_characteristics(2):
            theta_series(c, z, tau)
            theta_series(c, 2.0 * z, tau)
        built = sorted(group_builds)
        top_halves = itertools.product((0, 1), repeat=2)
        assert built == sorted((a1, p.tobytes()) for a1 in top_halves for p in (z, 2.0 * z))

    def test_overflowing_scale_names_point(self, tau_g1_i):
        with pytest.raises(ValueError, match="30j"):
            theta_series(Characteristic.zero(1), [30j], tau_g1_i)


class TestBatchedKernel:
    """_theta_groups and theta_table against a term-by-term sum per point."""

    @staticmethod
    def mixed_batch(tau: PeriodMatrix) -> np.ndarray:
        """Cell points, their doubles (larger radii), a repeat, signed zeros and a far point."""
        g = tau.g
        cell = sample_cell_points(tau, 4, seed=g)
        far = tau.tau @ np.full(g, 2.5) - 0.7
        return np.vstack([cell, 2.0 * cell, cell[:1], np.full(g, complex(-0.0, -0.0)), np.zeros(g), far])

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_groups_match_reference(self, g):
        tau = random_tau(g, seed=20 + g)
        points = self.mixed_batch(tau)
        for a1 in [(1,) * g, tuple(k % 2 for k in range(g))]:
            groups = theta_eval._theta_groups(a1, points, tau, TruncationPolicy(), None)
            assert len({radius for _, radius, _ in groups}) > 1
            assert_groups_match(groups, a1, points, tau)
            assert np.array_equal(groups[8][0], groups[0][0])  # the repeated point

    @pytest.mark.parametrize("g, radius", [(1, 2), (2, 3), (3, 2), (4, 1)])
    def test_radius_override_matches_reference(self, g, radius):
        tau = random_tau(g, seed=30 + g)
        points = self.mixed_batch(tau)
        a1 = tuple(1 - k % 2 for k in range(g))
        groups = theta_eval._theta_groups(a1, points, tau, TruncationPolicy(), radius)
        assert_groups_match(groups, a1, points, tau, radii=[radius] * len(points))

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_table_matches_reference_and_series(self, g):
        tau = random_tau(g, seed=40 + g)
        points = list(self.mixed_batch(tau))
        picks = np.random.default_rng(g).choice(4**g, size=min(4**g, 5), replace=False)
        chars = [enumerate_characteristics(g)[i] for i in picks]
        table = theta_table(chars, points, tau)
        assert table.shape == (len(chars), len(points)) and table.dtype == complex
        fresh = random_tau(g, seed=40 + g)
        for i, c in enumerate(chars):
            for j, z in enumerate(points):
                result = theta_series(c, z, fresh)
                expected = meshgrid_theta(c, z + 0.0, tau, result.radius)
                assert abs(table[i, j] - expected) <= 1e-12 * max(1.0, abs(expected)), (c, j)
                assert theta_series(c, z, tau).radius == result.radius

    def test_table_sums_each_top_half_and_point_once(self, group_builds):
        tau = random_tau(2, seed=12)
        points = sample_cell_points(tau, 3, seed=2)
        chars = enumerate_characteristics(2)
        theta_series(chars[5], points[1], tau)
        theta_table(chars, list(points) + [points[0]], tau)
        theta_table(chars[::3], points, tau)
        expected = [(chars[5].a1, points[1].tobytes())]
        expected += [(a1, z.tobytes()) for a1 in itertools.product((0, 1), repeat=2) for z in points]
        assert sorted(group_builds) == sorted(set(expected))

    def test_genus4_batch_spans_chunks(self):
        tau = random_tau(4, seed=2)
        points = sample_cell_points(tau, 40, seed=3)
        a1 = (1, 0, 1, 0)
        groups = theta_eval._theta_groups(a1, points, tau, TruncationPolicy(), None)
        radii = [radius for _, radius, _ in groups]
        chunk = {r: theta_eval._CHUNK_ENTRIES // (2 * (2 * r + 1) ** 3) for r in radii}
        assert any(radii.count(r) > chunk[r] for r in chunk)
        assert_groups_match(groups, a1, points, tau)

    @pytest.mark.parametrize("im_diag", [(1.0, 30.0, 1.0), (50.0, 50.0, 50.0)])
    def test_range_guard(self, im_diag):
        re_part = random_tau(3, seed=4).tau.real
        tau = PeriodMatrix(re_part + 1j * np.diag(im_diag))
        points = sample_cell_points(tau, 20, seed=5)
        policy = TruncationPolicy()
        # the factored sum's linear factors reach exp(growth); some points exceed the double range
        growth = []
        for a1 in itertools.product((0, 1), repeat=3):
            groups = theta_eval._theta_groups(a1, points, tau, policy, None)
            assert_groups_match(groups, a1, points, tau)
            alpha = np.array(a1) / 2.0
            for z, (_, radius, _) in zip(points, groups):
                shift = np.rint(-alpha - np.linalg.solve(tau.tau.imag, z.imag))
                reach = radius + alpha
                growth.append(2 * math.pi * reach @ np.abs((z + tau.tau @ shift).imag))
        assert max(growth) > math.log(sys.float_info.max)


    def test_range_guard_margin(self):
        # growth below log(float max) but within the margin g log(2r+1) that
        # covers a partial sum of (2r+1)^g factors: the point is summed term by
        # term, so it equals the term-by-term arithmetic exactly
        tau = PeriodMatrix([[0.3 + 100j]])
        z = np.array([0.25 - 45.14j])
        a1 = (1,)
        (values, radius, _), = theta_eval._theta_groups(a1, z[None], tau, TruncationPolicy(), None)
        shift = np.rint(-0.5 - np.linalg.solve(tau.tau.imag, z.imag))
        growth = 2 * math.pi * (radius + 0.5) * abs((z + tau.tau @ shift).imag[0])
        ceiling = math.log(sys.float_info.max)
        assert ceiling - math.log(2 * radius + 1) < growth < ceiling
        assert np.all(np.isfinite(values))
        expected = meshgrid_group(a1, z, tau, radius)
        assert np.max(np.abs(values - expected) / np.abs(expected)) <= 1e-12
        assert np.array_equal(values, fallback_group(a1, z, tau, radius))


class TestMemoKeys:
    def test_target_eps_changes_radius(self):
        z = np.array([0.3 + 0.2j, -0.1 + 0.4j])
        c = Characteristic((0, 1), (1, 1))
        strict, loose = TruncationPolicy(target_eps=1e-11), TruncationPolicy(target_eps=1e-6)
        for order in ((strict, loose), (loose, strict)):
            tau = random_tau(2, seed=8)
            radii = [theta_series(c, z, tau, p).radius for p in order]
            assert radii == [searched_radius(z, tau, p)[0] for p in order]
        assert searched_radius(z, tau, loose)[0] < searched_radius(z, tau, strict)[0]

    def test_radius_override_and_default_kept_apart(self):
        z = np.array([0.2 + 0.3j, -0.1 + 0.2j])
        c = Characteristic((1, 0), (0, 1))
        fresh = theta_series(c, z, random_tau(2, seed=9))

        tau = random_tau(2, seed=9)
        assert theta_series(c, z, tau).value == fresh.value
        forced = theta_series(c, z, tau, radius_override=fresh.radius + 2)
        assert forced.radius == fresh.radius + 2
        assert forced.tail_bound < fresh.tail_bound

        tau = random_tau(2, seed=9)
        assert theta_series(c, z, tau, radius_override=1).radius == 1
        assert theta_series(c, z, tau) == fresh

    def test_signed_zero_shares_group(self, group_builds):
        tau = random_tau(1, seed=2)
        negative = theta_series(Characteristic.zero(1), [complex(-0.0, -0.0)], tau)
        positive = theta_series(Characteristic.zero(1), [0.0], tau)
        assert negative == positive
        assert len(group_builds) == 1

    def test_argument_errors_precede_lookup(self, group_builds, zero1):
        tau = random_tau(1, seed=3)
        theta_series(Characteristic.zero(1), zero1, tau)
        with pytest.raises(ValueError, match="genus mismatch"):
            theta_series(Characteristic.zero(2), zero1, tau)
        for radius in (0, 65):
            with pytest.raises(ValueError, match="radius_override"):
                theta_series(Characteristic.zero(1), zero1, tau, radius_override=radius)
        assert len(group_builds) == 1


class TestNulls:
    def test_g1_tau_i_symmetry(self, tau_g1_i):
        nulls = theta_nulls(tau_g1_i)
        assert len(nulls) == 3
        a = nulls[Characteristic((0,), (1,))]
        b = nulls[Characteristic((1,), (0,))]
        assert abs(a - b) < 1e-12

    def test_g2_product_single_vanishing(self, tau_g2_product):
        nulls = theta_nulls(tau_g2_product)
        top = max(abs(v) for v in nulls.values())
        tiny = [c for c, v in nulls.items() if abs(v) < 1e-10 * top]
        assert tiny == [Characteristic((1, 1), (1, 1))]

    def test_random_tau_all_finite(self):
        for g in (1, 2, 3):
            nulls = theta_nulls(random_tau(g, seed=g, floor=1.0))
            assert len(nulls) == len(even_characteristics(g))
            assert all(np.isfinite(v) for v in nulls.values())

    def test_canonical_order(self, tau_g2_random):
        assert list(theta_nulls(tau_g2_random)) == even_characteristics(2)


class TestSymmetries:
    def test_parity_under_negation(self, tau_g2_random):
        rng = np.random.default_rng(1)
        for tau in (random_tau(1, 3), tau_g2_random):
            g = tau.g
            z = rng.uniform(-0.4, 0.4, g) + 1j * rng.uniform(-0.4, 0.4, g)
            for c in enumerate_characteristics(g):
                plus = theta_with_char(c, z, tau)
                minus = theta_with_char(c, -z, tau)
                assert abs(minus - parity(c) * plus) <= 1e-9 * max(abs(plus), 1e-3)

    def test_quasi_periodicity(self, tau_g2_random):
        rng = np.random.default_rng(2)
        for tau in (random_tau(1, 4), tau_g2_random):
            g = tau.g
            z = rng.uniform(-0.3, 0.3, g) + 1j * rng.uniform(-0.3, 0.3, g)
            p = rng.integers(-2, 3, g)
            q = rng.integers(-2, 3, g)
            for c in enumerate_characteristics(g)[:: max(1, g)]:
                base = theta_with_char(c, z, tau)
                shifted_int = theta_with_char(c, z + p, tau)
                sign = (-1) ** int(np.dot(c.a1, p) % 2)
                assert abs(shifted_int - sign * base) <= 1e-9 * max(abs(base), 1e-6)
                shifted_tau = theta_with_char(c, z + tau.tau @ q, tau)
                factor = np.exp(
                    -1j * np.pi * (q @ tau.tau @ q) - 2j * np.pi * (q @ (z + np.array(c.a2) / 2.0))
                )
                assert abs(shifted_tau - factor * base) <= 1e-9 * max(abs(factor * base), 1e-6)


class TestTruncation:
    def test_doubling_radius_is_stable(self, tau_g2_random):
        policy = TruncationPolicy()
        z = np.array([0.2 + 0.3j, -0.1 + 0.2j])
        for c in enumerate_characteristics(2)[::3]:
            first = theta_series(c, z, tau_g2_random, policy)
            doubled = theta_series(c, z, tau_g2_random, policy, radius_override=2 * first.radius)
            assert abs(first.value - doubled.value) < policy.target_eps

    def test_reported_bound_meets_target(self, tau_g1_i, zero1):
        result = theta_series(Characteristic.zero(1), zero1, tau_g1_i)
        assert 0.0 < result.tail_bound <= TruncationPolicy().target_eps

    def test_radius_cap_error_reports_requirement(self):
        tau = PeriodMatrix([[0.01j]])
        policy = TruncationPolicy(target_eps=1e-14, max_radius=4)
        with pytest.raises(TruncationError) as err:
            theta_series(Characteristic.zero(1), [0.0], tau, policy)
        assert err.value.required_radius > 4

    def test_radius_override_validation(self, tau_g1_i, zero1):
        with pytest.raises(ValueError):
            theta_series(Characteristic.zero(1), zero1, tau_g1_i, radius_override=100)


class TestTwoTorsionPoint:
    def test_zero_maps_to_origin(self, tau_g2_random):
        z = two_torsion_point(Characteristic.zero(2), tau_g2_random)
        assert np.allclose(z, 0.0)

    def test_orientation_g1(self, tau_g1_i):
        # integer half from a2, tau half from a1
        assert np.allclose(two_torsion_point(Characteristic((1,), (0,)), tau_g1_i), [0.5j])
        assert np.allclose(two_torsion_point(Characteristic((0,), (1,)), tau_g1_i), [0.5])

    def test_formula_g2(self, tau_g2_random):
        a = Characteristic((1, 0), (0, 1))
        expected = (np.array([0.0, 1.0]) + tau_g2_random.tau @ np.array([1.0, 0.0])) / 2.0
        assert np.allclose(two_torsion_point(a, tau_g2_random), expected)

    def test_genus_mismatch(self, tau_g1_i):
        with pytest.raises(ValueError):
            two_torsion_point(Characteristic.zero(2), tau_g1_i)


class TestSampling:
    def test_random_tau_deterministic(self):
        a = random_tau(3, seed=9)
        b = random_tau(3, seed=9)
        assert np.array_equal(a.tau, b.tau)
        assert not np.array_equal(a.tau, random_tau(3, seed=10).tau)

    def test_random_tau_floor_and_symmetry(self):
        for g, seed in [(2, 0), (3, 7)]:
            tau = random_tau(g, seed=seed, floor=1.0)
            assert tau.lambda_min >= 1.0
            assert np.array_equal(tau.tau, tau.tau.T)

    def test_random_tau_validation(self):
        with pytest.raises(ValueError):
            random_tau(0, seed=1)
        with pytest.raises(ValueError):
            random_tau(2, seed=1, floor=0.0)

    def test_cell_points_deterministic(self, tau_g2_random):
        a = sample_cell_points(tau_g2_random, 5, seed=3)
        b = sample_cell_points(tau_g2_random, 5, seed=3)
        assert a.shape == (5, 2)
        assert np.array_equal(a, b)
        with pytest.raises(ValueError):
            sample_cell_points(tau_g2_random, 0, seed=3)
