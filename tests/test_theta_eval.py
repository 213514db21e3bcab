import cmath
import dataclasses
import itertools
import math
import pickle
import re
import sys

import numpy as np
import pytest

import theta4.theta_eval as theta_eval
from theta4.basis_analysis import basis_report
from theta4.char2 import Characteristic, check_genus, enumerate_characteristics, even_characteristics, parity
from theta4.identities import inversion_residuals, quartic_residuals, summarize
from theta4.theta_eval import (
    DEFAULT_POLICY,
    PeriodMatrix,
    ThetaValue,
    TruncationError,
    TruncationPolicy,
    block_diagonal_tau,
    random_tau,
    sample_cell_points,
    theta_nulls,
    theta_series,
    theta_table,
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


def assert_groups_match(groups, a1, points, tau):
    """Each (values, radius, tail_bound) equals the reference at its radius,
    and radius and tail bound are the default search's."""
    assert len(groups) == len(points)
    for k, ((values, radius, tail), z) in enumerate(zip(groups, points)):
        assert (radius, tail) == searched_radius(z, tau, TruncationPolicy()), k
        expected = meshgrid_group(a1, z + 0.0, tau, radius)
        assert np.all(np.isfinite(values)), k
        assert np.max(np.abs(values - expected) / np.maximum(1.0, np.abs(expected))) <= 1e-12, k


def searched_radius(z, tau: PeriodMatrix, policy: TruncationPolicy) -> tuple[int, float]:
    """Smallest radius whose _tail_bound meets the target, with that bound."""
    y = np.asarray(z).imag
    w = np.linalg.solve(tau.tau.imag, y)
    factor = theta_eval._bound_factor(tau.g, tau.lambda_min, math.pi * float(y @ w))
    for r in range(1, theta_eval.MAX_ALLOWED_RADIUS + 1):
        bound = theta_eval._tail_bound(factor, tau.lambda_min, r)
        if bound <= policy.target_eps:
            return r, bound
    raise AssertionError("no radius meets the target")


def kernel_groups(a1, points, tau: PeriodMatrix, policy: TruncationPolicy) -> list:
    """One (values, radius, tail_bound) per point: the 2^g second halves of
    the top half a1, sliced out of one _theta_groups call over the batch
    with the batch's own truncation, as _fill calls it."""
    g = tau.g
    h1 = int("".join(map(str, a1)), 2)
    truncation = theta_eval._truncation(points, tau, policy)
    values = theta_eval._theta_groups(points, truncation, tau)
    assert values.shape == (len(points), 4**g)
    return list(zip(values[:, h1 * 2**g : (h1 + 1) * 2**g], truncation[1].tolist(), truncation[2].tolist()))


@pytest.fixture()
def group_builds(monkeypatch):
    """Point bytes of every row block (all 2^g top halves of one point) the
    lattice-sum builder sums."""
    summed = []
    build = theta_eval._theta_groups

    def counting(points, *args):
        summed.extend(z.tobytes() for z in points)
        return build(points, *args)

    monkeypatch.setattr(theta_eval, "_theta_groups", counting)
    return summed


class TestPolicy:
    def test_defaults_valid(self):
        policy = TruncationPolicy()
        assert policy.target_eps == 1e-11
        assert theta_eval.MAX_ALLOWED_RADIUS == 64

    @pytest.mark.parametrize(
        "kwargs", [{"target_eps": 1e-15}, {"target_eps": math.inf}, {"target_eps": math.nan}, {"target_eps": -1.0}]
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            TruncationPolicy(**kwargs)

    def test_memo_key_follows_the_fields(self, group_builds):
        # the one field is the target, and the target is the memo key
        policy = TruncationPolicy(target_eps=1e-9)
        assert [f.name for f in dataclasses.fields(policy)] == ["target_eps"]
        assert repr(policy) == "TruncationPolicy(target_eps=1e-09)"
        assert pickle.loads(pickle.dumps(policy)) == policy
        with pytest.raises(TypeError, match="max_radius"):
            TruncationPolicy(target_eps=1e-9, max_radius=40)
        tau = random_tau(2, seed=5)
        c = Characteristic((1, 1), (0, 1))
        z = np.array([0.1 + 0.3j, -0.2 + 0.1j])
        for p in (policy, TruncationPolicy(target_eps=1e-9), dataclasses.replace(policy, target_eps=1e-7)):
            theta_series(c, z, tau, p)
        assert sorted(tau._theta_memo) == sorted((eps, z.tobytes()) for eps in (1e-9, 1e-7))
        assert len(group_builds) == 2


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
        value = theta_series(Characteristic.zero(1), zero1, tau_g1_i).value
        assert abs(value - THETA3_AT_I) < 1e-11

    def test_g1_null_matches_brute_force(self, tau_g1_i, zero1):
        coarse = brute_theta(Characteristic.zero(1), [0.0], [[1j]], 8)
        fine = brute_theta(Characteristic.zero(1), [0.0], [[1j]], 16)
        assert abs(coarse - fine) < 1e-12  # oracle is converged
        value = theta_series(Characteristic.zero(1), zero1, tau_g1_i).value
        assert abs(value - fine) < 1e-11

    def test_generic_point_matches_brute_force(self, tau_g2_random):
        z = np.array([0.31 + 0.12j, -0.05 + 0.4j])
        tau_list = tau_g2_random.tau.tolist()
        for c in enumerate_characteristics(2)[::5]:
            expected = brute_theta(c, z, tau_list, 12)
            assert abs(theta_series(c, z, tau_g2_random).value - expected) < 1e-10

    def test_odd_nulls_vanish(self, tau_g1_i, tau_g2_random):
        for tau in (tau_g1_i, tau_g2_random):
            g = tau.g
            top = max(abs(v) for v in theta_nulls(tau).values())
            for c in enumerate_characteristics(g):
                if parity(c) == -1:
                    assert abs(theta_series(c, np.zeros(g), tau).value) < 1e-10 * top

    def test_block_factorization(self):
        blocks = [1j, 0.2 + 1.3j]
        tau = block_diagonal_tau(blocks)
        tau1 = PeriodMatrix([[blocks[0]]])
        tau2 = PeriodMatrix([[blocks[1]]])
        for c in enumerate_characteristics(2):
            left = Characteristic((c.a1[0],), (c.a2[0],))
            right = Characteristic((c.a1[1],), (c.a2[1],))
            whole = theta_series(c, np.zeros(2), tau).value
            split = theta_series(left, [0.0], tau1).value * theta_series(right, [0.0], tau2).value
            assert abs(whole - split) <= 1e-9 * max(abs(whole), abs(split), 1.0)

    def test_genus_mismatch_and_bad_point(self, tau_g1_i):
        with pytest.raises(ValueError):
            theta_series(Characteristic.zero(2), [0.0], tau_g1_i).value
        with pytest.raises(ValueError):
            theta_series(Characteristic.zero(1), [0.0, 0.0], tau_g1_i).value
        with pytest.raises(ValueError):
            theta_series(Characteristic.zero(1), [complex(math.inf, 0)], tau_g1_i).value


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
        # the first read at a point fills it for every top half; every later read is a hit
        tau = random_tau(2, seed=6)
        z = sample_cell_points(tau, 1, seed=1)[0]
        for c in enumerate_characteristics(2):
            theta_series(c, z, tau)
            theta_series(c, 2.0 * z, tau)
        assert group_builds == [z.tobytes(), (2.0 * z).tobytes()]
        assert sorted(tau._theta_memo) == sorted((DEFAULT_POLICY.target_eps, p.tobytes()) for p in (z, 2.0 * z))
        assert all(len(values) == 4**2 for values, _, _ in tau._theta_memo.values())

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
            groups = kernel_groups(a1, points, tau, TruncationPolicy())
            assert len({radius for _, radius, _ in groups}) > 1
            assert_groups_match(groups, a1, points, tau)
            assert np.array_equal(groups[8][0], groups[0][0])  # the repeated point

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
        # the lone read filled points[1] for every top half; the table sums only the rest
        assert group_builds == [points[k].tobytes() for k in (1, 0, 2)]

    def test_genus4_batch_spans_chunks(self):
        tau = random_tau(4, seed=2)
        points = sample_cell_points(tau, 40, seed=3)
        a1 = (1, 0, 1, 0)
        groups = kernel_groups(a1, points, tau, TruncationPolicy())
        radii = [radius for _, radius, _ in groups]
        chunk = {r: max(theta_eval._CHUNK_ROWS, theta_eval._CHUNK_ENTRIES // (2 * (2 * r + 1) ** 3))
                 for r in radii}
        # each point is 2^4 rows, one per top half
        assert any(2**4 * radii.count(r) > chunk[r] for r in chunk)
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
            groups = kernel_groups(a1, points, tau, policy)
            assert_groups_match(groups, a1, points, tau)
            alpha = np.array(a1) / 2.0
            for z, (_, radius, _) in zip(points, groups):
                shift = np.rint(-alpha - np.linalg.solve(tau.tau.imag, z.imag))
                reach = radius + alpha
                growth.append(2 * math.pi * reach @ np.abs((z + tau.tau @ shift).imag))
        assert max(growth) > math.log(sys.float_info.max)


    @staticmethod
    def guarded_row(z: complex, im_tau: float) -> tuple[bool, int, float, float, float]:
        """Sum the point z alone for tau = 0.3 + im_tau i and check its row
        a1 = (1,) against the term-by-term sum within 1e-12.  Returns whether
        the row equals the term-by-term path's arithmetic bit for bit, its
        radius r, the two parts of its range-guard bound, the linear phase's
        2 pi (r + 1/2) |Im (z + tau s)| and the top half's cross term
        2 pi r |Im (tau / 2)|, and the margin's lower edge
        log(float max) - log(2r+1)."""
        tau = PeriodMatrix([[0.3 + im_tau * 1j]])
        z = np.array([z])
        (values, radius, _), = kernel_groups((1,), z[None], tau, TruncationPolicy())
        assert np.all(np.isfinite(values))
        expected = meshgrid_group((1,), z, tau, radius)
        assert np.max(np.abs(values - expected) / np.abs(expected)) <= 1e-12
        term_by_term = np.array_equal(values, fallback_group((1,), z, tau, radius))
        shift = np.rint(-0.5 - np.linalg.solve(tau.tau.imag, z.imag))
        linear = 2 * math.pi * (radius + 0.5) * abs((z + tau.tau @ shift).imag[0])
        cross = 2 * math.pi * radius * abs((tau.tau @ [0.5]).imag[0])
        return term_by_term, radius, linear, cross, math.log(sys.float_info.max) - math.log(2 * radius + 1)

    def term_by_term_row(self, z: complex) -> tuple[float, float, float]:
        """guarded_row at tau = 0.3 + 100i for a row that took the term-by-term
        path: its linear part, cross term and margin edge."""
        term_by_term, _, *parts = self.guarded_row(z, 100.0)
        assert term_by_term
        return tuple(parts)

    def test_range_guard_margin(self):
        # growth below log(float max) but within the margin g log(2r+1) that
        # covers a partial sum of (2r+1)^g factors: the point is summed term by
        # term, so it equals the term-by-term arithmetic exactly
        linear, cross, floor = self.term_by_term_row(0.25 - 41.9j)
        assert floor < linear + cross < math.log(sys.float_info.max)

    def test_range_guard_cross_term(self):
        # the linear phase alone stays below the margin; the top half's cross
        # term takes the row past it, onto the term-by-term path
        linear, cross, floor = self.term_by_term_row(0.25 - 110j)
        assert linear < floor < linear + cross

    @pytest.mark.parametrize("im_tau, z, radius", [(100.0, 0.25 - 41.8j, 1), (50.0, 0.25 - 75.08j, 2),
                                                   (30.0, 0.25 - 79.33j, 3)])
    def test_recurrence_at_range_guard_edge(self, im_tau, z, radius):
        # growth just below the margin: the row is factored, so its axis
        # factors run as a running product through the largest values the
        # guard admits, and the row still matches the term-by-term sum
        term_by_term, r, linear, cross, floor = self.guarded_row(z, im_tau)
        assert r == radius and not term_by_term
        assert floor - 0.6 < linear + cross < floor


class TestSharedSetUp:
    """The truncation shared by a point's characteristics and the
    quadratic-phase table built for each radius change no value, and the
    value memo is the only state a period matrix keeps."""

    @staticmethod
    def table_chars(g: int) -> list[Characteristic]:
        """Every second half of three top halves (all 2^g at g = 1)."""
        top_halves = dict.fromkeys([(1,) * g, (0,) * g, tuple(k % 2 for k in range(g))])
        return [c for c in enumerate_characteristics(g) if c.a1 in top_halves]

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_point_values_do_not_depend_on_batch(self, g):
        seed = 60 + g
        batch = TestBatchedKernel.mixed_batch(random_tau(g, seed))[:-1]
        far = random_tau(g, seed).tau @ np.full(g, 3.0) - 0.7
        chars = self.table_chars(g)
        alone = np.hstack([theta_table(chars, [z], random_tau(g, seed)) for z in batch])
        together = theta_table(chars, batch, random_tau(g, seed))
        order = np.random.default_rng(g).permutation(len(batch))
        shuffled = theta_table(chars, batch[order], random_tau(g, seed))
        grown = random_tau(g, seed)
        theta_table(chars, [far], grown)
        after = theta_table(chars, batch, grown)
        radii = [theta_series(c, z, grown).radius for c in chars for z in batch]
        # the far point was summed first, at a larger radius than any of the batch
        assert theta_series(chars[0], far, grown).radius > max(radii)
        assert np.array_equal(together, alone)
        assert np.array_equal(shuffled, alone[:, order])
        assert np.array_equal(after, alone)

    @pytest.mark.parametrize("g, top", [(1, 12), (2, 9), (3, 7), (4, 6)])
    def test_quad_table_slice_equals_table_built_at_radius(self, g, top):
        tau = random_tau(g, seed=70 + g)
        wide = theta_eval._quad_table(top, tau)
        assert wide.shape == (2 * top + 1,) * g
        k = np.indices(wide.shape).reshape(g, -1).T - top
        expected = np.exp(1j * np.pi * ((k @ tau.tau) * k).sum(1))
        # |Q| <= 1, peaking at Q[0] = 1
        assert np.max(np.abs(wide.ravel() - expected)) <= 1e-15
        for r in range(1, top):
            built = theta_eval._quad_table(r, tau)
            assert np.array_equal(wide[(slice(top - r, top + r + 1),) * g], built), r

    def test_quad_table_peak_memory_near_table_size(self, traced_peak):
        tau = random_tau(5, seed=11)
        table, peak = traced_peak(lambda: theta_eval._quad_table(6, tau))
        assert table.nbytes == 13**5 * 16
        assert peak < 1.25 * table.nbytes, (peak, table.nbytes)

    def test_value_memo_is_the_only_state(self):
        tau = random_tau(2, seed=4)
        basis_report(tau)
        points = sample_cell_points(tau, 2, 0)
        quartic_residuals(tau, points)
        inversion_residuals(tau, points)
        assert tau._theta_memo
        assert set(vars(tau)) == {"tau", "g", "lambda_min", "_theta_memo"}
        assert [f.name for f in dataclasses.fields(PeriodMatrix)] == ["tau"]

    def test_period_matrix_is_frozen(self):
        tau = random_tau(2, seed=4)
        for name in ("tau", "g", "lambda_min"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(tau, name, getattr(tau, name))
        # the values are write-protected too, so the memo cannot go stale
        with pytest.raises(ValueError, match="read-only"):
            tau.tau[0, 0] = 1j
        assert (tau.g, tau.tau.shape) == (2, (2, 2))
        assert tau.lambda_min == float(np.linalg.eigvalsh(tau.tau.imag).min())

    def test_period_matrix_equality_is_identity(self):
        tau, same = random_tau(2, seed=4), random_tau(2, seed=4)
        assert np.array_equal(tau.tau, same.tau)
        assert tau != same and tau == tau
        assert len({tau, same, tau}) == 2

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_table_is_one_stacked_batch(self, g, monkeypatch):
        calls = []
        build = theta_eval._theta_groups

        def counting(points, *args):
            values = build(points, *args)
            calls.append(([z.tobytes() for z in points], values.shape))
            return values

        monkeypatch.setattr(theta_eval, "_theta_groups", counting)
        tau = random_tau(g, seed=85 + g)
        points = list(sample_cell_points(tau, 2, seed=g))
        distinct = points + [2.0 * points[1]]
        theta_table(enumerate_characteristics(g), points + [points[0], 2.0 * points[1]], tau)
        assert len(calls) == 1
        summed, shape = calls[0]
        assert summed == [z.tobytes() for z in distinct]
        assert shape == (len(distinct), 4**g)

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_top_half_alone_equals_stacked(self, g):
        seed = 95 + g
        points = TestBatchedKernel.mixed_batch(random_tau(g, seed))[[0, 4, 10]]
        chars = enumerate_characteristics(g)
        stacked = theta_table(chars, points, random_tau(g, seed))
        for a1 in itertools.product((0, 1), repeat=g):
            for j, z in enumerate(points):
                # a theta_series miss on a fresh tau sums every characteristic at z on its own
                fresh = random_tau(g, seed)
                for i, c in enumerate(chars):
                    if c.a1 == a1:
                        assert theta_series(c, z, fresh).value == stacked[i, j], (c, j)

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_truncation_once_per_distinct_point(self, g, monkeypatch):
        truncated = []
        truncation = theta_eval._truncation

        def counting(points, *args):
            truncated.extend(z.tobytes() for z in points)
            return truncation(points, *args)

        monkeypatch.setattr(theta_eval, "_truncation", counting)
        tau = random_tau(g, seed=80 + g)
        points = list(sample_cell_points(tau, 3, seed=g))
        chars = enumerate_characteristics(g)
        theta_series(chars[-1], points[1], tau)
        assert truncated == [points[1].tobytes()]
        # points[1] is memoized for every characteristic: the table does not truncate it again
        theta_table(chars, points + [points[0], 2.0 * points[2]], tau)
        expected = [points[1], points[0], points[2], 2.0 * points[2]]
        assert truncated == [z.tobytes() for z in expected]
        theta_table(chars, points, tau)
        theta_table(chars[::2], [points[2], 3.0 * points[0]], tau)
        assert truncated[len(expected):] == [(3.0 * points[0]).tobytes()]
        assert len(set(truncated)) == len(truncated)


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

    @pytest.mark.parametrize(
        "form, error",
        [("list", None), ("negative zero", None), ("real dtype", None), ("row", "components"),
         ("column", "components"), ("nan", "non-finite")],
    )
    def test_point_forms(self, group_builds, form, error):
        tau = random_tau(2, seed=4)
        c = Characteristic((1, 0), (1, 1))
        z = np.array([0.0, -0.5 + 0.0j])
        # memoized first: the row form has the very bytes of a memo key
        expected = theta_series(c, z, tau)
        forms = {
            "list": z.tolist(),
            "negative zero": np.array([complex(-0.0, -0.0), complex(-0.5, -0.0)]),
            "real dtype": z.real.copy(),
            "row": z[None],
            "column": z[:, None],
            "nan": np.array([complex(math.nan, 0.0), z[1]]),
        }
        if error is None:
            assert theta_series(c, forms[form], tau) == expected
        else:
            with pytest.raises(ValueError, match=error):
                theta_series(c, forms[form], tau)
        assert len(group_builds) == 1

    def test_memo_key_bytes_in_another_dtype_are_another_point(self):
        tau = random_tau(2, seed=4)
        c = Characteristic((1, 0), (1, 1))
        z = np.array([0.0, -0.5 + 0.0j])
        memoized = theta_series(c, z, tau)
        other = np.frombuffer(z.tobytes(), dtype=np.longdouble)
        if other.shape != z.shape:
            pytest.skip("long double is not 16 bytes on this platform")
        result = theta_series(c, other, tau)
        assert result == theta_series(c, other.astype(complex), random_tau(2, seed=4))
        assert result.value != memoized.value

    def test_equal_policies_share_groups_and_hits_are_theta_values(self, group_builds):
        tau = random_tau(2, seed=5)
        c = Characteristic((1, 1), (0, 1))
        z = np.array([0.1 + 0.3j, -0.2 + 0.1j])
        first = theta_series(c, z, tau, TruncationPolicy(target_eps=1e-9))
        again = theta_series(c, z, tau, TruncationPolicy(target_eps=1e-9))
        assert type(again) is ThetaValue and again._fields == ("value", "tail_bound", "radius")
        assert again == first and (again.value, again.tail_bound, again.radius) == tuple(first)
        assert len(group_builds) == 1
        # another target is another group; the default target is its own key
        theta_series(c, z, tau, TruncationPolicy(target_eps=1e-10))
        theta_series(c, z, tau)
        assert theta_series(c, z, tau, DEFAULT_POLICY) == theta_series(c, z, tau, TruncationPolicy())
        assert len(group_builds) == 3

    def test_signed_zero_shares_group(self, group_builds):
        tau = random_tau(1, seed=2)
        negative = theta_series(Characteristic.zero(1), [complex(-0.0, -0.0)], tau)
        positive = theta_series(Characteristic.zero(1), [0.0], tau)
        assert negative == positive
        assert len(group_builds) == 1

    def test_table_checks_every_genus_before_summing(self, group_builds):
        tau = random_tau(2, seed=3)
        chars = [Characteristic.zero(2), Characteristic.zero(1), Characteristic((1, 0), (0, 1))]
        with pytest.raises(ValueError, match="genus mismatch"):
            theta_table(chars, [np.zeros(2)], tau)
        # no characteristics, no sum
        assert theta_table([], [np.zeros(2)], tau).shape == (0, 1)
        assert group_builds == []

    def test_argument_errors_precede_lookup(self, group_builds, zero1):
        tau = random_tau(1, seed=3)
        theta_series(Characteristic.zero(1), zero1, tau)
        with pytest.raises(ValueError, match="genus mismatch"):
            theta_series(Characteristic.zero(2), zero1, tau)
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
                plus = theta_series(c, z, tau).value
                minus = theta_series(c, -z, tau).value
                assert abs(minus - parity(c) * plus) <= 1e-9 * max(abs(plus), 1e-3)

    def test_quasi_periodicity(self, tau_g2_random):
        rng = np.random.default_rng(2)
        for tau in (random_tau(1, 4), tau_g2_random):
            g = tau.g
            z = rng.uniform(-0.3, 0.3, g) + 1j * rng.uniform(-0.3, 0.3, g)
            p = rng.integers(-2, 3, g)
            q = rng.integers(-2, 3, g)
            for c in enumerate_characteristics(g)[:: max(1, g)]:
                base = theta_series(c, z, tau).value
                shifted_int = theta_series(c, z + p, tau).value
                sign = (-1) ** int(np.dot(c.a1, p) % 2)
                assert abs(shifted_int - sign * base) <= 1e-9 * max(abs(base), 1e-6)
                shifted_tau = theta_series(c, z + tau.tau @ q, tau).value
                factor = np.exp(
                    -1j * np.pi * (q @ tau.tau @ q) - 2j * np.pi * (q @ (z + np.array(c.a2) / 2.0))
                )
                assert abs(shifted_tau - factor * base) <= 1e-9 * max(abs(factor * base), 1e-6)


def _allowed_shift(rng: np.random.Generator, g: int, scale: int) -> np.ndarray:
    """A random integer symmetric T with diagonal in 8Z and off-diagonal in 4Z:
    exp(pi i n'Tn) = 1 for n in Z^g + a1/2, so theta[a](z, tau + T) = theta[a](z, tau)."""
    t = 4 * rng.integers(-scale, scale + 1, (g, g))
    t = np.triu(t) + np.triu(t, 1).T
    np.fill_diagonal(t, 8 * rng.integers(-scale, scale + 1, g))
    return t


class TestLargeRealPart:
    """theta[a](z, tau + T) = theta[a](z, tau) for every allowed T, however large Re tau gets."""

    @staticmethod
    def assert_same_values(shifted: PeriodMatrix, unshifted: PeriodMatrix, points) -> None:
        chars = enumerate_characteristics(shifted.g)
        got, want = theta_table(chars, points, shifted), theta_table(chars, points, unshifted)
        scale = np.max(np.abs(want), axis=0)  # each point's largest value
        assert np.all(np.abs(got - want) <= 1e-12 * scale), np.max(np.abs(got - want) / scale)

    def test_theta3_at_huge_real_part(self):
        value = theta_nulls(PeriodMatrix([[1e15 + 1j]]))[Characteristic.zero(1)]
        assert abs(value - math.pi ** 0.25 / math.gamma(0.75)) <= 1e-12

    @pytest.mark.parametrize("big, small", [(1e15 + 1j, 1j), (236139583 + 1j, -1 + 1j)])
    def test_genus_one_shifts(self, big, small):
        points = np.array([[0.0], [0.3 + 0.2j], [-0.45 + 0.7j], [0.1 - 0.9j]])
        self.assert_same_values(PeriodMatrix([[big]]), PeriodMatrix([[small]]), points)

    @pytest.mark.parametrize("g", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_allowed_shift(self, g, seed):
        t = _allowed_shift(np.random.default_rng([g, seed]), g, 10**6)
        shifted = random_tau(g, seed).tau + t
        # the sum rounds Re tau, the subtraction is exact: the two matrices differ by T alone
        unshifted = PeriodMatrix(shifted - t)
        points = sample_cell_points(unshifted, 3, seed)
        self.assert_same_values(PeriodMatrix(shifted), unshifted, points)

    @pytest.mark.parametrize("re", [1e15, 236139583.0])
    def test_identity_sweeps_pass(self, re):
        tau = PeriodMatrix([[re + 1j]])
        points = sample_cell_points(tau, 5, 0)
        for sweep in (quartic_residuals, inversion_residuals):
            worst, ok, _ = summarize(sweep(tau, points))
            assert ok and worst <= 1e-11, (sweep.__name__, worst)


class TestLaws:
    """Laws that hold whatever the evaluator, over all 4^g characteristics at
    seeded points: each column within 1e-12 of its largest entry."""

    @staticmethod
    def assert_columns_close(got: np.ndarray, expected: np.ndarray) -> None:
        assert np.all(np.abs(got - expected) <= 1e-12 * np.abs(expected).max(0))

    @staticmethod
    def halves(g: int) -> tuple[list[Characteristic], np.ndarray, np.ndarray]:
        chars = enumerate_characteristics(g)
        return chars, np.array([c.a1 for c in chars]), np.array([c.a2 for c in chars])

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_parity(self, g):
        # theta[a](-z) = (-1)^(a1.a2) theta[a](z)
        tau = random_tau(g, seed=110 + g)
        chars, a1, a2 = self.halves(g)
        z = sample_cell_points(tau, 4, seed=g)
        signs = (-1) ** ((a1 * a2).sum(1) % 2)
        self.assert_columns_close(theta_table(chars, -z, tau), signs[:, None] * theta_table(chars, z, tau))

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_quasi_periodicity(self, g):
        # theta[a](z + p + tau n) = exp(-pi i n'tau n - 2 pi i n'z) (-1)^(a1.p - a2.n) theta[a](z)
        tau = random_tau(g, seed=120 + g)
        chars, a1, a2 = self.halves(g)
        z = sample_cell_points(tau, 4, seed=g)
        rng = np.random.default_rng(g)
        p, n = rng.integers(-1, 2, size=(2, len(z), g))
        factor = np.exp(-1j * np.pi * (((n @ tau.tau) * n).sum(1) + 2.0 * (n * z).sum(1)))
        signs = (-1) ** ((a1 @ p.T - a2 @ n.T) % 2)
        shifted = theta_table(chars, z + p + n @ tau.tau, tau)
        self.assert_columns_close(shifted, signs * factor * theta_table(chars, z, tau))

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_half_period_translation(self, g):
        # theta[a](z + (b2 + tau b1)/2) = exp(-pi i (b1'tau b1/4 + b1'(z + (a2 + b2)/2)))
        #                                 (-1)^((a1 + b1).(a2 b2)) theta[a + b](z),
        # so it ties the values of different top halves together
        tau = random_tau(g, seed=130 + g)
        chars, a1, a2 = self.halves(g)
        row = {c: i for i, c in enumerate(chars)}
        z = sample_cell_points(tau, 4, seed=g)
        rng = np.random.default_rng(g)
        shifts = [Characteristic.from_ints(g, int(rng.integers(1, 2**g)), int(rng.integers(2**g))) for _ in z]
        b1 = np.array([b.a1 for b in shifts])
        b2 = np.array([b.a2 for b in shifts])
        base = theta_table(chars, z, tau)
        expected = np.empty_like(base)
        for j in range(len(shifts)):
            phase = (b1[j] @ tau.tau @ b1[j]) / 4.0 + (a2 + b2[j]) @ b1[j] / 2.0 + b1[j] @ z[j]
            signs = (-1) ** (((a1 ^ b1[j]) * (a2 & b2[j])).sum(1) % 2)
            rows = [row[Characteristic(tuple((a ^ b1[j]).tolist()), tuple((c ^ b2[j]).tolist()))]
                    for a, c in zip(a1, a2)]
            expected[:, j] = signs * np.exp(-1j * np.pi * phase) * base[rows, j]
        moved = theta_table(chars, z + (b2 + b1 @ tau.tau) / 2.0, tau)
        self.assert_columns_close(moved, expected)


    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_integer_shift_of_real_part(self, g):
        # theta[a](z + n) = (-1)^(a1.n) theta[a](z) for integer n, up to shifts
        # of 1e20, far past where a phase computed at z + n keeps its digits;
        # an axis shifted by 2^50 or more has real part 0, so every z + n is exact
        tau = random_tau(g, seed=140 + g)
        chars, a1, _ = self.halves(g)
        rng = np.random.default_rng(g)
        z = 1j * sample_cell_points(tau, 6, seed=g).imag + rng.choice([-0.5, -0.25, 0.0, 0.375, 0.5], (6, g))
        n = rng.choice([1.0, -6.0, 2.0**40 + 1, 1e15 + 1, -1e16, 2.0**60, 1e20], (6, g))
        z.real[np.abs(n) >= 2.0**50] = 0.0
        assert np.array_equal(z + n - n, z)
        signs = (-1) ** ((a1 @ (np.fmod(n, 2.0) != 0).T) % 2)
        self.assert_columns_close(theta_table(chars, z + n, tau), signs * theta_table(chars, z, tau))

    @staticmethod
    def addition_formula(g: int, tau: PeriodMatrix, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """theta[a](z, tau)^2 over all 4^g characteristics and, column by column,
        Riemann's addition formula for it in second-order theta functions
        (Mumford, Tata Lectures on Theta I, Ch. II):

            theta[a](z, tau)^2 = sum over s of (-1)^(a2.s) Th[s + a1](0, 2 tau) Th[s](2z, 2 tau),

        with s in {0,1}^g, + over GF(2) and Th[s](w, 2 tau) = theta[(s, 0)](w, 2 tau)."""
        chars, a1, a2 = TestLaws.halves(g)
        doubled = PeriodMatrix(2 * tau.tau)
        second = [Characteristic.from_ints(g, s, 0) for s in range(2**g)]
        sigma = np.array([s.a1 for s in second])
        nulls = theta_table(second, [np.zeros(g)], doubled)[:, 0]
        at_2z = theta_table(second, 2.0 * z, doubled)
        signs = (-1) ** ((a2 @ sigma.T) % 2)
        shifted = (a1 @ (1 << np.arange(g)[::-1]))[:, None] ^ np.arange(2**g)
        return theta_table(chars, z, tau) ** 2, (signs * nulls[shifted]) @ at_2z

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_addition_formula(self, g, seed):
        # the evaluator at tau against itself at 2 tau; the largest error over
        # the column maximum was 4.8e-14 at g = 1, 2.5e-15 at g = 2, 1.1e-15
        # at g = 3 and 3.0e-15 at g = 4, 20 times inside the 1e-12 pin or more
        tau = random_tau(g, seed)
        self.assert_columns_close(*self.addition_formula(g, tau, sample_cell_points(tau, 4, seed=g)))


class TestTruncation:
    def test_doubling_radius_is_stable(self, tau_g2_random):
        policy = TruncationPolicy()
        z = np.array([0.2 + 0.3j, -0.1 + 0.2j])
        for c in enumerate_characteristics(2)[::3]:
            first = theta_series(c, z, tau_g2_random, policy)
            doubled = meshgrid_theta(c, z, tau_g2_random, 2 * first.radius)
            assert abs(first.value - doubled) < policy.target_eps

    @pytest.mark.parametrize("floor", [1.0, 0.3])
    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_tail_bound_covers_brute_force(self, g, floor):
        # the terms between the kernel's box and the same box 3 wider are part
        # of the tail the bound covers; at target 1e-6 the bound is nearly tight,
        # so a bound counted from one step past the centre fails here.  The
        # allowance is the kernel's rounding, 1e-12 of the value as in
        # assert_groups_match: 1e-13 is crossed by rounding alone
        tau = random_tau(g, seed=140 + g, floor=floor)
        cell = sample_cell_points(tau, 2, seed=g)
        points = np.vstack([cell, 2.0 * cell, tau.tau @ np.full(g, 1.5) + 0.3])
        top_halves = list(itertools.product((0, 1), repeat=g))
        if g == 4:
            top_halves = [top_halves[i] for i in np.random.default_rng(g).choice(2**g, size=2, replace=False)]
        for eps in (1e-11, 1e-6):
            policy = TruncationPolicy(target_eps=eps)
            for j, z in enumerate(points):
                for a1 in top_halves:
                    radius = theta_series(Characteristic(a1, (0,) * g), z, tau, policy).radius
                    wider = fallback_group(a1, z, tau, radius + 3)
                    for a2, expected in zip(itertools.product((0, 1), repeat=g), wider.tolist()):
                        result = theta_series(Characteristic(a1, a2), z, tau, policy)
                        assert result.tail_bound <= eps
                        allowance = 1e-12 * max(1.0, abs(expected))
                        assert abs(result.value - expected) <= result.tail_bound + allowance, (eps, j, a1, a2)

    def test_reported_bound_meets_target(self, tau_g1_i, zero1):
        result = theta_series(Characteristic.zero(1), zero1, tau_g1_i)
        assert 0.0 < result.tail_bound <= TruncationPolicy().target_eps

    def test_radius_cap_error_reports_requirement(self, group_builds):
        # lambda = 1e-3 is above the degeneracy floor, but the default target
        # needs radius 93 there, past the fixed cap; nothing is summed
        tau = PeriodMatrix([[0.001j]])
        with pytest.raises(TruncationError) as err:
            theta_series(Characteristic.zero(1), [0.0], tau)
        assert err.value.required_radius == 93
        assert isinstance(err.value, ValueError)
        assert str(err.value) == "lattice-sum radius 93 needed to meet the tail target, cap is 64"
        assert tau._theta_memo == {} and group_builds == []


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

    @pytest.mark.parametrize("seed", [
        -1, 1.5, True, "0", float("nan"), float("inf"), float("-inf"),
        pytest.param(10**400, id="int-past-float-max"),
    ])
    def test_bad_seed_named(self, tau_g2_random, seed):
        with pytest.raises(ValueError, match=re.escape(f"seed must be an integer >= 0, got {seed!r}")):
            sample_cell_points(tau_g2_random, 1, seed)


# one argument of each library entry point that takes a number from its caller
VALIDATED = {
    "check_genus": check_genus,
    "TruncationPolicy": TruncationPolicy,
    "random_tau-g": lambda x: random_tau(x, 0),
    "random_tau-seed": lambda x: random_tau(2, x),
    "random_tau-floor": lambda x: random_tau(2, 0, x),
    "sample_cell_points-n": lambda x: sample_cell_points(random_tau(1, 0), x, 0),
}


class TestInputRules:
    @pytest.mark.parametrize("value", [
        True, "0.5", float("nan"), float("inf"), float("-inf"),
        pytest.param(10**400, id="int-past-float-max"),
    ])
    @pytest.mark.parametrize("call", VALIDATED.values(), ids=VALIDATED.keys())
    def test_non_number_is_value_error(self, call, value):
        # a bool is an int and a string a sequence, but neither is a number here
        with pytest.raises(ValueError, match=re.escape(repr(value))):
            call(value)

    def test_numpy_scalars_pass(self):
        assert TruncationPolicy(np.float32(1e-11)).target_eps == np.float32(1e-11)
        assert TruncationPolicy(np.float64(1e-11)) == TruncationPolicy(1e-11)
        tau = random_tau(np.int64(2), np.int64(0), np.float32(1.0))
        assert np.array_equal(tau.tau, random_tau(2, 0, 1.0).tau)
        points = sample_cell_points(tau, np.int64(2), np.int64(3))
        assert np.array_equal(points, sample_cell_points(tau, 2, 3))
