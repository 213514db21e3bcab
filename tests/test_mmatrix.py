from fractions import Fraction

import numpy as np
import pytest

import theta4.mmatrix as mmatrix
from theta4.char2 import (
    Characteristic,
    d_plus,
    enumerate_characteristics,
    even_characteristics,
    weil_pairing,
)
from theta4.mmatrix import (
    build_m,
    pairing_signs,
    row_sum,
    row_sum_closed_form,
    verify_sign_matrix,
)


def solve_exact(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Independent dense rational solve by Gaussian elimination with pivoting."""
    n = len(rows)
    aug = [list(r) + [rhs[i]] for i, r in enumerate(rows)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


class TestBuild:
    def test_g1_explicit(self):
        m = build_m(1)
        assert m.dtype == np.int64
        assert m.tolist() == [[1, 1, 1], [1, 1, -1], [1, -1, 1]]
        assert [(c.a1, c.a2) for c in even_characteristics(1)] == [((0,), (0,)), ((0,), (1,)), ((1,), (0,))]

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_entries_match_pairing(self, g):
        m = build_m(g)
        evens = even_characteristics(g)
        for i, a in enumerate(evens):
            for j, b in enumerate(evens):
                assert m[i, j] == weil_pairing(a, b)

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_shape_diagonal_symmetry_trace(self, g):
        m = build_m(g)
        assert m.shape == (d_plus(g), d_plus(g))
        assert np.all(np.diagonal(m) == 1)
        assert np.array_equal(m, m.T)
        assert np.trace(m) == d_plus(g)
        assert np.all(m[0, :] == 1) and np.all(m[:, 0] == 1)

    @pytest.mark.parametrize("g", [0, 6])
    def test_genus_range(self, g):
        with pytest.raises(ValueError):
            build_m(g)


class TestPairingSigns:
    # genus 5 has 528 even rows, which leave a partial last block of rows
    @pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
    def test_matches_pairing_on_every_pair(self, g):
        evens, all_chars = even_characteristics(g), enumerate_characteristics(g)
        for rows, cols in ((evens, evens), (all_chars, evens), (all_chars[-1:], all_chars)):
            signs = pairing_signs(rows, cols)
            assert signs.dtype == np.int8 and signs.shape == (len(rows), len(cols))
            expected = [[weil_pairing(a, b) for b in cols] for a in rows]
            assert signs.tolist() == expected

    @pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
    def test_build_m_is_the_int64_cast(self, g):
        evens = even_characteristics(g)
        m = build_m(g)
        assert m.dtype == np.int64
        assert np.array_equal(m, pairing_signs(evens, evens))

    def test_build_peaks_near_one_byte_per_entry(self, traced_peak):
        # the int8 table and one block of rows' uint16 ANDs; a whole-table
        # AND and popcount peak at 3 bytes per entry
        rows, cols = enumerate_characteristics(6), even_characteristics(6)
        signs, peak = traced_peak(lambda: pairing_signs(rows, cols))
        assert signs.shape == (4096, d_plus(6))
        assert peak <= 1.25 * signs.size, peak

    def test_mixed_genus_rejected(self):
        with pytest.raises(ValueError, match="^genus mismatch: characteristic 1, characteristic 2$"):
            pairing_signs(even_characteristics(1), even_characteristics(2))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="needs at least one characteristic"):
            pairing_signs([], [])


class TestQuadraticIdentity:
    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_exact(self, g):
        m = build_m(g)
        eye = np.eye(m.shape[0], dtype=np.int64)
        assert np.array_equal(m @ m, 2 ** (g - 1) * m + 2 ** (2 * g - 1) * eye)


class TestRowSum:
    def test_examples(self):
        assert row_sum(2, Characteristic.zero(2)) == 10
        assert row_sum(1, Characteristic((1,), (0,))) == 1
        odd = Characteristic((1, 0), (1, 0))
        assert row_sum(2, odd) == -2

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_matches_closed_form_everywhere(self, g):
        for a in enumerate_characteristics(g):
            assert row_sum(g, a) == row_sum_closed_form(g, a)

    def test_genus_mismatch(self):
        with pytest.raises(ValueError):
            row_sum(2, Characteristic.zero(1))


class TestInverse:
    @pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
    def test_product_is_identity_in_rationals(self, g):
        # M times the closed-form inverse (M - 2^(g-1) I) / 2^(2g-1) is I;
        # cleared of its denominator, M (M - 2^(g-1) I) = 2^(2g-1) I in int64
        m = build_m(g)
        eye = np.eye(len(m), dtype=np.int64)
        assert np.array_equal(m @ (m - 2 ** (g - 1) * eye), 2 ** (2 * g - 1) * eye)

    def test_g1_explicit(self):
        # the numerator of the g = 1 inverse (M - I) / 2, which is also the
        # g = 1 inversion coefficient table (2 M - 2 I) / 2
        m = build_m(1)
        assert (m - np.eye(3, dtype=np.int64)).tolist() == [[0, 1, 1], [1, 0, -1], [1, -1, 0]]


class TestApply:
    def test_times_ones_gives_row_sums(self):
        g = 2
        result = build_m(g) @ np.ones(d_plus(g), dtype=np.int64)
        assert result.tolist() == [row_sum_closed_form(g, a) for a in even_characteristics(g)]

    def test_times_unit_vector_gives_column(self):
        m = build_m(2)
        e0 = np.zeros(len(m), dtype=np.int64)
        e0[0] = 1
        assert (m @ e0).tolist() == [1] * len(m)

    def test_roundtrip_matches_solve_oracle(self):
        g = 2
        m = build_m(g)
        v = np.random.default_rng(5).integers(-9, 10, len(m))
        eye = np.eye(len(m), dtype=np.int64)
        assert np.array_equal((m - 2 ** (g - 1) * eye) @ (m @ v), 2 ** (2 * g - 1) * v)
        # independent check: solve M x = M v directly
        rows = [[Fraction(int(e)) for e in row] for row in m]
        assert solve_exact(rows, [Fraction(int(x)) for x in m @ v]) == v.tolist()


class TestVerify:
    @pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
    def test_all_checks_true(self, g):
        checks = verify_sign_matrix(g)
        assert checks and all(checks.values())

    def test_float32_square_is_exact_to_max_genus(self):
        # every value the float32 square and its identity checks form is an
        # integer of size at most d+ + 2^(g-1) + 2^(2g-1), exact below 2^24
        for g in range(1, mmatrix.MAX_GENUS + 1):
            assert d_plus(g) + 2 ** (g - 1) + 2 ** (2 * g - 1) < 2**24

    def test_sign_check_peaks_below_three_bytes_per_entry(self, traced_peak):
        # the int8 table and one float32 row block and column block of it; a
        # float32 copy of the table and its build temporaries peak at 6 bytes
        # per entry.  The first call also builds the cached characteristic tuples.
        verify_sign_matrix(5)
        checks, peak = traced_peak(lambda: verify_sign_matrix(5))
        assert all(checks.values())
        assert peak <= 3 * d_plus(5) ** 2, peak

    @pytest.mark.parametrize("g", [2, 5])
    def test_flipped_symmetric_pair_fails_identities(self, g, monkeypatch):
        evens = even_characteristics(g)
        flipped = pairing_signs(evens, evens)
        flipped[1, 2] *= -1
        flipped[2, 1] *= -1
        monkeypatch.setattr(mmatrix, "pairing_signs", lambda *_: flipped)
        checks = verify_sign_matrix(g)
        assert checks["entries_pm1"] and checks["diagonal_plus1"] and checks["symmetric"]
        assert not checks["quadratic_identity"]
        assert not checks["inverse_identity"]
        assert checks["row_sum_closed_form"]

    @pytest.mark.parametrize("g", [2, 5])
    def test_flipped_single_entry_fails_symmetry_and_identities(self, g, monkeypatch):
        evens = even_characteristics(g)
        flipped = pairing_signs(evens, evens)
        flipped[1, 2] *= -1
        monkeypatch.setattr(mmatrix, "pairing_signs", lambda *_: flipped)
        checks = verify_sign_matrix(g)
        assert checks["entries_pm1"] and checks["diagonal_plus1"]
        assert not checks["symmetric"]
        assert not checks["quadratic_identity"]
        assert not checks["inverse_identity"]
        assert checks["row_sum_closed_form"]

    def test_non_sign_entries_fail_identities(self, monkeypatch):
        # e = 3J - 2I is not a sign matrix: its square 15J + 4I misses the
        # g = 1 identity e^2 = e + 2I = 3J, and the +-1 precondition, which
        # the square's exactness bound needs, fails both identities anyway
        bad = np.full((3, 3), 3, dtype=np.int8) - 2 * np.eye(3, dtype=np.int8)
        monkeypatch.setattr(mmatrix, "pairing_signs", lambda *_: bad)
        checks = verify_sign_matrix(1)
        assert not checks["entries_pm1"] and checks["diagonal_plus1"] and checks["symmetric"]
        assert not checks["quadratic_identity"]
        assert not checks["inverse_identity"]

    def test_wrong_pairing_fails_row_sums(self, monkeypatch):
        g = 3
        last, last_even = enumerate_characteristics(g)[-1], even_characteristics(g)[-1]

        def wrong(a, b):
            sign = weil_pairing(a, b)
            return -sign if (a, b) == (last, last_even) else sign

        monkeypatch.setattr(mmatrix, "weil_pairing", wrong)
        checks = verify_sign_matrix(g)
        assert not checks["row_sum_closed_form"]
        assert all(v for k, v in checks.items() if k != "row_sum_closed_form")
