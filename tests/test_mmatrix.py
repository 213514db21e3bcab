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
    RationalMatrix,
    SignMatrix,
    apply,
    build_m,
    inverse_m,
    pairing_signs,
    row_sum,
    row_sum_closed_form,
    verify_sign_matrix,
)


def fraction_matmul(a: RationalMatrix | SignMatrix, b: RationalMatrix) -> list[list[Fraction]]:
    rows_a = a.entries if isinstance(a, RationalMatrix) else [[int(e) for e in r] for r in a.entries]
    return [
        [sum((Fraction(rows_a[i][k]) * b.entries[k][j] for k in range(b.dim)), Fraction(0))
         for j in range(b.dim)]
        for i in range(b.dim)
    ]


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
        assert m.entries.tolist() == [[1, 1, 1], [1, 1, -1], [1, -1, 1]]
        assert [(c.a1, c.a2) for c in m.index_map] == [((0,), (0,)), ((0,), (1,)), ((1,), (0,))]

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_entries_match_pairing(self, g):
        m = build_m(g)
        for i, a in enumerate(m.index_map):
            for j, b in enumerate(m.index_map):
                assert m.entries[i, j] == weil_pairing(a, b)

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_shape_diagonal_symmetry_trace(self, g):
        m = build_m(g)
        assert m.dim == d_plus(g)
        assert np.all(np.diagonal(m.entries) == 1)
        assert np.array_equal(m.entries, m.entries.T)
        assert np.trace(m.entries) == d_plus(g)
        assert np.all(m.entries[0, :] == 1) and np.all(m.entries[:, 0] == 1)

    @pytest.mark.parametrize("g", [0, 6])
    def test_genus_range(self, g):
        with pytest.raises(ValueError):
            build_m(g)


class TestPairingSigns:
    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_matches_pairing_on_every_pair(self, g):
        evens, all_chars = even_characteristics(g), enumerate_characteristics(g)
        for rows, cols in ((evens, evens), (all_chars, evens), (all_chars[-1:], all_chars)):
            signs = pairing_signs(rows, cols)
            assert signs.dtype == np.int64 and signs.shape == (len(rows), len(cols))
            expected = [[weil_pairing(a, b) for b in cols] for a in rows]
            assert signs.tolist() == expected

    def test_mixed_genus_rejected(self):
        with pytest.raises(ValueError):
            pairing_signs(even_characteristics(1), even_characteristics(2))


class TestQuadraticIdentity:
    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_exact(self, g):
        m = build_m(g).entries
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
    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_product_is_identity_in_rationals(self, g):
        m = build_m(g)
        inv = inverse_m(g)
        product = fraction_matmul(m, inv)
        for i in range(m.dim):
            for j in range(m.dim):
                assert product[i][j] == (1 if i == j else 0)

    def test_g4_identity_via_integers(self):
        # M (M - 2^(g-1) I) = 2^(2g-1) I is the same statement cleared of denominators
        g = 4
        m = build_m(g).entries
        eye = np.eye(m.shape[0], dtype=np.int64)
        assert np.array_equal(m @ (m - 2 ** (g - 1) * eye), 2 ** (2 * g - 1) * eye)

    def test_g1_explicit(self):
        inv = inverse_m(1)
        expected = [
            [Fraction(0), Fraction(1, 2), Fraction(1, 2)],
            [Fraction(1, 2), Fraction(0), Fraction(-1, 2)],
            [Fraction(1, 2), Fraction(-1, 2), Fraction(0)],
        ]
        assert [list(r) for r in inv.entries] == expected

    def test_denominators_divide_power_of_two(self):
        for g in (1, 2, 3):
            bound = 2 ** (2 * g - 1)
            for row in inverse_m(g).entries:
                for e in row:
                    assert bound % e.denominator == 0


class TestApply:
    def test_times_ones_gives_row_sums(self):
        g = 2
        m = build_m(g)
        result = apply(m, [1] * m.dim)
        for value, a in zip(result, m.index_map):
            assert value == row_sum_closed_form(g, a)

    def test_times_unit_vector_gives_column(self):
        m = build_m(2)
        e0 = [1] + [0] * (m.dim - 1)
        assert apply(m, e0) == [Fraction(1)] * m.dim

    def test_roundtrip_matches_solve_oracle(self):
        g = 2
        m = build_m(g)
        inv = inverse_m(g)
        rng = np.random.default_rng(5)
        v = [Fraction(int(p), int(q)) for p, q in zip(rng.integers(-9, 10, m.dim), rng.integers(1, 8, m.dim))]
        roundtrip = apply(inv, apply(m, v))
        assert roundtrip == v
        # independent check: solve M x = M v directly
        rows = [[Fraction(int(e)) for e in row] for row in m.entries]
        assert solve_exact(rows, apply(m, v)) == v

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply(build_m(1), [1, 2])


class TestVerify:
    @pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
    def test_all_checks_true(self, g):
        checks = verify_sign_matrix(g)
        assert checks and all(checks.values())

    @pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
    def test_popcount_square_matches_matmul(self, g):
        # the flipped [1, 2] makes e asymmetric: packing rows where the columns
        # belong would give e @ e.T there, not e @ e
        e = build_m(g).entries
        flipped = e.copy()
        flipped[1, 2] *= -1
        words = -(-len(e) // 64)
        for matrix in (e, flipped):
            blocks = list(mmatrix._popcount_square(matrix))
            starts = [start for start, _ in blocks]
            assert starts == [sum(len(b) for _, b in blocks[:i]) for i in range(len(blocks))]
            assert all(len(b) * len(e) * words <= mmatrix._SQUARE_BLOCK_WORDS for _, b in blocks)
            square = np.concatenate([b for _, b in blocks])
            assert square.dtype == np.int64
            assert np.array_equal(square, matrix @ matrix)

    @pytest.mark.parametrize("g", [2, 5])
    def test_flipped_symmetric_pair_fails_identities(self, g, monkeypatch):
        true_m = build_m(g)
        entries = true_m.entries.copy()
        entries[1, 2] *= -1
        entries[2, 1] *= -1
        flipped = SignMatrix(g=g, dim=true_m.dim, entries=entries, index_map=true_m.index_map)
        monkeypatch.setattr(mmatrix, "build_m", lambda _: flipped)
        checks = verify_sign_matrix(g)
        assert checks["entries_pm1"] and checks["diagonal_plus1"] and checks["symmetric"]
        assert not checks["quadratic_identity"]
        assert not checks["inverse_identity"]
        assert checks["row_sum_closed_form"]

    @pytest.mark.parametrize("g", [2, 5])
    def test_flipped_single_entry_fails_symmetry_and_identities(self, g, monkeypatch):
        true_m = build_m(g)
        entries = true_m.entries.copy()
        entries[1, 2] *= -1
        flipped = SignMatrix(g=g, dim=true_m.dim, entries=entries, index_map=true_m.index_map)
        monkeypatch.setattr(mmatrix, "build_m", lambda _: flipped)
        checks = verify_sign_matrix(g)
        assert checks["entries_pm1"] and checks["diagonal_plus1"]
        assert not checks["symmetric"]
        assert not checks["quadratic_identity"]
        assert not checks["inverse_identity"]
        assert checks["row_sum_closed_form"]

    def test_non_sign_entries_fail_identities(self, monkeypatch):
        # e = 3J - 2I packs like the all-ones J, and J^2 = 3J = e + 2I is the
        # g = 1 identity, so only the +-1 precondition keeps the popcount
        # square honest: (3J - 2I)^2 = 15J + 4I
        true_m = build_m(1)
        entries = np.full((3, 3), 3) - 2 * np.eye(3, dtype=int)
        bad = SignMatrix(g=1, dim=3, entries=entries, index_map=true_m.index_map)
        monkeypatch.setattr(mmatrix, "build_m", lambda _: bad)
        checks = verify_sign_matrix(1)
        assert not checks["entries_pm1"] and checks["diagonal_plus1"] and checks["symmetric"]
        assert not checks["quadratic_identity"]
        assert not checks["inverse_identity"]

    def test_wrong_pairing_fails_row_sums(self, monkeypatch):
        g = 3
        last, last_even = enumerate_characteristics(g)[-1], build_m(g).index_map[-1]

        def wrong(a, b):
            sign = weil_pairing(a, b)
            return -sign if (a, b) == (last, last_even) else sign

        monkeypatch.setattr(mmatrix, "weil_pairing", wrong)
        checks = verify_sign_matrix(g)
        assert not checks["row_sum_closed_form"]
        assert all(v for k, v in checks.items() if k != "row_sum_closed_form")
