"""The sign matrix over even pairs, exactly.

M is the d+ x d+ matrix of pairing signs (-1)^(a1.b2 + a2.b1) with rows and
columns running over the even pairs in canonical order.  Everything here is
exact: entries are +-1 integers, the closed-form inverse is rational with
denominator 2^(2g-1), and the verification identities are evaluated in
integer arithmetic.  M^2 is formed by popcount: with each row of M and each
row of M^T packed as bits (1 where the entry is -1), entry (i, j) of M^2 is
d+ - 2 popcount(row_i XOR col_j), an integer count with no rounding and no
overflow; each row block adds up those popcounts one packed word at a time.
pairing_signs builds the same signs between any two lists of
characteristics; M and both identity sweeps of theta4.identities read them
from there.

The row-sum law is checked literally: row_sum makes one weil_pairing call per
even pair, read from this module when it runs, so the check counts 4^g d+
pairings at genus g.  Each call is one genus comparison and one read of the
char2 sign table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from typing import Iterator, Sequence

import numpy as np

from theta4.char2 import (
    Characteristic,
    d_plus,
    enumerate_characteristics,
    even_characteristics,
    parity,
    weil_pairing,
)

MAX_GENUS = 5

# bound on rows x d+ x words of one row block of the popcount square
_SQUARE_BLOCK_WORDS = 2**17

Rational = Fraction | int


def _check_genus(g: int) -> None:
    if not isinstance(g, int) or not 1 <= g <= MAX_GENUS:
        raise ValueError(f"genus must be an integer in 1..{MAX_GENUS}, got {g!r}")


@dataclass(frozen=True)
class SignMatrix:
    """Pairing signs between even pairs; entries int64 in {+1, -1}."""

    g: int
    dim: int
    entries: np.ndarray
    index_map: tuple[Characteristic, ...]

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=np.int64)
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        if entries.shape != (self.dim, self.dim):
            raise ValueError(f"entries must be {self.dim} x {self.dim}")


@dataclass(frozen=True)
class RationalMatrix:
    """Dense exact rational matrix, rows as tuples of Fractions."""

    dim: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if len(self.entries) != self.dim or any(len(r) != self.dim for r in self.entries):
            raise ValueError(f"entries must be {self.dim} x {self.dim}")


def pairing_signs(rows: Sequence[Characteristic], cols: Sequence[Characteristic]) -> np.ndarray:
    """Int64 matrix of pairing signs (-1)^(a1.b2 + a2.b1), rows x cols, by popcount."""
    (g,) = {len(c.a1) for c in (*rows, *cols)}  # ValueError unless one genus
    r = np.array([c.index for c in rows], dtype=np.uint64)
    c = np.array([c.index for c in cols], dtype=np.uint64)
    r1, r2, c1, c2 = r >> g, r & (2**g - 1), c >> g, c & (2**g - 1)
    cross = np.bitwise_count(r1[:, None] & c2[None, :]) + np.bitwise_count(r2[:, None] & c1[None, :])
    return np.where(cross & 1, -1, 1).astype(np.int64)


def build_m(g: int) -> SignMatrix:
    """Assemble the sign matrix for genus g in canonical even-pair order."""
    _check_genus(g)
    evens = even_characteristics(g)
    return SignMatrix(g=g, dim=len(evens), entries=pairing_signs(evens, evens), index_map=tuple(evens))


@lru_cache(maxsize=None)
def _evens(g: int) -> tuple[Characteristic, ...]:
    return tuple(even_characteristics(g))


def row_sum(g: int, a: Characteristic) -> int:
    """Sum of pairing signs of a against all even pairs, computed literally.

    One weil_pairing call per even pair, looked up in this module when
    row_sum runs.  The closed form (d+ for a = 0, else parity(a) * 2^(g-1))
    is in row_sum_closed_form; keeping the literal sum separate is what makes
    the comparison a real check.
    """
    _check_genus(g)
    if a.g != g:
        raise ValueError(f"genus mismatch: matrix genus {g}, characteristic genus {a.g}")
    evens = _evens(g)
    return sum(map(weil_pairing, repeat(a, len(evens)), evens))


def row_sum_closed_form(g: int, a: Characteristic) -> int:
    """Closed form of the even-pair row sum."""
    _check_genus(g)
    if a.g != g:
        raise ValueError(f"genus mismatch: matrix genus {g}, characteristic genus {a.g}")
    if a.is_zero:
        return d_plus(g)
    return parity(a) * 2 ** (g - 1)


def affine_table(g: int, p: int, q: int, denom: int) -> RationalMatrix:
    """Exact rational table (p M + q I) / denom in canonical even-pair order."""
    m = build_m(g)
    rows = tuple(
        tuple(Fraction(p * int(e) + (q if i == j else 0), denom) for j, e in enumerate(row))
        for i, row in enumerate(m.entries)
    )
    return RationalMatrix(dim=m.dim, entries=rows)


def inverse_m(g: int) -> RationalMatrix:
    """Exact inverse (M - 2^(g-1) I) / 2^(2g-1)."""
    _check_genus(g)
    return affine_table(g, 1, -(2 ** (g - 1)), 2 ** (2 * g - 1))


def apply(m: SignMatrix | RationalMatrix, v: Sequence[Rational]) -> list[Fraction]:
    """Exact matrix-vector product over the rationals."""
    if len(v) != m.dim:
        raise ValueError(f"vector length {len(v)} does not match dimension {m.dim}")
    vec = [Fraction(x) for x in v]
    if isinstance(m, SignMatrix):
        rows = ([int(e) for e in row] for row in m.entries)
    else:
        rows = iter(m.entries)
    return [sum((e * x for e, x in zip(row, vec)), Fraction(0)) for row in rows]


def _pack_signs(e: np.ndarray) -> np.ndarray:
    """Rows of a +-1 matrix as bits (1 where -1), padded to whole uint64 words."""
    bits = np.packbits(e == -1, axis=1)
    padded = np.zeros((bits.shape[0], -(-bits.shape[1] // 8) * 8), dtype=np.uint8)
    padded[:, : bits.shape[1]] = bits
    return padded.view(np.uint64)


def _popcount_square(e: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (start, block): block is rows start, start + 1, ... of e @ e,
    exactly, for a square +-1 matrix e.

    Row i of e and column j of e agree in d - popcount(row_i XOR col_j)
    places and differ in the rest, so their dot product is
    d - 2 popcount(row_i XOR col_j).  The columns are packed from e.T, so
    this is e @ e even when e is not symmetric.  Row blocks hold at most
    _SQUARE_BLOCK_WORDS packed words of row-column pairs; within a block the
    popcounts are added one word at a time into a (rows, d) count, so no
    temporary has a words axis.
    """
    d = e.shape[0]
    rows, cols = _pack_signs(e), _pack_signs(e.T)
    step = max(1, _SQUARE_BLOCK_WORDS // cols.size)
    col_words = np.ascontiguousarray(cols.T)
    for start in range(0, d, step):
        block = rows[start : start + step]
        differ = np.zeros((len(block), d), dtype=np.int64)
        for w, col_word in enumerate(col_words):
            differ += np.bitwise_count(block[:, w, None] ^ col_word)
        yield start, d - 2 * differ


def verify_sign_matrix(g: int) -> dict[str, bool]:
    """Exact verification of the structural identities of the sign matrix.

    Checks, all in integer arithmetic:
      * entries are +-1, the diagonal is +1, and M is symmetric;
      * M^2 = 2^(g-1) M + 2^(2g-1) I, with M^2 counted by XOR-popcounts of
        the packed rows and columns of M (exact for a +-1 matrix);
      * M (M - 2^(g-1) I) = 2^(2g-1) I, i.e. the closed-form inverse is
        exact; this is the same integer matrix M^2 - 2^(g-1) M, so it is read
        off the same square;
      * the literal row sum over even pairs matches its closed form for
        every one of the 4^g characteristics.
    """
    _check_genus(g)
    m = build_m(g)
    e = m.entries
    k, c = 2 ** (g - 1), 2 ** (2 * g - 1)
    entries_pm1 = bool(np.all(np.abs(e) == 1))
    square_ok = entries_pm1  # the popcount square is e @ e only for a +-1 matrix
    for start, block in _popcount_square(e):
        target = k * e[start : start + len(block)] + c * np.eye(len(block), m.dim, start, dtype=int)
        square_ok = square_ok and np.array_equal(block, target)
    checks = {
        "entries_pm1": entries_pm1,
        "diagonal_plus1": bool(np.all(np.diagonal(e) == 1)),
        "symmetric": bool(np.array_equal(e, e.T)),
        "quadratic_identity": square_ok,
        "inverse_identity": square_ok,
    }
    checks["row_sum_closed_form"] = all(
        row_sum(g, a) == row_sum_closed_form(g, a) for a in enumerate_characteristics(g)
    )
    return checks
