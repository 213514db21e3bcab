"""The sign matrix over even pairs, exactly.

M is the d+ x d+ matrix of pairing signs (-1)^(a1.b2 + a2.b1) with rows and
columns running over the even pairs in canonical order.  Everything here is
exact: entries are +-1 integers, the closed-form inverse is rational with
denominator 2^(2g-1), and the verification identities are evaluated on
integers.  M^2 is one float32 matrix product, which is exact here because
every value it and the identity checks form is an integer below 2^24 (see
verify_sign_matrix).  pairing_signs builds the same signs between any two
lists of characteristics; M and both identity sweeps of theta4.identities
read them from there.

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
from typing import Sequence

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
    """Int64 matrix of pairing signs (-1)^(a1.b2 + a2.b1), rows x cols.

    The char2 rule: (-1)^popcount(index(a) & swapped(b)) for row a, column b.
    """
    (_,) = {c.g for c in (*rows, *cols)}  # ValueError unless one genus
    r = np.array([c._index for c in rows], dtype=np.uint64)
    s = np.array([c._swapped for c in cols], dtype=np.uint64)
    return np.where(np.bitwise_count(r[:, None] & s) & 1, -1, 1)


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


def verify_sign_matrix(g: int) -> dict[str, bool]:
    """Exact verification of the structural identities of the sign matrix.

    Checks, all on integer values (M^2 in float32, exact as shown below):
      * entries are +-1, the diagonal is +1, and M is symmetric;
      * M^2 = 2^(g-1) M + 2^(2g-1) I;
      * M (M - 2^(g-1) I) = 2^(2g-1) I, i.e. the closed-form inverse is
        exact; this is the same integer matrix M^2 - 2^(g-1) M, so it is read
        off the same square;
      * the literal row sum over even pairs matches its closed form for
        every one of the 4^g characteristics.

    M^2 is one float32 product, and it is exact.  For a +-1 matrix every
    product of two entries is +-1, so every partial sum is an integer of size
    at most d+; every entry of M^2 - 2^(g-1) M - 2^(2g-1) I formed after it
    has size at most d+ + 2^(g-1) + 2^(2g-1) (1,056 at g = 5).  All of these
    are integers below 2^24, which float32 holds exactly, so no BLAS
    blocking, summation order or fused multiply-add can round them.  The
    bound needs +-1 entries, so the square counts only when they are.
    """
    _check_genus(g)
    m = build_m(g)
    e = m.entries
    k, c = 2 ** (g - 1), 2 ** (2 * g - 1)
    entries_pm1 = bool(np.all(np.abs(e) == 1))
    f = e.astype(np.float32)
    sq = f @ f
    f *= k
    sq -= f
    sq.flat[:: m.dim + 1] -= c
    square_ok = entries_pm1 and not sq.any()
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
