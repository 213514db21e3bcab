"""The sign matrix over even pairs, exactly.

M is the d+ x d+ matrix of pairing signs (-1)^(a1.b2 + a2.b1) with rows and
columns running over the even pairs in canonical order
(even_characteristics(g)).  pairing_signs builds the same signs between any
two lists of characteristics as an int8 table, one byte per sign; M and
verify_sign_matrix read them from there, and the tests check the identity
sweeps' Walsh-Hadamard sums against them.  build_m returns M as int64, one
cast of that table, so that integer products such as m @ m cannot overflow.

Every exact fact about M follows from one integer identity,
M^2 = 2^(g-1) M + 2^(2g-1) I: it makes M invertible with
M^-1 = (M - 2^(g-1) I) / 2^(2g-1), and the inverse identity
M (M - 2^(g-1) I) = 2^(2g-1) I is the same integer square read off once.
M^2 is formed in float32 one block of rows at a time, which is exact here
because every value a block and the identity checks form is an integer below
2^24 (see verify_sign_matrix).

The row-sum law is checked literally: row_sum makes one weil_pairing call per
even pair, read from this module when it runs, so the check counts 4^g d+
pairings at genus g.  Each call is one genus comparison and one read of the
char2 sign table.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from typing import Sequence

import numpy as np

from theta4.char2 import (
    Characteristic,
    check_genus,
    d_plus,
    enumerate_characteristics,
    even_characteristics,
    parity,
    weil_pairing,
)

MAX_GENUS = 5
_SQUARE_ROWS = 64  # rows of M^2 formed at once by verify_sign_matrix


def pairing_signs(rows: Sequence[Characteristic], cols: Sequence[Characteristic]) -> np.ndarray:
    """Int8 matrix of pairing signs (-1)^(a1.b2 + a2.b1), rows x cols.

    The char2 rule: (-1)^popcount(index(a) & swapped(b)) for row a, column b.
    The ANDs are uint16: every index is below 4^6, char2's genus cap.  The
    table is built in int8 with no wider intermediate: Python-int fill values
    would make np.where return int64.
    """
    genera = {c.g for c in (*rows, *cols)}
    if len(genera) != 1:
        raise ValueError(f"characteristics must share exactly one genus, got genera {sorted(genera)}")
    r = np.array([c._index for c in rows], dtype=np.uint16)
    s = np.array([c._swapped for c in cols], dtype=np.uint16)
    return np.where(np.bitwise_count(r[:, None] & s) & 1, np.int8(-1), np.int8(1))


def build_m(g: int) -> np.ndarray:
    """The d+ x d+ int64 sign matrix for genus g in even_characteristics(g) order.

    One cast of the int8 pairing_signs(evens, evens): int64, so that integer
    products such as m @ m do not overflow."""
    check_genus(g, MAX_GENUS)
    evens = even_characteristics(g)
    return pairing_signs(evens, evens).astype(np.int64)


@lru_cache(maxsize=None)
def _evens(g: int) -> tuple[Characteristic, ...]:
    return tuple(even_characteristics(g))


def _check_row(g: int, a: Characteristic) -> None:
    """Reject a genus out of range or a characteristic of another genus."""
    check_genus(g, MAX_GENUS)
    if a.g != g:
        raise ValueError(f"genus mismatch: matrix genus {g}, characteristic genus {a.g}")


def row_sum(g: int, a: Characteristic) -> int:
    """Sum of pairing signs of a against all even pairs, computed literally.

    One weil_pairing call per even pair, looked up in this module when
    row_sum runs.  The closed form (d+ for a = 0, else parity(a) * 2^(g-1))
    is in row_sum_closed_form; keeping the literal sum separate is what makes
    the comparison a real check.
    """
    _check_row(g, a)
    evens = _evens(g)
    return sum(map(weil_pairing, repeat(a, len(evens)), evens))


def row_sum_closed_form(g: int, a: Characteristic) -> int:
    """Closed form of the even-pair row sum."""
    _check_row(g, a)
    if a.is_zero:
        return d_plus(g)
    return parity(a) * 2 ** (g - 1)


def verify_sign_matrix(g: int) -> dict[str, bool]:
    """Exact verification of the structural identities of the sign matrix.

    Checks, all on integer values (M^2 in float32, exact as shown below):
      * entries are +-1, the diagonal is +1, and M is symmetric;
      * M^2 = 2^(g-1) M + 2^(2g-1) I;
      * M (M - 2^(g-1) I) = 2^(2g-1) I, i.e. (M - 2^(g-1) I) / 2^(2g-1)
        inverts M; the left side is the same integer matrix M^2 - 2^(g-1) M,
        so inverse_identity is the same square read off once;
      * the literal row sum over even pairs matches its closed form for
        every one of the 4^g characteristics.

    The entry, diagonal and symmetry checks read the int8 table of
    pairing_signs.  It is converted to float32 once, and M^2 is formed one
    block of _SQUARE_ROWS rows at a time: each block's rows of
    M^2 - 2^(g-1) M - 2^(2g-1) I must be zero.  Each block is exact.  For a
    +-1 matrix every product of two entries is +-1, so every partial sum is
    an integer of size at most d+; every entry formed after it has size at
    most d+ + 2^(g-1) + 2^(2g-1) (1,056 at g = 5).  All of these are integers
    below 2^24, which float32 holds exactly, so no BLAS blocking, summation
    order or fused multiply-add can round them.  The bound needs +-1 entries,
    so the square counts only when they are.
    """
    check_genus(g, MAX_GENUS)
    evens = _evens(g)
    e = pairing_signs(evens, evens)
    k, c = 2 ** (g - 1), 2 ** (2 * g - 1)
    entries_pm1 = bool(np.all(np.abs(e) == 1))
    checks = {
        "entries_pm1": entries_pm1,
        "diagonal_plus1": bool(np.all(np.diagonal(e) == 1)),
        "symmetric": bool(np.array_equal(e, e.T)),
    }
    f = e.astype(np.float32)
    square_ok = entries_pm1
    for i in range(0, len(f), _SQUARE_ROWS):
        if not square_ok:
            break
        block = f[i : i + _SQUARE_ROWS]
        sq = block @ f
        sq -= k * block
        rows = np.arange(len(block))
        sq[rows, rows + i] -= c
        square_ok = not sq.any()
    checks["quadratic_identity"] = checks["inverse_identity"] = square_ok
    checks["row_sum_closed_form"] = all(
        row_sum(g, a) == row_sum_closed_form(g, a) for a in enumerate_characteristics(g)
    )
    return checks
