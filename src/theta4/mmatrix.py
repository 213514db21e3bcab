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
verify_sign_matrix forms M^2 in float32 from the int8 table, exactly; its
docstring shows why.

The row-sum law is checked literally: row_sum loops over the even pairs with
one weil_pairing call each, read from this module once per row when it runs,
so the check counts 4^g d+ pairings at genus g.  A loop, not map: on CPython
3.11 a call from a Python loop to a Python function runs as an inlined
frame, but map calls back from C and builds a frame per call.  The 1024 row
sums at g = 5 took 43.6 ms through map and 38.6 ms through the loop (timeit
minimum, 2-core host, Python 3.11.7; 24.2 and 20.3 ms with a pairing that
does nothing, the floor of one call per pair).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from theta4.char2 import (
    _SIGN,
    Characteristic,
    check_genus,
    check_genus_match,
    d_plus,
    enumerate_characteristics,
    even_characteristics,
    parity,
    weil_pairing,
)

MAX_GENUS = 5
_BLOCK_ROWS = 64  # rows of a sign table built, checked or squared at once
_SIGN_BYTES = np.array(_SIGN, dtype=np.int8)  # char2's sign table, one byte per sign


def pairing_signs(rows: Sequence[Characteristic], cols: Sequence[Characteristic]) -> np.ndarray:
    """Int8 matrix of pairing signs (-1)^(a1.b2 + a2.b1), rows x cols.

    The char2 rule: the sign table read at index(a) & swapped(b) for row a,
    column b.  The ANDs are uint16: every index is below 4^6, char2's genus
    cap.  The int8 table is allocated once and filled _BLOCK_ROWS rows at a
    time, so every other array built beside it is the size of one block.
    """
    genera = sorted({c.g for c in (*rows, *cols)})
    if not genera:
        raise ValueError("pairing_signs needs at least one characteristic")
    check_genus_match("characteristic", genera[0], "characteristic", genera[-1])
    r = np.array([c.index for c in rows], dtype=np.uint16)
    s = np.array([c._swapped for c in cols], dtype=np.uint16)
    table = np.empty((len(r), len(s)), dtype=np.int8)
    for i in range(0, len(r), _BLOCK_ROWS):
        np.take(_SIGN_BYTES, r[i : i + _BLOCK_ROWS, None] & s, out=table[i : i + _BLOCK_ROWS])
    return table


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


def row_sum(g: int, a: Characteristic) -> int:
    """Sum of pairing signs of a against all even pairs, computed literally.

    A loop of weil_pairing calls, one per even pair, through the module
    global read once per row_sum call (the module docstring says why not
    map).  The closed form (d+ for a = 0, else parity(a) * 2^(g-1)) is in
    row_sum_closed_form; keeping the literal sum separate is what makes the
    comparison a real check.
    """
    check_genus(g, MAX_GENUS)
    check_genus_match("characteristic", a.g, "matrix", g)
    pair = weil_pairing
    total = 0
    for b in _evens(g):
        total += pair(a, b)
    return total


def row_sum_closed_form(g: int, a: Characteristic) -> int:
    """Closed form of the even-pair row sum."""
    check_genus(g, MAX_GENUS)
    check_genus_match("characteristic", a.g, "matrix", g)
    if a.is_zero:
        return d_plus(g)
    return parity(a) * 2 ** (g - 1)


def _square_identity_holds(e: np.ndarray, g: int, blocks: list[slice]) -> bool:
    """Whether every block pair of e^2 - 2^(g-1) e - 2^(2g-1) I is zero,
    each formed in float32 from row block I and column block J of e."""
    k, c = 2 ** (g - 1), 2 ** (2 * g - 1)
    for bi in blocks:
        rows = e[bi].astype(np.float32)
        for bj in blocks:
            sq = rows @ e[:, bj].astype(np.float32)
            sq -= k * rows[:, bj]
            if bi == bj:
                diag = np.arange(len(sq))
                sq[diag, diag] -= c
            if sq.any():
                return False
    return True


def verify_sign_matrix(g: int) -> dict[str, bool]:
    """Exact verification of the structural identities of the sign matrix.

    Checks, all on integer values (M^2 in float32, exact as shown below):
      * entries are +-1, the diagonal is +1, and M is symmetric;
      * M^2 = 2^(g-1) M + 2^(2g-1) I;
      * M (M - 2^(g-1) I) = 2^(2g-1) I, the same square read off once;
      * the literal row sum over even pairs matches its closed form for
        every one of the 4^g characteristics.

    All but the row sums read the int8 table of pairing_signs one block of
    _BLOCK_ROWS rows at a time; symmetry compares row block I with column
    block I transposed.  M^2 is formed one block pair at a time, as the
    float32 product of row block I and column block J of the table, each
    converted as it is used, so no float32 copy of M exists; the right
    operand is M's own columns, so the square does not assume the symmetry
    it checks.  Each block of M^2 - 2^(g-1) M - 2^(2g-1) I must be zero, and
    each is exact.  For a +-1 matrix every product of two entries is +-1, so
    every partial sum is an integer of size at most d+; every entry formed
    after it has size at most d+ + 2^(g-1) + 2^(2g-1) (1,056 at g = 5).  All
    of these are integers below 2^24, which float32 holds exactly, so no
    BLAS blocking, summation order or fused multiply-add can round them.
    The bound needs +-1 entries, so the square counts only when they are.
    """
    check_genus(g, MAX_GENUS)
    evens = _evens(g)
    e = pairing_signs(evens, evens)
    blocks = [slice(i, i + _BLOCK_ROWS) for i in range(0, len(e), _BLOCK_ROWS)]
    entries_pm1 = diagonal_plus1 = symmetric = True
    for b in blocks:
        entries_pm1 &= bool(np.all(np.abs(e[b]) == 1))
        diagonal_plus1 &= bool(np.all(np.diagonal(e[b, b]) == 1))
        symmetric &= np.array_equal(e[b], e[:, b].T)
    checks = {"entries_pm1": entries_pm1, "diagonal_plus1": diagonal_plus1, "symmetric": symmetric}
    square_ok = entries_pm1 and _square_identity_holds(e, g, blocks)
    checks["quadratic_identity"] = checks["inverse_identity"] = square_ok
    checks["row_sum_closed_form"] = all(
        row_sum(g, a) == row_sum_closed_form(g, a) for a in enumerate_characteristics(g)
    )
    return checks
