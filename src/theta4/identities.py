"""Residual checks for the quartic addition relation and its inversion.

Two families of identities over a genus-g period matrix tau:

* quartic:    theta[c](z)^4 = 2^-g * sum over all pairs b of
              <c, b> theta[b](0)^3 theta[b](2z),
              valid for every characteristic c (odd pairs contribute only
              numerically-zero terms through their vanishing nulls);
* inversion:  2^g theta[c](0)^3 theta[c](2z) =
              -2^g theta[c](z)^4
              + 2 * sum over even pairs a of <a, c> theta[a](z)^4,
              valid for every even c.

Both are checked numerically; residuals are reported in absolute value and
relative to max(|lhs|, |rhs|, 1e-30) so that zeros of theta cannot blow up
the quotient.

A sweep checks every characteristic (every even one, for the inversion) at
the points its caller gives it; a single check is a one-point sweep.  It
forms its terms once as a (points x 4^g) array by canonical index (the
inversion's fourth powers zero on the odd pairs), and each point's signed
sums are one fast Walsh-Hadamard transform of its row (_signed_sums), with
no sign table.  Every step treats each point on its own, so a point's
records do not depend on the other points of the sweep.  Theta powers and
products are taken on Python scalars: numpy's complex product gives the same
bits at any batch size, but differs from Python's in the last bit for about
44% of products, so the scalars keep the records bit for bit those of the
reports written so far.  A sweep has one tau and one policy (None reads as
theta_eval's DEFAULT_POLICY in theta_table), so its records carry neither.
Each record is the JSON dict that verify-quartic and verify-inversion write,
built once; summarize() holds the one pass rule that the CLI gates on, at the
pinned residual cut-off IDENTITY_EPS.
"""

from __future__ import annotations

import numpy as np

from theta4.char2 import Characteristic, enumerate_characteristics, even_characteristics
from theta4.jsonio import complex_json
from theta4.theta_eval import PeriodMatrix, TruncationPolicy, theta_table

RESIDUAL_FLOOR = 1e-30
IDENTITY_EPS = 1e-8


def summarize(records: list[dict]) -> tuple[float, bool, int]:
    """(largest rel_residual, whether every record passes, how many pass only at term scale).

    A record passes when its residual is small relative to the sides
    (rel_residual < IDENTITY_EPS) or in absolute value at the scale of the
    largest term entering the identity (abs_residual < IDENTITY_EPS * scale).
    When both sides vanish together (a vanishing null makes the whole
    relation read 0 = 0) the relative residual compares rounding noise
    against rounding noise and only the second clause is meaningful.  An
    empty list gives (0.0, True, 0).
    """
    worst = max((r["rel_residual"] for r in records), default=0.0)
    ok, at_scale = True, 0
    for r in records:
        if not r["rel_residual"] < IDENTITY_EPS:
            if r["abs_residual"] < IDENTITY_EPS * r["scale"]:
                at_scale += 1
            else:
                ok = False
    return worst, ok, at_scale


def _magnitude(x: np.ndarray) -> np.ndarray:
    # hypot is what abs() of a Python complex computes; np.abs rounds
    # differently in the last bit for a good share of values
    return np.hypot(x.real, x.imag)


def _signed_sums(terms: np.ndarray, rows: list[Characteristic]) -> np.ndarray:
    """(points x rows) sums of <c, b> terms[p, b] over the 4^g pairs b, in canonical order.

    <c, b> = (-1)^popcount(index(c) & swapped(b)) is the Sylvester Hadamard
    matrix with its columns permuted, so each point's sums are one fast
    Walsh-Hadamard transform (Fino and Algazi, 1976) of its terms moved to
    their swapped indices, read at index(c): 2g passes of adds and subtracts,
    within 2g u sum|terms| of the exact sums.  Each point is transformed
    elementwise on its own, so its sums do not depend on the other points."""
    g = rows[0].g
    # x[:, swapped(b)] = terms[:, b]: swapping the halves is an involution
    x = terms[:, [b._swapped for b in enumerate_characteristics(g)]]
    for k in range(2 * g):
        low, high = np.moveaxis(x.reshape(len(x), -1, 2, 2**k), 2, 0)
        low[...], high[...] = low + high, low - high
    return x[:, [c.index for c in rows]]


def _records(
    kind: str, chars: list[Characteristic], points: np.ndarray,
    lhs: np.ndarray, rhs: np.ndarray, term_scale: np.ndarray,
) -> list[dict]:
    """One record per (point, char) from (points x chars) sides and largest-term moduli.

    A record is the dict the verify commands write, with keys kind, char, z,
    lhs, rhs, abs_residual, rel_residual and scale.  Records share objects:
    the char dict of a characteristic is one object for all its records, and
    the z list of a point one object for all records at that point."""
    top = np.maximum(_magnitude(lhs), _magnitude(rhs))
    abs_res = _magnitude(lhs - rhs)
    rel_res = abs_res / np.maximum(top, RESIDUAL_FLOOR)
    scale = np.maximum(term_scale, top)
    char_json = [c.to_json() for c in chars]
    out = []
    per_point = zip(lhs.tolist(), rhs.tolist(), abs_res.tolist(), rel_res.tolist(), scale.tolist())
    for z, row in zip(points, per_point):
        z_json = [complex_json(v) for v in np.atleast_1d(z).tolist()]
        for c, left, right, a, rel, s in zip(char_json, *row):
            out.append({
                "kind": kind, "char": c, "z": z_json, "lhs": complex_json(left),
                "rhs": complex_json(right), "abs_residual": a, "rel_residual": rel, "scale": s,
            })
    return out


def _as_points(points) -> np.ndarray:
    """points as a complex array, one point per row; ValueError if there is none."""
    points = np.asarray(points, dtype=complex)
    if len(points) == 0:
        raise ValueError("an identity sweep needs at least one point")
    return points


def quartic_residuals(tau: PeriodMatrix, points, policy: TruncationPolicy | None = None) -> list[dict]:
    """Quartic records for all 4^g characteristics at each point; all points share the nulls.

    The odd-pair terms are evaluated rather than skipped; their nulls vanish,
    so keeping them doubles as an odd-null check at no extra cost at desk
    scale.
    """
    g = tau.g
    chars = enumerate_characteristics(g)
    points = _as_points(points)
    cubes = [n**3 for n in theta_table(chars, [np.zeros(g)], tau, policy)[:, 0].tolist()]
    lhs = np.array([[v**4 for v in row] for row in theta_table(chars, points, tau, policy).T.tolist()])
    doubled = theta_table(chars, 2.0 * points, tau, policy).T.tolist()
    terms = np.array([[n3 * v for n3, v in zip(cubes, row)] for row in doubled]) / 2**g
    term_scale = _magnitude(terms).max(axis=1, keepdims=True)
    return _records("quartic", chars, points, lhs, _signed_sums(terms, chars), term_scale)


def inversion_residuals(tau: PeriodMatrix, points, policy: TruncationPolicy | None = None) -> list[dict]:
    """Inversion records for every even pair at each point; the sums run over all even pairs."""
    g = tau.g
    evens = even_characteristics(g)
    points = _as_points(points)
    nulls = theta_table(evens, [np.zeros(g)], tau, policy)[:, 0].tolist()
    fourths = np.zeros((len(points), 4**g), dtype=complex)  # by canonical index, 0 on odd pairs
    values = theta_table(evens, points, tau, policy).T.tolist()
    fourths[:, [a.index for a in evens]] = [[v**4 for v in row] for row in values]
    doubled = theta_table(evens, 2.0 * points, tau, policy).T.tolist()
    lhs = np.array([[2**g * n**3 * v for n, v in zip(nulls, row)] for row in doubled])
    own = -(2**g) * fourths[:, [c.index for c in evens]]
    rhs = own + _signed_sums(2 * fourths, evens)
    term_scale = np.maximum(_magnitude(own), 2 * _magnitude(fourths).max(axis=1, keepdims=True))
    return _records("inversion", evens, points, lhs, rhs, term_scale)
