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

A sweep forms its terms once as a (points x pairs) array and its signed
sums as row reductions against mmatrix.pairing_signs (the signs of M), all
points in one broadcast; theta powers and products are taken on Python
scalars, so a single check's record is bit for bit its record in a sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from theta4.char2 import (
    Characteristic,
    enumerate_characteristics,
    even_characteristics,
    parity,
)
from theta4.jsonio import complex_json
from theta4.mmatrix import RationalMatrix, affine_table, pairing_signs
from theta4.theta_eval import (
    PeriodMatrix,
    TruncationPolicy,
    sample_cell_points,
    theta_table,
)

RESIDUAL_FLOOR = 1e-30

MAX_GENUS_COEFFICIENTS = 4


@dataclass(frozen=True)
class IdentityResidual:
    """One identity evaluation: both sides plus residuals and the inputs.

    scale is the magnitude of the largest term entering the identity.  When
    both sides vanish together (a vanishing null makes the whole relation
    read 0 = 0) the relative residual compares rounding noise against
    rounding noise and is meaningless; passes() therefore accepts a record
    when the residual is small relative to the sides or small in absolute
    value at the term scale.
    """

    kind: str
    char: Characteristic
    z: tuple[complex, ...]
    lhs: complex
    rhs: complex
    abs_residual: float
    rel_residual: float
    scale: float
    tau: PeriodMatrix
    policy: TruncationPolicy

    def passes(self, eps: float) -> bool:
        return self.rel_residual < eps or self.abs_residual < eps * self.scale

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "char": self.char.to_json(),
            "z": [complex_json(v) for v in self.z],
            "lhs": complex_json(self.lhs),
            "rhs": complex_json(self.rhs),
            "abs_residual": self.abs_residual,
            "rel_residual": self.rel_residual,
            "scale": self.scale,
            "tau": self.tau.to_json(),
            "policy": {"target_eps": self.policy.target_eps, "max_radius": self.policy.max_radius},
        }


def check_identity_eps(eps: float, name: str) -> None:
    """Reject a residual gate for passes() that is not a finite number > 0."""
    if not 0.0 < eps < np.inf:
        raise ValueError(f"{name} must be > 0 and finite, got {eps!r}")


def _magnitude(x: np.ndarray) -> np.ndarray:
    # hypot is what abs() of a Python complex computes; np.abs rounds
    # differently in the last bit for a good share of values
    return np.hypot(x.real, x.imag)


def _signed_sums(terms: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """(points x rows) sums of signs[i, j] * terms[p, j] over j, in one broadcast.

    No BLAS: its rounding depends on the product's shape.  Each output here
    is one pairwise sum over a contiguous row of the (points, rows, pairs)
    products, so a single check gives its sweep record bit for bit."""
    return (terms[:, None, :] * signs.astype(complex)).sum(-1)


def _records(
    kind: str, chars: list[Characteristic], points: np.ndarray, tau: PeriodMatrix,
    policy: TruncationPolicy, lhs: np.ndarray, rhs: np.ndarray, term_scale: np.ndarray,
) -> list[IdentityResidual]:
    """One record per (point, char) from (points x chars) sides and largest-term moduli."""
    top = np.maximum(_magnitude(lhs), _magnitude(rhs))
    abs_res = _magnitude(lhs - rhs)
    rel_res = abs_res / np.maximum(top, RESIDUAL_FLOOR)
    scale = np.maximum(term_scale, top)
    out = []
    per_point = zip(lhs.tolist(), rhs.tolist(), abs_res.tolist(), rel_res.tolist(), scale.tolist())
    for z, row in zip(points, per_point):
        zt = tuple(np.atleast_1d(z).tolist())
        for c, fields in zip(chars, zip(*row)):
            out.append(IdentityResidual(kind, c, zt, *fields, tau, policy))
    return out


def _quartic_records(
    tau: PeriodMatrix, points, chars: list[Characteristic], policy: TruncationPolicy
) -> list[IdentityResidual]:
    """Quartic records for chars at each point; the nulls are shared by all points."""
    g = tau.g
    all_chars = enumerate_characteristics(g)
    points = np.asarray(points, dtype=complex)
    cubes = [n**3 for n in theta_table(all_chars, [np.zeros(g)], tau, policy)[:, 0].tolist()]
    lhs = np.array([[v**4 for v in row] for row in theta_table(chars, points, tau, policy).T.tolist()])
    doubled = theta_table(all_chars, 2.0 * points, tau, policy).T.tolist()
    terms = np.array([[n3 * v for n3, v in zip(cubes, row)] for row in doubled]) / 2**g
    rhs = _signed_sums(terms, pairing_signs(chars, all_chars))
    term_scale = _magnitude(terms).max(axis=1, keepdims=True)
    return _records("quartic", chars, points, tau, policy, lhs, rhs, term_scale)


def riemann_quartic_check(
    c: Characteristic, z, tau: PeriodMatrix, policy: TruncationPolicy | None = None
) -> IdentityResidual:
    """Check theta[c](z)^4 against the signed sum over all 4^g pairs.

    The odd-pair terms are evaluated rather than skipped; their nulls vanish,
    so keeping them doubles as an odd-null check at no extra cost at desk
    scale.
    """
    return _quartic_records(tau, [z], [c], policy or TruncationPolicy())[0]


def _inversion_records(
    tau: PeriodMatrix, points, chars: list[Characteristic], policy: TruncationPolicy
) -> list[IdentityResidual]:
    """Inversion records for the even chars at each point; the sums run over all even pairs."""
    g = tau.g
    evens = even_characteristics(g)
    points = np.asarray(points, dtype=complex)
    nulls = theta_table(chars, [np.zeros(g)], tau, policy)[:, 0].tolist()
    fourths = np.array([[v**4 for v in row] for row in theta_table(evens, points, tau, policy).T.tolist()])
    doubled = theta_table(chars, 2.0 * points, tau, policy).T.tolist()
    lhs = np.array([[2**g * n**3 * v for n, v in zip(nulls, row)] for row in doubled])
    own = -(2**g) * fourths[:, [evens.index(c) for c in chars]]
    rhs = own + _signed_sums(2 * fourths, pairing_signs(chars, evens))
    term_scale = np.maximum(_magnitude(own), 2 * _magnitude(fourths).max(axis=1, keepdims=True))
    return _records("inversion", chars, points, tau, policy, lhs, rhs, term_scale)


def inversion_check(
    c: Characteristic, z, tau: PeriodMatrix, policy: TruncationPolicy | None = None
) -> IdentityResidual:
    """Check the even-pair inversion of the quartic relation at one even c."""
    if parity(c) != 1:
        raise ValueError(f"inversion is stated for even pairs only, got odd {c}")
    return _inversion_records(tau, [z], [c], policy or TruncationPolicy())[0]


def quartic_residuals(
    tau: PeriodMatrix,
    n_samples: int,
    seed: int,
    policy: TruncationPolicy | None = None,
    chars: list[Characteristic] | None = None,
) -> list[IdentityResidual]:
    """Quartic residuals for seeded cell samples, sharing theta evaluations.

    For each sample all characteristics are checked by default; the nulls are
    computed once per tau and the values at z and 2z once per sample.
    """
    chars = enumerate_characteristics(tau.g) if chars is None else chars
    points = sample_cell_points(tau, n_samples, seed)
    return _quartic_records(tau, points, chars, policy or TruncationPolicy())


def inversion_residuals(
    tau: PeriodMatrix,
    n_samples: int,
    seed: int,
    policy: TruncationPolicy | None = None,
) -> list[IdentityResidual]:
    """Inversion residuals for all even pairs at seeded cell samples."""
    points = sample_cell_points(tau, n_samples, seed)
    return _inversion_records(tau, points, even_characteristics(tau.g), policy or TruncationPolicy())


def derive_inversion_coefficients(g: int) -> RationalMatrix:
    """Exact coefficient table of the inversion over even pairs.

    Row c expresses theta[c](0)^3 theta[c](2z) as a rational combination of
    the even fourth powers theta[a](z)^4: the matrix (2 M - 2^g I) / 2^g with
    rows and columns in canonical even-pair order.
    """
    if not isinstance(g, int) or not 1 <= g <= MAX_GENUS_COEFFICIENTS:
        raise ValueError(f"genus must be an integer in 1..{MAX_GENUS_COEFFICIENTS}, got {g!r}")
    return affine_table(g, 2, -(2**g), 2**g)
