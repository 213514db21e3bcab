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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from theta4.char2 import (
    Characteristic,
    enumerate_characteristics,
    even_characteristics,
    parity,
    weil_pairing,
)
from theta4.jsonio import complex_json
from theta4.mmatrix import RationalMatrix, affine_table
from theta4.theta_eval import (
    PeriodMatrix,
    TruncationPolicy,
    sample_cell_points,
    theta_with_char,
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


def _residual(
    kind: str,
    c: Characteristic,
    z,
    tau: PeriodMatrix,
    policy: TruncationPolicy,
    lhs: complex,
    rhs: complex,
    scale: float,
) -> IdentityResidual:
    abs_res = abs(lhs - rhs)
    rel_res = abs_res / max(abs(lhs), abs(rhs), RESIDUAL_FLOOR)
    zt = tuple(complex(v) for v in np.atleast_1d(np.asarray(z, dtype=complex)))
    return IdentityResidual(
        kind=kind,
        char=c,
        z=zt,
        lhs=complex(lhs),
        rhs=complex(rhs),
        abs_residual=abs_res,
        rel_residual=rel_res,
        scale=max(scale, abs(lhs), abs(rhs)),
        tau=tau,
        policy=policy,
    )


def _quartic_rhs(
    c: Characteristic,
    nulls: dict[Characteristic, complex],
    at_2z: dict[Characteristic, complex],
    g: int,
) -> tuple[complex, float]:
    total = 0.0 + 0.0j
    scale = 0.0
    for b, null in nulls.items():
        term = null**3 * at_2z[b] / 2**g
        scale = max(scale, abs(term))
        total += weil_pairing(c, b) * term
    return total, scale


def _quartic_records(
    tau: PeriodMatrix, points, chars: list[Characteristic], policy: TruncationPolicy
) -> list[IdentityResidual]:
    """Quartic records for chars at each point; the nulls are shared by all points."""
    g = tau.g
    all_chars = enumerate_characteristics(g)
    nulls = {b: theta_with_char(b, np.zeros(g), tau, policy) for b in all_chars}
    out = []
    for z in np.asarray(points, dtype=complex):
        at_z = {c: theta_with_char(c, z, tau, policy) for c in chars}
        at_2z = {b: theta_with_char(b, 2.0 * z, tau, policy) for b in all_chars}
        for c in chars:
            rhs, scale = _quartic_rhs(c, nulls, at_2z, g)
            out.append(_residual("quartic", c, z, tau, policy, at_z[c] ** 4, rhs, scale))
    return out


def riemann_quartic_check(
    c: Characteristic, z, tau: PeriodMatrix, policy: TruncationPolicy | None = None
) -> IdentityResidual:
    """Check theta[c](z)^4 against the signed sum over all 4^g pairs.

    The odd-pair terms are evaluated rather than skipped; their nulls vanish,
    so keeping them doubles as an odd-null check at no extra cost at desk
    scale.
    """
    return _quartic_records(tau, [z], [c], policy or TruncationPolicy())[0]


def _inversion_sides(
    c: Characteristic,
    at_z_fourth: dict[Characteristic, complex],
    nulls: dict[Characteristic, complex],
    at_2z: dict[Characteristic, complex],
    g: int,
) -> tuple[complex, complex, float]:
    lhs = 2**g * nulls[c] ** 3 * at_2z[c]
    rhs = -(2**g) * at_z_fourth[c]
    scale = abs(rhs)
    for a, fourth in at_z_fourth.items():
        term = 2 * fourth
        scale = max(scale, abs(term))
        rhs += weil_pairing(a, c) * term
    return lhs, rhs, scale


def _inversion_records(
    tau: PeriodMatrix, points, chars: list[Characteristic], policy: TruncationPolicy
) -> list[IdentityResidual]:
    """Inversion records for the even chars at each point; the sums run over all even pairs."""
    g = tau.g
    evens = even_characteristics(g)
    nulls = {c: theta_with_char(c, np.zeros(g), tau, policy) for c in chars}
    out = []
    for z in np.asarray(points, dtype=complex):
        at_z_fourth = {a: theta_with_char(a, z, tau, policy) ** 4 for a in evens}
        at_2z = {c: theta_with_char(c, 2.0 * z, tau, policy) for c in chars}
        for c in chars:
            lhs, rhs, scale = _inversion_sides(c, at_z_fourth, nulls, at_2z, g)
            out.append(_residual("inversion", c, z, tau, policy, lhs, rhs, scale))
    return out


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
