"""Rank and basis analysis of theta functions at two-torsion points.

Two numerical realizations of the same projective-basis question:

* the evaluation matrix of the d+ even theta functions z -> theta[k](2z) at
  the d+ two-torsion points attached to even_points(kappa0); full rank means
  those points are a projective basis, and after the canonical normalization
  the matrix reproduces the even-pair sign matrix entry for entry;
* the sampled span of the d+ fourth powers theta[a](z)^4; its rank defect
  equals the number of vanishing theta-nulls.

Both collapse exactly when a theta-null vanishes, which is what the verdict
logic reports.
"""

from __future__ import annotations

import numpy as np

from theta4.char2 import (
    Characteristic,
    check_genus,
    check_genus_match,
    d_plus,
    even_characteristics,
    even_points,
    isometry_to_even_points,
    parity,
    translate,
)
from theta4.mmatrix import MAX_GENUS, pairing_signs
from theta4.theta_eval import (
    DEFAULT_POLICY,
    PeriodMatrix,
    TruncationPolicy,
    check_integer,
    sample_cell_points,
    theta_nulls,
    theta_table,
    two_torsion_point,
)

# the verdict cut-offs, relative to the largest even null or singular value;
# no caller moves them
NULL_THRESHOLD = 1e-8
WARN_NULL_THRESHOLD = 1e-4
SV_THRESHOLD = 1e-7


class VanishingNullError(ValueError):
    """Normalization rejected: a vanishing theta-null makes it divide by ~0."""

    def __init__(self, nulls: list[Characteristic]):
        self.nulls = list(nulls)
        labels = ", ".join(str(c) for c in self.nulls)
        super().__init__(
            "vanishing theta-null detected "
            f"({labels}); the evaluation matrix is rank-deficient and the "
            "sign normalization would divide by a zero section value"
        )


def numerical_rank(matrix) -> int:
    """Count singular values above SV_THRESHOLD times the largest; the
    module constant is read at call time, the one place the cut-off lives."""
    s = np.linalg.svd(np.asarray(matrix, dtype=complex), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > SV_THRESHOLD * s[0]))


def check_kappa0(kappa0: Characteristic | None, g: int) -> Characteristic:
    """The checked kappa0 of a genus-g tau: kappa0=None means the zero characteristic, a
    default this function alone decides, and an odd kappa0 or a genus not g raises ValueError."""
    if kappa0 is None:
        return Characteristic.zero(g)
    if parity(kappa0) != 1:
        raise ValueError(f"kappa0 must be even, got odd {kappa0}")
    check_genus_match("kappa0", kappa0.g, "tau", g)
    return kappa0


def evaluation_matrix(
    tau: PeriodMatrix, kappa0: Characteristic, policy: TruncationPolicy = DEFAULT_POLICY
) -> np.ndarray:
    """Values theta[k](2 z_a) for even k (rows) and a in even_points(kappa0).

    Rows follow the canonical even-characteristic order, columns the
    canonical order of even_points(kappa0); the first column is the vector
    of theta-nulls since z_0 = 0.
    """
    check_kappa0(kappa0, tau.g)
    evens = even_characteristics(tau.g)
    points = [2.0 * two_torsion_point(a, tau) for a in even_points(kappa0)]
    return theta_table(evens, points, tau, policy)


def mu(
    a: Characteristic,
    kappa: Characteristic,
    kappa_prime: Characteristic,
    tau: PeriodMatrix,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> complex:
    """Normalization-free cross ratio of section values at a two-torsion point.

    mu = [theta[kappa](0) theta[kappa'](2 z_a)] /
         [theta[kappa](2 z_a) theta[kappa'](0)];
    every choice of scaling for sections and evaluation maps cancels, and the
    value equals kappa_value(kappa, a) * kappa_value(kappa', a) up to
    numerical error.

    Raises VanishingNullError when the null of kappa or kappa' vanishes by
    the rule of vanishing_nulls.  No other denominator can be zero:
    2 z_a = a2 + tau a1 is a lattice period, so
    quasi-periodicity gives |theta[kappa](2 z_a)| = exp(pi a1' Y a1)
    |theta[kappa](0)| >= |theta[kappa](0)| with Y = Im tau.
    """
    if parity(kappa) != 1 or parity(kappa_prime) != 1:
        raise ValueError("mu is defined for even characteristics")
    z2 = 2.0 * two_torsion_point(a, tau)
    table = theta_table([kappa, kappa_prime], [np.zeros(tau.g), z2], tau, policy)
    # the table filled every null at z = 0, so this reads the memo
    vanishing = [c for c in vanishing_nulls(tau, policy) if c in (kappa, kappa_prime)]
    if vanishing:
        raise VanishingNullError(vanishing)
    (null_k, val_k), (null_kp, val_kp) = table.tolist()
    return (null_k * val_kp) / (val_k * null_kp)


def _normalize_and_align(
    ev: np.ndarray, kappa0: Characteristic, g: int
) -> tuple[np.ndarray, float]:
    evens = even_characteristics(g)
    pts = even_points(kappa0)
    row_pos = {c: i for i, c in enumerate(evens)}
    col_pos = {a: j for j, a in enumerate(pts)}
    scaled = ev / ev[row_pos[kappa0], :]
    scaled = scaled / scaled[:, :1]
    rows = [row_pos[translate(isometry_to_even_points(kappa0, b), kappa0)] for b in evens]
    cols = [col_pos[isometry_to_even_points(kappa0, a)] for a in evens]
    aligned = scaled[np.ix_(rows, cols)]
    deviation = float(np.max(np.abs(aligned - pairing_signs(evens, evens))))
    return aligned, deviation


def normalized_evaluation_matrix(
    tau: PeriodMatrix,
    kappa0: Characteristic | None = None,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> tuple[np.ndarray, float]:
    """Evaluation matrix scaled and reindexed to expose the sign matrix.

    Column a is divided by the kappa0 row entry, each row by its value in the
    zero column; rows are relabelled by the translation difference b (the row
    for kappa = b . kappa0 moves to the slot of b) and, for nonzero kappa0,
    rows and columns are carried back to even pairs through the
    pairing-preserving alignment of even_points(kappa0).  Returns the matrix
    and its maximum entrywise deviation from the sign matrix.

    Raises VanishingNullError when a null vanishes (vanishing_nulls): the
    normalization is then meaningless.  The genus cap MAX_GENUS of the sign
    matrix and kappa0 (check_kappa0) are checked before the first lattice sum.
    """
    check_genus(tau.g, MAX_GENUS)
    kappa0 = check_kappa0(kappa0, tau.g)
    vanishing = vanishing_nulls(tau, policy)
    if vanishing:
        raise VanishingNullError(vanishing)
    ev = evaluation_matrix(tau, kappa0, policy)
    return _normalize_and_align(ev, kappa0, tau.g)


def split_nulls(
    nulls: dict[Characteristic, complex],
) -> tuple[float, tuple[Characteristic, ...], tuple[Characteristic, ...]]:
    """Largest null modulus top, the nulls below NULL_THRESHOLD * top
    (vanishing) and those from there up to WARN_NULL_THRESHOLD * top (near)."""
    top = max(abs(v) for v in nulls.values())
    vanishing = tuple(c for c, v in nulls.items() if abs(v) < NULL_THRESHOLD * top)
    near = tuple(
        c
        for c, v in nulls.items()
        if NULL_THRESHOLD * top <= abs(v) < WARN_NULL_THRESHOLD * top
    )
    return top, vanishing, near


def vanishing_nulls(tau: PeriodMatrix, policy: TruncationPolicy = DEFAULT_POLICY) -> list[Characteristic]:
    """Even characteristics whose nulls are below NULL_THRESHOLD times the largest."""
    return list(split_nulls(theta_nulls(tau, policy))[1])


def fourth_power_rank(
    tau: PeriodMatrix,
    policy: TruncationPolicy = DEFAULT_POLICY,
    seed: int = 0,
) -> int:
    """Numerical rank of sampled even fourth powers theta[a](z)^4.

    Uses 2 d+ seeded points in the cell [0,1) + [0,1) tau; the sample matrix
    rows are scaled to unit maximum modulus before the SVD, which leaves the
    rank unchanged and keeps the relative cutoff meaningful across wildly
    different sample magnitudes; the rank is numerical_rank's, at
    SV_THRESHOLD.  Raises ValueError when a fourth power overflows double
    precision, as it does for a large enough Im tau.
    """
    g = tau.g
    n = 2 * d_plus(g)
    pts = sample_cell_points(tau, n, seed)
    if len({tuple(p.tolist()) for p in pts}) != n:
        raise ValueError("degenerate sampling: coincident sample points")
    with np.errstate(over="ignore", invalid="ignore"):
        v = theta_table(even_characteristics(g), pts, tau, policy).T ** 4
    if not np.isfinite(v).all():
        raise ValueError("a sampled fourth power theta[a](z)^4 overflows double precision")
    v = v / np.max(np.abs(v), axis=1, keepdims=True)
    return numerical_rank(v)


def basis_report(
    tau: PeriodMatrix,
    kappa0: Characteristic | None = None,
    policy: TruncationPolicy = DEFAULT_POLICY,
    seed: int = 0,
) -> dict:
    """Run the full analysis for one period matrix and one even kappa0 and
    return the verdicts and their evidence as canonical-JSON data; every
    argument, the genus cap MAX_GENUS of the sign matrix included, is checked
    before the first lattice sum.

    point_basis_verdict is full rank of the evaluation matrix (the even
    two-torsion points are a projective basis); fourth_power_basis_verdict is
    full rank of the sampled fourth powers.  The theorem says both are true
    exactly when no theta-null vanishes.  `consistent` checks the point
    verdict against that and the corank law, that the fourth-power rank
    defect equals the vanishing-null count; the law already makes the
    fourth-power verdict agree, since fp_rank == dim exactly when the count
    is 0.  The ranks are numerical_rank's, at SV_THRESHOLD.  Near-vanishing
    nulls (between NULL_THRESHOLD and WARN_NULL_THRESHOLD, relative) set
    status "warn": the verdicts are then ill-conditioned and should not be
    trusted either way.  m_deviation, the normalized matrix's distance from
    the sign matrix, is None when a null vanishes.
    """
    g = tau.g
    check_genus(g, MAX_GENUS)
    d = d_plus(g)
    kappa0 = check_kappa0(kappa0, g)
    check_integer("seed", seed, 0)

    _, vanishing, near = split_nulls(theta_nulls(tau, policy))

    ev = evaluation_matrix(tau, kappa0, policy)
    ev_scaled = ev / np.max(np.abs(ev), axis=0, keepdims=True)
    ev_rank = numerical_rank(ev_scaled)

    fp_rank = fourth_power_rank(tau, policy, seed=seed)

    m_dev = None
    if not vanishing:
        _, m_dev = _normalize_and_align(ev, kappa0, g)

    point_verdict = ev_rank == d
    return {
        "tau": tau.to_json(),
        "kappa0": kappa0.to_json(),
        "g": g,
        "dim": d,
        "null_threshold": NULL_THRESHOLD,
        "warn_threshold": WARN_NULL_THRESHOLD,
        "vanishing_nulls": [c.to_json() for c in vanishing],
        "near_vanishing_nulls": [c.to_json() for c in near],
        "ev_matrix_rank": ev_rank,
        "fourth_power_rank": fp_rank,
        "m_deviation": m_dev,
        "point_basis_verdict": point_verdict,
        "fourth_power_basis_verdict": fp_rank == d,
        "consistent": point_verdict == (not vanishing) and d - fp_rank == len(vanishing),
        "status": "warn" if near else "ok",
        "rel_sv_threshold": SV_THRESHOLD,
        "target_eps": policy.target_eps,
        "seed": seed,
        "n_samples": 2 * d,
    }
