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

from dataclasses import dataclass

import numpy as np

from theta4.char2 import (
    Characteristic,
    d_plus,
    even_characteristics,
    even_points,
    isometry_to_even_points,
    parity,
    translate,
)
from theta4.mmatrix import build_m
from theta4.theta_eval import (
    PeriodMatrix,
    TruncationPolicy,
    check_seed,
    sample_cell_points,
    theta_nulls,
    theta_table,
    two_torsion_point,
)

DEFAULT_NULL_THRESHOLD = 1e-8
WARN_NULL_THRESHOLD = 1e-4
MU_GUARD = 1e-9


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


class NearZeroThetaError(ArithmeticError):
    """A mu denominator is numerically zero; which factor is reported."""

    def __init__(self, kind: str, characteristic: Characteristic, point: Characteristic):
        self.kind = kind
        self.characteristic = characteristic
        self.point = point
        if kind == "vanishing-null":
            msg = f"theta[{characteristic}](0) is numerically zero (vanishing theta-null)"
        else:
            msg = (
                f"theta[{characteristic}] is numerically zero at the two-torsion point "
                f"{point} (unlucky point or degenerate input)"
            )
        super().__init__(msg)


@dataclass(frozen=True)
class NumericalRankPolicy:
    """Relative singular-value cutoff used as the numerical rank surrogate."""

    rel_sv_threshold: float = 1e-7

    def __post_init__(self) -> None:
        if not 0.0 < self.rel_sv_threshold < 1.0:
            raise ValueError(f"rel_sv_threshold must be in (0, 1), got {self.rel_sv_threshold}")


DEFAULT_RANK_POLICY = NumericalRankPolicy()


def numerical_rank(matrix, rank_policy: NumericalRankPolicy | None = None) -> int:
    """Count singular values above rel_sv_threshold times the largest."""
    rank_policy = rank_policy or DEFAULT_RANK_POLICY
    s = np.linalg.svd(np.asarray(matrix, dtype=complex), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rank_policy.rel_sv_threshold * s[0]))


def check_kappa0(kappa0: Characteristic, g: int) -> None:
    """Reject an odd kappa0 or one whose genus is not g."""
    if parity(kappa0) != 1:
        raise ValueError(f"kappa0 must be even, got odd {kappa0}")
    if kappa0.g != g:
        raise ValueError(f"genus mismatch: kappa0 {kappa0.g}, tau {g}")


def evaluation_matrix(
    tau: PeriodMatrix, kappa0: Characteristic, policy: TruncationPolicy | None = None
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
    policy: TruncationPolicy | None = None,
) -> complex:
    """Normalization-free cross ratio of section values at a two-torsion point.

    mu = [theta[kappa](0) theta[kappa'](2 z_a)] /
         [theta[kappa](2 z_a) theta[kappa'](0)];
    every choice of scaling for sections and evaluation maps cancels, and the
    value equals kappa_value(kappa, a) * kappa_value(kappa', a) up to
    numerical error.
    """
    if parity(kappa) != 1 or parity(kappa_prime) != 1:
        raise ValueError("mu is defined for even characteristics")
    z2 = 2.0 * two_torsion_point(a, tau)
    table = theta_table([kappa, kappa_prime], [np.zeros(tau.g), z2], tau, policy)
    (null_k, val_k), (null_kp, val_kp) = table.tolist()
    scale = max(abs(null_k), abs(null_kp), abs(val_k), abs(val_kp), 1e-300)
    if abs(null_kp) < MU_GUARD * scale:
        raise NearZeroThetaError("vanishing-null", kappa_prime, a)
    if abs(val_k) < MU_GUARD * scale:
        if abs(null_k) < MU_GUARD * scale:
            raise NearZeroThetaError("vanishing-null", kappa, a)
        raise NearZeroThetaError("point-value", kappa, a)
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
    deviation = float(np.max(np.abs(aligned - build_m(g).entries)))
    return aligned, deviation


def normalized_evaluation_matrix(
    tau: PeriodMatrix,
    kappa0: Characteristic | None = None,
    policy: TruncationPolicy | None = None,
    null_threshold: float = DEFAULT_NULL_THRESHOLD,
) -> tuple[np.ndarray, float]:
    """Evaluation matrix scaled and reindexed to expose the sign matrix.

    Column a is divided by the kappa0 row entry, each row by its value in the
    zero column; rows are relabelled by the translation difference b (the row
    for kappa = b . kappa0 moves to the slot of b) and, for nonzero kappa0,
    rows and columns are carried back to even pairs through the
    pairing-preserving alignment of even_points(kappa0).  Returns the matrix
    and its maximum entrywise deviation from the sign matrix.

    Raises VanishingNullError when a null vanishes at the given relative
    threshold: the normalization is then meaningless.
    """
    kappa0 = kappa0 if kappa0 is not None else Characteristic.zero(tau.g)
    vanishing = vanishing_nulls(tau, policy, null_threshold)
    if vanishing:
        raise VanishingNullError(vanishing)
    ev = evaluation_matrix(tau, kappa0, policy)
    return _normalize_and_align(ev, kappa0, tau.g)


def check_null_threshold(null_threshold: float) -> None:
    """Reject a relative null threshold outside (0, 1)."""
    if not 0.0 < null_threshold < 1.0:
        raise ValueError(f"null_threshold must be in (0, 1), got {null_threshold}")


def split_nulls(
    nulls: dict[Characteristic, complex], null_threshold: float
) -> tuple[float, tuple[Characteristic, ...], tuple[Characteristic, ...]]:
    """Largest null modulus top, the nulls below null_threshold * top
    (vanishing) and those from there up to WARN_NULL_THRESHOLD * top (near)."""
    check_null_threshold(null_threshold)
    top = max(abs(v) for v in nulls.values())
    vanishing = tuple(c for c, v in nulls.items() if abs(v) < null_threshold * top)
    near = tuple(
        c
        for c, v in nulls.items()
        if null_threshold * top <= abs(v) < WARN_NULL_THRESHOLD * top
    )
    return top, vanishing, near


def vanishing_nulls(
    tau: PeriodMatrix,
    policy: TruncationPolicy | None = None,
    null_threshold: float = DEFAULT_NULL_THRESHOLD,
) -> list[Characteristic]:
    """Even characteristics whose nulls are below threshold times the largest."""
    return list(split_nulls(theta_nulls(tau, policy), null_threshold)[1])


def sample_count(g: int, n_samples: int | None) -> int:
    """Number of fourth-power samples at genus g: 2 d+ when n_samples is None,
    else n_samples, which must be at least 2 d+."""
    d = d_plus(g)
    n = 2 * d if n_samples is None else n_samples
    if n < 2 * d:
        raise ValueError(f"need at least 2 d+ = {2 * d} samples, got {n}")
    return n


def fourth_power_rank(
    tau: PeriodMatrix,
    policy: TruncationPolicy | None = None,
    rank_policy: NumericalRankPolicy | None = None,
    n_samples: int | None = None,
    seed: int = 0,
) -> int:
    """Numerical rank of sampled even fourth powers theta[a](z)^4.

    Uses n_samples >= 2 d+ seeded points in the cell [0,1) + [0,1) tau; the
    sample matrix rows are scaled to unit maximum modulus before the SVD,
    which leaves the rank unchanged and keeps the relative cutoff meaningful
    across wildly different sample magnitudes.
    """
    g = tau.g
    n = sample_count(g, n_samples)
    pts = sample_cell_points(tau, n, seed)
    if len(np.unique(pts, axis=0)) != n:
        raise ValueError("degenerate sampling: coincident sample points")
    v = theta_table(even_characteristics(g), pts, tau, policy).T ** 4
    v = v / np.max(np.abs(v), axis=1, keepdims=True)
    return numerical_rank(v, rank_policy)


@dataclass(frozen=True)
class BasisReport:
    """Aggregated verdicts and evidence for one period matrix.

    point_basis_verdict is full rank of the evaluation matrix (the even
    two-torsion points are a projective basis); fourth_power_basis_verdict is
    full rank of the sampled fourth powers.  Both are expected to be true
    exactly when no theta-null vanishes, and the fourth-power rank defect is
    expected to equal the vanishing-null count; `consistent` records whether
    this held.  Near-vanishing nulls (between null_threshold and
    warn_threshold, relative) set status "warn": the verdicts are then
    ill-conditioned and should not be trusted either way.
    """

    tau: PeriodMatrix
    kappa0: Characteristic
    g: int
    dim: int
    null_threshold: float
    warn_threshold: float
    vanishing: tuple[Characteristic, ...]
    near_vanishing: tuple[Characteristic, ...]
    ev_matrix_rank: int
    fourth_power_rank: int
    m_deviation: float | None
    point_basis_verdict: bool
    fourth_power_basis_verdict: bool
    consistent: bool
    status: str
    rel_sv_threshold: float
    target_eps: float
    seed: int
    n_samples: int

    def to_json(self) -> dict:
        return {
            "tau": self.tau.to_json(),
            "kappa0": self.kappa0.to_json(),
            "g": self.g,
            "dim": self.dim,
            "null_threshold": self.null_threshold,
            "warn_threshold": self.warn_threshold,
            "vanishing_nulls": [c.to_json() for c in self.vanishing],
            "near_vanishing_nulls": [c.to_json() for c in self.near_vanishing],
            "ev_matrix_rank": self.ev_matrix_rank,
            "fourth_power_rank": self.fourth_power_rank,
            "m_deviation": self.m_deviation,
            "point_basis_verdict": self.point_basis_verdict,
            "fourth_power_basis_verdict": self.fourth_power_basis_verdict,
            "consistent": self.consistent,
            "status": self.status,
            "rel_sv_threshold": self.rel_sv_threshold,
            "target_eps": self.target_eps,
            "seed": self.seed,
            "n_samples": self.n_samples,
        }


def basis_report(
    tau: PeriodMatrix,
    kappa0: Characteristic | None = None,
    policy: TruncationPolicy | None = None,
    rank_policy: NumericalRankPolicy | None = None,
    null_threshold: float = DEFAULT_NULL_THRESHOLD,
    seed: int = 0,
    n_samples: int | None = None,
) -> BasisReport:
    """Run the full analysis for one period matrix and one even kappa0;
    every argument is checked before the first lattice sum."""
    policy = policy or TruncationPolicy()
    rank_policy = rank_policy or NumericalRankPolicy()
    g = tau.g
    d = d_plus(g)
    kappa0 = kappa0 if kappa0 is not None else Characteristic.zero(g)
    check_kappa0(kappa0, g)
    check_null_threshold(null_threshold)
    n = sample_count(g, n_samples)
    check_seed(seed)

    _, vanishing, near = split_nulls(theta_nulls(tau, policy), null_threshold)

    ev = evaluation_matrix(tau, kappa0, policy)
    ev_scaled = ev / np.max(np.abs(ev), axis=0, keepdims=True)
    ev_rank = numerical_rank(ev_scaled, rank_policy)

    fp_rank = fourth_power_rank(tau, policy, rank_policy, n, seed)

    m_dev = None
    if not vanishing:
        _, m_dev = _normalize_and_align(ev, kappa0, g)

    point_verdict = ev_rank == d
    fourth_verdict = fp_rank == d
    no_vanishing = not vanishing
    consistent = (
        point_verdict == no_vanishing
        and fourth_verdict == no_vanishing
        and d - fp_rank == len(vanishing)
    )
    return BasisReport(
        tau=tau,
        kappa0=kappa0,
        g=g,
        dim=d,
        null_threshold=null_threshold,
        warn_threshold=WARN_NULL_THRESHOLD,
        vanishing=vanishing,
        near_vanishing=near,
        ev_matrix_rank=ev_rank,
        fourth_power_rank=fp_rank,
        m_deviation=m_dev,
        point_basis_verdict=point_verdict,
        fourth_power_basis_verdict=fourth_verdict,
        consistent=consistent,
        status="warn" if near else "ok",
        rel_sv_threshold=rank_policy.rel_sv_threshold,
        target_eps=policy.target_eps,
        seed=seed,
        n_samples=n,
    )
