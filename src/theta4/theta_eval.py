"""Numerical theta functions with characteristics on the Siegel upper half-space.

The series for a genus-g characteristic (a1, a2) at the point z is

    sum over m in Z^g of exp(pi i [ (m + a1/2)' tau (m + a1/2)
                                    + 2 (m + a1/2)' (z + a2/2) ])

with the bits of a1, a2 lifted to the integers 0/1.  The sum is truncated to
an integer box recentred where the summand's modulus peaks, with the radius
chosen so that a rigorous Gaussian tail bound falls below the policy's
target.  Everything runs in double-precision complex; the advertised
accuracy is absolute, of the order of the policy target.

The top half a1 and the point z fix the box, the radius and the tail bound;
the bottom half a2 only flips the sign of the term for m by (-1)^(m.a2) and
multiplies the sum by exp(pi i a1.a2 / 2).  One lattice sum per (a1, z)
therefore serves all 2^g second halves.  theta_series memoizes these groups
on the PeriodMatrix, keyed by policy, radius override, a1 and z, for the
life of that object, so the nulls and the values at z and 2z are computed
once per tau however many stages read them.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from theta4.char2 import Characteristic, even_characteristics

SYMMETRY_TOL = 1e-12
MIN_IM_EIGENVALUE = 1e-6

DEFAULT_TARGET_EPS = 1e-11
MAX_ALLOWED_RADIUS = 64

# largest argument math.exp takes without overflowing
_MAX_EXP_ARG = math.log(sys.float_info.max)


class TruncationError(RuntimeError):
    """Raised when the radius cap is reached before the tail bound is met."""

    def __init__(self, required_radius: int, max_radius: int):
        self.required_radius = required_radius
        self.max_radius = max_radius
        super().__init__(
            f"lattice-sum radius {required_radius} needed to meet the tail target, "
            f"cap is {max_radius}"
        )


@dataclass(frozen=True)
class TruncationPolicy:
    """Absolute tail target and radius cap for the truncated series."""

    target_eps: float = DEFAULT_TARGET_EPS
    max_radius: int = MAX_ALLOWED_RADIUS

    def __post_init__(self) -> None:
        if not self.target_eps >= 1e-14:
            raise ValueError(f"target_eps must be >= 1e-14, got {self.target_eps}")
        if not 1 <= self.max_radius <= MAX_ALLOWED_RADIUS:
            raise ValueError(f"max_radius must be in 1..{MAX_ALLOWED_RADIUS}, got {self.max_radius}")


DEFAULT_POLICY = TruncationPolicy()


class PeriodMatrix:
    """Symmetric complex g x g matrix with positive-definite imaginary part.

    Matrices with the smallest imaginary eigenvalue below 1e-6 are rejected
    outright: that close to the boundary the summation radius explodes and
    double precision has nothing useful to say.
    """

    def __init__(self, tau):
        arr = np.array(tau, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise ValueError(f"tau must be a square matrix, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("tau has non-finite entries")
        if np.max(np.abs(arr - arr.T)) > SYMMETRY_TOL:
            raise ValueError(f"tau must be symmetric to within {SYMMETRY_TOL} componentwise")
        arr = (arr + arr.T) / 2.0
        lam = float(np.linalg.eigvalsh(arr.imag).min())
        if lam <= 0.0:
            raise ValueError("imaginary part of tau must be positive definite")
        if lam < MIN_IM_EIGENVALUE:
            raise ValueError(
                f"imaginary part is nearly degenerate (lambda_min = {lam:.3e} < "
                f"{MIN_IM_EIGENVALUE}); refusing to evaluate"
            )
        arr.setflags(write=False)
        self._tau = arr
        self._lambda_min = lam
        # (policy, radius_override, a1, z bytes) -> theta_series group, see _theta_group
        self._theta_memo: dict = {}

    @property
    def tau(self) -> np.ndarray:
        return self._tau

    @property
    def g(self) -> int:
        return self._tau.shape[0]

    @property
    def lambda_min(self) -> float:
        """Smallest eigenvalue of Im tau."""
        return self._lambda_min

    def __repr__(self) -> str:
        return f"PeriodMatrix(g={self.g}, lambda_min={self._lambda_min:.6g})"

    def to_json(self) -> dict:
        return {
            "g": self.g,
            "re": [[float(x) for x in row] for row in self._tau.real],
            "im": [[float(x) for x in row] for row in self._tau.imag],
        }

    @classmethod
    def from_json(cls, obj: object) -> "PeriodMatrix":
        if not isinstance(obj, dict) or "re" not in obj or "im" not in obj:
            raise ValueError('period matrix JSON needs "re" and "im" keys')
        re = np.array(obj["re"], dtype=float)
        im = np.array(obj["im"], dtype=float)
        if re.shape != im.shape:
            raise ValueError("re and im blocks must have the same shape")
        if "g" in obj and re.shape != (int(obj["g"]), int(obj["g"])):
            raise ValueError(f'matrix shape {re.shape} does not match "g": {obj["g"]}')
        return cls(re + 1j * im)


@dataclass(frozen=True)
class ThetaValue:
    """Truncated series value with the radius used and its tail bound."""

    value: complex
    tail_bound: float
    radius: int


def _as_point(z, g: int) -> np.ndarray:
    pt = np.atleast_1d(np.asarray(z, dtype=complex))
    if pt.shape != (g,):
        raise ValueError(f"point must have {g} components, got shape {pt.shape}")
    if not np.all(np.isfinite(pt)):
        raise ValueError("point has non-finite components")
    return pt


def _tail_bound(g: int, lam: float, amp: float, r0: float, radius: float) -> float:
    # union of 2g half-space Gaussian tails; full-line factor 2 + 1/sqrt(lam)
    t = radius - r0
    if t <= 0.0:
        return math.inf
    line = 2.0 + 1.0 / math.sqrt(lam)
    decay = math.exp(-math.pi * lam * t * t) / -math.expm1(-2.0 * math.pi * lam * t)
    return amp * 2.0 * g * line ** (g - 1) * decay


def _theta_group(
    a1: tuple[int, ...],
    z: np.ndarray,
    tau: PeriodMatrix,
    policy: TruncationPolicy,
    radius_override: int | None,
) -> tuple[np.ndarray, int, float]:
    """One lattice sum for the top half a1 at z, resolved into all 2^g second halves.

    Returns (values, radius, tail_bound); values[k] belongs to the a2 whose
    bits, most significant first, spell k.  With alpha = a1/2 and the summed
    n = m + alpha, theta[a1, a2](z) = e^{pi i alpha.a2} sum over parity
    classes p of (-1)^{p.a2} S_p, where S_p sums the a2-free terms
    exp(pi i [n' tau n + 2 n' z]) over the m with m = p mod 2.
    """
    g = tau.g
    alpha = np.array(a1, dtype=float) / 2.0
    y = z.imag
    w = np.linalg.solve(tau.tau.imag, y)
    lam = tau.lambda_min
    exponent = math.pi * float(y @ w)
    if exponent > _MAX_EXP_ARG:
        raise ValueError(
            f"theta scale exp(pi y'Y^-1 y) at z = {z.tolist()} overflows double precision "
            f"(exponent {exponent:.4g} > {_MAX_EXP_ARG:.4g})"
        )
    amp = math.exp(exponent)
    r0 = float(np.max(np.abs(w))) + 1.0

    if radius_override is not None:
        radius = radius_override
    else:
        radius = None
        for r in range(int(math.floor(r0)) + 1, policy.max_radius + 1):
            if _tail_bound(g, lam, amp, r0, r) <= policy.target_eps:
                radius = r
                break
        if radius is None:
            required = policy.max_radius + 1
            while _tail_bound(g, lam, amp, r0, required) > policy.target_eps and required < 10**6:
                required += 1
            raise TruncationError(required_radius=required, max_radius=policy.max_radius)

    center = -alpha - w
    axes = [np.arange(math.ceil(center[j] - radius), math.floor(center[j] + radius) + 1) for j in range(g)]
    m = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, g)
    n = m + alpha
    terms = np.exp(1j * np.pi * (((n @ tau.tau) * n).sum(1) + 2.0 * (n @ z)))
    parity_class = (m & 1) @ (1 << np.arange(g - 1, -1, -1))
    sums = np.bincount(parity_class, terms.real, 2**g) + 1j * np.bincount(
        parity_class, terms.imag, 2**g
    )
    bits = np.array(list(itertools.product((0, 1), repeat=g)))
    signs = 1 - 2 * ((bits @ bits.T) & 1)
    values = np.exp(1j * np.pi * (bits @ alpha)) * (signs @ sums)
    return values, radius, _tail_bound(g, lam, amp, r0, radius)


def theta_series(
    c: Characteristic,
    z,
    tau: PeriodMatrix,
    policy: TruncationPolicy | None = None,
    radius_override: int | None = None,
) -> ThetaValue:
    """Evaluate the theta series, reporting the radius and tail bound used.

    The integer box is recentred at the modulus peak of the summand, i.e. at
    -(a1/2 + Y^{-1} Im z) with Y = Im tau.  The returned tail_bound is an
    upper bound for the discarded mass; radius_override forces a radius
    (within the cap) instead of searching for the smallest sufficient one.

    The first call for a (policy, radius_override, a1, z) evaluates the
    whole group of 2^g second halves a2 and memoizes it on tau; later calls
    for any a2 of that group are lookups.
    """
    policy = policy or DEFAULT_POLICY
    g = tau.g
    if c.g != g:
        raise ValueError(f"genus mismatch: characteristic {c.g}, tau {g}")
    z = _as_point(z, g) + 0.0
    if radius_override is not None and not 1 <= radius_override <= policy.max_radius:
        raise ValueError(f"radius_override must be in 1..{policy.max_radius}")

    key = (policy, radius_override, c.a1, z.tobytes())
    group = tau._theta_memo.get(key)
    if group is None:
        group = tau._theta_memo[key] = _theta_group(c.a1, z, tau, policy, radius_override)
    values, radius, tail_bound = group
    value = complex(values[c.index & (2**g - 1)])
    return ThetaValue(value=value, tail_bound=tail_bound, radius=radius)


def theta_with_char(
    c: Characteristic, z, tau: PeriodMatrix, policy: TruncationPolicy | None = None
) -> complex:
    """Value of the theta function with characteristic c at z."""
    return theta_series(c, z, tau, policy).value


def theta_nulls(
    tau: PeriodMatrix, policy: TruncationPolicy | None = None
) -> dict[Characteristic, complex]:
    """Values at z = 0 for all even characteristics, in canonical order."""
    zero = np.zeros(tau.g, dtype=complex)
    return {c: theta_series(c, zero, tau, policy).value for c in even_characteristics(tau.g)}


def two_torsion_point(a: Characteristic, tau: PeriodMatrix) -> np.ndarray:
    """Half-period attached to the characteristic label a.

    The integer half comes from a2 and the tau half from a1:
    z_a = (a2 + tau a1) / 2 with bits lifted to 0/1.  Under this orientation
    the sign a theta function picks up across twice this point is exactly the
    quadratic-form data of the label, which is what the evaluation-matrix
    normalization and the mu quotient rely on.
    """
    if a.g != tau.g:
        raise ValueError(f"genus mismatch: characteristic {a.g}, tau {tau.g}")
    p = np.array(a.a2, dtype=float)
    q = np.array(a.a1, dtype=float)
    return (p + tau.tau @ q) / 2.0


def random_tau(g: int, seed: int, floor: float = 1.0) -> PeriodMatrix:
    """Seeded sample from the Siegel upper half-space.

    tau = S + i (B B' + floor I) with the entries of S (symmetric) and B
    drawn uniformly from [-1/2, 1/2].  The smallest eigenvalue of the
    imaginary part is at least floor; identical seeds give bit-identical
    matrices.
    """
    if g < 1:
        raise ValueError(f"genus must be >= 1, got {g}")
    if not floor > 0.0:
        raise ValueError(f"floor must be positive, got {floor}")
    rng = np.random.default_rng(seed)
    s = np.zeros((g, g))
    iu = np.triu_indices(g)
    s[iu] = rng.uniform(-0.5, 0.5, size=len(iu[0]))
    s = np.triu(s) + np.triu(s, 1).T
    b = rng.uniform(-0.5, 0.5, size=(g, g))
    return PeriodMatrix(s + 1j * (b @ b.T + floor * np.eye(g)))


def block_diagonal_tau(blocks) -> PeriodMatrix:
    """Assemble a block-diagonal period matrix.

    Blocks may be PeriodMatrix instances, square complex arrays, or bare
    complex numbers (genus-1 blocks).
    """
    mats = []
    for blk in blocks:
        if isinstance(blk, PeriodMatrix):
            mats.append(blk.tau)
        else:
            arr = np.atleast_2d(np.asarray(blk, dtype=complex))
            mats.append(arr)
    g = sum(m.shape[0] for m in mats)
    out = np.zeros((g, g), dtype=complex)
    pos = 0
    for m in mats:
        k = m.shape[0]
        out[pos : pos + k, pos : pos + k] = m
        pos += k
    return PeriodMatrix(out)


def sample_cell_points(tau: PeriodMatrix, n: int, seed: int) -> np.ndarray:
    """n seeded points u + tau v with u, v uniform in [0, 1)^g, as an (n, g) array."""
    if n < 1:
        raise ValueError(f"need at least one sample, got {n}")
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, 1.0, size=(n, tau.g))
    v = rng.uniform(0.0, 1.0, size=(n, tau.g))
    return u + v @ tau.tau
