"""Numerical theta functions with characteristics on the Siegel upper half-space.

The series for a genus-g characteristic (a1, a2) at the point z is

    sum over m in Z^g of exp(pi i [ (m + a1/2)' tau (m + a1/2)
                                    + 2 (m + a1/2)' (z + a2/2) ])

with the bits of a1, a2 lifted to the integers 0/1.  The sum is truncated to
an integer box recentred where the summand's modulus peaks, at
c = -(a1/2 + Y^-1 Im z) with Y = Im tau, with the radius chosen so that a
rigorous Gaussian tail bound, counted from c itself (see _tail_bound), falls
below the policy's target.  Everything runs in double-precision complex; the
advertised accuracy is absolute, of the order of the policy target.

The top half a1 and the point z fix the box; the bottom half a2 only flips
the sign of the term for m by (-1)^(m.a2) and multiplies the sum by
exp(pi i a1.a2 / 2); the radius and the tail bound depend on z alone.  So
_theta_groups sums a point as 2^g rows, one per top half: over the offsets k
from a row's integer shift, the phase splits into exp(pi i k' tau k), one
table for every row, one factor per axis and row (the linear phase and the
top half's cross term) and one constant per row, and BLAS contractions of
the table with the axis factors give each row's 2^g values, all 4^g per
point.  Each row keeps its own box; a row whose axis factors could leave the
double range is summed term by term instead.

The memo on the PeriodMatrix holds one entry per (policy, bytes of z) for
the life of that object: z's 4^g values by canonical index, its radius and
its tail bound.  So the nulls and the values at z and 2z are summed once per
tau, whatever the stages read.  _fill, its one fill path, truncates each
point not memoized yet once and sums them all in one _theta_groups batch.
The quadratic-phase table is kept there too, built at the largest radius T
asked so far ((2T+1)^g entries): a smaller radius reads its centred slice,
which holds the same values bit for bit; a larger one builds it anew.

Every memo key is the bytes of a validated point: finite, of shape (g,),
complex, and with no -0.0.  So theta_series, given a complex (g,) array,
looks up its raw bytes before validating: a hit is exactly the hit the
validated point would give, and a point that validation would change or
reject (a -0.0, a NaN, another shape or dtype) can never hit.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from theta4.char2 import Characteristic, even_characteristics

SYMMETRY_TOL = 1e-12
MIN_IM_EIGENVALUE = 1e-6

DEFAULT_TARGET_EPS = 1e-11
MAX_ALLOWED_RADIUS = 64

# largest argument math.exp takes without overflowing
_MAX_EXP_ARG = math.log(sys.float_info.max)
# rows per chunk: as many as keep the first contraction (2 per row times K^(g-1) complex
# entries) within _CHUNK_ENTRIES, to bound peak memory, but at least _CHUNK_ROWS
_CHUNK_ENTRIES = 2**13
_CHUNK_ROWS = 16
_COMPLEX = np.dtype(complex)


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
        if not 1e-14 <= self.target_eps < math.inf:
            raise ValueError(f"target_eps must be finite and >= 1e-14, got {self.target_eps}")
        if not 1 <= self.max_radius <= MAX_ALLOWED_RADIUS:
            raise ValueError(f"max_radius must be in 1..{MAX_ALLOWED_RADIUS}, got {self.max_radius}")
        # the memo key: hashed in C, where the generated __hash__ is a Python call per read
        object.__setattr__(self, "_key", (self.target_eps, self.max_radius))


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
        # (policy._key, z bytes) -> (4^g values by canonical index, radius, tail_bound), by _fill
        self._theta_memo: dict = {}
        # (top, quadratic-phase table over [-top, top]^g) once built, see _quad_table
        self._quad_table: tuple[int, np.ndarray] | None = None

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
        for name in ("re", "im"):
            block = obj[name]
            if not isinstance(block, list) or not all(isinstance(row, list) for row in block):
                raise ValueError(f"{name} block must be an array of arrays of numbers, got {block!r}")
            for x in itertools.chain.from_iterable(block):
                # a JSON string or true/false is not a number, though numpy would parse it as one
                if isinstance(x, bool) or not isinstance(x, (int, float)):
                    raise ValueError(f"{name} entries must be numbers, got {x!r}")
        try:
            re = np.array(obj["re"], dtype=float)
            im = np.array(obj["im"], dtype=float)
        except ValueError as exc:
            raise ValueError(f"re and im blocks must be arrays of numbers: {exc}") from None
        if re.shape != im.shape:
            raise ValueError("re and im blocks must have the same shape")
        g = obj.get("g")
        if "g" in obj and (isinstance(g, bool) or not isinstance(g, int) or re.shape != (g, g)):
            raise ValueError(f'"g" must be the integer size of the {re.shape} matrix, got {g!r}')
        return cls(re + 1j * im)


class ThetaValue(NamedTuple):
    """Truncated series value with the radius used and its tail bound.

    A named tuple because theta_series builds one per read: it is immutable
    and takes well under half the time of a frozen dataclass to build.
    """

    value: complex
    tail_bound: float
    radius: int


def _as_point(z, g: int) -> np.ndarray:
    """z as a fresh complex (g,) array, with -0.0 turned into 0.0 (one memo key)."""
    pt = np.array(z, dtype=complex, ndmin=1)
    if pt.shape != (g,):
        raise ValueError(f"point must have {g} components, got shape {pt.shape}")
    if not np.isfinite(pt).all():
        raise ValueError("point has non-finite components")
    pt += 0.0
    return pt


def _tail_bound(g: int, lam: float, amp: float, radius: int) -> float:
    """Bound on the mass the box ceil(c - r) .. floor(c + r) leaves out, r >= 1.

    With n = m + a1/2, y = Im z, Y = Im tau, w = Y^-1 y and the box centre
    c = -(a1/2 + w), completing the square gives

        |term(m)| = amp * exp(-pi (m - c)' Y (m - c)) <= amp * exp(-pi lam |m - c|^2),
        amp = exp(pi y' Y^-1 y),

    with lam the smallest eigenvalue of Y.  An integer m outside the box has
    |m_j - c_j| > r on some axis j, so the left-out terms lie in the union of
    the 2g half-spaces m_j - c_j < -r and m_j - c_j > r.  In one of them the
    Gaussian splits over the axes.  On axis j the distances exceed r and are
    1 apart, so they are at least r, r + 1, ..., and since (r + k)^2 >= r^2 +
    2rk that axis sums to at most exp(-pi lam r^2) / (1 - exp(-2 pi lam r)).
    Every other axis sums over a whole line of unit-spaced points: at most
    the peak 1 plus the integral 1/sqrt(lam), and the bound keeps the looser
    line factor 2 + 1/sqrt(lam).  Adding the 2g half-spaces gives

        amp * 2g * (2 + 1/sqrt(lam))^(g-1) * exp(-pi lam r^2) / (1 - exp(-2 pi lam r)).
    """
    line = 2.0 + 1.0 / math.sqrt(lam)
    decay = math.exp(-math.pi * lam * radius * radius) / -math.expm1(-2.0 * math.pi * lam * radius)
    return amp * 2.0 * g * line ** (g - 1) * decay


def _radius(g: int, lam: float, amp: float, policy: TruncationPolicy) -> int:
    """Smallest radius whose tail bound meets the policy target."""
    r = 1
    while _tail_bound(g, lam, amp, r) > policy.target_eps and r < 10**6:
        r += 1
    if r > policy.max_radius:
        raise TruncationError(required_radius=r, max_radius=policy.max_radius)
    return r


def _truncation(
    points: np.ndarray, tau: PeriodMatrix, policy: TruncationPolicy
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The per-point part of the truncation for the (P, g) batch: w = Y^-1 Im z,
    the radius and the tail bound of each point.

    None of it depends on the characteristic, so _fill runs it once per point
    for all the characteristics it sums.  Solved one point per stacked matrix, each
    w and exponent is bit for bit the point's own solve and dot product,
    whatever the batch.
    """
    g = tau.g
    lam = tau.lambda_min
    y = points.imag
    w = np.linalg.solve(np.broadcast_to(tau.tau.imag, (len(points), g, g)), y[:, :, None])[:, :, 0]
    exponents = math.pi * (y[:, None, :] @ w[:, :, None]).ravel()
    radii, tails = [], []
    for z, exponent in zip(points, exponents.tolist()):
        if exponent > _MAX_EXP_ARG:
            raise ValueError(
                f"theta scale exp(pi y'Y^-1 y) at z = {z.tolist()} overflows double precision "
                f"(exponent {exponent:.4g} > {_MAX_EXP_ARG:.4g})"
            )
        amp = math.exp(exponent)
        r = _radius(g, lam, amp, policy)
        radii.append(r)
        tails.append(_tail_bound(g, lam, amp, r))
    return w, np.array(radii), np.array(tails)


def _quad_table(top: int, tau: PeriodMatrix) -> tuple[int, np.ndarray]:
    """(T, Q) with Q[k] = exp(pi i k' tau k) over the offsets k in [-T, T]^g,
    for some T >= top.

    The table does not depend on the characteristic, so tau keeps one, built
    at the largest top asked so far.  Each entry is computed from its own
    offset alone, so the centred slice [-r, r]^g of the table holds bit for
    bit the table built at r.
    """
    cached = tau._quad_table
    if cached is None or cached[0] < top:
        offsets = np.arange(-top, top + 1)
        k = np.stack(np.meshgrid(*[offsets] * tau.g, indexing="ij"), axis=-1).reshape(-1, tau.g)
        table = np.exp(1j * np.pi * ((k @ tau.tau) * k).sum(-1))
        cached = top, table.reshape((len(offsets),) * tau.g)
        tau._quad_table = cached
    return cached


def _theta_groups(
    points: np.ndarray,
    truncation: tuple[np.ndarray, np.ndarray, np.ndarray],
    tau: PeriodMatrix,
) -> np.ndarray:
    """Every characteristic's value at each of the (P, g) points, as a
    (P, 4^g) array whose column c.index holds theta[c].

    truncation is _truncation(points, tau, policy).  A point is 2^g rows, one
    per top half a1, each resolved into all 2^g second halves; a row keeps
    its point's radius r and its own box ceil(c - r) .. floor(c + r) around
    c = -(alpha + w), alpha = a1/2, w = Y^-1 Im z.
    With the shift s = rint(c) and the offset k = m - s in [-r, r]^g, the
    term for n = s + k + alpha is

        Q[k] * prod_j E_j[k_j] * C,
        Q[k]   = exp(pi i k' tau k),                                shared, |Q| <= 1
        E_j[k] = exp(2 pi i ((k + alpha_j) (z + tau s)_j + k (tau alpha)_j)),  per row and axis
        C      = exp(pi i (s' tau s + 2 s' z + alpha' tau alpha)),   per row,

    and the parity sign (-1)^(m.a2) splits over the axes as well, so one
    contraction of Q (the centred slice of _quad_table) with the 2 x K axis
    factors (sign 1 and (-1)^(s_j + k)) gives all 2^g classes at once, for
    all rows of one radius whatever their top halves.  E_j is zeroed outside
    the row's own interval on axis j.  The axis factors grow like exp(B) with
    B = 2 pi sum_j ((r + alpha_j) |Im (z + tau s)_j| + r |Im (tau alpha)_j|);
    a row whose B could carry a partial sum of K^g such factors past the
    double range is summed term by term over its box instead.
    """
    g = tau.g
    bits = np.array(list(itertools.product((0, 1), repeat=g)))
    # row i is the top half bits[i % 2^g] at the point i // 2^g
    alpha = np.tile(bits / 2.0, (len(points), 1))
    a2_phase = np.exp(1j * np.pi * (bits @ bits.T / 2.0))
    w, radii, _ = truncation
    points, w, radii = (np.repeat(part, 2**g, axis=0) for part in (points, w, radii))

    center = -alpha - w
    shift = np.rint(center)
    lo = np.ceil(center - radii[:, None]) - shift
    hi = np.floor(center + radii[:, None]) - shift
    tau_s = shift @ tau.tau
    tau_alpha = alpha @ tau.tau
    v = points + tau_s
    reach = (radii[:, None] + alpha) * np.abs(v.imag) + radii[:, None] * np.abs(tau_alpha.imag)
    factored = 2.0 * np.pi * reach.sum(1) < _MAX_EXP_ARG - g * np.log(2 * radii + 1)
    const = np.exp(1j * np.pi * (tau_s * shift + 2.0 * shift * points + tau_alpha * alpha).sum(1))

    top, quad = _quad_table(int(radii[factored].max(initial=0)), tau)

    sums = np.empty((len(points), 2**g), dtype=complex)
    for r in np.unique(radii[factored]).tolist():
        size = 2 * r + 1
        q = quad[(slice(top - r, top + r + 1),) * g].reshape(size, size ** (g - 1))
        k = np.arange(-r, r + 1)
        chunk = max(_CHUNK_ROWS, _CHUNK_ENTRIES // (2 * size ** (g - 1)))
        group = np.flatnonzero(factored & (radii == r))
        for start in range(0, len(group), chunk):
            idx = group[start : start + chunk]
            n_rows = len(idx)
            phase = (k + alpha[idx, :, None]) * v[idx, :, None] + k * tau_alpha[idx, :, None]
            lin = np.exp(2j * np.pi * phase)
            lin *= (lo[idx, :, None] <= k) & (k <= hi[idx, :, None])
            odd = (shift[idx, :, None].astype(np.int64) + k) & 1
            # (row, axis, a2 bit, k): each axis factor for a2_j = 0 and a2_j = 1
            axes = np.stack((lin, lin * (1 - 2 * odd)), axis=2)
            # k_1 for all rows in one product, then k_2 .. k_g row by row
            acc = (axes[:, 0].reshape(2 * n_rows, size) @ q).reshape(n_rows, 2, -1)
            for j in range(1, g):
                acc = acc.reshape(n_rows, 2**j, size, -1)
                acc = axes[:, j, None] @ acc
            sums[idx] = acc.reshape(n_rows, 2**g) * const[idx, None]

    for p in np.flatnonzero(~factored).tolist():
        box = [np.arange(lo[p, j], hi[p, j] + 1) + shift[p, j] for j in range(g)]
        m = np.stack(np.meshgrid(*box, indexing="ij"), axis=-1).reshape(-1, g).astype(np.int64)
        n = m + alpha[p]
        terms = np.exp(1j * np.pi * (((n @ tau.tau) * n).sum(1) + 2.0 * (n @ points[p])))
        sums[p] = terms @ (1 - 2 * (((m & 1) @ bits.T) & 1))

    return (sums.reshape(-1, 2**g, 2**g) * a2_phase).reshape(-1, 4**g)


def _fill(points, tau: PeriodMatrix, policy: TruncationPolicy) -> None:
    """Memoize every characteristic at the points not in tau's memo yet.

    The points are deduplicated by key; _truncation runs once over the
    missing ones, in order, and they are summed in one _theta_groups batch.
    """
    memo = tau._theta_memo
    key = policy._key
    unique = {z.tobytes(): z for z in points}
    missing = [b for b in unique if (key, b) not in memo]
    if not missing:
        return
    union = np.array([unique[b] for b in missing])
    truncation = _truncation(union, tau, policy)
    values = _theta_groups(union, truncation, tau).tolist()
    entries = zip(values, truncation[1].tolist(), truncation[2].tolist())
    memo.update(((key, b), entry) for b, entry in zip(missing, entries))


def theta_series(
    c: Characteristic, z, tau: PeriodMatrix, policy: TruncationPolicy | None = None
) -> ThetaValue:
    """Evaluate the theta series, reporting the radius and tail bound used.

    The integer box is recentred at the modulus peak of the summand, i.e. at
    -(a1/2 + Y^{-1} Im z) with Y = Im tau, and its radius is the smallest
    whose tail bound meets the policy target.  The returned tail_bound is an
    upper bound for the discarded mass.

    The first call for a (policy, z) evaluates every characteristic at z
    through _fill and memoizes them on tau; later calls for any
    characteristic at z are one lookup.  A z that is already a complex (g,)
    array is looked up by its raw bytes before it is validated (see the
    module docstring); only a miss pays for validation.
    """
    policy = policy or DEFAULT_POLICY
    g = len(tau._tau)
    if len(c.a1) != g:
        raise ValueError(f"genus mismatch: characteristic {len(c.a1)}, tau {g}")
    memo = tau._theta_memo
    entry = None
    if type(z) is np.ndarray and z.dtype is _COMPLEX and z.shape == (g,):
        entry = memo.get((policy._key, z.tobytes()))
    if entry is None:
        z = _as_point(z, g)
        key = (policy._key, z.tobytes())
        entry = memo.get(key)
        if entry is None:
            _fill([z], tau, policy)
            entry = memo[key]
    values, radius, tail_bound = entry
    # c._index is c.index without the property call; tuple.__new__ builds the
    # named tuple without its Python-level __new__
    return tuple.__new__(ThetaValue, (values[c._index], tail_bound, radius))


def theta_table(
    chars, points, tau: PeriodMatrix, policy: TruncationPolicy | None = None
) -> np.ndarray:
    """Values theta[c](z) for c in chars (rows) and z in points (columns).

    Every characteristic's genus is checked before any lattice sum.  One
    _fill call then sums every point not memoized yet in a single batch (and
    none when chars is empty).  The matrix is read back through one
    theta_series lookup per (char, point), so every value, radius and tail
    bound is the one theta_series reports, and the benchmark tracer, which
    counts the theta_series reads of each stage, sees one read per table
    entry.  Those reads hit the memo by raw bytes.
    """
    policy = policy or DEFAULT_POLICY
    g = tau.g
    for c in chars:
        if c.g != g:
            raise ValueError(f"genus mismatch: characteristic {c.g}, tau {g}")
    pts = [_as_point(z, g) for z in points]
    if chars:
        _fill(pts, tau, policy)
    values = [[theta_series(c, z, tau, policy).value for z in pts] for c in chars]
    return np.array(values, dtype=complex).reshape(len(chars), len(pts))


def theta_nulls(
    tau: PeriodMatrix, policy: TruncationPolicy | None = None
) -> dict[Characteristic, complex]:
    """Values at z = 0 for all even characteristics, in canonical order."""
    evens = even_characteristics(tau.g)
    values = theta_table(evens, [np.zeros(tau.g, dtype=complex)], tau, policy)
    return dict(zip(evens, values[:, 0].tolist()))


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


def check_seed(seed: int) -> None:
    """Reject a sampling seed that is not a non-negative integer."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


def sample_cell_points(tau: PeriodMatrix, n: int, seed: int) -> np.ndarray:
    """n seeded points u + tau v with u, v uniform in [0, 1)^g, as an (n, g) array."""
    if n < 1:
        raise ValueError(f"need at least one sample, got {n}")
    check_seed(seed)
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, 1.0, size=(n, tau.g))
    v = rng.uniform(0.0, 1.0, size=(n, tau.g))
    return u + v @ tau.tau
