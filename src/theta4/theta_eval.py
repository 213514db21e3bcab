"""Numerical theta functions with characteristics on the Siegel upper half-space.

The series for a genus-g characteristic (a1, a2) at the point z is

    sum over m in Z^g of exp(pi i [ (m + a1/2)' tau (m + a1/2)
                                    + 2 (m + a1/2)' (z + a2/2) ])

with the bits of a1, a2 lifted to the integers 0/1.  The sum is truncated to
an integer box recentred where the summand's modulus peaks, at
c = -(a1/2 + Y^-1 Im z) with Y = Im tau, with the radius chosen so that a
rigorous Gaussian tail bound, counted from c itself (see _tail_bound), falls
below the policy's target, and past MAX_ALLOWED_RADIUS raises TruncationError.
A point whose tail bound or values would leave the double range raises a
ValueError that names it.
Everything runs in double-precision complex; the advertised accuracy is
absolute, of the order of the policy target.

The radius and the tail bound depend on z alone, so the one kernel,
_theta_groups, sums all 4^g characteristics at a point together; its
docstring derives it.

The memo on the PeriodMatrix, the only state it keeps, holds one entry per
(target, bytes of z) for the life of that object: z's 4^g values by
canonical index, its radius and its tail bound.  So the nulls and the values
at z and 2z are summed once per tau, whatever the stages read.  _fill, its
one fill path, truncates each point not memoized yet once and sums them all
in one _theta_groups batch, which builds the quadratic-phase table anew, in
place, for each radius among its rows.

Every memo key is the bytes of a validated point: finite, of shape (g,),
complex, and with no -0.0.  So theta_series, given a complex (g,) array,
looks up its raw bytes before validating: a hit is exactly the hit the
validated point would give, and a point that validation would change or
reject (a -0.0, a NaN, another shape or dtype) can never hit.
"""

from __future__ import annotations

import itertools
import math
import numbers
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from theta4.char2 import Characteristic, check_genus_match, even_characteristics

SYMMETRY_TOL = 1e-12
MIN_IM_EIGENVALUE = 1e-6

MAX_ALLOWED_RADIUS = 64

# largest argument math.exp takes without overflowing
_MAX_EXP_ARG = math.log(sys.float_info.max)
# row chunks bound peak memory: _theta_groups takes as many rows as keep its first contraction
# (2 per row times K^(g-1) complex entries) within _CHUNK_ENTRIES, but at least _CHUNK_ROWS
_CHUNK_ENTRIES = 2**13
_CHUNK_ROWS = 16
_COMPLEX = np.dtype(complex)


def check_real(name: str, value) -> float:
    """value as a float; ValueError naming name unless it is a finite real number
    (a bool or a string is not one, a numpy scalar is; float() raises past the float range)."""
    try:
        x = math.nan if isinstance(value, bool) or not isinstance(value, numbers.Real) else float(value)
    except OverflowError:
        x = math.nan
    if not math.isfinite(x):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return x


def check_integer(name: str, value, least: int) -> int:
    """value as an int; ValueError naming name unless it is an integer from
    least up to the float range (a bool is not one; a numpy integer is)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or not least <= value <= sys.float_info.max):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


class TruncationError(ValueError):
    """Raised when the tail target needs a radius above MAX_ALLOWED_RADIUS; a ValueError,
    so the CLI exits 2 (invalid input) on it, or reports it as a run-suite entry's error."""

    def __init__(self, required_radius: int):
        self.required_radius = required_radius
        super().__init__(f"lattice-sum radius {required_radius} needed to meet the tail target, "
                         f"cap is {MAX_ALLOWED_RADIUS}")


@dataclass(frozen=True)
class TruncationPolicy:
    """Absolute tail target for the truncated series; it is also the memo key."""

    target_eps: float = 1e-11

    def __post_init__(self) -> None:
        if not 1e-14 <= check_real("target_eps", self.target_eps):
            raise ValueError(f"target_eps must be finite and >= 1e-14, got {self.target_eps}")


DEFAULT_POLICY = TruncationPolicy()


@dataclass(frozen=True, eq=False, repr=False)
class PeriodMatrix:
    """Symmetric complex g x g matrix with positive-definite imaginary part.

    Matrices with the smallest imaginary eigenvalue below 1e-6 are rejected
    outright: that close to the boundary the summation radius explodes and
    double precision has nothing useful to say.
    """

    tau: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.tau, dtype=complex)
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
        # the symmetrized, write-protected tau, its genus and the smallest eigenvalue of Im tau;
        # equality and hashing are by identity, so the memo below belongs to this one object
        object.__setattr__(self, "tau", arr)
        object.__setattr__(self, "g", arr.shape[0])
        object.__setattr__(self, "lambda_min", lam)
        # (policy.target_eps, z bytes) -> (4^g values by canonical index, radius, tail_bound), by _fill
        object.__setattr__(self, "_theta_memo", {})

    def __repr__(self) -> str:
        return f"PeriodMatrix(g={self.g}, lambda_min={self.lambda_min:.6g})"

    def to_json(self) -> dict:
        return {
            "g": self.g,
            "re": [[float(x) for x in row] for row in self.tau.real],
            "im": [[float(x) for x in row] for row in self.tau.imag],
        }

    @classmethod
    def from_json(cls, obj: object) -> "PeriodMatrix":
        if not isinstance(obj, dict) or "re" not in obj or "im" not in obj:
            raise ValueError('period matrix JSON needs "re" and "im" keys')
        for key in obj:
            if key not in ("g", "re", "im"):
                raise ValueError(f"period matrix JSON has unknown key {key!r}; known keys: g, re, im")
        for name in ("re", "im"):
            block = obj[name]
            if not isinstance(block, list) or not all(isinstance(row, list) for row in block):
                raise ValueError(f"{name} block must be an array of arrays of numbers, got {block!r}")
            for x in itertools.chain.from_iterable(block):
                # a JSON string or true/false is not a number, though numpy would parse it as one
                check_real(f"{name} entry", x)
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


def _bound_factor(g: int, lam: float, exponent: float) -> float:
    """The tail bound's factor amp * 2g * (2 + 1/sqrt(lam))^(g-1) at a point
    whose scale is amp = exp(exponent) (see _tail_bound); inf past the double range."""
    if not exponent <= _MAX_EXP_ARG:
        return math.inf
    return math.exp(exponent) * 2.0 * g * (2.0 + 1.0 / math.sqrt(lam)) ** (g - 1)


def _tail_bound(factor: float, lam: float, radius: int) -> float:
    """Bound on the mass the box ceil(c - r) .. floor(c + r) leaves out, r >= 1,
    given the point's _bound_factor.

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
    decay = math.exp(-math.pi * lam * radius * radius) / -math.expm1(-2.0 * math.pi * lam * radius)
    return factor * decay


def _truncation(
    points: np.ndarray, tau: PeriodMatrix, policy: TruncationPolicy
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The per-point part of the truncation for the (P, g) batch: w = Y^-1 Im z,
    the radius and the tail bound of each point.  A point whose tail bound
    factor leaves the double range raises ValueError naming it.

    None of it depends on the characteristic, so _fill runs it once per point
    for all the characteristics it sums.  Solved one point per stacked matrix, each
    w and exponent is bit for bit the point's own solve and dot product,
    whatever the batch.
    """
    g = tau.g
    lam = tau.lambda_min
    y = points.imag
    # an Im z near the double range makes w or y'w inf or NaN; the check below names the point
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.linalg.solve(np.broadcast_to(tau.tau.imag, (len(points), g, g)), y[:, :, None])[:, :, 0]
        exponents = math.pi * (y[:, None, :] @ w[:, :, None]).ravel()
    radii, tails = [], []
    for z, exponent in zip(points, exponents.tolist()):
        factor = _bound_factor(g, lam, exponent)
        if not math.isfinite(factor):
            limit = _MAX_EXP_ARG - math.log(_bound_factor(g, lam, 0.0))  # where the factor overflows
            raise ValueError(
                f"theta scale exp(pi y'Y^-1 y) at z = {z.tolist()} overflows double precision "
                f"(exponent {exponent:.4g}, limit {limit:.4g})"
            )
        # the smallest radius whose tail bound meets the target; with a finite factor
        # the search ends where the decay underflows to 0, near r = 15,400 at lam = 1e-6
        r = 1
        while (tail := _tail_bound(factor, lam, r)) > policy.target_eps:
            r += 1
        if r > MAX_ALLOWED_RADIUS:
            raise TruncationError(r)
        radii.append(r)
        tails.append(tail)
    return w, np.array(radii), np.array(tails)


def _kernel_tau(tau: PeriodMatrix) -> np.ndarray:
    """tau.tau less the integer symmetric T with diagonal 8 rint(Re tau_jj / 8)
    and off-diagonal 4 rint(Re tau_jl / 4), the tau the kernel sums with.

    For n in Z^g + a1/2, T_jj n_j^2 and 2 T_jl n_j n_l are even integers, so
    exp(pi i n'Tn) = 1 and every theta[a](z) is unchanged: the shift is
    exact, and the phases never carry the rounding of a large Re tau.
    """
    t = tau.tau
    cut = 4.0 * np.rint(t.real / 4.0)
    np.fill_diagonal(cut, 8.0 * np.rint(t.real.diagonal() / 8.0))
    return t - cut


def _quad_table(r: int, tau: PeriodMatrix) -> np.ndarray:
    """Q[k] = exp(pi i k' tau k) over the offsets k in [-r, r]^g.

    The exponent is summed in place, one term c_jl k_j k_l per entry of
    tau's upper triangle (c_jj = pi i tau_jj, c_jl = 2 pi i tau_jl) in a
    fixed order, then exponentiated in place, so the build holds no offset
    grid.  Each entry's arithmetic depends on its own offset alone: the
    centred slice [-s, s]^g of the table at r is bit for bit the table at s.
    """
    g = tau.g
    t = _kernel_tau(tau)
    k = np.arange(-r, r + 1)
    # k along axis j of a g-dimensional array
    axis = [k.reshape((-1,) + (1,) * (g - 1 - j)) for j in range(g)]
    table = np.zeros((2 * r + 1,) * g, dtype=complex)
    for j, l in itertools.combinations_with_replacement(range(g), 2):
        table += (2 - (j == l)) * 1j * np.pi * t[j, l] * (axis[j] * axis[l])
    return np.exp(table, out=table)


def _theta_groups(
    points: np.ndarray,
    truncation: tuple[np.ndarray, np.ndarray, np.ndarray],
    tau: PeriodMatrix,
) -> np.ndarray:
    """Every characteristic's value at each of the (P, g) points, as a
    (P, 4^g) array whose column c.index holds theta[c].

    The top half a1 and the point fix the box; the bottom half a2 only flips
    the sign of the term for m by (-1)^(m.a2) and multiplies the sum by
    exp(pi i a1.a2 / 2).  truncation is _truncation(points, tau, policy).
    Each point is summed at z - n, n = rint(Re z), and a row's sum is
    multiplied by (-1)^(a1.n), with the parity of n from np.fmod:
    theta[a](z + n) = (-1)^(a1.n) theta[a](z), so the shift is exact and the
    phases below never see a large Re z; tau enters as _kernel_tau(tau), so
    they never see a large Re tau either.  A point is 2^g rows, one per top
    half a1, each resolved into all 2^g second halves; a row keeps its
    point's radius r and its own box ceil(c - r) .. floor(c + r) around
    c = -(alpha + w), alpha = a1/2, w = Y^-1 Im z.
    With the shift s = rint(c) and the offset k = m - s in [-r, r]^g, the
    term for n = s + k + alpha is

        Q[k] * prod_j E_j[k_j] * C,
        Q[k]   = exp(pi i k' tau k),                                shared, |Q| <= 1
        E_j[k] = exp(2 pi i ((k + alpha_j) (z + tau s)_j + k (tau alpha)_j)),  per row and axis
        C      = exp(pi i (s' tau s + 2 s' z + alpha' tau alpha)),   per row,

    and the parity sign (-1)^(m.a2) splits over the axes as well, so one
    contraction of Q (_quad_table at the radius) with the 2 x K axis
    factors (sign 1 and (-1)^(s_j + k)) gives all 2^g classes at once, for
    all rows of one radius whatever their top halves.  E_j is zeroed outside
    the row's own interval on axis j.  E_j is geometric in k: it is the
    running product E_j[0] * step_j^k, step_j = exp(2 pi i (z + tau s +
    tau alpha)_j), so each row and axis takes two complex exponentials, not
    2r + 1.  The products run out from k = 0, where the box peaks, so the
    largest terms carry the fewest roundings.  The axis factors grow like
    exp(B) with
    B = 2 pi sum_j ((r + alpha_j) |Im (z + tau s)_j| + r |Im (tau alpha)_j|);
    a row whose B could carry a partial sum of K^g such factors past the
    double range is summed term by term over its box instead.  Every partial
    product of the recurrence is one of the E_j[k], which B bounds, so the
    recurrence leaves the double range only where that guard does.
    """
    g = tau.g
    bits = np.array(list(itertools.product((0, 1), repeat=g)))
    # row i is the top half bits[i % 2^g] at the point i // 2^g
    alpha = np.tile(bits / 2.0, (len(points), 1))
    a2_phase = np.exp(1j * np.pi * (bits @ bits.T / 2.0))
    w, radii, _ = truncation
    whole = np.rint(points.real)
    sign = 1 - 2 * ((np.abs(np.fmod(whole, 2.0)) @ bits.T) % 2)
    points, w, radii = (np.repeat(part, 2**g, axis=0) for part in (points - whole, w, radii))

    center = -alpha - w
    shift = np.rint(center)
    lo = np.ceil(center - radii[:, None]) - shift
    hi = np.floor(center + radii[:, None]) - shift
    t = _kernel_tau(tau)
    tau_s = shift @ t
    tau_alpha = alpha @ t
    v = points + tau_s
    reach = (radii[:, None] + alpha) * np.abs(v.imag) + radii[:, None] * np.abs(tau_alpha.imag)
    factored = 2.0 * np.pi * reach.sum(1) < _MAX_EXP_ARG - g * np.log(2 * radii + 1)
    const = np.exp(1j * np.pi * (tau_s * shift + 2.0 * shift * points + tau_alpha * alpha).sum(1))

    sums = np.empty((len(points), 2**g), dtype=complex)
    for r in sorted(set(radii[factored].tolist())):
        size = 2 * r + 1
        q = _quad_table(r, tau).reshape(size, size ** (g - 1))
        k = np.arange(-r, r + 1)
        chunk = max(_CHUNK_ROWS, _CHUNK_ENTRIES // (2 * size ** (g - 1)))
        group = np.flatnonzero(factored & (radii == r))
        for start in range(0, len(group), chunk):
            idx = group[start : start + chunk]
            n_rows = len(idx)
            # (row, axis, k): E_j[0] and step_j, the two exponentials, then running
            # products out from k = 0, by step_j up and by 1 / step_j down
            step = np.exp(2j * np.pi * (v[idx] + tau_alpha[idx]))[:, :, None]
            lin = np.empty((n_rows, g, size), dtype=complex)
            lin[:, :, :r] = 1 / step
            lin[:, :, r] = np.exp(2j * np.pi * alpha[idx] * v[idx])
            lin[:, :, r + 1 :] = step
            lin[:, :, r:] = np.multiply.accumulate(lin[:, :, r:], axis=2)
            lin[:, :, r::-1] = np.multiply.accumulate(lin[:, :, r::-1], axis=2)
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
        terms = np.exp(1j * np.pi * (((n @ t) * n).sum(1) + 2.0 * (n @ points[p])))
        sums[p] = terms @ (1 - 2 * (((m & 1) @ bits.T) & 1))

    return (sums.reshape(-1, 2**g, 2**g) * a2_phase * sign[:, :, None]).reshape(-1, 4**g)


def _fill(points, tau: PeriodMatrix, policy: TruncationPolicy) -> list:
    """Memoize every characteristic at the points not in tau's memo yet, and
    return the memo entries of the points, in order.

    The points are deduplicated by key; _truncation runs once over the
    missing ones, in order, and they are summed in one _theta_groups batch.
    A point whose values leave the double range raises ValueError naming it,
    and none of the batch is memoized.
    """
    memo = tau._theta_memo
    keys = [(policy.target_eps, z.tobytes()) for z in points]
    unique = dict(zip(keys, points))
    missing = [key for key in unique if key not in memo]
    if missing:
        union = np.array([unique[key] for key in missing])
        truncation = _truncation(union, tau, policy)
        with np.errstate(over="ignore", invalid="ignore"):
            values = _theta_groups(union, truncation, tau)
        finite = np.isfinite(values).all(axis=1)
        if not finite.all():
            z = union[np.argmin(finite)].tolist()
            raise ValueError(f"theta values at z = {z} overflow double precision")
        memo.update(zip(missing, zip(values.tolist(), truncation[1].tolist(), truncation[2].tolist())))
    return [memo[key] for key in keys]


def theta_series(
    c: Characteristic, z, tau: PeriodMatrix, policy: TruncationPolicy = DEFAULT_POLICY
) -> ThetaValue:
    """Evaluate the theta series, reporting the radius and tail bound used.

    The integer box is recentred at the modulus peak of the summand, i.e. at
    -(a1/2 + Y^{-1} Im z) with Y = Im tau, and its radius is the smallest
    whose tail bound meets the policy target.  The returned tail_bound is an
    upper bound for the discarded mass.

    The first call for a (target, z) evaluates every characteristic at z
    through _fill and memoizes them on tau; later calls for any
    characteristic at z are one lookup.  A z that is already a complex (g,)
    array is looked up by its raw bytes before it is validated (see the
    module docstring); only a miss pays for validation.
    """
    g = tau.g
    if c.g != g:
        check_genus_match("characteristic", c.g, "tau", g)
    entry = None
    if type(z) is np.ndarray and z.dtype is _COMPLEX and z.shape == (g,):
        entry = tau._theta_memo.get((policy.target_eps, z.tobytes()))
    if entry is None:
        entry = _fill([_as_point(z, g)], tau, policy)[0]
    values, radius, tail_bound = entry
    # tuple.__new__ builds the named tuple without its Python-level __new__
    return tuple.__new__(ThetaValue, (values[c.index], tail_bound, radius))


def theta_table(chars, points, tau: PeriodMatrix, policy: TruncationPolicy = DEFAULT_POLICY) -> np.ndarray:
    """Values theta[c](z) for c in chars (rows) and z in points (columns).

    Every characteristic's genus is checked before any lattice sum.  One
    _fill call then sums every point not memoized yet in a single batch (and
    none when chars is empty).  The matrix is read back through one
    theta_series lookup per (char, point), so every value, radius and tail
    bound is the one theta_series reports, and the benchmark tracer, which
    counts the theta_series reads of each stage, sees one read per table
    entry.  Those reads hit the memo by raw bytes.
    """
    g = tau.g
    for c in chars:
        check_genus_match("characteristic", c.g, "tau", g)
    pts = [_as_point(z, g) for z in points]
    if chars:
        _fill(pts, tau, policy)
    values = [[theta_series(c, z, tau, policy).value for z in pts] for c in chars]
    return np.array(values, dtype=complex).reshape(len(chars), len(pts))


def theta_nulls(
    tau: PeriodMatrix, policy: TruncationPolicy = DEFAULT_POLICY
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
    normalization and the mu quotient rely on.  tau enters as _kernel_tau(tau),
    which moves z_a by T a1 / 2 in 2Z^g, so no theta[k](2 z_a) changes, and
    keeps a2 from being rounded away past Re tau 2^53.
    """
    check_genus_match("characteristic", a.g, "tau", tau.g)
    p = np.array(a.a2, dtype=float)
    q = np.array(a.a1, dtype=float)
    return (p + _kernel_tau(tau) @ q) / 2.0


def random_tau(g: int, seed: int, floor: float = 1.0) -> PeriodMatrix:
    """Seeded sample from the Siegel upper half-space.

    tau = S + i (B B' + floor I) with the entries of S (symmetric) and B
    drawn uniformly from [-1/2, 1/2].  The smallest eigenvalue of the
    imaginary part is at least floor; identical seeds give bit-identical
    matrices.
    """
    g = check_integer("genus", g, 1)
    rng = np.random.default_rng(check_integer("seed", seed, 0))
    floor = check_real("floor", floor)
    if not floor > 0.0:
        raise ValueError(f"floor must be positive, got {floor}")
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
    n = check_integer("samples", n, 1)
    rng = np.random.default_rng(check_integer("seed", seed, 0))
    u = rng.uniform(0.0, 1.0, size=(n, tau.g))
    v = rng.uniform(0.0, 1.0, size=(n, tau.g))
    return u + v @ tau.tau
