"""Exact combinatorics of theta characteristics over GF(2).

A characteristic of genus g is a pair (a1, a2) of g-bit vectors.  It indexes
both a theta function and a two-torsion point, and carries a parity
(-1)^(a1.a2).  The symplectic pairing and the quadratic forms kappa_c take
values in {+1, -1}; signs are plain Python ints throughout.  Each
characteristic also carries its canonical index a1||a2 and its half-swapped
index a2||a1, so a GF(2) dot product is the parity of the popcount of an AND
of the two, or of an index and its own top half index >> g.  One table
_SIGN[x] = (-1)^popcount(x) over every 2 MAX_GENUS-bit x turns such an AND
into its sign: parity, kappa_value, weil_pairing and mmatrix.pairing_signs
all read it, and the pairing <a, b> is the single read
_SIGN[a.index & swapped(b)].

Coordinate conventions fixed here, used consistently by every other module:

* canonical index: the 2g-bit integer whose high g bits are a1 and low g bits
  are a2, most significant bit first; all enumerations sort by it.
* kappa_c(a) = (-1)^(a1.a2 + c1.a2 + c2.a1), the quadratic refinement of the
  pairing attached to the characteristic c.
* translation acts by componentwise GF(2) addition of the pair.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

MAX_GENUS = 6

Bits = tuple[int, ...]

# (-1)^popcount(x) for every 2 MAX_GENUS-bit x: the one sign rule of parity,
# weil_pairing, kappa_value and mmatrix.pairing_signs
_SIGN = tuple(-1 if x.bit_count() & 1 else 1 for x in range(4**MAX_GENUS))


def d_plus(g: int) -> int:
    """Number of even characteristics in genus g: 2^(g-1) (2^g + 1)."""
    return 2 ** (g - 1) * (2**g + 1)


def d_minus(g: int) -> int:
    """Number of odd characteristics in genus g: 2^(g-1) (2^g - 1)."""
    return 2 ** (g - 1) * (2**g - 1)


def check_genus(g: int, cap: int = MAX_GENUS) -> None:
    """Reject a genus that is not an integer in 1..cap (a bool is not one)."""
    if isinstance(g, bool) or not isinstance(g, int) or not 1 <= g <= cap:
        raise ValueError(f"genus must be an integer in 1..{cap}, got {g!r}")


def check_genus_match(what: str, g: int, other: str, g_other: int) -> None:
    """Reject two genera that differ: what has genus g, other has g_other.

    The one genus-mismatch error.  Hot callers compare the genera inline and
    call this only when they differ."""
    if g != g_other:
        raise ValueError(f"genus mismatch: {what} {g}, {other} {g_other}")


def _bit(value: object) -> int:
    try:
        # a bool is an int, but True/False (a JSON true) is not a bit
        bit = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        bit = None
    if bit not in (0, 1):
        raise ValueError(f"coordinates must be integer bits 0 or 1, got {value!r}")
    return bit


def _bits_to_int(bits: Bits) -> int:
    value = 0
    for b in bits:
        value = value << 1 | b
    return value


def _int_to_bits(value: int, g: int) -> Bits:
    return tuple((value >> (g - 1 - k)) & 1 for k in range(g))


@dataclass(frozen=True)
class Characteristic:
    """A pair of g-bit vectors over GF(2), ordered by canonical index."""

    a1: Bits
    a2: Bits

    def __post_init__(self) -> None:
        a1 = tuple(map(_bit, self.a1))
        a2 = tuple(map(_bit, self.a2))
        if len(a1) != len(a2):
            raise ValueError(f"a1 and a2 must have equal length, got {len(a1)} and {len(a2)}")
        check_genus(len(a1))
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "a2", a2)
        # the genus, the canonical index a1||a2 (high g bits a1, MSB first), the swapped
        # index a2||a1 and whether it is zero; not fields, so ==, hash, repr and JSON ignore them
        object.__setattr__(self, "g", len(a1))
        object.__setattr__(self, "index", _bits_to_int(a1 + a2))
        object.__setattr__(self, "_swapped", _bits_to_int(a2 + a1))
        object.__setattr__(self, "is_zero", self.index == 0)

    @classmethod
    def zero(cls, g: int) -> "Characteristic":
        return cls.from_index(g, 0)

    @classmethod
    def from_index(cls, g: int, index: int) -> "Characteristic":
        check_genus(g)
        if not 0 <= index < 4**g:
            raise ValueError(f"index {index} out of range for genus {g}")
        return cls(_int_to_bits(index >> g, g), _int_to_bits(index & (2**g - 1), g))

    @classmethod
    def from_ints(cls, g: int, a1: int, a2: int) -> "Characteristic":
        """Build from two integers read as g-bit vectors, MSB first."""
        check_genus(g)
        for key, half in (("a1", a1), ("a2", a2)):
            if not 0 <= half < 2**g:
                raise ValueError(f"{key}={half} out of range for genus {g}")
        return cls(_int_to_bits(a1, g), _int_to_bits(a2, g))

    @classmethod
    def from_json(cls, obj: object) -> "Characteristic":
        """Read {"a1": [bits], "a2": [bits]}, the encoding to_json writes."""
        if not (isinstance(obj, dict) and set(obj) == {"a1", "a2"}
                and all(isinstance(half, (list, tuple)) for half in obj.values())):
            raise ValueError(f'characteristic JSON must be {{"a1": [bits], "a2": [bits]}}, got {obj!r}')
        return cls(obj["a1"], obj["a2"])

    def to_json(self) -> dict:
        return {"a1": list(self.a1), "a2": list(self.a2)}

    def __str__(self) -> str:
        return "".join(map(str, self.a1)) + "," + "".join(map(str, self.a2))


@lru_cache(maxsize=None)
def _all_characteristics(g: int) -> tuple[Characteristic, ...]:
    return tuple(Characteristic.from_index(g, i) for i in range(4**g))


def enumerate_characteristics(g: int) -> list[Characteristic]:
    """All 4^g characteristics of genus g, ascending by canonical index."""
    check_genus(g)
    return list(_all_characteristics(g))


def parity(c: Characteristic) -> int:
    """+1 for even characteristics (a1.a2 = 0 over GF(2)), -1 for odd."""
    return _SIGN[(c.index >> c.g) & c.index]


def weil_pairing(a: Characteristic, b: Characteristic) -> int:
    """Symplectic pairing (-1)^(a1.b2 + a2.b1); symmetric and bilinear.

    a.index & b's swapped index is (a1 & b2)||(a2 & b1), whose popcount is
    a1.b2 + a2.b1, so the sign is one table read.
    """
    if a.g != b.g:
        check_genus_match("characteristic", a.g, "characteristic", b.g)
    return _SIGN[a.index & b._swapped]


def kappa_value(c: Characteristic, a: Characteristic) -> int:
    """Quadratic form kappa_c(a) = (-1)^(a1.a2 + c1.a2 + c2.a1).

    Satisfies kappa_c(a + b) = kappa_c(a) kappa_c(b) <a, b> for every a, b;
    for c = 0 it reduces to the parity of a.
    """
    check_genus_match("characteristic", c.g, "characteristic", a.g)
    return _SIGN[((a.index >> a.g) & a.index) ^ (c.index & a._swapped)]


def translate(b: Characteristic, c: Characteristic) -> Characteristic:
    """Translate c by b: componentwise GF(2) sum of the pairs.

    The translated form satisfies
    kappa_value(translate(b, c), x) = weil_pairing(b, x) * kappa_value(c, x).
    """
    check_genus_match("characteristic", b.g, "characteristic", c.g)
    return Characteristic.from_index(c.g, b.index ^ c.index)


@lru_cache(maxsize=None)
def _even_points_cached(c: Characteristic) -> tuple[Characteristic, ...]:
    return tuple(a for a in _all_characteristics(c.g) if kappa_value(c, a) == 1)


def even_points(c: Characteristic) -> list[Characteristic]:
    """The d+ points where kappa_c = +1, in canonical order (zero is first)."""
    if parity(c) != 1:
        raise ValueError(f"even_points needs an even characteristic, got odd {c}")
    return list(_even_points_cached(c))


def even_characteristics(g: int) -> list[Characteristic]:
    """The d+ even characteristics of genus g, in canonical order."""
    check_genus(g)
    return list(_even_points_cached(Characteristic.zero(g)))


def isometry_to_even_points(kappa0: Characteristic, b: Characteristic) -> Characteristic:
    """Map an even pair b into even_points(kappa0), preserving the pairing.

    b is fixed when <kappa0, b> = +1 and shifted by kappa0 otherwise.  Over
    the even pairs this is a bijection onto even_points(kappa0) with
    <psi(a), psi(b)> = <a, b>, which is what lines the normalized evaluation
    matrix up with the canonical sign matrix for any even kappa0.
    """
    if parity(kappa0) != 1:
        raise ValueError(f"alignment needs an even kappa0, got odd {kappa0}")
    if parity(b) != 1:
        raise ValueError(f"alignment is defined on even pairs, got odd {b}")
    if weil_pairing(kappa0, b) == 1:
        return b
    return translate(kappa0, b)
