"""Canonical JSON and input parsing for the command line.

Reports must be byte-identical across runs with the same inputs and seeds,
so serialization is pinned down: keys sorted, compact separators, floats
formatted with 17 significant digits (lossless for doubles), no NaN or
infinities, one trailing newline.  _canonical returns each value's text, an
object or array being the comma join of its members' texts, with floats in
format(x, ".17g"), not json's repr.  Output files are written atomically.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from theta4.char2 import Characteristic
from theta4.theta_eval import PeriodMatrix


def _canonical(obj) -> str:
    """The canonical text of obj, without the trailing newline."""
    if obj is None:
        return "null"
    if obj is True or obj is False:
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite float {obj!r} cannot enter a canonical report")
        return format(obj if obj else 0.0, ".17g")  # -0.0 is written as 0
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, dict):
        for key in obj:
            if not isinstance(key, str):
                raise ValueError(f"canonical JSON object keys must be strings, got {key!r}")
        return "{" + ",".join(encode_basestring_ascii(key) + ":" + _canonical(obj[key])
                              for key in sorted(obj)) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(map(_canonical, obj)) + "]"
    raise ValueError(f"type {type(obj).__name__} is not canonical-JSON serializable")


def canonical_dumps(obj) -> str:
    """Serialize to canonical JSON with a trailing newline."""
    try:
        return _canonical(obj) + "\n"
    except RecursionError:
        raise ValueError("object too deeply nested for a canonical report") from None


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write via a temporary file and rename, so readers never see partials;
    an OSError names path, and the temporary file is never left behind."""
    path = Path(path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        umask = os.umask(0)  # mkstemp makes the file 0600; a report takes the umask
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise


def complex_json(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def parse_char_spec(token: str, g: int) -> Characteristic:
    """Parse "a1,a2" where each half is a g-bit string or a plain integer.

    A half of length g consisting only of 0/1 characters is read in base 2,
    most significant bit first; anything else must parse as a decimal
    integer below 2^g.
    """
    if not isinstance(token, str):
        raise ValueError(f'characteristic must be a string "a1,a2", got {token!r}')
    parts = token.strip().split(",")
    if len(parts) != 2:
        raise ValueError(f'characteristic must look like "a1,a2", got {token!r}')
    halves = []
    for part in map(str.strip, parts):
        try:
            halves.append(int(part, 2 if len(part) == g and set(part) <= {"0", "1"} else 10))
        except ValueError:
            raise ValueError(f"cannot parse characteristic half {part!r}") from None
    return Characteristic.from_ints(g, *halves)


def parse_point_spec(token: str) -> np.ndarray:
    """Parse "re,im;re,im;..." into a complex vector; theta_series checks its
    length against the genus."""
    groups = [grp for grp in token.strip().split(";") if grp.strip()]
    values = []
    for grp in groups:
        parts = grp.split(",")
        if len(parts) != 2:
            raise ValueError(f'point component must look like "re,im", got {grp!r}')
        try:
            values.append(complex(float(parts[0]), float(parts[1])))
        except ValueError:
            raise ValueError(f"cannot parse point component {grp!r}") from None
    return np.array(values, dtype=complex)


def load_json(path: str | Path, what: str):
    """Parse a JSON file; read and parse failures become ValueError naming what."""
    path = Path(path)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {what} {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON, an int of too many digits, too deep
        raise ValueError(f"malformed JSON in {what} {path}: {exc}") from exc


def load_tau_file(path: str | Path) -> PeriodMatrix:
    """Load a period matrix from a {"g", "re", "im"} JSON file."""
    return PeriodMatrix.from_json(load_json(path, "period matrix file"))
