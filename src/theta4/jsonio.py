"""Canonical JSON and input parsing for the command line.

Reports must be byte-identical across runs with the same inputs and seeds,
so serialization is pinned down: keys sorted, compact separators, floats
formatted with 17 significant digits (lossless for doubles), no NaN or
infinities, one trailing newline.  Output files are written atomically.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np

from theta4.char2 import Characteristic
from theta4.theta_eval import PeriodMatrix


def _format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"non-finite float {x!r} cannot enter a canonical report")
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return format(x, ".17g")


def _canonical(obj, out: list[str]) -> None:
    if obj is None or obj is True or obj is False:
        out.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise ValueError(f"canonical JSON object keys must be strings, got {key!r}")
            if i:
                out.append(",")
            out.append(json.dumps(key, ensure_ascii=True))
            out.append(":")
            _canonical(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _canonical(item, out)
        out.append("]")
    else:
        raise ValueError(f"type {type(obj).__name__} is not canonical-JSON serializable")


def canonical_dumps(obj) -> str:
    """Serialize to canonical JSON with a trailing newline."""
    out: list[str] = []
    _canonical(obj, out)
    out.append("\n")
    return "".join(out)


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write via a temporary file and rename, so readers never see partials;
    an OSError names path, and the temporary file is never left behind."""
    path = Path(path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
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

    A half of length g consisting only of 0/1 characters is read as bits,
    most significant first; anything else must parse as an integer below 2^g
    and is expanded to bits with the same convention.
    """
    if not isinstance(token, str):
        raise ValueError(f'characteristic must be a string "a1,a2", got {token!r}')
    parts = token.strip().split(",")
    if len(parts) != 2:
        raise ValueError(f'characteristic must look like "a1,a2", got {token!r}')
    halves = {}
    for key, part in zip(("a1", "a2"), parts):
        part = part.strip()
        if len(part) == g and set(part) <= {"0", "1"}:
            halves[key] = [int(ch) for ch in part]
        else:
            try:
                halves[key] = int(part)
            except ValueError:
                raise ValueError(f"cannot parse characteristic half {part!r}") from None
    return Characteristic.from_json(halves, g)


def parse_point_spec(token: str, g: int) -> np.ndarray:
    """Parse "re,im;re,im;..." into a complex g-vector."""
    groups = [grp for grp in token.strip().split(";") if grp.strip()]
    if len(groups) != g:
        raise ValueError(f"point must have {g} components, got {len(groups)}")
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
    except OSError as exc:
        raise ValueError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON in {what} {path}: {exc}") from exc


def load_tau_file(path: str | Path) -> PeriodMatrix:
    """Load a period matrix from a {"g", "re", "im"} JSON file."""
    return PeriodMatrix.from_json(load_json(path, "period matrix file"))
