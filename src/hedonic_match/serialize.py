"""Deterministic artifact I/O.

JSON output is byte-stable: map keys sorted, floats printed with 17
significant digits, no locale or hash-order dependence.  Identical inputs
produce identical files.  The writer dispatches on the exact type of the
plain Python values the reports are made of (float, int, dict, list,
tuple) and falls back to isinstance checks for None, bools, numpy scalars,
strings and arrays; either way a value gets the same bytes.
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path

import numpy as np

from .core import DualPotentials, ValidationError, _fmt, _write_rows


# the reports' keys: a few dozen names and the indices "0".."n-1" of the
# purity maps, written in the same order for each map; a cache smaller than
# those would evict every index key before its next use
@functools.lru_cache(maxsize=4096)
def _key(key: str) -> str:
    return json.dumps(key)


def _write_value(obj) -> str:
    kind = type(obj)
    if kind is float:
        if not math.isfinite(obj):
            raise ValidationError(f"non-finite value {obj} has no JSON form")
        return _fmt(obj)
    if kind is int:
        return repr(obj)
    if kind is dict:
        items = sorted((str(k), v) for k, v in obj.items())
        return "{" + ", ".join([f"{_key(k)}: {_write_value(v)}" for k, v in items]) + "}"
    if kind is list or kind is tuple:
        return "[" + ", ".join([_write_value(v) for v in obj]) + "]"
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return repr(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _write_value(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        return _write_value(dict(obj))
    if isinstance(obj, (list, tuple, np.ndarray)):
        return _write_value(obj.tolist() if isinstance(obj, np.ndarray) else list(obj))
    raise ValidationError(f"cannot serialize {type(obj).__name__}")


def dumps_json(obj) -> str:
    return _write_value(obj) + "\n"


def dump_json(obj, path) -> None:
    Path(path).write_text(dumps_json(obj), encoding="utf-8")


def load_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def potentials_to_csv(potentials: DualPotentials, path,
                      z_potential=None) -> None:
    """Rows of axis,index,value for U, V and (when present) the good
    potential W."""
    rows = [["axis", "index", "value"]]
    for name, vec in (("U", potentials.U), ("V", potentials.V),
                      ("W", z_potential)):
        if vec is not None:
            rows += [[name, str(i), _fmt(val)]
                     for i, val in enumerate(np.asarray(vec, dtype=float).tolist())]
    _write_rows(path, rows)


def potentials_from_csv(path) -> tuple[DualPotentials, np.ndarray | None]:
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != "axis,index,value":
        raise ValidationError("expected header 'axis,index,value'")
    buckets: dict[str, list[tuple[int, float]]] = {"U": [], "V": [], "W": []}
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 3 or parts[0] not in buckets:
            raise ValidationError(f"bad potentials row: {ln!r}")
        try:
            buckets[parts[0]].append((int(parts[1]), float(parts[2])))
        except ValueError as exc:
            raise ValidationError(f"bad potentials row: {ln!r}") from exc
    out = {}
    for name, rows in buckets.items():
        if not rows:
            out[name] = None
            continue
        idx = sorted(i for i, _ in rows)
        if idx != list(range(len(rows))):
            raise ValidationError(f"{name} indices are not 0..{len(rows) - 1}")
        vec = np.empty(len(rows))
        for i, val in rows:
            vec[i] = val
        out[name] = vec
    if out["U"] is None or out["V"] is None:
        raise ValidationError("potentials file must carry both U and V")
    return DualPotentials(out["U"], out["V"]), out["W"]
