"""Core domain objects: discrete measures, grids, couplings, payoff vectors.

Everything downstream (reduction, solvers, diagnostics) works with the types
defined here.  Validation is strict and raises semantic exceptions so callers
can distinguish bad input from solver trouble.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

import numpy as np

WEIGHT_SUM_TOL = 1e-12
HAND_BUILT_MARGINAL_TOL = 1e-12
SOLVER_MARGINAL_TOL = 1e-9

AXIS_ORDER = "xyz"


def grid_scale(grid: np.ndarray) -> float:
    """The scale that relative tolerances refer to: the range max − min of
    a reward or surplus grid, or its largest magnitude when it is constant."""
    return float(np.ptp(grid)) or float(np.abs(grid).max())


class ValidationError(ValueError):
    """Base class for input-contract violations."""


class NegativeWeight(ValidationError):
    pass


class WeightSumMismatch(ValidationError):
    pass


class DuplicatePoint(ValidationError):
    pass


class DimensionMismatch(ValidationError):
    pass


class BadAxes(ValidationError):
    pass


class Record:
    """A dataclass whose JSON form is its fields, each made plain by one
    rule: an array becomes .tolist(), a tuple a list (with its tuples made
    lists too), a dict gets string keys, and any other value stays as it
    is.  Dict values and rows stay as they are, so they must already be
    plain."""

    def to_dict(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}


def _plain(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return [list(v) if isinstance(v, tuple) else v for v in value]
    if isinstance(value, dict):
        return {str(k): v for k, v in value.items()}
    return value


def _as_points(points) -> np.ndarray:
    """Coerce point data to a float (n, d) array. 1-D input means d = 1."""
    try:
        arr = np.asarray(points, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DimensionMismatch(f"ragged or non-numeric point array: {exc}") from None
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise DimensionMismatch(f"points must be (n, d), got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("points must be finite")
    return arr


def validate_measure(points, weights) -> tuple[np.ndarray, np.ndarray]:
    """Canonicalize and validate (points, weights) for a probability measure.

    Returns (pts, w) as float arrays of shape (n, d) and (n,).  Raises
    NegativeWeight, WeightSumMismatch, DuplicatePoint, or DimensionMismatch.
    """
    pts = _as_points(points)
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.shape[0] != pts.shape[0]:
        raise DimensionMismatch(
            f"weights shape {w.shape} does not match {pts.shape[0]} points"
        )
    if not np.all(np.isfinite(w)):
        raise ValidationError("weights must be finite")
    if np.any(w < 0):
        bad = int(np.argmax(w < 0))
        raise NegativeWeight(f"weight[{bad}] = {w[bad]} is negative")
    total = float(np.sum(w))
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise WeightSumMismatch(f"weights sum to {total!r}, expected 1 +/- {WEIGHT_SUM_TOL}")
    seen: dict[tuple, int] = {}
    for idx, row in enumerate(pts):
        key = tuple(row.tolist())
        if key in seen:
            raise DuplicatePoint(f"points {seen[key]} and {idx} coincide at {key}")
        seen[key] = idx
    return pts, w


@dataclass(frozen=True, eq=False)
class DiscreteMeasure(Record):
    """Finitely supported probability measure: points (n, d), weights (n,)."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts, w = validate_measure(self.points, self.weights)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @classmethod
    def uniform(cls, points) -> "DiscreteMeasure":
        pts = _as_points(points)
        n = pts.shape[0]
        if n == 0:
            raise ValidationError("a measure needs at least one point")
        return cls(pts, np.full(n, 1.0 / n))


@dataclass(frozen=True)
class GridSpec(Record):
    """Affine 1-D grid: `count` points evenly spaced over [lower, upper]."""

    lower: float
    upper: float
    count: int

    def __post_init__(self):
        if int(self.count) != self.count or self.count < 1:
            raise ValidationError(f"count must be a positive integer, got {self.count}")
        object.__setattr__(self, "count", int(self.count))
        object.__setattr__(self, "lower", float(self.lower))
        object.__setattr__(self, "upper", float(self.upper))
        if self.count > 1 and not self.lower < self.upper:
            raise ValidationError(
                f"need lower < upper for count > 1, got [{self.lower}, {self.upper}]"
            )
        if self.count == 1 and self.lower > self.upper:
            raise ValidationError("need lower <= upper")

    def points(self) -> np.ndarray:
        """Grid nodes as an (count, 1) array."""
        return np.linspace(self.lower, self.upper, self.count).reshape(-1, 1)

    @property
    def step(self) -> float:
        if self.count == 1:
            return 0.0
        return (self.upper - self.lower) / (self.count - 1)


def as_point_array(obj) -> np.ndarray:
    """Accept a GridSpec or any point-like data; return a float (n, d) array."""
    if isinstance(obj, GridSpec):
        return obj.points()
    if isinstance(obj, DiscreteMeasure):
        return obj.points
    return _as_points(obj)


@dataclass(frozen=True, eq=False)
class DualPotentials(Record):
    """Buyer/seller payoff vectors U (over X) and V (over Y)."""

    U: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.U, dtype=float).reshape(-1)
        v = np.asarray(self.V, dtype=float).reshape(-1)
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
            raise ValidationError("potentials must be finite")
        object.__setattr__(self, "U", u)
        object.__setattr__(self, "V", v)


@dataclass(frozen=True, eq=False)
class Coupling:
    """Sparse coupling over index tuples into fixed marginal supports.

    `indices` is (m, arity) with arity 2 (X x Y) or 3 (X x Y x Z); `masses`
    is (m,) strictly positive.  Axis marginals must match the declared
    measures within `marginal_tol` (per-entry absolute difference).  For
    arity 3, `z_points` carries the good-type support and `alpha` optionally
    declares a prescribed Z marginal to validate against.
    """

    indices: np.ndarray
    masses: np.ndarray
    mu: DiscreteMeasure
    nu: DiscreteMeasure
    z_points: np.ndarray | None = None
    alpha: DiscreteMeasure | None = None
    marginal_tol: float = HAND_BUILT_MARGINAL_TOL

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        m = np.asarray(self.masses, dtype=float).reshape(-1)
        if idx.ndim != 2 or idx.shape[1] not in (2, 3):
            raise DimensionMismatch(f"indices must be (m, 2) or (m, 3), got {idx.shape}")
        if idx.shape[0] != m.shape[0]:
            raise DimensionMismatch("indices and masses disagree on entry count")
        if np.any(m < 0):
            raise NegativeWeight("coupling masses must be nonnegative")
        keep = m > 0.0
        idx, m = idx[keep], m[keep]
        order = np.lexsort(idx.T[::-1])
        idx, m = idx[order], m[order]
        if idx.shape[0] > 1 and np.any(np.all(idx[1:] == idx[:-1], axis=1)):
            raise DuplicatePoint("duplicate index tuple in coupling")
        arity = idx.shape[1]
        zp = self.z_points
        if arity == 3:
            if zp is None:
                raise DimensionMismatch("arity-3 coupling needs z_points")
            zp = _as_points(zp)
        elif zp is not None:
            raise DimensionMismatch("z_points only apply to arity-3 couplings")
        sizes = [self.mu.size, self.nu.size] + ([zp.shape[0]] if arity == 3 else [])
        for axis, n_ax in enumerate(sizes):
            col = idx[:, axis]
            if col.size and (col.min() < 0 or col.max() >= n_ax):
                raise DimensionMismatch(
                    f"axis {AXIS_ORDER[axis]} index out of range [0, {n_ax})"
                )
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "masses", m)
        object.__setattr__(self, "z_points", zp)
        self._check_marginals()

    def _check_marginals(self):
        tol = self.marginal_tol
        targets = [("x", self.mu.weights), ("y", self.nu.weights)]
        if self.arity == 3 and self.alpha is not None:
            if self.alpha.size != self.z_points.shape[0]:
                raise DimensionMismatch("alpha size does not match z_points")
            targets.append(("z", self.alpha.weights))
        for axis, target in targets:
            got = self.marginal_weights(axis)
            err = float(np.max(np.abs(got - target))) if target.size else 0.0
            if err > tol:
                raise WeightSumMismatch(
                    f"{axis}-marginal off by {err:.3e} (> {tol:.1e})"
                )

    @property
    def arity(self) -> int:
        return self.indices.shape[1]

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.masses))

    def _axis_pos(self, axis: str) -> int:
        if axis not in AXIS_ORDER:
            raise BadAxes(f"unknown axis {axis!r}; expected one of {AXIS_ORDER!r}")
        pos = AXIS_ORDER.index(axis)
        if pos >= self.arity:
            raise BadAxes(f"axis {axis!r} not present in arity-{self.arity} coupling")
        return pos

    def marginal_weights(self, axis: str) -> np.ndarray:
        """Summed mass per index along one axis ('x', 'y', or 'z')."""
        pos = self._axis_pos(axis)
        n_ax = [self.mu.size, self.nu.size, 0 if self.z_points is None else self.z_points.shape[0]][pos]
        out = np.zeros(n_ax)
        np.add.at(out, self.indices[:, pos], self.masses)
        return out

    def axis_points(self, axis: str) -> np.ndarray:
        pos = self._axis_pos(axis)
        return [self.mu.points, self.nu.points, self.z_points][pos]

    @classmethod
    def from_entries(cls, entries: Iterable[Sequence], mu: DiscreteMeasure,
                     nu: DiscreteMeasure, z_points=None, alpha=None,
                     marginal_tol: float = HAND_BUILT_MARGINAL_TOL) -> "Coupling":
        """Build from (i, j, mass) or (i, j, k, mass) tuples."""
        rows = [tuple(e) for e in entries]
        if not rows:
            raise ValidationError("coupling needs at least one entry")
        width = len(rows[0])
        if width not in (3, 4) or any(len(r) != width for r in rows):
            raise DimensionMismatch("entries must all be (i, j, mass) or (i, j, k, mass)")
        idx = np.array([r[:-1] for r in rows], dtype=np.int64)
        masses = np.array([r[-1] for r in rows], dtype=float)
        zp = None if z_points is None else as_point_array(z_points)
        return cls(idx, masses, mu, nu, z_points=zp, alpha=alpha,
                   marginal_tol=marginal_tol)

    def to_dict(self) -> dict:
        keys = ("i", "j", "k")[: self.arity]
        entries = []
        for row, mass in zip(self.indices, self.masses):
            e = {k: int(v) for k, v in zip(keys, row)}
            e["mass"] = float(mass)
            entries.append(e)
        return {"arity": self.arity, "entries": entries}

    @classmethod
    def from_dict(cls, data: dict, mu: DiscreteMeasure, nu: DiscreteMeasure,
                  z_points=None, alpha=None,
                  marginal_tol: float = HAND_BUILT_MARGINAL_TOL) -> "Coupling":
        try:
            arity, raw = data["arity"], data["entries"]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed coupling payload: {exc}") from None
        try:
            arity = _exact_int(arity)
        except (TypeError, ValueError, OverflowError):
            raise ValidationError(f"arity must be an integer, got {arity!r}") from None
        if arity not in (2, 3):
            raise DimensionMismatch(f"arity must be 2 or 3, got {arity}")
        keys = ("i", "j", "k")[:arity]
        entries = []
        for e in raw:
            try:
                idx = tuple(_exact_int(e[k]) for k in keys)
                entries.append(idx + (float(e["mass"]),))
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ValidationError(f"malformed coupling entry {e!r}: {exc}") from None
        return cls.from_entries(entries, mu, nu, z_points=z_points, alpha=alpha,
                                marginal_tol=marginal_tol)


def _exact_int(value) -> int:
    """value as an int; ValueError for a bool or a non-integral number, and
    TypeError, ValueError or OverflowError for a non-number."""
    n = int(value)
    if isinstance(value, bool) or value != n:
        raise ValueError(f"{value!r} is not an integer")
    return n


def _normalize_axes(axes) -> tuple[int, ...]:
    if isinstance(axes, str):
        labels = list(axes.lower())
    else:
        labels = [str(a).lower() for a in axes]
    if not labels:
        raise BadAxes("no axes given")
    pos = []
    for lab in labels:
        if lab not in AXIS_ORDER:
            raise BadAxes(f"unknown axis {lab!r}; expected subset of x, y, z")
        p = AXIS_ORDER.index(lab)
        if p in pos:
            raise BadAxes(f"axis {lab!r} repeated")
        pos.append(p)
    return tuple(sorted(pos))


def project(coupling: Coupling, axes) -> "DiscreteMeasure | Coupling":
    """Push a coupling forward onto a proper subset of its axes.

    One axis gives a DiscreteMeasure on that axis's support; two axes give an
    arity-2 Coupling whose mu/nu slots hold the first/second retained axis.
    """
    pos = _normalize_axes(axes)
    if max(pos) >= coupling.arity:
        raise BadAxes(f"axis beyond arity-{coupling.arity} coupling")
    if len(pos) >= coupling.arity:
        raise BadAxes("axes must be a proper subset; projection must drop something")

    axis_meas = [coupling.mu, coupling.nu, None]
    if len(pos) == 1:
        axis = AXIS_ORDER[pos[0]]
        pts = coupling.axis_points(axis)
        return DiscreteMeasure(pts, coupling.marginal_weights(axis))

    a, b = pos
    sub = coupling.indices[:, [a, b]]
    uniq, inv = np.unique(sub, axis=0, return_inverse=True)
    masses = np.zeros(uniq.shape[0])
    np.add.at(masses, inv, coupling.masses)

    def measure_for(p: int) -> DiscreteMeasure:
        if axis_meas[p] is not None:
            return axis_meas[p]
        axis = AXIS_ORDER[p]
        return DiscreteMeasure(coupling.axis_points(axis), coupling.marginal_weights(axis))

    return Coupling(uniq, masses, measure_for(a), measure_for(b),
                    marginal_tol=coupling.marginal_tol)


def coupling_objective(coupling: Coupling, surplus) -> float:
    """Total surplus of a coupling, as a correctly rounded sum.

    For arity 2, `surplus` is an (n_x, n_y) reward matrix.  For arity 3 it is
    a SurplusModel evaluated at the support points.
    """
    if coupling.arity == 2:
        mat = np.asarray(surplus, dtype=float)
        if mat.ndim != 2 or mat.shape[0] < coupling.mu.size or mat.shape[1] < coupling.nu.size:
            raise DimensionMismatch(
                f"reward matrix {mat.shape} too small for coupling supports"
            )
        vals = mat[coupling.indices[:, 0], coupling.indices[:, 1]]
    else:
        xs = coupling.mu.points[coupling.indices[:, 0]]
        ys = coupling.nu.points[coupling.indices[:, 1]]
        zs = coupling.z_points[coupling.indices[:, 2]]
        vals = surplus.value_batch(xs, ys, zs)
    return math.fsum(coupling.masses * vals)


# --- CSV interchange -------------------------------------------------------

def measure_to_csv(measure: DiscreteMeasure, path) -> None:
    """Write a measure as x1..xd,weight rows (header included)."""
    header = [f"x{i + 1}" for i in range(measure.dim)] + ["weight"]
    _write_rows(path, [header] + [[_fmt(v) for v in row] + [_fmt(w)]
                                  for row, w in zip(measure.points, measure.weights)])


def measure_from_csv(path) -> DiscreteMeasure:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty measure file") from None
        if not header or header[-1].strip() != "weight":
            raise ValidationError(f"{path}: expected header x1..xd,weight")
        d = len(header) - 1
        if d < 1 or any(h.strip() != f"x{i + 1}" for i, h in enumerate(header[:-1])):
            raise ValidationError(f"{path}: expected header x1..xd,weight, got {header}")
        pts, ws = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != d + 1:
                raise ValidationError(f"{path}:{lineno}: expected {d + 1} fields")
            try:
                pts.append([float(v) for v in row[:-1]])
                ws.append(float(row[-1]))
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from None
    if not pts:
        raise ValidationError(f"{path}: no data rows")
    return DiscreteMeasure(np.array(pts), np.array(ws))


def _fmt(value: float) -> str:
    """Deterministic float formatting shared by every CSV/JSON writer."""
    return "%.17g" % value


def _write_rows(path, rows) -> None:
    """Write rows of formatted fields as comma-separated lines, each ended by
    a newline: every CSV writer's one format.  No field needs quoting.  rows
    may be a generator; each row is written as it is made."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(",".join(row) + "\n" for row in rows)
