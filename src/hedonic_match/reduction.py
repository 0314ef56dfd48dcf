"""Reduced surplus over goods and the c-transform operators.

The two-step route to the hybrid problem: collapse z by maximizing,
    sbar(x, y) = max_z s(x, y, z),
remember which z attained it, then match buyers to sellers on sbar.  The
c-transforms build dual-feasible payoff pairs by the same maximization and
drive the duality arguments.  Each pass folds the surplus grid one block of
x rows at a time (SurplusModel._grid_blocks), so none holds the full
n_x × n_y × n_z array.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .core import ValidationError, _fmt, as_point_array, grid_scale

TIE_TOL = 1e-10  # a fraction of the range of the reduced values


class EmptyGrid(ValidationError):
    pass


@dataclass(frozen=True, eq=False)
class ReducedSurplus:
    """Dense reduction of s over a Z point set.

    values[i, j]   = max_k s(x_i, y_j, z_k), taken verbatim from the grid scan
    argmax[i, j]   = smallest k attaining the max
    tie[i, j]      = another k comes within tie_tol (absolute) of the max
    boundary[i, j] = the argmax z sits on the bounding box of the Z set
    lowest         = min_{i,j,k} s(x_i, y_j, z_k), the other end of the grid
    """

    values: np.ndarray
    argmax: np.ndarray
    tie: np.ndarray
    boundary: np.ndarray
    z_points: np.ndarray
    lowest: float
    tie_tol: float = TIE_TOL

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    @property
    def grid_scale(self) -> float:
        """grid_scale of the full grid, from its two ends."""
        return grid_scale(np.array([self.lowest, self.values.max()]))

    @property
    def any_tie(self) -> bool:
        return bool(np.any(self.tie))

    @property
    def any_boundary(self) -> bool:
        return bool(np.any(self.boundary))

    def selected_z(self, i: int, j: int) -> np.ndarray:
        return self.z_points[self.argmax[i, j]]

    def residual(self, U, V) -> np.ndarray:
        """fl(fl(sbar − U) − V): subtraction is monotone, so each entry is,
        bit for bit, the largest residual s − U − V of the pair's z-column."""
        out = self.values - U[:, None]
        out -= V[None, :]
        return out

    def to_dict(self) -> dict:
        return {
            "values": self.values.tolist(),
            "argmax": self.argmax.tolist(),
            "tie": self.tie.astype(int).tolist(),
            "boundary": self.boundary.astype(int).tolist(),
            "tie_tol": self.tie_tol,
        }


def _require_points(obj, label: str) -> np.ndarray:
    pts = as_point_array(obj)
    if pts.shape[0] == 0:
        raise EmptyGrid(f"{label} grid is empty")
    return pts


def reduce(s, xs, ys, zs, tie_tol: float = TIE_TOL) -> ReducedSurplus:
    """Maximize s over the Z set for every (x, y) pair.

    Ties resolve to the smallest z-index; the tie flag marks pairs where a
    second index lands within tie_tol of the max; tie_tol is a fraction of
    the reduced values' range, given in absolute units in the result.  The
    boundary flag marks argmaxes on the bounding box of Z, where the discrete
    first-order condition says nothing.
    """
    X = _require_points(xs, "X")
    Y = _require_points(ys, "Y")
    Z = _require_points(zs, "Z")
    best = np.empty((X.shape[0], Y.shape[0]), dtype=np.intp)
    values = np.empty(best.shape)
    # the largest value once the argmax is struck out, -inf when nz = 1: a
    # second index comes within tie_tol exactly when this one does
    second = np.empty(best.shape)
    lows = []
    for lo, grid in s._grid_blocks(X, Y, Z):
        rows = slice(lo, lo + grid.shape[0])
        lows.append(grid.min())
        arg = np.argmax(grid, axis=2)[:, :, None]
        best[rows] = arg[:, :, 0]
        values[rows] = np.take_along_axis(grid, arg, axis=2)[:, :, 0]
        np.put_along_axis(grid, arg, -np.inf, axis=2)
        np.max(grid, axis=2, out=second[rows])
    tie_tol = tie_tol * grid_scale(values)
    tie = second >= values - tie_tol
    lo = Z.min(axis=0)
    hi = Z.max(axis=0)
    sel = Z[best]
    on_box = np.any((sel == lo) | (sel == hi), axis=2)
    return ReducedSurplus(values=values, argmax=best, tie=tie, boundary=on_box,
                          z_points=Z, lowest=float(np.min(lows)), tie_tol=tie_tol)


def c_transform_V(s, V, xs, ys, zs) -> np.ndarray:
    """Buyer payoffs from seller payoffs: U(x) = max_{y,z} s(x,y,z) - V(y).

    The pair (output, V) is dual-feasible on the grid by construction, with
    equality where the max is attained.
    """
    X = _require_points(xs, "X")
    Y = _require_points(ys, "Y")
    Z = _require_points(zs, "Z")
    V = np.asarray(V, dtype=float).reshape(-1)
    if V.shape[0] != Y.shape[0]:
        raise ValidationError(f"V has {V.shape[0]} entries for {Y.shape[0]} y-points")
    if not np.all(np.isfinite(V)):
        raise ValidationError("V must be finite")
    U = np.empty(X.shape[0])
    for lo, grid in s._grid_blocks(X, Y, Z):
        grid -= V[None, :, None]
        np.max(grid, axis=(1, 2), out=U[lo:lo + grid.shape[0]])
    return U


def c_transform_U(s, U, xs, ys, zs) -> np.ndarray:
    """Seller payoffs from buyer payoffs: V(y) = max_{x,z} s(x,y,z) - U(x)."""
    X = _require_points(xs, "X")
    Y = _require_points(ys, "Y")
    Z = _require_points(zs, "Z")
    U = np.asarray(U, dtype=float).reshape(-1)
    if U.shape[0] != X.shape[0]:
        raise ValidationError(f"U has {U.shape[0]} entries for {X.shape[0]} x-points")
    if not np.all(np.isfinite(U)):
        raise ValidationError("U must be finite")
    V = np.full(Y.shape[0], -np.inf)
    for lo, grid in s._grid_blocks(X, Y, Z):
        grid -= U[lo:lo + grid.shape[0], None, None]
        np.maximum(V, np.max(grid, axis=(0, 2)), out=V)
    return V


def reduced_to_csv(reduced: ReducedSurplus, path) -> None:
    """Write rows (i, j, sbar, z_index, tie_flag)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["i", "j", "sbar", "z_index", "tie_flag"])
        n_x, n_y = reduced.shape
        for i in range(n_x):
            for j in range(n_y):
                writer.writerow([i, j, _fmt(reduced.values[i, j]),
                                 int(reduced.argmax[i, j]),
                                 int(reduced.tie[i, j])])
