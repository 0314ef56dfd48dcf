"""Reduced surplus over goods and the c-transform operators.

The two-step route to the hybrid problem: collapse z by maximizing,
    sbar(x, y) = max_z s(x, y, z),
remember which z attained it, then match buyers to sellers on sbar.  _fold
is the package's one fold of the surplus grid over goods, one block of x
rows at a time (SurplusModel._grid_blocks): reduce holds no more than a
block, and _reduce_bytes counts it by the same rule, surplus._block_rows.
_fold reads a C-contiguous, writeable block as one row of goods a pair and
as a flat view of the same memory: a row-wise argmax finds each pair's best
good, its flat index gathers the value and strikes it to -inf, and a second
argmax finds the runner-up.  After the loop, tie is compared one block of
rows at a time, and boundary gathers a bounding-box flag per good at each
pair's argmax, so the fold peaks at the reduction and one block.  Both
free-z methods solve their pair LP on its values, and the fixed-alpha LP
prices by _residual_fold, the one pass of s − U ⊕ V ⊕ W over the grid.  The
c-transforms are maxima of the reduction's residual.  reduce checks its
estimate against LP_BYTES_LIMIT; every route adds to that one sum.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import ValidationError, _fmt, _write_rows, as_point_array, grid_scale
from .surplus import _block_rows

TIE_TOL = 1e-10  # a fraction of the range of the reduced values
LP_BYTES_LIMIT = 1 << 30  # the most a reduction, or a solve, may plan to hold


class EmptyGrid(ValidationError):
    pass


class TooLarge(ValidationError):
    pass


def _check_bytes(need: int, problem: str, parts: str) -> None:
    """TooLarge, naming the estimate in MiB, when need > LP_BYTES_LIMIT."""
    if need > LP_BYTES_LIMIT:
        raise TooLarge(f"the {problem} needs about {need / 2**20:,.0f} MiB for {parts} "
                       f"(limit {LP_BYTES_LIMIT / 2**20:,.0f} MiB)")


def _reduce_bytes(nx: int, ny: int, nz: int) -> int:
    """From above, the most a reduction costs its caller: the reduction (26
    bytes a pair), the float a pair of work array that every consumer makes
    (a transport pricing buffer or a residual), and a grid block with its
    kernel's temporaries, four words a cell of min(nx, _block_rows(ny·nz)) x
    rows.  The fold's loop holds the block (a C-order copy too, while it is
    made) and four intp arrays the size of the block's pairs: within the four
    words a cell when nz ≥ 2, and within them and the pair terms not yet in
    use when nz = 1.  After the loop, a tie block's float a pair sits within
    the work array, which is not yet made.  The size of a good is not a
    term.  Not counted: some kilobytes of fixed overhead, which exceed the
    estimate only on grids of a few hundred cells."""
    return 34 * nx * ny + 32 * min(nx, _block_rows(ny * nz)) * ny * nz


@dataclass(frozen=True, eq=False)
class ReducedSurplus:
    """Dense reduction of s over a Z point set.

    values[i, j]   = max_k s(x_i, y_j, z_k), taken verbatim from the grid scan
    argmax[i, j]   = smallest k attaining the max
    second[i, j]   = the largest value once that k is struck out, read at
                     the first index attaining it; -inf when there is one good
    tie[i, j]      = another k comes within tie_tol (absolute) of the max
    boundary[i, j] = the argmax z sits on the bounding box of the Z set
    lowest         = min_{i,j,k} s(x_i, y_j, z_k), the other end of the grid
    """

    values: np.ndarray
    argmax: np.ndarray
    second: np.ndarray
    tie: np.ndarray
    boundary: np.ndarray
    z_points: np.ndarray
    lowest: float
    tie_tol: float

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

    def c_transform_V(self, V) -> np.ndarray:
        """Buyer payoffs from seller payoffs: U(x) = max_{y,z} s(x,y,z) - V(y).

        The pair (output, V) is dual-feasible on the grid by construction,
        with equality where the max is attained.  Row maxima of the
        residual, bit for bit those of s - V over the grid.
        """
        V = _payoffs(V, self.shape[1], "V", "y")
        return self.residual(np.zeros(self.shape[0]), V).max(axis=1)

    def c_transform_U(self, U) -> np.ndarray:
        """Seller payoffs from buyer payoffs: V(y) = max_{x,z} s(x,y,z) - U(x)."""
        U = _payoffs(U, self.shape[0], "U", "x")
        return self.residual(U, np.zeros(self.shape[1])).max(axis=0)

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


def _fold(blocks, shape: tuple[int, int], Z: np.ndarray) -> ReducedSurplus:
    """The reduction from (lo, block) pairs, block[a] = s(X[lo + a], Y, Z),
    that cover the x rows of the grid; a C-contiguous, writeable block is
    overwritten, and any other is copied first."""
    best = np.empty(shape, dtype=np.intp)
    values = np.empty(shape)
    # a second index comes within tie_tol exactly when the runner-up does
    second = np.empty(shape)
    lows = []
    for lo, grid in blocks:
        grid = np.require(grid, requirements="CW")
        pairs = grid.shape[:2]
        cells = grid.reshape(-1, grid.shape[2])
        flat = grid.reshape(-1)
        start = np.arange(0, flat.size, grid.shape[2])
        rows = slice(lo, lo + pairs[0])
        lows.append(grid.min())
        at = cells.argmax(axis=1)
        best[rows] = at.reshape(pairs)
        at += start  # the flat index of each pair's max
        values[rows] = flat[at].reshape(pairs)
        flat[at] = -np.inf
        second[rows] = flat[start + cells.argmax(axis=1)].reshape(pairs)
    tie_tol = TIE_TOL * grid_scale(values)
    tie = np.empty(shape, dtype=bool)
    step = _block_rows(shape[1])
    for lo in range(0, shape[0], step):
        rows = slice(lo, lo + step)
        np.greater_equal(second[rows], values[rows] - tie_tol, out=tie[rows])
    on_box = np.any((Z == Z.min(axis=0)) | (Z == Z.max(axis=0)), axis=1)
    return ReducedSurplus(values=values, argmax=best, second=second, tie=tie,
                          boundary=on_box[best], z_points=Z, lowest=float(np.min(lows)),
                          tie_tol=tie_tol)


def reduce(s, xs, ys, zs) -> ReducedSurplus:
    """Maximize s over the Z set for every (x, y) pair.

    Ties resolve to the smallest z-index; the tie flag marks pairs where a
    second index lands within TIE_TOL of the max; TIE_TOL is a fraction of
    the reduced values' range, given in absolute units in the result.  The
    boundary flag marks argmaxes on the bounding box of Z, where the discrete
    first-order condition says nothing.  TooLarge, before anything is
    allocated, when _reduce_bytes exceeds LP_BYTES_LIMIT.
    """
    X = _require_points(xs, "X")
    Y = _require_points(ys, "Y")
    Z = _require_points(zs, "Z")
    _check_bytes(_reduce_bytes(len(X), len(Y), len(Z)),
                 f"{len(X)}x{len(Y)} reduction over {len(Z)} goods", "its fold and work array")
    return _fold(s._grid_blocks(X, Y, Z), (X.shape[0], Y.shape[0]), Z)


@dataclass(frozen=True, eq=False)
class ResidualPass:
    """What one pass of s − U ⊕ V ⊕ W over the grid found (_residual_fold).

    peak, cell     = the largest residual off the masked cells (or the first
                     NaN) and its first flat cell
    lowest, highest = the extremes of s over the grid
    cells, values  = the flat cells whose residual exceeds the floor, the
                     `most` largest of them, in ascending order, and s there
    """

    peak: float
    cell: int
    lowest: float
    highest: float
    cells: np.ndarray
    values: np.ndarray


def _residual_fold(s, X, Y, Z, U, V, W, floor: float = np.inf,
                   masked=(), most: float = np.inf) -> ResidualPass:
    """One pass over s._grid_blocks of the residual s − U − V − W, subtracted
    in that order, one block of x rows at a time; the flat cells in masked
    read -inf.  The blocks are bit for bit the rows of the full grid, and so
    is each residual.  Of the cells above floor it keeps the `most` of
    largest residual (which of equal ones is not specified), so that it
    holds no more than those and one block."""
    per_row = Y.shape[0] * Z.shape[0]
    masked = np.sort(np.asarray(masked, dtype=np.intp))
    peaks, lows, highs = [], [], []
    cells, values, above = np.empty(0, dtype=np.intp), np.empty(0), np.empty(0)
    for lo, block in s._grid_blocks(X, Y, Z):
        first = lo * per_row
        lows.append(block.min())
        highs.append(block.max())
        res = block - U[lo:lo + block.shape[0], None, None]
        res -= V[None, :, None]
        res -= W
        res = res.reshape(-1)
        a, b = np.searchsorted(masked, (first, first + res.size))
        res[masked[a:b] - first] = -np.inf
        hit = np.flatnonzero(res > floor)
        cells = np.concatenate([cells, first + hit])
        values = np.concatenate([values, block.reshape(-1)[hit]])
        above = np.concatenate([above, res[hit]])
        if above.size > most:
            keep = np.argpartition(above, above.size - most)[above.size - most:]
            cells, values, above = cells[keep], values[keep], above[keep]
        t = int(np.argmax(res))
        peaks.append((res[t], first + t))
    # np.argmax keeps the first of equal block maxima, and the first NaN
    peak, cell = peaks[int(np.argmax([p[0] for p in peaks]))]
    order = np.argsort(cells)
    return ResidualPass(peak=float(peak), cell=cell, lowest=float(np.min(lows)),
                        highest=float(np.max(highs)), cells=cells[order],
                        values=values[order])


def _payoffs(P, n: int, label: str, axis: str) -> np.ndarray:
    P = np.asarray(P, dtype=float).reshape(-1)
    if P.shape[0] != n:
        raise ValidationError(f"{label} has {P.shape[0]} entries for {n} {axis}-points")
    if not np.all(np.isfinite(P)):
        raise ValidationError(f"{label} must be finite")
    return P


def reduced_to_csv(reduced: ReducedSurplus, path) -> None:
    """Write rows (i, j, sbar, z_index, tie_flag), made one x row at a time."""
    rows = ([str(i), str(j), _fmt(v), str(k), str(int(t))]
            for i in range(reduced.shape[0])
            for j, (v, k, t) in enumerate(zip(reduced.values[i].tolist(),
                                               reduced.argmax[i].tolist(),
                                               reduced.tie[i].tolist())))
    _write_rows(path, itertools.chain([["i", "j", "sbar", "z_index", "tie_flag"]], rows))
