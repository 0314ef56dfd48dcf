"""Surplus models s(x,y,z) with exact derivatives and signature analysis.

Families
--------
- Bilinear:        s = xᵀAy + xᵀBz + yᵀCz + zᵀDz + f(x) + g(y) + h(z)
- Counterexample:  1-D, u = xy + xz, v = -yz - a z²  (non-pure at a = 1/2)
- ExpCos:          2-D exponential/cosine surplus with signature (2,4,0)
- Supermodular1D:  s = scale · x^p y^q z^r on 1-D axes
- StrictlyHedonic: s = u(x,z) + v(y,z), no direct x-y interaction
- Tabulated:       dense value grid, finite-difference derivatives

Each family implements three broadcasting kernels over points of shape
(..., d) on each axis: _kernel gives s, _grad the gradients (D_x s, D_y s,
D_z s) and _hess the mixed blocks (D²xy s, D²xz s, D²yz s); a family that
splits s = u(x, z) + v(y, z) adds _uv for (u, v).  SurplusModel derives the
scalar, row-paired and product-grid evaluators, the scalar derivative
methods and value_u/value_v from them, so every form rounds identically.
Matrix terms are stacked matmuls, which round like M @ p for a single point.

The G matrix stacks the mixed Hessian blocks with zero diagonal blocks; its
eigenvalue signature bounds the dimension of any stable support.  Eigenvalues
come from numpy.linalg.eigvalsh and count as zero below a threshold relative
to the largest one.  A block counts as singular when its smallest singular
value is at most PIVOT_REL_TOL times its largest; numpy.linalg inverts the
others.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly

from .core import DimensionMismatch, ValidationError, as_point_array

ZERO_EIG_REL = 1e-9
PIVOT_REL_TOL = 1e-10
# cells per row block of _grid_blocks: 512 KiB of float64, so a fold's
# working set stays bounded whatever the size of the full grid
_GRID_BLOCK_CELLS = 1 << 16


class OutOfGrid(ValidationError):
    pass


class ShapeMismatch(ValidationError):
    pass


class MissingUV(ValidationError):
    """Raised when buyer/seller utilities are requested from an s-only model."""


class SingularBlock(RuntimeError):
    """A matrix block failed the relative singularity threshold."""


# --- polynomial terms ------------------------------------------------------

def _canon_poly(coeffs, dim: int, label: str) -> list[np.ndarray]:
    """Normalize polynomial input to one ascending coefficient array per axis
    component.  Accepts None, a flat list (1-D axis only), or a list of lists.
    """
    if coeffs is None:
        return [np.zeros(1) for _ in range(dim)]
    arr = list(coeffs)
    if arr and all(np.isscalar(c) for c in arr):
        if dim != 1:
            raise ShapeMismatch(f"{label}: flat coefficient list needs a 1-D axis")
        arr = [arr]
    if len(arr) != dim:
        raise ShapeMismatch(f"{label}: expected {dim} coefficient lists, got {len(arr)}")
    out = []
    for comp in arr:
        c = np.asarray(comp, dtype=float).reshape(-1)
        if c.size == 0:
            c = np.zeros(1)
        out.append(c)
    return out


def _poly_val(polys: list[np.ndarray], pts: np.ndarray):
    """Σ_d polys[d](pts[..., d]) over points of shape (..., d)."""
    total = 0.0
    for d, c in enumerate(polys):
        total = total + npoly.polyval(pts[..., d], c)
    return total


def _poly_der(polys: list[np.ndarray], pts: np.ndarray) -> np.ndarray:
    """Gradient of Σ_d polys[d](p_d) over points of shape (..., d)."""
    return np.stack([npoly.polyval(pts[..., d], npoly.polyder(c))
                     for d, c in enumerate(polys)], axis=-1)


def _polys_to_jsonable(polys: list[np.ndarray]):
    lists = [p.tolist() for p in polys]
    if all(lst == [0.0] for lst in lists):
        return None
    if len(lists) == 1:
        return lists[0]
    return lists


def _pair(P: np.ndarray, M: np.ndarray, Q: np.ndarray):
    """pᵀMq over points of shape (..., d), as Σ_e (Σ_d p_d M_de) q_e summed
    in index order.  Only elementwise operations, so every leading shape
    rounds the same way."""
    total = None
    for e in range(M.shape[1]):
        pm = P[..., 0] * M[0, e]
        for d in range(1, M.shape[0]):
            pm = pm + P[..., d] * M[d, e]
        total = pm * Q[..., e] if total is None else total + pm * Q[..., e]
    return total


def _mv(M: np.ndarray, P: np.ndarray) -> np.ndarray:
    """M p over points of shape (..., d) as a stacked matmul."""
    return (M @ P[..., None])[..., 0]


def _lead(*arrays) -> tuple:
    """Broadcast leading shape of point arrays of shape (..., d)."""
    return np.broadcast_shapes(*(a.shape[:-1] for a in arrays))


def _sum_in_place(lead: tuple, *terms) -> np.ndarray:
    """Σ terms left to right in one output array of the leading shape, so a
    grid holds no second full-size temporary (a - b rounds as a + (-b))."""
    out = np.add(terms[0], terms[1], out=np.empty(lead))
    for term in terms[2:]:
        out += term
    return out


def _broadcast(*arrays) -> tuple:
    """Point arrays broadcast to their common leading shape."""
    lead = _lead(*arrays)
    return tuple(np.broadcast_to(a, lead + a.shape[-1:]) for a in arrays)


def _vec(lead: tuple, entries) -> np.ndarray:
    """Entries broadcast to the leading shape, stacked on a last axis."""
    return np.stack([np.broadcast_to(e, lead) for e in entries], axis=-1)


def _mat(lead: tuple, rows) -> np.ndarray:
    """Rows of entries (or a matrix) broadcast to the leading shape:
    (*lead, rows, cols)."""
    return np.stack([_vec(lead, row) for row in rows], axis=-2)


def _canon_point(p, want: int, axis: str) -> np.ndarray:
    """One point as a flat float array; DimensionMismatch unless it has want
    coordinates."""
    arr = np.atleast_1d(np.asarray(p, dtype=float)).reshape(-1)
    if arr.shape[0] != want:
        raise DimensionMismatch(
            f"{axis}-coordinate has dimension {arr.shape[0]}, model wants {want}")
    return arr


def _snap(nodes, points, labels: str) -> tuple:
    """Per axis, the index of the node each 1-D point sits on (snap tolerance
    1e-8 relative to the node span); OutOfGrid when any is off the nodes."""
    out = []
    for n, P, label in zip(nodes, points, labels):
        q = P[..., 0]
        idx = np.argmin(np.abs(n - q[..., None]), axis=-1)
        span = float(n[-1] - n[0]) if n.size > 1 else 1.0
        off = ~(np.abs(n[idx] - q) <= 1e-8 * (1.0 + abs(span)))
        if np.any(off):
            raise OutOfGrid(f"{label} = {q[off].flat[0]} is not a grid node")
        out.append(idx)
    return tuple(out)


# --- base model ------------------------------------------------------------

class SurplusModel:
    """Base class.  Subclasses provide dims and three broadcasting kernels
    over points X, Y, Z of shape (..., d_x), (..., d_y), (..., d_z) whose
    leading axes broadcast together to a shape L:

    - _kernel(X, Y, Z): s, of shape L;
    - _grad(X, Y, Z): (D_x s, D_y s, D_z s), each of shape (*L, d_axis);
    - _hess(X, Y, Z): (D²xy s, D²xz s, D²yz s), each of shape (*L, d_a, d_b).

    Models that split s = u(x, z) + v(y, z) also provide _uv(X, Y, Z),
    giving (u, v), each broadcasting to shape L, and _grad_v_z(Y, Z).  Every
    public evaluator and derivative calls these.
    """

    family = "custom"

    @property
    def dims(self) -> tuple[int, int, int]:
        raise NotImplementedError

    def _canon(self, p, axis: str) -> np.ndarray:
        return _canon_point(p, self.dims["xyz".index(axis)], axis)

    def _canon_grid(self, pts, axis: str) -> np.ndarray:
        arr = as_point_array(pts)
        want = self.dims["xyz".index(axis)]
        if arr.shape[1] != want:
            raise DimensionMismatch(
                f"{axis}-grid has dimension {arr.shape[1]}, model wants {want}"
            )
        return arr

    def _point(self, x, y, z) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._canon(x, "x"), self._canon(y, "y"), self._canon(z, "z")

    def _kernel(self, X, Y, Z) -> np.ndarray:
        raise NotImplementedError

    def _grad(self, X, Y, Z) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        raise NotImplementedError

    def _hess(self, X, Y, Z) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        raise NotImplementedError

    def _uv(self, X, Y, Z) -> tuple[np.ndarray, np.ndarray]:
        raise MissingUV(f"{self.family} model has no separate u and v")

    def _grad_v_z(self, Y, Z) -> np.ndarray:
        raise MissingUV(f"{self.family} model has no separate seller utility")

    @property
    def has_uv(self) -> bool:
        """Whether the model defines _uv, the split s = u + v."""
        return type(self)._uv is not SurplusModel._uv

    def value(self, x, y, z) -> float:
        return float(self._kernel(*self._point(x, y, z)))

    def grad_x(self, x, y, z) -> np.ndarray:
        return self._grad(*self._point(x, y, z))[0]

    def grad_y(self, x, y, z) -> np.ndarray:
        return self._grad(*self._point(x, y, z))[1]

    def grad_z(self, x, y, z) -> np.ndarray:
        return self._grad(*self._point(x, y, z))[2]

    def hessian_blocks(self, x, y, z) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Mixed second-derivative blocks (D²xy s, D²xz s, D²yz s)."""
        return self._hess(*self._point(x, y, z))

    def grad_v_z(self, x, y, z) -> np.ndarray:
        """D_z v, the good gradient of the seller utility."""
        return self._grad_v_z(self._canon(y, "y"), self._canon(z, "z"))

    def value_batch(self, xs, ys, zs) -> np.ndarray:
        """Row-paired evaluation s(xs[i], ys[i], zs[i])."""
        X = self._canon_grid(xs, "x")
        Y = self._canon_grid(ys, "y")
        Z = self._canon_grid(zs, "z")
        if not X.shape[0] == Y.shape[0] == Z.shape[0]:
            raise DimensionMismatch("value_batch needs equal-length point lists")
        return self._kernel(X, Y, Z)

    def value_grid(self, xs, ys, zs) -> np.ndarray:
        """Dense (n_x, n_y, n_z) evaluation over a product grid."""
        X = self._canon_grid(xs, "x")
        Y = self._canon_grid(ys, "y")
        Z = self._canon_grid(zs, "z")
        return self._kernel(X[:, None, None], Y[None, :, None], Z[None, None, :])

    def _grid_blocks(self, xs, ys, zs):
        """Yield (lo, value_grid(X[lo:lo + rows], Y, Z)) over blocks of X rows
        of at most _GRID_BLOCK_CELLS cells (one row at least).  The kernels
        are elementwise, so the blocks are bit for bit the rows of the full
        grid; a caller folds each block before it asks for the next."""
        X = self._canon_grid(xs, "x")
        Y = self._canon_grid(ys, "y")
        Z = self._canon_grid(zs, "z")
        rows = max(1, _GRID_BLOCK_CELLS // max(1, Y.shape[0] * Z.shape[0]))
        for lo in range(0, X.shape[0], rows):
            yield lo, self.value_grid(X[lo:lo + rows], Y, Z)

    def value_u(self, x, y, z) -> float:
        return float(self._uv(*self._point(x, y, z))[0])

    def value_v(self, x, y, z) -> float:
        return float(self._uv(*self._point(x, y, z))[1])

    def to_dict(self) -> dict:
        raise NotImplementedError


class BilinearSurplus(SurplusModel):
    """s = xᵀAy + xᵀBz + yᵀCz + zᵀDz + f(x) + g(y) + h(z).

    f, g, h are ascending polynomial coefficient lists (per axis component),
    so all derivatives stay exact.
    """

    family = "bilinear"

    def __init__(self, A, B, C, D=None, f=None, g=None, h=None):
        self.A = np.atleast_2d(np.asarray(A, dtype=float))
        self.B = np.atleast_2d(np.asarray(B, dtype=float))
        self.C = np.atleast_2d(np.asarray(C, dtype=float))
        nx, ny = self.A.shape
        if self.B.shape[0] != nx:
            raise ShapeMismatch(f"B has {self.B.shape[0]} rows, A has {nx}")
        nz = self.B.shape[1]
        if self.C.shape != (ny, nz):
            raise ShapeMismatch(f"C shape {self.C.shape}, expected ({ny}, {nz})")
        self.D = (np.zeros((nz, nz)) if D is None
                  else np.atleast_2d(np.asarray(D, dtype=float)))
        if self.D.shape != (nz, nz):
            raise ShapeMismatch(f"D shape {self.D.shape}, expected ({nz}, {nz})")
        self._dims = (nx, ny, nz)
        self.f = _canon_poly(f, nx, "f")
        self.g = _canon_poly(g, ny, "g")
        self.h = _canon_poly(h, nz, "h")

    @property
    def dims(self):
        return self._dims

    def _kernel(self, X, Y, Z):
        return _sum_in_place(_lead(X, Y, Z), _pair(X, self.A, Y), _pair(X, self.B, Z),
                             _pair(Y, self.C, Z), _pair(Z, self.D, Z),
                             _poly_val(self.f, X), _poly_val(self.g, Y),
                             _poly_val(self.h, Z))

    def _grad(self, X, Y, Z):
        return (_mv(self.A, Y) + _mv(self.B, Z) + _poly_der(self.f, X),
                _mv(self.A.T, X) + _mv(self.C, Z) + _poly_der(self.g, Y),
                _mv(self.B.T, X) + _mv(self.C.T, Y) + _mv(self.D + self.D.T, Z)
                + _poly_der(self.h, Z))

    def _hess(self, X, Y, Z):
        lead = _lead(X, Y, Z)
        return _mat(lead, self.A), _mat(lead, self.B), _mat(lead, self.C)

    def to_dict(self) -> dict:
        out = {
            "family": self.family,
            "A": self.A.tolist(),
            "B": self.B.tolist(),
            "C": self.C.tolist(),
            "D": self.D.tolist(),
        }
        for key, polys in (("f", self.f), ("g", self.g), ("h", self.h)):
            payload = _polys_to_jsonable(polys)
            if payload is not None:
                out[key] = payload
        return out


class CounterexampleSurplus(SurplusModel):
    """1-D family u = xy + xz, v = -yz - a z².

    At a = 1/2 the surplus factors as x²/2 + y²/2 - (x-y-z)²/2, so any
    coupling on the plane x = y + z is stable and the matching is not pure.
    """

    family = "counterexample"

    def __init__(self, a: float = 0.5):
        self.a = float(a)

    @property
    def dims(self):
        return (1, 1, 1)

    def _kernel(self, X, Y, Z):
        x, y, z = X[..., 0], Y[..., 0], Z[..., 0]
        out = x * y + x * z
        out -= y * z
        out -= self.a * z * z
        return out

    def _grad(self, X, Y, Z):
        x, y, z = X[..., 0], Y[..., 0], Z[..., 0]
        lead = _lead(X, Y, Z)
        return (_vec(lead, [y + z]), _vec(lead, [x - z]),
                _vec(lead, [x - y - 2.0 * self.a * z]))

    def _grad_v_z(self, Y, Z):
        y, z = Y[..., 0], Z[..., 0]
        return _vec(_lead(Y, Z), [-y - 2.0 * self.a * z])

    def _hess(self, X, Y, Z):
        lead = _lead(X, Y, Z)
        return _mat(lead, [[1.0]]), _mat(lead, [[1.0]]), _mat(lead, [[-1.0]])

    def _uv(self, X, Y, Z):
        x, y, z = X[..., 0], Y[..., 0], Z[..., 0]
        return x * y + x * z, -y * z - self.a * z * z

    def tzss_blocks(self):
        """(A, B, C, D) for the bilinear twist criterion: value 1 - 2a."""
        return (np.array([[1.0]]), np.array([[1.0]]),
                np.array([[-1.0]]), np.array([[-self.a]]))

    def to_dict(self) -> dict:
        return {"family": self.family, "a": self.a}


class ExpCosSurplus(SurplusModel):
    """Two-dimensional surplus whose G matrix has signature (2,4,0) everywhere.

    s = e^{x¹+y¹}cos(x²-y²) + e^{x¹+z¹}cos(x²-z²) + e^{y¹+z¹}cos(z²-y²)
        - e^{2x¹} - e^{2y¹} - e^{2z¹}

    s ≤ 0 with equality exactly when x¹=y¹=z¹ and the phase differences are
    multiples of 2π, so stable supports concentrate on a 2-D set.
    """

    family = "expcos"

    @property
    def dims(self):
        return (2, 2, 2)

    def _kernel(self, X, Y, Z):
        x1, x2 = X[..., 0], X[..., 1]
        y1, y2 = Y[..., 0], Y[..., 1]
        z1, z2 = Z[..., 0], Z[..., 1]
        return _sum_in_place(_lead(X, Y, Z), np.exp(x1 + y1) * np.cos(x2 - y2),
                             np.exp(x1 + z1) * np.cos(x2 - z2),
                             np.exp(y1 + z1) * np.cos(z2 - y2),
                             -np.exp(2.0 * x1), -np.exp(2.0 * y1), -np.exp(2.0 * z1))

    @staticmethod
    def _terms(X, Y, Z):
        """(e^{a¹+b¹}, cos t, sin t) with phase t = a² − b² for the pairs
        (a, b) = (x, y), (x, z), (z, y)."""
        out = []
        for A, B in ((X, Y), (X, Z), (Z, Y)):
            t = A[..., 1] - B[..., 1]
            out.append((np.exp(A[..., 0] + B[..., 0]), np.cos(t), np.sin(t)))
        return out

    def _grad(self, X, Y, Z):
        (exy, cxy, sxy), (exz, cxz, sxz), (eyz, czy, szy) = self._terms(X, Y, Z)
        lead = _lead(X, Y, Z)
        return (
            _vec(lead, [exy * cxy + exz * cxz - 2.0 * np.exp(2.0 * X[..., 0]),
                        -exy * sxy - exz * sxz]),
            _vec(lead, [exy * cxy + eyz * czy - 2.0 * np.exp(2.0 * Y[..., 0]),
                        exy * sxy + eyz * szy]),
            _vec(lead, [exz * cxz + eyz * czy - 2.0 * np.exp(2.0 * Z[..., 0]),
                        exz * sxz - eyz * szy]),
        )

    def _hess(self, X, Y, Z):
        (exy, cxy, sxy), (exz, cxz, sxz), (eyz, czy, szy) = self._terms(X, Y, Z)
        lead = _lead(X, Y, Z)
        # the yz block differentiates e^{y1+z1} cos(z2-y2), whose phase runs
        # the other way, so its sines swap sign
        return (_mat(lead, [[exy * cxy, exy * sxy], [exy * -sxy, exy * cxy]]),
                _mat(lead, [[exz * cxz, exz * sxz], [exz * -sxz, exz * cxz]]),
                _mat(lead, [[eyz * czy, eyz * -szy], [eyz * szy, eyz * czy]]))

    def to_dict(self) -> dict:
        return {"family": self.family}


class Supermodular1DSurplus(SurplusModel):
    """Monomial surplus s = scale · x^p y^q z^r on 1-D axes."""

    family = "supermodular"

    def __init__(self, exponents: Sequence[int] = (1, 1, 1), scale: float = 1.0):
        exps = tuple(exponents)
        if len(exps) != 3 or any(int(e) != e or e < 0 for e in exps):
            raise ValidationError(f"exponents must be three ints >= 0, got {exponents}")
        self.exponents = tuple(int(e) for e in exps)
        self.scale = float(scale)

    @property
    def dims(self):
        return (1, 1, 1)

    @staticmethod
    def _pow(base, k: int):
        # repeated multiplication, which rounds alike at every shape
        out = np.ones_like(base)
        for _ in range(int(k)):
            out = out * base
        return out

    def _mono(self, X, Y, Z, wrt=()):
        """The derivative of s once in each axis index of wrt (0, 1, 2 for
        x, y, z; distinct), over points of shape (..., 1)."""
        exps = list(self.exponents)
        coef = self.scale
        for a in wrt:
            if exps[a] == 0:
                return 0.0
            coef = coef * exps[a]
            exps[a] -= 1
        return (coef * self._pow(X[..., 0], exps[0]) * self._pow(Y[..., 0], exps[1])
                * self._pow(Z[..., 0], exps[2]))

    def _kernel(self, X, Y, Z):
        return self._mono(X, Y, Z)

    def _grad(self, X, Y, Z):
        lead = _lead(X, Y, Z)
        return tuple(_vec(lead, [self._mono(X, Y, Z, (a,))]) for a in range(3))

    def _hess(self, X, Y, Z):
        lead = _lead(X, Y, Z)
        return tuple(_mat(lead, [[self._mono(X, Y, Z, ab)]])
                     for ab in ((0, 1), (0, 2), (1, 2)))

    def to_dict(self) -> dict:
        return {"family": self.family, "exponents": list(self.exponents),
                "scale": self.scale}


# --- strictly hedonic components -------------------------------------------

class _Component:
    """One side w(p, z) of a hedonic surplus.  Subclasses provide broadcasting
    kernels over points P, Z of shape (..., d_p), (..., d_z): _kernel for w,
    _grad for (D_p w, D_z w) and _hess for D²pz w."""

    def _pz(self, p, z) -> tuple[np.ndarray, np.ndarray]:
        dp, dz = self.dims
        return _canon_point(p, dp, "p"), _canon_point(z, dz, "z")

    def value(self, p, z) -> float:
        return float(self._kernel(*self._pz(p, z)))

    def grad_p(self, p, z) -> np.ndarray:
        return self._grad(*self._pz(p, z))[0]

    def grad_z(self, p, z) -> np.ndarray:
        return self._grad(*self._pz(p, z))[1]

    def hess_pz(self, p, z) -> np.ndarray:
        return self._hess(*self._pz(p, z))


class BilinearComponent(_Component):
    """One side of a hedonic surplus: w(p, z) = pᵀMz + zᵀDz z + f(p) + h(z)."""

    kind = "bilinear"

    def __init__(self, M, f=None, h=None, Dz=None):
        self.M = np.atleast_2d(np.asarray(M, dtype=float))
        dp, dz = self.M.shape
        self.Dz = (np.zeros((dz, dz)) if Dz is None
                   else np.atleast_2d(np.asarray(Dz, dtype=float)))
        if self.Dz.shape != (dz, dz):
            raise ShapeMismatch(f"Dz shape {self.Dz.shape}, expected ({dz}, {dz})")
        self.f = _canon_poly(f, dp, "f")
        self.h = _canon_poly(h, dz, "h")

    @property
    def dims(self) -> tuple[int, int]:
        return self.M.shape

    def _kernel(self, P, Z):
        return (_pair(P, self.M, Z) + _pair(Z, self.Dz, Z)
                + _poly_val(self.f, P) + _poly_val(self.h, Z))

    def _grad(self, P, Z):
        return (_mv(self.M, Z) + _poly_der(self.f, P),
                _mv(self.M.T, P) + _mv(self.Dz + self.Dz.T, Z) + _poly_der(self.h, Z))

    def _hess(self, P, Z):
        return _mat(_lead(P, Z), self.M)

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "M": self.M.tolist(), "Dz": self.Dz.tolist()}
        for key, polys in (("f", self.f), ("h", self.h)):
            payload = _polys_to_jsonable(polys)
            if payload is not None:
                out[key] = payload
        return out


class TabulatedComponent(_Component):
    """One side of a hedonic surplus tabulated on 1-D node grids (_table);
    evaluation snaps to nodes (no extrapolation)."""

    kind = "tabulated"

    def __init__(self, values, p_nodes, z_nodes):
        self.values, nodes, self._first, self._mixed = _table(values, (p_nodes, z_nodes))
        self.p_nodes, self.z_nodes = nodes

    @property
    def dims(self) -> tuple[int, int]:
        return (1, 1)

    def _at(self, P, Z):
        return _snap((self.p_nodes, self.z_nodes), (P, Z), "pz")

    def _kernel(self, P, Z):
        return self.values[self._at(P, Z)]

    def _grad(self, P, Z):
        at = self._at(P, Z)
        return tuple(g[at][..., None] for g in self._first)

    def _hess(self, P, Z):
        return self._mixed[0][self._at(P, Z)][..., None, None]

    def to_dict(self) -> dict:
        return {"kind": self.kind, "values": self.values.tolist(),
                "p_nodes": self.p_nodes.tolist(),
                "z_nodes": self.z_nodes.tolist()}


def _component_from_dict(data: dict) -> "BilinearComponent | TabulatedComponent":
    kind = data.get("kind", "bilinear")
    if kind == "bilinear":
        return BilinearComponent(data["M"], f=data.get("f"), h=data.get("h"),
                                 Dz=data.get("Dz"))
    if kind == "tabulated":
        return TabulatedComponent(data["values"], data["p_nodes"], data["z_nodes"])
    raise ValidationError(f"unknown hedonic component kind {kind!r}")


class StrictlyHedonicSurplus(SurplusModel):
    """s(x,y,z) = u(x,z) + v(y,z): all interaction runs through the good z."""

    family = "strictly_hedonic"

    def __init__(self, u, v):
        self.u = u
        self.v = v
        dx, dz_u = u.dims
        dy, dz_v = v.dims
        if dz_u != dz_v:
            raise ShapeMismatch(f"u and v disagree on z-dimension: {dz_u} vs {dz_v}")
        self._dims = (dx, dy, dz_u)

    @property
    def dims(self):
        return self._dims

    def _kernel(self, X, Y, Z):
        return np.add(*self._uv(X, Y, Z))

    def _uv(self, X, Y, Z):
        return self.u._kernel(X, Z), self.v._kernel(Y, Z)

    def _grad(self, X, Y, Z):
        X, Y, Z = _broadcast(X, Y, Z)
        (ux, uz), (vy, vz) = self.u._grad(X, Z), self.v._grad(Y, Z)
        return ux, vy, uz + vz

    def _grad_v_z(self, Y, Z):
        return self.v._grad(Y, Z)[1]

    def _hess(self, X, Y, Z):
        X, Y, Z = _broadcast(X, Y, Z)
        dx, dy, _ = self.dims
        return (np.zeros(X.shape[:-1] + (dx, dy)), self.u._hess(X, Z),
                self.v._hess(Y, Z))

    def to_dict(self) -> dict:
        return {"family": self.family, "u": self.u.to_dict(),
                "v": self.v.to_dict()}


class TabulatedSurplus(SurplusModel):
    """Dense value grid over three 1-D node sets (_table).

    Queries must hit grid nodes (snap tolerance 1e-8 relative); there is no
    extrapolation.
    """

    family = "tabulated"

    def __init__(self, values, x_nodes, y_nodes, z_nodes):
        self.values, nodes, self._first, self._mixed = _table(
            values, (x_nodes, y_nodes, z_nodes))
        self.x_nodes, self.y_nodes, self.z_nodes = nodes

    @property
    def dims(self):
        return (1, 1, 1)

    def _ijk(self, X, Y, Z):
        return _snap((self.x_nodes, self.y_nodes, self.z_nodes), (X, Y, Z), "xyz")

    def _kernel(self, X, Y, Z):
        return self.values[self._ijk(X, Y, Z)]

    def _grad(self, X, Y, Z):
        ijk = self._ijk(X, Y, Z)
        return tuple(g[ijk][..., None] for g in self._first)

    def _hess(self, X, Y, Z):
        ijk = self._ijk(X, Y, Z)
        return tuple(g[ijk][..., None, None] for g in self._mixed)

    def to_dict(self) -> dict:
        return {"family": self.family, "values": self.values.tolist(),
                "x_nodes": self.x_nodes.tolist(),
                "y_nodes": self.y_nodes.tolist(),
                "z_nodes": self.z_nodes.tolist()}


def _nodes_of(obj) -> np.ndarray:
    pts = as_point_array(obj)
    if pts.shape[1] != 1:
        raise ShapeMismatch("tabulated axes must be 1-D")
    nodes = pts[:, 0]
    if nodes.size > 1 and np.any(np.diff(nodes) <= 0):
        raise ValidationError("grid nodes must be strictly increasing")
    return nodes


def _table(values, nodes) -> tuple:
    """(values, nodes, first differences along each axis, mixed differences
    for each pair of axes a < b) of a table over strictly increasing 1-D node
    grids, one per axis.  Differences are central inside the grid and
    one-sided on the boundary, with the node spacing as the step."""
    nodes = tuple(_nodes_of(n) for n in nodes)
    values = np.asarray(values, dtype=float)
    want = tuple(n.size for n in nodes)
    if values.shape != want:
        raise ShapeMismatch(f"value grid {values.shape}, nodes want {want}")

    def diff(v, axis):  # zero along an axis of one node
        return (np.gradient(v, nodes[axis], axis=axis) if v.shape[axis] > 1
                else np.zeros_like(v))

    first = [diff(values, a) for a in range(len(nodes))]
    mixed = [diff(first[a], b) for a in range(len(nodes)) for b in range(a + 1, len(nodes))]
    return values, nodes, first, mixed


def surplus_from_dict(data: dict) -> SurplusModel:
    """Rebuild a surplus model from its JSON object form."""
    try:
        family = str(data["family"]).replace("-", "_")
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"surplus payload needs a family tag: {exc}") from None
    if family == "bilinear":
        return BilinearSurplus(data["A"], data["B"], data["C"], D=data.get("D"),
                               f=data.get("f"), g=data.get("g"), h=data.get("h"))
    if family == "counterexample":
        return CounterexampleSurplus(a=float(data.get("a", 0.5)))
    if family == "expcos":
        return ExpCosSurplus()
    if family == "supermodular":
        return Supermodular1DSurplus(exponents=data.get("exponents", (1, 1, 1)),
                                     scale=float(data.get("scale", 1.0)))
    if family == "strictly_hedonic":
        return StrictlyHedonicSurplus(_component_from_dict(data["u"]),
                                      _component_from_dict(data["v"]))
    if family == "tabulated":
        return TabulatedSurplus(data["values"], data["x_nodes"],
                                data["y_nodes"], data["z_nodes"])
    raise ValidationError(f"unknown surplus family {family!r}")


# --- G matrix and eigenstructure -------------------------------------------

def assemble_G(blocks) -> np.ndarray:
    """Stack mixed Hessian blocks into the symmetric matrix with zero
    diagonal blocks:

        G = [[0,    Sxy, Sxz],
             [Sxyᵀ, 0,   Syz],
             [Sxzᵀ, Syzᵀ, 0 ]]
    """
    if len(blocks) != 3:
        raise ShapeMismatch("expected exactly three blocks (D²xy, D²xz, D²yz)")
    sxy, sxz, syz = (np.atleast_2d(np.asarray(b, dtype=float)) for b in blocks)
    nx, ny = sxy.shape
    if sxz.shape[0] != nx:
        raise ShapeMismatch(f"D²xz has {sxz.shape[0]} rows, D²xy has {nx}")
    nz = sxz.shape[1]
    if syz.shape != (ny, nz):
        raise ShapeMismatch(f"D²yz shape {syz.shape}, expected ({ny}, {nz})")
    n = nx + ny + nz
    G = np.zeros((n, n))
    G[:nx, nx:nx + ny] = sxy
    G[nx:nx + ny, :nx] = sxy.T
    G[:nx, nx + ny:] = sxz
    G[nx + ny:, :nx] = sxz.T
    G[nx:nx + ny, nx + ny:] = syz
    G[nx + ny:, nx:nx + ny] = syz.T
    return G


def classify_eigenvalues(eigs: np.ndarray) -> tuple[int, int, int, float]:
    """Count (positive, negative, zero) eigenvalues with the relative
    threshold ZERO_EIG_REL · max|λ|; returns the threshold too.
    """
    eigs = np.asarray(eigs, dtype=float)
    largest = float(np.max(np.abs(eigs))) if eigs.size else 0.0
    thr = ZERO_EIG_REL * largest
    n_zero = int(np.sum(np.abs(eigs) <= thr))
    n_pos = int(np.sum(eigs > thr))
    n_neg = int(eigs.size - n_zero - n_pos)
    return n_pos, n_neg, n_zero, thr


def _nonsingular(mat) -> np.ndarray:
    """mat as a float array; SingularBlock when its smallest singular value
    is at most PIVOT_REL_TOL times its largest (the zero matrix included)."""
    a = np.atleast_2d(np.asarray(mat, dtype=float))
    sv = np.linalg.svd(a, compute_uv=False)
    if sv[-1] <= PIVOT_REL_TOL * sv[0]:
        raise SingularBlock(
            f"smallest singular value {sv[-1]:.3e} at most "
            f"{PIVOT_REL_TOL:.1e}·‖block‖₂ = {PIVOT_REL_TOL * sv[0]:.3e}"
        )
    return a


def _reduced_matrix(A, B, C) -> np.ndarray:
    """M = P + Pᵀ with P = Cᵀ A⁻¹ B; SingularBlock when A fails the
    relative singularity threshold."""
    P = C.T @ np.linalg.inv(_nonsingular(A)) @ B
    return P + P.T


@dataclass(frozen=True, eq=False)
class CrossCheck:
    """Reduced n×n comparison matrix M = D²zy[D²xy]⁻¹D²xz + D²zx[D²yx]⁻¹D²yz
    and the integer identity (λ₊, λ₋) = (n + r₋, n + r₊) it implies.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    r_positive: int
    r_negative: int
    r_zero: int
    consistent: bool

    def to_dict(self) -> dict:
        return {
            "matrix": self.matrix.tolist(),
            "eigenvalues": self.eigenvalues.tolist(),
            "r_positive": self.r_positive,
            "r_negative": self.r_negative,
            "r_zero": self.r_zero,
            "consistent": self.consistent,
        }


@dataclass(frozen=True, eq=False)
class SignatureReport:
    """Eigenstructure of G at a point and the induced support-dimension bound."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    eigenvalues: np.ndarray
    n_positive: int
    n_negative: int
    n_zero: int
    zero_threshold: float
    dimension_bound: int
    cross_check: CrossCheck | None = None
    cross_check_skipped: str | None = None

    @property
    def signature(self) -> tuple[int, int, int]:
        return (self.n_positive, self.n_negative, self.n_zero)

    def to_dict(self) -> dict:
        return {
            "point": {"x": self.x.tolist(), "y": self.y.tolist(),
                      "z": self.z.tolist()},
            "eigenvalues": self.eigenvalues.tolist(),
            "signature": list(self.signature),
            "zero_threshold": self.zero_threshold,
            "dimension_bound": self.dimension_bound,
            "cross_check": None if self.cross_check is None else self.cross_check.to_dict(),
            "cross_check_skipped": self.cross_check_skipped,
        }


def signature(s: SurplusModel, x, y, z) -> SignatureReport:
    """Signature of G at (x,y,z) plus the bound n_x+n_y+n_z − λ₋.

    When the three axis dimensions agree and all blocks are invertible, also
    runs the reduced-matrix cross-check; a SingularBlock there only skips the
    cross-check, the main signature is always returned.
    """
    xv = s._canon(x, "x"); yv = s._canon(y, "y"); zv = s._canon(z, "z")
    blocks = s.hessian_blocks(xv, yv, zv)
    G = assemble_G(blocks)
    eigs = np.linalg.eigvalsh(G)
    n_pos, n_neg, n_zero, thr = classify_eigenvalues(eigs)
    nx, ny, nz = s.dims
    bound = nx + ny + nz - n_neg
    check = None
    skipped = None
    if not (nx == ny == nz):
        skipped = "axis dimensions differ"
    else:
        A, B, C = blocks
        try:
            M = _reduced_matrix(A, B, C)
            for blk in (B, C):
                _nonsingular(blk)
        except SingularBlock as exc:
            skipped = f"singular block: {exc}"
        else:
            m_eigs = np.linalg.eigvalsh(M)
            r_pos, r_neg, r_zero, _ = classify_eigenvalues(m_eigs)
            consistent = (n_pos == nx + r_neg and n_neg == nx + r_pos
                          and n_zero == r_zero)
            check = CrossCheck(matrix=M, eigenvalues=m_eigs,
                               r_positive=r_pos, r_negative=r_neg,
                               r_zero=r_zero, consistent=consistent)
    return SignatureReport(
        x=xv, y=yv, z=zv, eigenvalues=eigs,
        n_positive=n_pos, n_negative=n_neg, n_zero=n_zero,
        zero_threshold=thr, dimension_bound=bound,
        cross_check=check, cross_check_skipped=skipped,
    )
