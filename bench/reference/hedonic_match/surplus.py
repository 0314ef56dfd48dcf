"""Surplus models s(x,y,z) with exact derivatives and signature analysis.

Families
--------
- Bilinear:        s = xᵀAy + xᵀBz + yᵀCz + zᵀDz + f(x) + g(y) + h(z)
- Counterexample:  1-D, u = xy + xz, v = -yz - a z²  (non-pure at a = 1/2)
- ExpCos:          2-D exponential/cosine surplus with signature (2,4,0)
- Supermodular1D:  s = scale · x^p y^q z^r on 1-D axes
- StrictlyHedonic: s = u(x,z) + v(y,z), no direct x-y interaction
- Tabulated:       dense value grid, finite-difference derivatives

The G matrix stacks the mixed Hessian blocks with zero diagonal blocks; its
eigenvalue signature bounds the dimension of any stable support.  Eigenvalues
come from a cyclic Jacobi sweep; block inverses from partial-pivot
elimination, so the numerical thresholds are fully under our control.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly

from .core import DimensionMismatch, ValidationError, as_point_array

ZERO_EIG_REL = 1e-9
JACOBI_REL_TOL = 1e-12
PIVOT_REL_TOL = 1e-10


class OutOfGrid(ValidationError):
    pass


class ShapeMismatch(ValidationError):
    pass


class MissingUV(ValidationError):
    """Raised when buyer/seller utilities are requested from an s-only model."""


class SingularBlock(RuntimeError):
    """A matrix block failed the pivot threshold during elimination."""


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


def _poly_val(polys: list[np.ndarray], point: np.ndarray) -> float:
    return float(sum(npoly.polyval(point[d], polys[d]) for d in range(len(polys))))


def _poly_val_many(polys: list[np.ndarray], pts: np.ndarray) -> np.ndarray:
    total = np.zeros(pts.shape[0])
    for d in range(len(polys)):
        total = total + npoly.polyval(pts[:, d], polys[d])
    return total


def _poly_grad(polys: list[np.ndarray], point: np.ndarray) -> np.ndarray:
    return np.array([npoly.polyval(point[d], npoly.polyder(polys[d]))
                     for d in range(len(polys))])


def _polys_to_jsonable(polys: list[np.ndarray]):
    lists = [p.tolist() for p in polys]
    if all(lst == [0.0] for lst in lists):
        return None
    if len(lists) == 1:
        return lists[0]
    return lists


# --- base model ------------------------------------------------------------

class SurplusModel:
    """Base class; subclasses provide value() and analytic derivatives."""

    family = "custom"
    has_uv = False

    @property
    def dims(self) -> tuple[int, int, int]:
        raise NotImplementedError

    def _canon(self, p, axis: str) -> np.ndarray:
        arr = np.atleast_1d(np.asarray(p, dtype=float)).reshape(-1)
        want = self.dims["xyz".index(axis)]
        if arr.shape[0] != want:
            raise DimensionMismatch(
                f"{axis}-coordinate has dimension {arr.shape[0]}, model wants {want}"
            )
        return arr

    def _canon_grid(self, pts, axis: str) -> np.ndarray:
        arr = as_point_array(pts)
        want = self.dims["xyz".index(axis)]
        if arr.shape[1] != want:
            raise DimensionMismatch(
                f"{axis}-grid has dimension {arr.shape[1]}, model wants {want}"
            )
        return arr

    def value(self, x, y, z) -> float:
        raise NotImplementedError

    def grad_x(self, x, y, z) -> np.ndarray:
        raise NotImplementedError

    def grad_y(self, x, y, z) -> np.ndarray:
        raise NotImplementedError

    def grad_z(self, x, y, z) -> np.ndarray:
        raise NotImplementedError

    def hessian_blocks(self, x, y, z) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Mixed second-derivative blocks (D²xy s, D²xz s, D²yz s)."""
        raise NotImplementedError

    def value_batch(self, xs, ys, zs) -> np.ndarray:
        """Row-paired evaluation; default loops, subclasses vectorize."""
        X = self._canon_grid(xs, "x")
        Y = self._canon_grid(ys, "y")
        Z = self._canon_grid(zs, "z")
        if not X.shape[0] == Y.shape[0] == Z.shape[0]:
            raise DimensionMismatch("value_batch needs equal-length point lists")
        return np.array([self.value(X[i], Y[i], Z[i]) for i in range(X.shape[0])])

    def value_grid(self, xs, ys, zs) -> np.ndarray:
        """Dense (n_x, n_y, n_z) evaluation over a product grid."""
        X = self._canon_grid(xs, "x")
        Y = self._canon_grid(ys, "y")
        Z = self._canon_grid(zs, "z")
        out = np.empty((X.shape[0], Y.shape[0], Z.shape[0]))
        for i in range(X.shape[0]):
            for j in range(Y.shape[0]):
                for k in range(Z.shape[0]):
                    out[i, j, k] = self.value(X[i], Y[j], Z[k])
        return out

    def value_u(self, x, y, z) -> float:
        raise MissingUV(f"{self.family} model has no separate buyer utility")

    def value_v(self, x, y, z) -> float:
        raise MissingUV(f"{self.family} model has no separate seller utility")

    def grad_v_z(self, x, y, z) -> np.ndarray:
        raise MissingUV(f"{self.family} model has no separate seller utility")

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

    def value(self, x, y, z) -> float:
        x = self._canon(x, "x"); y = self._canon(y, "y"); z = self._canon(z, "z")
        return float(x @ self.A @ y + x @ self.B @ z + y @ self.C @ z
                     + z @ self.D @ z
                     + _poly_val(self.f, x) + _poly_val(self.g, y)
                     + _poly_val(self.h, z))

    def grad_x(self, x, y, z) -> np.ndarray:
        x = self._canon(x, "x"); y = self._canon(y, "y"); z = self._canon(z, "z")
        return self.A @ y + self.B @ z + _poly_grad(self.f, x)

    def grad_y(self, x, y, z) -> np.ndarray:
        x = self._canon(x, "x"); y = self._canon(y, "y"); z = self._canon(z, "z")
        return self.A.T @ x + self.C @ z + _poly_grad(self.g, y)

    def grad_z(self, x, y, z) -> np.ndarray:
        x = self._canon(x, "x"); y = self._canon(y, "y"); z = self._canon(z, "z")
        return (self.B.T @ x + self.C.T @ y + (self.D + self.D.T) @ z
                + _poly_grad(self.h, z))

    def hessian_blocks(self, x, y, z):
        return self.A.copy(), self.B.copy(), self.C.copy()

    def value_batch(self, xs, ys, zs) -> np.ndarray:
        X = self._canon_grid(xs, "x"); Y = self._canon_grid(ys, "y")
        Z = self._canon_grid(zs, "z")
        return (np.einsum("nd,de,ne->n", X, self.A, Y)
                + np.einsum("nd,de,ne->n", X, self.B, Z)
                + np.einsum("nd,de,ne->n", Y, self.C, Z)
                + np.einsum("nd,de,ne->n", Z, self.D, Z)
                + _poly_val_many(self.f, X) + _poly_val_many(self.g, Y)
                + _poly_val_many(self.h, Z))

    def value_grid(self, xs, ys, zs) -> np.ndarray:
        X = self._canon_grid(xs, "x"); Y = self._canon_grid(ys, "y")
        Z = self._canon_grid(zs, "z")
        xy = X @ self.A @ Y.T
        xz = X @ self.B @ Z.T
        yz = Y @ self.C @ Z.T
        dz = np.einsum("kd,de,ke->k", Z, self.D, Z)
        fx = _poly_val_many(self.f, X)
        gy = _poly_val_many(self.g, Y)
        hz = _poly_val_many(self.h, Z)
        return (xy[:, :, None] + xz[:, None, :] + yz[None, :, :]
                + dz[None, None, :] + fx[:, None, None] + gy[None, :, None]
                + hz[None, None, :])

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
    has_uv = True

    def __init__(self, a: float = 0.5):
        self.a = float(a)

    @property
    def dims(self):
        return (1, 1, 1)

    def value(self, x, y, z) -> float:
        x = self._canon(x, "x")[0]; y = self._canon(y, "y")[0]
        z = self._canon(z, "z")[0]
        return x * y + x * z - y * z - self.a * z * z

    def value_u(self, x, y, z) -> float:
        x = self._canon(x, "x")[0]; y = self._canon(y, "y")[0]
        z = self._canon(z, "z")[0]
        return x * y + x * z

    def value_v(self, x, y, z) -> float:
        y = self._canon(y, "y")[0]; z = self._canon(z, "z")[0]
        return -y * z - self.a * z * z

    def grad_x(self, x, y, z) -> np.ndarray:
        y = self._canon(y, "y")[0]; z = self._canon(z, "z")[0]
        return np.array([y + z])

    def grad_y(self, x, y, z) -> np.ndarray:
        x = self._canon(x, "x")[0]; z = self._canon(z, "z")[0]
        return np.array([x - z])

    def grad_z(self, x, y, z) -> np.ndarray:
        x = self._canon(x, "x")[0]; y = self._canon(y, "y")[0]
        z = self._canon(z, "z")[0]
        return np.array([x - y - 2.0 * self.a * z])

    def grad_v_z(self, x, y, z) -> np.ndarray:
        y = self._canon(y, "y")[0]; z = self._canon(z, "z")[0]
        return np.array([-y - 2.0 * self.a * z])

    def hessian_blocks(self, x, y, z):
        return np.array([[1.0]]), np.array([[1.0]]), np.array([[-1.0]])

    def tzss_blocks(self):
        """(A, B, C, D) for the bilinear twist criterion: value 1 - 2a."""
        return (np.array([[1.0]]), np.array([[1.0]]),
                np.array([[-1.0]]), np.array([[-self.a]]))

    def value_batch(self, xs, ys, zs) -> np.ndarray:
        X = self._canon_grid(xs, "x")[:, 0]; Y = self._canon_grid(ys, "y")[:, 0]
        Z = self._canon_grid(zs, "z")[:, 0]
        return X * Y + X * Z - Y * Z - self.a * Z * Z

    def value_grid(self, xs, ys, zs) -> np.ndarray:
        X = self._canon_grid(xs, "x")[:, 0]; Y = self._canon_grid(ys, "y")[:, 0]
        Z = self._canon_grid(zs, "z")[:, 0]
        return (X[:, None, None] * Y[None, :, None]
                + X[:, None, None] * Z[None, None, :]
                - Y[None, :, None] * Z[None, None, :]
                - (self.a * Z * Z)[None, None, :])

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

    def value(self, x, y, z) -> float:
        x = self._canon(x, "x"); y = self._canon(y, "y"); z = self._canon(z, "z")
        return float(np.exp(x[0] + y[0]) * np.cos(x[1] - y[1])
                     + np.exp(x[0] + z[0]) * np.cos(x[1] - z[1])
                     + np.exp(y[0] + z[0]) * np.cos(z[1] - y[1])
                     - np.exp(2.0 * x[0]) - np.exp(2.0 * y[0])
                     - np.exp(2.0 * z[0]))

    def grad_x(self, x, y, z) -> np.ndarray:
        x = self._canon(x, "x"); y = self._canon(y, "y"); z = self._canon(z, "z")
        exy = np.exp(x[0] + y[0]); exz = np.exp(x[0] + z[0])
        txy = x[1] - y[1]; txz = x[1] - z[1]
        return np.array([
            exy * np.cos(txy) + exz * np.cos(txz) - 2.0 * np.exp(2.0 * x[0]),
            -exy * np.sin(txy) - exz * np.sin(txz),
        ])

    def grad_y(self, x, y, z) -> np.ndarray:
        x = self._canon(x, "x"); y = self._canon(y, "y"); z = self._canon(z, "z")
        exy = np.exp(x[0] + y[0]); eyz = np.exp(y[0] + z[0])
        txy = x[1] - y[1]; tzy = z[1] - y[1]
        return np.array([
            exy * np.cos(txy) + eyz * np.cos(tzy) - 2.0 * np.exp(2.0 * y[0]),
            exy * np.sin(txy) + eyz * np.sin(tzy),
        ])

    def grad_z(self, x, y, z) -> np.ndarray:
        x = self._canon(x, "x"); y = self._canon(y, "y"); z = self._canon(z, "z")
        exz = np.exp(x[0] + z[0]); eyz = np.exp(y[0] + z[0])
        txz = x[1] - z[1]; tzy = z[1] - y[1]
        return np.array([
            exz * np.cos(txz) + eyz * np.cos(tzy) - 2.0 * np.exp(2.0 * z[0]),
            exz * np.sin(txz) - eyz * np.sin(tzy),
        ])

    def hessian_blocks(self, x, y, z):
        x = self._canon(x, "x"); y = self._canon(y, "y"); z = self._canon(z, "z")

        def rot(scale, t):
            c, s = np.cos(t), np.sin(t)
            return scale * np.array([[c, s], [-s, c]])

        sxy = rot(np.exp(x[0] + y[0]), x[1] - y[1])
        sxz = rot(np.exp(x[0] + z[0]), x[1] - z[1])
        # d²/dy dz of e^{y1+z1} cos(z2-y2)
        eyz = np.exp(y[0] + z[0]); tzy = z[1] - y[1]
        c, s = np.cos(tzy), np.sin(tzy)
        syz = eyz * np.array([[c, -s], [s, c]])
        return sxy, sxz, syz

    def value_grid(self, xs, ys, zs) -> np.ndarray:
        X = self._canon_grid(xs, "x"); Y = self._canon_grid(ys, "y")
        Z = self._canon_grid(zs, "z")
        x1 = X[:, 0][:, None, None]; x2 = X[:, 1][:, None, None]
        y1 = Y[:, 0][None, :, None]; y2 = Y[:, 1][None, :, None]
        z1 = Z[:, 0][None, None, :]; z2 = Z[:, 1][None, None, :]
        return (np.exp(x1 + y1) * np.cos(x2 - y2)
                + np.exp(x1 + z1) * np.cos(x2 - z2)
                + np.exp(y1 + z1) * np.cos(z2 - y2)
                - np.exp(2.0 * x1) - np.exp(2.0 * y1) - np.exp(2.0 * z1))

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
        # repeated multiplication so scalar and array paths round identically
        k = int(k)
        if k == 0:
            return np.ones_like(base) if isinstance(base, np.ndarray) else 1.0
        out = base
        for _ in range(k - 1):
            out = out * base
        return out

    def value(self, x, y, z) -> float:
        x = self._canon(x, "x")[0]; y = self._canon(y, "y")[0]
        z = self._canon(z, "z")[0]
        p, q, r = self.exponents
        return float(self.scale * self._pow(x, p) * self._pow(y, q)
                     * self._pow(z, r))

    def _partial(self, vals, wrt) -> float:
        x, y, z = vals
        p, q, r = self.exponents
        exps = [p, q, r]
        if exps[wrt] == 0:
            return 0.0
        coef = self.scale * exps[wrt]
        exps[wrt] -= 1
        return (coef * self._pow(x, exps[0]) * self._pow(y, exps[1])
                * self._pow(z, exps[2]))

    def grad_x(self, x, y, z) -> np.ndarray:
        vals = (self._canon(x, "x")[0], self._canon(y, "y")[0],
                self._canon(z, "z")[0])
        return np.array([self._partial(vals, 0)])

    def grad_y(self, x, y, z) -> np.ndarray:
        vals = (self._canon(x, "x")[0], self._canon(y, "y")[0],
                self._canon(z, "z")[0])
        return np.array([self._partial(vals, 1)])

    def grad_z(self, x, y, z) -> np.ndarray:
        vals = (self._canon(x, "x")[0], self._canon(y, "y")[0],
                self._canon(z, "z")[0])
        return np.array([self._partial(vals, 2)])

    def _cross(self, vals, a, b) -> float:
        x, y, z = vals
        p, q, r = self.exponents
        exps = [p, q, r]
        if exps[a] == 0 or exps[b] == 0:
            return 0.0
        coef = self.scale * exps[a] * exps[b]
        exps[a] -= 1
        exps[b] -= 1
        return (coef * self._pow(x, exps[0]) * self._pow(y, exps[1])
                * self._pow(z, exps[2]))

    def hessian_blocks(self, x, y, z):
        vals = (self._canon(x, "x")[0], self._canon(y, "y")[0],
                self._canon(z, "z")[0])
        return (np.array([[self._cross(vals, 0, 1)]]),
                np.array([[self._cross(vals, 0, 2)]]),
                np.array([[self._cross(vals, 1, 2)]]))

    def value_batch(self, xs, ys, zs) -> np.ndarray:
        X = self._canon_grid(xs, "x")[:, 0]; Y = self._canon_grid(ys, "y")[:, 0]
        Z = self._canon_grid(zs, "z")[:, 0]
        p, q, r = self.exponents
        return self.scale * self._pow(X, p) * self._pow(Y, q) * self._pow(Z, r)

    def value_grid(self, xs, ys, zs) -> np.ndarray:
        X = self._canon_grid(xs, "x")[:, 0]; Y = self._canon_grid(ys, "y")[:, 0]
        Z = self._canon_grid(zs, "z")[:, 0]
        p, q, r = self.exponents
        return (self.scale * self._pow(X, p)[:, None, None]
                * self._pow(Y, q)[None, :, None]
                * self._pow(Z, r)[None, None, :])

    def to_dict(self) -> dict:
        return {"family": self.family, "exponents": list(self.exponents),
                "scale": self.scale}


# --- strictly hedonic components -------------------------------------------

class BilinearComponent:
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

    def value(self, p, z) -> float:
        return float(p @ self.M @ z + z @ self.Dz @ z
                     + _poly_val(self.f, p) + _poly_val(self.h, z))

    def grad_p(self, p, z) -> np.ndarray:
        return self.M @ z + _poly_grad(self.f, p)

    def grad_z(self, p, z) -> np.ndarray:
        return self.M.T @ p + (self.Dz + self.Dz.T) @ z + _poly_grad(self.h, z)

    def hess_pz(self, p, z) -> np.ndarray:
        return self.M.copy()

    def value_grid(self, P, Z) -> np.ndarray:
        pz = P @ self.M @ Z.T
        dz = np.einsum("kd,de,ke->k", Z, self.Dz, Z)
        fp = _poly_val_many(self.f, P)
        hz = _poly_val_many(self.h, Z)
        return pz + dz[None, :] + fp[:, None] + hz[None, :]

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "M": self.M.tolist(), "Dz": self.Dz.tolist()}
        for key, polys in (("f", self.f), ("h", self.h)):
            payload = _polys_to_jsonable(polys)
            if payload is not None:
                out[key] = payload
        return out


class TabulatedComponent:
    """One side of a hedonic surplus tabulated on 1-D node grids.

    Evaluation snaps to nodes (no extrapolation); derivatives are central
    differences with one-sided stencils at the boundary, step = node spacing.
    """

    kind = "tabulated"

    def __init__(self, values, p_nodes, z_nodes):
        self.values = np.asarray(values, dtype=float)
        self.p_nodes = np.asarray(p_nodes, dtype=float).reshape(-1)
        self.z_nodes = np.asarray(z_nodes, dtype=float).reshape(-1)
        if self.values.shape != (self.p_nodes.size, self.z_nodes.size):
            raise ShapeMismatch(
                f"table shape {self.values.shape} vs nodes "
                f"({self.p_nodes.size}, {self.z_nodes.size})"
            )
        for nodes, lab in ((self.p_nodes, "p"), (self.z_nodes, "z")):
            if nodes.size > 1 and np.any(np.diff(nodes) <= 0):
                raise ValidationError(f"{lab}-nodes must be strictly increasing")
        self._dp = _safe_gradient(self.values, self.p_nodes, axis=0)
        self._dz = _safe_gradient(self.values, self.z_nodes, axis=1)
        self._dpz = _safe_gradient(self._dp, self.z_nodes, axis=1)

    @property
    def dims(self) -> tuple[int, int]:
        return (1, 1)

    def _idx(self, nodes: np.ndarray, q: float, lab: str) -> int:
        i = int(np.argmin(np.abs(nodes - q)))
        span = float(nodes[-1] - nodes[0]) if nodes.size > 1 else 1.0
        if abs(nodes[i] - q) > 1e-8 * (1.0 + abs(span)):
            raise OutOfGrid(f"{lab} = {q} is not a table node")
        return i

    def _at(self, p, z) -> tuple[int, int]:
        return (self._idx(self.p_nodes, float(np.ravel(p)[0]), "p"),
                self._idx(self.z_nodes, float(np.ravel(z)[0]), "z"))

    def value(self, p, z) -> float:
        i, k = self._at(p, z)
        return float(self.values[i, k])

    def grad_p(self, p, z) -> np.ndarray:
        i, k = self._at(p, z)
        return np.array([self._dp[i, k]])

    def grad_z(self, p, z) -> np.ndarray:
        i, k = self._at(p, z)
        return np.array([self._dz[i, k]])

    def hess_pz(self, p, z) -> np.ndarray:
        i, k = self._at(p, z)
        return np.array([[self._dpz[i, k]]])

    def value_grid(self, P, Z) -> np.ndarray:
        rows = [self._idx(self.p_nodes, float(p[0]), "p") for p in P]
        cols = [self._idx(self.z_nodes, float(z[0]), "z") for z in Z]
        return self.values[np.ix_(rows, cols)]

    def to_dict(self) -> dict:
        return {"kind": self.kind, "values": self.values.tolist(),
                "p_nodes": self.p_nodes.tolist(),
                "z_nodes": self.z_nodes.tolist()}


def _safe_gradient(values: np.ndarray, coords: np.ndarray, axis: int) -> np.ndarray:
    if values.shape[axis] < 2:
        return np.zeros_like(values)
    return np.gradient(values, coords, axis=axis)


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
    has_uv = True

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

    def value(self, x, y, z) -> float:
        x = self._canon(x, "x"); y = self._canon(y, "y"); z = self._canon(z, "z")
        return float(self.u.value(x, z) + self.v.value(y, z))

    def value_u(self, x, y, z) -> float:
        x = self._canon(x, "x"); z = self._canon(z, "z")
        return float(self.u.value(x, z))

    def value_v(self, x, y, z) -> float:
        y = self._canon(y, "y"); z = self._canon(z, "z")
        return float(self.v.value(y, z))

    def grad_x(self, x, y, z) -> np.ndarray:
        x = self._canon(x, "x"); z = self._canon(z, "z")
        return self.u.grad_p(x, z)

    def grad_y(self, x, y, z) -> np.ndarray:
        y = self._canon(y, "y"); z = self._canon(z, "z")
        return self.v.grad_p(y, z)

    def grad_z(self, x, y, z) -> np.ndarray:
        x = self._canon(x, "x"); y = self._canon(y, "y"); z = self._canon(z, "z")
        return self.u.grad_z(x, z) + self.v.grad_z(y, z)

    def grad_v_z(self, x, y, z) -> np.ndarray:
        y = self._canon(y, "y"); z = self._canon(z, "z")
        return self.v.grad_z(y, z)

    def hessian_blocks(self, x, y, z):
        x = self._canon(x, "x"); y = self._canon(y, "y"); z = self._canon(z, "z")
        dx, dy, _ = self.dims
        return (np.zeros((dx, dy)), self.u.hess_pz(x, z), self.v.hess_pz(y, z))

    def value_grid(self, xs, ys, zs) -> np.ndarray:
        X = self._canon_grid(xs, "x"); Y = self._canon_grid(ys, "y")
        Z = self._canon_grid(zs, "z")
        ug = self.u.value_grid(X, Z)
        vg = self.v.value_grid(Y, Z)
        return ug[:, None, :] + vg[None, :, :]

    def to_dict(self) -> dict:
        return {"family": self.family, "u": self.u.to_dict(),
                "v": self.v.to_dict()}


class TabulatedSurplus(SurplusModel):
    """Dense value grid over three 1-D node sets; derivatives by differences.

    Queries must hit grid nodes (snap tolerance 1e-8 relative); there is no
    extrapolation.  First and mixed second derivatives use central stencils
    inside the grid and one-sided stencils on the boundary, with the grid
    spacing as the step.
    """

    family = "tabulated"

    def __init__(self, values, x_nodes, y_nodes, z_nodes):
        self.values = np.asarray(values, dtype=float)
        self.x_nodes = _nodes_of(x_nodes)
        self.y_nodes = _nodes_of(y_nodes)
        self.z_nodes = _nodes_of(z_nodes)
        want = (self.x_nodes.size, self.y_nodes.size, self.z_nodes.size)
        if self.values.shape != want:
            raise ShapeMismatch(f"value grid {self.values.shape}, nodes want {want}")
        self._gx = _safe_gradient(self.values, self.x_nodes, axis=0)
        self._gy = _safe_gradient(self.values, self.y_nodes, axis=1)
        self._gz = _safe_gradient(self.values, self.z_nodes, axis=2)
        self._gxy = _safe_gradient(self._gx, self.y_nodes, axis=1)
        self._gxz = _safe_gradient(self._gx, self.z_nodes, axis=2)
        self._gyz = _safe_gradient(self._gy, self.z_nodes, axis=2)

    @property
    def dims(self):
        return (1, 1, 1)

    def _index(self, nodes: np.ndarray, q, lab: str) -> int:
        val = float(np.ravel(q)[0])
        i = int(np.argmin(np.abs(nodes - val)))
        span = float(nodes[-1] - nodes[0]) if nodes.size > 1 else 1.0
        if abs(nodes[i] - val) > 1e-8 * (1.0 + abs(span)):
            raise OutOfGrid(f"{lab} = {val} is not a grid node")
        return i

    def _ijk(self, x, y, z) -> tuple[int, int, int]:
        return (self._index(self.x_nodes, self._canon(x, "x"), "x"),
                self._index(self.y_nodes, self._canon(y, "y"), "y"),
                self._index(self.z_nodes, self._canon(z, "z"), "z"))

    def value(self, x, y, z) -> float:
        i, j, k = self._ijk(x, y, z)
        return float(self.values[i, j, k])

    def grad_x(self, x, y, z) -> np.ndarray:
        i, j, k = self._ijk(x, y, z)
        return np.array([self._gx[i, j, k]])

    def grad_y(self, x, y, z) -> np.ndarray:
        i, j, k = self._ijk(x, y, z)
        return np.array([self._gy[i, j, k]])

    def grad_z(self, x, y, z) -> np.ndarray:
        i, j, k = self._ijk(x, y, z)
        return np.array([self._gz[i, j, k]])

    def hessian_blocks(self, x, y, z):
        i, j, k = self._ijk(x, y, z)
        return (np.array([[self._gxy[i, j, k]]]),
                np.array([[self._gxz[i, j, k]]]),
                np.array([[self._gyz[i, j, k]]]))

    def value_grid(self, xs, ys, zs) -> np.ndarray:
        X = self._canon_grid(xs, "x"); Y = self._canon_grid(ys, "y")
        Z = self._canon_grid(zs, "z")
        rows = [self._index(self.x_nodes, x, "x") for x in X]
        cols = [self._index(self.y_nodes, y, "y") for y in Y]
        deps = [self._index(self.z_nodes, z, "z") for z in Z]
        return self.values[np.ix_(rows, cols, deps)]

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


def jacobi_eigenvalues(sym, rel_tol: float = JACOBI_REL_TOL,
                       max_sweeps: int = 100) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations, sorted
    ascending.  Converges when the off-diagonal Frobenius norm drops below
    rel_tol · ‖input‖_F.
    """
    a = np.atleast_2d(np.asarray(sym, dtype=float)).copy()
    n = a.shape[0]
    if a.shape != (n, n):
        raise ShapeMismatch(f"matrix must be square, got {a.shape}")
    scale = float(np.linalg.norm(a))
    if not np.allclose(a, a.T, atol=1e-12 * (1.0 + scale)):
        raise ShapeMismatch("matrix is not symmetric")
    a = 0.5 * (a + a.T)
    if n == 1 or scale == 0.0:
        return np.sort(np.diag(a).copy())
    target = rel_tol * scale

    def off(m):
        od = m - np.diag(np.diag(m))
        return float(np.linalg.norm(od))

    for _ in range(max_sweeps):
        if off(a) <= target:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                diff = a[q, q] - a[p, p]
                if abs(apq) < 1e-200 * abs(diff):
                    # rotation angle below float resolution: snap the entry
                    a[p, q] = 0.0
                    a[q, p] = 0.0
                    continue
                theta = diff / (2.0 * apq)
                if theta >= 0.0:
                    t = 1.0 / (theta + np.sqrt(theta * theta + 1.0))
                else:
                    t = 1.0 / (theta - np.sqrt(theta * theta + 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
    else:
        raise RuntimeError("Jacobi sweep did not converge")
    return np.sort(np.diag(a).copy())


def classify_eigenvalues(eigs: np.ndarray,
                         rel: float = ZERO_EIG_REL) -> tuple[int, int, int, float]:
    """Count (positive, negative, zero) eigenvalues with the relative
    threshold rel · (max|λ| + 1); returns the threshold too.
    """
    eigs = np.asarray(eigs, dtype=float)
    largest = float(np.max(np.abs(eigs))) if eigs.size else 0.0
    thr = rel * (largest + 1.0)
    n_zero = int(np.sum(np.abs(eigs) <= thr))
    n_pos = int(np.sum(eigs > thr))
    n_neg = int(eigs.size - n_zero - n_pos)
    return n_pos, n_neg, n_zero, thr


def lu_inverse(mat, rel_pivot_tol: float = PIVOT_REL_TOL) -> np.ndarray:
    """Invert via Gauss-Jordan elimination with partial pivoting.

    Raises SingularBlock when any pivot falls below rel_pivot_tol · ‖mat‖_F.
    """
    a = np.atleast_2d(np.asarray(mat, dtype=float))
    n = a.shape[0]
    if a.shape != (n, n):
        raise ShapeMismatch(f"matrix must be square, got {a.shape}")
    scale = float(np.linalg.norm(a))
    if scale == 0.0:
        raise SingularBlock("zero matrix")
    aug = np.hstack([a.astype(float), np.eye(n)])
    for col in range(n):
        piv_row = col + int(np.argmax(np.abs(aug[col:, col])))
        piv = aug[piv_row, col]
        if abs(piv) < rel_pivot_tol * scale:
            raise SingularBlock(
                f"pivot {piv:.3e} below {rel_pivot_tol:.1e}·‖block‖ = "
                f"{rel_pivot_tol * scale:.3e}"
            )
        if piv_row != col:
            aug[[col, piv_row]] = aug[[piv_row, col]]
        aug[col] = aug[col] / aug[col, col]
        for r in range(n):
            if r != col and aug[r, col] != 0.0:
                aug[r] = aug[r] - aug[r, col] * aug[col]
    return aug[:, n:]


def lu_det(mat, rel_pivot_tol: float = PIVOT_REL_TOL) -> float:
    """Determinant via partial-pivot elimination; 0.0 when a pivot falls
    below the relative threshold (the block counts as singular).
    """
    a = np.atleast_2d(np.asarray(mat, dtype=float)).copy()
    n = a.shape[0]
    if a.shape != (n, n):
        raise ShapeMismatch(f"matrix must be square, got {a.shape}")
    scale = float(np.linalg.norm(a))
    if scale == 0.0:
        return 0.0
    det = 1.0
    for col in range(n):
        piv_row = col + int(np.argmax(np.abs(a[col:, col])))
        piv = a[piv_row, col]
        if abs(piv) < rel_pivot_tol * scale:
            return 0.0
        if piv_row != col:
            a[[col, piv_row]] = a[[piv_row, col]]
            det = -det
        det *= a[col, col]
        for r in range(col + 1, n):
            if a[r, col] != 0.0:
                a[r, col:] = a[r, col:] - (a[r, col] / a[col, col]) * a[col, col:]
    return float(det)


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


def signature(s: SurplusModel, x, y, z, cross_check: bool = True) -> SignatureReport:
    """Signature of G at (x,y,z) plus the bound n_x+n_y+n_z − λ₋.

    When the three axis dimensions agree and all blocks are invertible, also
    runs the reduced-matrix cross-check; a SingularBlock there only skips the
    cross-check, the main signature is always returned.
    """
    xv = s._canon(x, "x"); yv = s._canon(y, "y"); zv = s._canon(z, "z")
    blocks = s.hessian_blocks(xv, yv, zv)
    G = assemble_G(blocks)
    eigs = jacobi_eigenvalues(G)
    n_pos, n_neg, n_zero, thr = classify_eigenvalues(eigs)
    nx, ny, nz = s.dims
    bound = nx + ny + nz - n_neg
    check = None
    skipped = None
    if not cross_check:
        skipped = "disabled"
    elif not (nx == ny == nz):
        skipped = "axis dimensions differ"
    else:
        A, B, C = blocks
        try:
            a_inv = lu_inverse(A)
            for blk in (B, C):
                lu_inverse(blk)
        except SingularBlock as exc:
            skipped = f"singular block: {exc}"
        else:
            P = C.T @ a_inv @ B
            M = P + P.T
            m_eigs = jacobi_eigenvalues(M)
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
