"""Surplus models s(x,y,z) with exact derivatives and signature analysis.

Families
--------
- Bilinear:        s = xᵀAy + xᵀBz + yᵀCz + zᵀDz + f(x) + g(y) + h(z)
- Counterexample:  1-D, u = xy + xz, v = -yz - a z²  (non-pure at a = 1/2)
- ExpCos:          2-D exponential/cosine surplus with signature (2,4,0)
- Supermodular1D:  s = scale · x^p y^q z^r on 1-D axes
- StrictlyHedonic: s = u(x,z) + v(y,z), no direct x-y interaction
- Tabulated:       dense value grid, finite-difference derivatives

Each family evaluates s in one broadcasting kernel over points of shape
(..., d); the scalar, row-paired and product-grid evaluators all call it, so
the three round identically.

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


def _snap(nodes: np.ndarray, q, label: str) -> np.ndarray:
    """Index of the node each query sits on (snap tolerance 1e-8 relative to
    the node span); OutOfGrid when any query is off the nodes."""
    q = np.asarray(q, dtype=float)
    idx = np.argmin(np.abs(nodes - q[..., None]), axis=-1)
    span = float(nodes[-1] - nodes[0]) if nodes.size > 1 else 1.0
    off = ~(np.abs(nodes[idx] - q) <= 1e-8 * (1.0 + abs(span)))
    if np.any(off):
        raise OutOfGrid(f"{label} = {q[off].flat[0]} is not a grid node")
    return idx


# --- base model ------------------------------------------------------------

class SurplusModel:
    """Base class; subclasses provide _kernel() and analytic derivatives."""

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

    def _kernel(self, X, Y, Z) -> np.ndarray:
        """s at points of shape (..., d) on each axis, broadcast over the
        leading axes."""
        raise NotImplementedError

    def value(self, x, y, z) -> float:
        return float(self._kernel(self._canon(x, "x"), self._canon(y, "y"),
                                  self._canon(z, "z")))

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

    def _kernel(self, X, Y, Z):
        return (_pair(X, self.A, Y) + _pair(X, self.B, Z) + _pair(Y, self.C, Z)
                + _pair(Z, self.D, Z)
                + _poly_val(self.f, X) + _poly_val(self.g, Y)
                + _poly_val(self.h, Z))

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

    def _kernel(self, X, Y, Z):
        x, y, z = X[..., 0], Y[..., 0], Z[..., 0]
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
        return (np.exp(x1 + y1) * np.cos(x2 - y2)
                + np.exp(x1 + z1) * np.cos(x2 - z2)
                + np.exp(y1 + z1) * np.cos(z2 - y2)
                - np.exp(2.0 * x1) - np.exp(2.0 * y1) - np.exp(2.0 * z1))

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

    def _kernel(self, X, Y, Z):
        p, q, r = self.exponents
        return (self.scale * self._pow(X[..., 0], p) * self._pow(Y[..., 0], q)
                * self._pow(Z[..., 0], r))

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

    def to_dict(self) -> dict:
        return {"family": self.family, "exponents": list(self.exponents),
                "scale": self.scale}


# --- strictly hedonic components -------------------------------------------

class _Component:
    """One side w(p, z) of a hedonic surplus; subclasses provide _kernel()
    over points of shape (..., d) and the derivatives."""

    def value(self, p, z) -> float:
        return float(self._kernel(np.atleast_1d(np.asarray(p, dtype=float)),
                                  np.atleast_1d(np.asarray(z, dtype=float))))


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

    def grad_p(self, p, z) -> np.ndarray:
        return self.M @ z + _poly_grad(self.f, p)

    def grad_z(self, p, z) -> np.ndarray:
        return self.M.T @ p + (self.Dz + self.Dz.T) @ z + _poly_grad(self.h, z)

    def hess_pz(self, p, z) -> np.ndarray:
        return self.M.copy()

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "M": self.M.tolist(), "Dz": self.Dz.tolist()}
        for key, polys in (("f", self.f), ("h", self.h)):
            payload = _polys_to_jsonable(polys)
            if payload is not None:
                out[key] = payload
        return out


class TabulatedComponent(_Component):
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

    def _at(self, P, Z):
        return (_snap(self.p_nodes, np.atleast_1d(P)[..., 0], "p"),
                _snap(self.z_nodes, np.atleast_1d(Z)[..., 0], "z"))

    def _kernel(self, P, Z):
        return self.values[self._at(P, Z)]

    def grad_p(self, p, z) -> np.ndarray:
        return np.array([self._dp[self._at(p, z)]])

    def grad_z(self, p, z) -> np.ndarray:
        return np.array([self._dz[self._at(p, z)]])

    def hess_pz(self, p, z) -> np.ndarray:
        return np.array([[self._dpz[self._at(p, z)]]])

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

    def _kernel(self, X, Y, Z):
        return self.u._kernel(X, Z) + self.v._kernel(Y, Z)

    def value_u(self, x, y, z) -> float:
        return self.u.value(self._canon(x, "x"), self._canon(z, "z"))

    def value_v(self, x, y, z) -> float:
        return self.v.value(self._canon(y, "y"), self._canon(z, "z"))

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

    def _ijk(self, X, Y, Z):
        return (_snap(self.x_nodes, X[..., 0], "x"),
                _snap(self.y_nodes, Y[..., 0], "y"),
                _snap(self.z_nodes, Z[..., 0], "z"))

    def _kernel(self, X, Y, Z):
        return self.values[self._ijk(X, Y, Z)]

    def _at(self, x, y, z):
        return self._ijk(self._canon(x, "x"), self._canon(y, "y"),
                         self._canon(z, "z"))

    def grad_x(self, x, y, z) -> np.ndarray:
        return np.array([self._gx[self._at(x, y, z)]])

    def grad_y(self, x, y, z) -> np.ndarray:
        return np.array([self._gy[self._at(x, y, z)]])

    def grad_z(self, x, y, z) -> np.ndarray:
        return np.array([self._gz[self._at(x, y, z)]])

    def hessian_blocks(self, x, y, z):
        ijk = self._at(x, y, z)
        return (np.array([[self._gxy[ijk]]]),
                np.array([[self._gxz[ijk]]]),
                np.array([[self._gyz[ijk]]]))

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


def classify_eigenvalues(eigs: np.ndarray,
                         rel: float = ZERO_EIG_REL) -> tuple[int, int, int, float]:
    """Count (positive, negative, zero) eigenvalues with the relative
    threshold rel · max|λ|; returns the threshold too.
    """
    eigs = np.asarray(eigs, dtype=float)
    largest = float(np.max(np.abs(eigs))) if eigs.size else 0.0
    thr = rel * largest
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
    eigs = np.linalg.eigvalsh(G)
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
            a_inv = np.linalg.inv(_nonsingular(A))
            for blk in (B, C):
                _nonsingular(blk)
        except SingularBlock as exc:
            skipped = f"singular block: {exc}"
        else:
            P = C.T @ a_inv @ B
            M = P + P.T
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
