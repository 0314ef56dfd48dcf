"""Ready-made model instances: the 1-D counterexample fixture and seeded
random populations for cross-checking the solvers.

The counterexample grids are dyadic (step 1/16) so that x - y lands exactly
on the Z grid and every surplus/potential evaluation is exact in floats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Coupling, DiscreteMeasure, DualPotentials, GridSpec, ValidationError
from .surplus import (
    BilinearSurplus,
    CounterexampleSurplus,
    ExpCosSurplus,
    Supermodular1DSurplus,
    SurplusModel,
)

FAMILY_CYCLE = ("bilinear", "counterexample", "supermodular",
                "bilinear-zfree", "expcos")


@dataclass(frozen=True, eq=False)
class ModelInstance:
    """A surplus model with populations, ready to hand to a solver."""

    family: str
    surplus: SurplusModel
    mu: DiscreteMeasure
    nu: DiscreteMeasure
    z_points: np.ndarray
    seed: int | None = None


@dataclass(frozen=True, eq=False)
class CounterexampleInstance:
    """The a = 1/2 fixture: grids, plane coupling, exact potentials.

    X spans [1/2, 1], Y spans [0, 1/2], Z spans [0, 1], all at step 1/16.
    The coupling puts product mass on (x, y, x-y); U = x²/2 and V = y²/2
    support it exactly.
    """

    surplus: CounterexampleSurplus
    mu: DiscreteMeasure
    nu: DiscreteMeasure
    z_spec: GridSpec
    z_points: np.ndarray
    coupling: Coupling
    potentials: DualPotentials


def _plane_k(i: int, j: int) -> int:
    # x_i = (8+i)/16 and y_j = j/16, so x - y sits at z index 8 + i - j.
    return 8 + i - j


def counterexample_plane_coupling(mu: DiscreteMeasure, nu: DiscreteMeasure,
                                  z_points: np.ndarray,
                                  mode: str = "product") -> Coupling:
    """A coupling supported on the plane x = y + z.

    mode 'product' spreads mass mu_i * nu_j over all 81 pairs;
    'comonotone' matches sorted-x to sorted-y (i with i);
    'anticomonotone' matches i with n-1-i.  All three share the same
    objective value, since on the plane s = x²/2 + y²/2.
    """
    n = mu.size
    if mode == "product":
        entries = [(i, j, _plane_k(i, j), mu.weights[i] * nu.weights[j])
                   for i in range(n) for j in range(n)]
    elif mode == "comonotone":
        entries = [(i, i, _plane_k(i, i), mu.weights[i]) for i in range(n)]
    elif mode == "anticomonotone":
        entries = [(i, n - 1 - i, _plane_k(i, n - 1 - i), mu.weights[i])
                   for i in range(n)]
    else:
        raise ValidationError(f"unknown plane-coupling mode {mode!r}")
    idx = np.array([(i, j, k) for i, j, k, _ in entries], dtype=np.int64)
    masses = np.array([w for _, _, _, w in entries], dtype=float)
    return Coupling(idx, masses, mu, nu, z_points=z_points)


def counterexample_instance(a: float = 0.5) -> CounterexampleInstance:
    """The quadratic counterexample on its canonical dyadic grids."""
    x_spec = GridSpec(0.5, 1.0, 9)
    y_spec = GridSpec(0.0, 0.5, 9)
    z_spec = GridSpec(0.0, 1.0, 17)
    X = x_spec.points()
    Y = y_spec.points()
    Z = z_spec.points()
    mu = DiscreteMeasure.uniform(X)
    nu = DiscreteMeasure.uniform(Y)
    coupling = counterexample_plane_coupling(mu, nu, Z, mode="product")
    U = 0.5 * X[:, 0] ** 2
    V = 0.5 * Y[:, 0] ** 2
    return CounterexampleInstance(
        surplus=CounterexampleSurplus(a),
        mu=mu, nu=nu,
        z_spec=z_spec, z_points=Z,
        coupling=coupling,
        potentials=DualPotentials(U, V),
    )


def _well_separated(pts: np.ndarray) -> bool:
    """Whether every two points are more than 1e-6 apart (Euclidean).

    Only pairs within 1e-6 on the first coordinate can be closer, so the
    points are sorted on it and compared k places apart, for k = 1, 2, ...
    until no pair k places apart is that close: O(n·d) memory, and the same
    sqrt(Σ Δ²) > 1e-6 on every pair it measures as on all pairs."""
    p = pts[np.argsort(pts[:, 0], kind="stable")]
    for k in range(1, p.shape[0]):
        near = p[k:, 0] - p[:-k, 0] <= 1e-6
        if not near.any():
            break
        d = np.sqrt(np.sum((p[k:][near] - p[:-k][near]) ** 2, axis=-1))
        if not np.all(d > 1e-6):
            return False
    return True


def _distinct_points(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    for _ in range(64):
        pts = rng.uniform(0.0, 1.0, size=(n, dim))
        if _well_separated(pts):
            return pts
    raise RuntimeError("could not draw well-separated points")


def _sorted_points(pts: np.ndarray) -> np.ndarray:
    order = np.lexsort(pts.T[::-1])
    return pts[order]


def random_instance(seed: int, n: int | None = None, nz: int | None = None,
                    family: str | None = None) -> ModelInstance:
    """A seeded random population over one of the surplus families.

    The family cycles with the seed unless given explicitly; sizes default
    to n in 2..6 and nz in 2..4, and a size below 1 is refused with
    ValidationError.  Identical seeds give identical instances.
    """
    rng = np.random.default_rng(seed)
    if family is None:
        family = FAMILY_CYCLE[seed % len(FAMILY_CYCLE)]
    if family not in FAMILY_CYCLE:
        raise ValidationError(
            f"unknown family {family!r}; expected one of {FAMILY_CYCLE}")
    if n is None:
        n = 2 + seed % 5
    if nz is None:
        nz = 2 + (seed // 5) % 3
    for name, size in (("n", n), ("nz", nz)):
        if size < 1:
            raise ValidationError(f"{name} must be at least 1, got {size}")

    if family == "bilinear":
        s = BilinearSurplus(
            A=[[rng.uniform(-2.0, 2.0)]],
            B=[[rng.uniform(-2.0, 2.0)]],
            C=[[rng.uniform(-2.0, 2.0)]],
            D=[[rng.uniform(-1.0, 0.0)]],
            f=[0.0, rng.uniform(-1.0, 1.0)],
            g=[0.0, rng.uniform(-1.0, 1.0)],
            h=[0.0, rng.uniform(-1.0, 1.0)],
        )
    elif family == "counterexample":
        s = CounterexampleSurplus(a=rng.uniform(0.1, 1.5))
    elif family == "supermodular":
        exps = tuple(int(e) for e in rng.integers(1, 4, size=3))
        s = Supermodular1DSurplus(exponents=exps, scale=rng.uniform(0.5, 2.0))
    elif family == "bilinear-zfree":
        # No z interaction at all: every good is optimal, so reductions tie.
        s = BilinearSurplus(
            A=[[rng.uniform(0.5, 2.0)]], B=[[0.0]], C=[[0.0]],
            f=[0.0, rng.uniform(-1.0, 1.0)],
        )
    else:
        s = ExpCosSurplus()

    dx, dy, dz = s.dims
    mu = DiscreteMeasure.uniform(_sorted_points(_distinct_points(rng, n, dx)))
    nu = DiscreteMeasure.uniform(_sorted_points(_distinct_points(rng, n, dy)))
    zs = _sorted_points(_distinct_points(rng, nz, dz))
    return ModelInstance(family=family, surplus=s, mu=mu, nu=nu,
                         z_points=zs, seed=seed)
