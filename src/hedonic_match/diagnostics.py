"""Structural diagnostics: stability, purity, prices, twist checks.

Everything here is a pure report generator.  Verdicts ("holds", "fails",
"inconclusive") are data, not exceptions; exceptions mean the inputs did not
meet a checker's contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Coupling, DualPotentials, ValidationError, as_point_array, grid_scale
from .reduction import reduce
from .surplus import (
    MissingUV,
    SingularBlock,
    StrictlyHedonicSurplus,
    _GRID_BLOCK_CELLS,
    _nonsingular,
    _reduced_matrix,
    signature,
)

# a fraction of the range of s in verify_stability, compute_prices and
# sample_splitting_sets, and of u and v in the separability check
STABILITY_TOL = 1e-8
MASS_THRESHOLD = 1e-12
EIG_REL_TOL = 1e-10
PCA_CUTOFF = 0.05
POINT_SEP_TOL = 1e-9


class SizeMismatch(ValidationError):
    pass


class DegenerateCross(ValidationError):
    pass


class NotSeparable(ValidationError):
    pass


class TooFewPoints(ValidationError):
    pass


# --- stability --------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class StabilityReport:
    max_grid_residual: float
    max_support_residual: float
    stable: bool
    worst_triple: dict
    tol: float

    def to_dict(self) -> dict:
        return {
            "max_grid_residual": self.max_grid_residual,
            "max_support_residual": self.max_support_residual,
            "stable": self.stable,
            "worst_triple": self.worst_triple,
            "tol": self.tol,
        }


def _reduction_for(s, X, Y, Z, reduced):
    """reduced, checked against the points, or reduce(s, X, Y, Z)."""
    if reduced is None:
        return reduce(s, X, Y, Z)
    if (reduced.shape != (X.shape[0], Y.shape[0])
            or not np.array_equal(reduced.z_points, Z)):
        raise SizeMismatch(
            f"reduction of shape {reduced.shape} over {reduced.z_points.shape[0]} "
            f"goods, points ({X.shape[0]}, {Y.shape[0]}) over {Z.shape[0]} goods")
    return reduced


def _column_blocks(s, X, Y, Z):
    """Yield (lo, block) with block[a, k] = s(X[lo + a], Y[lo + a], Z[k])
    over blocks of at most _GRID_BLOCK_CELLS cells: the z-columns of the
    pairs (X[a], Y[a]), bit for bit those of value_grid."""
    X, Y, Z = (s._canon_grid(P, axis) for P, axis in ((X, "x"), (Y, "y"), (Z, "z")))
    rows = max(1, _GRID_BLOCK_CELLS // Z.shape[0])
    for lo in range(0, X.shape[0], rows):
        yield lo, s._kernel(X[lo:lo + rows, None], Y[lo:lo + rows, None], Z[None, :])


def verify_stability(surplus_or_cost, coupling: Coupling,
                     potentials: DualPotentials,
                     tol: float = STABILITY_TOL,
                     z_potential=None, reduced=None) -> StabilityReport:
    """Check U(x) + V(y) ≥ s(x,y,z) on the whole grid with equality on the
    coupling's support.

    For arity-2 couplings pass the reward matrix; for arity 3 the surplus
    model.  A fixed-alpha solve carries a third potential W over goods;
    passing it checks U + V + W ≥ s instead.  Stability is equivalent to LP
    optimality of the coupling.  tol is a fraction of the checked grid's
    scale (its range max − min); the report gives it in absolute units.

    Without W the grid enters only through sbar = max_z s: pass the solve's
    reduction as reduced, or it is computed here.  ReducedSurplus.residual
    gives the largest residual of each pair's z-column, so the report is the
    full grid's bit for bit.  With W the grid is folded one block of x rows
    at a time and reduced is not used.
    """
    U, V = potentials.U, potentials.V
    if U.size != coupling.mu.size or V.size != coupling.nu.size:
        raise SizeMismatch(
            f"potentials sized ({U.size}, {V.size}), marginals "
            f"({coupling.mu.size}, {coupling.nu.size})"
        )
    if z_potential is not None and coupling.arity != 3:
        raise SizeMismatch("a good potential needs an arity-3 coupling")
    if coupling.arity == 3:
        s = surplus_or_cost
        X, Y, Z = coupling.mu.points, coupling.nu.points, coupling.z_points
        I, J, K = coupling.indices.T
        if z_potential is not None:
            W = np.asarray(z_potential, dtype=float).reshape(-1)
            if W.size != Z.shape[0]:
                raise SizeMismatch(f"W has {W.size} entries for {Z.shape[0]} goods")
            support_res = np.empty(I.size)
            extremes, peaks = [], []
            # fold each block of x rows: extremes of s, the first argmax of
            # the residual and the residuals of the support triples in those rows
            for lo, residual in s._grid_blocks(X, Y, Z):
                extremes.append((residual.min(), residual.max()))
                residual -= U[lo:lo + residual.shape[0], None, None]
                residual -= V[None, :, None]
                residual -= W[None, None, :]
                flat = int(np.argmax(residual))
                peaks.append((residual.flat[flat], lo, flat, residual.shape))
                rows = (I >= lo) & (I < lo + residual.shape[0])
                support_res[rows] = residual[I[rows] - lo, J[rows], K[rows]]
            scale = grid_scale(np.array(extremes))
            # np.argmax keeps the first of equal block maxima, and the first NaN
            max_grid, lo, flat, shape = peaks[int(np.argmax([p[0] for p in peaks]))]
            bi, wj, wk = np.unravel_index(flat, shape)
            wi = lo + bi
        else:
            red = _reduction_for(s, X, Y, Z, reduced)
            scale = red.grid_scale
            residual = red.residual(U, V)
            # the first pair attaining the max (or the first NaN) holds the
            # grid's first worst triple: no earlier pair's column reaches it
            wi, wj = np.unravel_index(int(np.argmax(residual)), residual.shape)
            column = s.value_grid(X[wi:wi + 1], Y[wj:wj + 1], Z)[0, 0]
            column -= U[wi]
            column -= V[wj]
            wk = int(np.argmax(column))
            max_grid = column[wk]
            support_res = s.value_batch(X[I], Y[J], Z[K])
            support_res -= U[I]
            support_res -= V[J]
        worst = {
            "indices": [int(wi), int(wj), int(wk)],
            "x": X[wi].tolist(),
            "y": Y[wj].tolist(),
            "z": Z[wk].tolist(),
            "residual": float(max_grid),
        }
    else:  # arity 2
        grid = np.asarray(surplus_or_cost, dtype=float)
        if grid.shape != (coupling.mu.size, coupling.nu.size):
            raise SizeMismatch(
                f"reward shape {grid.shape}, expected "
                f"({coupling.mu.size}, {coupling.nu.size})"
            )
        scale = grid_scale(grid)
        residual = grid - U[:, None] - V[None, :]
        worst_flat = int(np.argmax(residual))
        wi, wj = np.unravel_index(worst_flat, residual.shape)
        max_grid = np.max(residual)
        support_res = residual[coupling.indices[:, 0], coupling.indices[:, 1]]
        worst = {
            "indices": [int(wi), int(wj)],
            "x": coupling.mu.points[wi].tolist(),
            "y": coupling.nu.points[wj].tolist(),
            "residual": float(residual[wi, wj]),
        }

    max_grid = float(max_grid)
    max_support = float(np.max(np.abs(support_res))) if support_res.size else 0.0
    tol = tol * scale
    return StabilityReport(
        max_grid_residual=max_grid,
        max_support_residual=max_support,
        stable=max_grid <= tol and max_support <= tol,
        worst_triple=worst,
        tol=tol,
    )


# --- purity -----------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PurityReport:
    pure: bool
    buyer_seller_pure: bool
    buyer_good_pure: bool
    fan_out: dict
    F_Y: dict
    F_Z: dict
    mass_threshold: float
    warnings: tuple = ()

    def to_dict(self) -> dict:
        return {
            "pure": self.pure,
            "buyer_seller_pure": self.buyer_seller_pure,
            "buyer_good_pure": self.buyer_good_pure,
            "fan_out": {str(i): dict(v) for i, v in sorted(self.fan_out.items())},
            "F_Y": {str(i): j for i, j in sorted(self.F_Y.items())},
            "F_Z": {str(i): k for i, k in sorted(self.F_Z.items())},
            "mass_threshold": self.mass_threshold,
            "warnings": list(self.warnings),
        }


def check_purity(coupling: Coupling, warnings: tuple = ()) -> PurityReport:
    """Fan-out counts per buyer index; pure means one (seller, good) each.

    Entries below MASS_THRESHOLD are ignored as simplex dust.  Warnings
    (e.g. argmax ties from the reduction) pass through untouched.
    """
    if coupling.arity != 3:
        raise ValidationError("purity analysis needs an arity-3 coupling")
    ys: dict[int, set] = {}
    zs: dict[int, set] = {}
    pairs: dict[int, set] = {}
    for (i, j, k), w in zip(coupling.indices, coupling.masses):
        if w < MASS_THRESHOLD:
            continue
        i, j, k = int(i), int(j), int(k)
        ys.setdefault(i, set()).add(j)
        zs.setdefault(i, set()).add(k)
        pairs.setdefault(i, set()).add((j, k))
    fan_out = {i: {"y": len(ys[i]), "z": len(zs[i]), "yz": len(pairs[i])}
               for i in ys}
    pure = all(v["yz"] == 1 for v in fan_out.values())
    bs_pure = all(v["y"] == 1 for v in fan_out.values())
    bg_pure = all(v["z"] == 1 for v in fan_out.values())
    F_Y = {i: next(iter(ys[i])) for i in ys if len(ys[i]) == 1}
    F_Z = {i: next(iter(zs[i])) for i in zs if len(zs[i]) == 1}
    return PurityReport(
        pure=pure,
        buyer_seller_pure=bs_pure,
        buyer_good_pure=bg_pure,
        fan_out=fan_out,
        F_Y=F_Y,
        F_Z=F_Z,
        mass_threshold=MASS_THRESHOLD,
        warnings=tuple(warnings),
    )


# --- prices -----------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PriceTable:
    """Per-triple prices by both formulas: p = u − U and p′ = V − v."""

    rows: tuple
    max_discrepancy: float
    tol: float

    def to_dict(self) -> dict:
        return {
            "rows": [dict(r) for r in self.rows],
            "max_discrepancy": self.max_discrepancy,
            "tol": self.tol,
        }


def compute_prices(s, coupling: Coupling, potentials: DualPotentials) -> PriceTable:
    """Transfer prices on the support of a (stable) coupling.

    Needs a model that exposes u and v separately; on a stable support the
    two formulas agree within STABILITY_TOL times the range of s over the
    support, and the table records their difference and that tolerance in
    absolute units.
    """
    if not getattr(s, "has_uv", False):
        raise MissingUV("price recovery needs separate u and v")
    if coupling.arity != 3:
        raise ValidationError("price recovery needs an arity-3 coupling")
    U, V = potentials.U, potentials.V
    if U.size != coupling.mu.size or V.size != coupling.nu.size:
        raise SizeMismatch("potentials sized inconsistently with the coupling")
    i, j, k = coupling.indices.T
    X, Y, Z = coupling.mu.points[i], coupling.nu.points[j], coupling.z_points[k]
    scale = grid_scale(s.value_batch(X, Y, Z))
    u, v = s._uv(X, Y, Z)
    p_buyer = u - U[i]
    p_seller = V[j] - v
    diff = np.abs(p_buyer - p_seller)
    columns = (i, j, k, coupling.masses, p_buyer, p_seller, diff)
    rows = tuple(dict(zip(("i", "j", "k", "mass", "p_buyer", "p_seller", "diff"), row))
                 for row in zip(*(c.tolist() for c in columns)))
    # a NaN difference does not count toward the maximum
    worst = float(np.fmax.reduce(diff, initial=0.0))
    return PriceTable(rows=rows, max_discrepancy=worst, tol=STABILITY_TOL * scale)


# --- twist checkers ---------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TwistReport:
    criterion: str
    verdict: str
    witness: dict | None = None
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.verdict not in ("holds", "fails", "inconclusive"):
            raise ValidationError(f"unknown verdict {self.verdict!r}")
        if self.verdict == "fails" and self.witness is None:
            raise ValidationError("a failing verdict must carry a witness")

    def to_dict(self) -> dict:
        return {
            "criterion": self.criterion,
            "verdict": self.verdict,
            "witness": self.witness,
            "details": self.details,
        }


def check_compatibility_1d(s, points) -> TwistReport:
    """One-dimensional compatibility: s_xy · s_xz / s_yz > 0 at every sample.

    A vanishing product counts as a failure (witness value 0); a vanishing
    s_yz denominator is a contract violation (DegenerateCross).
    """
    if tuple(s.dims) != (1, 1, 1):
        raise ValidationError("compatibility check is for 1-D models only")
    X, Y, Z = (s._canon_grid([triple[a] for triple in points], axis)
               for a, axis in enumerate("xyz"))
    sxy, sxz, syz = (b[:, 0, 0] for b in s._hess(X, Y, Z))
    degenerate = np.abs(syz) <= 1e-12 * (1.0 + np.abs(sxy) + np.abs(sxz))
    with np.errstate(divide="ignore", invalid="ignore"):
        product = sxy * sxz / syz
    # the first point that is degenerate or failing decides the outcome
    bad = np.flatnonzero(degenerate | (product <= 0.0))
    if bad.size:
        first = int(bad[0])
        point = [float(X[first, 0]), float(Y[first, 0]), float(Z[first, 0])]
        if degenerate[first]:
            raise DegenerateCross(f"s_yz = {float(syz[first])} at {tuple(point)}")
        return TwistReport(
            criterion="compatibility",
            verdict="fails",
            witness={"point": point, "product": float(product[first])},
            details={"n_samples": len(points)},
        )
    return TwistReport(
        criterion="compatibility",
        verdict="holds",
        details={"n_samples": len(points), "min_product": float(np.min(product))},
    )


def check_tss_bilinear(A, B, C) -> TwistReport:
    """Twist on splitting sets for bilinear surplus: the symmetric matrix
    CᵀA⁻¹B + Bᵀ(Aᵀ)⁻¹C must be positive definite.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    if A.shape[0] != A.shape[1]:
        return TwistReport(criterion="TSS-bilinear", verdict="inconclusive",
                           details={"reason": f"A is {A.shape}, not square"})
    try:
        M = _reduced_matrix(A, B, C)
    except SingularBlock as exc:
        return TwistReport(criterion="TSS-bilinear", verdict="inconclusive",
                           details={"reason": f"singular A: {exc}"})
    eigs = np.linalg.eigvalsh(M)
    threshold = EIG_REL_TOL * float(np.linalg.norm(M))
    min_eig = float(eigs[0])
    if min_eig > threshold:
        return TwistReport(
            criterion="TSS-bilinear", verdict="holds",
            details={"matrix": M.tolist(), "eigenvalues": eigs.tolist(),
                     "threshold": threshold},
        )
    return TwistReport(
        criterion="TSS-bilinear", verdict="fails",
        witness={"min_eigenvalue": min_eig},
        details={"matrix": M.tolist(), "eigenvalues": eigs.tolist(),
                 "threshold": threshold},
    )


def check_tzss_bilinear(A, B, C, D) -> TwistReport:
    """Twist on z-trivial splitting sets for bilinear surplus.

    Three gates: C invertible, D + Dᵀ negative definite, and the criterion
    matrix B − A(Cᵀ)⁻¹(D+Dᵀ) non-singular.  Every gate produces a verdict;
    nothing raises.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    D = np.atleast_2d(np.asarray(D, dtype=float))

    if C.shape[0] != C.shape[1]:
        return TwistReport(criterion="TzSS-bilinear", verdict="fails",
                           witness={"gate": "C", "reason": f"C is {C.shape}, not square"})
    try:
        ct_inv = np.linalg.inv(_nonsingular(C.T))
    except SingularBlock as exc:
        return TwistReport(criterion="TzSS-bilinear", verdict="fails",
                           witness={"gate": "C", "reason": f"singular: {exc}"})

    S = D + D.T
    s_eigs = np.linalg.eigvalsh(S)
    s_threshold = EIG_REL_TOL * float(np.linalg.norm(S))
    max_eig = float(s_eigs[-1])
    if not max_eig < -s_threshold:
        return TwistReport(
            criterion="TzSS-bilinear", verdict="fails",
            witness={"gate": "D+D^T", "max_eigenvalue": max_eig},
            details={"eigenvalues": s_eigs.tolist()},
        )

    K = B - A @ ct_inv @ S
    if K.shape[0] != K.shape[1]:
        return TwistReport(criterion="TzSS-bilinear", verdict="fails",
                           witness={"gate": "criterion",
                                    "reason": f"criterion matrix is {K.shape}, not square"})
    try:
        det, singular = float(np.linalg.det(_nonsingular(K))), None
    except SingularBlock as exc:
        det, singular = 0.0, str(exc)
    criterion_value = float(K[0, 0]) if K.shape == (1, 1) else det
    details = {"criterion_matrix": K.tolist(), "det": det,
               "criterion_value": criterion_value}
    if singular is not None:
        return TwistReport(
            criterion="TzSS-bilinear", verdict="fails",
            witness={"gate": "criterion", "det": det, "reason": singular},
            details=details,
        )
    return TwistReport(criterion="TzSS-bilinear", verdict="holds", details=details)


# --- splitting sets ---------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SplittingSetSample:
    """Argmax set of s(x,·,·) − V(·) at one buyer x, with buyer gradients.

    shift is the slice maximum of s − V; members live within tol of it.
    When V supports x exactly (dual feasibility with equality) the shift is
    U(x); member (y,z) pairs all satisfy the splitting inequality.
    """

    x: np.ndarray
    shift: float
    member_indices: tuple
    member_points: tuple
    gradients: tuple
    tol: float

    @property
    def size(self) -> int:
        return len(self.member_indices)

    def to_dict(self) -> dict:
        return {
            "x": self.x.tolist(),
            "shift": self.shift,
            "members": [{"j": int(j), "k": int(k),
                         "y": y.tolist(), "z": z.tolist()}
                        for (j, k), (y, z) in zip(self.member_indices,
                                                  self.member_points)],
            "gradients": [g.tolist() for g in self.gradients],
            "tol": self.tol,
        }


def _close_after(G: np.ndarray, a: int, tol: float) -> np.ndarray:
    """Indices b > a, ascending, with ‖G[a] − G[b]‖∞ ≤ tol."""
    dist = np.max(np.abs(G[a + 1:] - G[a]), axis=-1)
    return a + 1 + np.flatnonzero(dist <= tol)


def _cluster_by_gradient(grads, grad_tol: float) -> list[list[int]]:
    """Transitive closure of the relation ‖g_a − g_b‖∞ ≤ grad_tol over the
    rows of grads: ascending clusters, ordered by their smallest row.

    Each cluster grows from the smallest row not yet taken; every row it
    takes is compared with all rows still untaken in one vectorised step.
    """
    G = np.asarray(grads, dtype=float)
    rest = np.arange(G.shape[0])  # the rows not yet taken, ascending
    clusters = []
    while rest.size:
        cluster, rest = [int(rest[0])], rest[1:]
        for a in cluster:  # grows while it is walked
            if not rest.size:
                break
            near = np.abs(G[rest] - G[a]).max(axis=-1) <= grad_tol
            cluster += rest[near].tolist()
            rest = rest[~near]
        clusters.append(sorted(cluster))
    return clusters


def sample_splitting_sets(s, xs, V, ys, zs, reduced=None):
    """Extract z-trivial splitting sets and test the sampled twist.

    For each x the members are the (y,z) grid pairs attaining the slice
    maximum of s(x,·,·) − V(·) within tol, STABILITY_TOL of the grid's range
    max − min (the samples give it in absolute units).  Each slice is
    implicitly shifted by that maximum (splitting functions are defined up
    to a constant per x).

    The slice maxima come from the reduction sbar = max_z s (pass the
    solve's as reduced, or it is computed here): ReducedSurplus.residual
    with U = 0 gives max_k fl(s_k − V_j) bit for bit.  As s ≤ sbar, only the
    z-columns of pairs within tol of their slice maximum can hold members,
    and only those are evaluated.

    The sampled twist fails when one gradient cluster contains two members
    whose (y,z) points differ by more than POINT_SEP_TOL; the report carries
    the witness.  Gradients cluster within 1e-6 of the largest gradient
    entry of the slice.
    """
    X = as_point_array(xs)
    Y = as_point_array(ys)
    Z = as_point_array(zs)
    V = np.asarray(V, dtype=float).reshape(-1)
    if V.size != Y.shape[0]:
        raise SizeMismatch(f"V has {V.size} entries for {Y.shape[0]} y-points")
    red = _reduction_for(s, X, Y, Z, reduced)
    tol = STABILITY_TOL * red.grid_scale
    delta = red.residual(np.zeros(X.shape[0]), V)
    shifts = np.max(delta, axis=1)
    # the members in (x, y, z) order, from the candidates' z-columns
    pairs = np.argwhere(delta >= (shifts - tol)[:, None])
    blocks = [np.empty((0, 3), dtype=np.intp)]
    for lo, cols in _column_blocks(s, X[pairs[:, 0]], Y[pairs[:, 1]], Z):
        at = pairs[lo:lo + cols.shape[0]]
        cols -= V[at[:, 1], None]
        a, k = np.nonzero(cols >= (shifts[at[:, 0]] - tol)[:, None])
        blocks.append(np.column_stack([at[a], k]))
    # the members' buyer gradients in one batch
    idx = np.concatenate(blocks)
    all_grads = s._grad(X[idx[:, 0]], Y[idx[:, 1]], Z[idx[:, 2]])[0]
    bounds = np.searchsorted(idx[:, 0], np.arange(X.shape[0] + 1))

    samples = []
    witness = None
    cluster_sizes = []
    for ix in range(X.shape[0]):
        lo, hi = bounds[ix], bounds[ix + 1]
        js, ks = idx[lo:hi, 1], idx[lo:hi, 2]
        grads = all_grads[lo:hi]
        points = [(Y[j], Z[k]) for j, k in zip(js, ks)]
        samples.append(SplittingSetSample(
            x=X[ix], shift=float(shifts[ix]),
            member_indices=tuple(map(tuple, idx[lo:hi, 1:].tolist())),
            member_points=tuple(points),
            gradients=tuple(grads),
            tol=tol,
        ))
        if hi == lo:
            continue
        clusters = _cluster_by_gradient(grads, 1e-6 * float(np.max(np.abs(grads))))
        cluster_sizes.append(sorted(len(c) for c in clusters))
        if witness is not None:
            continue
        for cluster in clusters:
            if len(cluster) < 2:
                continue
            # the largest pairwise ‖c_a − c_b‖∞ is the widest coordinate range
            coords = np.hstack([Y[js[cluster]], Z[ks[cluster]]])
            spread = float(np.max(np.ptp(coords, axis=0)))
            if spread > POINT_SEP_TOL:
                witness = {
                    "x": X[ix].tolist(),
                    "members": [{"y": points[a][0].tolist(),
                                 "z": points[a][1].tolist()} for a in cluster],
                    "gradient": grads[cluster[0]].tolist(),
                    "spread": spread,
                }
                break

    details = {"n_x_samples": X.shape[0], "cluster_sizes": cluster_sizes}
    if witness is not None:
        report = TwistReport(criterion="TzSS-sampled", verdict="fails",
                             witness=witness, details=details)
    else:
        report = TwistReport(criterion="TzSS-sampled", verdict="holds",
                             details=details)
    return samples, report


def check_strictly_hedonic(u, v, xs, ys, zs, reduced=None) -> TwistReport:
    """Sufficient conditions for the twist when s = u(x,z) + v(y,z).

    u and v are hedonic components (value/grad_p/grad_z over (p,z)), checked
    as StrictlyHedonicSurplus(u, v); or u is a surplus model with separate
    u, v and v is None.  Separability is verified numerically first
    (NotSeparable on failure).  Checks injectivity of z ↦ D_x u(x,z) and of
    y ↦ D_z v(y,z), with gradients equal within 1e-6 of the largest entry,
    then flags boundary argmaxes of s(x,y,·), which void the
    interior-maximum proviso; they come from reduced, the reduction of
    s = u + v, when it is passed.
    """
    X = as_point_array(xs)
    Y = as_point_array(ys)
    Z = as_point_array(zs)

    if hasattr(u, "grad_p"):
        s_model = StrictlyHedonicSurplus(u, v)
    elif v is None or v is u:
        s_model = u
    else:
        raise ValidationError("pass one full model, or two components")
    if not getattr(s_model, "has_uv", False):
        raise MissingUV("strictly hedonic check needs separate u and v")
    _verify_separable(s_model, X, Y, Z)

    # u_grads[i, k] = D_x u(x_i, z_k) and v_grads[k, j] = D_z v(y_j, z_k); on
    # a separable model D_x s does not depend on y, so y_1 stands in for all
    u_grads = s_model._grad(X[:, None], Y[0], Z[None, :])[0]
    v_grads = s_model._grad_v_z(Y[None, :], Z[:, None])
    grad_tol = 1e-6 * max((float(np.max(np.abs(g))) for g in (u_grads, v_grads)
                           if g.size), default=0.0)

    def first_collision(rows):
        for slot, row in enumerate(rows):
            for a in range(len(row)):
                close = _close_after(row, a, grad_tol)
                if close.size:
                    return slot, a, int(close[0])
        return None

    hit = first_collision(u_grads)
    if hit is not None:
        i, ka, kb = hit
        return TwistReport(
            criterion="strictly-hedonic", verdict="fails",
            witness={"side": "u", "x": X[i].tolist(),
                     "z_a": Z[ka].tolist(), "z_b": Z[kb].tolist(),
                     "gradient": u_grads[i, ka].tolist()},
            details={"grad_tol": grad_tol},
        )
    hit = first_collision(v_grads)
    if hit is not None:
        k, ja, jb = hit
        return TwistReport(
            criterion="strictly-hedonic", verdict="fails",
            witness={"side": "v", "z": Z[k].tolist(),
                     "y_a": Y[ja].tolist(), "y_b": Y[jb].tolist(),
                     "gradient": v_grads[k, ja].tolist()},
            details={"grad_tol": grad_tol},
        )

    red = _reduction_for(s_model, X, Y, Z, reduced)
    if red.any_boundary:
        bi, bj = np.argwhere(red.boundary)[0]
        return TwistReport(
            criterion="strictly-hedonic", verdict="inconclusive",
            witness={"reason": "argmax on the Z boundary",
                     "x": X[bi].tolist(), "y": Y[bj].tolist(),
                     "z": red.selected_z(int(bi), int(bj)).tolist(),
                     "n_boundary_pairs": int(np.sum(red.boundary))},
            details={"grad_tol": grad_tol},
        )
    return TwistReport(criterion="strictly-hedonic", verdict="holds",
                       details={"grad_tol": grad_tol})


def _verify_separable(s, X, Y, Z) -> None:
    """Numerically confirm u is y-free and v is x-free on sample triples: the
    spread of u over y (of v over x) at each sampled point may be at most
    STABILITY_TOL times the range of u (of v) over all samples."""
    xs, ys, zs = (s._canon_grid(P[:: max(1, P.shape[0] // 3)], axis)
                  for P, axis in ((X, "x"), (Y, "y"), (Z, "z")))
    u, v = s._uv(xs[:, None, None], ys[None, :, None], zs[None, None, :])
    if np.any(np.ptp(u, axis=1) > STABILITY_TOL * np.ptp(u)):
        raise NotSeparable("u(x,·,z) varies with y")
    if np.any(np.ptp(v, axis=0) > STABILITY_TOL * np.ptp(v)):
        raise NotSeparable("v(·,y,z) varies with x")


# --- support dimension ------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SupportDimensionReport:
    """Local-PCA estimate of the support dimension, against the G bound.

    The estimate is heuristic: it counts covariance eigenvalues above a
    relative cutoff among neighbors within radius, averaged over support
    points.  The signature bound comes from one point (the mass centroid).
    """

    estimate: int
    mean_count: float
    local_counts: tuple
    radius: float
    cutoff: float
    signature_bound: int | None = None
    signature_triple: tuple | None = None
    heuristic: bool = True

    def to_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "mean_count": self.mean_count,
            "local_counts": list(self.local_counts),
            "radius": self.radius,
            "cutoff": self.cutoff,
            "signature_bound": self.signature_bound,
            "signature_triple": (None if self.signature_triple is None
                                 else list(self.signature_triple)),
            "heuristic": self.heuristic,
        }


def _require_radius(radius) -> None:
    if not (np.isfinite(radius) and radius > 0):
        raise ValidationError(f"radius must be finite and positive, got {radius}")


def support_dimension(coupling: Coupling, radius: float, s=None) -> SupportDimensionReport:
    """Estimate the dimension of the coupling's support in X×Y×Z.

    Needs ≥ 10 support points for the PCA (a single point trivially has
    dimension 0) and a finite radius > 0; with a surplus model the report
    also carries the signature bound n_x+n_y+n_z − λ₋ evaluated at the
    support centroid.  Local covariances come from masked sums (count, Σ D,
    Σ D Dᵀ) over one block of points at a time, with D = p_b − p_a centred on
    each point a, so that a shift of the support does not move them.
    """
    _require_radius(radius)
    if coupling.arity != 3:
        raise ValidationError("support dimension needs an arity-3 coupling")
    pts = np.hstack([
        coupling.mu.points[coupling.indices[:, 0]],
        coupling.nu.points[coupling.indices[:, 1]],
        coupling.z_points[coupling.indices[:, 2]],
    ])
    m = pts.shape[0]

    bound = sig = None
    if s is not None:
        w = coupling.masses / coupling.total_mass
        centroid = w @ pts
        dx, dy = coupling.mu.dim, coupling.nu.dim
        rep = signature(s, centroid[:dx], centroid[dx:dx + dy],
                        centroid[dx + dy:])
        bound = rep.dimension_bound
        sig = rep.signature

    if 1 < m < 10:
        raise TooFewPoints(f"{m} support points; need 1 or >= 10")

    r2 = radius * radius
    covs = np.empty((m, pts.shape[1], pts.shape[1]))
    # D[a, :, b] = p_b - p_a with the support points b last, so that every
    # pass runs along them; a block holds at most _GRID_BLOCK_CELLS offsets
    cols = np.ascontiguousarray(pts.T)
    rows = max(1, _GRID_BLOCK_CELLS // (m * pts.shape[1]))
    for lo in range(0, m, rows):
        D = cols[None, :, :] - pts[lo:lo + rows, :, None]
        near = np.sum(D * D, axis=1) <= r2
        D *= near[:, None, :]
        cnt = near.sum(axis=1)[:, None, None]
        mean = D.sum(axis=2)[:, :, None] / cnt
        covs[lo:lo + rows] = (D @ D.transpose(0, 2, 1) / cnt
                              - mean * mean.transpose(0, 2, 1))
    eigs = np.linalg.eigvalsh(covs)
    top = eigs[:, -1:]
    counts = np.where(top[:, 0] <= 0.0, 0, np.sum(eigs >= PCA_CUTOFF * top, axis=1))
    mean_count = float(np.mean(counts))
    return SupportDimensionReport(
        estimate=int(round(mean_count)),
        mean_count=mean_count,
        local_counts=tuple(counts.tolist()),
        radius=radius,
        cutoff=PCA_CUTOFF,
        signature_bound=bound,
        signature_triple=sig,
    )
