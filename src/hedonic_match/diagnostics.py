"""Structural diagnostics: stability, purity, prices, twist checks.

Everything here is a pure report generator.  Verdicts ("holds", "fails",
"inconclusive") are data, not exceptions; exceptions mean the inputs did not
meet a checker's contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Coupling, DualPotentials, ValidationError, as_point_array
from .reduction import reduce
from .surplus import (
    MissingUV,
    SingularBlock,
    StrictlyHedonicSurplus,
    _nonsingular,
    signature,
)

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


class InfeasibleV(ValidationError):
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


def verify_stability(surplus_or_cost, coupling: Coupling,
                     potentials: DualPotentials,
                     tol: float = STABILITY_TOL,
                     z_potential=None) -> StabilityReport:
    """Check U(x) + V(y) ≥ s(x,y,z) on the whole grid with equality on the
    coupling's support.

    For arity-2 couplings pass the reward matrix; for arity 3 the surplus
    model.  A fixed-alpha solve carries a third potential W over goods;
    passing it checks U + V + W ≥ s instead.  Stability is equivalent to LP
    optimality of the coupling.
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
        residual = surplus_or_cost.value_grid(
            coupling.mu.points, coupling.nu.points, coupling.z_points) - U[:, None, None]
        residual -= V[None, :, None]
        if z_potential is not None:
            W = np.asarray(z_potential, dtype=float).reshape(-1)
            if W.size != coupling.z_points.shape[0]:
                raise SizeMismatch(
                    f"W has {W.size} entries for {coupling.z_points.shape[0]} goods")
            residual -= W[None, None, :]
        worst_flat = int(np.argmax(residual))
        wi, wj, wk = np.unravel_index(worst_flat, residual.shape)
        support_res = residual[coupling.indices[:, 0], coupling.indices[:, 1],
                               coupling.indices[:, 2]]
        worst = {
            "indices": [int(wi), int(wj), int(wk)],
            "x": coupling.mu.points[wi].tolist(),
            "y": coupling.nu.points[wj].tolist(),
            "z": coupling.z_points[wk].tolist(),
            "residual": float(residual[wi, wj, wk]),
        }
    elif coupling.arity == 2:
        grid = np.asarray(surplus_or_cost, dtype=float)
        if grid.shape != (coupling.mu.size, coupling.nu.size):
            raise SizeMismatch(
                f"reward shape {grid.shape}, expected "
                f"({coupling.mu.size}, {coupling.nu.size})"
            )
        residual = grid - U[:, None] - V[None, :]
        worst_flat = int(np.argmax(residual))
        wi, wj = np.unravel_index(worst_flat, residual.shape)
        support_res = residual[coupling.indices[:, 0], coupling.indices[:, 1]]
        worst = {
            "indices": [int(wi), int(wj)],
            "x": coupling.mu.points[wi].tolist(),
            "y": coupling.nu.points[wj].tolist(),
            "residual": float(residual[wi, wj]),
        }
    else:
        raise SizeMismatch(f"unsupported arity {coupling.arity}")

    max_grid = float(np.max(residual))
    max_support = float(np.max(np.abs(support_res))) if support_res.size else 0.0
    stable = max_grid <= tol and max_support <= tol
    return StabilityReport(
        max_grid_residual=max_grid,
        max_support_residual=max_support,
        stable=stable,
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


def check_purity(coupling: Coupling, mass_threshold: float = MASS_THRESHOLD,
                 warnings: tuple = ()) -> PurityReport:
    """Fan-out counts per buyer index; pure means one (seller, good) each.

    Entries below mass_threshold are ignored as simplex dust.  Warnings
    (e.g. argmax ties from the reduction) pass through untouched.
    """
    if coupling.arity != 3:
        raise ValidationError("purity analysis needs an arity-3 coupling")
    ys: dict[int, set] = {}
    zs: dict[int, set] = {}
    pairs: dict[int, set] = {}
    for (i, j, k), w in zip(coupling.indices, coupling.masses):
        if w < mass_threshold:
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
        mass_threshold=mass_threshold,
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


def compute_prices(s, coupling: Coupling, potentials: DualPotentials,
                   tol: float = STABILITY_TOL) -> PriceTable:
    """Transfer prices on the support of a (stable) coupling.

    Needs a model that exposes u and v separately; on a stable support the
    two formulas agree within tol, and the table records their difference.
    """
    if not getattr(s, "has_uv", False):
        raise MissingUV("price recovery needs separate u and v")
    if coupling.arity != 3:
        raise ValidationError("price recovery needs an arity-3 coupling")
    U, V = potentials.U, potentials.V
    if U.size != coupling.mu.size or V.size != coupling.nu.size:
        raise SizeMismatch("potentials sized inconsistently with the coupling")
    rows = []
    worst = 0.0
    for (i, j, k), w in zip(coupling.indices, coupling.masses):
        i, j, k = int(i), int(j), int(k)
        x = coupling.mu.points[i]
        y = coupling.nu.points[j]
        z = coupling.z_points[k]
        u_val = s.value_u(x, y, z)
        v_val = s.value_v(x, y, z)
        p_buyer = u_val - float(U[i])
        p_seller = float(V[j]) - v_val
        diff = abs(p_buyer - p_seller)
        worst = max(worst, diff)
        rows.append({
            "i": i, "j": j, "k": k, "mass": float(w),
            "p_buyer": p_buyer, "p_seller": p_seller, "diff": diff,
        })
    return PriceTable(rows=tuple(rows), max_discrepancy=worst, tol=tol)


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


def check_compatibility_1d(s, points, degenerate_tol: float = 1e-12) -> TwistReport:
    """One-dimensional compatibility: s_xy · s_xz / s_yz > 0 at every sample.

    A vanishing product counts as a failure (witness value 0); a vanishing
    s_yz denominator is a contract violation (DegenerateCross).
    """
    if tuple(s.dims) != (1, 1, 1):
        raise ValidationError("compatibility check is for 1-D models only")
    values = []
    for triple in points:
        x, y, z = triple
        sxy, sxz, syz = (float(b[0, 0]) for b in s.hessian_blocks(x, y, z))
        if abs(syz) <= degenerate_tol * (1.0 + abs(sxy) + abs(sxz)):
            raise DegenerateCross(
                f"s_yz = {syz} at {tuple(float(np.ravel(v)[0]) for v in triple)}"
            )
        product = sxy * sxz / syz
        values.append(product)
        if product <= 0.0:
            return TwistReport(
                criterion="compatibility",
                verdict="fails",
                witness={"point": [float(np.ravel(v)[0]) for v in triple],
                         "product": product},
                details={"n_samples": len(points)},
            )
    return TwistReport(
        criterion="compatibility",
        verdict="holds",
        details={"n_samples": len(points), "min_product": min(values)},
    )


def check_tss_bilinear(A, B, C, tol: float = EIG_REL_TOL) -> TwistReport:
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
        a_inv = np.linalg.inv(_nonsingular(A))
    except SingularBlock as exc:
        return TwistReport(criterion="TSS-bilinear", verdict="inconclusive",
                           details={"reason": f"singular A: {exc}"})
    P = C.T @ a_inv @ B
    M = P + P.T
    eigs = np.linalg.eigvalsh(M)
    threshold = tol * float(np.linalg.norm(M))
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


def check_tzss_bilinear(A, B, C, D, tol: float = EIG_REL_TOL) -> TwistReport:
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
    s_threshold = tol * float(np.linalg.norm(S))
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


def _cluster_by_gradient(grads: list[np.ndarray], grad_tol: float) -> list[list[int]]:
    """Transitive closure of the relation ‖g_a − g_b‖∞ ≤ grad_tol."""
    n = len(grads)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a in range(n):
        for b in range(a + 1, n):
            if float(np.max(np.abs(grads[a] - grads[b]))) <= grad_tol:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
    groups: dict[int, list[int]] = {}
    for a in range(n):
        groups.setdefault(find(a), []).append(a)
    return [groups[r] for r in sorted(groups)]


def sample_splitting_sets(s, xs, V, ys, zs, tol: float = STABILITY_TOL,
                          grad_tol: float | None = None,
                          point_tol: float = POINT_SEP_TOL,
                          require_feasible: bool = False):
    """Extract z-trivial splitting sets and test the sampled twist.

    For each x the members are the (y,z) grid pairs attaining the slice
    maximum of s(x,·,·) − V(·) within tol.  Each slice is implicitly shifted
    by that maximum (splitting functions are defined up to a constant per x);
    require_feasible instead insists the maximum is ≤ tol and raises
    InfeasibleV when it is not.

    The sampled twist fails when one gradient cluster contains two members
    whose (y,z) points genuinely differ; the report carries the witness.
    """
    X = as_point_array(xs)
    Y = as_point_array(ys)
    Z = as_point_array(zs)
    V = np.asarray(V, dtype=float).reshape(-1)
    if V.size != Y.shape[0]:
        raise SizeMismatch(f"V has {V.size} entries for {Y.shape[0]} y-points")
    delta = s.value_grid(X, Y, Z) - V[None, :, None]

    samples = []
    witness = None
    cluster_sizes = []
    for ix in range(X.shape[0]):
        slice_delta = delta[ix]
        shift = float(np.max(slice_delta))
        if require_feasible and shift > tol:
            raise InfeasibleV(
                f"max of s - V is {shift:.3e} > tol at x index {ix}; "
                "V does not dominate this slice"
            )
        member_idx = np.argwhere(slice_delta >= shift - tol)
        members = [(int(j), int(k)) for j, k in member_idx]
        points = [(Y[j], Z[k]) for j, k in members]
        grads = [np.asarray(s.grad_x(X[ix], Y[j], Z[k]), dtype=float)
                 for j, k in members]
        samples.append(SplittingSetSample(
            x=X[ix], shift=shift,
            member_indices=tuple(members),
            member_points=tuple(points),
            gradients=tuple(grads),
            tol=tol,
        ))
        if not grads:
            continue
        local_tol = grad_tol
        if local_tol is None:
            scale = max(float(np.max(np.abs(g))) for g in grads)
            local_tol = 1e-6 * (1.0 + scale)
        clusters = _cluster_by_gradient(grads, local_tol)
        cluster_sizes.append(sorted(len(c) for c in clusters))
        if witness is not None:
            continue
        for cluster in clusters:
            if len(cluster) < 2:
                continue
            coords = [np.concatenate(points[a]) for a in cluster]
            spread = max(float(np.max(np.abs(ca - cb)))
                         for ai, ca in enumerate(coords)
                         for cb in coords[ai + 1:])
            if spread > point_tol:
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


def check_strictly_hedonic(u, v, xs, ys, zs, grad_tol: float | None = None,
                           tol: float = STABILITY_TOL) -> TwistReport:
    """Sufficient conditions for the twist when s = u(x,z) + v(y,z).

    u and v are hedonic components (value/grad_p/grad_z over (p,z)); a full
    surplus model with separate u,v may be passed for both, in which case
    separability is verified numerically first (NotSeparable on failure).
    Checks injectivity of z ↦ D_x u(x,z) and of y ↦ D_z v(y,z), then flags
    boundary argmaxes of s(x,y,·), which void the interior-maximum proviso.
    """
    X = as_point_array(xs)
    Y = as_point_array(ys)
    Z = as_point_array(zs)

    if hasattr(u, "grad_p"):
        u_comp, v_comp = u, v
        s_model = StrictlyHedonicSurplus(u_comp, v_comp)

        def du_x(x, z):
            return np.asarray(u_comp.grad_p(np.ravel(x), np.ravel(z)), dtype=float)

        def dv_z(y, z):
            return np.asarray(v_comp.grad_z(np.ravel(y), np.ravel(z)), dtype=float)
    else:
        s_model = u
        if v is not None and v is not u:
            raise ValidationError("pass one full model, or two components")
        if not getattr(s_model, "has_uv", False):
            raise MissingUV("strictly hedonic check needs separate u and v")
        _verify_separable(s_model, X, Y, Z, tol)

        y_ref = Y[0]
        x_ref = X[0]

        def du_x(x, z):
            return np.asarray(s_model.grad_x(x, y_ref, z), dtype=float)

        def dv_z(y, z):
            return np.asarray(s_model.grad_v_z(x_ref, y, z), dtype=float)

    u_grads = [[du_x(X[i], Z[k]) for k in range(Z.shape[0])]
               for i in range(X.shape[0])]
    v_grads = [[dv_z(Y[j], Z[k]) for j in range(Y.shape[0])]
               for k in range(Z.shape[0])]
    if grad_tol is None:
        scale = max([float(np.max(np.abs(g))) for row in u_grads + v_grads
                     for g in row] or [0.0])
        grad_tol = 1e-6 * (1.0 + scale)

    def first_collision(rows):
        for slot, row in enumerate(rows):
            for a in range(len(row)):
                for b in range(a + 1, len(row)):
                    if float(np.max(np.abs(row[a] - row[b]))) <= grad_tol:
                        return slot, a, b
        return None

    hit = first_collision(u_grads)
    if hit is not None:
        i, ka, kb = hit
        return TwistReport(
            criterion="strictly-hedonic", verdict="fails",
            witness={"side": "u", "x": X[i].tolist(),
                     "z_a": Z[ka].tolist(), "z_b": Z[kb].tolist(),
                     "gradient": u_grads[i][ka].tolist()},
            details={"grad_tol": grad_tol},
        )
    hit = first_collision(v_grads)
    if hit is not None:
        k, ja, jb = hit
        return TwistReport(
            criterion="strictly-hedonic", verdict="fails",
            witness={"side": "v", "z": Z[k].tolist(),
                     "y_a": Y[ja].tolist(), "y_b": Y[jb].tolist(),
                     "gradient": v_grads[k][ja].tolist()},
            details={"grad_tol": grad_tol},
        )

    red = reduce(s_model, X, Y, Z)
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


def _verify_separable(s, X, Y, Z, tol: float) -> None:
    """Numerically confirm u is y-free and v is x-free on sample triples."""
    xs = X[:: max(1, X.shape[0] // 3)]
    ys = Y[:: max(1, Y.shape[0] // 3)]
    zs = Z[:: max(1, Z.shape[0] // 3)]
    for x in xs:
        for z in zs:
            u_vals = [s.value_u(x, y, z) for y in ys]
            if max(u_vals) - min(u_vals) > tol:
                raise NotSeparable("u(x,·,z) varies with y")
    for y in ys:
        for z in zs:
            v_vals = [s.value_v(x, y, z) for x in xs]
            if max(v_vals) - min(v_vals) > tol:
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


def support_dimension(coupling: Coupling, radius: float, s=None,
                      eig_cutoff: float = PCA_CUTOFF) -> SupportDimensionReport:
    """Estimate the dimension of the coupling's support in X×Y×Z.

    Needs ≥ 10 support points for the PCA (a single point trivially has
    dimension 0); with a surplus model the report also carries the signature
    bound n_x+n_y+n_z − λ₋ evaluated at the support centroid.
    """
    if coupling.arity != 3:
        raise ValidationError("support dimension needs an arity-3 coupling")
    pts = np.hstack([
        coupling.mu.points[coupling.indices[:, 0]],
        coupling.nu.points[coupling.indices[:, 1]],
        coupling.z_points[coupling.indices[:, 2]],
    ])
    m = pts.shape[0]

    bound = None
    sig = None
    if s is not None:
        w = coupling.masses / coupling.total_mass
        centroid = w @ pts
        dx = coupling.mu.dim
        dy = coupling.nu.dim
        rep = signature(s, centroid[:dx], centroid[dx:dx + dy],
                        centroid[dx + dy:])
        bound = rep.dimension_bound
        sig = rep.signature

    if m == 1:
        return SupportDimensionReport(
            estimate=0, mean_count=0.0, local_counts=(0,),
            radius=radius, cutoff=eig_cutoff,
            signature_bound=bound, signature_triple=sig,
        )
    if m < 10:
        raise TooFewPoints(f"{m} support points; need 1 or >= 10")

    counts = []
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)
    r2 = radius * radius
    for p in range(m):
        nbr = pts[d2[p] <= r2]
        centered = nbr - nbr.mean(axis=0)
        cov = centered.T @ centered / nbr.shape[0]
        eigs = np.linalg.eigvalsh(cov)
        top = float(eigs[-1])
        if top <= 0.0:
            counts.append(0)
        else:
            counts.append(int(np.sum(eigs >= eig_cutoff * top)))
    mean_count = float(np.mean(counts))
    return SupportDimensionReport(
        estimate=int(round(mean_count)),
        mean_count=mean_count,
        local_counts=tuple(counts),
        radius=radius,
        cutoff=eig_cutoff,
        signature_bound=bound,
        signature_triple=sig,
    )
