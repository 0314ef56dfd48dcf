"""Structural diagnostics: stability, purity, prices, twist checks.

Everything here is a pure report generator.  Verdicts ("holds", "fails",
"inconclusive") are data, not exceptions; exceptions mean the inputs did not
meet a checker's contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .clusters import gradient_clusters
from .core import (Coupling, DualPotentials, Record, ValidationError, as_point_array,
                   grid_scale)
from .reduction import _residual_fold, reduce
from .surplus import (
    MissingUV,
    SingularBlock,
    StrictlyHedonicSurplus,
    _block_rows,
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
class StabilityReport(Record):
    max_grid_residual: float
    max_support_residual: float
    stable: bool
    worst_triple: dict
    tol: float


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
    over blocks of _block_rows(n_z) pairs: the z-columns of the pairs
    (X[a], Y[a]), bit for bit those of value_grid."""
    X, Y, Z = s._grids(X, Y, Z)
    rows = _block_rows(Z.shape[0])
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
    scale (its range max − min); the report gives it in absolute units.  A
    grid of infinite range certifies nothing and reads not stable.

    Without W the grid enters only through sbar = max_z s: pass the solve's
    reduction as reduced, or it is computed here.  ReducedSurplus.residual
    gives the largest residual of each pair's z-column, so the report is the
    full grid's bit for bit.  With W the grid is folded one block of x rows
    at a time by _residual_fold, the three-index LPs' pricing pass, and
    reduced is not used.
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
            found = _residual_fold(s, X, Y, Z, U, V, W)
            scale = grid_scale(np.array([found.lowest, found.highest]))
            max_grid = found.peak
            wi, wj, wk = np.unravel_index(found.cell, (X.shape[0], Y.shape[0], Z.shape[0]))
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
        if z_potential is not None:
            support_res -= W[K]
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
        stable=max_grid <= tol < np.inf and max_support <= tol,
        worst_triple=worst,
        tol=tol,
    )


# --- purity -----------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PurityReport(Record):
    pure: bool
    buyer_seller_pure: bool
    buyer_good_pure: bool
    fan_out: dict
    F_Y: dict
    F_Z: dict
    mass_threshold: float
    warnings: tuple = ()


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
class PriceTable(Record):
    """Per-triple prices by both formulas: p = u − U and p′ = V − v."""

    rows: tuple
    max_discrepancy: float
    tol: float


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
class TwistReport(Record):
    criterion: str
    verdict: str
    witness: dict | None = None
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.verdict not in ("holds", "fails", "inconclusive"):
            raise ValidationError(f"unknown verdict {self.verdict!r}")
        if self.verdict == "fails" and self.witness is None:
            raise ValidationError("a failing verdict must carry a witness")


def check_compatibility_1d(s, points) -> TwistReport:
    """One-dimensional compatibility: s_xy · s_xz / s_yz > 0 at every sample.

    A vanishing product counts as a failure (witness value 0); a vanishing
    s_yz denominator, |s_yz| ≤ 1e-12·(|s_xy| + |s_xz|), is a contract
    violation (DegenerateCross).
    """
    if tuple(s.dims) != (1, 1, 1):
        raise ValidationError("compatibility check is for 1-D models only")
    X, Y, Z = s._grids(*([triple[a] for triple in points] for a in range(3)))
    sxy, sxz, syz = (b[:, 0, 0] for b in s._hess(X, Y, Z))
    degenerate = np.abs(syz) <= 1e-12 * (np.abs(sxy) + np.abs(sxz))
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


def _first_collision(grads: np.ndarray, tol: float):
    """The first (slot, a, b), b > a, with ‖grads[slot, a] − grads[slot, b]‖∞
    ≤ tol, or None.  a is the smallest row of the first cluster of two or
    more, as all its neighbours come after it, and _close_after gives b."""
    slots, per, d = grads.shape
    label = gradient_clusters(grads.reshape(slots * per, d), np.arange(slots + 1) * per,
                              np.full(slots, tol))
    shared = np.flatnonzero(np.bincount(label) > 1)
    if shared.size == 0:
        return None
    slot, a = divmod(int(np.argmax(label == shared[0])), per)
    return slot, a, int(_close_after(grads[slot], a, tol)[0])


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
    the first such cluster, in (x, smallest member) order, as the witness.
    Gradients cluster within 1e-6 of the largest gradient entry of the
    slice, every slice at once: gradient_clusters runs lockstep rounds, each
    comparing one walked member of every slice still growing with that
    slice's unclustered members.  Sizes and witness come from its labels.
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
    G = s._grad(X[idx[:, 0]], Y[idx[:, 1]], Z[idx[:, 2]])[0]
    bounds = np.searchsorted(idx[:, 0], np.arange(X.shape[0] + 1))
    held = np.flatnonzero(bounds[1:] > bounds[:-1])  # the buyers with members
    peak = np.zeros(X.shape[0])
    peak[held] = np.maximum.reduceat(np.abs(G).max(axis=-1), bounds[held])
    label = gradient_clusters(G, bounds, 1e-6 * peak)

    # clusters in (x, smallest row) order: sizes, buyers and spreads
    sizes = np.bincount(label)
    by = np.argsort(label, kind="stable")
    heads = sizes.cumsum() - sizes
    coords = np.hstack([Y[idx[by, 1]], Z[idx[by, 2]]])
    # the largest pairwise ‖c_a − c_b‖∞ is the widest coordinate range
    spread = (np.maximum.reduceat(coords, heads)
              - np.minimum.reduceat(coords, heads)).max(axis=-1)
    owner = idx[by[heads], 0]
    split = np.flatnonzero((sizes > 1) & (spread > POINT_SEP_TOL))
    witness = None
    if split.size:
        c = int(split[0])
        rows = by[heads[c]:heads[c] + sizes[c]]
        witness = {
            "x": X[owner[c]].tolist(),
            "members": [{"y": Y[j].tolist(), "z": Z[k].tolist()}
                        for j, k in idx[rows, 1:].tolist()],
            "gradient": G[rows[0]].tolist(),
            "spread": float(spread[c]),
        }
    ranked = sizes[np.lexsort((sizes, owner))].tolist()
    ends = np.searchsorted(owner, held, side="right").tolist()
    cluster_sizes = [ranked[lo:hi] for lo, hi in zip([0] + ends[:-1], ends)]

    # the samples, from lists made once
    jk = idx[:, 1:].tolist()
    Yr, Zr, Gr = list(Y), list(Z), list(G)
    members = list(map(tuple, jk))
    points = [(Yr[j], Zr[k]) for j, k in jk]
    b = bounds.tolist()
    samples = [SplittingSetSample(x=x, shift=shift, member_indices=tuple(members[lo:hi]),
                                  member_points=tuple(points[lo:hi]),
                                  gradients=tuple(Gr[lo:hi]), tol=tol)
               for x, shift, lo, hi in zip(X, shifts.tolist(), b, b[1:])]

    details = {"n_x_samples": X.shape[0], "cluster_sizes": cluster_sizes}
    return samples, TwistReport(criterion="TzSS-sampled", witness=witness, details=details,
                                verdict="holds" if witness is None else "fails")


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

    # u_grads[i] collide at goods z_a, z_b; v_grads[k] at sellers y_a, y_b
    for side, grads, slots, fixed, rows, pair in (("u", u_grads, X, "x", Z, "z"),
                                                  ("v", v_grads, Z, "z", Y, "y")):
        hit = _first_collision(grads, grad_tol)
        if hit is not None:
            slot, a, b = hit
            return TwistReport(
                criterion="strictly-hedonic", verdict="fails",
                witness={"side": side, fixed: slots[slot].tolist(),
                         f"{pair}_a": rows[a].tolist(), f"{pair}_b": rows[b].tolist(),
                         "gradient": grads[slot, a].tolist()},
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
    xs, ys, zs = s._grids(*(P[:: max(1, P.shape[0] // 3)] for P in (X, Y, Z)))
    u, v = s._uv(xs[:, None, None], ys[None, :, None], zs[None, None, :])
    if np.any(np.ptp(u, axis=1) > STABILITY_TOL * np.ptp(u)):
        raise NotSeparable("u(x,·,z) varies with y")
    if np.any(np.ptp(v, axis=0) > STABILITY_TOL * np.ptp(v)):
        raise NotSeparable("v(·,y,z) varies with x")


# --- support dimension ------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SupportDimensionReport(Record):
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
    # pass runs along them; a block holds _block_rows of those m·d offsets
    cols = np.ascontiguousarray(pts.T)
    rows = _block_rows(m * pts.shape[1])
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
