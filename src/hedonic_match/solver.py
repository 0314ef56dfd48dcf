"""Exact LP solvers for the matching problems, plus brute-force oracles.

Two engines, kept deliberately separate so the dual-route acceptance checks
compare genuinely different code paths:

- a primal network simplex on the bipartite transportation polytope
  (northwest-corner start, largest-reduced-cost entering cell, Cunningham's
  strongly feasible leaving rule, potentials updated on the re-hung subtree
  only), used by the reduce-then-lift route;
- a dense two-phase revised simplex with Bland's rule over the explicit
  constraint matrix, used by the direct three-index LPs.

Both are maximizers, fully deterministic, and return vertex solutions so
support-based diagnostics stay meaningful.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import (
    Coupling,
    DiscreteMeasure,
    DimensionMismatch,
    DualPotentials,
    SOLVER_MARGINAL_TOL,
    ValidationError,
    as_point_array,
    project,
)
from .reduction import ReducedSurplus, reduce

# The transport simplex scales ENTER_TOL and DEGEN_TOL by the reward range;
# the revised simplex uses them as absolute bounds.
ENTER_TOL = 1e-11
DEGEN_TOL = 1e-9
RATIO_TOL = 1e-11
MASS_CLAMP = 1e-9


class SolverInfeasible(RuntimeError):
    """The LP has no feasible point within tolerance."""


class InfeasibleMarginals(SolverInfeasible):
    pass


class PivotBudgetExceeded(RuntimeError):
    """A simplex used up its pivot budget before reaching an optimum."""


class TooLarge(ValidationError):
    pass


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Optimal coupling, payoffs, and solve metadata.

    z_potential is populated only for fixed-alpha tripartite solves, where
    the dual objective includes a third potential over goods.
    """

    coupling: Coupling
    objective: float
    potentials: DualPotentials
    duality_gap: float
    iterations: int
    degenerate_optimum: bool
    method: str
    z_potential: np.ndarray | None = None
    reduction: ReducedSurplus | None = None
    warnings: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        out = {
            "coupling": self.coupling.to_dict(),
            "U": self.potentials.U.tolist(),
            "V": self.potentials.V.tolist(),
            "objective": self.objective,
            "duality_gap": self.duality_gap,
            "iterations": self.iterations,
            "degenerate_optimum": self.degenerate_optimum,
            "method": self.method,
        }
        if self.z_potential is not None:
            out["W"] = self.z_potential.tolist()
        if self.warnings:
            out["warnings"] = list(self.warnings)
        return out


# --- transportation simplex (bipartite) ------------------------------------
#
# The basis is a spanning tree on m + n nodes, rows 0..m-1 and columns
# m..m+n-1, where basic cell (i, j) is the arc between nodes i and m + j.
# It hangs from row 0 and is kept as lists indexed by node: the parent, the
# depth, the mass on the arc to the parent and that arc's flat cell index.

def _northwest_path(a: np.ndarray, b: np.ndarray) -> tuple[list[tuple[int, int]], list[float]]:
    """Northwest-corner start: a staircase of exactly m+n-1 cells.

    The last row takes what is left of each column, so that a shortfall of
    rounding in the row weights cannot leave a zero-mass cell there.
    """
    m, n = a.size, b.size
    ra = a.astype(float).copy()
    rb = b.astype(float).copy()
    cells: list[tuple[int, int]] = []
    alloc: list[float] = []
    i = j = 0
    for _ in range(m + n - 1):
        take = rb[j] if i == m - 1 else min(ra[i], rb[j])
        cells.append((i, j))
        alloc.append(float(take))
        ra[i] -= take
        rb[j] -= take
        if i == m - 1 and j == n - 1:
            break
        if i == m - 1:
            j += 1
        elif j == n - 1:
            i += 1
        elif ra[i] == 0.0:
            i += 1
        else:
            j += 1
    return cells, alloc


def _tree_masses(cells: list[tuple[int, int]], a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Recompute basic masses from the marginals by peeling tree leaves.

    Keeps the final coupling free of drift accumulated over pivots.  Degrees
    are counted once and leaves wait in a queue, so the peel is linear.
    """
    m = a.size
    rem = np.concatenate([a, b]).tolist()
    incident: list[list[int]] = [[] for _ in rem]
    for t, (i, j) in enumerate(cells):
        incident[i].append(t)
        incident[m + j].append(t)
    degree = [len(arcs) for arcs in incident]
    alive = [True] * len(cells)
    out = np.zeros(len(cells))
    leaves = deque(u for u, d in enumerate(degree) if d == 1)
    while leaves:
        u = leaves.popleft()
        if degree[u] != 1:
            continue  # its last cell went when its neighbour was peeled
        t = next(t for t in incident[u] if alive[t])
        i, j = cells[t]
        other = m + j if u < m else i
        out[t] = rem[u]
        rem[other] -= rem[u]
        alive[t] = False
        degree[u] = 0
        degree[other] -= 1
        if degree[other] == 1:
            leaves.append(other)
    return out


def _transport_simplex(reward: np.ndarray, a: np.ndarray, b: np.ndarray,
                       enter_tol: float = ENTER_TOL,
                       degen_tol: float = DEGEN_TOL):
    """Primal network simplex on the transportation polytope (maximization).

    Enters the cell of largest reduced cost (Dantzig's rule, first flat
    index on ties) and leaves by Cunningham's rule, which keeps the tree
    strongly feasible: every zero-mass arc hangs with its row as the child.
    After a pivot only the potentials of the re-hung subtree are recomputed.
    Both tolerances are relative to the reward range max R - min R.

    Returns (cells, masses, U, V, iterations, degenerate_flag) where cells
    is the optimal basis (m+n-1 entries, some possibly at zero level).
    """
    m, n = reward.shape
    scale = float(reward.max() - reward.min())
    parent = [-1] * (m + n)
    depth = [0] * (m + n)
    flow = [0.0] * (m + n)
    cell = [0] * (m + n)  # node 0 is the root and has no arc
    pot = [0.0] * (m + n)
    children: list[list[int]] = [[] for _ in range(m + n)]
    # each staircase cell after the first brings in one new node, its child
    for (i, j), w in zip(*_northwest_path(a, b)):
        child, par = (m + j, i) if parent[m + j] < 0 else (i, m + j)
        parent[child], depth[child] = par, depth[par] + 1
        flow[child], cell[child] = w, i * n + j
        pot[child] = reward.item(i, j) - pot[par]
        children[par].append(child)
    assert all(flow[c] > 0.0 or a[parent[c]] == 0.0 or b[c - m] == 0.0
               for c in range(m, m + n)), "start is not strongly feasible"

    iterations = 0
    max_iter = 2000 + 50 * m * n
    red = np.empty_like(reward)  # reused: a fresh array per pivot page-faults
    while True:
        pi = np.array(pot)
        U, V = pi[:m], pi[m:]
        np.subtract(reward, U[:, None], out=red)
        red -= V[None, :]
        np.put(red, cell[1:], -np.inf)
        t = int(np.argmax(red))
        if red.flat[t] <= enter_tol * scale:
            break
        iterations += 1
        if iterations > max_iter:
            raise PivotBudgetExceeded("transport simplex exceeded its pivot budget")

        # the cycle: both ends walk up to their common ancestor, the apex
        i, j = divmod(t, n)
        u, v = i, m + j
        side_i: list[int] = []
        side_j: list[int] = []
        while u != v:
            if depth[u] >= depth[v]:
                side_i.append(u)
                u = parent[u]
            else:
                side_j.append(v)
                v = parent[v]
        # mass falls on the arcs above row nodes on the i side and above
        # column nodes on the j side; it rises on the others
        minus = side_i[::2] + side_j[::2]
        theta = min(flow[w] for w in minus)
        # Cunningham: the last blocking arc met on the way round from the
        # apex down the i side, across the entering cell and up the j side
        q = next((w for w in reversed(side_j[::2]) if flow[w] == theta), None)
        if q is not None:
            path, anchor = side_j, i
        else:
            q = next(w for w in side_i[::2] if flow[w] == theta)
            path, anchor = side_i, m + j
        if theta > 0.0:
            for w in minus:
                flow[w] -= theta
            for w in side_i[1::2] + side_j[1::2]:
                flow[w] += theta

        # drop q's arc and re-hang its subtree from the entering cell by
        # reversing the path from that cell's end up to q
        path = path[:path.index(q) + 1]
        par, f, c = anchor, theta, t
        for w in path:
            children[parent[w]].remove(w)
            children[par].append(w)
            parent[w] = par
            flow[w], f = f, flow[w]
            cell[w], c = c, cell[w]
            par = w
        stack = [path[0]]
        while stack:
            w = stack.pop()
            p = parent[w]
            depth[w] = depth[p] + 1
            row, col = (w, p) if w < m else (p, w)
            pot[w] = reward.item(row, col - m) - pot[p]
            stack += children[w]

    cells = sorted(divmod(c, n) for c in cell[1:])
    masses = _tree_masses(cells, a, b)
    if masses.min() < -MASS_CLAMP:
        raise RuntimeError(f"negative basic mass {masses.min():.3e}")
    masses = np.maximum(masses, 0.0)
    degenerate = bool(red.max() >= -degen_tol * scale)
    return cells, masses, U, V, iterations, degenerate


def solve_bipartite(cost, mu: DiscreteMeasure, nu: DiscreteMeasure,
                    enter_tol: float = ENTER_TOL,
                    degen_tol: float = DEGEN_TOL) -> SolveResult:
    """Maximize sum of cost[i,j]·gamma_ij over couplings of (mu, nu).

    enter_tol and degen_tol are fractions of the reward range max - min, so
    they mean the same at every scale and shift of the rewards.
    """
    reward = np.asarray(cost, dtype=float)
    if reward.shape != (mu.size, nu.size):
        raise DimensionMismatch(
            f"cost shape {reward.shape}, expected ({mu.size}, {nu.size})"
        )
    if not np.all(np.isfinite(reward)):
        raise ValidationError("cost matrix must be finite")
    if abs(float(np.sum(mu.weights)) - float(np.sum(nu.weights))) > SOLVER_MARGINAL_TOL:
        raise InfeasibleMarginals("mu and nu carry different total mass")

    cells, masses, U, V, iterations, degen = _transport_simplex(
        reward, mu.weights, nu.weights, enter_tol, degen_tol)

    shift = float(U.min())
    U = U - shift
    V = V + shift
    entries = [(i, j, w) for (i, j), w in zip(cells, masses) if w > 0.0]
    coupling = Coupling.from_entries(entries, mu, nu,
                                     marginal_tol=SOLVER_MARGINAL_TOL)
    objective = float(sum(w * reward[i, j] for i, j, w in entries))
    dual_value = float(mu.weights @ U + nu.weights @ V)
    return SolveResult(
        coupling=coupling,
        objective=objective,
        potentials=DualPotentials(U, V),
        duality_gap=abs(objective - dual_value),
        iterations=iterations,
        degenerate_optimum=degen,
        method="transport_simplex",
    )


# --- dense two-phase revised simplex ----------------------------------------

def _simplex_phase(A_ext, b, cost, basis, allowed, enter_tol, ratio_tol,
                   max_iter):
    """Run Bland-rule pivots until no allowed column prices out positive.

    basis is a list of column indices (one per row); allowed is the sorted
    array of columns permitted to enter.  Returns (basis, iterations).
    """
    iterations = 0
    while True:
        B = A_ext[:, basis]
        xB = np.linalg.solve(B, b)
        y = np.linalg.solve(B.T, cost[np.array(basis)])
        red = cost[allowed] - A_ext[:, allowed].T @ y
        in_basis = np.isin(allowed, basis)
        cand = np.flatnonzero((red > enter_tol) & ~in_basis)
        if cand.size == 0:
            return basis, iterations
        enter = int(allowed[cand[0]])
        d = np.linalg.solve(B, A_ext[:, enter])
        pos = np.flatnonzero(d > ratio_tol)
        if pos.size == 0:
            raise RuntimeError("LP appears unbounded; constraint matrix is broken")
        ratios = xB[pos] / d[pos]
        theta = float(ratios.min())
        ties = pos[ratios <= theta + 1e-12 * (1.0 + abs(theta))]
        basis_arr = np.array(basis)
        leave_row = int(ties[np.argmin(basis_arr[ties])])
        basis[leave_row] = enter
        iterations += 1
        if iterations > max_iter:
            raise PivotBudgetExceeded("revised simplex exceeded its pivot budget")


def _revised_simplex_max(A, b, c, warm_basis=None,
                         enter_tol: float = ENTER_TOL,
                         degen_tol: float = DEGEN_TOL,
                         ratio_tol: float = RATIO_TOL):
    """Maximize cᵀx s.t. Ax = b, x ≥ 0 (b ≥ 0, A full row rank).

    Returns (x, y, iterations, degenerate_flag).  warm_basis (a list of
    column indices) skips phase 1 when it factors cleanly; otherwise an
    artificial phase-1 start is used.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    c = np.asarray(c, dtype=float).reshape(-1)
    m, n = A.shape
    if b.size != m or c.size != n:
        raise DimensionMismatch("A, b, c sizes disagree")
    if np.any(b < 0):
        raise ValidationError("rhs must be nonnegative")
    A_ext = np.hstack([A, np.eye(m)])
    cost_ext = np.concatenate([c, np.zeros(m)])
    real_cols = np.arange(n)
    iterations = 0

    basis = None
    if warm_basis is not None and len(warm_basis) == m:
        trial = [int(t) for t in warm_basis]
        try:
            xB = np.linalg.solve(A_ext[:, trial], b)
            residual = float(np.max(np.abs(A_ext[:, trial] @ xB - b)))
            if residual <= 1e-9 and float(xB.min()) >= -1e-9:
                basis = trial
        except np.linalg.LinAlgError:
            basis = None

    if basis is None:
        basis = list(range(n, n + m))
        cost1 = np.zeros(n + m)
        cost1[n:] = -1.0
        basis, it1 = _simplex_phase(A_ext, b, cost1, basis, real_cols,
                                    enter_tol, ratio_tol, 5000 + 50 * n)
        iterations += it1
        xB = np.linalg.solve(A_ext[:, basis], b)
        infeas = float(sum(max(0.0, xB[r]) for r, v in enumerate(basis) if v >= n))
        if infeas > 1e-9:
            raise InfeasibleMarginals(
                f"phase-1 residual {infeas:.3e}; marginals are inconsistent"
            )
        # drive zero-level artificials out of the basis
        for r in range(m):
            if basis[r] < n:
                continue
            B = A_ext[:, basis]
            w = np.linalg.solve(B.T, np.eye(m)[r])
            replaced = False
            for j in range(n):
                if j in basis:
                    continue
                if abs(float(w @ A[:, j])) > 1e-9:
                    basis[r] = j
                    replaced = True
                    break
            if not replaced:
                raise RuntimeError(
                    "artificial variable stuck in basis; redundant row not dropped"
                )

    basis, it2 = _simplex_phase(A_ext, b, cost_ext, basis, real_cols,
                                enter_tol, ratio_tol, 5000 + 50 * n)
    iterations += it2

    B = A_ext[:, basis]
    xB = np.linalg.solve(B, b)
    y = np.linalg.solve(B.T, cost_ext[np.array(basis)])
    x = np.zeros(n)
    for r, v in enumerate(basis):
        if v < n:
            x[v] = xB[r]
    if float(x.min()) < -MASS_CLAMP:
        raise RuntimeError(f"negative primal value {x.min():.3e} at optimum")
    x = np.maximum(x, 0.0)
    red = c - A.T @ y
    nonbasic = np.setdiff1d(real_cols, np.array(basis), assume_unique=False)
    degenerate = bool(np.any(red[nonbasic] >= -degen_tol)) if nonbasic.size else False
    return x, y, iterations, degenerate


# --- hybrid and tripartite solves -------------------------------------------

def _direct_constraints(nx: int, ny: int, nz: int, keep_alpha: bool):
    """Equality rows for the three-index LP with redundant rows dropped.

    Rows: all nx X-marginal rows, the first ny-1 Y rows, and (only with a
    prescribed alpha) the first nz-1 Z rows.
    """
    n_vars = nx * ny * nz
    t = np.arange(n_vars)
    i_of = t // (ny * nz)
    j_of = (t // nz) % ny
    k_of = t % nz
    m_rows = nx + (ny - 1) + ((nz - 1) if keep_alpha else 0)
    A = np.zeros((m_rows, n_vars))
    A[i_of, t] = 1.0
    mask = j_of < ny - 1
    A[nx + j_of[mask], t[mask]] = 1.0
    if keep_alpha:
        mask = k_of < nz - 1
        A[nx + ny - 1 + k_of[mask], t[mask]] = 1.0
    return A


def _greedy_tripartite_basis(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                             ny: int, nz: int) -> list[int]:
    """Northwest-style greedy path through the 3-index array; returns
    variable indices for a candidate starting basis of size nx+ny+nz-2.
    """
    nx = a.size
    ra = a.astype(float).copy()
    rb = b.astype(float).copy()
    rc = c.astype(float).copy()
    i = j = k = 0
    cols: list[int] = []
    for _ in range(nx + ny + nz - 2):
        take = min(ra[i], rb[j], rc[k])
        cols.append((i * ny + j) * nz + k)
        ra[i] -= take
        rb[j] -= take
        rc[k] -= take
        if (i, j, k) == (nx - 1, ny - 1, nz - 1):
            break
        state = [(ra[i], i, nx - 1), (rb[j], j, ny - 1), (rc[k], k, nz - 1)]
        axis = None
        for ax, (rem, pos, last) in enumerate(state):
            if pos < last and rem == 0.0:
                axis = ax
                break
        if axis is None:
            for ax, (rem, pos, last) in enumerate(state):
                if pos < last:
                    axis = ax
                    break
        if axis == 0:
            i += 1
        elif axis == 1:
            j += 1
        else:
            k += 1
    return cols


def _bipartite_warm_columns(a: np.ndarray, b: np.ndarray,
                            grid: np.ndarray) -> list[int]:
    """Northwest-corner cells, each at its pair's best good: the same X and Y
    rows as any other choice of goods, so still a basis of the free-z LP."""
    _, ny, nz = grid.shape
    cells, _ = _northwest_path(a, b)
    return [(i * ny + j) * nz + int(np.argmax(grid[i, j])) for (i, j) in cells]


def _coupling_from_flat(x: np.ndarray, mu, nu, z_pts, alpha, ny: int, nz: int):
    entries = []
    for t in np.flatnonzero(x > 0.0):
        k = int(t) % nz
        j = (int(t) // nz) % ny
        i = int(t) // (ny * nz)
        entries.append((i, j, k, float(x[t])))
    return Coupling.from_entries(entries, mu, nu, z_points=z_pts, alpha=alpha,
                                 marginal_tol=SOLVER_MARGINAL_TOL)


def solve_hybrid(s, mu: DiscreteMeasure, nu: DiscreteMeasure, zs,
                 method: str = "reduce_lift") -> SolveResult:
    """Maximize total surplus over couplings with X,Y marginals fixed and the
    good z chosen freely.

    reduce_lift: collapse z by reduce(), solve the bipartite problem on sbar,
    then lift each matched pair to its selected z.  direct_lp: simplex on the
    full three-index variables with only X and Y constraints.  The two routes
    agree in objective (checked by the acceptance suite).
    """
    z_pts = as_point_array(zs)
    if method == "reduce_lift":
        red = reduce(s, mu.points, nu.points, z_pts)
        bip = solve_bipartite(red.values, mu, nu)
        entries = [(i, j, int(red.argmax[i, j]), w)
                   for (i, j), w in zip(bip.coupling.indices, bip.coupling.masses)]
        coupling = Coupling.from_entries(entries, mu, nu, z_points=z_pts,
                                         marginal_tol=SOLVER_MARGINAL_TOL)
        warnings = ()
        used_tie = [(i, j) for (i, j, _, _) in entries if red.tie[i, j]]
        if used_tie:
            warnings = (
                f"argmax ties at {len(used_tie)} matched pair(s); "
                "the lift selection is one of several",
            )
        return SolveResult(
            coupling=coupling,
            objective=bip.objective,
            potentials=bip.potentials,
            duality_gap=bip.duality_gap,
            iterations=bip.iterations,
            degenerate_optimum=bip.degenerate_optimum,
            method="reduce_lift",
            reduction=red,
            warnings=warnings,
        )
    if method != "direct_lp":
        raise ValidationError(f"unknown method {method!r}")

    nx, ny, nz = mu.size, nu.size, z_pts.shape[0]
    grid = s.value_grid(mu.points, nu.points, z_pts)
    A = _direct_constraints(nx, ny, nz, keep_alpha=False)
    b = np.concatenate([mu.weights, nu.weights[:-1]])
    warm = _bipartite_warm_columns(mu.weights, nu.weights, grid)
    x, y, iterations, degen = _revised_simplex_max(A, b, grid.ravel(), warm)
    U = y[:nx].copy()
    V = np.concatenate([y[nx:], [0.0]])
    shift = float(U.min())
    U -= shift
    V += shift
    coupling = _coupling_from_flat(x, mu, nu, z_pts, None, ny, nz)
    objective = float(grid.ravel() @ x)
    dual_value = float(mu.weights @ U + nu.weights @ V)
    return SolveResult(
        coupling=coupling,
        objective=objective,
        potentials=DualPotentials(U, V),
        duality_gap=abs(objective - dual_value),
        iterations=iterations,
        degenerate_optimum=degen,
        method="direct_lp",
    )


def solve_tripartite_fixed_alpha(s, mu: DiscreteMeasure, nu: DiscreteMeasure,
                                 alpha: DiscreteMeasure) -> SolveResult:
    """Maximize total surplus over couplings with all three marginals fixed;
    alpha's support supplies the z points.
    """
    z_pts = alpha.points
    nx, ny, nz = mu.size, nu.size, alpha.size
    totals = [float(np.sum(w)) for w in (mu.weights, nu.weights, alpha.weights)]
    if max(totals) - min(totals) > SOLVER_MARGINAL_TOL:
        raise InfeasibleMarginals("marginals carry different total mass")
    grid = s.value_grid(mu.points, nu.points, z_pts)
    A = _direct_constraints(nx, ny, nz, keep_alpha=True)
    b = np.concatenate([mu.weights, nu.weights[:-1], alpha.weights[:-1]])
    warm = _greedy_tripartite_basis(mu.weights, nu.weights, alpha.weights, ny, nz)
    x, y, iterations, degen = _revised_simplex_max(A, b, grid.ravel(), warm)
    U = y[:nx].copy()
    V = np.concatenate([y[nx:nx + ny - 1], [0.0]])
    W = np.concatenate([y[nx + ny - 1:], [0.0]])
    shift = float(U.min())
    U -= shift
    V += shift
    coupling = _coupling_from_flat(x, mu, nu, z_pts, alpha, ny, nz)
    objective = float(grid.ravel() @ x)
    dual_value = float(mu.weights @ U + nu.weights @ V + alpha.weights @ W)
    return SolveResult(
        coupling=coupling,
        objective=objective,
        potentials=DualPotentials(U, V),
        duality_gap=abs(objective - dual_value),
        iterations=iterations,
        degenerate_optimum=degen,
        method="tripartite_fixed_alpha",
        z_potential=W,
    )


@dataclass(frozen=True, eq=False)
class AlphaSearchResult:
    """Direct solve over free z together with the good-type distribution it
    induces and the fixed-alpha re-solve at that distribution.
    """

    result: SolveResult
    alpha: DiscreteMeasure
    fixed_alpha_result: SolveResult


def max_over_alpha(s, mu: DiscreteMeasure, nu: DiscreteMeasure, zs) -> AlphaSearchResult:
    """Maximize over couplings and over the good-type marginal jointly.

    Equivalent to the free-z hybrid problem; the induced alpha is read off
    the optimal coupling and certified by re-solving with it prescribed.
    """
    res = solve_hybrid(s, mu, nu, zs, method="direct_lp")
    alpha = project(res.coupling, "z")
    fixed = solve_tripartite_fixed_alpha(s, mu, nu, alpha)
    if abs(fixed.objective - res.objective) > 1e-9:
        raise RuntimeError(
            f"fixed-alpha re-solve drifted: {fixed.objective!r} vs {res.objective!r}"
        )
    return AlphaSearchResult(result=res, alpha=alpha, fixed_alpha_result=fixed)


# --- brute force ------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BruteForceResult:
    objective: float
    assignment: tuple
    mode: str

    def to_dict(self) -> dict:
        return {"objective": self.objective,
                "assignment": [list(t) for t in self.assignment],
                "mode": self.mode}


def _require_uniform(measure: DiscreteMeasure, label: str) -> None:
    w = measure.weights
    if np.max(np.abs(w - 1.0 / w.size)) > 1e-12:
        raise ValidationError(f"brute force needs equal weights; {label} is not uniform")


def brute_force(surplus_or_cost, mu: DiscreteMeasure, nu: DiscreteMeasure,
                alpha: DiscreteMeasure | None = None,
                z_points=None) -> BruteForceResult:
    """Exhaustive assignment search, the independent oracle for the solvers.

    Bipartite (alpha None): best permutation sigma with, when a surplus model
    and z points are supplied, the best z per matched pair.  Tripartite
    (alpha given): best pair of permutations (sigma, tau).  Equal weights
    only; sizes capped (7 bipartite, 5 tripartite).
    """
    n = mu.size
    if nu.size != n:
        raise ValidationError("brute force needs equally sized mu and nu")
    _require_uniform(mu, "mu")
    _require_uniform(nu, "nu")

    if alpha is not None:
        if n > 5:
            raise TooLarge(f"tripartite brute force capped at n=5, got {n}")
        if alpha.size != n:
            raise ValidationError("tripartite brute force needs alpha of size n")
        _require_uniform(alpha, "alpha")
        grid = surplus_or_cost.value_grid(mu.points, nu.points, alpha.points)
        w = 1.0 / n
        best = -np.inf
        best_assign = None
        idx = list(range(n))
        for sigma in itertools.permutations(idx):
            for tau in itertools.permutations(idx):
                val = w * float(sum(grid[i, sigma[i], tau[i]] for i in idx))
                if val > best:
                    best = val
                    best_assign = tuple((i, sigma[i], tau[i]) for i in idx)
        return BruteForceResult(objective=best, assignment=best_assign,
                                mode="tripartite")

    if n > 7:
        raise TooLarge(f"bipartite brute force capped at n=7, got {n}")
    if hasattr(surplus_or_cost, "value_grid"):
        if z_points is None:
            raise ValidationError("surplus-model brute force needs z_points")
        z_pts = as_point_array(z_points)
        grid = surplus_or_cost.value_grid(mu.points, nu.points, z_pts)
        pair_best = np.max(grid, axis=2)
        pair_arg = np.argmax(grid, axis=2)
    else:
        pair_best = np.asarray(surplus_or_cost, dtype=float)
        if pair_best.shape != (n, n):
            raise DimensionMismatch(f"cost shape {pair_best.shape}, expected ({n}, {n})")
        pair_arg = None
    w = 1.0 / n
    best = -np.inf
    best_sigma = None
    idx = list(range(n))
    for sigma in itertools.permutations(idx):
        val = w * float(sum(pair_best[i, sigma[i]] for i in idx))
        if val > best:
            best = val
            best_sigma = sigma
    if pair_arg is None:
        assignment = tuple((i, best_sigma[i]) for i in idx)
    else:
        assignment = tuple((i, best_sigma[i], int(pair_arg[i, best_sigma[i]]))
                           for i in idx)
    return BruteForceResult(objective=best, assignment=assignment, mode="bipartite")
