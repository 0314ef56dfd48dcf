"""Exact LP solvers for the matching problems, plus brute-force oracles.

Two engines, kept deliberately separate so the dual-route acceptance checks
compare genuinely different code paths:

- a primal network simplex on the bipartite transportation polytope
  (northwest-corner start, largest-reduced-cost entering cell, Cunningham's
  strongly feasible leaving rule, potentials updated on the re-hung subtree
  only), used by the reduce-then-lift route;
- a revised simplex over the cells (i, j, k) of the surplus grid (Dantzig
  pricing over the grid, Bland's rule after a run of degenerate pivots, B⁻¹
  by rank-one updates, a feasible start and no phase 1), used by the direct
  three-index LPs.

Both are maximizers, fully deterministic, and return vertex solutions so
support-based diagnostics stay meaningful.  Every solve of a surplus model
returns its grid's reduction over goods; max_over_alpha certifies its
fixed-alpha LP from the reduce_lift duals and that reduction alone.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, replace

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
from .reduction import ReducedSurplus, _fold, reduce

# ENTER_TOL and DEGEN_TOL are fractions of the reward range; RATIO_TOL and
# MASS_CLAMP are on the unit-mass scale.
ENTER_TOL = 1e-11
DEGEN_TOL = 1e-9
RATIO_TOL = 1e-11
MASS_CLAMP = 1e-9
# three-index simplex: degenerate pivots in a row per row of B before Bland's
# rule, pivots between refactorisations, and the bytes it may allocate
DEGEN_RUN = 20
REFACTOR_EVERY = 50
LP_BYTES_LIMIT = 1 << 30
DRIFT_TOL = 1e-9  # max_over_alpha's largest residual or gap, a fraction of the range


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
    the dual objective includes a third potential over goods.  Every solve
    of a surplus model sets reduction to reduce(s, X, Y, Z), bit for bit.
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


def _transport_simplex(reward: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Primal network simplex on the transportation polytope (maximization).

    Enters the cell of largest reduced cost (Dantzig's rule, first flat
    index on ties) and leaves by Cunningham's rule, which keeps the tree
    strongly feasible: every zero-mass arc hangs with its row as the child.
    After a pivot only the potentials of the re-hung subtree are recomputed.
    ENTER_TOL and DEGEN_TOL are relative to the reward range max R - min R.

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
    red = np.empty_like(reward)  # reused: one allocation per solve, not per pivot
    while True:
        pi = np.array(pot)
        U, V = pi[:m], pi[m:]
        np.subtract(reward, U[:, None], out=red)
        red -= V[None, :]
        np.put(red, cell[1:], -np.inf)
        t = int(np.argmax(red))
        if red.flat[t] <= ENTER_TOL * scale:
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
    degenerate = bool(red.max() >= -DEGEN_TOL * scale)
    return cells, masses, U, V, iterations, degenerate


def solve_bipartite(cost, mu: DiscreteMeasure, nu: DiscreteMeasure) -> SolveResult:
    """Maximize sum of cost[i,j]·gamma_ij over couplings of (mu, nu).

    ENTER_TOL and DEGEN_TOL are fractions of the reward range max - min, so
    they mean the same at every scale and shift of the rewards.
    """
    reward = np.asarray(cost, dtype=float)
    if reward.shape != (mu.size, nu.size):
        raise DimensionMismatch(
            f"cost shape {reward.shape}, expected ({mu.size}, {nu.size})"
        )
    _require_finite(reward, "cost matrix")
    if abs(float(np.sum(mu.weights)) - float(np.sum(nu.weights))) > SOLVER_MARGINAL_TOL:
        raise InfeasibleMarginals("mu and nu carry different total mass")

    cells, masses, U, V, iterations, degen = _transport_simplex(
        reward, mu.weights, nu.weights)

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


# --- implicit-column simplex (three-index) ----------------------------------
#
# Columns are the cells (i, j, k), flat index (i * ny + j) * nz + k.  Rows are
# every X row, Y rows 0..ny-2 and, with a prescribed alpha, Z rows 0..nz-2
# (the last ones follow from the total mass).  No column is ever stored.

def _cell_rows(t: int, shape: tuple, fixed: bool) -> list[int]:
    """The constraint rows of flat cell t."""
    nx, ny, nz = shape
    i, rest = divmod(t, ny * nz)
    j, k = divmod(rest, nz)
    rows = [i]
    if j < ny - 1:
        rows.append(nx + j)
    if fixed and k < nz - 1:
        rows.append(nx + ny - 1 + k)
    return rows


def _cell_simplex(grid: np.ndarray, rhs: np.ndarray, basis: list[int],
                  fixed: bool, scale: float):
    """Primal revised simplex over the cells of grid (maximization), from a
    feasible basis of one cell per row (m rows), which it updates in place.

    Prices every cell in one pass of grid − U − V (− W) into a reused buffer,
    basic cells masked.  Enters the largest reduced cost (first flat index on
    ties), or after DEGEN_RUN·m degenerate pivots in a row the first cell
    that prices out (Bland) until mass moves, so it cannot cycle.  Leaves the
    smallest ratio, the smallest cell on ties.  B⁻¹ is updated by rank one
    and refactorised every REFACTOR_EVERY pivots and before stopping.
    Tolerances on reduced costs are fractions of scale, the grid's range.

    Returns (x, y, iterations, degenerate_flag): every cell's mass, flat, in
    the pricing buffer, and the row duals.
    """
    nx, ny, _ = grid.shape
    flat = grid.reshape(-1)
    m = len(basis)
    enter_tol = ENTER_TOL * scale

    def factor():
        B = np.zeros((m, m))
        for r, t in enumerate(basis):
            B[_cell_rows(t, grid.shape, fixed), r] = 1.0
        return (np.linalg.inv(B), np.linalg.solve(B, rhs),
                np.linalg.solve(B.T, flat[basis]))

    Binv, xB, y = factor()
    assert xB.min() >= -MASS_CLAMP, "start is not feasible"

    iterations = since_factor = degenerate_run = 0
    max_iter = 5000 + 50 * flat.size
    red = np.empty_like(grid)
    red_flat = red.reshape(-1)
    while True:
        np.subtract(grid, y[:nx, None, None], out=red)
        red[:, :ny - 1] -= y[nx:nx + ny - 1, None]
        if fixed:
            red[:, :, :-1] -= y[nx + ny - 1:]
        red_flat[basis] = -np.inf
        if degenerate_run < DEGEN_RUN * m:
            t = int(np.argmax(red_flat))
        else:
            t = int(np.argmax(red_flat > enter_tol))
        if red_flat[t] <= enter_tol:
            if since_factor == 0:
                break
            Binv, xB, y = factor()
            since_factor = 0
            continue
        iterations += 1
        if iterations > max_iter:
            raise PivotBudgetExceeded("three-index simplex exceeded its pivot budget")

        d = Binv[:, _cell_rows(t, grid.shape, fixed)].sum(axis=1)
        pos = np.flatnonzero(d > RATIO_TOL)
        if pos.size == 0:
            raise RuntimeError("LP appears unbounded; a basis column is broken")
        ratios = xB[pos] / d[pos]
        theta = max(float(ratios.min()), 0.0)
        ties = pos[ratios <= theta + 1e-12 * (1.0 + theta)]
        r = int(ties[np.argmin(np.array(basis)[ties])])
        xB -= theta * d
        xB[r] = theta
        pivot_row = Binv[r] / d[r]
        Binv -= np.outer(d, pivot_row)
        Binv[r] = pivot_row
        basis[r] = t
        y = flat[basis] @ Binv
        degenerate_run = degenerate_run + 1 if theta <= RATIO_TOL else 0
        since_factor += 1
        if since_factor == REFACTOR_EVERY:
            Binv, xB, y = factor()
            since_factor = 0

    degenerate = bool(red.max() >= -DEGEN_TOL * scale)
    if float(xB.min()) < -MASS_CLAMP:
        raise RuntimeError(f"negative primal value {xB.min():.3e} at optimum")
    red_flat.fill(0.0)
    red_flat[basis] = np.maximum(xB, 0.0)
    return red_flat, y, iterations, degenerate


def _greedy_tripartite_basis(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                             ny: int, nz: int) -> list[int]:
    """Northwest-style greedy path through the 3-index array: a feasible
    basis of nx+ny+nz-2 cells, each one step along one axis from the last,
    the first axis whose mass ran out or else the first that can move.
    """
    rem = [w.astype(float) for w in (a, b, c)]
    last = [a.size - 1, ny - 1, nz - 1]
    pos = [0, 0, 0]
    cols: list[int] = []
    while True:
        i, j, k = pos
        take = min(rem[0][i], rem[1][j], rem[2][k])
        cols.append((i * ny + j) * nz + k)
        for ax in range(3):
            rem[ax][pos[ax]] -= take
        movable = [ax for ax in range(3) if pos[ax] < last[ax]]
        if not movable:
            return cols
        pos[next((ax for ax in movable if rem[ax][pos[ax]] == 0.0), movable[0])] += 1


def _three_index(s, mu: DiscreteMeasure, nu: DiscreteMeasure, z_pts,
                 alpha: DiscreteMeasure | None) -> SolveResult:
    """The free-z LP (alpha None), started from the northwest-corner cells at
    each pair's best good, or the fixed-alpha LP, started from the greedy
    tripartite path; the result carries the grid's reduction.  Raises
    TooLarge before allocating when the grid, the pricing buffer, the
    reduction, B and B⁻¹ would exceed LP_BYTES_LIMIT, and ValidationError on
    a non-finite grid, which no pivot could price.
    """
    nx, ny, nz = mu.size, nu.size, z_pts.shape[0]
    fixed = alpha is not None
    weights = [mu.weights, nu.weights] + ([alpha.weights] if fixed else [])
    m = nx + ny - 1 + (nz - 1 if fixed else 0)
    need = 8 * (2 * nx * ny * nz + 3 * nx * ny + 2 * m * m)
    if need > LP_BYTES_LIMIT:
        raise TooLarge(
            f"the {nx}x{ny}x{nz} LP needs about {need / 2**20:,.0f} MiB for its grid, pricing "
            f"buffer, reduction, B and B^-1 (limit {LP_BYTES_LIMIT / 2**20:,.0f} MiB)")
    totals = [float(np.sum(w)) for w in weights]
    if max(totals) - min(totals) > SOLVER_MARGINAL_TOL:
        raise InfeasibleMarginals("marginals carry different total mass")

    grid = np.empty((nx, ny, nz))

    def kept():  # each block of rows, kept before the fold overwrites it
        for lo, block in s._grid_blocks(mu.points, nu.points, z_pts):
            grid[lo:lo + block.shape[0]] = block
            yield lo, block

    red = _fold(kept(), (nx, ny), z_pts)
    scale = red.grid_scale
    if not np.isfinite(scale):
        raise ValidationError("surplus grid must be finite, with a finite range")
    rhs = np.concatenate([mu.weights] + [w[:-1] for w in weights[1:]])
    if fixed:
        start = _greedy_tripartite_basis(mu.weights, nu.weights, alpha.weights, ny, nz)
    else:  # the same X and Y rows as any other choice of goods: still a basis
        start = [(i * ny + j) * nz + int(red.argmax[i, j])
                 for i, j in _northwest_path(mu.weights, nu.weights)[0]]
    x, y, iterations, degen = _cell_simplex(grid, rhs, start, fixed, scale)
    U = y[:nx].copy()
    V = np.concatenate([y[nx:nx + ny - 1], [0.0]])
    W = np.concatenate([y[nx + ny - 1:], [0.0]]) if fixed else None
    shift = float(U.min())
    U -= shift
    V += shift
    objective = float(grid.ravel() @ x)
    dual_value = float(mu.weights @ U + nu.weights @ V
                       + (alpha.weights @ W if fixed else 0.0))
    cells = np.flatnonzero(x > 0.0)
    entries = zip(*(t.tolist() for t in np.unravel_index(cells, grid.shape)),
                  x[cells].tolist())
    return SolveResult(
        coupling=Coupling.from_entries(entries, mu, nu, z_points=z_pts, alpha=alpha,
                                       marginal_tol=SOLVER_MARGINAL_TOL),
        objective=objective,
        potentials=DualPotentials(U, V),
        duality_gap=abs(objective - dual_value),
        iterations=iterations,
        degenerate_optimum=degen,
        method="tripartite_fixed_alpha" if fixed else "direct_lp",
        z_potential=W,
        reduction=red,
    )


# --- hybrid and tripartite solves -------------------------------------------

def solve_hybrid(s, mu: DiscreteMeasure, nu: DiscreteMeasure, zs,
                 method: str = "reduce_lift") -> SolveResult:
    """Maximize total surplus over couplings with X,Y marginals fixed and the
    good z chosen freely.

    reduce_lift: collapse z by reduce(), solve the bipartite problem on sbar,
    then lift each matched pair to its selected z.  direct_lp: the
    implicit-column simplex on the full three-index variables with only X
    and Y constraints.  The two routes agree in objective (checked by the
    acceptance suite).
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
    return _three_index(s, mu, nu, z_pts, None)


def solve_tripartite_fixed_alpha(s, mu: DiscreteMeasure, nu: DiscreteMeasure,
                                 alpha: DiscreteMeasure) -> SolveResult:
    """Maximize total surplus over couplings with all three marginals fixed;
    alpha's support supplies the z points.
    """
    return _three_index(s, mu, nu, alpha.points, alpha)


@dataclass(frozen=True, eq=False)
class AlphaSearchResult:
    """Direct solve over free z together with the good-type distribution it
    induces and the fixed-alpha certificate at that distribution.
    """

    result: SolveResult
    alpha: DiscreteMeasure
    fixed_alpha_result: SolveResult


def max_over_alpha(s, mu: DiscreteMeasure, nu: DiscreteMeasure, zs) -> AlphaSearchResult:
    """Maximize over couplings and over the good-type marginal jointly.

    Equivalent to the free-z hybrid problem, solved by reduce_lift; the
    induced alpha is read off the optimal coupling.  project keeps every
    good of zs, zero-weight ones included, so the LP with alpha prescribed
    lives on the grid the solve's reduction folded, and its certificate reads
    that reduction, with no pivots and no second grid pass: the reduce_lift
    duals (U, V) and W = 0 must cover s on the whole grid and match the
    coupling's value, which must match the free-z objective, each within
    DRIFT_TOL of the grid's range plus the rounding of sums of that
    magnitude, or RuntimeError.  That LP is a restriction of the free-z LP
    that keeps the free-z optimum, so its optimum is degenerate only where
    the free-z one is or where the lift chose among tied goods.
    """
    res = solve_hybrid(s, mu, nu, zs, method="reduce_lift")
    red = res.reduction
    alpha = project(res.coupling, "z")
    scale = red.grid_scale
    i, j, _ = res.coupling.indices.T
    # the lift put each matched pair at its argmax good, worth sbar
    primal = float(res.coupling.masses @ red.values[i, j])
    U, V = res.potentials.U, res.potentials.V
    dual = float(mu.weights @ U + nu.weights @ V)
    # The primal, the free-z objective and the dual agree in exact
    # arithmetic.  Each sums at most n_x + n_y products w·v, with weights
    # summing to one and |v| ≤ M, the largest magnitude of U, V and s (at one
    # of the reduction's two ends).  An
    # inner product of n terms rounds by at most n·(eps/2)·Σ|w·v| to first
    # order (Higham, "Accuracy and Stability of Numerical Algorithms",
    # §3.1), and the dual adds its two inner products once more, so each
    # value is off by at most (n_x + n_y + 1)·(eps/2)·M and two of them
    # differ by up to (n_x + n_y + 1)·eps·M.  A residual s − U − V rounds in
    # two subtractions, by at most 2·eps·M.  Under a shift t, M grows with
    # |t| while the range does not, so this term joins DRIFT_TOL·range.
    magnitude = max(red.values.max(), -red.lowest, np.abs(U).max(), np.abs(V).max())
    bound = DRIFT_TOL * scale + (mu.size + nu.size + 1) * np.finfo(float).eps * magnitude
    residual = float(red.residual(U, V).max())
    fixed = SolveResult(
        coupling=replace(res.coupling, alpha=alpha),
        objective=primal,
        potentials=res.potentials,
        duality_gap=abs(primal - dual),
        iterations=0,
        degenerate_optimum=res.degenerate_optimum or bool(red.tie[i, j].any()),
        method="tripartite_fixed_alpha",
        z_potential=np.zeros(alpha.size),
        reduction=red,
    )
    if max(residual, abs(primal - res.objective), abs(primal - dual)) > bound:
        raise RuntimeError(
            f"fixed-alpha certificate failed: dual residual {residual!r}, primal "
            f"{primal!r}, free-z {res.objective!r}, dual {dual!r}")
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


def _require_finite(table: np.ndarray, label: str) -> None:
    if not np.all(np.isfinite(table)):
        raise ValidationError(f"{label} must be finite")


def brute_force(surplus_or_cost, mu: DiscreteMeasure, nu: DiscreteMeasure,
                alpha: DiscreteMeasure | None = None,
                z_points=None) -> BruteForceResult:
    """Exhaustive assignment search, the independent oracle for the solvers.

    Bipartite (alpha None): best permutation sigma with, when a surplus model
    and z points are supplied, the best z per matched pair.  Tripartite
    (alpha given): best pair of permutations (sigma, tau).  Equal weights
    and finite tables only; sizes capped (7 bipartite, 5 tripartite).
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
        _require_finite(grid, "surplus grid")
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
        _require_finite(grid, "surplus grid")
        pair_best = np.max(grid, axis=2)
        pair_arg = np.argmax(grid, axis=2)
    else:
        pair_best = np.asarray(surplus_or_cost, dtype=float)
        if pair_best.shape != (n, n):
            raise DimensionMismatch(f"cost shape {pair_best.shape}, expected ({n}, {n})")
        _require_finite(pair_best, "cost matrix")
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
