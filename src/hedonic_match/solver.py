"""Exact LP solvers for the matching problems, plus brute-force oracles.

With z free the hybrid problem is bipartite matching on the reduced surplus
sbar(x, y) = max_z s(x, y, z) (Chiappori, McCann & Nesheim, "Hedonic price
equilibria, stable matching, and optimal transport", Economic Theory 2010),
and solve_hybrid takes one route for both methods: it reduces once, solves
the pair LP on sbar with the method's engine and lifts each matched pair to
its argmax good once.  The two engines stay separate, so that the dual-route
acceptance checks compare genuinely different code paths:

- a primal network simplex on the bipartite transportation polytope
  (northwest-corner start, largest-reduced-cost entering cell found by one
  full pass over the m×n rewards per pivot, Cunningham's strongly feasible
  leaving rule, potentials updated on the re-hung subtree only, and kept,
  with the basic cells, in arrays the pass reads as they are), reduce_lift's
  engine;
- column generation: a revised simplex over a working set of cells (Dantzig
  pricing over the set, the largest pivot element on ratio ties, Bland's
  rule after a run of degenerate pivots, B⁻¹ formed only once a pivot needs
  it and then kept in product form, and the staircase start solved by
  substitution, so no phase 1 and no LAPACK call before the first pivot),
  grown by passes that price the whole grid until one adds no cell.  It solves
  direct_lp's pair LP, whose passes read the reduction, and the fixed-alpha
  LP, whose passes fold s − U ⊕ V ⊕ W block by block.  No grid is held.

Both are maximizers, fully deterministic, and return vertex solutions so
support-based diagnostics stay meaningful.  One epilogue, _solution, turns
either's optimal basis into every SolveResult.  Every solve of a surplus
model returns its grid's reduction over goods; max_over_alpha certifies its
fixed-alpha LP from the reduce_lift duals and that reduction alone.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    Coupling,
    DiscreteMeasure,
    DimensionMismatch,
    DualPotentials,
    Record,
    SOLVER_MARGINAL_TOL,
    ValidationError,
    as_point_array,
    project,
)
from .reduction import ReducedSurplus, TooLarge, _check_bytes, _reduce_bytes, _residual_fold, reduce

# ENTER_TOL and DEGEN_TOL are fractions of the reward range; RATIO_TOL and
# MASS_CLAMP are on the unit-mass scale.
ENTER_TOL = 1e-11
DEGEN_TOL = 1e-9
RATIO_TOL = 1e-11
MASS_CLAMP = 1e-9
# column generation: degenerate pivots in a row per row of B before Bland's
# rule, and pivots between refactorisations
DEGEN_RUN = 20
REFACTOR_EVERY = 50
# fixed alpha: the start's working set holds every cell within SEED_BAND of
# the range of tight under the reduce_lift duals, and a pricing pass adds at
# most the PRICE_CAP·m cells (m rows) that price out most
SEED_BAND = 0.01
PRICE_CAP = 16
DRIFT_TOL = 1e-9  # max_over_alpha's largest residual or gap, a fraction of the range


class SolverInfeasible(RuntimeError):
    """The LP has no feasible point within tolerance."""


class InfeasibleMarginals(SolverInfeasible):
    pass


class PivotBudgetExceeded(RuntimeError):
    """A simplex used up its pivot budget before reaching an optimum."""


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
# depth and the mass on the arc to the parent; that arc's flat cell index
# and the node's potential are kept in arrays, which pricing reads.

def _staircase(*weights: np.ndarray) -> tuple[list[tuple[int, ...]], list[float]]:
    """Northwest-corner start on two or three axes: a path of Σn − (axes−1)
    cells from the first corner to the last, each one step along one axis
    from the one before: along the first axis whose mass ran out, or else
    the first that can move.  Each cell takes the least mass left on its
    axes, but once the first axis is at its last index it no longer counts,
    and the last row takes what is left of the others, so that a shortfall
    of rounding in the row weights cannot leave a zero-mass cell there.

    Its basis is triangular: each cell but the last takes what is left of
    the row it leaves (forward substitution of B x = rhs), and in reverse
    order each brings in one new row (_path_duals).
    """
    rem = [w.tolist() for w in weights]  # Python floats: a step costs no numpy call
    last = [len(r) - 1 for r in rem]
    pos = [0] * len(rem)
    movable = [ax for ax, n in enumerate(last) if n > 0]
    cells: list[tuple[int, ...]] = []
    masses: list[float] = []
    while True:
        at = list(map(list.__getitem__, rem, pos))
        take = min(at) if pos[0] < last[0] else min(at[1:])
        cells.append(tuple(pos))
        masses.append(take)
        if not movable:
            return cells, masses
        for r, p, v in zip(rem, pos, at):
            r[p] = v - take
        for ax in movable:  # v - take is 0 exactly when v == take
            if at[ax] == take:
                break
        else:
            ax = movable[0]
        pos[ax] += 1
        if pos[ax] == last[ax]:
            movable.remove(ax)


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
    ENTER_TOL is relative to the reward range max R - min R.

    Pricing is one full pass over the m×n rewards per pivot, into a buffer
    allocated once per solve: reward − U − V, the basic cells masked, then
    its argmax.  It reads two arrays that the pivots keep current in place:
    pi, the potentials, written beside the list pot, and basic, the basic
    cells, basic[w - 1] that of node w's arc.

    Returns (basis, masses, U, V, iterations, top, scale): the m+n-1 basic
    cells i·n + j ascending (some possibly at zero mass), their masses, the
    potentials, the largest reduced cost off the basis and the range.
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
    for (i, j), w in zip(*_staircase(a, b)):
        child, par = (m + j, i) if parent[m + j] < 0 else (i, m + j)
        parent[child], depth[child] = par, depth[par] + 1
        flow[child], cell[child] = w, i * n + j
        pot[child] = reward.item(i, j) - pot[par]
        children[par].append(child)
    assert all(flow[c] > 0.0 or a[parent[c]] == 0.0 or b[c - m] == 0.0
               for c in range(m, m + n)), "start is not strongly feasible"
    pi = np.array(pot)  # pot as an array, written beside it from here on
    basic = np.array(cell[1:], dtype=np.intp)  # basic[w - 1]: the cell of w's arc

    iterations = 0
    max_iter = 2000 + 50 * m * n
    enter_tol = ENTER_TOL * scale
    U, V = pi[:m], pi[m:]  # views: they follow pi
    U_col = U[:, None]
    red = np.empty_like(reward)  # reused: one allocation per solve, not per pivot
    while True:
        np.subtract(reward, U_col, out=red)
        red -= V
        red.put(basic, -np.inf)
        t = int(red.argmax())
        if red.item(t) <= enter_tol:
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
            basic[w - 1], c = c, basic[w - 1]
            par = w
        stack = [path[0]]
        while stack:
            w = stack.pop()
            p = parent[w]
            depth[w] = depth[p] + 1
            row, col = (w, p) if w < m else (p, w)
            pot[w] = pi[w] = reward.item(row, col - m) - pot[p]
            stack += children[w]

    basis = sorted(basic.tolist())
    masses = _tree_masses([divmod(c, n) for c in basis], a, b)
    if masses.min() < -MASS_CLAMP:
        raise RuntimeError(f"negative basic mass {masses.min():.3e}")
    return np.array(basis), np.maximum(masses, 0.0), U, V, iterations, red.max(), scale


def solve_bipartite(cost, mu: DiscreteMeasure, nu: DiscreteMeasure) -> SolveResult:
    """Maximize sum of cost[i,j]·gamma_ij over couplings of (mu, nu).

    ENTER_TOL and DEGEN_TOL are fractions of the reward range max - min, so
    they mean the same at every scale and shift of the rewards.  TooLarge
    when the pricing buffer, eight bytes a cell, exceeds LP_BYTES_LIMIT.
    """
    reward = np.asarray(cost, dtype=float)
    if reward.shape != (mu.size, nu.size):
        raise DimensionMismatch(
            f"cost shape {reward.shape}, expected ({mu.size}, {nu.size})"
        )
    _check_bytes(8 * reward.size, f"{mu.size}x{nu.size} transport problem",
                 "its pricing buffer")
    _require_finite(reward, "cost matrix")
    if abs(float(np.sum(mu.weights)) - float(np.sum(nu.weights))) > SOLVER_MARGINAL_TOL:
        raise InfeasibleMarginals("mu and nu carry different total mass")

    basis, masses, U, V, iterations, top, scale = _transport_simplex(
        reward, mu.weights, nu.weights)
    return _solution(basis, masses, reward.flat[basis], (U, V), [mu, nu], top, scale,
                     iterations, "transport_simplex")


def _solution(basis, x, c, duals, measures, top, scale, iterations, method,
              reduction=None) -> SolveResult:
    """The epilogue of every LP solve: the SolveResult of an optimal basis
    of flat cell ids over the measures' sizes, with masses x, values c and
    duals U, V (and W with a third measure).  The duals are shifted so that
    min U = 0; the objective Σ c·x and the dual value Σ weights·potentials
    are correctly rounded sums, so no order of the basis or labelling of the
    points shows in them.  The optimum is degenerate when top, the largest
    reduced cost off the basis, is within DEGEN_TOL·scale of zero."""
    U, V, *W = duals
    shift = float(U.min())
    U, V = U - shift, V + shift
    objective = math.fsum((c * x).tolist())
    dual_value = math.fsum(np.concatenate(
        [measure.weights * P for measure, P in zip(measures, (U, V, *W))]).tolist())
    alpha = measures[2] if len(measures) == 3 else None
    held = x > 0.0
    index = np.unravel_index(basis[held], [measure.size for measure in measures])
    coupling = Coupling.from_entries(
        zip(*(t.tolist() for t in index), x[held].tolist()), *measures[:2],
        z_points=None if alpha is None else alpha.points, alpha=alpha,
        marginal_tol=SOLVER_MARGINAL_TOL)
    return SolveResult(
        coupling=coupling, objective=objective, potentials=DualPotentials(U, V),
        duality_gap=abs(objective - dual_value), iterations=iterations,
        degenerate_optimum=bool(top >= -DEGEN_TOL * scale), method=method,
        z_potential=None if alpha is None else W[0], reduction=reduction)


# --- column generation -------------------------------------------------------
#
# Columns are the cells (i, j, k) of an nx × ny × nz grid, flat index
# (i * ny + j) * nz + k.  Rows are every X row, Y rows 0..ny-2 and Z rows
# 0..nz-2 (the last ones follow from the total mass), so the pair LP, on
# shape (nx, ny, 1) with pair ids as cells, has no Z row.  No column is ever
# stored, and only the cells of the working set are priced on each pivot.

def _cell_rows(cells, shape: tuple) -> list[tuple]:
    """The X, Y and Z rows of flat cells, each as (row, whether the cell has
    it); cells is one int or an int array, read elementwise."""
    nx, ny, nz = shape
    i, rest = divmod(cells, ny * nz)
    j, k = divmod(rest, nz)
    return [(i, i >= 0), (nx + j, j < ny - 1), (nx + ny - 1 + k, k < nz - 1)]


def _basis_matrix(basis: np.ndarray, shape: tuple) -> np.ndarray:
    """B, whose column r holds the ones of cell basis[r]'s rows."""
    B = np.zeros((basis.size, basis.size))
    col = np.arange(basis.size)
    for row, on in _cell_rows(basis, shape):
        B[row[on], col[on]] = 1.0
    return B


def _path_duals(path: np.ndarray, c: np.ndarray, shape: tuple) -> np.ndarray:
    """Bᵀy = c by one backward pass over the staircase, its cells as flat ids
    in path order: each brings in one row (the last, X row nx − 1), whose
    dual is c less the duals known, taken in X, Y, Z order."""
    nx, ny, nz = shape
    U, V, W = [0.0] * nx, [0.0] * ny, [0.0] * nz
    i, j, k = (t.tolist() for t in np.unravel_index(path, shape))
    i.append(nx)  # the last cell steps out of the grid along X
    for p, v in zip(range(path.size - 1, -1, -1), reversed(c.tolist())):
        a, b, g = i[p], j[p], k[p]
        if a < i[p + 1]:
            U[a] = v - V[b] - W[g]
        elif b < j[p + 1]:
            V[b] = v - U[a] - W[g]
        else:
            W[g] = v - U[a] - V[b]
    return np.array(U + V[:-1] + W[:-1])


def _duals(y: np.ndarray, nx: int, ny: int):
    """U, V and W from the row duals; the last Y and Z rows are dropped, so
    their duals are 0, and W is [0] on the pair LP."""
    V = np.concatenate([y[nx:nx + ny - 1], [0.0]])
    W = np.concatenate([y[nx + ny - 1:], [0.0]])
    return y[:nx].copy(), V, W


def _cell_simplex(cells: np.ndarray, vals: np.ndarray, rhs: np.ndarray,
                  start: tuple, shape: tuple, scale: float, price, check):
    """Primal revised simplex (maximization) over a working set of cells,
    flat ids in ascending order with s values vals, from the staircase
    start: its m cells, one a row, as flat ids in path order and its masses.

    Each pivot prices the working set, basic cells masked, and enters the
    largest reduced cost (first cell on ties), or after DEGEN_RUN·m
    degenerate pivots in a row the first cell that prices out (Bland) until
    mass moves, so it cannot cycle.  Leaves the smallest ratio: on ties the
    largest pivot element, which keeps long runs of degenerate pivots short,
    or under Bland's rule the smallest cell.  The start's duals come by
    substitution (_path_duals); a refactorisation solves B for the basic
    masses and Bᵀ for the duals.  B⁻¹ = inv(B) is formed at the first pivot
    after either, so LAPACK runs only there and at a refactorisation, and
    each pivot since adds an eta vector: B⁻¹ in product form, no m×m update.
    B is refactorised every REFACTOR_EVERY pivots, before the working set is
    left, and in place of a pivot on an element at most RATIO_TOL times the
    entering column's largest: that is rounding drift of the product form,
    and a pivot on it can leave B singular.  Tolerances on reduced costs are
    fractions of scale, the grid's range.

    When no cell of the working set prices out, price(U, V, W, basis) prices
    the whole grid under those duals: it returns the nonbasic cells above
    ENTER_TOL·scale with their values, which join the working set (B does
    not change), and the largest reduced cost off the basis.  The solve
    stops at the first pass that returns no cell; that pass certifies it.
    check(size) raises TooLarge when that many working cells would not fit;
    it sees the start's and each grown working set's size.

    Returns (basis, x_B, c_B, y, iterations, top): the basic cells, their
    masses and values, the row duals and the largest reduced cost off the
    basis that the certifying pass found.
    """
    basis, xB = start[0], np.array(start[1])
    m = basis.size
    check(cells.size)
    enter_tol = ENTER_TOL * scale
    max_iter = 5000 + 50 * int(np.prod(shape))

    def factor():  # drops B⁻¹ and the eta file first: one m×m is held at a time
        nonlocal xB, y, Binv, etas
        Binv, etas = None, []
        B = _basis_matrix(basis, shape)
        xB, y = np.linalg.solve(B, rhs), np.linalg.solve(B.T, cB)

    i, j, k = np.unravel_index(cells, shape)
    at = np.searchsorted(cells, basis)  # each basic cell's place in the working set
    cB = vals[at]
    y, Binv, etas = _path_duals(basis, cB, shape), None, []
    assert xB.min() >= -MASS_CLAMP, "start is not feasible"

    iterations = degenerate_run = 0
    while True:
        U, V, W = _duals(y, shape[0], shape[1])
        red = vals - U[i]
        red -= V[j]
        red -= W[k]
        red[at] = -np.inf
        if degenerate_run < DEGEN_RUN * m:
            t = int(np.argmax(red))
        else:
            t = int(np.argmax(red > enter_tol))
        if red[t] <= enter_tol:
            if etas:
                factor()
                continue
            del i, j, k, red  # rebuilt from the grown working set
            new, new_vals, top = price(U, V, W, basis)
            if new.size == 0:
                break
            check(cells.size + new.size)
            # new is ascending too: each goes after the cells equal to it
            pos = np.searchsorted(cells, new, side="right")
            cells = np.insert(cells, pos, new)
            vals = np.insert(vals, pos, new_vals)
            del pos, new, new_vals
            i, j, k = np.unravel_index(cells, shape)
            at = np.searchsorted(cells, basis)
            continue

        if Binv is None:
            Binv = np.linalg.inv(_basis_matrix(basis, shape))
        d = Binv[:, [row for row, on in _cell_rows(int(cells[t]), shape) if on]].sum(axis=1)
        for r, e in etas:  # d = B⁻¹a through the eta file, oldest first
            q = d[r] / e[r]
            d -= q * e
            d[r] = q
        pos = np.flatnonzero(d > RATIO_TOL)
        if pos.size == 0:
            raise RuntimeError("LP appears unbounded; a basis column is broken")
        ratios = xB[pos] / d[pos]
        theta = max(float(ratios.min()), 0.0)
        ties = pos[ratios <= theta + 1e-12 * (1.0 + theta)]
        if degenerate_run < DEGEN_RUN * m:
            r = int(ties[np.argmax(d[ties])])
        else:
            r = int(ties[np.argmin(basis[ties])])
        if etas and d[r] <= RATIO_TOL * float(np.abs(d).max()):
            # rounding drift of the product form, not a pivot element
            factor()
            continue
        iterations += 1
        if iterations > max_iter:
            raise PivotBudgetExceeded("column-generation simplex exceeded its pivot budget")

        xB -= theta * d
        xB[r] = theta
        etas.append((r, d))
        basis[r], cB[r], at[r] = cells[t], vals[t], t
        u = cB.copy()
        for r, e in reversed(etas):  # y = c_B B⁻¹, newest eta vector first
            u[r] += (u[r] - u @ e) / e[r]
        y = u @ Binv
        degenerate_run = degenerate_run + 1 if theta <= RATIO_TOL else 0
        if len(etas) == REFACTOR_EVERY:
            factor()

    if float(xB.min()) < -MASS_CLAMP:
        raise RuntimeError(f"negative primal value {xB.min():.3e} at optimum")
    return basis, np.maximum(xB, 0.0), cB, y, iterations, top


def _check_lp(measures, Z: np.ndarray, cells: int = 0) -> None:
    """TooLarge when an LP over the measures would hold more than the limit:
    reduce()'s estimate over the goods Z (34 bytes a pair and a grid block;
    the goods' dimension is not a term), B and B⁻¹ with its eta file, and
    seven words for each of `cells` working cells (id, value, three axis
    indices, reduced cost and a gathered dual).  Checked before anything is
    allocated, then by _cell_simplex on its start and before each growth."""
    sizes = [measure.size for measure in measures]
    m = sum(sizes) - len(sizes) + 1
    _check_bytes(_reduce_bytes(sizes[0], sizes[1], len(Z))
                 + 8 * m * (2 * m + REFACTOR_EVERY) + 56 * cells,
                 f"{'x'.join(map(str, sizes))} LP",
                 f"its reduction, B, B^-1 and {cells:,} working cells")


def _cell_lp(red: ReducedSurplus, cells, vals, start, price, mu: DiscreteMeasure,
             nu: DiscreteMeasure, alpha: DiscreteMeasure | None = None) -> SolveResult:
    """_cell_simplex on the LP over couplings of mu, nu and, when given,
    alpha (the pair LP without it), with tolerances as fractions of the
    reduction's range, then _solution; InfeasibleMarginals first when the
    measures carry different total masses."""
    measures = [mu, nu] if alpha is None else [mu, nu, alpha]
    shape = (mu.size, nu.size, 1 if alpha is None else alpha.size)
    rhs = np.concatenate([mu.weights] + [measure.weights[:-1] for measure in measures[1:]])
    totals = [float(np.sum(measure.weights)) for measure in measures]
    if max(totals) - min(totals) > SOLVER_MARGINAL_TOL:
        raise InfeasibleMarginals("marginals carry different total mass")
    basis, x, c, y, iterations, top = _cell_simplex(
        cells, vals, rhs, start, shape, red.grid_scale, price,
        lambda size: _check_lp(measures, red.z_points, size))
    method = "direct_lp" if alpha is None else "tripartite_fixed_alpha"
    return _solution(basis, x, c, _duals(y, mu.size, nu.size), measures, top,
                     red.grid_scale, iterations, method, red)


def _pair_lp(red: ReducedSurplus, mu: DiscreteMeasure, nu: DiscreteMeasure) -> SolveResult:
    """direct_lp's engine: the pair LP on red.values by _cell_lp, from the
    northwest-corner start.  A pricing pass is the reduction's residual
    under the duals; the largest reduced cost off the basis counts the
    runner-up good of each basic pair too, for the degenerate flag."""
    path, masses = _staircase(mu.weights, nu.weights)
    start = np.ravel_multi_index(np.transpose(path), red.shape)
    cells = np.sort(start)
    enter_tol = ENTER_TOL * red.grid_scale

    def price(U, V, W, basis):
        res = red.residual(U, V)
        i, j = np.unravel_index(basis, red.shape)
        res[i, j] = -np.inf
        new = np.flatnonzero(res > enter_tol)
        top = max(res.max(), ((red.second[i, j] - U[i]) - V[j]).max())
        return new, red.values.flat[new], top

    return _cell_lp(red, cells, red.values.flat[cells], (start, masses), price, mu, nu)


# --- hybrid and tripartite solves -------------------------------------------

def solve_hybrid(s, mu: DiscreteMeasure, nu: DiscreteMeasure, zs,
                 method: str = "reduce_lift") -> SolveResult:
    """Maximize total surplus over couplings with X,Y marginals fixed and the
    good z chosen freely.

    Both methods take one route: reduce() once, solve the pair LP on sbar,
    then lift each matched pair to its argmax good, with a warning when
    some matched pair's best good ties with another.  reduce_lift solves
    the pair LP by the transport simplex, direct_lp by column generation.
    The two routes agree in objective (checked by the acceptance suite).
    Each is refused with TooLarge before anything is allocated: reduce()
    checks its estimate, which counts reduce_lift's pricing buffer, and
    direct_lp first adds its share (_check_lp).  A grid with a non-finite
    value or range is refused with ValidationError.
    """
    z_pts = as_point_array(zs)
    if method not in ("reduce_lift", "direct_lp"):
        raise ValidationError(f"unknown method {method!r}")
    if method == "direct_lp":
        _check_lp([mu, nu], z_pts)
    red = reduce(s, mu.points, nu.points, z_pts)
    if not np.isfinite(red.grid_scale):
        raise ValidationError("surplus grid must be finite, with a finite range")
    if method == "reduce_lift":
        pair = solve_bipartite(red.values, mu, nu)
    else:
        pair = _pair_lp(red, mu, nu)
    i, j = pair.coupling.indices.T
    lifted = Coupling(np.column_stack([i, j, red.argmax[i, j]]), pair.coupling.masses,
                      mu, nu, z_points=z_pts, marginal_tol=SOLVER_MARGINAL_TOL)
    tied = int(np.count_nonzero(red.tie[i, j]))
    warnings = (f"argmax ties at {tied} matched pair(s); "
                "the lift selection is one of several",) if tied else ()
    return replace(pair, coupling=lifted, method=method, reduction=red, warnings=warnings)


def solve_tripartite_fixed_alpha(s, mu: DiscreteMeasure, nu: DiscreteMeasure,
                                 alpha: DiscreteMeasure) -> SolveResult:
    """Maximize total surplus over couplings with all three marginals fixed;
    alpha's support supplies the z points.

    Column generation from the staircase through the grid plus every cell
    within SEED_BAND·range of tight under the reduce_lift duals; a pricing
    pass is _residual_fold.  The result carries the reduction.  Raises
    TooLarge (_check_lp) before allocating and before the working set
    outgrows the limit, and ValidationError on a grid with a non-finite
    value or range, which no pivot could price.
    """
    X, Y, Z = mu.points, nu.points, alpha.points
    shape = mu.size, nu.size, alpha.size
    _check_lp([mu, nu, alpha], Z)
    red = reduce(s, X, Y, Z)
    scale = red.grid_scale
    if not np.isfinite(scale):
        raise ValidationError("surplus grid must be finite, with a finite range")
    path, masses = _staircase(mu.weights, nu.weights, alpha.weights)
    start = np.ravel_multi_index(np.transpose(path), shape)
    most = PRICE_CAP * start.size
    lift = solve_bipartite(red.values, mu, nu).potentials
    seed = _residual_fold(s, X, Y, Z, lift.U, lift.V, np.zeros(alpha.size),
                          -SEED_BAND * scale)
    i, j, k = np.unravel_index(start, shape)
    cells, first = np.unique(np.concatenate([start, seed.cells]), return_index=True)
    vals = np.concatenate([s.value_batch(X[i], Y[j], Z[k]), seed.values])[first]
    del seed, first  # from here the working set holds the seed cells

    def price(U, V, W, basis):
        found = _residual_fold(s, X, Y, Z, U, V, W, ENTER_TOL * scale, basis, most)
        return found.cells, found.values, found.peak

    return _cell_lp(red, cells, vals, (start, masses), price, mu, nu, alpha)


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
    the free-z one is or where the lift chose among tied goods.  The
    certificate restates the free-z result, objective and gap included, with
    W = 0, no pivots and no warnings.  A good that repeats a point counts
    once, at its first copy: alpha is a measure, so its points are distinct,
    and a repeat never changes the optimum.
    """
    z_pts = as_point_array(zs)
    first: dict = {}
    for k, point in enumerate(map(tuple, z_pts.tolist())):
        first.setdefault(point, k)
    res = solve_hybrid(s, mu, nu, z_pts[list(first.values())], method="reduce_lift")
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
    fixed = replace(res, coupling=replace(res.coupling, alpha=alpha), iterations=0,
                    degenerate_optimum=res.degenerate_optimum or bool(red.tie[i, j].any()),
                    method="tripartite_fixed_alpha", z_potential=np.zeros(alpha.size),
                    warnings=())
    if max(residual, abs(primal - res.objective), abs(primal - dual)) > bound:
        raise RuntimeError(
            f"fixed-alpha certificate failed: dual residual {residual!r}, primal "
            f"{primal!r}, free-z {res.objective!r}, dual {dual!r}")
    return AlphaSearchResult(result=res, alpha=alpha, fixed_alpha_result=fixed)


# --- brute force ------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BruteForceResult(Record):
    objective: float
    assignment: tuple
    mode: str


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

    # table: the (n, n, n) grid over alpha's goods, or the (n, n) pair table,
    # where a surplus model puts each pair at its best good, arg
    arg = None
    if alpha is not None:
        if n > 5:
            raise TooLarge(f"tripartite brute force capped at n=5, got {n}")
        if alpha.size != n:
            raise ValidationError("tripartite brute force needs alpha of size n")
        _require_uniform(alpha, "alpha")
        table = surplus_or_cost.value_grid(mu.points, nu.points, alpha.points)
        _require_finite(table, "surplus grid")
    else:
        if n > 7:
            raise TooLarge(f"bipartite brute force capped at n=7, got {n}")
        if hasattr(surplus_or_cost, "value_grid"):
            if z_points is None:
                raise ValidationError("surplus-model brute force needs z_points")
            z_pts = as_point_array(z_points)
            grid = surplus_or_cost.value_grid(mu.points, nu.points, z_pts)
            _require_finite(grid, "surplus grid")
            table = np.max(grid, axis=2)
            arg = np.argmax(grid, axis=2)
        else:
            table = np.asarray(surplus_or_cost, dtype=float)
            if table.shape != (n, n):
                raise DimensionMismatch(f"cost shape {table.shape}, expected ({n}, {n})")
            _require_finite(table, "cost matrix")
    w = 1.0 / n
    best = -np.inf
    best_perms = None
    idx = list(range(n))
    # one permutation per axis after the first; the first best wins
    for perms in itertools.product(itertools.permutations(idx), repeat=table.ndim - 1):
        val = w * float(sum(table[k] for k in zip(idx, *perms)))
        if val > best:
            best = val
            best_perms = perms
    assignment = tuple(zip(idx, *best_perms))
    if arg is not None:
        assignment = tuple(k + (int(arg[k]),) for k in assignment)
    return BruteForceResult(objective=best, assignment=assignment,
                            mode="bipartite" if alpha is None else "tripartite")
