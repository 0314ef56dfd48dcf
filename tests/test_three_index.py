"""The three-index LPs (direct_lp, fixed alpha, max_over_alpha) and the
stability check against sparse HiGHS, across scales, shifts, permutations
and skewed weights; and the tie flags of reduce across scales and shifts."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

from hedonic_match import reduction, solver
from hedonic_match.core import (
    Coupling,
    DiscreteMeasure,
    DualPotentials,
    GridSpec,
    grid_scale,
)
from hedonic_match.diagnostics import verify_stability
from hedonic_match.instances import random_instance
from hedonic_match.reduction import reduce
from hedonic_match.solver import (
    TooLarge,
    max_over_alpha,
    solve_hybrid,
    solve_tripartite_fixed_alpha,
)
from hedonic_match.surplus import (
    BilinearSurplus,
    CounterexampleSurplus,
    SurplusModel,
    TabulatedSurplus,
)

# With absolute tolerances, direct_lp on seeds 1 and 2 stopped 30% and 73%
# below the optimum at c = 1e-12 and the stability check called both stable;
# at c = 1e8 seed 0's optimal coupling read unstable.
SCALES = [(1e-12, 0.0), (1e-10, 0.0), (1e-6, 0.0), (1.0, 0.0), (1e6, 0.0),
          (1e8, 0.0), (1e12, 0.0), (1.0, 1e6)]


class _Affine(SurplusModel):
    """c·s + t for a base model s; enough for value_grid."""

    def __init__(self, base, c, t=0.0):
        self.base, self.c, self.t = base, c, t

    @property
    def dims(self):
        return self.base.dims

    def _kernel(self, X, Y, Z):
        return self.c * self.base._kernel(X, Y, Z) + self.t


def _highs(grid, a, b, c=None):
    """The three-index LP in sparse form (X and Y rows, and Z rows when c
    is given), solved by HiGHS."""
    nx, ny, nz = grid.shape
    i, j, k = np.unravel_index(np.arange(grid.size), grid.shape)
    rows = [i, nx + j] + ([nx + ny + k] if c is not None else [])
    A_eq = coo_matrix((np.ones(len(rows) * grid.size),
                       (np.concatenate(rows), np.tile(np.arange(grid.size), len(rows)))),
                      shape=(nx + ny + (nz if c is not None else 0), grid.size))
    b_eq = np.concatenate([a, b] + ([c] if c is not None else []))
    res = linprog(-grid.ravel(), A_eq=A_eq, b_eq=b_eq, bounds=(0, None),
                  method="highs")
    assert res.status == 0
    return -res.fun


def _grid(inst, z_pts=None):
    zs = inst.z_points if z_pts is None else z_pts
    return inst.surplus.value_grid(inst.mu.points, inst.nu.points, zs)


def _value(grid, coupling):
    i, j, k = coupling.indices.T
    return float(coupling.masses @ grid[i, j, k])


def _dual_infeasibility(grid, res):
    U, V = res.potentials.U, res.potentials.V
    W = 0.0 if res.z_potential is None else res.z_potential[None, None, :]
    return float(np.max(grid - U[:, None, None] - V[None, :, None] - W))


def _skewed_alpha(inst, seed):
    w = np.exp(2.0 * np.random.default_rng(seed).normal(size=inst.z_points.shape[0]))
    return DiscreteMeasure(inst.z_points, w / w.sum())


def _check_affine(res, inst, c, t, optimum, span):
    """res solved c·s + t: its coupling is optimal for s, its objective is
    c·optimum + t, its duals are feasible and it reads stable."""
    base = _grid(inst, res.coupling.z_points)
    assert _value(base, res.coupling) >= optimum - 1e-9 * span
    assert abs(res.objective - (c * optimum + t)) <= 1e-9 * c * span
    assert _dual_infeasibility(c * base + t, res) <= 1e-9 * c * span
    rep = verify_stability(_Affine(inst.surplus, c, t), res.coupling,
                           res.potentials, z_potential=res.z_potential)
    assert rep.stable
    assert rep.tol == pytest.approx(1e-8 * c * span, rel=1e-6)


@pytest.mark.parametrize("c, t", SCALES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_direct_lp_is_optimal_at_every_scale(seed, c, t):
    inst = random_instance(seed, n=12, nz=5, family="bilinear")
    base = _grid(inst)
    optimum = _highs(base, inst.mu.weights, inst.nu.weights)
    res = solve_hybrid(_Affine(inst.surplus, c, t), inst.mu, inst.nu,
                       inst.z_points, method="direct_lp")
    _check_affine(res, inst, c, t, optimum, float(np.ptp(base)))


@pytest.mark.parametrize("c, t", SCALES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fixed_alpha_is_optimal_at_every_scale(seed, c, t):
    inst = random_instance(seed, n=12, nz=5, family="bilinear")
    alpha = _skewed_alpha(inst, seed)
    base = _grid(inst)
    optimum = _highs(base, inst.mu.weights, inst.nu.weights, alpha.weights)
    res = solve_tripartite_fixed_alpha(_Affine(inst.surplus, c, t), inst.mu,
                                       inst.nu, alpha)
    np.testing.assert_allclose(res.coupling.marginal_weights("z"),
                               alpha.weights, rtol=0, atol=1e-12)
    _check_affine(res, inst, c, t, optimum, float(np.ptp(base)))


@pytest.mark.parametrize("c, t", SCALES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_max_over_alpha_certifies_at_every_scale(seed, c, t):
    inst = random_instance(seed, n=12, nz=5, family="bilinear")
    base = _grid(inst)
    span = float(np.ptp(base))
    optimum = _highs(base, inst.mu.weights, inst.nu.weights)
    search = max_over_alpha(_Affine(inst.surplus, c, t), inst.mu, inst.nu,
                            inst.z_points)
    fixed = search.fixed_alpha_result
    assert abs(search.result.objective - (c * optimum + t)) <= 1e-9 * c * span
    _check_affine(fixed, inst, c, t, optimum, span)
    np.testing.assert_allclose(fixed.coupling.marginal_weights("z"),
                               search.alpha.weights, rtol=0, atol=1e-12)


@pytest.mark.parametrize("family", ["bilinear", "counterexample", "supermodular"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_max_over_alpha_certifies_without_pivots(seed, family):
    inst = random_instance(seed, n=12, nz=5, family=family)
    search = max_over_alpha(inst.surplus, inst.mu, inst.nu, inst.z_points)
    fixed = search.fixed_alpha_result
    assert fixed.iterations == 0
    np.testing.assert_array_equal(fixed.z_potential, np.zeros(search.alpha.size))
    assert fixed.potentials is search.result.potentials
    np.testing.assert_array_equal(fixed.coupling.indices,
                                  search.result.coupling.indices)
    assert fixed.coupling.alpha is search.alpha
    grid = _grid(inst)
    assert _dual_infeasibility(grid, fixed) <= 1e-9 * grid_scale(grid)


@pytest.mark.parametrize("sign", [-1.0, 1.0])
def test_max_over_alpha_rejects_wrong_duals(monkeypatch, sign):
    # lowering one V entry breaks U + V >= s on that seller's support cells;
    # raising it keeps the duals feasible but opens a duality gap
    inst = random_instance(1, n=12, nz=5, family="bilinear")
    scale = grid_scale(_grid(inst))
    hybrid = solver.solve_hybrid

    def moved_duals(*args, **kwargs):
        res = hybrid(*args, **kwargs)
        V = res.potentials.V.copy()
        V[int(res.coupling.indices[0, 1])] += sign * 1e-6 * scale
        return replace(res, potentials=DualPotentials(res.potentials.U, V))

    max_over_alpha(inst.surplus, inst.mu, inst.nu, inst.z_points)
    monkeypatch.setattr(solver, "solve_hybrid", moved_duals)
    with pytest.raises(RuntimeError, match="fixed-alpha certificate"):
        max_over_alpha(inst.surplus, inst.mu, inst.nu, inst.z_points)


@pytest.mark.parametrize("t", [1e8, 1e9])
@pytest.mark.parametrize("seed", [0, 1])
def test_max_over_alpha_certifies_under_large_shifts(seed, t):
    # at these shifts the primal and the dual differ by about ulp(t), more
    # than DRIFT_TOL·range: the check has to count the rounding of the sums
    inst = random_instance(seed, n=12, nz=5, family="bilinear")
    base = max_over_alpha(inst.surplus, inst.mu, inst.nu, inst.z_points)
    shifted = max_over_alpha(_Affine(inst.surplus, 1.0, t), inst.mu, inst.nu,
                             inst.z_points)
    fixed = shifted.fixed_alpha_result
    assert np.array_equal(fixed.coupling.indices,
                          base.fixed_alpha_result.coupling.indices)
    assert abs(fixed.objective - (base.fixed_alpha_result.objective + t)) <= 1e-15 * t
    assert fixed.duality_gap <= 1e-15 * t


def test_max_over_alpha_makes_one_grid_pass(monkeypatch):
    inst = random_instance(0, n=12, nz=5, family="bilinear")
    cells = []
    value_grid = SurplusModel.value_grid

    def counted(self, xs, ys, zs):
        grid = value_grid(self, xs, ys, zs)
        cells.append(grid.size)
        return grid

    monkeypatch.setattr(SurplusModel, "value_grid", counted)
    max_over_alpha(inst.surplus, inst.mu, inst.nu, inst.z_points)
    assert sum(cells) == inst.mu.size * inst.nu.size * inst.z_points.shape[0]


@pytest.mark.parametrize("family, degenerate", [("bilinear", False),
                                                ("bilinear-zfree", True)])
def test_max_over_alpha_degenerate_flag(family, degenerate):
    # the zero-mass cells of the transport tree have residual 0 and must not
    # count; in bilinear-zfree every good ties, so the lift picks among them
    inst = random_instance(0, n=16, nz=9, family=family)
    search = max_over_alpha(inst.surplus, inst.mu, inst.nu, inst.z_points)
    assert not search.result.degenerate_optimum
    assert search.fixed_alpha_result.degenerate_optimum is degenerate


@pytest.mark.parametrize("c, t", SCALES)
def test_stability_verdicts_are_scale_free(c, t):
    inst = random_instance(0, n=12, nz=5, family="bilinear")
    s = _Affine(inst.surplus, c, t)
    res = solve_hybrid(s, inst.mu, inst.nu, inst.z_points, method="direct_lp")
    good = verify_stability(s, res.coupling, res.potentials)
    assert good.stable
    # the same duals against the optimum with every seller moved one index
    # along: the grid inequality holds but support equality breaks
    i, j, k = res.coupling.indices.T
    moved = Coupling(np.stack([i, (j + 1) % inst.nu.size, k], axis=1),
                     res.coupling.masses, inst.mu, inst.nu,
                     z_points=inst.z_points)
    bad = verify_stability(s, moved, res.potentials)
    assert not bad.stable
    assert bad.max_support_residual > 1e-3 * c * float(np.ptp(_grid(inst)))
    # arity 2: the reduced rewards of the same solve
    values = c * np.max(_grid(inst), axis=2) + t
    lifted = solve_hybrid(s, inst.mu, inst.nu, inst.z_points)
    pair = Coupling(lifted.coupling.indices[:, :2], lifted.coupling.masses,
                    inst.mu, inst.nu)
    assert verify_stability(values, pair, lifted.potentials).stable
    zeros = DualPotentials(np.zeros(inst.mu.size), np.zeros(inst.nu.size))
    assert not verify_stability(values - values.max(), pair, zeros).stable


@pytest.mark.parametrize("c, t", SCALES)
def test_tie_flags_are_scale_free(c, t):
    # s = xy + (y - x) z on dyadic points: the pairs with x = y are exact
    # ties, every other pair's best good leads the next by at least 1/16;
    # with an absolute tol every pair read as a tie at c = 1e-12
    s = BilinearSurplus(A=[[1.0]], B=[[1.0]], C=[[-1.0]])
    pts = GridSpec(0.0, 1.0, 5).points()
    base = reduce(s, pts, pts, pts)
    np.testing.assert_array_equal(base.tie, np.eye(5, dtype=bool))
    red = reduce(_Affine(s, c, t), pts, pts, pts)
    np.testing.assert_array_equal(red.tie, base.tie)
    np.testing.assert_array_equal(red.argmax, base.argmax)
    assert red.tie_tol == pytest.approx(1e-10 * c * float(np.ptp(base.values)),
                                        rel=1e-6)


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_answers_survive_permutations(seed):
    inst = random_instance(seed, n=9, nz=6, family="bilinear")
    rng = np.random.default_rng(seed)
    wx, wy = np.exp(rng.normal(size=(2, 9)))
    mu0 = DiscreteMeasure(inst.mu.points, wx / wx.sum())
    nu0 = DiscreteMeasure(inst.nu.points, wy / wy.sum())
    alpha = _skewed_alpha(inst, seed)
    free = solve_hybrid(inst.surplus, mu0, nu0, inst.z_points, method="direct_lp")
    fixed = solve_tripartite_fixed_alpha(inst.surplus, mu0, nu0, alpha)
    px, py, pz = (rng.permutation(n) for n in (9, 9, alpha.size))
    mu = DiscreteMeasure(mu0.points[px], mu0.weights[px])
    nu = DiscreteMeasure(nu0.points[py], nu0.weights[py])
    moved_alpha = DiscreteMeasure(alpha.points[pz], alpha.weights[pz])
    span = float(np.ptp(_grid(inst)))
    moved_free = solve_hybrid(inst.surplus, mu, nu, alpha.points[pz],
                              method="direct_lp")
    moved_fixed = solve_tripartite_fixed_alpha(inst.surplus, mu, nu, moved_alpha)
    assert free.objective == pytest.approx(
        _highs(_grid(inst), mu0.weights, nu0.weights), rel=1e-9)
    assert abs(moved_free.objective - free.objective) <= 1e-12 * span
    assert abs(moved_fixed.objective - fixed.objective) <= 1e-12 * span
    search = max_over_alpha(inst.surplus, mu, nu, alpha.points[pz])
    assert abs(search.result.objective - free.objective) <= 1e-12 * span


@pytest.mark.parametrize("nx, ny, nz", [(8, 11, 4), (16, 12, 7), (30, 24, 9)])
def test_skewed_weights_match_highs(nx, ny, nz):
    rng = np.random.default_rng(nx * ny * nz)
    inst = random_instance(nx, n=nx, nz=nz, family="counterexample")
    wx = np.exp(2.0 * rng.normal(size=nx))
    mu = DiscreteMeasure(inst.mu.points, wx / wx.sum())
    ys = np.sort(rng.uniform(size=(ny, 1)), axis=0)
    wy = np.geomspace(1.0, 1e-3, ny)
    nu = DiscreteMeasure(ys, wy / wy.sum())
    wz = np.geomspace(1e-4, 1.0, nz)
    alpha = DiscreteMeasure(inst.z_points, wz / wz.sum())
    grid = inst.surplus.value_grid(mu.points, nu.points, alpha.points)
    span = float(np.ptp(grid))
    for res, oracle in (
            (solve_hybrid(inst.surplus, mu, nu, alpha.points, method="direct_lp"),
             _highs(grid, mu.weights, nu.weights)),
            (solve_tripartite_fixed_alpha(inst.surplus, mu, nu, alpha),
             _highs(grid, mu.weights, nu.weights, alpha.weights))):
        assert res.objective == pytest.approx(oracle, rel=1e-9, abs=1e-12)
        np.testing.assert_allclose(res.coupling.marginal_weights("x"),
                                   mu.weights, rtol=0, atol=1e-12)
        np.testing.assert_allclose(res.coupling.marginal_weights("y"),
                                   nu.weights, rtol=0, atol=1e-12)
        assert _dual_infeasibility(grid, res) <= 1e-9 * span


def test_max_over_alpha_bilinear_n24_is_fast():
    # took 10,022 free-z and 32,542 fixed-alpha dense Bland pivots (28.6 s)
    inst = random_instance(1, n=24, nz=9, family="bilinear")
    search = max_over_alpha(inst.surplus, inst.mu, inst.nu, inst.z_points)
    assert search.fixed_alpha_result.iterations == 0
    assert search.fixed_alpha_result.objective == pytest.approx(
        _highs(_grid(inst), inst.mu.weights, inst.nu.weights), rel=1e-9)


def test_too_large_lp_is_refused_before_allocating():
    big = DiscreteMeasure.uniform(np.linspace(0.0, 1.0, 20_000)[:, None])
    inst = random_instance(0, family="bilinear")
    alpha = DiscreteMeasure.uniform(np.linspace(0.0, 1.0, 10)[:, None])
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="MiB"):
            solve_hybrid(inst.surplus, big, big, alpha.points, method="direct_lp")
        with pytest.raises(TooLarge, match="MiB"):
            solve_tripartite_fixed_alpha(inst.surplus, big, big, alpha)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20



@pytest.mark.parametrize("route, family", [
    ("reduce_lift", "bilinear"), ("direct_lp", "bilinear"), ("fixed_alpha", "expcos"),
])
def test_each_estimate_covers_its_own_peak(monkeypatch, route, family):
    # one byte below the route's own tracemalloc peak must be refused: the
    # estimate counts all a route holds, its grid block and working set too
    inst = random_instance(0, n=60, nz=9, family=family)
    alpha = DiscreteMeasure.uniform(inst.z_points)

    def run():
        if route == "fixed_alpha":
            return solve_tripartite_fixed_alpha(inst.surplus, inst.mu, inst.nu, alpha)
        return solve_hybrid(inst.surplus, inst.mu, inst.nu, inst.z_points, method=route)

    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    monkeypatch.setattr(reduction, "LP_BYTES_LIMIT", peak - 1)
    with pytest.raises(TooLarge, match="MiB"):
        run()

def test_fixed_alpha_refactorises_on_a_drifting_pivot_element():
    # the ratio test took an entry of 2e-11 beside others of 201, rounding
    # drift of the updated B⁻¹, and the next refactorisation found B singular
    inst = random_instance(13, n=18, nz=18, family="counterexample")
    alpha = DiscreteMeasure.uniform(inst.z_points)
    grid = _grid(inst)
    span = float(np.ptp(grid))
    res = solve_tripartite_fixed_alpha(inst.surplus, inst.mu, inst.nu, alpha)
    optimum = _highs(grid, inst.mu.weights, inst.nu.weights, alpha.weights)
    assert abs(res.objective - optimum) <= 1e-9 * span
    assert _dual_infeasibility(grid, res) <= 1e-9 * span
    np.testing.assert_allclose(res.coupling.marginal_weights("z"),
                               alpha.weights, rtol=0, atol=1e-12)


def _count_factorisations(monkeypatch) -> dict:
    """Count np.linalg.inv and np.linalg.solve calls; every factorisation
    of the three-index simplex makes two solves."""
    calls = {"inv": 0, "solve": 0}
    for name in calls:
        def counted(*args, _name=name, _f=getattr(np.linalg, name)):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def _count_passes(monkeypatch) -> list:
    """The fixed-alpha LP's passes over the grid: its seed, then pricing."""
    passes = []
    fold = solver._residual_fold

    def counted(*args, **kwargs):
        passes.append(fold(*args, **kwargs))
        return passes[-1]

    monkeypatch.setattr(solver, "_residual_fold", counted)
    return passes


def test_a_solve_without_pivots_forms_no_inverse(monkeypatch):
    # s falls with z and is supermodular in (x, y): the warm start, each
    # pair at its best good in sorted order, is optimal
    s = BilinearSurplus([[1.0]], [[-1.0]], [[-1.0]], D=[[-0.5]], h=[0.0, -0.5])
    pts = np.linspace(0.0, 1.0, 15)[:, None]
    calls = _count_factorisations(monkeypatch)
    res = solve_hybrid(s, DiscreteMeasure.uniform(pts), DiscreteMeasure.uniform(pts ** 2),
                       np.linspace(0.0, 1.0, 7)[:, None], method="direct_lp")
    assert res.iterations == 0
    assert calls == {"inv": 0, "solve": 2}


def test_each_factorisation_a_pivot_follows_forms_one_inverse(monkeypatch):
    inst = random_instance(0, n=12, nz=6, family="counterexample")
    alpha = DiscreteMeasure.uniform(inst.z_points)
    calls = _count_factorisations(monkeypatch)
    passes = _count_passes(monkeypatch)
    res = solve_tripartite_fixed_alpha(inst.surplus, inst.mu, inst.nu, alpha)
    assert res.iterations > solver.REFACTOR_EVERY
    # the start, one every REFACTOR_EVERY pivots and at most one before each
    # pricing pass (the seed pass is not one); no pivot follows the last
    factorisations = calls["solve"] // 2
    assert calls["solve"] == 2 * factorisations
    assert calls["inv"] == factorisations - 1
    periodic = res.iterations // solver.REFACTOR_EVERY
    assert periodic < factorisations - 1 <= periodic + len(passes) - 1


# m < 90 rows: at n = 60, expcos s0 took 461 pivots with two BLAS threads
# and 463 with one
@pytest.mark.parametrize("market, pivots, objective, growths", [
    (("expcos", 1, 30, 9), 195, "-0x1.4063ec286fc0bp-2", 4),
    (("counterexample", 1, 40, 9), 1265, "0x1.5db9e342e0264p-3", 4),
])
def test_fixed_alpha_pivots_hold_across_growths(monkeypatch, market, pivots, objective,
                                                growths):
    # the pivots and objective bits of a merge by stable sort: each growth
    # must leave the working set in the same order
    family, seed, n, nz = market
    inst = random_instance(seed, n=n, nz=nz, family=family)
    passes = _count_passes(monkeypatch)
    res = solve_tripartite_fixed_alpha(inst.surplus, inst.mu, inst.nu,
                                       DiscreteMeasure.uniform(inst.z_points))
    assert res.iterations == pivots
    assert res.objective.hex() == objective
    # after the seed pass, each pricing pass grows the set until one finds none
    assert [found.cells.size > 0 for found in passes[1:]] == [True] * growths + [False]


@pytest.mark.parametrize("fixed", [False, True])
def test_basis_matrix_follows_the_cell_rule(fixed):
    # free z is the pair LP: shape (nx, ny, 1), whose cells have no Z row
    shape = nx, ny, nz = (4, 5, 3 if fixed else 1)
    m = nx + ny + nz - 2
    rng = np.random.default_rng(7)
    last = np.unique([(nx - 1) * ny * nz + ny * nz - 1, ny * nz - 1, (ny - 1) * nz, nz - 1])
    for trial in range(20):
        rest = rng.choice(np.setdiff1d(np.arange(nx * ny * nz), last), m - len(last),
                          replace=False)
        basis = rng.permutation(np.concatenate([last, rest]))
        want = np.zeros((m, m))
        for r, t in enumerate(basis.tolist()):
            i, j, k = np.unravel_index(t, shape)
            rows = [i] + ([nx + j] if j < ny - 1 else [])
            rows += [nx + ny - 1 + k] if k < nz - 1 else []
            want[rows, r] = 1.0
            # the entering column's lookup reads the same rows, X, Y, Z order
            assert [row for row, on in solver._cell_rows(t, shape) if on] == rows
        np.testing.assert_array_equal(solver._basis_matrix(basis, shape), want)


def _northwest_corner(a, b):
    """The two-axis northwest corner rule, on numpy floats, that the
    staircase must reproduce bit for bit: the last row takes what is left
    of each column."""
    m, n = a.size, b.size
    ra, rb = a.copy(), b.copy()
    cells, masses = [], []
    i = j = 0
    for _ in range(m + n - 1):
        take = rb[j] if i == m - 1 else min(ra[i], rb[j])
        cells.append((i, j))
        masses.append(float(take))
        ra[i] -= take
        rb[j] -= take
        if i == m - 1:
            j += 1
        elif j == n - 1 or ra[i] == 0.0:
            i += 1
        else:
            j += 1
    return cells, masses


@settings(max_examples=200, deadline=None)
@given(data=st.data(), axes=st.sampled_from([2, 3]))
def test_staircase_steps_one_axis_at_a_time_and_carries_the_marginals(data, axes):
    weights = []
    for _ in range(axes):
        raw = data.draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
                                 min_size=1, max_size=12).filter(any))
        weights.append(np.array(raw) / sum(raw))
    cells, masses = solver._staircase(*weights)
    if axes == 2:
        assert (cells, masses) == _northwest_corner(*weights)
    sizes = [w.size for w in weights]
    assert len(cells) == len(masses) == sum(sizes) - (axes - 1)
    path = np.array(cells)
    assert path[0].tolist() == [0] * axes
    steps = np.diff(path, axis=0)
    assert np.all(steps >= 0) and np.all(steps.sum(axis=1) == 1)
    assert min(masses) >= 0.0
    for ax, w in enumerate(weights):
        carried = np.zeros(w.size)
        np.add.at(carried, path[:, ax], masses)
        np.testing.assert_allclose(carried, w, rtol=0, atol=1e-12)


@pytest.mark.parametrize("seed, n", [(13, 18), (22, 18), (5, 24)])
def test_stalling_fixed_alpha_markets_match_highs(seed, n):
    # Dantzig's rule over the whole grid, the smallest cell leaving on ties,
    # took 7,335, 28,451 and 123,480 pivots here, nearly all degenerate
    inst = random_instance(seed, n=n, nz=n, family="counterexample")
    alpha = DiscreteMeasure.uniform(inst.z_points)
    grid = _grid(inst)
    span = float(np.ptp(grid))
    res = solve_tripartite_fixed_alpha(inst.surplus, inst.mu, inst.nu, alpha)
    assert res.iterations < 5_000
    optimum = _highs(grid, inst.mu.weights, inst.nu.weights, alpha.weights)
    assert abs(res.objective - optimum) <= 1e-9 * span
    assert _dual_infeasibility(grid, res) <= 1e-9 * span


@pytest.mark.parametrize("family", ["bilinear", "counterexample"])
def test_direct_lp_holds_no_grid(family):
    # the reduction, the working set, B⁻¹ and one block of rows: the
    # bilinear market makes no pivot, the counterexample one hundreds
    inst = random_instance(0, n=200, nz=65, family=family)
    grid_bytes = 8 * 200 * 200 * 65
    assert grid_bytes >= 16 * 2**20
    tracemalloc.start()
    try:
        solve_hybrid(inst.surplus, inst.mu, inst.nu, inst.z_points, method="direct_lp")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < grid_bytes / 2


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), nx=st.integers(1, 8), ny=st.integers(1, 8),
       nz=st.integers(1, 5), log_scale=st.floats(-9.0, 9.0), shift=st.floats(-1e3, 1e3))
def test_three_index_lps_match_highs_on_integer_rewards(seed, nx, ny, nz, log_scale, shift):
    # rewards in {0, 1, 2, 3}: ties everywhere, and many optimal couplings
    rng = np.random.default_rng(seed)
    nodes = [np.arange(k, dtype=float) for k in (nx, ny, nz)]
    values = rng.integers(0, 4, size=(nx, ny, nz)).astype(float)
    mu, nu, alpha = (DiscreteMeasure(p[:, None], w / w.sum())
                     for p, w in ((p, rng.integers(1, 6, size=p.size).astype(float))
                                  for p in nodes))
    c = 10.0 ** log_scale
    s = _Affine(TabulatedSurplus(values, *nodes), c, c * shift)
    grid = s.value_grid(mu.points, nu.points, alpha.points)
    tol = 1e-9 * grid_scale(grid)
    for res, optimum in (
            (solve_hybrid(s, mu, nu, alpha.points, method="direct_lp"),
             _highs(values, mu.weights, nu.weights)),
            (solve_tripartite_fixed_alpha(s, mu, nu, alpha),
             _highs(values, mu.weights, nu.weights, alpha.weights))):
        assert abs(res.objective - (c * optimum + c * shift)) <= tol
        assert _dual_infeasibility(grid, res) <= tol


def test_max_over_alpha_merges_repeated_goods():
    # solve_hybrid takes the repeated goods 0.25 and 0.75; alpha, a measure,
    # holds each once, at the copy the lift picks
    s = CounterexampleSurplus(0.5)
    mu = DiscreteMeasure.uniform(np.linspace(0.5, 1.0, 7)[:, None])
    nu = DiscreteMeasure.uniform(np.linspace(0.0, 0.5, 7)[:, None])
    zs = np.array([0.0, 0.25, 0.25, 0.5, 0.75, 0.75, 1.0])[:, None]
    free = solve_hybrid(s, mu, nu, zs)
    assert free.objective == pytest.approx(49 / 144, rel=1e-15)
    search = max_over_alpha(s, mu, nu, zs)
    assert search.result.objective == free.objective
    np.testing.assert_array_equal(search.alpha.points, zs[[0, 1, 3, 4, 6]])
    fixed = search.fixed_alpha_result
    grid = s.value_grid(mu.points, nu.points, search.alpha.points)
    span = float(np.ptp(grid))
    assert abs(fixed.objective - _highs(grid, mu.weights, nu.weights,
                                        search.alpha.weights)) <= 1e-9 * span
    assert _dual_infeasibility(grid, fixed) <= 1e-9 * span
