import dataclasses
import tracemalloc

import numpy as np
import pytest

from hedonic_match import reduction, surplus
from hedonic_match.core import DiscreteMeasure, GridSpec, ValidationError, grid_scale
from hedonic_match.instances import random_instance
from hedonic_match.reduction import (
    TIE_TOL,
    EmptyGrid,
    reduce,
    reduced_to_csv,
)
from hedonic_match.solver import max_over_alpha, solve_hybrid, solve_tripartite_fixed_alpha
from hedonic_match.surplus import (
    BilinearSurplus,
    CounterexampleSurplus,
    Supermodular1DSurplus,
    SurplusModel,
    TabulatedSurplus,
    _lead,
)


def _dyadic(lo, hi, n):
    return GridSpec(lo, hi, n).points()


def test_reduce_counterexample_matches_grid_max_exactly():
    s = CounterexampleSurplus(0.5)
    xs = _dyadic(0.5, 1.0, 9)
    ys = _dyadic(0.0, 0.5, 9)
    zs = _dyadic(0.0, 1.0, 17)
    red = reduce(s, xs, ys, zs)
    grid = s.value_grid(xs, ys, zs)
    np.testing.assert_array_equal(red.values, np.max(grid, axis=2))
    assert red.shape == (9, 9)
    # the quadratic-in-z argmax z = x - y lands exactly on the dyadic grid
    for i in range(9):
        for j in range(9):
            k = red.argmax[i, j]
            assert zs[k, 0] == xs[i, 0] - ys[j, 0]
    assert not red.any_tie
    # z* = x - y touches the z-range edges only at the two extreme corners:
    # (x, y) = (1/2, 1/2) gives z* = 0 and (x, y) = (1, 0) gives z* = 1
    expected_boundary = np.zeros((9, 9), dtype=bool)
    expected_boundary[0, 8] = True
    expected_boundary[8, 0] = True
    np.testing.assert_array_equal(red.boundary, expected_boundary)


def test_reduce_z_free_surplus_flags_all_ties():
    s = BilinearSurplus(A=[[1.0]], B=[[0.0]], C=[[0.0]])
    xs = _dyadic(0.0, 1.0, 3)
    ys = _dyadic(0.0, 1.0, 3)
    zs = _dyadic(0.0, 1.0, 4)
    red = reduce(s, xs, ys, zs)
    assert red.any_tie
    assert red.tie.all()
    # first-max rule: argmax is always index 0 when everything ties
    assert (red.argmax == 0).all()
    np.testing.assert_array_equal(red.values, np.outer(xs[:, 0], ys[:, 0]))


def test_reduce_tie_tolerance(monkeypatch):
    # values at the two z nodes differ by 1e-12 of the reduced values' range
    # (the seller at y = 1 spans it): a coarse tol calls it a tie, a fine one
    # picks the true max at index 1
    s = Supermodular1DSurplus((1, 1, 1))
    xs = np.array([[1.0]])
    ys = np.array([[1e-12], [1.0]])
    zs = np.array([[0.0], [1.0]])
    monkeypatch.setattr(reduction, "TIE_TOL", 1e-10)
    loose = reduce(s, xs, ys, zs)
    assert loose.tie[0, 0]
    monkeypatch.setattr(reduction, "TIE_TOL", 1e-14)
    tight = reduce(s, xs, ys, zs)
    assert not tight.tie[0, 0]
    assert tight.argmax[0, 0] == 1


def test_reduce_boundary_flags():
    xs = _dyadic(0.25, 0.75, 3)
    ys = _dyadic(0.25, 0.75, 3)
    zs = _dyadic(0.0, 1.0, 5)
    # interior peak: z* = (x+y)/2 lies strictly inside [0, 1]
    interior = BilinearSurplus(A=[[0.0]], B=[[1.0]], C=[[1.0]], D=[[-1.0]])
    red = reduce(interior, xs, ys, zs)
    assert not red.any_boundary
    # monotone in z: the argmax pins to the upper edge of the z grid
    monotone = BilinearSurplus(A=[[0.0]], B=[[1.0]], C=[[0.0]])
    red2 = reduce(monotone, xs, ys, zs)
    assert red2.boundary.all()
    assert (red2.argmax == 4).all()


def test_selected_z_lookup():
    s = CounterexampleSurplus(0.5)
    xs = _dyadic(0.5, 1.0, 3)
    ys = _dyadic(0.0, 0.5, 3)
    zs = _dyadic(0.0, 1.0, 9)
    red = reduce(s, xs, ys, zs)
    sel = red.selected_z(1, 1)
    assert sel.shape == (1,)
    assert sel[0] == xs[1, 0] - ys[1, 0]


def test_reduced_round_trip_dict():
    s = CounterexampleSurplus(0.5)
    red = reduce(s, _dyadic(0.5, 1.0, 3), _dyadic(0.0, 0.5, 3),
                 _dyadic(0.0, 1.0, 5))
    d = red.to_dict()
    assert len(d["values"]) == 3
    assert d["argmax"][0][0] == int(red.argmax[0, 0])
    assert d["tie_tol"] == red.tie_tol


def test_reduce_empty_grid():
    s = CounterexampleSurplus(0.5)
    with pytest.raises(EmptyGrid):
        reduce(s, np.zeros((0, 1)), [[0.0]], [[0.0]])


# --- c-transforms -----------------------------------------------------------

def test_c_transform_recovers_plane_potentials_exactly():
    # with V = y^2/2 on the counterexample at a = 1/2, the transform gives
    # U(x) = max_{y,z} s - V = x^2/2, attained on the plane z = x - y; dyadic
    # 1/16 grids make every intermediate float exact
    s = CounterexampleSurplus(0.5)
    xs = _dyadic(0.5, 1.0, 9)
    ys = _dyadic(0.0, 0.5, 9)
    zs = _dyadic(0.0, 1.0, 17)
    V = 0.5 * ys[:, 0] ** 2
    red = reduce(s, xs, ys, zs)
    U = red.c_transform_V(V)
    np.testing.assert_array_equal(U, 0.5 * xs[:, 0] ** 2)
    V_back = red.c_transform_U(U)
    np.testing.assert_array_equal(V_back, V)


def test_c_transform_idempotent_after_one_round():
    rng = np.random.default_rng(31)
    s = BilinearSurplus(A=[[1.0]], B=[[0.5]], C=[[0.5]], D=[[-1.0]])
    xs = np.sort(rng.uniform(0, 1, 6))[:, None]
    ys = np.sort(rng.uniform(0, 1, 5))[:, None]
    zs = np.sort(rng.uniform(0, 1, 7))[:, None]
    V0 = rng.normal(size=5)
    red = reduce(s, xs, ys, zs)
    U1 = red.c_transform_V(V0)
    V1 = red.c_transform_U(U1)
    U2 = red.c_transform_V(V1)
    V2 = red.c_transform_U(U2)
    # the triple transform collapses onto the single one
    np.testing.assert_allclose(U2, U1, atol=1e-12)
    np.testing.assert_allclose(V2, V1, atol=1e-12)
    # transformed pairs dominate the surplus everywhere
    grid = s.value_grid(xs, ys, zs)
    gap = U1[:, None, None] + V1[None, :, None] - grid
    assert gap.min() >= -1e-12


def test_c_transform_length_and_finiteness_checks():
    s = CounterexampleSurplus(0.5)
    xs, ys, zs = _dyadic(0.5, 1.0, 3), _dyadic(0.0, 0.5, 3), _dyadic(0, 1, 5)
    with pytest.raises(ValidationError):
        reduce(s, xs, ys, zs).c_transform_U(np.zeros(4))
    with pytest.raises(ValidationError):
        reduce(s, xs, ys, zs).c_transform_V([0.0, np.inf, 0.0])


def test_reduced_to_csv(tmp_path):
    s = CounterexampleSurplus(0.5)
    xs = _dyadic(0.5, 1.0, 3)
    ys = _dyadic(0.0, 0.5, 3)
    zs = _dyadic(0.0, 1.0, 5)
    red = reduce(s, xs, ys, zs)
    path = tmp_path / "reduced.csv"
    reduced_to_csv(red, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "i,j,sbar,z_index,tie_flag"
    assert len(lines) == 1 + 9
    i, j, sbar, z_index, tie_flag = lines[1].split(",")
    assert (int(i), int(j)) == (0, 0)
    assert float(sbar) == red.values[0, 0]
    assert int(z_index) == red.argmax[0, 0]
    assert tie_flag in {"0", "1"}


# --- row blocks ---------------------------------------------------------------

def _integer_table(seed, shape):
    """Values in {0, 1, 2, 3}: exact ties within and across rows."""
    values = np.random.default_rng(seed).integers(0, 4, size=shape).astype(float)
    return (TabulatedSurplus(values, *(np.arange(n, dtype=float) for n in shape)),
            *(np.arange(n, dtype=float)[:, None] for n in shape))


class _ReadOnly(SurplusModel):
    """s = x·z as a read-only broadcast view, constant along y."""

    dims = (1, 1, 1)

    def _kernel(self, X, Y, Z):
        return np.broadcast_to(X[..., 0] * Z[..., 0], _lead(X, Y, Z))


class _FortranOrder(SurplusModel):
    """A base model's values, handed back in Fortran order."""

    def __init__(self, base):
        self.base = base

    @property
    def dims(self):
        return self.base.dims

    def _kernel(self, X, Y, Z):
        return np.asfortranarray(self.base._kernel(X, Y, Z))


def _blocked_markets():
    inst = random_instance(3, n=7, nz=5, family="bilinear")
    duplicates = np.array([[0.0], [0.25], [0.25], [0.5], [0.75], [0.75], [1.0]])
    return {
        "integer-table": _integer_table(0, (7, 5, 6)),
        "bilinear": (inst.surplus, inst.mu.points, inst.nu.points, inst.z_points),
        # z* = x - y lands on the repeated points 0.25 and 0.75: exact ties
        "duplicate-z": (CounterexampleSurplus(0.5), _dyadic(0.5, 1.0, 7),
                        _dyadic(0.0, 0.5, 5), duplicates),
        "nz=1": (CounterexampleSurplus(0.5), _dyadic(0.5, 1.0, 7),
                 _dyadic(0.0, 0.5, 5), [[0.5]]),
        # x > 0 and z in [-1, 1]: the best good is the last, and no pair ties
        "read-only": (_ReadOnly(), _dyadic(0.25, 1.0, 7), _dyadic(0.0, 1.0, 5),
                      _dyadic(-1.0, 1.0, 6)),
        "fortran-order": (_FortranOrder(inst.surplus), inst.mu.points,
                          inst.nu.points, inst.z_points),
    }


def _block_rows(monkeypatch, rows, ys, zs):
    """Blocks of `rows` x rows: 1, 3 (7 rows leave a ragged last block of 1),
    or None for one block holding the whole grid."""
    cells = len(ys) * len(zs)
    monkeypatch.setattr(surplus, "_GRID_BLOCK_CELLS",
                        1 << 30 if rows is None else rows * cells + cells // 2)


MARKETS = ["integer-table", "bilinear", "duplicate-z", "nz=1", "read-only", "fortran-order"]


@pytest.mark.parametrize("rows", [1, 3, None])
@pytest.mark.parametrize("market", MARKETS)
def test_blocked_reduce_matches_the_full_grid(monkeypatch, market, rows):
    s, xs, ys, zs = _blocked_markets()[market]
    grid = s.value_grid(xs, ys, zs)
    best = np.argmax(grid, axis=2)
    values = np.max(grid, axis=2)
    # the runner-up of each sorted goods column
    second = (np.sort(grid, axis=2)[:, :, -2] if grid.shape[2] > 1
              else np.full(values.shape, -np.inf))
    tol = TIE_TOL * grid_scale(values)
    tie = np.sum(grid >= values[:, :, None] - tol, axis=2) >= 2
    _block_rows(monkeypatch, rows, ys, zs)
    red = reduce(s, xs, ys, zs)
    assert red.argmax.dtype == best.dtype
    np.testing.assert_array_equal(red.argmax, best)
    assert red.values.tobytes() == values.tobytes()
    assert red.second.tobytes() == second.tobytes()
    assert np.float64(red.lowest).tobytes() == grid.min().tobytes()
    np.testing.assert_array_equal(red.tie, tie)
    assert red.tie_tol == tol
    # the markets with exact z-ties have them, and the others have none
    assert tie.any() == (market in ("integer-table", "duplicate-z"))
    monkeypatch.setattr(surplus, "_GRID_BLOCK_CELLS", 1 << 30)
    assert red.to_dict() == reduce(s, xs, ys, zs).to_dict()


@pytest.mark.parametrize("rows", [1, 3, None])
@pytest.mark.parametrize("market", MARKETS)
def test_blocked_c_transforms_match_the_full_grid(monkeypatch, market, rows):
    s, xs, ys, zs = _blocked_markets()[market]
    grid = s.value_grid(xs, ys, zs)
    rng = np.random.default_rng(1)
    U = rng.normal(size=grid.shape[0])
    V = rng.normal(size=grid.shape[1])
    _block_rows(monkeypatch, rows, ys, zs)
    red = reduce(s, xs, ys, zs)
    assert (red.c_transform_V(V).tobytes()
            == np.max(grid - V[None, :, None], axis=(1, 2)).tobytes())
    assert (red.c_transform_U(U).tobytes()
            == np.max(grid - U[:, None, None], axis=(0, 2)).tobytes())


class _Table(SurplusModel):
    """s read from a table at integer points; NaN and -inf allowed."""

    dims = (1, 1, 1)

    def __init__(self, table):
        self.table = table

    def _kernel(self, X, Y, Z):
        return self.table[X[..., 0].astype(int), Y[..., 0].astype(int), Z[..., 0].astype(int)]


def _along_axis_fold(grid):
    """(argmax, values, second) by the along-axis helpers and a max over goods."""
    grid = grid.copy()
    arg = np.argmax(grid, axis=2)[:, :, None]
    values = np.take_along_axis(grid, arg, axis=2)[:, :, 0]
    np.put_along_axis(grid, arg, -np.inf, axis=2)
    return arg[:, :, 0], values, np.max(grid, axis=2)


@pytest.mark.parametrize("rows", [1, 3, None])
def test_reduce_folds_nan_and_minus_inf_cells_as_the_along_axis_fold(monkeypatch, rows):
    table = np.random.default_rng(2).integers(0, 4, size=(7, 5, 6)).astype(float)
    table[0, 0, 3] = np.nan           # the max is the first NaN
    table[1, 2, [1, 4]] = np.nan      # and the runner-up the second
    table[2, 1, 5] = -np.inf
    table[3, 3] = -np.inf             # a column of -inf alone
    table[4, 4, [0, 2]] = np.nan, -np.inf
    s = _Table(table)
    xs, ys, zs = (np.arange(n, dtype=float)[:, None] for n in table.shape)
    best, values, second = _along_axis_fold(table)
    _block_rows(monkeypatch, rows, ys, zs)
    red = reduce(s, xs, ys, zs)
    assert red.argmax.dtype == best.dtype
    assert red.argmax.tobytes() == best.tobytes()
    assert red.values.tobytes() == values.tobytes()
    assert red.second.tobytes() == second.tobytes()
    assert (red.argmax[0, 0], red.argmax[1, 2], red.argmax[4, 4]) == (3, 1, 0)
    assert np.isnan(red.second[1, 2]) and red.second[3, 3] == -np.inf


@pytest.mark.parametrize("cells", [1 << 12, 1 << 16, 1 << 30])  # 1 << 30: one block
def test_the_reduce_estimate_counts_the_blocks_of_the_rule(monkeypatch, cells):
    # the estimate reads the block rule when it is asked, as _grid_blocks does
    inst = random_instance(0, n=200, nz=33, family="bilinear")
    monkeypatch.setattr(surplus, "_GRID_BLOCK_CELLS", cells)
    tracemalloc.start()
    try:
        reduce(inst.surplus, inst.mu.points, inst.nu.points, inst.z_points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= reduction._reduce_bytes(200, 200, *inst.z_points.shape)


def _fields(red):
    """Every field of a reduction as (dtype, shape, bytes)."""
    return {f.name: (a.dtype, a.shape, a.tobytes())
            for f in dataclasses.fields(red)
            for a in [np.asarray(getattr(red, f.name))]}


@pytest.mark.parametrize("rows", [1, 3, None])
@pytest.mark.parametrize("market", MARKETS)
def test_every_solve_carries_reduce_bit_for_bit(monkeypatch, market, rows):
    # the three-index LPs fold the full grid they price; reduce folds blocks
    # of value_grid rows
    s, xs, ys, zs = _blocked_markets()[market]
    mu, nu = DiscreteMeasure.uniform(xs), DiscreteMeasure.uniform(ys)
    _block_rows(monkeypatch, rows, ys, zs)
    want = _fields(reduce(s, xs, ys, zs))
    solves = [solve_hybrid(s, mu, nu, zs, method="reduce_lift"),
              solve_hybrid(s, mu, nu, zs, method="direct_lp")]
    if market != "duplicate-z":  # a measure over goods needs distinct points
        search = max_over_alpha(s, mu, nu, zs)
        solves += [solve_tripartite_fixed_alpha(s, mu, nu, DiscreteMeasure.uniform(zs)),
                   search.result, search.fixed_alpha_result]
    for res in solves:
        assert _fields(res.reduction) == want, res.method
