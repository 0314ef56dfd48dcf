import inspect
import tracemalloc

import numpy as np
import pytest

from hedonic_match import surplus
from hedonic_match.core import Coupling, DimensionMismatch, DiscreteMeasure, ValidationError
from hedonic_match.diagnostics import (
    check_tss_bilinear,
    check_tzss_bilinear,
    sample_splitting_sets,
    support_dimension,
    verify_stability,
)
from hedonic_match.instances import random_instance
from hedonic_match.reduction import reduce
from hedonic_match.solver import solve_hybrid
from hedonic_match.surplus import (
    BilinearComponent,
    BilinearSurplus,
    CounterexampleSurplus,
    ExpCosSurplus,
    MissingUV,
    OutOfGrid,
    ShapeMismatch,
    StrictlyHedonicSurplus,
    Supermodular1DSurplus,
    TabulatedComponent,
    TabulatedSurplus,
    assemble_G,
    classify_eigenvalues,
    signature,
    surplus_from_dict,
)


def _families():
    return [
        BilinearSurplus(A=[[0.7]], B=[[-0.3]], C=[[1.1]], D=[[-0.4]],
                        f=[0.0, 0.5], g=[0.0, -0.2], h=[0.1, 0.3]),
        CounterexampleSurplus(0.5),
        CounterexampleSurplus(1.0),
        Supermodular1DSurplus((2, 1, 3), scale=1.5),
        ExpCosSurplus(),
        StrictlyHedonicSurplus(BilinearComponent([[1.0]], Dz=[[-1.0]]),
                               BilinearComponent([[0.8]], h=[0.0, 0.2])),
        BilinearSurplus(A=[[0.7, -0.2], [0.3, 1.1]], B=[[-0.3, 0.4], [0.9, 0.1]],
                        C=[[1.1, -0.6], [0.2, 0.5]], D=[[-0.4, 0.3], [-0.1, -0.8]],
                        f=[[0.0, 0.5, -0.3], [0.2, 0.1]], g=[[0.0, -0.2], [0.1]],
                        h=[[0.1, 0.3], [0.0, 0.0, 0.7]]),
        TabulatedSurplus(np.random.default_rng(0).normal(size=(4, 3, 5)),
                         [0.0, 0.3, 0.7, 1.0], [0.0, 0.5, 1.0],
                         [0.0, 0.2, 0.4, 0.6, 0.8]),
        StrictlyHedonicSurplus(
            BilinearComponent([[1.0, 0.4], [-0.3, 0.6]], Dz=[[-1.0, 0.2], [0.1, -0.5]],
                              f=[[0.0, 0.3], [0.1, -0.2]]),
            BilinearComponent([[0.8, -0.1], [0.5, 0.9]], h=[[0.0, 0.2], [0.4, 0.0, 0.3]])),
    ]


def _draw(rng, s, n, axis):
    """n random points on one axis: table nodes for a tabulated model."""
    if isinstance(s, TabulatedSurplus):
        return rng.choice(getattr(s, f"{axis}_nodes"), (n, 1))
    return rng.uniform(0.1, 1.0, (n, s.dims["xyz".index(axis)]))


def test_counterexample_value():
    s = CounterexampleSurplus(0.5)
    assert s.value([1.0], [0.5], [0.5]) == 0.625


def test_value_batch_and_grid_match_scalar_exactly():
    # the reduction's "values are verbatim grid entries" guarantee needs the
    # vectorized paths to round identically to the scalar path
    rng = np.random.default_rng(3)
    for s in _families():
        X, Y, Z = _draw(rng, s, 4, "x"), _draw(rng, s, 3, "y"), _draw(rng, s, 5, "z")
        grid = s.value_grid(X, Y, Z)
        assert grid.shape == (4, 3, 5)
        for i in range(4):
            for j in range(3):
                for k in range(5):
                    assert grid[i, j, k] == s.value(X[i], Y[j], Z[k])
        batch = s.value_batch(X[:3], Y[:3], Z[:3])
        for t in range(3):
            assert batch[t] == s.value(X[t], Y[t], Z[t])


@pytest.mark.parametrize("family", ["bilinear", "expcos"])
def test_value_grid_holds_one_grid_at_peak(family):
    # the kernels sum in place: the full-size grid is the only large array
    inst = random_instance(0, n=300, nz=33, family=family)
    tracemalloc.start()
    try:
        grid = inst.surplus.value_grid(inst.mu.points, inst.nu.points,
                                       inst.z_points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * grid.nbytes


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("family", ["bilinear", "supermodular"])
def test_reduce_peak_stays_far_below_the_grid(family):
    # the full 1000 x 1000 x 33 grid alone is 264 MB; reduce folds it in
    # row blocks and holds its three 8 MB result-sized arrays
    inst = random_instance(0, n=1000, nz=33, family=family)
    peak = _traced_peak(lambda: reduce(inst.surplus, inst.mu.points,
                                       inst.nu.points, inst.z_points))
    assert peak < 50e6


@pytest.mark.parametrize("family", ["bilinear", "supermodular"])
def test_stability_and_splitting_peaks_stay_below_one_grid(family):
    inst = random_instance(0, n=300, nz=33, family=family)
    grid_bytes = 8 * inst.mu.size * inst.nu.size * inst.z_points.shape[0]
    res = solve_hybrid(inst.surplus, inst.mu, inst.nu, inst.z_points)
    assert _traced_peak(lambda: verify_stability(
        inst.surplus, res.coupling, res.potentials)) < grid_bytes
    assert _traced_peak(lambda: sample_splitting_sets(
        inst.surplus, inst.mu.points, res.potentials.V, inst.nu.points,
        inst.z_points)) < grid_bytes


def test_support_dimension_peak_stays_far_below_all_offsets():
    # all 2,000 x 2,000 offsets in 3-D would take 96 MB; the local PCA
    # forms them one block of query points at a time
    rng = np.random.default_rng(0)
    m = 2000
    mu, nu = (DiscreteMeasure.uniform(rng.uniform(size=(m, 1))) for _ in range(2))
    idx = np.repeat(np.arange(m)[:, None], 3, axis=1)
    coupling = Coupling(idx, np.full(m, 1.0 / m), mu, nu,
                        z_points=rng.uniform(size=(m, 1)))
    assert _traced_peak(lambda: support_dimension(coupling, radius=0.2)) < 4e6


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_derivative_kernels_match_scalar_methods_bitwise():
    # the diagnostics read gradients and Hessian blocks from batch and grid
    # calls; they must round exactly like the one-point methods
    rng = np.random.default_rng(13)
    for s in _families():
        X, Y, Z = _draw(rng, s, 4, "x"), _draw(rng, s, 3, "y"), _draw(rng, s, 5, "z")
        grid = (X[:, None, None], Y[None, :, None], Z[None, None, :])
        grads, blocks = s._grad(*grid), s._hess(*grid)
        rows = s._grad(X[:3], Y[:3], Z[:3]), s._hess(X[:3], Y[:3], Z[:3])
        v_z = s._grad_v_z(Y[:, None], Z[None, :]) if s.has_uv else None
        for i, j, k in np.ndindex(4, 3, 5):
            x, y, z = X[i], Y[j], Z[k]
            scalar = ((s.grad_x(x, y, z), s.grad_y(x, y, z), s.grad_z(x, y, z)),
                      s.hessian_blocks(x, y, z))
            for got, want in zip(grads + blocks, scalar[0] + scalar[1]):
                assert _same_bits(got[i, j, k], want)
            if v_z is not None:
                assert _same_bits(v_z[j, k], s.grad_v_z(x, y, z))
        for t in range(3):
            x, y, z = X[t], Y[t], Z[t]
            scalar = (s.grad_x(x, y, z), s.grad_y(x, y, z), s.grad_z(x, y, z),
                      *s.hessian_blocks(x, y, z))
            for got, want in zip(rows[0] + rows[1], scalar):
                assert _same_bits(got[t], want)


def test_component_kernels_match_scalar_methods_bitwise():
    comps = [c for s in _families() if isinstance(s, StrictlyHedonicSurplus)
             for c in (s.u, s.v)]
    comps.append(TabulatedComponent(np.random.default_rng(1).normal(size=(4, 5)),
                                    [0.0, 0.3, 0.7, 1.0], [0.0, 0.2, 0.4, 0.6, 0.8]))
    rng = np.random.default_rng(17)
    for c in comps:
        if isinstance(c, TabulatedComponent):
            P, Z = rng.choice(c.p_nodes, (4, 1)), rng.choice(c.z_nodes, (6, 1))
        else:
            dp, dz = c.dims
            P, Z = rng.uniform(-1.0, 1.0, (4, dp)), rng.uniform(-1.0, 1.0, (6, dz))
        gp, gz = c._grad(P[:, None], Z[None, :])
        h = c._hess(P[:, None], Z[None, :])
        for i, k in np.ndindex(4, 6):
            assert _same_bits(gp[i, k], c.grad_p(P[i], Z[k]))
            assert _same_bits(gz[i, k], c.grad_z(P[i], Z[k]))
            assert _same_bits(h[i, k], c.hess_pz(P[i], Z[k]))


def test_every_family_derives_its_derivatives_from_kernels():
    # scalar per-family derivative code must not come back: each concrete
    # model supplies the three kernels and inherits the public methods
    models = [cls for _, cls in inspect.getmembers(surplus, inspect.isclass)
              if issubclass(cls, surplus.SurplusModel)
              and cls is not surplus.SurplusModel]
    assert len(models) >= 6
    for cls in models:
        for name in ("_kernel", "_grad", "_hess"):
            assert name in vars(cls), f"{cls.__name__} lacks {name}"
        for name in ("value", "grad_x", "grad_y", "grad_z", "hessian_blocks",
                     "grad_v_z", "value_u", "value_v", "has_uv"):
            assert name not in vars(cls), f"{cls.__name__} overrides {name}"
    instances = _families()
    assert {type(s) for s in instances} == set(models)
    for s in instances:
        assert s.has_uv == ("_uv" in vars(type(s))), type(s).__name__
    for cls in (surplus.BilinearComponent, surplus.TabulatedComponent):
        for name in ("_kernel", "_grad", "_hess"):
            assert name in vars(cls), f"{cls.__name__} lacks {name}"
        for name in ("value", "grad_p", "grad_z", "hess_pz"):
            assert name not in vars(cls), f"{cls.__name__} overrides {name}"


def _fd_grad(fn, p, h=1e-5):
    g = np.zeros(p.size)
    for d in range(p.size):
        hi = p.copy(); hi[d] += h
        lo = p.copy(); lo[d] -= h
        g[d] = (fn(hi) - fn(lo)) / (2.0 * h)
    return g


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    for s in _families():
        if isinstance(s, TabulatedSurplus):
            continue  # defined on table nodes only
        dx, dy, dz = s.dims
        for _ in range(25):
            x = rng.uniform(0.2, 0.9, dx)
            y = rng.uniform(0.2, 0.9, dy)
            z = rng.uniform(0.2, 0.9, dz)
            np.testing.assert_allclose(
                s.grad_x(x, y, z), _fd_grad(lambda p: s.value(p, y, z), x),
                atol=1e-6)
            np.testing.assert_allclose(
                s.grad_y(x, y, z), _fd_grad(lambda p: s.value(x, p, z), y),
                atol=1e-6)
            np.testing.assert_allclose(
                s.grad_z(x, y, z), _fd_grad(lambda p: s.value(x, y, p), z),
                atol=1e-6)


def test_hessian_blocks_match_finite_differences():
    rng = np.random.default_rng(7)
    h = 1e-5
    for s in _families():
        if isinstance(s, TabulatedSurplus):
            continue  # defined on table nodes only
        dx, dy, dz = s.dims
        x = rng.uniform(0.3, 0.8, dx)
        y = rng.uniform(0.3, 0.8, dy)
        z = rng.uniform(0.3, 0.8, dz)
        sxy, sxz, syz = s.hessian_blocks(x, y, z)

        def fd_block(grad, p, set_p):
            cols = []
            for d in range(p.size):
                hi = p.copy(); hi[d] += h
                lo = p.copy(); lo[d] -= h
                cols.append((grad(*set_p(hi)) - grad(*set_p(lo))) / (2.0 * h))
            return np.column_stack(cols)

        np.testing.assert_allclose(
            sxy, fd_block(s.grad_x, y, lambda q: (x, q, z)), atol=1e-5)
        np.testing.assert_allclose(
            sxz, fd_block(s.grad_x, z, lambda q: (x, y, q)), atol=1e-5)
        np.testing.assert_allclose(
            syz, fd_block(s.grad_y, z, lambda q: (x, y, q)), atol=1e-5)


def test_uv_split_sums_to_value():
    for s in _families():
        if not getattr(s, "has_uv", False):
            continue
        dx, dy, dz = s.dims
        x, y, z = np.full(dx, 0.6), np.full(dy, 0.4), np.full(dz, 0.3)
        total = s.value_u(x, y, z) + s.value_v(x, y, z)
        assert total == pytest.approx(s.value(x, y, z), abs=1e-14)


def _split_by_hand(s, x, y, z) -> tuple[float, float]:
    """(u, v) at one point from the components' own scalar value, or from
    the counterexample's formulas in Python floats."""
    if isinstance(s, StrictlyHedonicSurplus):
        return s.u.value(x, z), s.v.value(y, z)
    x, y, z = float(x[0]), float(y[0]), float(z[0])
    return x * y + x * z, -y * z - s.a * z * z


def _uv_families():
    p_nodes = np.array([0.1, 0.4, 0.55, 1.0])
    z_nodes = np.array([0.0, 0.2, 0.4, 0.6, 0.8])
    table = np.random.default_rng(5).normal(size=(4, 5))
    tabulated = StrictlyHedonicSurplus(TabulatedComponent(table, p_nodes, z_nodes),
                                       BilinearComponent([[0.8]], h=[0.0, 0.2]))
    return [s for s in _families() if s.has_uv] + [tabulated]


def test_uv_kernel_rounds_like_the_scalar_split():
    rng = np.random.default_rng(8)
    families = _uv_families()
    assert len(families) == 5
    for s in families:
        if isinstance(getattr(s, "u", None), TabulatedComponent):
            X = rng.choice(s.u.p_nodes, (4, 1))
            Z = rng.choice(s.u.z_nodes, (5, 1))
        else:
            X, Z = _draw(rng, s, 4, "x"), _draw(rng, s, 5, "z")
        Y = _draw(rng, s, 3, "y")
        lead = (4, 3, 5)
        u, v = (np.broadcast_to(a, lead)
                for a in s._uv(X[:, None, None], Y[None, :, None], Z[None, None, :]))
        for i in range(4):
            for j in range(3):
                for k in range(5):
                    want = _split_by_hand(s, X[i], Y[j], Z[k])
                    assert (u[i, j, k], v[i, j, k]) == want
                    assert (s.value_u(X[i], Y[j], Z[k]),
                            s.value_v(X[i], Y[j], Z[k])) == want
        u, v = s._uv(X[:3], Y, Z[:3])
        for t in range(3):
            assert (u[t], v[t]) == _split_by_hand(s, X[t], Y[t], Z[t])


def test_missing_uv_raises():
    s = Supermodular1DSurplus()
    with pytest.raises(MissingUV):
        s.value_u([1.0], [1.0], [1.0])


def test_dict_round_trip_all_families():
    extra = [
        StrictlyHedonicSurplus(
            TabulatedComponent([[0.0, 1.0], [1.0, 2.0]], [0.0, 1.0], [0.0, 1.0]),
            BilinearComponent([[2.0]])),
        TabulatedSurplus(np.arange(8.0).reshape(2, 2, 2),
                         [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]),
    ]
    rng = np.random.default_rng(5)
    for s in _families() + extra:
        back = surplus_from_dict(s.to_dict())
        dx, dy, dz = s.dims
        for _ in range(5):
            if isinstance(s, (TabulatedSurplus,)) or any(
                    getattr(c, "kind", "") == "tabulated"
                    for c in (getattr(s, "u", None), getattr(s, "v", None)) if c):
                x, y, z = np.zeros(dx), np.zeros(dy), np.zeros(dz)
            else:
                x = rng.uniform(0, 1, dx)
                y = rng.uniform(0, 1, dy)
                z = rng.uniform(0, 1, dz)
            assert back.value(x, y, z) == s.value(x, y, z)


def test_family_tag_hyphen_alias():
    s = surplus_from_dict({"family": "strictly-hedonic",
                           "u": {"kind": "bilinear", "M": [[1.0]]},
                           "v": {"kind": "bilinear", "M": [[1.0]]}})
    assert s.family == "strictly_hedonic"


def test_bilinear_shape_checks():
    with pytest.raises(ShapeMismatch):
        BilinearSurplus(A=[[1.0, 0.0]], B=[[1.0]], C=[[1.0]])


def test_tabulated_surplus_snaps_and_rejects():
    vals = np.arange(27.0).reshape(3, 3, 3)
    nodes = [0.0, 0.5, 1.0]
    s = TabulatedSurplus(vals, nodes, nodes, nodes)
    assert s.value([0.5], [1.0], [0.0]) == vals[1, 2, 0]
    with pytest.raises(OutOfGrid):
        s.value([0.21], [0.0], [0.0])
    with pytest.raises(OutOfGrid):
        s.value([np.nan], [0.0], [0.0])


@pytest.mark.parametrize("c", 10.0 ** np.arange(-10, 11, 2))
@pytest.mark.parametrize("kind", ["surplus", "component"])
def test_tabulated_snap_is_scale_free(kind, c):
    # p on nodes c·(0, 1, 2, 3) with value i at node i, and z on one node at c
    nodes = c * np.arange(4.0)
    if kind == "surplus":
        s = TabulatedSurplus(np.arange(4.0).reshape(4, 1, 1), nodes, [c], [c])
        value = lambda p, z: s.value([p], [c], [z])  # noqa: E731
    else:
        u = TabulatedComponent(np.arange(4.0).reshape(4, 1), nodes, [c])
        value = lambda p, z: u.value([p], [z])  # noqa: E731
    for i, p in enumerate(nodes):
        assert value(p, c) == i
    assert value(np.nextafter(nodes[2], np.inf), np.nextafter(c, 0.0)) == 2
    for p, z in ((0.5 * c, c), (2.5 * c, c), (c, 2.0 * c), (c, 0.0)):
        with pytest.raises(OutOfGrid):
            value(p, z)


def test_tabulated_component_gradients_on_linear_table():
    # u = p * z tabulated exactly: central differences recover z and p
    p_nodes = np.array([0.0, 0.5, 1.0])
    z_nodes = np.array([0.0, 0.25, 0.5])
    table = p_nodes[:, None] * z_nodes[None, :]
    c = TabulatedComponent(table, p_nodes, z_nodes)
    assert c.grad_p([0.5], [0.25])[0] == pytest.approx(0.25, abs=1e-12)
    assert c.grad_z([1.0], [0.5])[0] == pytest.approx(1.0, abs=1e-12)
    assert c.hess_pz([0.5], [0.25])[0, 0] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("build", [
    lambda v: BilinearSurplus(A=[[v]], B=[[0.0]], C=[[0.0]]),
    lambda v: BilinearSurplus(A=[[0.0]], B=[[0.0]], C=[[0.0]], D=[[v]]),
    lambda v: BilinearSurplus(A=[[0.0]], B=[[0.0]], C=[[0.0]], g=[0.0, v]),
    lambda v: CounterexampleSurplus(a=v),
    lambda v: Supermodular1DSurplus(scale=v),
    lambda v: BilinearComponent([[v]]),
    lambda v: BilinearComponent([[1.0]], Dz=[[v]]),
    lambda v: BilinearComponent([[1.0]], h=[v]),
], ids=["A", "D", "g", "a", "scale", "M", "Dz", "h"])
def test_non_finite_coefficients_are_refused(build, bad):
    # inf·0 in a grid evaluation gave NaN cells and numpy warnings before
    # the grid check refused them
    with pytest.raises(ValidationError, match="finite"):
        build(bad)


@pytest.mark.parametrize("nodes", [([0.0, np.nan], [0.0, 1.0]), ([0.0, 1.0], [[0.0, 1.0]])])
def test_both_tabulated_forms_read_nodes_alike(nodes):
    # NaN nodes passed the component's increasing check; the surplus read
    # them (and a 2-D node list) through one rule
    table = [[0.0, 1.0], [1.0, 2.0]]
    with pytest.raises(ValidationError):
        TabulatedComponent(table, *nodes)
    with pytest.raises(ValidationError):
        TabulatedSurplus(np.array(table)[:, :, None], *nodes, [0.0])


@pytest.mark.parametrize("method", ["value", "grad_p", "grad_z", "hess_pz"])
@pytest.mark.parametrize("component", [BilinearComponent([[1.0]]),
                                       BilinearComponent([[1.0, 0.5]]),
                                       TabulatedComponent([[0.0, 1.0]], [0.5], [0.2, 0.4])])
def test_component_points_are_checked_against_dims(component, method):
    dp, dz = component.dims
    p, z = [0.5] * dp, [0.2] * dz
    fn = getattr(component, method)
    fn(p, z)
    for bad_p, bad_z in ((p + [0.7], z), (p, z + [0.7]), ([], z)):
        with pytest.raises(DimensionMismatch):
            fn(bad_p, bad_z)


# --- linear algebra kernels -------------------------------------------------

def test_assemble_G_layout():
    sxy = np.array([[1.0]])
    sxz = np.array([[2.0]])
    syz = np.array([[3.0]])
    G = assemble_G((sxy, sxz, syz))
    expected = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
    np.testing.assert_array_equal(G, expected)


def test_classify_eigenvalues_thresholds():
    n_pos, n_neg, n_zero, thr = classify_eigenvalues([2.0, -1.0, 0.0])
    assert (n_pos, n_neg, n_zero) == (1, 1, 1)
    assert thr == pytest.approx(1e-9 * 2.0)
    # everything under the relative threshold counts as zero
    n_pos, n_neg, n_zero, _ = classify_eigenvalues([1.0, 1e-12, -1e-12])
    assert (n_pos, n_neg, n_zero) == (1, 0, 2)


def test_rank_deficient_block_is_singular():
    # singular at every scale; a tiny but well-conditioned block is not
    rank_one = np.array([[1.0, 2.0], [2.0, 4.0]])
    for scale in (1e-12, 1.0, 1e12):
        tss = check_tss_bilinear(scale * rank_one, np.eye(2), np.eye(2))
        assert tss.verdict == "inconclusive"
        assert "singular" in tss.details["reason"]
        tzss = check_tzss_bilinear(np.eye(2), np.eye(2), scale * rank_one,
                                   -np.eye(2))
        assert (tzss.verdict, tzss.witness["gate"]) == ("fails", "C")
    assert check_tss_bilinear(1e-12 * np.eye(2), np.eye(2),
                              np.eye(2)).verdict == "holds"


# --- signature reports ------------------------------------------------------

def test_signature_counterexample():
    rep = signature(CounterexampleSurplus(0.5), [0.75], [0.25], [0.5])
    np.testing.assert_allclose(rep.eigenvalues, [-2.0, 1.0, 1.0], atol=1e-10)
    assert rep.signature == (2, 1, 0)
    assert rep.dimension_bound == 2
    assert rep.cross_check is not None
    assert rep.cross_check.consistent
    assert (rep.cross_check.r_positive, rep.cross_check.r_negative) == (0, 1)


def test_signature_xyz_monomial():
    rep = signature(Supermodular1DSurplus((1, 1, 1)), [1.0], [1.0], [1.0])
    np.testing.assert_allclose(rep.eigenvalues, [-1.0, -1.0, 2.0], atol=1e-10)
    assert rep.signature == (1, 2, 0)
    assert rep.dimension_bound == 1
    assert rep.cross_check.consistent


def test_signature_expcos_everywhere():
    s = ExpCosSurplus()
    rng = np.random.default_rng(17)
    for _ in range(10):
        x, y, z = rng.uniform(-0.8, 0.8, (3, 2))
        rep = signature(s, x, y, z)
        assert rep.signature == (2, 4, 0)
        assert rep.dimension_bound == 2
        assert rep.cross_check.consistent


@pytest.mark.parametrize("scale", [1e-12, 1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9, 1e12])
def test_signature_and_twist_verdicts_are_scale_free(scale):
    s = BilinearSurplus([[scale]], [[scale]], [[-scale]], D=[[-0.75 * scale]])
    rep = signature(s, [0.5], [0.5], [0.5])
    assert rep.signature == (2, 1, 0)
    assert rep.dimension_bound == 2
    # C^T A^-1 B + B^T A^-T C = -2 scale; K = B - A (C^T)^-1 (D + D^T) = -scale/2
    assert check_tss_bilinear(s.A, s.B, s.C).verdict == "fails"
    assert check_tzss_bilinear(s.A, s.B, s.C, s.D).verdict == "holds"


def test_signature_skips_cross_check_on_singular_block():
    s = BilinearSurplus(A=[[0.0]], B=[[1.0]], C=[[1.0]])
    rep = signature(s, [0.5], [0.5], [0.5])
    assert rep.cross_check is None
    assert "singular" in rep.cross_check_skipped


def test_signature_report_serializes():
    rep = signature(CounterexampleSurplus(0.5), [0.75], [0.25], [0.5])
    d = rep.to_dict()
    assert d["dimension_bound"] == 2
    assert len(d["eigenvalues"]) == 3


def test_expcos_nonpositive_with_equality_set():
    s = ExpCosSurplus()
    rng = np.random.default_rng(23)
    for _ in range(100):
        x, y, z = rng.uniform(-1.0, 1.0, (3, 2))
        assert s.value(x, y, z) <= 1e-12
    for _ in range(20):
        t = rng.uniform(-1.0, 1.0)
        phase = rng.uniform(-3.0, 3.0)
        assert abs(s.value([t, phase], [t, phase], [t, phase])) <= 1e-12
