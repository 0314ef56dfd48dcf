import numpy as np
import pytest

from hedonic_match.core import (
    AXIS_ORDER,
    BadAxes,
    Coupling,
    DimensionMismatch,
    DiscreteMeasure,
    DualPotentials,
    DuplicatePoint,
    GridSpec,
    NegativeWeight,
    ValidationError,
    WeightSumMismatch,
    _fmt,
    coupling_objective,
    measure_from_csv,
    measure_to_csv,
    project,
    validate_measure,
)
from hedonic_match.surplus import CounterexampleSurplus


def test_validate_measure_reshapes_1d_points():
    pts, w = validate_measure([0.0, 1.0], [0.5, 0.5])
    assert pts.shape == (2, 1)
    assert w.shape == (2,)


def test_validate_measure_rejections():
    with pytest.raises(NegativeWeight):
        validate_measure([[0.0], [1.0]], [1.5, -0.5])
    with pytest.raises(WeightSumMismatch):
        validate_measure([[0.0], [1.0]], [0.5, 0.4])
    with pytest.raises(DuplicatePoint):
        validate_measure([[0.25], [0.25]], [0.5, 0.5])
    with pytest.raises(ValidationError):
        validate_measure([[np.inf]], [1.0])
    with pytest.raises(DimensionMismatch):
        validate_measure([[0.0], [1.0]], [1.0])


def test_uniform_measure():
    m = DiscreteMeasure.uniform([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5]])
    assert m.size == 3 and m.dim == 2
    assert np.all(m.weights == m.weights[0])


def test_gridspec_points_and_step():
    g = GridSpec(0.0, 1.0, 5)
    assert g.step == 0.25
    assert g.points().shape == (5, 1)
    np.testing.assert_array_equal(g.points()[:, 0], [0.0, 0.25, 0.5, 0.75, 1.0])


def test_gridspec_single_point():
    g = GridSpec(0.3, 0.3, 1)
    np.testing.assert_array_equal(g.points(), [[0.3]])
    assert g.step == 0.0


def test_gridspec_rejects_bad_ranges():
    with pytest.raises(ValidationError):
        GridSpec(1.0, 0.0, 5)
    with pytest.raises(ValidationError):
        GridSpec(0.0, 1.0, 0)


def test_dyadic_grid_is_exact():
    # step 1/16 grids must land on exact dyadic floats: the counterexample
    # fixtures rely on x - y hitting the Z grid with zero rounding error
    xs = GridSpec(0.5, 1.0, 9).points()[:, 0]
    for i, x in enumerate(xs):
        assert x == (8 + i) / 16.0


def test_dual_potentials_validation():
    DualPotentials(np.zeros(3), np.ones(2))
    with pytest.raises(ValidationError):
        DualPotentials(np.array([np.nan]), np.zeros(1))


def _tiny_coupling():
    mu = DiscreteMeasure.uniform([[0.0], [1.0]])
    nu = DiscreteMeasure.uniform([[0.5], [1.5]])
    zp = np.array([[0.25], [0.75]])
    idx = [(1, 0, 1), (0, 1, 0)]
    masses = [0.5, 0.5]
    return Coupling(np.array(idx), np.array(masses), mu, nu, z_points=zp)


def test_coupling_canonical_order_and_arity():
    c = _tiny_coupling()
    assert c.arity == 3
    np.testing.assert_array_equal(c.indices, [[0, 1, 0], [1, 0, 1]])
    assert c.total_mass == 1.0


def test_coupling_drops_zero_mass_entries():
    mu = DiscreteMeasure.uniform([[0.0], [1.0]])
    nu = DiscreteMeasure.uniform([[0.5], [1.5]])
    c = Coupling(np.array([(0, 0), (0, 1), (1, 1)]),
                 np.array([0.5, 0.0, 0.5]), mu, nu)
    assert c.indices.shape == (2, 2)


def test_coupling_rejects_bad_entries():
    mu = DiscreteMeasure.uniform([[0.0], [1.0]])
    nu = DiscreteMeasure.uniform([[0.5], [1.5]])
    with pytest.raises(NegativeWeight):
        Coupling(np.array([(0, 0), (1, 1)]), np.array([0.6, -0.1]), mu, nu)
    with pytest.raises(DuplicatePoint):
        Coupling(np.array([(0, 0), (0, 0)]), np.array([0.5, 0.5]), mu, nu)
    with pytest.raises(ValidationError):
        # marginals are off: row 0 holds all the mass
        Coupling(np.array([(0, 0), (0, 1)]), np.array([0.5, 0.5]), mu, nu)
    with pytest.raises(ValidationError):
        # arity 3 needs z points
        Coupling(np.array([(0, 0, 0), (1, 1, 0)]), np.array([0.5, 0.5]), mu, nu)


def test_coupling_marginal_weights():
    c = _tiny_coupling()
    np.testing.assert_allclose(c.marginal_weights("x"), [0.5, 0.5])
    np.testing.assert_allclose(c.marginal_weights("z"), [0.5, 0.5])
    with pytest.raises(BadAxes):
        c.marginal_weights("w")


def test_project_to_measure_and_pair():
    c = _tiny_coupling()
    alpha = project(c, "z")
    assert isinstance(alpha, DiscreteMeasure)
    np.testing.assert_allclose(alpha.weights, [0.5, 0.5])
    xy = project(c, "xy")
    assert xy.arity == 2
    np.testing.assert_array_equal(xy.indices, [[0, 1], [1, 0]])
    with pytest.raises(BadAxes):
        project(c, "xyz")  # not a proper subset


def test_coupling_dict_round_trip():
    c = _tiny_coupling()
    d = c.to_dict()
    assert d["arity"] == 3
    back = Coupling.from_dict(d, c.mu, c.nu, z_points=c.z_points)
    np.testing.assert_array_equal(back.indices, c.indices)
    np.testing.assert_array_equal(back.masses, c.masses)


@pytest.mark.parametrize("bad", [1.7, True, "1", float("nan"), float("inf")])
def test_coupling_from_dict_rejects_non_integral_indices(bad):
    c = _tiny_coupling()
    d = c.to_dict()
    d["entries"][1]["i"] = bad
    with pytest.raises(ValidationError, match="malformed coupling entry") as info:
        Coupling.from_dict(d, c.mu, c.nu, z_points=c.z_points)
    assert repr(bad) in str(info.value)
    d["entries"][1]["i"] = 1.0  # an integral float is an index
    back = Coupling.from_dict(d, c.mu, c.nu, z_points=c.z_points)
    np.testing.assert_array_equal(back.indices, c.indices)


@pytest.mark.parametrize("bad", [2.9, True, "2", None, float("nan"), float("inf")])
def test_coupling_from_dict_rejects_a_non_integral_arity(bad):
    c = _tiny_coupling()
    d = c.to_dict()
    d["arity"] = bad
    with pytest.raises(ValidationError, match="arity") as info:
        Coupling.from_dict(d, c.mu, c.nu, z_points=c.z_points)
    assert repr(bad) in str(info.value)
    d["arity"] = 3.0  # an integral float is an arity
    assert Coupling.from_dict(d, c.mu, c.nu, z_points=c.z_points).arity == 3


def test_coupling_objective_matches_manual_sum():
    c = _tiny_coupling()
    s = CounterexampleSurplus(0.5)
    manual = sum(w * s.value(c.mu.points[i], c.nu.points[j], c.z_points[k])
                 for (i, j, k), w in zip(c.indices, c.masses))
    assert coupling_objective(c, s) == pytest.approx(manual, abs=1e-15)


def test_coupling_objective_arity2_uses_reward_matrix():
    mu = DiscreteMeasure.uniform([[0.0], [1.0]])
    nu = DiscreteMeasure.uniform([[0.5], [1.5]])
    c = Coupling(np.array([(0, 0), (1, 1)]), np.array([0.5, 0.5]), mu, nu)
    reward = np.array([[1.0, 0.0], [0.0, 3.0]])
    assert coupling_objective(c, reward) == pytest.approx(2.0)


def test_coupling_objective_bits_do_not_depend_on_labels():
    # a coupling keeps its entries in label order, so only a correctly
    # rounded sum gives the same bits under every labelling
    rng = np.random.default_rng(0)
    for _ in range(40):
        n = int(rng.integers(5, 41))
        reward = 10.0 ** rng.uniform(-3.0, 3.0) * rng.uniform(size=(n, n))
        sigma, pr, pc = rng.permutation(n), rng.permutation(n), rng.permutation(n)
        mu = DiscreteMeasure.uniform(np.arange(n, dtype=float)[:, None])
        c = Coupling(np.column_stack([np.arange(n), sigma]), mu.weights, mu, mu)
        # row pr[a] is now row a and column pc[b] column b
        moved = Coupling(np.column_stack([np.argsort(pr), np.argsort(pc)[sigma]]),
                         mu.weights, mu, mu)
        assert coupling_objective(moved, reward[pr][:, pc]) == coupling_objective(c, reward)


def test_measure_csv_round_trip(tmp_path):
    m = DiscreteMeasure(np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]]),
                        np.array([0.2, 0.3, 0.5]))
    path = tmp_path / "m.csv"
    measure_to_csv(m, path)
    back = measure_from_csv(path)
    np.testing.assert_array_equal(back.points, m.points)
    np.testing.assert_array_equal(back.weights, m.weights)


def test_measure_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValidationError):
        measure_from_csv(path)


def test_fmt_uses_17_significant_digits():
    assert _fmt(0.1) == "0.10000000000000001"
    assert _fmt(1.0) == "1"
    assert float(_fmt(1.0 / 3.0)) == 1.0 / 3.0


def test_axis_order_constant():
    assert AXIS_ORDER == "xyz"
