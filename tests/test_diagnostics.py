import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hedonic_match import diagnostics, reduction, surplus
from hedonic_match.clusters import gradient_clusters
from hedonic_match.core import (
    Coupling,
    DiscreteMeasure,
    DualPotentials,
    GridSpec,
    ValidationError,
    coupling_objective,
    grid_scale,
)
from hedonic_match.diagnostics import (
    STABILITY_TOL,
    DegenerateCross,
    NotSeparable,
    SizeMismatch,
    TooFewPoints,
    TwistReport,
    check_compatibility_1d,
    check_purity,
    check_strictly_hedonic,
    check_tss_bilinear,
    check_tzss_bilinear,
    compute_prices,
    sample_splitting_sets,
    support_dimension,
    verify_stability,
)
from hedonic_match.instances import (
    counterexample_instance,
    counterexample_plane_coupling,
    random_instance,
)
from hedonic_match.reduction import reduce
from hedonic_match.serialize import dumps_json
from hedonic_match.solver import solve_hybrid
from hedonic_match.surplus import (
    SurplusModel,
    BilinearComponent,
    BilinearSurplus,
    CounterexampleSurplus,
    MissingUV,
    StrictlyHedonicSurplus,
    Supermodular1DSurplus,
    TabulatedComponent,
    TabulatedSurplus,
)


@pytest.fixture(scope="module")
def plane():
    return counterexample_instance()


# --- stability --------------------------------------------------------------

def test_plane_coupling_is_exactly_stable(plane):
    rep = verify_stability(plane.surplus, plane.coupling, plane.potentials)
    assert rep.stable
    assert rep.max_grid_residual == 0.0
    assert rep.max_support_residual == 0.0


def test_zero_potentials_are_unstable(plane):
    zeros = DualPotentials(np.zeros(plane.mu.size), np.zeros(plane.nu.size))
    rep = verify_stability(plane.surplus, plane.coupling, zeros)
    assert not rep.stable
    assert rep.max_grid_residual > 0.1
    wi, wj, wk = rep.worst_triple["indices"]
    x, y = plane.mu.points[wi], plane.nu.points[wj]
    z = plane.z_points[wk]
    assert plane.surplus.value(x, y, z) == pytest.approx(
        rep.max_grid_residual)


def test_suboptimal_coupling_fails_support_check(plane):
    # optimal duals against an off-plane coupling: the grid inequality still
    # holds but support equality breaks — stability really is optimality
    nx = plane.mu.size
    entries = [(i, (i + 1) % nx, 0, plane.mu.weights[i]) for i in range(nx)]
    off = Coupling.from_entries(entries, plane.mu, plane.nu,
                                z_points=plane.z_points)
    rep = verify_stability(plane.surplus, off, plane.potentials)
    assert not rep.stable
    assert rep.max_grid_residual <= 1e-12
    assert rep.max_support_residual > 1e-3


def test_stability_arity2_reward_matrix():
    mu = DiscreteMeasure.uniform([[0.0], [1.0]])
    nu = DiscreteMeasure.uniform([[0.0], [1.0]])
    reward = np.array([[1.0, 0.0], [0.0, 1.0]])
    pair = Coupling.from_entries([(0, 0, 0.5), (1, 1, 0.5)], mu, nu)
    good = verify_stability(reward, pair, DualPotentials([0.5, 0.5], [0.5, 0.5]))
    assert good.stable
    bad = verify_stability(reward, pair, DualPotentials([0.0, 0.0], [0.0, 0.0]))
    assert not bad.stable


def test_stability_size_checks(plane):
    with pytest.raises(SizeMismatch):
        verify_stability(plane.surplus, plane.coupling,
                         DualPotentials(np.zeros(3), np.zeros(plane.nu.size)))
    with pytest.raises(SizeMismatch):
        verify_stability(plane.surplus, plane.coupling, plane.potentials,
                         z_potential=np.zeros(4))


def test_stability_with_z_potential(plane):
    # W ≡ 0 reproduces the fixed-alpha reading of the same inequality
    rep = verify_stability(plane.surplus, plane.coupling, plane.potentials,
                           z_potential=np.zeros(plane.z_points.shape[0]))
    assert rep.stable
    assert rep.max_grid_residual == 0.0


# --- purity -----------------------------------------------------------------

def test_product_plane_coupling_is_impure(plane):
    rep = check_purity(plane.coupling)
    assert not rep.pure
    assert not rep.buyer_seller_pure
    assert not rep.buyer_good_pure
    assert all(v == {"y": 9, "z": 9, "yz": 9} for v in rep.fan_out.values())
    assert rep.F_Y == {}


def test_comonotone_plane_lift_is_pure(plane):
    como = counterexample_plane_coupling(plane.mu, plane.nu, plane.z_points,
                                         mode="comonotone")
    rep = check_purity(como)
    assert rep.pure
    assert rep.buyer_seller_pure
    assert rep.buyer_good_pure
    assert rep.F_Y == {i: i for i in range(9)}
    # x_i = (8+i)/16 matches y_i = i/16 through z = x - y = 1/2 exactly
    assert rep.F_Z == {i: 8 for i in range(9)}


def test_purity_threshold_ignores_dust(monkeypatch):
    mu = DiscreteMeasure.uniform([[0.0], [1.0]])
    nu = DiscreteMeasure.uniform([[0.0], [1.0]])
    z = np.array([[0.0], [1.0]])
    dust = 5e-13
    entries = [(0, 0, 0, 0.5 - dust), (0, 1, 1, dust),
               (1, 1, 1, 0.5)]
    c = Coupling.from_entries(entries, mu, nu, z_points=z,
                              marginal_tol=1e-9)
    assert check_purity(c).pure  # the threshold 1e-12 drops the dust
    monkeypatch.setattr(diagnostics, "MASS_THRESHOLD", 0.0)
    assert not check_purity(c).pure


def test_purity_needs_arity3():
    mu = DiscreteMeasure.uniform([[0.0], [1.0]])
    pair = Coupling.from_entries([(0, 0, 0.5), (1, 1, 0.5)], mu, mu)
    with pytest.raises(ValidationError):
        check_purity(pair)


def test_purity_passes_warnings_through(plane):
    rep = check_purity(plane.coupling, warnings=("tie somewhere",))
    assert rep.warnings == ("tie somewhere",)
    assert rep.to_dict()["warnings"] == ["tie somewhere"]


def test_conditional_purity_buyer_good_only():
    # one buyer splits across sellers but always takes the same good
    mu = DiscreteMeasure.uniform([[0.0], [1.0]])
    nu = DiscreteMeasure.uniform([[0.0], [1.0]])
    z = np.array([[0.5]])
    entries = [(0, 0, 0, 0.25), (0, 1, 0, 0.25), (1, 0, 0, 0.25),
               (1, 1, 0, 0.25)]
    c = Coupling.from_entries(entries, mu, nu, z_points=z)
    rep = check_purity(c)
    assert rep.buyer_good_pure
    assert not rep.buyer_seller_pure
    assert not rep.pure
    assert rep.F_Z == {0: 0, 1: 0}


# --- prices -----------------------------------------------------------------

def test_plane_prices_exact(plane):
    table = compute_prices(plane.surplus, plane.coupling, plane.potentials)
    assert table.max_discrepancy == 0.0
    for row in table.rows:
        x = plane.mu.points[row["i"], 0]
        assert row["p_buyer"] == 0.5 * x * x
        assert row["p_buyer"] == row["p_seller"]


def test_price_at_named_support_point(plane):
    # x = 3/4 buys z = 1/2 from y = 1/4: p = u(x,z) - U(x) with
    # u = xy + xz = 3/16 + 3/8 and U = 9/32, so p = 9/32... read off the table
    table = compute_prices(plane.surplus, plane.coupling, plane.potentials)
    x_target = np.flatnonzero(plane.mu.points[:, 0] == 0.75)[0]
    y_target = np.flatnonzero(plane.nu.points[:, 0] == 0.25)[0]
    hits = [r for r in table.rows if r["i"] == x_target and r["j"] == y_target]
    assert len(hits) == 1
    # u(x, y, z) = xy + xz at (3/4, 1/4, 1/2) is 9/16; U(x) = 9/32
    assert hits[0]["p_buyer"] == 9.0 / 16.0 - 9.0 / 32.0


def test_prices_with_u_equal_s():
    # all of s on the buyer side, v ≡ 0: the price must equal V on support
    u = BilinearComponent([[1.0]], Dz=[[-1.0]])
    v = BilinearComponent([[0.0]])
    s = StrictlyHedonicSurplus(u, v)
    mu = DiscreteMeasure.uniform([[0.25], [0.75]])
    nu = DiscreteMeasure.uniform([[0.25], [0.75]])
    zs = GridSpec(0.0, 0.5, 5).points()
    res = solve_hybrid(s, mu, nu, zs, method="direct_lp")
    table = compute_prices(s, res.coupling, res.potentials)
    assert table.max_discrepancy <= 1e-9
    for row in table.rows:
        assert row["p_seller"] == pytest.approx(
            float(res.potentials.V[row["j"]]), abs=1e-12)


@pytest.mark.parametrize("c", [1e-12, 1e-8, 1e-4, 1.0, 1e4, 1e8, 1e12])
def test_price_tolerance_is_scale_free(c):
    # with an absolute tol of 1e-8 this solve's discrepancy of 1.1e-8 at
    # c = 1e8 read above it, and at c = 1e-12 the tol was 1e16 times the prices
    def model(c):
        return StrictlyHedonicSurplus(
            BilinearComponent([[c]], Dz=[[-c]], h=[0.0, 0.3 * c]),
            BilinearComponent([[0.8 * c]], h=[0.0, 0.2 * c]))

    rng = np.random.default_rng(0)
    mu, nu = (DiscreteMeasure.uniform(np.sort(rng.uniform(size=(20, 1)), axis=0))
              for _ in range(2))
    zs = GridSpec(0.0, 1.0, 7).points()
    res = solve_hybrid(model(c), mu, nu, zs, method="direct_lp")
    table = compute_prices(model(c), res.coupling, res.potentials)
    assert table.max_discrepancy <= table.tol
    i, j, k = res.coupling.indices.T
    unit = model(1.0).value_batch(mu.points[i], nu.points[j], zs[k])
    assert table.tol == pytest.approx(1e-8 * c * float(np.ptp(unit)), rel=1e-6)


def test_prices_need_uv(plane):
    with pytest.raises(MissingUV):
        compute_prices(Supermodular1DSurplus(), plane.coupling,
                       plane.potentials)


def _prices_by_triple(s, coupling, potentials) -> dict:
    """The price table from the scalar value_u and value_v, one support
    triple at a time."""
    i, j, k = coupling.indices.T
    scale = grid_scale(s.value_batch(coupling.mu.points[i], coupling.nu.points[j],
                                     coupling.z_points[k]))
    rows, worst = [], 0.0
    for (i, j, k), w in zip(coupling.indices.tolist(), coupling.masses.tolist()):
        x, y, z = coupling.mu.points[i], coupling.nu.points[j], coupling.z_points[k]
        p_buyer = s.value_u(x, y, z) - float(potentials.U[i])
        p_seller = float(potentials.V[j]) - s.value_v(x, y, z)
        diff = abs(p_buyer - p_seller)
        worst = max(worst, diff)
        rows.append({"i": i, "j": j, "k": k, "mass": w, "p_buyer": p_buyer,
                     "p_seller": p_seller, "diff": diff})
    return {"rows": rows, "max_discrepancy": worst, "tol": STABILITY_TOL * scale}


def _counterexample_solve():
    # a > 1/2 on a lattice, goods at step 1/(2a) of it: interior goods
    s = CounterexampleSurplus(0.8)
    rng = np.random.default_rng(4)
    mu, nu = (DiscreteMeasure.uniform(np.sort(rng.choice(40, 12, replace=False))[:, None]
                                      / 40.0) for _ in range(2))
    zs = np.arange(17)[:, None] / (40.0 * 1.6)
    res = solve_hybrid(s, mu, nu, zs, method="reduce_lift")
    return s, res.coupling, res.potentials


def _tabulated_hedonic_solve():
    p_nodes = np.linspace(0.0, 1.0, 6)
    z_nodes = np.linspace(0.0, 1.0, 7)
    u = TabulatedComponent(np.outer(p_nodes, z_nodes) - 0.6 * z_nodes ** 2,
                           p_nodes, z_nodes)
    s = StrictlyHedonicSurplus(u, BilinearComponent([[0.7]], h=[0.0, 0.1]))
    mu = DiscreteMeasure.uniform(p_nodes[:, None])
    nu = DiscreteMeasure.uniform(np.linspace(0.1, 0.9, 6)[:, None])
    res = solve_hybrid(s, mu, nu, z_nodes[:, None])
    return s, res.coupling, res.potentials


@pytest.mark.parametrize("case", ["plane", "counterexample", "tabulated"])
def test_prices_match_the_scalar_split_triple_by_triple(plane, case):
    if case == "plane":
        s, coupling, potentials = plane.surplus, plane.coupling, plane.potentials
    elif case == "counterexample":
        s, coupling, potentials = _counterexample_solve()
    else:
        s, coupling, potentials = _tabulated_hedonic_solve()
    table = compute_prices(s, coupling, potentials).to_dict()
    reference = _prices_by_triple(s, coupling, potentials)
    assert len(reference["rows"]) == coupling.masses.size > 1
    assert table == reference
    assert dumps_json(table) == dumps_json(reference)


# --- twist reports ----------------------------------------------------------

def test_twist_report_verdict_validation():
    with pytest.raises(ValidationError):
        TwistReport(criterion="x", verdict="maybe", witness=None, details={})
    with pytest.raises(ValidationError):
        TwistReport(criterion="x", verdict="fails", witness=None, details={})


def test_compatibility_xyz_holds():
    s = Supermodular1DSurplus((1, 1, 1))
    pts = [([0.5], [0.5], [0.5]), ([1.0], [2.0], [0.5])]
    rep = check_compatibility_1d(s, pts)
    assert rep.verdict == "holds"
    assert rep.criterion == "compatibility"


def test_compatibility_counterexample_fails(plane):
    pts = [([0.75], [0.25], [0.5])]
    rep = check_compatibility_1d(plane.surplus, pts)
    assert rep.verdict == "fails"
    # s_xy = 1, s_xz = 1, s_yz = -1: the product is -1
    assert rep.witness["product"] == -1.0


def test_compatibility_degenerate_cross():
    s = BilinearSurplus(A=[[1.0]], B=[[1.0]], C=[[0.0]])  # s_yz ≡ 0
    with pytest.raises(DegenerateCross):
        check_compatibility_1d(s, [([0.5], [0.5], [0.5])])


def test_compatibility_first_bad_point_decides():
    # s = xyz: s_xy = z, s_xz = y, s_yz = x, so x = 0 is degenerate and
    # y < 0 fails; whichever comes first decides the outcome
    s = Supermodular1DSurplus((1, 1, 1))
    good = ([1.0], [1.0], [1.0])
    failing = ([1.0], [-2.0], [1.0])
    degenerate = ([0.0], [1.0], [1.0])
    rep = check_compatibility_1d(s, [good, failing, degenerate])
    assert rep.verdict == "fails"
    assert rep.witness == {"point": [1.0, -2.0, 1.0], "product": -2.0}
    assert rep.details == {"n_samples": 3}
    with pytest.raises(DegenerateCross):
        check_compatibility_1d(s, [good, degenerate, failing])


def test_compatibility_zero_product_fails():
    # s = xy + yz has s_xz ≡ 0: the product is 0, not strictly positive
    s = BilinearSurplus(A=[[1.0]], B=[[0.0]], C=[[1.0]])
    rep = check_compatibility_1d(s, [([0.5], [0.5], [0.5])])
    assert rep.verdict == "fails"
    assert rep.witness["product"] == 0.0


def test_tss_identity_holds():
    rep = check_tss_bilinear(np.eye(2), np.eye(2), np.eye(2))
    assert rep.verdict == "holds"


def test_tss_sign_flip_fails():
    rep = check_tss_bilinear(np.eye(1), [[1.0]], [[-1.0]])
    assert rep.verdict == "fails"
    assert rep.witness is not None


def test_tss_singular_A_inconclusive():
    rep = check_tss_bilinear([[0.0]], [[1.0]], [[1.0]])
    assert rep.verdict == "inconclusive"
    rect = check_tss_bilinear(np.ones((1, 2)), np.ones((1, 1)), np.ones((2, 1)))
    assert rect.verdict == "inconclusive"


def test_tzss_textbook_holds():
    rep = check_tzss_bilinear(np.zeros((1, 1)), np.eye(1), np.eye(1),
                              -np.eye(1))
    assert rep.verdict == "holds"
    assert rep.details["criterion_value"] == pytest.approx(1.0)


def test_tzss_gate_C_singular_fails():
    rep = check_tzss_bilinear(np.eye(1), np.eye(1), [[0.0]], -np.eye(1))
    assert rep.verdict == "fails"
    assert rep.witness["gate"] == "C"


def test_tzss_gate_D_not_definite_fails():
    rep = check_tzss_bilinear(np.eye(1), np.eye(1), np.eye(1),
                              np.zeros((1, 1)))
    assert rep.verdict == "fails"
    assert rep.witness["gate"] == "D+D^T"


def test_tzss_family_values_exact():
    # K = B - A (C^T)^{-1} (D + D^T) = 1 - 2a on the one-parameter family
    for a, expect in ((0.25, 0.5), (0.5, 0.0), (1.0, -1.0)):
        blocks = CounterexampleSurplus(a).tzss_blocks()
        rep = check_tzss_bilinear(*blocks)
        assert rep.details["criterion_value"] == 1.0 - 2.0 * a
        assert rep.details["criterion_value"] == expect
        # nonsingularity of K: fails exactly where the matching multiplies
        assert rep.verdict == ("fails" if a == 0.5 else "holds")
    half = check_tzss_bilinear(*CounterexampleSurplus(0.5).tzss_blocks())
    assert half.witness["gate"] == "criterion"


# --- splitting-set sampling -------------------------------------------------

def test_splitting_sets_detect_fat_argmax_at_half(plane):
    V = 0.5 * plane.nu.points[:, 0] ** 2
    samples, rep = sample_splitting_sets(plane.surplus, plane.mu.points, V,
                                         plane.nu.points, plane.z_points)
    assert rep.criterion == "TzSS-sampled"
    assert rep.verdict == "fails"
    # at a = 1/2 every (y, x - y) on the plane is an argmax member: fat sets
    assert all(s.size == 9 for s in samples)
    # the gradients y + z = x all agree, so one cluster holds the whole set
    assert rep.details["cluster_sizes"][0] == [9]
    assert rep.witness is not None


def test_splitting_sets_singletons_at_a_1(plane):
    s1 = CounterexampleSurplus(1.0)
    V = 0.5 * plane.nu.points[:, 0] ** 2
    samples, rep = sample_splitting_sets(s1, plane.mu.points, V,
                                         plane.nu.points, plane.z_points)
    assert rep.verdict == "holds"
    # members can tie in value across distinct z, but their buyer gradients
    # y + z differ, so every cluster is a singleton
    assert all(size == 1 for sizes in rep.details["cluster_sizes"]
               for size in sizes)


def test_splitting_members_attain_slice_max(plane):
    V = 0.5 * plane.nu.points[:, 0] ** 2
    samples, _ = sample_splitting_sets(plane.surplus, plane.mu.points, V,
                                       plane.nu.points, plane.z_points)
    for sample in samples:
        grid = plane.surplus.value_grid(sample.x[None, :], plane.nu.points,
                                        plane.z_points)[0]
        delta = grid - V[:, None]
        assert sample.shift == delta.max()
        for (j, k) in sample.member_indices:
            assert delta[j, k] >= sample.shift - sample.tol


def test_splitting_V_length_check(plane):
    with pytest.raises(SizeMismatch):
        sample_splitting_sets(plane.surplus, plane.mu.points, np.zeros(4),
                              plane.nu.points, plane.z_points)


def test_splitting_sets_match_a_per_slice_reference():
    # a reference that takes one slice and one member at a time
    for seed, family in enumerate(("supermodular", "counterexample", "bilinear",
                                   "expcos")):
        inst = random_instance(seed, n=8, nz=5, family=family)
        s, X, Y, Z = inst.surplus, inst.mu.points, inst.nu.points, inst.z_points
        V = solve_hybrid(s, inst.mu, inst.nu, Z).potentials.V
        samples, _ = sample_splitting_sets(s, X, V, Y, Z)
        for ix, sample in enumerate(samples):
            delta = np.array([[s.value(X[ix], y, z) - V[j] for z in Z]
                              for j, y in enumerate(Y)])
            shift = float(np.max(delta))
            members = np.argwhere(delta >= shift - sample.tol)
            assert sample.shift == shift
            assert sample.member_indices == tuple(map(tuple, members.tolist()))
            for (j, k), g in zip(sample.member_indices, sample.gradients):
                assert g.tobytes() == s.grad_x(X[ix], Y[j], Z[k]).tobytes()


def _closure_by_brute_force(grads, tol):
    n = len(grads)
    near = [[float(np.max(np.abs(grads[a] - grads[b]))) <= tol for b in range(n)]
            for a in range(n)]
    label = list(range(n))
    changed = True
    while changed:
        changed = False
        for a in range(n):
            for b in range(n):
                if near[a][b] and label[b] > label[a]:
                    label[b] = label[a]
                    changed = True
    groups = {}
    for a in range(n):
        groups.setdefault(label[a], []).append(a)
    return [groups[r] for r in sorted(groups)]


def _clusters_of_one_slice(grads, tol):
    # gradient_clusters on one slice, as lists of rows in label order
    label = gradient_clusters(np.asarray(grads, dtype=float), [0, len(grads)], [tol])
    return [np.flatnonzero(label == c).tolist() for c in range(label.max() + 1)]


def test_gradient_clusters_are_the_transitive_closure():
    # a ~ b and b ~ c but a !~ c: all three share one cluster
    chained = np.array([[0.0], [0.6], [1.2], [5.0]])
    assert _clusters_of_one_slice(chained, 0.7) == [[0, 1, 2], [3]]
    rng = np.random.default_rng(8)
    for _ in range(40):
        n, d = rng.integers(1, 30), rng.integers(1, 3)
        grads = rng.integers(0, 6, (n, d)) * 0.5
        tol = float(rng.choice([0.0, 0.5, 1.0]))
        assert _clusters_of_one_slice(grads, tol) == _closure_by_brute_force(grads, tol)


@settings(max_examples=200, deadline=None)
@given(d=st.sampled_from([1, 2]), data=st.data(),
       tol=st.sampled_from([0.0, 0.5, 1.0, 1.5]))
def test_gradient_clusters_match_the_closure_at_the_tolerance(d, data, tol):
    # half-integer gradients put many distances exactly at tol
    rows = data.draw(st.lists(st.lists(st.integers(0, 6), min_size=d, max_size=d),
                              min_size=1, max_size=40))
    grads = np.array(rows, dtype=float) * 0.5
    assert _clusters_of_one_slice(grads, tol) == _closure_by_brute_force(grads, tol)


@settings(max_examples=200, deadline=None)
@given(d=st.sampled_from([1, 2]), data=st.data())
def test_gradient_clusters_of_many_slices_match_the_closure(d, data):
    # slices of 0-12 rows in lockstep, each with its own tolerance, and
    # half-integer gradients that put many distances exactly at it
    sizes = data.draw(st.lists(st.integers(0, 12), min_size=1, max_size=8))
    tols = data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5]),
                              min_size=len(sizes), max_size=len(sizes)))
    rows = data.draw(st.lists(st.lists(st.integers(0, 6), min_size=d, max_size=d),
                              min_size=sum(sizes), max_size=sum(sizes)))
    grads = np.array(rows, dtype=float).reshape(-1, d) * 0.5
    bounds = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
    expect = []
    for lo, hi, tol in zip(bounds, bounds[1:], tols):
        if hi > lo:
            expect += [[lo + a for a in cluster]
                       for cluster in _closure_by_brute_force(grads[lo:hi], tol)]
    label = gradient_clusters(grads, bounds, tols)
    assert label.size == sum(sizes)
    assert [np.flatnonzero(label == c).tolist() for c in range(len(expect))] == expect
    assert np.all(label < len(expect))


# --- strictly hedonic -------------------------------------------------------

def test_strictly_hedonic_holds_on_interior_model():
    u = BilinearComponent([[1.0]], Dz=[[-1.0]])   # u = xz - z²
    v = BilinearComponent([[1.0]])                # v = yz
    xs = GridSpec(0.25, 0.75, 3).points()
    ys = GridSpec(0.25, 0.75, 3).points()
    zs = GridSpec(0.0, 1.0, 9).points()
    rep = check_strictly_hedonic(u, v, xs, ys, zs)
    assert rep.criterion == "strictly-hedonic"
    assert rep.verdict == "holds"


def test_strictly_hedonic_u_collision_fails():
    # u = x z² on symmetric Z: D_x u = z² collides at z = ±t
    z_nodes = np.array([-0.5, -0.25, 0.0, 0.25, 0.5])
    p_nodes = np.array([0.25, 0.5, 0.75])
    table = p_nodes[:, None] * z_nodes[None, :] ** 2
    u = TabulatedComponent(table, p_nodes, z_nodes)
    v = BilinearComponent([[1.0]], Dz=[[-1.0]])
    rep = check_strictly_hedonic(u, v, p_nodes[:, None], p_nodes[:, None],
                                 z_nodes[:, None])
    assert rep.verdict == "fails"
    assert rep.witness["side"] == "u"


def test_strictly_hedonic_v_collision_fails():
    # v = y² z on a sign-symmetric seller grid: D_z v = y² collides at ±y
    y_nodes = np.array([-0.5, 0.0, 0.5])
    z_nodes = np.array([0.0, 0.25, 0.5])
    table = (y_nodes[:, None] ** 2) * z_nodes[None, :]
    v = TabulatedComponent(table, y_nodes, z_nodes)
    u = BilinearComponent([[1.0]], Dz=[[-1.0]])
    rep = check_strictly_hedonic(u, v, y_nodes[:, None], y_nodes[:, None],
                                 z_nodes[:, None])
    assert rep.verdict == "fails"
    assert rep.witness["side"] == "v"


def test_strictly_hedonic_boundary_argmax_inconclusive():
    # u + v monotone in z: every slice argmax pins to the grid edge
    u = BilinearComponent([[1.0]])
    v = BilinearComponent([[1.0]])
    xs = GridSpec(0.25, 0.75, 3).points()
    zs = GridSpec(0.0, 1.0, 5).points()
    rep = check_strictly_hedonic(u, v, xs, xs, zs)
    assert rep.verdict == "inconclusive"


def test_strictly_hedonic_reads_a_given_reduction():
    u = BilinearComponent([[1.0]])
    v = BilinearComponent([[1.0]])
    xs = GridSpec(0.25, 0.75, 3).points()
    zs = GridSpec(0.0, 1.0, 5).points()
    s = StrictlyHedonicSurplus(u, v)
    rep = check_strictly_hedonic(u, v, xs, xs, zs)
    given = check_strictly_hedonic(u, v, xs, xs, zs, reduced=reduce(s, xs, xs, zs))
    assert given.to_dict() == rep.to_dict()
    with pytest.raises(SizeMismatch):
        check_strictly_hedonic(u, v, xs, xs, zs, reduced=reduce(s, xs[:-1], xs, zs))



def _first_collision_by_loop(grads, tol):
    for slot, row in enumerate(grads):
        for a in range(len(row)):
            close = diagnostics._close_after(row, a, tol)
            if close.size:
                return slot, a, int(close[0])
    return None


@pytest.mark.parametrize("seed", range(40))
def test_first_collision_matches_the_loop(seed):
    # few distinct values, so ties and chains are common; NaN never collides
    rng = np.random.default_rng(seed)
    for _ in range(25):
        shape = (rng.integers(0, 6), rng.integers(0, 7), rng.integers(1, 4))
        grads = rng.integers(0, 4, size=shape) + rng.choice([0.0, 0.25, 1e-12], size=shape)
        grads[rng.random(shape) < 0.1] = np.nan
        tol = float(rng.choice([0.0, 0.3, 1.0]))
        assert diagnostics._first_collision(grads, tol) == _first_collision_by_loop(grads, tol)


@pytest.mark.parametrize("check", ["stability", "splitting", "strictly_hedonic"])
def test_diagnostics_without_a_reduction_refuse_before_allocating(monkeypatch, check):
    # the reduction of 1,500 x 1,500 pairs over 3 goods needs over 100 MiB; a
    # limit one byte under reduce()'s estimate is met before any of it
    n, nz = 1500, 3
    xs = np.linspace(0.25, 0.75, n)[:, None]
    zs = np.linspace(0.0, 1.0, nz)[:, None]
    u = BilinearComponent([[1.0]], Dz=[[-1.0]])  # D_x u = z, D_z v = y: no collision
    v = BilinearComponent([[1.0]])
    s = StrictlyHedonicSurplus(u, v)
    mu = DiscreteMeasure.uniform(xs)
    diagonal = Coupling(np.column_stack([np.arange(n), np.arange(n), np.zeros(n, int)]),
                        np.full(n, 1.0 / n), mu, mu, z_points=zs)
    zero = np.zeros(n)
    run = {
        "stability": lambda: verify_stability(s, diagonal, DualPotentials(zero, zero)),
        "splitting": lambda: sample_splitting_sets(s, xs, zero, xs, zs),
        "strictly_hedonic": lambda: check_strictly_hedonic(u, v, xs, xs, zs),
    }[check]
    need = reduction._reduce_bytes(n, n, nz)
    monkeypatch.setattr(reduction, "LP_BYTES_LIMIT", need - 1)
    tracemalloc.start()
    try:
        with pytest.raises(reduction.TooLarge, match="MiB"):
            run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < need // 100

def test_strictly_hedonic_component_pair_and_full_model_agree():
    z_nodes = np.array([-0.5, -0.25, 0.0, 0.25, 0.5])
    p_nodes = np.array([0.25, 0.5, 0.75])
    u_collide = TabulatedComponent(p_nodes[:, None] * z_nodes[None, :] ** 2,
                                   p_nodes, z_nodes)
    # D_p u = g(z) with g = (1, 0, 1, 2, 1): z_1 collides with z_3 and z_5,
    # and the first pair found is the witness
    g = np.array([1.0, 0.0, 1.0, 2.0, 1.0])
    u_multi = TabulatedComponent(p_nodes[:, None] * g[None, :], p_nodes, z_nodes)
    cases = [
        (BilinearComponent([[1.0]], Dz=[[-1.0]]), BilinearComponent([[1.0]]),
         GridSpec(0.25, 0.75, 3).points(), GridSpec(0.0, 1.0, 9).points()),
        (u_collide, BilinearComponent([[1.0]], Dz=[[-1.0]]),
         p_nodes[:, None], z_nodes[:, None]),
        (BilinearComponent([[1.0]]), BilinearComponent([[1.0]]),
         GridSpec(0.25, 0.75, 3).points(), GridSpec(0.0, 1.0, 5).points()),
        (u_multi, BilinearComponent([[1.0]], Dz=[[-1.0]]),
         p_nodes[:, None], z_nodes[:, None]),
    ]
    reports = []
    for u, v, xs, zs in cases:
        pair = check_strictly_hedonic(u, v, xs, xs, zs)
        full = check_strictly_hedonic(StrictlyHedonicSurplus(u, v), None, xs, xs, zs)
        assert pair.to_dict() == full.to_dict()
        reports.append(pair)
    assert [r.verdict for r in reports] == ["holds", "fails", "inconclusive", "fails"]
    assert reports[3].witness["z_a"] == [-0.5]
    assert reports[3].witness["z_b"] == [0.0]


@pytest.mark.parametrize("c", [1e-12, 1e-6, 1.0, 1e6, 1e12])
def test_strictly_hedonic_is_scale_free(c):
    # with the old gradient floor 1e-6·(1 + max|g|) this read "fails" (a
    # u-side collision) at c = 1e-12 and 1e-6, "inconclusive" from c = 1
    def pair(c):
        return BilinearComponent([[c]], Dz=[[-c]]), BilinearComponent([[c]])

    xs = GridSpec(0.0, 1.0, 7).points()
    ys = GridSpec(0.0, 1.0, 6).points()
    zs = GridSpec(0.0, 1.0, 9).points()
    ref = check_strictly_hedonic(*pair(1.0), xs, ys, zs)
    rep = check_strictly_hedonic(*pair(c), xs, ys, zs)
    assert ref.verdict == "inconclusive"
    assert (rep.verdict, rep.witness) == (ref.verdict, ref.witness)
    assert rep.details["grad_tol"] == pytest.approx(c * ref.details["grad_tol"],
                                                    rel=1e-12)
    model = StrictlyHedonicSurplus(*pair(c))
    assert check_strictly_hedonic(model, None, xs, ys, zs).to_dict() == rep.to_dict()


class _ScaledCross(SurplusModel):
    """c·(xy + xz − yz − z²/2) split as u = c(xy + xz), v = −c(yz + z²/2):
    u depends on y, so the split is not separable."""

    def __init__(self, c):
        self.c = c

    @property
    def dims(self):
        return (1, 1, 1)

    def _uv(self, X, Y, Z):
        x, y, z = X[..., 0], Y[..., 0], Z[..., 0]
        return self.c * (x * y + x * z), -self.c * (y * z + 0.5 * z * z)

    def _kernel(self, X, Y, Z):
        return np.add(*self._uv(X, Y, Z))

    def _grad_v_z(self, Y, Z):
        return -self.c * (Y + Z)


@pytest.mark.parametrize("c", [1e-12, 1e-6, 1.0, 1e6, 1e12])
def test_strictly_hedonic_rejects_a_cross_term_at_every_scale(c):
    # against an absolute 1e-8 the y-spread of u passed as separable at small c
    xs = GridSpec(0.0, 1.0, 7).points()
    ys = GridSpec(0.0, 1.0, 6).points()
    zs = GridSpec(0.0, 1.0, 9).points()
    with pytest.raises(NotSeparable, match="u"):
        check_strictly_hedonic(_ScaledCross(c), None, xs, ys, zs)
    with pytest.raises(NotSeparable, match="u"):
        check_strictly_hedonic(CounterexampleSurplus(0.5), None, xs, ys, zs)


def test_separability_failures_keep_their_order():
    # u is checked before v; a model whose u is y-free fails on v
    class _VCross(_ScaledCross):
        def _uv(self, X, Y, Z):
            u, v = super()._uv(X, Y, Z)
            return self.c * X[..., 0] * Z[..., 0], v + self.c * X[..., 0] * Y[..., 0]

    xs = GridSpec(0.0, 1.0, 4).points()
    zs = GridSpec(0.0, 1.0, 5).points()
    with pytest.raises(NotSeparable, match=r"v\(·,y,z\) varies with x"):
        check_strictly_hedonic(_VCross(2.0), None, xs, xs, zs)
    with pytest.raises(NotSeparable, match=r"u\(x,·,z\) varies with y"):
        check_strictly_hedonic(_ScaledCross(2.0), None, xs, xs, zs)


def test_strictly_hedonic_full_model_and_misuse():
    u = BilinearComponent([[1.0]], Dz=[[-1.0]])
    v = BilinearComponent([[1.0]])
    model = StrictlyHedonicSurplus(u, v)
    xs = GridSpec(0.25, 0.75, 3).points()
    zs = GridSpec(0.0, 1.0, 9).points()
    rep = check_strictly_hedonic(model, None, xs, xs, zs)
    assert rep.verdict == "holds"
    other = StrictlyHedonicSurplus(v, u)
    with pytest.raises(ValidationError):
        check_strictly_hedonic(model, other, xs, xs, zs)


# --- support dimension ------------------------------------------------------

def test_support_dimension_plane(plane):
    rep = support_dimension(plane.coupling, radius=0.25, s=plane.surplus)
    assert rep.estimate == 2
    assert rep.signature_bound == 2
    assert rep.signature_triple == (2, 1, 0)
    assert rep.estimate <= rep.signature_bound
    assert rep.heuristic


def test_support_dimension_curve():
    # 12 points marching along the diagonal (t, t, t): locally 1-dimensional
    t = np.linspace(0.0, 1.0, 12)
    mu = DiscreteMeasure.uniform(t[:, None])
    nu = DiscreteMeasure.uniform(t[:, None])
    z = t[:, None]
    entries = [(i, i, i, 1.0 / 12.0) for i in range(12)]
    c = Coupling.from_entries(entries, mu, nu, z_points=z)
    rep = support_dimension(c, radius=0.2, s=Supermodular1DSurplus((1, 1, 1)))
    assert rep.estimate == 1
    assert rep.signature_bound == 1


def test_support_dimension_single_point():
    mu = DiscreteMeasure([[0.5]], [1.0])
    c = Coupling.from_entries([(0, 0, 0, 1.0)], mu, mu, z_points=[[0.5]])
    rep = support_dimension(c, radius=0.1)
    assert rep.estimate == 0
    assert rep.signature_bound is None


def test_support_dimension_too_few_points():
    t = np.linspace(0.0, 1.0, 5)
    mu = DiscreteMeasure.uniform(t[:, None])
    entries = [(i, i, i, 0.2) for i in range(5)]
    c = Coupling.from_entries(entries, mu, mu, z_points=t[:, None])
    with pytest.raises(TooFewPoints):
        support_dimension(c, radius=0.2)


def test_support_dimension_needs_arity3():
    mu = DiscreteMeasure.uniform([[0.0], [1.0]])
    pair = Coupling.from_entries([(0, 0, 0.5), (1, 1, 0.5)], mu, mu)
    with pytest.raises(ValidationError):
        support_dimension(pair, radius=0.1)


def _per_point_counts(coupling, radius):
    """local_counts from one neighbour set and one covariance per point,
    each centred on its neighbours' mean: the reference for the masked sums."""
    pts = np.hstack([coupling.mu.points[coupling.indices[:, 0]],
                     coupling.nu.points[coupling.indices[:, 1]],
                     coupling.z_points[coupling.indices[:, 2]]])
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)
    covs = np.empty((pts.shape[0], pts.shape[1], pts.shape[1]))
    for a, near in enumerate(d2 <= radius * radius):
        centered = pts[near] - pts[near].mean(axis=0)
        covs[a] = centered.T @ centered / centered.shape[0]
    eigs = np.linalg.eigvalsh(covs)
    top = eigs[:, -1:]
    counts = np.where(top[:, 0] <= 0.0, 0,
                      np.sum(eigs >= diagnostics.PCA_CUTOFF * top, axis=1))
    return tuple(counts.tolist())


def _shifted(coupling, shift):
    mu, nu = coupling.mu, coupling.nu
    return Coupling(coupling.indices, coupling.masses,
                    DiscreteMeasure(mu.points + shift, mu.weights),
                    DiscreteMeasure(nu.points + shift, nu.weights),
                    z_points=coupling.z_points + shift)


def _support_ladder(plane):
    yield "plane", plane.coupling, 0.25
    for seed in range(8):
        for family in ("bilinear", "supermodular", "counterexample"):
            inst = random_instance(seed, n=30, nz=9, family=family)
            res = solve_hybrid(inst.surplus, inst.mu, inst.nu, inst.z_points)
            yield f"{family}-{seed}", res.coupling, 0.3


def test_support_dimension_matches_per_point_covariances_and_ignores_shifts(plane):
    varied = 0
    for name, coupling, radius in _support_ladder(plane):
        counts = support_dimension(coupling, radius=radius).local_counts
        assert counts == _per_point_counts(coupling, radius), name
        varied += len(set(counts)) > 1
        for shift in (1e3, 1e5):
            moved = support_dimension(_shifted(coupling, shift), radius=radius)
            assert moved.local_counts == counts, (name, shift)
    assert varied > 0


@pytest.mark.parametrize("radius", [-0.25, 0.0, np.nan, np.inf])
def test_support_dimension_rejects_a_radius_it_cannot_use(plane, radius):
    with pytest.raises(ValidationError, match="radius"):
        support_dimension(plane.coupling, radius=radius, s=plane.surplus)


# --- structural predictions across random instances -------------------------

def test_purity_under_tzss_over_random_bilinear():
    # when the TzSS criterion holds and the solve is nondegenerate, the
    # optimal coupling is pure
    checked = 0
    for seed in range(40):
        inst = random_instance(seed, family="bilinear")
        s = inst.surplus
        rep = check_tzss_bilinear(s.A, s.B, s.C, s.D)
        if rep.verdict != "holds":
            continue
        res = solve_hybrid(inst.surplus, inst.mu, inst.nu, inst.z_points)
        if res.degenerate_optimum or res.warnings:
            continue
        checked += 1
        assert check_purity(res.coupling).pure
    assert checked >= 3


def test_counterexample_multiple_stable_matchings(plane):
    # both rearrangements of the plane support are stable with the same
    # potentials and the same value: uniqueness genuinely fails at a = 1/2
    como = counterexample_plane_coupling(plane.mu, plane.nu, plane.z_points,
                                         mode="comonotone")
    anti = counterexample_plane_coupling(plane.mu, plane.nu, plane.z_points,
                                         mode="anticomonotone")
    assert verify_stability(plane.surplus, como, plane.potentials).stable
    assert verify_stability(plane.surplus, anti, plane.potentials).stable
    v1 = coupling_objective(como, plane.surplus)
    v2 = coupling_objective(anti, plane.surplus)
    assert v1 == pytest.approx(v2, abs=1e-12)
    assert not np.array_equal(como.indices, anti.indices)


# --- row blocks ---------------------------------------------------------------

def _planted_table():
    """Values in {0, 1, 2} with the largest value, 5, planted at rows 2 and 4:
    with zero potentials the worst residual ties across a block boundary and
    the report must name the first, (2, 1, 3)."""
    values = np.random.default_rng(0).integers(0, 3, size=(7, 5, 6)).astype(float)
    values[2, 1, 3] = values[4, 0, 0] = 5.0
    return TabulatedSurplus(values, *(np.arange(n, dtype=float) for n in values.shape))


def _blocked_solve(market):
    """(surplus, reduce_lift solve, potentials) on a 7-buyer market."""
    if market == "planted-table":
        s = _planted_table()
        mu, nu = (DiscreteMeasure.uniform(np.arange(n, dtype=float)[:, None])
                  for n in (7, 5))
        res = solve_hybrid(s, mu, nu, np.arange(6, dtype=float)[:, None])
        return s, res, DualPotentials(np.zeros(mu.size), np.zeros(nu.size))
    inst = random_instance(4, n=7, nz=5, family="bilinear")
    res = solve_hybrid(inst.surplus, inst.mu, inst.nu, inst.z_points)
    return inst.surplus, res, res.potentials


def _block_rows(monkeypatch, rows, cells):
    """Blocks of `rows` x rows: 1, 3 (7 rows leave a ragged last block of 1),
    or None for one block holding the whole grid."""
    monkeypatch.setattr(surplus, "_GRID_BLOCK_CELLS",
                        1 << 30 if rows is None else rows * cells + cells // 2)


def _column_blocks_seen(monkeypatch) -> list:
    """Wrap diagnostics._column_blocks; each call appends the rows of the
    blocks it yields."""
    blocks, column_blocks = [], diagnostics._column_blocks

    def recorded(*args):
        blocks.append([])
        for lo, cols in column_blocks(*args):
            blocks[-1].append(cols.shape[0])
            yield lo, cols

    monkeypatch.setattr(diagnostics, "_column_blocks", recorded)
    return blocks


def _split_by_the_rule(sizes, per_row):
    """Whether sizes, the rows of consecutive blocks, cut their total into
    blocks of surplus._GRID_BLOCK_CELLS // per_row rows, the last one ragged."""
    rows = max(1, surplus._GRID_BLOCK_CELLS // per_row)
    total = sum(sizes)
    return sizes == [rows] * (total // rows) + [total % rows] * (total % rows > 0)


@pytest.mark.parametrize("rows", [1, 3, None])
@pytest.mark.parametrize("with_w", [False, True])
@pytest.mark.parametrize("market", ["planted-table", "bilinear"])
def test_blocked_stability_matches_the_full_grid(monkeypatch, market, with_w, rows):
    s, res, pots = _blocked_solve(market)
    c = res.coupling
    grid = s.value_grid(c.mu.points, c.nu.points, c.z_points)
    W = np.linspace(0.0, 0.5, grid.shape[2]) if with_w else None
    residual = grid - pots.U[:, None, None] - pots.V[None, :, None]
    if with_w:
        residual = residual - W[None, None, :]
    wi, wj, wk = np.unravel_index(np.argmax(residual), residual.shape)
    tol = STABILITY_TOL * grid_scale(grid)
    max_grid = float(np.max(residual))
    max_support = float(np.max(np.abs(residual[tuple(c.indices.T)])))
    expected = {
        "max_grid_residual": max_grid,
        "max_support_residual": max_support,
        "stable": max_grid <= tol and max_support <= tol,
        "worst_triple": {
            "indices": [int(wi), int(wj), int(wk)],
            "x": c.mu.points[wi].tolist(),
            "y": c.nu.points[wj].tolist(),
            "z": c.z_points[wk].tolist(),
            "residual": float(residual[wi, wj, wk]),
        },
        "tol": tol,
    }
    if market == "planted-table" and not with_w:
        assert [int(wi), int(wj), int(wk)] == [2, 1, 3]
    _block_rows(monkeypatch, rows, grid.shape[1] * grid.shape[2])
    rep = verify_stability(s, c, pots, z_potential=W)
    assert rep.to_dict() == expected


@pytest.mark.parametrize("rows", [1, 3, None])
@pytest.mark.parametrize("market", ["planted-table", "bilinear"])
def test_blocked_splitting_sets_match_the_full_grid(monkeypatch, market, rows):
    s, res, pots = _blocked_solve(market)
    c = res.coupling
    xs, ys, zs = c.mu.points, c.nu.points, c.z_points
    grid = s.value_grid(xs, ys, zs)
    delta = grid - pots.V[None, :, None]
    shifts = np.max(delta, axis=(1, 2))
    idx = np.argwhere(delta >= (shifts - STABILITY_TOL * grid_scale(grid))[:, None, None])
    _block_rows(monkeypatch, rows, delta.shape[1] * delta.shape[2])
    blocks = _column_blocks_seen(monkeypatch)
    samples, rep = sample_splitting_sets(s, xs, pots.V, ys, zs)
    # the candidate columns are cut by the patched rule
    (sizes,) = blocks
    assert _split_by_the_rule(sizes, zs.shape[0])
    if rows == 1:  # where the default size makes one block
        assert len(sizes) > 1
    assert [smp.shift for smp in samples] == shifts.tolist()
    members = [(i, j, k) for i, smp in enumerate(samples)
               for j, k in smp.member_indices]
    assert members == [tuple(row) for row in idx.tolist()]
    if market == "planted-table":
        assert max(smp.size for smp in samples) > 1
    monkeypatch.setattr(surplus, "_GRID_BLOCK_CELLS", 1 << 30)
    whole, whole_rep = sample_splitting_sets(s, xs, pots.V, ys, zs)
    assert blocks[1] == [sum(sizes)]
    assert [smp.to_dict() for smp in samples] == [smp.to_dict() for smp in whole]
    assert rep.to_dict() == whole_rep.to_dict()


@pytest.mark.parametrize("rows", [1, 2])
def test_blocked_support_dimension_matches_one_block(monkeypatch, rows):
    inst = random_instance(0, n=21, nz=7, family="bilinear")
    coupling = solve_hybrid(inst.surplus, inst.mu, inst.nu, inst.z_points).coupling
    m = coupling.indices.shape[0]
    seen = []

    def block_rows(per_row, rule=diagnostics._block_rows):
        seen.append(rule(per_row))
        return seen[-1]

    monkeypatch.setattr(diagnostics, "_block_rows", block_rows)
    monkeypatch.setattr(surplus, "_GRID_BLOCK_CELLS", 1 << 30)
    whole = support_dimension(coupling, radius=0.3)
    monkeypatch.setattr(surplus, "_GRID_BLOCK_CELLS", rows * 3 * m)
    blocked = support_dimension(coupling, radius=0.3)
    assert [-(-m // r) for r in seen] == [1, -(-m // rows)]
    assert m % 2 == 1  # 2 rows leave a ragged last block
    assert len(set(whole.local_counts)) > 1
    assert blocked.to_dict() == whole.to_dict()


# --- the reduction path -------------------------------------------------------

def _full_grid_stability(s, coupling, U, V):
    """verify_stability's report without W, by numpy over the whole grid."""
    X, Y, Z = coupling.mu.points, coupling.nu.points, coupling.z_points
    grid = s.value_grid(X, Y, Z)
    residual = grid - U[:, None, None] - V[None, :, None]
    wi, wj, wk = np.unravel_index(np.argmax(residual), residual.shape)
    max_grid = float(np.max(residual))
    max_support = float(np.max(np.abs(residual[tuple(coupling.indices.T)])))
    tol = STABILITY_TOL * grid_scale(grid)
    return {
        "max_grid_residual": max_grid,
        "max_support_residual": max_support,
        "stable": max_grid <= tol and max_support <= tol,
        "worst_triple": {"indices": [int(wi), int(wj), int(wk)],
                         "x": X[wi].tolist(), "y": Y[wj].tolist(),
                         "z": Z[wk].tolist(),
                         "residual": float(residual[wi, wj, wk])},
        "tol": tol,
    }


def _full_grid_members(s, X, V, Y, Z, tol=STABILITY_TOL):
    """(slice maxima, members in (x, y, z) order) over the whole grid, with
    tol a fraction of the grid's range."""
    grid = s.value_grid(X, Y, Z)
    delta = grid - V[None, :, None]
    shifts = np.max(delta, axis=(1, 2))
    members = np.argwhere(delta >= (shifts - tol * grid_scale(grid))[:, None, None])
    return shifts.tolist(), [tuple(m) for m in members.tolist()]


def _members(samples):
    return [(i, j, k) for i, smp in enumerate(samples) for j, k in smp.member_indices]


def _table(values):
    """Tabulated surplus on integer nodes, its node points and a solve."""
    values = np.asarray(values, dtype=float)
    X, Y, Z = (np.arange(n, dtype=float)[:, None] for n in values.shape)
    s = TabulatedSurplus(values, X[:, 0], Y[:, 0], Z[:, 0])
    res = solve_hybrid(s, DiscreteMeasure.uniform(X), DiscreteMeasure.uniform(Y), Z)
    return s, X, Y, Z, res


def _tied_table():
    """Integers in {0, ..., 3}, with 9 planted twice in the z-column of pair
    (1, 3), at k = 1 and 3, and once at (4, 0, 2): under zero potentials
    the worst residual ties across goods and across pairs."""
    values = np.random.default_rng(3).integers(0, 4, size=(6, 5, 4))
    values[1, 3, 1] = values[1, 3, 3] = values[4, 0, 2] = 9
    return _table(values)


@pytest.mark.parametrize("potentials", ["zero", "integer", "solve"])
def test_stability_from_the_reduction_matches_the_full_grid(potentials):
    s, X, Y, Z, res = _tied_table()
    U, V = {
        "zero": (np.zeros(6), np.zeros(5)),
        "integer": (np.array([3.0, 1, 4, 1, 5, 2]), np.array([2.0, 7, 1, 0, 3])),
        "solve": (res.potentials.U, res.potentials.V),
    }[potentials]
    pots = DualPotentials(U, V)
    expected = _full_grid_stability(s, res.coupling, U, V)
    if potentials == "zero":
        assert expected["worst_triple"]["indices"] == [1, 3, 1]
    assert verify_stability(s, res.coupling, pots).to_dict() == expected
    assert verify_stability(s, res.coupling, pots,
                            reduced=res.reduction).to_dict() == expected


def test_stability_names_the_first_good_whose_residual_rounds_to_the_max():
    # s(0, 0, 1) exceeds s(0, 0, 0), so the reduction's argmax is k = 1, but
    # both round to one residual beside U = 1e6: the grid's first worst
    # triple is (0, 0, 0)
    values = np.full((2, 2, 3), -5.0)
    values[0, 0, :2] = 0.1, 0.1 + 1e-12
    s, X, Y, Z, res = _table(values)
    U, V = np.full(2, 1e6), np.zeros(2)
    assert values[0, 0, 0] - U[0] == values[0, 0, 1] - U[0]
    assert res.reduction.argmax[0, 0] == 1
    rep = verify_stability(s, res.coupling, DualPotentials(U, V),
                           reduced=res.reduction)
    assert rep.worst_triple["indices"] == [0, 0, 0]
    assert rep.to_dict() == _full_grid_stability(s, res.coupling, U, V)
    # the same rounding makes both goods members of the first slice
    samples, _ = sample_splitting_sets(s, X, np.full(2, 1e6), Y, Z,
                                       reduced=res.reduction)
    assert samples[0].member_indices == ((0, 0), (0, 1))


def test_stability_keeps_the_first_nan():
    values = np.zeros((3, 2, 4))
    values[1, 0, 2] = values[1, 1, 0] = values[2, 0, 0] = np.nan
    values[0, 1, 3] = 4.0
    s, X, Y, Z, _ = _table(np.zeros((3, 2, 4)))
    nan_s = TabulatedSurplus(values, X[:, 0], Y[:, 0], Z[:, 0])
    coupling = solve_hybrid(s, DiscreteMeasure.uniform(X),
                            DiscreteMeasure.uniform(Y), Z).coupling
    pots = DualPotentials(np.zeros(3), np.zeros(2))
    rep = verify_stability(nan_s, coupling, pots)
    assert rep.worst_triple["indices"] == [1, 0, 2]
    assert np.isnan(rep.max_grid_residual) and not rep.stable


def test_stability_of_an_infinite_range_is_not_certified():
    # one -inf in a cell off every pair's best good: the residuals are
    # finite, but tol, a fraction of the grid's range, is not; zero
    # potentials leave a residual of 2 on the grid and on the support
    values = np.zeros((2, 2, 2))
    values[:, :, 1] = [[2.0, 1.0], [1.0, 2.0]]
    values[0, 1, 0] = -np.inf
    X, Y, Z = (np.arange(2, dtype=float)[:, None] for _ in range(3))
    s = TabulatedSurplus(values, X[:, 0], Y[:, 0], Z[:, 0])
    mu, nu = DiscreteMeasure.uniform(X), DiscreteMeasure.uniform(Y)
    coupling = Coupling(np.array([[0, 0, 1], [1, 1, 1]]), [0.5, 0.5], mu, nu, z_points=Z)
    zeros = DualPotentials(np.zeros(2), np.zeros(2))
    rep = verify_stability(s, coupling, zeros)
    assert rep.tol == np.inf
    assert rep.max_grid_residual == 2.0 and not rep.stable
    pair = Coupling(coupling.indices[:, :2], coupling.masses, mu, nu)
    rep = verify_stability(values.max(axis=2) + values.min(axis=2), pair, zeros)
    assert rep.tol == np.inf and not rep.stable


@pytest.mark.parametrize("V", ["zero", "solve"])
def test_splitting_sets_from_the_reduction_match_the_full_grid(V):
    s, X, Y, Z, res = _tied_table()
    V = np.zeros(5) if V == "zero" else res.potentials.V
    shifts, members = _full_grid_members(s, X, V, Y, Z)
    for reduced in (None, res.reduction):
        samples, _ = sample_splitting_sets(s, X, V, Y, Z, reduced=reduced)
        assert [smp.shift for smp in samples] == shifts
        assert _members(samples) == members


def test_splitting_members_exactly_at_tol(monkeypatch):
    # quarter steps over a range of 2, so tol = 1/4 of it is 0.5 exactly:
    # members sit at shift - 0.5, and the next value down is out
    values = np.random.default_rng(5).integers(0, 9, size=(5, 4, 3)) / 4.0
    values[0, 0, :2] = 0.0, 2.0
    s, X, Y, Z, res = _table(values)
    V = np.array([0.0, 0.5, 0.25, 1.0])
    tol = 0.25
    shifts, members = _full_grid_members(s, X, V, Y, Z, tol)
    delta = values - V[None, :, None]
    at_tol = delta == (np.array(shifts) - 0.5)[:, None, None]
    assert at_tol.any()
    assert {tuple(m) for m in np.argwhere(at_tol).tolist()} <= set(members)
    monkeypatch.setattr(diagnostics, "STABILITY_TOL", tol)
    samples, _ = sample_splitting_sets(s, X, V, Y, Z, reduced=res.reduction)
    assert samples[0].tol == 0.5
    assert _members(samples) == members


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_candidate_columns_split_into_chunks(monkeypatch, rows):
    s, X, Y, Z, res = _tied_table()
    V = np.zeros(5)
    _, members = _full_grid_members(s, X, V, Y, Z)
    whole, whole_rep = sample_splitting_sets(s, X, V, Y, Z, reduced=res.reduction)
    pairs = {(i, j) for i, j, _ in members}
    assert len(pairs) > 2 * rows  # several chunks, the last one ragged or not
    monkeypatch.setattr(surplus, "_GRID_BLOCK_CELLS", rows * Z.shape[0] + 1)
    blocks = _column_blocks_seen(monkeypatch)
    chunked, rep = sample_splitting_sets(s, X, V, Y, Z, reduced=res.reduction)
    (sizes,) = blocks
    assert len(sizes) > 2 and set(sizes[:-1]) == {rows}
    assert _members(chunked) == members
    assert [smp.to_dict() for smp in chunked] == [smp.to_dict() for smp in whole]
    assert rep.to_dict() == whole_rep.to_dict()


def test_a_reduction_of_other_points_is_refused():
    s, X, Y, Z, res = _tied_table()
    V = np.zeros(5)
    for other in (reduce(s, X[:-1], Y, Z), reduce(s, X, Y[:-1], Z),
                  reduce(s, X, Y, Z[:-1]), reduce(s, X, Y, Z[::-1])):
        with pytest.raises(SizeMismatch):
            verify_stability(s, res.coupling, res.potentials, reduced=other)
        with pytest.raises(SizeMismatch):
            sample_splitting_sets(s, X, V, Y, Z, reduced=other)


class _Affine(SurplusModel):
    """c·s + t for a base model s: its values, gradients and Hessian blocks."""

    def __init__(self, base, c, t=0.0):
        self.base, self.c, self.t = base, c, t

    @property
    def dims(self):
        return self.base.dims

    def _kernel(self, X, Y, Z):
        return self.c * self.base._kernel(X, Y, Z) + self.t

    def _grad(self, X, Y, Z):
        return tuple(self.c * g for g in self.base._grad(X, Y, Z))

    def _hess(self, X, Y, Z):
        return tuple(self.c * h for h in self.base._hess(X, Y, Z))


AFFINE = [(1e-12, 0.0), (1e-6, 0.0), (1e6, 0.0), (1e12, 0.0),
          (1.0, 1e3), (1.0, -1e5), (1e-12, 3e-10), (1e12, -4e15)]


def _splitting_market(name):
    """(model, X, V, Y, Z) with fat splitting sets (a = 1/2), slices whose
    members tie across goods (a = 1) and a reduce_lift solve."""
    if name == "solve":
        inst = random_instance(0, n=40, nz=9, family="supermodular")
        V = solve_hybrid(inst.surplus, inst.mu, inst.nu, inst.z_points).potentials.V
        return inst.surplus, inst.mu.points, V, inst.nu.points, inst.z_points
    plane = counterexample_instance()
    return (CounterexampleSurplus(0.5 if name == "a=1/2" else 1.0), plane.mu.points,
            0.5 * plane.nu.points[:, 0] ** 2, plane.nu.points, plane.z_points)


@pytest.mark.parametrize("c, t", AFFINE)
@pytest.mark.parametrize("market", ["a=1/2", "a=1", "solve"])
def test_splitting_sets_are_scale_free(market, c, t):
    s, X, V, Y, Z = _splitting_market(market)
    ref, ref_rep = sample_splitting_sets(s, X, V, Y, Z)
    samples, rep = sample_splitting_sets(_Affine(s, c, t), X, c * V, Y, Z)
    assert _members(samples) == _members(ref)
    assert rep.verdict == ref_rep.verdict
    assert rep.details == ref_rep.details
    assert samples[0].tol == pytest.approx(c * ref[0].tol, rel=1e-12)


@pytest.mark.parametrize("c", 10.0 ** np.arange(-12, 13))
@pytest.mark.parametrize("model", ["supermodular", "counterexample"])
def test_compatibility_is_scale_free(model, c):
    # s = xyz holds and the counterexample fails at interior points, at every
    # scale of s; the product s_xy·s_xz/s_yz scales with c
    if model == "supermodular":
        s, pts, verdict = (Supermodular1DSurplus((1, 1, 1)),
                           [([0.5], [0.5], [0.5]), ([1.0], [2.0], [0.5])], "holds")
    else:
        s, pts, verdict = CounterexampleSurplus(0.5), [([0.75], [0.25], [0.5])], "fails"

    def product(rep):
        return rep.details["min_product"] if verdict == "holds" else rep.witness["product"]

    ref = check_compatibility_1d(s, pts)
    rep = check_compatibility_1d(_Affine(s, c), pts)
    assert rep.verdict == ref.verdict == verdict
    assert product(rep) == pytest.approx(c * product(ref), rel=1e-12)
