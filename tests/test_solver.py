import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment, linprog

from hedonic_match.core import (
    DiscreteMeasure,
    GridSpec,
    ValidationError,
    coupling_objective,
    project,
)
from hedonic_match.instances import random_instance
from hedonic_match.reduction import reduce
from hedonic_match.solver import (
    InfeasibleMarginals,
    TooLarge,
    brute_force,
    max_over_alpha,
    solve_bipartite,
    solve_hybrid,
    solve_tripartite_fixed_alpha,
)
from hedonic_match.surplus import BilinearSurplus, Supermodular1DSurplus
from hedonic_match.diagnostics import verify_stability


def _lp_transport_value(reward, a, b):
    """Independent LP oracle for the bipartite value via scipy."""
    m, n = reward.shape
    A_eq = np.zeros((m + n, m * n))
    for i in range(m):
        A_eq[i, i * n:(i + 1) * n] = 1.0
    for j in range(n):
        A_eq[m + j, j::n] = 1.0
    res = linprog(-reward.ravel(), A_eq=A_eq, b_eq=np.concatenate([a, b]),
                  bounds=(0, None), method="highs")
    assert res.status == 0
    return -res.fun


def _random_measure(rng, n, dim=1):
    pts = np.sort(rng.uniform(0, 1, n))[:, None]
    if dim > 1:
        pts = np.hstack([pts, rng.uniform(0, 1, (n, dim - 1))])
    w = rng.uniform(0.2, 1.0, n)
    return DiscreteMeasure(pts, w / w.sum())


def test_bipartite_matches_scipy_linprog():
    rng = np.random.default_rng(101)
    for _ in range(15):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(2, 7))
        reward = rng.normal(size=(m, n))
        mu = _random_measure(rng, m)
        nu = _random_measure(rng, n)
        res = solve_bipartite(reward, mu, nu)
        oracle = _lp_transport_value(reward, mu.weights, nu.weights)
        assert res.objective == pytest.approx(oracle, abs=1e-9)
        assert res.duality_gap <= 1e-9
        # dual feasibility and complementary slackness on the support
        U, V = res.potentials.U, res.potentials.V
        slack = U[:, None] + V[None, :] - reward
        assert slack.min() >= -1e-9
        for (i, j), w in zip(res.coupling.indices, res.coupling.masses):
            assert slack[i, j] <= 1e-9
        assert res.coupling.indices.shape[0] <= m + n - 1


def test_bipartite_identity_reward():
    mu = DiscreteMeasure.uniform([[0.0], [1.0]])
    nu = DiscreteMeasure.uniform([[0.0], [1.0]])
    res = solve_bipartite([[1.0, 0.0], [0.0, 1.0]], mu, nu)
    assert res.objective == pytest.approx(1.0, abs=1e-12)
    support = {(int(i), int(j)) for i, j in res.coupling.indices}
    assert support == {(0, 0), (1, 1)}
    np.testing.assert_allclose(res.coupling.masses, [0.5, 0.5], atol=1e-12)


def test_bipartite_supermodular_is_comonotone():
    # sbar = x*y with sorted distinct atoms couples rank to rank
    xs = np.array([[0.1], [0.4], [0.9]])
    ys = np.array([[0.2], [0.5], [0.8]])
    mu = DiscreteMeasure.uniform(xs)
    nu = DiscreteMeasure.uniform(ys)
    res = solve_bipartite(np.outer(xs[:, 0], ys[:, 0]), mu, nu)
    support = {(int(i), int(j)) for i, j in res.coupling.indices}
    assert support == {(0, 0), (1, 1), (2, 2)}


def test_bipartite_single_point_forced():
    mu = DiscreteMeasure([[0.3]], [1.0])
    nu = DiscreteMeasure([[0.7]], [1.0])
    res = solve_bipartite([[2.5]], mu, nu)
    assert res.objective == pytest.approx(2.5)
    assert res.coupling.masses[0] == pytest.approx(1.0)


def test_bipartite_constant_reward_flags_alternate_optima():
    mu = DiscreteMeasure.uniform([[0.0], [1.0], [2.0]])
    nu = DiscreteMeasure.uniform([[0.0], [1.0], [2.0]])
    res = solve_bipartite(np.ones((3, 3)), mu, nu)
    assert res.objective == pytest.approx(1.0)
    assert res.degenerate_optimum


def test_bipartite_deterministic():
    rng = np.random.default_rng(55)
    reward = rng.normal(size=(5, 5))
    mu = _random_measure(rng, 5)
    nu = _random_measure(np.random.default_rng(56), 5)
    r1 = solve_bipartite(reward, mu, nu)
    r2 = solve_bipartite(reward, mu, nu)
    np.testing.assert_array_equal(r1.coupling.indices, r2.coupling.indices)
    np.testing.assert_array_equal(r1.coupling.masses, r2.coupling.masses)
    np.testing.assert_array_equal(r1.potentials.U, r2.potentials.U)
    assert r1.iterations == r2.iterations


def test_bipartite_rejects_unbalanced_mass():
    mu = DiscreteMeasure.uniform([[0.0], [1.0]])
    nu = DiscreteMeasure.uniform([[0.0], [1.0]])
    # measures always carry unit mass, so reaching the check needs a broken one
    object.__setattr__(nu, "weights", np.array([0.5, 0.6]))
    with pytest.raises(InfeasibleMarginals):
        solve_bipartite(np.zeros((2, 2)), mu, nu)


# --- hybrid: reduce-then-lift vs direct LP ----------------------------------

def test_hybrid_routes_agree():
    for seed in range(12):
        inst = random_instance(seed)
        lifted = solve_hybrid(inst.surplus, inst.mu, inst.nu, inst.z_points,
                              method="reduce_lift")
        direct = solve_hybrid(inst.surplus, inst.mu, inst.nu, inst.z_points,
                              method="direct_lp")
        assert lifted.objective == pytest.approx(direct.objective, abs=1e-9)
        assert lifted.duality_gap <= 1e-9
        assert direct.duality_gap <= 1e-9
        for res in (lifted, direct):
            rep = verify_stability(inst.surplus, res.coupling, res.potentials)
            assert rep.stable


def test_hybrid_unknown_method():
    inst = random_instance(0)
    with pytest.raises(ValidationError):
        solve_hybrid(inst.surplus, inst.mu, inst.nu, inst.z_points, method="magic")


def test_hybrid_projection_attains_bipartite_optimum():
    for seed in (3, 8):
        inst = random_instance(seed)
        direct = solve_hybrid(inst.surplus, inst.mu, inst.nu, inst.z_points,
                              method="direct_lp")
        red = reduce(inst.surplus, inst.mu.points, inst.nu.points, inst.z_points)
        bip = solve_bipartite(red.values, inst.mu, inst.nu)
        pair = project(direct.coupling, "xy")
        assert coupling_objective(pair, red.values) == pytest.approx(
            bip.objective, abs=1e-9)


@pytest.mark.parametrize("method", ["reduce_lift", "direct_lp"])
def test_hybrid_zfree_ties_warn_and_lift_to_first_z(method):
    s = BilinearSurplus(A=[[1.0]], B=[[0.0]], C=[[0.0]])
    mu = DiscreteMeasure.uniform([[0.1], [0.6]])
    nu = DiscreteMeasure.uniform([[0.2], [0.9]])
    zs = GridSpec(0.0, 1.0, 4).points()
    res = solve_hybrid(s, mu, nu, zs, method=method)
    assert res.warnings
    assert (res.coupling.indices[:, 2] == 0).all()
    assert res.reduction is not None
    assert res.reduction.any_tie


def test_xyz_with_single_good_matches_bipartite():
    s = Supermodular1DSurplus((1, 1, 1))
    mu = DiscreteMeasure.uniform([[0.2], [0.5], [0.8]])
    nu = DiscreteMeasure.uniform([[0.1], [0.6], [0.9]])
    hybrid = solve_hybrid(s, mu, nu, [[1.0]], method="direct_lp")
    bip = solve_bipartite(np.outer(mu.points[:, 0], nu.points[:, 0]), mu, nu)
    assert hybrid.objective == pytest.approx(bip.objective, abs=1e-12)
    assert (hybrid.coupling.indices[:, 2] == 0).all()


# --- fixed-alpha tripartite -------------------------------------------------

def test_fixed_alpha_marginals_gap_and_stability():
    rng = np.random.default_rng(77)
    s = BilinearSurplus(A=[[0.5]], B=[[1.0]], C=[[0.8]], D=[[-0.6]])
    mu = _random_measure(rng, 4)
    nu = _random_measure(rng, 3)
    alpha = _random_measure(rng, 3)
    res = solve_tripartite_fixed_alpha(s, mu, nu, alpha)
    assert res.method == "tripartite_fixed_alpha"
    assert res.z_potential is not None
    assert res.duality_gap <= 1e-9
    np.testing.assert_allclose(res.coupling.marginal_weights("z"),
                               alpha.weights, atol=1e-9)
    rep = verify_stability(s, res.coupling, res.potentials,
                           z_potential=res.z_potential)
    assert rep.stable


def test_fixed_alpha_dominates_permutation_search():
    # permutation pairs are feasible couplings, so the LP can only do better;
    # fractional vertices of the three-index polytope make this one-sided
    s = Supermodular1DSurplus((1, 1, 1))
    for seed in range(6):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(2, 5))
        mu = DiscreteMeasure.uniform(np.sort(rng.uniform(0, 1, n))[:, None])
        nu = DiscreteMeasure.uniform(np.sort(rng.uniform(0, 1, n))[:, None])
        alpha = DiscreteMeasure.uniform(np.sort(rng.uniform(0, 1, n))[:, None])
        res = solve_tripartite_fixed_alpha(s, mu, nu, alpha)
        bf = brute_force(s, mu, nu, alpha=alpha)
        assert res.objective - bf.objective >= -1e-9


def test_fixed_alpha_xyz_sorted_is_integral_comonotone():
    # nonnegative sorted atoms: rank-to-rank-to-rank is optimal and the LP
    # lands exactly on it
    s = Supermodular1DSurplus((1, 1, 1))
    pts = np.array([[0.1], [0.5], [0.9]])
    mu = nu = alpha = DiscreteMeasure.uniform(pts)
    res = solve_tripartite_fixed_alpha(s, mu, nu, alpha)
    bf = brute_force(s, mu, nu, alpha=alpha)
    assert res.objective == pytest.approx(bf.objective, abs=1e-12)
    assert bf.assignment == ((0, 0, 0), (1, 1, 1), (2, 2, 2))


def test_fixed_alpha_rejects_unbalanced():
    s = Supermodular1DSurplus((1, 1, 1))
    mu = DiscreteMeasure.uniform([[0.1], [0.9]])
    nu = DiscreteMeasure.uniform([[0.2], [0.8]])
    alpha = DiscreteMeasure.uniform([[0.3], [0.7]])
    object.__setattr__(alpha, "weights", np.array([0.9, 0.9]))
    with pytest.raises(InfeasibleMarginals):
        solve_tripartite_fixed_alpha(s, mu, nu, alpha)


def test_max_over_alpha_certifies_induced_marginal():
    inst = random_instance(9, family="bilinear")
    search = max_over_alpha(inst.surplus, inst.mu, inst.nu, inst.z_points)
    induced = project(search.result.coupling, "z")
    np.testing.assert_allclose(search.alpha.weights, induced.weights,
                               atol=1e-12)
    assert search.fixed_alpha_result.objective == pytest.approx(
        search.result.objective, abs=1e-9)


def test_max_over_alpha_zfree_concentrates_on_first_z():
    s = BilinearSurplus(A=[[1.0]], B=[[0.0]], C=[[0.0]])
    mu = DiscreteMeasure.uniform([[0.1], [0.6]])
    nu = DiscreteMeasure.uniform([[0.2], [0.9]])
    zs = GridSpec(0.0, 1.0, 3).points()
    search = max_over_alpha(s, mu, nu, zs)
    # projection keeps the z grid but all mass lands on the first node
    np.testing.assert_array_equal(search.alpha.weights, [1.0, 0.0, 0.0])
    assert search.alpha.points[0, 0] == 0.0


# --- brute force ------------------------------------------------------------

def test_brute_force_known_small_value():
    pts = np.array([[0.0], [1.0], [2.0]])
    mu = nu = DiscreteMeasure.uniform(pts)
    bf = brute_force(np.outer(pts[:, 0], pts[:, 0]), mu, nu)
    assert bf.objective == pytest.approx(5.0 / 3.0, abs=1e-12)
    assert bf.mode == "bipartite"


def test_brute_force_matches_assignment_oracle():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        reward = rng.normal(size=(n, n))
        mu = nu = DiscreteMeasure.uniform(np.arange(n, dtype=float)[:, None])
        bf = brute_force(reward, mu, nu)
        rows, cols = linear_sum_assignment(-reward)
        oracle = reward[rows, cols].sum() / n
        assert bf.objective == pytest.approx(oracle, abs=1e-12)


def test_brute_force_surplus_mode_picks_best_z():
    inst = random_instance(4, n=3, nz=4)
    bf = brute_force(inst.surplus, inst.mu, inst.nu, z_points=inst.z_points)
    direct = solve_hybrid(inst.surplus, inst.mu, inst.nu, inst.z_points,
                          method="direct_lp")
    # uniform equal-size marginals: the LP optimum is a permutation (Birkhoff)
    assert bf.objective == pytest.approx(direct.objective, abs=1e-9)


def test_brute_force_caps_and_checks():
    big = DiscreteMeasure.uniform(np.arange(8, dtype=float)[:, None])
    with pytest.raises(TooLarge):
        brute_force(np.zeros((8, 8)), big, big)
    six = DiscreteMeasure.uniform(np.arange(6, dtype=float)[:, None])
    with pytest.raises(TooLarge):
        brute_force(Supermodular1DSurplus((1, 1, 1)), six, six, alpha=six)
    mu = DiscreteMeasure([[0.0], [1.0]], [0.3, 0.7])
    nu = DiscreteMeasure.uniform([[0.0], [1.0]])
    with pytest.raises(ValidationError):
        brute_force(np.zeros((2, 2)), mu, nu)
    with pytest.raises(ValidationError):
        brute_force(Supermodular1DSurplus((1, 1, 1)), nu, nu)  # no z_points
