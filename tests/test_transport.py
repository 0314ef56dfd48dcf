"""The bipartite transport engine against scipy oracles, across scales,
shapes, skewed weights and degenerate rewards."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment, linprog
from scipy.sparse import coo_matrix

from hedonic_match.core import DiscreteMeasure
from hedonic_match.instances import random_instance
from hedonic_match import reduction
from hedonic_match.solver import TooLarge, solve_bipartite, solve_hybrid
from hedonic_match.surplus import TabulatedSurplus


def _measure(weights):
    w = np.asarray(weights, dtype=float)
    return DiscreteMeasure(np.arange(w.size, dtype=float)[:, None], w / w.sum())


def _uniform(n):
    return DiscreteMeasure.uniform(np.arange(n, dtype=float)[:, None])


def _dual_infeasibility(reward, res):
    U, V = res.potentials.U, res.potentials.V
    return float(np.max(reward - U[:, None] - V[None, :]))


def _assignment_value(reward):
    rows, cols = linear_sum_assignment(-reward)
    return float(reward[rows, cols].sum()) / reward.shape[0]


def _linprog_value(reward, a, b):
    """The transport LP in sparse form, solved by HiGHS."""
    m, n = reward.shape
    t = np.arange(m * n)
    A_eq = coo_matrix((np.ones(2 * m * n),
                       (np.concatenate([t // n, m + t % n]), np.concatenate([t, t]))),
                      shape=(m + n, m * n))
    res = linprog(-reward.ravel(), A_eq=A_eq, b_eq=np.concatenate([a, b]),
                  bounds=(0, None), method="highs")
    assert res.status == 0
    return -res.fun


@pytest.mark.parametrize("scale, shift", [
    (1e-12, 0.0), (1e-10, 0.0), (1e-6, 0.0), (1.0, 0.0), (1e6, 0.0),
    (1e12, 0.0), (1.0, 1e6),
])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_optimum_and_duals_are_scale_free(seed, scale, shift):
    base = np.random.default_rng(seed).uniform(size=(25, 25))
    reward = scale * base + shift
    mu = _uniform(25)
    res = solve_bipartite(reward, mu, mu)
    best = _assignment_value(reward)
    assert abs(res.objective - best) <= 1e-12 * abs(best)
    # the shift carries the objective; the matching's value on the base
    # rewards shows whether the optimum itself was found
    on_base = sum(w * base[i, j] for (i, j), w in
                  zip(res.coupling.indices, res.coupling.masses))
    assert abs(on_base - _assignment_value(base)) <= 1e-12 * abs(on_base)
    span = float(reward.max() - reward.min())
    assert _dual_infeasibility(reward, res) <= 1e-9 * span


@pytest.mark.parametrize("n", [10, 30, 60, 120])
def test_skewed_rectangular_ladder_matches_highs(n):
    rng = np.random.default_rng(n)
    m = n + n // 3 + 1
    reward = rng.normal(size=(m, n))
    mu = _measure(np.exp(2.0 * rng.normal(size=m)))
    nu = _measure(np.geomspace(1.0, 1e-3, n))
    res = solve_bipartite(reward, mu, nu)
    oracle = _linprog_value(reward, mu.weights, nu.weights)
    assert res.objective == pytest.approx(oracle, rel=1e-9, abs=1e-12)
    np.testing.assert_allclose(res.coupling.marginal_weights("x"), mu.weights,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(res.coupling.marginal_weights("y"), nu.weights,
                               rtol=0, atol=1e-12)
    span = float(reward.max() - reward.min())
    assert _dual_infeasibility(reward, res) <= 1e-9 * span
    U, V = res.potentials.U, res.potentials.V
    i, j = res.coupling.indices.T
    assert np.max(np.abs(reward[i, j] - U[i] - V[j])) <= 1e-9 * span


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 8), n=st.integers(1, 8),
       log_scale=st.floats(-12.0, 12.0), shift=st.floats(-1e3, 1e3))
def test_objective_is_invariant_under_permutation_scale_and_shift(
        seed, m, n, log_scale, shift):
    rng = np.random.default_rng(seed)
    reward = rng.normal(size=(m, n))
    a = np.exp(rng.normal(size=m))
    b = np.exp(rng.normal(size=n))
    base = solve_bipartite(reward, _measure(a), _measure(b))
    pr, pc = rng.permutation(m), rng.permutation(n)
    c = 10.0 ** log_scale
    moved = solve_bipartite(c * reward[pr][:, pc] + c * shift,
                            _measure(a[pr]), _measure(b[pc]))
    expected = c * base.objective + c * shift
    span = c * float(reward.max() - reward.min())
    assert abs(moved.objective - expected) <= 1e-12 * max(abs(expected), span)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_objective_bits_do_not_depend_on_labels(seed):
    # The objective is the correctly rounded sum of the basic products, so a
    # relabelling, which only moves them to other places in the basis,
    # leaves every bit of it.  Uniform weights keep the masses exact; the
    # gap is not asserted, since U and V round along different trees.
    rng = np.random.default_rng(seed)
    for _ in range(10):
        n = int(rng.integers(5, 41))
        pr, pc = rng.permutation(n), rng.permutation(n)
        reward = 10.0 ** rng.uniform(-3.0, 3.0) * rng.uniform(size=(n, n))
        mu = _uniform(n)
        assert (solve_bipartite(reward[pr][:, pc], mu, mu).objective
                == solve_bipartite(reward, mu, mu).objective)
        table = 10.0 ** rng.uniform(-3.0, 3.0) * rng.uniform(size=(n, n, 2))
        nodes = np.arange(n, dtype=float)
        s = TabulatedSurplus(table, nodes, nodes, [0.0, 1.0])

        def hybrid(rows, cols):
            return solve_hybrid(s, DiscreteMeasure.uniform(rows[:, None]),
                                DiscreteMeasure.uniform(cols[:, None]), [[0.0], [1.0]],
                                method="reduce_lift").objective

        assert hybrid(nodes[pr], nodes[pc]) == hybrid(nodes, nodes)


@pytest.mark.parametrize("m, n", [(40, 40), (30, 45)])
def test_zero_one_rewards_terminate_at_the_optimum(m, n):
    rng = np.random.default_rng(m * n)
    reward = (rng.uniform(size=(m, n)) < 0.2).astype(float)
    mu, nu = _uniform(m), _uniform(n)
    res = solve_bipartite(reward, mu, nu)
    assert res.objective == pytest.approx(
        _linprog_value(reward, mu.weights, nu.weights), abs=1e-12)
    assert _dual_infeasibility(reward, res) <= 1e-9
    assert res.degenerate_optimum


def test_uniform_200_square_pivot_count():
    reward = np.random.default_rng(0).uniform(size=(200, 200))
    mu = _uniform(200)
    res = solve_bipartite(reward, mu, mu)
    assert res.iterations < 10_000
    assert abs(res.objective - _assignment_value(reward)) <= 1e-12 * res.objective


def test_hybrid_bilinear_n60_finishes():
    inst = random_instance(1, n=60, nz=17, family="bilinear")
    res = solve_hybrid(inst.surplus, inst.mu, inst.nu, inst.z_points)
    values = res.reduction.values
    assert res.objective == pytest.approx(
        _linprog_value(values, inst.mu.weights, inst.nu.weights), rel=1e-9)
    span = float(values.max() - values.min())
    assert _dual_infeasibility(values, res) <= 1e-9 * span


def _pinned_market(seed, m, n, kind, top):
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return rng.uniform(size=(m, n)), _uniform(m), _uniform(n)
    if kind == "skewed":
        return (rng.normal(size=(m, n)), _measure(np.exp(2.0 * rng.normal(size=m))),
                _measure(np.geomspace(1.0, 1e-3, n)))
    reward = rng.integers(0, top, size=(m, n)).astype(float)  # integers: ties
    return (reward, _measure(rng.integers(1, 4, size=m)),
            _measure(rng.integers(1, 4, size=n)))


# (seed, m, n, rewards, integer range): iterations and the float.hex of the
# objective, of fsum(U) and of fsum(V), as the engine's pivot path gives them
@pytest.mark.parametrize("market, iterations, objective, sum_u, sum_v", [
    ((0, 30, 30, "uniform", 0), 140,
     "0x1.e2ee470f3ac10p-1", "0x1.6a524c17f451bp+1", "0x1.9775191b488acp+4"),
    ((1, 50, 20, "uniform", 0), 139,
     "0x1.e1666e7731762p-1", "0x1.1ca025cd4e120p+3", "0x1.e7e6615c7832cp+3"),
    ((2, 40, 40, "skewed", 0), 143,
     "0x1.2db790ed14096p+0", "0x1.5802c3cc3e225p+5", "0x1.63e95781a2fa7p+5"),
    ((3, 17, 61, "skewed", 0), 103,
     "0x1.168968eff9ca1p+0", "0x1.699a41ff4614dp+4", "0x1.ea07f0a17f924p+5"),
    ((4, 45, 45, "ties", 12), 227,
     "0x1.5ddc46bb5367bp+3", "0x1.6000000000000p+5", "0x1.c100000000000p+8"),
    ((5, 64, 25, "ties", 4), 103,
     "0x1.8000000000000p+1", "0x0.0p+0", "0x1.2c00000000000p+6"),
    ((6, 12, 80, "ties", 30), 174,
     "0x1.a8f227a29ce97p+4", "0x1.a000000000000p+4", "0x1.f340000000000p+10"),
    ((7, 60, 60, "ties", 3), 115,
     "0x1.0000000000000p+1", "0x0.0p+0", "0x1.e000000000000p+6"),
])
def test_pivot_path_is_pinned(market, iterations, objective, sum_u, sum_v):
    # a change to pricing, ties or the tree update shows as another count
    # or other bits; every market is below the block-search floor m·n < 4096
    res = solve_bipartite(*_pinned_market(*market))
    assert res.iterations == iterations
    assert res.objective.hex() == objective
    assert math.fsum(res.potentials.U.tolist()).hex() == sum_u
    assert math.fsum(res.potentials.V.tolist()).hex() == sum_v


def test_reduce_lift_just_over_the_limit_is_refused_before_allocating(monkeypatch):
    inst = random_instance(0, n=400, nz=5, family="bilinear")
    need = reduction._reduce_bytes(400, 400, 5)
    monkeypatch.setattr(reduction, "LP_BYTES_LIMIT", need - 1)
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="MiB"):
            solve_hybrid(inst.surplus, inst.mu, inst.nu, inst.z_points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < need // 100
    monkeypatch.setattr(reduction, "LP_BYTES_LIMIT", need)
    assert solve_hybrid(inst.surplus, inst.mu, inst.nu, inst.z_points).objective


@pytest.mark.parametrize("family", ["bilinear", "expcos"])  # goods of d = 1 and 2
def test_reduce_lift_estimate_covers_its_peak(family):
    inst = random_instance(0, n=400, nz=5, family=family)
    tracemalloc.start()
    try:
        solve_hybrid(inst.surplus, inst.mu, inst.nu, inst.z_points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= reduction._reduce_bytes(400, 400, len(inst.z_points))


def test_transport_buffer_over_the_limit_is_refused(monkeypatch):
    monkeypatch.setattr(reduction, "LP_BYTES_LIMIT", 8 * 30 * 40 - 1)
    with pytest.raises(TooLarge, match="MiB"):
        solve_bipartite(np.zeros((30, 40)), _uniform(30), _uniform(40))
