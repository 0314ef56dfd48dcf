import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hedonic_match import instances
from hedonic_match.instances import FAMILY_CYCLE, _well_separated, random_instance


def _separated_over_all_pairs(pts):
    # the n x n x d check _well_separated replaced
    if pts.shape[0] == 1:
        return True
    d = np.sqrt(np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2))
    np.fill_diagonal(d, np.inf)
    return float(d.min()) > 1e-6


STEPS = [0.0, 0.5e-6, 0.7e-6, 1e-6, np.nextafter(1e-6, 1.0), 1.5e-6, 3e-6]


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 40), d=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       plants=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39),
                                 st.sampled_from(STEPS), st.booleans()), max_size=3))
def test_separation_matches_the_all_pairs_check(n, d, seed, plants):
    # pairs planted at distances around 1e-6, along an axis or a diagonal
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 1.0, size=(n, d))
    for a, b, step, on_axis in plants:
        direction = np.eye(d)[-1] if on_axis else np.ones(d) / np.sqrt(d)
        pts[b % n] = pts[a % n] + step * direction
    assert _well_separated(pts) == _separated_over_all_pairs(pts)


def _distinct_points_over_all_pairs(rng, n, dim):
    for _ in range(64):
        pts = rng.uniform(0.0, 1.0, size=(n, dim))
        if _separated_over_all_pairs(pts):
            return pts
    raise RuntimeError("could not draw well-separated points")


def test_random_instances_are_those_of_the_all_pairs_check(monkeypatch):
    # at n = 700 one-dimensional draws are often refused and redrawn
    cases = [(seed, family, 300 if family == "expcos" else 700)
             for family in FAMILY_CYCLE for seed in range(6)]

    def draw():
        out = []
        for seed, family, n in cases:
            inst = random_instance(seed, n=n, nz=9, family=family)
            out.append([P.tobytes() for P in (inst.mu.points, inst.nu.points,
                                              inst.z_points)])
        return out

    ours = draw()
    monkeypatch.setattr(instances, "_distinct_points", _distinct_points_over_all_pairs)
    assert ours == draw()


def test_a_large_random_instance_holds_no_pairwise_array():
    n = 2000
    tracemalloc.start()
    try:
        random_instance(0, n=n, nz=5, family="expcos")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n // 8  # an eighth of one n x n array of floats
