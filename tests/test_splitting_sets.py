"""sample_splitting_sets against a reference that walks one buyer at a time.

The reference is the per-buyer loop the lockstep clustering replaced, kept
here as it was: the same front pass, then for each buyer its own sample,
its own clustering by gradient and its own witness search.  The two must
agree field for field on the samples and byte for byte on the report.
"""

import numpy as np
import pytest

from hedonic_match.core import as_point_array
from hedonic_match.diagnostics import (
    POINT_SEP_TOL,
    STABILITY_TOL,
    SplittingSetSample,
    TwistReport,
    _column_blocks,
    _reduction_for,
    sample_splitting_sets,
)
from hedonic_match.instances import FAMILY_CYCLE, counterexample_instance, random_instance
from hedonic_match.serialize import dumps_json
from hedonic_match.solver import solve_hybrid
from hedonic_match.surplus import BilinearSurplus, CounterexampleSurplus


def _cluster_by_gradient(grads, grad_tol: float) -> list[list[int]]:
    G = np.asarray(grads, dtype=float)
    rest = np.arange(G.shape[0])  # the rows not yet taken, ascending
    clusters = []
    while rest.size:
        cluster, rest = [int(rest[0])], rest[1:]
        for a in cluster:  # grows while it is walked
            if not rest.size:
                break
            near = np.abs(G[rest] - G[a]).max(axis=-1) <= grad_tol
            cluster += rest[near].tolist()
            rest = rest[~near]
        clusters.append(sorted(cluster))
    return clusters


def _per_buyer_reference(s, xs, V, ys, zs, reduced=None):
    X = as_point_array(xs)
    Y = as_point_array(ys)
    Z = as_point_array(zs)
    V = np.asarray(V, dtype=float).reshape(-1)
    red = _reduction_for(s, X, Y, Z, reduced)
    tol = STABILITY_TOL * red.grid_scale
    delta = red.residual(np.zeros(X.shape[0]), V)
    shifts = np.max(delta, axis=1)
    pairs = np.argwhere(delta >= (shifts - tol)[:, None])
    blocks = [np.empty((0, 3), dtype=np.intp)]
    for lo, cols in _column_blocks(s, X[pairs[:, 0]], Y[pairs[:, 1]], Z):
        at = pairs[lo:lo + cols.shape[0]]
        cols -= V[at[:, 1], None]
        a, k = np.nonzero(cols >= (shifts[at[:, 0]] - tol)[:, None])
        blocks.append(np.column_stack([at[a], k]))
    idx = np.concatenate(blocks)
    all_grads = s._grad(X[idx[:, 0]], Y[idx[:, 1]], Z[idx[:, 2]])[0]
    bounds = np.searchsorted(idx[:, 0], np.arange(X.shape[0] + 1))

    samples = []
    witness = None
    cluster_sizes = []
    for ix in range(X.shape[0]):
        lo, hi = bounds[ix], bounds[ix + 1]
        js, ks = idx[lo:hi, 1], idx[lo:hi, 2]
        grads = all_grads[lo:hi]
        points = [(Y[j], Z[k]) for j, k in zip(js, ks)]
        samples.append(SplittingSetSample(
            x=X[ix], shift=float(shifts[ix]),
            member_indices=tuple(map(tuple, idx[lo:hi, 1:].tolist())),
            member_points=tuple(points),
            gradients=tuple(grads),
            tol=tol,
        ))
        if hi == lo:
            continue
        clusters = _cluster_by_gradient(grads, 1e-6 * float(np.max(np.abs(grads))))
        cluster_sizes.append(sorted(len(c) for c in clusters))
        if witness is not None:
            continue
        for cluster in clusters:
            if len(cluster) < 2:
                continue
            coords = np.hstack([Y[js[cluster]], Z[ks[cluster]]])
            spread = float(np.max(np.ptp(coords, axis=0)))
            if spread > POINT_SEP_TOL:
                witness = {
                    "x": X[ix].tolist(),
                    "members": [{"y": points[a][0].tolist(),
                                 "z": points[a][1].tolist()} for a in cluster],
                    "gradient": grads[cluster[0]].tolist(),
                    "spread": spread,
                }
                break

    details = {"n_x_samples": X.shape[0], "cluster_sizes": cluster_sizes}
    if witness is not None:
        report = TwistReport(criterion="TzSS-sampled", verdict="fails",
                             witness=witness, details=details)
    else:
        report = TwistReport(criterion="TzSS-sampled", verdict="holds",
                             details=details)
    return samples, report


def _fields(sample):
    return (sample.x.tobytes(), sample.x.shape, sample.shift, sample.member_indices,
            [(y.tobytes(), y.shape, z.tobytes(), z.shape) for y, z in sample.member_points],
            [(g.tobytes(), g.shape) for g in sample.gradients], sample.tol,
            dumps_json(sample.to_dict()))


def _assert_same(args, reduced=None):
    samples, report = sample_splitting_sets(*args, reduced=reduced)
    ref_samples, ref_report = _per_buyer_reference(*args, reduced=reduced)
    assert len(samples) == len(ref_samples)
    for sample, ref in zip(samples, ref_samples):
        assert type(sample) is SplittingSetSample
        assert _fields(sample) == _fields(ref)
    assert dumps_json(report.to_dict()) == dumps_json(ref_report.to_dict())
    return report


def _market(seed, family, n, nz):
    inst = random_instance(seed, n=n, nz=nz, family=family)
    res = solve_hybrid(inst.surplus, inst.mu, inst.nu, inst.z_points)
    args = (inst.surplus, inst.mu.points, res.potentials.V, inst.nu.points, inst.z_points)
    return args, res.reduction


@pytest.mark.parametrize("family", FAMILY_CYCLE)
@pytest.mark.parametrize("seed", range(4))
def test_samples_and_report_match_the_per_buyer_reference(family, seed):
    args, reduced = _market(seed, family, 6 + 5 * seed, 3 + 2 * seed)
    report = _assert_same(args)
    assert dumps_json(_assert_same(args, reduced).to_dict()) == dumps_json(report.to_dict())
    # V = 0 puts other pairs at the slice maxima
    _assert_same((*args[:2], np.zeros_like(args[2]), *args[3:]))


def test_the_markets_cover_fails_and_one_member_slices():
    verdicts, sizes = set(), set()
    for family in FAMILY_CYCLE:
        for seed in range(4):
            args, _ = _market(seed, family, 6 + 5 * seed, 3 + 2 * seed)
            samples, report = sample_splitting_sets(*args)
            verdicts.add(report.verdict)
            sizes.update(sample.size for sample in samples)
    assert verdicts == {"holds", "fails"}
    assert 1 in sizes and max(sizes) > 2


@pytest.mark.parametrize("a", [0.5, 1.0])
def test_the_plane_matches_the_per_buyer_reference(a):
    # fat sets, one cluster each, at a = 1/2; ties across goods at a = 1
    plane = counterexample_instance()
    report = _assert_same((CounterexampleSurplus(a), plane.mu.points,
                           0.5 * plane.nu.points[:, 0] ** 2, plane.nu.points,
                           plane.z_points))
    assert report.verdict == ("fails" if a == 0.5 else "holds")


def _one_big_slice(kind):
    """One buyer x = 0 and one seller, over 4,000 goods that all attain the
    slice maximum: s(0, y, z) is the same for every z, and the buyer
    gradient is A y + B z."""
    rng = np.random.default_rng(4)
    if kind == "one cluster":       # B = 0: one gradient for every member
        s = BilinearSurplus(A=[[1.0]], B=[[0.0]], C=[[0.0]])
        Z = np.linspace(0.0, 1.0, 4000)[:, None]
    elif kind == "singletons":      # gradients z, 2.5e-4 apart
        s = BilinearSurplus(A=[[1.0]], B=[[1.0]], C=[[0.0]])
        Z = np.linspace(0.0, 1.0, 4000)[:, None]
    else:                           # 2-D gradients on a lattice of step tol
        s = BilinearSurplus(A=np.eye(2), B=np.eye(2), C=np.zeros((2, 2)))
        Z = np.vstack([rng.integers(0, 60, (3999, 2)) * 1e-6, [[1.0, 1.0]]])
    d = Z.shape[1]
    return s, np.zeros((1, d)), np.zeros(1), np.full((1, d), 0.5), Z


@pytest.mark.parametrize("kind", ["one cluster", "singletons", "2-D"])
def test_a_slice_of_4000_members_matches_the_per_buyer_reference(kind):
    args = _one_big_slice(kind)
    report = _assert_same(args)
    samples, _ = sample_splitting_sets(*args)
    assert samples[0].size == 4000
    sizes = report.details["cluster_sizes"][0]
    if kind == "one cluster":
        assert sizes == [4000] and report.verdict == "fails"
    elif kind == "singletons":
        assert sizes == [1] * 4000 and report.verdict == "holds"
    else:
        assert 1 < len(sizes) < 4000 and report.verdict == "fails"
