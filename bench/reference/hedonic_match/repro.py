"""Named reproduction runs: canned fixtures with their expected outcomes.

Each run returns rows of (check name, passed, detail).  A row that fails
means the package no longer reproduces the documented behavior; the CLI
turns that into a nonzero exit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DiscreteMeasure, _fmt, coupling_objective
from .diagnostics import (
    NotSeparable,
    check_compatibility_1d,
    check_purity,
    check_strictly_hedonic,
    check_tss_bilinear,
    check_tzss_bilinear,
    compute_prices,
    sample_splitting_sets,
    verify_stability,
)
from .instances import counterexample_instance, counterexample_plane_coupling
from .solver import brute_force, solve_hybrid, solve_tripartite_fixed_alpha
from .surplus import (
    BilinearComponent,
    CounterexampleSurplus,
    ExpCosSurplus,
    StrictlyHedonicSurplus,
    Supermodular1DSurplus,
    signature,
)

EXAMPLE_IDS = (
    "counterexample",
    "bilinear-tss",
    "bilinear-tzss-family",
    "supermodular-1d",
    "strictly-hedonic",
    "expcos-signature",
    "hedonic-pointmass-alpha",
)


@dataclass(frozen=True)
class CheckRow:
    name: str
    passed: bool
    detail: str = ""


def _row(name: str, passed, detail: str = "") -> CheckRow:
    return CheckRow(name=name, passed=bool(passed), detail=detail)


def format_rows(rows) -> str:
    lines = []
    for r in rows:
        mark = "ok  " if r.passed else "FAIL"
        lines.append(f"{mark} {r.name}" + (f"  ({r.detail})" if r.detail else ""))
    return "\n".join(lines)


# --- counterexample ---------------------------------------------------------

def _run_counterexample(a: float | None) -> list[CheckRow]:
    if a is not None and a != 0.5:
        return _run_counterexample_offhalf(a)
    inst = counterexample_instance(0.5)
    s = inst.surplus
    rows = []

    stab = verify_stability(s, inst.coupling, inst.potentials, tol=1e-12)
    rows.append(_row(
        "plane-coupling-stable", stab.stable,
        f"grid {stab.max_grid_residual:.3e}, "
        f"support {stab.max_support_residual:.3e}"))

    purity = check_purity(inst.coupling)
    rows.append(_row("not-pure", not purity.pure,
                     f"max fan-out {max(v['yz'] for v in purity.fan_out.values())}"))

    prices = compute_prices(s, inst.coupling, inst.potentials)
    worst = max(abs(r["p_buyer"] - 0.5 * inst.mu.points[r["i"], 0] ** 2)
                for r in prices.rows)
    rows.append(_row(
        "support-prices-quadratic",
        worst <= 1e-10 and prices.max_discrepancy <= 1e-10,
        f"|p - x^2/2| <= {worst:.3e}, formulas agree to "
        f"{prices.max_discrepancy:.3e}"))

    como = counterexample_plane_coupling(inst.mu, inst.nu, inst.z_points,
                                         mode="comonotone")
    anti = counterexample_plane_coupling(inst.mu, inst.nu, inst.z_points,
                                         mode="anticomonotone")
    obj_c = coupling_objective(como, s)
    obj_a = coupling_objective(anti, s)
    rows.append(_row("lift-objectives-equal", abs(obj_c - obj_a) <= 1e-12,
                     f"|{_fmt(obj_c)} - {_fmt(obj_a)}| = {abs(obj_c - obj_a):.3e}"))

    rep = check_tzss_bilinear(*s.tzss_blocks())
    value = rep.details.get("criterion_value")
    rows.append(_row("tzss-criterion-zero",
                     rep.verdict == "fails" and value == 0.0,
                     f"verdict {rep.verdict}, value {value}"))

    sig = signature(s, [0.75], [0.25], [0.5])
    eigs_ok = np.allclose(sig.eigenvalues, [-2.0, 1.0, 1.0], atol=1e-10)
    rows.append(_row("signature-1-1-minus2",
                     eigs_ok and sig.signature == (2, 1, 0)
                     and sig.dimension_bound == 2
                     and sig.cross_check is not None
                     and sig.cross_check.consistent,
                     f"eigs {np.round(sig.eigenvalues, 12).tolist()}, "
                     f"bound {sig.dimension_bound}"))

    direct = solve_hybrid(s, inst.mu, inst.nu, inst.z_points, method="direct_lp")
    plane_obj = coupling_objective(inst.coupling, s)
    rows.append(_row("lp-matches-plane-value",
                     abs(direct.objective - plane_obj) <= 1e-9
                     and direct.duality_gap <= 1e-9,
                     f"lp {_fmt(direct.objective)} vs plane {_fmt(plane_obj)}"))

    lifted = solve_hybrid(s, inst.mu, inst.nu, inst.z_points, method="reduce_lift")
    rows.append(_row("routes-agree",
                     abs(lifted.objective - direct.objective) <= 1e-9,
                     f"reduce_lift {_fmt(lifted.objective)}"))

    V_half = 0.5 * inst.nu.points[:, 0] ** 2
    _, tw_half = sample_splitting_sets(s, [[0.5]], V_half, inst.nu.points,
                                       inst.z_points)
    big = tw_half.witness is not None and len(tw_half.witness["members"]) >= 3
    rows.append(_row("splitting-set-cluster",
                     tw_half.verdict == "fails" and big,
                     "one gradient cluster spans the line y + z = 1/2"))

    s1 = CounterexampleSurplus(1.0)
    _, tw_one = sample_splitting_sets(s1, inst.mu.points, V_half,
                                      inst.nu.points, inst.z_points)
    singletons = all(size == 1 for sizes in tw_one.details["cluster_sizes"]
                     for size in sizes)
    rows.append(_row("splitting-singletons-at-a-1",
                     tw_one.verdict == "holds" and singletons,
                     "every gradient cluster has one member"))
    return rows


def _run_counterexample_offhalf(a: float) -> list[CheckRow]:
    s = CounterexampleSurplus(a)
    rows = []
    rep = check_tzss_bilinear(*s.tzss_blocks())
    if a <= 0.0:
        expected = "fails"
    elif 1.0 - 2.0 * a == 0.0:
        expected = "fails"
    else:
        expected = "holds"
    value = rep.details.get("criterion_value")
    value_ok = (value is None and a <= 0.0) or value == 1.0 - 2.0 * a
    rows.append(_row(f"tzss-at-a-{_fmt(a)}",
                     rep.verdict == expected and value_ok,
                     f"verdict {rep.verdict}, value {value}"))

    inst = counterexample_instance(a)
    sub = slice(0, 9, 2)
    mu = DiscreteMeasure.uniform(inst.mu.points[sub])
    nu = DiscreteMeasure.uniform(inst.nu.points[sub])
    solved = solve_hybrid(s, mu, nu, inst.z_points, method="reduce_lift")
    brute = brute_force(s, mu, nu, z_points=inst.z_points)
    rows.append(_row("solver-matches-brute-force",
                     abs(solved.objective - brute.objective) <= 1e-9,
                     f"{_fmt(solved.objective)} vs {_fmt(brute.objective)}"))
    return rows


# --- bilinear twist criteria ------------------------------------------------

def _run_bilinear_tss(a=None) -> list[CheckRow]:
    eye = np.eye(2)
    rows = []
    rep = check_tss_bilinear(eye, eye, eye)
    rows.append(_row("identity-holds", rep.verdict == "holds",
                     f"eigenvalues {rep.details['eigenvalues']}"))
    rep = check_tss_bilinear([[1.0]], [[1.0]], [[-1.0]])
    rows.append(_row("sign-flip-fails", rep.verdict == "fails",
                     f"min eigenvalue {rep.witness['min_eigenvalue']}"))
    rep = check_tss_bilinear([[0.0]], [[1.0]], [[1.0]])
    rows.append(_row("singular-A-inconclusive", rep.verdict == "inconclusive",
                     rep.details.get("reason", "")))
    return rows


def _run_tzss_family(a=None) -> list[CheckRow]:
    targets = [float(a)] if a is not None else [0.25, 0.5, 1.0]
    rows = []
    for av in targets:
        rep = check_tzss_bilinear(*CounterexampleSurplus(av).tzss_blocks())
        if av <= 0.0:
            expected_verdict = "fails"
            passed = rep.verdict == expected_verdict
            detail = f"verdict {rep.verdict} (gate {rep.witness['gate']})"
        else:
            expected_value = 1.0 - 2.0 * av
            expected_verdict = "fails" if expected_value == 0.0 else "holds"
            value = rep.details.get("criterion_value")
            passed = rep.verdict == expected_verdict and value == expected_value
            detail = f"verdict {rep.verdict}, criterion {value}"
        rows.append(_row(f"criterion-at-a-{_fmt(av)}", passed, detail))
    return rows


# --- supermodular monomial --------------------------------------------------

def _run_supermodular(a=None) -> list[CheckRow]:
    s = Supermodular1DSurplus((1, 1, 1))
    rows = []
    sig = signature(s, [1.0], [1.0], [1.0])
    rows.append(_row(
        "signature-eigenvalues",
        np.allclose(sig.eigenvalues, [-1.0, -1.0, 2.0], atol=1e-10)
        and sig.signature == (1, 2, 0) and sig.dimension_bound == 1,
        f"eigs {np.round(sig.eigenvalues, 12).tolist()}, "
        f"bound {sig.dimension_bound}"))
    rows.append(_row("cross-check-consistent",
                     sig.cross_check is not None and sig.cross_check.consistent,
                     f"M eigs {sig.cross_check.eigenvalues.tolist()}"))

    pts = [([xv], [yv], [zv]) for xv in (0.5, 1.0) for yv in (0.5, 1.0)
           for zv in (0.5, 1.0)]
    comp = check_compatibility_1d(s, pts)
    rows.append(_row("compatibility-holds", comp.verdict == "holds",
                     f"min product {comp.details.get('min_product')}"))

    grid = np.array([[0.125], [0.25], [0.375], [0.5], [0.625]])
    mu = DiscreteMeasure.uniform(grid)
    nu = DiscreteMeasure.uniform(grid + 0.25)
    zs = np.array([[0.25], [0.75]])
    solved = solve_hybrid(s, mu, nu, zs, method="reduce_lift")
    purity = check_purity(solved.coupling, warnings=solved.warnings)
    identity = purity.pure and all(purity.F_Y.get(i) == i for i in range(5))
    brute = brute_force(s, mu, nu, z_points=zs)
    rows.append(_row("comonotone-optimal",
                     identity and abs(solved.objective - brute.objective) <= 1e-9,
                     f"objective {_fmt(solved.objective)}"))
    return rows


# --- strictly hedonic -------------------------------------------------------

def _hedonic_pair():
    u = BilinearComponent([[1.0]], Dz=[[-1.0]])   # u = x z - z^2
    v = BilinearComponent([[1.0]])                # v = y z
    return u, v


def _run_strictly_hedonic(a=None) -> list[CheckRow]:
    u, v = _hedonic_pair()
    xs = np.array([[0.25], [0.5], [0.75]])
    ys = np.array([[0.25], [0.5], [0.75]])
    zs = np.linspace(0.0, 1.0, 17).reshape(-1, 1)
    rows = []

    rep = check_strictly_hedonic(u, v, xs, ys, zs)
    rows.append(_row("twist-holds", rep.verdict == "holds",
                     f"verdict {rep.verdict}"))

    linear_u = BilinearComponent([[1.0]])          # u = x z: argmax hits the rim
    rep = check_strictly_hedonic(linear_u, v, xs, ys, zs)
    rows.append(_row("boundary-argmax-inconclusive",
                     rep.verdict == "inconclusive",
                     rep.witness.get("reason", "") if rep.witness else ""))

    try:
        check_strictly_hedonic(CounterexampleSurplus(0.5), None, xs, ys, zs)
    except NotSeparable as exc:
        rows.append(_row("cross-term-rejected", True, str(exc)))
    else:
        rows.append(_row("cross-term-rejected", False,
                        "counterexample surplus accepted as separable"))
    return rows


def _run_pointmass_alpha(a=None) -> list[CheckRow]:
    u, v = _hedonic_pair()
    s = StrictlyHedonicSurplus(u, v)
    mu = DiscreteMeasure.uniform(np.array([[0.25], [0.5], [0.75]]))
    nu = DiscreteMeasure.uniform(np.array([[0.3], [0.55], [0.8]]))
    z0 = np.array([0.5])
    alpha = DiscreteMeasure(np.array([[0.5]]), np.array([1.0]))

    res = solve_tripartite_fixed_alpha(s, mu, nu, alpha)
    expected = (sum(w * u.value(p, z0) for p, w in zip(mu.points, mu.weights))
                + sum(w * v.value(p, z0) for p, w in zip(nu.points, nu.weights)))
    rows = [
        _row("objective-decomposes", abs(res.objective - expected) <= 1e-9,
             f"{_fmt(res.objective)} vs {_fmt(expected)}"),
        _row("gap-closed", res.duality_gap <= 1e-9,
             f"gap {res.duality_gap:.3e}"),
        _row("degenerate-flagged", res.degenerate_optimum,
             "every coupling of mu, nu is optimal at a point-mass alpha"),
    ]
    return rows


# --- expcos signature -------------------------------------------------------

def _run_expcos(a=None) -> list[CheckRow]:
    s = ExpCosSurplus()
    rng = np.random.default_rng(20260823)
    rows = []
    all_sig = True
    for _ in range(10):
        x, y, z = rng.uniform(-0.5, 0.5, size=(3, 2))
        rep = signature(s, x, y, z)
        if rep.signature != (2, 4, 0) or rep.dimension_bound != 2:
            all_sig = False
            break
    rows.append(_row("signature-2-4-0-everywhere", all_sig,
                     "10 random points, bound 6 - 4 = 2"))

    worst_global = -np.inf
    for _ in range(200):
        x, y, z = rng.uniform(-1.0, 1.0, size=(3, 2))
        worst_global = max(worst_global, s.value(x, y, z))
    rows.append(_row("nonpositive-off-diagonal", worst_global <= 1e-12,
                     f"max sampled value {worst_global:.3e}"))

    worst_eq = 0.0
    for _ in range(50):
        t, phase = rng.uniform(-1.0, 1.0), rng.uniform(-3.0, 3.0)
        val = s.value([t, phase], [t, phase], [t, phase])
        worst_eq = max(worst_eq, abs(val))
    rows.append(_row("zero-on-equality-set", worst_eq <= 1e-12,
                     f"max |value| {worst_eq:.3e}"))
    return rows


_RUNNERS = {
    "counterexample": _run_counterexample,
    "bilinear-tss": _run_bilinear_tss,
    "bilinear-tzss-family": _run_tzss_family,
    "supermodular-1d": _run_supermodular,
    "strictly-hedonic": _run_strictly_hedonic,
    "expcos-signature": _run_expcos,
    "hedonic-pointmass-alpha": _run_pointmass_alpha,
}


def run_example(example_id: str, a: float | None = None) -> list[CheckRow]:
    """Run one named reproduction; unknown ids raise KeyError."""
    if example_id not in _RUNNERS:
        raise KeyError(f"unknown example id {example_id!r}; "
                       f"choose from {', '.join(EXAMPLE_IDS)}")
    return _RUNNERS[example_id](a)
