"""The benchmark's checks accept the program's answers and reject wrong ones.

    python3 -m pytest bench/test_checks.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import oracle  # noqa: E402
import workloads  # noqa: E402
from hedonic_match import surplus_from_dict  # noqa: E402
from workloads import WORKLOADS, Market  # noqa: E402


def _market(family: str, n: int, nz: int, seed: int = 0) -> Market:
    rng = np.random.default_rng(seed)
    d = 2 if family == "expcos" else 1
    spec = {
        "expcos": {"family": "expcos"},
        "bilinear": {"family": "bilinear", "A": [[0.8]], "B": [[-0.6]],
                     "C": [[1.1]], "D": [[-0.7]], "f": [0.0, 0.3],
                     "g": [0.1, -0.2, 0.4], "h": [0.0, 0.5]},
        "counterexample": {"family": "counterexample", "a": 0.8},
        "supermodular": {"family": "supermodular", "exponents": [2, 1, 3],
                         "scale": 1.3},
    }[family]
    pts = workloads._points
    return Market(family, spec, pts(rng, n, d), pts(rng, n, d), pts(rng, nz, d))


def _cli(workload: str, market: Market, tmp_path: Path) -> Path:
    workloads.write_inputs(market, tmp_path / "in")
    code = workloads.run_cli(WORKLOADS[workload], tmp_path / "in", tmp_path / "out")
    assert code == 0
    return tmp_path / "out"


def _edit_json(path: Path, edit) -> None:
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


@pytest.mark.parametrize("family", ["expcos", "bilinear", "counterexample",
                                    "supermodular"])
def test_closed_forms_agree_with_the_program(family):
    m = _market(family, 5, 4)
    ours = oracle.surplus_grid(m.surplus, m.X, m.Y, m.Z)
    theirs = surplus_from_dict(m.surplus).value_grid(m.X, m.Y, m.Z)
    np.testing.assert_allclose(ours, theirs, rtol=1e-12, atol=1e-14)


def test_solve_checks_pass_then_reject_a_swapped_match(tmp_path):
    m = _market("expcos", 8, 3)
    orc = oracle.Oracle(m)
    out = _cli("transport-2d", m, tmp_path)
    assert oracle.check_solve(orc, out) == []

    def swap(data):
        a, b = data["entries"][0], data["entries"][1]
        a["j"], b["j"] = b["j"], a["j"]

    _edit_json(out / "coupling.json", swap)
    found = oracle.check_solve(orc, out)
    assert any("surplus carried" in msg for msg in found)
    assert any("U + V != s on the support" in msg for msg in found)


def test_solve_checks_reject_a_perturbed_objective(tmp_path):
    m = _market("expcos", 8, 3)
    out = _cli("transport-2d", m, tmp_path)

    def perturb(data):
        data["objective"] *= 1.0 + 1e-7

    _edit_json(out / "solve_result.json", perturb)
    found = oracle.check_solve(oracle.Oracle(m), out)
    assert found and "solve objective" in found[0]


def test_solve_checks_reject_infeasible_potentials(tmp_path):
    m = _market("expcos", 8, 3)
    out = _cli("transport-2d", m, tmp_path)
    path = out / "potentials.csv"
    lines = path.read_text().splitlines()
    axis, i, val = lines[1].split(",")
    lines[1] = f"{axis},{i},{float(val) - 1e-3!r}"
    path.write_text("\n".join(lines) + "\n")
    found = oracle.check_solve(oracle.Oracle(m), out)
    assert any("dual infeasible" in msg for msg in found)

    path.write_text("\n".join(lines[:-1]) + "\n")
    found = oracle.check_solve(oracle.Oracle(m), out)
    assert any("row is missing" in msg for msg in found)


def test_diagnose_checks_pass_then_reject_wrong_reports(tmp_path):
    m = workloads._audit_market(seed=4, i=2)
    orc = oracle.Oracle(m)
    assert orc.identity_optimal
    out = _cli("audit-1d", m, tmp_path)
    report = out / "diagnostics.json"
    good = report.read_text()
    assert oracle.check_diagnose(orc, out) == []

    def unstable(data):
        data["stability"]["stable"] = False

    def swapped(data):
        f = data["purity"]["F_Y"]
        f["0"], f["1"] = f["1"], f["0"]

    def price_gap(data):
        data["prices"]["rows"][3]["diff"] = 10 * data["prices"]["tol"]

    for edit, words in ((unstable, "does not say stable"),
                        (swapped, "surplus carried"),
                        (price_gap, "price discrepancy")):
        report.write_text(good)
        _edit_json(report, edit)
        assert any(words in msg for msg in oracle.check_diagnose(orc, out))


def test_alpha_checks_pass_then_reject_wrong_answers():
    m = workloads._alpha_market(seed=1, i=3)
    orc = oracle.Oracle(m)
    res = workloads.run_alpha(workloads.library_problem(m))
    assert oracle.check_alpha(orc, res) == []

    fixed = SimpleNamespace(objective=res.fixed_alpha_result.objective * (1 + 1e-6))
    found = oracle.check_alpha(orc, SimpleNamespace(
        result=res.result, alpha=res.alpha, fixed_alpha_result=fixed))
    assert any("fixed-alpha objective" in msg for msg in found)

    alpha = SimpleNamespace(weights=res.alpha.weights[::-1])
    found = oracle.check_alpha(orc, SimpleNamespace(
        result=res.result, alpha=alpha, fixed_alpha_result=res.fixed_alpha_result))
    assert any("z-marginal" in msg for msg in found)


def test_changed_byte_is_caught():
    first = {"coupling.json": b'{"arity": 3}\n'}
    assert oracle.check_identical(first, dict(first), "op") == []
    assert oracle.check_identical(first, {"coupling.json": b'{"arity": 2}\n'}, "op")
    assert oracle.check_identical(first, {}, "op")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_follow_the_seed(name):
    w = WORKLOADS[name]
    a, b, c = (workloads.markets(w, s) for s in (7, 7, 8))
    for ma, mb, mc in zip(a, b, c):
        assert ma.surplus == mb.surplus
        for axis in "XYZ":
            assert np.array_equal(getattr(ma, axis), getattr(mb, axis))
        assert not all(np.array_equal(getattr(ma, axis), getattr(mc, axis))
                       for axis in "XYZ") or ma.surplus != mc.surplus


def test_alpha_seeds_keep_the_pivot_path():
    i = workloads.ALPHA_SHAPES.index(("counterexample", 16, 5))
    counts = set()
    for seed in (1, 2):
        res = workloads.run_alpha(workloads.library_problem(
            workloads._alpha_market(seed, i)))
        counts.add((res.result.iterations, res.fixed_alpha_result.iterations))
    assert len(counts) == 1


@pytest.mark.parametrize("i", [1, 2])
def test_transport_seeds_keep_the_pivot_path(i):
    from hedonic_match.solver import solve_hybrid

    counts = {solve_hybrid(*workloads.library_problem(
        workloads._transport_market(seed, i))).iterations for seed in (1, 2)}
    assert len(counts) == 1


def test_a_failed_operation_fails_the_checks(tmp_path):
    import dataclasses

    import run

    one = dataclasses.replace(WORKLOADS["alpha-1d"], count=1)
    problem = workloads.build_inputs(one, 1, tmp_path)[0]
    ok = run._run_op(one, 0, problem, tmp_path)
    assert not ok["failed"] and run._check(one, 1, [[ok]]) == []

    raised = run._run_op(one, 0, None, tmp_path)   # unpacking None raises
    assert raised["failed"]
    found = run._check(one, 1, [[ok], [raised]])
    assert found == ["bilinear-n16-1 round 1: the operation failed"]

    found = run._check(one, 1, [[ok], [{**ok, "ref_s": None}]])
    assert found == ["bilinear-n16-1 round 1: the reference operation failed"]


def test_the_reference_worker_times_operations_and_stops(tmp_path):
    import run

    args = SimpleNamespace(workload="alpha-1d", seed=1)
    proc = run._start_reference(args, tmp_path)
    try:
        elapsed = run._run_reference_op(proc, 0, tmp_path / "ref0")
    finally:
        run._stop_reference(proc)
    assert elapsed > 0.0
    assert proc.returncode == 0


def test_metric_names_match_benchmark_json():
    import run

    config = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    traced = [*run.LAYER_METRICS, "setup.import_s", "setup.inputs_s",
              "trace.overhead_s"]
    assert [m["name"] for m in config["per_layer"]] == traced
    assert [m["unit"] for m in config["per_layer"]] == [
        *(unit for _, _, unit in run.LAYER_METRICS.values()), "s", "s", "s"]
    assert [m["name"] for m in config["end_to_end"]] == [
        "ops_per_s_vs_ref", "op_s_p50_vs_ref", "peak_rss_mb", "setup_s"]
    assert [w["name"] for w in config["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(WORKLOADS) == sorted(run.WORKLOAD_NAMES)
