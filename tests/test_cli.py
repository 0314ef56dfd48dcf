import json
import os
import platform
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from hedonic_match import cli, reduction, solver
from hedonic_match.cli import (
    EXIT_BAD_INPUT,
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_PIVOT_BUDGET,
    main,
)
from hedonic_match.core import (
    Coupling,
    DiscreteMeasure,
    coupling_objective,
    measure_from_csv,
    measure_to_csv,
)
from hedonic_match.instances import random_instance
from hedonic_match.repro import EXAMPLE_IDS
from hedonic_match.serialize import (
    dump_json,
    load_json,
    potentials_from_csv,
)
from hedonic_match.diagnostics import sample_splitting_sets
from hedonic_match.solver import PivotBudgetExceeded, solve_hybrid
from hedonic_match.surplus import (
    BilinearComponent,
    BilinearSurplus,
    StrictlyHedonicSurplus,
    SurplusModel,
    surplus_from_dict,
)

ARTIFACTS = ("solve_result.json", "coupling.json", "potentials.csv")


def test_solve_is_byte_deterministic(tmp_path):
    d1 = tmp_path / "run1"
    d2 = tmp_path / "run2"
    for d in (d1, d2):
        code = main(["solve", "--random-instance", "3", "--out", str(d)])
        assert code == EXIT_OK
    for name in ARTIFACTS:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_solve_from_files_round_trips(tmp_path):
    s = BilinearSurplus(A=[[0.4]], B=[[1.0]], C=[[0.7]], D=[[-0.9]])
    dump_json(s.to_dict(), tmp_path / "surplus.json")
    mu = DiscreteMeasure([[0.1], [0.6], [0.9]], [0.5, 0.25, 0.25])
    nu = DiscreteMeasure([[0.2], [0.8]], [0.5, 0.5])
    measure_to_csv(mu, tmp_path / "mu.csv")
    measure_to_csv(nu, tmp_path / "nu.csv")
    code = main(["solve",
                 "--surplus", str(tmp_path / "surplus.json"),
                 "--mu", str(tmp_path / "mu.csv"),
                 "--nu", str(tmp_path / "nu.csv"),
                 "--z-grid", "0:1:5",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK

    payload = load_json(tmp_path / "solve_result.json")
    assert payload["method"] == "reduce_lift"
    assert payload["duality_gap"] <= 1e-9

    coupling_payload = load_json(tmp_path / "coupling.json")
    zs = np.linspace(0, 1, 5)[:, None]
    coupling = Coupling.from_dict(coupling_payload, mu, nu, z_points=zs,
                                  marginal_tol=1e-9)
    model = surplus_from_dict(load_json(tmp_path / "surplus.json"))
    assert coupling_objective(coupling, model) == pytest.approx(
        payload["objective"], abs=1e-12)

    potentials, W = potentials_from_csv(tmp_path / "potentials.csv")
    assert W is None
    np.testing.assert_allclose(potentials.U, payload["U"], atol=1e-15)
    np.testing.assert_allclose(potentials.V, payload["V"], atol=1e-15)


def test_solve_with_alpha_writes_good_potential(tmp_path):
    s = BilinearSurplus(A=[[0.4]], B=[[1.0]], C=[[0.7]], D=[[-0.9]])
    dump_json(s.to_dict(), tmp_path / "surplus.json")
    mu = DiscreteMeasure([[0.1], [0.9]], [0.5, 0.5])
    nu = DiscreteMeasure([[0.2], [0.8]], [0.5, 0.5])
    alpha = DiscreteMeasure([[0.3], [0.7]], [0.4, 0.6])
    measure_to_csv(mu, tmp_path / "mu.csv")
    measure_to_csv(nu, tmp_path / "nu.csv")
    measure_to_csv(alpha, tmp_path / "alpha.csv")
    code = main(["solve",
                 "--surplus", str(tmp_path / "surplus.json"),
                 "--mu", str(tmp_path / "mu.csv"),
                 "--nu", str(tmp_path / "nu.csv"),
                 "--alpha", str(tmp_path / "alpha.csv"),
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    payload = load_json(tmp_path / "solve_result.json")
    assert payload["method"] == "tripartite_fixed_alpha"
    assert "W" in payload
    _, W = potentials_from_csv(tmp_path / "potentials.csv")
    assert W is not None
    np.testing.assert_allclose(W, payload["W"], atol=1e-15)


def test_solve_direct_method_flag(tmp_path):
    code = main(["solve", "--random-instance", "5", "--method", "direct_lp",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert load_json(tmp_path / "solve_result.json")["method"] == "direct_lp"


def test_diagnose_writes_full_report(tmp_path):
    code = main(["diagnose", "--random-instance", "2", "--out", str(tmp_path)])
    assert code == EXIT_OK
    report = load_json(tmp_path / "diagnostics.json")
    for key in ("model", "solve", "stability", "purity", "twists"):
        assert key in report
    assert report["stability"]["stable"] is True
    assert "tzss_sampled" in report["twists"]
    assert report["twists"]["tzss_sampled"]["verdict"] in (
        "holds", "fails", "inconclusive")


@pytest.mark.parametrize("radius", ["-0.25", "0", "nan", "inf"])
def test_diagnose_rejects_a_radius_before_solving(tmp_path, monkeypatch, capsys, radius):
    def no_solve(*args, **kwargs):
        raise AssertionError("diagnose solved with an unusable radius")

    monkeypatch.setattr(cli, "solve_hybrid", no_solve)
    code = main(["diagnose", "--random-instance", "1", "--n", "12", "--nz", "5",
                 f"--radius={radius}", "--out", str(tmp_path)])
    assert code == EXIT_BAD_INPUT
    assert "radius" in capsys.readouterr().err
    assert not (tmp_path / "diagnostics.json").exists()


def test_diagnose_counterexample_family(tmp_path):
    code = main(["diagnose", "--random-instance", "7",
                 "--family", "counterexample", "--out", str(tmp_path)])
    assert code == EXIT_OK
    report = load_json(tmp_path / "diagnostics.json")
    assert "tzss_bilinear" in report["twists"]
    assert "compatibility" in report["twists"]


@pytest.mark.parametrize("seed", range(6))
def test_diagnose_with_alpha_checks_the_good_potential(tmp_path, seed):
    # the fixed-alpha optimum is stable only once its W over goods counts
    inst = random_instance(seed, n=8, nz=4, family="bilinear")
    dump_json(inst.surplus.to_dict(), tmp_path / "surplus.json")
    measure_to_csv(inst.mu, tmp_path / "mu.csv")
    measure_to_csv(inst.nu, tmp_path / "nu.csv")
    measure_to_csv(DiscreteMeasure.uniform(inst.z_points), tmp_path / "alpha.csv")
    code = main(["diagnose", "--surplus", str(tmp_path / "surplus.json"),
                 "--mu", str(tmp_path / "mu.csv"), "--nu", str(tmp_path / "nu.csv"),
                 "--alpha", str(tmp_path / "alpha.csv"), "--out", str(tmp_path)])
    assert code == EXIT_OK
    report = load_json(tmp_path / "diagnostics.json")
    assert report["solve"]["method"] == "tripartite_fixed_alpha"
    assert report["stability"]["stable"] is True


def _guard_market(family):
    """(surplus, mu, nu, z points) on n = 30 buyers and sellers, nz = 9."""
    if family != "strictly_hedonic":
        inst = random_instance(0, n=30, nz=9, family=family)
        return inst.surplus, inst.mu, inst.nu, inst.z_points
    rng = np.random.default_rng(0)
    s = StrictlyHedonicSurplus(BilinearComponent([[1.0]], Dz=[[-1.0]]),
                               BilinearComponent([[0.8]], h=[0.0, 0.2]))
    mu, nu = (DiscreteMeasure.uniform(np.sort(rng.uniform(size=(30, 1)), axis=0))
              for _ in range(2))
    return s, mu, nu, np.linspace(0.0, 1.0, 9)[:, None]


@pytest.mark.parametrize("family", ["supermodular", "counterexample", "bilinear",
                                    "strictly_hedonic"])
def test_diagnose_reads_the_surplus_grid_once(tmp_path, monkeypatch, family):
    # every surplus value the diagnose evaluates: one grid in reduce, one
    # z-column for the worst residual, the support triples, and the
    # z-columns of the splitting-set candidates (the pairs holding members)
    s, mu, nu, zs = _guard_market(family)
    dump_json(s.to_dict(), tmp_path / "surplus.json")
    measure_to_csv(mu, tmp_path / "mu.csv")
    measure_to_csv(nu, tmp_path / "nu.csv")
    measure_to_csv(DiscreteMeasure.uniform(zs), tmp_path / "z.csv")
    res = solve_hybrid(s, mu, nu, zs)
    samples, _ = sample_splitting_sets(s, mu.points, res.potentials.V, nu.points, zs)
    candidates = len({(i, j) for i, smp in enumerate(samples)
                      for j, _ in smp.member_indices})
    support = res.coupling.masses.size
    cells = []
    cls = type(s)
    kernel = cls._kernel

    def counting(self, X, Y, Z):
        out = kernel(self, X, Y, Z)
        cells.append(out.size)
        return out

    monkeypatch.setattr(cls, "_kernel", counting)
    code = main(["diagnose", "--surplus", str(tmp_path / "surplus.json"),
                 "--mu", str(tmp_path / "mu.csv"), "--nu", str(tmp_path / "nu.csv"),
                 "--z-points", str(tmp_path / "z.csv"), "--method", "reduce_lift",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    prices = 2 if s.has_uv else 1  # compute_prices reads the support too
    nx, ny, nz = mu.size, nu.size, zs.shape[0]
    assert sum(cells) <= nx * ny * nz + nz * (1 + candidates) + prices * support


@pytest.mark.parametrize("route", [["--method", "direct_lp", "--z-points"], ["--alpha"]])
def test_three_index_diagnose_evaluates_the_grid_once(tmp_path, monkeypatch, route):
    # the LP's reduction is the one grid pass of direct_lp, so what is left is
    # one z-column for the worst residual; fixed alpha adds one pass for its
    # seed and one per pricing round, and verify_stability folds W once more
    inst = random_instance(0, n=12, nz=5, family="bilinear")
    dump_json(inst.surplus.to_dict(), tmp_path / "surplus.json")
    measure_to_csv(inst.mu, tmp_path / "mu.csv")
    measure_to_csv(inst.nu, tmp_path / "nu.csv")
    measure_to_csv(DiscreteMeasure.uniform(inst.z_points), tmp_path / "z.csv")
    cells = []
    value_grid = SurplusModel.value_grid

    def counted(self, xs, ys, zs):
        grid = value_grid(self, xs, ys, zs)
        cells.append(grid.size)
        return grid

    monkeypatch.setattr(SurplusModel, "value_grid", counted)
    passes = []
    fold = solver._residual_fold

    def counted_pass(*args):
        passes.append(args)
        return fold(*args)

    monkeypatch.setattr(solver, "_residual_fold", counted_pass)
    code = main(["diagnose", "--surplus", str(tmp_path / "surplus.json"),
                 "--mu", str(tmp_path / "mu.csv"), "--nu", str(tmp_path / "nu.csv"),
                 *route, str(tmp_path / "z.csv"), "--out", str(tmp_path)])
    assert code == EXIT_OK
    nz = inst.z_points.shape[0]
    grid = inst.mu.size * inst.nu.size * nz
    if route == ["--alpha"]:
        assert 2 <= len(passes) <= 4
        assert sum(cells) == (2 + len(passes)) * grid
    else:
        assert sum(cells) == grid + nz


def test_reduce_subcommand(tmp_path):
    s = BilinearSurplus(A=[[0.0]], B=[[1.0]], C=[[1.0]], D=[[-1.0]])
    dump_json(s.to_dict(), tmp_path / "surplus.json")
    code = main(["reduce",
                 "--surplus", str(tmp_path / "surplus.json"),
                 "--x-grid", "0:1:4", "--y-grid", "0:1:3", "--z-grid", "0:1:5",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    lines = (tmp_path / "reduced.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 4 * 3


def test_reduce_rejects_a_non_finite_surplus(tmp_path, capsys):
    (tmp_path / "surplus.json").write_text(
        '{"family": "bilinear", "A": [[NaN]], "B": [[0.0]], "C": [[0.0]]}\n')
    code = main(["reduce", "--surplus", str(tmp_path / "surplus.json"),
                 "--x-grid", "0:1:2", "--y-grid", "0:1:2", "--z-grid", "0:1:3",
                 "--out", str(tmp_path)])
    assert code == EXIT_BAD_INPUT
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "reduced.csv").exists()


def test_a_reduction_just_over_the_limit_exits_2_before_allocating(tmp_path, monkeypatch,
                                                                   capsys):
    s = BilinearSurplus(A=[[0.0]], B=[[1.0]], C=[[1.0]], D=[[-1.0]])
    dump_json(s.to_dict(), tmp_path / "surplus.json")
    argv = ["reduce", "--surplus", str(tmp_path / "surplus.json"), "--x-grid", "0:1:300",
            "--y-grid", "0:1:200", "--z-grid", "0:1:5", "--out", str(tmp_path)]
    need = reduction._reduce_bytes(300, 200, 5)
    cli.build_parser()

    def traced(limit):
        monkeypatch.setattr(reduction, "LP_BYTES_LIMIT", limit)
        tracemalloc.start()
        try:
            return main(argv), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    code, peak = traced(need - 1)
    assert code == EXIT_BAD_INPUT
    assert "MiB" in capsys.readouterr().err
    assert peak < need // 100
    assert not (tmp_path / "reduced.csv").exists()
    code, peak = traced(need)  # at the estimate it runs, and the estimate covers it
    assert code == EXIT_OK
    assert peak <= need


def test_brute_force_subcommand(tmp_path):
    code = main(["brute-force", "--random-instance", "1", "--n", "3",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    payload = load_json(tmp_path / "brute_force.json")
    assert payload["mode"] == "bipartite"
    inst = random_instance(1, n=3)
    assert len(payload["assignment"]) == 3
    # the search value can only improve on any particular permutation
    grid = inst.surplus.value_grid(inst.mu.points, inst.nu.points,
                                   inst.z_points)
    identity = float(np.max(grid, axis=2).trace()) / 3.0
    assert payload["objective"] >= identity - 1e-12


@pytest.mark.parametrize("example_id", EXAMPLE_IDS)
def test_reproduce_examples_pass(example_id, capsys):
    assert main(["reproduce", example_id]) == EXIT_OK
    out = capsys.readouterr().out
    assert "checks passed" in out
    assert "FAIL" not in out


def test_reproduce_with_parameter(capsys):
    assert main(["reproduce", "counterexample", "--a", "0.5"]) == EXIT_OK
    assert main(["reproduce", "bilinear-tzss-family", "--a", "1.0"]) == EXIT_OK


@pytest.mark.parametrize("example_id", sorted(set(EXAMPLE_IDS) - {
    "counterexample", "bilinear-tzss-family"}))
def test_reproduce_refuses_a_parameter_the_run_ignores(example_id, capsys):
    assert main(["reproduce", example_id, "--a", "0.3"]) == EXIT_BAD_INPUT
    out, err = capsys.readouterr()
    assert "takes no a" in err
    assert out == ""  # no check ran


def _problem_files(tmp_path):
    """Surplus, measure and alpha files of a small seeded market."""
    inst = random_instance(0, n=6, nz=3, family="bilinear")
    dump_json(inst.surplus.to_dict(), tmp_path / "surplus.json")
    for name, measure in (("mu", inst.mu), ("nu", inst.nu),
                          ("alpha", DiscreteMeasure.uniform(inst.z_points))):
        measure_to_csv(measure, tmp_path / f"{name}.csv")
    return {flag: str(tmp_path / f"{flag}.{ext}") for flag, ext in (
        ("surplus", "json"), ("mu", "csv"), ("nu", "csv"), ("alpha", "csv"))}


@pytest.mark.parametrize("command", ["solve", "diagnose", "brute-force"])
@pytest.mark.parametrize("source, extra", [
    ("seed", ["--alpha", "{alpha}"]), ("seed", ["--surplus", "{surplus}"]),
    ("seed", ["--mu", "{mu}"]), ("seed", ["--nu", "{nu}"]),
    ("seed", ["--z-grid", "0:1:3"]), ("seed", ["--z-points", "{alpha}"]),
    ("files", ["--n", "5"]), ("files", ["--nz", "3"]), ("files", ["--family", "expcos"]),
    ("alpha", ["--z-grid", "0:1:3"]), ("alpha", ["--z-points", "{alpha}"]),
])
def test_flags_the_input_source_ignores_are_refused(tmp_path, monkeypatch, capsys,
                                                    command, source, extra):
    files = _problem_files(tmp_path)

    def no_work(*args, **kwargs):
        raise AssertionError("solved with a flag that is ignored")

    for name in ("solve_hybrid", "solve_tripartite_fixed_alpha", "brute_force",
                 "random_instance", "_load_surplus"):
        monkeypatch.setattr(cli, name, no_work)
    argv = {"seed": ["--random-instance", "3"],
            "files": ["--surplus", files["surplus"], "--mu", files["mu"],
                      "--nu", files["nu"], "--z-grid", "0:1:3"],
            "alpha": ["--surplus", files["surplus"], "--mu", files["mu"],
                      "--nu", files["nu"], "--alpha", files["alpha"]]}[source]
    flags = [arg.format(**files) for arg in extra]
    out = tmp_path / "out"
    assert main([command, *argv, *flags, "--out", str(out)]) == EXIT_BAD_INPUT
    assert f"{extra[0]} cannot be used" in capsys.readouterr().err
    assert not out.exists()


def test_run_example_rejects_unknown_id():
    from hedonic_match.repro import run_example
    with pytest.raises(KeyError):
        run_example("no-such-example")


def test_missing_file_is_bad_input(tmp_path, capsys):
    code = main(["solve", "--surplus", str(tmp_path / "nope.json"),
                 "--mu", str(tmp_path / "mu.csv"),
                 "--nu", str(tmp_path / "nu.csv"),
                 "--z-grid", "0:1:3", "--out", str(tmp_path)])
    assert code == EXIT_BAD_INPUT
    assert "error" in capsys.readouterr().err.lower()


def test_bad_grid_is_bad_input(tmp_path, capsys):
    code = main(["solve", "--random-instance", "1", "--out", str(tmp_path),
                 "--z-grid", "0:1"])
    # the seeded instance refuses any grid; the file path reads it
    assert code == EXIT_BAD_INPUT
    s = BilinearSurplus(A=[[1.0]], B=[[0.0]], C=[[0.0]])
    dump_json(s.to_dict(), tmp_path / "surplus.json")
    mu = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
    measure_to_csv(mu, tmp_path / "mu.csv")
    code = main(["solve", "--surplus", str(tmp_path / "surplus.json"),
                 "--mu", str(tmp_path / "mu.csv"),
                 "--nu", str(tmp_path / "mu.csv"),
                 "--z-grid", "0:1", "--out", str(tmp_path)])
    assert code == EXIT_BAD_INPUT


def test_missing_z_axis_is_bad_input(tmp_path):
    s = BilinearSurplus(A=[[1.0]], B=[[0.0]], C=[[0.0]])
    dump_json(s.to_dict(), tmp_path / "surplus.json")
    mu = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
    measure_to_csv(mu, tmp_path / "mu.csv")
    code = main(["solve", "--surplus", str(tmp_path / "surplus.json"),
                 "--mu", str(tmp_path / "mu.csv"),
                 "--nu", str(tmp_path / "mu.csv"),
                 "--out", str(tmp_path)])
    assert code == EXIT_BAD_INPUT


@pytest.mark.parametrize("route", [["solve", "--method", "direct_lp"],
                                   ["solve", "--alpha"],
                                   ["diagnose"],
                                   ["brute-force"],
                                   ["brute-force", "--alpha"]])
def test_non_finite_surplus_is_bad_input_on_three_index_routes(tmp_path, route, capsys):
    (tmp_path / "surplus.json").write_text(
        '{"family": "bilinear", "A": [[NaN]], "B": [[0.0]], "C": [[0.0]]}\n')
    points = [[0.0], [0.5], [1.0]]
    # brute force needs equal weights
    mu = (DiscreteMeasure.uniform(points) if route[0] == "brute-force"
          else DiscreteMeasure(points, [0.25, 0.25, 0.5]))
    measure_to_csv(mu, tmp_path / "mu.csv")
    where = [str(tmp_path / "mu.csv")] if route[-1] == "--alpha" else ["--z-grid", "0:1:3"]
    code = main([*route, *where, "--surplus", str(tmp_path / "surplus.json"),
                 "--mu", str(tmp_path / "mu.csv"), "--nu", str(tmp_path / "mu.csv"),
                 "--out", str(tmp_path)])
    assert code == EXIT_BAD_INPUT
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("route", [["solve"], ["solve", "--method", "direct_lp"],
                                   ["diagnose", "--method", "reduce_lift"]])
def test_infinite_value_off_the_best_goods_is_bad_input(tmp_path, route, capsys):
    # no pair's best good reaches the -inf cell, so sbar is finite but the
    # grid's range is not: reduce_lift solved, and its diagnose wrote no JSON
    values = np.zeros((2, 2, 2))
    values[:, :, 1] = [[2.0, 1.0], [1.0, 2.0]]
    values[0, 1, 0] = -np.inf
    nodes = [0.0, 1.0]
    (tmp_path / "surplus.json").write_text(json.dumps(
        {"family": "tabulated", "values": values.tolist(), "x_nodes": nodes,
         "y_nodes": nodes, "z_nodes": nodes}))  # -Infinity has no strict JSON form
    measure_to_csv(DiscreteMeasure.uniform([[0.0], [1.0]]), tmp_path / "mu.csv")
    code = main([*route, "--z-grid", "0:1:2", "--surplus", str(tmp_path / "surplus.json"),
                 "--mu", str(tmp_path / "mu.csv"), "--nu", str(tmp_path / "mu.csv"),
                 "--out", str(tmp_path)])
    assert code == EXIT_BAD_INPUT
    assert "surplus grid must be finite" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["mu.csv", "surplus.json"]


def test_non_finite_coefficient_is_refused_without_warnings(tmp_path, capsys):
    # inf·0 in the grid printed two numpy RuntimeWarnings before the refusal
    (tmp_path / "surplus.json").write_text(
        '{"family": "bilinear", "A": [[Infinity]], "B": [[0.0]], "C": [[0.0]]}\n')
    measure_to_csv(DiscreteMeasure([[0.0], [0.5], [1.0]], [0.25, 0.25, 0.5]),
                   tmp_path / "mu.csv")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["solve", "--method", "direct_lp", "--z-grid", "0:1:3",
                     "--surplus", str(tmp_path / "surplus.json"),
                     "--mu", str(tmp_path / "mu.csv"), "--nu", str(tmp_path / "mu.csv"),
                     "--out", str(tmp_path)])
    assert code == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert "finite" in err and "Warning" not in err


def test_fixed_alpha_solve_survives_a_drifting_pivot_element(tmp_path):
    # exited 2 with "error: Singular matrix" from a refactorisation
    inst = random_instance(13, n=18, nz=18, family="counterexample")
    dump_json(inst.surplus.to_dict(), tmp_path / "surplus.json")
    for name, m in (("mu", inst.mu), ("nu", inst.nu),
                    ("alpha", DiscreteMeasure.uniform(inst.z_points))):
        measure_to_csv(m, tmp_path / f"{name}.csv")
    code = main(["solve", "--surplus", str(tmp_path / "surplus.json"),
                 "--mu", str(tmp_path / "mu.csv"), "--nu", str(tmp_path / "nu.csv"),
                 "--alpha", str(tmp_path / "alpha.csv"), "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert load_json(tmp_path / "solve_result.json")["method"] == "tripartite_fixed_alpha"


@pytest.mark.parametrize("flag, value", [("--n", "0"), ("--n", "-2"), ("--nz", "0")])
def test_random_instance_refuses_an_empty_size(tmp_path, capsys, flag, value):
    # --n 0 exited 2 on numpy's "zero-size array to reduction operation"
    code = main(["solve", "--random-instance", "3", flag, value, "--out", str(tmp_path)])
    assert code == EXIT_BAD_INPUT
    assert f"{flag[2:]} must be at least 1, got {value}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("method", ["reduce_lift", "direct_lp"])
def test_a_degenerate_dual_does_not_claim_another_optimum(tmp_path, capsys, method):
    # the diagonal, 7/3, is the only optimum (the next best coupling is
    # worth 5/3), but the dual is degenerate and the flag is set
    values = [[[5.0], [3.0], [3.0]], [[1.0], [1.0], [0.0]], [[0.0], [0.0], [1.0]]]
    nodes = [0.0, 1.0, 2.0]
    dump_json({"family": "tabulated", "values": values, "x_nodes": nodes,
               "y_nodes": nodes, "z_nodes": [0.0]}, tmp_path / "surplus.json")
    measure_to_csv(DiscreteMeasure.uniform([[x] for x in nodes]), tmp_path / "mu.csv")
    code = main(["solve", "--method", method, "--z-grid", "0:0:1",
                 "--surplus", str(tmp_path / "surplus.json"), "--mu", str(tmp_path / "mu.csv"),
                 "--nu", str(tmp_path / "mu.csv"), "--out", str(tmp_path)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "objective 2.333333333333333" in out
    assert "other couplings attain the same value" not in out
    assert "dual degenerate: another optimal coupling may exist" in out
    assert load_json(tmp_path / "solve_result.json")["degenerate_optimum"] is True


def test_out_dir_from_environment(tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("HEDONIC_MATCH_OUT", str(target))
    assert main(["solve", "--random-instance", "4"]) == EXIT_OK
    for name in ARTIFACTS:
        assert (target / name).exists()


def test_measure_csv_round_trip_through_cli_formats(tmp_path):
    m = DiscreteMeasure([[0.1, 0.2], [0.4, 0.9]], [1.0 / 3.0, 2.0 / 3.0])
    measure_to_csv(m, tmp_path / "m.csv")
    back = measure_from_csv(tmp_path / "m.csv")
    np.testing.assert_array_equal(back.points, m.points)
    np.testing.assert_array_equal(back.weights, m.weights)


def test_pivot_budget_is_its_own_exit_code(tmp_path, monkeypatch, capsys):
    def give_up(*args, **kwargs):
        raise PivotBudgetExceeded("transport simplex exceeded its pivot budget")

    monkeypatch.setattr(cli, "solve_hybrid", give_up)
    code = main(["solve", "--random-instance", "1", "--out", str(tmp_path)])
    assert code == EXIT_PIVOT_BUDGET
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "pivot budget" in err


# Frees a 25 MiB array, allocates a 24 MiB one and prints whether it came
# from the heap.  glibc raises its mmap threshold to the size of a freed
# mapped block unless a program has fixed the threshold with mallopt.
_MAPPING_PROBE = """
import sys
import numpy as np
from hedonic_match.cli import main
if len(sys.argv) > 1:
    main(["solve", "--random-instance", "1", "--out", sys.argv[1]])
np.ones(25 << 17)
grid = np.ones(24 << 17)
address = grid.__array_interface__["data"][0]
with open("/proc/self/maps") as fh:
    for line in fh:
        lo, hi = (int(a, 16) for a in line.split()[0].split("-"))
        if lo <= address < hi:
            print("[heap]" in line)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux")
                    or platform.libc_ver()[0] != "glibc", reason="glibc only")
def test_main_changes_no_malloc_setting(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))

    def probe(*args):
        run = subprocess.run([sys.executable, "-c", _MAPPING_PROBE, *args],
                             env=env, capture_output=True, text=True, check=True)
        return run.stdout.splitlines()[-1]

    assert probe(str(tmp_path)) == probe()


def _parser_run(argv, out):
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    return {f.name: f.read_bytes() for f in sorted(out.iterdir())}


def test_calls_in_one_process_share_the_parser_and_keep_their_own_defaults(tmp_path):
    market = ["--random-instance", "1", "--n", "12", "--nz", "5"]
    calls = [["solve", *market, "--method", "direct_lp"], ["solve", *market],
             ["diagnose", *market, "--radius", "0.1"], ["diagnose", *market]]
    together = [_parser_run(argv, tmp_path / f"together{t}") for t, argv in enumerate(calls)]
    assert cli.build_parser() is cli.build_parser()
    for t, argv in enumerate(calls):
        cli.build_parser.cache_clear()  # the call's own parser, as in a fresh process
        assert together[t] == _parser_run(argv, tmp_path / f"alone{t}")
    methods = [json.loads(together[t]["solve_result.json"])["method"] for t in (0, 1)]
    assert methods == ["direct_lp", "reduce_lift"]
    reports = [json.loads(together[t]["diagnostics.json"]) for t in (2, 3)]
    assert [r["solve"]["method"] for r in reports] == ["direct_lp", "direct_lp"]
    assert [r["support_dimension"]["radius"] for r in reports] == [0.1, 0.25]


# Counts the argument parsers built by the import and by two main() calls.
_PARSER_COUNT = """
import argparse, contextlib, io, sys
built = 0
init = argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    global built
    built += 1
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counted
from hedonic_match import cli
counts = [built]
for _ in range(2):
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["solve", "--random-instance", "1", "--out", sys.argv[1]])
    counts.append(built)
print(*counts)
"""



def test_the_reduce_estimate_covers_its_own_peak(tmp_path, monkeypatch, capsys):
    s = BilinearSurplus(A=[[0.0]], B=[[1.0]], C=[[1.0]], D=[[-1.0]])
    dump_json(s.to_dict(), tmp_path / "surplus.json")
    argv = ["reduce", "--surplus", str(tmp_path / "surplus.json"), "--x-grid", "0:1:120",
            "--y-grid", "0:1:90", "--z-grid", "0:1:9"]
    cli.build_parser()
    tracemalloc.start()
    try:
        assert main([*argv, "--out", str(tmp_path / "ran")]) == EXIT_OK
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    monkeypatch.setattr(reduction, "LP_BYTES_LIMIT", peak - 1)
    assert main([*argv, "--out", str(tmp_path / "refused")]) == EXIT_BAD_INPUT
    assert "MiB" in capsys.readouterr().err
    assert not (tmp_path / "refused" / "reduced.csv").exists()


def test_running_out_of_memory_exits_2_naming_the_size(tmp_path, monkeypatch, capsys):
    # numpy's own message names the allocation that failed
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.07 GiB for an array with shape "
                          "(12000, 12000) and data type float64")

    monkeypatch.setattr(cli, "solve_hybrid", out_of_memory)
    code = main(["solve", "--random-instance", "1", "--n", "6", "--nz", "3",
                 "--out", str(tmp_path)])
    assert code == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "1.07 GiB" in err

def test_import_builds_no_parser_and_main_builds_one(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", _PARSER_COUNT, str(tmp_path)],
                         env=env, capture_output=True, text=True, check=True)
    at_import, first, second = map(int, run.stdout.split())
    assert at_import == 0
    assert first > 0
    assert second == first


_UNUSED_MODULES = """
import sys
import hedonic_match
from hedonic_match import cli
out = sys.argv[1]
market = ["--random-instance", "1", "--n", "8", "--nz", "5"]
assert cli.main(["solve", *market, "--out", out + "/solve"]) == 0
assert cli.main(["diagnose", "--method", "reduce_lift", *market, "--out", out + "/diagnose"]) == 0
print("loaded:", *(m for m in sys.modules if m.split(".")[:2] in (["numpy", "polynomial"],
                                                                   ["numpy", "ma"])))
"""


def test_solve_and_diagnose_load_neither_numpy_polynomial_nor_numpy_ma(tmp_path):
    # Each costs every process memory and import time for nothing it needs:
    # the surplus polynomials are evaluated by Horner's rule, and in numpy
    # 2.4 a plain np.unique(a) (no return_* flag, no axis) imports numpy.ma
    # (about 1.3 MB) at its first call; the package's np.unique calls pass
    # return_inverse or return_index and load nothing.
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", _UNUSED_MODULES, str(tmp_path)],
                         env=env, capture_output=True, text=True, check=True)
    assert run.stdout.splitlines()[-1].split() == ["loaded:"]


def test_a_reduce_lift_solve_too_large_for_the_limit_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(reduction, "LP_BYTES_LIMIT", 1 << 20)
    code = main(["solve", "--random-instance", "1", "--n", "200", "--nz", "5",
                 "--out", str(tmp_path)])
    assert code == EXIT_BAD_INPUT
    assert "MiB" in capsys.readouterr().err
    assert not (tmp_path / "solve_result.json").exists()
