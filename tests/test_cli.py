import json
import platform
import sys

import numpy as np
import pytest

from hedonic_match import cli
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
from hedonic_match.solver import PivotBudgetExceeded
from hedonic_match.surplus import BilinearSurplus, surplus_from_dict

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


def test_diagnose_counterexample_family(tmp_path):
    code = main(["diagnose", "--random-instance", "7",
                 "--family", "counterexample", "--out", str(tmp_path)])
    assert code == EXIT_OK
    report = load_json(tmp_path / "diagnostics.json")
    assert "tzss_bilinear" in report["twists"]
    assert "compatibility" in report["twists"]


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
    # the seeded instance ignores the grid; force the file path instead
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


def _mapping_of(address: int) -> str:
    with open("/proc/self/maps") as fh:
        for line in fh:
            lo, hi = (int(a, 16) for a in line.split()[0].split("-"))
            if lo <= address < hi:
                return line
    raise AssertionError(f"{address:#x} is in no mapping")


@pytest.mark.skipif(not sys.platform.startswith("linux")
                    or platform.libc_ver()[0] != "glibc", reason="glibc only")
def test_main_keeps_large_arrays_off_the_heap(tmp_path):
    main(["solve", "--random-instance", "1", "--out", str(tmp_path)])
    # Freeing a 25 MiB mapping would lift glibc's dynamic threshold above
    # the next array, which then came from the heap.
    np.ones(25 << 17)
    grid = np.ones(3 << 20)
    assert "[heap]" not in _mapping_of(grid.ctypes.data)
