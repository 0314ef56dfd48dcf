"""The benchmark's traced run wraps program names by attribute lookup, so a
refactor that renames or drops one of them breaks it.  These tests keep
every wrapped name resolvable, and each workload's route attributing time
to the layers its per-layer metrics read."""

import importlib.util
from pathlib import Path

import pytest

from hedonic_match import cli, solver
from hedonic_match.instances import random_instance

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves_and_is_put_back():
    spans = _spans()
    targets, coupling = spans._targets()
    before = [vars(owner)[attr] for owner, attr, _, _ in targets]
    before.append(vars(coupling)["from_entries"])
    tracer = spans.Tracer()
    try:
        tracer.install()  # KeyError when a wrapped name is gone
        # 20 functions, SurplusModel.value_grid and Coupling.from_entries
        assert len(tracer._saved) == 22
    finally:
        tracer.remove()
    after = [vars(owner)[attr] for owner, attr, _, _ in targets]
    after.append(vars(coupling)["from_entries"])
    assert all(a is b for a, b in zip(after, before))


def _traced(run):
    tracer = _spans().Tracer()
    tracer.install()
    try:
        run()
    finally:
        tracer.remove()
    return tracer.layers()


@pytest.mark.parametrize("argv, transport", [
    (["solve"], True),
    (["diagnose", "--method", "direct_lp"], False),
    (["diagnose", "--method", "reduce_lift"], True),
], ids=["solve", "diagnose-direct_lp", "diagnose-reduce_lift"])
def test_cli_routes_record_the_coupling_layer(tmp_path, capsys, argv, transport):
    # an epilogue that stopped calling Coupling.from_entries would zero the
    # core.coupling metrics without failing anything else
    layers = _traced(lambda: cli.main([*argv, "--random-instance", "1", "--n", "6",
                                       "--nz", "3", "--out", str(tmp_path)]))
    assert layers["core.coupling"]["count"] > 0
    if transport:
        assert "solver.transport" in layers


def test_max_over_alpha_records_the_coupling_and_transport_layers():
    inst = random_instance(0, n=6, nz=3, family="bilinear")
    layers = _traced(lambda: solver.max_over_alpha(inst.surplus, inst.mu, inst.nu,
                                                   inst.z_points))
    assert layers["core.coupling"]["count"] > 0
    assert "solver.transport" in layers
