"""The benchmark's traced run wraps program names by attribute lookup, so a
refactor that renames or drops one of them breaks it.  These tests keep
every wrapped name resolvable."""

import importlib.util
from pathlib import Path

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
