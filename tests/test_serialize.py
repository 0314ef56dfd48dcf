import dataclasses
import json
import math

import numpy as np
import pytest

from hedonic_match import (
    CounterexampleSurplus,
    DiscreteMeasure,
    GridSpec,
    brute_force,
    check_compatibility_1d,
    check_purity,
    compute_prices,
    counterexample_instance,
    random_instance,
    sample_splitting_sets,
    signature,
    solve_hybrid,
    support_dimension,
    verify_stability,
)
from hedonic_match.core import Record, ValidationError
from hedonic_match.serialize import dumps_json

# every artifact's bytes rest on these forms: %.17g floats, sorted string
# keys, ASCII-escaped strings and ", " / ": " separators
GOLDEN = [
    (None, "null"),
    (True, "true"),
    (False, "false"),
    (np.True_, "true"),
    (np.False_, "false"),
    (7, "7"),
    (-12345678901234567890, "-12345678901234567890"),
    (np.int64(-3), "-3"),
    (0.0, "0"),
    (-0.0, "-0"),
    (1.0 / 3.0, "0.33333333333333331"),
    (1e-300, "1e-300"),
    (5e-324, "4.9406564584124654e-324"),
    (np.float32(0.1), "0.10000000149011612"),
    (np.float64(2.5), "2.5"),
    ('say "hi" \\ naïve ∑', '"say \\"hi\\" \\\\ na\\u00efve \\u2211"'),
    ({10: 1, 2: "b", "a": None}, '{"10": 1, "2": "b", "a": null}'),
    ((1, 2.5), "[1, 2.5]"),
    (np.array([[1.0, 2.0], [3.0, 4.5]]), "[[1, 2], [3, 4.5]]"),
    ([], "[]"),
    ({}, "{}"),
    ({"k": [{}, [], ()], "n": [np.int64(1), np.float64(0.5), np.True_]},
     '{"k": [{}, [], []], "n": [1, 0.5, true]}'),
]


@pytest.mark.parametrize("value, text", GOLDEN, ids=[t for _, t in GOLDEN])
def test_dumps_json_golden_bytes(value, text):
    assert dumps_json(value) == text + "\n"


@pytest.mark.parametrize("value", [
    math.nan, math.inf, -math.inf, np.float64(np.nan), np.float32(np.inf),
    [1.0, math.nan], {"a": {"b": -math.inf}},
])
def test_non_finite_values_have_no_json_form(value):
    with pytest.raises(ValidationError, match="non-finite"):
        dumps_json(value)


@pytest.mark.parametrize("value", [{1, 2}, [frozenset()], {"a": object()}])
def test_unknown_types_are_rejected(value):
    with pytest.raises(ValidationError, match="cannot serialize"):
        dumps_json(value)


RECORDS = ["DiscreteMeasure", "GridSpec", "DualPotentials", "StabilityReport",
           "PurityReport", "PriceTable", "TwistReport", "TwistReport-sampled",
           "SupportDimensionReport", "BruteForceResult-bipartite",
           "BruteForceResult-tripartite", "CrossCheck"]


@pytest.fixture(scope="module")
def records():
    """One instance of each record class, built through the public API.  The
    purity report has 12 buyers, whose keys sort otherwise as strings ("10"
    before "2") than as numbers."""
    inst = random_instance(0, n=12, nz=5, family="supermodular")
    s, mu, nu, zs = inst.surplus, inst.mu, inst.nu, inst.z_points
    res = solve_hybrid(s, mu, nu, zs)
    plane = counterexample_instance()
    small = [DiscreteMeasure.uniform(m.points[:3]) for m in (mu, nu)]
    cx = CounterexampleSurplus(0.5)
    return dict(zip(RECORDS, [
        mu,
        GridSpec(0.0, 1.0, 5),
        res.potentials,
        verify_stability(s, res.coupling, res.potentials),
        check_purity(res.coupling, warnings=("a tie",)),
        compute_prices(plane.surplus, plane.coupling, plane.potentials),
        check_compatibility_1d(cx, [([0.75], [0.25], [0.5])]),
        sample_splitting_sets(s, mu.points, res.potentials.V, nu.points, zs)[1],
        support_dimension(res.coupling, radius=0.5, s=s),
        brute_force(s, *small, z_points=zs),
        brute_force(s, *small, alpha=DiscreteMeasure.uniform(zs[:3])),
        signature(cx, [0.75], [0.25], [0.5]).cross_check,
    ]))


@pytest.mark.parametrize("name", RECORDS)
def test_a_records_json_form_is_its_fields_made_plain(records, name):
    record = records[name]
    assert type(record).__name__ == name.split("-")[0]
    assert type(record).to_dict is Record.to_dict
    d = record.to_dict()
    assert list(d) == [f.name for f in dataclasses.fields(record)]
    # a tuple, an array or a non-string key left in the form reads back
    # unequal
    assert json.loads(dumps_json(d)) == d
    if name == "PurityReport":
        assert len(d["fan_out"]) == 12
    if name.startswith("BruteForceResult"):
        assert d["mode"] == name.split("-")[1]
