import math

import numpy as np
import pytest

from hedonic_match.core import ValidationError
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
