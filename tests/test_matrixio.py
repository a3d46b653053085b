import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from permbound.errors import ParseError
from permbound.matrixio import (
    BoundRow,
    MatrixInput,
    from_entries,
    from_polar,
    from_unit_circle,
    load_matrix,
    load_tensor,
    matrix_from_json,
    matrix_to_json,
    report_to_csv,
    report_to_json,
    round_up_6dp,
    round_up_decimals,
    tensor_from_json,
    tensor_to_json,
)


def test_entries_roundtrip():
    rng = np.random.default_rng(80)
    z = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    mi = from_entries(z)
    back = matrix_from_json(matrix_to_json(mi))
    assert back.form == "entries"
    assert np.array_equal(back.z, z)


def test_unit_circle_roundtrip_and_t_override():
    rng = np.random.default_rng(81)
    x = rng.standard_normal((4, 4))
    mi = from_unit_circle(x, 0.75)
    assert mi.form == "unit_circle"
    assert np.allclose(mi.z, np.exp(0.75j * x))
    assert np.all(mi.moduli == 1.0)
    back = matrix_from_json(matrix_to_json(mi))
    assert np.array_equal(back.phases, x)
    assert back.t == 0.75
    shifted = mi.with_t(2.0)
    assert np.allclose(shifted.z, np.exp(2.0j * x))
    with pytest.raises(ParseError):
        from_entries(np.eye(2)).with_t(1.0)


def test_polar_roundtrip():
    rng = np.random.default_rng(82)
    a = np.abs(rng.standard_normal((3, 3))) + 0.1
    x = rng.standard_normal((3, 3))
    mi = from_polar(a, x)
    assert np.allclose(mi.z, a * np.exp(1j * x))
    back = matrix_from_json(matrix_to_json(mi))
    assert back.form == "polar"
    assert np.array_equal(back.moduli, a)
    assert np.array_equal(back.phases, x)
    with pytest.raises(ParseError):
        from_polar(np.ones((2, 2)), np.ones((2, 3)))


def test_matrix_from_json_errors():
    with pytest.raises(ParseError):
        matrix_from_json([1, 2])
    with pytest.raises(ParseError):
        matrix_from_json({"nothing": 1})
    with pytest.raises(ParseError):
        matrix_from_json({"unit_circle": {"x": [[0.0]]}})
    with pytest.raises(ParseError):
        matrix_from_json({"unit_circle": {"x": [[0.0]], "t": "later"}})
    with pytest.raises(ParseError):
        matrix_from_json({"unit_circle": {"x": [0.0, 1.0], "t": 1.0}})
    with pytest.raises(ParseError):
        matrix_from_json({"polar": {"a": [[1.0]]}})
    with pytest.raises(ParseError):
        matrix_from_json({"entries": [[]]})
    with pytest.raises(ParseError) as err:
        matrix_from_json(
            {"rows": 1, "cols": 2, "entries": [[{"re": 0.0, "im": 0.0}, {"re": 1.0}]]}
        )
    assert "entries[0][1]" in str(err.value)
    with pytest.raises(ParseError) as err:
        matrix_from_json({"rows": 2, "cols": 1, "entries": [[{"re": 0, "im": 0}]]})
    assert "2" in str(err.value)


@pytest.mark.parametrize(
    "doc, position",
    [
        ({"rows": 1, "cols": 1, "entries": [[{"re": 0.0, "im": float("-inf")}]]},
         "entries[0][0]"),
        ({"unit_circle": {"x": [[0.0, float("nan")], [0.0, 0.0]], "t": 1.0}},
         "unit_circle.x[0][1]"),
        ({"unit_circle": {"x": [[0.0]], "t": float("inf")}}, "unit_circle.t"),
        ({"polar": {"a": [[1.0, 1.0], [float("inf"), 1.0]], "x": [[0.0] * 2] * 2}},
         "polar.a[1][0]"),
        ({"polar": {"a": [[1.0]], "x": [["nan"]]}}, "polar.x[0][0]"),
    ],
)
def test_non_finite_values_rejected(doc, position):
    with pytest.raises(ParseError) as err:
        matrix_from_json(doc)
    assert position in str(err.value)


def test_non_finite_tensor_entry_and_t_override():
    doc = {"shape": [1, 2], "entries": [[{"re": 0.0, "im": 0.0},
                                         {"re": float("nan"), "im": 0.0}]]}
    with pytest.raises(ParseError) as err:
        tensor_from_json(doc)
    assert "entries[0, 1]" in str(err.value)
    mi = from_unit_circle(np.zeros((2, 2)), 1.0)
    with pytest.raises(ParseError) as err:
        mi.with_t(float("nan"))
    assert "--t" in str(err.value)


def test_matrix_file_io(tmp_path):
    path = tmp_path / "m.json"
    mi = from_entries(np.array([[1 + 2j, 0], [3, 4 - 1j]]))
    path.write_text(json.dumps(matrix_to_json(mi)))
    back = load_matrix(path)
    assert np.array_equal(back.z, mi.z)
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    with pytest.raises(ParseError):
        load_matrix(bad)


def test_tensor_roundtrip():
    rng = np.random.default_rng(83)
    t = rng.standard_normal((2, 3, 2)) + 1j * rng.standard_normal((2, 3, 2))
    back = tensor_from_json(tensor_to_json(t))
    assert back.shape == (2, 3, 2)
    assert np.array_equal(back, t)


def test_tensor_from_json_errors():
    with pytest.raises(ParseError):
        tensor_from_json({"entries": []})
    with pytest.raises(ParseError):
        tensor_from_json({"shape": ["a"], "entries": []})
    with pytest.raises(ParseError) as err:
        tensor_from_json({"shape": [2, 2], "entries": [[{"re": 0, "im": 0}], []]})
    assert "entries[0]" in str(err.value)
    with pytest.raises(ParseError) as err:
        tensor_from_json(
            {"shape": [1, 1], "entries": [[{"re": 0.0}]]}
        )
    assert "entries[0, 0]" in str(err.value)


def test_load_tensor(tmp_path):
    path = tmp_path / "t.json"
    t = np.arange(8, dtype=float).reshape(2, 2, 2)
    path.write_text(json.dumps(tensor_to_json(t)))
    assert np.array_equal(load_tensor(path), t)


def test_round_up_6dp_never_below():
    assert round_up_6dp(0.2926225) == pytest.approx(0.292623)
    assert round_up_6dp(1.0) == 1.0
    assert round_up_6dp(0.0000001) == pytest.approx(1e-6)


def test_round_up_6dp_large_values():
    # floats from 2^53 up are integers, so already on the 1e-6 grid
    for value in (2.0**53, 1e100, 1.7e308):
        assert round_up_6dp(value) == value


@given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
def test_round_up_6dp_properties(value):
    out = round_up_6dp(value)
    assert out >= value
    assert out - value < 2e-6


@given(
    st.floats(min_value=1e-8, max_value=1e6, allow_nan=False),
    st.integers(min_value=0, max_value=8),
)
def test_round_up_decimals_never_below(value, decimals):
    shown = round_up_decimals(value, decimals)
    assert len(shown.partition(".")[2]) == decimals
    # the relative fuzz of 1e-9 may keep a value just above the grid point
    assert float(shown) >= value - 1e-9 * max(10.0**-decimals, value)
    assert float(shown) - value <= 10.0**-decimals + 1e-15 * value


def test_bound_row_json():
    row = BoundRow(name="alpha", params={"p": 1}, raw_value=0.1234561)
    doc = row.to_json()
    assert doc["name"] == "alpha"
    assert doc["rounded_up_6dp"] == pytest.approx(0.123457)
    assert doc["applicable"] is True
    na = BoundRow(name="beta", applicable=False)
    doc = na.to_json()
    assert doc["raw_value"] is None
    assert doc["rounded_up_6dp"] is None
    assert doc["applicable"] is False


def test_report_formats():
    rows = [
        BoundRow(name="alpha", params={"p": 1}, raw_value=0.25),
        BoundRow(name="beta", applicable=False),
    ]
    doc = report_to_json(rows, meta={"n": 8})
    assert doc["n"] == 8
    assert [r["name"] for r in doc["rows"]] == ["alpha", "beta"]
    text = report_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == (
        "name,params,raw_value,rounded_up_6dp,"
        "applicable,dominates_exact,exact_norm"
    )
    assert lines[1].startswith("alpha,")
    assert lines[2].startswith("beta,")
    assert len(lines) == 3
