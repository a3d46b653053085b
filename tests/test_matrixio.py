import ast
import json
import math
import pathlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra import numpy as npst

from permbound import matrixio
from permbound.errors import ParseError
from permbound.matrixio import (
    BoundRow,
    MatrixInput,
    cells_to_json,
    from_entries,
    from_polar,
    from_unit_circle,
    load_json,
    matrix_from_json,
    matrix_to_json,
    report_to_csv,
    report_to_json,
    round_up_6dp,
    round_up_decimals,
    round_up_scientific,
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
    assert "entries[0][1]" in str(err.value)
    mi = from_unit_circle(np.zeros((2, 2)), 1.0)
    with pytest.raises(ParseError) as err:
        mi.with_t(float("nan"))
    assert "--t" in str(err.value)


def test_matrix_file_io(tmp_path):
    path = tmp_path / "m.json"
    mi = from_entries(np.array([[1 + 2j, 0], [3, 4 - 1j]]))
    path.write_text(json.dumps(matrix_to_json(mi)))
    back = matrix_from_json(load_json(path))
    assert np.array_equal(back.z, mi.z)
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    with pytest.raises(ParseError) as err:
        matrix_from_json(load_json(bad))
    assert err.value.position == str(bad)


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
    assert "entries[0][0]" in str(err.value)


# finite doubles with the edge cases a cell must carry bit for bit
_EDGE_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -2.2250738585072e-310, 1e308, -1e308]
)


@given(
    npst.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=3).flatmap(
        lambda shape: st.tuples(
            npst.arrays(float, shape, elements=_EDGE_FLOATS),
            npst.arrays(float, shape, elements=_EDGE_FLOATS),
        )
    )
)
def test_tensor_codec_roundtrip_is_bit_identical(parts):
    re, im = parts
    a = np.empty(re.shape, dtype=complex)
    a.real, a.imag = re, im
    back = tensor_from_json(json.loads(json.dumps(tensor_to_json(a))))
    assert back.shape == a.shape and back.dtype == a.dtype
    assert back.tobytes() == a.tobytes()


def test_cells_to_json_scalar_and_zero_size():
    assert cells_to_json(np.complex128(complex(-0.0, 2.5))) == {"re": -0.0, "im": 2.5}
    assert cells_to_json(np.zeros((2, 0, 3))) == [[], []]
    back = tensor_from_json({"shape": [], "entries": {"re": -0.0, "im": -0.0}})
    assert back.shape == () and np.signbit([back.real, back.imag]).all()


_BAD_CELLS = {
    "none_value": ({"re": None, "im": 0.0}, "entry values must be numbers"),
    "missing_im": ({"re": 1.0}, "entry needs 're' and 'im'"),
    "text_value": ({"re": "abc", "im": 0.0}, "entry values must be numbers"),
    "nan_value": ({"re": 0.0, "im": float("nan")}, "entry values must be finite"),
    "list_cell": ([1.0, 2.0], "entry needs 're' and 'im'"),
}


@pytest.mark.parametrize("form", ["matrix", "tensor"])
@pytest.mark.parametrize("bad", sorted(_BAD_CELLS))
def test_first_bad_cell_in_c_order_is_named(form, bad):
    # the later bad cell (2, 0) comes first in column order, (1, 2) in C order
    shape = (3, 3) if form == "matrix" else (2, 3, 3)
    grid = np.array(cells_to_json(np.ones(shape)), dtype=object)
    first = (1, 2) if form == "matrix" else (1, 1, 2)
    later = (2, 0) if form == "matrix" else (1, 2, 0)
    cell, message = _BAD_CELLS[bad]
    grid[first] = grid[later] = cell
    entries = json.loads(json.dumps(grid.tolist()))
    with pytest.raises(ParseError) as err:
        if form == "matrix":
            matrix_from_json({"rows": 3, "cols": 3, "entries": entries})
        else:
            tensor_from_json({"shape": list(shape), "entries": entries})
    position = "entries" + "".join(f"[{i}]" for i in first)
    assert str(err.value) == f"{message} (at {position})"


@pytest.mark.parametrize(
    "doc, position",
    [
        ({"shape": [-1], "entries": []}, "shape[0]"),
        ({"shape": [2.5], "entries": []}, "shape[0]"),
        ({"shape": [2, True], "entries": []}, "shape[1]"),
        ({"shape": "22", "entries": []}, "shape"),
        ({"rows": 1, "cols": -1, "entries": [[]]}, "cols"),
        ({"rows": 1, "cols": 2.7, "entries": [[]]}, "cols"),
        ({"rows": "1", "cols": 1, "entries": [[]]}, "rows"),
    ],
)
def test_sizes_must_be_non_negative_whole_numbers(doc, position):
    read = tensor_from_json if "shape" in doc else matrix_from_json
    with pytest.raises(ParseError) as err:
        read(doc)
    assert err.value.position == position


def test_nesting_is_checked_before_allocation():
    with pytest.raises(ParseError) as err:
        tensor_from_json({"shape": [10**6] * 3, "entries": []})
    assert "shape [1000000, 1000000, 1000000]" in str(err.value)
    assert err.value.position == "entries"
    with pytest.raises(ParseError) as err:
        tensor_from_json({"shape": [0, 10**20], "entries": []})
    assert "shape [0, 100000000000000000000] is too large" in str(err.value)
    assert tensor_from_json({"shape": [0, 3], "entries": []}).shape == (0, 3)
    # a deeper level names its item: here a cell where a list belongs
    cell = {"re": 0, "im": 0}
    with pytest.raises(ParseError) as err:
        tensor_from_json({"shape": [1, 2, 1], "entries": [[[cell], cell]]})
    assert err.value.position == "entries[0][1]"


def test_only_matrixio_spells_the_cell_keys():
    # the {re, im} cell is read and written by matrixio alone
    src = pathlib.Path(matrixio.__file__).parent
    offenders = [
        f"{path.name}:{node.lineno} {node.value!r}"
        for path in sorted(src.glob("*.py"))
        if path.name != "matrixio.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and node.value in ("re", "im")
    ]
    assert offenders == []


def test_load_tensor(tmp_path):
    path = tmp_path / "t.json"
    t = np.arange(8, dtype=float).reshape(2, 2, 2)
    path.write_text(json.dumps(tensor_to_json(t)))
    assert np.array_equal(tensor_from_json(load_json(path)), t)


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
@example(444690.1304783302, 8)
@example(1234567.891, 6)
@example(2.0**53, 6)
@example(1.7e308, 6)
def test_round_up_decimals_never_below(value, decimals):
    shown = round_up_decimals(value, decimals)
    assert len(shown.partition(".")[2]) == decimals
    assert Fraction(shown) >= Fraction(value)
    assert float(shown) - value <= 10.0**-decimals + 1e-15 * value


@pytest.mark.parametrize(
    "value, digits, shown",
    [
        (0.0, 9, "0.000000000e+00"),
        (1.0, 9, "1.000000000e+00"),  # on the grid
        (math.nextafter(1.0, 2.0), 9, "1.000000001e+00"),  # just above
        (math.nextafter(1.0, 0.0), 9, "1.000000000e+00"),  # just below: carries
        (9.765625e-4, 9, "9.765625000e-04"),
        (math.nextafter(9.765625e-4, 1.0), 9, "9.765625001e-04"),
        (math.nextafter(9.765625e-4, 0.0), 9, "9.765625000e-04"),
        (0.1, 9, "1.000000001e-01"),  # the double is above 1/10
        (0.2 + 0.1, 0, "4e-01"),
        (5e-324, 9, "4.940656459e-324"),  # least subnormal; nearest ends in 8
        (math.ldexp(1.0, -1070), 9, "7.905050334e-323"),
        (1.7976931348623157e308, 9, "1.797693135e+308"),
    ],
)
def test_round_up_scientific_at_grid_points(value, digits, shown):
    assert round_up_scientific(value, digits) == shown


@given(
    st.one_of(
        st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
        st.integers(0, 2**52).map(lambda m: m * 5e-324),  # subnormals
    ),
    st.integers(min_value=0, max_value=12),
)
def test_round_up_scientific_is_the_ceiling(value, digits):
    # Python's rounding to nearest where that is not below the value, else
    # one step of its last digit above it
    shown, nearest = round_up_scientific(value, digits), f"{value:.{digits}e}"
    if Fraction(nearest) >= Fraction(value):
        assert shown == nearest
    else:
        step = Fraction(10) ** (int(nearest.partition("e")[2]) - digits)
        assert Fraction(shown) == Fraction(nearest) + step


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
