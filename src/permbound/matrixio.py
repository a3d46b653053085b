"""Matrix, tensor and report file formats, plus display rounding.

Matrix files are JSON in one of three forms:

* ``{"rows": n, "cols": m, "entries": [[{"re": ..., "im": ...}, ...], ...]}``
* ``{"unit_circle": {"x": [[...]], "t": ...}}`` for exp(i t x),
* ``{"polar": {"a": [[...]], "x": [[...]]}}`` for a * exp(i x).

Tensor files carry ``{"shape": [...], "entries": <nested {re, im}>}``.
This module alone reads and writes the ``{"re", "im"}`` cell. Sizes
(``rows``, ``cols``, each ``shape`` item) must be non-negative whole
numbers, and the nesting is checked against them before anything is
allocated. Every number must be finite. A ParseError names its position:
``rows``, ``cols``, ``shape[k]`` or ``entries[i][j]...``, the first bad
cell in C order; the CLI exits 2 on it.

Report rows record one bound each: ``raw_value`` is the double, and
``rounded_up_6dp`` rounds it up at the sixth decimal. Display rounds up at
any number of decimals (:func:`round_up_decimals`: table1's cells, charfn's
bounds) or of mantissa digits (:func:`round_up_scientific`: the ``bounds``
rows). All are exact ceilings of the double, so a printed bound is never
below the raw value.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ParseError


def cells_to_json(a) -> list | dict:
    """Nested lists of ``{"re", "im"}`` cells, one level per axis of ``a``;
    a 0-d array or a scalar gives one cell."""
    a = np.asarray(a, dtype=complex)
    pairs = zip(a.real.ravel().tolist(), a.imag.ravel().tolist())
    cells = [{"re": re, "im": im} for re, im in pairs]
    return np.array(cells, dtype=object).reshape(a.shape).tolist()


def _parse_cell(raw, where: str) -> complex:
    if not isinstance(raw, dict) or "re" not in raw or "im" not in raw:
        raise ParseError("entry needs 're' and 'im'", position=where)
    try:
        value = complex(float(raw["re"]), float(raw["im"]))
    except (TypeError, ValueError):
        raise ParseError("entry values must be numbers", position=where) from None
    except OverflowError:
        raise ParseError("entry values must be finite", position=where) from None
    if not cmath.isfinite(value):
        raise ParseError("entry values must be finite", position=where)
    return value


def _parse_size(raw, where: str) -> int:
    if type(raw) not in (int, float) or raw < 0 or raw % 1:
        raise ParseError(f"expected a non-negative whole number, got {raw!r}", where)
    return int(raw)


def _position(where: str, index) -> str:
    return where + "".join(f"[{i}]" for i in index)


def _cells_from_json(node, shape: tuple[int, ...], where: str) -> np.ndarray:
    """Complex array of ``shape`` from nested lists of cells: the nesting is
    checked level by level before any allocation, then all cells convert at
    once through (re, im) pairs, which keeps -0.0. Only if that fails or finds
    a non-finite value does :func:`_parse_cell` name the first bad cell."""
    level = [node]
    for depth, size in enumerate(shape):
        below = []
        for i, item in enumerate(level):
            if not isinstance(item, list) or len(item) != size:
                raise ParseError(
                    f"expected {size} items along axis {depth} of shape {list(shape)}",
                    position=_position(where, np.unravel_index(i, shape[:depth])),
                )
            below += item
        level = below
    try:
        pairs = np.array([(cell["re"], cell["im"]) for cell in level], dtype=float)
        if pairs.shape == (len(level), 2) and np.isfinite(pairs).all():
            return pairs.view(complex).reshape(shape)
    except (TypeError, KeyError, ValueError, OverflowError):
        pass
    values = [_parse_cell(cell, _position(where, np.unravel_index(i, shape)))
              for i, cell in enumerate(level)]
    try:  # the cells are valid, but a zero-size shape can still be too large
        return np.array(values, dtype=complex).reshape(shape)
    except ValueError:
        raise ParseError(f"shape {list(shape)} is too large", position=where) from None


def _parse_real_grid(raw, where: str) -> np.ndarray:
    try:
        grid = np.asarray(raw, dtype=float)
    except (TypeError, ValueError):
        raise ParseError("expected a rectangular numeric grid", position=where) from None
    if grid.ndim != 2:
        raise ParseError("expected a 2-d grid", position=where)
    bad = np.argwhere(~np.isfinite(grid))
    if len(bad):
        j, r = bad[0]
        raise ParseError("values must be finite", position=f"{where}[{j}][{r}]")
    return grid


def parse_t(raw, where: str) -> float:
    try:
        t = float(raw)
    except (TypeError, ValueError):
        raise ParseError("'t' must be a number", position=where) from None
    if not math.isfinite(t):
        raise ParseError("'t' must be finite", position=where)
    return t


@dataclass(frozen=True)
class MatrixInput:
    """A complex matrix together with how it was specified.

    ``phases`` and ``moduli`` are populated for the unit_circle and polar
    forms (unit_circle implies moduli identically 1); ``t`` is the argument
    of exp(itx) or of a characteristic-function matrix, and the pair rows need it.
    """

    z: np.ndarray
    form: str
    phases: np.ndarray | None = None
    moduli: np.ndarray | None = None
    t: float | None = None

    @property
    def n(self) -> int:
        return self.z.shape[0]


def with_t(loaded, t: float) -> MatrixInput:
    """A unit_circle :class:`MatrixInput` at the argument t (``--t``); any
    other input, another form or a tensor array, has no argument to set."""
    if not isinstance(loaded, MatrixInput) or loaded.form != "unit_circle":
        raise ParseError("--t override requires the unit_circle form")
    return from_unit_circle(loaded.phases, parse_t(t, "--t"))


def from_entries(z) -> MatrixInput:
    return MatrixInput(z=np.asarray(z, dtype=complex), form="entries")


def from_unit_circle(x, t: float) -> MatrixInput:
    phases = np.asarray(x, dtype=float)
    return MatrixInput(
        z=np.exp(1j * float(t) * phases),
        form="unit_circle",
        phases=phases,
        moduli=np.ones_like(phases),
        t=float(t),
    )


def from_polar(a, x) -> MatrixInput:
    moduli = np.asarray(a, dtype=float)
    phases = np.asarray(x, dtype=float)
    if moduli.shape != phases.shape:
        raise ParseError("polar 'a' and 'x' must have equal shapes")
    return MatrixInput(
        z=moduli * np.exp(1j * phases),
        form="polar",
        phases=phases,
        moduli=moduli,
    )


def matrix_from_json(data: dict) -> MatrixInput:
    if not isinstance(data, dict):
        raise ParseError("matrix file must be a JSON object")
    if "unit_circle" in data:
        spec = data["unit_circle"]
        if not isinstance(spec, dict) or "x" not in spec or "t" not in spec:
            raise ParseError("unit_circle needs 'x' and 't'", position="unit_circle")
        x = _parse_real_grid(spec["x"], "unit_circle.x")
        return from_unit_circle(x, parse_t(spec["t"], "unit_circle.t"))
    if "polar" in data:
        spec = data["polar"]
        if not isinstance(spec, dict) or "a" not in spec or "x" not in spec:
            raise ParseError("polar needs 'a' and 'x'", position="polar")
        return from_polar(
            _parse_real_grid(spec["a"], "polar.a"),
            _parse_real_grid(spec["x"], "polar.x"),
        )
    if "entries" in data:
        shape = tuple(_parse_size(data.get(key), key) for key in ("rows", "cols"))
        return from_entries(_cells_from_json(data["entries"], shape, "entries"))
    raise ParseError("matrix file needs 'entries', 'unit_circle' or 'polar'")


def load_json(path):
    """Parse a JSON file; malformed JSON raises ParseError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}", position=str(path)) from None


def tensor_from_json(data: dict) -> np.ndarray:
    if not isinstance(data, dict) or "shape" not in data or "entries" not in data:
        raise ParseError("tensor file needs 'shape' and 'entries'")
    if not isinstance(data["shape"], list):
        raise ParseError("'shape' must be a list of integers", position="shape")
    shape = tuple(
        _parse_size(size, f"shape[{k}]") for k, size in enumerate(data["shape"])
    )
    return _cells_from_json(data["entries"], shape, "entries")


# ---------------------------------------------------------------------------
# rounding and report rows


def round_up_decimals(value: float, decimals: int) -> str:
    """Decimal string of the smallest multiple of 10^-decimals that is >=
    value, computed exactly from the value's integer ratio: never below the
    value, and a value on the grid is printed as it is."""
    if value < 0:
        raise ValueError("display rounding expects non-negative values")
    num, den = value.as_integer_ratio()
    whole, frac = divmod(-(-num * 10**decimals // den), 10**decimals)
    return f"{whole}.{frac:0{decimals}d}" if decimals else str(whole)


def round_up_scientific(value: float, digits: int) -> str:
    """``f"{value:.{digits}e}"`` rounded up instead of to nearest, exactly:
    :func:`round_up_decimals` of the mantissa. A value on the grid is
    printed as it is."""
    exact = Fraction(value)
    e = math.floor(math.log10(value)) if value > 0 else 0
    # 1 <= mantissa < 10, where the float log10 may be one off
    e += (exact >= Fraction(10) ** (e + 1)) - (0 < exact < Fraction(10) ** e)
    mantissa = round_up_decimals(exact / Fraction(10) ** e, digits)
    if mantissa.startswith("10"):  # rounding up carried into a new digit
        mantissa, e = round_up_decimals(1, digits), e + 1
    return f"{mantissa}e{e:+03d}"


def round_up_6dp(value: float) -> float:
    """The double nearest the smallest multiple of 1e-6 that is >= value;
    never below the value, which is a double itself."""
    return float(round_up_decimals(value, 6))


@dataclass
class BoundRow:
    """One bound evaluation in a report.

    ``raw_value`` is normalized (bounds on |per|/n!); ``applicable`` is
    False for bounds whose preconditions the input does not meet, in which
    case the numeric fields are None.
    """

    name: str
    params: dict = field(default_factory=dict)
    raw_value: float | None = None
    applicable: bool = True
    exact_norm: float | None = None
    dominates_exact: bool | None = None

    @property
    def rounded_up_6dp(self) -> float | None:
        if self.raw_value is None:
            return None
        return round_up_6dp(self.raw_value)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "params": self.params,
            "raw_value": self.raw_value,
            "rounded_up_6dp": self.rounded_up_6dp,
            "applicable": self.applicable,
            "dominates_exact": self.dominates_exact,
            "exact_norm": self.exact_norm,
        }


_CSV_COLUMNS = (
    "name",
    "params",
    "raw_value",
    "rounded_up_6dp",
    "applicable",
    "dominates_exact",
    "exact_norm",
)


def report_to_json(rows, meta: dict | None = None) -> dict:
    out = {"rows": [row.to_json() for row in rows]}
    if meta:
        out.update(meta)
    return out


def report_to_csv(rows, columns=_CSV_COLUMNS) -> str:
    """CSV of BoundRows (params as sorted JSON) or of dict rows (a missing
    column is empty), under a header of ``columns``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        if isinstance(row, BoundRow):
            row = row.to_json()
            row["params"] = json.dumps(row["params"], sort_keys=True)
        writer.writerow([row.get(col) for col in columns])
    return buf.getvalue()
