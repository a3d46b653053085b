"""Matrix, tensor and report file formats, plus display rounding.

Matrix files are JSON in one of three forms:

* ``{"rows": n, "cols": m, "entries": [[{"re": ..., "im": ...}, ...], ...]}``
* ``{"unit_circle": {"x": [[...]], "t": ...}}`` for exp(i t x),
* ``{"polar": {"a": [[...]], "x": [[...]]}}`` for a * exp(i x).

Tensor files carry ``{"shape": [...], "entries": <nested {re, im}>}``.
Every number must be finite; NaN or an infinity is a ParseError naming its
position.

Report rows record one bound each: ``raw_value`` is the double, and
``rounded_up_6dp`` rounds it up at the sixth decimal (never below the raw
value). Table display rounds up at any number of decimals
(:func:`round_up_decimals`), the precision of each printed cell.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError


def _cell(value: complex) -> dict:
    return {"re": float(value.real), "im": float(value.imag)}


def _parse_cell(raw, where: str) -> complex:
    if not isinstance(raw, dict) or "re" not in raw or "im" not in raw:
        raise ParseError("entry needs 're' and 'im'", position=where)
    try:
        value = complex(float(raw["re"]), float(raw["im"]))
    except (TypeError, ValueError):
        raise ParseError("entry values must be numbers", position=where) from None
    if not cmath.isfinite(value):
        raise ParseError("entry values must be finite", position=where)
    return value


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


def _parse_t(raw, where: str) -> float:
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
    forms (unit_circle implies moduli identically 1); ``t`` only for
    unit_circle.
    """

    z: np.ndarray
    form: str
    phases: np.ndarray | None = None
    moduli: np.ndarray | None = None
    t: float | None = None

    @property
    def n(self) -> int:
        return self.z.shape[0]

    def with_t(self, t: float) -> "MatrixInput":
        """Re-evaluate a unit_circle input at a different argument."""
        if self.form != "unit_circle":
            raise ParseError("--t override requires the unit_circle form")
        return from_unit_circle(self.phases, _parse_t(t, "--t"))


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
        return from_unit_circle(x, _parse_t(spec["t"], "unit_circle.t"))
    if "polar" in data:
        spec = data["polar"]
        if not isinstance(spec, dict) or "a" not in spec or "x" not in spec:
            raise ParseError("polar needs 'a' and 'x'", position="polar")
        return from_polar(
            _parse_real_grid(spec["a"], "polar.a"),
            _parse_real_grid(spec["x"], "polar.x"),
        )
    if "entries" in data:
        try:
            rows = int(data["rows"])
            cols = int(data["cols"])
        except (KeyError, TypeError, ValueError):
            raise ParseError("entries form needs integer 'rows' and 'cols'") from None
        grid = data["entries"]
        if not isinstance(grid, list) or len(grid) != rows:
            raise ParseError(f"expected {rows} entry rows", position="entries")
        z = np.zeros((rows, cols), dtype=complex)
        for j, row in enumerate(grid):
            if not isinstance(row, list) or len(row) != cols:
                raise ParseError(
                    f"expected {cols} entries", position=f"entries[{j}]"
                )
            for r, raw in enumerate(row):
                z[j, r] = _parse_cell(raw, f"entries[{j}][{r}]")
        return from_entries(z)
    raise ParseError("matrix file needs 'entries', 'unit_circle' or 'polar'")


def matrix_to_json(mi: MatrixInput) -> dict:
    if mi.form == "unit_circle":
        return {"unit_circle": {"x": mi.phases.tolist(), "t": mi.t}}
    if mi.form == "polar":
        return {"polar": {"a": mi.moduli.tolist(), "x": mi.phases.tolist()}}
    rows, cols = mi.z.shape
    return {
        "rows": rows,
        "cols": cols,
        "entries": [[_cell(v) for v in row] for row in mi.z],
    }


def load_json(path):
    """Parse a JSON file; malformed JSON raises ParseError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}", position=str(path)) from None


def load_matrix(path) -> MatrixInput:
    return matrix_from_json(load_json(path))


def tensor_from_json(data: dict) -> np.ndarray:
    if not isinstance(data, dict) or "shape" not in data or "entries" not in data:
        raise ParseError("tensor file needs 'shape' and 'entries'")
    try:
        shape = tuple(int(s) for s in data["shape"])
    except (TypeError, ValueError):
        raise ParseError("'shape' must be a list of integers", position="shape") from None
    out = np.zeros(shape, dtype=complex)

    def fill(node, idx: tuple[int, ...]):
        depth = len(idx)
        if depth == len(shape):
            out[idx] = _parse_cell(node, f"entries{list(idx)}")
            return
        if not isinstance(node, list) or len(node) != shape[depth]:
            raise ParseError(
                f"expected {shape[depth]} items at depth {depth}",
                position=f"entries{list(idx)}",
            )
        for i, child in enumerate(node):
            fill(child, idx + (i,))

    fill(data["entries"], ())
    return out


def tensor_to_json(t) -> dict:
    a = np.asarray(t, dtype=complex)

    def build(idx: tuple[int, ...]):
        depth = len(idx)
        if depth == a.ndim:
            return _cell(a[idx])
        return [build(idx + (i,)) for i in range(a.shape[depth])]

    return {"shape": list(a.shape), "entries": build(())}


def load_tensor(path) -> np.ndarray:
    return tensor_from_json(load_json(path))


# ---------------------------------------------------------------------------
# rounding and report rows


def round_up_6dp(value: float) -> float:
    """Smallest multiple of 1e-6 that is >= value (never below it)."""
    if 2.0**53 <= value < math.inf:  # an integer: on the grid, and * 1e6 may overflow
        return value
    out = math.ceil(value * 1e6) / 1e6
    if out < value:
        out += 1e-6
    return out


def round_up_decimals(value: float, decimals: int) -> str:
    """Decimal string of value rounded up at ``decimals`` decimals.

    A relative fuzz of 1e-9 keeps values that are mathematically on the
    rounding grid from being pushed up a step by floating noise.
    """
    if value < 0:
        raise ValueError("display rounding expects non-negative values")
    scaled = value * 10**decimals
    scaled = math.ceil(scaled - 1e-9 * max(1.0, scaled))
    if decimals == 0:
        return str(scaled)
    text = f"{scaled:0{decimals + 1}d}"
    return f"{text[:-decimals]}.{text[-decimals:]}"


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


def report_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for row in rows:
        data = row.to_json()
        data["params"] = json.dumps(data["params"], sort_keys=True)
        writer.writerow([data[col] for col in _CSV_COLUMNS])
    return buf.getvalue()
