"""Built-in benchmark: one 8 x 8 unit-modulus matrix, ten bounds, three
arguments.

The fixture matrix has entries exp(i t x) for the 0/1 exponent pattern
below. For each t in (pi, pi/2, pi/4) the table is the catalogue of
:func:`bounds.report_rows` (``permbound bounds --partition
"1,2,3|4,5,6|7,8" --composition "3,3,2"`` on the fixture), normalized by
8!: the three operator-norm bounds, the singular-value bound, the
column-norm bound, the pairing and averaged cosine bounds with column pairs
(1,2)(3,4)(5,6)(7,8), the rank bound for sign matrices, and the
block-partition and level-composition bounds with blocks of sizes (3, 3, 2).
Every cell is compared against a stored reference string (rounded up at the
printed precision, seven display digits); the three exact values are
compared as decimal prefixes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import bounds
from .matrixio import BoundRow, from_unit_circle, round_up_decimals

EXPONENTS = np.array(
    [
        [0, 1, 0, 0, 0, 1, 0, 1],
        [0, 0, 1, 1, 0, 0, 1, 0],
        [1, 1, 1, 0, 1, 1, 1, 0],
        [0, 1, 1, 1, 0, 1, 0, 1],
        [1, 0, 0, 0, 0, 0, 0, 1],
        [1, 1, 0, 1, 0, 1, 0, 1],
        [1, 0, 1, 0, 1, 1, 1, 0],
        [0, 0, 1, 1, 0, 1, 0, 1],
    ],
    dtype=float,
)

T_LABELS = ("pi", "pi/2", "pi/4")
T_VALUES = (math.pi, math.pi / 2.0, math.pi / 4.0)

BLOCKS_332 = ((0, 1, 2), (3, 4, 5), (6, 7))
COMPOSITION_332 = (3, 3, 2)

# reference cells, one string per t in T_VALUES order; "n.a." marks a bound
# whose precondition fails at that argument
REFERENCE = (
    ("opnorm_p1", ("416.1016", "416.1016", "416.1016")),
    ("opnorm_pinf", ("416.1016", "416.1016", "416.1016")),
    ("opnorm_p2", ("11.80801", "53.71852", "250.8386")),
    ("singular_mean_power", ("4.194852", "18.99307", "88.68481")),
    ("hadamard_column_norm", ("1", "1", "1")),
    ("pair_cos", ("0.292023", "0.353848", "0.708592")),
    ("avg_cos", ("0.269499", "0.377191", "0.734234")),
    ("krauter_rank", ("0.212699", "n.a.", "n.a.")),
    ("partition_332", ("0.134688", "0.174062", "0.595132")),
    ("composition_332", ("0.134585", "0.245179", "0.670075")),
)

EXACT_PREFIXES = ("0.003968", "0.077976", "0.556344")


def compute_rows(t: float) -> list[BoundRow]:
    """The ten catalogue rows of ``permbound bounds`` on the fixture at one
    argument, with the 3, 3, 2 partition and composition rows."""
    return bounds.report_rows(
        from_unit_circle(EXPONENTS, t), blocks=BLOCKS_332, parts=COMPOSITION_332
    )


def _match_reference(raw: float | None, printed: str) -> tuple[bool, str]:
    """Compare a computed value against a printed reference cell.

    The computed value is rounded up at the printed cell's own decimal
    count and compared as a string (no float parsing)."""
    if printed == "n.a.":
        return raw is None, "n.a." if raw is None else "applicable"
    if raw is None:
        return False, "n.a."
    decimals = len(printed) - printed.index(".") - 1 if "." in printed else 0
    shown = round_up_decimals(raw, decimals)
    return shown == printed, shown


@dataclass(frozen=True)
class Table1Cell:
    name: str
    t_label: str
    raw: float | None
    printed: str
    shown: str
    match: bool


@dataclass(frozen=True)
class Table1Result:
    cells: tuple[Table1Cell, ...]
    exact_cells: tuple[Table1Cell, ...]
    rows_by_t: dict
    passed: bool
    elapsed: float

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "elapsed_seconds": self.elapsed,
            "cells": [
                {
                    "name": c.name,
                    "t": c.t_label,
                    "raw_value": c.raw,
                    "reference": c.printed,
                    "computed": c.shown,
                    "match": c.match,
                }
                for c in (*self.cells, *self.exact_cells)
            ],
        }


def reproduce() -> Table1Result:
    """Recompute the benchmark table and compare all 33 reference cells."""
    start = time.perf_counter()
    rows_by_t = {label: compute_rows(t) for label, t in zip(T_LABELS, T_VALUES)}
    cells = []
    for idx, (name, printed_cells) in enumerate(REFERENCE):
        for label, printed in zip(T_LABELS, printed_cells):
            row = rows_by_t[label][idx]
            match, shown = _match_reference(row.raw_value, printed)
            cells.append(
                Table1Cell(
                    name=name,
                    t_label=label,
                    raw=row.raw_value,
                    printed=printed,
                    shown=shown,
                    match=match,
                )
            )
    exact_cells = []
    for label, prefix in zip(T_LABELS, EXACT_PREFIXES):
        exact = rows_by_t[label][0].exact_norm
        shown = f"{exact:.10f}"
        exact_cells.append(
            Table1Cell(
                name="exact",
                t_label=label,
                raw=exact,
                printed=prefix,
                shown=shown,
                match=shown.startswith(prefix),
            )
        )
    elapsed = time.perf_counter() - start
    passed = all(c.match for c in cells) and all(c.match for c in exact_cells)
    return Table1Result(
        cells=tuple(cells),
        exact_cells=tuple(exact_cells),
        rows_by_t=rows_by_t,
        passed=passed,
        elapsed=elapsed,
    )
