"""Matrix and tensor file writers: the inverses of ``matrixio``'s readers,
which the tests use to build input files."""

import numpy as np

from permbound.matrixio import MatrixInput, cells_to_json


def matrix_to_json(mi: MatrixInput) -> dict:
    if mi.form == "unit_circle":
        return {"unit_circle": {"x": mi.phases.tolist(), "t": mi.t}}
    if mi.form == "polar":
        return {"polar": {"a": mi.moduli.tolist(), "x": mi.phases.tolist()}}
    rows, cols = mi.z.shape
    return {"rows": rows, "cols": cols, "entries": cells_to_json(mi.z)}


def tensor_to_json(t) -> dict:
    a = np.asarray(t, dtype=complex)
    return {"shape": list(a.shape), "entries": cells_to_json(a)}
