"""Workloads of the permbound benchmark: seeded inputs, command lists, checks.

A workload is a fixed list of CLI commands (one *pass*) plus the input files
those commands read. Every input is generated from the benchmark seed, and
every command output is checked against a value the benchmark computes on its
own (a closed form, or an independent Ryser permanent), so a wrong kernel
cannot pass as a fast one.

This module needs numpy but not permbound: the parent process uses it to
know the expected values, the worker process to write the input files.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

# Relative tolerance of an ``exact`` value against its closed form. Measured
# errors at the workload sizes are below 1e-13; the slack covers the Gray-code
# walk's accumulated rounding at n = 20.
EXACT_RTOL = 1e-9
# Relative tolerance of a ``bounds`` report's exact column against the
# benchmark's own Ryser permanent.
EXACT_COLUMN_RTOL = 1e-9

# 0/1 exponent pattern of permbound's built-in 8 x 8 phase benchmark (the
# matrix exp(i t x) of ``permbound table1``), copied so that the input does
# not depend on the program under test.
FIXTURE_EXPONENTS = (
    (0, 1, 0, 0, 0, 1, 0, 1),
    (0, 0, 1, 1, 0, 0, 1, 0),
    (1, 1, 1, 0, 1, 1, 1, 0),
    (0, 1, 1, 1, 0, 1, 0, 1),
    (1, 0, 0, 0, 0, 0, 0, 1),
    (1, 1, 0, 1, 0, 1, 0, 1),
    (1, 0, 1, 0, 1, 1, 1, 0),
    (0, 0, 1, 1, 0, 1, 0, 1),
)

# Sizes of the exact_large commands: the largest that keep one pass near
# 15 s on a 2-core x86 box (the CLI caps, per 24 and haf 20, are hours away).
PER_N = 20
HAF_N = 16
PER_ELL_K = 6
HAF_ELL_N = 15

SUITES = ("charfn", "convolution", "dominance", "equality", "laplace", "master")
TABLE1_CELLS = 33

FIXTURE_ROWS = (
    "opnorm_p1", "opnorm_pinf", "opnorm_p2", "singular_mean_power",
    "hadamard_column_norm", "pair_cos", "avg_cos", "theta_cos",
    "krauter_rank", "ckp_column_mean", "partition_subset_avg",
    "composition_level_avg",
)
DENSE_ROWS = (
    "opnorm_p1", "opnorm_pinf", "opnorm_p2", "singular_mean_power",
    "hadamard_column_norm", "krauter_rank", "ckp_column_mean",
    "partition_subset_avg", "composition_level_avg",
)


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a pass.

    ``name`` is the stem of its per-command time (``<name>_s``), ``argv`` the
    arguments of ``permbound.cli.main``, ``inputs`` the files it reads, and
    ``check`` maps the command's standard output to None (correct) or the
    reason it is wrong.
    """

    name: str
    argv: tuple[str, ...]
    inputs: tuple[str, ...]
    check: Callable[[str], str | None]


@dataclass(frozen=True)
class Workload:
    name: str
    files: dict  # file path -> JSON document
    commands: tuple[Command, ...]

    def write_inputs(self) -> None:
        for path, doc in self.files.items():
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)

    def input_bytes(self) -> int:
        """Bytes of input files one pass reads (a file read twice counts twice)."""
        return sum(os.path.getsize(p) for c in self.commands for p in c.inputs)


# ---------------------------------------------------------------------------
# closed forms


def permanent_d(n: int, neg: int) -> int:
    """Permanent of the n x n all-ones matrix whose first ``neg`` diagonal
    entries are -1: sum_j (-2)^j C(neg, j) (n - j)! (inclusion-exclusion over
    the negated fixed points)."""
    return sum(
        (-2) ** j * math.comb(neg, j) * math.factorial(n - j) for j in range(neg + 1)
    )


def double_factorial(n: int) -> int:
    return math.prod(range(n, 0, -2))


def block_partitions(n: int, ell: int) -> int:
    """Number of partitions of n = ell * m indices into m blocks of size ell."""
    m = n // ell
    return math.factorial(n) // (math.factorial(m) * math.factorial(ell) ** m)


def ryser_permanent(z: np.ndarray) -> complex:
    """Permanent by Ryser's formula over all 2^n column subsets at once.

    The benchmark's own oracle for the exact column of ``bounds`` reports;
    intended for n <= 12.
    """
    n = z.shape[0]
    masks = np.array(list(itertools.product((0, 1), repeat=n)), dtype=float)
    row_sums = masks @ z.T  # [subset, row] = sum of the subset's columns
    signs = (-1.0) ** (n - masks.sum(axis=1))
    return complex((signs * row_sums.prod(axis=1)).sum())


def _product(values) -> complex:
    out = 1.0 + 0.0j
    for v in values:
        out *= complex(v)
    return out


# ---------------------------------------------------------------------------
# generators


def _rng(seed: int, key: int) -> np.random.Generator:
    return np.random.default_rng([seed, key])


def _unit_scale(rng: np.random.Generator, size: int) -> np.ndarray:
    """Complex factors with modulus in [0.75, 1.25] and a uniform phase."""
    return rng.uniform(0.75, 1.25, size) * np.exp(2j * math.pi * rng.random(size))


def _entries_doc(z: np.ndarray) -> dict:
    rows, cols = z.shape
    return {
        "rows": rows,
        "cols": cols,
        "entries": [[{"re": v.real, "im": v.imag} for v in row] for row in z.tolist()],
    }


def _tensor_doc(t: np.ndarray) -> dict:
    def build(node):
        if isinstance(node, list):
            return [build(child) for child in node]
        return {"re": node.real, "im": node.imag}

    return {"shape": list(t.shape), "entries": build(t.tolist())}


def scaled_permanent_d(seed: int, n: int = PER_N) -> tuple[np.ndarray, complex]:
    """diag(r) D diag(c) with D the signed all-ones matrix of :func:`permanent_d`;
    its permanent is prod(r) prod(c) permanent_d(n, neg)."""
    rng = _rng(seed, 1)
    neg = int(rng.integers(0, n + 1))
    r, c = _unit_scale(rng, n), _unit_scale(rng, n)
    d = np.ones((n, n))
    d[np.arange(neg), np.arange(neg)] = -1.0
    z = r[:, None] * d * c[None, :]
    return z, _product(r) * _product(c) * permanent_d(n, neg)


def rank_one_symmetric(seed: int, n: int = HAF_N) -> tuple[np.ndarray, complex]:
    """d d^T; every perfect matching has weight prod(d), so the hafnian is
    (n-1)!! prod(d)."""
    d = _unit_scale(_rng(seed, 2), n)
    return np.outer(d, d), double_factorial(n - 1) * _product(d)


def rank_one_tensor(seed: int, k: int = PER_ELL_K) -> tuple[np.ndarray, complex]:
    """u x v x w of order 3; every pair of bijections contributes
    prod(u) prod(v) prod(w), so the tensor permanent is (k!)^2 times that."""
    rng = _rng(seed, 3)
    u, v, w = (_unit_scale(rng, k) for _ in range(3))
    t = np.einsum("i,j,k->ijk", u, v, w)
    value = math.factorial(k) ** 2 * _product(u) * _product(v) * _product(w)
    return t, value


def rank_one_symmetric_tensor(seed: int, n: int = HAF_ELL_N) -> tuple[np.ndarray, complex]:
    """d x d x d; each partition into blocks of 3 has weight prod(d), so the
    tensor hafnian is n! / (m! (3!)^m) prod(d)."""
    d = _unit_scale(_rng(seed, 4), n)
    t = np.einsum("i,j,k->ijk", d, d, d)
    return t, block_partitions(n, 3) * _product(d)


def dense_matrix(seed: int) -> np.ndarray:
    rng = _rng(seed, 5)
    return rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))


def fixture_matrix() -> np.ndarray:
    return np.exp(1j * math.pi * np.array(FIXTURE_EXPONENTS, dtype=float))


# ---------------------------------------------------------------------------
# output checks


class _Wrong(Exception):
    """An output failed its check."""


def _json(stdout: str):
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise _Wrong(f"output is not JSON: {exc}") from None


def _checked(fn: Callable[[str], None]) -> Callable[[str], str | None]:
    def check(stdout: str) -> str | None:
        try:
            fn(stdout)
        except _Wrong as exc:
            return str(exc)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return f"malformed output: {exc!r}"
        return None

    return check


def _rel_err(got: complex, want: complex) -> float:
    return abs(got - want) / abs(want)


def check_exact(kind: str, shape: tuple[int, ...], want: complex):
    @_checked
    def check(stdout: str) -> None:
        doc = _json(stdout)
        if doc["kind"] != kind or tuple(doc["shape"]) != shape:
            raise _Wrong(f"reported {doc['kind']} {doc['shape']}, expected {kind} {shape}")
        got = complex(doc["value"]["re"], doc["value"]["im"])
        err = _rel_err(got, want)
        if not err <= EXACT_RTOL:
            raise _Wrong(f"{kind} = {got!r}, closed form {want!r}, rel. err. {err:.3g}")

    return check


def check_table1():
    @_checked
    def check(stdout: str) -> None:
        doc = _json(stdout)
        cells = doc["cells"]
        bad = [f"{c['name']}@{c['t']}" for c in cells if c["match"] is not True]
        if len(cells) != TABLE1_CELLS or bad or doc["passed"] is not True:
            raise _Wrong(f"table1: {len(cells)} cells, mismatched {bad}")

    return check


def check_bounds(z: np.ndarray, names: tuple[str, ...]):
    exact = abs(ryser_permanent(z)) / math.factorial(z.shape[0])

    @_checked
    def check(stdout: str) -> None:
        rows = _json(stdout)["rows"]
        got = tuple(r["name"] for r in rows)
        if got != names:
            raise _Wrong(f"rows {got}, expected {names}")
        for r in rows:
            if not r["applicable"]:
                if r["name"] != "krauter_rank":
                    raise _Wrong(f"row {r['name']} reported not applicable")
                continue
            if not _rel_err(r["exact_norm"], exact) <= EXACT_COLUMN_RTOL:
                raise _Wrong(f"exact column {r['exact_norm']!r}, oracle {exact!r}")
            if r["dominates_exact"] is not True or not r["raw_value"] >= exact * (1 - 1e-12):
                raise _Wrong(f"row {r['name']} = {r['raw_value']!r} below exact {exact!r}")

    return check


def check_verify():
    @_checked
    def check(stdout: str) -> None:
        results = _json(stdout)
        names = tuple(r["suite"] for r in results)
        if names != SUITES:
            raise _Wrong(f"suites {names}, expected {SUITES}")
        bad = [r["suite"] for r in results if r["ok"] is not True or r["checks"] < 1]
        if bad:
            raise _Wrong(f"suites not ok: {bad}")

    return check


# ---------------------------------------------------------------------------
# workloads


def _paper_bounds(seed: int, workdir: str) -> Workload:
    fixture = os.path.join(workdir, "fixture8.json")
    dense = os.path.join(workdir, "dense10.json")
    z = dense_matrix(seed)
    files = {
        fixture: {"unit_circle": {"x": [list(r) for r in FIXTURE_EXPONENTS], "t": math.pi}},
        dense: _entries_doc(z),
    }
    commands = (
        Command("table1", ("table1", "--format", "json"), (), check_table1()),
        Command(
            "bounds_fixture",
            ("bounds", "--input", fixture, "--theta", "--all-baselines",
             "--partition", "1,2,3|4,5,6|7,8", "--composition", "3,3,2",
             "--format", "json"),
            (fixture,),
            check_bounds(fixture_matrix(), FIXTURE_ROWS),
        ),
        Command(
            "bounds_composition",
            ("bounds", "--input", dense, "--composition", "4,4,2",
             "--partition", "1,2,3,4|5,6,7,8|9,10", "--all-baselines",
             "--format", "json"),
            (dense,),
            check_bounds(z, DENSE_ROWS),
        ),
    )
    return Workload("paper_bounds", files, commands)


def _exact_large(seed: int, workdir: str) -> Workload:
    files = {}
    commands = []
    for kind, (array, value), doc in (
        ("per", scaled_permanent_d(seed), _entries_doc),
        ("haf", rank_one_symmetric(seed), _entries_doc),
        ("per_ell", rank_one_tensor(seed), _tensor_doc),
        ("haf_ell", rank_one_symmetric_tensor(seed), _tensor_doc),
    ):
        path = os.path.join(workdir, f"{kind}.json")
        files[path] = doc(array)
        commands.append(
            Command(
                f"exact_{kind}",
                ("exact", kind, "--input", path, "--format", "json"),
                (path,),
                check_exact(kind, array.shape, value),
            )
        )
    return Workload("exact_large", files, tuple(commands))


def _verify_default(seed: int, workdir: str) -> Workload:
    # The suites draw their instance sizes from the seed, so the work of one
    # verify run varies by about +-6% between seeds; a pass runs two seeds to
    # halve that variance in the spread across benchmark seeds.
    commands = tuple(
        Command(name, ("verify", "--seed", str(2 * seed + i), "--format", "json"), (), check_verify())
        for i, name in enumerate(("verify", "verify_next"))
    )
    return Workload("verify_default", {}, commands)


WORKLOADS = {
    "paper_bounds": _paper_bounds,
    "exact_large": _exact_large,
    "verify_default": _verify_default,
}


def build(name: str, seed: int, workdir: str) -> Workload:
    """The workload ``name`` for ``seed``, with input files under ``workdir``."""
    return WORKLOADS[name](seed, workdir)
