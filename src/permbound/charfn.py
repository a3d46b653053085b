"""Characteristic functions of permutation-diagonal sums of random variables.

A :class:`DiagonalSumModel` is an n x n grid of independent scalar
distributions. With a uniformly random permutation pi independent of the
grid, the model's statistic is S = sum_j X[j, pi(j)], and its characteristic
function is the permanent of the entrywise characteristic function matrix
divided by n!. The pairing and averaged bounds on |E exp(itS)| are
:func:`bounds.pair_bound` and :func:`bounds.avg_pair_bound` applied to that
matrix: they use only second moments of products of two entrywise
characteristic functions, and for odd n both carry an extra single-column
factor.

The Monte Carlo check samples every grid entry independently (independent
rows would suffice for the theory; the simulator uses the stricter fully
independent grid) with a counter-based generator, and shuffles via
Fisher-Yates. Seeds and standard errors are recorded in the result.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from .errors import DomainError, FeasibilityError, ParseError
from .exact import permanent
from .matrixio import load_json

EXACT_MAX_N = 12

# The distribution families and their parameter names, in draw order.
_PARAM_NAMES = {
    "point_mass": ("x",),
    "bernoulli": ("p",),
    "uniform": ("a", "b"),
    "normal": ("mean", "variance"),
}


@dataclass(frozen=True)
class Distribution:
    """Scalar distribution from a closed family with an analytic
    characteristic function."""

    family: str
    params: tuple[float, ...]

    def __post_init__(self):
        names = _PARAM_NAMES.get(self.family)
        if names is None:
            raise DomainError(f"unknown family {self.family!r}")
        p = tuple(float(v) for v in self.params)
        object.__setattr__(self, "params", p)
        if len(p) != len(names):
            raise DomainError(
                f"{self.family} takes parameters ({', '.join(names)}), got {len(p)}"
            )
        if self.family == "bernoulli" and not 0.0 <= p[0] <= 1.0:
            raise DomainError("bernoulli takes one parameter p in [0, 1]")
        if self.family == "uniform" and not p[0] < p[1]:
            raise DomainError("uniform takes parameters (a, b) with a < b")
        if self.family == "normal" and p[1] < 0.0:
            raise DomainError("normal takes (mean, variance >= 0)")

    def char(self, t: float) -> complex:
        """Characteristic function E exp(itX) at a real argument."""
        if self.family == "point_mass":
            return cmath.exp(1j * t * self.params[0])
        if self.family == "bernoulli":
            p = self.params[0]
            return 1.0 - p + p * cmath.exp(1j * t)
        if self.family == "uniform":
            a, b = self.params
            if t == 0.0:
                return 1.0 + 0.0j
            return (cmath.exp(1j * t * b) - cmath.exp(1j * t * a)) / (
                1j * t * (b - a)
            )
        mu, var = self.params
        return cmath.exp(1j * t * mu - 0.5 * var * t * t)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.family == "point_mass":
            return np.full(size, self.params[0])
        if self.family == "bernoulli":
            return (rng.random(size) < self.params[0]).astype(float)
        if self.family == "uniform":
            a, b = self.params
            return rng.uniform(a, b, size)
        mu, var = self.params
        return rng.normal(mu, math.sqrt(var), size)


def point_mass(x: float) -> Distribution:
    return Distribution("point_mass", (x,))


def bernoulli(p: float) -> Distribution:
    return Distribution("bernoulli", (p,))


def uniform(a: float, b: float) -> Distribution:
    return Distribution("uniform", (a, b))


def normal(mean: float, variance: float) -> Distribution:
    return Distribution("normal", (mean, variance))


class DiagonalSumModel:
    """Square grid of independent distributions for the statistic
    S = sum_j X[j, pi(j)] with pi uniform on permutations."""

    def __init__(self, cells: Sequence[Sequence[Distribution]]):
        rows = tuple(tuple(row) for row in cells)
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise DomainError("model grid must be square and nonempty")
        for row in rows:
            for cell in row:
                if not isinstance(cell, Distribution):
                    raise DomainError("grid cells must be Distribution values")
        self.cells = rows
        self.n = n

    def charfn_matrix(self, t: float) -> np.ndarray:
        """Entrywise characteristic function matrix at argument t."""
        out = np.empty((self.n, self.n), dtype=complex)
        for j, row in enumerate(self.cells):
            for r, cell in enumerate(row):
                out[j, r] = cell.char(t)
        return out

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "cells": [
                [
                    {
                        "family": cell.family,
                        "params": dict(
                            zip(_PARAM_NAMES[cell.family], cell.params)
                        ),
                    }
                    for cell in row
                ]
                for row in self.cells
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "DiagonalSumModel":
        if not isinstance(data, dict) or "cells" not in data:
            raise ParseError("model file needs a 'cells' grid")
        if not isinstance(data["cells"], list):
            raise ParseError("model grid must be a list of rows", position="cells")
        cells = []
        for j, row in enumerate(data["cells"]):
            if not isinstance(row, list):
                raise ParseError(
                    "model row must be a list of cells", position=f"cells[{j}]"
                )
            parsed = []
            for r, cell in enumerate(row):
                where = f"cells[{j}][{r}]"
                if not isinstance(cell, dict) or "family" not in cell:
                    raise ParseError("cell needs a 'family'", position=where)
                family = cell["family"]
                if family not in _PARAM_NAMES:
                    raise ParseError(
                        f"unknown family {family!r}", position=where
                    )
                raw = cell.get("params", {})
                try:
                    params = tuple(
                        float(raw[name]) for name in _PARAM_NAMES[family]
                    )
                except (KeyError, TypeError, ValueError) as exc:
                    raise ParseError(
                        f"bad params for {family}: {exc}", position=where
                    ) from None
                for name, value in zip(_PARAM_NAMES[family], params):
                    if not math.isfinite(value):
                        raise ParseError(
                            "params must be finite", position=f"{where}.{name}"
                        )
                try:
                    parsed.append(Distribution(family, params))
                except DomainError as exc:
                    raise ParseError(str(exc), position=where) from None
            cells.append(parsed)
        try:
            return cls(cells)
        except DomainError as exc:
            raise ParseError(str(exc)) from None


def load_model(path) -> DiagonalSumModel:
    """Read a model grid from a JSON file."""
    return DiagonalSumModel.from_json(load_json(path))


def exact_charfn(model: DiagonalSumModel, t: float) -> complex:
    """E exp(itS) = per(entrywise characteristic matrix) / n!.

    Exponential in n; refuses n > EXACT_MAX_N.
    """
    if model.n > EXACT_MAX_N:
        raise FeasibilityError(
            f"exact evaluation needs n <= {EXACT_MAX_N}, got {model.n}"
        )
    phi = model.charfn_matrix(t)
    return permanent(phi) / math.factorial(model.n)


@dataclass(frozen=True)
class MonteCarloResult:
    """Monte Carlo estimate of E exp(itS) with per-component standard errors."""

    estimate: complex
    stderr_re: float
    stderr_im: float
    trials: int
    seed: int


def monte_carlo_charfn(
    model: DiagonalSumModel, t: float, *, trials: int = 100_000, seed: int = 0
) -> MonteCarloResult:
    """Estimate E exp(itS) by simulation.

    Samples the full grid independently (row-major cell order), draws the
    permutation by Fisher-Yates shuffling, and averages exp(itS). The
    generator is counter-based (Philox) so runs are reproducible from the
    recorded seed.
    """
    if trials < 2:
        raise DomainError("need at least 2 trials")
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    n = model.n
    rng = np.random.Generator(np.random.Philox(seed))
    draws = np.empty((trials, n, n))
    for j, row in enumerate(model.cells):
        for r, cell in enumerate(row):
            draws[:, j, r] = cell.sample(rng, trials)
    perms = rng.permuted(
        np.broadcast_to(np.arange(n), (trials, n)).copy(), axis=1
    )
    picked = np.take_along_axis(draws, perms[:, :, None], axis=2)[:, :, 0]
    values = np.exp(1j * t * picked.sum(axis=1))
    estimate = complex(values.mean())
    return MonteCarloResult(
        estimate=estimate,
        stderr_re=float(values.real.std(ddof=1) / math.sqrt(trials)),
        stderr_im=float(values.imag.std(ddof=1) / math.sqrt(trials)),
        trials=trials,
        seed=seed,
    )
