"""Set functions on subset lattices, their convolution, and inequality checks.

A :class:`SetFunction` stores one value per l-tuple of fixed-size subsets of
l ground sets, densely indexed by lexicographic subset rank. Its table may
carry leading batch axes (one row per trial) before the l cell axes: the
convolution, mean squares, inequality check and equality classifier act row
by row, reducing over the trailing cell axes only, and an unbatched table
is the one-row case. The central operation is the size-restricted subset
convolution

    p(J) = sum over I <= J with |I| = j of g(I) * h(J \\ I)

(componentwise over the l axes), whose mean-square is dominated by the
product of the factor mean-squares after dividing by the number of terms.
It is one gather over cached per-axis tables of the ranks of I and J \\ I,
read from the subset order of :mod:`combinatorics`.
:func:`verify_convolution_inequality` checks that inequality on explicit
tables of any arity and :func:`equality_conditions` flags, per row, the
structural equality conditions an arity-1 instance satisfies
(:func:`classify_equality` names them). The block-product generalization
sums, over ordered partitions of J, products of factor values: R(J), the
iterated convolution of the factors.
:func:`generalized_R` is its one single-cell evaluation (the expansion
identities of :mod:`exact` call it on the full index sets) and
:func:`verify_master_inequality` its mean-square bound over every J at
once; both take unbatched factors.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .combinatorics import (
    as_index_set,
    multinomial,
    subset_count,
    subset_rank,
    subset_ranks,
    subset_table,
)
from .errors import DomainError

HOLD_RTOL = 1e-12
EQ_RTOL = 1e-10


def _normalize_arg(subsets, arity: int):
    """Accept a bare subset for arity 1, else a tuple of subsets."""
    if arity == 1 and all(isinstance(e, int) for e in subsets):
        return (tuple(subsets),)
    out = tuple(tuple(s) for s in subsets)
    if len(out) != arity:
        raise DomainError(f"expected {arity} subsets, got {len(out)}")
    return out


def _unbatched(x):
    """A 0-d result as a Python float or bool, a batched one as its array."""
    return np.asarray(x).item() if np.ndim(x) == 0 else x


class SetFunction:
    """Dense table over products of fixed-size subset levels.

    sizes[s] is the ground set size of axis s and levels[s] the subset size;
    the trailing axes of the table have shape (C(sizes[s], levels[s]))_s with
    cells addressed by lexicographic subset rank per axis. Leading axes, if
    any, are batch axes: one set function per row.
    """

    def __init__(self, sizes, levels, table):
        self.sizes = (sizes,) if isinstance(sizes, int) else tuple(sizes)
        self.levels = (levels,) if isinstance(levels, int) else tuple(levels)
        if len(self.sizes) != len(self.levels) or not self.sizes:
            raise DomainError("sizes and levels must be equal-length, nonempty")
        for n, j in zip(self.sizes, self.levels):
            if not 0 <= j <= n:
                raise DomainError(f"level {j} outside [0, {n}]")
        shape = tuple(subset_count(n, j) for n, j in zip(self.sizes, self.levels))
        self.table = np.asarray(table)
        if self.table.shape[self.table.ndim - len(shape):] != shape:
            raise DomainError(f"table shape {self.table.shape} does not end in {shape}")

    @property
    def arity(self) -> int:
        return len(self.sizes)

    @property
    def rows(self) -> np.ndarray:
        """The table, C-ordered, with its cell axes flattened into one trailing
        axis, so that a row reduces in the order of its unbatched table."""
        batch = self.table.shape[: self.table.ndim - self.arity]
        cells = math.prod(self.table.shape[len(batch):])
        return np.ascontiguousarray(self.table).reshape(*batch, cells)

    def value(self, subsets):
        """Value at an l-tuple of subsets (bare subset allowed for arity 1);
        one value per row for a batched table."""
        args = _normalize_arg(subsets, self.arity)
        for axis, (sub, j) in enumerate(zip(args, self.levels)):
            if len(sub) != j:
                raise DomainError(f"axis {axis}: subset of size {len(sub)} at level {j}")
        ranks = tuple(subset_rank(s, n) for s, n in zip(args, self.sizes))
        return self.table[(..., *ranks)]

    def mean_square(self):
        """Mean of |value|^2 over the cells of each row."""
        return _unbatched((np.abs(self.rows) ** 2).mean(axis=-1))

    def is_nonnegative(self):
        """Whether each row is real and >= 0: equal to its modulus, cell by cell."""
        return _unbatched((self.rows == np.abs(self.rows)).all(axis=-1))


@functools.lru_cache(maxsize=None)
def _split_ranks(n: int, k: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Tables [a, b] of the ranks of I and of J \\ I, for J the a-th k-subset
    of range(n) and I the b-th j-subset of J. I sits at the b-th j-subset of
    positions in J, J \\ I at its complement: the (C(k, j) - 1 - b)-th
    (k - j)-subset of positions."""
    big = subset_table(n, k)
    positions = (subset_table(k, j), subset_table(k, k - j)[:, ::-1])
    return tuple(subset_ranks(big[p], n).T.astype(np.intp) for p in positions)


def subset_convolution(g: SetFunction, h: SetFunction) -> SetFunction:
    """Size-restricted subset convolution of two set functions.

    Both factors must share ground sets; the result lives at the
    componentwise level sum: p(J) = sum over I <= J with |I_s| = g.levels[s]
    of g(I) * h(J \\ I). Batch axes broadcast against each other.
    """
    if g.sizes != h.sizes:
        raise DomainError("factors must share ground sets")
    out_levels = tuple(a + b for a, b in zip(g.levels, h.levels))
    for n, k in zip(g.sizes, out_levels):
        if k > n:
            raise DomainError(f"combined level {k} exceeds ground size {n}")
    arity = g.arity
    # axis s: output cell at position s, split term at arity + s, after the batch axes
    idx = []
    for s, (n, k, j) in enumerate(zip(g.sizes, out_levels, g.levels)):
        shape = [1] * (2 * arity)
        shape[s], shape[arity + s] = math.comb(n, k), math.comb(k, j)
        idx.append([ranks.reshape(shape) for ranks in _split_ranks(n, k, j)])
    gidx, hidx = ((slice(None),) * (f.table.ndim - arity) + ix for f, ix in zip((g, h), zip(*idx)))
    dtype = np.result_type(g.table.dtype, h.table.dtype, float)
    terms = np.multiply(g.table[gidx], h.table[hidx], dtype=dtype, order="C")
    table = terms.sum(axis=tuple(range(-arity, 0)))
    return SetFunction(g.sizes, out_levels, table)


@dataclass(frozen=True)
class ConvolutionCheck:
    """Outcome of one convolution inequality evaluation: floats and bools
    for unbatched factors, arrays over the batch axes otherwise."""

    lhs: float | np.ndarray
    rhs: float | np.ndarray
    holds: bool | np.ndarray
    equal: bool | np.ndarray


def verify_convolution_inequality(g: SetFunction, h: SetFunction) -> ConvolutionCheck:
    """Check the convolution mean-square inequality at any arity.

    For non-negative g, h the mean over J of
    (p(J) / prod_s C(k_s, j_s))^2 is at most the product of the factor
    mean squares; ``holds`` allows the slack HOLD_RTOL * rhs. Each row of
    batched factors is one instance.
    """
    if not np.all(g.is_nonnegative() & h.is_nonnegative()):
        raise DomainError("inequality requires non-negative set functions")
    p = subset_convolution(g, h)
    scale = math.prod(map(math.comb, p.levels, g.levels))
    lhs = (np.abs(p.rows.real / scale) ** 2).mean(axis=-1)
    rhs = g.mean_square() * h.mean_square()
    holds = lhs <= rhs + HOLD_RTOL * rhs
    equal = np.abs(lhs - rhs) <= EQ_RTOL * np.maximum(np.maximum(lhs, rhs), 1e-300)
    return ConvolutionCheck(*map(_unbatched, (lhs, rhs, holds, equal)))


EQUALITY_CONDITIONS = (
    "degenerate_level", "g_zero", "h_zero", "complement_proportional", "both_constant"
)


def equality_conditions(g: SetFunction, h: SetFunction) -> np.ndarray:
    """Structural conditions under which the convolution inequality is tight.

    Returns booleans of shape batch + (5,), one flag per name of
    :data:`EQUALITY_CONDITIONS`, in its order:

    * "degenerate_level": one factor sits at level 0 or at the full
      combined level (the convolution is then a plain product),
    * "g_zero" / "h_zero": a factor vanishes identically,
    * "complement_proportional": the combined level equals the ground size
      and g(I) = x * h(complement of I) for some x >= 0,
    * "both_constant": both factors are constant.

    Arity 1 only; the tolerances are EQ_RTOL, relative.
    """
    if g.arity != 1 or h.arity != 1:
        raise DomainError("expected arity-1 set functions")
    if g.sizes != h.sizes:
        raise DomainError("factors must share ground sets")
    n, j, k = g.sizes[0], g.levels[0], g.levels[0] + h.levels[0]
    if k > n:
        raise DomainError(f"combined level {k} exceeds ground size {n}")
    gt = g.rows.real.astype(float)
    ht = h.rows.real.astype(float)
    g_scale = np.abs(gt).max(axis=-1)
    h_scale = np.abs(ht).max(axis=-1)
    proportional = False
    if k == n:
        comp = ht[..., ::-1]  # the r-th j-subset's complement has rank C(n, j) - 1 - r
        denom = (comp**2).sum(axis=-1)
        dot = (gt * comp).sum(axis=-1)
        x = np.maximum(np.divide(dot, denom, out=np.zeros_like(dot), where=denom != 0), 0.0)
        resid = np.abs(gt - x[..., None] * comp).max(axis=-1)
        proportional = resid <= EQ_RTOL * np.maximum(np.maximum(g_scale, h_scale), 1e-300)
    both_constant = (np.ptp(gt, axis=-1) <= EQ_RTOL * np.maximum(g_scale, 1e-300)) & (
        np.ptp(ht, axis=-1) <= EQ_RTOL * np.maximum(h_scale, 1e-300)
    )
    flags = (j == 0 or j == k, g_scale == 0.0, h_scale == 0.0, proportional, both_constant)
    return np.stack(np.broadcast_arrays(*flags), axis=-1)


def classify_equality(
    g: SetFunction, h: SetFunction
) -> tuple[str, ...] | list[tuple[str, ...]]:
    """The names of the :func:`equality_conditions` an instance satisfies;
    for batched factors, one such tuple per row (batch axes flattened)."""
    flags = equality_conditions(g, h)
    rows = [
        tuple(name for name, hit in zip(EQUALITY_CONDITIONS, row) if hit)
        for row in flags.reshape(-1, flags.shape[-1])
    ]
    return rows[0] if flags.ndim == 1 else rows


def _level_sums(factors) -> tuple[int, ...]:
    """Per-axis level sums of factors that share ground sets."""
    if not factors:
        raise DomainError("need at least one factor")
    if any(f.sizes != factors[0].sizes for f in factors):
        raise DomainError("factors must share ground sets")
    if any(f.table.ndim != f.arity for f in factors):
        raise DomainError("expansions take unbatched factors")
    return tuple(map(sum, zip(*(f.levels for f in factors))))


def generalized_R(factors, subsets) -> complex:
    """Sum over per-axis ordered partitions of products of factor values.

    ``subsets`` carries one index set J_s per axis with |J_s| equal to the
    per-axis level sum; the value is the sum over ordered partitions
    (V_1s, ..., V_ds) of every J_s, block r of size factor_r.levels[s], of
    prod_r factor_r(V_r1, ..., V_rl).

    It is the single cell of the convolution of the factors restricted to
    the subsets of J, one rank gather per axis (none where J_s is the whole
    ground set), so the cost is set by |J_s|, not the ground sizes.
    """
    factors = tuple(factors)
    levels = _level_sums(factors)
    sizes = factors[0].sizes
    js = [as_index_set(sub, n) for sub, n in zip(_normalize_arg(subsets, len(sizes)), sizes)]
    for j, k in zip(js, levels):
        if len(j) != k:
            raise DomainError(
                f"index set size {len(j)} does not match level sum {k}"
            )
    restricted = []
    for f in factors:
        table = f.table
        for axis, (j, n, w) in enumerate(zip(js, sizes, f.levels)):
            if len(j) < n:
                sub = np.array(j, dtype=np.intp)[subset_table(len(j), w)]
                table = table.take(subset_ranks(sub, n), axis=axis)
        restricted.append(f if table is f.table else SetFunction(levels, f.levels, table))
    p = functools.reduce(subset_convolution, restricted)
    return complex(p.table.reshape(-1)[0])


@dataclass(frozen=True)
class MasterCheck:
    """Outcome of one master inequality evaluation."""

    lhs: float
    rhs: float
    holds: bool


def verify_master_inequality(factors) -> MasterCheck:
    """Check the mean-square bound for block-product expansions.

    The mean over J-tuples of |prefactor * R(J)|^2, with prefactor
    prod_s (prod_r w_rs!) / k_s!, is at most the product over factors of
    their mean squares. Factors may be complex valued. R(J) for every
    J-tuple at once is the iterated subset convolution of the factors.
    """
    factors = tuple(factors)
    _level_sums(factors)
    r_table = functools.reduce(subset_convolution, factors).table
    prefactor = 1.0 / math.prod(
        multinomial(w) for w in zip(*(f.levels for f in factors))
    )
    lhs = float((np.abs(prefactor * r_table) ** 2).mean())
    rhs = math.prod(f.mean_square() for f in factors)
    return MasterCheck(lhs=lhs, rhs=rhs, holds=lhs <= rhs + HOLD_RTOL * rhs)
