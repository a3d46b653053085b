"""Subset-average upper bounds for permanents and hafnians, plus baselines.

The central quantities are averages of squared normalized minors:

* ``f_set(Z, K)``: mean over row subsets J of |per(Z[J, K]) / k!|^2,
* ``F_level(Z, k)``: mean of f_set over all column subsets of size k,
* ``G_level(Z, k)``: mean over principal subsets J of the squared
  normalized sub-hafnian |haf(Z[J, J]) k! 2^k / (2k)!|^2.

Each takes a matrix or a tensor of any order: f_set and F_level a tensor
with l equal row axes and a column axis (the multidimensional permanent,
a matrix being l = 1), G_level a symmetric order-l tensor (the
hyperhafnian, a symmetric matrix being l = 2). Products of these averages
over a partition of the columns (or a composition of the level) dominate
the normalized permanent or hafnian; ``permanent_bound_*`` and
``hafnian_bound`` return the corresponding absolute bounds.

Every average and minor sum reads the minor engine of :mod:`exact` in
chunks, never one kernel call per minor, but for matrix levels with many
row minors: they sum elementary symmetric polynomials over the rows. One
:class:`Levels` per tensor evaluates each of its levels and column sets
once, a partition's new blocks in one call per distinct size. ``pair_bound``
and ``avg_pair_bound`` bound |per| / n! with blocks of two columns (a
partition, a composition of levels 2) for any square matrix, such as
exp(i t x) for a phase matrix x or a characteristic-function matrix;
``unit_circle_theta_bound`` refines the averaged bound from the phases.

The classical baselines (operator-norm powers, the singular-value mean,
the column-norm product, the rank bound for sign matrices) exist only as
rows of :func:`report_rows`, normalized by n!: the catalogue, limits
included, that ``permbound bounds`` prints and ``table1`` checks. Spectral
quantities (the 2-norm, singular values, the rank) come from numpy.linalg.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence

import numpy as np

from .combinatorics import (
    as_composition,
    as_index_set,
    subset_count,
    subset_table,
    validate_partition,
)
from .errors import DomainError, FeasibilityError
from .exact import (
    EXACT_COLUMN_MAX_N,
    SYMMETRY_ATOL,
    _as_cube,
    _as_square,
    _check_symmetric,
    _minor_stack,
    _principal_stack,
    _sign_table,
    multidim_permanent_work,
    permanent,
    permanent_D,
)
from .matrixio import BoundRow, MatrixInput

# Report rows are normalized by n!, which a double holds up to n = 170.
BOUNDS_MAX_N = 170
# Glynn products over the minors of a partition or composition row (4-36 ns
# each on a 2-core x86 box with Python 3.11 and numpy 2.4, level 2 slowest):
# accepted rows finish within 7 s there.
BOUNDS_MAX_WORK = 200_000_000
SIGN_ATOL = 1e-12
# Largest level whose matrix averages may take the row side: one column
# set's accumulator, (k + 1) 2^(k-2) (2^(k-1) + 1) entries, still fits a chunk.
ROW_SIDE_MAX_K = 6
# Entries of a chunk of the row side's accumulator or the theta row's arrays.
_CHUNK_ENTRIES = 1 << 13


def _as_matrix(z) -> np.ndarray:
    a = np.asarray(z, dtype=complex)
    if a.ndim != 2:
        raise DomainError(f"expected a matrix, got shape {a.shape}")
    if a.shape[1] > a.shape[0]:
        raise DomainError(
            f"need at least as many rows as columns, got shape {a.shape}"
        )
    return a


# ---------------------------------------------------------------------------
# subset averages for permanents


def _minor_means(a: np.ndarray, k: int, cols: np.ndarray) -> np.ndarray:
    """For each column set cols[:, q] (k >= 1 columns) of a row tensor with
    l row axes, the mean over l-tuples of row k-subsets J of
    |per(a[J_1, ..., J_l, cols[:, q]]) / (k!)^l|^2. A matrix at
    2 <= k <= ROW_SIDE_MAX_K with C(n, k) > 2n (2^(k-1) + 1) row minors takes
    the row side, at most a quarter of the engine's products."""
    n = a.shape[0]
    if a.ndim == 2 and 2 <= k <= ROW_SIDE_MAX_K and math.comb(n, k) > (n << k) + 2 * n:
        return _row_side_means(a, k, cols)
    ell = a.ndim - 1
    fact = float(math.factorial(k) ** ell)
    sums = np.zeros(cols.shape[1])
    for q, _, per in _minor_stack(a, k, cols):
        sums[q : q + len(per)] += ((np.abs(per) / fact) ** 2).sum(axis=1)
    return sums / subset_count(n, k) ** ell


def _elementary_symmetric(rows, k: int, shape: tuple = (), dtype=float) -> np.ndarray:
    """e_k of the rows v_j (arrays of ``shape``, or scalars) elementwise, by
    e_i += v_j e_(i-1) over j (e_i for i > j + 1 is still 0)."""
    e = np.zeros((k + 1,) + shape, dtype=dtype)
    e[0] = 1.0
    for j, w in enumerate(rows):
        top = min(k, j + 1)
        e[1 : top + 1] += w * e[:top]
    return e[k]


@functools.lru_cache(maxsize=None)
def _row_side_tables(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Signs of columns 1..k-1 in the 2^(k-1) sign vectors of k columns whose
    column 0 is +1, their pairs s <= t and each pair's weight w_s w_t (w the
    sign products), doubled off the diagonal."""
    d, w = _sign_table(k - 1)
    s, t = np.triu_indices(d.shape[1])
    weight = w.real[s] * w.real[t] * np.where(s == t, 1.0, 2.0)
    return d.real, s, t, weight


def _row_side_means(a: np.ndarray, k: int, cols: np.ndarray) -> np.ndarray:
    """:func:`_minor_means` of a matrix, 2 <= k. By Glynn's formula over the
    columns, per(a[J, K]) = 2^(1-k) sum_s w_s prod_(j in J) u_s[j] for the
    column sums u_s = a[:, K] delta_s of the sign vectors with first entry +1,
    so |per|^2 summed over row k-subsets J is 4^(1-k) sum_(s,t) w_s w_t
    e_k(u_s conj(u_t)), Hermitian in (s, t). Each column is first scaled by
    the power of two 2^-e_c that brings its largest |entry| into [1/2, 1),
    and the sum is multiplied back by prod_c 4^e_c: exact, so a column's
    scale factors out as it does from |per|^2, and the widest column cannot
    swamp the signed sum. A set with a zero column reads 0 exactly. Every
    step is elementwise on C-contiguous arrays and the pairs s <= t reduce
    in one order, so no value depends on the chunk; a mean that rounds
    below 0 reads 0."""
    signs, s, t, weight = _row_side_tables(k)
    widest = np.abs(a).max(axis=0)
    _, shift = np.frexp(widest)
    a = np.ldexp(a.real, -shift) + 1j * np.ldexp(a.imag, -shift)
    live = (widest > 0)[cols].all(axis=0)
    qstep = max(1, _CHUNK_ENTRIES // ((k + 1) * len(weight)))
    sums = np.empty(cols.shape[1])
    for q in range(0, cols.shape[1], qstep):
        block = a[:, cols[:, q : q + qstep]]
        # u[j, i, s]: row j of u_s for the i-th column set, columns in order
        u = block[:, 0, :, None] + signs[0] * block[:, 1, :, None]
        for c in range(2, k):
            u = u + signs[c - 1] * block[:, c, :, None]
        rows = (x.take(s, axis=1) * y.take(t, axis=1) for x, y in zip(u, u.conj()))
        e = _elementary_symmetric(rows, k, (u.shape[1], len(weight)), complex)
        sums[q : q + qstep] = np.add.accumulate(e.real * weight, axis=1)[:, -1]
    scale = 4.0 ** (1 - k) / (math.factorial(k) ** 2 * subset_count(a.shape[0], k))
    means = np.where(live, np.maximum(sums, 0.0) * scale, 0.0)
    return np.ldexp(means, 2 * shift[cols].sum(axis=0))


def _check_row_work(name: str, n: int, sets) -> None:
    """Refuse a report row whose :func:`_minor_means` calls read, for each
    (k, c) in sets, c column sets of size k of an n x n matrix: C(n, k) row
    minors of multidim_permanent_work(k, 1) products per set."""
    work = sum(c * math.comb(n, k) * multidim_permanent_work(k, 1) for k, c in sets)
    if work > BOUNDS_MAX_WORK:
        raise FeasibilityError(
            f"{name} row work limit {BOUNDS_MAX_WORK} products, got {work}"
        )


class Levels:
    """Every subset average of one tensor t, each evaluated once: value(mean,
    k) is mean(t, k) for F_level or G_level, blocks(ws) f_set(t, W) for each
    column set W, product(mean, parts, power) prod_p value(mean, p) ** power.
    The partition, composition, pair and hafnian bounds take a Levels for t;
    Levels(levels) shares its values."""

    def __init__(self, t):
        self.t = t.t if isinstance(t, Levels) else np.asarray(t, dtype=complex)
        # levels keyed (mean, k), blocks by their column tuple
        self._values: dict = t._values if isinstance(t, Levels) else {}

    def value(self, mean, k: int) -> float:
        if (mean, k) not in self._values:
            self._values[mean, k] = mean(self.t, k)
        return self._values[mean, k]

    def blocks(self, ws) -> list[float]:
        """f_set(t, W) for each validated column set W, in order; the empty
        set gives 1. Sets not seen before take one :func:`_minor_means` call
        per distinct size."""
        new = [w for w in dict.fromkeys(ws) if w and w not in self._values]
        for k in dict.fromkeys(map(len, new)):
            at = [w for w in new if len(w) == k]
            for w, v in zip(at, _minor_means(self.t, k, np.array(at).T)):
                self._values[w] = float(v)
        return [self._values[w] if w else 1.0 for w in ws]

    def product(self, mean, parts, power: float = 1.0) -> float:
        return math.prod(self.value(mean, p) ** power for p in parts)


def _as_row_tensor(t) -> tuple[np.ndarray, int, int, int]:
    """Validate a matrix, or a tensor with l equal row axes and a final
    column axis no larger than them; returns it with l, n rows and m columns."""
    a = np.asarray(t, dtype=complex)
    if a.ndim < 2:
        raise DomainError("tensor must have at least 2 axes")
    ell = a.ndim - 1
    n = a.shape[0]
    if any(s != n for s in a.shape[:-1]):
        raise DomainError(f"row axes must have equal size, got shape {a.shape}")
    m = a.shape[-1]
    if m > n:
        raise DomainError(f"column axis larger than row axes: shape {a.shape}")
    return a, ell, n, m


def f_set(t, cols: Sequence[int]) -> float:
    """Mean over l-tuples of row subsets (J_1, ..., J_l) of
    |per(t[J_1, ..., J_l, K]) / (k!)^l|^2 for K = cols.

    t is a matrix (l = 1) or a tensor with l row axes of size n and a
    column axis, or a :class:`Levels` of one. The empty column set gives 1.
    """
    levels = Levels(t)
    _, _, _, m = _as_row_tensor(levels.t)
    return levels.blocks([as_index_set(cols, m)])[0]


def f_tilde(z, cols: Sequence[int]) -> float:
    """Row-wise relaxation of :func:`f_set` for a matrix.

    Mean over row subsets J of prod_{j in J} ((1/k) sum_{r in K} |z[j,r]|^2);
    always >= f_set(z, cols). Computed through the elementary symmetric
    polynomial of the row means, so no subset enumeration is needed.
    """
    a = _as_matrix(z)
    n, m = a.shape
    K = as_index_set(cols, m)
    k = len(K)
    if k == 0:
        return 1.0
    row_means = (np.abs(a[:, K]) ** 2).sum(axis=1) / k
    return float(_elementary_symmetric(row_means, k) / subset_count(n, k))


def F_level(t, k: int) -> float:
    """Mean of f_set(t, K) over all column subsets K of size k."""
    a, _, _, m = _as_row_tensor(t)
    if not 0 <= k <= m:
        raise DomainError(f"level k={k} outside [0, {m}]")
    if k == 0:
        return 1.0
    means = _minor_means(a, k, subset_table(m, k))
    return float(means.sum() / len(means))


def partition_bound_f(t, cols: Sequence[int], blocks: Sequence[Sequence[int]]) -> float:
    """Product of f_set over an ordered partition of the column set.

    t may be a :class:`Levels`. Dominates f_set(t, cols); refining the
    partition can only increase the product.
    """
    levels = Levels(t)
    _, _, _, m = _as_row_tensor(levels.t)
    K = as_index_set(cols, m)
    return math.prod(levels.blocks(validate_partition(blocks, K)))


def composition_bound_F(t, k: int, parts: Sequence[int]) -> float:
    """Product of F_level over a weak composition of the level k.

    t may be a :class:`Levels`. Dominates F_level(t, k); zero parts give 1.
    """
    return Levels(t).product(F_level, as_composition(parts, total=k))


def _partition_root(levels: Levels, blocks: Sequence[Sequence[int]]) -> float:
    """prod_r sqrt(f_set(t, W_r)) over an ordered partition of all columns
    of the Levels' t: the partition bound on |per(t)| / (n!)^l for square t."""
    parts = validate_partition(blocks, range(levels.t.shape[-1]))
    return math.prod(math.sqrt(v) for v in levels.blocks(parts))


def _as_square_rows(t) -> tuple[np.ndarray, int, int]:
    """A row tensor whose column count equals its row count n; returns it
    with l and n."""
    a, ell, n, m = _as_row_tensor(t)
    if m != n:
        raise DomainError("bound needs equal row and column sizes")
    return a, ell, n


def permanent_bound_partition(t, blocks: Sequence[Sequence[int]]) -> float:
    """Absolute bound (n!)^l * prod_r sqrt(f_set(t, W_r)) >= |per_l(t)|.

    t is a square matrix (l = 1) or a tensor with l row axes and a column
    axis, all of size n, or a :class:`Levels` of one; ``blocks`` must be an
    ordered partition of all columns.
    """
    levels = Levels(t)
    _, ell, n = _as_square_rows(levels.t)
    return float(math.factorial(n)) ** ell * _partition_root(levels, blocks)


def permanent_bound_composition(t, parts: Sequence[int]) -> float:
    """Absolute bound (n!)^l * prod_r sqrt(F_level(t, w_r)) >= |per_l(t)|.

    t is as for :func:`permanent_bound_partition`, or a :class:`Levels` of
    one; ``parts`` must be a weak composition of n.
    """
    levels = Levels(t)
    _, ell, n = _as_square_rows(levels.t)
    w = as_composition(parts, total=n)
    return float(math.factorial(n)) ** ell * levels.product(F_level, w, 0.5)


# ---------------------------------------------------------------------------
# hafnian side


def G_level(t, k: int) -> float:
    """Mean over index subsets J of size l*k of the squared normalized
    sub-hyperhafnian |hyperhafnian(t[J, ..., J]) * k! (l!)^k / (lk)!|^2.

    t is a symmetric order-l tensor; for a symmetric matrix (l = 2) this is
    the sub-hafnian |haf(t[J, J]) * k! 2^k / (2k)!|^2. Entries with a
    repeated index never enter the mean and G_level(t, 0) = 1. Symmetry
    and finiteness are checked once, on t: every principal minor of a
    symmetric tensor is symmetric.
    """
    a, ell, n = _as_cube(t)
    if k < 0 or ell * k > n:
        raise DomainError(f"level k={k} needs 0 <= {ell}k <= {n}")
    if k == 0:
        return 1.0
    _check_symmetric(a, SYMMETRY_ATOL)
    scale = (
        math.factorial(k) * math.factorial(ell) ** k / math.factorial(ell * k)
    )
    total = sum(
        float((np.abs(scale * h) ** 2).sum()) for h in _principal_stack(a, ell * k)
    )
    return total / subset_count(n, ell * k)


def hafnian_bound(t, parts: Sequence[int]) -> float:
    """Absolute bound (n!/(m! (l!)^m)) * prod_r sqrt(G_level(t, w_r)).

    For a symmetric order-l tensor over n = l*m indices, or a :class:`Levels`
    of one, and a weak composition ``parts`` of m; dominates |hyperhafnian(t)|,
    which for a symmetric matrix is |haf(t)| with prefactor n!/(m! 2^m).
    """
    levels = Levels(t)
    _, ell, n = _as_cube(levels.t)
    if n % ell:
        raise DomainError(f"axis size {n} is not a multiple of the order {ell}")
    m = n // ell
    w = as_composition(parts, total=m)
    prefactor = math.factorial(n) / (math.factorial(m) * math.factorial(ell) ** m)
    return prefactor * levels.product(G_level, w, 0.5)


# ---------------------------------------------------------------------------
# pair bounds: column blocks of size two


def pair_bound(z, s: Sequence[int] | None = None) -> float:
    """Pairing bound on |per(z)| / n! for a square matrix, n >= 2.

    z may be a :class:`Levels`. Columns are paired by the permutation s
    (default identity): block r is (s[2r], s[2r+1]) and contributes
    sqrt(f_set(z, block)). For odd n the unpaired column s[n-1] contributes
    sqrt(mean_j |z[j, s[n-1]]|^2), which is 1 for unit-modulus z.
    """
    levels = Levels(z)
    n = _as_square(levels.t).shape[0]
    if n < 2:
        raise DomainError("pair bound needs n >= 2")
    perm = tuple(range(n)) if s is None else tuple(s)
    return _partition_root(levels, [perm[i : i + 2] for i in range(0, len(perm), 2)])


def avg_pair_bound(z) -> float:
    """Permutation-free averaged bound on |per(z)| / n! for a square matrix.

    z may be a :class:`Levels`. The mean of f_set(z, (u, v)) over all
    column pairs, F_level(z, 2), raised to the power floor(n/2) / 2; for odd
    n times sqrt(mean over all entries of |z|^2), which is 1 for
    unit-modulus z. Requires n >= 2.
    """
    levels = Levels(z)
    n = _as_square(levels.t).shape[0]
    if n < 2:
        raise DomainError("averaged bound needs n >= 2")
    return levels.product(F_level, (2,) * (n // 2) + (1,) * (n % 2), 0.5)


def unit_circle_theta_bound(x, t: float) -> float:
    """Polynomial refinement (1 - theta)^(floor(n/2)/2) of the averaged bound.

    Uses the majorant cos(v)^2 <= 1 - v^2 + v^2 * min(1, v^2 / 3); theta is
    the resulting average of (t y / 2)^2 * max(0, 1 - (t y)^2 / 12) and lies
    in [0, 3/4]. The average runs over ordered column pairs u != v; the term
    reads y only squared and swapping u, v negates y, so each unordered pair
    is evaluated once and counted twice.
    """
    a = np.asarray(x, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"expected a square phase matrix, got shape {a.shape}")
    n = a.shape[0]
    if n < 2:
        raise DomainError("unit-circle bounds need dimension >= 2")
    us, vs = np.triu_indices(n, 1)
    step = max(1, _CHUNK_ENTRIES // (n * n))
    total = 0.0
    for p in range(0, len(us), step):
        d = a[:, us[p : p + step]] - a[:, vs[p : p + step]]
        # (t y)^2 for y = d_j - d_k of each pair; (t y / 2)^2 is a quarter of it
        ty2 = np.square(t * (d[:, None] - d[None, :]))
        total += float(np.vdot(ty2, np.maximum(1.0 - ty2 / 12.0, 0.0))) / 4.0
    theta = 2.0 * total / (n * (n - 1)) ** 2
    return (1.0 - theta) ** (0.5 * (n // 2))


# ---------------------------------------------------------------------------
# baselines


def _exp(x: float) -> float:
    """exp(x), or inf where it does not fit a double."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _log_hadamard(z) -> float:
    """log of the column-norm bound prod_r sqrt((1/n) sum_j |z[j,r]|^2) on
    |per(z)| / n!: half-logs of the column mean squares."""
    a = _as_square(z)
    if len(a) == 0:
        return 0.0
    means = (np.abs(a) ** 2).mean(axis=0)
    with np.errstate(divide="ignore"):
        return float(0.5 * np.log(means).sum())


def _log_opnorm(z, p) -> float:
    """log of the operator-norm bound ||z||_p ** n / n! on |per(z)| / n!, for
    p "1" (the largest column absolute sum), "inf" (the largest row absolute
    sum) or "2" (the largest singular value)."""
    a = _as_square(z)
    n = a.shape[0]
    if n == 0:
        return 0.0
    if p == "1":
        norm = float(np.abs(a).sum(axis=0).max())
    elif p == "inf":
        norm = float(np.abs(a).sum(axis=1).max())
    else:
        norm = float(np.linalg.norm(a, 2))
    return n * math.log(norm) - math.lgamma(n + 1) if norm else -math.inf


def _log_singular(z) -> float:
    """log of the singular-value bound sqrt((1/n) sum_j alpha_j^(2n)) / n! on
    |per(z)| / n!, a logsumexp over 2n log alpha_j."""
    a = _as_square(z)
    n = a.shape[0]
    if n == 0:
        return 0.0
    sv = np.linalg.svd(a, compute_uv=False)  # descending
    if sv[0] == 0.0:
        return -math.inf
    log_sum = math.log(float(((sv / sv[0]) ** (2 * n)).sum()))
    return n * math.log(sv[0]) + 0.5 * (log_sum - math.log(n)) - math.lgamma(n + 1)


def baseline_krauter(z) -> int | None:
    """Rank-based bound for sign matrices, or None when not applicable.

    For an n x n matrix with entries +-1 (within ``SIGN_ATOL``) and n >= 5,
    returns the exact integer permanent_D(n, rank - 1) dominating |per(z)|,
    with the rank from numpy.linalg.matrix_rank. Any other input returns
    None (the not-applicable signal, not an error).
    """
    a = np.asarray(z, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return None
    n = a.shape[0]
    if n < 5:
        return None
    if np.abs(np.abs(a.real) - 1.0).max() > SIGN_ATOL or np.abs(a.imag).max() > SIGN_ATOL:
        return None
    signs = np.where(a.real > 0, 1.0, -1.0)
    rank = int(np.linalg.matrix_rank(signs))
    return permanent_D(n, rank - 1)


# ---------------------------------------------------------------------------
# minor sums


def minor_sum_phi(z, k: int) -> complex:
    """Sum of per(z[J, K]) over all row and column subsets of size k."""
    a = _as_matrix(z)
    n, m = a.shape
    if not 0 <= k <= min(n, m):
        raise DomainError(f"level k={k} outside [0, {min(n, m)}]")
    if k == 0:
        return 1.0 + 0.0j
    return complex(sum(per.sum() for *_, per in _minor_stack(a, k, subset_table(m, k))))


def phi_bound(z, k: int) -> float:
    """Bound C(m,k) C(n,k) k! sqrt(F_level(z, k)) >= |minor_sum_phi(z, k)|."""
    a = _as_matrix(z)
    n, m = a.shape
    if not 0 <= k <= min(n, m):
        raise DomainError(f"level k={k} outside [0, {min(n, m)}]")
    return (
        subset_count(m, k)
        * subset_count(n, k)
        * math.factorial(k)
        * math.sqrt(Levels(a).value(F_level, k))
    )


def subhafnian_sum_psi(z, k: int) -> complex:
    """Sum of haf(z[J, J]) over all index subsets of size 2k."""
    a = _as_square(z)
    n = a.shape[0]
    if k < 0 or 2 * k > n:
        raise DomainError(f"level k={k} needs 0 <= 2k <= {n}")
    if k == 0:
        return 1.0 + 0.0j
    _check_symmetric(a, SYMMETRY_ATOL)
    return complex(sum(h.sum() for h in _principal_stack(a, 2 * k)))


def psi_bounds(z, k: int) -> tuple[float, float]:
    """Two bounds on |subhafnian_sum_psi(z, k)|.

    Returns (level bound, entry bound): the first uses sqrt(G_level(z, k)),
    the second the k/2 power of G_level(z, 1) (the mean squared off-diagonal
    entry). Both are multiplied by C(n, 2k) (2k)! / (k! 2^k).
    """
    a = _as_square(z)
    n = a.shape[0]
    if k < 0 or 2 * k > n:
        raise DomainError(f"level k={k} needs 0 <= 2k <= {n}")
    count = subset_count(n, 2 * k) * math.factorial(2 * k) / (
        math.factorial(k) * 2**k
    )
    levels = Levels(a)
    g1 = levels.value(G_level, 1) if n >= 2 else 0.0
    return (
        float(count * math.sqrt(levels.value(G_level, k))),
        float(count * g1 ** (k / 2.0)),
    )


# ---------------------------------------------------------------------------
# report catalogue


def report_rows(
    mi: MatrixInput,
    *,
    ps: Sequence[str] | None = None,
    s_perm: Sequence[int] | None = None,
    theta: bool = False,
    all_baselines: bool = False,
    blocks: Sequence[Sequence[int]] | None = None,
    parts: Sequence[int] | None = None,
) -> list[BoundRow]:
    """Catalogue of bound rows on |per(z)| / n!, limits included.

    Row order is fixed: the operator norms in ``ps`` (of "1", "inf", "2";
    None selects all three), singular mean, column norms, the unit-circle
    rows (unit_circle inputs only; ``s_perm`` pairs the columns, ``theta``
    adds the refinement), rank bound, the column mean-square row with
    ``all_baselines``, then the partition row for the 0-based ``blocks``
    and the composition row for ``parts`` when given. The rank row off
    sign matrices or below n = 5, and the unit-circle rows below n = 2, are
    not applicable. For n <= 12 every applicable row carries the exact
    value and whether it dominates it. Rows share one :class:`Levels`.

    Before any row is computed: n > BOUNDS_MAX_N raises FeasibilityError,
    ``s_perm`` or ``theta`` off a unit_circle input, an ``s_perm`` that is
    no permutation of range(n) and invalid ``blocks`` or ``parts`` raise
    DomainError, and a partition or composition row over BOUNDS_MAX_WORK
    Glynn products raises FeasibilityError. So does a row value that does
    not fit a double.
    """
    z, n = mi.z, mi.n
    if n > BOUNDS_MAX_N:
        raise FeasibilityError(f"bounds limit n <= {BOUNDS_MAX_N}, got {n}")
    for option, given in (("s_perm", s_perm is not None), ("theta", theta)):
        if given and mi.form != "unit_circle":
            raise DomainError(f"{option} needs the unit_circle form, got {mi.form}")
    if s_perm is not None and sorted(s_perm) != list(range(n)):
        raise DomainError(f"s_perm {list(s_perm)} is not a permutation of range({n})")
    if blocks is not None:
        blocks = validate_partition(blocks, range(n))
        # one f_set per block
        _check_row_work("partition", n, ((len(b), 1) for b in blocks))
    if parts is not None:
        parts = as_composition(parts, total=n)
        # one F_level per distinct level, over all its column sets
        _check_row_work("composition", n, ((k, math.comb(n, k)) for k in set(parts)))
    fact = float(math.factorial(n))
    levels = Levels(z)
    # (name, params, value); value None marks a row that is not applicable
    values: list[tuple[str, dict, object]] = []
    for p in ("1", "inf", "2"):
        if ps is None or p in ps:
            values.append((f"opnorm_p{p}", {"p": p}, _exp(_log_opnorm(z, p))))
    values.append(("singular_mean_power", {}, _exp(_log_singular(z))))
    values.append(("hadamard_column_norm", {}, _exp(_log_hadamard(z))))
    if mi.form == "unit_circle":
        t = mi.t
        params = {"t": t}
        if s_perm is not None:
            params = {"t": t, "s": [v + 1 for v in s_perm]}
        # z is exp(i t x), so the pair rows read it; only theta needs x. All
        # three need a pair of columns.
        pairs = n >= 2
        values.append(("pair_cos", params, pair_bound(levels, s_perm) if pairs else None))
        values.append(("avg_cos", {"t": t}, avg_pair_bound(levels) if pairs else None))
        if theta:
            values.append(("theta_cos", {"t": t},
                           unit_circle_theta_bound(mi.phases, t) if pairs else None))
    values.append(("krauter_rank", {}, baseline_krauter(z)))
    if all_baselines:
        # sqrt of the full-column minor average is the column-norm bound, in logs
        values.append(("ckp_column_mean", {}, _exp(_log_hadamard(z))))
    if blocks is not None:
        values.append(("partition_subset_avg",
                       {"blocks": [[v + 1 for v in b] for b in blocks]},
                       _partition_root(levels, blocks)))
    if parts is not None:
        values.append(("composition_level_avg", {"parts": list(parts)},
                       levels.product(F_level, parts, 0.5)))

    exact_norm = None
    if n <= EXACT_COLUMN_MAX_N:
        exact_norm = abs(permanent(z)) / fact
    rows = []
    for name, params, value in values:
        if value is None:
            rows.append(BoundRow(name=name, params=params, applicable=False))
            continue
        if name == "krauter_rank":
            value = value / fact
        if not math.isfinite(value):
            raise FeasibilityError(f"{name} row value {value} does not fit a double")
        row = BoundRow(name=name, params=params, raw_value=float(value))
        if exact_norm is not None:
            row.exact_norm = exact_norm
            # relative slack: a tight row may round a few ulps below exact_norm
            row.dominates_exact = row.raw_value * (1 + 1e-12) >= exact_norm
        rows.append(row)
    return rows
