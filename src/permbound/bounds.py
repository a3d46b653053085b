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
chunks at any order, never one kernel call per minor; a partition's blocks
take one engine call per distinct block size. ``pair_bound`` and
``avg_pair_bound`` bound |per| / n! with blocks of two columns (a
partition, a composition of levels 2) for any square matrix, such as
exp(i t x) for a phase matrix x or a characteristic-function matrix;
``unit_circle_theta_bound`` refines the averaged bound from the phases.

Baselines (operator-norm powers, singular-value means, column-norm
products, the rank bound for sign matrices) are included for comparison
tables. Spectral quantities (the 2-norm, singular values, the rank) come
from numpy.linalg. :func:`report_rows` is that comparison, limits included:
the catalogue of rows that ``permbound bounds`` prints and ``table1`` checks.
"""

from __future__ import annotations

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
    SYMMETRY_ATOL,
    _as_cube,
    _as_square,
    _check_symmetric,
    _minor_stack,
    _principal_stack,
    multidim_permanent_work,
    permanent,
    permanent_D,
)
from .matrixio import BoundRow, MatrixInput

# Largest n whose report rows carry the exact normalized permanent.
EXACT_COLUMN_MAX_N = 12
# Report rows are normalized by n!, which a double holds up to n = 170.
BOUNDS_MAX_N = 170
# Glynn products over the minors of a partition or composition row (4-36 ns
# each on a 2-core x86 box with Python 3.11 and numpy 2.4, level 2 slowest):
# accepted rows finish within 7 s there.
BOUNDS_MAX_WORK = 200_000_000
SIGN_ATOL = 1e-12


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
    |per(a[J_1, ..., J_l, cols[:, q]]) / (k!)^l|^2."""
    ell = a.ndim - 1
    fact = float(math.factorial(k) ** ell)
    sums = np.zeros(cols.shape[1])
    for q, _, per in _minor_stack(a, k, cols):
        sums[q : q + len(per)] += ((np.abs(per) / fact) ** 2).sum(axis=1)
    return sums / subset_count(a.shape[0], k) ** ell


def _check_row_work(name: str, n: int, sets) -> None:
    """Refuse a report row whose :func:`_minor_means` calls read, for each
    (k, c) in sets, c column sets of size k of an n x n matrix: C(n, k) row
    minors of multidim_permanent_work(k, 1) products per set."""
    work = sum(c * math.comb(n, k) * multidim_permanent_work(k, 1) for k, c in sets)
    if work > BOUNDS_MAX_WORK:
        raise FeasibilityError(
            f"{name} row work limit {BOUNDS_MAX_WORK} products, got {work}"
        )


def _block_means(a: np.ndarray, blocks) -> list[float]:
    """f_set(a, W) for each validated column set W, in order: one
    :func:`_minor_means` call per distinct size."""
    means = [1.0] * len(blocks)
    for k in dict.fromkeys(len(w) for w in blocks if w):
        at = [i for i, w in enumerate(blocks) if len(w) == k]
        for i, v in zip(at, _minor_means(a, k, np.array([blocks[i] for i in at]).T)):
            means[i] = float(v)
    return means


def _level_product(mean, a, parts, power: float = 1.0, levels=None) -> float:
    """Product of mean(a, p) ** power over the parts, each distinct p
    evaluated once; ``levels`` keeps mean(a, p) across calls on one a."""
    levels = {} if levels is None else levels
    levels.update({p: mean(a, p) for p in dict.fromkeys(parts) if p not in levels})
    return math.prod(levels[p] ** power for p in parts)


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
    column axis. The empty column set gives 1.
    """
    a, _, _, m = _as_row_tensor(t)
    return _block_means(a, [as_index_set(cols, m)])[0]


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
    # e_k(row_means) via the standard DP recurrence
    e = np.zeros(k + 1)
    e[0] = 1.0
    for w in row_means:
        top = min(k, n)
        e[1 : top + 1] = e[1 : top + 1] + w * e[0:top]
    return float(e[k] / subset_count(n, k))


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

    Dominates f_set(t, cols); refining the partition can only increase the
    product.
    """
    a, _, _, m = _as_row_tensor(t)
    K = as_index_set(cols, m)
    return math.prod(_block_means(a, validate_partition(blocks, K)))


def composition_bound_F(t, k: int, parts: Sequence[int]) -> float:
    """Product of F_level over a weak composition of the level k.

    Dominates F_level(t, k); zero parts contribute the factor F(t, 0) = 1.
    """
    return _level_product(F_level, t, as_composition(parts, total=k))


def _partition_root(a: np.ndarray, blocks: Sequence[Sequence[int]]) -> float:
    """prod_r sqrt(f_set(a, W_r)) over an ordered partition of all
    columns: the partition bound on |per(a)| / (n!)^l for square a."""
    parts = validate_partition(blocks, range(a.shape[-1]))
    return math.prod(math.sqrt(v) for v in _block_means(a, parts))


def _composition_root(a: np.ndarray, parts: Sequence[int], levels=None) -> float:
    """prod_r sqrt(F_level(a, w_r)) over a weak composition of n for
    square a: the composition bound on |per(a)| / (n!)^l. ``levels``
    shares the F_level values between calls on the same a."""
    w = as_composition(parts, total=a.shape[0])
    return _level_product(F_level, a, w, 0.5, levels)


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
    axis, all of size n; ``blocks`` must be an ordered partition of all
    columns.
    """
    a, ell, n = _as_square_rows(t)
    return float(math.factorial(n)) ** ell * _partition_root(a, blocks)


def permanent_bound_composition(t, parts: Sequence[int]) -> float:
    """Absolute bound (n!)^l * prod_r sqrt(F_level(t, w_r)) >= |per_l(t)|.

    t is as for :func:`permanent_bound_partition`; ``parts`` must be a
    weak composition of n.
    """
    a, ell, n = _as_square_rows(t)
    return float(math.factorial(n)) ** ell * _composition_root(a, parts)


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

    For a symmetric order-l tensor over n = l*m indices and a weak
    composition ``parts`` of m; dominates |hyperhafnian(t)|, which for a
    symmetric matrix is |haf(t)| with prefactor n!/(m! 2^m).
    """
    a, ell, n = _as_cube(t)
    if n % ell:
        raise DomainError(f"axis size {n} is not a multiple of the order {ell}")
    m = n // ell
    w = as_composition(parts, total=m)
    prefactor = math.factorial(n) / (math.factorial(m) * math.factorial(ell) ** m)
    return prefactor * _level_product(G_level, a, w, 0.5)


# ---------------------------------------------------------------------------
# pair bounds: column blocks of size two


def pair_bound(z, s: Sequence[int] | None = None) -> float:
    """Pairing bound on |per(z)| / n! for a square matrix, n >= 2.

    Columns are paired by the permutation s (default identity): block r is
    (s[2r], s[2r+1]) and contributes sqrt(f_set(z, block)). For odd n the
    unpaired column s[n-1] contributes sqrt(mean_j |z[j, s[n-1]]|^2), which
    is 1 for unit-modulus z.
    """
    a = _as_square(z)
    n = a.shape[0]
    if n < 2:
        raise DomainError("pair bound needs n >= 2")
    perm = tuple(range(n)) if s is None else tuple(s)
    return _partition_root(a, [perm[i : i + 2] for i in range(0, len(perm), 2)])


def avg_pair_bound(z) -> float:
    """Permutation-free averaged bound on |per(z)| / n! for a square matrix.

    The mean of f_set(z, (u, v)) over all column pairs, F_level(z, 2),
    raised to the power floor(n/2) / 2; for odd n times sqrt(mean over all
    entries of |z|^2), which is 1 for unit-modulus z. Requires n >= 2.
    """
    a = _as_square(z)
    n = a.shape[0]
    if n < 2:
        raise DomainError("averaged bound needs n >= 2")
    return _composition_root(a, _pair_levels(n))


def _pair_levels(n: int) -> tuple[int, ...]:
    """floor(n/2) levels 2, then a level 1 for odd n."""
    return (2,) * (n // 2) + (1,) * (n % 2)


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
    total = 0.0
    for u in range(n):
        for v in range(u + 1, n):
            d = a[:, u] - a[:, v]
            y = d[:, None] - d[None, :]
            term = (t * y / 2.0) ** 2 * np.maximum(0.0, 1.0 - (t * y) ** 2 / 12.0)
            total += float(term.sum())
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
    """log(baseline_hadamard(z) / n!): half-logs of the column mean squares."""
    a = _as_square(z)
    if len(a) == 0:
        return 0.0
    means = (np.abs(a) ** 2).mean(axis=0)
    with np.errstate(divide="ignore"):
        return float(0.5 * np.log(means).sum())


def baseline_hadamard(z) -> float:
    """Column-norm bound n! * prod_r sqrt((1/n) sum_j |z[j,r]|^2) >= |per(z)|."""
    return _exp(_log_hadamard(z) + math.lgamma(len(z) + 1))


def baseline_ckp_minor(z, cols: Sequence[int] | None = None) -> float:
    """Product of column mean squares prod_{r in cols} ((1/n) sum_j |z[j,r]|^2).

    Dominates f_set(z, cols) (the averaged squared normalized minors of the
    selected columns). ``cols`` defaults to all columns.
    """
    a = _as_matrix(z)
    K = (
        tuple(range(a.shape[1]))
        if cols is None
        else as_index_set(cols, a.shape[1])
    )
    if not K:
        return 1.0
    means = (np.abs(a[:, K]) ** 2).mean(axis=0)
    return float(means.prod())


def _log_opnorm(z, p) -> float:
    """log(baseline_opnorm(z, p) / n!) = n log ||z||_p - log n!."""
    a = _as_square(z)
    n = a.shape[0]
    if n == 0:
        return 0.0
    key = str(p).lower()
    if key == "1":
        norm = float(np.abs(a).sum(axis=0).max())
    elif key in ("inf", "infinity"):
        norm = float(np.abs(a).sum(axis=1).max())
    elif key == "2":
        norm = float(np.linalg.norm(a, 2))
    else:
        raise DomainError(f"unsupported operator norm p={p!r}")
    return n * math.log(norm) - math.lgamma(n + 1) if norm else -math.inf


def baseline_opnorm(z, p) -> float:
    """Operator-norm bound ||z||_p ** n >= |per(z)| for p in {1, 2, inf}.

    p = 1 is the maximum column absolute sum, p = inf the maximum row
    absolute sum, p = 2 the largest singular value.
    """
    return _exp(_log_opnorm(z, p) + math.lgamma(len(z) + 1))


def _log_singular(z) -> float:
    """log(baseline_singular(z) / n!), a logsumexp over 2n log alpha_j."""
    a = _as_square(z)
    n = a.shape[0]
    if n == 0:
        return 0.0
    sv = np.linalg.svd(a, compute_uv=False)  # descending
    if sv[0] == 0.0:
        return -math.inf
    log_sum = math.log(float(((sv / sv[0]) ** (2 * n)).sum()))
    return n * math.log(sv[0]) + 0.5 * (log_sum - math.log(n)) - math.lgamma(n + 1)


def baseline_singular(z) -> float:
    """Singular-value bound sqrt((1/n) sum_j alpha_j^(2n)) >= |per(z)|."""
    return _exp(_log_singular(z) + math.lgamma(len(z) + 1))


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


def baseline_haf_per(z) -> float:
    """Bound sqrt(per(|z|)) >= |haf(z)| for a symmetric even-dimension matrix;
    rejects, with DomainError, every input that :func:`hafnian` rejects."""
    a = _as_square(z)
    n = a.shape[0]
    if n % 2:
        raise DomainError(f"hafnian baseline needs an even dimension, got {n}")
    _check_symmetric(a, SYMMETRY_ATOL)
    value = permanent(np.abs(a)).real
    return math.sqrt(max(value, 0.0))


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
        * math.sqrt(F_level(a, k))
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
    g1 = G_level(a, 1) if n >= 2 else 0.0
    return (
        float(count * math.sqrt(G_level(a, k))),
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
    value and whether it dominates it. Rows share their F_level values.

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
    levels: dict[int, float] = {}
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
        values.append(("pair_cos", params, pair_bound(z, s_perm) if pairs else None))
        values.append(("avg_cos", {"t": t},
                       _composition_root(z, _pair_levels(n), levels) if pairs else None))
        if theta:
            values.append(("theta_cos", {"t": t},
                           unit_circle_theta_bound(mi.phases, t) if pairs else None))
    values.append(("krauter_rank", {}, baseline_krauter(z)))
    if all_baselines:
        # full-column minor average; its square root bounds |per| / n!
        values.append(("ckp_column_mean", {}, math.sqrt(baseline_ckp_minor(z))))
    if blocks is not None:
        values.append(("partition_subset_avg",
                       {"blocks": [[v + 1 for v in b] for b in blocks]},
                       _partition_root(z, blocks)))
    if parts is not None:
        values.append(("composition_level_avg", {"parts": list(parts)},
                       _composition_root(z, parts, levels)))

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
