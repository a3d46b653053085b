"""Exact evaluation of permanents, hafnians and their tensor generalizations.

The permanent kernel is Glynn's formula, 2^(n-1) signed products of column
sums (Glynn, Eur. J. Combin. 2010). The sign vectors of the first rows form
one dense cached table, so a single matrix product covers 2^10 of them, and
a Gray-code walk over the remaining rows moves that block; the cost is
O(2^n * n) multiplications, n <= 11 takes one matrix product. The
permanent of an order-(l+1) tensor fixes the bijections on its first l-1
axes and sums batched Glynn permanents of the (k!)^(l-1) k x k matrices that
remain, (k!)^(l-1) * 2^(k-1) * k products in all. Hafnians and
hyperhafnians share one memoized "match the lowest unused index" recursion
over bitmasks of unused indices (Nijenhuis-Wilf, Combinatorial Algorithms):
:func:`hyperhafnian_work` counts its memo states times the partner subsets of
each. Direct enumerations are kept behind a flag as oracles. Expansion
identities (developing a permanent or hafnian along a fixed block structure)
are implemented as independent routes so tests can cross-check them against
the kernels.

Conventions: the permanent of an empty matrix is 1, the hafnian of an empty
matrix is 1, hafnian-type functions never read diagonal blocks, and all
index sets are 0-based.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Sequence

import numpy as np

from .combinatorics import (
    as_composition,
    enumerate_partitions,
    validate_partition,
)
from .errors import DomainError

SYMMETRY_ATOL = 1e-12

# Rows whose sign vectors form the dense block of the Glynn kernel: a
# 2^10 x n block keeps each Gray step one vectorized update.
_GLYNN_BLOCK_ROWS = 10
# Rows of sign-vector products per chunk of a stack of k x k matrices:
# chunks of at most 2^13 >> (k - 1) matrices bound their memory.
_GLYNN_BATCH_ROWS = 1 << 13


def _as_square(z) -> np.ndarray:
    a = np.asarray(z, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {a.shape}")
    return a


def permanent(z, *, method: str = "gray") -> complex:
    """Permanent of a square complex matrix.

    Parameters
    ----------
    z : array_like
        Square matrix; the empty matrix gives 1.
    method : {"gray", "direct"}
        "gray" runs the blocked Glynn kernel (O(2^n * n)), "direct" sums
        all n! diagonal products and is retained as a brute-force oracle for
        small n.

    Returns
    -------
    complex
        sum over bijections s of prod_j z[j, s(j)].
    """
    a = _as_square(z)
    if method == "gray":
        return _permanent_gray(a)
    if method == "direct":
        return _permanent_direct(a)
    raise DomainError(f"unknown permanent method {method!r}")


def _permanent_direct(a: np.ndarray) -> complex:
    n = a.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    total = 0.0 + 0.0j
    rows = range(n)
    for cols in itertools.permutations(rows):
        p = 1.0 + 0.0j
        for i in rows:
            p *= a[i, cols[i]]
        total += p
    return total


@functools.lru_cache(maxsize=None)
def _sign_table(b: int) -> tuple[np.ndarray, np.ndarray]:
    """All 2^b sign vectors of b rows as the columns of a (b, 2^b) table,
    and the product of each."""
    d = 1.0 - 2.0 * ((np.arange(1 << b) >> np.arange(b)[:, None]) & 1)
    return d.astype(complex), d.prod(axis=0).astype(complex)


def _permanent_gray(a: np.ndarray) -> complex:
    # Glynn's formula: per(a) = 2^(1-n) * sum over sign vectors d with
    # d[0] = +1 of (prod_i d[i]) * prod_j (sum_i d[i] a[i, j]). The signs of
    # rows 1..b are one dense table, so one matrix product gives the column
    # sums of all 2^b of them (block[j, s] for sign vector s; products run
    # along contiguous rows). The rows after b are walked in Gray-code order,
    # each step moving the whole block by one row.
    n = a.shape[0]
    if n <= 1:
        return complex(a[0, 0]) if n else 1.0 + 0.0j
    b = min(n - 1, _GLYNN_BLOCK_ROWS)
    d, w = _sign_table(b)
    block = a[0][:, None] + a[1 : b + 1].T @ d
    rest = a[b + 1 :, :, None]
    if not len(rest):
        return complex(block.prod(axis=0) @ w) / 2.0 ** (n - 1)
    col = rest.sum(axis=0)
    total = (block + col).prod(axis=0) @ w
    delta = np.ones(len(rest))
    sign = 1.0
    for counter in range(1, 1 << len(rest)):
        i = (counter & -counter).bit_length() - 1
        delta[i] = -delta[i]
        col = col + (2.0 * delta[i]) * rest[i]
        sign = -sign
        total += sign * ((block + col).prod(axis=0) @ w)
    return complex(total / 2.0 ** (n - 1))


def permanent_minor(z, rows: Sequence[int], cols: Sequence[int]) -> complex:
    """Permanent of the submatrix z[rows, cols] (rows and cols same length)."""
    a = np.asarray(z, dtype=complex)
    if a.ndim != 2:
        raise DomainError(f"expected a matrix, got shape {a.shape}")
    if len(rows) != len(cols):
        raise DomainError("row and column selections must have equal size")
    if len(rows) == 0:
        return 1.0 + 0.0j
    return permanent(a[np.ix_(tuple(rows), tuple(cols))])


def multidim_permanent(t, *, method: str = "glynn") -> complex:
    """Permanent of an order-(l+1) tensor with all axes of equal size k.

    Generalizes the matrix permanent: the value is the sum over l-tuples of
    bijections (s1, ..., sl) of range(k) of prod_j t[s1(j), ..., sl(j), j].
    For l = 1 this is the matrix permanent.

    method "glynn" fixes s1, ..., s_{l-1}; each choice leaves the k x k
    matrix M[i, j] = t[s1(j), ..., s_{l-1}(j), i, j], whose permanent sums
    over sl. It adds batched Glynn permanents over that stack of (k!)^(l-1)
    matrices, (k!)^(l-1) * 2^(k-1) * k products in all (see
    :func:`multidim_permanent_work`). "direct" enumerates all (k!)^l tuples
    and serves as an oracle.
    """
    a = np.asarray(t, dtype=complex)
    if a.ndim < 2:
        raise DomainError("tensor must have at least 2 axes")
    k = a.shape[0]
    if any(s != k for s in a.shape):
        raise DomainError(f"all axes must have equal size, got shape {a.shape}")
    ell = a.ndim - 1
    if method == "glynn":
        if ell == 1:
            return _permanent_gray(a)
        return _multidim_glynn(a)
    if method != "direct":
        raise DomainError(f"unknown multidim permanent method {method!r}")
    if k == 0:
        return 1.0 + 0.0j
    last = np.arange(k)
    perms = [np.asarray(p) for p in itertools.permutations(range(k))]
    total = 0.0 + 0.0j
    for combo in itertools.product(perms, repeat=ell):
        total += a[combo + (last,)].prod()
    return complex(total)


def multidim_permanent_work(k: int, ell: int) -> int:
    """Products the "glynn" tensor permanent forms for an order-(ell+1)
    tensor with axes of size k: (k!)^(ell-1) * 2^(k-1) * k."""
    if k == 0:
        return 1
    return math.factorial(k) ** (ell - 1) * (1 << (k - 1)) * k


def _glynn_chunk(k: int) -> int:
    return max(1, _GLYNN_BATCH_ROWS >> (k - 1))


@functools.lru_cache(maxsize=None)
def _tensor_tables(k: int, ell: int):
    """Flat-index tables of an order-(ell+1) tensor with axes of size k.

    Its first ell-1 axes carry the fixed bijections. The last q of them (q
    the largest, but at least 1, whose (k!)^q matrices fit one chunk) are
    the inner axes: ``index[i, j, c]`` is the flat index of entry (i, j)
    of matrix c over every combination c of their permutations. Each outer
    axis adds ``off[p] = perm_p[:, None] * stride`` of shape (k!, k, 1).
    """
    perms = np.array(list(itertools.permutations(range(k))), dtype=np.intp)
    stride = [k ** (ell - r) for r in range(ell - 1)]
    q = 1
    while q < ell - 1 and len(perms) ** (q + 1) <= _glynn_chunk(k):
        q += 1
    inner = np.zeros((k, 1), dtype=np.intp)
    for r in range(ell - 1 - q, ell - 1):
        inner = (inner[:, :, None] + perms.T[:, None, :] * stride[r]).reshape(k, -1)
    outer = tuple(perms[:, :, None] * stride[r] for r in range(ell - 1 - q))
    index = np.arange(k)[:, None, None] * k + np.arange(k)[:, None] + inner
    return outer, index


def _glynn_stack(m: np.ndarray) -> np.ndarray:
    """Glynn permanents of the k x k matrices m[:, :, c] of a C-contiguous
    stack, k >= 1: block[s, j, c] holds the column sums of sign vector s, so
    the products run along contiguous rows. Beyond the dense sign table's
    rows, :func:`_permanent_gray` walks each matrix."""
    k, _, c = m.shape
    if k - 1 > _GLYNN_BLOCK_ROWS:
        return np.array([_permanent_gray(m[:, :, i]) for i in range(c)])
    d, w = _sign_table(k - 1)
    # the signs are real: one real product over the (re, im) pairs
    block = d.real.T @ m[1:].reshape(k - 1, k * c).view(float)
    block = block.view(complex).reshape(-1, k, c)
    block += m[0]
    return (w @ block.prod(axis=1)) / 2.0 ** (k - 1)


def _multidim_glynn(a: np.ndarray) -> complex:
    # Sum of Glynn permanents of the matrices m[i, j] = a[s(j)..., i, j] over
    # the fixed bijections s, a chunk of matrices at a time.
    k = a.shape[0]
    if k <= 1:
        return complex(a.ravel()[0]) if k else 1.0 + 0.0j
    outer, index = _tensor_tables(k, a.ndim - 1)
    flat = a.ravel()
    chunk = _glynn_chunk(k)
    total = 0.0 + 0.0j
    for choice in itertools.product(*(range(len(off)) for off in outer)):
        base = sum(off[p] for off, p in zip(outer, choice))
        for start in range(0, index.shape[2], chunk):
            m = flat[index[:, :, start : start + chunk] + base]
            total += _glynn_stack(m).sum()
    return complex(total)


def _check_symmetric_matrix(a: np.ndarray, atol: float) -> None:
    if a.shape[0] and np.max(np.abs(a - a.T)) > atol:
        raise DomainError(f"matrix is not symmetric within {atol:g}")


def hafnian(z, *, atol: float = SYMMETRY_ATOL) -> complex:
    """Hafnian of a symmetric complex matrix of even dimension.

    Sums, over all perfect matchings of the index set, the product of the
    matched entries, by the memoized match-the-lowest-index recursion
    (F_(n+1) memo states, a Fibonacci number, times at most n-1 partners
    each; see :func:`hyperhafnian_work`). Diagonal entries are never read,
    the empty matrix gives 1, odd dimension or asymmetry beyond ``atol``
    (absolute) raises DomainError.
    """
    a = _as_square(z)
    n = a.shape[0]
    if n % 2:
        raise DomainError(f"hafnian needs an even dimension, got {n}")
    _check_symmetric_matrix(a, atol)
    return _match_lowest(a, 2)


def _match_lowest(a: np.ndarray, ell: int) -> complex:
    # Sum over partitions of range(n) into blocks of size ell of the products
    # of the block entries a[b0, ..., b_{ell-1}] (b0 < ... < b_{ell-1}). The
    # lowest unused index is matched with every (ell-1)-subset of the other
    # unused ones; values are memoized per bitmask of unused indices, which
    # the lowest-index rule keeps to hyperhafnian_work's state count.
    n = a.shape[0]
    flat = a.ravel().tolist()
    head = n ** (ell - 1)
    tail = [n ** (ell - 2 - r) for r in range(ell - 1)]
    memo = {0: 1.0 + 0.0j}

    def rec(mask: int) -> complex:
        value = memo.get(mask)
        if value is not None:
            return value
        low = (mask & -mask).bit_length() - 1
        rest_mask = mask ^ (1 << low)
        rest = [i for i in range(low + 1, n) if rest_mask >> i & 1]
        value = 0.0 + 0.0j
        for partners in itertools.combinations(rest, ell - 1):
            index = low * head
            left = rest_mask
            for p, stride in zip(partners, tail):
                index += p * stride
                left ^= 1 << p
            value += flat[index] * rec(left)
        memo[mask] = value
        return value

    return complex(rec((1 << n) - 1))


def _check_symmetric_tensor(a: np.ndarray, atol: float) -> None:
    ell = a.ndim
    if ell < 2 or a.size == 0:
        return
    # transpositions generating the symmetric group: adjacent swap + cycle
    swap = (1, 0) + tuple(range(2, ell))
    cycle = tuple(range(1, ell)) + (0,)
    for axes in (swap, cycle):
        if np.max(np.abs(a - a.transpose(axes))) > atol:
            raise DomainError(f"tensor is not symmetric within {atol:g}")


def hyperhafnian(
    t, *, method: str = "recursive", atol: float = SYMMETRY_ATOL
) -> complex:
    """Hafnian generalization for a fully symmetric order-l tensor.

    For an l-dimensional tensor over n = l*m indices the value is
    1/(m! (l!)^m) times the sum over all n! orderings j of the products
    prod_r t[j(r*l), ..., j(r*l + l - 1)]; equivalently the sum over all
    unordered partitions of the index set into m blocks of size l of the
    block-entry products. For l = 2 this is the hafnian. The empty tensor
    gives 1.

    method "recursive" matches the lowest unused index with every
    (l-1)-subset of the remaining indices, memoized over the set of unused
    indices (:func:`hyperhafnian_work` counts its steps); "direct" evaluates
    the normalized n!-term sum and serves as an oracle.
    """
    a = np.asarray(t, dtype=complex)
    ell = a.ndim
    if ell < 1:
        raise DomainError("tensor must have at least 1 axis")
    n = a.shape[0] if ell else 0
    if any(s != n for s in a.shape):
        raise DomainError(f"all axes must have equal size, got shape {a.shape}")
    if n % ell:
        raise DomainError(f"axis size {n} is not a multiple of the order {ell}")
    _check_symmetric_tensor(a, atol)
    if n == 0:
        return 1.0 + 0.0j
    if method == "direct":
        m = n // ell
        total = 0.0 + 0.0j
        for j in itertools.permutations(range(n)):
            p = 1.0 + 0.0j
            for r in range(m):
                p *= a[j[r * ell : (r + 1) * ell]]
            total += p
        return complex(total / (math.factorial(m) * math.factorial(ell) ** m))
    if method != "recursive":
        raise DomainError(f"unknown hyperhafnian method {method!r}")
    return _match_lowest(a, ell)


def hyperhafnian_work(n: int, ell: int) -> int:
    """Steps of the "recursive" hyperhafnian of an order-ell tensor over n
    indices: memo states times the partner subsets of each.

    A state that has removed r blocks is reachable exactly when its lowest
    unused index x satisfies r <= x <= r*ell; the other r*ell - x removed
    indices lie above x. Such a state has C(n - r*ell - 1, ell - 1) partner
    subsets. For ell = 2 the states number a Fibonacci number.
    """
    total = 0
    for r in range(n // ell):
        states = sum(
            math.comb(n - x - 1, r * ell - x)
            for x in range(r, min(r * ell, n - 1) + 1)
        )
        total += states * math.comb(n - r * ell - 1, ell - 1)
    return total


def permanent_via_laplace(z, column_blocks: Sequence[Sequence[int]]) -> complex:
    """Permanent via expansion along an ordered partition of the columns.

    For any ordered partition (W_1, ..., W_d) of the column set, the
    permanent equals the sum over ordered partitions (V_1, ..., V_d) of the
    row set with |V_r| = |W_r| of prod_r per(z[V_r, W_r]). Independent route
    to :func:`permanent` used for cross-checks.
    """
    a = _as_square(z)
    n = a.shape[0]
    blocks = validate_partition(column_blocks, range(n))
    sizes = tuple(len(b) for b in blocks)
    total = 0.0 + 0.0j
    for vs in enumerate_partitions(range(n), sizes):
        prod = 1.0 + 0.0j
        for v, w in zip(vs, blocks):
            prod *= permanent_minor(a, v, w)
        total += prod
    return complex(total)


def multidim_permanent_via_laplace(
    t,
    sizes: Sequence[int],
    column_blocks: Sequence[Sequence[int]] | None = None,
    *,
    symmetrized: bool = False,
) -> complex:
    """Tensor permanent via expansion along blocks of the last axis.

    With ``column_blocks`` given (an ordered partition of the last axis with
    block sizes ``sizes``), sums over all choices of ordered partitions of
    each of the first l axes the products of block tensor permanents.

    With ``symmetrized=True`` the expansion instead averages over every
    ordered partition W of the last axis with block sizes ``sizes``; the sum
    acquires the prefactor prod_r sizes[r]! / k!.
    """
    a = np.asarray(t, dtype=complex)
    if a.ndim < 2:
        raise DomainError("tensor must have at least 2 axes")
    k = a.shape[0]
    if any(s != k for s in a.shape):
        raise DomainError(f"all axes must have equal size, got shape {a.shape}")
    ell = a.ndim - 1
    w = as_composition(sizes, total=k)

    def expand(blocks: tuple[tuple[int, ...], ...]) -> complex:
        total = 0.0 + 0.0j
        for vs in itertools.product(
            *(enumerate_partitions(range(k), w) for _ in range(ell))
        ):
            prod = 1.0 + 0.0j
            for r, wr in enumerate(blocks):
                selector = tuple(vs[s][r] for s in range(ell)) + (wr,)
                prod *= multidim_permanent(a[np.ix_(*selector)])
            total += prod
        return total

    if symmetrized:
        if column_blocks is not None:
            raise DomainError("symmetrized expansion chooses its own column blocks")
        factor = 1.0
        for p in w:
            factor *= math.factorial(p)
        factor /= math.factorial(k)
        total = 0.0 + 0.0j
        for blocks in enumerate_partitions(range(k), w):
            total += expand(blocks)
        return complex(factor * total)

    if column_blocks is None:
        raise DomainError("column_blocks is required unless symmetrized=True")
    blocks = validate_partition(column_blocks, range(k))
    if tuple(len(b) for b in blocks) != w:
        raise DomainError("column block sizes do not match the given sizes")
    return complex(expand(blocks))


def hyperhafnian_via_expansion(t, sizes: Sequence[int]) -> complex:
    """Tensor hafnian via expansion into diagonal blocks.

    For an l-dimensional symmetric tensor over n = l*k indices and a weak
    composition ``sizes`` of k, the value equals
    prod_r sizes[r]! / k! times the sum over ordered partitions
    (V_1, ..., V_d) of the index set with |V_r| = l * sizes[r] of
    prod_r hyperhafnian(t[V_r, ..., V_r]). Independent route used to
    cross-check :func:`hyperhafnian` (and :func:`hafnian` at l = 2).
    """
    a = np.asarray(t, dtype=complex)
    ell = a.ndim
    if ell < 1:
        raise DomainError("tensor must have at least 1 axis")
    n = a.shape[0] if ell else 0
    if any(s != n for s in a.shape):
        raise DomainError(f"all axes must have equal size, got shape {a.shape}")
    if n % ell:
        raise DomainError(f"axis size {n} is not a multiple of the order {ell}")
    k = n // ell
    w = as_composition(sizes, total=k)
    factor = 1.0
    for p in w:
        factor *= math.factorial(p)
    factor /= math.factorial(k)
    block_sizes = tuple(ell * p for p in w)
    total = 0.0 + 0.0j
    for vs in enumerate_partitions(range(n), block_sizes):
        prod = 1.0 + 0.0j
        for v in vs:
            prod *= hyperhafnian(a[np.ix_(*([v] * ell))])
        total += prod
    return complex(factor * total)


def permanent_D(n: int, neg: int) -> int:
    """Permanent of the n x n all-ones matrix with the first ``neg``
    diagonal entries replaced by -1.

    Closed form: sum_{j=0}^{neg} (-2)^j C(neg, j) (n-j)!. Exact integer
    arithmetic; permanent_D(n, 0) = n!.
    """
    if not 0 <= neg <= n:
        raise DomainError(f"need 0 <= neg <= n, got neg={neg}, n={n}")
    return sum(
        (-2) ** j * math.comb(neg, j) * math.factorial(n - j) for j in range(neg + 1)
    )


def block_embed_per_as_haf(z) -> np.ndarray:
    """Symmetric 2n x 2n block matrix [[0, z], [z^T, 0]].

    Its hafnian equals the permanent of z, turning the hafnian kernel into
    an independent oracle for the permanent.
    """
    a = _as_square(z)
    n = a.shape[0]
    out = np.zeros((2 * n, 2 * n), dtype=complex)
    out[:n, n:] = a
    out[n:, :n] = a.T
    return out
