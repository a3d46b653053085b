"""Exact evaluation of permanents, hafnians and their tensor generalizations.

The permanent kernel is Glynn's formula, 2^(n-1) signed products of column
sums (Glynn, Eur. J. Combin. 2010). The sign vectors of the first rows form
one dense cached table, so a single matrix product covers 2^10 of them, and
a Gray-code walk over the remaining rows moves that block; the cost is
O(2^n * n) multiplications, n <= 11 takes one matrix product. One minor
engine serves every order: it gathers the minors t[J_1, ..., J_l, K] of an
order-(l+1) tensor in chunks, fixing the bijections on their first l-1 axes
in the same gather, for one stacked Glynn kernel, (k!)^(l-1) * 2^(k-1) * k
products per minor; the tensor permanent is its one-minor case. Hafnians
and hyperhafnians share one memoized "match the lowest unused index"
recursion over bitmasks of unused indices (Nijenhuis-Wilf, Combinatorial
Algorithms), on numbers for one tensor or on numpy rows for a chunk of
principal minors: :func:`hyperhafnian_work` counts its memo states times the
partner subsets of each. Direct enumerations are kept behind a flag as
oracles. Expansion identities (developing a permanent or hafnian along a
fixed block structure) are :func:`convolution.generalized_R` on the full
index sets, over stacked tables of block values: an independent route that
tests cross-check against the kernels.

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
    multinomial,
    subset_table,
    validate_partition,
)
from .convolution import SetFunction, generalized_R
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


def _as_cube(t) -> tuple[np.ndarray, int, int]:
    """Validate a tensor of at least one axis, all of equal size n;
    returns it with its order and n."""
    a = np.asarray(t, dtype=complex)
    if a.ndim < 1:
        raise DomainError("tensor must have at least 1 axis")
    n = a.shape[0]
    if any(s != n for s in a.shape):
        raise DomainError(f"all axes must have equal size, got shape {a.shape}")
    return a, a.ndim, n


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


def multidim_permanent(t, *, method: str = "glynn") -> complex:
    """Permanent of an order-(l+1) tensor with all axes of equal size k.

    Generalizes the matrix permanent: the value is the sum over l-tuples of
    bijections (s1, ..., sl) of range(k) of prod_j t[s1(j), ..., sl(j), j].
    For l = 1 this is the matrix permanent.

    method "glynn" is the one-minor case of the minor engine: it fixes
    s1, ..., s_{l-1}; each choice leaves the k x k matrix
    M[i, j] = t[s1(j), ..., s_{l-1}(j), i, j], whose permanent sums over sl,
    and it adds batched Glynn permanents over that stack of (k!)^(l-1)
    matrices, (k!)^(l-1) * 2^(k-1) * k products in all (see
    :func:`multidim_permanent_work`). "direct" enumerates all (k!)^l tuples
    and serves as an oracle.
    """
    a, order, k = _as_cube(t)
    if order < 2:
        raise DomainError("tensor must have at least 2 axes")
    if method not in ("glynn", "direct"):
        raise DomainError(f"unknown multidim permanent method {method!r}")
    if k == 0:
        return 1.0 + 0.0j
    if method == "glynn":
        cols = np.arange(k)[:, None]
        return complex(sum(per.sum() for *_, per in _minor_stack(a, k, cols)))
    last = np.arange(k)
    perms = [np.asarray(p) for p in itertools.permutations(range(k))]
    total = 0.0 + 0.0j
    for combo in itertools.product(perms, repeat=order - 1):
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
    """Row positions of the Glynn matrices of an order-(ell+1) minor with
    axes of size k: entry (i, j) reads column j at position
    (s_1(j), ..., s_{ell-1}(j), i), C order over the ell row axes, for fixed
    bijections s_r. The last q fixed axes (q the largest, but at least 1,
    whose (k!)^q matrices fit one chunk) are inner: ``index[i, j, c]`` covers
    every combination c of their permutations. Each outer axis adds
    ``off[p] = perm_p[:, None] * stride`` of shape (k!, k, 1).
    """
    if ell == 1:
        return (), np.arange(k)[:, None, None]
    perms = np.array(list(itertools.permutations(range(k))), dtype=np.intp)
    fixed = ell - 1
    stride = [k ** (ell - 1 - r) for r in range(fixed)]
    q = 1
    while q < fixed and len(perms) ** (q + 1) <= _glynn_chunk(k):
        q += 1
    inner = np.zeros((1, 1), dtype=np.intp)
    for r in range(fixed - q, fixed):
        inner = (inner[:, :, None] + perms.T[:, None, :] * stride[r]).reshape(k, -1)
    outer = tuple(perms[:, :, None] * stride[r] for r in range(fixed - q))
    return outer, np.arange(k)[:, None, None] + inner


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


def _minor_stack(a: np.ndarray, k: int, cols: np.ndarray):
    """Yield (q, r, per) chunk by chunk, k >= 1: per[i, j] is the permanent
    of a[J_1, ..., J_l, cols[:, q + i]] for the (r + j)-th l-tuple of row
    k-subsets (product of rank orders) of an order-(l+1) tensor. An entry's
    flat index is the row offset at its :func:`_tensor_tables` position plus
    its column, so one gather fixes the bijections too; a chunk is at most
    _glynn_chunk(k) Glynn matrices."""
    ell = a.ndim - 1
    n, m = a.shape[0], a.shape[-1]
    sub = subset_table(n, k)
    rows = sub * (n ** (ell - 1) * m)
    for r in range(1, ell):
        step = sub * (n ** (ell - 1 - r) * m)
        rows = (rows[:, None, :, None] + step[None, :, None, :]).reshape(
            len(rows) * k, -1
        )
    outer, index = _tensor_tables(k, ell)
    chunk = _glynn_chunk(k)
    cstep = min(index.shape[2], chunk)
    rstep = min(rows.shape[1], max(1, chunk // cstep))
    qstep = max(1, chunk // cstep // rstep)
    flat = a.ravel()
    for q in range(0, cols.shape[1], qstep):
        c = cols[None, :, None, q : q + qstep, None]
        for r in range(0, rows.shape[1], rstep):
            block = rows[:, r : r + rstep]
            per = None
            for choice in itertools.product(*outer):
                pos = sum(choice, index)
                for s in range(0, pos.shape[2], cstep):
                    g = block.take(pos[:, :, s : s + cstep], axis=0)
                    g = g[:, :, :, None, :] + c
                    values = _glynn_stack(flat.take(g).reshape(k, k, -1))
                    # sum over the matrices of each minor; order 2 has one
                    values = values.reshape(g.shape[2:])
                    values = values.sum(axis=0) if len(values) > 1 else values[0]
                    per = values if per is None else per + values
            yield q, r, per


def _minor_table(a: np.ndarray, k: int, cols: np.ndarray) -> np.ndarray:
    """The permanents of :func:`_minor_stack` (any k >= 0) as one array of
    shape (width, C(n, k), ..., C(n, k)), one axis per row axis."""
    ell, count = a.ndim - 1, math.comb(a.shape[0], k)
    out = np.ones((cols.shape[1], count**ell), dtype=complex)
    if k:
        for q, r, per in _minor_stack(a, k, cols):
            out[q : q + per.shape[0], r : r + per.shape[1]] = per
    return out.reshape((cols.shape[1],) + (count,) * ell)


def _block_table(a: np.ndarray, block) -> np.ndarray:
    """Permanents of the minors a[J_1, ..., J_l, block] for every l-tuple of
    row subsets of the block's size, in rank order: one stacked table."""
    return _minor_table(a, len(block), np.array(block, dtype=np.intp)[:, None])[0]


def _check_symmetric(a: np.ndarray, atol: float) -> None:
    """Raise DomainError unless a equals its transposes within ``atol``: an
    adjacent swap and a cycle of the axes generate them all, each compared
    one slice of the first axis at a time (of at least one index, and of
    about 2^15 entries)."""
    if a.ndim < 2:
        return
    swap = (1, 0) + tuple(range(2, a.ndim))
    cycle = tuple(range(1, a.ndim)) + (0,)
    step = max(1, (1 << 15) * len(a) // max(1, a.size))
    for axes in {swap, cycle}:
        b = a.transpose(axes)
        for i in range(0, len(a), step):
            if np.abs(a[i : i + step] - b[i : i + step]).max() > atol:
                raise DomainError(f"tensor is not symmetric within {atol:g}")


def hafnian(z, *, atol: float = SYMMETRY_ATOL) -> complex:
    """Hafnian of a symmetric complex matrix of even dimension.

    Sums, over all perfect matchings of the index set, the product of the
    matched entries, by the memoized match-the-lowest-index recursion
    (F_(n+1) memo states, a Fibonacci number, times at most n-1 partners
    each; see :func:`hyperhafnian_work`). Diagonal entries are never read,
    the empty matrix gives 1, odd dimension or asymmetry beyond ``atol``
    (absolute) raises DomainError. The order-2 case of :func:`hyperhafnian`.
    """
    a = _as_square(z)
    if len(a) % 2:
        raise DomainError(f"hafnian needs an even dimension, got {len(a)}")
    return hyperhafnian(a, atol=atol)


def _match_lowest(entries, n: int, ell: int):
    # Sum over partitions of range(n) into blocks of size ell of the products
    # of the block entries entries[C-order flat index of (b0, ..., b_{ell-1})]
    # (b0 < ... < b_{ell-1}): numbers for one tensor, or numpy rows with one
    # value per tensor of a stack. The lowest unused index is matched with
    # every (ell-1)-subset of the other unused ones; values are memoized per
    # bitmask of unused indices, which the lowest-index rule keeps to
    # hyperhafnian_work's state count.
    head = n ** (ell - 1)
    tail = [n ** (ell - 2 - r) for r in range(ell - 1)]
    memo = {0: 1.0 + 0.0j}

    def rec(mask: int):
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
            value += entries[index] * rec(left)
        memo[mask] = value
        return value

    return rec((1 << n) - 1)


def _principal_stack(a: np.ndarray, s: int):
    """Yield, chunk by chunk, the hyperhafnians of the principal minors
    a[J, ..., J] over the s-subsets J in rank order (s a multiple of the
    order): at most _GLYNN_BATCH_ROWS minors, fewer where their memo would
    pass 2^7 values per minor of that limit. Only the entries with
    increasing indices are gathered; they are all the recursion reads."""
    ell, n = a.ndim, a.shape[0]
    if s == 0:
        yield np.ones(1, dtype=complex)
        return
    combos = subset_table(s, ell)
    pos = (combos.T @ (s ** np.arange(ell - 1, -1, -1))).tolist()
    sub = subset_table(n, s)
    index = sum(sub[combos[r]] * n ** (ell - 1 - r) for r in range(ell))
    work = hyperhafnian_work(s, ell) + len(pos)
    step = max(1, min(_GLYNN_BATCH_ROWS, (_GLYNN_BATCH_ROWS << 7) // work))
    flat = a.ravel()
    for r in range(0, index.shape[1], step):
        entries = dict(zip(pos, flat.take(index[:, r : r + step])))
        yield _match_lowest(entries, s, ell)


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
    a, ell, n = _as_cube(t)
    if n % ell:
        raise DomainError(f"axis size {n} is not a multiple of the order {ell}")
    _check_symmetric(a, atol)
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
    return complex(_match_lowest(a.ravel().tolist(), n, ell))


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
    row set with |V_r| = |W_r| of prod_r per(z[V_r, W_r]): the order-2 case
    of :func:`multidim_permanent_via_laplace`. Independent route to
    :func:`permanent` used for cross-checks.
    """
    a = _as_square(z)
    blocks = validate_partition(column_blocks, range(a.shape[0]))
    return multidim_permanent_via_laplace(a, [len(b) for b in blocks], blocks)


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

    The block permanents come from stacked tables over every l-tuple of row
    subsets, one per column block (one per block size, over every column
    subset of that size, when symmetrized): the factors of
    :func:`generalized_R` on the full index sets.
    """
    a, order, k = _as_cube(t)
    if order < 2:
        raise DomainError("tensor must have at least 2 axes")
    w = as_composition(sizes, total=k)
    if symmetrized:
        if column_blocks is not None:
            raise DomainError("symmetrized expansion chooses its own column blocks")
        tables = {p: _minor_table(a, p, subset_table(k, p)) for p in w}
        factors = [SetFunction((k,) * order, (p,) * order, tables[p]) for p in w]
        return generalized_R(factors, (range(k),) * order) / multinomial(w)
    if column_blocks is None:
        raise DomainError("column_blocks is required unless symmetrized=True")
    blocks = validate_partition(column_blocks, range(k))
    if tuple(len(b) for b in blocks) != w:
        raise DomainError("column block sizes do not match the given sizes")
    ell = order - 1
    factors = [
        SetFunction((k,) * ell, (len(b),) * ell, _block_table(a, b)) for b in blocks
    ]
    return generalized_R(factors, (range(k),) * ell)


def hyperhafnian_via_expansion(t, sizes: Sequence[int]) -> complex:
    """Tensor hafnian via expansion into diagonal blocks.

    For an l-dimensional symmetric tensor over n = l*k indices and a weak
    composition ``sizes`` of k, the value equals
    prod_r sizes[r]! / k! times the sum over ordered partitions
    (V_1, ..., V_d) of the index set with |V_r| = l * sizes[r] of
    prod_r hyperhafnian(t[V_r, ..., V_r]): :func:`generalized_R` on the full
    index set over one stacked table of principal hyperhafnians per block
    size. Independent route used to cross-check
    :func:`hyperhafnian` (and :func:`hafnian` at l = 2).
    """
    a, ell, n = _as_cube(t)
    if n % ell:
        raise DomainError(f"axis size {n} is not a multiple of the order {ell}")
    _check_symmetric(a, SYMMETRY_ATOL)
    w = as_composition(sizes, total=n // ell)
    tables = {p: np.concatenate(list(_principal_stack(a, ell * p))) for p in w}
    factors = [SetFunction(n, ell * p, tables[p]) for p in w]
    return generalized_R(factors, range(n)) / multinomial(w)


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
