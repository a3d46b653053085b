"""Exact evaluation of permanents, hafnians and their tensor generalizations.

The permanent kernel is Glynn's formula, 2^(n-1) signed products of column
sums (Glynn, Eur. J. Combin. 2010). The sign vectors of the first rows form
one dense cached table, so a single matrix product covers 2^10 of them, and
a Gray-code walk over the remaining rows shifts it in place; the cost is
O(2^n * n) multiplications, n <= 11 takes one matrix product. One minor
engine serves every order: it gathers the minors t[J_1, ..., J_l, K] of an
order-(l+1) tensor in chunks, fixing the bijections on their first l-1 axes
in the same gather, for one stacked Glynn kernel, (k!)^(l-1) * 2^(k-1) * k
products per minor (gather offsets cached per shape where a column set's
minors fit a chunk); the tensor permanent is its one-minor case. Hafnians
and hyperhafnians share one "match the lowest unused index" kernel
(Nijenhuis-Wilf, Combinatorial Algorithms), evaluated level by level: the
sets of unused indices it reaches, grouped by the number of blocks they have
removed, form cached tables of block ranks and child slots per shape, and
each level is one gather, product and sum over a chunk of principal minors
at once; a single tensor is the one-minor chunk. :func:`hyperhafnian_work`
counts the table entries, states times the partner subsets of each.
:func:`permanent` and :func:`hyperhafnian` also take ``method="direct"``,
an n!-term enumeration that perfbench's workload tests use as their oracle;
the tensor permanent's enumeration lives with the tests. Expansion identities
(developing a permanent or hafnian along a fixed block structure) are
:func:`convolution.generalized_R` on the full index sets, over stacked
tables of block values: an independent route that tests cross-check against
the kernels.

:func:`evaluate` is the ``permbound exact`` command's entry and owns its
limits: it checks the shape, then the work against ``PER_MAX_WORK`` (products,
"per" and "per_ell") or ``HAF_MAX_WORK`` (table entries, "haf" and
"haf_ell"), before any kernel runs.

Conventions: the permanent of an empty matrix is 1, the hafnian of an empty
matrix is 1, the values of hafnian-type functions never depend on diagonal
blocks (every entry must still be finite), and all index sets are 0-based.
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
    subset_ranks,
    subset_table,
    validate_partition,
)
from .convolution import SetFunction, generalized_R
from .errors import DomainError, FeasibilityError

SYMMETRY_ATOL = 1e-12

# Rows whose sign vectors form the dense block of the Glynn kernel: the
# column sums of 2^10 sign vectors, an n x 2^10 array x that each step of
# the Gray walk over the remaining rows updates in place, with no n x 2^10
# temporary.
_GLYNN_BLOCK_ROWS = 10
# Walked rows from which the widened step of walked row 0 (one more
# n x 2^10 array per call) repays its copy: four rows, fifteen steps.
_GLYNN_WIDE_STEP_ROWS = 4
# A step that flips walked row 4 or later rebuilds x as the block plus the
# signed sum of the walked rows, so each entry of x carries at most
# 2^4 - 1 signed row additions since it was last rebuilt (at most
# 2^(n-1-b) - 1 when n - 1 - b < 4), the rounding term of the walk.
_GLYNN_REBUILD_ROWS = 4
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
    # along contiguous rows). The r = n-1-b rows after b are walked in
    # Gray-code order: each step flips one walked row, which moves every
    # column sum by the same +-2 * that row, added to x in place; a flip of
    # walked row _GLYNN_REBUILD_ROWS or later rebuilds x from the block.
    n = a.shape[0]
    if n <= 1:
        return complex(a[0, 0]) if n else 1.0 + 0.0j
    b = min(n - 1, _GLYNN_BLOCK_ROWS)
    d, w = _sign_table(b)
    block = a[0][:, None] + a[1 : b + 1].T @ d
    rows = a[b + 1 :]
    if not len(rows):
        return complex(block.prod(axis=0) @ w) / 2.0 ** (n - 1)
    x = block + rows.sum(axis=0)[:, None]
    total = x.prod(axis=0) @ w
    step = list(2.0 * rows[:, :, None])
    if len(rows) >= _GLYNN_WIDE_STEP_ROWS:
        # walked row 0 flips on every other step: widened to x's shape, its
        # step is a contiguous add rather than a broadcast one
        step[0] = np.broadcast_to(step[0], x.shape).copy()
    walked = np.arange(len(rows))
    sign = 1.0
    for counter in range(1, 1 << len(rows)):
        i = (counter & -counter).bit_length() - 1
        gray = counter ^ (counter >> 1)  # bit i set: walked row i reads -1
        if i >= _GLYNN_REBUILD_ROWS:
            signs = 1.0 - 2.0 * (gray >> walked & 1)
            np.add(block, (signs @ rows)[:, None], out=x)
        elif gray >> i & 1:
            x -= step[i]
        else:
            x += step[i]
        sign = -sign
        total += sign * (x.prod(axis=0) @ w)
    return complex(total / 2.0 ** (n - 1))


def multidim_permanent(t) -> complex:
    """Permanent of an order-(l+1) tensor with all axes of equal size k.

    Generalizes the matrix permanent: the value is the sum over l-tuples of
    bijections (s1, ..., sl) of range(k) of prod_j t[s1(j), ..., sl(j), j].
    For l = 1 this is the matrix permanent.

    The one-minor case of the minor engine: it fixes s1, ..., s_{l-1}; each
    choice leaves the k x k matrix M[i, j] = t[s1(j), ..., s_{l-1}(j), i, j],
    whose permanent sums over sl, and it adds batched Glynn permanents over
    that stack of (k!)^(l-1) matrices, (k!)^(l-1) * 2^(k-1) * k products in
    all (see :func:`multidim_permanent_work`).
    """
    a, order, k = _as_cube(t)
    if order < 2:
        raise DomainError("tensor must have at least 2 axes")
    if k == 0:
        return 1.0 + 0.0j
    cols = np.arange(k)[:, None]
    return complex(sum(per.sum() for *_, per in _minor_stack(a, k, cols)))


def multidim_permanent_work(k: int, ell: int) -> int:
    """Products the tensor permanent forms for an order-(ell+1)
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


@functools.lru_cache(maxsize=None)
def _stack_signs(b: int) -> tuple[np.ndarray, np.ndarray]:
    """For k = b + 1 rows: the sign vectors as rows of a real (2^b, k) table
    whose last column of ones adds the sign-fixed row, and 2^-b (exact) times
    the sign products of the runs s = 4g..4g+3 (signed +, -, -, +; b < 2: s = 0)."""
    d, w = _sign_table(b)
    table = np.hstack([d.real.T, np.ones((1 << b, 1))])
    return table, (w.real[::4] / 2.0**b)[:, None]


def _glynn_stack(m: np.ndarray) -> np.ndarray:
    """Glynn permanents of the k x k matrices m[:, :, c] of a C-contiguous
    stack, k >= 1, whose sign-fixed row is the last (a minor's rows 1..k-1,
    then its row 0): block[s, j, c] holds the column sums of sign vector s,
    so the products run along contiguous rows. Beyond the dense sign
    table's rows, :func:`_permanent_gray` walks each matrix.

    No value depends on the stack's width: column sums multiply left to
    right (numpy's reduction over a contiguous axis, a stack of one, does
    not), and the signed sum adds each run of four, then the runs in order
    (as BLAS gemv does, except for the last c mod 4 matrices of a stack)."""
    k, _, c = m.shape
    if k - 1 > _GLYNN_BLOCK_ROWS:
        m = np.roll(m, 1, axis=0)
        return np.array([_permanent_gray(m[:, :, i]) for i in range(c)])
    d, w = _stack_signs(k - 1)
    # the signs are real: one real product over the (re, im) pairs
    block = (d @ m.reshape(k, k * c).view(float)).view(complex).reshape(-1, k, c)
    block = (block.prod(axis=1) if c > 1
             else functools.reduce(np.multiply, block.transpose(1, 0, 2)))
    if k < 3:
        total = block[0] - block[1] if k == 2 else block[0]
        total *= w[0]
        return total
    runs = block.reshape(-1, 4, c)
    total = runs[:, 0] - runs[:, 1]
    total -= runs[:, 2]
    total += runs[:, 3]
    total *= w
    return np.add.accumulate(total)[-1] if len(total) > 1 else total[0]


def _row_plan(n: int, m: int, ell: int, k: int, chunk: int):
    """The shape-only side of :func:`_minor_stack`: qstep column sets per
    chunk and a function yielding (r, gathers) per chunk of row tuples from
    the r-th. A gather (k, k, matrices, 1, rows) holds flat offsets less the
    column: row offsets at :func:`_tensor_tables` positions (bijections)."""
    sub = subset_table(n, k)
    rows = sub * (n ** (ell - 1) * m)
    for r in range(1, ell):
        step = sub * (n ** (ell - 1 - r) * m)
        rows = (rows[:, None, :, None] + step[None, :, None, :]).reshape(
            len(rows) * k, -1
        )
    outer, index = _tensor_tables(k, ell)
    # row 0 of each minor goes last, as :func:`_glynn_stack` reads it
    index = np.roll(index, -1, axis=0)
    cstep = min(index.shape[2], chunk)
    rstep = min(rows.shape[1], max(1, chunk // cstep))
    qstep = max(1, chunk // cstep // rstep)

    def chunks():
        for r in range(0, rows.shape[1], rstep):
            block = rows[:, r : r + rstep]
            yield r, (
                block.take(pos[:, :, s : s + cstep], axis=0)[:, :, :, None, :]
                for pos in (sum(choice, index) for choice in itertools.product(*outer))
                for s in range(0, pos.shape[2], cstep)
            )

    return qstep, chunks


@functools.lru_cache(maxsize=128)
def _cached_plan(n: int, m: int, ell: int, k: int, chunk: int):
    """:func:`_row_plan` of a row side that fits one chunk (one gather of at
    most ``chunk`` matrices), built once per shape and chunk bound."""
    qstep, chunks = _row_plan(n, m, ell, k, chunk)
    plan = tuple((r, tuple(gathers)) for r, gathers in chunks())
    for _, gathers in plan:
        for g in gathers:
            g.flags.writeable = False
    return qstep, lambda: plan


def _minor_stack(a: np.ndarray, k: int, cols: np.ndarray):
    """Yield (q, r, per) chunk by chunk, k >= 1: per[i, j] is the permanent
    of a[J_1, ..., J_l, cols[:, q + i]] for the (r + j)-th l-tuple of row
    k-subsets (product of rank orders) of an order-(l+1) tensor, at most
    _glynn_chunk(k) Glynn matrices a chunk. Row gathers are cached per shape
    where one column set's C(n, k)^l * (k!)^(l-1) matrices fit a chunk (the
    overhead-bound case), else made on every call and kept by none."""
    ell = a.ndim - 1
    n, m = a.shape[0], a.shape[-1]
    chunk = _glynn_chunk(k)
    fits = math.comb(n, k) ** ell * math.factorial(k) ** (ell - 1) <= chunk
    qstep, chunks = (_cached_plan if fits else _row_plan)(n, m, ell, k, chunk)
    flat = a.ravel()
    for q in range(0, cols.shape[1], qstep):
        c = cols[None, :, None, q : q + qstep, None]
        for r, gathers in chunks():
            per = None
            for g in gathers:
                shape = g.shape[2:3] + c.shape[3:4] + g.shape[4:]
                # rebinding g frees an unplanned gather before the kernel runs
                g = flat.take(g + c)
                values = _glynn_stack(g.reshape(k, k, -1)).reshape(shape)
                # sum the matrices of each minor in order (order 2 has one),
                # as numpy does wherever a chunk has two minors
                values = np.add.accumulate(values)[-1] if len(values) > 1 else values[0]
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


@functools.lru_cache(maxsize=None)
def _transpose_generators(ndim: int) -> tuple[tuple[int, ...], ...]:
    """An adjacent swap and a cycle of the axes (one transpose for a
    matrix): they generate every transpose of an order-ndim tensor."""
    if ndim < 2:
        return ()
    swap = (1, 0) + tuple(range(2, ndim))
    cycle = tuple(range(1, ndim)) + (0,)
    return tuple(dict.fromkeys((swap, cycle)))


def _check_symmetric(a: np.ndarray, atol: float) -> None:
    """Raise DomainError unless every entry of a is finite and a equals its
    transposes within ``atol``, each generator of them compared one slice of
    the first axis at a time (of at least one index, and of about 2^15
    entries). A NaN would pass every comparison, so non-finite entries are
    rejected first."""
    if np.count_nonzero(np.isfinite(a)) < a.size:
        raise DomainError("tensor has a non-finite entry")
    step = max(1, (1 << 15) * len(a) // max(1, a.size))
    for axes in _transpose_generators(a.ndim):
        b = a.transpose(axes)
        for i in range(0, len(a), step):
            if np.count_nonzero(np.abs(a[i : i + step] - b[i : i + step]) > atol):
                raise DomainError(f"tensor is not symmetric within {atol:g}")


def hafnian(z) -> complex:
    """Hafnian of a symmetric complex matrix of even dimension.

    Sums, over all perfect matchings of the index set, the product of the
    matched entries, by the level-by-level match-the-lowest-index kernel
    (F_(n+1) states, a Fibonacci number, times at most n-1 partners each;
    see :func:`hyperhafnian_work`). Diagonal entries never enter the value,
    the empty matrix gives 1; odd dimension, a non-finite entry or asymmetry
    beyond ``SYMMETRY_ATOL`` (absolute) raises DomainError. The order-2 case of
    :func:`hyperhafnian`.
    """
    a = _as_square(z)
    if len(a) % 2:
        raise DomainError(f"hafnian needs an even dimension, got {len(a)}")
    return hyperhafnian(a)


@functools.lru_cache(maxsize=None)
def _match_levels(n: int, ell: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The states of the match-the-lowest-index recursion over n indices
    with blocks of size ell, level by level: level r holds the sets of
    unused indices reachable after removing r blocks, each with the same
    C(n - r*ell - 1, ell - 1) partner subsets. Per level it gives
    ``block[i, p]``, the rank in :func:`subset_table` (n, ell) order of the
    block that state i removes with partner subset p, and ``child[i, p]``,
    the slot of the state it leaves in level r + 1. States are boolean rows
    of unused indices, numbered per level by their packed bytes, so any n
    works."""
    levels = []
    unused = np.ones((1, n), dtype=bool)
    for _ in range(n // ell):
        states, f = len(unused), n - len(levels) * ell
        free = np.nonzero(unused)[1].reshape(states, f)
        # a block is the lowest free index (column 0) and a partner subset
        cols = np.pad(subset_table(f - 1, ell - 1) + 1, ((1, 0), (0, 0)))
        members = free[:, cols]  # (states, ell, partners), increasing on axis 1
        block = subset_ranks(members.transpose(1, 0, 2), n)
        left = np.repeat(unused[:, None, :], cols.shape[1], axis=1)
        np.put_along_axis(left, members.transpose(0, 2, 1), False, axis=2)
        left = left.reshape(-1, n)
        keys = np.packbits(left, axis=1)
        keys = keys.view(np.dtype((np.void, keys.shape[1]))).ravel()
        _, first, child = np.unique(keys, return_index=True, return_inverse=True)
        for table in (block, child):
            table.flags.writeable = False
        levels.append((block, child.reshape(block.shape)))
        unused = left[first]
    return tuple(levels)


def _match_lowest(entries: np.ndarray, n: int, ell: int) -> np.ndarray:
    """Sum over the partitions of range(n) into blocks of size ell (n >= 1)
    of the products of their block entries: ``entries`` has one row per
    block in :func:`subset_table` (n, ell) rank order, and any trailing axes
    (one value per tensor of a stack). Evaluated from the deepest level of
    :func:`_match_levels` up, one gather, product and sum per level."""
    levels = _match_levels(n, ell)
    # the last block completes every state of the deepest level
    value = entries[levels[-1][0][:, 0]]
    for block, child in levels[-2::-1]:
        terms = entries[block]
        terms *= value[child]
        value = terms.sum(axis=1)
    return value[0]


@functools.lru_cache(maxsize=None)
def _block_index(n: int, ell: int) -> np.ndarray:
    """C-order flat indices of the blocks of an order-ell tensor over n
    indices (increasing entries), in :func:`subset_table` (n, ell) order."""
    index = subset_table(n, ell).T @ (n ** np.arange(ell - 1, -1, -1))
    index.flags.writeable = False
    return index


def _principal_stack(a: np.ndarray, s: int):
    """Yield, chunk by chunk, the hyperhafnians of the principal minors
    a[J, ..., J] over the s-subsets J in rank order (s a multiple of the
    order): at most _GLYNN_BATCH_ROWS minors, fewer where a level's terms
    would pass 2^7 values per minor of that limit. Only the entries with
    increasing indices are gathered; they are all the kernel reads."""
    ell, n = a.ndim, a.shape[0]
    if s == 0:
        yield np.ones(1, dtype=complex)
        return
    if s == n:
        # one minor: plain rows of entries, the value as a chunk of one
        yield _match_lowest(a.ravel().take(_block_index(n, ell)), n, ell)[None]
        return
    combos, sub = subset_table(s, ell), subset_table(n, s)
    index = sum(sub[combos[r]] * n ** (ell - 1 - r) for r in range(ell))
    work = hyperhafnian_work(s, ell) + len(index)
    step = max(1, min(_GLYNN_BATCH_ROWS, (_GLYNN_BATCH_ROWS << 7) // work))
    flat = a.ravel()
    for r in range(0, index.shape[1], step):
        yield _match_lowest(flat.take(index[:, r : r + step]), s, ell)


def hyperhafnian(t, *, method: str = "recursive") -> complex:
    """Hafnian generalization for a fully symmetric order-l tensor.

    For an l-dimensional tensor over n = l*m indices the value is
    1/(m! (l!)^m) times the sum over all n! orderings j of the products
    prod_r t[j(r*l), ..., j(r*l + l - 1)]; equivalently the sum over all
    unordered partitions of the index set into m blocks of size l of the
    block-entry products. For l = 2 this is the hafnian. The empty tensor
    gives 1.

    method "recursive" matches the lowest unused index with every
    (l-1)-subset of the remaining indices, once per reachable set of unused
    indices, evaluated level by level over cached tables from the last block
    up (:func:`hyperhafnian_work` counts its steps); it is the one-minor
    case of the principal-minor stack. "direct" evaluates the normalized
    n!-term sum and serves as an oracle. A non-finite entry or asymmetry
    beyond ``SYMMETRY_ATOL`` raises DomainError.
    """
    a, ell, n = _as_cube(t)
    if n % ell:
        raise DomainError(f"axis size {n} is not a multiple of the order {ell}")
    _check_symmetric(a, SYMMETRY_ATOL)
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
    return complex(next(_principal_stack(a, n))[0])


@functools.lru_cache(maxsize=None)
def hyperhafnian_work(n: int, ell: int) -> int:
    """Steps of the "recursive" hyperhafnian of an order-ell tensor over n
    indices: reachable states times the partner subsets of each, the
    entries of the kernel's level tables.

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


# Work limits of :func:`evaluate`: "per" and "per_ell" in products of
# :func:`multidim_permanent_work` (the matrix permanent at n = 24), "haf" and
# "haf_ell" in level-table entries of :func:`hyperhafnian_work`. In a fresh
# process on a 2-core x86 box (Python 3.11, numpy 2.4, one BLAS thread) the
# largest accepted shapes of each kind took at most 1.0 s and 74 MB.
PER_MAX_WORK = multidim_permanent_work(24, 1)
HAF_MAX_WORK = 2_000_000
# Largest n whose exact normalized permanent sits beside a bound: the exact
# column of ``permbound bounds`` and the exact value of ``permbound charfn``.
EXACT_COLUMN_MAX_N = 12


def evaluate(kind: str, array) -> tuple[complex, int]:
    """Value and work of the kernel ``kind`` of ``permbound exact``: "per"
    (:func:`permanent`), "haf" (:func:`hafnian`), "per_ell"
    (:func:`multidim_permanent`) or "haf_ell" (:func:`hyperhafnian`).

    Checks, in order: the shape (a matrix for "per" and "haf", at least two
    axes for the tensor kinds, all axes of one size n and, for the hafnians,
    n a multiple of the order; DomainError), then the work against
    ``PER_MAX_WORK`` or ``HAF_MAX_WORK`` (FeasibilityError), and only then
    runs the kernel. The work returned is the one compared.
    """
    kernels = {"per": permanent, "haf": hafnian,
               "per_ell": multidim_permanent, "haf_ell": hyperhafnian}
    if kind not in kernels:
        raise DomainError(f"unknown kind {kind!r}")
    shape = np.shape(array)
    order = len(shape)
    if kind in ("per", "haf") and order != 2:
        raise DomainError(f"kind {kind!r} needs a matrix input")
    if order < 2:
        # at order 1 the work counts n entries, but the levels hold n^2 cells
        raise DomainError("tensor must have at least 2 axes")
    n = shape[0]
    if any(s != n for s in shape):
        raise DomainError(f"all axes must have equal size, got shape {shape}")
    if kind.startswith("per"):
        work, limit, unit = multidim_permanent_work(n, order - 1), PER_MAX_WORK, "products"
    else:
        if n % order:
            raise DomainError(f"axis size {n} is not a multiple of the order {order}")
        work, limit, unit = hyperhafnian_work(n, order), HAF_MAX_WORK, "table entries"
    if work > limit:
        raise FeasibilityError(
            f"{kind} work limit {limit} {unit}, got {work} for shape {shape}"
        )
    return kernels[kind](array), work


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
) -> complex:
    """Tensor permanent via expansion along blocks of the last axis.

    With ``column_blocks`` given (an ordered partition of the last axis with
    block sizes ``sizes``), sums over all choices of ordered partitions of
    each of the first l axes the products of block tensor permanents.

    Without them, the expansion averages over every ordered partition W of
    the last axis with block sizes ``sizes``; the sum acquires the prefactor
    prod_r sizes[r]! / k!.

    The block permanents come from stacked tables over every l-tuple of row
    subsets, one per column block (one per block size, over every column
    subset of that size, when averaged): the factors of
    :func:`generalized_R` on the full index sets.
    """
    a, order, k = _as_cube(t)
    if order < 2:
        raise DomainError("tensor must have at least 2 axes")
    w = as_composition(sizes, total=k)
    if column_blocks is None:
        tables = {p: _minor_table(a, p, subset_table(k, p)) for p in w}
        factors = [SetFunction((k,) * order, (p,) * order, tables[p]) for p in w]
        return generalized_R(factors, (range(k),) * order) / multinomial(w)
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
