"""Brute-force enumerations that the tests compare the kernels against.

They sum every term of a definition, so they are slow and only run at
small sizes. The matrix permanent and the hyperhafnian keep theirs in
``permbound.exact`` as ``method="direct"``, which perfbench's workload
tests also call. The ``*_fraction`` oracles are exact: every double is a
dyadic rational, so they sum in rational or integer arithmetic.
"""

import itertools
import math
from fractions import Fraction

import numpy as np


def multidim_permanent_direct(t) -> complex:
    """Tensor permanent of an order-(l+1) tensor with all axes of size k:
    the sum over all (k!)^l tuples of bijections of the products
    prod_j t[s1(j), ..., sl(j), j]."""
    a = np.asarray(t, dtype=complex)
    k, order = a.shape[0], a.ndim
    if k == 0:
        return 1.0 + 0.0j
    last = np.arange(k)
    perms = [np.asarray(p) for p in itertools.permutations(range(k))]
    total = 0.0 + 0.0j
    for combo in itertools.product(perms, repeat=order - 1):
        total += a[combo + (last,)].prod()
    return complex(total)


def permanent_fraction(z) -> tuple[Fraction, Fraction]:
    """Real and imaginary part of the permanent of a complex matrix, exact.

    Ryser's formula, (-1)^n times the sum over column sets S of
    (-1)^|S| prod_i sum_(j in S) z[i, j], with S walked in Gray-code order.
    Every entry's parts are dyadic, so times their largest denominator D
    they are integers: the sum runs over (re, im) pairs of ints, exactly,
    and is divided by D^n."""
    a = np.asarray(z, dtype=complex)
    n = a.shape[0]
    parts = [[(Fraction(float(v.real)), Fraction(float(v.imag))) for v in row]
             for row in a]
    scale = max((f.denominator for row in parts for v in row for f in v), default=1)
    cols = list(zip(*([(int(re * scale), int(im * scale)) for re, im in row]
                      for row in parts)))
    sums = [(0, 0)] * n
    total_re, total_im = int(n == 0), 0  # the empty set's term
    for counter in range(1, 1 << n):
        j = (counter & -counter).bit_length() - 1
        gray = counter ^ (counter >> 1)  # bit j set: column j joins S
        s = 1 if gray >> j & 1 else -1
        sums = [(sr + s * er, si + s * ei) for (sr, si), (er, ei) in zip(sums, cols[j])]
        pr, pi = 1, 0
        for sr, si in sums:
            pr, pi = pr * sr - pi * si, pr * si + pi * sr
        s = (-1) ** (n + bin(gray).count("1"))
        total_re += s * pr
        total_im += s * pi
    return Fraction(total_re, scale**n), Fraction(total_im, scale**n)


def unit_circle_theta_bound_ordered(x, t: float) -> float:
    """The theta refinement of the averaged unit-circle bound, summed over
    every ordered column pair u != v (the library visits each unordered
    pair once)."""
    a = np.asarray(x, dtype=float)
    n = a.shape[0]
    total = 0.0
    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            d = a[:, u] - a[:, v]
            y = d[:, None] - d[None, :]
            term = (t * y / 2.0) ** 2 * np.maximum(0.0, 1.0 - (t * y) ** 2 / 12.0)
            total += float(term.sum())
    theta = total / (n * (n - 1)) ** 2
    return (1.0 - theta) ** (0.5 * (n // 2))


def f_set_fraction(z, cols) -> Fraction:
    """f_set of a complex matrix in exact rational arithmetic: every double
    is a dyadic rational, so each minor's permanent, summed over all k!
    bijections with Fraction real and imaginary parts, is exact, and so is
    the mean of |per(z[J, K]) / k!|^2 over the row k-subsets J."""
    a = np.asarray(z, dtype=complex)
    K = list(cols)
    k = len(K)
    entries = [[(Fraction(float(a[j, c].real)), Fraction(float(a[j, c].imag))) for c in K]
               for j in range(a.shape[0])]
    total = Fraction(0)
    for J in itertools.combinations(range(a.shape[0]), k):
        re, im = Fraction(0), Fraction(0)
        for s in itertools.permutations(range(k)):
            pr, pi = Fraction(1), Fraction(0)
            for j, c in zip(J, s):
                er, ei = entries[j][c]
                pr, pi = pr * er - pi * ei, pr * ei + pi * er
            re += pr
            im += pi
        total += re * re + im * im
    return total / (math.factorial(k) ** 2 * math.comb(a.shape[0], k))


def block_embed_per_as_haf(z) -> np.ndarray:
    """Symmetric 2n x 2n block matrix [[0, z], [z^T, 0]]; its hafnian is
    per(z), which makes the hafnian kernel an oracle for the permanent."""
    a = np.asarray(z, dtype=complex)
    n = a.shape[0]
    out = np.zeros((2 * n, 2 * n), dtype=complex)
    out[:n, n:] = a
    out[n:, :n] = a.T
    return out
