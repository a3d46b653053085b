"""Brute-force enumerations that the tests compare the kernels against.

They sum every term of a definition, so they are slow and only run at
small sizes. The matrix permanent and the hyperhafnian keep theirs in
``permbound.exact`` as ``method="direct"``, which perfbench's workload
tests also call.
"""

import itertools

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
