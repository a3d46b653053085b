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
