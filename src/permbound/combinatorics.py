"""Subsets, weak compositions and ordered set partitions of index sets.

Enumerations are lazy generators in deterministic lexicographic order and
all indices are 0-based. An index set is a strictly increasing tuple of
ints, a composition is a tuple of non-negative ints (zero parts allowed),
and an ordered partition is a tuple of pairwise disjoint index sets
covering its ground set. Subset counts and ranks are exact integers.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator, Sequence

from .errors import DomainError

IndexSet = tuple[int, ...]
Composition = tuple[int, ...]
OrderedPartition = tuple[IndexSet, ...]


def as_index_set(elements: Iterable[int], ground: int | None = None) -> IndexSet:
    """Canonicalize ``elements`` to a sorted tuple, checking strictness.

    Raises DomainError on duplicates, negatives, or elements outside
    ``range(ground)`` when a ground size is given.
    """
    out = tuple(sorted(int(e) for e in elements))
    for i, e in enumerate(out):
        if e < 0:
            raise DomainError(f"index {e} is negative")
        if i and out[i - 1] == e:
            raise DomainError(f"duplicate index {e}")
        if ground is not None and e >= ground:
            raise DomainError(f"index {e} outside ground set of size {ground}")
    return out


def enumerate_subsets(n: int, k: int) -> Iterator[IndexSet]:
    """Yield the k-element subsets of range(n) in lexicographic order."""
    if n < 0 or k < 0:
        raise DomainError(f"need n >= 0 and k >= 0, got n={n}, k={k}")
    if k > n:
        raise DomainError(f"cannot choose {k} elements from {n}")
    return itertools.combinations(range(n), k)


def subset_count(n: int, k: int) -> int:
    if n < 0 or k < 0 or k > n:
        raise DomainError(f"invalid subset parameters n={n}, k={k}")
    return math.comb(n, k)


def subset_rank(subset: Sequence[int], n: int) -> int:
    """Lexicographic rank of a k-subset of range(n).

    Ranks run from 0 to C(n, k) - 1 in the same order as
    :func:`enumerate_subsets`.
    """
    s = as_index_set(subset, n)
    k = len(s)
    rank = 0
    prev = -1
    for i, e in enumerate(s):
        for j in range(prev + 1, e):
            rank += math.comb(n - 1 - j, k - 1 - i)
        prev = e
    return rank


def as_composition(parts: Iterable[int], total: int | None = None) -> Composition:
    """Canonicalize a weak composition (zero parts allowed)."""
    out = tuple(int(p) for p in parts)
    for p in out:
        if p < 0:
            raise DomainError(f"composition part {p} is negative")
    if total is not None and sum(out) != total:
        raise DomainError(f"composition sums to {sum(out)}, expected {total}")
    return out


def enumerate_partitions(
    elements: Iterable[int], sizes: Sequence[int]
) -> Iterator[OrderedPartition]:
    """Yield ordered partitions of ``elements`` into blocks of given sizes.

    Blocks are index sets; block r has exactly sizes[r] elements and empty
    blocks are allowed. Order is lexicographic in the successive block
    choices. The stream has multinomial(|elements|; sizes) elements.
    """
    ground = as_index_set(elements)
    comp = as_composition(sizes, total=len(ground))

    def rec(remaining: IndexSet, level: int) -> Iterator[OrderedPartition]:
        if level == len(comp):
            yield ()
            return
        for block in itertools.combinations(remaining, comp[level]):
            chosen = set(block)
            rest = tuple(e for e in remaining if e not in chosen)
            for tail in rec(rest, level + 1):
                yield (block,) + tail

    return rec(ground, 0)


def validate_partition(
    blocks: Sequence[Sequence[int]], elements: Iterable[int]
) -> OrderedPartition:
    """Check that ``blocks`` is an ordered partition of ``elements``."""
    ground = as_index_set(elements)
    canon = tuple(as_index_set(b) for b in blocks)
    merged: list[int] = []
    for b in canon:
        merged.extend(b)
    if len(merged) != len(set(merged)):
        raise DomainError("partition blocks overlap")
    if sorted(merged) != list(ground):
        raise DomainError("partition blocks do not cover the ground set")
    return canon
