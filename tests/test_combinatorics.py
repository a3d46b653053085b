import itertools
import math

import pytest

from permbound.combinatorics import (
    as_composition,
    as_index_set,
    enumerate_partitions,
    enumerate_subsets,
    subset_count,
    subset_rank,
    validate_partition,
)
from permbound.errors import DomainError


def test_subsets_lex_order_and_count():
    for n in range(7):
        for k in range(n + 1):
            subs = list(enumerate_subsets(n, k))
            assert len(subs) == subset_count(n, k) == math.comb(n, k)
            assert subs == sorted(subs)
            assert all(len(s) == k and list(s) == sorted(set(s)) for s in subs)


def test_subset_rank_matches_enumeration_order():
    for n in range(1, 8):
        for k in range(n + 1):
            for i, sub in enumerate(enumerate_subsets(n, k)):
                assert subset_rank(sub, n) == i


def test_complement_has_reversed_rank():
    # the complement of the r-th j-subset is the (C(n, j) - 1 - r)-th
    # (n - j)-subset
    for n in range(9):
        for j in range(n + 1):
            subs = list(enumerate_subsets(n, j))
            comps = list(enumerate_subsets(n, n - j))
            for r, sub in enumerate(subs):
                rest = tuple(e for e in range(n) if e not in sub)
                assert comps[len(subs) - 1 - r] == rest


def test_as_index_set_validates():
    assert as_index_set([3, 1], 5) == (1, 3)
    assert as_index_set((), 0) == ()
    with pytest.raises(DomainError):
        as_index_set([1, 1], 5)
    with pytest.raises(DomainError):
        as_index_set([5], 5)
    with pytest.raises(DomainError):
        as_index_set([-1], 5)


def test_as_composition_checks_total():
    assert as_composition((3, 0, 2)) == (3, 0, 2)
    assert as_composition((1, 2), total=3) == (1, 2)
    with pytest.raises(DomainError):
        as_composition((1, 2), total=4)
    with pytest.raises(DomainError):
        as_composition((-1, 2))


def test_partitions_count_and_disjointness():
    elems = (0, 1, 2, 3, 4)
    for sizes in [(2, 3), (1, 1, 3), (5,), (0, 5), (2, 2, 1)]:
        parts = list(enumerate_partitions(elems, sizes))
        expected = math.factorial(5)
        for s in sizes:
            expected //= math.factorial(s)
        assert len(parts) == expected
        seen = set()
        for blocks in parts:
            flat = tuple(sorted(e for b in blocks for e in b))
            assert flat == elems
            assert tuple(len(b) for b in blocks) == sizes
            assert blocks not in seen
            seen.add(blocks)


def test_validate_partition():
    validate_partition(((0, 1), (2,)), (0, 1, 2))
    with pytest.raises(DomainError):
        validate_partition(((0, 1), (1, 2)), (0, 1, 2))
    with pytest.raises(DomainError):
        validate_partition(((0,),), (0, 1))


def test_partition_injection_bridge():
    # each ordered partition of a k-set into blocks of sizes w arises from
    # exactly prod(w_r!) injections once block-internal order is forgotten
    elems = (0, 1, 2, 3, 4)
    sizes = (2, 1, 2)
    counts: dict[tuple, int] = {}
    for inj in itertools.permutations(elems):
        at = 0
        blocks = []
        for s in sizes:
            blocks.append(tuple(sorted(inj[at : at + s])))
            at += s
        key = tuple(blocks)
        counts[key] = counts.get(key, 0) + 1
    expected = 1
    for s in sizes:
        expected *= math.factorial(s)
    parts = set(enumerate_partitions(elems, sizes))
    assert set(counts) == parts
    assert all(v == expected for v in counts.values())
