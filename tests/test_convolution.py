import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from permbound.combinatorics import enumerate_partitions, enumerate_subsets
from permbound.convolution import (
    EQUALITY_CONDITIONS,
    SetFunction,
    _split_ranks,
    classify_equality,
    equality_conditions,
    generalized_R,
    subset_convolution,
    verify_convolution_inequality,
    verify_master_inequality,
)
from permbound.errors import DomainError
from permbound.exact import permanent


def rand_sf(rng, n, j, nonneg=True, arity=1):
    sizes = (n,) * arity
    levels = (j,) * arity
    shape = tuple(math.comb(n, j) for _ in range(arity))
    if nonneg:
        table = rng.random(shape)
    else:
        table = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return SetFunction(sizes, levels, table)


def test_set_function_value_and_shape():
    table = np.arange(6, dtype=float)
    g = SetFunction(4, 2, table)
    subs = list(enumerate_subsets(4, 2))
    for idx, sub in enumerate(subs):
        assert g.value(sub) == table[idx]
    assert g.mean_square() == pytest.approx(float((table**2).mean()))
    assert g.is_nonnegative()
    with pytest.raises(DomainError):
        SetFunction(4, 2, np.zeros(5))
    with pytest.raises(DomainError):
        SetFunction(4, 5, np.zeros(1))


def test_set_function_value_rejects_subset_of_wrong_size():
    g = SetFunction(4, 2, np.arange(6.0))
    for sub in ((0,), (0, 1, 2), ()):
        with pytest.raises(DomainError, match=f"axis 0: subset of size {len(sub)} at level 2"):
            g.value(sub)
    g2 = SetFunction((3, 3), (1, 2), np.ones((3, 3)))
    with pytest.raises(DomainError, match="axis 1: subset of size 1 at level 2"):
        g2.value(((0,), (1,)))


def test_is_nonnegative():
    assert not SetFunction(3, 1, np.array([1.0, -0.5, 2.0])).is_nonnegative()
    assert not SetFunction(3, 1, np.array([1.0, 1j, 0.0])).is_nonnegative()
    assert SetFunction(3, 1, np.array([0.0, 0.5, 2.0])).is_nonnegative()
    rows = SetFunction(3, 1, np.array([[1.0, -0.5, 2.0], [0.0, 0.5, 2.0], [1.0, 1j, 0.0]]))
    assert rows.is_nonnegative().tolist() == [False, True, False]


def test_subset_convolution_oracle():
    rng = np.random.default_rng(60)
    n = 5
    for j, kh in [(1, 2), (2, 2), (0, 3), (2, 3)]:
        g = rand_sf(rng, n, j, nonneg=False)
        h = rand_sf(rng, n, kh, nonneg=False)
        p = subset_convolution(g, h)
        assert p.levels == (j + kh,)
        for J in enumerate_subsets(n, j + kh):
            expected = 0.0 + 0.0j
            for I in itertools.combinations(J, j):
                rest = tuple(e for e in J if e not in I)
                expected += g.value(I) * h.value(rest)
            assert p.value(J) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_subset_convolution_two_axes():
    rng = np.random.default_rng(61)
    g = rand_sf(rng, 4, 1, arity=2)
    h = rand_sf(rng, 4, 1, arity=2)
    p = subset_convolution(g, h)
    assert p.levels == (2, 2)
    J1, J2 = (0, 2), (1, 3)
    expected = 0.0
    for i1 in J1:
        for i2 in J2:
            r1 = tuple(e for e in J1 if e != i1)
            r2 = tuple(e for e in J2 if e != i2)
            expected += g.value(((i1,), (i2,))) * h.value((r1, r2))
    assert p.value((J1, J2)) == pytest.approx(expected, rel=1e-12)


def test_subset_convolution_rejects_mismatch():
    g = SetFunction(4, 1, np.ones(4))
    h = SetFunction(5, 1, np.ones(5))
    with pytest.raises(DomainError):
        subset_convolution(g, h)
    with pytest.raises(DomainError):
        subset_convolution(
            SetFunction(4, 3, np.ones(4)), SetFunction(4, 2, np.ones(6))
        )


def test_inequality_holds_on_random_instances():
    rng = np.random.default_rng(62)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, n + 1))
        j = int(rng.integers(0, k + 1))
        g = rand_sf(rng, n, j)
        h = rand_sf(rng, n, k - j)
        check = verify_convolution_inequality(g, h)
        assert check.holds
        assert check.lhs <= check.rhs * (1 + 1e-12)


def test_inequality_requires_nonnegative():
    g = SetFunction(3, 1, np.array([1.0, -1.0, 1.0]))
    h = SetFunction(3, 1, np.ones(3))
    with pytest.raises(DomainError):
        verify_convolution_inequality(g, h)
    with pytest.raises(DomainError):  # one negative row of a batch
        verify_convolution_inequality(SetFunction(3, 1, np.stack([np.ones(3), g.table])), h)


def test_inequality_symmetric_in_factors():
    rng = np.random.default_rng(63)
    g = rand_sf(rng, 5, 2)
    h = rand_sf(rng, 5, 1)
    a = verify_convolution_inequality(g, h)
    b = verify_convolution_inequality(h, g)
    assert a.lhs == pytest.approx(b.lhs, rel=1e-12)
    assert a.rhs == pytest.approx(b.rhs, rel=1e-12)


def test_equality_degenerate_level():
    rng = np.random.default_rng(64)
    g = rand_sf(rng, 4, 0)
    h = rand_sf(rng, 4, 3)
    check = verify_convolution_inequality(g, h)
    assert check.equal
    assert "degenerate_level" in classify_equality(g, h)


def test_equality_zero_factor():
    rng = np.random.default_rng(65)
    g = SetFunction(5, 2, np.zeros(10))
    h = rand_sf(rng, 5, 2)
    check = verify_convolution_inequality(g, h)
    assert check.equal
    conds = classify_equality(g, h)
    assert "g_zero" in conds
    assert "h_zero" not in conds
    conds_swapped = classify_equality(h, g)
    assert "h_zero" in conds_swapped


def test_equality_both_constant():
    g = SetFunction(5, 2, np.full(10, 0.7))
    h = SetFunction(5, 1, np.full(5, 1.3))
    check = verify_convolution_inequality(g, h)
    assert check.equal
    assert "both_constant" in classify_equality(g, h)


def test_equality_complement_proportional():
    rng = np.random.default_rng(66)
    n, j = 5, 2
    h = rand_sf(rng, n, n - j)
    gvals = np.zeros(math.comb(n, j))
    for idx, sub in enumerate(enumerate_subsets(n, j)):
        comp = tuple(e for e in range(n) if e not in sub)
        gvals[idx] = 2.5 * h.value(comp)
    g = SetFunction(n, j, gvals)
    check = verify_convolution_inequality(g, h)
    assert check.equal
    assert "complement_proportional" in classify_equality(g, h)


def test_strict_inequality_classified_empty():
    g = SetFunction(4, 1, np.array([1.0, 2.0, 3.0, 4.0]))
    h = SetFunction(4, 1, np.array([4.0, 1.0, 1.0, 1.0]))
    check = verify_convolution_inequality(g, h)
    assert check.holds
    assert not check.equal
    assert classify_equality(g, h) == ()


def test_classify_rejects_bad_input():
    with pytest.raises(DomainError):
        classify_equality(
            SetFunction(4, 1, np.ones(4)), SetFunction(5, 1, np.ones(5))
        )
    with pytest.raises(DomainError):
        classify_equality(
            SetFunction(4, 3, np.ones(4)), SetFunction(4, 2, np.ones(6))
        )


def test_multi_axis_inequality():
    rng = np.random.default_rng(67)
    for _ in range(10):
        g = rand_sf(rng, 4, 1, arity=2)
        h = rand_sf(rng, 4, 2, arity=2)
        check = verify_convolution_inequality(g, h)
        assert check.holds


# a row kind other than "random" is the equality condition it is built to meet
KINDS = ("random", "g_zero", "h_zero", "both_constant", "complement_proportional")


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_stacked_calls_equal_per_row_calls(data):
    arity = data.draw(st.integers(1, 2))
    n = data.draw(st.integers(1, 5))
    j = data.draw(st.integers(0, n))
    # a full combined level often, so that complement-proportional rows exist
    kh = n - j if data.draw(st.booleans()) else data.draw(st.integers(0, n - j))
    kinds = data.draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=8))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    sizes, lev_g, lev_h = (n,) * arity, (j,) * arity, (kh,) * arity
    gt = rng.random((len(kinds),) + (math.comb(n, j),) * arity)
    ht = rng.random((len(kinds),) + (math.comb(n, kh),) * arity)
    for b, kind in enumerate(kinds):
        if kind == "g_zero":
            gt[b] = 0.0
        elif kind == "h_zero":
            ht[b] = 0.0
        elif kind == "both_constant":
            gt[b], ht[b] = rng.random() + 0.5, rng.random() + 0.5
        elif kind == "complement_proportional" and arity == 1 and j + kh == n:
            gt[b] = (rng.random() + 0.5) * ht[b, ::-1]
    g, h = SetFunction(sizes, lev_g, gt), SetFunction(sizes, lev_h, ht)
    rows = [
        (SetFunction(sizes, lev_g, gt[b]), SetFunction(sizes, lev_h, ht[b]))
        for b in range(len(kinds))
    ]
    p = subset_convolution(g, h)
    check = verify_convolution_inequality(g, h)
    for b, (gb, hb) in enumerate(rows):
        assert np.array_equal(p.table[b], subset_convolution(gb, hb).table)
        assert g.mean_square()[b] == gb.mean_square()
        one = verify_convolution_inequality(gb, hb)
        assert type(one.lhs) is float and type(one.holds) is bool
        assert (check.lhs[b], check.rhs[b], check.holds[b], check.equal[b]) == (
            one.lhs, one.rhs, one.holds, one.equal
        )
    if arity == 1:
        per_row = [classify_equality(gb, hb) for gb, hb in rows]
        assert classify_equality(g, h) == per_row
        flags = equality_conditions(g, h)
        assert flags.shape == (len(kinds), len(EQUALITY_CONDITIONS))
        for kind, names in zip(kinds, per_row):
            if kind != "random" and (kind != "complement_proportional" or j + kh == n):
                assert kind in names


def test_batch_axes_broadcast():
    rng = np.random.default_rng(68)
    g = SetFunction(5, 2, rng.random((2, 3, 10)))
    h = SetFunction(5, 1, rng.random((3, 5)))
    p = subset_convolution(g, h)
    assert p.table.shape == (2, 3, 10)
    check = verify_convolution_inequality(g, h)
    assert check.lhs.shape == check.holds.shape == (2, 3)
    for a, b in itertools.product(range(2), range(3)):
        gb, hb = SetFunction(5, 2, g.table[a, b]), SetFunction(5, 1, h.table[b])
        assert np.array_equal(p.table[a, b], subset_convolution(gb, hb).table)
        assert check.lhs[a, b] == verify_convolution_inequality(gb, hb).lhs
        assert g.value((1, 4))[a, b] == gb.value((1, 4))
    assert equality_conditions(g, h).shape == (2, 3, 5)
    with pytest.raises(DomainError, match="unbatched"):
        verify_master_inequality([g, SetFunction(5, 1, h.table[0])])


def test_expansion_rejects_unequal_grounds_excess_levels_and_no_factors():
    fs = tuple(SetFunction(6, j, np.ones(math.comb(6, j))) for j in (1, 2, 3))
    assert generalized_R(fs, tuple(range(6))) == 60  # 6! / (1! 2! 3!)
    unequal = (SetFunction(4, 1, np.ones(4)), SetFunction(5, 1, np.ones(5)))
    excess = (SetFunction(4, 3, np.ones(4)), SetFunction(4, 2, np.ones(6)))
    for factors, js in ((unequal, (0, 1)), (excess, tuple(range(5))), ((), ())):
        with pytest.raises(DomainError):
            generalized_R(factors, js)
        with pytest.raises(DomainError):
            verify_master_inequality(factors)


def test_split_ranks_match_dict_construction():
    for n in range(7):
        for k in range(n + 1):
            for j in range(k + 1):
                rank_i = {s: r for r, s in enumerate(enumerate_subsets(n, j))}
                rank_rest = {s: r for r, s in enumerate(enumerate_subsets(n, k - j))}
                pairs = [
                    (rank_i[part], rank_rest[tuple(e for e in big if e not in part)])
                    for big in enumerate_subsets(n, k)
                    for part in itertools.combinations(big, j)
                ]
                expected = np.array(pairs, dtype=np.intp).reshape(
                    math.comb(n, k), math.comb(k, j), 2
                )
                got_i, got_rest = _split_ranks(n, k, j)
                assert got_i.dtype == got_rest.dtype == np.intp
                assert np.array_equal(got_i, expected[..., 0])
                assert np.array_equal(got_rest, expected[..., 1])


def test_generalized_R_counts_partitions_for_ones():
    n = 5
    weights = (2, 1, 2)
    fs = tuple(
        SetFunction(n, w, np.ones(math.comb(n, w))) for w in weights
    )
    got = generalized_R(fs, tuple(range(n)))
    expected = math.factorial(n) / math.prod(
        math.factorial(w) for w in weights
    )
    assert got == pytest.approx(expected)


def test_generalized_R_reproduces_permanent():
    rng = np.random.default_rng(68)
    n = 5
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    col_blocks = ((0, 1), (2,), (3, 4))
    # oracle tables from one direct permanent per row subset, in rank order
    fs = tuple(
        SetFunction(
            n,
            len(block),
            np.array([
                permanent(z[np.ix_(rows, block)])
                for rows in itertools.combinations(range(n), len(block))
            ]),
        )
        for block in col_blocks
    )
    got = generalized_R(fs, tuple(range(n)))
    assert got == pytest.approx(permanent(z), rel=1e-12)


def test_generalized_R_validates_subset_size():
    fs = (SetFunction(4, 2, np.ones(6)),)
    with pytest.raises(DomainError):
        generalized_R(fs, (0, 1, 2))


def test_master_inequality_random_systems():
    rng = np.random.default_rng(69)
    for _ in range(20):
        n = int(rng.integers(3, 5))
        d = int(rng.integers(1, 4))
        # random positive weights summing to at most n
        remaining = n
        weights = []
        for r in range(d):
            top = remaining - (d - 1 - r)
            w = int(rng.integers(1, max(top, 1) + 1))
            weights.append(w)
            remaining -= w
        fs = tuple(rand_sf(rng, n, w, nonneg=False) for w in weights)
        check = verify_master_inequality(fs)
        assert check.holds
        assert check.lhs <= check.rhs * (1 + 1e-12)


def test_master_inequality_two_axes():
    rng = np.random.default_rng(70)
    fs = (
        rand_sf(rng, 3, 1, nonneg=False, arity=2),
        rand_sf(rng, 3, 2, nonneg=False, arity=2),
    )
    check = verify_master_inequality(fs)
    assert check.holds


def test_master_equality_for_constant_factors():
    n = 4
    weights = (1, 3)
    fs = tuple(
        SetFunction(n, w, np.full(math.comb(n, w), 2.0)) for w in weights
    )
    check = verify_master_inequality(fs)
    assert check.holds
    assert check.lhs == pytest.approx(check.rhs, rel=1e-12)


# Oracles: the per-cell loops the rank-table gather replaced.


def convolution_loop(g, h):
    out_levels = tuple(a + b for a, b in zip(g.levels, h.levels))
    streams = [list(enumerate_subsets(n, k)) for n, k in zip(g.sizes, out_levels)]
    table = np.zeros(tuple(len(s) for s in streams), dtype=complex)
    for cell in itertools.product(*(range(len(s)) for s in streams)):
        js = [streams[s][c] for s, c in enumerate(cell)]
        for parts in itertools.product(
            *(itertools.combinations(j, lev) for j, lev in zip(js, g.levels))
        ):
            rest = tuple(
                tuple(e for e in j if e not in i) for j, i in zip(js, parts)
            )
            table[cell] += g.value(parts) * h.value(rest)
    return table


def partition_sum(factors, js):
    axis_parts = [
        tuple(enumerate_partitions(j, tuple(f.levels[s] for f in factors)))
        for s, j in enumerate(js)
    ]
    total = 0j
    for combo in itertools.product(*axis_parts):
        total += math.prod(
            f.value(tuple(combo[s][r] for s in range(len(js))))
            for r, f in enumerate(factors)
        )
    return total


def random_table(rng, sizes, levels, integer=False):
    shape = tuple(math.comb(n, j) for n, j in zip(sizes, levels))
    if integer:
        return rng.integers(-5, 6, shape)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_subset_convolution_matches_loop(data):
    arity = data.draw(st.integers(1, 3))
    top = (5, 4, 3)[arity - 1]
    sizes, lev_g, lev_h = [], [], []
    for _ in range(arity):
        n = data.draw(st.integers(0, top))
        a = data.draw(st.integers(0, n))
        sizes.append(n)
        lev_g.append(a)
        lev_h.append(data.draw(st.integers(0, n - a)))
    integer = data.draw(st.booleans())
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    g = SetFunction(sizes, lev_g, random_table(rng, sizes, lev_g, integer))
    h = SetFunction(sizes, lev_h, random_table(rng, sizes, lev_h, integer))
    p = subset_convolution(g, h)
    assert p.levels == tuple(a + b for a, b in zip(lev_g, lev_h))
    if integer:
        assert p.table.dtype == np.float64
    expected = convolution_loop(g, h)
    # rounding is relative to the sum of |terms| of each cell
    scale = convolution_loop(
        SetFunction(sizes, lev_g, np.abs(g.table)),
        SetFunction(sizes, lev_h, np.abs(h.table)),
    ).real
    assert np.all(np.abs(p.table - expected) <= 1e-12 * scale)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_generalized_R_matches_partition_sum(data):
    arity = data.draw(st.integers(1, 2))
    d = data.draw(st.integers(1, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    sizes, js, weights = [], [], []
    for _ in range(arity):
        n = data.draw(st.integers(1, 6))
        k = data.draw(st.integers(0, n - 1))  # J a proper subset
        sizes.append(n)
        js.append(tuple(sorted(rng.permutation(n)[:k].tolist())))
        cuts = sorted(data.draw(st.integers(0, k)) for _ in range(d - 1))
        weights.append([b - a for a, b in zip([0, *cuts], [*cuts, k])])
    factors = [
        SetFunction(sizes, levels, random_table(rng, sizes, levels))
        for levels in (tuple(w[r] for w in weights) for r in range(d))
    ]
    expected = partition_sum(factors, js)
    got = generalized_R(factors, tuple(js))
    scale = abs(partition_sum(
        [SetFunction(f.sizes, f.levels, np.abs(f.table)) for f in factors], js
    ))
    assert abs(got - expected) <= 1e-12 * scale


def test_generalized_R_level_zero_factor_and_large_ground():
    rng = np.random.default_rng(71)
    n = 60
    js = (3, 17, 29, 42, 58)
    factors = [
        SetFunction(n, w, random_table(rng, (n,), (w,))) for w in (2, 0, 3)
    ]
    got = generalized_R(factors, js)
    assert got == pytest.approx(partition_sum(factors, (js,)), rel=1e-12)


@pytest.mark.parametrize("arity", [1, 2])
def test_master_lhs_matches_per_J_loop(arity):
    rng = np.random.default_rng(72 + arity)
    n = 4 if arity == 1 else 3
    for weights in ((1, 2), (0, 3, 1), (2,), (1, 1, 1)):
        if sum(weights) > n:
            continue
        factors = [
            SetFunction((n,) * arity, (w,) * arity,
                        random_table(rng, (n,) * arity, (w,) * arity))
            for w in weights
        ]
        k = sum(weights)
        prefactor = (
            math.prod(math.factorial(w) for w in weights) / math.factorial(k)
        ) ** arity
        streams = [list(enumerate_subsets(n, k))] * arity
        expected = np.mean([
            abs(prefactor * partition_sum(factors, js)) ** 2
            for js in itertools.product(*streams)
        ])
        check = verify_master_inequality(factors)
        assert check.lhs == pytest.approx(expected, rel=1e-12)
        assert check.rhs == pytest.approx(
            math.prod(f.mean_square() for f in factors), rel=1e-15
        )
