import inspect
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from permbound import exact
from permbound.combinatorics import enumerate_partitions
from permbound.errors import DomainError, FeasibilityError
from permbound.exact import (
    hafnian,
    hyperhafnian,
    hyperhafnian_via_expansion,
    hyperhafnian_work,
    multidim_permanent,
    multidim_permanent_via_laplace,
    multidim_permanent_work,
    permanent,
    permanent_D,
    permanent_via_laplace,
)
from oracles import block_embed_per_as_haf, multidim_permanent_direct, permanent_fraction

seeds = st.integers(0, 2**32 - 1)
oracle_settings = settings(max_examples=40, deadline=None)


def cmat(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def symmetrize(a):
    out = np.zeros_like(a)
    for axes in itertools.permutations(range(a.ndim)):
        out += a.transpose(axes)
    return out / math.factorial(a.ndim)


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def test_permanent_small_values():
    assert permanent(np.zeros((0, 0))) == 1.0
    assert permanent([[7.0]]) == 7.0
    assert permanent([[1, 2], [3, 4]]) == 10.0
    assert permanent(np.ones((4, 4))) == pytest.approx(24.0)
    assert permanent(np.eye(5)) == pytest.approx(1.0)


def test_permanent_gray_matches_direct():
    rng = np.random.default_rng(11)
    for n in range(1, 9):
        z = cmat(rng, n)
        assert rel(permanent(z), permanent(z, method="direct")) < 1e-11


def test_permanent_row_and_column_permutation_invariance():
    rng = np.random.default_rng(12)
    z = cmat(rng, 6)
    base = permanent(z)
    for _ in range(5):
        p = rng.permutation(6)
        q = rng.permutation(6)
        assert rel(permanent(z[p][:, q]), base) < 1e-12


def test_permanent_rejects_nonsquare():
    with pytest.raises(DomainError):
        permanent(np.ones((2, 3)))


def test_multidim_permanent_order_two_is_permanent():
    rng = np.random.default_rng(14)
    z = cmat(rng, 5)
    assert rel(multidim_permanent(z), permanent(z)) < 1e-12


def test_multidim_permanent_brute_force_order_three():
    rng = np.random.default_rng(15)
    k = 3
    t = rng.standard_normal((k, k, k)) + 1j * rng.standard_normal((k, k, k))
    total = 0
    for s1 in itertools.permutations(range(k)):
        for s2 in itertools.permutations(range(k)):
            p = 1.0
            for j in range(k):
                p *= t[s1[j], s2[j], j]
            total += p
    assert rel(multidim_permanent(t), total) < 1e-12


def test_hafnian_base_cases_and_symmetry_check():
    assert hafnian(np.zeros((0, 0))) == 1.0
    a = np.array([[0.0, 3.0], [3.0, 0.0]])
    assert hafnian(a) == pytest.approx(3.0)
    with pytest.raises(DomainError):
        hafnian(np.ones((3, 3)))  # odd dimension
    bad = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(DomainError):
        hafnian(bad)


def test_hafnian_matches_matching_enumeration():
    rng = np.random.default_rng(16)
    for n in (4, 6, 8):
        a = cmat(rng, n)
        z = a + a.T

        def matchings(idx):
            if not idx:
                yield ()
                return
            first, rest = idx[0], idx[1:]
            for i, partner in enumerate(rest):
                for m in matchings(rest[:i] + rest[i + 1 :]):
                    yield ((first, partner),) + m

        total = 0
        for m in matchings(tuple(range(n))):
            p = 1.0
            for u, v in m:
                p *= z[u, v]
            total += p
        assert rel(hafnian(z), total) < 1e-12


def test_hafnian_ignores_diagonal():
    rng = np.random.default_rng(17)
    a = cmat(rng, 6)
    z = a + a.T
    z2 = z.copy()
    np.fill_diagonal(z2, rng.standard_normal(6))
    assert hafnian(z) == hafnian(z2)  # bit identical, diagonal never read


def test_permanent_equals_hafnian_of_block_embedding():
    rng = np.random.default_rng(18)
    for n in range(1, 7):
        z = cmat(rng, n)
        assert rel(permanent(z), hafnian(block_embed_per_as_haf(z))) < 1e-12


def test_hyperhafnian_order_two_is_hafnian():
    rng = np.random.default_rng(19)
    a = cmat(rng, 6)
    z = a + a.T
    assert rel(hyperhafnian(z), hafnian(z)) < 1e-12


def test_hyperhafnian_order_one_is_product():
    t = np.array([2.0, 3.0, -5.0])
    assert hyperhafnian(t) == pytest.approx(-30.0)


def test_hyperhafnian_recursive_matches_direct():
    rng = np.random.default_rng(20)
    for n, ell in [(6, 3), (4, 2), (8, 4), (6, 2)]:
        shape = (n,) * ell
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        sym = np.zeros_like(a)
        for axes in itertools.permutations(range(ell)):
            sym += a.transpose(axes)
        sym /= math.factorial(ell)
        r = hyperhafnian(sym)
        d = hyperhafnian(sym, method="direct")
        assert rel(r, d) < 1e-11


def test_hyperhafnian_rejects_asymmetric():
    rng = np.random.default_rng(21)
    t = rng.standard_normal((6, 6, 6))
    with pytest.raises(DomainError):
        hyperhafnian(t)


def test_hyperhafnian_constant_offdiagonal_closed_form():
    # all blocks with distinct indices share one value y: the sum has
    # n!/(m! (ell!)^m) equal terms
    for n, ell in [(4, 2), (6, 3), (6, 2), (12, 2), (8, 2), (12, 6)]:
        m = n // ell
        y = 0.7 - 0.3j
        t = np.zeros((n,) * ell, dtype=complex)
        for idx in itertools.permutations(range(n), ell):
            t[idx] = y
        expected = (
            math.factorial(n)
            / (math.factorial(m) * math.factorial(ell) ** m)
            * y**m
        )
        assert rel(hyperhafnian(t), expected) < 1e-12


def test_permanent_via_laplace():
    rng = np.random.default_rng(22)
    for n, blocks in [
        (4, ((0, 1), (2, 3))),
        (5, ((0, 2, 4), (1, 3))),
        (6, ((0,), (1, 2), (3, 4, 5))),
        (6, ((0, 1, 2, 3, 4, 5),)),
    ]:
        z = cmat(rng, n)
        assert rel(permanent_via_laplace(z, blocks), permanent(z)) < 1e-10


def test_multidim_permanent_via_laplace_fixed_and_symmetrized():
    rng = np.random.default_rng(23)
    k = 4
    t = rng.standard_normal((k, k, k)) + 1j * rng.standard_normal((k, k, k))
    direct = multidim_permanent(t)
    fixed = multidim_permanent_via_laplace(t, (2, 2), ((0, 1), (2, 3)))
    sym = multidim_permanent_via_laplace(t, (3, 1))
    assert rel(fixed, direct) < 1e-10
    assert rel(sym, direct) < 1e-10


def test_hyperhafnian_via_expansion():
    rng = np.random.default_rng(24)
    a = cmat(rng, 8)
    z = a + a.T
    h = hafnian(z)
    for parts in [(4,), (1, 3), (2, 2), (1, 1, 2)]:
        assert rel(hyperhafnian_via_expansion(z, parts), h) < 1e-10
    t = symmetrize(
        rng.standard_normal((6, 6, 6)) + 1j * rng.standard_normal((6, 6, 6))
    )
    h3 = hyperhafnian(t)
    for parts in [(2,), (1, 1)]:
        assert rel(hyperhafnian_via_expansion(t, parts), h3) < 1e-10


def test_permanent_D_frozen_values():
    # D(n, j) matrices: all-ones with j entries on the diagonal flipped to -1
    assert permanent_D(8, 6) == 8576
    assert permanent_D(5, 5) == 8
    for n in range(1, 7):
        assert permanent_D(n, 0) == math.factorial(n)


def test_permanent_D_matches_sign_matrix_permanent():
    for n in range(1, 7):
        for neg in range(n + 1):
            z = np.ones((n, n))
            for i in range(neg):
                z[i, i] = -1.0
            assert permanent_D(n, neg) == pytest.approx(permanent(z).real)


def crandom(seed, shape):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@oracle_settings
@given(n=st.integers(0, 7), seed=seeds)
def test_permanent_glynn_matches_direct_oracle(n, seed):
    z = crandom(seed, (n, n))
    assert rel(permanent(z), permanent(z, method="direct")) < 1e-12


@oracle_settings
@given(m=st.integers(0, 3), seed=seeds)
def test_hafnian_matches_direct_hyperhafnian(m, seed):
    a = crandom(seed, (2 * m, 2 * m))
    z = a + a.T
    assert rel(hafnian(z), hyperhafnian(z, method="direct")) < 1e-12


@oracle_settings
@given(n=st.integers(0, 6), seed=seeds)
def test_hafnian_of_block_embedding_matches_direct_permanent(n, seed):
    z = crandom(seed, (n, n))
    haf = hafnian(block_embed_per_as_haf(z))
    assert rel(haf, permanent(z, method="direct")) < 1e-12


@oracle_settings
@given(k=st.integers(0, 4), order=st.integers(2, 4), seed=seeds)
def test_multidim_permanent_glynn_matches_direct(k, order, seed):
    t = crandom(seed, (k,) * order)
    assert rel(multidim_permanent(t), multidim_permanent_direct(t)) < 1e-12


@pytest.mark.parametrize("n", [11, 12, 13, 16, 20, 24])
def test_permanent_at_block_boundary_matches_closed_form(n):
    # rows 1..10 form the dense sign block; n = 11 needs no Gray walk,
    # 12 and 13 walk one and two rows, 16 walks five (the first walked row's
    # step widened to the block's shape, the sums rebuilt every 16 steps),
    # 20 and 24 walk nine and thirteen. per(diag(r) D diag(c)) is
    # prod(r) prod(c) permanent_D(n, neg).
    rng = np.random.default_rng(30 + n)
    for neg in (0, 3, n):
        d = np.ones((n, n))
        d[range(neg), range(neg)] = -1.0
        r = rng.uniform(0.5, 1.5, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        c = rng.uniform(0.5, 1.5, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        expected = np.prod(r) * np.prod(c) * permanent_D(n, neg)
        assert rel(permanent(r[:, None] * d * c), expected) < 1e-13


@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_rational_permanent_oracle_matches_direct(n):
    z = crandom(40 + n, (n, n))
    re, im = permanent_fraction(z)
    assert rel(complex(re, im), permanent(z, method="direct")) < 1e-12


@pytest.mark.parametrize("n", [12, 13])
def test_gray_walk_matches_rational_permanent(n):
    # generic complex Gaussian inputs one and two Gray rows past the dense
    # block, against Ryser's formula summed exactly
    for seed in range(3):
        z = crandom(50 + 3 * n + seed, (n, n))
        re, im = permanent_fraction(z)
        p = permanent(z)
        err = (Fraction(p.real) - re) ** 2 + (Fraction(p.imag) - im) ** 2
        assert float(err / (re * re + im * im)) < 1e-13**2


@pytest.mark.parametrize("k, order", [(3, 8), (7, 3)])
def test_multidim_permanent_chunks_match_rank_one_closed_form(k, order):
    # (3, 8) sums over outer choices of the first fixed axis, (7, 3) splits
    # the 5040 matrices into several chunks; every pair of bijections of a
    # rank-one tensor contributes the same product
    rng = np.random.default_rng(31)
    vectors = [rng.standard_normal(k) + 1j * rng.standard_normal(k) for _ in range(order)]
    t = vectors[0]
    for v in vectors[1:]:
        t = np.multiply.outer(t, v)
    expected = math.factorial(k) ** (order - 1) * np.prod([v.prod() for v in vectors])
    assert rel(multidim_permanent(t), expected) < 1e-12


def test_tensor_permanent_and_expansion_take_no_mode_switch():
    # the kernel has one code path, and the expansion averages exactly when
    # it is given no column blocks
    assert list(inspect.signature(multidim_permanent).parameters) == ["t"]
    params = inspect.signature(multidim_permanent_via_laplace).parameters
    assert list(params) == ["t", "sizes", "column_blocks"]


def matching_steps(n, ell):
    """Steps of the match-the-lowest-index recursion, by walking every
    reachable set of unused indices."""
    seen, todo, steps = set(), [frozenset(range(n))], 0
    while todo:
        left = todo.pop()
        if not left or left in seen:
            continue
        seen.add(left)
        low, rest = min(left), sorted(left - {min(left)})
        for partners in itertools.combinations(rest, ell - 1):
            steps += 1
            todo.append(left - {low, *partners})
    return steps


WORK_GRID = [(0, 2), (4, 2), (10, 2), (5, 1), (9, 3), (12, 4), (10, 5)]


@pytest.mark.parametrize("n, ell", WORK_GRID)
def test_hyperhafnian_work_counts_recursion_steps(n, ell):
    assert hyperhafnian_work(n, ell) == matching_steps(n, ell)


@pytest.mark.parametrize("n, ell", WORK_GRID)
def test_hyperhafnian_work_counts_the_level_tables(n, ell):
    # the cost model the CLI gates read is the size of the kernel's tables
    levels = exact._match_levels(n, ell)
    assert len(levels) == n // ell
    assert sum(block.size for block, _ in levels) == hyperhafnian_work(n, ell)


def test_hafnian_rank_one_closed_form_at_twenty():
    # haf(d d^T) = (n-1)!! prod(d): every one of the 19!! matchings, so every
    # level of the kernel, contributes the same product
    d = crandom(70, 20)
    expected = math.prod(range(19, 0, -2)) * d.prod()
    assert rel(hafnian(np.outer(d, d)), expected) < 1e-12


def test_hyperhafnian_rank_one_closed_form_order_three():
    # the 18!/(6! 3!^6) block partitions of d x d x d, each prod(d)
    d = crandom(71, 18)
    t = np.multiply.outer(np.multiply.outer(d, d), d)
    expected = math.factorial(18) / (math.factorial(6) * 6**6) * d.prod()
    assert rel(hyperhafnian(t), expected) < 1e-12


def test_hyperhafnian_has_no_bit_width_cap():
    # an order-1 tensor over 100 indices: 100 levels of one state each
    assert rel(hyperhafnian(np.full(100, 1.01)), 1.01**100) < 1e-12
    assert hyperhafnian(np.arange(1.0, 71.0)) == pytest.approx(math.factorial(70))


@pytest.mark.parametrize(
    "t",
    [
        [[0.0, np.nan], [1.0, 0.0]],
        [[0.0, np.nan], [np.nan, 0.0]],
        [[np.nan, 1.0], [1.0, 0.0]],
        [[0.0, np.inf], [np.inf, 0.0]],
        [[0.0, complex(1.0, -np.inf)], [complex(1.0, -np.inf), 0.0]],
        [2.0, np.nan],
    ],
)
def test_hafnians_reject_non_finite_entries(t):
    with pytest.raises(DomainError, match="non-finite"):
        hyperhafnian(t)
    if np.ndim(t) == 2:
        with pytest.raises(DomainError, match="non-finite"):
            hafnian(t)


def test_multidim_permanent_work():
    assert multidim_permanent_work(6, 2) == 720 * 32 * 6
    assert multidim_permanent_work(6, 1) == 32 * 6
    assert multidim_permanent_work(0, 3) == 1


@pytest.mark.parametrize(
    "kind, accepted, refused",
    [
        ("per", (24, 24), (25, 25)),
        ("haf", (24, 24), (26, 26)),
        ("per_ell", (8, 8, 8), (9, 9, 9)),
        ("haf_ell", (18, 18, 18), (21, 21, 21)),
    ],
)
def test_evaluate_checks_the_work_before_the_kernel(monkeypatch, kind, accepted, refused):
    # the largest accepted and the first refused shape of each kind: the
    # work returned is the one compared, and a refusal runs no kernel
    calls = []
    for name in ("permanent", "hafnian", "multidim_permanent", "hyperhafnian"):
        monkeypatch.setattr(exact, name, lambda a: calls.append(a.shape) or 0j)
    if kind.startswith("per"):
        limit = exact.PER_MAX_WORK
        work = [multidim_permanent_work(s[0], len(s) - 1) for s in (accepted, refused)]
    else:
        limit = exact.HAF_MAX_WORK
        work = [hyperhafnian_work(s[0], len(s)) for s in (accepted, refused)]
    assert work[0] <= limit < work[1]
    assert exact.evaluate(kind, np.zeros(accepted)) == (0j, work[0])
    with pytest.raises(FeasibilityError, match=f"limit {limit} .* got {work[1]} "):
        exact.evaluate(kind, np.zeros(refused))
    assert calls == [accepted]


@pytest.mark.parametrize(
    "order, entry",
    [
        (2, (0, 1)), (2, (4, 2)), (3, (0, 0, 1)), (3, (1, 3, 4)),
        (4, (0, 0, 1, 2)), (4, (4, 1, 1, 1)),
    ],
)
def test_symmetry_check_finds_one_perturbed_entry(order, entry):
    t = symmetrize(crandom(60 + order, (5,) * order))
    exact._check_symmetric(t, 1e-12)
    t[entry] += 1e-9
    with pytest.raises(DomainError):
        exact._check_symmetric(t, 1e-12)
    exact._check_symmetric(t, 1e-8)


def test_symmetry_check_compares_a_slice_at_a_time():
    # an order-4 tensor over 24 indices: 5.3 MB, its slices 221 kB
    t = np.ones((24,) * 4, dtype=complex)
    tracemalloc.start()
    exact._check_symmetric(t, 1e-12)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < t.nbytes / 4
    # the check reads every slice, the last ones too
    t[23, 22, 0, 0] = 2.0
    with pytest.raises(DomainError):
        exact._check_symmetric(t, 1e-12)


# ---------------------------------------------------------------------------
# the per-block loops the stacked tables replaced, kept as oracles


def loop_permanent_via_laplace(z, blocks):
    total = 0.0 + 0.0j
    for vs in enumerate_partitions(range(len(z)), [len(b) for b in blocks]):
        prod = 1.0 + 0.0j
        for v, w in zip(vs, blocks):
            prod *= permanent(z[np.ix_(v, w)])
        total += prod
    return total


def loop_multidim_via_laplace(t, sizes, blocks=None):
    k, ell = t.shape[0], t.ndim - 1

    def expand(blocks):
        total = 0.0 + 0.0j
        for vs in itertools.product(
            *(enumerate_partitions(range(k), sizes) for _ in range(ell))
        ):
            prod = 1.0 + 0.0j
            for r, wr in enumerate(blocks):
                selector = tuple(vs[s][r] for s in range(ell)) + (wr,)
                prod *= multidim_permanent_direct(t[np.ix_(*selector)])
            total += prod
        return total

    if blocks is not None:
        return expand(blocks)
    factor = math.prod(math.factorial(p) for p in sizes) / math.factorial(k)
    return factor * sum(expand(b) for b in enumerate_partitions(range(k), sizes))


def loop_hyperhafnian_via_expansion(t, sizes):
    ell, n = t.ndim, t.shape[0]
    factor = math.prod(math.factorial(p) for p in sizes) / math.factorial(n // ell)
    total = 0.0 + 0.0j
    for vs in enumerate_partitions(range(n), [ell * p for p in sizes]):
        prod = 1.0 + 0.0j
        for v in vs:
            prod *= hyperhafnian(t[np.ix_(*([v] * ell))])
        total += prod
    return factor * total


def random_composition(rng, total):
    parts = []
    while total:
        parts.append(int(rng.integers(0, total + 1)))
        total -= parts[-1]
    return tuple(parts) or (0,)


@oracle_settings
@given(order=st.integers(2, 3), data=st.data(), seed=seeds)
def test_permanent_expansions_match_per_block_loops(order, data, seed):
    k = data.draw(st.integers(0, 4 if order == 2 else 3))
    rng = np.random.default_rng(seed)
    t = crandom(seed, (k,) * order)
    sizes = random_composition(rng, k)
    perm = rng.permutation(k).tolist()
    blocks = []
    for p in sizes:
        blocks.append(tuple(sorted(perm[:p])))
        perm = perm[p:]
    fixed = multidim_permanent_via_laplace(t, sizes, blocks)
    assert rel(fixed, loop_multidim_via_laplace(t, sizes, blocks)) < 1e-12
    sym = multidim_permanent_via_laplace(t, sizes)
    assert rel(sym, loop_multidim_via_laplace(t, sizes)) < 1e-12
    # with and without blocks, the expansion is the tensor permanent
    direct = multidim_permanent(t)
    assert rel(fixed, direct) < 1e-10
    assert rel(sym, direct) < 1e-10
    if order == 2:
        loop = loop_permanent_via_laplace(t, blocks)
        assert rel(permanent_via_laplace(t, blocks), loop) < 1e-12


@oracle_settings
@given(order=st.integers(1, 3), data=st.data(), seed=seeds)
def test_hyperhafnian_expansion_matches_per_block_loop(order, data, seed):
    m = data.draw(st.integers(0, {1: 5, 2: 4, 3: 2}[order]))
    rng = np.random.default_rng(seed)
    t = symmetrize(crandom(seed, (order * m,) * order))
    sizes = random_composition(rng, m)
    got = hyperhafnian_via_expansion(t, sizes)
    assert rel(got, loop_hyperhafnian_via_expansion(t, sizes)) < 1e-12


def test_hyperhafnian_expansion_across_chunk_boundaries(monkeypatch):
    # chunks of at most 32 principal minors: C(10, 4) = 210 and
    # C(10, 6) = 210 blocks of a hafnian over 10 indices
    monkeypatch.setattr(exact, "_GLYNN_BATCH_ROWS", 1 << 5)
    z = symmetrize(crandom(61, (10, 10)))
    for sizes in [(2, 3), (3, 2), (1, 2, 2)]:
        got = hyperhafnian_via_expansion(z, sizes)
        assert rel(got, loop_hyperhafnian_via_expansion(z, sizes)) < 1e-12
        assert rel(got, hafnian(z)) < 1e-12
