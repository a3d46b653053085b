import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from permbound import bounds, exact
from permbound.combinatorics import enumerate_subsets
from permbound.errors import DomainError, FeasibilityError
from permbound.exact import (
    hafnian,
    hyperhafnian,
    multidim_permanent,
    permanent,
    permanent_D,
)
from permbound.matrixio import from_entries, from_polar, from_unit_circle
from oracles import multidim_permanent_direct, unit_circle_theta_bound_ordered


def cmat(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def csym(rng, n):
    a = cmat(rng, n)
    return a + a.T


def test_f_set_brute_force():
    rng = np.random.default_rng(31)
    z = cmat(rng, 5)
    for K in [(0,), (1, 3), (0, 2, 4), (0, 1, 2, 3, 4)]:
        k = len(K)
        total = sum(
            abs(permanent(z[np.ix_(J, K)]) / math.factorial(k)) ** 2
            for J in enumerate_subsets(5, k)
        )
        expected = total / math.comb(5, k)
        assert bounds.f_set(z, K) == pytest.approx(expected, rel=1e-12)
    assert bounds.f_set(z, ()) == 1.0


def test_f_set_single_column_is_mean_square():
    rng = np.random.default_rng(32)
    z = cmat(rng, 6)
    for r in range(6):
        expected = float((np.abs(z[:, r]) ** 2).mean())
        assert bounds.f_set(z, (r,)) == pytest.approx(expected, rel=1e-12)


def test_f_tilde_dominates_f_and_matches_brute_force():
    rng = np.random.default_rng(33)
    z = cmat(rng, 6)
    for K in [(0, 1), (2, 3, 5), (0, 1, 2, 3)]:
        k = len(K)
        row_means = (np.abs(z[:, K]) ** 2).sum(axis=1) / k
        total = 0.0
        for J in enumerate_subsets(6, k):
            p = 1.0
            for j in J:
                p *= row_means[j]
            total += p
        expected = total / math.comb(6, k)
        got = bounds.f_tilde(z, K)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got >= bounds.f_set(z, K) - 1e-12 * got


def test_F_level_is_mean_of_f_set():
    rng = np.random.default_rng(34)
    z = cmat(rng, 5)
    for k in range(6):
        expected = (
            sum(bounds.f_set(z, K) for K in enumerate_subsets(5, k))
            / math.comb(5, k)
            if k
            else 1.0
        )
        assert bounds.F_level(z, k) == pytest.approx(expected, rel=1e-12)


def direct_f(z, K):
    """f_set by a loop of direct permanents over every row subset."""
    k = len(K)
    return float(np.mean([
        abs(permanent(z[np.ix_(J, K)], method="direct") / math.factorial(k)) ** 2
        for J in enumerate_subsets(z.shape[0], k)
    ]))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 7), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_minor_means_match_direct_oracle(n, data, seed):
    m = data.draw(st.integers(1, n))
    k = data.draw(st.integers(1, m))
    z = cmat(np.random.default_rng(seed), n, m)
    means = {K: direct_f(z, K) for K in enumerate_subsets(m, k)}
    K = data.draw(st.sampled_from(sorted(means)))
    assert bounds.f_set(z, K) == pytest.approx(means[K], rel=1e-12)
    expected = float(np.mean(list(means.values())))
    assert bounds.F_level(z, k) == pytest.approx(expected, rel=1e-12)


def count_chunks(monkeypatch) -> list[int]:
    """Make bounds' minor engine record the chunks each call yields."""
    counts = []

    def counted(*args):
        counts.append(0)
        for item in exact._minor_stack(*args):
            counts[-1] += 1
            yield item

    monkeypatch.setattr(bounds, "_minor_stack", counted)
    return counts


def count_minor_means(monkeypatch) -> list[tuple[int, int]]:
    """Make bounds record (k, column sets) of each _minor_means call."""
    calls = []
    means = bounds._minor_means

    def counted(a, k, cols):
        calls.append((k, cols.shape[1]))
        return means(a, k, cols)

    monkeypatch.setattr(bounds, "_minor_means", counted)
    return calls


def test_minor_means_across_chunk_boundaries(monkeypatch):
    # 2^5 sign-vector rows per chunk: at k = 1 a chunk of 32 minors holds
    # four column sets of 8 row subsets, and 6 column sets end in a partial
    # chunk; from k = 2 on (16, 8, 4, 2, 1 minors) the 28, 56, 70, 56, 28
    # row subsets of one column set span several chunks
    monkeypatch.setattr(exact, "_GLYNN_BATCH_ROWS", 1 << 5)
    chunks = count_chunks(monkeypatch)
    rng = np.random.default_rng(39)
    z = cmat(rng, 8, 6)
    for k in range(1, 7):
        means = [direct_f(z, K) for K in enumerate_subsets(6, k)]
        assert bounds.F_level(z, k) == pytest.approx(np.mean(means), rel=1e-12)
        assert bounds.f_set(z, range(k)) == pytest.approx(means[0], rel=1e-12)
        phi = sum(
            permanent(z[np.ix_(J, K)], method="direct")
            for K in enumerate_subsets(6, k) for J in enumerate_subsets(8, k)
        )
        assert bounds.minor_sum_phi(z, k) == pytest.approx(phi, rel=1e-12)
        assert max(chunks) > 1
        chunks.clear()


@pytest.mark.parametrize("n", [12, 13, 16])
def test_f_set_walks_rows_past_the_sign_table(n):
    # minors of k >= 12 Gray-walk k - 11 rows after the dense sign block;
    # per(diag(r) D diag(c)) is prod(r) prod(c) permanent_D(n, neg)
    rng = np.random.default_rng(40 + n)
    d = np.ones((n, n))
    d[range(3), range(3)] = -1.0
    r = rng.uniform(0.5, 1.5, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    c = rng.uniform(0.5, 1.5, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    per = np.prod(r) * np.prod(c) * permanent_D(n, 3)
    expected = abs(per / math.factorial(n)) ** 2
    assert bounds.f_set(r[:, None] * d * c, range(n)) == pytest.approx(
        expected, rel=1e-12
    )


@pytest.mark.parametrize("n, m, levels", [(9, 7, range(8)), (14, 13, (12, 13))])
def test_F_level_of_rank_one_matches_closed_form(n, m, levels):
    # per((u v^T)[J, K]) = k! prod(u[J]) prod(v[K]); levels 12 and 13 walk
    # rows past the sign table in chunks of 4 and 2 minors
    rng = np.random.default_rng(41)
    u = rng.uniform(0.5, 1.5, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    v = rng.uniform(0.5, 1.5, m) * np.exp(1j * rng.uniform(0, 2 * np.pi, m))
    z = np.outer(u, v)

    def e(w, k):
        return sum(math.prod(c) for c in itertools.combinations(w, k))

    for k in levels:
        expected = (
            e(np.abs(u) ** 2, k) * e(np.abs(v) ** 2, k)
            / (math.comb(n, k) * math.comb(m, k))
        )
        assert bounds.F_level(z, k) == pytest.approx(expected, rel=1e-12)


def test_partition_bound_dominates_and_refines():
    rng = np.random.default_rng(35)
    z = cmat(rng, 6)
    cols = (0, 1, 2, 4)
    f = bounds.f_set(z, cols)
    coarse = bounds.partition_bound_f(z, cols, ((0, 1, 2), (4,)))
    fine = bounds.partition_bound_f(z, cols, ((0, 1), (2,), (4,)))
    assert f <= coarse * (1 + 1e-12)
    assert coarse <= fine * (1 + 1e-12)


def test_permanent_bound_partition_dominates():
    rng = np.random.default_rng(36)
    for n in (3, 4, 5, 6):
        z = cmat(rng, n)
        target = abs(permanent(z))
        for blocks in [
            tuple((j,) for j in range(n)),
            (tuple(range(n)),),
        ]:
            assert bounds.permanent_bound_partition(z, blocks) >= target * (
                1 - 1e-12
            )


def test_composition_bound_dominates_and_subadditivity():
    rng = np.random.default_rng(37)
    z = cmat(rng, 5)
    for k in range(6):
        F = bounds.F_level(z, k)
        for parts in [(k,), (1, k - 1) if k >= 1 else (0, k)]:
            if any(p < 0 for p in parts):
                continue
            assert F <= bounds.composition_bound_F(z, k, parts) * (1 + 1e-12)
    target = abs(permanent(z))
    assert bounds.permanent_bound_composition(z, (1, 1, 1, 1, 1)) >= target * (
        1 - 1e-12
    )
    assert bounds.permanent_bound_composition(z, (2, 3)) >= target * (1 - 1e-12)


def test_constant_columns_partition_equality():
    c = np.array([0.8 - 0.1j, -0.4 + 0.9j, 0.3 + 0.3j, 1.1 + 0.0j])
    z = np.tile(c, (4, 1))
    cols = (0, 1, 2, 3)
    f = bounds.f_set(z, cols)
    prod = bounds.partition_bound_f(z, cols, ((0, 2), (1,), (3,)))
    assert f == pytest.approx(prod, rel=1e-12)
    assert bounds.permanent_bound_partition(z, ((0, 1), (2, 3))) == pytest.approx(
        abs(permanent(z)), rel=1e-12
    )


def test_constant_matrix_composition_equality():
    z = np.full((5, 5), 0.6 - 0.7j)
    for k, parts in [(3, (1, 2)), (4, (2, 2)), (5, (1, 1, 3))]:
        assert bounds.F_level(z, k) == pytest.approx(
            bounds.composition_bound_F(z, k, parts), rel=1e-12
        )
    assert bounds.permanent_bound_composition(z, (2, 3)) == pytest.approx(
        abs(permanent(z)), rel=1e-12
    )


def test_zero_column_kills_f():
    rng = np.random.default_rng(38)
    z = cmat(rng, 4)
    z[:, 2] = 0.0
    assert bounds.f_set(z, (1, 2)) == 0.0
    assert bounds.partition_bound_f(z, (1, 2), ((1,), (2,))) == 0.0


def test_f_ell_set_brute_force_order_three():
    rng = np.random.default_rng(40)
    n = 3
    t = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
    K = (0, 2)
    k = len(K)
    subs = list(enumerate_subsets(n, k))
    total = 0.0
    for J1 in subs:
        for J2 in subs:
            minor = t[np.ix_(J1, J2, K)]
            total += abs(multidim_permanent(minor) / math.factorial(k) ** 2) ** 2
    expected = total / len(subs) ** 2
    assert bounds.f_set(t, K) == pytest.approx(expected, rel=1e-12)


def test_multidim_permanent_bound_dominates():
    rng = np.random.default_rng(41)
    n = 3
    t = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
    target = abs(multidim_permanent(t))
    assert bounds.permanent_bound_partition(t, ((0,), (1,), (2,))) >= target * (
        1 - 1e-12
    )
    assert bounds.permanent_bound_composition(t, (1, 2)) >= target * (
        1 - 1e-12
    )
    # a row tensor with fewer columns than rows has no square permanent
    narrow = t[:, :, :2]
    with pytest.raises(DomainError, match="equal row and column sizes"):
        bounds.permanent_bound_partition(narrow, ((0,), (1,)))
    with pytest.raises(DomainError, match="equal row and column sizes"):
        bounds.permanent_bound_composition(narrow, (1, 1))


def test_G_level_closed_forms():
    rng = np.random.default_rng(42)
    z = csym(rng, 6)
    # k = 1: scale 1!*2/2! = 1, mean over pairs of |z_jk|^2
    pairs = [abs(z[j, k]) ** 2 for j, k in itertools.combinations(range(6), 2)]
    assert bounds.G_level(z, 1) == pytest.approx(float(np.mean(pairs)), rel=1e-12)
    # brute force for k = 2
    scale = math.factorial(2) * 4 / math.factorial(4)
    vals = [
        abs(scale * hafnian(z[np.ix_(J, J)])) ** 2
        for J in enumerate_subsets(6, 4)
    ]
    assert bounds.G_level(z, 2) == pytest.approx(float(np.mean(vals)), rel=1e-12)
    assert bounds.G_level(z, 0) == 1.0


def test_G_level_rejects_non_finite_entries():
    z = np.zeros((4, 4))
    z[0, 1] = z[1, 0] = np.nan
    with pytest.raises(DomainError, match="non-finite"):
        bounds.G_level(z, 1)
    z[0, 1] = z[1, 0] = np.inf
    with pytest.raises(DomainError, match="non-finite"):
        bounds.G_level(z, 2)


def test_G_level_has_no_bit_width_cap():
    # order 1 over 70 indices: each of the 70 minors of 69 indices has the
    # hyperhafnian 1.01^69 and the scale 69! 1!^69 / 69! = 1
    assert bounds.G_level(np.full(70, 1.01), 69) == pytest.approx(1.01**138, rel=1e-12)


def test_hafnian_bound_dominates():
    rng = np.random.default_rng(43)
    for n in (4, 6, 8):
        z = csym(rng, n)
        target = abs(hafnian(z))
        m = n // 2
        for parts in [(m,), tuple(1 for _ in range(m))]:
            assert bounds.hafnian_bound(z, parts) >= target * (1 - 1e-12)


def test_constant_offdiagonal_hafnian_equality():
    y = 0.4 + 0.2j
    n, m = 6, 3
    z = np.full((n, n), y)
    np.fill_diagonal(z, 0.0)
    assert bounds.G_level(z, 2) == pytest.approx(
        bounds.G_level(z, 1) ** 2, rel=1e-12
    )
    assert bounds.hafnian_bound(z, (1, 2)) == pytest.approx(
        abs(hafnian(z)), rel=1e-12
    )


def test_G_ell_level_and_hyperhafnian_bound():
    rng = np.random.default_rng(44)
    a = rng.standard_normal((6, 6, 6))
    t = np.zeros_like(a)
    for axes in itertools.permutations(range(3)):
        t += a.transpose(axes)
    t /= 6.0
    g1 = bounds.G_level(t, 1)
    # scale for k=1 is l!/l! = 1: mean over triples of |t[i,j,k]|^2
    vals = [
        abs(t[i, j, k]) ** 2
        for i, j, k in itertools.combinations(range(6), 3)
    ]
    assert g1 == pytest.approx(float(np.mean(vals)), rel=1e-12)
    assert bounds.G_level(t, 2) <= g1**2 * (1 + 1e-12)
    target = abs(hyperhafnian(t))
    for parts in [(2,), (1, 1)]:
        assert bounds.hafnian_bound(t, parts) >= target * (1 - 1e-12)


def test_pair_mean_matches_f_set():
    # f_set on column pairs against a loop of direct permanents over the
    # row pairs, in both column orders
    rng = np.random.default_rng(44)
    for shape in [(2, 2), (5, 5), (7, 4)]:
        z = cmat(rng, *shape)
        n, m = shape
        for u, v in itertools.permutations(range(m), 2):
            expected = np.mean([
                abs(permanent(z[np.ix_(J, (u, v))], method="direct") / 2) ** 2
                for J in enumerate_subsets(n, 2)
            ])
            assert bounds.f_set(z, (u, v)) == pytest.approx(expected, rel=1e-12)


def test_pair_bounds_on_complex_matrices():
    rng = np.random.default_rng(43)
    for n in (2, 3, 4, 5, 6):
        z = cmat(rng, n)
        fact = math.factorial(n)
        s = tuple(int(v) for v in rng.permutation(n))
        blocks = [s[i : i + 2] for i in range(0, n, 2)]
        expected = bounds.permanent_bound_partition(z, blocks) / fact
        assert bounds.pair_bound(z, s) == pytest.approx(expected, rel=1e-12)
        target = abs(permanent(z)) / fact
        assert bounds.pair_bound(z) >= target * (1 - 1e-12)
        assert bounds.avg_pair_bound(z) >= target * (1 - 1e-12)
    for fn in (bounds.pair_bound, bounds.avg_pair_bound):
        with pytest.raises(DomainError):
            fn(np.ones((1, 1)))
        with pytest.raises(DomainError):
            fn(np.ones((2, 3)))


def test_pair_bounds_beyond_double_factorials(monkeypatch):
    # 171! overflows a double; the pair bounds never form n!
    z = np.ones((171, 171))
    assert bounds.pair_bound(z) == pytest.approx(1.0, rel=1e-12)
    # F_level(z, 2) at n = 171 means 2.1e8 minors; the level values of the
    # ones matrix are 1, so a stand-in checks the route over 85 parts 2
    # and one part 1
    levels = []
    monkeypatch.setattr(bounds, "F_level", lambda a, k: levels.append(k) or 1.0)
    assert bounds.avg_pair_bound(z) == 1.0
    assert levels == [2, 1]


def test_unit_circle_pair_bound_matches_f_products():
    rng = np.random.default_rng(45)
    x = rng.standard_normal((6, 6))
    t = 1.3
    z = np.exp(1j * t * x)
    blocks = ((0, 1), (2, 3), (4, 5))
    expected = bounds.permanent_bound_partition(z, blocks) / math.factorial(6)
    assert bounds.pair_bound(z) == pytest.approx(expected, rel=1e-10)
    # permuted pairing
    s = (3, 0, 5, 1, 2, 4)
    blocks_s = ((0, 3), (1, 5), (2, 4))
    expected_s = bounds.permanent_bound_partition(z, blocks_s) / math.factorial(6)
    assert bounds.pair_bound(z, s) == pytest.approx(expected_s, rel=1e-10)


def test_unit_circle_bounds_dominate_exact():
    rng = np.random.default_rng(46)
    for n in (4, 5, 6):
        x = rng.standard_normal((n, n))
        for t in (0.3, 1.0, 2.2):
            z = np.exp(1j * t * x)
            target = abs(permanent(z)) / math.factorial(n)
            assert bounds.pair_bound(z) >= target - 1e-12
            assert bounds.avg_pair_bound(z) >= target - 1e-12
            assert bounds.unit_circle_theta_bound(x, t) >= target - 1e-12


def test_unit_circle_theta_majorizes_avg():
    rng = np.random.default_rng(47)
    x = rng.standard_normal((6, 6))
    for t in (0.2, 0.9, 1.7, 3.0):
        avg = bounds.avg_pair_bound(np.exp(1j * t * x))
        theta = bounds.unit_circle_theta_bound(x, t)
        assert theta >= avg - 1e-12
        # theta bound never drops below (1/4)^(d/2)
        assert theta >= 0.25 ** (x.shape[0] // 2 / 2) - 1e-12


def test_unit_circle_theta_matches_ordered_pair_oracle():
    rng = np.random.default_rng(48)
    for n in range(2, 11):
        x = rng.uniform(-1.0, 1.0, (n, n))
        for t in (0.3, 0.7, 2.5):
            assert bounds.unit_circle_theta_bound(x, t) == pytest.approx(
                unit_circle_theta_bound_ordered(x, t), rel=1e-13
            )


def test_unit_circle_rejects_bad_input():
    for x in (np.zeros((1, 1)), np.zeros((2, 3))):
        with pytest.raises(DomainError):
            bounds.pair_bound(np.exp(1j * 1.0 * x))
        with pytest.raises(DomainError):
            bounds.unit_circle_theta_bound(x, 1.0)
    with pytest.raises(DomainError):
        bounds.pair_bound(np.exp(1j * 1.0 * np.zeros((4, 4))), s=(0, 1, 2, 2))


def test_baseline_opnorm():
    rng = np.random.default_rng(49)
    z = cmat(rng, 5)
    n = 5
    col = float(np.abs(z).sum(axis=0).max())
    row = float(np.abs(z).sum(axis=1).max())
    assert bounds.baseline_opnorm(z, 1) == pytest.approx(col**n, rel=1e-12)
    assert bounds.baseline_opnorm(z, "inf") == pytest.approx(row**n, rel=1e-12)
    s1 = np.linalg.svd(z, compute_uv=False)[0]
    assert bounds.baseline_opnorm(z, 2) == pytest.approx(s1**n, rel=1e-9)
    with pytest.raises(DomainError):
        bounds.baseline_opnorm(z, 3)
    for p in (1, 2, "inf"):
        assert bounds.baseline_opnorm(z, p) >= abs(permanent(z)) * (1 - 1e-10)
        assert bounds.baseline_opnorm(np.zeros((3, 3)), p) == 0.0
    assert bounds.baseline_singular(np.zeros((3, 3))) == 0.0


def test_baseline_singular():
    rng = np.random.default_rng(50)
    z = cmat(rng, 5)
    sv = np.linalg.svd(z, compute_uv=False)
    expected = math.sqrt(float((sv ** 10).sum() / 5))
    assert bounds.baseline_singular(z) == pytest.approx(expected, rel=1e-9)
    assert bounds.baseline_singular(z) >= abs(permanent(z)) * (1 - 1e-10)


def test_baseline_hadamard():
    rng = np.random.default_rng(51)
    z = cmat(rng, 5)
    assert bounds.baseline_hadamard(z) >= abs(permanent(z)) * (1 - 1e-12)
    phases = np.exp(1j * rng.standard_normal((6, 6)))
    assert bounds.baseline_hadamard(phases) == pytest.approx(
        math.factorial(6), rel=1e-12
    )


def test_baseline_ckp_dominates_f():
    rng = np.random.default_rng(52)
    z = cmat(rng, 5)
    for cols in [(0, 1), (2, 3, 4), None]:
        K = tuple(range(5)) if cols is None else cols
        assert bounds.baseline_ckp_minor(z, cols) >= bounds.f_set(z, K) * (
            1 - 1e-12
        )


def test_baseline_krauter_applicability():
    rng = np.random.default_rng(53)
    assert bounds.baseline_krauter(np.ones((4, 4))) is None  # n < 5
    assert bounds.baseline_krauter(cmat(rng, 6)) is None  # not a sign matrix
    z = np.ones((5, 5))
    z[0, 0] = -1.0
    got = bounds.baseline_krauter(z)
    assert got is not None
    assert got >= abs(permanent(z))
    # full rank sign matrix: rank 5 gives permanent_D(5, 4)
    signs = np.where(np.eye(5) > 0, -1.0, 1.0)
    assert np.linalg.matrix_rank(signs) == 5
    assert bounds.baseline_krauter(signs) == permanent_D(5, 4)
    assert bounds.baseline_krauter(signs) >= abs(permanent(signs))


def test_baseline_haf_per():
    rng = np.random.default_rng(55)
    z = csym(rng, 6)
    assert bounds.baseline_haf_per(z) >= abs(hafnian(z)) * (1 - 1e-12)
    with pytest.raises(DomainError):
        bounds.baseline_haf_per(np.zeros((3, 3)))
    # it rejects what hafnian rejects: asymmetry and non-finite entries
    for bad in ([[0.0, 1.0], [2.0, 0.0]], [[0.0, np.nan], [np.nan, 0.0]]):
        with pytest.raises(DomainError):
            hafnian(bad)
        with pytest.raises(DomainError):
            bounds.baseline_haf_per(bad)


def test_report_rows_on_empty_matrix():
    # every baseline of a 0 x 0 input is the empty product, with no warning
    rows = bounds.report_rows(from_entries(np.zeros((0, 0))))
    values = {r.name: r.raw_value for r in rows if r.applicable}
    assert values == dict.fromkeys(
        ["opnorm_p1", "opnorm_pinf", "opnorm_p2", "singular_mean_power",
         "hadamard_column_norm"], 1.0
    )
    assert all(r.dominates_exact for r in rows if r.applicable)


def test_minor_sum_phi_and_bound():
    rng = np.random.default_rng(56)
    z = cmat(rng, 4)
    for k in range(5):
        total = 0.0 + 0.0j
        for K in enumerate_subsets(4, k):
            for J in enumerate_subsets(4, k):
                total += permanent(z[np.ix_(J, K)])
        phi = bounds.minor_sum_phi(z, k)
        assert phi == pytest.approx(total, rel=1e-12)
        assert abs(phi) <= bounds.phi_bound(z, k) * (1 + 1e-12)


def test_subhafnian_sum_psi_and_bounds():
    rng = np.random.default_rng(57)
    z = csym(rng, 6)
    for k in range(4):
        total = 0.0 + 0.0j
        for J in enumerate_subsets(6, 2 * k):
            total += hafnian(z[np.ix_(J, J)])
        psi = bounds.subhafnian_sum_psi(z, k)
        assert psi == pytest.approx(total, rel=1e-12)
        level, entry = bounds.psi_bounds(z, k)
        assert abs(psi) <= level * (1 + 1e-12)
        assert abs(psi) <= entry * (1 + 1e-12)


# ---------------------------------------------------------------------------
# the per-minor loops the stacked engine replaced, kept as oracles


def cube(rng, n, order):
    shape = (n,) * order
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def symmetrized(a):
    out = np.zeros_like(a)
    for axes in itertools.permutations(range(a.ndim)):
        out += a.transpose(axes)
    return out / math.factorial(a.ndim)


def loop_f_set(t, K):
    """f_set by one direct tensor permanent per l-tuple of row subsets."""
    ell, n, k = t.ndim - 1, t.shape[0], len(K)
    if k == 0:
        return 1.0
    norm = float(math.factorial(k) ** ell)
    subsets = list(enumerate_subsets(n, k))
    total = 0.0
    for rows in itertools.product(subsets, repeat=ell):
        minor = t[np.ix_(*rows, K)]
        total += abs(multidim_permanent_direct(minor) / norm) ** 2
    return total / len(subsets) ** ell


def loop_F_level(t, k):
    Ks = list(enumerate_subsets(t.shape[-1], k))
    return sum(loop_f_set(t, K) for K in Ks) / len(Ks)


def loop_G_level(t, k):
    """G_level by one hyperhafnian per principal minor."""
    ell, n = t.ndim, t.shape[0]
    if k == 0:
        return 1.0
    scale = math.factorial(k) * math.factorial(ell) ** k / math.factorial(ell * k)
    values = [
        abs(scale * hyperhafnian(t[np.ix_(*([J] * ell))])) ** 2
        for J in enumerate_subsets(n, ell * k)
    ]
    return float(np.mean(values))


def loop_psi(z, k):
    """subhafnian_sum_psi by one hafnian per principal minor."""
    return sum(hafnian(z[np.ix_(J, J)]) for J in enumerate_subsets(len(z), 2 * k))


@settings(max_examples=30, deadline=None)
@given(order=st.integers(2, 3), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_tensor_minor_means_match_per_minor_loop(order, data, seed):
    n = data.draw(st.integers(1, 4 if order == 2 else 3))
    m = data.draw(st.integers(1, n))
    k = data.draw(st.integers(0, m))
    rng = np.random.default_rng(seed)
    t = cube(rng, n, order)[(Ellipsis, slice(0, m))]
    K = tuple(sorted(rng.choice(m, k, replace=False).tolist()))
    assert bounds.f_set(t, K) == pytest.approx(loop_f_set(t, K), rel=1e-12)
    assert bounds.F_level(t, k) == pytest.approx(loop_F_level(t, k), rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(order=st.integers(1, 3), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_principal_means_match_per_minor_loop(order, data, seed):
    n = data.draw(st.integers(0, {1: 6, 2: 8, 3: 6}[order]))
    k = data.draw(st.integers(0, n // order))
    t = symmetrized(cube(np.random.default_rng(seed), n, order))
    assert bounds.G_level(t, k) == pytest.approx(loop_G_level(t, k), rel=1e-12)
    if order == 2:
        psi = bounds.subhafnian_sum_psi(t, k)
        assert abs(psi - loop_psi(t, k)) <= 1e-12 * max(abs(psi), 1e-300)


def test_tensor_minors_across_chunk_boundaries(monkeypatch):
    # 2^5 sign-vector rows per chunk: order-3 minors of k = 2 (2 matrices
    # each) and k = 3 (6 each) fill chunks of 8 and 1 minors, the 24
    # matrices of k = 4 split into slices of 4, and order 4 at k = 3 splits
    # its 36 matrices per minor into slices of 8
    monkeypatch.setattr(exact, "_GLYNN_BATCH_ROWS", 1 << 5)
    chunks = count_chunks(monkeypatch)
    rng = np.random.default_rng(58)
    t = cube(rng, 5, 3)[:, :, :4]
    for k in range(1, 5):
        assert bounds.F_level(t, k) == pytest.approx(loop_F_level(t, k), rel=1e-12)
        assert chunks.pop() > 1
    # one minor, so one chunk, whose 36 matrices take six Glynn stacks of six
    stacks = []
    glynn = exact._glynn_stack
    monkeypatch.setattr(exact, "_glynn_stack", lambda m: stacks.append(m) or glynn(m))
    t4 = cube(rng, 3, 4)
    assert bounds.f_set(t4, (0, 1, 2)) == pytest.approx(
        loop_f_set(t4, (0, 1, 2)), rel=1e-12
    )
    assert chunks == [1] and len(stacks) == 6


@settings(max_examples=40, deadline=None)
@given(order=st.integers(2, 3), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_stacked_column_sets_equal_per_set_calls(order, data, seed):
    # stacking column sets into one call changes only which Glynn matrices
    # share a chunk, never a value's bits
    n = data.draw(st.integers(1, 7 if order == 2 else 4))
    m = data.draw(st.integers(1, n))
    k = data.draw(st.integers(1, m))
    width = data.draw(st.integers(1, 12))
    rng = np.random.default_rng(seed)
    t = cube(rng, n, order)[(Ellipsis, slice(0, m))]
    cols = np.array([rng.choice(m, k, replace=False) for _ in range(width)]).T
    stacked = bounds._minor_means(t, k, cols)
    single = [bounds._minor_means(t, k, cols[:, q : q + 1])[0] for q in range(width)]
    assert stacked.tolist() == single


def test_block_products_make_one_call_per_block_size(monkeypatch):
    calls = count_minor_means(monkeypatch)
    rng = np.random.default_rng(60)
    z = cmat(rng, 7)
    blocks = [(0, 1), (2,), (3, 4), (5, 6)]
    means = [bounds.f_set(z, w) for w in blocks]
    for bound, want in (
        (lambda: bounds.partition_bound_f(z, range(7), blocks), math.prod(means)),
        (lambda: bounds.permanent_bound_partition(z, blocks),
         math.factorial(7) * math.prod(map(math.sqrt, means))),
        (lambda: bounds.pair_bound(z, (0, 1, 3, 4, 5, 6, 2)),
         math.prod(map(math.sqrt, means))),
    ):
        calls.clear()
        assert bound() == want
        assert calls == [(2, 3), (1, 1)]
    calls.clear()
    bounds.permanent_bound_partition(cube(rng, 4, 3), [(0, 1), (2, 3)])
    assert calls == [(2, 2)]


def test_plan_cache_skips_multi_chunk_shapes(monkeypatch):
    # one column set of 28 row pairs at 16 minors per chunk: two chunks,
    # gathered per call; 10 row pairs fit one chunk and stay cached
    monkeypatch.setattr(exact, "_GLYNN_BATCH_ROWS", 1 << 5)
    chunks = count_chunks(monkeypatch)
    exact._cached_plan.cache_clear()
    rng = np.random.default_rng(63)
    z = cmat(rng, 8)
    assert bounds.f_set(z, (2, 5)) == pytest.approx(direct_f(z, (2, 5)), rel=1e-12)
    assert chunks == [2]
    assert exact._cached_plan.cache_info().currsize == 0
    small = z[:5, :5]
    assert bounds.f_set(small, (2, 4)) == pytest.approx(direct_f(small, (2, 4)), rel=1e-12)
    assert exact._cached_plan.cache_info().currsize == 1


def test_principal_minors_across_chunk_boundaries(monkeypatch):
    # chunks of at most 32 principal minors: C(8, 4) = 70 at order 2 and
    # C(9, 3) = C(9, 6) = 84 at order 3 span three chunks each
    monkeypatch.setattr(exact, "_GLYNN_BATCH_ROWS", 1 << 5)
    rng = np.random.default_rng(59)
    z = symmetrized(cmat(rng, 8))
    for k in range(5):
        assert bounds.G_level(z, k) == pytest.approx(loop_G_level(z, k), rel=1e-12)
        assert bounds.subhafnian_sum_psi(z, k) == pytest.approx(loop_psi(z, k), rel=1e-12)
    t = symmetrized(cube(rng, 9, 3))
    for k in range(4):
        assert bounds.G_level(t, k) == pytest.approx(loop_G_level(t, k), rel=1e-12)


def test_principal_averages_check_the_parent_symmetry():
    rng = np.random.default_rng(61)
    z = symmetrized(cmat(rng, 6))
    z[4, 1] += 1e-6
    t = symmetrized(cube(rng, 6, 3))
    t[0, 0, 5] += 1e-6
    for call in (
        lambda: bounds.G_level(z, 1), lambda: bounds.subhafnian_sum_psi(z, 2),
        lambda: bounds.hafnian_bound(z, (3,)), lambda: bounds.G_level(t, 1),
        lambda: bounds.hafnian_bound(t, (1, 1)),
    ):
        with pytest.raises(DomainError):
            call()


def test_no_average_calls_a_kernel_per_minor(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a public kernel was called")

    for module in (bounds, exact):
        for name in ("hafnian", "hyperhafnian", "multidim_permanent"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    rng = np.random.default_rng(60)
    z = cmat(rng, 6)
    x = rng.standard_normal((6, 6))
    s = symmetrized(cmat(rng, 6))
    t = cube(rng, 4, 3)
    h = symmetrized(cube(rng, 6, 3))
    blocks = ((0, 3), (1, 2, 4), (5,))
    tblocks = ((0, 2), (1, 3))
    for value in (
        bounds.f_set(z, (0, 2)), bounds.F_level(z, 2),
        bounds.partition_bound_f(z, (0, 1, 2), ((0, 1), (2,))),
        bounds.permanent_bound_partition(z, blocks),
        bounds.composition_bound_F(z, 4, (2, 2)),
        bounds.permanent_bound_composition(z, (2, 3, 1)),
        bounds.f_set(t, (1, 3)), bounds.F_level(t, 2),
        bounds.partition_bound_f(t, (0, 1, 2, 3), tblocks),
        bounds.composition_bound_F(t, 3, (1, 2)),
        bounds.permanent_bound_partition(t, tblocks),
        bounds.permanent_bound_composition(t, (2, 2)),
        bounds.G_level(s, 2), bounds.hafnian_bound(s, (1, 2)),
        bounds.G_level(h, 1), bounds.hafnian_bound(h, (1, 1)),
        bounds.pair_bound(z), bounds.avg_pair_bound(z),
        bounds.pair_bound(np.exp(0.7j * x)), bounds.avg_pair_bound(np.exp(0.7j * x)),
        bounds.minor_sum_phi(z, 3), bounds.phi_bound(z, 3),
        bounds.subhafnian_sum_psi(s, 2), *bounds.psi_bounds(s, 2),
        exact.permanent_via_laplace(z, blocks),
        exact.multidim_permanent_via_laplace(t, (2, 2), tblocks),
        exact.multidim_permanent_via_laplace(t, (1, 3)),
        exact.hyperhafnian_via_expansion(s, (1, 2)),
        exact.hyperhafnian_via_expansion(h, (1, 1)),
    ):
        assert np.isfinite(value)


def _flags(z, n):
    rows = bounds.report_rows(
        from_entries(z), all_baselines=True, blocks=[list(range(n))], parts=[n]
    )
    return {r.name: r.dominates_exact for r in rows if r.applicable}


@pytest.mark.parametrize("c", [1000.0, 123.456, 2.0**40])
@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_tight_rows_on_constant_matrices_dominate(c, n):
    # the column-norm, partition and composition rows equal |per| / n! on a
    # constant matrix, so only a relative slack can flag them at every scale
    flags = _flags(np.full((n, n), c), n)
    assert {"hadamard_column_norm", "partition_subset_avg", "composition_level_avg"} <= set(flags)
    assert all(flags.values()), flags


def test_dominance_flags_do_not_depend_on_scale():
    z = cmat(np.random.default_rng(62), 8)
    flags = _flags(z, 8)
    for scale in (2.0**40, 2.0**-40):
        assert _flags(scale * z, 8) == flags


@pytest.mark.parametrize(
    "n, options, limit",
    [
        (171, {}, "bounds limit n <= 170"),
        (24, {"parts": (12, 12)}, "composition row work limit 200000000"),
        (24, {"blocks": [range(24)]}, "partition row work limit 200000000"),
    ],
)
def test_report_rows_limits_apply_before_any_minor(monkeypatch, n, options, limit):
    # library callers get the limits of permbound bounds; an oversized row
    # is refused before the minor engine runs
    def refuse(*args):
        raise AssertionError("a minor mean was computed")

    monkeypatch.setattr(bounds, "_minor_means", refuse)
    mi = from_unit_circle(np.zeros((n, n)), 1.0)
    with pytest.raises(FeasibilityError, match=limit):
        bounds.report_rows(mi, **options)


@pytest.mark.parametrize(
    "mi, options, message",
    [
        (from_entries(np.eye(4)), {"theta": True}, "theta needs the unit_circle form"),
        (from_entries(np.eye(4)), {"s_perm": (1, 0, 3, 2)}, "s_perm needs the unit_circle"),
        (from_polar(np.ones((4, 4)), np.zeros((4, 4))), {"s_perm": (1, 0, 3, 2)},
         "s_perm needs the unit_circle form, got polar"),
        (from_unit_circle(np.zeros((4, 4)), 1.0), {"s_perm": (0, 0, 1, 2)},
         "not a permutation of range"),
        (from_unit_circle(np.zeros((4, 4)), 1.0), {"s_perm": (0, 1, 2)},
         "not a permutation of range"),
    ],
)
def test_report_rows_pair_options_apply_before_any_row(monkeypatch, mi, options, message):
    # pair options that no row can use are refused before any row is
    # computed, baselines included
    def refuse(*args):
        raise AssertionError("a row was computed")

    for name in ("_minor_means", "_log_opnorm", "_log_singular", "_log_hadamard"):
        monkeypatch.setattr(bounds, name, refuse)
    with pytest.raises(DomainError, match=message):
        bounds.report_rows(mi, **options)


def test_table1_report_evaluates_each_level_once(monkeypatch):
    # pair_cos: one call for its four pairs; avg_cos: level 2 over all 28
    # pairs; partition 3, 3, 2: one call per block size; composition
    # 3, 3, 2: level 3 only, since avg_cos already evaluated level 2
    from permbound import table1

    calls = count_minor_means(monkeypatch)
    table1.compute_rows(1.0)
    assert sorted(calls) == sorted([(2, 4), (2, 28), (3, 2), (2, 1), (3, 56)])


def test_only_bounds_sets_its_limits():
    # the row limits live next to the code whose cost they bound
    import ast
    import pathlib

    src = pathlib.Path(bounds.__file__).parent
    offenders = []
    for path in sorted(src.glob("*.py")):
        if path.name == "bounds.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            # a name or attribute in Store context is an assignment target
            ident = getattr(node, "id", getattr(node, "attr", None))
            if isinstance(getattr(node, "ctx", None), ast.Store) and ident in (
                "BOUNDS_MAX_N", "BOUNDS_MAX_WORK"
            ):
                offenders.append(f"{path.name}:{node.lineno} {ident}")
    assert offenders == []


def test_library_imports_no_threads_or_environment():
    # report rows and kernels run serially and read no environment knob
    import ast
    import pathlib

    banned = {"os", "threading", "multiprocessing", "concurrent"}
    src = pathlib.Path(bounds.__file__).parent
    offenders = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            offenders += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] in banned
            ]
    assert offenders == []


def test_only_bounds_reads_its_private_names():
    # the report catalogue lives in bounds.report_rows; no other module
    # rebuilds rows from bounds' private helpers
    import ast
    import pathlib

    src = pathlib.Path(bounds.__file__).parent
    offenders = []
    for path in sorted(src.glob("*.py")):
        if path.name == "bounds.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "bounds"
                and node.attr.startswith("_")
            ):
                offenders.append(f"{path.name}:{node.lineno} bounds.{node.attr}")
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("bounds"):
                offenders += [
                    f"{path.name}:{node.lineno} {a.name}"
                    for a in node.names
                    if a.name.startswith("_")
                ]
    assert offenders == []
