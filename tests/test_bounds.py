import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from permbound import bounds, exact
from permbound.combinatorics import enumerate_subsets, subset_table
from permbound.errors import DomainError, FeasibilityError
from permbound.exact import (
    hafnian,
    hyperhafnian,
    multidim_permanent,
    permanent,
    permanent_D,
)
from permbound.matrixio import MatrixInput, from_entries, from_polar, from_unit_circle
from oracles import (
    f_set_fraction,
    multidim_permanent_direct,
    unit_circle_theta_bound_ordered,
)


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


ROW_SIDE_KINDS = ("gaussian", "rank_one", "signs", "zero_column", "constant")


def row_side_input(kind, rng, n, m):
    """An n x m matrix of one kind: the row side's sign sums cancel exactly
    on a zero column, and on +-1 and constant inputs every value is exact."""
    if kind == "gaussian":
        return cmat(rng, n, m)
    if kind == "rank_one":
        return np.outer(cmat(rng, n, 1), cmat(rng, m, 1))
    if kind == "signs":
        return rng.choice([-1.0, 1.0], (n, m)).astype(complex)
    if kind == "zero_column":
        z = cmat(rng, n, m)
        z[:, rng.integers(m)] = 0.0
        return z
    return np.full((n, m), complex(*rng.standard_normal(2)))


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(ROW_SIDE_KINDS), n=st.integers(2, 8), data=st.data(),
       seed=st.integers(0, 2**32 - 1))
def test_row_side_matches_the_engine(kind, n, data, seed):
    # the engine, called on its own path, is the oracle here; a column scale
    # factors out of the engine exactly, so columns are scaled, by powers of
    # two that keep +-1 and constant inputs exact
    m = data.draw(st.integers(2, n))
    k = data.draw(st.integers(2, min(m, bounds.ROW_SIDE_MAX_K)))
    scales = data.draw(st.lists(st.sampled_from([-27, -10, 0, 10, 27]),
                                min_size=m, max_size=m))
    z = row_side_input(kind, np.random.default_rng(seed), n, m) * np.exp2(scales)
    cols = subset_table(m, k)
    engine = bounds._engine_means(z, k, cols)
    row = bounds._row_side_means(z, k, cols)
    # relative to the engine: where it reads exactly 0 (a zero column, or
    # +-1 entries whose every minor has permanent 0), the row side must too
    assert (np.abs(row - engine) <= 1e-12 * engine).all()


@pytest.mark.parametrize("n, k", [(10, 3), (10, 4), (11, 3), (11, 4), (14, 2)])
@pytest.mark.parametrize("scaled", [None, "rows", "columns", "narrow_column"])
def test_row_side_matches_exact_rationals(n, k, scaled):
    # f_set, and the row side called on its own path (single blocks of these
    # shapes read the engine); a narrow column's share of the row side's
    # signed column sums is lost unless each column is brought to one scale
    rng = np.random.default_rng(70 + 2 * n + k)
    z = cmat(rng, n)
    # rows or columns scaled by 1e-3, 1 and 1e3 in turn, or column 1 1e8
    # times narrower than the others
    steps = 10.0 ** (3 * (np.arange(n) % 3 - 1))
    if scaled == "rows":
        z *= steps[:, None]
    elif scaled == "columns":
        z *= steps
    elif scaled == "narrow_column":
        z[:, 1] *= 1e-8
    for K in ((0, 1, 2, 3)[:k], tuple(sorted(rng.choice(n, k, replace=False)))):
        truth = f_set_fraction(z, K)
        for got in (bounds.f_set(z, K), bounds._row_side_means(z, k, np.array([K]).T)[0]):
            assert abs(Fraction(got) - truth) <= Fraction(1e-13) * truth


@pytest.mark.parametrize("n", [8, 9, 10])
def test_full_levels_on_the_row_side_match_exact_rationals(n):
    # full levels 3-5 at n = 8-10 take the row side; rows scaled by 1e-3, 1
    # and 1e3 in turn would cost the engine up to 3e-9 relative. The level's
    # per-set values are what its blocks read; level 6 at n = 10 is left
    # out, since one exact set takes 16 s there
    rng = np.random.default_rng(77 + n)
    z = cmat(rng, n) * (10.0 ** (3 * (np.arange(n) % 3 - 1)))[:, None]
    levels = bounds.Levels(z)
    for k in range(3, 6):
        if not bounds._minor_cost(z.shape, k, math.comb(n, k))[0]:
            continue
        level = bounds.F_level(levels, k)
        sets = levels._sets[k]
        assert level == sets.sum() / len(sets)
        ranks = [len(sets) - 1] + ([int(rng.integers(len(sets) - 1))] if k < 5 else [])
        table = subset_table(n, k)
        for r in ranks:
            truth = f_set_fraction(z, table[:, r])
            assert abs(Fraction(sets[r]) - truth) <= Fraction(1e-14) * truth
        if (n, k) == (8, 3):
            truth = sum(f_set_fraction(z, table[:, r]) for r in range(len(sets))) / len(sets)
            assert abs(Fraction(level) - truth) <= Fraction(1e-14) * truth


def test_spectral_rows_share_one_svd(monkeypatch):
    # opnorm_p2 and singular_mean_power read one SVD, and each equals, bit for
    # bit, its formula on its own numpy call: np.linalg.norm(z, 2) is the
    # largest singular value of the same LAPACK call
    rng = np.random.default_rng(64)
    want = []
    for n in (1, 2, 5, 9, 16):
        z = cmat(rng, n)
        sv = np.linalg.svd(z, compute_uv=False)
        log_sum = math.log(float(((sv / sv[0]) ** (2 * n)).sum()))
        want.append((z, {
            "opnorm_p2": math.exp(n * math.log(np.linalg.norm(z, 2)) - math.lgamma(n + 1)),
            "singular_mean_power": math.exp(
                n * math.log(sv[0]) + 0.5 * (log_sum - math.log(n)) - math.lgamma(n + 1)
            ),
        }))
    calls, svd, norm = [], np.linalg.svd, np.linalg.norm
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append("svd") or svd(*a, **kw))
    monkeypatch.setattr(np.linalg, "norm", lambda *a, **kw: calls.append("norm") or norm(*a, **kw))
    for z, values in want:
        calls.clear()
        rows = {r.name: r.raw_value for r in bounds.report_rows(from_entries(z))}
        assert calls == ["svd"]
        assert {name: rows[name] for name in values} == values


def test_row_side_reads_zero_on_a_zero_column():
    # each minor with a zero column has permanent 0; the signed sums alone
    # would leave rounding residue
    rng = np.random.default_rng(75)
    z = cmat(rng, 9, 7) * np.exp2(rng.integers(-20, 20, 7))
    z[:, 3] = 0.0
    for k in range(2, 7):
        cols = subset_table(7, k)
        means = bounds._row_side_means(z, k, cols)
        assert ((means == 0) == (cols == 3).any(axis=0)).all()


def test_row_side_clamps_a_vanishing_mean():
    # per(z) = -s a0 a1 + s a0 a1 vanishes up to rounding, and the signed
    # sums of the row side can then fall below 0
    rng = np.random.default_rng(76)
    for _ in range(50):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        s = complex(*rng.standard_normal(2))
        z = np.array([[a[0], s * a[0]], [a[1], -s * a[1]]])
        assert bounds._row_side_means(z, 2, np.array([[0], [1]]))[0] >= 0


def test_subset_averages_pick_their_path(monkeypatch):
    # the cost model's choices: full matrix levels 3-4 take the row side from
    # n = 8, level 5 from n = 9, level 6 from n = 10 and level 2 from n = 13;
    # every level of n <= 7 and single blocks below n = 11 read the engine,
    # whose call shows up as one entry of chunk counts
    chunks = count_chunks(monkeypatch)
    rng = np.random.default_rng(71)

    def engine_calls(value):
        assert np.isfinite(value)
        calls = len(chunks)
        chunks.clear()
        return calls

    for n in range(1, 8):
        z = cmat(rng, n)
        assert [engine_calls(bounds.F_level(z, k)) for k in range(1, n + 1)] == [1] * n
    for n, want in ((8, [1, 1, 0, 0, 1, 1, 1, 1]), (9, [1, 1, 0, 0, 0, 1, 1, 1, 1]),
                    (10, [1, 1, 0, 0, 0, 0, 1, 1, 1, 1])):
        z = cmat(rng, n)
        assert [engine_calls(bounds.F_level(z, k)) for k in range(1, n + 1)] == want
    z10 = z
    assert [engine_calls(bounds.f_set(z10, range(k))) for k in range(1, 8)] == [1] * 7
    assert engine_calls(bounds.F_level(cmat(rng, 12), 2)) == 1
    assert engine_calls(bounds.F_level(cmat(rng, 13), 2)) == 0
    z16 = cmat(rng, 16)
    assert [engine_calls(bounds.f_set(z16, range(k))) for k in range(1, 8)] == [
        1, 1, 1, 0, 0, 0, 1
    ]
    assert engine_calls(bounds.f_set(cube(rng, 10, 3)[:, :, :3], (0, 1, 2))) == 1


def test_row_side_values_do_not_depend_on_the_chunk(monkeypatch):
    rng = np.random.default_rng(72)
    z = cmat(rng, 12, 9)
    z14 = cmat(rng, 14)
    calls = [
        lambda: [bounds.F_level(z, k) for k in range(2, 7)],
        lambda: [bounds.f_set(z, K) for K in ((0, 5), (1, 2, 8), (0, 3, 4, 6, 7))],
        lambda: bounds.F_level(z14, 2),
    ]
    want = [call() for call in calls]
    for entries in (1, 60, 500):
        monkeypatch.setattr(bounds, "_CHUNK_ENTRIES", entries)
        assert [call() for call in calls] == want


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
        for t in (0.3, 0.7, 2.5, math.pi):
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


def report_values(z) -> dict:
    """raw_value of each applicable report row of z, by name."""
    return {r.name: r.raw_value for r in bounds.report_rows(from_entries(z)) if r.applicable}


def test_baseline_opnorm():
    rng = np.random.default_rng(49)
    z = cmat(rng, 5)
    n, fact = 5, math.factorial(5)
    col = float(np.abs(z).sum(axis=0).max())
    row = float(np.abs(z).sum(axis=1).max())
    s1 = np.linalg.svd(z, compute_uv=False)[0]
    values = report_values(z)
    assert values["opnorm_p1"] == pytest.approx(col**n / fact, rel=1e-12)
    assert values["opnorm_pinf"] == pytest.approx(row**n / fact, rel=1e-12)
    assert values["opnorm_p2"] == pytest.approx(s1**n / fact, rel=1e-9)
    zero = report_values(np.zeros((3, 3)))
    for name in ("opnorm_p1", "opnorm_pinf", "opnorm_p2"):
        assert values[name] >= abs(permanent(z)) / fact * (1 - 1e-10)
        assert zero[name] == 0.0


def test_baseline_singular():
    rng = np.random.default_rng(50)
    z = cmat(rng, 5)
    sv = np.linalg.svd(z, compute_uv=False)
    expected = math.sqrt(float((sv ** 10).sum() / 5)) / math.factorial(5)
    value = report_values(z)["singular_mean_power"]
    assert value == pytest.approx(expected, rel=1e-9)
    assert value >= abs(permanent(z)) / math.factorial(5) * (1 - 1e-10)
    assert report_values(np.zeros((3, 3)))["singular_mean_power"] == 0.0


def test_baseline_hadamard():
    rng = np.random.default_rng(51)
    z = cmat(rng, 5)
    means = (np.abs(z) ** 2).mean(axis=0)
    value = report_values(z)["hadamard_column_norm"]
    assert value == pytest.approx(float(np.sqrt(means).prod()), rel=1e-12)
    assert value >= abs(permanent(z)) / math.factorial(5) * (1 - 1e-12)
    phases = np.exp(1j * rng.standard_normal((6, 6)))
    assert report_values(phases)["hadamard_column_norm"] == pytest.approx(1.0, rel=1e-12)
    assert report_values(np.zeros((3, 3)))["hadamard_column_norm"] == 0.0


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


def count_levels(monkeypatch) -> list[tuple[str, int]]:
    """Record (name, k) of every F_level and G_level call."""
    calls = []
    for name in ("F_level", "G_level"):
        mean = getattr(bounds, name)
        monkeypatch.setattr(bounds, name, lambda t, k, name=name, mean=mean: (
            calls.append((name, k)) or mean(t, k)))
    return calls


def test_psi_bounds_evaluates_each_level_once(monkeypatch):
    # at k = 1 both bounds read G_level(z, 1): one call, the same values
    z = csym(np.random.default_rng(58), 6)
    want = {}
    for k in (1, 2):
        count = math.comb(6, 2 * k) * math.factorial(2 * k) / (math.factorial(k) * 2**k)
        g1, gk = bounds.G_level(z, 1), bounds.G_level(z, k)
        want[k] = (float(count * math.sqrt(gk)), float(count * g1 ** (k / 2.0)))
    calls = count_levels(monkeypatch)
    assert bounds.psi_bounds(z, 1) == want[1]
    assert calls == [("G_level", 1)]
    calls.clear()
    assert bounds.psi_bounds(z, 2) == want[2]
    assert calls == [("G_level", 1), ("G_level", 2)]


def test_levels_in_place_of_t_change_nothing(monkeypatch):
    # the three level-product bounds give bit-identical values on a Levels,
    # zero and repeated parts included, and one Levels evaluates each
    # (kind, level) once across all of them
    rng = np.random.default_rng(59)
    a = cmat(rng, 36, 6).reshape(6, 6, 6)
    cases = [  # t, then parts of 4, of n and of m, then the F levels read
        (csym(rng, 6), (2, 0, 2), (2, 0, 2, 2), (1, 0, 1, 1), [0, 2]),
        (sum(a.transpose(p) for p in itertools.permutations(range(3))),
         (2, 0, 2), (3, 0, 3), (1, 0, 1), [0, 2, 3]),
    ]
    bound_calls = [
        [(bounds.composition_bound_F, (4, k_parts)),
         (bounds.permanent_bound_composition, (n_parts,)),
         (bounds.hafnian_bound, (m_parts,))]
        for _, k_parts, n_parts, m_parts, _ in cases
    ]
    want = [[fn(t, *args) for fn, args in calls]
            for (t, *_), calls in zip(cases, bound_calls)]
    levels = count_levels(monkeypatch)
    for (t, *_, f_levels), calls, values in zip(cases, bound_calls, want):
        levels.clear()
        memo = bounds.Levels(t)
        for _ in range(2):
            assert [fn(memo, *args) for fn, args in calls] == values
            assert [fn(bounds.Levels(memo), *args) for fn, args in calls] == values
        assert sorted(levels) == [("F_level", k) for k in f_levels] + [
            ("G_level", 0), ("G_level", 1)]


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

    # one Levels shared by every partition-side bound gives the bits of
    # fresh calls, and a block it has seen takes no second minor call
    perm = (0, 1, 3, 4, 5, 6, 2)
    bounds_of = (
        lambda t: bounds.f_set(t, (3, 4)),
        lambda t: bounds.partition_bound_f(t, (0, 1, 2, 5, 6), [(0, 1), (2,), (5, 6)]),
        lambda t: bounds.permanent_bound_partition(t, blocks),
        lambda t: bounds.pair_bound(t, perm),
        lambda t: bounds.pair_bound(t),
        lambda t: bounds.avg_pair_bound(t),
    )
    fresh = [bound(z) for bound in bounds_of]
    calls.clear()
    levels = bounds.Levels(z)
    assert [bound(levels) for bound in bounds_of] == fresh
    # f_set (3, 4); (0, 1), (2,), (5, 6); nothing new for the full partition
    # and pair_bound(perm); the identity pairs (2, 3), (4, 5) and (6,);
    # level 2, and level 1 for the odd column
    assert calls == [(2, 1), (2, 2), (1, 1), (2, 2), (1, 1), (2, 21), (1, 7)]
    calls.clear()
    assert [bound(bounds.Levels(levels)) for bound in bounds_of] == fresh
    assert calls == []


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


def test_levels_plan_prices_the_path_that_runs(monkeypatch):
    # plan evaluates nothing; each level and each size of new blocks costs
    # what _minor_cost prices for its path, and a block of a level planned
    # or evaluated before costs nothing
    z = cmat(np.random.default_rng(65), 10)
    levels = bounds.Levels(z)
    calls = count_minor_means(monkeypatch)
    blocks = [(0, 1), (2, 3, 4, 5), (6, 7, 8), (9,)]
    cost = [bounds._minor_cost(z.shape, k, c)[1] for k, c in ((2, 45), (4, 210), (3, 1), (1, 1))]
    assert bounds._minor_cost(z.shape, 4, 210)[0] and not bounds._minor_cost(z.shape, 3, 1)[0]
    assert levels.plan((2, 4, 0), blocks) == (cost[0] + cost[1], cost[2] + cost[3])
    assert levels.plan((), blocks[1:2]) == (0, bounds._minor_cost(z.shape, 4, 1)[1])
    assert calls == []
    bounds.F_level(levels, 4)
    levels.blocks([(6, 7, 8)])
    assert levels.plan((2, 4), blocks) == (cost[0], cost[3])
    assert calls == [(4, 210), (3, 1)]


@pytest.mark.parametrize(
    "n, options, limit",
    [
        (171, {}, "bounds limit n <= 170"),
        (24, {"parts": (12, 12)}, "composition row work limit 200000000"),
        (24, {"blocks": [range(24)]}, "partition row work limit 200000000"),
        # the row side's price: 205,923,573 products for level 3
        (83, {"parts": (3,) * 27 + (2,)}, "composition row work limit 200000000"),
        (18, {"blocks": [range(15), range(15, 18)]}, "partition row work limit"),
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


def test_report_rows_pair_rows_follow_the_argument_t():
    # an input that carries its argument t, such as charfn's matrix of
    # characteristic functions, gets the pair rows and accepts s_perm; theta
    # still reads the phases of a unit_circle input
    rng = np.random.default_rng(34)
    z = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    names = [r.name for r in bounds.report_rows(from_entries(z))]
    assert "pair_cos" not in names and "avg_cos" not in names
    mi = MatrixInput(z, "entries", t=0.5)
    s = (4, 2, 0, 1, 3)
    rows = {r.name: r for r in bounds.report_rows(mi, s_perm=s)}
    levels = bounds.Levels(z)
    assert rows["avg_cos"].raw_value == bounds.avg_pair_bound(levels)
    assert rows["pair_cos"].raw_value == bounds.pair_bound(levels, s)
    assert rows["pair_cos"].params == {"t": 0.5, "s": [5, 3, 1, 2, 4]}
    with pytest.raises(DomainError, match="theta needs the unit_circle form, got entries"):
        bounds.report_rows(mi, theta=True)


def test_table1_report_evaluates_each_level_once(monkeypatch):
    # the report evaluates its levels first: level 2 over all 28 pairs for
    # avg_cos and the composition 3, 3, 2, and level 3 over all 56 triples;
    # pair_cos's four pairs and the partition 3, 3, 2's blocks read them
    from permbound import table1

    calls = count_minor_means(monkeypatch)
    table1.compute_rows(1.0)
    assert sorted(calls) == [(2, 28), (3, 56)]


def test_only_bounds_sets_its_limits():
    # each limit lives next to the code whose cost it bounds
    import ast
    import pathlib

    owners = {
        "bounds.py": ("BOUNDS_MAX_N", "BOUNDS_MAX_WORK"),
        "exact.py": ("PER_MAX_WORK", "HAF_MAX_WORK", "EXACT_COLUMN_MAX_N"),
    }
    src = pathlib.Path(bounds.__file__).parent
    offenders = []
    for path in sorted(src.glob("*.py")):
        foreign = {name for owner, names in owners.items() if owner != path.name
                   for name in names}
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            # a name or attribute in Store context is an assignment target
            ident = getattr(node, "id", getattr(node, "attr", None))
            if isinstance(getattr(node, "ctx", None), ast.Store) and ident in foreign:
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


def test_library_stays_within_its_line_target():
    # ROADMAP's line target: a change that would take src past 4,000 lines
    # deletes first, or raises this bound and says why in CHANGES.md
    import pathlib

    src = pathlib.Path(bounds.__file__).parent
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src.glob("*.py"))
    assert lines <= 4_000


def test_every_public_name_has_a_src_reader():
    # each object the package exports is read, under its own __name__, by a
    # src module other than __init__.py: a name only tests call is not API
    import ast
    import pathlib

    import permbound

    src = pathlib.Path(bounds.__file__).parent
    read = set()
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(getattr(node, "ctx", None), ast.Load):
                read.add(getattr(node, "id", getattr(node, "attr", None)))
    offenders = [
        name for name in permbound.__all__
        if getattr(getattr(permbound, name), "__name__", name) not in read
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
