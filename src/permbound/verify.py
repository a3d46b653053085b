"""Randomized verification suites.

Each suite checks an identity or inequality on random instances and returns
a :class:`SuiteResult` whose failures carry the serialized offending instance
for replay. Each family of checks draws its trials in order from one
generator keyed by the seed and the family, so fewer trials check a prefix;
the convolution sweep draws each (n, k, j) case's trials as one batch. A check
that holds at every tensor order runs one body over its families' rows.

A check of a value against a bound or a reference names its (value, bound)
pairs, and one comparator judges them all: ``value <= bound`` within
SLACK_RTOL for dominance, agreement within EQ_RTOL for equality and within
REL_TOL for the expansions. A failure carries each pair as [value, bound].
Dominance and equality share one body per bound family (partition,
composition, hafnian): it draws everything after the input, so the two
suites differ only in the input and the comparator. Suites:

* laplace: block expansions reproduce the exact kernels,
* dominance: subset-average products dominate exact values,
  refining a partition or composition never improves the bound, and the
  minor sums Phi_k and Psi_k stay within their bounds,
* equality: constructed instances achieve the bounds exactly,
* convolution: the subset-convolution mean-square inequality plus the
  equality classifier biconditional on a full small sweep,
* master: the block-product mean-square inequality, its reproduction of
  permanent expansions, and the full-set product bound,
* charfn: characteristic-function bounds dominate the exact value and the
  Monte Carlo estimator agrees within standard errors.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import bounds, charfn
from .combinatorics import multinomial
from .convolution import (
    EQUALITY_CONDITIONS,
    SetFunction,
    classify_equality,
    equality_conditions,
    generalized_R,
    verify_convolution_inequality,
    verify_master_inequality,
)
from .errors import DomainError
from .exact import (
    _block_table,
    hafnian,
    hyperhafnian,
    hyperhafnian_via_expansion,
    multidim_permanent,
    multidim_permanent_via_laplace,
    permanent,
    permanent_via_laplace,
)
from .matrixio import cells_to_json

REL_TOL = 1e-10
SLACK_RTOL = 1e-12
EQ_RTOL = 1e-12
FAILURE_CAP = 25


@dataclass
class SuiteResult:
    suite: str
    seed: int
    trials: int
    checks: int = 0
    failures: list = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "trials": self.trials,
            "checks": self.checks,
            "failures": self.failures,
            "ok": self.ok,
            "elapsed_seconds": self.elapsed,
        }


class _Recorder:
    """Collects check counts and the first FAILURE_CAP serialized failures."""

    def __init__(self):
        self.checks = 0
        self.failures: list[dict] = []

    def record(self, ok: bool, family: str, index: int, detail: dict) -> None:
        self.record_rows([ok], family, index, lambda _: detail)

    def judge(self, family: str, index: int, instance: dict, *checks) -> None:
        """Record one check that ``agree(value, bound)`` holds for every named
        (value, bound) pair of each ``(agree, pairs)`` in ``checks``; a failure
        carries the instance and each pair as [value, bound]."""
        detail = dict(instance)
        for _, pairs in checks:
            detail.update((name, list(pair)) for name, pair in pairs.items())
        ok = all(agree(*pair) for agree, pairs in checks for pair in pairs.values())
        self.record(ok, family, index, detail)

    def record_rows(self, ok, family: str, first: int, detail) -> None:
        """Count one check per entry of the boolean sequence ``ok``, entry i
        having index first + i; ``detail(i)`` serializes a failing entry."""
        self.checks += len(ok)
        failing = (i for i, good in enumerate(ok) if not good)
        for i in itertools.islice(failing, max(FAILURE_CAP - len(self.failures), 0)):
            self.failures.append(
                {"family": family, "index": first + i, **_jsonable(detail(i))}
            )


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.ndarray, complex, np.complexfloating)):
        return cells_to_json(value) if np.iscomplexobj(value) else value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    return value


def _rng(seed: int, family: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(family,)))


def _ctensor(rng: np.random.Generator, n: int, order: int) -> np.ndarray:
    shape = (n,) * order
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _sym_tensor(rng: np.random.Generator, n: int, order: int) -> np.ndarray:
    a = _ctensor(rng, n, order)
    axes = itertools.permutations(range(order))
    return sum(a.transpose(p) for p in axes) / math.factorial(order)


def _composition(rng: np.random.Generator, total: int, parts: int) -> tuple[int, ...]:
    return tuple(int(v) for v in rng.multinomial(total, [1.0 / parts] * parts))


def _partition_of(rng, elements, sizes) -> tuple[tuple[int, ...], ...]:
    pool = list(elements)
    order = rng.permutation(len(pool))
    shuffled = [pool[i] for i in order]
    blocks = []
    at = 0
    for s in sizes:
        blocks.append(tuple(sorted(shuffled[at : at + s])))
        at += s
    return tuple(blocks)


def _rel_err(a: complex, b: complex) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-12)


def _slack_ok(lhs: float, rhs: float) -> bool:
    return rhs - lhs >= -SLACK_RTOL * abs(rhs)


def _equal(a: complex, b: complex) -> bool:
    return _rel_err(a, b) <= EQ_RTOL


def _close(a: complex, b: complex) -> bool:
    return _rel_err(a, b) <= REL_TOL


# ---------------------------------------------------------------------------


def suite_laplace(seed: int, trials: int) -> SuiteResult:
    """Expansion identities against the exact kernels."""
    rec = _Recorder()
    rng = _rng(seed, 0)
    for i in range(trials):
        n = int(rng.integers(2, 8))
        z = _ctensor(rng, n, 2)
        d = int(rng.integers(1, min(3, n) + 1))
        w = _composition(rng, n, d)
        blocks = _partition_of(rng, range(n), w)
        pairs = {"expansion": (permanent_via_laplace(z, blocks), permanent(z))}
        rec.judge("permanent_expansion", i, {"n": n, "blocks": blocks, "z": z}, (_close, pairs))
    rng = _rng(seed, 1)
    for i in range(trials):
        k = int(rng.integers(2, 5))
        t = _ctensor(rng, k, 3)
        d = int(rng.integers(1, min(3, k) + 1))
        w = _composition(rng, k, d)
        blocks = _partition_of(rng, range(k), w)
        direct = multidim_permanent(t)
        pairs = {
            "fixed": (multidim_permanent_via_laplace(t, w, blocks), direct),
            "symmetrized": (multidim_permanent_via_laplace(t, w), direct),
        }
        rec.judge("tensor_permanent_expansion", i, {
            "k": k, "sizes": w, "blocks": blocks, "t": t,
        }, (_close, pairs))
    for key, family, order, sizes, kernel in (
        (2, "hafnian_expansion", 2, [4, 6, 8], hafnian),
        (3, "tensor_hafnian_expansion", 3, [6], hyperhafnian),
    ):
        rng = _rng(seed, key)
        for i in range(trials):
            n = int(rng.choice(sizes))
            t = _sym_tensor(rng, n, order)
            m = n // order
            if i % 3 == 0 and m >= 2:
                w: tuple[int, ...] = (1, m - 1)
            else:
                d = int(rng.integers(1, min(3, m) + 1))
                w = _composition(rng, m, d)
            pairs = {"expansion": (hyperhafnian_via_expansion(t, w), kernel(t))}
            rec.judge(family, i, {"n": n, "sizes": w, "t": t}, (_close, pairs))
    return SuiteResult("laplace", seed, trials, rec.checks, rec.failures)


# ---------------------------------------------------------------------------
# One body per bound family: each draws everything after the input t and
# returns the drawn instance with its named (value, bound) pairs, so the
# dominance and the equality suite judge the same pairs.


def _random_column_blocks(rng, cols):
    k = len(cols)
    d = int(rng.integers(1, k + 1))
    w = _composition(rng, k, d)
    return _partition_of(rng, cols, w)


def _partition_pairs(rng, t, kernel, k_max: int) -> tuple[dict, dict]:
    """A column set of at most k_max columns and an ordered partition of it,
    then one of all n columns: f_set against the product over the blocks,
    and |kernel(t)| against ``permanent_bound_partition``."""
    n = len(t)
    k = int(rng.integers(1, min(k_max, n) + 1))
    cols = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
    blocks = _random_column_blocks(rng, cols)
    full_blocks = _random_column_blocks(rng, range(n))
    levels = bounds.Levels(t)
    pairs = {
        "f_set": (bounds.f_set(levels, cols), bounds.partition_bound_f(levels, cols, blocks)),
        "permanent": (abs(kernel(t)), bounds.permanent_bound_partition(levels, full_blocks)),
    }
    return {"cols": cols, "blocks": blocks, "full_blocks": full_blocks}, pairs


def _composition_pairs(rng, t, kernel, d_max: int) -> tuple[dict, dict]:
    """A level k and a composition of k, then one of n, each into at most
    d_max parts: F_k against the level product, and |kernel(t)| against
    ``permanent_bound_composition``."""
    n = len(t)
    k = int(rng.integers(1, n + 1))
    parts = _composition(rng, k, int(rng.integers(1, d_max + 1)))
    n_parts = _composition(rng, n, int(rng.integers(1, d_max + 1)))
    levels = bounds.Levels(t)
    pairs = {
        "F_level": (
            levels.value(bounds.F_level, k), bounds.composition_bound_F(levels, k, parts)
        ),
        "permanent": (abs(kernel(t)), bounds.permanent_bound_composition(levels, n_parts)),
    }
    return {"k": k, "parts": parts, "n_parts": n_parts}, pairs


def _hafnian_pairs(rng, t, kernel) -> tuple[dict, dict]:
    """A level k >= 2 split into d >= 2 positive parts: G_k against the level
    product; where the order l divides n, also a composition of m = n / l
    into at most three parts: |kernel(t)| against ``hafnian_bound``."""
    n, order = len(t), t.ndim
    k = int(rng.integers(2, n // order + 1))
    d = int(rng.integers(2, k + 1))
    parts = [v + 1 for v in _composition(rng, k - d, d)]
    levels = bounds.Levels(t)
    drawn = {"k": k, "parts": parts}
    pairs = {
        "G_level": (levels.value(bounds.G_level, k), levels.product(bounds.G_level, parts))
    }
    if n % order == 0:
        m = n // order
        drawn["m_parts"] = _composition(rng, m, int(rng.integers(1, min(3, m) + 1)))
        pairs["hafnian"] = (abs(kernel(t)), bounds.hafnian_bound(levels, drawn["m_parts"]))
    return drawn, pairs


def suite_dominance(seed: int, trials: int) -> SuiteResult:
    """Bound dominance plus refinement monotonicity."""
    rec = _Recorder()
    per_family = max(1, trials // 6)

    # (key, family, input, order, n range, bound family, kernel, its limit)
    for key, family, tensor, order, n_min, n_max, draw, kernel, *limit in (
        (10, "partition_dominance", _ctensor, 2, 3, 6, _partition_pairs, permanent, 4),
        (12, "tensor_partition_dominance", _ctensor, 3, 3, 4, _partition_pairs,
         multidim_permanent, 3),
        (11, "composition_dominance", _ctensor, 2, 3, 5, _composition_pairs, permanent, 3),
        (13, "tensor_composition_dominance", _ctensor, 3, 3, 3, _composition_pairs,
         multidim_permanent, 2),
        (14, "subhafnian_dominance", _sym_tensor, 2, 4, 7, _hafnian_pairs, hafnian),
        (15, "tensor_subhafnian_dominance", _sym_tensor, 3, 6, 6, _hafnian_pairs,
         hyperhafnian),
    ):
        rng = _rng(seed, key)
        for i in range(per_family):
            n = int(rng.integers(n_min, n_max + 1))
            t = tensor(rng, n, order)
            drawn, pairs = draw(rng, t, kernel, *limit)
            if draw is _partition_pairs and order == 2:  # f_tilde: matrices only
                pairs["f_tilde"] = (pairs["f_set"][0], bounds.f_tilde(t, drawn["cols"]))
            rec.judge(family, i, {"n": n, "t": t, **drawn}, (_slack_ok, pairs))

    pairs = max(200, trials // 5)
    rng = _rng(seed, 16)
    for i in range(pairs):
        if i % 2 == 0:
            n = int(rng.integers(4, 7))
            z = _ctensor(rng, n, 2)
            k = int(rng.integers(2, min(4, n) + 1))
            cols = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
            d = int(rng.integers(1, k))
            w = list(_composition(rng, k - d, d))
            w = [v + 1 for v in w]  # d < k positive parts: the largest splits
            coarse = _partition_of(rng, cols, tuple(w))
            big = max(range(len(coarse)), key=lambda r: len(coarse[r]))
            cut = int(rng.integers(1, len(coarse[big])))
            fine = (
                coarse[:big]
                + (coarse[big][:cut], coarse[big][cut:])
                + coarse[big + 1 :]
            )
            levels = bounds.Levels(z)
            refined = tuple(bounds.partition_bound_f(levels, cols, b) for b in (coarse, fine))
            rec.judge("partition_refinement", i, {
                "n": n, "cols": cols, "coarse": coarse, "fine": fine, "z": z,
            }, (_slack_ok, {"refinement": refined}))
        else:
            n = int(rng.integers(3, 6))
            z = _ctensor(rng, n, 2)
            k = int(rng.integers(2, n + 1))
            d = int(rng.integers(1, k))
            w = [v + 1 for v in _composition(rng, k - d, d)]
            big = max(range(len(w)), key=lambda r: w[r])
            cut = int(rng.integers(1, w[big]))
            fine = w[:big] + [cut, w[big] - cut] + w[big + 1 :]
            levels = bounds.Levels(z)
            refined = (
                bounds.composition_bound_F(levels, k, w),
                bounds.composition_bound_F(levels, k, fine),
            )
            rec.judge("composition_refinement", i, {
                "n": n, "k": k, "coarse": w, "fine": fine, "z": z,
            }, (_slack_ok, {"refinement": refined}))

    # minor sums; a full-size draw (k = m = n, or 2k = n) meets its bound
    # with equality
    per_sum = max(1, trials // 20)
    rng = _rng(seed, 17)
    for i in range(per_sum):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, n + 1))
        k = int(rng.integers(1, m + 1))
        z = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        pairs = {"phi": (abs(bounds.minor_sum_phi(z, k)), bounds.phi_bound(z, k))}
        rec.judge("minor_sum_dominance", i, {"n": n, "m": m, "k": k, "z": z},
                  (_slack_ok, pairs))

    rng = _rng(seed, 18)
    for i in range(per_sum):
        n = int(rng.integers(2, 9))
        z = _sym_tensor(rng, n, 2)
        k = int(rng.integers(1, n // 2 + 1))
        psi = abs(bounds.subhafnian_sum_psi(z, k))
        level, entry = bounds.psi_bounds(z, k)
        pairs = {"psi_level": (psi, level), "psi_entry": (psi, entry)}
        rec.judge("subhafnian_sum_dominance", i, {"n": n, "k": k, "z": z}, (_slack_ok, pairs))

    return SuiteResult("dominance", seed, trials, rec.checks, rec.failures)


# ---------------------------------------------------------------------------


def suite_equality(seed: int, trials: int) -> SuiteResult:
    """Constructed instances that achieve the bounds exactly."""
    rec = _Recorder()

    rng = _rng(seed, 20)
    for i in range(trials):
        n = int(rng.integers(3, 7))
        c = complex(rng.standard_normal(), rng.standard_normal())
        drawn, pairs = _composition_pairs(rng, np.full((n, n), c), permanent, 3)
        rec.judge("constant_matrix_composition", i, {"n": n, "c": c, **drawn}, (_equal, pairs))

    rng = _rng(seed, 21)
    for i in range(trials):
        n = int(rng.integers(3, 7))
        cvals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        drawn, pairs = _partition_pairs(rng, np.tile(cvals, (n, 1)), permanent, n)
        rec.judge("constant_columns_partition", i, {
            "n": n, "column_values": cvals, **drawn,
        }, (_equal, pairs))

    rng = _rng(seed, 22)
    for i in range(trials):
        n = int(rng.integers(3, 6))
        z = _ctensor(rng, n, 2)
        k = int(rng.integers(1, n + 1))
        cols = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
        dead = int(rng.choice(cols))
        z[:, dead] = 0.0
        blocks = _random_column_blocks(rng, cols)
        levels = bounds.Levels(z)
        lhs, rhs = bounds.f_set(levels, cols), bounds.partition_bound_f(levels, cols, blocks)
        ok = lhs <= 1e-15 and rhs <= 1e-15
        rec.record(ok, "zero_column_partition", i, {
            "n": n, "cols": cols, "dead_column": dead, "blocks": blocks,
            "z": z, "f": lhs, "product": rhs,
        })

    for key, family, order, sizes, kernel in (
        (23, "constant_offdiagonal_hafnian", 2, [4, 6, 8], hafnian),
        (24, "constant_offdiagonal_tensor_hafnian", 3, [6], hyperhafnian),
    ):
        rng = _rng(seed, key)
        for i in range(trials):
            n = int(rng.choice(sizes))
            m = n // order
            y = complex(rng.standard_normal(), rng.standard_normal())
            t = _sym_tensor(rng, n, order)  # no value reads a repeated-index entry
            for idx in itertools.permutations(range(n), order):
                t[idx] = y
            exact = kernel(t)
            drawn, pairs = _hafnian_pairs(rng, t, lambda _: exact)
            scale = math.factorial(n) / (math.factorial(m) * math.factorial(order) ** m)
            pairs["closed_form"] = (exact, scale * y**m)
            rec.judge(family, i, {"n": n, "y": y, "t": t, **drawn}, (_equal, pairs))

    return SuiteResult("equality", seed, trials, rec.checks, rec.failures)


# ---------------------------------------------------------------------------


def suite_convolution(seed: int, trials: int) -> SuiteResult:
    """Subset-convolution inequality sweep with the equality biconditional."""
    rec = _Recorder()
    rng, eq_rng = _rng(seed, 30), _rng(seed, 31)
    case = 0
    for n in range(1, 6):
        for k in range(0, n + 1):
            for j in range(0, k + 1):
                cg, ch = math.comb(n, j), math.comb(n, k - j)
                g = SetFunction(n, j, rng.random((trials, cg)))
                h = SetFunction(n, k - j, rng.random((trials, ch)))
                check = verify_convolution_inequality(g, h)
                flags = equality_conditions(g, h)
                ok = check.holds & (check.equal == flags.any(axis=-1))
                rec.record_rows(ok, "random_convolution", case * trials, lambda i: {
                    "n": n, "j": j, "k": k, "g": g.table[i], "h": h.table[i],
                    "lhs": check.lhs[i], "rhs": check.rhs[i],
                    "holds": check.holds[i], "equal": check.equal[i],
                    "conditions": [c for c, hit in zip(EQUALITY_CONDITIONS, flags[i]) if hit],
                })
                constructed = [
                    ("g_zero", np.zeros(cg), eq_rng.random(ch)),
                    ("h_zero", eq_rng.random(cg), np.zeros(ch)),
                    ("both_constant", np.full(cg, eq_rng.random() + 0.5),
                     np.full(ch, eq_rng.random() + 0.5)),
                ]
                if k == n:
                    hvals = eq_rng.random(ch)
                    # g(I) = x * h(complement of I): complements in reverse order
                    constructed.append(
                        ("complement_proportional", (eq_rng.random() + 0.5) * hvals[::-1], hvals)
                    )
                for label, gvals, hvals in constructed:
                    g, h = SetFunction(n, j, gvals), SetFunction(n, k - j, hvals)
                    check = verify_convolution_inequality(g, h)
                    conditions = classify_equality(g, h)
                    ok = check.holds and check.equal and bool(conditions)
                    rec.record(ok, f"constructed_{label}", case, {
                        "n": n, "j": j, "k": k, "g": gvals, "h": hvals, "lhs": check.lhs,
                        "rhs": check.rhs, "equal": check.equal, "conditions": list(conditions),
                    })
                case += 1
    return SuiteResult("convolution", seed, trials, rec.checks, rec.failures)


# ---------------------------------------------------------------------------


def suite_master(seed: int, trials: int) -> SuiteResult:
    """Block-product mean-square inequality and its reproductions."""
    rec = _Recorder()

    rng = _rng(seed, 40)
    for i in range(trials):
        ell = int(rng.integers(1, 3))
        d = int(rng.integers(1, 4))
        sizes = tuple(int(rng.integers(2, 5)) for _ in range(ell))
        weights = []
        for n in sizes:
            k = int(rng.integers(0, n + 1))
            weights.append(_composition(rng, k, d))
        factors = []
        for r in range(d):
            levels = tuple(weights[s][r] for s in range(ell))
            shape = tuple(math.comb(n, j) for n, j in zip(sizes, levels))
            table = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            factors.append(SetFunction(sizes, levels, table))
        check = verify_master_inequality(factors)
        rec.record(check.holds, "random_master", i, {
            "sizes": sizes, "weights": weights,
            "lhs": check.lhs, "rhs": check.rhs,
        })
        lev_g = tuple(int(rng.integers(0, n + 1)) for n in sizes)
        lev_h = tuple(int(rng.integers(0, n - a + 1)) for n, a in zip(sizes, lev_g))
        multi = verify_convolution_inequality(*(
            SetFunction(sizes, lev, rng.random(tuple(map(math.comb, sizes, lev))))
            for lev in (lev_g, lev_h)
        ))
        rec.record(multi.holds, "multi_axis_convolution", i, {
            "sizes": sizes, "g_levels": lev_g, "h_levels": lev_h,
            "lhs": multi.lhs, "rhs": multi.rhs,
        })

    rng = _rng(seed, 41)
    for i in range(trials):
        n = int(rng.integers(2, 6))
        z = _ctensor(rng, n, 2)
        d = int(rng.integers(1, min(3, n) + 1))
        w = _composition(rng, n, d)
        blocks = _partition_of(rng, range(n), w)
        factors = [SetFunction(n, len(wr), _block_table(z, wr)) for wr in blocks]
        r_value = generalized_R(factors, tuple(range(n)))
        direct = permanent(z)
        counts = multinomial(w)
        product_bound = counts * math.prod(math.sqrt(f.mean_square()) for f in factors)
        ones = [
            SetFunction(n, len(wr), np.ones(math.comb(n, len(wr))))
            for wr in blocks
        ]
        r_ones = generalized_R(ones, tuple(range(n)))
        rec.judge(
            "permanent_reproduction", i, {"n": n, "sizes": w, "blocks": blocks, "z": z},
            (_close, {"R": (r_value, direct), "constant_R": (r_ones, counts)}),
            (_slack_ok, {"product_bound": (abs(r_value), product_bound)}),
        )

    rng = _rng(seed, 42)
    for i in range(max(1, trials // 2)):
        k = int(rng.integers(2, 4))
        t = _ctensor(rng, k, 3)
        d = int(rng.integers(1, 3))
        w = _composition(rng, k, d)
        blocks = _partition_of(rng, range(k), w)
        pairs = {"R": (multidim_permanent_via_laplace(t, w, blocks), multidim_permanent(t))}
        rec.judge("tensor_reproduction", i, {
            "k": k, "sizes": w, "blocks": blocks, "t": t,
        }, (_close, pairs))

    return SuiteResult("master", seed, trials, rec.checks, rec.failures)


# ---------------------------------------------------------------------------

def _random_distribution(rng: np.random.Generator) -> charfn.Distribution:
    families = tuple(charfn._PARAM_NAMES)
    family = families[int(rng.integers(0, len(families)))]
    if family == "point_mass":
        return charfn.point_mass(float(rng.standard_normal()))
    if family == "bernoulli":
        return charfn.bernoulli(float(rng.random()))
    if family == "uniform":
        a = float(rng.standard_normal())
        return charfn.uniform(a, a + 0.5 + float(rng.random()))
    return charfn.normal(float(rng.standard_normal()), 0.1 + float(rng.random()))


def _random_model(rng: np.random.Generator, n: int) -> charfn.DiagonalSumModel:
    return charfn.DiagonalSumModel(
        [[_random_distribution(rng) for _ in range(n)] for _ in range(n)]
    )


def suite_charfn(seed: int, trials: int) -> SuiteResult:
    """Characteristic-function bounds and the Monte Carlo estimator."""
    rec = _Recorder()

    rng = _rng(seed, 50)
    for i in range(trials):
        n = int(rng.integers(2, 7))
        model = _random_model(rng, n)
        ts = np.concatenate([[0.0], rng.uniform(-4.0, 4.0, 20)])
        perm = tuple(int(v) for v in rng.permutation(n))
        detail: dict = {"n": n, "model": model.to_json(), "violations": []}
        for t in ts:
            value = abs(charfn.exact_charfn(model, float(t)))
            levels = bounds.Levels(model.charfn_matrix(float(t)))
            # the averaged bound first: both pairings then read its levels
            avg = bounds.avg_pair_bound(levels)
            pair = bounds.pair_bound(levels)
            pair_s = bounds.pair_bound(levels, perm)
            dominated = all(
                value <= b + 1e-10 + SLACK_RTOL * b for b in (pair, pair_s, avg)
            )
            in_range = all(
                -SLACK_RTOL <= b <= 1.0 + SLACK_RTOL for b in (pair, pair_s, avg)
            )
            good = dominated and in_range
            if t == 0.0:
                good = good and abs(value - 1.0) <= 1e-12
            if not good:
                detail["violations"].append(
                    {"t": float(t), "exact": value, "pair": pair,
                     "pair_permuted": pair_s, "avg": avg}
                )
        rec.record(not detail["violations"], "charfn_dominance", i, detail)

    rng = _rng(seed, 51)
    for i in range(3):
        n = int(rng.integers(2, 6))
        x = rng.standard_normal((n, n))
        model = charfn.DiagonalSumModel(
            [[charfn.point_mass(float(x[j, r])) for r in range(n)] for j in range(n)]
        )
        t = float(rng.uniform(0.2, 3.0))
        phi = bounds.Levels(model.charfn_matrix(t))
        phases = bounds.Levels(np.exp(1j * t * x))
        avg_a, avg_b = bounds.avg_pair_bound(phi), bounds.avg_pair_bound(phases)
        pair_a, pair_b = bounds.pair_bound(phi), bounds.pair_bound(phases)
        # unit moduli make the odd-n correction factors exactly 1
        ok = _rel_err(pair_a, pair_b) <= REL_TOL and _rel_err(avg_a, avg_b) <= REL_TOL
        rec.record(ok, "point_mass_consistency", i, {
            "n": n, "t": t, "x": x, "pair_model": pair_a, "pair_phases": pair_b,
            "avg_model": avg_a, "avg_phases": avg_b,
        })

    rng = _rng(seed, 52)
    for i in range(2):
        n = int(rng.integers(3, 5))
        model = _random_model(rng, n)
        t = float(rng.uniform(0.3, 2.0))
        exact = charfn.exact_charfn(model, t)
        mc = charfn.monte_carlo_charfn(model, t, trials=100_000, seed=seed + i)
        ok = (
            abs(mc.estimate.real - exact.real) <= 4.0 * mc.stderr_re + 1e-12
            and abs(mc.estimate.imag - exact.imag) <= 4.0 * mc.stderr_im + 1e-12
        )
        rec.record(ok, "monte_carlo", i, {
            "n": n, "t": t, "model": model.to_json(), "exact": exact,
            "estimate": mc.estimate, "stderr_re": mc.stderr_re,
            "stderr_im": mc.stderr_im, "trials": mc.trials, "seed": mc.seed,
        })

    return SuiteResult("charfn", seed, trials, rec.checks, rec.failures)


# ---------------------------------------------------------------------------

SUITES = {
    "laplace": (suite_laplace, 100),
    "dominance": (suite_dominance, 1080),
    "equality": (suite_equality, 50),
    "convolution": (suite_convolution, 200),
    "master": (suite_master, 100),
    "charfn": (suite_charfn, 10),
}


def run_suite(name: str, seed: int = 0, trials: int | None = None) -> SuiteResult:
    """Run one named suite with its default trial count unless overridden."""
    if name not in SUITES:
        raise DomainError(
            f"unknown suite {name!r}; choose from {sorted(SUITES)}"
        )
    fn, default_trials = SUITES[name]
    if trials is None:
        trials = default_trials
    if trials < 1:
        raise DomainError(f"trials must be at least 1, got {trials}")
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    start = time.perf_counter()
    out = fn(seed=seed, trials=trials)
    out.elapsed = time.perf_counter() - start
    return out
