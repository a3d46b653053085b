"""Randomized verification suites.

Each suite checks an identity or inequality on random instances and returns
a :class:`SuiteResult` whose failures carry the serialized offending instance
for replay. Each family of checks draws its trials in order from one
generator keyed by the seed and the family, so fewer trials check a prefix;
the convolution sweep draws each (n, k, j) case's trials as one batch. A check
that holds at every tensor order (the bound families, the permanent and
hafnian expansions, the permanent reproduction) runs one body over its
families' rows.

Every check of a value against a bound or a reference names its (value,
bound) pairs, and one comparator judges each set of them: ``value <= bound``
within SLACK_RTOL for dominance, agreement within EQ_RTOL for equality and
within REL_TOL for the expansions. A failure carries each pair as [value,
bound]. Only the convolution sweep and the verdicts of :mod:`convolution`
record a flag. Dominance and equality share one body per bound family
(partition, composition, hafnian): it draws everything after the input, so
the two suites differ only in the input and the comparator. Suites:

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
import operator
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


def _random_column_blocks(rng, cols, d_max: int | None = None):
    """An ordered partition of cols into d blocks, some possibly empty, for
    d drawn in [1, min(d_max, |cols|)]."""
    k = len(cols)
    d = int(rng.integers(1, (k if d_max is None else min(d_max, k)) + 1))
    w = _composition(rng, k, d)
    return _partition_of(rng, cols, w)


def _rel_err(a: complex, b: complex) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-12)


def _slack_ok(lhs: float, rhs: float) -> bool:
    return rhs - lhs >= -SLACK_RTOL * abs(rhs)


def _equal(a: complex, b: complex) -> bool:
    return _rel_err(a, b) <= EQ_RTOL


def _close(a: complex, b: complex) -> bool:
    return _rel_err(a, b) <= REL_TOL


def _charfn_dominated(value: float, bound: float) -> bool:
    return value <= bound + 1e-10 + SLACK_RTOL * bound


# ---------------------------------------------------------------------------


def suite_laplace(seed: int, trials: int) -> SuiteResult:
    """Expansion identities against the exact kernels."""
    rec = _Recorder()
    # a permanent along an ordered partition of its last axis: fixed, and
    # averaged over the partitions of the same block sizes
    for key, family, order, n_max, kernel in (
        (0, "permanent_expansion", 2, 7, permanent),
        (1, "tensor_permanent_expansion", 3, 4, multidim_permanent),
    ):
        rng = _rng(seed, key)
        for i in range(trials):
            n = int(rng.integers(2, n_max + 1))
            t = _ctensor(rng, n, order)
            blocks = _random_column_blocks(rng, range(n), 3)
            w = tuple(map(len, blocks))
            direct = kernel(t)
            pairs = {
                "fixed": (multidim_permanent_via_laplace(t, w, blocks), direct),
                "symmetrized": (multidim_permanent_via_laplace(t, w), direct),
            }
            rec.judge(family, i, {"n": n, "sizes": w, "blocks": blocks, "t": t}, (_close, pairs))
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
        pairs = {
            "f_set": (bounds.f_set(levels, cols), 1e-15),
            "product": (bounds.partition_bound_f(levels, cols, blocks), 1e-15),
        }
        rec.judge("zero_column_partition", i, {
            "n": n, "cols": cols, "dead_column": dead, "blocks": blocks, "z": z,
        }, (operator.le, pairs))

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

    # R over the block permanents of an ordered partition of the last axis
    # reproduces the permanent, over all-ones blocks it counts the terms
    for key, family, order, n_max, d_max, count, kernel in (
        (41, "permanent_reproduction", 2, 5, 3, trials, permanent),
        (42, "tensor_reproduction", 3, 3, 2, max(1, trials // 2), multidim_permanent),
    ):
        rng = _rng(seed, key)
        ell = order - 1
        for i in range(count):
            n = int(rng.integers(2, n_max + 1))
            t = _ctensor(rng, n, order)
            blocks = _random_column_blocks(rng, range(n), d_max)
            w = tuple(map(len, blocks))
            factors = [SetFunction((n,) * ell, (len(b),) * ell, _block_table(t, b))
                       for b in blocks]
            ones = [SetFunction(f.sizes, f.levels, np.ones(f.table.shape)) for f in factors]
            full = (range(n),) * ell
            r_value = generalized_R(factors, full)
            counts = multinomial(w) ** ell
            product_bound = counts * math.prod(math.sqrt(f.mean_square()) for f in factors)
            rec.judge(
                family, i, {"n": n, "sizes": w, "blocks": blocks, "t": t},
                (_close, {"R": (r_value, kernel(t)),
                          "constant_R": (generalized_R(ones, full), counts)}),
                (_slack_ok, {"product_bound": (abs(r_value), product_bound)}),
            )

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
        dominated, ceilings, floors, unit = {}, {}, {}, {}
        for j, t in enumerate(ts):
            value = abs(charfn.exact_charfn(model, float(t)))
            levels = bounds.Levels(model.charfn_matrix(float(t)))
            # the averaged bound first: both pairings then read its levels
            named = {
                "avg": bounds.avg_pair_bound(levels),
                "pair": bounds.pair_bound(levels),
                "pair_permuted": bounds.pair_bound(levels, perm),
            }
            for name, b in named.items():
                dominated[f"{name}_t{j}"] = (value, b)
                ceilings[f"{name}_t{j}_le_1"] = (b, 1.0)
                floors[f"{name}_t{j}_ge_0"] = (-SLACK_RTOL, b)
            if t == 0.0:
                unit[f"unit_t{j}"] = (abs(value - 1.0), 1e-12)
        rec.judge(
            "charfn_dominance", i,
            {"n": n, "model": model.to_json(), "ts": ts, "perm": perm},
            (_charfn_dominated, dominated), (_slack_ok, ceilings),
            (operator.le, floors), (operator.le, unit),
        )

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
        # unit moduli make the odd-n correction factors exactly 1
        pairs = {
            "avg": (bounds.avg_pair_bound(phi), bounds.avg_pair_bound(phases)),
            "pair": (bounds.pair_bound(phi), bounds.pair_bound(phases)),
        }
        rec.judge("point_mass_consistency", i, {"n": n, "t": t, "x": x}, (_close, pairs))

    rng = _rng(seed, 52)
    for i in range(2):
        n = int(rng.integers(3, 5))
        model = _random_model(rng, n)
        t = float(rng.uniform(0.3, 2.0))
        exact = charfn.exact_charfn(model, t)
        mc = charfn.monte_carlo_charfn(model, t, trials=100_000, seed=seed + i)
        pairs = {
            "real": (abs(mc.estimate.real - exact.real), 4.0 * mc.stderr_re + 1e-12),
            "imag": (abs(mc.estimate.imag - exact.imag), 4.0 * mc.stderr_im + 1e-12),
        }
        rec.judge("monte_carlo", i, {
            "n": n, "t": t, "model": model.to_json(), "exact": exact,
            "estimate": mc.estimate, "stderr_re": mc.stderr_re,
            "stderr_im": mc.stderr_im, "trials": mc.trials, "seed": mc.seed,
        }, (operator.le, pairs))

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
