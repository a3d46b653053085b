"""Randomized verification suites.

Each suite draws reproducible random instances from seeds derived from one
base seed (per instance; the convolution suite draws one generator per
(n, k, j) case and checks its trials as one stacked batch), checks an
identity or inequality, and returns a :class:`SuiteResult` whose failures
carry the serialized offending instance for replay. Suites:

* laplace: block expansions reproduce the exact kernels,
* dominance: subset-average products dominate exact normalized values, and
  refining a partition or composition never improves the bound,
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
    verify_multi_inequality,
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

REL_TOL = 1e-10
SLACK_RTOL = 1e-12
EQ_RTOL = 1e-12


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
    """Collects check counts and serialized failures (capped)."""

    def __init__(self, cap: int = 25):
        self.checks = 0
        self.failures: list[dict] = []
        self.cap = cap

    def record(self, ok: bool, family: str, index: int, detail: dict) -> None:
        self.record_rows([ok], family, index, lambda _: detail)

    def record_rows(self, ok, family: str, first: int, detail) -> None:
        """Count one check per entry of the boolean sequence ``ok``, entry i
        having index first + i; ``detail(i)`` serializes a failing entry."""
        self.checks += len(ok)
        failing = (i for i, good in enumerate(ok) if not good)
        for i in itertools.islice(failing, max(self.cap - len(self.failures), 0)):
            self.failures.append(
                {"family": family, "index": first + i, **_jsonable(detail(i))}
            )


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            return [_jsonable(v) for v in value.tolist()]
        return value.tolist()
    if isinstance(value, (complex, np.complexfloating)):
        return {"re": float(value.real), "im": float(value.imag)}
    if isinstance(value, np.generic):
        return value.item()
    return value


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def _cmatrix(rng: np.random.Generator, n: int, m: int | None = None) -> np.ndarray:
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def _sym_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    a = _cmatrix(rng, n)
    return a + a.T


def _sym_tensor3(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
    out = np.zeros_like(a)
    for axes in itertools.permutations(range(3)):
        out += a.transpose(axes)
    return out / 6.0


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


# ---------------------------------------------------------------------------


def suite_laplace(seed: int = 0, trials: int = 100) -> SuiteResult:
    """Expansion identities against the exact kernels."""
    rec = _Recorder()
    for i in range(trials):
        rng = _rng(seed, 0, i)
        n = int(rng.integers(2, 8))
        z = _cmatrix(rng, n)
        d = int(rng.integers(1, min(3, n) + 1))
        w = _composition(rng, n, d)
        blocks = _partition_of(rng, range(n), w)
        direct = permanent(z)
        via = permanent_via_laplace(z, blocks)
        rec.record(
            _rel_err(direct, via) <= REL_TOL,
            "permanent_expansion",
            i,
            {"n": n, "blocks": blocks, "z": z, "direct": direct, "via": via},
        )
    for i in range(trials):
        rng = _rng(seed, 1, i)
        k = int(rng.integers(2, 5))
        t = rng.standard_normal((k, k, k)) + 1j * rng.standard_normal((k, k, k))
        d = int(rng.integers(1, min(3, k) + 1))
        w = _composition(rng, k, d)
        blocks = _partition_of(rng, range(k), w)
        direct = multidim_permanent(t)
        fixed = multidim_permanent_via_laplace(t, w, blocks)
        sym = multidim_permanent_via_laplace(t, w, symmetrized=True)
        ok = _rel_err(direct, fixed) <= REL_TOL and _rel_err(direct, sym) <= REL_TOL
        rec.record(
            ok,
            "tensor_permanent_expansion",
            i,
            {"k": k, "sizes": w, "blocks": blocks, "t": t, "direct": direct,
             "fixed": fixed, "symmetrized": sym},
        )
    for i in range(trials):
        rng = _rng(seed, 2, i)
        n = int(rng.choice([4, 6, 8]))
        z = _sym_matrix(rng, n)
        m = n // 2
        if i % 3 == 0 and m >= 2:
            w: tuple[int, ...] = (1, m - 1)
        else:
            d = int(rng.integers(1, min(3, m) + 1))
            w = _composition(rng, m, d)
        direct = hafnian(z)
        via = hyperhafnian_via_expansion(z, w)
        rec.record(
            _rel_err(direct, via) <= REL_TOL,
            "hafnian_expansion",
            i,
            {"n": n, "sizes": w, "z": z, "direct": direct, "via": via},
        )
    for i in range(trials):
        rng = _rng(seed, 3, i)
        t = _sym_tensor3(rng, 6)
        w = (1, 1) if i % 2 else (2,)
        direct = hyperhafnian(t)
        via = hyperhafnian_via_expansion(t, w)
        rec.record(
            _rel_err(direct, via) <= REL_TOL,
            "tensor_hafnian_expansion",
            i,
            {"n": 6, "sizes": w, "t": t, "direct": direct, "via": via},
        )
    return SuiteResult("laplace", seed, trials, rec.checks, rec.failures)


# ---------------------------------------------------------------------------


def _random_column_blocks(rng, cols, max_parts=None):
    k = len(cols)
    top = k if max_parts is None else min(max_parts, k)
    d = int(rng.integers(1, top + 1))
    w = _composition(rng, k, d)
    return _partition_of(rng, cols, w)


def suite_dominance(seed: int = 0, trials: int = 1080) -> SuiteResult:
    """Bound dominance plus refinement monotonicity."""
    rec = _Recorder()
    per_family = max(1, trials // 6)

    for i in range(per_family):
        rng = _rng(seed, 10, i)
        n = int(rng.integers(3, 7))
        z = _cmatrix(rng, n)
        k = int(rng.integers(1, min(4, n) + 1))
        cols = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
        blocks = _random_column_blocks(rng, cols)
        lhs = bounds.f_set(z, cols)
        rhs = bounds.partition_bound_f(z, cols, blocks)
        relaxed = bounds.f_tilde(z, cols)
        full_blocks = _random_column_blocks(rng, range(n))
        norm_per = abs(permanent(z)) / math.factorial(n)
        bound_full = bounds.permanent_bound_partition(z, full_blocks) / math.factorial(n)
        ok = (
            _slack_ok(lhs, rhs)
            and _slack_ok(lhs, relaxed)
            and _slack_ok(norm_per, bound_full)
        )
        rec.record(ok, "partition_dominance", i, {
            "n": n, "cols": cols, "blocks": blocks, "z": z,
            "f": lhs, "product": rhs, "relaxed": relaxed,
            "normalized_permanent": norm_per, "full_bound": bound_full,
        })

    for i in range(per_family):
        rng = _rng(seed, 11, i)
        n = int(rng.integers(3, 6))
        z = _cmatrix(rng, n)
        k = int(rng.integers(1, n + 1))
        d = int(rng.integers(1, 4))
        w = _composition(rng, k, d)
        lhs = bounds.F_level(z, k)
        rhs = bounds.composition_bound_F(z, k, w)
        wn = _composition(rng, n, int(rng.integers(1, 4)))
        norm_per = abs(permanent(z)) / math.factorial(n)
        bound_full = bounds.permanent_bound_composition(z, wn) / math.factorial(n)
        ok = _slack_ok(lhs, rhs) and _slack_ok(norm_per, bound_full)
        rec.record(ok, "composition_dominance", i, {
            "n": n, "k": k, "parts": w, "z": z, "F": lhs, "product": rhs,
            "normalized_permanent": norm_per, "full_bound": bound_full,
        })

    for i in range(per_family):
        rng = _rng(seed, 12, i)
        n = int(rng.integers(3, 5))
        t = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
        k = int(rng.integers(1, min(3, n) + 1))
        cols = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
        blocks = _random_column_blocks(rng, cols)
        lhs = bounds.f_ell_set(t, cols)
        rhs = bounds.partition_bound_f_ell(t, cols, blocks)
        full_blocks = _random_column_blocks(rng, range(n))
        scale = float(math.factorial(n)) ** 2
        norm = abs(multidim_permanent(t)) / scale
        bound_full = bounds.multidim_permanent_bound(t, full_blocks) / scale
        ok = _slack_ok(lhs, rhs) and _slack_ok(norm, bound_full)
        rec.record(ok, "tensor_partition_dominance", i, {
            "n": n, "cols": cols, "blocks": blocks, "t": t,
            "f": lhs, "product": rhs, "normalized": norm, "full_bound": bound_full,
        })

    for i in range(per_family):
        rng = _rng(seed, 13, i)
        n = 3
        t = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
        k = int(rng.integers(1, n + 1))
        d = int(rng.integers(1, 3))
        w = _composition(rng, k, d)
        lhs = bounds.F_ell_level(t, k)
        rhs = bounds.composition_bound_F_ell(t, k, w)
        wn = _composition(rng, n, int(rng.integers(1, 3)))
        scale = float(math.factorial(n)) ** 2
        norm = abs(multidim_permanent(t)) / scale
        bound_full = bounds.multidim_permanent_bound(t, wn, by_level=True) / scale
        ok = _slack_ok(lhs, rhs) and _slack_ok(norm, bound_full)
        rec.record(ok, "tensor_composition_dominance", i, {
            "n": n, "k": k, "parts": w, "t": t, "F": lhs, "product": rhs,
            "normalized": norm, "full_bound": bound_full,
        })

    for i in range(per_family):
        rng = _rng(seed, 14, i)
        n = int(rng.integers(4, 8))
        z = _sym_matrix(rng, n)
        k = int(rng.integers(1, n // 2 + 1))
        d = int(rng.integers(1, k + 1))
        w = _composition(rng, k, d)
        lhs = bounds.G_level(z, k)
        rhs = 1.0
        for p in w:
            rhs *= bounds.G_level(z, p)
        ok = _slack_ok(lhs, rhs)
        detail = {"n": n, "k": k, "parts": w, "z": z, "G": lhs, "product": rhs}
        if n % 2 == 0:
            m = n // 2
            wm = _composition(rng, m, int(rng.integers(1, min(3, m) + 1)))
            scale = math.factorial(n) / (math.factorial(m) * 2**m)
            norm = abs(hafnian(z)) / scale
            bound_full = bounds.hafnian_bound(z, wm) / scale
            ok = ok and _slack_ok(norm, bound_full)
            detail.update(
                {"normalized_hafnian": norm, "full_bound": bound_full, "m_parts": wm}
            )
        rec.record(ok, "subhafnian_dominance", i, detail)

    for i in range(per_family):
        rng = _rng(seed, 15, i)
        t = _sym_tensor3(rng, 6)
        lhs = bounds.G_ell_level(t, 2)
        rhs = bounds.G_ell_level(t, 1) ** 2
        w = (1, 1) if i % 2 else (2,)
        scale = math.factorial(6) / (math.factorial(2) * math.factorial(3) ** 2)
        norm = abs(hyperhafnian(t)) / scale
        bound_full = bounds.hyperhafnian_bound(t, w) / scale
        ok = _slack_ok(lhs, rhs) and _slack_ok(norm, bound_full)
        rec.record(ok, "tensor_subhafnian_dominance", i, {
            "parts": w, "t": t, "G2": lhs, "G1_squared": rhs,
            "normalized": norm, "full_bound": bound_full,
        })

    pairs = max(200, trials // 5)
    for i in range(pairs):
        rng = _rng(seed, 16, i)
        if i % 2 == 0:
            n = int(rng.integers(4, 7))
            z = _cmatrix(rng, n)
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
            coarse_val = bounds.partition_bound_f(z, cols, coarse)
            fine_val = bounds.partition_bound_f(z, cols, fine)
            ok = _slack_ok(coarse_val, fine_val)
            rec.record(ok, "partition_refinement", i, {
                "n": n, "cols": cols, "coarse": coarse, "fine": fine, "z": z,
                "coarse_value": coarse_val, "fine_value": fine_val,
            })
        else:
            n = int(rng.integers(3, 6))
            z = _cmatrix(rng, n)
            k = int(rng.integers(2, n + 1))
            d = int(rng.integers(1, k))
            w = [v + 1 for v in _composition(rng, k - d, d)]
            big = max(range(len(w)), key=lambda r: w[r])
            cut = int(rng.integers(1, w[big]))
            fine = w[:big] + [cut, w[big] - cut] + w[big + 1 :]
            coarse_val = bounds.composition_bound_F(z, k, w)
            fine_val = bounds.composition_bound_F(z, k, fine)
            ok = _slack_ok(coarse_val, fine_val)
            rec.record(ok, "composition_refinement", i, {
                "n": n, "k": k, "coarse": w, "fine": fine, "z": z,
                "coarse_value": coarse_val, "fine_value": fine_val,
            })

    return SuiteResult("dominance", seed, trials, rec.checks, rec.failures)


# ---------------------------------------------------------------------------


def suite_equality(seed: int = 0, trials: int = 50) -> SuiteResult:
    """Constructed instances that achieve the bounds exactly."""
    rec = _Recorder()

    for i in range(trials):
        rng = _rng(seed, 20, i)
        n = int(rng.integers(3, 7))
        c = complex(rng.standard_normal(), rng.standard_normal())
        z = np.full((n, n), c)
        k = int(rng.integers(1, n + 1))
        w = _composition(rng, k, int(rng.integers(1, 4)))
        lhs = bounds.F_level(z, k)
        rhs = bounds.composition_bound_F(z, k, w)
        wn = _composition(rng, n, int(rng.integers(1, 4)))
        bound_full = bounds.permanent_bound_composition(z, wn)
        exact = abs(permanent(z))
        ok = (
            _rel_err(lhs, rhs) <= EQ_RTOL
            and _rel_err(bound_full, exact) <= EQ_RTOL
        )
        rec.record(ok, "constant_matrix_composition", i, {
            "n": n, "k": k, "parts": w, "c": c, "F": lhs, "product": rhs,
            "bound": bound_full, "exact": exact,
        })

    for i in range(trials):
        rng = _rng(seed, 21, i)
        n = int(rng.integers(3, 7))
        cvals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        z = np.tile(cvals, (n, 1))
        k = int(rng.integers(1, n + 1))
        cols = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
        blocks = _random_column_blocks(rng, cols)
        lhs = bounds.f_set(z, cols)
        rhs = bounds.partition_bound_f(z, cols, blocks)
        full_blocks = _random_column_blocks(rng, range(n))
        bound_full = bounds.permanent_bound_partition(z, full_blocks)
        exact = abs(permanent(z))
        ok = (
            _rel_err(lhs, rhs) <= EQ_RTOL
            and _rel_err(bound_full, exact) <= EQ_RTOL
        )
        rec.record(ok, "constant_columns_partition", i, {
            "n": n, "cols": cols, "blocks": blocks, "column_values": cvals,
            "f": lhs, "product": rhs, "bound": bound_full, "exact": exact,
        })

    for i in range(trials):
        rng = _rng(seed, 22, i)
        n = int(rng.integers(3, 6))
        z = _cmatrix(rng, n)
        k = int(rng.integers(1, n + 1))
        cols = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
        dead = int(rng.choice(cols))
        z[:, dead] = 0.0
        blocks = _random_column_blocks(rng, cols)
        lhs = bounds.f_set(z, cols)
        rhs = bounds.partition_bound_f(z, cols, blocks)
        ok = lhs <= 1e-15 and rhs <= 1e-15
        rec.record(ok, "zero_column_partition", i, {
            "n": n, "cols": cols, "dead_column": dead, "blocks": blocks,
            "z": z, "f": lhs, "product": rhs,
        })

    for i in range(trials):
        rng = _rng(seed, 23, i)
        n = int(rng.choice([4, 6, 8]))
        m = n // 2
        y = complex(rng.standard_normal(), rng.standard_normal())
        z = np.full((n, n), y, dtype=complex)
        np.fill_diagonal(z, rng.standard_normal(n))
        k = int(rng.integers(1, m + 1))
        w = _composition(rng, k, int(rng.integers(1, k + 1)))
        lhs = bounds.G_level(z, k)
        rhs = 1.0
        for p in w:
            rhs *= bounds.G_level(z, p)
        wm = _composition(rng, m, int(rng.integers(1, min(3, m) + 1)))
        bound_full = bounds.hafnian_bound(z, wm)
        exact = hafnian(z)
        closed = (
            math.factorial(n) / (math.factorial(m) * 2**m) * y**m
        )
        ok = (
            _rel_err(lhs, rhs) <= EQ_RTOL
            and _rel_err(bound_full, abs(exact)) <= EQ_RTOL
            and _rel_err(exact, closed) <= EQ_RTOL
        )
        rec.record(ok, "constant_offdiagonal_hafnian", i, {
            "n": n, "k": k, "parts": w, "y": y, "G": lhs, "product": rhs,
            "bound": bound_full, "exact": exact, "closed_form": closed,
        })

    for i in range(trials):
        rng = _rng(seed, 24, i)
        n, ell = 6, 3
        m = n // ell
        y = complex(rng.standard_normal(), rng.standard_normal())
        t = np.zeros((n, n, n), dtype=complex)
        for idx in itertools.permutations(range(n), 3):
            t[idx] = y
        w = (1, 1) if i % 2 else (2,)
        lhs = bounds.G_ell_level(t, 2)
        rhs = bounds.G_ell_level(t, 1) ** 2
        bound_full = bounds.hyperhafnian_bound(t, w)
        exact = hyperhafnian(t)
        closed = (
            math.factorial(n)
            / (math.factorial(m) * math.factorial(ell) ** m)
            * y**m
        )
        ok = (
            _rel_err(lhs, rhs) <= EQ_RTOL
            and _rel_err(bound_full, abs(exact)) <= EQ_RTOL
            and _rel_err(exact, closed) <= EQ_RTOL
        )
        rec.record(ok, "constant_offdiagonal_tensor_hafnian", i, {
            "parts": w, "y": y, "G2": lhs, "G1_squared": rhs,
            "bound": bound_full, "exact": exact, "closed_form": closed,
        })

    return SuiteResult("equality", seed, trials, rec.checks, rec.failures)


# ---------------------------------------------------------------------------


def suite_convolution(seed: int = 0, trials: int = 200) -> SuiteResult:
    """Subset-convolution inequality sweep with the equality biconditional."""
    rec = _Recorder()
    case = 0
    for n in range(1, 6):
        for k in range(0, n + 1):
            for j in range(0, k + 1):
                cg, ch = math.comb(n, j), math.comb(n, k - j)
                rng = _rng(seed, 30, case)
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
                rng = _rng(seed, 31, case)
                constructed = [
                    ("g_zero", np.zeros(cg), rng.random(ch)),
                    ("h_zero", rng.random(cg), np.zeros(ch)),
                    ("both_constant", np.full(cg, rng.random() + 0.5),
                     np.full(ch, rng.random() + 0.5)),
                ]
                if k == n:
                    hvals = rng.random(ch)
                    # g(I) = x * h(complement of I): complements in reverse order
                    constructed.append(
                        ("complement_proportional", (rng.random() + 0.5) * hvals[::-1], hvals)
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


def suite_master(seed: int = 0, trials: int = 100) -> SuiteResult:
    """Block-product mean-square inequality and its reproductions."""
    rec = _Recorder()

    for i in range(trials):
        rng = _rng(seed, 40, i)
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
        multi = verify_multi_inequality(*(
            SetFunction(sizes, lev, rng.random(tuple(map(math.comb, sizes, lev))))
            for lev in (lev_g, lev_h)
        ))
        rec.record(multi.holds, "multi_axis_convolution", i, {
            "sizes": sizes, "g_levels": lev_g, "h_levels": lev_h,
            "lhs": multi.lhs, "rhs": multi.rhs,
        })

    for i in range(trials):
        rng = _rng(seed, 41, i)
        n = int(rng.integers(2, 6))
        z = _cmatrix(rng, n)
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
        ok = (
            _rel_err(r_value, direct) <= REL_TOL
            and abs(r_value) <= product_bound * (1.0 + SLACK_RTOL)
            and _rel_err(r_ones, counts) <= REL_TOL
        )
        rec.record(ok, "permanent_reproduction", i, {
            "n": n, "sizes": w, "blocks": blocks, "z": z,
            "R": r_value, "direct": direct, "product_bound": product_bound,
            "constant_R": r_ones, "partition_count": counts,
        })

    for i in range(max(1, trials // 2)):
        rng = _rng(seed, 42, i)
        k = int(rng.integers(2, 4))
        t = rng.standard_normal((k, k, k)) + 1j * rng.standard_normal((k, k, k))
        d = int(rng.integers(1, 3))
        w = _composition(rng, k, d)
        blocks = _partition_of(rng, range(k), w)
        factors = [
            SetFunction((k, k), (len(wr),) * 2, _block_table(t, wr)) for wr in blocks
        ]
        r_value = generalized_R(factors, (tuple(range(k)), tuple(range(k))))
        direct = multidim_permanent(t)
        rec.record(_rel_err(r_value, direct) <= REL_TOL, "tensor_reproduction", i, {
            "k": k, "sizes": w, "blocks": blocks, "t": t,
            "R": r_value, "direct": direct,
        })

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


def suite_charfn(seed: int = 0, trials: int = 10) -> SuiteResult:
    """Characteristic-function bounds and the Monte Carlo estimator."""
    rec = _Recorder()

    for i in range(trials):
        rng = _rng(seed, 50, i)
        n = int(rng.integers(2, 7))
        model = _random_model(rng, n)
        ts = np.concatenate([[0.0], rng.uniform(-4.0, 4.0, 20)])
        perm = tuple(int(v) for v in rng.permutation(n))
        ok = True
        detail: dict = {"n": n, "model": model.to_json(), "violations": []}
        for t in ts:
            value = abs(charfn.exact_charfn(model, float(t)))
            phi = model.charfn_matrix(float(t))
            pair = bounds.pair_bound(phi)
            pair_s = bounds.pair_bound(phi, perm)
            avg = bounds.avg_pair_bound(phi)
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
                ok = False
                detail["violations"].append(
                    {"t": float(t), "exact": value, "pair": pair,
                     "pair_permuted": pair_s, "avg": avg}
                )
        rec.record(ok, "charfn_dominance", i, detail)

    for i in range(3):
        rng = _rng(seed, 51, i)
        n = int(rng.integers(2, 6))
        x = rng.standard_normal((n, n))
        model = charfn.DiagonalSumModel(
            [[charfn.point_mass(float(x[j, r])) for r in range(n)] for j in range(n)]
        )
        t = float(rng.uniform(0.2, 3.0))
        phi, phases = model.charfn_matrix(t), np.exp(1j * t * x)
        pair_a, pair_b = bounds.pair_bound(phi), bounds.pair_bound(phases)
        avg_a, avg_b = bounds.avg_pair_bound(phi), bounds.avg_pair_bound(phases)
        # unit moduli make the odd-n correction factors exactly 1
        ok = _rel_err(pair_a, pair_b) <= REL_TOL and _rel_err(avg_a, avg_b) <= REL_TOL
        rec.record(ok, "point_mass_consistency", i, {
            "n": n, "t": t, "x": x, "pair_model": pair_a, "pair_phases": pair_b,
            "avg_model": avg_a, "avg_phases": avg_b,
        })

    for i in range(2):
        rng = _rng(seed, 52, i)
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
    start = time.perf_counter()
    out = fn(seed=seed, trials=trials)
    out.elapsed = time.perf_counter() - start
    return out
