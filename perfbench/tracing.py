"""Traced runs: spans around every public function of permbound's modules.

:func:`install` wraps each public function of the layers in :data:`LAYERS`
(and ``convolution.SetFunction.value``) and patches every module attribute
that refers to it, so calls through import sites such as
``bounds.permanent`` or ``cli.permanent`` are traced as well as
``exact.permanent``. Spans (name, parent, start, end) are kept in memory in
flat arrays; :meth:`Tracer.summary` derives call counts and self times
(a span's duration minus the durations of its child spans) per span name.
The wrappers only time and count: they pass arguments and results through
unchanged, which the benchmark checks by comparing traced and untraced
command outputs.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np

from workloads import SUITES

LAYERS = (
    "cli", "matrixio", "table1", "verify", "bounds", "exact",
    "convolution", "charfn", "combinatorics", "parallel",
)

# Largest matrix order counted as a small permanent (bounds and verify
# minors); larger ones are the exact_large kernel calls.
SMALL_PERMANENT_N = 8


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.f_level_keys: set = set()
        self.command = 0

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def exit(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def __len__(self) -> int:
        return len(self.name_id)

    def summary(self) -> dict:
        """Per span name: calls, inclusive and self seconds; plus counters."""
        names = np.frombuffer(self.name_id, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = (
            np.frombuffer(self.end, dtype=np.int64)
            - np.frombuffer(self.start, dtype=np.int64)
        ).astype(float) * 1e-9
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(names))
        own = dur - child
        width = len(self.names)
        calls = np.bincount(names, minlength=width)
        total = np.bincount(names, weights=dur, minlength=width)
        self_s = np.bincount(names, weights=own, minlength=width)
        spans = {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
            if calls[i]
        }
        counts = dict(self.counts)
        f_set = self._ids.get("bounds.f_set")
        minors = 0
        if f_set is not None:
            for name in ("exact.permanent.small", "exact.permanent.large"):
                nid = self._ids.get(name)
                if nid is not None:
                    under = (names == nid) & nested
                    minors += int((names[parent[under]] == f_set).sum())
        counts["bounds.minors_evaluated"] = minors
        counts["bounds.F_level.distinct"] = len(self.f_level_keys)
        return {"spans": spans, "counts": counts}

    def write(self, path: str) -> None:
        """Write the spans as compressed numpy columns: ``names`` (the span
        names), and per span ``name_id``, ``parent`` (-1 at the top) and
        ``start_ns`` / ``end_ns`` (``time.perf_counter_ns``)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )


def _span(fn, tracer: Tracer, name: str):
    nid = tracer.intern(name)
    enter, leave = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = enter(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            leave(idx)

    return wrapper


def _permanent(fn, tracer: Tracer):
    small = tracer.intern("exact.permanent.small")
    large = tracer.intern("exact.permanent.large")
    enter, leave = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def wrapper(z, *args, **kwargs):
        idx = enter(small if len(z) <= SMALL_PERMANENT_N else large)
        try:
            return fn(z, *args, **kwargs)
        finally:
            leave(idx)

    return wrapper


def _cli_main(fn, tracer: Tracer):
    @functools.wraps(fn)
    def wrapper(argv=None):
        tracer.command += 1
        idx = tracer.enter(tracer.intern(f"cli.{argv[0]}"))
        try:
            return fn(argv)
        finally:
            tracer.exit(idx)

    return wrapper


def _run_suite(fn, tracer: Tracer):
    @functools.wraps(fn)
    def wrapper(name, *args, **kwargs):
        idx = tracer.enter(tracer.intern(f"verify.{name}"))
        try:
            result = fn(name, *args, **kwargs)
        finally:
            tracer.exit(idx)
        tracer.counts[f"verify.{name}.checks"] += result.checks
        return result

    return wrapper


def _f_level(fn, tracer: Tracer):
    inner = _span(fn, tracer, "bounds.F_level")

    @functools.wraps(fn)
    def wrapper(z, k, *args, **kwargs):
        digest = hashlib.blake2b(np.ascontiguousarray(z).tobytes(), digest_size=16)
        tracer.f_level_keys.add((tracer.command, digest.digest(), np.shape(z), k))
        return inner(z, k, *args, **kwargs)

    return wrapper


def _map_in_order(fn, tracer: Tracer):
    inner = _span(fn, tracer, "parallel.map_in_order")

    @functools.wraps(fn)
    def wrapper(tasks):
        tracer.counts["parallel.map_in_order.tasks"] += len(tasks)
        return inner(tasks)

    return wrapper


_SPECIAL = {
    "exact.permanent": _permanent,
    "cli.main": _cli_main,
    "verify.run_suite": _run_suite,
    "bounds.F_level": _f_level,
    "parallel.map_in_order": _map_in_order,
}


def _public_functions(module):
    for attr, obj in vars(module).items():
        if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield attr, obj


def install(tracer: Tracer):
    """Trace every public layer function; returns a function that undoes it."""
    modules = {name: importlib.import_module(f"permbound.{name}") for name in LAYERS}
    wrapped = {}
    for layer, module in modules.items():
        for attr, fn in _public_functions(module):
            key = f"{layer}.{attr}"
            make = _SPECIAL.get(key)
            wrapped[fn] = make(fn, tracer) if make else _span(fn, tracer, key)
    patched = []
    for module in (importlib.import_module("permbound"), *modules.values()):
        for attr, obj in list(vars(module).items()):
            try:
                replacement = wrapped.get(obj)
            except TypeError:  # unhashable module attribute
                continue
            if replacement is not None:
                patched.append((module, attr, obj))
                setattr(module, attr, replacement)
    set_function = modules["convolution"].SetFunction
    value = set_function.value
    patched.append((set_function, "value", value))
    set_function.value = _span(value, tracer, "convolution.SetFunction.value")

    def restore() -> None:
        for owner, attr, obj in reversed(patched):
            setattr(owner, attr, obj)

    return restore


# ---------------------------------------------------------------------------
# per-layer metrics

# Span groups reported under one name.
GROUPS = {
    "bounds.svd": ("bounds.spectral_norm", "bounds.singular_values"),
    "bounds.unit_circle": (
        "bounds.unit_circle_pair_bound", "bounds.unit_circle_avg_bound",
        "bounds.unit_circle_theta_bound",
    ),
    "matrixio.load": (
        "matrixio.load_matrix", "matrixio.load_tensor",
        "matrixio.matrix_from_json", "matrixio.tensor_from_json",
    ),
    "matrixio.report": ("matrixio.report_to_json", "matrixio.report_to_csv"),
}

CALLS = (
    "exact.permanent.small", "exact.permanent.large", "exact.hafnian",
    "exact.hyperhafnian", "exact.multidim_permanent", "bounds.f_set",
    "bounds.F_level", "convolution.subset_convolution",
    "convolution.SetFunction.value", "combinatorics.subset_rank",
    "combinatorics.enumerate_subsets", "combinatorics.enumerate_partitions",
    "parallel.map_in_order",
)
SELF_SHARES = (
    "exact.permanent.small", "exact.permanent.large", "exact.hafnian",
    "exact.hyperhafnian", "exact.multidim_permanent", "bounds.f_set",
    "bounds.F_level", "bounds.G_level", "bounds.f_ell_set", "bounds.svd",
    "bounds.unit_circle", "convolution.subset_convolution",
    "convolution.classify_equality", "convolution.generalized_R",
    "combinatorics.subset_rank", "charfn.exact_charfn",
    "charfn.monte_carlo_charfn", "matrixio.load", "matrixio.report",
    "parallel.map_in_order", "cli.table1", "cli.bounds", "cli.exact",
    "cli.verify",
)
# Inclusive time shares (the span and everything under it).
TOTAL_SHARES = tuple(f"verify.{s}" for s in SUITES) + ("table1.compute_rows",)
COUNTS = ("bounds.minors_evaluated", "parallel.map_in_order.tasks") + tuple(
    f"verify.{s}.checks" for s in SUITES
)


def per_layer_spec() -> dict[str, tuple[str, str]]:
    """Every per-layer metric the traced run reports: name -> (unit, better)."""
    spec = {"trace_overhead_ratio": ("ratio", "lower")}
    spec.update({f"{n}.calls": ("count", "lower") for n in CALLS})
    spec.update({f"{n}.self_pct": ("%", "lower") for n in SELF_SHARES})
    spec.update({f"{n}.pct": ("%", "lower") for n in TOTAL_SHARES})
    spec.update({f"{n}.self_pct": ("%", "lower") for n in LAYERS})
    spec.update({n: ("count", "higher" if n.endswith(".checks") else "lower") for n in COUNTS})
    spec["bounds.F_level.distinct_ratio"] = ("ratio", "higher")
    spec["matrixio.input_bytes"] = ("bytes", "lower")
    return spec


def layer_metrics(summary: dict, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass, named as in BENCHMARK.json.

    Shares are percentages of the traced pass's wall time, so a layer the
    workload never enters reads 0 %.
    """
    spans, counts = summary["spans"], summary["counts"]

    def total(names, key):
        return sum(spans.get(n, {}).get(key, 0) for n in names)

    out: dict[str, float] = {}
    for name in CALLS:
        out[f"{name}.calls"] = int(total([name], "calls"))
    for name in SELF_SHARES:
        out[f"{name}.self_pct"] = 100.0 * total(GROUPS.get(name, (name,)), "self_s") / wall_s
    for name in TOTAL_SHARES:
        out[f"{name}.pct"] = 100.0 * total([name], "total_s") / wall_s
    for layer in LAYERS:
        layer_self = sum(s["self_s"] for n, s in spans.items() if n.startswith(f"{layer}."))
        out[f"{layer}.self_pct"] = 100.0 * layer_self / wall_s
    for name in COUNTS:
        out[name] = counts.get(name, 0)
    f_level_calls = out["bounds.F_level.calls"]
    out["bounds.F_level.distinct_ratio"] = (
        counts["bounds.F_level.distinct"] / f_level_calls if f_level_calls else 0.0
    )
    return out
