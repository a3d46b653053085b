"""Span bookkeeping, wrapper installation and traced-output identity."""

import contextlib
import io
import json

import numpy as np
import permbound.bounds as bounds
import permbound.cli as cli
import permbound.exact as exact

import tracing


def _span(tracer, name, parent, start, end):
    tracer.name_id.append(tracer.intern(name))
    tracer.parent.append(parent)
    tracer.start.append(start)
    tracer.end.append(end)
    return len(tracer) - 1


def test_self_time_subtracts_direct_children():
    tr = tracing.Tracer()
    root = _span(tr, "bounds.F_level", -1, 0, 100)
    a = _span(tr, "bounds.f_set", root, 10, 60)
    _span(tr, "exact.permanent.small", a, 20, 30)
    _span(tr, "exact.permanent.small", a, 30, 50)
    _span(tr, "bounds.f_set", root, 70, 90)
    spans = tr.summary()["spans"]
    ns = 1e-9
    assert spans["bounds.F_level"]["self_s"] == (100 - 50 - 20) * ns
    assert spans["bounds.f_set"]["calls"] == 2
    assert np.isclose(spans["bounds.f_set"]["self_s"], (50 - 30 + 20) * ns)
    assert np.isclose(spans["exact.permanent.small"]["total_s"], 30 * ns)
    assert tr.summary()["counts"]["bounds.minors_evaluated"] == 2


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return json.loads(buf.getvalue())


def test_traced_command_output_matches_and_wrappers_are_removed(tmp_path):
    rng = np.random.default_rng(1)
    z = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    path = tmp_path / "z.json"
    path.write_text(json.dumps({"rows": 5, "cols": 5, "entries": [
        [{"re": v.real, "im": v.imag} for v in row] for row in z.tolist()]}))
    argv = ["bounds", "--input", str(path), "--partition", "1,2|3,4,5",
            "--composition", "2,2,1", "--format", "json"]
    originals = (cli.main, bounds.permanent, exact.permanent, bounds.F_level)
    plain = _cli(argv)

    tr = tracing.Tracer()
    restore = tracing.install(tr)
    try:
        assert bounds.permanent is not originals[1]
        traced = _cli(argv)
    finally:
        restore()
    assert (cli.main, bounds.permanent, exact.permanent, bounds.F_level) == originals
    assert traced == plain

    summary = tr.summary()
    spans, counts = summary["spans"], summary["counts"]
    assert spans["cli.bounds"]["calls"] == 1
    # partition blocks of sizes 2 and 3 over 5 rows, then F_level at 2, 2, 1
    assert spans["bounds.F_level"]["calls"] == 3
    assert counts["bounds.F_level.distinct"] == 2
    assert counts["bounds.minors_evaluated"] == 10 + 10 + 2 * 10 * 10 + 5 * 5
    # plus one call for the report's exact column
    assert spans["exact.permanent.small"]["calls"] == counts["bounds.minors_evaluated"] + 1
    assert "exact.permanent.large" not in spans


def test_layer_metrics_cover_the_per_layer_spec():
    tr = tracing.Tracer()
    _span(tr, "cli.verify", -1, 0, 10)
    metrics = tracing.layer_metrics(tr.summary(), 1e-8)
    spec = tracing.per_layer_spec()
    assert set(metrics) | {"trace_overhead_ratio", "matrixio.input_bytes"} == set(spec)
    assert metrics["cli.verify.self_pct"] == 100.0
    assert metrics["bounds.F_level.distinct_ratio"] == 0.0
