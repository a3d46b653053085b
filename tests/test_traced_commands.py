"""Traced benchmark commands print what the plain ones print.

The benchmark (perfbench/run.py) runs each workload command plain, then
under ``tracing.install``, which wraps every public function of permbound's
modules. It fails a run whose traced command fails, prints other output
than the plain one (``elapsed_seconds`` aside), or makes other span call
counts in one traced pass than in the next. This test makes the same
comparison in process, with the benchmark's tracer and workload modules
imported from perfbench/ unchanged.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from permbound import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _outputs(commands) -> dict:
    out = {}
    for name, argv, check in commands:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(list(argv)) == 0, name
        assert check(buf.getvalue()) is None, name
        out[name] = run._without_timings(json.loads(buf.getvalue()))
    return out


def _traced_outputs(commands) -> tuple[dict, tuple]:
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        outputs = _outputs(commands)
    finally:
        restore()
    summary = tracer.summary()
    calls = {name: span["calls"] for name, span in summary["spans"].items()}
    return outputs, (calls, summary["counts"])


def _suite_ok(stdout: str):
    bad = [r["suite"] for r in json.loads(stdout) if r["ok"] is not True]
    return f"suites not ok: {bad}" if bad else None


def test_traced_outputs_and_span_counts_repeat(tmp_path):
    paper = workloads.build("paper_bounds", 0, str(tmp_path))
    paper.write_inputs()
    commands = [
        (c.name, c.argv, c.check)
        for c in paper.commands
        if c.name in ("table1", "bounds_fixture")
    ]
    commands += [
        (suite, ("verify", "--suite", suite, "--seed", "0", "--format", "json"), _suite_ok)
        for suite in ("dominance", "equality")
    ]
    assert [c[0] for c in commands] == ["table1", "bounds_fixture", "dominance", "equality"]
    plain = _outputs(commands)
    first, first_counts = _traced_outputs(commands)
    second, second_counts = _traced_outputs(commands)
    assert first == plain
    assert second == plain
    assert first_counts == second_counts
    assert first_counts[0]["cli.verify"] == 2
