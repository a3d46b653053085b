"""Worker process of the permbound benchmark.

Usage: child.py ROOT WORKLOAD SEED WORKDIR

Imports ``permbound.cli`` from ROOT/src, writes the workload's generated
inputs under WORKDIR, prints a ``ready`` line and then serves one request per
stdin line, answering each with one JSON line on stdout:

* ``{"op": "run", "index": i}`` runs command i of the pass through
  ``permbound.cli.main`` and returns its exit code, captured output, time,
  and the speed-probe samples taken around and during it (see below);
* ``{"op": "trace", "on": true|false}`` installs or removes the span wrappers;
  switching off returns the trace summary of the commands run in between;
* ``{"op": "probe"}`` returns the mean probe rate of a few probes, which
  rescales the set-up time measured just before;
* ``{"op": "exit", "trace_path": ...}`` writes the last trace (if a path is
  given) and returns the peak resident set size, then exits.

A shared cloud host can change speed by up to 2x within seconds (measured
on a 2-vCPU Xeon VM), so a command's time alone does not say whether the
program or the machine changed. The worker therefore times a fixed
piece of interpreter work (:func:`probe`) just before and just after each command and,
from a SIGALRM every PROBE_INTERVAL_S, during it. The parent rescales command
times by the mean probe rate (probes per second), which weights each sample
interval equally, so a command that runs half in a fast and half in a slow
phase is rescaled by the average speed. The time spent in probes during a
command is reported so that it can be subtracted.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback

import numpy as np

PROBE_INTERVAL_S = 0.05
SETUP_PROBES = 5
_PROBE_MATRIX = np.arange(16, dtype=complex).reshape(4, 4) / 16.0


def probe() -> int:
    """Nanoseconds a fixed mix of interpreter work takes now: small-object
    allocation and dict updates, then small numpy array steps (the mix of
    permbound's kernels). Of the probes tried, this mix tracked the speed of
    the workloads' commands best."""
    start = time.perf_counter_ns()
    table = {}
    for i in range(1500):
        table[i] = (i, float(i))
    col = _PROBE_MATRIX.sum(axis=0)
    for i in range(60):
        col = col + 2.0 * _PROBE_MATRIX[i % 4]
        col.prod()
    return time.perf_counter_ns() - start


def run_probed(fn):
    """Run ``fn()``; returns its result, its time, the probe time spent inside
    it (both in seconds) and the mean probe rate over all samples (1/s)."""
    inside: list[int] = []
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: inside.append(probe()))
    before = probe()
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    start = time.perf_counter()
    try:
        result = fn()
    finally:
        seconds = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, previous)
    samples = [before, *inside, probe()]
    return result, seconds, sum(inside) * 1e-9, statistics.mean(1e9 / p for p in samples)


def main() -> int:
    root, workload, seed, workdir = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
    sys.path.insert(0, os.path.join(root, "src"))
    import permbound
    import permbound.cli as cli

    expected = os.path.join(root, "src", "permbound")
    if os.path.dirname(os.path.abspath(permbound.__file__)) != expected:
        print(f"permbound imported from {permbound.__file__}, not {expected}", file=sys.stderr)
        return 3

    import tracing
    import workloads

    wl = workloads.build(workload, seed, workdir)
    wl.write_inputs()
    out = sys.stdout

    def send(doc) -> None:
        out.write(json.dumps(doc) + "\n")
        out.flush()

    send({
        "ready": True,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "input_bytes": wl.input_bytes(),
    })
    tracer = restore = None
    for line in sys.stdin:
        req = json.loads(line)
        op = req["op"]
        if op == "run":
            argv = list(wl.commands[req["index"]].argv)
            buf, err = io.StringIO(), io.StringIO()

            def command():
                try:
                    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                        return cli.main(argv)
                except SystemExit as exc:  # argparse errors
                    return exc.code if isinstance(exc.code, int) else int(exc.code is not None)
                except Exception:  # reported as a failed command, never dropped
                    err.write(traceback.format_exc())
                    return -1

            code, seconds, probe_s, probe_rate = run_probed(command)
            send({"code": code, "seconds": seconds, "probe_s": probe_s,
                  "probe_rate": probe_rate, "stdout": buf.getvalue(),
                  "stderr": err.getvalue()[-2000:]})
        elif op == "probe":
            send({"probe_rate": statistics.mean(1e9 / probe() for _ in range(SETUP_PROBES))})
        elif op == "trace":
            if req["on"]:
                tracer = tracing.Tracer()
                restore = tracing.install(tracer)
                send({"ok": True})
            else:
                restore()
                send({"summary": tracer.summary(), "spans": len(tracer)})
        elif op == "exit":
            if tracer is not None and req.get("trace_path"):
                tracer.write(req["trace_path"])
            usage = resource.getrusage(resource.RUSAGE_SELF)
            send({"maxrss_kb": usage.ru_maxrss})
            return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
