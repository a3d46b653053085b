"""permbound benchmark: drives the CLI from outside and reports its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload paper_bounds --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One run starts fresh worker processes (``child.py``) with a pinned
environment. Each imports ``permbound.cli`` from ``src/`` and writes the
workload's inputs; the time from spawn to ready is one set-up sample. The
last worker then runs the workload's commands back to back, one request at a
time (a closed loop with one client); every output is checked between
commands, outside the timed region, and a failing command counts in
``failed``.

Times are rescaled to a reference machine speed, because a shared host's
speed swings by up to 2x within seconds. The worker times a fixed probe of
interpreter work around and during each command (see ``child.py``); a
command's time, less the probes run inside it, is multiplied by the mean
probe rate and REFERENCE_PROBE_S. A set-up sample is rescaled by probes run
right after it. Raw times are in the detail record.

With ``--trace 0`` the last stdout line carries the end-to-end metrics: the
median set-up time, the median pass time, the geometric mean of the
per-command medians, and the worker's peak RSS. With ``--trace 1`` one
untraced warm-up pass and one untraced base pass are followed by traced
passes (see ``tracing.py``), whose outputs must equal the base pass's and
whose counts must repeat; the last line carries the per-layer metrics. The line before it is a JSON detail
record: per-command times with sample counts, failures, environment.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import queue
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
CHILD = BENCH / "child.py"

SETUP_RUNS = 7
MIN_PASSES = 2
# A run stops starting passes once this much time has gone, so that it ends
# well inside the 180 s a run may take.
RUN_LIMIT_S = 140.0
REPLY_TIMEOUT_S = 160.0
# Probe-loop time of the reference machine speed command times are rescaled
# to (the probe takes 0.25-0.55 ms on a 2-vCPU Xeon VM).
REFERENCE_PROBE_S = 0.0003

PINNED_ENV = {
    "PERMBOUND_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

END_TO_END = {
    "setup_s": "s",
    "wall_ref_s": "s",
    "cmd_geomean_ref_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark could not run (as opposed to a wrong program output)."""


class Worker:
    """One child process; ``setup_raw_s`` is its spawn-to-ready time, and
    ``setup_s`` that time rescaled to the reference speed."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        workdir.mkdir(parents=True, exist_ok=True)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        env.update(PINNED_ENV)
        self.workdir = workdir
        self._stderr = open(workdir / "stderr.txt", "w", encoding="utf-8")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(CHILD), str(ROOT), workload, str(seed), str(workdir)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._stderr,
            text=True, env=env, cwd=ROOT,
        )
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        try:
            self.ready = self._recv()
            self.setup_raw_s = time.perf_counter() - start
            rate = self.request({"op": "probe"})["probe_rate"]
        except BaseException:
            self.kill()
            raise
        self.setup_s = self.setup_raw_s * rate * REFERENCE_PROBE_S

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _recv(self) -> dict:
        try:
            line = self._lines.get(timeout=REPLY_TIMEOUT_S)
        except queue.Empty:
            raise BenchError("worker did not answer in time") from None
        if line is None:
            self.proc.wait(timeout=10)
            self._stderr.flush()
            tail = (self.workdir / "stderr.txt").read_text()[-2000:]
            raise BenchError(f"worker exited with code {self.proc.returncode}: {tail}")
        return json.loads(line)

    def request(self, doc: dict) -> dict:
        try:
            self.proc.stdin.write(json.dumps(doc) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            pass  # the worker is gone; _recv reports how it ended
        return self._recv()

    def close(self, trace_path: str | None = None) -> dict:
        reply = self.request({"op": "exit", "trace_path": trace_path})
        self.proc.stdin.close()
        self.proc.wait(timeout=30)
        self._reader.join(timeout=10)
        self._stderr.close()
        return reply

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._reader.join(timeout=10)
        self._stderr.close()


def _without_timings(value):
    """An output document with its self-reported ``elapsed_seconds`` removed."""
    if isinstance(value, dict):
        return {k: _without_timings(v) for k, v in value.items() if k != "elapsed_seconds"}
    if isinstance(value, list):
        return [_without_timings(v) for v in value]
    return value


def _quartiles(values: list[float]) -> dict:
    out = {"median": statistics.median(values), "samples": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


class Pass:
    """Per-command times of one pass: ``raw`` seconds (probe time removed),
    ``ref`` rescaled to the reference speed, and the checked ``outputs``;
    ``seconds`` is the pass's time with the probes, as spans see it."""

    def __init__(self):
        self.raw: dict[str, float] = {}
        self.ref: dict[str, float] = {}
        self.outputs: dict[str, object] = {}
        self.seconds = 0.0

    @property
    def wall_ref(self) -> float:
        return sum(self.ref.values())


class Run:
    """State of one workload run: its worker, pass results and failures."""

    def __init__(self, name: str, seed: int, seconds: float):
        self.name, self.seed, self.seconds = name, seed, seconds
        self.started = 0.0  # start of the measured passes
        self.workdir = BENCH / "_work" / f"{os.getpid()}-{name}"
        self.attempted = 0
        self.failures: list[str] = []
        self.problems: list[str] = []  # self-check failures
        self.worker: Worker | None = None
        self.setups: list[float] = []
        self.setups_raw: list[float] = []

    def set_up(self) -> None:
        for i in range(SETUP_RUNS):
            if self.worker is not None:
                self.worker.close()
            self.worker = Worker(self.name, self.seed, self.workdir / f"probe{i}")
            self.setups.append(self.worker.setup_s)
            self.setups_raw.append(self.worker.setup_raw_s)
        self.ready = self.worker.ready
        self.workload = workloads.build(self.name, self.seed, str(self.worker.workdir))

    def run_pass(self) -> Pass:
        done = Pass()
        for i, cmd in enumerate(self.workload.commands):
            reply = self.worker.request({"op": "run", "index": i})
            self.attempted += 1
            if reply["code"] != 0:
                problem = f"exit code {reply['code']}: {reply['stderr'][-500:]}"
            else:
                problem = cmd.check(reply["stdout"])
            if problem:
                self.failures.append(f"{cmd.name}: {problem}")
                done.outputs[cmd.name] = None
            else:
                done.outputs[cmd.name] = _without_timings(json.loads(reply["stdout"]))
            done.seconds += reply["seconds"]
            work = reply["seconds"] - reply["probe_s"]
            done.raw[cmd.name] = work
            done.ref[cmd.name] = work * reply["probe_rate"] * REFERENCE_PROBE_S
        return done

    def more(self, passes: list[Pass]) -> bool:
        """Whether to start another pass: at least MIN_PASSES, then while the
        mean pass still fits in the run's seconds."""
        elapsed = time.perf_counter() - self.started
        if len(passes) < MIN_PASSES:
            return not passes or elapsed < RUN_LIMIT_S
        estimate = statistics.mean(sum(p.raw.values()) for p in passes)
        return elapsed + estimate <= min(self.seconds, RUN_LIMIT_S)

    def untraced(self) -> tuple[dict, dict]:
        self.started = time.perf_counter()
        passes: list[Pass] = []
        while self.more(passes):
            passes.append(self.run_pass())
        rss_kb = self.worker.close()["maxrss_kb"]
        self.worker = None
        names = [c.name for c in self.workload.commands]
        ref = {n: _quartiles([p.ref[n] for p in passes]) for n in names}
        metrics = {
            "setup_s": statistics.median(self.setups),
            "wall_ref_s": statistics.median(p.wall_ref for p in passes),
            "cmd_geomean_ref_s": math.exp(
                statistics.mean(math.log(ref[n]["median"]) for n in names)
            ),
            "peak_rss_mb": rss_kb / 1024.0,
        }
        detail = {
            "passes": len(passes),
            "wall_ref_s": _quartiles([p.wall_ref for p in passes]),
            "wall_raw_s": _quartiles([sum(p.raw.values()) for p in passes]),
            "commands_ref": {f"{n}_s": ref[n] for n in names},
            "commands_raw": {f"{n}_s": _quartiles([p.raw[n] for p in passes]) for n in names},
        }
        return metrics, detail

    def traced(self, trace_path: Path) -> tuple[dict, dict]:
        # the first pass warms the worker up; the second is the untraced base
        self.run_pass()
        base = self.run_pass()
        self.started = time.perf_counter()
        passes: list[Pass] = []
        layer, summaries, span_counts = [], [], []
        while self.more(passes):
            self.worker.request({"op": "trace", "on": True})
            done = self.run_pass()
            reply = self.worker.request({"op": "trace", "on": False})
            summary = reply["summary"]
            span_counts.append(reply["spans"])
            for name, out in done.outputs.items():
                if out is not None and out != base.outputs[name]:
                    self.problems.append(f"{name}: traced output differs from untraced output")
            passes.append(done)
            summaries.append(summary)
            layer.append(tracing.layer_metrics(summary, done.seconds))
        self.worker.close(str(trace_path))
        self.worker = None
        counts = [
            ({n: s["calls"] for n, s in x["spans"].items()}, x["counts"]) for x in summaries
        ]
        if any(c != counts[0] for c in counts[1:]):
            self.problems.append("trace counts differ between traced passes of one seed")
        # counts repeat exactly (checked above); shares take the median
        metrics = {
            name: layer[0][name] if isinstance(layer[0][name], int)
            else statistics.median(m[name] for m in layer)
            for name in layer[0]
        }
        traced_ref = statistics.median(p.wall_ref for p in passes)
        metrics["trace_overhead_ratio"] = traced_ref / base.wall_ref
        metrics["matrixio.input_bytes"] = self.ready["input_bytes"]
        detail = {
            "traced_passes": len(passes),
            "untraced_wall_ref_s": base.wall_ref,
            "traced_wall_ref_s": _quartiles([p.wall_ref for p in passes]),
            "span_count": span_counts,
            "spans": summaries[0]["spans"],
            "trace_file": str(trace_path.relative_to(ROOT)),
        }
        return metrics, detail

    def cleanup(self) -> None:
        if self.worker is not None:
            self.worker.kill()
        shutil.rmtree(self.workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            self.workdir.parent.rmdir()


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "permbound").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Returns (result line, detail record) for one workload run."""
    run = Run(name, seed, seconds)
    try:
        run.set_up()
        if trace:
            traces = BENCH / "_traces"
            traces.mkdir(exist_ok=True)
            values, detail = run.traced(traces / f"{name}-seed{seed}.npz")
            spec = tracing.per_layer_spec()
            units = {n: spec[n][0] for n in spec}
        else:
            values, detail = run.untraced()
            units = END_TO_END
    finally:
        run.cleanup()
    failed = len(run.failures)
    result = {
        "correct": failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
    }
    detail.update(
        workload=name,
        seed=seed,
        trace=int(trace),
        seconds=seconds,
        fail_ratio=failed / run.attempted,
        failures=run.failures[:20],
        self_check_problems=run.problems,
        setup_samples=run.setups,
        setup_raw_samples=run.setups_raw,
        environment={
            "python": run.ready["python"],
            "numpy": run.ready["numpy"],
            "nproc": os.cpu_count(),
            "pinned": PINNED_ENV,
        },
    )
    return result, detail


def _every_metric(result: dict, detail: dict) -> dict:
    """The result's metrics plus the per-command medians and fail_ratio."""
    table = dict(result["metrics"])
    for metric, stats in detail.get("commands_ref", {}).items():
        table[metric] = {"value": stats["median"], "unit": "s"}
    table["fail_ratio"] = {"value": detail["fail_ratio"], "unit": "ratio"}
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "permbound" / "cli.py").is_file():
        print(f"error: no permbound sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seed = args.seed % 2**32
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    environment = {"seed": seed, "commit": _commit(), "source_sha256": _source_digest()}
    results, combined = {}, {}
    for name in names:
        try:
            result, detail = run_workload(name, seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        detail["environment"].update(environment)
        results[name] = result
        table = _every_metric(result, detail)
        for metric, entry in table.items():
            print(f"{name:<15} {metric:<42} {entry['value']:.6g} {entry['unit']}", file=sys.stderr)
        print(json.dumps({"detail": detail}))
        combined[name] = table
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{m}": e for w, table in combined.items() for m, e in table.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
