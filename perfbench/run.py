"""Benchmark of the stableset CLI, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload large-graphs --seed 1 --seconds 15 --trace 0

One operation is one in-process `stableset.cli.run_cli` call (parse, solve,
serialize) with stdout captured.  A single client runs passes over the
workload's operations in a closed loop.  The number of passes follows from
`--seconds` and the workload's pass time at reference speed (see speed.py
and workloads.PASS_SECONDS) alone, so every run sees the same mix and the
same sample count, however fast the program or the host is.  Each
answer is checked against a reference computed before the timed loop; a
wrong answer, an unexpected exit code or an escaped exception is a failed
operation.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json with tracing
off.  `--trace 1` runs half as many passes, each once untraced and once
traced, and reports the per-layer metrics: calls and self time per pass of
each layer function, and the ratio of traced to untraced call time at
reference speed.  The last line of stdout is one JSON object; a stamp line
and a human-readable table come before it, and the full result is written
under `.perfbench/results/`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402
from spans import COUNT_ONLY, Tracer  # noqa: E402
from speed import SpeedProbe  # noqa: E402

# Set-up is repeated at least SETUP_ROUNDS times and until SETUP_MIN_S have
# been spent on it, so that a set-up of a few milliseconds still gets a
# steady median.
SETUP_ROUNDS = 3
SETUP_MIN_S = 2.0
SETUP_MAX_ROUNDS = 25
TAIL_BEYOND = 10


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _import_fresh():
    """Import stableset from src/ as a cold process would."""
    for name in [m for m in sys.modules
                 if m == "stableset" or m.startswith("stableset.")]:
        del sys.modules[name]
    importlib.import_module("stableset")
    importlib.import_module("stableset.cli")


def _setup(workload, seed, workdir, rounds, probe, tracer=None):
    """Import plus corpus generation and file writing, at least `rounds`
    times.  Returns the last round's corpus, the median round time at
    reference speed and unscaled, and the number of rounds made.
    """
    raw = []
    tokens = []
    corpus = None
    while len(raw) < rounds or (sum(raw) < SETUP_MIN_S
                                  and len(raw) < SETUP_MAX_ROUNDS):
        corpus = None
        gc.collect()
        started = probe.start()
        _import_fresh()
        if tracer is not None:
            tracer.install()
            tracer.begin_op("setup", "setup")
        try:
            corpus = workloads.setup(workload, seed, workdir)
        finally:
            if tracer is not None:
                tracer.end_op()
                tracer.uninstall()
        elapsed, token = probe.stop(started)
        raw.append(elapsed)
        tokens.append(token)
    times = [probe.scaled(t, k) for t, k in zip(raw, tokens)]
    return corpus, statistics.median(times), statistics.median(raw), len(raw)


class Outcome:
    """Counts and timings of the operations run so far."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.labels: list[str] = []
        self.tokens: list[tuple[int, int]] = []
        self.output_bytes = 0
        self.reasons: dict[str, str] = {}

    def scaled(self, probe: SpeedProbe) -> list[float]:
        """Latencies at reference speed."""
        return [probe.scaled(t, k) for t, k in zip(self.latencies, self.tokens)]


def _execute(op, outcome: Outcome, probe: SpeedProbe, tracer=None,
             op_id=None) -> None:
    """Run one operation, check its answer and record its wall time with
    the probe's token for scaling it afterwards."""
    from stableset import cli

    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    error = None
    if tracer is not None:
        tracer.begin_op("ops", op_id)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        started = probe.start()
        try:
            code = cli.run_cli(list(op.argv))
        except Exception as exc:  # an escaped exception is a failed operation
            code, error = None, f"{type(exc).__name__}: {exc}"
        elapsed, token = probe.stop(started)
    if tracer is not None:
        tracer.end_op(elapsed)
    text = out.getvalue()
    outcome.attempted += 1
    outcome.latencies.append(elapsed)
    outcome.tokens.append(token)
    outcome.labels.append(op.label)
    outcome.output_bytes += len(text.encode())
    reason = error or (None if code == 0 else
                       f"exit code {code}: {err.getvalue().strip()[:200]}")
    if reason is None:
        try:
            reason = op.check(json.loads(text))
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            reason = f"unreadable output: {type(exc).__name__}: {exc}"
    if reason is not None:
        outcome.failed += 1
        outcome.reasons.setdefault(op.label, reason)


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its
    value; with ten samples or fewer, the maximum."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def pass_count(workload: str, seconds: float) -> int:
    """Whole passes that fill `seconds` at the pass time measured when the
    benchmark was defined, and at least one.  The count does not depend on
    the program's speed, so neither does the sample count, nor which call
    the tail percentile lands on."""
    return max(1, int(seconds / workloads.PASS_SECONDS[workload]))


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _timing_metrics(latencies: list[float], correct: int, setup_s: float):
    pct, tail_s = tail(latencies)
    return pct, {
        "ops_per_s": (correct / sum(latencies), "1/s"),
        "latency_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "latency_tail_ms": (1000 * tail_s, "ms"),
        "setup_s": (setup_s, "s"),
    }


def _operations(workload, seed, corpus):
    ops = workloads.operations(workload, seed, corpus)
    # What exists now lives to the end of the run; keeping it out of the
    # collector makes the per-call collection cheap, as in a fresh process.
    gc.collect()
    gc.freeze()
    return ops


def run_untraced(workload, seed, seconds, workdir) -> dict:
    probe = SpeedProbe()
    with probe.sampling():
        corpus, setup_s, raw_setup_s, _ = _setup(workload, seed, workdir,
                                                 SETUP_ROUNDS, probe)
    ops = _operations(workload, seed, corpus)
    del corpus
    outcome = Outcome()
    passes = pass_count(workload, seconds)
    with probe.sampling():
        for _ in range(passes):
            for op in ops:
                _execute(op, outcome, probe)
    correct = outcome.attempted - outcome.failed
    scaled = outcome.scaled(probe)
    pct, metrics = _timing_metrics(scaled, correct, setup_s)
    metrics["peak_rss_mib"] = (_peak_rss_mib(), "MiB")
    metrics["success_ratio"] = (correct / outcome.attempted, "ratio")
    _, raw = _timing_metrics(outcome.latencies, correct, raw_setup_s)
    info = {"passes": passes, "ops_per_pass": len(ops),
            "samples": len(outcome.latencies),
            "tail_percentile": round(pct, 3),
            "failure_ratio": outcome.failed / outcome.attempted,
            "slowdown_median": probe.median_slowdown(),
            "latencies_s": _by_label(outcome.labels, scaled),
            "unscaled": {name: value for name, (value, _) in raw.items()}}
    return {"outcome": outcome, "metrics": metrics, "info": info}


def _by_label(labels: list[str], values: list[float]) -> dict:
    out: dict[str, list[float]] = {}
    for label, value in zip(labels, values):
        out.setdefault(label, []).append(value)
    return out


def run_traced(workload, seed, seconds, workdir) -> dict:
    # Timer probes would land inside spans, so this probe only runs between
    # calls; it scales the two sides of the overhead ratio.
    probe = SpeedProbe()
    tracer = Tracer()
    corpus, _, _, setup_rounds = _setup(workload, seed, workdir, 1, probe,
                                        tracer)
    ops = _operations(workload, seed, corpus)
    del corpus
    outcome = Outcome()
    is_traced: list[bool] = []
    # Each pass runs twice, untraced and traced.
    passes = pass_count(workload, seconds / 2)
    for p in range(passes):
        # Alternate which side goes first so drift hits both equally.
        for traced in ((False, True) if p % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            try:
                for i, op in enumerate(ops):
                    _execute(op, outcome, probe, tracer if traced else None,
                             (p, i))
                    is_traced.append(traced)
            finally:
                tracer.uninstall()
    wall = {False: 0.0, True: 0.0}
    for traced, t in zip(is_traced, outcome.scaled(probe)):
        wall[traced] += t
    metrics = layer_metrics(tracer, passes, setup_rounds,
                            outcome.output_bytes / (2 * passes))
    metrics["bench.trace_overhead_ratio"] = (wall[True] / wall[False], "ratio")
    info = {"passes": passes, "ops_per_pass": len(ops),
            "samples": len(outcome.latencies), "setup_rounds": setup_rounds,
            "failure_ratio": outcome.failed / outcome.attempted,
            "layers": tracer.table(), "counts": dict(tracer.counts)}
    return {"outcome": outcome, "metrics": metrics, "info": info}


def layer_metrics(tracer: Tracer, passes: int, setup_rounds: int,
                  output_bytes: float) -> dict:
    """Every per-layer metric of BENCHMARK.json, as totals per pass (set-up
    functions: per set-up round)."""
    out = {}
    for metric in _spec()["per_layer"]:
        name, unit = metric["name"], metric["unit"]
        func, _, kind = name.rpartition(".")
        if name == "bench.trace_overhead_ratio":
            continue
        if name == "cli.output_bytes":
            value = output_bytes
        elif name == "bench.op_s":
            value = tracer.op_s / passes
        elif kind == "found_per_scanned":
            scanned = tracer.counts[f"{func}.scanned"]
            value = tracer.counts[f"{func}.found"] / scanned if scanned else 0.0
        elif kind == "sets" or func in COUNT_ONLY:
            value = tracer.counts[name] / passes
        elif func in ("oracle.random_problem", "io.serialize_instance"):
            value = tracer.total("setup", func)[1] / setup_rounds
        else:
            calls, self_s = tracer.total("ops", func)
            value = (calls if kind == "calls" else self_s) / passes
        out[name] = (value, unit)
    return out


def source_stamp() -> dict:
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"src_lines": lines, "src_sha256": digest.hexdigest()[:16],
            "git_commit": _git_commit()}


def _git_commit() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "stableset" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no stableset sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))

    workdir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    runner = run_traced if args.trace else run_untraced
    try:
        result = runner(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    outcome = result["outcome"]

    stamp = {"workload": args.workload, "seed": args.seed,
             "seconds": args.seconds, "trace": args.trace,
             "python": platform.python_version(), "nproc": os.cpu_count(),
             **source_stamp(),
             **{k: v for k, v in result["info"].items()
                if k not in ("layers", "counts", "latencies_s")}}
    for label, reason in outcome.reasons.items():
        print(f"FAILED {label}: {reason}", file=sys.stderr)
    print("stamp " + json.dumps(stamp, sort_keys=True))
    for name, (value, unit) in result["metrics"].items():
        print(f"{args.workload:14s} {name:48s} {value:14.6g} {unit}")
    doc = {"correct": outcome.failed == 0,
           "attempted": outcome.attempted,
           "failed": outcome.failed,
           "metrics": {name: {"value": value, "unit": unit}
                       for name, (value, unit) in result["metrics"].items()}}
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({**doc, "stamp": stamp,
                              "layers": result["info"].get("layers"),
                              "counts": result["info"].get("counts"),
                              "latencies_s": result["info"].get("latencies_s")},
                             indent=1))
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
