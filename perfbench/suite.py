"""Run every workload, each in its own process, and report each metric by
name and unit; with several runs, also the spread between runs next to the
metric's bound in BENCHMARK.json, and the spread of the unscaled wall times
from the same runs (`unscaled.<metric>`, see speed.py).

    python3 perfbench/suite.py                      # one run per workload
    python3 perfbench/suite.py --runs 10 --seed 1   # seeds 1..10, spreads

The spread is the distance between the first and third quartile of the
runs' values (`statistics.quantiles(values, n=4)`) as a share of their
median.  A metric whose spread stays below a third of its bound is marked
resolvable: a later change that moves it by more than the bound shows.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 600


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """The run's result object and its stamp."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
        check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    stamp = next(json.loads(line[len("stamp "):]) for line in lines
                 if line.startswith("stamp "))
    return json.loads(lines[-1]), stamp


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")

    results: dict[str, list[dict]] = {w: [] for w in names}
    # Interleave the workloads so that slow drift of the machine is shared.
    for i in range(args.runs):
        for w in names:
            doc, stamp = run_once(w, args.seed + i, spec["run_seconds"])
            # Unscaled wall times ride along as metrics of their own.
            for name, value in stamp["unscaled"].items():
                unit = doc["metrics"][name]["unit"]
                doc["metrics"][f"unscaled.{name}"] = {"value": value,
                                                      "unit": unit}
            results[w].append(doc)
            print(f"# {w} seed {args.seed + i}: attempted {doc['attempted']} "
                  f"failed {doc['failed']}", file=sys.stderr, flush=True)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    bounds.update({f"unscaled.{name}": bound for name, bound in bounds.items()})
    rows = []
    for w, docs in results.items():
        for name, first in docs[0]["metrics"].items():
            values = [d["metrics"][name]["value"] for d in docs]
            row = {"workload": w, "metric": name, "unit": first["unit"],
                   "median": statistics.median(values),
                   "failed": sum(d["failed"] for d in docs),
                   "bound": bounds.get(name)}
            if len(values) >= 2:
                row["spread"] = spread(values)
            rows.append(row)

    print(f"{'workload':14s} {'metric':46s} {'median':>12s} {'unit':6s} "
          f"{'spread':>8s} {'bound':>7s}")
    for r in rows:
        s = f"{r['spread']:8.4f}" if "spread" in r else f"{'-':>8s}"
        b = f"{r['bound']:7.4f}" if r["bound"] is not None else f"{'-':>7s}"
        mark = ""
        if ("spread" in r and r["bound"] is not None
                and not r["metric"].endswith("setup_s")):
            mark = " resolvable" if r["spread"] < r["bound"] / 3 else \
                " within bound" if r["spread"] <= r["bound"] else " UNRESOLVED"
        print(f"{r['workload']:14s} {r['metric']:46s} {r['median']:12.6g} "
              f"{r['unit']:6s} {s} {b}{mark}")
    return 0 if all(r["failed"] == 0 for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
