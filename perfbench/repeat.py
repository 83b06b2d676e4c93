"""Repeat the benchmark and report how steady each metric is.

    python3 perfbench/repeat.py --runs 10 [--calibrate]

Runs ``run.py --trace 0`` once per seed (1 .. runs) on every workload of
``BENCHMARK.json`` and prints, for every end-to-end metric, the median, the
quartiles (as ``statistics.quantiles(values, n=4)`` gives them), the
spread (``(q3 - q1) / median``) and the metric's bound: ``ok`` when the
spread is below a third of the bound, ``WIDE`` when it is below the bound,
``OVER`` when it is not.  It also checks that the share of failed
operations is the same in every run, and exits 1 when it is not or when a
spread is over its bound.  ``--calibrate`` first times (in CPU seconds) a fixed pure-Python loop
in as many fresh processes: the machine's own process-to-process spread.
Every figure is also written to ``.perfbench_out/repeat-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from corpus import OUT_DIR

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: the fixed loop timed by --calibrate, about the length of a short run
CALIBRATION_LOOP = """
import time
t0 = time.process_time()
acc = 0
for i in range(12_000_000):
    acc += i * i % 7
print(time.process_time() - t0)
"""


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def calibrate(runs: int) -> list[float]:
    times = []
    for _ in range(runs):
        out = subprocess.run([sys.executable, "-c", CALIBRATION_LOOP],
                             capture_output=True, text=True, check=True)
        times.append(float(out.stdout))
    return times


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--calibrate", action="store_true")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    doc: dict = {"runs": args.runs, "workloads": {}}
    steady = True
    if args.calibrate:
        times = calibrate(args.runs)
        med, q1, q3, rel = spread(times)
        doc["calibration_loop_s"] = times
        print(f"calibration loop: median {med:.3f}s q1 {q1:.3f} q3 {q3:.3f}"
              f" spread {rel:.3%}", flush=True)
    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in range(1, args.runs + 1):
            result = run_once(workload, seed, spec["run_seconds"])
            results.append(result)
            print(f"{workload} seed {seed}: "
                  f"{result['wall_s']:.1f}s wall, "
                  f"{result['attempted']} ops, {result['failed']} failed",
                  flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        if len(shares) != 1:
            steady = False
        print(f"== {workload}: failed share "
              f"{'identical' if len(shares) == 1 else 'DIFFERS'}: "
              f"{sorted(shares)}")
        rows = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med, q1, q3, rel = spread(values)
            bound = bounds[name]
            verdict = ("ok" if rel < bound / 3 else
                       "WIDE" if rel <= bound else "OVER")
            steady = steady and rel <= bound
            rows[name] = {"values": values, "median": med, "q1": q1,
                          "q3": q3, "spread": rel, "bound": bound}
            print(f"  {name:28s} median {med:12.6g}  q1 {q1:12.6g}  "
                  f"q3 {q3:12.6g}  spread {rel:7.2%}  "
                  f"bound {bound:.0%} {verdict}")
        doc["workloads"][workload] = {
            "metrics": rows,
            "failed_shares": sorted(shares),
            "run_wall_s": [r["wall_s"] for r in results],
        }
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR,
                        f"repeat-{time.strftime('%Y%m%d-%H%M%S')}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    print(f"wrote {os.path.relpath(path, ROOT)}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
