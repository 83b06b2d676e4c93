"""PySymphony benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  With ``--trace 0`` the workload is set up
``SETUPS`` times in fresh interpreters (``setup_s`` is the median time from
interpreter start to the first timed operation); the last of them goes on
to measure whole rounds for ``--seconds`` and prints every end-to-end
metric.  Times are CPU seconds of the benchmark process (all its threads),
scaled to a host of nominal speed by a fixed reference loop timed in the
same process (README, "Host speed"); the report lines also give the
unscaled and wall-clock figures.  With ``--trace 1`` one
process alternates untraced and traced rounds and prints the per-layer
metrics.  The last line of standard output
is the JSON result; the lines before it are the run report.  The exit code
is 0 only when every output check passed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
import time

from layers import LAYER_UNITS, percentile
from worker import REF_NOMINAL_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig5-sweep", "rmi-mix", "lint-corpus", "chaos-sweep")
#: set-ups per untraced run; the median is reported
SETUPS = 5
#: children still running this long after the start are killed (a run
#: must end within 180 s)
RUN_LIMIT_S = 170.0

E2E_UNITS = {"setup_s": "s", "ops_per_cpu_s": "1/s", "op_cpu_ms.p50": "ms",
             "peak_rss_mb": "MB"}


def tail_percentile(count: int) -> float | None:
    """The highest percentile with at least ten samples beyond it, or None
    below forty samples (where it would be no tail)."""
    if count < 40:
        return None
    for q in (99.9, 99.0, 90.0, 75.0):
        if count * (100 - q) / 100 >= 10:
            return q
    return None


class Child:
    """A worker process whose stdout is read line by line."""

    def __init__(self, args: argparse.Namespace, deadline: float,
                 *extra: str) -> None:
        command = [
            sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            *extra,
        ]
        # A fixed string-hash seed: set and dict iteration orders, and with
        # them the analyzer's work and output, must not vary between runs.
        env = dict(os.environ, PYTHONHASHSEED="0")
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                                     text=True, cwd=ROOT, env=env)
        self.timer = threading.Timer(max(0.0, deadline - time.monotonic()),
                                     self.proc.kill)
        self.timer.start()
        self.ready_s: float | None = None
        self.ref_s: float | None = None
        self.result: dict | None = None

    def drain(self, echo: bool) -> int:
        """Read the child's output to the end; returns its exit code."""
        for line in self.proc.stdout:
            line = line.rstrip("\n")
            if line.startswith("READY ") and self.ready_s is None:
                self.ready_s = float(line.split()[1])
            elif line.startswith("REF ") and self.ref_s is None:
                self.ref_s = float(line.split()[1])
            elif line.startswith("RESULT "):
                self.result = json.loads(line[len("RESULT "):])
            elif echo:
                print(line)
        code = self.proc.wait()
        self.timer.cancel()
        return code


def median(values: list[float]) -> float:
    return sorted(values)[len(values) // 2]


def end_to_end(result: dict, latencies: list[float], speed: float,
               setup_times: list[float]) -> dict[str, float]:
    """The end-to-end metrics; ``speed`` scales CPU times to the nominal
    host, ``setup_times`` are scaled already."""
    return {
        "setup_s": median(setup_times),
        "ops_per_cpu_s": len(latencies) / (result["cpu_s"] * speed),
        "op_cpu_ms.p50": percentile(latencies, 50) * speed * 1e3,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def host_speed(ref_s: float) -> float:
    """The host's speed against the nominal one (reference loop time)."""
    return REF_NOMINAL_S / ref_s


def report(result: dict, metrics: dict[str, tuple[float, str]],
           attempted: int) -> None:
    """The human-readable run report (every line before the JSON)."""
    print(f"workload  {result['workload']}: {result['input']}")
    failures = result.get("failures", [])
    print(f"ops       {attempted} attempted, {len(failures)} failed, "
          f"{result['rounds']} whole rounds")
    by_cause: dict[str, list[str]] = {}
    for key, cause in failures:
        keys = by_cause.setdefault(cause, [])
        if key not in keys:
            keys.append(key)
    for cause, keys in sorted(by_cause.items()):
        count = sum(1 for _, c in failures if c == cause)
        print(f"failed    {count:5d} x {cause}  [inputs: {', '.join(keys)}]")
    for name, (value, unit) in metrics.items():
        print(f"metric    {name:28s} {value:14.6g} {unit}")


def untraced(args: argparse.Namespace, deadline: float,
             extra: list[str]) -> int:
    children = []
    for _ in range(SETUPS - 1):
        child = Child(args, deadline, "--setup-only", *extra)
        code = child.drain(echo=True)
        if code != 0 or child.ready_s is None or child.ref_s is None:
            print(f"set-up failed with exit code {code}", file=sys.stderr)
            return code or 1
        children.append(child)
    child = Child(args, deadline, *extra)
    code = child.drain(echo=True)
    result = child.result
    if result is None or child.ready_s is None or child.ref_s is None:
        print(f"benchmark process failed with exit code {code}",
              file=sys.stderr)
        return code or 1
    children.append(child)
    raw_setup = [c.ready_s for c in children]
    setup_times = [c.ready_s * host_speed(c.ref_s) for c in children]
    if not result["correct"]:
        print(f"output check failed: {result.get('error')}", file=sys.stderr)
        return code or 1
    # a failed op counts as infinitely slow
    latencies = [x if x is not None else float("inf")
                 for x in result["latencies"]]
    ref_s = result["ref_s"]
    speed = host_speed(sum(ref_s) / len(ref_s))
    values = end_to_end(result, latencies, speed, setup_times)
    shown = {name: (value, E2E_UNITS[name]) for name, value in values.items()}
    tail = tail_percentile(len(latencies))
    if tail is not None:
        shown[f"op_cpu_ms.p{tail:g}"] = (
            percentile(latencies, tail) * speed * 1e3, "ms")
    shown["host_speed"] = (speed, "x")
    shown["setup_unscaled_s"] = (median(raw_setup), "s")
    shown["ops_per_unscaled_cpu_s"] = (len(latencies) / result["cpu_s"],
                                       "1/s")
    shown["op_unscaled_cpu_ms.p50"] = (percentile(latencies, 50) * 1e3,
                                       "ms")
    shown["ops_per_wall_s"] = (len(latencies) / result["wall_s"], "1/s")
    sim = result["sim"]
    if sim.get("makespans"):
        shown["sim_makespan_s"] = (sum(sim["makespans"]) / result["rounds"],
                                   "s")
    if sim.get("call_ms"):
        shown["sim_call_ms.p50"] = (percentile(sim["call_ms"], 50), "ms")
    print(f"setup     {', '.join(f'{t:.3f}' for t in setup_times)} s "
          f"(unscaled {', '.join(f'{t:.3f}' for t in raw_setup)} s)")
    report(result, shown, len(latencies))
    print(json.dumps({
        "correct": True,
        "attempted": len(latencies),
        "failed": len(result["failures"]),
        "metrics": {name: {"value": value, "unit": E2E_UNITS[name]}
                    for name, value in values.items()},
    }))
    return 0


def traced(args: argparse.Namespace, deadline: float,
           extra: list[str]) -> int:
    child = Child(args, deadline, *extra)
    code = child.drain(echo=True)
    result = child.result
    if result is None:
        print(f"benchmark process failed with exit code {code}",
              file=sys.stderr)
        return code or 1
    if not result["correct"]:
        print(f"output check failed: {result.get('error')}", file=sys.stderr)
        return code or 1
    layers = result["layers"]
    print(f"trace     {result['spans']} spans in {result['trace_file']}")
    report(result, {name: (layers[name], unit)
                    for name, unit in LAYER_UNITS.items()},
           result["traced_ops"])
    print(json.dumps({
        "correct": True,
        "attempted": result["traced_ops"],
        "failed": len(result["failures"]),
        "metrics": {name: {"value": layers[name], "unit": unit}
                    for name, unit in LAYER_UNITS.items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest inputs (perfbench/smoke.py)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no PySymphony sources under {ROOT}/src/repro; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    deadline = time.monotonic() + RUN_LIMIT_S
    extra = ["--smoke"] if args.smoke else []
    return (traced if args.trace else untraced)(args, deadline, extra)


if __name__ == "__main__":
    sys.exit(main())
