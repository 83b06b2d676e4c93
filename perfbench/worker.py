"""One benchmark process: set a workload up, then run whole rounds of it.

Started by ``run.py``; prints ``READY <cpu seconds>`` when set-up is done
(the process's CPU time since the interpreter started), then
``REF <seconds>``, the mean CPU time of a fixed reference loop run right
after set-up, and, unless ``--setup-only``, one ``RESULT <json>`` line with
the measured figures.  An untraced run also times the reference loop
between rounds (``ref_s``), so ``run.py`` can scale CPU times to a host of
nominal speed (README, "Host speed").
With ``--trace 1`` rounds alternate untraced and traced, so the tracing
overhead is measured in the same process; the per-layer figures come from
the traced rounds.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

from corpus import OUT_DIR

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


#: iterations of one reference slice, about 0.03 CPU seconds
REF_ITERATIONS = 300_000
#: CPU seconds of one slice on the nominal host (this is the scale of every
#: CPU-time metric: a host where a slice takes this long has speed 1.0)
REF_NOMINAL_S = 0.03
#: slices run after set-up, for the set-up time's scale
SETUP_REF_SLICES = 5
#: reference CPU time owed per CPU second of measured rounds
REF_SHARE = 0.1


def reference_slice() -> float:
    """CPU seconds of a fixed pure-Python loop: the host's current speed."""
    t0 = time.process_time()
    acc = 0
    for i in range(REF_ITERATIONS):
        acc += i * i % 7
    return time.process_time() - t0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Totals:
    """What a set of rounds did: ops, counters, simulated results."""

    def __init__(self) -> None:
        self.rounds = 0
        self.wall = 0.0
        self.cpu = 0.0
        self.ops: list = []
        self.counters: dict[str, float] = {}
        self.sim: dict[str, list[float]] = {}

    def add(self, result, wall: float, cpu: float) -> None:
        self.rounds += 1
        self.wall += wall
        self.cpu += cpu
        self.ops.extend(result.ops)
        for name, value in result.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, values in result.sim.items():
            self.sim.setdefault(name, []).extend(values)


def timed_round(workload, totals: Totals) -> None:
    t0, cpu0 = time.perf_counter(), time.process_time()
    result = workload.run_round()
    totals.add(result, time.perf_counter() - t0, time.process_time() - cpu0)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import WORKLOADS, CheckError

    os.makedirs(OUT_DIR, exist_ok=True)

    workload = WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    result: dict = {"workload": workload.name, "input": workload.describe()}
    try:
        workload.setup()
        # CPU seconds since the interpreter started: the set-up time
        print(f"READY {time.process_time()!r}", flush=True)
        ref = sum(reference_slice() for _ in range(SETUP_REF_SLICES))
        print(f"REF {ref / SETUP_REF_SLICES!r}", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            result.update(traced_run(workload, args))
        else:
            result.update(plain_run(workload, args.seconds))
        result["correct"] = True
    except CheckError as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr, flush=True)
        result["correct"] = False
        result["error"] = str(exc)
    finally:
        workload.close()
    print("RESULT " + json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def plain_run(workload, seconds: float) -> dict:
    totals = Totals()
    peak_rss = None
    # Reference slices between rounds, REF_SHARE of the rounds' CPU time,
    # so that they sample the host's speed over the whole run.
    ref_s = [reference_slice()]
    start = time.perf_counter()
    while True:
        timed_round(workload, totals)
        while sum(ref_s) < REF_SHARE * totals.cpu:
            ref_s.append(reference_slice())
        if totals.rounds == workload.rss_rounds:
            peak_rss = _peak_rss_mb()
        if time.perf_counter() - start >= seconds and peak_rss is not None:
            break
    return {
        "rounds": totals.rounds,
        "wall_s": totals.wall,
        "cpu_s": totals.cpu,
        "latencies": [op.latency_s if op.ok else None for op in totals.ops],
        "failures": [[op.key, op.cause] for op in totals.ops if not op.ok],
        "peak_rss_mb": peak_rss,
        "ref_s": ref_s,
        "sim": totals.sim,
    }


def traced_run(workload, args) -> dict:
    from repro.analysis.runner import default_checkers
    from layers import layer_metrics
    from layertrace import Tracer

    checkers = default_checkers()
    tracer = Tracer()
    plain, traced = Totals(), Totals()
    start = time.perf_counter()
    while True:
        timed_round(workload, plain)
        tracer.install(checkers)
        try:
            timed_round(workload, traced)
        finally:
            tracer.remove()
        if time.perf_counter() - start >= args.seconds:
            break
    path = os.path.join(
        OUT_DIR, f"trace-{workload.name}-seed{args.seed}.json")
    tracer.write(path, {"workload": workload.name, "seed": args.seed,
                        "input": workload.describe(),
                        "traced_ops": len(traced.ops)})
    return {
        "rounds": traced.rounds,
        "traced_ops": len(traced.ops),
        "failures": [[op.key, op.cause] for op in traced.ops if not op.ok],
        "spans": len(tracer.spans),
        "trace_file": os.path.relpath(path, ROOT),
        "layers": layer_metrics(tracer, traced, plain),
    }


if __name__ == "__main__":
    sys.exit(main())
