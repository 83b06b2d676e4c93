"""The benchmark's own smoke test.

    python3 perfbench/smoke.py

1. Each workload runs at its smallest size through ``run.py --smoke``
   (untraced and traced), with every output check live, and must print a
   well-formed result.
2. For each workload, one output is corrupted on purpose and its check
   must fail (chaos-sweep twice: a wrong product, and a failure of a seed
   that is not known to fail).

Exits 0 when every step behaves.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_smoke(workload: str, trace: int) -> str | None:
    """Run one smallest-size workload; returns a problem or None."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    group = "per_layer" if trace else "end_to_end"
    wanted = {m["name"]: m["unit"] for m in spec[group]}
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        return f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"bad result keys {sorted(result)}"
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted or not result["correct"] or result["attempted"] < 1:
        return f"bad result {result}"
    return None


def corrupted_outputs_fail() -> list[str]:
    """Corrupt one output per workload; each must raise CheckError."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import workloads as wl

    def fig5(w) -> None:
        real = w.point

        def too_fast(*args):
            makespan, hosts = real(*args)
            return makespan / 100, hosts

        w.point = too_fast

    def rmi(w) -> None:
        w.expected["fast"] += 1

    def lint(w) -> None:
        group = "tests/fixtures/symlint"
        w.expected = dict(w.expected, **{group: w.expected[group][1:]})

    def chaos(w) -> None:
        real = w._one

        def wrong_product(seed):
            outcome, tally, counters = real(seed)
            if outcome[0] == "ok":
                outcome = ("ok", outcome[1], False)
            return outcome, tally, counters

        w._one = wrong_product

    def chaos_fails(w) -> None:
        real = w._one

        def unexpected_failure(seed):
            outcome, tally, counters = real(seed)
            if seed == 1:
                outcome = ("failed", "RetriesExhaustedError", "corrupted")
            return outcome, tally, counters

        w._one = unexpected_failure

    problems = []
    for klass, corrupt in ((wl.Fig5Sweep, fig5), (wl.RmiMix, rmi),
                           (wl.LintCorpus, lint), (wl.ChaosSweep, chaos),
                           (wl.ChaosSweep, chaos_fails)):
        workload = klass(1, smoke=True)
        try:
            workload.setup()
            workload.run_round()
            corrupt(workload)
            try:
                workload.run_round()
            except wl.CheckError as exc:
                print(f"ok    {klass.name}: corrupted output caught ({exc})")
            else:
                problems.append(f"{klass.name}: corrupted output passed")
        finally:
            workload.close()
    return problems


def main() -> int:
    problems = []
    for workload in ("fig5-sweep", "rmi-mix", "lint-corpus", "chaos-sweep"):
        for trace in (0, 1):
            problem = run_smoke(workload, trace)
            label = f"{workload} --trace {trace}"
            print(f"{'ok   ' if problem is None else 'FAIL '} {label}"
                  + (f": {problem}" if problem else ""), flush=True)
            if problem:
                problems.append(f"{label}: {problem}")
    problems += corrupted_outputs_fail()
    for problem in problems:
        print(f"FAIL  {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
