"""The four benchmark workloads.

Each workload is built from the workload seed alone (``__init__`` draws
every input before the program is touched), prepares what it needs in
``setup``, and then runs identical *rounds*: ``run_round`` returns one
:class:`Op` per operation plus the round's counters, and raises
:class:`CheckError` when an output is wrong.  Output checks compare the
program's results with values computed here or with properties the
method must have.
"""

from __future__ import annotations

import os
import random
import shutil
import time
from dataclasses import dataclass, field

from repro.agents.objects import jsclass

#: op latencies are process CPU time (every thread of the process): on a
#: shared machine wall time also counts time the process was not running
_clock = time.process_time


class CheckError(Exception):
    """An output of the program is wrong."""


@dataclass
class Op:
    latency_s: float
    ok: bool = True
    cause: str = ""           # why a failed op failed
    key: str = ""             # which input it ran (a chaos seed, a point)


@dataclass
class RoundResult:
    ops: list[Op] = field(default_factory=list)
    #: layer counters read from the program's own statistics
    counters: dict[str, float] = field(default_factory=dict)
    #: simulated-clock results: ``makespans`` or ``call_ms`` samples
    sim: dict[str, list[float]] = field(default_factory=dict)

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value


def _shutdown(runtime) -> None:
    """Join the simulation's parked process threads."""
    runtime.world.kernel.shutdown()


# ---------------------------------------------------------------------------
# fig5-sweep
# ---------------------------------------------------------------------------

#: the testbed's host models and their effective matmul MFLOPS, as the
#: Figure-5 reproduction documents them (Section 6 lists the models)
HOST_MFLOPS = {
    "milena": 60.0, "rachel": 60.0, "johanna": 42.0, "theresa": 42.0,
    "anton": 22.0, "bruno": 22.0, "clemens": 22.0, "dora": 4.5,
    "erika": 4.5, "franz": 5.5, "greta": 5.5, "hugo": 3.5, "ida": 3.5,
}


def ideal_seconds(n: int, hosts: list[str]) -> float:
    """Lower bound on a matmul makespan: 2N^3 flops at the summed peak
    speed of the hosts used, with free communication and no load."""
    return 2.0 * n ** 3 / (sum(HOST_MFLOPS[h] for h in hosts) * 1e6)


class Fig5Sweep:
    """Figure 5: the 1-node sequential baseline plus 2..13 nodes, night
    and day, nominal-cost matmul, one fresh testbed per point."""

    name = "fig5-sweep"
    #: rounds after which ``peak_rss_mb`` is read (a fixed amount of work)
    rss_rounds = 1

    def __init__(self, seed: int, smoke: bool = False) -> None:
        # The seed moves N within a narrow band; the background-load trace
        # (testbed seed) stays fixed.  A point's host cost follows its
        # simulated makespan, which the load trace moves by several per
        # cent, more than the machine's noise allows between seeds.
        self.n = 620 + 2 * random.Random(f"fig5:{seed}").randrange(5)
        self.testbed_seed = 1
        self.rows_per_task = max(1, self.n // 250)
        self.nodes = (1, 2, 6, 12) if smoke else tuple(range(1, 14))
        self.points = [(profile, k) for profile in ("night", "day")
                       for k in self.nodes]

    def describe(self) -> str:
        return (f"N={self.n} rows/task={self.rows_per_task} "
                f"testbed seed={self.testbed_seed} "
                f"nodes={self.nodes[0]}..{self.nodes[-1]} night+day")

    def setup(self) -> None:
        from repro.apps.matmul import (
            MatmulConfig,
            run_matmul,
            sequential_matmul_time,
        )
        from repro.cluster import TestbedConfig, vienna_testbed

        self._config = MatmulConfig
        self._run_matmul = run_matmul
        self._sequential = sequential_matmul_time
        self._testbed = (
            lambda profile: vienna_testbed(TestbedConfig(
                load_profile=profile, seed=self.testbed_seed))
        )
        self.point("night", 2, RoundResult())  # warm-up

    def point(self, profile: str, nodes: int,
              out: RoundResult) -> tuple[float, list[str]]:
        """One Figure-5 point on a fresh testbed: (makespan, hosts)."""
        runtime = self._testbed(profile)
        try:
            if nodes == 1:
                return (self._sequential(runtime.world, "milena", self.n),
                        ["milena"])
            result = runtime.run_app(lambda: self._run_matmul(self._config(
                n=self.n, nr_nodes=nodes, real_compute=False,
                rows_per_task=self.rows_per_task)))
        finally:
            _shutdown(runtime)
            out.add("transport.msgs", runtime.transport.stats.messages)
            out.add("transport.bytes", runtime.transport.stats.bytes_total)
        tasks = -(-self.n // self.rows_per_task)
        if result.nr_tasks != tasks or \
                sum(result.tasks_per_host.values()) != tasks:
            raise CheckError(
                f"{profile} {nodes} nodes: {result.tasks_per_host} does not "
                f"sum to ceil({self.n}/{self.rows_per_task}) = {tasks}")
        if len(set(result.hosts)) != nodes:
            raise CheckError(f"{profile} {nodes} nodes ran on {result.hosts}")
        return result.elapsed, list(result.hosts)

    def run_round(self) -> RoundResult:
        out = RoundResult()
        series: dict[str, dict[int, float]] = {"night": {}, "day": {}}
        for profile, nodes in self.points:
            t0 = _clock()
            makespan, hosts = self.point(profile, nodes, out)
            out.ops.append(Op(_clock() - t0, key=f"{profile}/{nodes}"))
            bound = ideal_seconds(self.n, hosts)
            if not makespan >= bound * (1 - 1e-9):
                raise CheckError(
                    f"{profile} {nodes} nodes: makespan {makespan:.3f}s "
                    f"beats the ideal-capacity bound {bound:.3f}s")
            series[profile][nodes] = makespan
        self.check_shape(series)
        out.sim["makespans"] = [m for s in series.values()
                                for m in s.values()]
        return out

    def check_shape(self, series: dict[str, dict[int, float]]) -> None:
        """The paper's Figure-5 claims: day is slower than night, the
        optimum lies at 4..10 nodes, and more than 10 nodes are slower
        than the optimum."""
        night, day = series["night"], series["day"]
        for k in night:
            if not day[k] > night[k]:
                raise CheckError(f"day not slower than night at {k} nodes")
        for profile, points in series.items():
            best = min(points, key=points.get)
            if not 4 <= best <= 10:
                raise CheckError(f"{profile}: optimum at {best} nodes")
            for k, makespan in points.items():
                if k > 10 and not makespan > points[best]:
                    raise CheckError(
                        f"{profile}: {k} nodes not slower than the optimum")

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# rmi-mix
# ---------------------------------------------------------------------------

FAST_HOST, SLOW_HOST = "rachel", "ida"        # 100 Mbit / 10 Mbit
WANDER_HOSTS = ("johanna", "greta")            # the migrating object
ARRAY_FLOATS = 12_800                          # 102,400-byte float64 array

#: calls per round by mode; bursts and batches hold four calls each
RMI_MIX = {"sync": 42, "async": 4, "oneway": 12, "minvoke": 4,
           "coalesced": 2, "echo": 4, "migrate": 2}
BURST = 4


@jsclass
class BenchAccumulator:
    """A remote running sum; ``echo`` returns its argument."""

    def __init__(self) -> None:
        self.total = 0

    def add(self, x: int) -> int:
        self.total += x
        return self.total

    def get(self) -> int:
        return self.total

    def echo(self, value):
        return value


class RmiMix:
    """A closed loop of remote calls from one application master."""

    name = "rmi-mix"
    rss_rounds = 50

    def __init__(self, seed: int, smoke: bool = False) -> None:
        import numpy as np

        rng = random.Random(f"rmi:{seed}")
        self.testbed_seed = rng.randrange(1 << 16)
        targets = ("fast", "slow")
        steps: list[tuple] = []

        def value() -> int:
            return rng.randrange(1, 1000)

        for _ in range(RMI_MIX["sync"]):
            steps.append(("sync", rng.choice(targets), value()))
        for _ in range(RMI_MIX["oneway"]):
            steps.append(("oneway", rng.choice(targets), value()))
        for mode in ("async", "minvoke", "coalesced"):
            for _ in range(RMI_MIX[mode]):
                steps.append((mode, [(rng.choice(targets), value())
                                     for _ in range(BURST)]))
        for i in range(RMI_MIX["echo"]):
            steps.append(("echo", targets[i % 2], i % 2))
        for _ in range(RMI_MIX["migrate"]):
            steps.append(("migrate", value()))
        rng.shuffle(steps)
        if smoke:
            steps = sorted(steps, key=lambda s: s[0])[::5]
        self.steps = steps
        self.arrays = [
            np.random.default_rng(rng.randrange(1 << 32)).random(ARRAY_FLOATS)
            for _ in range(2)
        ]

    @property
    def calls_per_round(self) -> int:
        return sum(BURST if isinstance(s[1], list) else 1
                   for s in self.steps)

    def describe(self) -> str:
        return (f"{self.calls_per_round} calls/round "
                f"(sync {RMI_MIX['sync']}, oneway {RMI_MIX['oneway']}, "
                f"async/minvoke/coalesced bursts of {BURST}, "
                f"{RMI_MIX['echo']} x {ARRAY_FLOATS * 8} B echoes, "
                f"{RMI_MIX['migrate']} migrations) testbed seed "
                f"{self.testbed_seed}")

    def setup(self) -> None:
        from repro.cluster import TestbedConfig, vienna_testbed
        from repro.core import JSCodebase, JSObj, JSRegistration

        runtime = vienna_testbed(TestbedConfig(
            load_profile="dedicated", seed=self.testbed_seed))
        self.runtime = runtime
        objs: dict[str, object] = {}

        def producer() -> None:
            # Owns the migrating object; the master reaches it through a
            # handle whose cached location goes stale on every migration
            # (the Figure-4 redirect chase).
            JSRegistration()
            JSCodebase().add(BenchAccumulator).load(list(WANDER_HOSTS))
            objs["wander"] = JSObj("BenchAccumulator", WANDER_HOSTS[0])

        def master() -> None:
            reg = JSRegistration()
            JSCodebase().add(BenchAccumulator).load([FAST_HOST, SLOW_HOST])
            objs["fast"] = JSObj("BenchAccumulator", FAST_HOST)
            objs["slow"] = JSObj("BenchAccumulator", SLOW_HOST)
            objs["stale"] = JSObj._from_ref(objs["wander"].ref, reg.app)
            objs["app"] = reg.app

        runtime.run_app(producer, node="johanna")
        runtime.run_app(master, node="milena")
        self.objs = objs
        self.expected = {"fast": 0, "slow": 0, "wander": 0}
        self.wander_at = WANDER_HOSTS[0]
        self.run_round()  # warm-up, checked like every round

    def run_round(self) -> RoundResult:
        out = RoundResult()
        stats = self.runtime.transport.stats
        msgs0, bytes0 = stats.messages, stats.bytes_total
        self.runtime.run_app(self._round_body, out, node="milena")
        out.add("transport.msgs", stats.messages - msgs0)
        out.add("transport.bytes", stats.bytes_total - bytes0)
        return out

    def _round_body(self, out: RoundResult) -> None:
        import numpy as np

        from repro.rmi.multi import minvoke

        objs, expected = self.objs, self.expected
        kernel = self.runtime.world.kernel
        sim_ms = out.sim.setdefault("call_ms", [])

        def collect(issued, handles) -> None:
            for t0, handle in zip(issued, handles):
                handle.get_result()
                out.ops.append(Op(_clock() - t0))

        for step in self.steps:
            mode = step[0]
            if mode == "sync":
                _, target, x = step
                s0, t0 = kernel.now(), _clock()
                objs[target].sinvoke("add", [x])
                out.ops.append(Op(_clock() - t0))
                sim_ms.append((kernel.now() - s0) * 1e3)
                expected[target] += x
            elif mode == "oneway":
                _, target, x = step
                t0 = _clock()
                objs[target].oinvoke("add", [x])
                out.ops.append(Op(_clock() - t0))
                expected[target] += x
            elif mode == "async":
                issued, handles = [], []
                for target, x in step[1]:
                    issued.append(_clock())
                    handles.append(objs[target].ainvoke("add", [x]))
                    expected[target] += x
                collect(issued, handles)
            elif mode == "coalesced":
                issued, handles = [], []
                with objs["app"].coalescing():
                    for target, x in step[1]:
                        issued.append(_clock())
                        handles.append(objs[target].ainvoke("add", [x]))
                        expected[target] += x
                collect(issued, handles)
            elif mode == "minvoke":
                t0 = _clock()
                batch = minvoke([(objs[target], "add", [x])
                                 for target, x in step[1]])
                for target, x in step[1]:
                    expected[target] += x
                collect([t0] * BURST, batch.handles)
            elif mode == "echo":
                _, target, which = step
                sent = self.arrays[which]
                t0 = _clock()
                back = objs[target].sinvoke("echo", [sent])
                out.ops.append(Op(_clock() - t0))
                if back is sent or not isinstance(back, np.ndarray) or \
                        back.tobytes() != sent.tobytes():
                    raise CheckError("echoed array differs from the one sent")
            else:  # migrate, then one call through the stale handle
                x = step[1]
                self.wander_at = WANDER_HOSTS[
                    1 - WANDER_HOSTS.index(self.wander_at)]
                objs["wander"].migrate(self.wander_at)
                expected["wander"] += x
                t0 = _clock()
                total = objs["stale"].sinvoke("add", [x])
                out.ops.append(Op(_clock() - t0))
                if total != expected["wander"]:
                    raise CheckError(
                        f"migrated object lost state: {total} != "
                        f"{expected['wander']}")
        # One-sided calls complete on their own; give them time to land.
        kernel.sleep(1.0)
        for target in ("fast", "slow"):
            total = objs[target].sinvoke("get")
            if total != expected[target]:
                raise CheckError(f"{target} accumulator holds {total}, "
                                 f"expected {expected[target]}")

    def close(self) -> None:
        _shutdown(self.runtime)


# ---------------------------------------------------------------------------
# lint-corpus
# ---------------------------------------------------------------------------


class LintCorpus:
    """Every checker over the fixed corpus kept in ``perfbench/corpus``.

    An op is one analysis pass over every corpus group: the parse
    (``load_project``) or one checker's ``check``.  A round runs the parse
    and then each default checker, as ``analyze_paths`` does per group, so
    one round is one full analysis of the corpus."""

    name = "lint-corpus"
    rss_rounds = 1

    def __init__(self, seed: int, smoke: bool = False) -> None:
        from corpus import FIXTURE_GROUPS, OUT_DIR, RUNTIME_GROUP

        # The corpus is fixed and the seed changes nothing, not even the
        # group order: the order moved the median op by up to 30 %.
        self.groups = ([] if smoke else [RUNTIME_GROUP]) + list(FIXTURE_GROUPS)
        self.root = os.path.join(OUT_DIR, f"corpus-{os.getpid()}")

    def describe(self) -> str:
        return f"groups {', '.join(self.groups)}"

    def setup(self) -> None:
        import corpus
        from repro.analysis import runner

        self._runner = runner
        self.expected = corpus.load_expected()
        corpus.materialize(self.root)
        for group in corpus.FIXTURE_GROUPS:   # warm-up: every checker
            runner.analyze_paths([os.path.join(self.root, group)])

    def run_round(self) -> RoundResult:
        import corpus

        out = RoundResult()
        # fresh checkers per round, as every analyze_paths call has
        checkers = self._runner.default_checkers()
        projects, findings = {}, {}
        t0 = _clock()
        for group in self.groups:
            projects[group], findings[group] = self._runner.load_project(
                [os.path.join(self.root, group)])
        out.ops.append(Op(_clock() - t0, key="parse"))
        for checker in checkers:
            t0 = _clock()
            for group in self.groups:
                findings[group].extend(checker.check(projects[group]))
            out.ops.append(Op(_clock() - t0, key=checker.name))
        reports = {
            group: corpus.project_rows(projects[group], findings[group],
                                       self.root)
            for group in self.groups
        }
        problems = corpus.check_reports(reports, self.expected)
        if problems:
            raise CheckError("; ".join(problems[:5]))
        out.add("analysis.findings", sum(map(len, reports.values())))
        return out

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


# ---------------------------------------------------------------------------
# chaos-sweep
# ---------------------------------------------------------------------------

CHAOS_SEEDS = range(20)
#: chaos seeds that fail every time (perfbench/README.md, "Faults"); any
#: other seed failing is a wrong output.  A listed seed may start to pass.
CHAOS_SEEDS_FAILING = frozenset({0, 7, 8, 11, 12, 16})


class ChaosSweep:
    """Real-compute matmul under ``FaultPlan.random_plan(s)`` for every
    ``s`` in :data:`CHAOS_SEEDS`, configured as ``repro chaos`` does."""

    name = "chaos-sweep"
    rss_rounds = 1

    def __init__(self, seed: int, smoke: bool = False) -> None:
        # Plans and testbeds come from the fixed chaos seeds; the workload
        # seed draws the matrices, which change no message size or cost.
        self.matrix_seed = random.Random(f"chaos:{seed}").randrange(1 << 31)
        self.seeds = list(CHAOS_SEEDS)[:4] if smoke else list(CHAOS_SEEDS)
        self.n, self.nodes = 64, 4
        self.replay: dict[int, tuple] = {}

    def describe(self) -> str:
        return (f"chaos seeds {self.seeds[0]}..{self.seeds[-1]}, matmul "
                f"n={self.n} on {self.nodes} nodes, matrix seed "
                f"{self.matrix_seed}")

    def setup(self) -> None:
        from repro.agents.shell import ShellConfig
        from repro.apps.matmul import MatmulConfig, run_matmul
        from repro.chaos import ChaosInjector, FaultPlan
        from repro.cluster import TestbedConfig, vienna_testbed
        from repro.errors import JSError
        from repro.obs import Tracer, tracing
        from repro.rmi.reliability import CircuitBreaker, RetryPolicy

        def one(chaos_seed: int) -> tuple:
            with tracing(Tracer()) as tracer:
                shell = ShellConfig(
                    rpc_timeout=3.0, retry_policy=RetryPolicy(),
                    dedup_window=60.0, circuit_breaker=CircuitBreaker())
                runtime = vienna_testbed(TestbedConfig(
                    load_profile="night", seed=chaos_seed, shell=shell))
                plan = FaultPlan.random_plan(
                    chaos_seed, runtime.world.host_names())
                injector = ChaosInjector(runtime.world, plan).install(
                    runtime.transport)
                try:
                    result = runtime.run_app(lambda: run_matmul(MatmulConfig(
                        n=self.n, nr_nodes=self.nodes, real_compute=True,
                        seed=self.matrix_seed)))
                    outcome = ("ok", result.elapsed, result.correct)
                except JSError as exc:
                    outcome = ("failed", type(exc).__name__, str(exc))
                finally:
                    _shutdown(runtime)
            counters = {
                "transport.msgs": runtime.transport.stats.messages,
                "transport.bytes": runtime.transport.stats.bytes_total,
                "chaos.faults": sum(injector.injected.values()),
                "obs.events": len(tracer.events),
                "obs.incidents": len(runtime.flight.incidents),
            }
            return outcome, dict(sorted(injector.injected.items())), counters

        self._one = one
        one(self.seeds[1])  # warm-up

    def run_round(self) -> RoundResult:
        out = RoundResult()
        makespans = out.sim.setdefault("makespans", [])
        for chaos_seed in self.seeds:
            t0 = _clock()
            outcome, tally, counters = self._one(chaos_seed)
            latency = _clock() - t0
            for name, value in counters.items():
                out.add(name, value)
            if outcome[0] == "ok":
                if outcome[2] is not True:
                    raise CheckError(
                        f"chaos seed {chaos_seed}: wrong product")
                out.ops.append(Op(latency, key=str(chaos_seed)))
                makespans.append(outcome[1])
            else:
                cause = f"{outcome[1]}: {_stable_cause(outcome[2])}"
                if chaos_seed not in CHAOS_SEEDS_FAILING:
                    raise CheckError(
                        f"chaos seed {chaos_seed} failed: {cause}")
                out.ops.append(Op(latency, ok=False, cause=cause,
                                  key=str(chaos_seed)))
            record = (outcome[:2], tally)
            if self.replay.setdefault(chaos_seed, record) != record:
                raise CheckError(
                    f"chaos seed {chaos_seed} did not replay: "
                    f"{record} != {self.replay[chaos_seed]}")
        return out

    def close(self) -> None:
        pass


def _stable_cause(text: str) -> str:
    """The stable part of a failure message (no object ids or hosts)."""
    for marker in ("multiply before init", "LOAD_CLASSES"):
        if marker in text:
            return marker
    return text.splitlines()[0][:80] if text else ""


WORKLOADS = {w.name: w for w in (Fig5Sweep, RmiMix, LintCorpus, ChaosSweep)}

