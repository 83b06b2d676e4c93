"""Per-layer metrics of the traced run, per operation.

Each figure comes from spans recorded by :mod:`layertrace` around the
calls into one layer, or from the program's own statistics
(``Transport.stats``, ``ChaosInjector.injected``, the tracer and the
flight recorder).  ``*_us``/``*_ms`` figures are self time: a span's
duration minus its child spans, so time spent blocked in the kernel, or in
another layer called from this one, is not counted.
"""

from __future__ import annotations

#: the checkers ``repro.analysis.runner.default_checkers`` runs
CHECKERS = (
    "lock-discipline", "protocol", "migration-safety", "blocking-handler",
    "obs-discipline", "interprocedural", "retry-discipline", "locality",
    "symshare",
)

LAYER_UNITS = {
    "kernel.spawns": "count/op",
    "kernel.blocks": "count/op",
    "kernel.run_ms": "ms/op",
    "kernel.us_per_block": "us",
    "transport.msgs": "count/op",
    "transport.bytes": "B/op",
    "transport.send_us": "us/op",
    "transport.copy_us": "us/op",
    "transport.copy_mb": "MB/op",
    "agents.invokes": "count/op",
    "agents.dispatch_us": "us/op",
    "agents.migrate_ms": "ms/op",
    "nas.samples": "count/op",
    "nas.sample_us": "us/op",
    "simnet.computes": "count/op",
    "simnet.transfers": "count/op",
    "rmi.reliable_calls": "count/op",
    "rmi.reliable_us": "us/op",
    "rmi.failed_attempts": "count/op",
    "rmi.dedup_hits": "count/op",
    "chaos.faults": "count/op",
    "obs.events": "count/op",
    "obs.incidents": "count/op",
    "analysis.parse_ms": "ms/op",
    **{f"analysis.{name.replace('-', '_')}_ms": "ms/op" for name in CHECKERS},
    "analysis.findings": "count/op",
    "trace.overhead_pct": "%",
    "sim_makespan_s": "s",
    "sim_call_ms.p50": "ms",
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_metrics(tracer, traced, plain) -> dict[str, float]:
    """Per-op figures from the traced rounds (``traced``), with the
    tracing overhead measured against the untraced ones (``plain``)."""
    ops = max(1, len(traced.ops))
    counters = dict(traced.counters)
    counters.update(tracer.counters)

    def per_op(value: float, scale: float = 1.0) -> float:
        return value * scale / ops

    us, ms = 1e-3, 1e-6
    blocks = tracer.calls("kernel.block")
    metrics = {
        "kernel.spawns": per_op(tracer.calls("kernel.spawn")),
        "kernel.blocks": per_op(blocks),
        "kernel.run_ms": per_op(tracer.total_ns("kernel.run"), ms),
        "kernel.us_per_block": (
            tracer.self_ns("kernel.run") * us / blocks if blocks else 0.0),
        "transport.msgs": per_op(counters.get("transport.msgs", 0)),
        "transport.bytes": per_op(counters.get("transport.bytes", 0)),
        "transport.send_us": per_op(tracer.self_ns("transport.send"), us),
        "transport.copy_us": per_op(tracer.self_ns("transport.copy"), us),
        "transport.copy_mb": per_op(
            counters.get("transport.copy_bytes", 0), 1e-6),
        "agents.invokes": per_op(tracer.calls("agents.dispatch")),
        "agents.dispatch_us": per_op(tracer.self_ns("agents.dispatch"), us),
        "agents.migrate_ms": per_op(tracer.self_ns("agents.migrate"), ms),
        "nas.samples": per_op(tracer.calls("nas.sample")),
        "nas.sample_us": per_op(tracer.self_ns("nas.sample"), us),
        "simnet.computes": per_op(tracer.calls("simnet.compute")),
        "simnet.transfers": per_op(tracer.calls("simnet.transfer")),
        "rmi.reliable_calls": per_op(tracer.calls("rmi.reliable")),
        "rmi.reliable_us": per_op(tracer.self_ns("rmi.reliable"), us),
        # RetryPolicy.backoff runs after every failed attempt, the last
        # (exhausted) one included
        "rmi.failed_attempts": per_op(tracer.calls("rmi.backoff")),
        "rmi.dedup_hits": per_op(counters.get("rmi.dedup_hits", 0)),
        "chaos.faults": per_op(counters.get("chaos.faults", 0)),
        "obs.events": per_op(counters.get("obs.events", 0)),
        "obs.incidents": per_op(counters.get("obs.incidents", 0)),
        "analysis.parse_ms": per_op(tracer.self_ns("analysis.parse"), ms),
    }
    for name in CHECKERS:
        metrics[f"analysis.{name.replace('-', '_')}_ms"] = per_op(
            tracer.self_ns(f"analysis.check.{name}"), ms)
    metrics["analysis.findings"] = per_op(
        counters.get("analysis.findings", 0))
    traced_rate = len(traced.ops) / traced.cpu
    plain_rate = len(plain.ops) / plain.cpu
    metrics["trace.overhead_pct"] = (plain_rate / traced_rate - 1) * 100
    sim = traced.sim
    metrics["sim_makespan_s"] = (
        sum(sim["makespans"]) / traced.rounds if sim.get("makespans")
        else 0.0)
    metrics["sim_call_ms.p50"] = (
        percentile(sim["call_ms"], 50) if sim.get("call_ms") else 0.0)
    return metrics
