"""Run one workload and turn its units into the benchmark's metrics.

Untraced (`trace=False`): a run is `ceil(seconds / unit_s)` units, and more
if needed until the tail percentile has at least ten samples beyond it.
The count never depends on the clock, so the same seed and seconds give the
same units on any host.  The result carries every end-to-end metric.

Traced (`trace=True`): the same untraced pass runs first, then exactly as
many units again with spans recorded.  The two passes must give the same
trajectory digest; the result carries every per-layer metric.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
from time import perf_counter

import spans
import workloads
from refclock import RefClock
from spans import percentile


class DigestMismatch(Exception):
    pass


def min_samples(tail_pct: float) -> int:
    """Samples needed for ten beyond the tail percentile."""
    return math.ceil(10 / (1 - tail_pct / 100))


def run_units(workload, seed: int, count: int, clock, tracer=None) -> tuple:
    """Run `count` units in seed order, and more until the tail has its samples.

    Returns (units, wall seconds).
    """
    need = min_samples(workload.tail_pct)
    units, samples = [], 0
    start = perf_counter()
    while len(units) < count or samples < need:
        index = len(units)
        if tracer:
            tracer.run_id = index
        unit = workload.unit(workloads.unit_seed(workload.name, seed, index), index, clock, tracer)
        units.append(unit)
        samples += len(unit.run_s)
    return units, perf_counter() - start


def digest(units) -> str:
    h = hashlib.sha256()
    for u in units:
        h.update(u.state_hash.encode())
    return h.hexdigest()


def end_to_end(workload, units) -> dict:
    run_s = [s for u in units for s in u.run_s]
    return {
        "steps_per_s": sum(u.steps for u in units) / sum(run_s),
        "run_s_p50": statistics.median(run_s),
        "run_s_tail": percentile(run_s, workload.tail_pct),
        "setup_s": statistics.median(u.setup_s for u in units),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def simulated(units, tail_pct: float) -> dict:
    """Simulated-step figures: the protocol's own cost, independent of host."""
    sim = {}
    for u in units:
        for k, v in u.sim.items():
            sim.setdefault(k, []).extend(v)
    converge = sim.get("converge_steps", [])
    plan_len, settle = sim.get("plan_len", []), sim.get("settle_steps", [])
    return {
        "layer.converge_steps_p50": percentile(converge, 50),
        "layer.converge_steps_tail": percentile(converge, tail_pct),
        "rules.settle_steps_p50": percentile(settle, 50),
        "rules.steps_per_plan_step": sum(settle) / sum(plan_len) if plan_len else 0,
    }


def context(workload, seed: int, units, trace: bool, clock) -> dict:
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    known = sum(u.known for u in units)
    procs, relays, inflight = zip(*(u.world for u in units))
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "units": len(units),
        "host_factor": clock.host_factor(),
        "digest": digest(units),
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "known_defect_failed": known,
        "run_samples": sum(len(u.run_s) for u in units),
        "run_s_tail_pct": workload.tail_pct,
        "final_world": {
            "processes_p50": percentile(procs, 50),
            "relays_p50": percentile(relays, 50),
            "inflight_p50": percentile(inflight, 50),
        },
        "simulated": {k: v for k, v in simulated(units, workload.tail_pct).items() if v},
    }


def run(workload, seed: int, seconds: float, trace: bool) -> tuple:
    """Return (context, metrics, tracer or None) for one benchmark run."""
    clock = RefClock()
    units, wall = run_units(workload, seed, math.ceil(seconds / workload.unit_s), clock)
    ctx = context(workload, seed, units, trace, clock)
    if not trace:
        return ctx, end_to_end(workload, units), None
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced, traced_wall = run_units(workload, seed, len(units), RefClock(), tracer)
    finally:
        tracer.uninstall()
    if digest(traced) != ctx["digest"]:
        raise DigestMismatch(f"{workload.name}: traced {digest(traced)} != untraced {ctx['digest']}")
    metrics = tracer.layer_metrics()
    metrics.update(simulated(traced, workload.tail_pct))
    metrics["trace.overhead_ratio"] = traced_wall / wall
    return ctx, metrics, tracer
