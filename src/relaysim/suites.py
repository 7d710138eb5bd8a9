"""Property suites: seeded, reproducible checks of every guarantee the
relay layer makes, at desk scale.

Each suite returns a report with one summary line per property and carries
the cycle-freeness tally of every state it sampled through the oracle.
Suites are deterministic: identical seeds produce byte-identical traces.

A suite is a run function mapped over its seeds plus a summary of the
results; `_suite` does the mapping, the sums and the report.
"""

from __future__ import annotations

import os
import random
import traceback
from collections import Counter
from dataclasses import dataclass
from functools import partial
from multiprocessing import Pool
from typing import Optional

from . import oracle, rules
from .apps import RandomDeliberateApp
from .core import RelayRef
from .departure import build_departure_world
from .kernel import FAIRNESS_BOUND, ProcessContext, WorldState, adversarial_init, random_connected_world

CLOSURE_STEPS = 10_000
CLOSURE_WINDOW = 10 * FAIRNESS_BOUND


@dataclass
class SuiteReport:
    name: str
    passed: bool
    lines: list
    cycle_checks: int = 0
    cycle_violations: int = 0
    trace: str = ""


def _cycles(flags: list) -> dict:
    """Result fields of the cycle-freeness samples of a run, one flag per
    sampled state: whether its valid relay graph was cycle-free.  Each flag
    is taken when its state is sampled, as a WorldCheck reads live relays."""
    return {"cycle_checks": len(flags), "cycle_violations": flags.count(False)}


def _end_sample(world: WorldState) -> dict:
    """Result fields of one cycle-freeness sample taken at the end of a run."""
    return _cycles([oracle.WorldCheck(world).valid_graph_cycle_free()])


def _connected(world: WorldState) -> bool:
    return len(oracle.process_components(world)) == 1


def _pool_map(fn, args):
    workers = min(os.cpu_count() or 1, len(args))
    if workers < 2 or len(args) < 4:
        return [fn(a) for a in args]
    with Pool(workers) as pool:
        return pool.map(fn, args, chunksize=max(1, len(args) // (workers * 4)))


def _guarded(run, arg) -> dict:
    """`run(arg)`, or for a run that raises, a result naming the exception;
    its traceback goes to standard error."""
    try:
        return run(arg)
    except Exception as e:
        traceback.print_exc()
        return {"raised": type(e).__name__}


def _report(name: str, passed: bool, fields: str, cycle_checks=0, cycle_violations=0, trace="") -> SuiteReport:
    line = f"criterion={name} {fields} pass={'yes' if passed else 'no'}"
    return SuiteReport(name, passed, [line], cycle_checks, cycle_violations, trace)


def _suite(name: str, run, args, summarise) -> SuiteReport:
    """Map `run` over `args` and report the results, merged in `args` order.

    `summarise(total, results)` returns `(passed, "field=value ...")`; `total`
    holds the sum of every numeric result field over all runs (a bool counts
    the runs where it is true).  The cycle tallies are summed and the runs'
    `trace` and `hash` fields joined into the report's trace.  A run that
    raises counts as failed: its result holds only the exception's type,
    and the line gains `raised=<runs>:<first type>` and fails.
    """
    results = _pool_map(partial(_guarded, run), args)
    total = Counter()
    for r in results:
        for k, v in r.items():
            if not isinstance(v, str):
                total[k] += v
    passed, fields = summarise(total, results)
    raised = [r["raised"] for r in results if "raised" in r]
    if raised:
        passed, fields = False, f"{fields} raised={len(raised)}:{raised[0]}"
    trace = "\n".join(r[k] for r in results for k in ("trace", "hash") if k in r)
    return _report(name, passed, fields, total["cycle_checks"], total["cycle_violations"], trace)


# ---------------------------------------------------------------------------
# 1. Delivery: payloads sent via oracle-valid relays always reach the
#    process the relay sinks at.


class DeliveryTracker:
    """Harness-side ledger of payload sends and receipts.

    At send time it asks the oracle whether the sending relay was valid and
    freezes the expected receiver; the application itself never sees any of
    this.
    """

    def __init__(self, world: WorldState) -> None:
        self.world = world
        self.sent: dict = {}      # marker -> (expected pid, valid at send)
        self.received: dict = {}  # marker -> pid

    def on_send(self, ctx: ProcessContext, ref: RelayRef) -> Optional[tuple]:
        relay = self.world.find_relay(ref.relay_id)
        if relay is None:
            return None
        marker = (ctx.pid, len(self.sent))
        self.sent[marker] = (relay.sink_rid, oracle.WorldCheck(self.world).relay_valid(relay.id))
        return marker

    def on_receive(self, ctx: ProcessContext, marker: tuple) -> None:
        self.received.setdefault(marker, ctx.pid)

    def undelivered_valid(self) -> list:
        return [
            marker
            for marker, (_, ok) in self.sent.items()
            if ok and marker not in self.received
        ]

    def misdelivered(self) -> list:
        out = []
        for marker, pid in self.received.items():
            expected, ok = self.sent.get(marker, (None, False))
            if ok and pid != expected:
                out.append((marker, pid, expected))
        return out


def _delivery_run(seed: int) -> dict:
    world = random_connected_world(seed, 4, extra_edges=2, chains=1)
    tracker = DeliveryTracker(world)
    apps = []
    for pid in world.processes:
        app = RandomDeliberateApp(tracker=tracker, max_relays=4)
        world.processes[pid].app = app
        apps.append(app)
    world.trace = []
    world.run(1500)
    for app in apps:
        app.frozen = True
    world.run_until(lambda w: not tracker.undelivered_valid(), 40_000)
    return {
        **_end_sample(world),
        "undelivered": len(tracker.undelivered_valid()),
        "misdelivered": len(tracker.misdelivered()),
        "tracked": len(tracker.sent),
        "trace": "\n".join(world.trace),
        "hash": world.state_hash(),
    }


def run_delivery(runs: int = 100) -> SuiteReport:
    def summarise(t, results):
        passed = t["undelivered"] == 0 and t["misdelivered"] == 0 and t["tracked"] > 0
        return passed, (
            f"runs={len(results)} tracked_sends={t['tracked']} "
            f"undelivered={t['undelivered']} misdelivered={t['misdelivered']}"
        )

    return _suite("delivery", _delivery_run, range(100, 100 + runs), summarise)


# ---------------------------------------------------------------------------
# 2. Closure: from a legal state under a deliberate application, every
#    reachable state is legal.


def _closure_run(seed: int) -> dict:
    world = random_connected_world(seed, 3, extra_edges=1, chains=0)
    for pid in world.processes:
        world.processes[pid].app = RandomDeliberateApp(max_relays=3)
    violations = 0 if oracle.is_legal(world) else 1
    flags = []
    for step in range(CLOSURE_STEPS):
        world.step()
        check = oracle.WorldCheck(world)
        if not check.is_legal():
            violations += 1
        if step % 500 == 0:
            flags.append(check.valid_graph_cycle_free())
    return {**_cycles(flags), "violations": violations, "hash": world.state_hash()}


def run_closure() -> SuiteReport:
    def summarise(t, results):
        return t["violations"] == 0, (
            f"runs={len(results)} steps_each={CLOSURE_STEPS} illegal_states={t['violations']}"
        )

    return _suite("closure", _closure_run, range(300, 400), summarise)


# ---------------------------------------------------------------------------
# 3. Convergence: any finitely corrupted start reaches a legal state within
#    budget and stays legal through a closure window.


def _convergence_run(seed: int) -> dict:
    world = adversarial_init(seed, 4, 12, 15, "mixed")
    for pid in world.processes:
        world.processes[pid].app = RandomDeliberateApp(max_relays=4)
    res = world.run_until(oracle.is_legal, 60_000)
    flicker = 0
    sample = {}
    if res.reached:
        for _ in range(CLOSURE_WINDOW):
            world.step()
            if not oracle.is_legal(world):
                flicker += 1
        sample = _end_sample(world)
    return {**sample, "converged": res.reached, "steps": res.steps, "flicker": flicker, "hash": world.state_hash()}


def run_convergence(runs: int = 200) -> SuiteReport:
    def summarise(t, results):
        n = len(results)
        return t["converged"] == n and t["flicker"] == 0, (
            f"runs={n} converged={t['converged']} max_steps={max((r.get('steps', 0) for r in results), default=0)} "
            f"window={CLOSURE_WINDOW} window_violations={t['flicker']}"
        )

    return _suite("convergence", _convergence_run, range(500, 500 + runs), summarise)


# ---------------------------------------------------------------------------
# 4. Shutdown: once every process has stopped, no relay layer survives.


def _shutdown_run(seed: int) -> dict:
    world = random_connected_world(seed, 5, extra_edges=3, chains=2)
    for pid in world.processes:
        world.processes[pid].app = RandomDeliberateApp(send_refs="never", max_relays=3)
    world.run(300)
    for pid in world.processes:
        world.processes[pid].app = None
        world.run(10)
        world.ctx(pid).stop()
    world.run_until(lambda w: not w.layers, 60_000)
    return {"survivors": len(world.layers), "hash": world.state_hash()}


def run_shutdown() -> SuiteReport:
    def summarise(t, results):
        return t["survivors"] == 0, f"runs={len(results)} surviving_layers={t['survivors']}"

    return _suite("shutdown", _shutdown_run, range(900, 1000), summarise)


# ---------------------------------------------------------------------------
# 5. Connectivity preservation: each rule application keeps the processes
#    weakly connected.


def _applicable_rules(world: WorldState):
    """All rule instances whose preconditions hold right now."""
    out = []
    for pid in world.processes:
        layer = world.layer_of(pid)
        if layer is None:
            continue
        refs = layer.get_relays()
        non_sink = [r for r in refs if not layer.is_sink(r)]
        for i, r in enumerate(non_sink):
            for s in refs:
                if s != r:
                    out.append(("introduction", pid, r, s))
            for s in non_sink[i + 1:]:
                if layer.same_target(r, s) and layer.incoming(r) == 0 and layer.incoming(s) == 0:
                    out.append(("fusion", pid, r, s))
            if layer.incoming(r) == 0:
                for s in refs:
                    if s != r:
                        out.append(("reversal", pid, r, s))
    return out


def _connectivity_run(seed: int) -> dict:
    rng = random.Random(seed)
    world = random_connected_world(seed, 3 + seed % 4, extra_edges=2, chains=1)
    world.run_until(lambda w: w.is_settled(), 8_000)
    bad = 0 if _connected(world) else 1
    applied = 0
    while not bad and applied < 10:
        candidates = _applicable_rules(world)
        if not candidates:
            break
        kind, pid, r, s = candidates[rng.randrange(len(candidates))]
        getattr(rules, "relay_" + kind)(world, pid, r, s)
        applied += 1
        world.run_until(lambda w: w.is_settled(), 8_000)
        bad = 0 if _connected(world) else 1
    return {**_end_sample(world), "applied": applied, "violations": bad, "hash": world.state_hash()}


def run_connectivity() -> SuiteReport:
    # 100 worlds of up to 10 applications each; 90% of the 1,000 must run.
    def summarise(t, results):
        passed = t["violations"] == 0 and t["applied"] >= 900
        return passed, f"applications={t['applied']} disconnections={t['violations']}"

    return _suite("connectivity", _connectivity_run, range(1200, 1300), summarise)


# ---------------------------------------------------------------------------
# 6. Universality: any weakly connected topology transforms into any other.


def _universality_run(seed: int) -> dict:
    n = 3 + seed % 4
    source = rules.random_multigraph(seed * 2 + 1, n, extra=2)
    target = rules.random_multigraph(seed * 2 + 2, n, extra=2)
    world = rules.build_simple_realization(seed, source)
    world.run_until(lambda w: w.is_settled(), 8_000)
    plan = rules.plan_transform(world, target)
    disconnections = []

    def on_step(w, i, step):
        if not _connected(w):
            disconnections.append(i)

    rules.execute_plan(world, plan, on_step=on_step)
    return {
        **_end_sample(world),
        "match": rules.cpg(world).edges == target.edges,
        "disconnections": len(disconnections),
        "hash": world.state_hash(),
    }


def run_universality() -> SuiteReport:
    def summarise(t, results):
        n = len(results)
        return t["match"] == n and t["disconnections"] == 0, (
            f"pairs={n} matched={t['match']} disconnections={t['disconnections']}"
        )

    return _suite("universality", _universality_run, range(1400, 1450), summarise)


# ---------------------------------------------------------------------------
# 7. Emulation: the rule set reproduces each classical process rule's exact
#    effect on the process graph.


def _emulation_case(args) -> dict:
    rule, seed = args
    for attempt in range(8):
        result = _emulation_attempt(rule, seed * 131 + attempt)
        if not result["skipped"]:
            return result
    return result


def _emulation_attempt(rule: str, seed: int) -> dict:
    rng = random.Random(seed)
    n = 3 + seed % 3
    if rule == "fusion":
        shared = seed % 2 == 0
        graph = rules.random_multigraph(seed, n, extra=1)
        u, v = sorted(graph.edges)[rng.randrange(len(graph.edges))]
        graph = rules.ProcessMultigraph.of(graph.processes, list(graph.edges) + [(u, v)])
        world = rules.build_simple_realization(seed, graph, shared_sinks=shared)
    else:
        graph = rules.random_multigraph(seed, n, extra=1, allow_parallel=False)
        world = rules.build_simple_realization(seed, graph)
    world.run_until(lambda w: w.is_settled(), 8_000)

    init = rules.initial_slots(world)
    slot_of = {relay_id: slot for (_, slot), relay_id in init.items()}
    slots = {}
    for pid, proc in world.processes.items():
        for tgt, ref in proc.store.get("edges", []):
            slots.setdefault((pid, tgt), []).append(slot_of[ref.relay_id])

    before = Counter(rules.cpg(world).edges)
    skipped = {"ok": True, "skipped": True}

    if rule in ("introduction", "delegation"):
        # Delegation hands u's edge to w over to v, so u, v and w differ.
        cands = [
            (u, v, w) for (u, v) in slots for (u2, w) in slots
            if u2 == u and w != v and (rule == "introduction" or u not in (v, w))
        ]
        if not cands:
            return skipped
        u, v, w = sorted(cands)[rng.randrange(len(cands))]
        steps = rules.emulate_process_rule(
            rule, {"u": u, "v": v, "w": w, "u_to_v": slots[(u, v)][0], "u_to_w": slots[(u, w)][0]}
        )
        expected_add = Counter({(v, w): 1})
        expected_del = Counter({(u, w): 1} if rule == "delegation" else {})
    elif rule == "fusion":
        pair = next(((u, v) for (u, v), names in slots.items() if len(names) >= 2), None)
        if pair is None:
            return skipped
        u, v = pair
        a, b = slots[pair][:2]
        same = world.layer_of(u).same_target(RelayRef(init[(u, a)]), RelayRef(init[(u, b)]))
        steps = rules.emulate_process_rule("fusion", {"u": u, "v": v, "slot_a": a, "slot_b": b, "same_target": same})
        expected_add, expected_del = Counter(), Counter({(u, v): 1})
    else:
        pair = sorted(slots)[rng.randrange(len(slots))]
        u, v = pair
        steps = rules.emulate_process_rule("reversal", {"u": u, "v": v, "u_to_v": slots[pair][0]})
        expected_add, expected_del = Counter({(v, u): 1}), Counter({(u, v): 1})

    rules.execute_plan(world, rules.TransformPlan(steps, init))
    after = Counter(rules.cpg(world).edges)
    return {"ok": (after - before) == expected_add and (before - after) == expected_del, "skipped": False}


def run_emulation() -> SuiteReport:
    cases = [(rule, seed) for rule in ("introduction", "delegation", "fusion", "reversal") for seed in range(1600, 1625)]

    def summarise(t, results):
        executed, mismatches = len(cases) - t["skipped"], len(cases) - t["ok"]
        passed = mismatches == 0 and executed == len(cases)
        return passed, f"cases={len(cases)} executed={executed} delta_mismatches={mismatches}"

    return _suite("emulation", _emulation_case, cases, summarise)


# ---------------------------------------------------------------------------
# 8. Departure demo: leavers stop, stayers stay connected throughout.


def fdp_start(seed: int) -> tuple[int, list, list]:
    """(n, undirected edges, leavers) of the departure criterion at `seed`:
    n = 4 + seed % 5 processes, a random tree plus two random extra edges,
    1 + seed % 3 leavers."""
    rng = random.Random(seed)
    n = 4 + seed % 5
    edges = [(i, rng.randrange(i)) for i in range(1, n)]
    for _ in range(2):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v))
    return n, edges, rng.sample(range(n), 1 + seed % 3)


def depart(world: WorldState, budget: int = 40_000) -> tuple[str, int]:
    """Step a departure world and return `(outcome, steps)`.

    The end state must be reached and then kept: a run where
    `fdp_legitimate` holds within `budget` steps, and the stayers stay
    connected for `CLOSURE_WINDOW` steps more, is "ok", with the steps
    taken when it first held.  A split of the stayers of an initial
    component (`stayers_connected` fails), before or in the window, is
    "unsafe", with the steps taken by then.  A run that reaches neither
    within `budget` steps is "stuck".  The initial components are read
    from `world` as it is passed in.
    """
    initial = oracle.process_components(world)
    for step in range(budget):
        if oracle.fdp_legitimate(world, initial):
            break
        if not oracle.stayers_connected(world, initial):
            return "unsafe", step
        world.step()
    else:
        return "stuck", budget
    for held in range(1, CLOSURE_WINDOW + 1):
        world.step()
        if not oracle.stayers_connected(world, initial):
            return "unsafe", step + held
    return "ok", step


def _fdp_run(seed: int) -> dict:
    world = build_departure_world(seed, *fdp_start(seed))
    outcome, _ = depart(world)
    return {
        **_end_sample(world),
        "reached": outcome == "ok",
        "safety_violations": outcome == "unsafe",
        "hash": world.state_hash(),
    }


def run_fdp() -> SuiteReport:
    def summarise(t, results):
        n = len(results)
        return t["reached"] == n and t["safety_violations"] == 0, (
            f"runs={n} reached_legitimate={t['reached']} safety_violations={t['safety_violations']}"
        )

    return _suite("fdp", _fdp_run, range(1800, 1900), summarise)


# ---------------------------------------------------------------------------
# 9. Cycle-freeness of the valid relay graph, across a mixed state sweep.


def _cycle_run(seed: int) -> dict:
    flags = []
    world = adversarial_init(seed, 4, 12, 15, "mixed")
    for _ in range(40):
        flags.append(oracle.WorldCheck(world).valid_graph_cycle_free())
        world.run(25)
    world2 = random_connected_world(seed, 4, extra_edges=2, chains=1)
    for pid in world2.processes:
        world2.processes[pid].app = RandomDeliberateApp(max_relays=4)
    for _ in range(40):
        flags.append(oracle.WorldCheck(world2).valid_graph_cycle_free())
        world2.run(25)
    return _cycles(flags)


def run_cycle_freeness() -> SuiteReport:
    def summarise(t, results):
        checks, violations = t["cycle_checks"], t["cycle_violations"]
        return violations == 0 and checks > 0, f"sampled_states={checks} directed_cycles={violations}"

    return _suite("cycle_freeness", _cycle_run, range(2100, 2140), summarise)


# ---------------------------------------------------------------------------
# 10. Determinism: same seeds, byte-identical traces.


def run_determinism() -> SuiteReport:
    first = run_delivery(runs=12)
    second = run_delivery(runs=12)
    third = run_convergence(runs=10)
    fourth = run_convergence(runs=10)
    identical = first.trace == second.trace and first.trace != "" and third.trace == fourth.trace
    verdict = "yes" if identical else "no"
    return _report("determinism", identical, f"reruns=2 trace_bytes={len(first.trace)} identical={verdict}")


SUITES = {
    "delivery": run_delivery,
    "closure": run_closure,
    "convergence": run_convergence,
    "shutdown": run_shutdown,
    "connectivity": run_connectivity,
    "universality": run_universality,
    "emulation": run_emulation,
    "fdp": run_fdp,
    "cycle_freeness": run_cycle_freeness,
    "determinism": run_determinism,
}


def run_suite(name: str) -> SuiteReport:
    return SUITES[name]()
