"""Span recording around relaysim's public entry points.

The tracer patches functions and methods of the relaysim modules at run
time, records one span per call (name, start, end, parent span, run id) in
flat arrays, and puts every original back on `uninstall`.  Nothing under
`src/` knows about it.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import statistics
from array import array
from collections import defaultdict
from time import perf_counter

from relaysim import apps, core, kernel, layer, oracle, rules

RECEIVE_TYPES = ("Transmit", "Ping", "ProbeFail", "NotAuthorized", "InRelayClosed", "OutRelayClosed")
PRIMITIVES = ("send", "new_relay", "merge", "delete_relay")
_REJECTIONS = (core.NotAuthorized, core.OutRelayClosed)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.run = array("q")
        self.notes: dict[str, list] = defaultdict(list)  # span name -> values read at calls
        self.world_samples: list[tuple[int, int, int]] = []
        self.run_id = 0
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, owner, attr: str, name, before=None, after=None) -> None:
        """Replace `owner.attr` with a recording wrapper.

        `name` is a span name or a function of the call's arguments.
        `before(args)` runs ahead of the call; `after(args, pre, result)`
        runs after it and its value is stored as the span's note.  Both
        only read state, so a traced run follows the untraced trajectory.
        """
        original = getattr(owner, attr)
        fixed = None if callable(name) else self._id(name)
        stack, starts, ends = self._stack, self.start, self.end

        def traced(*args, **kwargs):
            idx = len(starts)
            nid = fixed if fixed is not None else self._id(name(args))
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.run.append(self.run_id)
            ends.append(0.0)
            pre = before(args) if before else None
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if after:
                note = after(args, pre, result)
                if note is not None:
                    self.notes[self.names[nid]].append(note)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every measured entry point."""
        W = kernel.WorldState
        self.wrap(W, "step", "kernel.step")
        self.wrap(W, "is_settled", "kernel.is_settled")
        self.wrap(kernel, "random_connected_world", "kernel.build")
        self.wrap(kernel, "adversarial_init", "kernel.build")
        self.wrap(rules, "build_simple_realization", "kernel.build")

        L = layer.RelayLayer
        self.wrap(L, "timeout", "layer.timeout",
                  before=lambda a: len(a[0].relays), after=lambda a, pre, res: pre)
        self.wrap(
            L, "receive", lambda a: "layer.receive." + type(a[1]).__name__,
            before=lambda a: len(a[0].layer_buf),
            after=_transmit_accepted,
        )
        for prim in PRIMITIVES:
            self.wrap(L, prim, "layer." + prim)

        for app in (apps.RandomDeliberateApp, rules.TransformApp):
            self.wrap(app, "on_tick", "apps.tick")
            self.wrap(app, "on_message", "apps.deliver")

        self.wrap(oracle.WorldCheck, "__init__", "oracle.check_build",
                  after=lambda a, pre, res: len(a[0].relays))
        self.wrap(oracle.WorldCheck, "is_legal", "oracle.is_legal")
        self.wrap(oracle, "process_components", "oracle.graph")

        self.wrap(rules, "plan_transform", "rules.plan", after=lambda a, pre, res: len(res.steps))
        self.wrap(rules, "execute_plan", "rules.execute")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def sample_world(self, world) -> None:
        self.world_samples.append(world_size(world))

    # -- output --------------------------------------------------------------

    def write_csv(self, path) -> None:
        with open(path, "w") as out:
            out.write("index,name,start_us,end_us,parent,run\n")
            t0 = self.start[0] if self.start else 0.0
            for i in range(len(self.start)):
                out.write(
                    f"{i},{self.names[self.name_id[i]]},{(self.start[i] - t0) * 1e6:.1f},"
                    f"{(self.end[i] - t0) * 1e6:.1f},{self.parent[i]},{self.run[i]}\n"
                )

    def layer_metrics(self) -> dict:
        """Per-layer figures from the recorded spans (see BENCHMARK.json)."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        durations, selfs = defaultdict(list), defaultdict(list)
        for i in range(n):
            name = self.names[self.name_id[i]]
            durations[name].append(dur[i])
            selfs[name].append(dur[i] - child[i])

        m: dict[str, float] = {}
        steps = durations["kernel.step"]
        m["kernel.step_calls"] = len(steps)
        m["kernel.step_us_p50"] = us(percentile(steps, 50))
        m["kernel.step_us_p99"] = us(percentile(steps, 99))
        m["kernel.self_us_per_step"] = us(mean(selfs["kernel.step"]))
        procs, relays, inflight = zip(*self.world_samples) if self.world_samples else ((0,), (0,), (0,))
        m["kernel.inflight_p50"] = percentile(inflight, 50)
        m["kernel.inflight_max"] = max(inflight)
        m["kernel.relays_p50"] = percentile(relays, 50)
        m["kernel.processes"] = percentile(procs, 50)
        m["kernel.is_settled_calls"] = len(durations["kernel.is_settled"])
        m["kernel.is_settled_us_p50"] = us(percentile(durations["kernel.is_settled"], 50))
        m["kernel.build_s"] = percentile(durations["kernel.build"], 50)

        timeouts = durations["layer.timeout"]
        m["layer.timeout_calls"] = len(timeouts)
        m["layer.timeout_us_p50"] = us(percentile(timeouts, 50))
        m["layer.timeout_us_p99"] = us(percentile(timeouts, 99))
        m["layer.timeout_busy_s"] = sum(timeouts)
        m["layer.timeout_relays_p50"] = percentile(self.notes["layer.timeout"], 50)
        receive_busy = 0.0
        for t in RECEIVE_TYPES:
            d = durations["layer.receive." + t]
            m["layer.receive_calls." + t] = len(d)
            m["layer.receive_us_p50." + t] = us(percentile(d, 50))
            receive_busy += sum(d)
        m["layer.receive_busy_s"] = receive_busy
        accepted = self.notes["layer.receive.Transmit"]
        m["layer.transmit_accept_ratio"] = sum(accepted) / len(accepted) if accepted else 0.0
        prim = [d for p in PRIMITIVES for d in durations["layer." + p]]
        m["layer.primitive_calls"] = len(prim)
        m["layer.primitive_us"] = us(mean(prim))

        m["apps.tick_calls"] = len(durations["apps.tick"])
        m["apps.tick_self_us"] = us(mean(selfs["apps.tick"]))
        m["apps.deliveries"] = len(durations["apps.deliver"])

        builds, legal = durations["oracle.check_build"], durations["oracle.is_legal"]
        m["oracle.check_calls"] = len(builds)
        m["oracle.check_build_us_p50"] = us(percentile(builds, 50))
        m["oracle.is_legal_us_p50"] = us(percentile(legal, 50))
        m["oracle.check_relays_p50"] = percentile(self.notes["oracle.check_build"], 50)
        m["oracle.busy_s"] = sum(builds) + sum(legal)
        graphs = durations["oracle.graph"]
        m["oracle.graph_calls"] = len(graphs)
        m["oracle.graph_us_p50"] = us(percentile(graphs, 50))
        m["oracle.graph_busy_s"] = sum(graphs)

        plans = durations["rules.plan"]
        m["rules.plan_calls"] = len(plans)
        m["rules.plan_us_p50"] = us(percentile(plans, 50))
        m["rules.plan_len_p50"] = percentile(self.notes["rules.plan"], 50)
        m["rules.execute_self_s"] = sum(selfs["rules.execute"])
        return m


def _transmit_accepted(args, buf_len, result):
    layer_, message = args
    if not isinstance(message, core.Transmit):
        return None
    return not any(isinstance(e.message, _REJECTIONS) for e in layer_.layer_buf[buf_len:])


def world_size(world) -> tuple[int, int, int]:
    """(processes, relays, in-flight messages) of a world."""
    relays = 0
    inflight = len(world.orphan_out)
    for lay in world.layers.values():
        inflight += len(lay.layer_buf)
        for relay in lay.relays.values():
            relays += 1
            inflight += len(relay.buf)
    return len(world.processes), relays, inflight


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    values = sorted(values)
    if not values:
        return 0
    rank = max(1, -(-len(values) * pct // 100))
    return values[int(rank) - 1]


def mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def us(seconds: float) -> float:
    return seconds * 1e6
