"""Per-call split of a kernel step in benchmark-shaped worlds.

    python3 tools/step_split.py [--shapes NAME ...] [--steps N] [--seed S]

For each shape (default: transform sparse_large dense_repair) the script
builds worlds shaped like the benchmark workload of that name, untimed, and
then runs N kernel steps (default 30,000) with these calls timed:

- `step`: one `WorldState.step`, everything below included;
- `pick`: the scheduler's choice of the action (`WorldState._pick`);
- `timeout`: one run of the repair loop (`RelayLayer.timeout`);
- `receive.<Type>`: one message delivered to a relay layer, by type;
- `app.deliver`: one application invocation delivered at a sink;
- `app.tick`: one application action;
- `other`: the rest of `step`, the kernel's own routing and bookkeeping;
- `settle_poll`: one poll of the plan executor's predicate, which
  `rules.execute_plan` hands to `run_until` (transform only).  It runs
  after each step, outside it.

Each row gives the calls, the mean microseconds per call and the summed
time as a share of the summed `step` time.  A header line per shape gives
the mean world size over the timed steps: processes, relays and messages
in flight, sampled every 16 steps.  The shapes:

- transform: random 6-8 process multigraph pairs, each source realized and
  settled, then the plan to its target executed, one unit after another
  until N steps ran (the planning and the settling before it are untimed);
- sparse_large: one 256-process sparse world under `RandomDeliberateApp`,
  1,000 untimed warm-up steps, then N steps;
- dense_repair: adversarial `mixed` starts of 4 processes with 96 relays
  and 48 messages, 3,000 steps each, new worlds until N steps ran.

The timers wrap the methods from outside `src/` and put every original
back afterwards; they only read state, so every trajectory is the
untimed one.  Host seconds swing with the host: compare the rows of one
run with each other, and two runs only side by side on one host.
Standard library only; one process.
"""

from __future__ import annotations

import argparse
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from relaysim import apps, kernel, layer, rules  # noqa: E402

COLUMNS = ("call", "calls", "us_per_call", "pct_of_step")
SHAPES = ("transform", "sparse_large", "dense_repair")
SAMPLE_EVERY = 16
_MISSING = object()


class Recorder:
    """Summed seconds and calls per name, and the summed world sizes."""

    def __init__(self) -> None:
        self.secs: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.size = [0, 0, 0]
        self.samples = 0
        self._patches: list = []

    def wrap(self, owner, attr: str, name) -> None:
        """Time every call of `owner.attr` under `name`, a string or a
        function of the call's arguments."""
        original = getattr(owner, attr)
        secs, calls = self.secs, self.calls

        def timed(*args):
            key = name if isinstance(name, str) else name(args)
            t0 = perf_counter()
            try:
                return original(*args)
            finally:
                secs[key] += perf_counter() - t0
                calls[key] += 1

        self._patch(owner, attr, timed)

    def wrap_step(self) -> None:
        """Time `WorldState.step` and sample the world's size."""
        original = kernel.WorldState.step
        secs, calls, size = self.secs, self.calls, self.size

        def timed(world):
            t0 = perf_counter()
            original(world)
            secs["step"] += perf_counter() - t0
            calls["step"] += 1
            if calls["step"] % SAMPLE_EVERY == 0:
                for i, v in enumerate(world_size(world)):
                    size[i] += v
                self.samples += 1

        self._patch(kernel.WorldState, "step", timed)

    def wrap_settle_poll(self) -> None:
        """Time the predicate every `run_until` call is handed."""
        original = kernel.WorldState.run_until
        secs, calls = self.secs, self.calls

        def run_until(world, predicate, max_steps):
            def poll(w):
                t0 = perf_counter()
                try:
                    return predicate(w)
                finally:
                    secs["settle_poll"] += perf_counter() - t0
                    calls["settle_poll"] += 1
            return original(world, poll, max_steps)

        self._patch(kernel.WorldState, "run_until", run_until)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        self.wrap_step()
        self.wrap_settle_poll()
        self.wrap(kernel.WorldState, "_pick", "pick")
        self.wrap(layer.RelayLayer, "timeout", "timeout")
        self.wrap(layer.RelayLayer, "receive", lambda a: "receive." + type(a[1]).__name__)
        for app in (apps.RandomDeliberateApp, rules.TransformApp):
            self.wrap(app, "on_tick", "app.tick")
            self.wrap(app, "on_message", "app.deliver")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


def world_size(world) -> tuple[int, int, int]:
    """(processes, relays, in-flight messages) of a world."""
    relays, inflight = 0, len(world.orphan_out)
    for lay in world.layers.values():
        inflight += len(lay.layer_buf)
        relays += len(lay.relays)
        for relay in lay.relays.values():
            inflight += len(relay.buf)
    return len(world.processes), relays, inflight


def run_timed(rec: Recorder, run) -> None:
    """Run `run()` with the timers installed."""
    rec.install()
    try:
        run()
    finally:
        rec.uninstall()


def transform(rec: Recorder, seed: int, steps: int) -> None:
    index = 0
    while rec.calls["step"] < steps:
        unit_seed = kernel.derive_seed("step_split", seed, index)
        n = 6 + index % 3
        index += 1
        source = rules.random_multigraph(kernel.derive_seed(unit_seed, "source"), n, extra=3)
        target = rules.random_multigraph(kernel.derive_seed(unit_seed, "target"), n, extra=3)
        world = rules.build_simple_realization(unit_seed, source)
        if not world.run_until(lambda w: w.is_settled(), 20_000).reached:
            continue
        plan = rules.plan_transform(world, target)
        run_timed(rec, lambda: rules.execute_plan(world, plan))


def sparse_large(rec: Recorder, seed: int, steps: int) -> None:
    world = kernel.random_connected_world(seed, 256, 128, 16)
    for proc in world.processes.values():
        proc.app = apps.RandomDeliberateApp(max_relays=8)
    world.run(1000)
    run_timed(rec, lambda: world.run(steps))


def dense_repair(rec: Recorder, seed: int, steps: int) -> None:
    index = 0
    while rec.calls["step"] < steps:
        world = kernel.adversarial_init(kernel.derive_seed("step_split", seed, index), 4, 96, 48, "mixed")
        index += 1
        for proc in world.processes.values():
            proc.app = apps.RandomDeliberateApp(max_relays=16)
        run_timed(rec, lambda: world.run(min(3000, steps - rec.calls["step"])))


def split(shape: str, seed: int, steps: int) -> Recorder:
    rec = Recorder()
    {"transform": transform, "sparse_large": sparse_large, "dense_repair": dense_repair}[shape](rec, seed, steps)
    return rec


def rows(rec: Recorder) -> list[list[str]]:
    step_s = rec.secs["step"] or 1.0
    inner = ["pick", "timeout"] + sorted(k for k in rec.secs if k.startswith("receive.")) + ["app.deliver", "app.tick"]
    other = step_s - sum(rec.secs[k] for k in inner)
    out = []
    for name in ["step"] + inner + ["other", "settle_poll"]:
        if name == "other":
            secs, calls = other, rec.calls["step"]
        elif name in rec.calls:
            secs, calls = rec.secs[name], rec.calls[name]
        else:
            continue
        out.append([name, str(calls), f"{secs * 1e6 / calls:.2f}" if calls else "-",
                    f"{100 * secs / step_s:.1f}"])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--shapes", nargs="+", choices=SHAPES, default=list(SHAPES))
    parser.add_argument("--steps", type=int, default=30_000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    for shape in args.shapes:
        rec = split(shape, args.seed, args.steps)
        n = rec.samples or 1
        procs, relays, inflight = (v / n for v in rec.size)
        print(f"shape={shape} steps={rec.calls['step']} processes={procs:.1f} "
              f"relays={relays:.1f} inflight={inflight:.1f}")
        for name, *cells in [list(COLUMNS)] + rows(rec):
            print(f"{name:<22}" + "".join(f"{c:>14}" for c in cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
