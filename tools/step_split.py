"""Per-call split of a kernel step and of the oracle in benchmark-shaped worlds.

    python3 tools/step_split.py [--shapes NAME ...] [--steps N] [--seed S] [--against DIR]

For each shape (default: transform sparse_large dense_repair closure) the
script builds worlds shaped like the benchmark workload of that name,
untimed, and then runs N kernel steps (default 30,000) with these calls
timed:

- `step`: one `WorldState.step`, the rows from `kernel` to `app.tick`
  included;
- `kernel`: `step` less every wrapped call nested in it: the pick, the
  dispatch, the buffer removal, the holder and count updates, the queue
  merge and append, and the trace check.  It reads no kernel method but
  `step`, so it means the same in a checkout that splits its step into
  other methods.
  An emission counts in the row of the call that makes it;
- `timeout`: one run of the repair loop (`RelayLayer.timeout`);
- `receive.<Type>`: one message delivered to a relay layer, by type;
- `app.deliver`: one application invocation delivered at a sink;
- `app.tick`: one application action;
- `settle_poll`: one `WorldState.is_settled` call, the predicate that
  `rules.execute_plan` hands to `run_until` (transform only).  It runs
  after each step, outside it;
- `settle_scan`: one full scan for unsettled state
  (`WorldState._find_offender`), which a poll runs when its witness no
  longer holds; `calls` is the exact number of full scans (transform
  only; nested in `settle_poll`);
- `oracle.components`: one `oracle.process_components` call, the
  connectivity check the transform benchmark runs after each plan step
  through `execute_plan`'s `on_step` hook (transform only; outside the
  steps);
- `oracle.build`, `oracle.is_legal`, `oracle.explain`: a
  `WorldCheck(world)`, its `is_legal()`, and one `relay_violations` call
  on a second fresh check, which explains every relay (closure,
  sparse_large and dense_repair).  The state is checked between steps,
  outside them, after every step (closure), every 50 timed steps
  (dense_repair) or every 1,000 (sparse_large).

Each row gives the calls, the mean microseconds per call and the summed
time as a share of the summed `step` time.  A header line per shape gives
the mean world size over the timed steps: processes, relays and messages
in flight, sampled every 16 steps; `forced`, the share of those sampled
steps whose pick drew no bits from `world.rng` (a forced pick, read from
the rng state before and after the step, outside the timed span, so it
reads no scheduler structure); and how many checked states were illegal.  The shapes:

- transform: random 6-8 process multigraph pairs, each source realized and
  settled, then the plan to its target executed with the connectivity
  check after each plan step, one unit after another until N steps ran
  (the planning and the settling before it are untimed);
- sparse_large: one 256-process sparse world under `RandomDeliberateApp`,
  1,000 untimed warm-up steps, then N steps in units of 3,000;
- dense_repair: adversarial `mixed` starts of 4 processes with 96 relays
  and 48 messages, 3,000 steps each, new worlds until N steps ran;
- closure: `random_connected_world(S + i, 3, extra_edges=1, chains=0)`
  for unit i, 10,000 steps each, under `RandomDeliberateApp(max_relays=3)`.

Every row times one method, which the timers wrap on its class or module
from outside `src/` and put back afterwards; they only read state, so
every trajectory is the untimed one.  Host seconds swing with the host:
compare the rows of one run with each other, and two runs only side by
side on one host.

With `--against DIR`, the script also imports `DIR/src/relaysim`, a second
checkout (say, the parent commit), as a package of another name and runs
every unit under both, alternating which side goes first.  Each row then
gives both sides' calls and microseconds per call and the quartiles, over
the units, of this checkout's time per call over DIR's, so both sides see
the same host minutes.  The exit status is 1 when a unit's final
`state_hash` differs between the sides.  Standard library only; one
process.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Optional

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bench_pairs import quartiles  # noqa: E402
from relaysim import apps, kernel, layer, oracle, rules  # noqa: E402

COLUMNS = ("call", "calls", "us_per_call", "pct_of_step")
AGAINST_COLUMNS = ("call", "calls", "against_calls", "us_per_call", "against_us", "ratio_q1", "ratio_p50", "ratio_q3")
SHAPES = ("transform", "sparse_large", "dense_repair", "closure")
SAMPLE_EVERY = 16
UNIT_STEPS = 3000
CLOSURE_UNIT_STEPS = 10_000
ORACLE_ROWS = ("oracle.build", "oracle.is_legal", "oracle.explain")
COMPONENTS_ROW = "oracle.components"
_MISSING = object()
_MODULES = ("apps", "kernel", "layer", "oracle", "rules")
HERE = SimpleNamespace(apps=apps, kernel=kernel, layer=layer, oracle=oracle, rules=rules)


def load_package(root: Path, name: str = "against_relaysim") -> SimpleNamespace:
    """The modules of `root/src/relaysim`, imported as package `name`.  The
    package imports itself only relatively, so both copies live side by
    side in one process."""
    init = root / "src" / "relaysim" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return SimpleNamespace(**{m: importlib.import_module(f"{name}.{m}") for m in _MODULES})


class Recorder:
    """Summed seconds and calls per name, and the summed world sizes, for
    the calls of one package's modules."""

    def __init__(self, pkg: SimpleNamespace = HERE) -> None:
        self.pkg = pkg
        self.secs: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.size = [0, 0, 0]
        self.samples = 0
        self.forced = 0
        self.illegal = 0
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
        """Time `WorldState.step`, and sample the world's size and whether
        the step's pick was forced."""
        original = self.pkg.kernel.WorldState.step
        secs, calls, size = self.secs, self.calls, self.size

        def timed(world):
            sampled = (calls["step"] + 1) % SAMPLE_EVERY == 0
            if sampled:
                state = world.rng.getstate()
            t0 = perf_counter()
            original(world)
            secs["step"] += perf_counter() - t0
            calls["step"] += 1
            if sampled:
                self.forced += world.rng.getstate() == state
                for i, v in enumerate(world_size(world)):
                    size[i] += v
                self.samples += 1

        self._patch(self.pkg.kernel.WorldState, "step", timed)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        pkg = self.pkg
        self.wrap_step()
        self.wrap(pkg.kernel.WorldState, "is_settled", "settle_poll")
        self.wrap(pkg.kernel.WorldState, "_find_offender", "settle_scan")
        self.wrap(pkg.layer.RelayLayer, "timeout", "timeout")
        self.wrap(pkg.layer.RelayLayer, "receive", lambda a: "receive." + type(a[1]).__name__)
        for app in (pkg.apps.RandomDeliberateApp, pkg.rules.TransformApp):
            self.wrap(app, "on_tick", "app.tick")
            self.wrap(app, "on_message", "app.deliver")
        self.wrap(pkg.oracle.WorldCheck, "__init__", "oracle.build")
        self.wrap(pkg.oracle.WorldCheck, "is_legal", "oracle.is_legal")
        self.wrap(pkg.oracle.WorldCheck, "relay_violations", "oracle.explain")
        self.wrap(pkg.oracle, "process_components", COMPONENTS_ROW)

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


# Each shape runs its timed units one at a time and yields each unit's
# final world.


def transform(rec: Recorder, seed: int, steps: int):
    kernel, oracle, rules = rec.pkg.kernel, rec.pkg.oracle, rec.pkg.rules

    def on_step(w, i, step):
        # The benchmark's per-plan-step connectivity check, looked up per
        # call so the timer sees it.
        oracle.process_components(w)

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
        run_timed(rec, lambda: rules.execute_plan(world, plan, on_step=on_step))
        yield world


def deliberate(rec: Recorder, world, max_relays: int):
    """`world`, with a `RandomDeliberateApp(max_relays)` on every process."""
    for proc in world.processes.values():
        proc.app = rec.pkg.apps.RandomDeliberateApp(max_relays=max_relays)
    return world


def checked_run(rec: Recorder, world, steps: int, every: int) -> None:
    """`steps` steps of `world`, its state checked after every `every`-th:
    built, decided and, on a second fresh check, explained."""
    check = rec.pkg.oracle.WorldCheck
    for i in range(1, steps + 1):
        world.step()
        if i % every == 0:
            rec.illegal += not check(world).is_legal()
            fresh = check(world)
            fresh.relay_violations(next(iter(fresh.relays), None))


def sparse_large(rec: Recorder, seed: int, steps: int):
    world = deliberate(rec, rec.pkg.kernel.random_connected_world(seed, 256, 128, 16), 8)
    world.run(1000)
    while rec.calls["step"] < steps:
        run_timed(rec, lambda: checked_run(rec, world, min(UNIT_STEPS, steps - rec.calls["step"]), 1000))
        yield world


def dense_repair(rec: Recorder, seed: int, steps: int):
    kernel = rec.pkg.kernel
    index = 0
    while rec.calls["step"] < steps:
        world = kernel.adversarial_init(kernel.derive_seed("step_split", seed, index), 4, 96, 48, "mixed")
        index += 1
        deliberate(rec, world, 16)
        run_timed(rec, lambda: checked_run(rec, world, min(UNIT_STEPS, steps - rec.calls["step"]), 50))
        yield world


def closure(rec: Recorder, seed: int, steps: int):
    index = 0
    while rec.calls["step"] < steps:
        world = deliberate(rec, rec.pkg.kernel.random_connected_world(seed + index, 3, extra_edges=1, chains=0), 3)
        index += 1
        run_timed(rec, lambda: checked_run(rec, world, min(CLOSURE_UNIT_STEPS, steps - rec.calls["step"]), 1))
        yield world


UNITS = {"transform": transform, "sparse_large": sparse_large, "dense_repair": dense_repair, "closure": closure}


def split(shape: str, seed: int, steps: int, against: Optional[SimpleNamespace] = None) -> tuple:
    """Run the shape's units here and, given `against`, alternately under it
    too.  Returns each side's recorder, each side's list of one recorder per
    unit, and the indexes of the units whose final state hashes differ."""
    recs = (Recorder(),) if against is None else (Recorder(), Recorder(against))
    runs = [UNITS[shape](rec, seed, steps) for rec in recs]
    units = tuple([] for _ in recs)
    mismatched = []
    while True:
        first = len(units[0]) % len(recs)  # even units run here first
        worlds = [None] * len(recs)
        for side in (first, 1 - first)[: len(recs)]:
            before = dict(recs[side].secs), dict(recs[side].calls)
            worlds[side] = next(runs[side], None)
            units[side].append(_delta(recs[side], *before))
        if any(w is None for w in worlds):
            if any(w is not None for w in worlds):
                mismatched.append(len(units[0]) - 1)
            for side_units in units:
                side_units.pop()
            return recs, units, mismatched
        if any(w.state_hash() != worlds[0].state_hash() for w in worlds[1:]):
            mismatched.append(len(units[0]) - 1)


def _delta(rec: Recorder, secs: dict, calls: dict) -> Recorder:
    """A recorder holding what `rec` recorded since it held `secs` and `calls`."""
    unit = Recorder(rec.pkg)
    for name in rec.calls:
        unit.secs[name] = rec.secs[name] - secs.get(name, 0.0)
        unit.calls[name] = rec.calls[name] - calls.get(name, 0)
    return unit


def per_call(rec: Recorder) -> dict[str, tuple[float, int, float]]:
    """Row name -> (seconds, calls, seconds per call; 0 with no calls)."""
    nested = ["timeout"] + sorted(k for k in rec.secs if k.startswith("receive.")) + ["app.deliver", "app.tick"]
    out = {}
    for name in ["step", "kernel"] + nested + ["settle_poll", "settle_scan", *ORACLE_ROWS, COMPONENTS_ROW]:
        if name == "kernel":
            secs, calls = rec.secs["step"] - sum(rec.secs[k] for k in nested), rec.calls["step"]
        elif name in rec.calls:
            secs, calls = rec.secs[name], rec.calls[name]
        else:
            continue
        out[name] = (secs, calls, secs / calls if calls else 0.0)
    return out


def rows(rec: Recorder) -> list[list[str]]:
    step_s = rec.secs["step"] or 1.0
    return [[name, str(calls), f"{each * 1e6:.2f}" if calls else "-", f"{100 * secs / step_s:.1f}"]
            for name, (secs, calls, each) in per_call(rec).items()]


def against_rows(recs: tuple, units: tuple) -> list[list[str]]:
    """One row per call: both sides' calls and us per call, and the
    quartiles over the units of this side's time per call over the other
    side's."""
    here, there = per_call(recs[0]), per_call(recs[1])
    ratios = defaultdict(list)
    for unit_here, unit_there in zip(*units):
        a, b = per_call(unit_here), per_call(unit_there)
        for name in a.keys() & b.keys():
            if a[name][1] and b[name][1] and b[name][2] > 0:
                ratios[name].append(a[name][2] / b[name][2])
    out = []
    for name, (_, calls, each) in here.items():
        q = [f"{v:.3f}" for v in quartiles(ratios[name])] if ratios[name] else ["-"] * 3
        _, other_calls, other = there.get(name, (0, 0, 0.0))
        out.append([name, str(calls), str(other_calls), f"{each * 1e6:.2f}", f"{other * 1e6:.2f}", *q])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--shapes", nargs="+", choices=SHAPES, default=list(SHAPES))
    parser.add_argument("--steps", type=int, default=30_000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--against", type=Path, metavar="DIR")
    args = parser.parse_args(argv)
    if args.steps < 1:
        parser.error("--steps: N must be at least 1")
    if args.against is not None and not (args.against / "src" / "relaysim" / "__init__.py").is_file():
        parser.error(f"--against: {args.against} holds no src/relaysim package")
    against = load_package(args.against.resolve()) if args.against is not None else None
    status = 0
    for shape in args.shapes:
        recs, units, mismatched = split(shape, args.seed, args.steps, against)
        rec = recs[0]
        forced = [f"{r.forced / (r.samples or 1):.3f}" for r in recs]
        if against is None:
            table, head = [list(COLUMNS)] + rows(rec), f" forced={forced[0]}"
        else:
            table = [list(AGAINST_COLUMNS)] + against_rows(recs, units)
            head = f" units={len(units[0])} forced={forced[0]} against_forced={forced[1]}"
        for unit in mismatched:
            print(f"MISMATCH shape={shape} unit={unit}: the final state hashes differ")
            status = 1
        n = rec.samples or 1
        procs, relays, inflight = (v / n for v in rec.size)
        print(f"shape={shape} steps={rec.calls['step']}{head} processes={procs:.1f} "
              f"relays={relays:.1f} inflight={inflight:.1f} illegal={rec.illegal}")
        for name, *cells in table:
            print(f"{name:<22}" + "".join(f"{c:>14}" for c in cells))
    return status


if __name__ == "__main__":
    sys.exit(main())
