"""Per-call split of a kernel step and of the oracle in benchmark-shaped worlds.

    python3 tools/step_split.py [--shapes NAME ...] [--steps N] [--seed S] [--against DIR] [--count]

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
`state_hash` differs between the sides.

With `--count`, the same units run untimed under `sys.settrace` (opcode
events on) and `sys.setprofile`, and each row gives, per call, the Python
calls (frames entered), C calls and opcodes its method executed, nested
calls included; `kernel` is again `step` less the rows nested in it.  The
header adds the counts of everything run per step (`all_*`: the oracle
rows and this script's loop included).  The garbage collector is off
while a unit counts: a collection lands where the process's earlier
allocations put it and runs whatever `gc.callbacks` and finalizers the
process holds (a test runner may register one), so it would count work
that is not the unit's.  The counts are exact: they repeat
to the last digit across runs and `PYTHONHASHSEED` values, so two
checkouts differ in them only where their code does.  They leave out
waiting and the cost of each opcode, so they explain a timing and screen
candidates; they measure no speed.  Counting runs about 8x as long as
timing.  With `--against DIR`, each row gives both sides' counts.

Standard library only; one process.
"""

from __future__ import annotations

import argparse
import gc
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
COUNTS = ("py_calls", "c_calls", "opcodes")
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
        self.wrap_step()
        for owner, attr, name in row_methods(self.pkg)[1:]:
            self.wrap(owner, attr, name)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


def row_methods(pkg: SimpleNamespace) -> list:
    """(owner, attribute, row name) of every method a row measures, `step`
    first.  A name is a string or a function of the call's arguments."""
    out = [
        (pkg.kernel.WorldState, "step", "step"),
        (pkg.kernel.WorldState, "is_settled", "settle_poll"),
        (pkg.kernel.WorldState, "_find_offender", "settle_scan"),
        (pkg.layer.RelayLayer, "timeout", "timeout"),
        (pkg.layer.RelayLayer, "receive", lambda a: "receive." + type(a[1]).__name__),
    ]
    for app in (pkg.apps.RandomDeliberateApp, pkg.rules.TransformApp):
        out += [(app, "on_tick", "app.tick"), (app, "on_message", "app.deliver")]
    return out + [
        (pkg.oracle.WorldCheck, "__init__", "oracle.build"),
        (pkg.oracle.WorldCheck, "is_legal", "oracle.is_legal"),
        (pkg.oracle.WorldCheck, "relay_violations", "oracle.explain"),
        (pkg.oracle, "process_components", COMPONENTS_ROW),
    ]


class Counter(Recorder):
    """Exact work per row instead of time: the Python calls (frames entered,
    a resumed generator included), C calls and opcodes executed while each
    row's method runs, nested rows included, as `Recorder` times them.

    It wraps nothing: `sys.settrace` sees a row's method by its code object
    when its frame starts and turns on opcode events (`f_trace_opcodes`) for
    every frame, and `sys.setprofile` counts the calls.  The counts need no
    timer and no sampling, so the sizes and `forced` stay unrecorded.
    A row's count includes its own method's call.  The garbage collector
    stays off while it is installed, so no collection's callbacks or
    finalizers count."""

    def __init__(self, pkg: SimpleNamespace = HERE) -> None:
        super().__init__(pkg)
        self.work: dict[str, list] = defaultdict(lambda: [0, 0, 0])  # row -> [Python calls, C calls, opcodes]
        self.total = [0, 0, 0]  # everything counted while installed
        self._saved: tuple = ()

    def install(self) -> None:
        rows = {getattr(owner, attr).__code__: name for owner, attr, name in row_methods(self.pkg)}
        work, calls, total = self.work, self.calls, self.total
        open_rows = []  # (row, counts when its frame started)
        py = cc = ops = 0

        def profile(frame, event, arg):
            nonlocal py, cc
            if event == "call":
                py += 1
            elif event == "c_call":
                cc += 1

        def opcodes(frame, event, arg):
            nonlocal ops
            if event == "opcode":
                ops += 1
            return opcodes

        def row_opcodes(frame, event, arg):
            nonlocal ops
            if event == "opcode":
                ops += 1
            elif event == "return":
                name, p, c, o = open_rows.pop()
                w = work[name]
                w[0] += py - p
                w[1] += cc - c
                w[2] += ops - o
            return row_opcodes

        def trace(frame, event, arg):
            # Called as each frame starts, before `profile` counts its call,
            # so a row counts its own method's call.
            frame.f_trace_lines = False
            frame.f_trace_opcodes = True
            name = rows.get(frame.f_code)
            if name is None:
                return opcodes
            if not isinstance(name, str):
                code = frame.f_code
                name = name([frame.f_locals[v] for v in code.co_varnames[: code.co_argcount]])
            calls[name] += 1
            open_rows.append((name, py, cc, ops))
            return row_opcodes

        def settle() -> None:
            for i, n in enumerate((py, cc, ops)):
                total[i] += n

        self._saved = (sys.gettrace(), sys.getprofile(), gc.isenabled(), settle)
        gc.disable()
        sys.setprofile(profile)
        sys.settrace(trace)

    def uninstall(self) -> None:
        trace, profile, collecting, settle = self._saved
        sys.settrace(trace)
        sys.setprofile(profile)
        if collecting:
            gc.enable()
        settle()


def per_call_counts(counter: Counter) -> dict[str, tuple]:
    """Row name -> (calls, Python calls, C calls and opcodes per call); the
    rows and their nesting as in `per_call`."""
    work = counter.work
    nested = ["timeout"] + sorted(k for k in work if k.startswith("receive.")) + ["app.deliver", "app.tick"]
    out = {}
    for name in ["step", "kernel"] + nested + ["settle_poll", "settle_scan", *ORACLE_ROWS, COMPONENTS_ROW]:
        if name == "kernel":
            counts = [work["step"][i] - sum(work[k][i] for k in nested if k in work) for i in range(3)]
            calls = counter.calls["step"]
        elif name in work:
            counts, calls = work[name], counter.calls[name]
        else:
            continue
        out[name] = (calls, *(n / calls for n in counts))
    return out


def count_columns(sides: int) -> list[str]:
    prefixes = ("", "against_")[:sides]
    return ["call", "calls", *(f"{p}calls" for p in prefixes[1:])] + [f"{p}{what}" for p in prefixes for what in COUNTS]


def count_rows(counters: tuple) -> list[list[str]]:
    """One row per call: the calls, then each side's Python calls, C calls
    and opcodes per call."""
    sides = [per_call_counts(c) for c in counters]
    out = []
    for name, (calls, *work) in sides[0].items():
        cells = [str(calls)] + [f"{v:.2f}" for v in work]
        for other in sides[1:]:
            other_calls, *other_work = other.get(name, (0, 0.0, 0.0, 0.0))
            cells[1:1] = [str(other_calls)]
            cells += [f"{v:.2f}" for v in other_work]
        out.append([name] + cells)
    return out


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


def split(shape: str, seed: int, steps: int, against: Optional[SimpleNamespace] = None, kind=Recorder) -> tuple:
    """Run the shape's units here and, given `against`, alternately under it
    too, each side measured by a `kind` (a `Recorder` or a `Counter`).
    Returns each side's recorder, each side's list of one recorder per
    unit, and the indexes of the units whose final state hashes differ."""
    recs = (kind(),) if against is None else (kind(), kind(against))
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
    parser.add_argument("--count", action="store_true", help="count calls and opcodes instead of timing")
    args = parser.parse_args(argv)
    if args.steps < 1:
        parser.error("--steps: N must be at least 1")
    if args.against is not None and not (args.against / "src" / "relaysim" / "__init__.py").is_file():
        parser.error(f"--against: {args.against} holds no src/relaysim package")
    against = load_package(args.against.resolve()) if args.against is not None else None
    status = 0
    for shape in args.shapes:
        recs, units, mismatched = split(shape, args.seed, args.steps, against, Counter if args.count else Recorder)
        rec = recs[0]
        for unit in mismatched:
            print(f"MISMATCH shape={shape} unit={unit}: the final state hashes differ")
            status = 1
        if args.count:
            table = [count_columns(len(recs))] + count_rows(recs)
            # Everything counted per step, the oracle and this script's loop
            # around the steps included.
            head = f" units={len(units[0])}" + "".join(
                f" {prefix}all_{what}={n / r.calls['step']:.2f}"
                for r, prefix in zip(recs, ("", "against_"))
                for what, n in zip(COUNTS, r.total)
            )
        else:
            forced = [f"{r.forced / (r.samples or 1):.3f}" for r in recs]
            if against is None:
                table, head = [list(COLUMNS)] + rows(rec), f" forced={forced[0]}"
            else:
                table = [list(AGAINST_COLUMNS)] + against_rows(recs, units)
                head = f" units={len(units[0])} forced={forced[0]} against_forced={forced[1]}"
            n = rec.samples or 1
            procs, relays, inflight = (v / n for v in rec.size)
            head += f" processes={procs:.1f} relays={relays:.1f} inflight={inflight:.1f}"
        print(f"shape={shape} steps={rec.calls['step']}{head} illegal={rec.illegal}")
        width = 18 if args.count else 14
        for name, *cells in table:
            print(f"{name:<22}" + "".join(f"{c:>{width}}" for c in cells))
    return status


if __name__ == "__main__":
    sys.exit(main())
