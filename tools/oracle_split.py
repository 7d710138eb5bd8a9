"""Per-step split of a run between the kernel and the oracle.

    python3 tools/oracle_split.py [--shape SHAPE] [--seeds FIRST LAST] [--steps N]

For each seed from FIRST to LAST inclusive (default 350 353), the script
builds a world of the given shape with `RandomDeliberateApp` on every
process and runs N steps (default 10,000), timing each `world.step()`.
Every few steps it checks the state: it builds a fresh `WorldCheck(world)`
and calls `is_legal()` on it, timing the two calls apart, then asks a
second fresh check for one relay's `relay_violations`, which explains every
relay (the path `DeliveryTracker`, `valid_graph_cycle_free` and
relaybench's failure classification take).  The shapes, after the
benchmark workloads of those names:

- closure (the default): `random_connected_world(seed, 3, extra_edges=1,
  chains=0)` with `max_relays=3`, checked after every step;
- dense_repair: `adversarial_init(seed, 4, 96, 48, "mixed")` with
  `max_relays=16`, checked every 50 steps;
- sparse_large: `random_connected_world(seed, 256, 128, 16)` with
  `max_relays=8`, checked every 1,000 steps.

One row per seed gives the mean microseconds per step of `world.step()`,
the mean microseconds per check of the build, of `is_legal` and of the
explanation (its own build not counted), the mean relays and in-flight
messages of the checked states, those at the end, and how many checked
states were illegal; a last row sums the seeds (its means are over every
step, or every check, of every seed).
Standard library only; one process, seeds run one after another.  Exit
status 2, with a usage message, when FIRST exceeds LAST or N is below 1.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from relaysim.apps import RandomDeliberateApp  # noqa: E402
from relaysim.kernel import adversarial_init, random_connected_world  # noqa: E402
from relaysim.oracle import WorldCheck  # noqa: E402
from step_split import world_size  # noqa: E402

COLUMNS = ("seed", "steps", "step_us", "build_us", "is_legal_us", "explain_us",
           "relays", "inflight", "end_relays", "end_inflight", "illegal")


# shape -> (world of a seed, the apps' `max_relays`, steps from one check to the next)
SHAPES = {
    "closure": (lambda seed: random_connected_world(seed, 3, extra_edges=1, chains=0), 3, 1),
    "dense_repair": (lambda seed: adversarial_init(seed, 4, 96, 48, "mixed"), 16, 50),
    "sparse_large": (lambda seed: random_connected_world(seed, 256, 128, 16), 8, 1000),
}


def split(seed: int, steps: int, shape: str = "closure") -> dict:
    """Summed seconds of each call and summed world sizes over one run."""
    make_world, max_relays, every = SHAPES[shape]
    world = make_world(seed)
    for proc in world.processes.values():
        proc.app = RandomDeliberateApp(max_relays=max_relays)
    row = {"seed": seed, "steps": steps, "checks": 0, "step": 0.0, "build": 0.0, "is_legal": 0.0,
           "explain": 0.0, "relays": 0, "inflight": 0, "illegal": 0}
    for i in range(1, steps + 1):
        t0 = perf_counter()
        world.step()
        t1 = perf_counter()
        row["step"] += t1 - t0
        if i % every:
            continue
        t1 = perf_counter()
        check = WorldCheck(world)
        t2 = perf_counter()
        legal = check.is_legal()
        t3 = perf_counter()
        fresh = WorldCheck(world)
        first = next(iter(fresh.relays), None)
        t4 = perf_counter()
        fresh.relay_violations(first)
        t5 = perf_counter()
        row["checks"] += 1
        row["build"] += t2 - t1
        row["is_legal"] += t3 - t2
        row["explain"] += t5 - t4
        row["illegal"] += not legal
        _, relays, inflight = world_size(world)
        row["relays"] += relays
        row["inflight"] += inflight
    _, row["end_relays"], row["end_inflight"] = world_size(world)
    return row


def line(row: dict) -> list[str]:
    steps, checks = row["steps"], max(row["checks"], 1)
    return [str(row["seed"]), str(steps),
            f"{row['step'] * 1e6 / steps:.1f}", f"{row['build'] * 1e6 / checks:.1f}",
            f"{row['is_legal'] * 1e6 / checks:.1f}", f"{row['explain'] * 1e6 / checks:.1f}",
            f"{row['relays'] / checks:.1f}", f"{row['inflight'] / checks:.1f}",
            str(row["end_relays"]), str(row["end_inflight"]), str(row["illegal"])]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--shape", choices=SHAPES, default="closure")
    parser.add_argument("--seeds", type=int, nargs=2, default=(350, 353), metavar=("FIRST", "LAST"))
    parser.add_argument("--steps", type=int, default=10_000)
    args = parser.parse_args(argv)
    if args.seeds[0] > args.seeds[1]:
        parser.error("--seeds: FIRST must not exceed LAST")
    if args.steps < 1:
        parser.error("--steps: N must be at least 1")
    rows = [split(seed, args.steps, args.shape) for seed in range(args.seeds[0], args.seeds[1] + 1)]
    sums = ("steps", "checks", "step", "build", "is_legal", "explain", "relays", "inflight", "illegal")
    total = {k: sum(r[k] for r in rows) for k in sums}
    total.update(seed="all", end_relays="-", end_inflight="-")
    table = [list(COLUMNS)] + [line(r) for r in rows] + [line(total)]
    for cells in table:
        print("  ".join(f"{c:>12}" for c in cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
