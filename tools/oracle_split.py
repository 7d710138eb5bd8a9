"""Per-step split of a closure run between the kernel and the oracle.

    python3 tools/oracle_split.py [--seeds FIRST LAST] [--steps N]

For each seed from FIRST to LAST inclusive (default 350 353), the script
builds the closure criterion's world, `random_connected_world(seed, 3,
extra_edges=1, chains=0)` with `RandomDeliberateApp(max_relays=3)` on every
process, and runs N steps (default 10,000).  After each `world.step()` it
builds a fresh `WorldCheck(world)` and calls `is_legal()` on it, timing the
three calls apart.  One row per seed gives the mean microseconds per step of
each call, the mean relays and in-flight messages per step, those at the
end, and how many checked states were illegal; a last row sums the seeds
(its means are over every step of every seed).
Standard library only; one process, seeds run one after another.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from relaysim.apps import RandomDeliberateApp  # noqa: E402
from relaysim.kernel import random_connected_world  # noqa: E402
from relaysim.oracle import WorldCheck  # noqa: E402
from step_split import world_size  # noqa: E402

COLUMNS = ("seed", "steps", "step_us", "build_us", "is_legal_us",
           "relays", "inflight", "end_relays", "end_inflight", "illegal")


def split(seed: int, steps: int) -> dict:
    """Summed seconds of each call and summed world sizes over one run."""
    world = random_connected_world(seed, 3, extra_edges=1, chains=0)
    for proc in world.processes.values():
        proc.app = RandomDeliberateApp(max_relays=3)
    row = {"seed": seed, "steps": steps, "step": 0.0, "build": 0.0, "is_legal": 0.0,
           "relays": 0, "inflight": 0, "illegal": 0}
    for _ in range(steps):
        t0 = perf_counter()
        world.step()
        t1 = perf_counter()
        check = WorldCheck(world)
        t2 = perf_counter()
        legal = check.is_legal()
        t3 = perf_counter()
        row["step"] += t1 - t0
        row["build"] += t2 - t1
        row["is_legal"] += t3 - t2
        row["illegal"] += not legal
        _, relays, inflight = world_size(world)
        row["relays"] += relays
        row["inflight"] += inflight
    _, row["end_relays"], row["end_inflight"] = world_size(world)
    return row


def line(row: dict, steps: int) -> list[str]:
    per = 1e6 / steps
    return [str(row["seed"]), str(steps),
            f"{row['step'] * per:.1f}", f"{row['build'] * per:.1f}", f"{row['is_legal'] * per:.1f}",
            f"{row['relays'] / steps:.1f}", f"{row['inflight'] / steps:.1f}",
            str(row["end_relays"]), str(row["end_inflight"]), str(row["illegal"])]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs=2, default=(350, 353), metavar=("FIRST", "LAST"))
    parser.add_argument("--steps", type=int, default=10_000)
    args = parser.parse_args(argv)
    rows = [split(seed, args.steps) for seed in range(args.seeds[0], args.seeds[1] + 1)]
    total = {k: sum(r[k] for r in rows) for k in ("step", "build", "is_legal", "relays", "inflight", "illegal")}
    total.update(seed="all", end_relays="-", end_inflight="-")
    table = [list(COLUMNS)] + [line(r, args.steps) for r in rows] + [line(total, args.steps * len(rows))]
    for cells in table:
        print("  ".join(f"{c:>12}" for c in cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
