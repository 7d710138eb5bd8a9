"""Departure starts over a seed range: how many end well, stall or split.

    python3 tools/fdp_sweep.py [--shape fdp|wide] [--first S] [--count N]

Every run builds a clean start with `build_departure_world` and runs it
through `suites.depart`: until `fdp_legitimate` holds and then the
stayers stay connected through `suites.CLOSURE_WINDOW` more steps (ok),
until `stayers_connected` fails, before or in that window (unsafe), or
until 40,000 steps have run without reaching the end state (stuck).  The
two shapes:

- fdp: the start of the departure criterion itself (`suites.fdp_start`):
  n = 4 + seed % 5 processes, a random tree plus two random extra edges,
  1 + seed % 3 leavers.  Default seeds 1800-2399.
- wide: n = 4 + seed % 13 processes, a random tree plus `randrange(n)`
  random extra edges, 1 + seed % (n - 1) leavers.  Default seeds
  5000-5399.

The script prints one line: the shape, the seed range, the ok, stuck and
unsafe counts, then the stuck and the unsafe seeds (`-` for none).  It
exits 1 when any start is stuck or unsafe, else 0.  Standard library only;
one process.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from relaysim import suites  # noqa: E402
from relaysim.departure import build_departure_world  # noqa: E402

DEFAULT_FIRST = {"fdp": 1800, "wide": 5000}
DEFAULT_COUNT = {"fdp": 600, "wide": 400}


def wide_start(seed: int) -> tuple[int, list, list]:
    """(n, undirected edges, leavers) of the wide shape at `seed`."""
    rng = random.Random(seed)
    n = 4 + seed % 13
    edges = [(i, rng.randrange(i)) for i in range(1, n)]
    for _ in range(rng.randrange(n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v))
    return n, edges, rng.sample(range(n), 1 + seed % (n - 1))


def run(shape: str, seed: int) -> str:
    """The outcome, "ok", "stuck" or "unsafe", of the `shape` start at `seed`."""
    start = suites.fdp_start if shape == "fdp" else wide_start
    return suites.depart(build_departure_world(seed, *start(seed)))[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--shape", choices=("fdp", "wide"), default="fdp")
    parser.add_argument("--first", type=int)
    parser.add_argument("--count", type=int)
    args = parser.parse_args(argv)
    if args.count is not None and args.count < 1:
        parser.error("--count: N must be at least 1")
    first = DEFAULT_FIRST[args.shape] if args.first is None else args.first
    count = DEFAULT_COUNT[args.shape] if args.count is None else args.count
    seeds: dict[str, list[int]] = {"ok": [], "stuck": [], "unsafe": []}
    for seed in range(first, first + count):
        seeds[run(args.shape, seed)].append(seed)
    listed = {k: ",".join(map(str, v)) or "-" for k, v in seeds.items()}
    print(f"shape={args.shape} seeds={first}-{first + count - 1} ok={len(seeds['ok'])} "
          f"stuck={len(seeds['stuck'])} unsafe={len(seeds['unsafe'])} "
          f"stuck_seeds={listed['stuck']} unsafe_seeds={listed['unsafe']}")
    return 1 if seeds["stuck"] or seeds["unsafe"] else 0


if __name__ == "__main__":
    sys.exit(main())
