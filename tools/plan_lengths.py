"""Plan length against the size of the edit, per process count and target kind.

    python3 tools/plan_lengths.py [--sizes N ...] [--seeds K] [--execute] [--json FILE]

For each process count n (default 3 6 12 24 48) and each seed from 0 to K-1
(default 10), the script builds the source `random_multigraph(2*seed + 1, n,
extra=n // 2)`, realizes it with `build_simple_realization(seed, source)`,
settles the world and plans three targets:

- random: `random_multigraph(2*seed + 2, n, extra=n // 2)`;
- identical: the source itself;
- edit: the source with one edge moved to a pair of distinct processes drawn
  by `random.Random(seed)`, redrawn until the target is weakly connected.

One row per (n, target kind) gives the median and maximum count of changed
edges (the size of the multiset difference, both ways) and of plan steps.
Edit rows also give the median and maximum undirected distance in the
source between the endpoints of the added edge, so plan length can be read
against path length; other rows print `-` there.
With --execute every plan also runs in its world through `execute_plan`;
the row then adds the median kernel steps and wall seconds (planning plus
execution) per whole transformation, and counts transformations whose final
`cpg` differs from the target.  --json writes the rows to FILE.

Standard library only; one process, one transformation at a time.  Exit
status: 0, 1 when an executed transformation missed its target, or 2, with
a usage message, when a size is below 2 or K is below 1.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from relaysim import rules  # noqa: E402

COLUMNS = ("n", "target", "pairs", "changed_p50", "changed_max", "distance_p50", "distance_max",
           "plan_p50", "plan_max", "kernel_steps_p50", "wall_s_p50", "missed")


def one_edge_edit(seed: int, source: rules.ProcessMultigraph) -> rules.ProcessMultigraph:
    """`source` with one edge moved to another pair, still weakly connected."""
    rng = random.Random(seed)
    n = len(source.processes)
    while True:
        edges = list(source.edges)
        edges.pop(rng.randrange(len(edges)))
        u, v = rng.sample(range(n), 2)
        target = rules.ProcessMultigraph.of(source.processes, edges + [(u, v)])
        if target != source and target.is_weakly_connected():
            return target


def distance(graph: rules.ProcessMultigraph, a: int, b: int) -> int:
    """Undirected hop count from `a` to `b` in `graph`."""
    parent, hops = graph._bfs_tree(b), 0
    while a != b:
        a, hops = parent[a], hops + 1
    return hops


def transform(seed: int, source, target, execute: bool) -> dict:
    """Plan (and with `execute` run) one transformation of a settled
    realization of `source` into `target`."""
    world = rules.build_simple_realization(seed, source)
    if not world.run_until(lambda w: w.is_settled(), 20_000).reached:
        raise rules.PlanError(f"seed {seed}: the source world did not settle")
    before, after = Counter(source.edges), Counter(target.edges)
    start, t0 = world.step_count, perf_counter()
    plan = rules.plan_transform(world, target)
    out = {"changed": sum(((before - after) + (after - before)).values()), "plan": len(plan.steps)}
    if execute:
        rules.execute_plan(world, plan)
        out.update(kernel_steps=world.step_count - start, wall_s=perf_counter() - t0,
                   missed=int(rules.cpg(world).edges != target.edges))
    return out


def rows(sizes: list, seeds: int, execute: bool) -> list:
    table = []
    for n in sizes:
        cases = {"random": [], "identical": [], "edit": []}
        for seed in range(seeds):
            source = rules.random_multigraph(2 * seed + 1, n, extra=n // 2)
            targets = {
                "random": rules.random_multigraph(2 * seed + 2, n, extra=n // 2),
                "identical": source,
                "edit": one_edge_edit(seed, source),
            }
            for kind, target in targets.items():
                cases[kind].append(transform(seed, source, target, execute))
            (added,) = Counter(targets["edit"].edges) - Counter(source.edges)
            cases["edit"][-1]["distance"] = distance(source, *added)
        for kind, runs in cases.items():
            row = {"n": n, "target": kind, "pairs": len(runs)}
            for field in ("changed", "distance", "plan"):
                if field not in runs[0]:
                    continue
                values = [r[field] for r in runs]
                row[f"{field}_p50"], row[f"{field}_max"] = statistics.median(values), max(values)
            if execute:
                row["kernel_steps_p50"] = statistics.median(r["kernel_steps"] for r in runs)
                row["wall_s_p50"] = statistics.median(r["wall_s"] for r in runs)
                row["missed"] = sum(r["missed"] for r in runs)
            table.append(row)
    return table


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", type=int, nargs="+", default=[3, 6, 12, 24, 48])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--execute", action="store_true")
    ap.add_argument("--json", type=Path)
    args = ap.parse_args(argv)
    if min(args.sizes) < 2:
        ap.error("--sizes: an edit moves an edge between two processes, so each N must be at least 2")
    if args.seeds < 1:
        ap.error("--seeds: K must be at least 1")
    table = rows(args.sizes, args.seeds, args.execute)
    print(*COLUMNS)
    for row in table:
        values = (row.get(c, "-") for c in COLUMNS)
        print(*(round(v, 4) if isinstance(v, float) else v for v in values))
    if args.json:
        doc = {"sizes": args.sizes, "seeds": args.seeds, "execute": args.execute, "rows": table}
        args.json.write_text(json.dumps(doc, indent=1) + "\n")
    return int(any(row.get("missed") for row in table))


if __name__ == "__main__":
    sys.exit(main())
