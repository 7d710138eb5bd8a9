"""Alternating parent/change benchmark pairs for one workload and seed.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload W --seed S --pairs N [--out FILE]

DIR is the root of a relaysim checkout.  Each pair runs `relaybench/run.py`
once in each checkout, one run at a time, at the run length the checkout's
`BENCHMARK.json` sets; even pairs run the parent first, odd pairs the change.
For every end-to-end metric the script prints each side's [q1, median, q3]
and how many pairs the change won (ties count for neither side).  It then
says whether a gain holds (the change wins at least nine tenths of the
pairs, and its median beats the parent's by more than the parent's
interquartile range), whether any median is worse than the metric's bound
in `BENCHMARK.json` allows, and whether a metric is unresolved (either
side's interquartile range is wider than the bound, and not every change
run beats every parent run).  Any run whose `digest`, `attempted` or
`failed` differs from the first parent run is flagged, and so is any run
that reports `correct: false`.  With `--out`, every run and the summary are
written to FILE as JSON.

Each run neither reads nor leaves bytecode caches: it starts with
`PYTHONDONTWRITEBYTECODE=1` and `PYTHONPYCACHEPREFIX` set to a fresh empty
directory, so a `__pycache__` that one checkout holds and the other lacks
cannot move `setup_s` or `peak_rss_mb`.

Standard library only.  Quartiles are `statistics.quantiles(..., n=4,
method="inclusive")`.  Exit status: 0, or 1 when a trajectory mismatch or
an incorrect run was flagged or a run failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

TRAJECTORY = ("digest", "attempted", "failed")


def quartiles(values: list) -> list:
    """[q1, median, q3] of `values`."""
    if len(values) < 2:
        return [values[0]] * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, median, q3]


def summarize(pairs: list, end_to_end: list) -> dict:
    """Per-metric verdicts over `pairs`, each {"parent": run, "change": run}
    where a run is {"digest", "attempted", "failed", "correct", "metrics":
    {name: value}};
    `end_to_end` is `BENCHMARK.json`'s list of metric declarations."""
    n = len(pairs)
    metrics = {}
    for m in end_to_end:
        name, higher, bound = m["name"], m["better"] == "higher", m["bound"]
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        pq, cq = quartiles(parent), quartiles(change)
        gap = (cq[1] - pq[1]) if higher else (pq[1] - cq[1])  # > 0: the change is better
        every_run_better = min(change) > max(parent) if higher else max(change) < min(parent)
        metrics[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "parent": pq,
            "change": cq,
            "wins": wins,
            "ratio": cq[1] / pq[1] if pq[1] else None,
            "gain": n > 0 and wins * 10 >= 9 * n and gap > pq[2] - pq[0],
            "regressed": -gap > bound * abs(pq[1]),
            # Runs spread wider than the bound cannot show the metric held.
            "unresolved": max(pq[2] - pq[0], cq[2] - cq[0]) > bound * abs(pq[1]) and not every_run_better,
        }
    first = {k: pairs[0]["parent"][k] for k in TRAJECTORY} if pairs else {}
    mismatches = [
        {"pair": i, "side": side, **{k: p[side][k] for k in TRAJECTORY}}
        for i, p in enumerate(pairs)
        for side in ("parent", "change")
        if any(p[side][k] != first[k] for k in TRAJECTORY)
    ]
    incorrect = [{"pair": i, "side": side} for i, p in enumerate(pairs)
                 for side in ("parent", "change") if not p[side]["correct"]]
    return {"pairs": n, "trajectory": first, "mismatches": mismatches, "incorrect": incorrect,
            "metrics": metrics}


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One untraced run of `workload` in `checkout`, reduced to its record;
    the run compiles every module it imports from source."""
    with tempfile.TemporaryDirectory() as no_cache:
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPYCACHEPREFIX": no_cache}
        proc = subprocess.run(
            [sys.executable, "relaybench/run.py", "--workload", workload, "--seed", str(seed)],
            cwd=checkout, env=env, capture_output=True, text=True, check=True,
        )
    context, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return {
        "digest": context["digest"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "correct": result["correct"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def report(summary: dict) -> str:
    n = summary["pairs"]
    lines = [f"{n} pairs; trajectory {summary['trajectory']}"]
    for name, m in summary["metrics"].items():
        fmt = lambda q: "[" + ", ".join(f"{v:.6g}" for v in q) + "]"
        verdict = ("GAIN" if m["gain"] else "REGRESSED" if m["regressed"]
                   else "UNRESOLVED" if m["unresolved"] else "within bound")
        lines.append(
            f"{name} ({m['unit']}, {m['better']} is better): parent {fmt(m['parent'])}"
            f" change {fmt(m['change'])} wins {m['wins']}/{n}: {verdict}"
        )
    for bad in summary["mismatches"]:
        lines.append(f"MISMATCH {bad}")
    for bad in summary["incorrect"]:
        lines.append(f"INCORRECT {bad}: the run reported correct: false")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs: N must be at least 1")
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    headline = spec["end_to_end"][0]["name"]

    pairs = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"first": order[0]}
        for side in order:
            try:
                pair[side] = run_once(getattr(args, side), args.workload, args.seed)
            except subprocess.CalledProcessError as e:
                print(f"pair {i}: the {side} run failed:\n{e.stderr}", file=sys.stderr)
                return 1
        pairs.append(pair)
        print(f"pair {i}: {headline} " + " ".join(
            f"{side} {pair[side]['metrics'][headline]:.6g}" for side in order), flush=True)

    summary = summarize(pairs, spec["end_to_end"])
    print(report(summary))
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "run_seconds": spec["run_seconds"],
                  "runs": pairs, "summary": summary}
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 1 if summary["mismatches"] or summary["incorrect"] else 0


if __name__ == "__main__":
    sys.exit(main())
