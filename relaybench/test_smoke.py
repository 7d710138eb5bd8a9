"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest relaybench/test_smoke.py

For every workload, shrunk so it takes well under a second, the command
prints every metric BENCHMARK.json declares with its declared unit, with and
without tracing, and the traced run reproduces the untraced trajectory
digest and operation counts.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

assert run.load_program() is None
import workloads  # noqa: E402

TINY = {
    "closure_check": workloads.ClosureCheck(steps=20, tail_pct=50),
    "sparse_large": workloads.SparseLarge(
        processes=16, extra_edges=8, chains=2, warmup_steps=50,
        chunks=4, chunk_steps=25, sample_every=2, tail_pct=50,
    ),
    "dense_repair": workloads.DenseRepair(processes=4, relays=16, messages=8, tail_samples=2, tail_pct=50),
    "transform": workloads.Transform(min_processes=3, max_processes=4, extra_edges=1, tail_pct=50),
}


def _run(name, trace, monkeypatch, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, name, TINY[name])
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("name", sorted(TINY))
def test_metrics_and_digests(name, monkeypatch, capsys):
    spec = run.load_spec()
    assert set(TINY) == {w["name"] for w in spec["workloads"]}
    outcomes = []
    for trace in (0, 1):
        ctx, result = _run(name, trace, monkeypatch, capsys)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        declared = run.declared_metrics(spec, bool(trace))
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
        outcomes.append((ctx["digest"], result["attempted"], result["failed"]))
    assert outcomes[0] == outcomes[1]


def test_tracing_leaves_program_unpatched():
    from relaysim import kernel

    import harness

    step = kernel.WorldState.step
    harness.run(TINY["closure_check"], seed=5, seconds=0, trace=True)
    assert kernel.WorldState.step is step


def test_refuses_without_program(tmp_path):
    import shutil
    import subprocess

    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "relaybench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "relaybench/run.py", "--workload", "closure_check", "--seconds", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_known_merge_defect_counts_as_failed():
    """The merge transient is a failure told apart as known; other illegal states are not."""
    from relaysim import kernel

    # Steps 102-104 of this world hold the transient: the merged relay R0.4
    # carries activation probes still headed by its merged-away originals.
    world = kernel.random_connected_world(5670938551795071837, 3, extra_edges=1, chains=0)
    workloads._attach_apps(world, max_relays=3)
    states = []
    for _ in range(105):
        world.step()
        states.append(workloads.check_state(world))
    assert states[101:104] == [(1, 1)] * 3
    assert set(states[:101] + states[104:]) == {(0, 0)}

    corrupted = kernel.adversarial_init(1, 4, 16, 8, "mixed")
    assert workloads.check_state(corrupted) == (1, 0)
