"""The pair summary of `tools/bench_pairs.py`, on canned runs."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def _bench_pairs(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import bench_pairs

    return bench_pairs


def _run(steps_per_s, run_s=1.0, rss=20.0, digest="d0", failed=0, correct=True):
    values = {"steps_per_s": steps_per_s, "run_s_p50": run_s, "run_s_tail": run_s,
              "setup_s": 0.001, "peak_rss_mb": rss}
    return {"digest": digest, "attempted": 10, "failed": failed, "correct": correct, "metrics": values}


def _pairs(parent, change, **change_fields):
    return [{"parent": _run(p), "change": _run(c, **change_fields)} for p, c in zip(parent, change)]


PARENT = [100, 102, 98, 101, 99, 100, 103, 97, 100, 101]


def test_quartiles_are_inclusive(monkeypatch):
    bp = _bench_pairs(monkeypatch)
    assert bp.quartiles([1, 2, 3, 4, 5]) == [2, 3, 4]
    assert bp.quartiles([7]) == [7, 7, 7]


def test_nine_wins_and_a_median_gap_beyond_the_parent_iqr_is_a_gain(monkeypatch):
    bp = _bench_pairs(monkeypatch)
    change = [p + 10 for p in PARENT[:9]] + [PARENT[9] - 1]
    s = bp.summarize(_pairs(PARENT, change), END_TO_END)
    m = s["metrics"]["steps_per_s"]
    assert m["wins"] == 9 and m["gain"] and not m["regressed"]
    assert m["parent"] == [99.25, 100.0, 101.0]
    # Equal values are ties: no wins, no gain, no regression.
    assert s["metrics"]["peak_rss_mb"]["wins"] == 0
    assert not s["metrics"]["peak_rss_mb"]["gain"] and not s["metrics"]["peak_rss_mb"]["regressed"]
    assert s["mismatches"] == []


def test_eight_wins_or_a_gap_inside_the_iqr_is_no_gain(monkeypatch):
    bp = _bench_pairs(monkeypatch)
    eight = [p + 10 for p in PARENT[:8]] + [p - 1 for p in PARENT[8:]]
    assert not bp.summarize(_pairs(PARENT, eight), END_TO_END)["metrics"]["steps_per_s"]["gain"]
    small = [p + 0.5 for p in PARENT]  # wins every pair, median gap 0.5 < IQR 1.75
    m = bp.summarize(_pairs(PARENT, small), END_TO_END)["metrics"]["steps_per_s"]
    assert m["wins"] == 10 and not m["gain"]


def test_a_median_worse_than_the_bound_is_a_regression(monkeypatch):
    bp = _bench_pairs(monkeypatch)
    # steps_per_s allows 25% and peak_rss_mb 10%: 30% fewer steps and 11%
    # more memory both regress, 20% fewer steps alone would not.
    s = bp.summarize(_pairs(PARENT, [p * 0.7 for p in PARENT], rss=22.2), END_TO_END)
    assert s["metrics"]["steps_per_s"]["regressed"]
    assert s["metrics"]["peak_rss_mb"]["regressed"]
    s = bp.summarize(_pairs(PARENT, [p * 0.8 for p in PARENT]), END_TO_END)
    assert not s["metrics"]["steps_per_s"]["regressed"]


def test_trajectory_mismatches_are_flagged(monkeypatch):
    bp = _bench_pairs(monkeypatch)
    pairs = _pairs(PARENT[:3], PARENT[:3])
    pairs[1]["change"]["digest"] = "d1"
    pairs[2]["parent"]["failed"] = 1
    s = bp.summarize(pairs, END_TO_END)
    assert s["trajectory"] == {"digest": "d0", "attempted": 10, "failed": 0}
    assert [(b["pair"], b["side"]) for b in s["mismatches"]] == [(1, "change"), (2, "parent")]


def test_incorrect_runs_are_flagged_and_exit_1(monkeypatch, capsys):
    # Equal `failed` counts hide nothing here: only `correct` tells the
    # second change run apart.
    bp = _bench_pairs(monkeypatch)
    runs = iter([_run(100), _run(101), _run(102, correct=False), _run(99), _run(100), _run(101)])
    monkeypatch.setattr(bp, "run_once", lambda checkout, workload, seed: next(runs))
    args = ["--parent", str(ROOT), "--change", str(ROOT), "--workload", "transform", "--seed", "1"]
    assert bp.main(args + ["--pairs", "3"]) == 1
    out = capsys.readouterr().out
    assert "INCORRECT {'pair': 1, 'side': 'change'}" in out and "MISMATCH" not in out
    s = bp.summarize(_pairs(PARENT[:2], PARENT[:2]), END_TO_END)
    assert s["incorrect"] == [] and s["mismatches"] == []


def test_runs_spread_wider_than_the_bound_leave_a_metric_unresolved(monkeypatch):
    bp = _bench_pairs(monkeypatch)
    wide = [60, 140, 70, 130, 100, 100, 65, 135, 100, 100]  # IQR 45 > 25% of the median 100
    s = bp.summarize(_pairs(wide, wide), END_TO_END)
    assert s["metrics"]["steps_per_s"]["unresolved"] and not s["metrics"]["steps_per_s"]["regressed"]
    # Unless every change run beats every parent run.
    s = bp.summarize(_pairs(wide, [200 + p for p in wide]), END_TO_END)
    assert not s["metrics"]["steps_per_s"]["unresolved"]
    assert not bp.summarize(_pairs(PARENT, PARENT), END_TO_END)["metrics"]["steps_per_s"]["unresolved"]


def test_no_pairs_is_a_usage_error(monkeypatch, capsys):
    bp = _bench_pairs(monkeypatch)
    args = ["--parent", str(ROOT), "--change", str(ROOT), "--workload", "transform", "--seed", "1"]
    for pairs in ("0", "-2"):
        with pytest.raises(SystemExit) as exit_info:
            bp.main(args + ["--pairs", pairs])
        assert exit_info.value.code == 2
        assert "error:" in capsys.readouterr().err


def test_each_run_starts_without_bytecode_caches(monkeypatch, tmp_path):
    bp = _bench_pairs(monkeypatch)
    seen = []

    def fake_run(args, cwd, env, **kwargs):
        cache = Path(env["PYTHONPYCACHEPREFIX"])
        seen.append((cwd, env["PYTHONDONTWRITEBYTECODE"], cache, cache.is_dir() and not any(cache.iterdir())))
        context = {"digest": "d0"}
        result = {"attempted": 10, "failed": 0, "correct": True, "metrics": {"steps_per_s": {"value": 5.0}}}
        return bp.subprocess.CompletedProcess(args, 0, stdout=f"{json.dumps(context)}\n{json.dumps(result)}\n")

    monkeypatch.setattr(bp.subprocess, "run", fake_run)
    runs = [bp.run_once(tmp_path, "transform", 1) for _ in range(2)]
    assert runs[0] == {"digest": "d0", "attempted": 10, "failed": 0, "correct": True,
                       "metrics": {"steps_per_s": 5.0}}
    # Each run gets its own empty cache directory, removed after the run.
    assert [(cwd, flag, empty) for cwd, flag, _, empty in seen] == [(tmp_path, "1", True)] * 2
    assert not any(cache.exists() for _, _, cache, _ in seen)
