"""`tools/oracle_split.py` on short runs of each shape."""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def oracle_split(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import oracle_split

    return oracle_split


def _table(capsys):
    return [line.split() for line in capsys.readouterr().out.splitlines()]


def test_one_seed_prints_its_split_and_the_sum(oracle_split, capsys):
    assert oracle_split.main(["--seeds", "350", "350", "--steps", "50"]) == 0
    header, row, total = _table(capsys)
    assert header == list(oracle_split.COLUMNS)
    assert row[:2] == ["350", "50"] and total[:2] == ["all", "50"]
    assert header[5] == "explain_us"
    assert all(float(v) > 0 for v in row[2:8])
    assert row[-1] == total[-1] == "0"  # every checked closure state is legal


def test_closure_is_the_default_and_checks_every_step(oracle_split):
    default, closure = oracle_split.split(350, 20), oracle_split.split(350, 20, "closure")
    assert default["checks"] == closure["checks"] == 20
    assert (default["relays"], default["inflight"]) == (closure["relays"], closure["inflight"])


@pytest.mark.parametrize("shape, steps, checks", [("dense_repair", 120, 2), ("sparse_large", 1000, 1)])
def test_sampled_shapes_check_at_their_cadence(oracle_split, capsys, shape, steps, checks):
    assert oracle_split.split(1, steps, shape)["checks"] == checks
    assert oracle_split.main(["--shape", shape, "--seeds", "1", "2", "--steps", str(steps)]) == 0
    header, *rows, total = _table(capsys)
    assert header == list(oracle_split.COLUMNS) and len(rows) == 2
    assert total[:2] == ["all", str(2 * steps)]
    assert all(float(v) > 0 for row in rows for v in row[2:8])


@pytest.mark.parametrize("args", [["--seeds", "5", "3", "--steps", "10"], ["--steps", "0"],
                                  ["--steps", "-4"]])
def test_empty_runs_are_usage_errors(oracle_split, capsys, args):
    with pytest.raises(SystemExit) as exit_info:
        oracle_split.main(args)
    assert exit_info.value.code == 2
    assert "error:" in capsys.readouterr().err
