"""The oracle split of `tools/step_split.py`: its closure shape and oracle rows."""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def step_split(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import step_split

    return step_split


def _closure(capsys) -> tuple[dict, dict]:
    """The closure block's header fields and its rows (name -> cells)."""
    head, rows, inside = None, {}, False
    for line in capsys.readouterr().out.splitlines():
        if line.startswith("shape="):
            inside = line.startswith("shape=closure ")
            if inside:
                head = dict(field.split("=") for field in line.split())
        elif inside and line.split()[0] != "call":
            name, *cells = line.split()
            rows[name] = cells
    return head, rows


def test_one_seed_prints_its_split_and_the_sum(step_split, capsys):
    assert step_split.main(["--shapes", "closure", "--seed", "350", "--steps", "50"]) == 0
    head, rows = _closure(capsys)
    assert head["steps"] == "50" and head["illegal"] == "0"  # every checked closure state is legal
    pct = {name: float(cells[-1]) for name, cells in rows.items()}
    assert pct["step"] == 100.0
    # kernel and the calls nested in step sum to step.
    partition = [v for name, v in pct.items() if name != "step" and not name.startswith("oracle.")]
    assert sum(partition) == pytest.approx(100.0, abs=0.1 * len(partition))
    assert all(float(rows[name][1]) > 0 for name in step_split.ORACLE_ROWS)


def test_closure_is_the_default_and_checks_every_step(step_split, capsys):
    assert "closure" in step_split.SHAPES
    assert step_split.main(["--seed", "350", "--steps", "20"]) == 0
    default = _closure(capsys)
    assert step_split.main(["--shapes", "closure", "--seed", "350", "--steps", "20"]) == 0
    head, rows = _closure(capsys)
    fields = ("steps", "processes", "relays", "inflight", "illegal")
    assert [default[0][k] for k in fields] == [head[k] for k in fields]
    # Each check builds two fresh checks: one decides, one explains.
    calls = {name: int(rows[name][0]) for name in step_split.ORACLE_ROWS}
    assert calls == {name: int(default[1][name][0]) for name in step_split.ORACLE_ROWS}
    assert calls == {"oracle.build": 40, "oracle.is_legal": 20, "oracle.explain": 20}


@pytest.mark.parametrize("args", [["--shapes"], ["--shapes", "closure", "--steps", "0"],
                                  ["--shapes", "closure", "--steps", "-4"]])
def test_empty_runs_are_usage_errors(step_split, capsys, args):
    with pytest.raises(SystemExit) as exit_info:
        step_split.main(args)
    assert exit_info.value.code == 2
    assert "error:" in capsys.readouterr().err
