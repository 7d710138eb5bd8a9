"""`tools/plan_lengths.py` on two tiny seeds."""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_three_processes_print_one_row_per_target_kind(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import plan_lengths

    assert plan_lengths.main(["--sizes", "3", "--seeds", "2", "--execute"]) == 0
    header, *rows = (line.split() for line in capsys.readouterr().out.splitlines())
    assert header == list(plan_lengths.COLUMNS)
    assert [row[:3] for row in rows] == [["3", kind, "2"] for kind in ("random", "identical", "edit")]
    by_kind = {row[1]: dict(zip(header, row)) for row in rows}
    identical, edit = by_kind["identical"], by_kind["edit"]
    assert identical["plan_max"] == "0" and float(identical["kernel_steps_p50"]) == 0
    assert edit["changed_max"] == "2" and int(edit["plan_max"]) > 0
    # At 3 processes the endpoints of the added edge are 1 or 2 hops apart.
    assert 1 <= float(edit["distance_p50"]) <= int(edit["distance_max"]) <= 2
    assert identical["distance_p50"] == identical["distance_max"] == "-"
    assert all(row[-1] == "0" for row in rows)  # every executed plan reached its target


@pytest.mark.parametrize("args", [["--sizes", "1"], ["--sizes", "3", "1"], ["--sizes", "0"],
                                  ["--sizes", "3", "--seeds", "0"]])
def test_empty_or_unplannable_runs_are_usage_errors(monkeypatch, capsys, args):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import plan_lengths

    with pytest.raises(SystemExit) as exit_info:
        plan_lengths.main(args)
    assert exit_info.value.code == 2
    assert "error:" in capsys.readouterr().err
