"""`tools/oracle_split.py` on one short closure run."""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_one_seed_prints_its_split_and_the_sum(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import oracle_split

    assert oracle_split.main(["--seeds", "350", "350", "--steps", "50"]) == 0
    header, row, total = (line.split() for line in capsys.readouterr().out.splitlines())
    assert header == list(oracle_split.COLUMNS)
    assert row[:2] == ["350", "50"] and total[:2] == ["all", "50"]
    assert all(float(v) > 0 for v in row[2:7])
    assert row[-1] == total[-1] == "0"  # every checked closure state is legal
