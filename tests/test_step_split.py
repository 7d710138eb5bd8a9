"""`tools/step_split.py` on short runs of each shape."""

from pathlib import Path

import pytest

from relaysim import apps, kernel, layer, rules

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def step_split(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import step_split

    return step_split


def _blocks(capsys) -> tuple[dict, dict]:
    """The header line and the rows (name -> cells) of each shape."""
    heads, blocks, rows = {}, {}, None
    for line in capsys.readouterr().out.splitlines():
        if line.startswith("shape="):
            head = dict(field.split("=") for field in line.split())
            heads[head["shape"]], rows = head, blocks.setdefault(head["shape"], {})
        elif line.split()[0] != "call":
            name, *cells = line.split()
            rows[name] = cells
    return heads, blocks


def test_each_shape_prints_its_split_and_puts_the_methods_back(step_split, capsys):
    owners = (kernel.WorldState, layer.RelayLayer, apps.RandomDeliberateApp, rules.TransformApp)
    before = [dict(vars(owner)) for owner in owners]
    assert step_split.main(["--steps", "200"]) == 0
    assert [dict(vars(owner)) for owner in owners] == before

    heads, blocks = _blocks(capsys)
    assert list(blocks) == list(step_split.SHAPES)
    for shape, rows in blocks.items():
        rows = {name: (int(calls), us, float(pct)) for name, (calls, us, pct) in rows.items()}
        head = heads[shape]
        assert int(head["steps"]) >= 200
        assert all(float(head[k]) > 0 for k in ("processes", "relays", "inflight"))
        assert rows["step"][0] == rows["pick"][0] == rows["other"][0] == int(head["steps"])
        assert rows["step"][2] == 100.0
        assert rows["timeout"][0] > 0 and rows["receive.Transmit"][0] > 0
        assert ("settle_poll" in rows) == (shape == "transform")
    assert heads["sparse_large"]["processes"] == "256.0"


def test_against_a_checkout_prints_ratios_for_every_row(step_split, capsys):
    assert step_split.main(["--steps", "200", "--against", str(ROOT)]) == 0
    heads, blocks = _blocks(capsys)
    assert list(blocks) == list(step_split.SHAPES)
    for shape, rows in blocks.items():
        assert int(heads[shape]["units"]) >= 1
        assert {"step", "pick", "timeout", "receive.Transmit", "other"} <= rows.keys()
        for name, (calls, here, there, *ratios) in rows.items():
            assert int(calls) > 0 and float(here) > 0 and float(there) > 0, name
            q1, median, q3 = map(float, ratios)
            assert 0 < q1 <= median <= q3, name


def test_against_a_diverging_checkout_exits_1(step_split, monkeypatch, capsys):
    # The same code, but its worlds schedule round robin: every unit's
    # trajectory moves.
    load = step_split.load_package

    def diverging(root):
        pkg = load(root)
        monkeypatch.setattr(pkg.kernel, "FAIRNESS_BOUND", -1)
        return pkg

    monkeypatch.setattr(step_split, "load_package", diverging)
    args = ["--shapes", "dense_repair", "--steps", "400", "--against", str(ROOT)]
    assert step_split.main(args) == 1
    assert "MISMATCH shape=dense_repair unit=0" in capsys.readouterr().out


@pytest.mark.parametrize("args", [["--steps", "0"], ["--steps", "-3"],
                                  ["--against", str(ROOT / "tests")]])
def test_empty_runs_and_missing_checkouts_are_usage_errors(step_split, capsys, args):
    with pytest.raises(SystemExit) as exit_info:
        step_split.main(args)
    assert exit_info.value.code == 2
    assert "error:" in capsys.readouterr().err
