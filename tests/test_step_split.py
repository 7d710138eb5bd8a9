"""`tools/step_split.py` on short runs of each shape."""

from pathlib import Path

from relaysim import apps, kernel, layer, rules

ROOT = Path(__file__).resolve().parents[1]


def test_each_shape_prints_its_split_and_puts_the_methods_back(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import step_split

    owners = (kernel.WorldState, layer.RelayLayer, apps.RandomDeliberateApp, rules.TransformApp)
    before = [dict(vars(owner)) for owner in owners]
    assert step_split.main(["--steps", "200"]) == 0
    assert [dict(vars(owner)) for owner in owners] == before

    heads, blocks, rows = {}, {}, None
    for line in capsys.readouterr().out.splitlines():
        if line.startswith("shape="):
            head = dict(field.split("=") for field in line.split())
            heads[head["shape"]], rows = head, blocks.setdefault(head["shape"], {})
        elif line.split()[0] != "call":
            name, calls, us, pct = line.split()
            rows[name] = (int(calls), us, float(pct))
    assert list(blocks) == list(step_split.SHAPES)
    for shape, rows in blocks.items():
        head = heads[shape]
        assert int(head["steps"]) >= 200
        assert all(float(head[k]) > 0 for k in ("processes", "relays", "inflight"))
        assert rows["step"][0] == rows["pick"][0] == rows["other"][0] == int(head["steps"])
        assert rows["step"][2] == 100.0
        assert rows["timeout"][0] > 0 and rows["receive.Transmit"][0] > 0
        assert ("settle_poll" in rows) == (shape == "transform")
    assert heads["sparse_large"]["processes"] == "256.0"
