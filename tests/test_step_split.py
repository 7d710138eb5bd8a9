"""`tools/step_split.py` on short runs of each shape, the closure shape's
oracle split included."""

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

from relaysim import apps, kernel, layer, oracle, rules

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def step_split(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import step_split

    return step_split


_ORACLE = ("oracle.build", "oracle.is_legal", "oracle.explain")


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


WRAPPED = {
    (kernel.WorldState, "step"), (kernel.WorldState, "is_settled"), (kernel.WorldState, "_find_offender"),
    (layer.RelayLayer, "timeout"), (layer.RelayLayer, "receive"),
    (apps.RandomDeliberateApp, "on_tick"), (apps.RandomDeliberateApp, "on_message"),
    (rules.TransformApp, "on_tick"), (rules.TransformApp, "on_message"),
    (oracle.WorldCheck, "__init__"), (oracle.WorldCheck, "is_legal"), (oracle.WorldCheck, "relay_violations"),
    (oracle, "process_components"),
}


def test_each_shape_prints_its_split_and_puts_the_methods_back(step_split, monkeypatch, capsys):
    patched = []
    install = step_split.Recorder.install

    def recorded(rec):
        install(rec)
        patched.append({(owner, attr) for owner, attr, _ in rec._patches})

    monkeypatch.setattr(step_split.Recorder, "install", recorded)
    owners = {owner for owner, _ in WRAPPED}
    before = {owner: dict(vars(owner)) for owner in owners}
    assert step_split.main(["--steps", "1000"]) == 0
    assert patched and all(p == WRAPPED for p in patched)
    assert {owner: dict(vars(owner)) for owner in owners} == before

    heads, blocks = _blocks(capsys)
    assert list(blocks) == list(step_split.SHAPES)
    for shape, rows in blocks.items():
        rows = {name: (int(calls), us, float(pct)) for name, (calls, us, pct) in rows.items()}
        head = heads[shape]
        assert int(head["steps"]) >= 1000
        assert all(float(head[k]) > 0 for k in ("processes", "relays", "inflight"))
        assert 0 <= float(head["forced"]) <= 1
        assert rows["step"][0] == rows["kernel"][0] == int(head["steps"])
        assert rows["step"][2] == 100.0
        assert 0 < rows["kernel"][2] < 100.0
        # kernel and the calls nested in step partition step; the settle
        # poll, its full scans and the oracle rows, the components check
        # included, run between steps.
        partition = [pct for name, (_, _, pct) in rows.items()
                     if name not in ("step", "settle_poll", "settle_scan") and not name.startswith("oracle.")]
        assert sum(partition) == pytest.approx(100.0, abs=0.1 * len(partition))
        assert rows["timeout"][0] > 0 and rows["receive.Transmit"][0] > 0
        assert ("settle_poll" in rows) == ("settle_scan" in rows) == (shape == "transform")
        if shape == "transform":
            # Every plan step's settling ends in a full scan; most polls
            # end at their witness.
            assert 0 < rows["settle_scan"][0] < rows["settle_poll"][0]
        assert ({"oracle.build", "oracle.is_legal", "oracle.explain"} <= rows.keys()) == (shape != "transform")
        # One connectivity check per executed plan step.
        assert ("oracle.components" in rows) == (shape == "transform")
    assert heads["sparse_large"]["processes"] == "256.0"


def test_against_a_checkout_prints_ratios_for_every_row(step_split, capsys):
    assert step_split.main(["--steps", "1000", "--against", str(ROOT)]) == 0
    heads, blocks = _blocks(capsys)
    assert list(blocks) == list(step_split.SHAPES)
    for shape, rows in blocks.items():
        assert int(heads[shape]["units"]) >= 1
        assert {"step", "kernel", "timeout", "receive.Transmit"} <= rows.keys()
        if shape != "transform":
            assert set(step_split.ORACLE_ROWS) <= rows.keys()
        else:
            assert {step_split.COMPONENTS_ROW, "settle_poll", "settle_scan"} <= rows.keys()
        # Both sides run the same code, so each row counts the same calls
        # and the same sampled steps are forced.
        for name, (calls, against_calls, here, there, *ratios) in rows.items():
            assert int(calls) == int(against_calls) > 0 and float(here) > 0 and float(there) > 0, name
            q1, median, q3 = map(float, ratios)
            assert 0 < q1 <= median <= q3, name
        assert heads[shape]["forced"] == heads[shape]["against_forced"]
    # 512 timeouts and ticks overdue by a bound of 64 force nearly every
    # sparse_large pick; a 3-process closure world's actions reach that age
    # far less often (0.113 of the sampled steps here).
    assert float(heads["sparse_large"]["forced"]) > 0.9
    assert float(heads["closure"]["forced"]) < 0.5


@pytest.mark.parametrize("shape, steps, checks", [("dense_repair", 120, 2), ("sparse_large", 1000, 1)])
def test_checked_shapes_check_at_their_cadence(step_split, capsys, shape, steps, checks):
    assert step_split.main(["--shapes", shape, "--seed", "350", "--steps", str(steps)]) == 0
    heads, blocks = _blocks(capsys)
    rows = {name: (int(calls), float(us)) for name, (calls, us, _) in blocks[shape].items()}
    assert heads[shape]["steps"] == str(steps)
    # Each check builds two fresh checks: one decides, one explains.
    assert rows["oracle.is_legal"][0] == rows["oracle.explain"][0] == checks
    assert rows["oracle.build"][0] == 2 * checks
    assert all(rows[name][1] > 0 for name in step_split.ORACLE_ROWS)


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


def test_one_seed_prints_its_split_and_the_sum(step_split, capsys):
    assert step_split.main(["--shapes", "closure", "--seed", "350", "--steps", "50"]) == 0
    heads, blocks = _blocks(capsys)
    head, rows = heads["closure"], blocks["closure"]
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
    heads, blocks = _blocks(capsys)
    default = heads["closure"], blocks["closure"]
    assert step_split.main(["--shapes", "closure", "--seed", "350", "--steps", "20"]) == 0
    heads, blocks = _blocks(capsys)
    head, rows = heads["closure"], blocks["closure"]
    fields = ("steps", "processes", "relays", "inflight", "illegal")
    assert [default[0][k] for k in fields] == [head[k] for k in fields]
    # Each check builds two fresh checks: one decides, one explains.
    calls = {name: int(rows[name][0]) for name in step_split.ORACLE_ROWS}
    assert calls == {name: int(default[1][name][0]) for name in step_split.ORACLE_ROWS}
    assert calls == {"oracle.build": 40, "oracle.is_legal": 20, "oracle.explain": 20}


def test_counts_repeat_exactly_across_processes_and_hash_seeds():
    # Two processes at once, under two string-hash seeds: every number
    # either prints must be the same.
    args = [sys.executable, str(ROOT / "tools" / "step_split.py"), "--count", "--shapes", "closure", "--steps", "2000"]
    runs = [
        subprocess.Popen(args, env={**os.environ, "PYTHONHASHSEED": seed}, stdout=subprocess.PIPE, text=True)
        for seed in ("0", "1")
    ]
    outs = [run.communicate(timeout=300)[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    assert outs[0] == outs[1]
    head, names, *lines = outs[0].splitlines()
    assert head.startswith("shape=closure steps=2000 ") and "illegal=0" in head
    assert names.split() == ["call", "calls", "py_calls", "c_calls", "opcodes"]
    rows = {name: [float(v) for v in cells] for name, *cells in map(str.split, lines)}
    assert {"step", "kernel", "timeout", "receive.Transmit", *_ORACLE} <= rows.keys()
    assert rows["step"][0] == rows["kernel"][0] == 2000
    assert all(calls > 0 and py >= 1 and ops > 0 for name, (calls, py, _, ops) in rows.items() if name != "kernel")
    # The rows nested in a step sum, with `kernel`, to `step`, up to the
    # rounding of each printed mean.
    nested = [name for name in rows if name.startswith(("timeout", "receive.", "app."))]
    rounding = 0.005 * (2 * 2000 + sum(rows[n][0] for n in nested))
    for i in (1, 2, 3):
        total = rows["kernel"][i] * 2000 + sum(rows[n][0] * rows[n][i] for n in nested)
        assert total == pytest.approx(rows["step"][i] * 2000, abs=rounding)


def test_counts_against_the_same_checkout_are_equal_side_by_side(step_split, capsys):
    args = ["--count", "--shapes", "dense_repair", "--steps", "300", "--against", str(ROOT)]
    assert step_split.main(args) == 0
    head, names, *lines = capsys.readouterr().out.splitlines()
    fields = dict(field.split("=") for field in head.split())
    for what in ("py_calls", "c_calls", "opcodes"):
        assert fields[f"all_{what}"] == fields[f"against_all_{what}"] and float(fields[f"all_{what}"]) > 0
    assert names.split()[:3] == ["call", "calls", "against_calls"]
    for name, calls, against_calls, *work in map(str.split, lines):
        assert calls == against_calls and work[:3] == work[3:], name


def test_counts_leave_out_garbage_collections(step_split, capsys):
    # A collection runs the process's `gc.callbacks` wherever its earlier
    # allocations put it.  A low threshold and a Python callback would put
    # collections inside every counted unit; the counts must not see them.
    args = ["--count", "--shapes", "dense_repair", "--steps", "300"]
    assert step_split.main(args) == 0
    quiet = capsys.readouterr().out
    phases = []

    def callback(phase, info):
        phases.append(phase)

    threshold = gc.get_threshold()
    gc.callbacks.append(callback)
    gc.set_threshold(50)
    try:
        assert step_split.main(args) == 0
    finally:
        gc.set_threshold(*threshold)
        gc.callbacks.remove(callback)
    assert phases and gc.isenabled()
    assert capsys.readouterr().out == quiet


@pytest.mark.parametrize("args", [["--steps", "0"], ["--steps", "-3"],
                                  ["--against", str(ROOT / "tests")],
                                  ["--shapes"], ["--shapes", "closure", "--steps", "0"],
                                  ["--shapes", "closure", "--steps", "-4"]])
def test_empty_runs_and_missing_checkouts_are_usage_errors(step_split, capsys, args):
    with pytest.raises(SystemExit) as exit_info:
        step_split.main(args)
    assert exit_info.value.code == 2
    assert "error:" in capsys.readouterr().err
