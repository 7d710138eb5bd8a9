"""`tools/fdp_sweep.py` on a few seeds of each shape."""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_each_shape_counts_its_seeds_and_names_the_unsafe_ones(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import fdp_sweep

    # The start that tests/test_departure.py pins for seed 5011.
    n, edges, leaving = fdp_sweep.wide_start(5011)
    assert (n, sorted(leaving)) == (10, [0, 1, 2, 3, 4, 6, 7, 9])
    assert sorted({tuple(sorted(e)) for e in edges}) == [
        (0, 1), (0, 2), (0, 4), (0, 5), (0, 9), (1, 5), (1, 7), (1, 9), (2, 3), (3, 6), (3, 8), (6, 7)]
    # The outcomes of two wide seeds are forced, so the listing and the
    # failing exit status are tested apart from what the departure actor does.
    forced = {5001: "unsafe", 5002: "stuck"}
    real_run = fdp_sweep.run
    monkeypatch.setattr(fdp_sweep, "run", lambda shape, seed: forced.get(seed) or real_run(shape, seed))
    assert fdp_sweep.main(["--count", "4"]) == 0
    assert fdp_sweep.main(["--shape", "wide", "--first", "5000", "--count", "3"]) == 1
    lines = [dict(field.split("=") for field in line.split()) for line in capsys.readouterr().out.splitlines()]
    assert lines == [
        {"shape": "fdp", "seeds": "1800-1803", "ok": "4", "stuck": "0", "unsafe": "0",
         "stuck_seeds": "-", "unsafe_seeds": "-"},
        {"shape": "wide", "seeds": "5000-5002", "ok": "1", "stuck": "1", "unsafe": "1",
         "stuck_seeds": "5002", "unsafe_seeds": "5001"},
    ]


@pytest.mark.parametrize("count", ["0", "-1"])
def test_no_seeds_is_a_usage_error(monkeypatch, capsys, count):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import fdp_sweep

    with pytest.raises(SystemExit) as exit_info:
        fdp_sweep.main(["--count", count])
    assert exit_info.value.code == 2
    assert "error:" in capsys.readouterr().err
