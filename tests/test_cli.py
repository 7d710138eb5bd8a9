"""Harness: scenario runs, exit codes, topology transform, DOT round trip."""

import io
import json
import re
from pathlib import Path

import pytest

from relaysim import cli, oracle, rules
from relaysim.kernel import WorldState, fig_triangle


def write_scenario(tmp_path, name="scenario.json", **fields):
    path = tmp_path / name
    path.write_text(json.dumps(fields))
    return str(path)


def run_cli(args):
    out = io.StringIO()
    if args[0] == "run":
        code = cli.run_scenario(
            args[1],
            max_steps=None,
            out=out,
        )
    return code, out.getvalue()


def report_dict(text):
    return dict(line.split("=", 1) for line in text.strip().splitlines())


def test_clean_triangle_run_is_legal(tmp_path):
    path = write_scenario(tmp_path, seed=1, topology="triangle", predicate="is_legal")
    out = io.StringIO()
    code = cli.run_scenario(path, out=out)
    report = report_dict(out.getvalue())
    assert code == cli.EXIT_OK
    assert report["reached"] == "yes" and report["legal"] == "yes"
    assert report["valid_graph_cycle_free"] == "yes"


def test_adversarial_run_converges(tmp_path):
    path = write_scenario(
        tmp_path,
        seed=5,
        topology="adversarial",
        processes=4,
        relays=12,
        messages=12,
        predicate="is_legal",
        max_steps=60000,
    )
    out = io.StringIO()
    code = cli.run_scenario(path, out=out)
    assert code == cli.EXIT_OK
    assert report_dict(out.getvalue())["reached"] == "yes"


def test_adversarial_scenario_without_corruption_is_legal_at_once(tmp_path):
    path = write_scenario(tmp_path, seed=5, topology="adversarial", corruption_profile="none", predicate="is_legal")
    out = io.StringIO()
    code = cli.run_scenario(path, out=out)
    report = report_dict(out.getvalue())
    assert code == cli.EXIT_OK
    assert (report["steps"], report["reached"], report["legal"]) == ("0", "yes", "yes")


def test_departure_scenario(tmp_path):
    path = write_scenario(
        tmp_path,
        seed=2,
        topology="departure_line",
        processes=4,
        leaving=[1],
        predicate="fdp_legitimate",
        max_steps=60000,
    )
    out = io.StringIO()
    code = cli.run_scenario(path, out=out)
    assert code == cli.EXIT_OK


def test_malformed_scenario_is_parse_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    out = io.StringIO()
    assert cli.run_scenario(str(path), out=out) == cli.EXIT_PARSE


def test_non_utf8_scenario_is_parse_error(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_bytes(b'{"seed": 1, "processes": 3 \xff}')
    out = io.StringIO()
    assert cli.run_scenario(str(path), out=out) == cli.EXIT_PARSE
    assert out.getvalue().startswith("error=parse detail=")


def test_deeply_nested_scenario_is_parse_error(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    out = io.StringIO()
    assert cli.run_scenario(str(path), out=out) == cli.EXIT_PARSE
    assert out.getvalue().startswith("error=parse detail=")


def test_unknown_field_is_parse_error(tmp_path):
    path = write_scenario(tmp_path, seed=1, banana=True)
    out = io.StringIO()
    assert cli.run_scenario(path, out=out) == cli.EXIT_PARSE


BAD_FIELDS = {
    "seed_not_a_number": {"seed": "abc"},
    "fairness_bound_not_a_number": {"fairness_bound": "x"},
    "no_processes": {"processes": 0},
    "unknown_scheduler": {"scheduler": "bogus"},
    "round_robin_with_a_bound": {"scheduler": "round_robin", "fairness_bound": 5},
    "leaving_pid_out_of_range": {"topology": "departure_line", "processes": 3, "leaving": [7]},
    "leaving_not_a_list": {"topology": "departure_line", "processes": 3, "leaving": "01"},
    # Only a field absent from the file takes its default.
    **{f"{name}_null": {name: None} for name in cli._INTEGERS},
}


@pytest.mark.parametrize("name", sorted(BAD_FIELDS))
def test_bad_field_is_parse_error(tmp_path, name):
    fields = {"topology": "random_connected", "predicate": "none", "max_steps": 5, **BAD_FIELDS[name]}
    path = write_scenario(tmp_path, **fields)
    out = io.StringIO()
    assert cli.run_scenario(path, out=out) == cli.EXIT_PARSE
    assert out.getvalue().startswith("error=parse detail=")
    assert "steps=" not in out.getvalue()


def test_readme_lists_exactly_the_scenario_fields():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| field ", 1)[1].split("\n\n", 1)[0]
    listed = re.findall(r"^\| `(\w+)` ", table, flags=re.M)
    assert len(listed) == len(set(listed))
    assert set(listed) == set(cli._INTEGERS) | set(cli._CHOICES) | {"leaving"}


def test_scenario_that_is_not_an_object_is_parse_error(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text("[]")
    out = io.StringIO()
    assert cli.run_scenario(str(path), out=out) == cli.EXIT_PARSE
    assert out.getvalue() == "error=parse detail=scenario must be a JSON object\n"


def test_departure_app_off_its_topology_is_parse_error(tmp_path):
    path = write_scenario(tmp_path, topology="random_connected", app="departure", leaving=[0],
                          predicate="fdp_legitimate")
    out = io.StringIO()
    assert cli.run_scenario(path, out=out) == cli.EXIT_PARSE
    assert out.getvalue().startswith("error=parse detail=app ")


def test_leaving_off_the_departure_line_is_parse_error(tmp_path, monkeypatch):
    # Only `departure_line` runs the actor that acts on `leaving`; elsewhere
    # the run would spend its whole budget waiting for a departure.
    path = write_scenario(tmp_path, topology="random_connected", leaving=[0], predicate="fdp_legitimate")

    def no_step(world):
        raise AssertionError("stepped a scenario that should not parse")

    monkeypatch.setattr(WorldState, "step", no_step)
    out = io.StringIO()
    assert cli.run_scenario(path, out=out) == cli.EXIT_PARSE
    assert out.getvalue().startswith("error=parse detail=leaving")


def test_main_prints_to_the_current_stdout(tmp_path, capsys):
    path = write_scenario(tmp_path, seed=1, topology="triangle", predicate="none", max_steps=5)
    assert cli.main(["run", path, "--max-steps", "-3"]) == cli.EXIT_PARSE
    assert capsys.readouterr().out.startswith("error=parse detail=")
    assert cli.main(["run", path]) == cli.EXIT_BUDGET
    assert report_dict(capsys.readouterr().out)["steps"] == "5"


def test_non_integer_flag_is_parse_error(tmp_path, capsys):
    path = write_scenario(tmp_path, seed=1, topology="triangle", predicate="none", max_steps=5)
    assert cli.main(["run", path, "--max-steps", "abc"]) == cli.EXIT_PARSE
    out = capsys.readouterr().out
    assert out == "error=parse detail=argument --max-steps: invalid int value: 'abc'\n"


def test_missing_command_is_parse_error(capsys):
    assert cli.main([]) == cli.EXIT_PARSE
    assert capsys.readouterr().out == "error=parse detail=the following arguments are required: command\n"


def test_help_still_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["run", "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: relaysim run ")


def test_unwritable_trace_is_parse_error_before_any_step(tmp_path, monkeypatch):
    path = write_scenario(tmp_path, seed=1, topology="triangle", predicate="none", max_steps=5)

    def no_step(world):
        raise AssertionError("stepped before checking the trace path")

    monkeypatch.setattr(WorldState, "step", no_step)
    out = io.StringIO()
    code = cli.run_scenario(path, trace_path=str(tmp_path / "missing" / "t.log"), out=out)
    assert code == cli.EXIT_PARSE
    assert out.getvalue().startswith("error=parse detail=")


def test_uncreatable_dot_dir_is_parse_error(tmp_path):
    path = write_scenario(tmp_path, seed=1, topology="triangle", predicate="none", max_steps=5)
    (tmp_path / "file").write_text("")
    out = io.StringIO()
    code = cli.run_scenario(path, dot_every=1, dot_dir=str(tmp_path / "file" / "frames"), out=out)
    assert code == cli.EXIT_PARSE
    assert out.getvalue().startswith("error=parse detail=")


@pytest.mark.parametrize("flags", [
    {"max_steps": -3},
    {"dot_every": -1, "dot_dir": "frames"},
    {"dot_every": 5},
    {"dot_dir": "frames"},
])
def test_bad_run_flags_are_parse_errors(tmp_path, flags):
    path = write_scenario(tmp_path, seed=1, topology="triangle", predicate="none", max_steps=5)
    if "dot_dir" in flags:
        flags = {**flags, "dot_dir": str(tmp_path / flags["dot_dir"])}
    out = io.StringIO()
    assert cli.run_scenario(path, out=out, **flags) == cli.EXIT_PARSE
    assert out.getvalue().startswith("error=parse detail=")
    assert not (tmp_path / "frames").exists()


def test_budget_exhaustion_exit_code(tmp_path):
    path = write_scenario(tmp_path, seed=1, topology="triangle", predicate="none", max_steps=5)
    out = io.StringIO()
    assert cli.run_scenario(path, out=out) == cli.EXIT_BUDGET


def test_trace_and_seed_override(tmp_path):
    path = write_scenario(tmp_path, seed=1, topology="triangle", predicate="none", max_steps=50)
    t1, t2 = tmp_path / "a.log", tmp_path / "b.log"
    out = io.StringIO()
    cli.run_scenario(path, trace_path=str(t1), seed=9, out=out)
    cli.run_scenario(path, trace_path=str(t2), seed=9, out=io.StringIO())
    assert t1.read_bytes() == t2.read_bytes()


def test_report_is_reproducible(tmp_path):
    path = write_scenario(tmp_path, seed=7, topology="random_connected", processes=4,
                          predicate="settled", max_steps=20000)
    a, b = io.StringIO(), io.StringIO()
    cli.run_scenario(path, out=a)
    cli.run_scenario(path, out=b)
    assert a.getvalue() == b.getvalue()


def test_round_robin_scenario_is_reproducible(tmp_path):
    fields = dict(seed=5, topology="adversarial", processes=4, relays=12, messages=12,
                  app="random_deliberate", predicate="is_legal", max_steps=60000)
    path = write_scenario(tmp_path, scheduler="round_robin", **fields)
    a, b = io.StringIO(), io.StringIO()
    assert cli.run_scenario(path, out=a) == cli.EXIT_OK
    assert cli.run_scenario(path, out=b) == cli.EXIT_OK
    assert a.getvalue() == b.getvalue()
    # The field reaches the kernel: the random scheduler ends elsewhere.
    random_path = write_scenario(tmp_path, "random.json", scheduler="random", **fields)
    c = io.StringIO()
    assert cli.run_scenario(random_path, out=c) == cli.EXIT_OK
    assert report_dict(a.getvalue())["state_hash"] != report_dict(c.getvalue())["state_hash"]


def test_dot_export_round_trips_through_own_parser():
    text = oracle.to_dot(fig_triangle())
    assert text.startswith("digraph")
    # process-level dot files parse back into multigraphs
    g = rules.ProcessMultigraph.of(range(3), [(0, 1), (1, 2)])
    lines = ["digraph g {"] + [f"  p{u} -> p{v};" for u, v in g.edges] + ["}"]
    parsed = cli.parse_process_dot("\n".join(lines))
    assert parsed.edges == g.edges


def test_one_line_dot_parses():
    parsed = cli.parse_process_dot("digraph g { p0 -> p1; p1 -> p0; }")
    assert parsed.edges == ((0, 1), (1, 0))


def test_dot_attribute_semicolon_does_not_split_a_statement():
    parsed = cli.parse_process_dot('digraph g {\n p0 -> p1 [label="a;b"];\n p1 -> p2;\n}\n')
    assert parsed.edges == ((0, 1), (1, 2))


def test_dot_comments_and_bare_nodes_parse():
    parsed = cli.parse_process_dot("// source\ndigraph g {\n  # one edge, one lone node\n  p0 -> p1; p2\n}\n")
    assert parsed.processes == (0, 1, 2)
    assert parsed.edges == ((0, 1),)


def test_comment_only_dot_is_empty_graph():
    with pytest.raises(cli.ScenarioError, match="empty graph"):
        cli.parse_process_dot("// nothing\n# here\n")


def test_text_that_is_not_dot_does_not_parse():
    with pytest.raises(cli.ScenarioError):
        cli.parse_process_dot("this is not dot")


def test_dot_frames_written(tmp_path):
    path = write_scenario(tmp_path, seed=1, topology="triangle", predicate="none", max_steps=30)
    out = io.StringIO()
    cli.run_scenario(path, dot_every=10, dot_dir=str(tmp_path / "frames"), out=out)
    frames = sorted((tmp_path / "frames").glob("*.dot"))
    assert [f.name for f in frames] == ["frame_00000.dot", "frame_00001.dot", "frame_00002.dot"]
    twin = cli.build_world(cli.load_scenario(path))
    for frame in frames:
        twin.run(10)
        assert frame.read_text() == oracle.to_dot(twin)


def test_transform_command(tmp_path):
    src = tmp_path / "src.dot"
    tgt = tmp_path / "tgt.dot"
    src.write_text("digraph g {\n p0 -> p1;\n p1 -> p2;\n}\n")
    tgt.write_text("digraph g {\n p1 -> p0;\n p2 -> p0;\n}\n")
    out = io.StringIO()
    code = cli.run_transform(str(src), str(tgt), out=out)
    report = report_dict(out.getvalue())
    assert code == cli.EXIT_OK
    assert report["final_cpg"] == "match"
    assert report["connectivity_violations"] == "0"


def test_transform_to_the_same_file_plans_nothing(tmp_path, capsys):
    dot = tmp_path / "g.dot"
    dot.write_text("digraph g {\n p0 -> p1;\n p0 -> p1;\n p1 -> p2;\n p2 -> p0;\n}\n")
    assert cli.main(["transform", str(dot), str(dot)]) == cli.EXIT_OK
    report = report_dict(capsys.readouterr().out)
    assert report["plan_steps"] == "0"
    assert report["final_cpg"] == "match"


def test_transform_bad_dot_is_parse_error(tmp_path):
    src = tmp_path / "src.dot"
    tgt = tmp_path / "tgt.dot"
    src.write_text("this is not dot")
    tgt.write_text("digraph g {\n p1 -> p0;\n}\n")
    out = io.StringIO()
    assert cli.run_transform(str(src), str(tgt), out=out) == cli.EXIT_PARSE


def test_transform_non_utf8_dot_is_parse_error(tmp_path):
    src = tmp_path / "src.dot"
    tgt = tmp_path / "tgt.dot"
    src.write_bytes(b"digraph g {\n p0 -> p1 \xff\xfe;\n}\n")
    tgt.write_text("digraph g {\n p1 -> p0;\n}\n")
    out = io.StringIO()
    assert cli.run_transform(str(src), str(tgt), out=out) == cli.EXIT_PARSE
    assert out.getvalue().startswith("error=parse detail=")


def test_transform_gapped_process_ids_are_parse_error(tmp_path, monkeypatch):
    # A gap would leave isolated processes; it must fail before any world
    # with that many processes is built.
    def no_build(*args, **kwargs):
        raise AssertionError("world built for a gapped graph")

    monkeypatch.setattr(rules, "build_simple_realization", no_build)
    src = tmp_path / "src.dot"
    tgt = tmp_path / "tgt.dot"
    src.write_text("digraph g {\n p0 -> p1;\n p100000 -> p0;\n}\n")
    tgt.write_text("digraph g {\n p1 -> p0;\n}\n")
    out = io.StringIO()
    assert cli.run_transform(str(src), str(tgt), out=out) == cli.EXIT_PARSE
    assert out.getvalue().startswith("error=parse detail=")


TRANSFORM_ERRORS = {
    "target_self_loop": ("p0 -> p1;", "p0 -> p0; p0 -> p1;", "self-loops are not supported"),
    "target_other_processes": ("p0 -> p1;", "p0 -> p1; p1 -> p2;", "target names a different process set"),
    "source_disconnected": ("p0 -> p1; p2 -> p3;", "p1 -> p0; p3 -> p2; p2 -> p0;",
                            "source graph is not weakly connected"),
    "letter_node": ("a -> p1;", "p0 -> p1;", "process node expected, got 'a'"),
}


@pytest.mark.parametrize("name", sorted(TRANSFORM_ERRORS))
def test_transform_error_is_parse_error(tmp_path, name):
    source, target, detail = TRANSFORM_ERRORS[name]
    src = tmp_path / "src.dot"
    tgt = tmp_path / "tgt.dot"
    src.write_text(f"digraph g {{ {source} }}\n")
    tgt.write_text(f"digraph g {{ {target} }}\n")
    out = io.StringIO()
    assert cli.run_transform(str(src), str(tgt), out=out) == cli.EXIT_PARSE
    assert out.getvalue() == f"error=parse detail={detail}\n"


def test_main_entry_point(tmp_path):
    path = write_scenario(tmp_path, seed=1, topology="triangle", predicate="is_legal")
    assert cli.main(["run", path]) == cli.EXIT_OK


def test_main_dispatches_transform_and_suite(tmp_path, capsys):
    src, tgt = tmp_path / "src.dot", tmp_path / "tgt.dot"
    src.write_text("p0 -> p1;\n")
    tgt.write_text("p1 -> p0;\n")
    assert cli.main(["transform", str(src), str(tgt), "--seed", "3"]) == cli.EXIT_OK
    assert report_dict(capsys.readouterr().out)["final_cpg"] == "match"
    assert cli.main(["suite", "no_such_suite"]) == cli.EXIT_PARSE
    assert capsys.readouterr().out == "error=parse detail=unknown suite no_such_suite\n"


def test_unknown_suite_is_parse_error():
    out = io.StringIO()
    assert cli.run_suite("no_such_suite", out=out) == cli.EXIT_PARSE
    assert out.getvalue() == "error=parse detail=unknown suite no_such_suite\n"


def test_suite_internal_key_error_propagates(monkeypatch):
    from relaysim import suites

    def broken():
        raise KeyError("inside a run")

    monkeypatch.setitem(suites.SUITES, "delivery", broken)
    with pytest.raises(KeyError, match="inside a run"):
        cli.run_suite("delivery", out=io.StringIO())


def _raise_on_odd(seed):
    if seed % 2:
        raise ValueError(f"seed {seed}")
    return {"hash": str(seed)}


@pytest.mark.parametrize("runs", [3, 8])
def test_suite_run_that_raises_counts_as_failed(monkeypatch, runs):
    # 3 runs take the serial path; 8 go through the pool.
    from relaysim import suites

    monkeypatch.setattr(suites.os, "cpu_count", lambda: 2)

    def probe():
        return suites._suite("probe", _raise_on_odd, range(runs), lambda t, results: (True, f"runs={len(results)}"))

    monkeypatch.setitem(suites.SUITES, "shutdown", probe)
    out = io.StringIO()
    assert cli.run_suite("shutdown", out=out) == cli.EXIT_ORACLE
    assert out.getvalue() == f"criterion=probe runs={runs} raised={runs // 2}:ValueError pass=no\n"
    assert probe().trace == "\n".join(str(seed) for seed in range(0, runs, 2))


def test_suite_summary_survives_every_run_raising(monkeypatch):
    from relaysim import suites

    def broken(seed):
        raise RuntimeError("inside a run")

    monkeypatch.setattr(suites, "_convergence_run", broken)
    report = suites.run_convergence(runs=2)
    assert not report.passed
    assert report.lines[0].endswith(
        f"max_steps=0 window={suites.CLOSURE_WINDOW} window_violations=0 raised=2:RuntimeError pass=no"
    )
