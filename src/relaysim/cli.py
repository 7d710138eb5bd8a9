"""Batch harness: run scenario files, transform topologies, drive suites.

Scenario files are JSON.  Reports are ``key=value`` lines, so golden runs
diff cleanly, printed to `out` or else to `sys.stdout` as of the call.
Exit codes: 0 success, 2 parse error, 3 step budget exhausted, 4 oracle violation.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from operator import methodcaller
from pathlib import Path

from . import oracle, rules
from .apps import IdleApp, RandomDeliberateApp
from .departure import build_departure_world
from .kernel import (
    CORRUPTION_PROFILES,
    FAIRNESS_BOUND,
    WorldState,
    adversarial_init,
    fig_triangle,
    random_connected_world,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_ORACLE = 4


class ScenarioError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Turns a bad command line into a parse error, as a bad scenario file is;
    `--help` still prints its usage and exits."""

    def error(self, message):
        raise ScenarioError(message)


PREDICATES = {
    "is_legal": oracle.is_legal,
    "settled": methodcaller("is_settled"),  # looked up per poll, no Python frame
    "none": lambda w: False,
    "all_stopped": lambda w: not w.layers,
}

# The departure actor needs the peer tables only `departure_line` fills, and
# that topology always runs it, so it is no choice here.
APPS = {"idle": IdleApp, "random_deliberate": RandomDeliberateApp}

# Integer fields: default and least allowed value.  `relays` defaults to
# three per process.
_INTEGERS = {
    "seed": (0, None),
    "processes": (3, 1),
    "relays": (None, 0),
    "messages": (12, 0),
    "fairness_bound": (FAIRNESS_BOUND, 0),
    "max_steps": (20000, 0),
    "extra_edges": (2, 0),
    "chains": (1, 0),
}
# Fields with a closed set of values: default and allowed values.
_CHOICES = {
    "scheduler": ("random", ("random", "round_robin")),
    "topology": ("random_connected", ("triangle", "random_connected", "adversarial", "departure_line")),
    "corruption_profile": ("mixed", CORRUPTION_PROFILES),
    "app": ("idle", tuple(APPS)),
    "predicate": ("is_legal", (*PREDICATES, "fdp_legitimate")),
}


def load_scenario(path: str) -> dict:
    """Read a scenario file into a complete, typed scenario.

    Every field is checked and every missing one gets its default, so
    building and running the world cannot fail on the file's contents.
    """
    try:
        with open(path) as fh:
            scenario = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        raise ScenarioError(str(e))
    if not isinstance(scenario, dict):
        raise ScenarioError("scenario must be a JSON object")
    unknown = set(scenario) - set(_INTEGERS) - set(_CHOICES) - {"leaving"}
    if unknown:
        raise ScenarioError(f"unknown scenario fields: {sorted(unknown)}")
    typed = {}
    for name, (default, least) in _INTEGERS.items():
        value = scenario.get(name, default)
        if name not in scenario and value is None:
            continue
        if type(value) is not int:  # JSON true/false would pass isinstance
            raise ScenarioError(f"{name} must be an integer, got {value!r}")
        if least is not None and value < least:
            raise ScenarioError(f"{name} must be at least {least}, got {value}")
        typed[name] = value
    for name, (default, allowed) in _CHOICES.items():
        value = scenario.get(name, default)
        if value not in allowed:
            raise ScenarioError(f"{name} must be one of {', '.join(allowed)}, got {value!r}")
        typed[name] = value
    if typed["scheduler"] == "round_robin" and "fairness_bound" in scenario:
        raise ScenarioError("fairness_bound has no effect under scheduler round_robin, which forces every step")
    typed.setdefault("relays", 3 * typed["processes"])
    n = 3 if typed["topology"] == "triangle" else typed["processes"]
    leaving = scenario.get("leaving", [])
    if not isinstance(leaving, list) or any(type(p) is not int or not 0 <= p < n for p in leaving):
        raise ScenarioError(f"leaving must be a list of process ids below {n}, got {leaving!r}")
    if leaving and typed["topology"] != "departure_line":
        raise ScenarioError("leaving needs topology departure_line, the only one that runs the departure actor")
    typed["leaving"] = leaving
    return typed


def build_world(scenario: dict) -> WorldState:
    """The world a scenario from `load_scenario` describes."""
    seed, n, topology = scenario["seed"], scenario["processes"], scenario["topology"]
    if topology == "adversarial":
        world = adversarial_init(seed, n, scenario["relays"], scenario["messages"], scenario["corruption_profile"])
    elif topology == "triangle":
        world = fig_triangle(seed=seed)
    elif topology == "random_connected":
        world = random_connected_world(seed, n, extra_edges=scenario["extra_edges"], chains=scenario["chains"])
    else:
        edges = [(i, i + 1) for i in range(n - 1)]
        world = build_departure_world(seed, n, edges, scenario["leaving"])
    # Round robin forces every pick: every enabled action's age is at least 0.
    world.fairness_bound = -1 if scenario["scheduler"] == "round_robin" else scenario["fairness_bound"]
    app = APPS[scenario["app"]]
    for proc in world.processes.values():
        if proc.app is None:
            proc.app = app()
    return world


def run_scenario(path: str, trace_path: str = None, dot_every: int = 0, dot_dir: str = None,
                 max_steps: int = None, seed: int = None, out=None) -> int:
    # Every flag is checked, and every output opened, before the first step.
    try:
        scenario = load_scenario(path)
        if seed is not None:
            scenario["seed"] = seed
        if (max_steps or 0) < 0 or dot_every < 0:
            raise ScenarioError("--max-steps and --dot-every must be at least 0")
        if bool(dot_every) != bool(dot_dir):
            raise ScenarioError("--dot-every and --dot-dir must be given together")
        if dot_dir:
            Path(dot_dir).mkdir(parents=True, exist_ok=True)
        if trace_path:
            Path(trace_path).write_text("")
        world = build_world(scenario)
    except (OSError, ScenarioError) as e:
        print(f"error=parse detail={e}", file=out)
        return EXIT_PARSE

    predicate_name = scenario["predicate"]
    if predicate_name == "fdp_legitimate":
        initial = oracle.process_components(world)
        predicate = lambda w: oracle.fdp_legitimate(w, initial)
    else:
        predicate = PREDICATES[predicate_name]
    budget = max_steps if max_steps is not None else scenario["max_steps"]

    if trace_path:
        world.trace = []

    def watched(w: WorldState) -> bool:
        # run_until asks before each step and once after the budget: the
        # points where a frame is due.  A scenario's world starts at step 0.
        k = w.step_count
        if dot_every and k and k % dot_every == 0:
            (Path(dot_dir) / f"frame_{k // dot_every - 1:05d}.dot").write_text(oracle.to_dot(w))
        return predicate(w)

    steps, reached = world.run_until(watched, budget)
    check = oracle.WorldCheck(world)
    legal = check.is_legal()
    cycle_free = check.valid_graph_cycle_free()
    components = oracle.process_components(world)
    print(f"scenario={path}", file=out)
    print(f"seed={world.seed}", file=out)
    print(f"predicate={predicate_name}", file=out)
    print(f"steps={steps}", file=out)
    print(f"reached={'yes' if reached else 'no'}", file=out)
    print(f"legal={'yes' if legal else 'no'}", file=out)
    print(f"valid_graph_cycle_free={'yes' if cycle_free else 'no'}", file=out)
    print(f"components={len(components)}", file=out)
    print(f"state_hash={world.state_hash()}", file=out)
    if trace_path:
        Path(trace_path).write_text("\n".join(world.trace) + "\n")
    if not reached:
        return EXIT_BUDGET
    if predicate_name == "is_legal" and not cycle_free:
        return EXIT_ORACLE
    return EXIT_OK


# -- tiny DOT subset parser for the transform command ------------------------

# An attribute list; its quoted strings may hold `;` or `]`.
_ATTRS_RE = re.compile(r'\[(?:"[^"]*"|[^\]"])*\]')
# The graph's opening line or brace, or its closing brace.
_BRACES_RE = re.compile(r"^\s*(?:digraph\b\s*\w*\s*)?\{?|\}\s*$")


def parse_process_dot(text: str) -> rules.ProcessMultigraph:
    """Parse ``digraph { a -> b; ... }`` into a process multigraph.

    Statements end at `;` or at a line end, so a graph may sit on one line;
    attribute lists are ignored.  Node names must be integers or p<int>, and
    the ids must be exactly 0..n-1 (a gap would leave isolated processes);
    anything else is an error.
    """
    edges = []
    names = set()

    def pid_of(token: str) -> int:
        m = re.fullmatch(r"p?(\d+)", token)
        if not m:
            raise ScenarioError(f"process node expected, got {token!r}")
        return int(m.group(1))

    for line in text.splitlines():
        if line.lstrip().startswith(("//", "#")):
            continue
        for statement in _ATTRS_RE.sub("", line).split(";"):
            statement = _BRACES_RE.sub("", statement).strip()
            if not statement:
                continue
            edge = re.fullmatch(r"(\w+)\s*->\s*(\w+)", statement)
            if edge:
                u, v = pid_of(edge.group(1)), pid_of(edge.group(2))
                edges.append((u, v))
                names.update((u, v))
            elif re.fullmatch(r"\w+", statement):
                names.add(pid_of(statement))
            else:
                raise ScenarioError(f"unparseable dot statement: {statement!r}")
    if not names:
        raise ScenarioError("empty graph")
    if names != set(range(len(names))):
        raise ScenarioError(f"process ids must be 0..{len(names) - 1}, got {max(names)}")
    return rules.ProcessMultigraph.of(range(len(names)), edges)


def run_transform(source_path: str, target_path: str, seed: int = 0, out=None) -> int:
    try:
        source = parse_process_dot(Path(source_path).read_text())
        target = parse_process_dot(Path(target_path).read_text())
    except (OSError, UnicodeDecodeError, ScenarioError) as e:
        print(f"error=parse detail={e}", file=out)
        return EXIT_PARSE
    world = rules.build_simple_realization(seed, source)
    res = world.run_until(type(world).is_settled, 20000)
    if not res.reached:
        print("error=budget phase=settle", file=out)
        return EXIT_BUDGET
    try:
        plan = rules.plan_transform(world, target)
    except rules.PlanError as e:
        print(f"error=parse detail={e}", file=out)
        return EXIT_PARSE
    violations = []

    def on_step(w, i, step):
        if len(oracle.process_components(w)) != 1:
            violations.append(i)

    try:
        rules.execute_plan(world, plan, on_step=on_step)
    except rules.PlanError as e:
        print(f"error=oracle detail={e}", file=out)
        return EXIT_ORACLE
    final = rules.cpg(world)
    ok = final.edges == target.edges and not violations
    print(f"plan_steps={len(plan.steps)}", file=out)
    print(f"final_cpg={'match' if final.edges == target.edges else 'mismatch'}", file=out)
    print(f"connectivity_violations={len(violations)}", file=out)
    print(f"state_hash={world.state_hash()}", file=out)
    return EXIT_OK if ok else EXIT_ORACLE


def run_suite(name: str, out=None) -> int:
    from . import suites

    if name not in suites.SUITES:
        print(f"error=parse detail=unknown suite {name}", file=out)
        return EXIT_PARSE
    report = suites.run_suite(name)
    for line in report.lines:
        print(line, file=out)
    return EXIT_OK if report.passed else EXIT_ORACLE


def main(argv=None) -> int:
    parser = _Parser(prog="relaysim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file")
    p_run.add_argument("scenario")
    p_run.add_argument("--trace", default=None)
    p_run.add_argument("--dot-every", type=int, default=0)
    p_run.add_argument("--dot-dir", default=None)
    p_run.add_argument("--max-steps", type=int, default=None)
    p_run.add_argument("--seed", type=int, default=None)

    p_tr = sub.add_parser("transform", help="transform one topology into another")
    p_tr.add_argument("source")
    p_tr.add_argument("target")
    p_tr.add_argument("--seed", type=int, default=0)

    p_suite = sub.add_parser("suite", help="run an acceptance suite")
    p_suite.add_argument("name")

    try:
        args = parser.parse_args(argv)
    except ScenarioError as e:
        print(f"error=parse detail={e}")
        return EXIT_PARSE
    if args.command == "run":
        return run_scenario(
            args.scenario, trace_path=args.trace, dot_every=args.dot_every,
            dot_dir=args.dot_dir, max_steps=args.max_steps, seed=args.seed,
        )
    if args.command == "transform":
        return run_transform(args.source, args.target, seed=args.seed)
    if args.command == "suite":
        return run_suite(args.name)
    return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
