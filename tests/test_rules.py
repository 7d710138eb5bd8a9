"""Rule macros, process-graph projection, emulation, transformation plans."""

import hashlib
import itertools
from collections import Counter
from pathlib import Path

import pytest

from relaysim import oracle, rules
from relaysim.core import Rid
from relaysim.kernel import connect, connect_door, give_door, new_world, random_connected_world


def settled(world, budget=8000):
    res = world.run_until(lambda w: w.is_settled(), budget)
    assert res.reached
    return world


def one_component(world):
    return len(oracle.process_components(world)) == 1


# -- cpg -------------------------------------------------------------------


def test_cpg_single_pair():
    g = rules.ProcessMultigraph.of(range(2), [(0, 1)])
    world = settled(rules.build_simple_realization(0, g))
    assert rules.cpg(world).edges == ((0, 1),)


def test_cpg_counts_parallel_edges():
    g = rules.ProcessMultigraph.of(range(2), [(0, 1), (0, 1)])
    world = settled(rules.build_simple_realization(1, g))
    assert rules.cpg(world).edges == ((0, 1), (0, 1))


def test_cpg_matches_hand_count_on_triangle_without_indirect():
    world = new_world(2, 3)
    give_door(world, 1)
    connect_door(world, 2, 1)
    settled(world)
    assert rules.cpg(world).edges == ((2, 1),)


def test_cpg_rejects_indirect_relays():
    world = new_world(3, 3)
    mid = connect_door(world, 1, 2)
    connect(world, 0, mid.relay_id)
    settled(world)
    with pytest.raises(rules.PlanError):
        rules.cpg(world)


# -- introduction -------------------------------------------------------------


def test_introduction_adds_implicit_then_explicit_edge():
    world = new_world(4, 2)
    r = connect_door(world, 0, 1)
    layer = world.layer_of(0)
    s = layer.new_relay()
    vertices_before = len(oracle.extract_relay_graph(world).vertices)
    rules.relay_introduction(world, 0, r, s)
    g = oracle.extract_relay_graph(world)
    assert len(g.vertices) == vertices_before  # nothing removed
    assert any(a == (oracle.RELAY, r.relay_id) for a, b in g.implicit_edges)
    settled(world)
    created = [
        relay for relay in world.layer_of(1).relays.values() if relay.out_id == s.relay_id
    ]
    assert len(created) == 1 and created[0].level == 1


def test_introduction_received_relay_same_target_as_chain():
    world = new_world(5, 2)
    r = connect_door(world, 0, 1)
    layer = world.layer_of(0)
    s = layer.new_relay()
    rules.relay_introduction(world, 0, r, s)
    rules.relay_introduction(world, 0, r, s)
    settled(world)
    layer1 = world.layer_of(1)
    twins = [relay for relay in layer1.relays.values() if relay.out_id == s.relay_id]
    assert len(twins) == 2
    from relaysim.core import RelayRef

    assert layer1.same_target(RelayRef(twins[0].id), RelayRef(twins[1].id))


# -- fusion ---------------------------------------------------------------------


def test_fusion_merges_parallel_relays():
    g = rules.ProcessMultigraph.of(range(2), [(0, 1), (0, 1)])
    world = settled(rules.build_simple_realization(6, g, shared_sinks=True))
    refs = [ref for _, ref in world.processes[0].store["edges"]]
    keys_before = set().union(
        *(world.layer_of(0).relays[r.relay_id].out_keys for r in refs)
    )
    merged = rules.relay_fusion(world, 0, refs[0], refs[1])
    assert merged is not None
    assert world.layer_of(0).relays[merged.relay_id].out_keys == keys_before
    settled(world)
    assert rules.cpg(world).edges == ((0, 1),)


def test_fusion_on_different_targets_is_noop():
    g = rules.ProcessMultigraph.of(range(3), [(0, 1), (0, 2)])
    world = settled(rules.build_simple_realization(7, g))
    refs = [ref for _, ref in world.processes[0].store["edges"]]
    assert rules.relay_fusion(world, 0, refs[0], refs[1]) is None
    assert rules.cpg(world).edges == ((0, 1), (0, 2))


# -- reversal ----------------------------------------------------------------------


def test_reversal_moves_edge_and_keeps_connectivity():
    g = rules.ProcessMultigraph.of(range(2), [(0, 1)])
    world = settled(rules.build_simple_realization(8, g))
    (target, ref), = world.processes[0].store["edges"]
    s = world.layer_of(0).new_relay()
    assert one_component(world)
    assert rules.relay_reversal(world, 0, ref, s)
    assert one_component(world)  # implicit edge bridges the gap mid-flight
    settled(world)
    assert one_component(world)
    assert rules.cpg(world).edges == ((1, 0),)


def test_reversal_rejected_with_incoming_connections():
    world = new_world(9, 2)
    door = give_door(world, 0)
    connect(world, 1, door.relay_id)
    s = world.layer_of(0).new_relay()
    before = world.state_hash()
    assert not rules.relay_reversal(world, 0, door, s)
    assert world.state_hash() == before


# -- emulation ------------------------------------------------------------------------


def run_fragment(world, steps):
    rules.execute_plan(world, rules.TransformPlan(steps, rules.initial_slots(world)))
    return world


def edge_slots(world):
    slots = {}
    for pid, proc in world.processes.items():
        for tgt, ref in proc.store.get("edges", []):
            slots.setdefault((pid, tgt), []).append(
                f"w{ref.relay_id.rid}_{ref.relay_id.serial}"
            )
    return slots


def test_emulated_introduction_delta():
    g = rules.ProcessMultigraph.of(range(3), [(0, 1), (0, 2)])
    world = settled(rules.build_simple_realization(10, g))
    slots = edge_slots(world)
    steps = rules.emulate_process_rule(
        "introduction",
        {"u": 0, "v": 1, "w": 2, "u_to_v": slots[(0, 1)][0], "u_to_w": slots[(0, 2)][0]},
    )
    before = Counter(rules.cpg(world).edges)
    run_fragment(world, steps)
    after = Counter(rules.cpg(world).edges)
    assert after - before == Counter({(1, 2): 1})
    assert before - after == Counter()


def test_emulated_delegation_delta():
    g = rules.ProcessMultigraph.of(range(3), [(0, 1), (0, 2)])
    world = settled(rules.build_simple_realization(11, g))
    slots = edge_slots(world)
    steps = rules.emulate_process_rule(
        "delegation",
        {"u": 0, "v": 1, "w": 2, "u_to_v": slots[(0, 1)][0], "u_to_w": slots[(0, 2)][0]},
    )
    before = Counter(rules.cpg(world).edges)
    run_fragment(world, steps)
    after = Counter(rules.cpg(world).edges)
    assert after - before == Counter({(1, 2): 1})
    assert before - after == Counter({(0, 2): 1})


def test_emulated_fusion_delta_on_parallel_edge():
    g = rules.ProcessMultigraph.of(range(2), [(0, 1), (0, 1)])
    world = settled(rules.build_simple_realization(12, g, shared_sinks=True))
    slots = edge_slots(world)
    steps = rules.emulate_process_rule(
        "fusion",
        {"u": 0, "v": 1, "slot_a": slots[(0, 1)][0], "slot_b": slots[(0, 1)][1], "same_target": True},
    )
    before = Counter(rules.cpg(world).edges)
    run_fragment(world, steps)
    after = Counter(rules.cpg(world).edges)
    assert before - after == Counter({(0, 1): 1}) and after - before == Counter()


def test_emulated_reversal_delta():
    g = rules.ProcessMultigraph.of(range(2), [(0, 1)])
    world = settled(rules.build_simple_realization(13, g))
    slots = edge_slots(world)
    steps = rules.emulate_process_rule("reversal", {"u": 0, "v": 1, "u_to_v": slots[(0, 1)][0]})
    run_fragment(world, steps)
    assert rules.cpg(world).edges == ((1, 0),)


# -- planner ------------------------------------------------------------------------------


def execute_checked(world, target):
    """Plan `target` for `world` and run the plan, asserting one component
    after every plan step and the target's edges at the end."""
    plan = rules.plan_transform(world, target)
    split = []
    rules.execute_plan(world, plan, on_step=lambda w, i, s: one_component(w) or split.append(i))
    assert split == []
    assert rules.cpg(world).edges == target.edges
    return plan


def transform_case(seed, src_edges, tgt_edges, n):
    src = rules.ProcessMultigraph.of(range(n), src_edges)
    tgt = rules.ProcessMultigraph.of(range(n), tgt_edges)
    return execute_checked(settled(rules.build_simple_realization(seed, src)), tgt)


def test_path_to_star():
    transform_case(14, [(0, 1), (1, 2)], [(1, 0), (2, 0)], 3)


def test_identity_target_plans_nothing():
    src = rules.ProcessMultigraph.of(range(3), [(0, 1), (1, 2)])
    world = settled(rules.build_simple_realization(15, src))
    before = world.state_hash()
    plan = rules.plan_transform(world, src)
    assert plan.steps == []
    rules.execute_plan(world, plan)
    assert world.state_hash() == before
    assert rules.cpg(world) == src


def test_step_at_a_stopped_process_raises_before_any_kernel_step():
    src = rules.ProcessMultigraph.of(range(3), [(0, 1), (1, 2)])
    world = settled(rules.build_simple_realization(22, src))
    world.ctx(2).stop()
    steps = world.step_count
    with pytest.raises(rules.PlanError, match="process 2 "):
        rules.execute_plan(world, rules.TransformPlan([rules.NewRelayStep(2, "late")], {}))
    assert world.step_count == steps
    assert "late" not in world.ctx(2).store["slots"]


def test_new_relay_steps_fill_their_slots_without_a_kernel_step():
    src = rules.ProcessMultigraph.of(range(3), [(0, 1), (1, 2)])
    world = settled(rules.build_simple_realization(23, src))
    steps = world.step_count
    plan = rules.TransformPlan([rules.NewRelayStep(0, "a"), rules.NewRelayStep(2, "b")], {})
    rules.execute_plan(world, plan)
    assert world.step_count == steps
    for pid, slot in ((0, "a"), (2, "b")):
        assert world.layer_of(pid).relays[world.ctx(pid).store["slots"][slot].relay_id].alive


def test_failed_reversal_precondition_raises_before_any_kernel_step():
    # 1's sink has an incoming connection from 0, so 1 may not reverse it.
    src = rules.ProcessMultigraph.of(range(2), [(0, 1)])
    world = settled(rules.build_simple_realization(28, src))
    init = rules.initial_slots(world)
    sink = next(slot for (pid, slot) in init if pid == 1)
    steps = world.step_count
    plan = rules.TransformPlan([rules.NewRelayStep(1, "n"), rules.ReversalStep(1, sink, "n", None)], init)
    with pytest.raises(rules.PlanError, match="reversal precondition failed"):
        rules.execute_plan(world, plan)
    assert world.step_count == steps
    # The failed step leaves the slot map as it found it: the sink keeps its slot.
    assert set(world.processes[1].store["slots"]) == {slot for (pid, slot) in init if pid == 1} | {"n"}


def test_fusion_that_merges_nothing_raises_and_keeps_both_slots():
    # 0's relays lead to different processes, so merge returns None.
    src = rules.ProcessMultigraph.of(range(3), [(0, 1), (0, 2)])
    world = settled(rules.build_simple_realization(29, src))
    init = rules.initial_slots(world)
    layer0 = world.layer_of(0)
    a, b = sorted(slot for (pid, slot), rid in init.items() if pid == 0 and layer0.relays[rid].out_id is not None)
    plan = rules.TransformPlan([rules.FusionStep(0, a, b, "m")], init)
    with pytest.raises(rules.PlanError, match="fusion merged nothing"):
        rules.execute_plan(world, plan)
    slots = world.processes[0].store["slots"]
    assert {slot: ref.relay_id for slot, ref in slots.items()} == {
        slot: rid for (pid, slot), rid in init.items() if pid == 0
    }


def test_plan_contains_only_rule_steps():
    src = rules.ProcessMultigraph.of(range(4), [(0, 1), (1, 2), (2, 3)])
    tgt = rules.ProcessMultigraph.of(range(4), [(3, 0), (2, 0), (1, 0)])
    world = settled(rules.build_simple_realization(16, src))
    plan = rules.plan_transform(world, tgt)
    allowed = (rules.NewRelayStep, rules.IntroductionStep, rules.ReversalStep, rules.FusionStep)
    assert plan.steps and all(isinstance(s, allowed) for s in plan.steps)


def test_plan_eliminates_indirect_relays_first():
    world = new_world(17, 3)
    mid = connect_door(world, 1, 2)
    connect(world, 0, mid.relay_id)
    connect_door(world, 0, 1)
    settled(world)
    tgt = rules.ProcessMultigraph.of(range(3), [(0, 1), (1, 2)])
    plan = rules.plan_transform(world, tgt)
    rules.execute_plan(world, plan)
    assert rules.cpg(world).edges == tgt.edges


def test_plan_rejects_disconnected_target():
    src = rules.ProcessMultigraph.of(range(3), [(0, 1), (1, 2)])
    world = settled(rules.build_simple_realization(18, src))
    bad = rules.ProcessMultigraph.of(range(3), [(0, 1)])
    with pytest.raises(rules.PlanError):
        rules.plan_transform(world, bad)


def test_plan_rejects_self_loops():
    src = rules.ProcessMultigraph.of(range(2), [(0, 1)])
    world = settled(rules.build_simple_realization(19, src))
    bad = rules.ProcessMultigraph.of(range(2), [(0, 0), (0, 1)])
    with pytest.raises(rules.PlanError):
        rules.plan_transform(world, bad)


def test_source_self_loops_are_transformed_away():
    # Only a target's self-loops are rejected; a source's are realized as a
    # relay feeding its own process's sink, and the plan removes them.
    transform_case(21, [(0, 0), (0, 1), (1, 1), (1, 2)], [(2, 0), (1, 0)], 3)


def test_phase_one_length_bounded_by_indirect_count():
    world = new_world(20, 4)
    mid = connect_door(world, 1, 2)
    far = connect(world, 0, mid.relay_id)
    connect(world, 3, far.relay_id)
    connect_door(world, 3, 0)
    settled(world)
    planner = rules._Planner(world)
    indirect = len(planner.indirect)
    planner.phase_eliminate_indirect()
    reversals = sum(1 for s in planner.steps if isinstance(s, rules.ReversalStep))
    assert reversals == indirect == 2


# -- plans of the pinned sources ------------------------------------------------------------


def seed_pairs():
    """The plan pin's 200 (seed, source, target) triples, 3 to 8 processes."""
    for seed in range(200):
        n = 3 + seed % 6
        yield seed, rules.random_multigraph(2 * seed + 1, n), rules.random_multigraph(2 * seed + 2, n)


def indirect_sources():
    """The plan pin's 60 settled worlds with indirect relays, each with its target."""
    for seed in range(60):
        n = 3 + seed % 6
        yield settled(random_connected_world(seed, n, extra_edges=2, chains=3)), rules.random_multigraph(seed, n)


def test_indirect_sources_reach_their_targets_connected():
    for world, target in indirect_sources():
        execute_checked(world, target)


def test_shared_sink_sources_reach_their_targets_connected():
    # Parallel edges on one sink are kept where the target keeps them, so
    # shared sinks survive into the final world.  The first 60 pairs of at
    # most 5 processes: parallel edges are likeliest there (39 of the 60
    # sources have some, 13 keep one), and larger worlds run slower.
    small = (pair for pair in seed_pairs() if len(pair[1].processes) <= 5)
    for seed, source, target in itertools.islice(small, 60):
        execute_checked(settled(rules.build_simple_realization(seed, source, shared_sinks=True)), target)


def test_every_source_planned_against_itself_is_empty():
    for seed, source, _ in seed_pairs():
        for shared in (False, True):
            world = settled(rules.build_simple_realization(seed, source, shared))
            assert rules.plan_transform(world, rules.cpg(world)).steps == []


def test_one_edge_edit_at_24_processes_plans_at_most_20_steps(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "tools"))
    import plan_lengths

    row = next(r for r in plan_lengths.rows([24], seeds=10, execute=False) if r["target"] == "edit")
    assert row["changed_max"] == 2 and row["plan_p50"] <= 20


def line_with_chord(n):
    """The line 0 -> 1 -> ... -> n-1, and the same line plus (n-3, n-1)."""
    line = [(i, i + 1) for i in range(n - 1)]
    return rules.ProcessMultigraph.of(range(n), line), rules.ProcessMultigraph.of(range(n), line + [(n - 3, n - 1)])


def test_edge_between_nearby_processes_plans_the_same_steps_at_any_size():
    # The endpoints are two hops apart at every n, so the plan has the same
    # 7 steps: n-3 introduces itself to n-2 (2 steps), n-2 introduces n-3 to
    # n-1 (3 steps), and the helper edge (n-2, n-3) is dropped (2 steps).
    lengths = []
    for n in (6, 12, 24, 48):
        source, target = line_with_chord(n)
        lengths.append(len(rules.plan_transform(settled(rules.build_simple_realization(n, source)), target).steps))
    assert lengths == [7] * 4
    source, target = line_with_chord(12)
    assert len(execute_checked(settled(rules.build_simple_realization(12, source)), target).steps) == 7


# -- plan pin -------------------------------------------------------------------------------

_EMULATIONS = [
    ("introduction", {"u": 0, "v": 1, "w": 2, "u_to_v": "a", "u_to_w": "b"}),
    ("delegation", {"u": 0, "v": 1, "w": 2, "u_to_v": "a", "u_to_w": "b", "result": "r"}),
    ("fusion", {"u": 0, "v": 1, "slot_a": "a", "slot_b": "b", "same_target": True}),
    ("fusion", {"u": 0, "v": 1, "slot_a": "a", "slot_b": "b"}),
    ("reversal", {"u": 0, "v": 1, "u_to_v": "a"}),
]


def test_plans_are_pinned_step_for_step():
    # Slot names travel in `adopt` messages, so they reach trace digests and
    # state hashes: a refactor of the planner must keep every plan, names and
    # counter order included.  465 plans: 200 seed pairs with plain and with
    # shared sinks, 60 sources with indirect relays, and the five emulations.
    # Re-recorded when plans stopped rebuilding edges the target keeps: the
    # 460 transformation plans went from 27,317 steps to 20,628.  Re-recorded
    # again when missing edges were added along a shortest path instead of
    # through a hub: 20,628 steps to 15,399.
    digest = hashlib.sha256()

    def feed(plan):
        digest.update(repr(plan.steps).encode())
        digest.update(repr(sorted(plan.initial_slots.items())).encode())

    for seed, source, target in seed_pairs():
        for shared in (False, True):
            feed(rules.plan_transform(settled(rules.build_simple_realization(seed, source, shared)), target))
    indirect = 0
    for world, target in indirect_sources():
        indirect += len(rules._Planner(world).indirect)
        feed(rules.plan_transform(world, target))
    for rule, bindings in _EMULATIONS:
        digest.update(repr(rules.emulate_process_rule(rule, bindings)).encode())
    assert indirect == 140
    assert digest.hexdigest() == "656b8ef3cce216c44555a8d96dc0bb719949c4d84bbb660c5ec6e099cec1ca21"
