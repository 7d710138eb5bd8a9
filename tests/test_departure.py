"""Departure actor: leavers stop, stayers keep a connected overlay."""

import random

import pytest

from relaysim import oracle
from relaysim.apps import IdleApp
from relaysim.departure import DepartureApp, build_departure_world, safe_to_stop
from relaysim.kernel import connect, give_door, new_world
from relaysim.suites import depart


def run_departure(seed, n, edges, leaving, budget=40000):
    world = build_departure_world(seed, n, edges, leaving)
    outcome, steps = depart(world, budget)
    assert outcome != "unsafe", f"stayers split at step {steps}"
    return world, steps, outcome == "ok"


def test_leaving_leaf_detaches_and_stops():
    world, steps, done = run_departure(1, 3, [(0, 1), (1, 2)], leaving=[2])
    assert done
    assert not world.processes[2].active
    res = world.run_until(lambda w: w.layer_of(2) is None, 20000)
    assert res.reached  # the stopped process's layer drains and shuts down


def test_staying_process_tick_is_noop():
    world = build_departure_world(2, 2, [(0, 1)], leaving=[])
    before = world.state_hash()
    world.processes[0].app.on_tick(world.ctx(0))
    assert world.state_hash() == before


def test_stayer_drops_its_edge_to_a_leaver_when_the_retire_notice_arrives():
    # Stayer 0's only peer is the leaver; the leaver's own edge to 0 is what
    # keeps the two connected after 0 lets go of its edge.
    world = build_departure_world(8, 2, [(0, 1)], leaving=[1])
    initial = oracle.process_components(world)
    notified = False
    for _ in range(40000):
        if oracle.fdp_legitimate(world, initial):
            break
        assert oracle.stayers_connected(world, initial)
        store = world.processes[0].store
        if 1 in store.get("retired", ()):
            notified = True
            assert 1 not in store["peers"]
        world.step()
    else:
        raise AssertionError("departure never completed")
    assert notified


WIDE_SPLITS = {
    # seed: (n, undirected edges, leavers), the `wide` starts of tools/fdp_sweep.py
    # whose stayers split when a leaver cut its last edge to any retired peer
    5011: (10, [(0, 1), (0, 2), (0, 4), (0, 5), (0, 9), (1, 5), (1, 7), (1, 9), (2, 3), (3, 6), (3, 8), (6, 7)],
           [0, 1, 2, 3, 4, 6, 7, 9]),
    5249: (14, [(0, 1), (0, 12), (1, 2), (1, 3), (1, 7), (2, 5), (3, 4), (3, 8), (4, 6), (4, 13), (7, 9), (7, 11),
                (9, 10)], [0, 1, 2, 4, 5, 7, 8, 9, 10, 12, 13]),
    6178: (7, [(0, 1), (0, 2), (0, 5), (1, 2), (1, 4), (2, 3), (4, 6)], [0, 1, 2, 3, 6]),
    6536: (14, [(0, 1), (0, 3), (0, 8), (1, 2), (1, 4), (1, 13), (2, 11), (3, 5), (4, 6), (6, 7), (8, 9), (8, 12),
                (9, 10)], [0, 1, 2, 3, 5, 6, 7, 8, 9, 10, 11]),
    6733: (16, [(0, 1), (0, 2), (0, 3), (0, 9), (0, 13), (1, 4), (2, 15), (3, 5), (3, 6), (3, 9), (5, 7), (5, 8),
                (6, 10), (10, 11), (11, 12), (13, 14)], [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 14, 15]),
    6767: (11, [(0, 1), (0, 2), (0, 5), (0, 7), (1, 3), (3, 4), (3, 10), (4, 6), (4, 8), (4, 9)],
           [0, 1, 2, 3, 5, 8, 9, 10]),
    7158: (12, [(0, 1), (0, 3), (0, 4), (1, 2), (1, 9), (1, 11), (2, 5), (2, 6), (3, 7), (4, 8), (8, 10)],
           [0, 1, 2, 3, 4, 6, 7, 10, 11]),
    7195: (10, [(0, 1), (0, 2), (1, 3), (1, 5), (2, 6), (2, 8), (3, 4), (4, 7), (4, 9), (5, 6)], [0, 1, 3, 4, 7]),
    8115: (7, [(0, 1), (0, 5), (1, 2), (1, 6), (2, 3), (2, 4), (2, 6)], [0, 1, 2, 6]),
    8121: (13, [(0, 1), (0, 2), (0, 4), (0, 8), (0, 11), (1, 5), (1, 9), (1, 12), (2, 3), (2, 7), (3, 10), (4, 6)],
           [0, 1, 2, 3, 4, 5, 7, 8, 9, 11]),
}


@pytest.mark.parametrize("seed", sorted(WIDE_SPLITS))
def test_stayers_stay_connected_when_most_processes_leave(seed):
    n, edges, leaving = WIDE_SPLITS[seed]
    world, steps, done = run_departure(seed, n, edges, leaving)
    assert done


def test_leavers_holding_only_each_other_still_depart():
    # `wide` seed 6034 of tools/fdp_sweep.py: a last-edge rule that waits for
    # a leaver's sinks to drain gets stuck here, with leavers 1 and 3 holding
    # only each other and stayer 5 alone.
    edges = [(1, 0), (2, 0), (3, 0), (4, 1), (5, 0), (5, 2), (3, 4), (2, 3), (1, 4)]
    world, steps, done = run_departure(6034, 6, edges, leaving=[2, 1, 3, 0, 4])
    assert done


def test_hello_is_answered_with_a_live_door():
    # Process 1's stored door is a relay it has deleted.  Its answer to a
    # `hello` carries a fresh door, which replaces 0's edge to 1.
    world = build_departure_world(9, 2, [(0, 1)], leaving=[])
    ctx0, ctx1 = world.ctx(0), world.ctx(1)
    gone = ctx1.layer.new_relay()
    ctx1.layer.delete_relay(gone)
    ctx1.store["door"] = gone
    old = ctx0.store["peers"][1]
    ctx0.send(old, "hello", (ctx0.layer.new_relay(), 0))
    assert world.run_until(lambda w: w.is_settled(), 1000).reached
    assert not ctx1.layer.dead(ctx1.store["door"])
    edge = ctx0.store["peers"][1]
    assert edge != old and not ctx0.layer.dead(edge)
    assert oracle.process_components(world) == [[0, 1]]


def test_middle_of_line_leaves_and_ends_bridge_the_gap():
    world, steps, done = run_departure(3, 3, [(0, 1), (1, 2)], leaving=[1])
    assert done
    comps = oracle.process_components(world)
    assert [0, 2] in comps


def test_two_adjacent_leavers_in_line_of_four():
    world, steps, done = run_departure(4, 4, [(0, 1), (1, 2), (2, 3)], leaving=[1, 2])
    assert done
    comps = oracle.process_components(world)
    assert [0, 3] in comps


def test_all_leaving_component_drains_completely():
    world, steps, done = run_departure(5, 2, [(0, 1)], leaving=[0, 1])
    assert done
    res = world.run_until(lambda w: not w.layers, 20000)
    assert res.reached


class Vanish:
    """Deletes every relay and stops on its first tick."""

    def on_tick(self, ctx):
        for ref in ctx.layer.get_relays():
            ctx.layer.delete_relay(ref)
        ctx.stop()

    def on_message(self, ctx, action, via):
        pass


def test_departure_that_splits_the_stayers_after_reaching_the_end_state_is_unsafe():
    # Stayers 0 and 2 are joined only through the stopped leaver's tombstones:
    # the end state holds after the leaver's first tick, and is lost when
    # the tombstones are collected.
    world = build_departure_world(5, 3, [(0, 1), (1, 2)], [1])
    world.processes[1].app = Vanish()
    assert depart(world, 5000) == ("unsafe", 3)


def test_leaver_that_never_acts_is_stuck():
    world = build_departure_world(5, 3, [(0, 1), (1, 2)], [1])
    world.processes[1].app = IdleApp()
    assert depart(world, 500) == ("stuck", 500)


def test_safe_to_stop_predicate():
    world = new_world(6, 2)
    door = give_door(world, 0)
    assert safe_to_stop(world.ctx(0))
    connect(world, 1, door.relay_id)
    assert not safe_to_stop(world.ctx(0))


def test_safe_stop_never_breaks_safety_in_random_scenarios():
    for seed in range(25):
        rng = random.Random(seed)
        n = 4 + seed % 4
        edges = [(i, rng.randrange(i)) for i in range(1, n)]
        for _ in range(2):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.append((u, v))
        leaving = rng.sample(range(n), 1 + seed % 2)
        world, steps, done = run_departure(seed, n, edges, leaving)
        assert done, f"seed {seed} never reached the target state"


def test_departure_from_corrupt_start_departs_after_stabilization():
    # The departure actor weaves processes out of a bidirectional overlay.
    # From an arbitrary corrupted start the relay layer first stabilizes;
    # the overlay is then rebuilt through the actor's own handshake before
    # anyone leaves.  Safety is checked from that point on.
    from relaysim.core import RelayRef
    from relaysim.kernel import adversarial_init

    world = adversarial_init(7, 4, 10, 8, "mixed")
    for pid in world.processes:
        world.processes[pid].app = DepartureApp()
        world.processes[pid].store["peers"] = {}
    res = world.run_until(oracle.is_legal, 60000)
    assert res.reached

    for pid in world.processes:
        ctx = world.ctx(pid)
        layer = world.layer_of(pid)
        for relay in list(layer.relays.values()):
            if relay.alive and relay.out_id is not None and relay.level == 1:
                world.processes[pid].store["peers"][relay.sink_rid] = RelayRef(relay.id)
                fresh = ctx.layer.new_relay()
                ctx.send(RelayRef(relay.id), "hello", (fresh, pid))
    res = world.run_until(lambda w: w.is_settled(), 60000)
    assert res.reached

    world.processes[3].leaving = True
    outcome, steps = depart(world, 60000)
    assert outcome == "ok", f"departure {outcome} after {steps} steps"
