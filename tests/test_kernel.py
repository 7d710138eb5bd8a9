"""Scheduler, link layer, adversarial generator, determinism."""

import copy
import pickle
from collections import Counter
from itertools import combinations

import pytest

from relaysim import oracle, rules
from relaysim.apps import RandomDeliberateApp
from relaysim.core import (
    ActionInvocation,
    Envelope,
    Header,
    OutRelayClosed,
    Ping,
    Probe,
    RelayId,
    Rid,
    Transmit,
    confirmed_entry,
    unconfirmed_entry,
)
from relaysim.kernel import (
    _LAYER,
    _ORPHAN,
    _RELAY,
    _STOPPED_LAYER,
    _TICK,
    _TIMEOUT,
    MODE_RANDOM,
    MODE_ROUND_ROBIN,
    WorldState,
    adversarial_init,
    connect,
    connect_door,
    fig_triangle,
    give_door,
    new_world,
    random_connected_world,
)
from relaysim.layer import RelayLayer


def test_only_timeouts_enabled_in_quiet_world():
    world = new_world(0, 1)
    kinds = {a[0] for a in FullScanScheduler(world).enabled_actions()}
    assert kinds == {"timeout"}


def test_messages_can_be_delivered_out_of_order():
    received = []

    class Recorder:
        def on_tick(self, ctx):
            pass

        def on_message(self, ctx, action, via):
            received.append(action.params[0])

    reversed_somewhere = False
    for seed in range(40):
        world = new_world(seed, 2)
        world.processes[1].app = Recorder()
        ref = connect_door(world, 0, 1)
        received.clear()
        ctx = world.ctx(0)
        ctx.send(ref, "note", ("first",))
        ctx.send(ref, "note", ("second",))
        world.run_until(lambda w: len(received) >= 2, 4000)
        if received == ["second", "first"]:
            reversed_somewhere = True
            break
    assert reversed_somewhere


def test_fairness_bound_limits_starvation():
    world = new_world(5, 3)
    for pid in range(3):
        connect_door(world, pid, (pid + 1) % 3)
    world.ctx(0).send(world.processes[0].store.get("out", None) or
                      connect_door(world, 0, 1), "note", ("x",))
    ages = []
    for _ in range(5000):
        actions = FullScanScheduler(world).enabled_actions()
        ages.append(max(_indexed_age(world, a) for a in actions))
        world.step()
    assert max(ages) <= world.fairness_bound + len(actions) + 2


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_no_random_pick_after_the_bound_while_recurring_actions_exceed_it(seed):
    # With more than `fairness_bound` timeouts and ticks enabled, at most
    # `fairness_bound` of them ran in the last `fairness_bound` steps, so
    # from step `fairness_bound + 1` on one is always overdue and every pick
    # is forced.  The random pick's walk over layers relies on this.
    world = _with_apps(random_connected_world(seed, 40, 20, 4), max_relays=8)
    random_picks = 0
    for _ in range(1500):
        assert len(world._timeouts.order) + len(world._apps.order) > world.fairness_bound
        now, before = world.step_count, world.rng.getstate()
        world.step()
        if world.rng.getstate() != before:
            assert now <= world.fairness_bound, f"random pick at step {now}"
            random_picks += 1
    assert random_picks > 0


def test_round_robin_mode_is_deterministic_rotation():
    a = new_world(9, 2)
    a.mode = MODE_ROUND_ROBIN
    connect_door(a, 0, 1)
    b = new_world(9, 2)
    b.mode = MODE_ROUND_ROBIN
    connect_door(b, 0, 1)
    a.run(500)
    b.run(500)
    assert a.state_hash() == b.state_hash()


def test_run_until_trivial_predicates():
    world = new_world(1, 2)
    assert world.run_until(lambda w: True, 10).steps == 0
    res = world.run_until(lambda w: False, 10)
    assert res.steps == 10 and not res.reached


def test_run_until_reaches_legal_from_clean_two_process_start():
    world = new_world(3, 2)
    connect_door(world, 0, 1)
    res = world.run_until(oracle.is_legal, 2000)
    assert res.reached


def test_adversarial_none_profile_is_legal():
    world = adversarial_init(11, 4, 10, 0, "none")
    assert oracle.is_legal(world)


def test_adversarial_ids_reference_existing_processes():
    world = adversarial_init(13, 4, 12, 15, "mixed")
    pids = set(world.processes)
    for rid, layer in world.layers.items():
        for relay in layer.relays.values():
            assert relay.id.rid in pids
            assert relay.sink_rid in pids
            if relay.out_id is not None:
                assert relay.out_id.rid in pids
            for e in relay.in_set:
                assert e.key.creator in pids
                if e.confirmed:
                    assert e.from_rid in pids
        for env in layer.layer_buf:
            assert env.target_rid in pids


def test_relays_sit_in_the_layer_their_id_names(monkeypatch):
    # A layer's address is its owner's pid, and every relay id embeds the
    # address of the layer holding it, through merges and a full shutdown.
    # Relay and layer tables stay in id order, which the protocol's choices
    # between relays rely on.
    merges = []
    merge = RelayLayer.merge

    def counted_merge(layer, refs):
        merged = merge(layer, refs)
        merges.append(merged)
        return merged

    monkeypatch.setattr(RelayLayer, "merge", counted_merge)

    def check(world):
        assert list(world.layers) == sorted(world.layers)
        for rid, layer in world.layers.items():
            assert layer.rid == rid == world.processes[rid].pid
            assert list(layer.relays) == sorted(layer.relays)
            for relay in layer.relays.values():
                assert relay.id.rid == rid

    for seed in range(1, 7):
        world = adversarial_init(seed, 4, 96, 48, "mixed")
        for proc in world.processes.values():
            proc.app = RandomDeliberateApp(max_relays=16)
        check(world)
        for _ in range(1500):
            world.step()
            check(world)
        for pid in world.processes:
            world.ctx(pid).stop()
        assert world.run_until(lambda w: check(w) or not w.layers, 5000).reached
    assert any(m is not None for m in merges)


def test_adversarial_same_seed_same_world():
    a = adversarial_init(17, 4, 12, 15, "mixed")
    b = adversarial_init(17, 4, 12, 15, "mixed")
    assert a.state_hash() == b.state_hash()


def test_adversarial_unknown_profile_rejected():
    with pytest.raises(ValueError):
        adversarial_init(1, 3, 6, 5, "nonsense")


def test_same_seed_same_trajectory_and_trace():
    def run(seed):
        world = random_connected_world(seed, 4, extra_edges=2, chains=1)
        world.trace = []
        world.run(3000)
        return world.state_hash(), "\n".join(world.trace)

    h1, t1 = run(23)
    h2, t2 = run(23)
    assert h1 == h2 and t1 == t2
    h3, _ = run(24)
    assert h3 != h1


def test_reliability_no_message_lost_without_extraction():
    world = new_world(29, 2)
    received = []

    class Recorder:
        def on_tick(self, ctx):
            pass

        def on_message(self, ctx, action, via):
            received.append(action.params[0])

    world.processes[1].app = Recorder()
    ref = connect_door(world, 0, 1)
    for i in range(10):
        world.ctx(0).send(ref, "note", (i,))
    world.run_until(lambda w: len(received) == 10, 8000)
    assert sorted(received) == list(range(10))


def test_fig_triangle_shape():
    world = fig_triangle()
    graph = oracle.extract_relay_graph(world)
    relays = [v for v in graph.vertices if v[0] == oracle.RELAY]
    assert len(relays) == 3
    assert len(world.processes) == 3
    assert oracle.is_legal(world)


def test_settledness_detects_inflight_payloads():
    world = new_world(31, 2)
    ref = connect_door(world, 0, 1)
    world.run_until(lambda w: w.is_settled(), 4000)
    assert world.is_settled()
    world.ctx(0).send(ref, "note", ("x",))
    assert not world.is_settled()
    world.run_until(lambda w: w.is_settled(), 4000)
    assert world.is_settled()


def test_layer_shutdown_detaches_pending_notifications():
    world = new_world(37, 2)
    out = connect_door(world, 0, 1)
    target_layer = world.layers[Rid(1)]
    door_id = world.processes[1].store["door"].relay_id
    assert target_layer.relays[door_id].in_set
    world.ctx(0).stop()
    res = world.run_until(lambda w: Rid(0) not in w.layers, 8000)
    assert res.reached
    res = world.run_until(lambda w: not target_layer.relays[door_id].in_set, 8000)
    assert res.reached, "teardown notice was lost with the dying layer"


def test_context_primitives_after_shutdown_return_defaults():
    world = new_world(37, 2)
    out = connect_door(world, 0, 1)
    ctx = world.ctx(0)
    ctx.stop()
    assert world.run_until(lambda w: Rid(0) not in w.layers, 8000).reached
    before = world.state_hash()
    for _ in range(2):  # the second round sees whatever the first one left behind
        assert (ctx.layer.new_relay() is None and ctx.layer.merge([out]) is None
                and ctx.layer.get_relays() == [])
        assert (ctx.layer.incoming(out), ctx.layer.direct(out),
                ctx.layer.is_sink(out), ctx.layer.dead(out)) == (0, False, False, True)
        assert not ctx.layer.same_target(out, out)
        ctx.send(out, "late", ("x",))
        ctx.layer.delete_relay(out)
        ctx.stop()
    assert world.state_hash() == before


def test_applications_get_the_process_record_and_its_layer():
    world = new_world(41, 2)
    out = connect_door(world, 0, 1)
    seen = []

    class Recorder:
        def on_tick(self, ctx):
            seen.append(("tick", ctx))
            if ctx.pid == 0:
                ctx.send(out, "note", ())

        def on_message(self, ctx, action, via):
            seen.append(("message", ctx))

    for proc in world.processes.values():
        proc.app = Recorder()
    world.run(200)
    assert {(kind, ctx.pid) for kind, ctx in seen} >= {("tick", 0), ("tick", 1), ("message", 1)}
    assert all(ctx is world.processes[ctx.pid] is world.ctx(ctx.pid) for _, ctx in seen)
    assert all(world.processes[pid].layer is layer for pid, layer in world.layers.items())
    world.ctx(0).stop()
    assert world.run_until(lambda w: 0 not in w.layers, 8000).reached
    assert world.processes[0].layer is _STOPPED_LAYER


@pytest.mark.parametrize(
    "clone", [lambda w: pickle.loads(pickle.dumps(w)), copy.deepcopy], ids=["pickle", "deepcopy"]
)
def test_world_copies_keep_each_process_on_its_own_layer(clone):
    world = _with_apps(random_connected_world(43, 5), max_relays=4)
    world.ctx(4).stop()
    assert world.run_until(lambda w: 4 not in w.layers, 8000).reached
    twin = clone(world)
    assert sorted(twin.layers) == [0, 1, 2, 3]
    assert all(twin.processes[pid].layer is layer for pid, layer in twin.layers.items())
    world.run(500)
    twin.run(500)
    assert twin.state_hash() == world.state_hash()


# -- lock-step differential test against the full-scan scheduler --------------


def _reference_sort_key(action) -> tuple:
    kind = action[0]
    if kind == "timeout":
        return (0, action[1], 0)
    if kind == "app":
        return (1, action[1], 0)
    if kind == "relay":
        return (2, action[1], action[3])
    if kind == "layer":
        return (3, action[1], action[2])
    return (4, action[1], 0)


class FullScanScheduler:
    """The scheduler before the incremental index, kept as the reference.

    Every step rebuilds the list of enabled actions, scans every action's
    age and breaks ties by the sort key; a message is born at the step count
    of the first step that sees it.  It drives `world._execute` directly.
    """

    def __init__(self, world):
        self.world = world
        self.birth = {}
        self.last_timeout = {}
        self.last_app = {}
        self.forced = 0
        self.random = 0

    def enabled_actions(self) -> list:
        w = self.world
        actions = []
        for rid in w.layers:
            actions.append(("timeout", rid))
        for pid, proc in w.processes.items():
            if proc.active and proc.app is not None:
                actions.append(("app", pid))
        for rid, layer in w.layers.items():
            for relay in layer.relays.values():
                for env in relay.buf:
                    actions.append(("relay", rid, relay.id, env.uid))
            for env in layer.layer_buf:
                actions.append(("layer", rid, env.uid))
        for env in w.orphan_out:
            actions.append(("orphan", env.uid))
        return actions

    def action_age(self, action) -> int:
        now = self.world.step_count
        kind = action[0]
        if kind == "timeout":
            return now - self.last_timeout.get(action[1], 0)
        if kind == "app":
            return now - self.last_app.get(action[1], 0)
        return now - self.birth.setdefault(action[-1], now)

    def step(self):
        w = self.world
        actions = self.enabled_actions()
        chosen = None
        if actions:
            max_age, oldest = -1, []
            for a in actions:
                age = self.action_age(a)
                if age > max_age:
                    max_age, oldest = age, [a]
                elif age == max_age:
                    oldest.append(a)
            if w.mode == MODE_ROUND_ROBIN or max_age > w.fairness_bound:
                chosen = max(oldest, key=_reference_sort_key)
                self.forced += 1
            else:
                chosen = actions[w.rng.randrange(len(actions))]
                self.random += 1
            w._execute(chosen)
            if chosen[0] == "timeout":
                self.last_timeout[chosen[1]] = w.step_count
            elif chosen[0] == "app":
                self.last_app[chosen[1]] = w.step_count
            else:
                self.birth.pop(chosen[-1], None)
        w.step_count += 1
        return chosen


def _indexed_age(world, action) -> int:
    """Age of an enabled action as the kernel's scheduler indexes hold it."""
    kind = action[0]
    if kind == "timeout":
        last = world._timeouts.last[action[1]]
    elif kind == "app":
        last = world._apps.last[action[1]]
    else:
        last = min(e[0] for e in world.env_source.heap if e[1] <= -_RELAY and e[-1] == action[-1])
    return world.step_count - last


def _heap_top(world):
    """The action whose entry is the smallest live one in the kernel's
    scheduling heap, decoded by kind rank; None when no entry is live."""
    holder, recurring = world.env_source.holder, (world._timeouts, world._apps)

    def live(entry):
        if entry[1] <= -_RELAY:
            return entry[-1] in holder
        kind = recurring[-entry[1]]
        return kind.on[entry[-1]] and kind.last[entry[-1]] == entry[0]

    entries = [e for e in world.env_source.heap if live(e)]
    if not entries:
        return None
    _, rank, neg_id, _, key = min(entries)
    if rank == -_TIMEOUT:
        return ("timeout", key)
    if rank == -_TICK:
        return ("app", key)
    if rank == -_RELAY:
        return ("relay", -neg_id, holder[key].id, key)
    if rank == -_LAYER:
        return ("layer", -neg_id, key)
    assert rank == -_ORPHAN
    return ("orphan", key)


def _with_apps(world, **kwargs):
    for proc in world.processes.values():
        proc.app = RandomDeliberateApp(**kwargs)
    return world


def _configured(world, **settings):
    for name, value in settings.items():
        setattr(world, name, value)
    return world


def _send_between_steps(world, i):
    # A payload sent from outside any step, every 37 steps.
    if i % 37 == 5:
        pid = i % len(world.processes)
        refs = world.ctx(pid).layer.get_relays()
        if refs:
            world.ctx(pid).send(refs[i % len(refs)], "note", (i,))


def _toggle_apps_and_mode(world, i):
    _send_between_steps(world, i)
    if i == 150:
        world.processes[1].app = None
    if i == 300:
        world.mode = MODE_ROUND_ROBIN
    if i == 350:
        world.processes[1].app = RandomDeliberateApp(max_relays=4)
        world.processes[2].active = False
    if i == 450:
        world.mode = MODE_RANDOM
        world.processes[2].active = True


def _shut_down_one_by_one(world, i):
    # Apps leave mid-run, then every process stops: dying layers orphan
    # their buffered notifications.
    if i >= 300 and (i - 300) % 10 == 0 and (i - 300) // 10 < 2 * len(world.processes):
        pid, phase = divmod((i - 300) // 10, 2)
        if phase == 0:
            world.processes[pid].app = None
        else:
            world.ctx(pid).stop()


def _send_often_and_shut_down(world, i):
    # A payload every third step while processes leave: under a tight bound
    # orphans tie with every other kind at some forced pick.
    if i % 3 == 0:
        ctx = world.ctx(i % len(world.processes))
        refs = ctx.layer.get_relays()
        if refs:
            ctx.send(refs[i % len(refs)], "note", (i,))
    _shut_down_one_by_one(world, i)


def _parallel_relays(seed):
    # Three relays per process feed the same door, so they can be merged.
    world = new_world(seed, 4)
    for pid in range(4):
        for _ in range(3):
            connect_door(world, pid, (pid + 1) % 4)
    return _with_apps(world, max_relays=6)


def _merge_between_steps(world, i):
    # Every 23 steps one process loads two parallel relays and merges them,
    # so buffered envelopes move to the merged relay; without a pair it
    # wires a new parallel relay instead.
    _send_between_steps(world, i)
    if i % 23 != 7:
        return
    pid = i % len(world.processes)
    ctx = world.ctx(pid)
    free = [r for r in ctx.layer.get_relays() if not ctx.layer.is_sink(r) and ctx.layer.incoming(r) == 0]
    pairs = [(a, b) for a in free for b in free if a.relay_id < b.relay_id and ctx.layer.same_target(a, b)]
    if pairs:
        a, b = pairs[0]
        ctx.send(a, "note", (i,))
        ctx.send(b, "note", (i,))
        assert ctx.layer.merge({a, b}) is not None
    else:
        connect_door(world, pid, (pid + 1) % len(world.processes))


def _add_processes(world, i):
    # Processes join mid-run while messages are in flight, so the scheduler
    # indexes layers added after the world was built.
    _send_between_steps(world, i)
    if i in (200, 400):
        pid = world.add_process(app=RandomDeliberateApp(max_relays=4))
        connect_door(world, pid, i % pid)
        connect_door(world, i % pid, pid)


LOCKSTEP = {
    # name: (world builder, steps, hook between steps)
    "random": (lambda s: _with_apps(random_connected_world(s, 4, 2, 1), max_relays=4), 1500, None),
    "tight_bound": (
        lambda s: _with_apps(_configured(random_connected_world(s, 5, 3, 1), fairness_bound=s % 5),
                             max_relays=4),
        1200,
        _send_between_steps,
    ),
    "forced_at_scale": (lambda s: _with_apps(random_connected_world(s, 40, 20, 4), max_relays=8), 400, None),
    "random_at_scale": (
        lambda s: _with_apps(_configured(random_connected_world(s, 40, 20, 4), fairness_bound=10**6),
                             max_relays=8),
        400,
        None,
    ),
    "round_robin": (
        lambda s: _with_apps(_configured(random_connected_world(s, 4, 2, 1), mode=MODE_ROUND_ROBIN),
                             max_relays=4),
        800,
        None,
    ),
    "add_processes": (lambda s: _with_apps(random_connected_world(s, 8, 4, 1), max_relays=4), 700,
                      _add_processes),
    "adversarial": (lambda s: _with_apps(adversarial_init(s, 4, 12, 15, "mixed"), max_relays=4), 1200, None),
    "merges": (_parallel_relays, 1000, _merge_between_steps),
    "outside_changes": (lambda s: _with_apps(random_connected_world(s, 4, 2, 1), max_relays=4), 700,
                        _toggle_apps_and_mode),
    "shutdown": (
        lambda s: _with_apps(random_connected_world(s, 5, 3, 2), send_refs="never", max_relays=3),
        450,
        _shut_down_one_by_one,
    ),
    "shutdown_tight": (
        lambda s: _with_apps(_configured(random_connected_world(s, 5, 3, 2), fairness_bound=s % 5),
                             send_refs="never", max_relays=3),
        450,
        _send_often_and_shut_down,
    ),
}


CASES = [(name, seed) for name in sorted(LOCKSTEP) for seed in (3, 4, 5)] + [
    ("random", seed) for seed in (6, 7, 8)
]


@pytest.mark.parametrize("name,seed", CASES)
def test_incremental_scheduler_matches_full_scan(name, seed):
    build, steps, between = LOCKSTEP[name]
    ref_world, world = build(seed), build(seed)
    reference = FullScanScheduler(ref_world)
    picked = []
    execute = world._execute
    world._execute = lambda action: (picked.append(action), execute(action))
    for i in range(steps):
        if between:
            between(ref_world, i)
            between(world, i)
        if i % 97 == 0:
            actions = reference.enabled_actions()
            assert world._timeouts.order == [a[1] for a in actions if a[0] == "timeout"]
            assert world._apps.order == [a[1] for a in actions if a[0] == "app"]
            assert [_indexed_age(world, a) for a in actions] == [reference.action_age(a) for a in actions]
            ages = [reference.action_age(a) for a in actions]
            oldest = [a for a, age in zip(actions, ages) if age == max(ages)]
            assert _heap_top(world) == max(oldest, key=_reference_sort_key, default=None), f"step {i}"
        picked.clear()
        expected = reference.step()
        world.step()
        assert (picked[0] if picked else None) == expected, f"step {i}"
    assert world.state_hash() == ref_world.state_hash()
    assert reference.forced + reference.random > 0


def test_lockstep_cases_cover_both_pick_paths_orphans_and_merges(monkeypatch):
    merged = []
    original = RelayLayer.merge

    def merge(layer, refs):
        result = original(layer, refs)
        merged.append(result is not None)
        return result

    monkeypatch.setattr(RelayLayer, "merge", merge)
    # The reference calls its sort key only at a forced pick, once per
    # action of the oldest set: recording the kinds it sees finds the ties.
    tied = []
    sort_key = _reference_sort_key
    monkeypatch.setitem(globals(), "_reference_sort_key", lambda a: tied.append(a[0]) or sort_key(a))
    ties = Counter()
    forced = random_picks = orphans = 0
    for name, seed in CASES:
        build, steps, between = LOCKSTEP[name]
        world = build(seed)
        reference = FullScanScheduler(world)
        for i in range(steps):
            if between:
                between(world, i)
            action = reference.step()
            orphans += action is not None and action[0] == "orphan"
            ties.update(combinations(sorted(set(tied)), 2))
            tied.clear()
        forced += reference.forced
        random_picks += reference.random
    assert forced > 1000 and random_picks > 1000
    assert orphans > 0 and sum(merged) > 0
    # Forced picks whose oldest set spans two kinds, for every pair of kinds.
    kinds = ("app", "layer", "orphan", "relay", "timeout")
    assert set(ties) == set(combinations(kinds, 2)), ties


# -- give_door -------------------------------------------------------------------


def test_give_door_replaces_a_door_the_repair_loop_collected():
    world = new_world(7, 3)
    for pid in range(3):
        connect_door(world, pid, (pid + 1) % 3)
    for proc in world.processes.values():
        proc.app = RandomDeliberateApp(max_relays=3)
    world.run(4000)
    stale = world.processes[1].store["door"].relay_id
    assert stale not in world.layers[Rid(1)].relays  # the application deleted it
    out = world.find_relay(connect_door(world, 0, 1).relay_id)
    door = world.find_relay(out.out_id)
    assert door is not None and door.id != stale
    assert door.alive and door.out_id is None
    [key] = out.out_keys
    assert confirmed_entry(key, Rid(0)) in door.in_set
    assert give_door(world, 1).relay_id == door.id  # an alive door is kept


def _stopped_world(phase):
    world = new_world(1, 2)
    door = give_door(world, 0).relay_id
    connect_door(world, 0, 1)
    world.ctx(0).stop()
    if phase == "shut_down":
        assert world.run_until(lambda w: 0 not in w.layers, 8000).reached
    else:
        assert 0 in world.layers and world.layers[0].relays
    return world, door


@pytest.mark.parametrize("phase", ["draining", "shut_down"])
def test_builders_reject_a_stopped_process(phase):
    world, _ = _stopped_world(phase)
    before = world.state_hash()
    for build in (lambda: give_door(world, 0), lambda: connect_door(world, 1, 0),
                  lambda: connect_door(world, 0, 1)):
        with pytest.raises(ValueError, match="process 0 is stopped"):
            build()
    assert world.state_hash() == before


def test_connect_rejects_a_missing_or_dead_target():
    world, door = _stopped_world("draining")
    assert not world.layers[0].relays[door].alive
    before = world.state_hash()
    for target in (door, RelayId(0, 999), RelayId(7, 1)):
        with pytest.raises(ValueError, match="missing or dead"):
            connect(world, 1, target)
    assert world.state_hash() == before


# -- settle polling: the witness against the full scan ---------------------------


def full_scan_settled(world) -> bool:
    """`WorldState.is_settled` before it kept a witness: one full scan."""
    for layer in world.layers.values():
        for relay in layer.relays.values():
            if not relay.alive:
                return False
            if any(not e.confirmed for e in relay.in_set):
                return False
            for env in relay.buf:
                msg = env.message
                if (
                    not isinstance(msg, Transmit)
                    or not isinstance(msg.action, Probe)
                    or msg.action.control_keys
                ):
                    return False
        for env in layer.layer_buf:
            if not isinstance(env.message, Ping):
                return False
    for env in world.orphan_out:
        if not isinstance(env.message, Ping):
            return False
    return True


def _witness_kind(witness) -> str:
    layer, relay, env = witness
    if layer is None:
        return "orphan"
    if relay is None:
        return "layer_buf"
    if env is not None:
        return "relay_buf"
    return "unconfirmed" if relay.alive else "dead"


class SettleProbe:
    """Holds every `is_settled` answer to the full scan, polls once more
    after every step, and counts polls, full scans and witness kinds.  A
    poll either re-checks the witness (a hit) or runs one full scan."""

    def __init__(self, monkeypatch) -> None:
        self.polls = self.scans = 0
        self.kinds = Counter()
        is_settled, scan, step = WorldState.is_settled, WorldState._find_offender, WorldState.step

        def polled(world):
            answer = is_settled(world)
            assert answer == full_scan_settled(world), f"step {world.step_count}"
            self.polls += 1
            if not answer:
                self.kinds[_witness_kind(world._unsettled)] += 1
            return answer

        def scanned(world):
            self.scans += 1
            return scan(world)

        def stepped(world):
            step(world)
            world.is_settled()

        monkeypatch.setattr(WorldState, "is_settled", polled)
        monkeypatch.setattr(WorldState, "_find_offender", scanned)
        monkeypatch.setattr(WorldState, "step", stepped)


def _settle(world):
    assert world.run_until(lambda w: w.is_settled(), 8000).reached
    return world


def _transform_run(seed, n=5):
    source = rules.random_multigraph(seed, n)
    target = rules.random_multigraph(seed + 1, n)
    world = _settle(rules.build_simple_realization(seed, source))
    rules.execute_plan(world, rules.plan_transform(world, target))
    assert rules.cpg(world).edges == target.edges


def _shutdown_run(seed):
    # Every process stops; dying layers orphan their notifications.
    build, steps, between = LOCKSTEP["shutdown"]
    world = build(seed)
    for i in range(steps + 300):
        between(world, i)
        world.step()


def _edit_offenders(seed):
    # Make and clear each kind of offender by editing a settled world
    # between steps.  No step runs while an edit is in place: the scheduler
    # does not know about the envelopes added here.
    world = _settle(random_connected_world(seed, 4, 2, 1))
    layer = world.layers[Rid(1)]
    relay = world.find_relay(connect_door(world, 1, 0).relay_id)
    door = world.find_relay(world.processes[0].store["door"].relay_id)
    _settle(world)
    header = Header(next(iter(relay.out_keys)), relay.id, relay.out_id, relay.level)
    payload = Envelope(10**9, Transmit(header, ActionInvocation("note", ())))
    closed = Envelope(10**9 + 1, OutRelayClosed(relay.id), Rid(0))

    relay.alive = False
    assert not world.is_settled()
    relay.alive = True
    assert world.is_settled()

    entry = unconfirmed_entry(world.layers[Rid(0)].mint_key(), relay.id)
    door.in_set.add(entry)
    assert not world.is_settled()
    door.in_set.discard(entry)
    assert world.is_settled()

    for buf, env in ((relay.buf, payload), (layer.layer_buf, closed), (world.orphan_out, closed)):
        buf.append(env)
        assert not world.is_settled()
        buf.remove(env)
        assert world.is_settled()
        _settle(world)

    # The witnessed envelope keeps its place, its message does not.
    relay.buf.append(payload)
    assert not world.is_settled()
    payload.message = Transmit(header, Probe(frozenset(), ()))
    assert world.is_settled()
    relay.buf.remove(payload)
    layer.layer_buf.append(closed)
    assert not world.is_settled()
    closed.message = Ping(relay.id, relay.level, relay.sink_rid, header.key)
    assert world.is_settled()
    layer.layer_buf.remove(closed)

    # The witnessed relay leaves its table, then its layer leaves the world.
    relay.alive = False
    assert not world.is_settled()
    del layer.relays[relay.id]
    assert world.is_settled()
    layer.relays[relay.id] = relay
    assert not world.is_settled()
    del world.layers[layer.rid]
    assert world.is_settled()
    world.layers[layer.rid] = layer
    assert not world.is_settled()
    relay.alive = True
    assert world.is_settled()
    world.run(300)


def _merge_moves_witnessed_envelope(seed):
    world = new_world(seed, 2)
    a, b = connect_door(world, 0, 1), connect_door(world, 0, 1)
    _settle(world)
    ctx = world.ctx(0)
    ctx.send(a, "note", ("x",))
    assert not world.is_settled()
    _, relay, env = world._unsettled
    assert relay.id == a.relay_id and env is not None
    merged = world.find_relay(ctx.layer.merge({a, b}).relay_id)
    assert any(e is env for e in merged.buf)
    assert not world.is_settled()
    _settle(world)


SETTLE_RUNS = {
    "transform": _transform_run,
    "shutdown": _shutdown_run,
    "mixed": lambda s: adversarial_init(s, 4, 12, 15, "mixed").run(1500),
    "mixed_apps": lambda s: _with_apps(adversarial_init(s, 4, 12, 15, "mixed"), max_relays=4).run(1500),
    "edits": _edit_offenders,
    "merge": _merge_moves_witnessed_envelope,
}

SETTLE_CASES = [(name, seed) for name in sorted(SETTLE_RUNS) for seed in (3, 4)]


@pytest.mark.parametrize("name,seed", SETTLE_CASES)
def test_is_settled_matches_full_scan(monkeypatch, name, seed):
    probe = SettleProbe(monkeypatch)
    SETTLE_RUNS[name](seed)
    assert probe.polls > 0


def test_settle_cases_cover_every_witness_kind_hits_and_scans(monkeypatch):
    probe = SettleProbe(monkeypatch)
    for name, seed in SETTLE_CASES:
        SETTLE_RUNS[name](seed)
    assert set(probe.kinds) == {"dead", "unconfirmed", "relay_buf", "layer_buf", "orphan"}
    assert probe.scans > 0 and probe.polls - probe.scans > 0


def test_settle_polling_rarely_scans(monkeypatch):
    polls = scans = 0
    is_settled, scan = WorldState.is_settled, WorldState._find_offender

    def polled(world):
        nonlocal polls
        polls += 1
        return is_settled(world)

    def scanned(world):
        nonlocal scans
        scans += 1
        return scan(world)

    monkeypatch.setattr(WorldState, "is_settled", polled)
    monkeypatch.setattr(WorldState, "_find_offender", scanned)
    _transform_run(1, n=6)
    assert polls > 1000 and scans <= polls // 10, (polls, scans)
