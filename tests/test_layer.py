"""Primitive and handler behavior, one scenario per pseudocode branch."""

import random
from collections import Counter

import pytest

from relaysim import oracle, rules
from relaysim.apps import IdleApp, RandomDeliberateApp
from relaysim.core import (
    ActionInvocation,
    Header,
    InRelayClosed,
    Key,
    Message,
    NotAuthorized,
    OutRelayClosed,
    Ping,
    Probe,
    ProbeFail,
    Relay,
    RelayId,
    RelayParameter,
    RelayRef,
    Rid,
    Transmit,
    belongs_to,
    confirmed_entry,
    unconfirmed_entry,
)
from relaysim.kernel import (
    PendingIndex,
    adversarial_init,
    connect,
    connect_door,
    fig_triangle,
    give_door,
    new_world,
    random_connected_world,
)
from relaysim.layer import RelayLayer


def make_world(n=2):
    return new_world(seed=42, n_processes=n)


def layer_messages(layer):
    return [(env.target_rid, env.message) for env in layer.layer_buf]


# -- new relay ---------------------------------------------------------------


def test_new_relay_is_fresh_sink():
    world = make_world()
    layer = world.layer_of(0)
    ref = layer.new_relay()
    relay = layer.relays[ref.relay_id]
    assert relay.level == 0
    assert relay.out_id is None and not relay.out_keys
    assert not relay.in_set and relay.alive
    assert relay.sink_rid == Rid(0)


def test_new_relay_ids_distinct():
    layer = make_world().layer_of(0)
    assert layer.new_relay() != layer.new_relay()


def test_new_relay_valid_in_legal_world():
    world = make_world()
    ref = world.layer_of(0).new_relay()
    assert oracle.WorldCheck(world).relay_violations(ref.relay_id) == []


def test_new_relay_noop_after_stop():
    world = make_world()
    world.ctx(0).stop()
    assert world.layer_of(0).new_relay() is None


# -- delete ------------------------------------------------------------------


def test_delete_notifies_confirmed_senders_once_per_rid():
    world = make_world(3)
    layer = world.layer_of(0)
    ref = layer.new_relay()
    relay = layer.relays[ref.relay_id]
    relay.in_set.add(confirmed_entry(layer.mint_key(), Rid(1)))
    relay.in_set.add(confirmed_entry(layer.mint_key(), Rid(1)))
    layer.delete_relay(ref)
    assert not relay.alive and not relay.in_set
    notices = [(t, m) for t, m in layer_messages(layer) if isinstance(m, OutRelayClosed)]
    assert notices == [(Rid(1), OutRelayClosed(relay.id))]


def test_delete_with_empty_in_sends_nothing():
    world = make_world()
    layer = world.layer_of(0)
    ref = layer.new_relay()
    layer.delete_relay(ref)
    assert not layer.relays[ref.relay_id].alive
    assert not layer.layer_buf


def test_deleted_relay_drains_before_removal():
    world = make_world(2)
    ref = connect_door(world, 0, 1)
    layer = world.layer_of(0)
    world.ctx(0).send(ref, "note", ("x",))
    layer.delete_relay(ref)
    assert layer.relays[ref.relay_id].buf
    layer.timeout()
    assert ref.relay_id in layer.relays  # still draining
    world.run_until(lambda w: ref.relay_id not in layer.relays, 4000)
    assert ref.relay_id not in layer.relays


def test_send_serializes_no_reference_of_a_dead_or_unknown_relay():
    world = make_world(2)
    via = connect_door(world, 0, 1)
    layer = world.layer_of(0)
    dead_ref = layer.new_relay()
    layer.delete_relay(dead_ref)
    received = []

    class Inbox(IdleApp):
        def on_message(self, ctx, action, via):
            received.append(action.params)

    world.processes[1].app = Inbox()
    params = (dead_ref, RelayRef(RelayId(0, 999)), "x")
    world.ctx(0).send(via, "note", params)
    (env,) = layer.relays[via.relay_id].buf
    assert env.message.action.params == (None, None, "x")
    assert not layer.relays[dead_ref.relay_id].in_set
    assert world.run_until(lambda w: received, 4000).reached
    assert received == [(None, None, "x")]


def test_foreign_ref_ignored():
    world = make_world(2)
    other = world.layer_of(1).new_relay()
    layer = world.layer_of(0)
    before = len(layer.relays)
    layer.delete_relay(other)
    assert len(layer.relays) == before
    assert world.layer_of(1).relays[other.relay_id].alive


# -- merge --------------------------------------------------------------------


def merge_pair(world):
    door = give_door(world, 1)
    a = connect(world, 0, door.relay_id)
    b = connect(world, 0, door.relay_id)
    return world.layer_of(0), a, b


def test_merge_unions_keys():
    world = make_world()
    layer, a, b = merge_pair(world)
    keys = layer.relays[a.relay_id].out_keys | layer.relays[b.relay_id].out_keys
    merged = layer.merge({a, b})
    assert merged is not None
    assert layer.relays[merged.relay_id].out_keys == keys


def test_merge_different_targets_does_nothing():
    world = make_world(3)
    a = connect_door(world, 0, 1)
    b = connect_door(world, 0, 2)
    layer = world.layer_of(0)
    assert layer.merge({a, b}) is None
    assert layer.relays[a.relay_id].alive and layer.relays[b.relay_id].alive


def test_merge_refuses_sinks():
    world = make_world()
    layer = world.layer_of(0)
    a, b = layer.new_relay(), layer.new_relay()
    before = world.state_hash()
    assert layer.merge({a, b}) is None
    assert world.state_hash() == before


def test_merge_refuses_refs_it_does_not_hold():
    world = make_world()
    layer = merge_pair(world)[0]  # holds relays, but none of the two refs
    door = world.layer_of(1).get_relays()[0]
    before = world.state_hash()
    assert layer.merge({door, RelayRef(RelayId(0, 999))}) is None
    assert world.state_hash() == before


def test_merge_requires_empty_in():
    world = make_world()
    layer, a, b = merge_pair(world)
    layer.relays[a.relay_id].in_set.add(confirmed_entry(layer.mint_key(), Rid(1)))
    assert layer.merge({a, b}) is None


def test_merge_of_valid_relays_yields_valid_relay():
    world = make_world()
    layer, a, b = merge_pair(world)
    assert oracle.WorldCheck(world).relay_valid(a.relay_id)
    merged = layer.merge({a, b})
    world.run_until(lambda w: w.is_settled(), 4000)
    assert oracle.WorldCheck(world).relay_violations(merged.relay_id) == []


def test_merged_relay_stays_anchored_while_its_moved_probe_drains(monkeypatch):
    # Merging moved an original's activation probe to the heir; while the
    # probe still named the original, the heir failed P11d (steps 102-104).
    world = random_connected_world(5670938551795071837, 3, 1, 0)
    for proc in world.processes.values():
        proc.app = RandomDeliberateApp(max_relays=3)
    merged = []
    merge = RelayLayer.merge

    def recorded(layer, refs):
        result = merge(layer, refs)
        merged.append(result is not None)
        return result

    monkeypatch.setattr(RelayLayer, "merge", recorded)
    for _ in range(2000):
        world.step()
        assert oracle.is_legal(world), f"step {world.step_count}"
    assert any(merged)


def test_not_authorized_for_moved_message_reaches_the_heir():
    world = make_world()
    layer, a, b = merge_pair(world)
    door = world.layer_of(1).relays[world.processes[1].store["door"].relay_id]
    layer.send(a, ActionInvocation("note", ("x",)))
    (key,) = layer.relays[a.relay_id].out_keys
    heir = layer.relays[layer.merge({a, b}).relay_id]
    (env,) = heir.buf
    assert env.message.header.in_id == heir.id
    # The target revokes the key before the moved message arrives.
    door.in_set -= {e for e in door.in_set if e.key == key}
    heir.buf.clear()
    world.layer_of(1).receive(env.message)
    (rejection,) = [m for _, m in layer_messages(world.layer_of(1)) if isinstance(m, NotAuthorized)]
    layer.receive(rejection)
    assert key not in heir.out_keys and heir.out_keys
    (resent,) = heir.buf
    assert resent.message.header == Header(min(heir.out_keys), heir.id, door.id, heir.level)
    assert resent.message.action == env.message.action


# -- introspection -------------------------------------------------------------


def test_fresh_sink_introspection():
    world = make_world()
    layer = world.layer_of(0)
    ref = layer.new_relay()
    assert layer.is_sink(ref) and layer.direct(ref)
    assert layer.incoming(ref) == 0 and not layer.dead(ref)


def test_level_two_relay_not_direct():
    world = make_world(3)
    mid = connect_door(world, 1, 2)
    far = connect(world, 0, mid.relay_id)
    layer = world.layer_of(0)
    assert not layer.direct(far)
    assert not layer.is_sink(far)


def test_same_target_after_two_introductions():
    world = make_world(2)
    via = connect_door(world, 1, 0)
    ctx = world.ctx(1)
    s = give_door(world, 1)
    ctx.send(via, "meet", (s,))
    ctx.send(via, "meet", (s,))
    world.run_until(lambda w: w.is_settled(), 6000)
    layer0 = world.layer_of(0)
    created = [r for r in layer0.relays.values() if r.out_id == s.relay_id]
    assert len(created) == 2
    assert layer0.same_target(RelayRef(created[0].id), RelayRef(created[1].id))


# -- send ----------------------------------------------------------------------


def test_send_via_sink_is_local_delivery():
    world = make_world()
    layer = world.layer_of(0)
    ref = layer.new_relay()
    action = ActionInvocation("note", ("payload",))
    layer.send(ref, action)
    buf = layer.relays[ref.relay_id].buf
    assert len(buf) == 1 and buf[0].message == action


def test_send_serializes_local_sink_reference():
    world = make_world(2)
    via = connect_door(world, 0, 1)
    layer = world.layer_of(0)
    s = layer.new_relay()
    layer.send(via, ActionInvocation("meet", (s,)))
    sink = layer.relays[s.relay_id]
    assert len(sink.in_set) == 1
    entry = next(iter(sink.in_set))
    assert not entry.confirmed and entry.via == via.relay_id
    env = layer.relays[via.relay_id].buf[-1]
    param = env.message.action.params[0]
    assert param == RelayParameter(entry.key, s.relay_id, 1, Rid(0))


def test_send_without_references_touches_no_in_sets():
    world = make_world(2)
    via = connect_door(world, 0, 1)
    layer = world.layer_of(0)
    extra = layer.new_relay()
    layer.send(via, ActionInvocation("note", ("data",)))
    assert not layer.relays[extra.relay_id].in_set
    assert all(not r.in_set for r in layer.relays.values() if r.id != via.relay_id)


def test_send_serializes_every_reference_parameter_by_its_type():
    world = make_world(2)
    via = connect_door(world, 0, 1)
    s = world.layer_of(0).new_relay()
    received = []

    class Inbox(IdleApp):
        def on_message(self, ctx, action, via):
            received.append(action.params)

    world.processes[1].app = Inbox()
    world.ctx(0).send(via, "x", ("a", s))
    (env,) = world.layer_of(0).relays[via.relay_id].buf
    wire = env.message.action.params
    assert wire[0] == "a"
    assert isinstance(wire[1], RelayParameter) and wire[1].id == s.relay_id
    assert world.run_until(lambda w: received, 4000).reached
    ((plain, fresh),) = received
    assert plain == "a"
    assert isinstance(fresh, RelayRef) and fresh.relay_id in world.layer_of(1).relays


def test_send_via_dead_relay_drops():
    world = make_world(2)
    via = connect_door(world, 0, 1)
    layer = world.layer_of(0)
    layer.delete_relay(via)
    before = len(layer.relays[via.relay_id].buf)
    layer.send(via, ActionInvocation("note", ("data",)))
    assert len(layer.relays[via.relay_id].buf) == before


# -- transmit receipt ------------------------------------------------------------


def test_activation_probe_confirms_pending_entry():
    world = make_world(2)
    via = connect_door(world, 0, 1)
    layer = world.layer_of(0)
    s = layer.new_relay()
    world.ctx(0).send(via, "meet", (s,))
    world.run_until(lambda w: w.is_settled(), 6000)
    sink = layer.relays[s.relay_id]
    assert len(sink.in_set) == 1
    entry = next(iter(sink.in_set))
    assert entry.confirmed and entry.from_rid == Rid(1)


def test_activation_confirms_the_lowest_via_that_sinks_at_the_sender():
    # `RescanningLayer` inherits `handle_transmit`, so no lock-step
    # reference covers it: the choice between announcements is pinned here.
    world = make_world(3)
    layer = world.layer_of(0)
    to_2, to_1, also_to_1 = (connect_door(world, 0, v).relay_id for v in (2, 1, 1))
    assert to_2 < to_1 < also_to_1
    sender_relay = world.layer_of(1).mint_relay_id()

    def deliver(target, key):
        probe = Probe(frozenset(), (key,))
        layer.handle_transmit(Transmit(Header(key, sender_relay, target.id, 1), probe))

    # Only the via that sorts higher sinks at the sender: its entry is the one.
    target, key = layer.relays[layer.new_relay().relay_id], layer.mint_key()
    target.in_set = {unconfirmed_entry(key, to_2), unconfirmed_entry(key, to_1)}
    deliver(target, key)
    assert target.in_set == {unconfirmed_entry(key, to_2), confirmed_entry(key, Rid(1))}

    # Both vias sink at the sender: the lower one is confirmed, once.
    target, key = layer.relays[layer.new_relay().relay_id], layer.mint_key()
    target.in_set = {unconfirmed_entry(key, also_to_1), unconfirmed_entry(key, to_1)}
    deliver(target, key)
    assert target.in_set == {unconfirmed_entry(key, also_to_1), confirmed_entry(key, Rid(1))}

    # A header over a confirmed-only In set leaves the set as it was.
    target, key = layer.relays[layer.new_relay().relay_id], layer.mint_key()
    confirmed = {confirmed_entry(key, Rid(1)), confirmed_entry(layer.mint_key(), Rid(2))}
    target.in_set = set(confirmed)
    deliver(target, key)
    assert target.in_set == confirmed


def test_transmit_to_missing_relay_answers_out_relay_closed():
    world = make_world(2)
    target = world.layer_of(1)
    sender = connect_door(world, 0, 1)
    bogus = Header(world.layer_of(0).mint_key(), sender.relay_id, target.mint_relay_id(), 1)
    target.handle_transmit(Transmit(bogus, ActionInvocation("noise", ())))
    notices = [m for _, m in layer_messages(target) if isinstance(m, OutRelayClosed)]
    assert notices and notices[0].id == bogus.out_id


def test_transmit_with_unknown_key_answers_not_authorized():
    world = make_world(2)
    door = give_door(world, 1)
    sender = connect_door(world, 0, 1)
    target = world.layer_of(1)
    bad = Header(world.layer_of(0).mint_key(), sender.relay_id, door.relay_id, 1)
    m = Transmit(bad, ActionInvocation("noise", ()))
    target.handle_transmit(m)
    bounced = [msg for t, msg in layer_messages(target) if isinstance(msg, NotAuthorized)]
    assert bounced == [NotAuthorized(m)]


def test_a_key_confirmed_from_another_sender_grants_no_access(monkeypatch):
    # Access rights: v's sink lists w's key as confirmed from w.  u's relay
    # q, holding only that key, gets its payload refused, not delivered.
    world = fig_triangle()
    q_ref = world.processes[0].store["out"]
    q = world.find_relay(q_ref.relay_id)
    sink = world.find_relay(q.out_id)
    (w_key,) = [e.key for e in sink.in_set if e.from_rid == 2]
    q.out_keys = {w_key}
    received, refused = [], []

    class Inbox(IdleApp):
        def on_message(self, ctx, action, via):
            received.append(action)

    emit_control = PendingIndex.emit_control

    def recording(pending, layer, target, message):
        if type(message) is NotAuthorized:
            refused.append(message)
        emit_control(pending, layer, target, message)

    monkeypatch.setattr(PendingIndex, "emit_control", recording)
    world.processes[1].app = Inbox()
    world.ctx(0).send(q_ref, "payload", ())
    for _ in range(300):
        world.step()
    assert received == []
    assert refused


def test_corrupted_multi_rid_parameters_dropped():
    world = make_world(3)
    ref = connect_door(world, 0, 1)
    layer0 = world.layer_of(0)
    relay = layer0.relays[ref.relay_id]
    target = world.layer_of(1)
    door = target.relays[give_door(world, 1).relay_id]
    key = next(iter(relay.out_keys))
    params = (
        RelayParameter(layer0.mint_key(), relay.id, 2, Rid(0)),
        RelayParameter(world.layer_of(2).mint_key(), world.layer_of(2).new_relay().relay_id, 1, Rid(2)),
    )
    m = Transmit(Header(key, relay.id, door.id, 1), ActionInvocation("noise", params))
    before = len(door.buf)
    target.handle_transmit(m)
    assert len(door.buf) == before  # obviously corrupted, not delivered


def test_duplicate_key_parameter_becomes_none():
    world = make_world(2)
    via = connect_door(world, 0, 1)
    layer = world.layer_of(0)
    s = layer.new_relay()
    ctx = world.ctx(0)
    ctx.send(via, "meet", (s,))
    env = layer.relays[via.relay_id].buf[-1]
    param = env.message.action.params[0]
    target = world.layer_of(1)
    door = target.relays[give_door(world, 1).relay_id]
    # first receipt creates the relay, replay offers the same key again
    target.handle_transmit(Transmit(Header(next(iter(layer.relays[via.relay_id].out_keys)), via.relay_id, door.id, 1), ActionInvocation("meet", (param,))))
    delivered = [e.message for e in door.buf if isinstance(e.message, ActionInvocation)]
    assert isinstance(delivered[-1].params[0], RelayRef)
    target.handle_transmit(Transmit(Header(next(iter(layer.relays[via.relay_id].out_keys)), via.relay_id, door.id, 1), ActionInvocation("meet", (param,))))
    delivered = [e.message for e in door.buf if isinstance(e.message, ActionInvocation)]
    assert delivered[-1].params[0] is None


def test_forwarding_rewrites_header():
    world = make_world(3)
    mid_ref = connect_door(world, 1, 2)
    far_ref = connect(world, 0, mid_ref.relay_id)
    layer0, layer1 = world.layer_of(0), world.layer_of(1)
    world.ctx(0).send(far_ref, "note", ("x",))
    env = layer0.relays[far_ref.relay_id].buf[-1]
    layer1.handle_transmit(env.message)
    forwarded = layer1.relays[mid_ref.relay_id].buf[-1].message
    assert isinstance(forwarded, Transmit)
    assert forwarded.header.in_id == mid_ref.relay_id
    assert forwarded.header.out_id == layer1.relays[mid_ref.relay_id].out_id
    assert forwarded.header.key in layer1.relays[mid_ref.relay_id].out_keys
    assert forwarded.header.level == 1


def test_forwarded_probe_drops_control_keys_announced_in_buffer():
    world = make_world(3)
    mid_ref = connect_door(world, 1, 2)
    far_ref = connect(world, 0, mid_ref.relay_id)
    layer1 = world.layer_of(1)
    world.ctx(1).send(mid_ref, "meet", (layer1.new_relay(),))
    mid, far = layer1.relays[mid_ref.relay_id], world.layer_of(0).relays[far_ref.relay_id]
    announced, other = mid.buf[-1].message.action.params[0].key, layer1.mint_key()
    key = min(far.out_keys)
    probe = Probe(frozenset({announced, other}), (key,))
    layer1.handle_transmit(Transmit(Header(key, far.id, far.out_id, far.level), probe))
    # The announcement is still ahead of the probe, so only `other` is hunted.
    assert mid.buf[-1].message.action == Probe(frozenset({other}), (key, min(mid.out_keys)))


# -- probe failure ----------------------------------------------------------------


def test_probefail_length_one_removes_pending_entry():
    world = make_world(2)
    via = connect_door(world, 0, 1)
    layer = world.layer_of(0)
    s = layer.new_relay()
    world.ctx(0).send(via, "meet", (s,))
    entry = next(iter(layer.relays[s.relay_id].in_set))
    via_key = next(iter(layer.relays[via.relay_id].out_keys))
    layer.handle_probefail(entry.key, (via_key,))
    assert not layer.relays[s.relay_id].in_set


def test_probefail_longer_sequence_forwards_shortened():
    world = make_world(3)
    ref = connect_door(world, 0, 1)
    layer = world.layer_of(0)
    relay = layer.relays[ref.relay_id]
    k_last = next(iter(relay.out_keys))
    k_prev = layer.mint_key()
    relay.in_set.add(confirmed_entry(k_prev, Rid(2)))
    lost = layer.mint_key()
    layer.handle_probefail(lost, (layer.mint_key(), k_prev, k_last))
    sent = [(t, m) for t, m in layer_messages(layer) if isinstance(m, ProbeFail)]
    assert len(sent) == 1
    target, msg = sent[0]
    assert target == Rid(2) and msg.key == lost and len(msg.key_sequence) == 2


def test_sink_fails_unheld_control_keys_back_to_lowest_confirmed_sender():
    world = make_world(3)
    layer = world.layer_of(0)
    sink = layer.relays[give_door(world, 0).relay_id]
    last = layer.mint_key()
    sink.in_set |= {confirmed_entry(last, Rid(2)), confirmed_entry(last, Rid(1))}
    controls = frozenset({Key(2, 5), Key(1, 7)})
    sequence = (Key(2, 9), last)
    sender = world.layer_of(2).mint_relay_id()
    layer.handle_transmit(Transmit(Header(last, sender, sink.id, 1), Probe(controls, sequence)))
    assert layer_messages(layer) == [
        (Rid(1), ProbeFail(Key(1, 7), sequence)),
        (Rid(1), ProbeFail(Key(2, 5), sequence)),
    ]


def test_probefail_without_matching_relay_is_ignored():
    world = make_world()
    layer = world.layer_of(0)
    snapshot = world.state_hash()
    layer.handle_probefail(layer.mint_key(), (layer.mint_key(),))
    assert world.state_hash() == snapshot


# -- not authorized -----------------------------------------------------------------


def two_key_relay(world):
    door = give_door(world, 1)
    ref = connect(world, 0, door.relay_id)
    layer = world.layer_of(0)
    relay = layer.relays[ref.relay_id]
    extra = world.layer_of(1).mint_key()
    relay.out_keys.add(extra)
    return layer, relay


def test_not_authorized_retries_with_other_key():
    world = make_world(2)
    layer, relay = two_key_relay(world)
    key = min(relay.out_keys)
    m = Transmit(Header(key, relay.id, relay.out_id, relay.level), ActionInvocation("note", ("x",)))
    layer.handle_notauthorized(m)
    assert key not in relay.out_keys and len(relay.out_keys) == 1
    resent = relay.buf[-1].message
    assert resent.header.key in relay.out_keys


def test_not_authorized_last_key_closes_relay_and_purges():
    world = make_world(2)
    door = give_door(world, 1)
    ref = connect(world, 0, door.relay_id)
    layer = world.layer_of(0)
    relay = layer.relays[ref.relay_id]
    s = layer.new_relay()
    world.ctx(0).send(ref, "meet", (s,))
    assert layer.relays[s.relay_id].in_set
    key = next(iter(relay.out_keys))
    m = Transmit(Header(key, relay.id, relay.out_id, relay.level), ActionInvocation("x", ()))
    layer.handle_notauthorized(m)
    assert not relay.alive and not relay.out_keys
    assert not layer.relays[s.relay_id].in_set


def test_not_authorized_stale_level_ignored():
    world = make_world(2)
    layer, relay = two_key_relay(world)
    keys = set(relay.out_keys)
    m = Transmit(Header(min(keys), relay.id, relay.out_id, relay.level + 3), ActionInvocation("x", ()))
    layer.handle_notauthorized(m)
    assert relay.out_keys == keys


# -- ping ------------------------------------------------------------------------


def ping_setup(world):
    door = give_door(world, 1)
    ref = connect(world, 0, door.relay_id)
    layer = world.layer_of(0)
    return layer, layer.relays[ref.relay_id]


def test_ping_lowers_inflated_level():
    world = make_world(2)
    layer, relay = ping_setup(world)
    relay.level = 5
    layer.handle_ping(relay.out_id, 1, relay.sink_rid, next(iter(relay.out_keys)))
    assert relay.level == 2


def test_ping_deletes_when_level_too_low():
    world = make_world(2)
    layer, relay = ping_setup(world)
    relay.level = 1
    layer.handle_ping(relay.out_id, 3, relay.sink_rid, next(iter(relay.out_keys)))
    assert not relay.alive


def test_ping_without_holder_answers_in_relay_closed():
    world = make_world(2)
    layer = world.layer_of(0)
    stray = world.layer_of(1).mint_relay_id()
    key = layer.mint_key()
    layer.handle_ping(stray, 0, Rid(1), key)
    replies = [(t, m) for t, m in layer_messages(layer) if isinstance(m, InRelayClosed)]
    assert replies == [(Rid(1), InRelayClosed(frozenset({key}), Rid(0), stray))]


def test_ping_updates_sink_rid():
    world = make_world(3)
    layer, relay = ping_setup(world)
    layer.handle_ping(relay.out_id, 0, Rid(2), next(iter(relay.out_keys)))
    assert relay.sink_rid == Rid(2)


# -- in relay closed -----------------------------------------------------------------


def test_in_relay_closed_removes_confirmed_entry():
    world = make_world(2)
    layer = world.layer_of(1)
    door = layer.relays[give_door(world, 1).relay_id]
    connect(world, 0, door.id)
    key = next(iter(door.in_set)).key
    layer.handle_inrelayclosed(frozenset({key}), Rid(0), door.id)
    assert not door.in_set


@pytest.mark.parametrize("named", ["another sender", "another relay"])
def test_in_relay_closed_spares_an_entry_it_does_not_name(named):
    # Door's entry is confirmed from layer 0; the message names another
    # sender or another relay, so it revokes nothing of the door.
    world = make_world(3)
    layer = world.layer_of(1)
    door = layer.relays[give_door(world, 1).relay_id]
    connect(world, 0, door.id)
    entry = next(iter(door.in_set))
    sender, target = (Rid(2), door.id) if named == "another sender" else (Rid(0), layer.new_relay().relay_id)
    layer.handle_inrelayclosed(frozenset({entry.key}), sender, target)
    assert door.in_set == {entry}


def test_forged_in_relay_closed_keeps_a_legal_world_legal():
    # Closure: a legal world with an InRelayClosed in flight from a layer
    # that holds no key of the relay it names stays legal.
    world = make_world(3)
    door = give_door(world, 1)
    connect(world, 0, door.relay_id)
    key = next(iter(world.find_relay(door.relay_id).in_set)).key
    layer = world.layer_of(2)
    layer.env_source.emit_control(layer, Rid(1), InRelayClosed(frozenset({key}), Rid(2), door.relay_id))
    assert oracle.is_legal(world)
    for _ in range(2000):
        world.step()
        assert oracle.is_legal(world)


def test_in_relay_closed_spares_unconfirmed_entries():
    world = make_world(2)
    layer = world.layer_of(0)
    via = connect_door(world, 0, 1)
    s = layer.new_relay()
    world.ctx(0).send(via, "meet", (s,))
    entry = next(iter(layer.relays[s.relay_id].in_set))
    layer.handle_inrelayclosed(frozenset({entry.key}), Rid(1), s.relay_id)
    assert entry in layer.relays[s.relay_id].in_set


def test_in_relay_closed_empty_keyset_noop():
    world = make_world(2)
    layer = world.layer_of(0)
    snapshot = world.state_hash()
    layer.handle_inrelayclosed(frozenset(), Rid(1), layer.mint_relay_id())
    assert world.state_hash() == snapshot


# -- out relay closed -----------------------------------------------------------------


def test_out_relay_closed_tears_down_and_purges():
    world = make_world(2)
    via = connect_door(world, 0, 1)
    layer = world.layer_of(0)
    s = layer.new_relay()
    world.ctx(0).send(via, "meet", (s,))
    relay = layer.relays[via.relay_id]
    layer.handle_outrelayclosed(relay.out_id)
    assert not relay.alive
    assert relay.out_id is None and not relay.out_keys
    assert not layer.relays[s.relay_id].in_set
    assert layer.dead(via)


def test_out_relay_closed_without_match_noop():
    world = make_world(2)
    layer = world.layer_of(0)
    give_door(world, 0)
    snapshot = world.state_hash()
    layer.handle_outrelayclosed(world.layer_of(1).mint_relay_id())
    assert world.state_hash() == snapshot


# -- timeout ---------------------------------------------------------------------------


def test_timeout_resets_sink_level():
    world = make_world()
    layer = world.layer_of(0)
    ref = layer.new_relay()
    layer.relays[ref.relay_id].level = 4
    layer.timeout()
    assert layer.relays[ref.relay_id].level == 0


def test_timeout_deletes_keyless_non_sink():
    world = make_world(2)
    ref = connect_door(world, 0, 1)
    layer = world.layer_of(0)
    layer.relays[ref.relay_id].out_keys.clear()
    layer.timeout()
    gone = layer.relays.get(ref.relay_id)
    assert gone is None or not gone.alive


def test_timeout_purges_duplicate_in_keys():
    world = make_world(2)
    layer = world.layer_of(0)
    a, b = layer.new_relay(), layer.new_relay()
    key = layer.mint_key()
    layer.relays[a.relay_id].in_set.add(confirmed_entry(key, Rid(1)))
    layer.relays[b.relay_id].in_set.add(confirmed_entry(key, Rid(1)))
    layer.timeout()
    assert not layer.relays[a.relay_id].in_set
    assert not layer.relays[b.relay_id].in_set


def test_timeout_purges_foreign_keys():
    world = make_world(2)
    layer = world.layer_of(0)
    ref = layer.new_relay()
    layer.relays[ref.relay_id].in_set.add(confirmed_entry(world.layer_of(1).mint_key(), Rid(1)))
    layer.timeout()
    assert not layer.relays[ref.relay_id].in_set


def test_timeout_pings_confirmed_senders():
    world = make_world(2)
    layer = world.layer_of(1)
    door = layer.relays[give_door(world, 1).relay_id]
    connect(world, 0, door.id)
    layer.timeout()
    pings = [(t, m) for t, m in layer_messages(layer) if isinstance(m, Ping)]
    assert len(pings) == 1
    target, ping = pings[0]
    assert target == Rid(0) and ping.id == door.id and ping.level == 0


def test_timeout_emits_probes_per_out_key():
    world = make_world(2)
    ref = connect_door(world, 0, 1)
    layer = world.layer_of(0)
    layer.timeout()
    probes = [
        e.message
        for e in layer.relays[ref.relay_id].buf
        if isinstance(e.message, Transmit) and isinstance(e.message.action, Probe)
    ]
    assert len(probes) == 1
    assert probes[0].action.key_sequence == (probes[0].header.key,)


def test_stopped_process_layer_shuts_down_when_empty():
    world = make_world(1)
    world.ctx(0).stop()
    world.run(10)
    assert world.layer_of(0) is None


def test_dead_process_last_relay_then_shutdown():
    world = make_world(2)
    give_door(world, 0)
    world.ctx(0).stop()
    res = world.run_until(lambda w: Rid(0) not in w.layers, 4000)
    assert res.reached


# -- stop ------------------------------------------------------------------------------


def test_stop_deletes_sinks_but_keeps_draining_non_sinks():
    world = make_world(2)
    door = give_door(world, 0)
    out = connect_door(world, 0, 1)
    world.ctx(0).send(out, "note", ("bye",))
    world.ctx(0).stop()
    layer = world.layer_of(0)
    assert not layer.relays[door.relay_id].alive
    assert layer.relays[out.relay_id].alive
    res = world.run_until(lambda w: Rid(0) not in w.layers, 6000)
    assert res.reached


def test_stop_is_idempotent_and_freezes_primitives():
    world = make_world(2)
    out = connect_door(world, 0, 1)
    world.ctx(0).stop()
    layer = world.layer_of(0)
    snapshot = world.state_hash()
    world.ctx(0).stop()
    layer.send(out, ActionInvocation("note", ("x",)))
    layer.delete_relay(out)
    layer.merge({out})
    assert layer.new_relay() is None
    assert world.state_hash() == snapshot


# -- deliberate-application guard -------------------------------------------------------


def test_no_internal_delete_on_valid_relays_under_deliberate_app(monkeypatch):
    # Records every delete of an alive relay that the layer makes on its
    # own, inside its repair loop or a message handler.
    internal, depth = [], []
    delete = RelayLayer._delete

    def inside(method):
        def run(layer, *args):
            depth.append(method)
            try:
                return method(layer, *args)
            finally:
                depth.pop()
        return run

    def recording_delete(layer, relay):
        if depth and relay.alive:
            internal.append(relay.id)
        delete(layer, relay)

    monkeypatch.setattr(RelayLayer, "timeout", inside(RelayLayer.timeout))
    monkeypatch.setattr(RelayLayer, "receive", inside(RelayLayer.receive))
    monkeypatch.setattr(RelayLayer, "_delete", recording_delete)
    world = new_world(7, 3)
    for pid in range(3):
        connect_door(world, pid, (pid + 1) % 3)
        world.processes[pid].app = RandomDeliberateApp(max_relays=3)
    world.run(4000)
    assert internal == []
    # The recorder sees the repair loop delete a keyless relay.
    ref = connect(world, 0, world.layer_of(1).new_relay().relay_id)
    world.layer_of(0).relays[ref.relay_id].out_keys.clear()
    world.layer_of(0).timeout()
    assert internal == [ref.relay_id]


# -- lock-step differential test of the repair loop ------------------------------------


def message_carries_param_key(message: Message, key: Key) -> bool:
    """True if a relay parameter with `key` rides inside `message`."""
    if isinstance(message, Transmit):
        action = message.action
        if isinstance(action, ActionInvocation):
            return any(isinstance(p, RelayParameter) and p.key == key for p in action.params)
    return False


class RescanningLayer(RelayLayer):
    """The relay layer before its repair loop took one snapshot per call,
    kept as the reference.  `timeout` rescans the relay table for every
    relay, `_forward` tests each control key against the buffer and
    `handle_inrelayclosed` scans the In set of the relay it names once per
    key.  The method bodies are copied unchanged, but for the emitter calls
    and for `handle_inrelayclosed` revoking only the sender's entries in
    that relay, as the layer's own handler does."""

    def _forward(self, relay: Relay, m: Transmit) -> None:
        if not relay.out_keys:
            return  # header cannot be rewritten; repair loop deletes this relay
        new_key = min(relay.out_keys)
        action = m.action
        if isinstance(action, Probe):
            sequence = action.key_sequence + (new_key,)
            controls = frozenset(
                k for k in action.control_keys
                if not any(message_carries_param_key(env.message, k) for env in relay.buf)
            )
            action = Probe(controls, sequence)
        self.env_source.emit_buf(relay, Transmit(Header(new_key, relay.id, relay.out_id, relay.level), action))

    def handle_inrelayclosed(self, keys, sender_rid, target_id) -> None:
        relay = self.relays.get(target_id)
        for key in sorted(keys):
            if relay is not None:
                gone = {e for e in relay.in_set if e.confirmed and e.from_rid == sender_rid and e.key == key}
                relay.in_set -= gone

    def timeout(self) -> None:
        """Periodically executed self-repair; guard is always true."""
        # Key multiplicity snapshot: duplicated In keys are purged everywhere.
        key_count: dict[Key, int] = {}
        for r in self.relays.values():
            for e in r.in_set:
                key_count[e.key] = key_count.get(e.key, 0) + 1

        for relay in sorted(list(self.relays.values()), key=lambda r: r.id):
            if relay.id not in self.relays:
                continue
            if relay.out_id is None:
                relay.level = 0
                relay.sink_rid = self.rid
            elif relay.level < 1:
                relay.level = 1
            if relay.out_id is None and relay.out_keys:
                relay.out_keys.clear()
            if relay.out_id is not None and not relay.out_keys:
                # Keyless non-sink: the outgoing link is unusable, exactly
                # the exhaustion case of the not-authorized handler, so
                # announcements via this relay can never be probed again.
                # Entries whose announcing message still sits in the buffer
                # are kept: the far side will confirm them on delivery.
                for r in self.relays.values():
                    stale = {
                        e
                        for e in r.in_set
                        if not e.confirmed
                        and e.via == relay.id
                        and not any(message_carries_param_key(env.message, e.key) for env in relay.buf)
                    }
                    r.in_set -= stale
                if relay.alive:
                    self._delete(relay)
            bad = {e for e in relay.in_set if key_count.get(e.key, 0) > 1 or not belongs_to(e.key, self.rid)}
            relay.in_set -= bad
            for e in relay.sorted_in():
                if e.confirmed:
                    self.env_source.emit_control(self, e.from_rid, Ping(relay.id, relay.level, relay.sink_rid, e.key))
            dangling = {e for e in relay.in_set if not e.confirmed and e.via not in self.relays}
            relay.in_set -= dangling

            pending_via = any(
                not e.confirmed and e.via == relay.id
                for r in self.relays.values()
                for e in r.in_set
            )
            if not relay.alive and not pending_via and not relay.buf:
                # Removal waits for the buffer: a deleted relay keeps
                # delivering what was already sent through it.
                if relay.out_id is None:
                    self._delete(relay)
                    del self.relays[relay.id]
                    continue
                # Keys inherited by an alive relay (merge) are still in use
                # and must not be revoked on the tombstone's behalf.
                closed = frozenset(
                    k
                    for k in relay.out_keys
                    if not any(o.alive and k in o.out_keys for o in self.relays.values())
                )
                if closed:
                    self.env_source.emit_control(
                        self,
                        relay.out_id.rid,
                        InRelayClosed(closed, self.rid, relay.out_id),
                    )
                del self.relays[relay.id]
                continue
            if (
                not self.owner_alive
                and relay.alive
                and not relay.in_set
                and not relay.buf
                and not pending_via
            ):
                self._delete(relay)
            if relay.alive and relay.out_keys:
                # Out-key collisions are resolved between alive relays only;
                # a merge tombstone legitimately shares keys with its heir.
                for other in self.relays.values():
                    if other.alive and other.id > relay.id and other.out_keys & relay.out_keys:
                        self._delete(relay)
                        break
            controls = frozenset(
                e.key
                for r in self.relays.values()
                for e in r.in_set
                if not e.confirmed
                and e.via == relay.id
                and not any(message_carries_param_key(env.message, e.key) for env in relay.buf)
            )
            # Alive relays probe while their owner lives or keys may still
            # arrive.  A dead relay probes only while announcements made via
            # it are unresolved: probing any longer would keep refilling its
            # buffer and prevent its own collection, probing any less would
            # strand the announcements of a stopped process.
            if controls or (relay.alive and (self.owner_alive or relay.in_set)):
                for key in relay.sorted_out_keys():
                    self.env_source.emit_buf(
                        relay,
                        Transmit(Header(key, relay.id, relay.out_id, relay.level), Probe(controls, (key,))),
                    )


def _rescanning(world):
    for layer in world.layers.values():
        layer.__class__ = RescanningLayer
    return world


def _with_apps(world, **kwargs):
    for proc in world.processes.values():
        proc.app = RandomDeliberateApp(**kwargs)
    return world


def _disturb(world, i):
    # Every 25 steps one layer in turn gets, by rotation, an out-key collision
    # (its newest alive relay takes a key of its oldest), an announcement
    # sent via a relay that then loses its out-keys, or a merge of two
    # parallel relays.
    if i % 25 != 0:
        return
    pid = i // 25 % len(world.processes)
    layer, ctx = world.layer_of(pid), world.ctx(pid)
    if layer is None:
        return
    live = sorted((r for r in layer.relays.values() if r.alive and r.out_id is not None and r.out_keys),
                  key=lambda r: r.id)
    kind = i // 25 % 3
    if kind == 0 and len(live) >= 2:
        live[-1].out_keys.add(min(live[0].out_keys))
    elif kind == 1 and live:
        ctx.send(RelayRef(live[0].id), "meet", (ctx.layer.get_relays()[0],))
        live[0].out_keys.clear()
    elif kind == 2:
        refs = [RelayRef(r.id) for r in live if not r.in_set]
        for a in refs:
            for b in refs:
                if (a.relay_id < b.relay_id and ctx.layer.same_target(a, b)
                        and ctx.layer.merge({a, b}) is not None):
                    return


def _shut_down_one_by_one(world, i):
    # Apps leave mid-run, then every process stops while its announcements
    # may still be pending.
    if i >= 200 and (i - 200) % 10 == 0 and (i - 200) // 10 < 2 * len(world.processes):
        pid, phase = divmod((i - 200) // 10, 2)
        if phase == 0:
            world.processes[pid].app = None
        else:
            world.ctx(pid).stop()


REPAIR_RUNS = {
    # name: (world builder, steps, hook between steps)
    "mixed": (lambda s: _with_apps(adversarial_init(s, 4, 96, 48, "mixed"), max_relays=16), 120,
              _disturb),
    "shutdown": (lambda s: _with_apps(random_connected_world(s, 5, 3, 2), max_relays=4), 700,
                 _shut_down_one_by_one),
}

REPAIR_CASES = [("mixed", seed) for seed in range(1, 13)] + [("shutdown", seed) for seed in range(1, 5)]


@pytest.mark.parametrize("name,seed", REPAIR_CASES)
def test_repair_loop_matches_rescanning_reference(name, seed):
    build, steps, between = REPAIR_RUNS[name]
    world, reference = build(seed), _rescanning(build(seed))
    for i in range(steps):
        between(world, i)
        between(reference, i)
        world.step()
        reference.step()
        assert world.state_hash() == reference.state_hash(), f"step {i}"


@pytest.mark.parametrize("n", [6, 7, 8])
def test_transform_plan_matches_rescanning_reference(n):
    # One plan of the transform benchmark at seed 1: the source and target
    # multigraphs are drawn the way its units draw them.
    runs = []
    for prepare in (lambda w: w, _rescanning):
        rng = random.Random(1)
        source = rules.random_multigraph(rng.getrandbits(32), n, extra=3)
        target = rules.random_multigraph(rng.getrandbits(32), n, extra=3)
        world = prepare(rules.build_simple_realization(1, source))
        world.trace = []
        assert world.run_until(lambda w: w.is_settled(), 20_000).reached
        rules.execute_plan(world, rules.plan_transform(world, target))
        assert rules.cpg(world).edges == target.edges
        runs.append((world.trace, world.state_hash()))
    assert runs[0] == runs[1]


def test_repair_runs_cover_purge_collision_collection_and_dead_probes(monkeypatch):
    seen = Counter()
    timeout, merge = RelayLayer.timeout, RelayLayer.merge

    def observed_timeout(layer):
        keyless = {r.id for r in layer.relays.values() if r.out_id is not None and not r.out_keys}
        count = Counter(e.key for r in layer.relays.values() for e in r.in_set)
        via_keyless = [
            (r, e) for r in layer.relays.values() for e in r.in_set
            if e.via in keyless and count[e.key] == 1 and belongs_to(e.key, layer.rid)
        ]
        may_collide = [r for r in layer.relays.values() if r.alive and r.out_keys and r.out_id is not None]
        # The triggers that guard the recovery branches, per relay: an
        # announcement via it, a keyless non-sink, and a dead relay or a
        # stopped owner (counted apart).  Each counts on its own.
        via = {e.via for r in layer.relays.values() for e in r.in_set if e.via is not None}
        for r in layer.relays.values():
            triggers = [name for name, hit in (
                ("trigger: announcement via it", r.id in via),
                ("trigger: keyless non-sink", r.out_id is not None and not r.out_keys),
                ("trigger: dead", not r.alive),
                ("trigger: stopped owner", not layer.owner_alive),
            ) if hit]
            seen.update(triggers)
            seen["no trigger"] += not triggers
        sent, first_uid = len(layer.layer_buf), layer.env_source._next
        timeout(layer)
        # An entry of an alive holder, neither duplicated nor foreign, can
        # only leave through the keyless purge of its announcing relay.
        seen["keyless purge"] += sum(r.alive and e not in r.in_set for r, e in via_keyless)
        if layer.owner_alive:
            seen["collision delete"] += sum(not r.alive for r in may_collide)
        seen["collected with InRelayClosed"] += sum(
            isinstance(env.message, InRelayClosed) for env in layer.layer_buf[sent:]
        )
        seen["dead relay probes with controls"] += sum(
            env.uid >= first_uid and bool(env.message.action.control_keys)
            for r in layer.relays.values() if not r.alive for env in r.buf
        )

    def counted_merge(layer, refs):
        merged = merge(layer, refs)
        seen["merge"] += merged is not None
        return merged

    monkeypatch.setattr(RelayLayer, "timeout", observed_timeout)
    monkeypatch.setattr(RelayLayer, "merge", counted_merge)
    for name, seed in REPAIR_CASES:
        build, steps, between = REPAIR_RUNS[name]
        world = build(seed)
        for i in range(steps):
            between(world, i)
            world.step()
    assert min(seen[k] for k in ("keyless purge", "collision delete", "collected with InRelayClosed",
                                 "dead relay probes with controls", "merge", "no trigger",
                                 "trigger: announcement via it", "trigger: keyless non-sink",
                                 "trigger: dead", "trigger: stopped owner")) > 0, seen


def test_collected_relay_stops_counting_its_announcements():
    # A dead non-sink relay is collected with an entry announced via a later
    # relay still in its In set.  Once collected it has left the table, so
    # that entry must not make the later relay probe for its key.
    hashes = []
    for cls in (RelayLayer, RescanningLayer):
        world = make_world(2)
        layer = world.layer_of(0)
        layer.__class__ = cls
        tomb = layer.relays[layer.new_relay().relay_id]
        via = layer.relays[connect_door(world, 0, 1).relay_id]
        tomb.out_id, tomb.level, tomb.alive = via.out_id, via.level, False
        tomb.in_set.add(unconfirmed_entry(layer.mint_key(), via.id))
        layer.timeout()
        assert tomb.id not in layer.relays
        assert [env.message.action for env in via.buf] == [Probe(frozenset(), (min(via.out_keys),))]
        hashes.append(world.state_hash())
    assert hashes[0] == hashes[1]


def test_collection_closes_only_keys_no_alive_relay_still_holds():
    # A collected tombstone shares one out-key with an alive sink, which
    # clears it earlier in the same call, and one with an alive relay.
    hashes = []
    for cls in (RelayLayer, RescanningLayer):
        world = make_world(2)
        layer = world.layer_of(0)
        layer.__class__ = cls
        sink = layer.relays[layer.new_relay().relay_id]
        heir = layer.relays[connect_door(world, 0, 1).relay_id]
        tomb = layer.relays[layer.new_relay().relay_id]
        dropped = world.layer_of(1).mint_key()
        sink.out_keys.add(dropped)
        tomb.out_id, tomb.level, tomb.alive = heir.out_id, heir.level, False
        tomb.out_keys = {dropped, min(heir.out_keys)}
        layer.timeout()
        assert tomb.id not in layer.relays
        closed = [m for _, m in layer_messages(layer) if isinstance(m, InRelayClosed)]
        assert closed == [InRelayClosed(frozenset({dropped}), Rid(0), heir.out_id)]
        hashes.append(world.state_hash())
    assert hashes[0] == hashes[1]
