"""Primitive and handler behavior, one scenario per pseudocode branch."""

import pytest

from relaysim import oracle
from relaysim.core import (
    ActionInvocation,
    Header,
    InRelayClosed,
    NotAuthorized,
    OutRelayClosed,
    Ping,
    Probe,
    ProbeFail,
    RelayParameter,
    RelayRef,
    Rid,
    Transmit,
    confirmed_entry,
    unconfirmed_entry,
)
from relaysim.kernel import connect, connect_door, give_door, new_world


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
    ok, violations = oracle.valid_relay(world, ref.relay_id)
    assert ok, violations


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


def test_merge_requires_empty_in():
    world = make_world()
    layer, a, b = merge_pair(world)
    layer.relays[a.relay_id].in_set.add(confirmed_entry(layer.mint_key(), Rid(1)))
    assert layer.merge({a, b}) is None


def test_merge_of_valid_relays_yields_valid_relay():
    world = make_world()
    layer, a, b = merge_pair(world)
    assert oracle.valid_relay(world, a.relay_id)[0]
    merged = layer.merge({a, b})
    world.run_until(lambda w: w.is_settled(), 4000)
    ok, violations = oracle.valid_relay(world, merged.relay_id)
    assert ok, violations


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
    ctx.send(via, "meet", (s,), relay_positions=(0,))
    ctx.send(via, "meet", (s,), relay_positions=(0,))
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
    layer.send(via, ActionInvocation("meet", (s,), (0,)))
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
    world.ctx(0).send(via, "meet", (s,), relay_positions=(0,))
    world.run_until(lambda w: w.is_settled(), 6000)
    sink = layer.relays[s.relay_id]
    assert len(sink.in_set) == 1
    entry = next(iter(sink.in_set))
    assert entry.confirmed and entry.from_rid == Rid(1)


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
    m = Transmit(Header(key, relay.id, door.id, 1), ActionInvocation("noise", params, (0, 1)))
    before = len(door.buf)
    target.handle_transmit(m)
    assert len(door.buf) == before  # obviously corrupted, not delivered


def test_duplicate_key_parameter_becomes_none():
    world = make_world(2)
    via = connect_door(world, 0, 1)
    layer = world.layer_of(0)
    s = layer.new_relay()
    ctx = world.ctx(0)
    ctx.send(via, "meet", (s,), relay_positions=(0,))
    env = layer.relays[via.relay_id].buf[-1]
    param = env.message.action.params[0]
    target = world.layer_of(1)
    door = target.relays[give_door(world, 1).relay_id]
    # first receipt creates the relay, replay offers the same key again
    target.handle_transmit(Transmit(Header(next(iter(layer.relays[via.relay_id].out_keys)), via.relay_id, door.id, 1), ActionInvocation("meet", (param,), (0,))))
    delivered = [e.message for e in door.buf if isinstance(e.message, ActionInvocation)]
    assert isinstance(delivered[-1].params[0], RelayRef)
    target.handle_transmit(Transmit(Header(next(iter(layer.relays[via.relay_id].out_keys)), via.relay_id, door.id, 1), ActionInvocation("meet", (param,), (0,))))
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


# -- probe failure ----------------------------------------------------------------


def test_probefail_length_one_removes_pending_entry():
    world = make_world(2)
    via = connect_door(world, 0, 1)
    layer = world.layer_of(0)
    s = layer.new_relay()
    world.ctx(0).send(via, "meet", (s,), relay_positions=(0,))
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
    world.ctx(0).send(ref, "meet", (s,), relay_positions=(0,))
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


def test_in_relay_closed_spares_unconfirmed_entries():
    world = make_world(2)
    layer = world.layer_of(0)
    via = connect_door(world, 0, 1)
    s = layer.new_relay()
    world.ctx(0).send(via, "meet", (s,), relay_positions=(0,))
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
    world.ctx(0).send(via, "meet", (s,), relay_positions=(0,))
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
    layer = world.layer_of(0)
    layer.timeout()
    assert layer.shut_down


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


def test_no_internal_delete_on_valid_relays_under_deliberate_app():
    from relaysim.apps import RandomDeliberateApp

    world = new_world(7, 3)
    for pid in range(3):
        connect_door(world, pid, (pid + 1) % 3)
        world.processes[pid].app = RandomDeliberateApp(max_relays=3)
    for layer in world.layers.values():
        layer.events.clear()
    world.run(4000)
    internal = [
        e for layer in world.layers.values() for e in layer.events if e[0] == "internal_delete"
    ]
    assert internal == []
