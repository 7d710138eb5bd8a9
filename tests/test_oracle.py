"""Graph extraction, validity properties, legality, components, export."""

import random
from collections import Counter

import pytest

from relaysim import oracle, rules
from relaysim.suites import DeliveryTracker
from relaysim.departure import build_departure_world
from relaysim.core import (
    ActionInvocation,
    Header,
    InRelayClosed,
    Key,
    NotAuthorized,
    OutRelayClosed,
    Ping,
    Probe,
    ProbeFail,
    RelayId,
    RelayParameter,
    Rid,
    Transmit,
    confirmed_entry,
    unconfirmed_entry,
)
from relaysim.kernel import (
    adversarial_init,
    connect,
    connect_door,
    fig_triangle,
    give_door,
    new_world,
)
from relaysim.layer import RelayLayer
from relaysim.oracle import PROCESS, RELAY


def test_triangle_graph_edges():
    world = fig_triangle()
    g = oracle.extract_relay_graph(world)
    q = world.processes[0].store["out"].relay_id
    r = world.processes[1].store["door"].relay_id
    p = world.processes[2].store["out"].relay_id
    expected = {
        ((PROCESS, 0), (RELAY, q)),
        ((RELAY, q), (RELAY, r)),
        ((PROCESS, 1), (RELAY, r)),
        ((RELAY, r), (PROCESS, 1)),
        ((PROCESS, 2), (RELAY, p)),
        ((RELAY, p), (RELAY, r)),
    }
    assert g.explicit_edges == expected
    assert g.implicit_edges == set()


def test_single_sink_graph():
    world = new_world(1, 1)
    give_door(world, 0)
    g = oracle.extract_relay_graph(world)
    assert len(g.vertices) == 2
    assert len(g.explicit_edges) == 2  # ownership and sink-delivery arcs


def test_reference_in_buffer_is_implicit_edge():
    world = new_world(2, 2)
    via = connect_door(world, 0, 1)
    layer = world.layer_of(0)
    s = layer.new_relay()
    world.ctx(0).send(via, "meet", (s,))
    g = oracle.extract_relay_graph(world)
    assert ((RELAY, via.relay_id), (RELAY, s.relay_id)) in g.implicit_edges


def test_fresh_sink_is_valid():
    world = new_world(3, 1)
    ref = world.layer_of(0).new_relay()
    violations = oracle.WorldCheck(world).relay_violations(ref.relay_id)
    assert violations == []


def test_dead_next_hop_violates_validity():
    world = new_world(4, 2)
    ref = connect_door(world, 0, 1)
    door_id = world.processes[1].store["door"].relay_id
    world.layer_of(1).relays[door_id].alive = False
    assert "P11b" in oracle.WorldCheck(world).relay_violations(ref.relay_id)


def test_wrong_level_violates_validity():
    world = new_world(5, 2)
    ref = connect_door(world, 0, 1)
    world.layer_of(0).relays[ref.relay_id].level = 3
    assert "P11c" in oracle.WorldCheck(world).relay_violations(ref.relay_id)


def test_duplicate_in_key_violates_p5():
    world = new_world(6, 2)
    layer = world.layer_of(0)
    a, b = layer.new_relay(), layer.new_relay()
    key = layer.mint_key()
    layer.relays[a.relay_id].in_set.add(confirmed_entry(key, Rid(1)))
    layer.relays[b.relay_id].in_set.add(confirmed_entry(key, Rid(1)))
    assert "P5" in oracle.WorldCheck(world).relay_violations(a.relay_id)
    assert "P5" in oracle.WorldCheck(world).relay_violations(b.relay_id)


def test_contradicting_ping_violates_p6():
    world = new_world(7, 2)
    door = give_door(world, 0)
    layer = world.layer_of(0)
    world.env_source.emit_control(layer, Rid(1), Ping(door.relay_id, 3, Rid(0), layer.mint_key()))
    assert "P6" in oracle.WorldCheck(world).relay_violations(door.relay_id)


def test_out_relay_closed_in_flight_violates_p7():
    world = new_world(8, 2)
    door = give_door(world, 0)
    world.env_source.emit_control(world.layer_of(1), Rid(0), OutRelayClosed(door.relay_id))
    assert "P7" in oracle.WorldCheck(world).relay_violations(door.relay_id)


def test_unbacked_pending_entry_violates_p9():
    world = new_world(9, 2)
    layer = world.layer_of(0)
    via = connect_door(world, 0, 1)
    s = layer.new_relay()
    layer.relays[s.relay_id].in_set.add(unconfirmed_entry(layer.mint_key(), via.relay_id))
    assert "P9" in oracle.WorldCheck(world).relay_violations(s.relay_id)


def test_pending_entry_announced_via_another_layer_violates_p4():
    world = new_world(9, 2)
    layer = world.layer_of(0)
    door = give_door(world, 1)
    s = layer.new_relay()
    layer.relays[s.relay_id].in_set.add(unconfirmed_entry(layer.mint_key(), door.relay_id))
    assert "P4" in oracle.WorldCheck(world).relay_violations(s.relay_id)


def test_sink_with_foreign_sink_rid_violates_p10():
    world = new_world(10, 2)
    door = give_door(world, 0)
    world.layer_of(0).relays[door.relay_id].sink_rid = Rid(1)
    assert "P10" in oracle.WorldCheck(world).relay_violations(door.relay_id)


def test_in_relay_closed_matching_keys_violates_p11f():
    world = new_world(11, 2)
    ref = connect_door(world, 0, 1)
    layer = world.layer_of(0)
    relay = layer.relays[ref.relay_id]
    world.env_source.emit_control(layer, Rid(1), InRelayClosed(frozenset(relay.out_keys), Rid(0), relay.out_id))
    assert "P11f" in oracle.WorldCheck(world).relay_violations(ref.relay_id)


def test_alive_out_key_co_holder_violates_p11e():
    world = new_world(22, 2)
    ref = connect_door(world, 0, 1)
    layer = world.layer_of(0)
    relay = layer.relays[ref.relay_id]
    twin = layer.relays[layer.new_relay().relay_id]
    twin.out_id, twin.out_keys = relay.out_id, set(relay.out_keys)
    twin.level, twin.sink_rid = relay.level, relay.sink_rid
    assert oracle.WorldCheck(world).relay_violations(relay.id) == ["P11e"]
    assert oracle.WorldCheck(world).relay_violations(twin.id) == ["P11e"]
    # A deleted relay still holding the key is a tombstone, not a co-holder.
    twin.alive = False
    assert oracle.WorldCheck(world).relay_violations(relay.id) == []


def test_not_authorized_against_held_permission_violates_p8():
    world = new_world(23, 2)
    sender = connect_door(world, 0, 1)
    layer1 = world.layer_of(1)
    door = layer1.relays[world.processes[1].store["door"].relay_id]
    key = next(iter(door.in_set)).key
    rejected = Transmit(Header(key, sender.relay_id, door.id, 1), ActionInvocation("x", ()))
    assert oracle.WorldCheck(world).relay_violations(door.id) == []
    world.env_source.emit_control(layer1, Rid(0), NotAuthorized(rejected))
    assert oracle.WorldCheck(world).relay_violations(door.id) == ["P8"]


def _param_violations(world, carrier, param):
    """Violation codes of the one in-flight copy of `param` on `carrier`."""
    check = oracle.WorldCheck(world)
    (message,) = [m for c, m, p in check.params if c == carrier and p == param]
    return check.param_violations(carrier, message, param)


def _sent_parameter(seed, hops=1):
    """A two-process world with one freshly sent parameter: (world, the
    announcing relay, the parameter's carrier id, the parameter).  The
    announcing relay and the `hops - 1` relays after it on its chain to
    process 1's door belong to process 0."""
    world = new_world(seed, 2)
    via = give_door(world, 1)
    for _ in range(hops):
        via = connect(world, 0, via.relay_id)
    layer = world.layer_of(0)
    world.ctx(0).send(via, "meet", (layer.new_relay(),))
    carrier, _, param = oracle.WorldCheck(world).params[0]
    assert _param_violations(world, carrier, param) == []
    return world, layer.relays[via.relay_id], carrier, param


def _forward(world, carrier, hops):
    """Deliver the one envelope in `carrier`'s buffer `hops` hops down its
    chain; returns the id of the relay that then holds it."""
    for _ in range(hops):
        relay = world.find_relay(carrier)
        (env,) = relay.buf
        relay.buf.clear()
        carrier = relay.out_id
        world.layers[carrier.rid].handle_transmit(env.message)
    return carrier


def _resend(world, carrier, params):
    """Replace the one Transmit in `carrier`'s buffer by a copy carrying
    `params`; returns the copy."""
    relay = world.layer_of(carrier.rid).relays[carrier]
    (env,) = relay.buf
    m = env.message
    env.message = Transmit(m.header, ActionInvocation(m.action.label, params))
    return env.message


def test_second_copy_of_parameter_violates_c2():
    world, via, carrier, param = _sent_parameter(28)
    (env,) = world.layer_of(0).relays[carrier].buf
    world.env_source.emit_control(world.layer_of(1), Rid(0), env.message)
    assert _param_violations(world, carrier, param) == ["C2"]


def test_parameter_with_wrong_level_violates_c4():
    world, via, carrier, param = _sent_parameter(29)
    raised = RelayParameter(param.key, param.id, param.level + 1, param.sink_rid)
    _resend(world, carrier, (raised,))
    assert oracle.WorldCheck(world).relay_violations(param.id) == []
    assert _param_violations(world, carrier, raised) == ["C4"]


def test_parameters_from_two_layers_violate_c6():
    world, via, carrier, param = _sent_parameter(30)
    layer1 = world.layer_of(1)
    foreign = RelayParameter(layer1.mint_key(), layer1.mint_relay_id(), 1, Rid(1))
    _resend(world, carrier, (param, foreign))
    assert _param_violations(world, carrier, param) == ["C6"]


@pytest.mark.parametrize("seed", range(33, 38))
def test_parameter_its_target_never_announced_violates_c5(seed):
    world, via, carrier, param = _sent_parameter(seed)
    target = world.layer_of(0).relays[param.id]
    target.in_set -= {e for e in target.in_set if not e.confirmed and e.key == param.key}
    assert oracle.WorldCheck(world).relay_violations(param.id) == []
    assert _param_violations(world, carrier, param) == ["C5"]
    assert not oracle.is_legal(world)


def test_parameter_key_heading_a_transmit_violates_c8():
    world, via, carrier, param = _sent_parameter(31)
    stray = Transmit(Header(param.key, via.id, via.out_id, via.level), ActionInvocation("x", ()))
    world.env_source.emit_control(world.layer_of(1), Rid(0), stray)
    assert _param_violations(world, carrier, param) == ["C8"]


def test_ping_naming_an_unconfirmed_key_violates_p6():
    world, via, carrier, param = _sent_parameter(32)
    target = world.layer_of(0).relays[param.id]
    world.env_source.emit_control(world.layer_of(1), Rid(0), Ping(target.id, target.level, target.sink_rid, param.key))
    assert oracle.WorldCheck(world).relay_violations(param.id) == ["P6"]


def test_probefail_for_announced_key_rejects_parameter():
    world, via, carrier, param = _sent_parameter(24)
    world.env_source.emit_control(world.layer_of(1), Rid(0), ProbeFail(param.key, (min(via.out_keys),)))
    # The same ProbeFail leaves the target's pending entry unbacked (P9), so
    # the parameter fails on its target (C3); this is why the oracle has no
    # separate C9 check.
    assert oracle.WorldCheck(world).relay_violations(param.id) == ["P9"]
    assert _param_violations(world, carrier, param) == ["C3"]


@pytest.mark.parametrize("activated", [False, True], ids=["in_transit", "activated"])
def test_probe_hunting_pending_key_off_its_chain_violates_p9(activated):
    world, via, carrier, param = _sent_parameter(26)
    if activated:
        # The door has taken a copy of the announcement too: the relay it
        # made holds an activation probe, which backs the entry but for the
        # hunter below.
        (env,) = via.buf
        world.layer_of(1).handle_transmit(env.message)
        assert oracle.WorldCheck(world).relay_violations(param.id) == []
    key = min(via.out_keys)
    # The hunted key is not the probe's first control key, and the probe
    # sits in a layer buffer, off the announcing relay's chain.
    hunter = Probe(frozenset({Key(Rid(0), 0), param.key}), (key,))
    world.env_source.emit_control(world.layer_of(0), Rid(1), Transmit(Header(key, via.id, via.out_id, via.level), hunter))
    assert oracle.WorldCheck(world).relay_violations(param.id) == ["P9"]
    assert _param_violations(world, carrier, param) == ["C3"]


def test_probe_ahead_of_its_announcement_violates_c10():
    world, via, carrier, param = _sent_parameter(25)
    key = min(via.out_keys)
    hunter = Probe(frozenset({param.key}), (key,))
    world.env_source.emit_buf(via, Transmit(Header(key, via.id, via.out_id, via.level), hunter))
    assert oracle.WorldCheck(world).relay_violations(param.id) == []
    assert _param_violations(world, carrier, param) == ["C10"]


@pytest.mark.parametrize(
    "tail, codes", [((), ["C10"]), ((Key(Rid(0), 0),), ["C10"]), (None, [])], ids=["position", "sequence", "on_chain"]
)
def test_probe_off_its_place_behind_its_announcement_violates_c10(tail, codes):
    # The announcement sits two hops down a chain of three relays and the
    # door.  A probe hunting its key one hop down trails it only with two
    # keys along the chain, the middle relay's second (on_chain).  One key
    # puts it off its position; a second key off the chain, its sequence.
    world, via, carrier, param = _sent_parameter(39, hops=3)
    carrier = _forward(world, carrier, 2)
    middle = world.find_relay(via.out_id)
    if tail is None:
        tail = (min(middle.out_keys),)
    hunter = Probe(frozenset({param.key}), (min(via.out_keys),) + tail)
    header = Header(min(middle.out_keys), middle.id, middle.out_id, middle.level)
    world.env_source.emit_buf(middle, Transmit(header, hunter))
    assert oracle.WorldCheck(world).relay_violations(param.id) == []
    assert _param_violations(world, carrier, param) == codes


def test_in_relay_closed_for_parameter_key_violates_c11():
    world, via, carrier, param = _sent_parameter(27)
    world.env_source.emit_control(world.layer_of(1), Rid(0), InRelayClosed(frozenset({param.key}), Rid(1), param.id))
    assert oracle.WorldCheck(world).relay_violations(param.id) == []
    assert _param_violations(world, carrier, param) == ["C11"]


def test_valid_header_confirmed_and_unconfirmed_clauses():
    world = new_world(12, 2)
    door_ref = give_door(world, 1)
    sender = connect_door(world, 0, 1)
    layer1 = world.layer_of(1)
    door = layer1.relays[door_ref.relay_id]
    key = next(iter(door.in_set)).key
    good = Transmit(Header(key, sender.relay_id, door.id, 1), ActionInvocation("x", ()))
    assert oracle.WorldCheck(world).valid_header(good, door.id)
    stranger = Transmit(Header(key, world.layer_of(1).mint_relay_id(), door.id, 1), ActionInvocation("x", ()))
    assert not oracle.WorldCheck(world).valid_header(stranger, door.id)

    # unconfirmed clause: announcing relay's sink must match the sender
    layer0 = world.layer_of(0)
    s = layer0.new_relay()
    world.ctx(0).send(sender, "meet", (s,))
    entry = next(iter(layer0.relays[s.relay_id].in_set))
    incoming = Transmit(
        Header(entry.key, world.layer_of(1).mint_relay_id(), s.relay_id, 1),
        ActionInvocation("x", ()),
    )
    assert oracle.WorldCheck(world).valid_header(incoming, s.relay_id)


def test_oracle_rejects_the_triangle_impostor_when_the_layer_accepts_any_sender(monkeypatch):
    # The mutant of the layer's header check that drops its sender test:
    # any listed key is admitted, whoever sent it.
    def any_sender(layer, relay, header):
        if relay.id != header.out_id:
            return None
        return next(
            (e for e in relay.in_set if e.key == header.key and (e.confirmed or e.via in layer.relays)), None
        )

    monkeypatch.setattr(RelayLayer, "admitting_entry", any_sender)
    world = fig_triangle()
    q = world.find_relay(world.processes[0].store["out"].relay_id)
    sink = world.find_relay(q.out_id)
    (w_key,) = [e.key for e in sink.in_set if e.from_rid == 2]
    q.out_keys = {w_key}  # u's relay holds only the key confirmed from w
    impostor = Transmit(Header(w_key, q.id, sink.id, q.level), ActionInvocation("x", ()))
    check = oracle.WorldCheck(world)
    assert world.layer_of(1).admitting_entry(sink, impostor.header) is not None
    assert not check.valid_header(impostor, sink.id)
    assert "P11d" in check.relay_violations(q.id)


def test_parameter_valid_when_minted_and_across_forwarding():
    world = new_world(13, 3)
    mid = connect_door(world, 1, 2)
    far = connect(world, 0, mid.relay_id)
    layer0 = world.layer_of(0)
    s = layer0.new_relay()
    world.ctx(0).send(far, "meet", (s,))
    chk = oracle.WorldCheck(world)
    assert chk.params, "expected an in-flight parameter"
    carrier, message, param = chk.params[0]
    assert _param_violations(world, carrier, param) == []
    # one delivery hop: the message moves into the middle relay's buffer
    world.layers[Rid(1)].handle_transmit(message)
    world.layer_of(0).relays[far.relay_id].buf.clear()
    chk2 = oracle.WorldCheck(world)
    stored = [(c, p) for c, m, p in chk2.params if p.key == param.key]
    assert stored and stored[0][0] == mid.relay_id
    assert _param_violations(world, mid.relay_id, param) == []


def test_parameter_with_existing_out_key_violates_c7():
    world = new_world(14, 2)
    via = connect_door(world, 0, 1)
    layer = world.layer_of(0)
    s = layer.new_relay()
    world.ctx(0).send(via, "meet", (s,))
    chk = oracle.WorldCheck(world)
    carrier, message, param = chk.params[0]
    ghost = layer.new_relay()
    layer.relays[ghost.relay_id].out_id = via.relay_id
    layer.relays[ghost.relay_id].out_keys = {param.key}
    layer.relays[ghost.relay_id].level = 2
    assert "C7" in _param_violations(world, carrier, param)


def test_legal_worlds_and_counterexample():
    world = new_world(15, 3)
    connect_door(world, 0, 1)
    connect_door(world, 1, 2)
    assert oracle.is_legal(world)
    layer = world.layer_of(0)
    bad = layer.new_relay()
    layer.relays[bad.relay_id].out_id = world.layer_of(1).mint_relay_id()
    layer.relays[bad.relay_id].level = 1
    assert not oracle.is_legal(world)


def test_alive_relays_feeding_a_dead_next_hop_make_the_world_illegal():
    # Each feeding relay is locally clean: the dead sink still holds the
    # confirmed entries that anchor it.  Only the dead next hop decides.
    world = fig_triangle()
    sink = world.processes[1].store["door"].relay_id
    world.layer_of(1).relays[sink].alive = False
    assert not oracle.is_legal(world)
    check = oracle.WorldCheck(world)
    for pid in (0, 2):
        assert check.relay_violations(world.processes[pid].store["out"].relay_id) == ["P11b"]


def test_parameter_violation_alone_makes_the_world_illegal():
    world, via, carrier, param = _sent_parameter(33)
    assert oracle.is_legal(world)
    stray = Transmit(Header(param.key, via.id, via.out_id, via.level), ActionInvocation("x", ()))
    world.env_source.emit_control(world.layer_of(1), Rid(0), stray)
    check = oracle.WorldCheck(world)
    assert all(check.relay_violations(relay_id) == [] for relay_id in check.relays)
    assert _param_violations(world, carrier, param) == ["C8"]
    assert not oracle.is_legal(world)


@pytest.mark.parametrize("seed", range(4))
def test_parameter_draining_out_of_a_dead_carrier_is_legal(seed):
    g = rules.ProcessMultigraph.of(range(2), [(0, 1)])
    world = rules.build_simple_realization(seed, g)
    assert world.run_until(lambda w: w.is_settled(), 8000).reached
    (_, ref), = world.processes[0].store["edges"]
    s = world.layer_of(0).new_relay()
    assert rules.relay_reversal(world, 0, ref, s)
    check = oracle.WorldCheck(world)
    (carrier, _, param), = check.params
    assert check.is_legal()
    assert carrier == ref.relay_id and not check.relay_valid(carrier)
    assert param.id == s.relay_id and check.relay_valid(param.id)


def test_legal_world_valid_graph_cycle_free():
    world = fig_triangle()
    assert oracle.is_legal(world)
    assert oracle.WorldCheck(world).valid_graph_cycle_free()


def _cycle_verdicts(world, cycle):
    """`valid_graph_cycle_free` with every relay reported valid, then with
    all but the cycle's second relay reported valid.

    A real check reports the relays of these cycles invalid, so validity is
    stubbed to reach the detector.
    """
    check = oracle.WorldCheck(world)
    check.relay_valid = lambda relay_id: True
    all_valid = check.valid_graph_cycle_free()
    check.relay_valid = lambda relay_id: relay_id != cycle[1].id
    return all_valid, check.valid_graph_cycle_free()


def test_cycle_detector_finds_the_two_relay_cycle_of_a_corrupted_world():
    world = adversarial_init(3, 4, 12, 0)
    relays = {r.id: r for layer in world.layers.values() for r in layer.relays.values()}
    cycle = [r for r in relays.values() if r.out_id in relays and relays[r.out_id].out_id == r.id]
    assert [r.id.rid for r in cycle] == [0, 1] and all(r.alive for r in cycle)
    assert oracle.WorldCheck(world).valid_graph_cycle_free()
    assert _cycle_verdicts(world, cycle) == (False, True)


def test_cycle_detector_finds_a_three_relay_cycle_across_three_layers():
    world = new_world(0, 3)
    cycle = [world.layers[pid].add_relay(level=1, sink_rid=pid) for pid in range(3)]
    for relay, nxt in zip(cycle, cycle[1:] + cycle[:1]):
        relay.out_id = nxt.id
    assert _cycle_verdicts(world, cycle) == (False, True)


@pytest.mark.parametrize(
    "succ, cycle_at", [([0], (0, 0)), ([1, 2, 3, 2], (2, 3))], ids=["self_loop", "chain_into_two_cycle"]
)
def test_cycle_detector_finds_a_cycle_of_built_relays(succ, cycle_at):
    """Relay i of process i feeds relay succ[i]; the relays at `cycle_at`
    close the only cycle."""
    world = new_world(0, len(succ))
    relays = [world.layers[pid].add_relay(level=1, sink_rid=pid) for pid in range(len(succ))]
    for relay, nxt in zip(relays, succ):
        relay.out_id = relays[nxt].id
    assert _cycle_verdicts(world, [relays[i] for i in cycle_at]) == (False, True)


def test_cycle_detector_walks_a_long_legal_chain():
    # 1,500 relays, each feeding the previous one from the other process:
    # deeper than the interpreter's recursion limit.
    world = new_world(0, 2)
    relay_id = give_door(world, 0).relay_id
    for i in range(1, 1500):
        relay_id = connect(world, i % 2, relay_id).relay_id
    check = oracle.WorldCheck(world)
    assert len(check.relays) == 1500 and check.is_legal()
    assert check.valid_graph_cycle_free()


def test_delivery_ledger_reports_a_valid_send_received_at_another_process():
    world = fig_triangle()
    tracker = DeliveryTracker(world)
    # u's relay feeds v's door; w's relay, once keyless, is invalid.
    u, w = world.ctx(0), world.ctx(2)
    valid = tracker.on_send(u, world.processes[0].store["out"])
    world.find_relay(world.processes[2].store["out"].relay_id).out_keys.clear()
    invalid = tracker.on_send(w, world.processes[2].store["out"])
    assert tracker.sent == {valid: (1, True), invalid: (1, False)}
    for marker in (valid, invalid, (9, 9)):
        tracker.on_receive(w, marker)
    assert tracker.misdelivered() == [(valid, 2, 1)]


def test_valid_subgraph_is_subset_of_graph():
    world = adversarial_init(16, 4, 12, 10, "mixed")
    full = oracle.extract_relay_graph(world)
    check = oracle.WorldCheck(world)
    valid = {r.id for r in check.relays.values() if r.alive and check.relay_valid(r.id)}
    assert valid
    for rid in valid:
        # The valid relays' ownership, sink-delivery and next-hop arcs.
        node, owner = (RELAY, rid), (PROCESS, rid.rid)
        assert node in full.vertices and (owner, node) in full.explicit_edges
        out_id = check.relays[rid].out_id
        if out_id is None:
            assert (node, owner) in full.explicit_edges
        elif out_id in valid:
            assert (node, (RELAY, out_id)) in full.explicit_edges


def test_levels_strictly_decrease_in_valid_graph():
    world = new_world(17, 3)
    mid = connect_door(world, 1, 2)
    connect(world, 0, mid.relay_id)
    chk = oracle.WorldCheck(world)
    for relay in chk.relays.values():
        if relay.out_id and chk.relay_valid(relay.id) and chk.relay_valid(relay.out_id):
            assert relay.level == chk.relays[relay.out_id].level + 1


def test_triangle_is_one_component():
    world = fig_triangle()
    comps = oracle.process_components(world)
    assert comps == [[0, 1, 2]]


def test_isolated_processes_are_singletons():
    world = new_world(18, 2)
    give_door(world, 0)
    give_door(world, 1)
    comps = oracle.process_components(world)
    assert comps == [[0], [1]]


def _components_from_every_vertex(graph):
    """Weakly connected components of an extracted `RelayGraph`, found by a
    depth-first walk over its edges taken both ways, started from every
    vertex in sorted order, relays included.  Each component becomes the
    sorted pids of its process vertices; a component without one is
    dropped.  Returns the components in walk order and how many it
    dropped."""
    adj = {v: [] for v in graph.vertices}
    for a, b in graph.edges:
        if a in adj and b in adj:
            adj[a].append(b)
            adj[b].append(a)
    seen, components, dropped = set(), [], 0
    for v in sorted(graph.vertices):
        if v in seen:
            continue
        stack, members = [v], []
        seen.add(v)
        while stack:
            node = stack.pop()
            members.append(node)
            for nb in adj[node]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        pids = sorted(n[1] for n in members if n[0] == PROCESS)
        if pids:
            components.append(pids)
        else:
            dropped += 1
    return components, dropped


def test_components_walked_from_processes_match_walks_from_every_vertex():
    islands = 0
    for seed in range(40):
        world = adversarial_init(seed, 3 + seed % 4, 12, 10, "mixed")
        # Stopped processes leave their relays behind as relay-only islands.
        for pid in range(seed % 3):
            world.processes[pid].stop()
        world.run(seed * 5)
        graph = oracle.extract_relay_graph(world)
        expected, dropped = _components_from_every_vertex(graph)
        assert oracle.process_components(world) == expected, seed
        islands += dropped
    assert islands > 0
    r = lambda pid, serial: (RELAY, RelayId(Rid(pid), serial))
    graph = oracle.RelayGraph(
        vertices={(PROCESS, 3), (PROCESS, 1), (PROCESS, 0), r(2, 1), r(2, 2), r(0, 1), r(3, 1)},
        explicit_edges={(r(2, 1), r(2, 2)), ((PROCESS, 3), r(0, 1)), (r(0, 1), (PROCESS, 0)),
                        (r(3, 1), (PROCESS, 2))},
    )
    assert _components_from_every_vertex(graph) == ([[0, 3], [1]], 2)


def _graph_components(world):
    return _components_from_every_vertex(oracle.extract_relay_graph(world))[0]


def _check_components(world, *_):
    assert oracle.process_components(world) == _graph_components(world), world.step_count


def test_relays_of_a_stopped_process_join_components_only_through_their_links():
    # Process 1 holds relays to the doors of 0 and 2, then stops.  Its relays
    # become vertices of their own, so 0 and 2 share a component exactly
    # while one relay's buffer carries a reference to the other.
    for send in (False, True):
        world = new_world(21, 3)
        to_0, to_2 = connect_door(world, 1, 0), connect_door(world, 1, 2)
        if send:
            world.ctx(1).send(to_0, "meet", (to_2,))
        world.ctx(1).stop()
        assert _graph_components(world) == ([[0, 2]] if send else [[0], [2]])
        for _ in range(60):
            _check_components(world)
            world.step()


def test_process_components_match_the_graph_through_transform_plans():
    # Transform pairs of the benchmark's sizes (6-8 processes), checked
    # after every plan step.  Those steps end settled, so every 200th kernel
    # step is checked too: references are in flight there.
    for seed in range(10):
        n = 6 + seed % 3
        source, target = rules.random_multigraph(2 * seed + 1, n), rules.random_multigraph(2 * seed + 2, n)
        world = rules.build_simple_realization(seed, source)
        assert world.run_until(lambda w: w.is_settled(), 20_000).reached
        plan = rules.plan_transform(world, target)
        step = world.step

        def checked_step(world=world, step=step):
            step()
            if world.step_count % 200 == 0:
                _check_components(world)

        world.step = checked_step
        rules.execute_plan(world, plan, on_step=_check_components)


def test_process_components_match_the_graph_while_leavers_stop():
    stops = 0
    for seed in range(6):
        rng = random.Random(seed)
        n = 4 + seed % 3
        edges = [(i, rng.randrange(i)) for i in range(1, n)] + [(0, n - 1)]
        world = build_departure_world(seed, n, edges, rng.sample(range(n), 2))
        for _ in range(240):
            world.run(10)
            _check_components(world)
        stops += sum(not p.active for p in world.processes.values())
    assert stops > 0


def test_world_check_evaluates_each_relay_once(monkeypatch):
    checked = Counter()
    walk = oracle.WorldCheck._walk

    def counted(self, *outputs):
        checked.update(list(self.relays))  # one visit per relay and walk
        return walk(self, *outputs)

    monkeypatch.setattr(oracle.WorldCheck, "_walk", counted)
    check = oracle.WorldCheck(adversarial_init(23, 4, 12, 12, "mixed"))
    answers = {relay_id: (check.relay_violations(relay_id), check.relay_valid(relay_id))
               for relay_id in check.relays}
    assert all(valid == (violations == []) for violations, valid in answers.values())
    assert any(violations for violations, _ in answers.values())
    assert checked == dict.fromkeys(check.relays, 1)


def test_oracle_calls_do_not_mutate_state():
    world = adversarial_init(19, 4, 12, 12, "mixed")
    before = world.state_hash()
    oracle.is_legal(world)
    oracle.extract_relay_graph(world)
    oracle.process_components(world)
    oracle.to_dot(world)
    check = oracle.WorldCheck(world)
    check.valid_graph_cycle_free()
    for relay_id in check.relays:
        check.relay_violations(relay_id)
    for carrier, message, param in check.params:
        check.param_violations(carrier, message, param)
    assert world.state_hash() == before


def test_fdp_legitimate_clauses():
    world = new_world(20, 3)
    connect_door(world, 0, 1)
    connect_door(world, 1, 2)
    initial = oracle.process_components(world)
    assert oracle.fdp_legitimate(world, initial)  # nobody leaving
    world.processes[2].leaving = True
    assert not oracle.fdp_legitimate(world, initial)  # leaver still active
    world.ctx(2).stop()
    res = world.run_until(lambda w: oracle.fdp_legitimate(w, initial), 8000)
    assert res.reached


def test_fdp_legitimate_needs_every_stayer_active():
    # Stayer 0 is the only stayer of its component, so the stayers are
    # connected; only its being stopped makes the state illegitimate.
    world = build_departure_world(8, 2, [(0, 1)], [1])
    initial = oracle.process_components(world)
    world.ctx(0).stop()
    world.ctx(1).stop()
    assert oracle.stayers_connected(world, initial)
    assert not oracle.fdp_legitimate(world, initial)


def test_stayers_connected_fails_when_an_initial_component_splits():
    world = new_world(21, 3)
    connect_door(world, 0, 1)
    initial = [[0, 1, 2]]  # now 0 and 1 are joined and 2 is apart
    assert not oracle.stayers_connected(world, initial)
    world.processes[2].leaving = True
    assert oracle.stayers_connected(world, initial)


def test_dot_export_shape():
    world = fig_triangle()
    dot = oracle.to_dot(world)
    assert dot.startswith("digraph")
    assert dot.count("shape=box") == 3
    assert dot.count("shape=ellipse") == 3
    assert dot.count("->") == 6
    assert dot.rstrip().endswith("}")


def test_dot_export_dashes_a_reference_in_transit():
    world, via, carrier, param = _sent_parameter(38)
    dashed = [line for line in oracle.to_dot(world).splitlines() if line.endswith("[style=dashed];")]
    edge = f"r{carrier.rid}_{carrier.serial} -> r{param.id.rid}_{param.id.serial}"
    assert dashed == [f"  {edge} [style=dashed];"]


def test_dot_export_empty_world():
    world = new_world(21, 0)
    dot = oracle.to_dot(world)
    assert dot.splitlines()[0] == "digraph relays {"
