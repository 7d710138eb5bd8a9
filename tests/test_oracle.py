"""Graph extraction, validity properties, legality, components, export."""

import pytest

from relaysim import oracle, rules
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
    world.ctx(0).send(via, "meet", (s,), relay_positions=(0,))
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
    layer._emit_control(Rid(1), Ping(door.relay_id, 3, Rid(0), layer.mint_key()))
    assert "P6" in oracle.WorldCheck(world).relay_violations(door.relay_id)


def test_out_relay_closed_in_flight_violates_p7():
    world = new_world(8, 2)
    door = give_door(world, 0)
    world.layer_of(1)._emit_control(Rid(0), OutRelayClosed(door.relay_id))
    assert "P7" in oracle.WorldCheck(world).relay_violations(door.relay_id)


def test_unbacked_pending_entry_violates_p9():
    world = new_world(9, 2)
    layer = world.layer_of(0)
    via = connect_door(world, 0, 1)
    s = layer.new_relay()
    layer.relays[s.relay_id].in_set.add(unconfirmed_entry(layer.mint_key(), via.relay_id))
    assert "P9" in oracle.WorldCheck(world).relay_violations(s.relay_id)


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
    layer._emit_control(Rid(1), InRelayClosed(frozenset(relay.out_keys), Rid(0), relay.out_id))
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
    layer1._emit_control(Rid(0), NotAuthorized(rejected))
    assert oracle.WorldCheck(world).relay_violations(door.id) == ["P8"]


def _param_violations(world, carrier, param):
    """Violation codes of the one in-flight copy of `param` on `carrier`."""
    check = oracle.WorldCheck(world)
    (message,) = [m for c, m, p in check.params if c == carrier and p == param]
    return check.param_violations(carrier, message, param)


def _sent_parameter(seed):
    """A two-process world with one freshly sent parameter: (world, the
    announcing relay, the parameter's carrier id, the parameter)."""
    world = new_world(seed, 2)
    via = connect_door(world, 0, 1)
    layer = world.layer_of(0)
    world.ctx(0).send(via, "meet", (layer.new_relay(),), relay_positions=(0,))
    carrier, _, param = oracle.WorldCheck(world).params[0]
    assert _param_violations(world, carrier, param) == []
    return world, layer.relays[via.relay_id], carrier, param


def _resend(world, carrier, params):
    """Replace the one Transmit in `carrier`'s buffer by a copy carrying
    `params`; returns the copy."""
    relay = world.layer_of(carrier.rid).relays[carrier]
    (env,) = relay.buf
    m = env.message
    env.message = Transmit(m.header, ActionInvocation(m.action.label, params, tuple(range(len(params)))))
    return env.message


def test_second_copy_of_parameter_violates_c2():
    world, via, carrier, param = _sent_parameter(28)
    (env,) = world.layer_of(0).relays[carrier].buf
    world.layer_of(1)._emit_control(Rid(0), env.message)
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


def test_parameter_key_heading_a_transmit_violates_c8():
    world, via, carrier, param = _sent_parameter(31)
    stray = Transmit(Header(param.key, via.id, via.out_id, via.level), ActionInvocation("x", ()))
    world.layer_of(1)._emit_control(Rid(0), stray)
    assert _param_violations(world, carrier, param) == ["C8"]


def test_ping_naming_an_unconfirmed_key_violates_p6():
    world, via, carrier, param = _sent_parameter(32)
    target = world.layer_of(0).relays[param.id]
    world.layer_of(1)._emit_control(Rid(0), Ping(target.id, target.level, target.sink_rid, param.key))
    assert oracle.WorldCheck(world).relay_violations(param.id) == ["P6"]


def test_probefail_for_announced_key_rejects_parameter():
    world, via, carrier, param = _sent_parameter(24)
    world.layer_of(1)._emit_control(Rid(0), ProbeFail(param.key, (min(via.out_keys),)))
    # The same ProbeFail leaves the target's pending entry unbacked (P9), so
    # the parameter fails on its target (C3); this is why the oracle has no
    # separate C9 check.
    assert oracle.WorldCheck(world).relay_violations(param.id) == ["P9"]
    assert _param_violations(world, carrier, param) == ["C3"]


def test_probe_hunting_pending_key_off_its_chain_violates_p9():
    world, via, carrier, param = _sent_parameter(26)
    key = min(via.out_keys)
    # The hunted key is not the probe's first control key, and the probe
    # sits in a layer buffer, off the announcing relay's chain.
    hunter = Probe(frozenset({Key(Rid(0), 0), param.key}), (key,))
    world.layer_of(0)._emit_control(Rid(1), Transmit(Header(key, via.id, via.out_id, via.level), hunter))
    assert oracle.WorldCheck(world).relay_violations(param.id) == ["P9"]
    assert _param_violations(world, carrier, param) == ["C3"]


def test_probe_ahead_of_its_announcement_violates_c10():
    world, via, carrier, param = _sent_parameter(25)
    key = min(via.out_keys)
    hunter = Probe(frozenset({param.key}), (key,))
    world.layer_of(0)._emit_buf(via, Transmit(Header(key, via.id, via.out_id, via.level), hunter))
    assert oracle.WorldCheck(world).relay_violations(param.id) == []
    assert _param_violations(world, carrier, param) == ["C10"]


def test_in_relay_closed_for_parameter_key_violates_c11():
    world, via, carrier, param = _sent_parameter(27)
    world.layer_of(1)._emit_control(Rid(0), InRelayClosed(frozenset({param.key}), Rid(1), param.id))
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
    world.ctx(0).send(sender, "meet", (s,), relay_positions=(0,))
    entry = next(iter(layer0.relays[s.relay_id].in_set))
    incoming = Transmit(
        Header(entry.key, world.layer_of(1).mint_relay_id(), s.relay_id, 1),
        ActionInvocation("x", ()),
    )
    assert oracle.WorldCheck(world).valid_header(incoming, s.relay_id)


def test_parameter_valid_when_minted_and_across_forwarding():
    world = new_world(13, 3)
    mid = connect_door(world, 1, 2)
    far = connect(world, 0, mid.relay_id)
    layer0 = world.layer_of(0)
    s = layer0.new_relay()
    world.ctx(0).send(far, "meet", (s,), relay_positions=(0,))
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
    world.ctx(0).send(via, "meet", (s,), relay_positions=(0,))
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
    world.layer_of(1)._emit_control(Rid(0), stray)
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
    comps = oracle.weakly_connected_components(oracle.extract_relay_graph(world))
    assert comps == [[0, 1, 2]]


def test_isolated_processes_are_singletons():
    world = new_world(18, 2)
    give_door(world, 0)
    give_door(world, 1)
    comps = oracle.weakly_connected_components(oracle.extract_relay_graph(world))
    assert comps == [[0], [1]]


def _components_from_every_vertex(graph):
    """`weakly_connected_components` as it was: a walk from every vertex in
    sorted order, relays included, dropping relay-only components.  Also
    returns how many it dropped."""
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
            world.processes[pid].active = False
        world.run(seed * 5)
        graph = oracle.extract_relay_graph(world)
        expected, dropped = _components_from_every_vertex(graph)
        assert oracle.weakly_connected_components(graph) == expected, seed
        islands += dropped
    assert islands > 0
    r = lambda pid, serial: (RELAY, RelayId(Rid(pid), serial))
    graph = oracle.RelayGraph(
        vertices={(PROCESS, 3), (PROCESS, 1), (PROCESS, 0), r(2, 1), r(2, 2), r(0, 1), r(3, 1)},
        explicit_edges={(r(2, 1), r(2, 2)), ((PROCESS, 3), r(0, 1)), (r(0, 1), (PROCESS, 0)),
                        (r(3, 1), (PROCESS, 2))},
    )
    assert oracle.weakly_connected_components(graph) == [[0, 3], [1]]
    assert _components_from_every_vertex(graph) == ([[0, 3], [1]], 2)


def test_oracle_calls_do_not_mutate_state():
    world = adversarial_init(19, 4, 12, 12, "mixed")
    before = world.state_hash()
    oracle.is_legal(world)
    oracle.extract_relay_graph(world)
    oracle.weakly_connected_components(oracle.extract_relay_graph(world))
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
    initial = oracle.weakly_connected_components(oracle.extract_relay_graph(world))
    assert oracle.fdp_legitimate(world, initial)  # nobody leaving
    world.processes[2].leaving = True
    assert not oracle.fdp_legitimate(world, initial)  # leaver still active
    world.ctx(2).stop()
    res = world.run_until(lambda w: oracle.fdp_legitimate(w, initial), 8000)
    assert res.reached


def test_dot_export_shape():
    world = fig_triangle()
    dot = oracle.to_dot(world)
    assert dot.startswith("digraph")
    assert dot.count("shape=box") == 3
    assert dot.count("shape=ellipse") == 3
    assert dot.count("->") == 6
    assert dot.rstrip().endswith("}")


def test_dot_export_empty_world():
    world = new_world(21, 0)
    dot = oracle.to_dot(world)
    assert dot.splitlines()[0] == "digraph relays {"
