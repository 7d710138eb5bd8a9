"""Differential test of `WorldCheck.is_legal` against its full definition.

`WorldCheck._walk` states each local relay rule once, as one line of
evidence, and runs in two modes.  `is_legal` runs it in decide mode, which
visits the alive relays and stops after the first one that fails locally,
or at one that points at a relay that is not alive; a legal relay pays the
same in both modes.  The definition it stands for reads every relay's
explanation: the walk in explain mode plus the propagation of invalidity
along next hops and announcements.  The world is legal when
`relay_violations` is empty for every alive relay and every parameter
carried by a relay passes `param_violations`, with C1 excused for a dead
carrier.  Both are asked of fresh checks on every state `test_verdicts`
samples, on every step of 40 runs shaped like the benchmark's
closure_check unit (a fresh 3-process legal world, 250 steps; 28% of those
states hold an unconfirmed entry and 18% a parameter in flight), and every
50 steps of 12 more `mixed` 4x96 starts: 18,160 states, 17,406 of them
legal.  This comparison guards what
the two modes do differently: decide mode's exit at a next hop that is
not alive, and the propagation that explain mode leaves to
`_evaluate_all`.

A local rule dropped from the walk is dropped from both modes, so the two
still agree; what fails then is the `RULES` coverage assertion.  The tally
records which rule decides each illegal state alone: the one rule that
fails anywhere in it, read from explain mode's local codes of the alive
relays, so that the walk without that rule would call the state legal.
The walk's rules are its local codes, a next hop that is not alive, and
the parameter loop.  Of the 754 illegal sampled states only 85 are decided
by one rule alone (P9, P11b or P11c), so every 25 steps of the
closure_check runs each alive relay in turn gets each edit of `EDITS`, one
at a time: a single corruption of the kind `kernel._corrupt` makes, or one
stray message, compared and then undone.  Every rule in `RULES` decides
some of these 32,715 states alone (from 51 for the parameter loop to 6,075
for P6), and a dropped rule decides none, which fails the assertion.

The same pass compares the oracle's own header check with the one the
layer runs on every `Transmit`, `RelayLayer.admitting_entry`: every
in-flight `Transmit` header of a sampled state, and the header of every
`NotAuthorized` original, is judged against every relay of the header's
target layer: 2,220,921 header-relay pairs, 224,119 of them valid.
"""

from collections import Counter

import test_verdicts
from relaysim import oracle
from relaysim.apps import RandomDeliberateApp
from relaysim.core import (
    ActionInvocation,
    Envelope,
    Header,
    InRelayClosed,
    Key,
    NotAuthorized,
    OutRelayClosed,
    Ping,
    Probe,
    RelayId,
    Transmit,
    confirmed_entry,
    unconfirmed_entry,
)
from relaysim.kernel import adversarial_init, random_connected_world

RULES = ("P4", "P5", "P6", "P7", "P8", "P9", "P10", "P11b", "P11c", "P11d", "P11e", "P11f",
         "dead_next_hop", "parameter")
FRESH = 10**6  # a serial that no layer has minted


def _defined_legal(check) -> bool:
    if any(check.relay_violations(r.id) for r in check.relays.values() if r.alive):
        return False
    return _params_pass(check)


def _params_pass(check) -> bool:
    for carrier_id, message, param in check.params:
        carrier = check.relays.get(carrier_id) if carrier_id is not None else None
        if carrier is None:
            continue
        codes = check.param_violations(carrier_id, message, param)
        if not carrier.alive:
            codes = [c for c in codes if c != "C1"]
        if codes:
            return False
    return True


def _deciding_rule(world) -> str:
    """The rule that alone makes an illegal state illegal, or "several".

    A relay rule decides alone when no other fails on any alive relay and
    every parameter passes once each alive relay counts as valid, which is
    how the walk's parameter loop reads them."""
    check = oracle.WorldCheck(world)
    found = []
    check._walk(found, {})  # explain mode: each relay's local codes, before propagation
    failing = {code for relay_id, code in found if check.relays[relay_id].alive}
    for relay in check.relays.values():
        if relay.alive:
            if relay.out_id in check.relays and not check.relays[relay.out_id].alive:
                failing.add("dead_next_hop")
    if not failing:
        return "parameter"
    check._alive_valid = True
    return failing.pop() if len(failing) == 1 and _params_pass(check) else "several"


def _in_flight(world):
    for layer in world.layers.values():
        for relay in layer.relays.values():
            yield from relay.buf
        yield from layer.layer_buf
    yield from world.orphan_out


def _compare_headers(world, check, tally) -> None:
    for env in _in_flight(world):
        message = env.message
        if type(message) is NotAuthorized:
            message = message.original
        if type(message) is not Transmit:
            continue
        target_layer = world.layers.get(message.header.out_id.rid)
        if target_layer is None:
            continue
        for relay in target_layer.relays.values():
            valid = check.valid_header(message, relay.id)
            admitted = target_layer.admitting_entry(relay, message.header) is not None
            assert valid == admitted, (world.step_count, message)
            tally["header_valid" if valid else "header_invalid"] += 1


def _compare_legality(world, tally, prefix="") -> None:
    legal = oracle.WorldCheck(world).is_legal()
    assert legal == _defined_legal(oracle.WorldCheck(world)), f"step {world.step_count}"
    tally[prefix + ("legal" if legal else "illegal")] += 1
    if not legal:
        tally[prefix + "alone:" + _deciding_rule(world)] += 1


def _compare(world, digest, tally) -> None:
    _compare_headers(world, oracle.WorldCheck(world), tally)
    _compare_legality(world, tally)


# -- one-edit corruptions ------------------------------------------------------
#
# Each edit changes the world at one alive relay and returns a function
# that undoes the change, or returns None where it does not apply.  Stray
# messages go straight into a buffer, bypassing the kernel's pending index,
# and leave again before the next step.


def _replace(obj, name, value):
    old = getattr(obj, name)
    setattr(obj, name, value)
    return lambda: setattr(obj, name, old)


def _add(items, item):
    if item in items:
        return None
    items.add(item)
    return lambda: items.discard(item)


def _stray(world, relay, message):
    buf = world.layers[relay.id.rid].layer_buf
    buf.append(Envelope(-1, message, relay.id.rid))
    return buf.pop


def _confirmed(relay) -> list:
    return sorted(e for e in relay.in_set if e.from_rid is not None)


def _pending(relay) -> list:
    return sorted(e for e in relay.in_set if e.via is not None)


def dead(world, relay):
    return _replace(relay, "alive", False)


def level_raised(world, relay):
    return _replace(relay, "level", relay.level + 1)


def sink_moved(world, relay):
    return _replace(relay, "sink_rid", relay.sink_rid + 1)


def foreign_in_key(world, relay):
    return _add(relay.in_set, confirmed_entry(Key(relay.id.rid + 1, FRESH), relay.id.rid))


def in_key_of_a_peer(world, relay):
    for other in world.layers[relay.id.rid].relays.values():
        if other is not relay and _confirmed(other):
            return _add(relay.in_set, _confirmed(other)[0])
    return None


def announced_via_a_peer(world, relay):
    """A fresh pending entry announced via a non-sink of the layer, as
    `_corrupt` makes them: nothing backs it, so only P9 fails."""
    for other in world.layers[relay.id.rid].relays.values():
        if other.alive and other.out_id is not None:
            return _add(relay.in_set, unconfirmed_entry(Key(relay.id.rid, FRESH), other.id))
    return None


def announced_via_another_layer(world, relay):
    """A fresh pending entry announced via a sink of the layer that feeds
    `relay`, backed by an activation probe riding under the feeder's
    confirmed key: only P4 fails."""
    for e in _confirmed(relay):
        layer = world.layers.get(e.from_rid)
        if e.from_rid == relay.id.rid or layer is None:
            continue
        feeder = next((r for r in layer.relays.values() if r.alive and r.out_id == relay.id
                       and e.key in r.out_keys), None)
        sink = next((r for r in layer.relays.values() if r.alive and r.out_id is None), None)
        if feeder is None or sink is None:
            continue
        key = Key(relay.id.rid, FRESH)
        undo_entry = _add(relay.in_set, unconfirmed_entry(key, sink.id))
        undo_key = _add(feeder.out_keys, key)
        feeder.buf.append(Envelope(-1, Transmit(Header(e.key, feeder.id, relay.id, feeder.level),
                                                 Probe(frozenset(), (key,)))))

        def undo():
            feeder.buf.pop()
            undo_key()
            undo_entry()

        return undo
    return None


def sink_out_key(world, relay):
    return _add(relay.out_keys, Key(relay.id.rid, FRESH)) if relay.out_id is None else None


def next_hop_missing(world, relay):
    if relay.out_id is None:
        return None
    return _replace(relay, "out_id", RelayId(relay.out_id.rid, FRESH))


def out_keys_cleared(world, relay):
    return _replace(relay, "out_keys", set()) if relay.out_id is not None else None


def out_key_of_a_peer(world, relay):
    if relay.out_id is None:
        return None
    for other in world.layers[relay.id.rid].relays.values():
        if other is not relay and other.alive and other.out_keys:
            return _add(relay.out_keys, min(other.out_keys))
    return None


def ping_at_another_level(world, relay):
    return _stray(world, relay, Ping(relay.id, relay.level + 1, relay.sink_rid, Key(relay.id.rid, FRESH)))


def ping_for_another_sink(world, relay):
    return _stray(world, relay, Ping(relay.id, relay.level, relay.sink_rid + 1, Key(relay.id.rid, FRESH)))


def ping_for_a_pending_key(world, relay):
    if not _pending(relay):
        return None
    return _stray(world, relay, Ping(relay.id, relay.level, relay.sink_rid, _pending(relay)[0].key))


def out_relay_closed(world, relay):
    return _stray(world, relay, OutRelayClosed(relay.id))


def not_authorized(world, relay):
    if not _confirmed(relay):
        return None
    key, sender, _ = _confirmed(relay)[0]
    original = Transmit(Header(key, RelayId(sender, FRESH), relay.id, 0), ActionInvocation("stray", ()))
    return _stray(world, relay, NotAuthorized(original))


def in_relay_closed(world, relay):
    if relay.out_id is None or not relay.out_keys:
        return None
    return _stray(world, relay, InRelayClosed(frozenset(relay.out_keys), relay.id.rid, relay.out_id))


EDITS = (dead, level_raised, sink_moved, foreign_in_key, in_key_of_a_peer, announced_via_a_peer,
         announced_via_another_layer, sink_out_key, next_hop_missing, out_keys_cleared,
         out_key_of_a_peer, ping_at_another_level, ping_for_another_sink, ping_for_a_pending_key,
         out_relay_closed, not_authorized, in_relay_closed)


def _edit_each(world, tally) -> None:
    for relay in [r for layer in world.layers.values() for r in layer.relays.values() if r.alive]:
        for edit in EDITS:
            undo = edit(world, relay)
            if undo is not None:
                _compare_legality(world, tally, "edited ")
                undo()


def _attached(world, max_relays):
    for proc in world.processes.values():
        proc.app = RandomDeliberateApp(max_relays=max_relays)
    return world


def _run(world, steps, every, tally, edit_every=0) -> None:
    for i in range(steps + 1):
        if i % every == 0:
            _compare(world, None, tally)
        if edit_every and i % edit_every == 0:
            _edit_each(world, tally)
        if i < steps:
            world.step()


def _closure_check_runs(tally) -> None:
    # The benchmark's closure_check unit: a fresh legal world, 250 steps,
    # checked after every step.
    for seed in range(310, 350):
        world = _attached(random_connected_world(seed, 3, extra_edges=1, chains=0), 3)
        _run(world, 250, 1, tally, edit_every=25)


def _more_mixed_4x96(tally) -> None:
    for seed in range(13, 25):
        _run(_attached(adversarial_init(seed, 4, 96, 48, "mixed"), 16), 1500, 50, tally)


def test_is_legal_matches_its_definition_on_every_sampled_state(monkeypatch):
    monkeypatch.setattr(test_verdicts, "_verdicts", _compare)
    tally = Counter()
    for name in sorted(test_verdicts.SCENARIOS):
        test_verdicts.SCENARIOS[name](None, tally)
    _closure_check_runs(tally)
    _more_mixed_4x96(tally)
    assert tally["legal"] and tally["illegal"], tally
    assert all(tally["edited alone:" + rule] for rule in RULES), tally
    assert tally["header_valid"] and tally["header_invalid"], tally
