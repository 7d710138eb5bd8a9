"""Differential test of `WorldCheck`'s indexes against a plain reference.

A verdict can agree while an index is wrong: a message the build missed may
be one that no check of that state needed.  So every index the build fills
is compared with the one `ReferenceIndex` builds, one message at a time,
over the same buffers in the same order: each layer's relay buffers, then
its layer buffer, and the orphan list last.
"""

import pytest

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
    ProbeFail,
    RelayId,
    RelayParameter,
    Transmit,
    relay_params,
)
from relaysim.kernel import adversarial_init, fig_triangle, random_connected_world
from relaysim.oracle import WorldCheck


class ReferenceIndex:
    """The indexes, filed one message at a time by one method call each."""

    def __init__(self, world):
        self.relays = {}
        self.in_key_count = {}
        self.out_key_holders = {}
        self.pings_by_id = {}
        self.orc_ids = set()
        self.notauth_by_out = {}
        self.probefail_starts = {}
        self.inrelays_by_target = {}
        self.probes_by_control = {}
        self.header_key_count = {}
        self.param_count = {}
        self.params = []
        for layer in world.layers.values():
            for relay in layer.relays.values():
                self.relays[relay.id] = relay
                for e in relay.in_set:
                    self.in_key_count[e.key] = self.in_key_count.get(e.key, 0) + 1
                for k in relay.out_keys:
                    self.out_key_holders.setdefault(k, []).append(relay.id)
                for env in relay.buf:
                    self.index_message(relay.id, env.message)
            for env in layer.layer_buf:
                self.index_message(None, env.message)
        for env in world.orphan_out:
            self.index_message(None, env.message)

    def index_message(self, carrier, msg):
        kind = type(msg)
        if kind is Transmit:
            self.header_key_count[msg.header.key] = self.header_key_count.get(msg.header.key, 0) + 1
            if type(msg.action) is Probe:
                probe = msg.action
                if probe.key_sequence:
                    for k in probe.control_keys:
                        self.probes_by_control.setdefault(k, []).append((carrier, probe))
            else:
                for p in relay_params(msg):
                    self.param_count[p.key] = self.param_count.get(p.key, 0) + 1
                    self.params.append((carrier, msg, p))
        elif kind is Ping:
            self.pings_by_id.setdefault(msg.id, []).append(msg)
        elif kind is OutRelayClosed:
            self.orc_ids.add(msg.id)
        elif kind is NotAuthorized:
            self.notauth_by_out.setdefault(msg.original.header.out_id, []).append(msg.original)
            self.header_key_count[msg.original.header.key] = (
                self.header_key_count.get(msg.original.header.key, 0) + 1
            )
            for p in relay_params(msg.original):
                self.param_count[p.key] = self.param_count.get(p.key, 0) + 1
        elif kind is ProbeFail:
            if msg.key_sequence:
                self.probefail_starts.setdefault(msg.key, set()).add(msg.key_sequence[0])
        elif kind is InRelayClosed:
            self.inrelays_by_target.setdefault(msg.target_id, []).append(msg)


def _by_identity(index):
    """A list-valued index with each entry replaced by its identity, so equal
    but distinct messages filed in the wrong place still differ."""
    return {k: [tuple(map(id, v)) if type(v) is tuple else id(v) for v in vs] for k, vs in index.items()}


def assert_same_indexes(world):
    check, ref = WorldCheck(world), ReferenceIndex(world)
    assert list(check.relays.items()) == list(ref.relays.items())
    assert check.in_key_count == ref.in_key_count
    assert check.out_key_holders == ref.out_key_holders
    assert check.shared_out_key == any(len(h) > 1 for h in ref.out_key_holders.values())
    assert _by_identity(check.pings_by_id) == _by_identity(ref.pings_by_id)
    assert check.orc_ids == ref.orc_ids
    assert _by_identity(check.notauth_by_out) == _by_identity(ref.notauth_by_out)
    assert check.probefail_starts == ref.probefail_starts
    assert _by_identity(check.inrelays_by_target) == _by_identity(ref.inrelays_by_target)
    assert check.probes_by_control == ref.probes_by_control
    assert _by_identity(check.probes_by_control) == _by_identity(ref.probes_by_control)
    assert [tuple(map(id, t)) for t in check.params] == [tuple(map(id, t)) for t in ref.params]
    assert check.header_keys == {k for k, n in ref.header_key_count.items() if n}
    assert check.param_count == ref.param_count
    return check


def _attach(world, max_relays):
    for proc in world.processes.values():
        proc.app = RandomDeliberateApp(max_relays=max_relays)


@pytest.mark.parametrize("seed", range(350, 358))
def test_indexes_match_on_every_closure_step(seed):
    world = random_connected_world(seed, 3, extra_edges=1, chains=0)
    _attach(world, max_relays=3)
    for _ in range(500):
        world.step()
        assert_same_indexes(world)


@pytest.mark.parametrize("seed", range(1, 7))
def test_indexes_match_along_mixed_4x96_trajectories(seed):
    world = adversarial_init(seed, 4, 96, 48, "mixed")
    _attach(world, max_relays=16)
    for i in range(1501):
        if i % 10 == 0:
            assert_same_indexes(world)
        world.step()


def test_indexes_match_with_every_message_kind_in_every_buffer_kind():
    world = fig_triangle(seed=0)
    relay = next(iter(world.layers[0].relays.values()))
    other = next(iter(world.layers[1].relays.values()))
    assert not assert_same_indexes(world).shared_out_key
    other.out_keys.add(next(iter(relay.out_keys)))  # a second holder, as P11e looks for
    k, k2, k3 = Key(0, 90), Key(1, 91), Key(2, 92)
    r1, r2 = RelayId(1, 90), RelayId(2, 91)
    param, wrapped_param = RelayParameter(Key(1, 93), r1, 2, 1), RelayParameter(Key(2, 94), r2, 1, 2)
    header = Header(k, relay.id, r1, 1)
    messages = [
        Transmit(header, Probe(frozenset({k2, k3}), (k,))),  # hunts k2 and k3
        Transmit(header, Probe(frozenset(), (k,))),  # activation probe: no control keys
        Transmit(header, Probe(frozenset({k2}), ())),  # no start: hunts nothing
        Transmit(Header(k2, relay.id, r2, 1), ActionInvocation("offer", (param, 7, param))),
        Transmit(header, ActionInvocation("empty", ())),
        ActionInvocation("delivered", (param,)),  # a bare invocation is indexed nowhere
        Ping(relay.id, 1, 0, k),
        Ping(r1, 0, 1, k2),
        OutRelayClosed(r2),
        NotAuthorized(Transmit(Header(k3, r1, relay.id, 2), ActionInvocation("refused", (wrapped_param,)))),
        ProbeFail(k, (k2, k3)),
        ProbeFail(k2, ()),  # no start: no first key to file
        InRelayClosed(frozenset({k, k2}), 1, r1),
    ]
    for i, msg in enumerate(messages):
        relay.buf.append(Envelope(1000 + i, msg))
        world.layers[1].layer_buf.append(Envelope(2000 + i, msg, 1))
        world.orphan_out.append(Envelope(3000 + i, msg, 2))

    check = assert_same_indexes(world)
    assert check.shared_out_key
    assert [c for c, _, p in check.params if p == param] == [relay.id, relay.id, None, None, None, None]
    assert check.param_count[param.key] == 6 and check.param_count[wrapped_param.key] == 3
    assert {k, k2, k3} <= check.header_keys
    assert len(check.pings_by_id[relay.id]) == 3 and check.orc_ids == {r2}
    assert len(check.notauth_by_out[relay.id]) == 3 and check.probefail_starts == {k: {k2}}
    assert len(check.inrelays_by_target[r1]) == 3
    assert [c for c, _ in check.probes_by_control[k2]] == [relay.id, None, None]
