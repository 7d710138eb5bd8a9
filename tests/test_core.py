import copy
import json
import pickle

from hypothesis import given, strategies as st

from relaysim.core import (
    ActionInvocation,
    Header,
    InEntry,
    InRelayClosed,
    InSet,
    Key,
    NotAuthorized,
    OutRelayClosed,
    Ping,
    Probe,
    ProbeFail,
    RelayId,
    RelayParameter,
    RelayRef,
    Rid,
    Transmit,
    belongs_to,
    confirmed_entry,
    message_json,
    relay_json,
    relay_params,
    unconfirmed_entry,
)
from relaysim.kernel import connect_door, new_world


def test_rid_of_fresh_relay_matches_creator():
    world = new_world(0, 2)
    ref = world.layer_of(1).new_relay()
    assert ref.relay_id.rid == Rid(1)


def test_belongs_to():
    key = Key(Rid(4), 11)
    assert belongs_to(key, Rid(4))
    assert not belongs_to(key, Rid(5))


def test_in_entry_forms_are_exclusive():
    confirmed = confirmed_entry(Key(Rid(0), 1), Rid(2))
    unconfirmed = unconfirmed_entry(Key(Rid(0), 2), RelayId(Rid(0), 1))
    assert confirmed.confirmed and not unconfirmed.confirmed
    try:
        InEntry(Key(Rid(0), 3))
    except ValueError:
        pass
    else:
        raise AssertionError("entry without origin accepted")


@given(st.integers(0, 50), st.integers(0, 50))
def test_minted_keys_and_ids_unique(n_keys, n_ids):
    world = new_world(1, 3)
    layer = world.layer_of(0)
    keys = [layer.mint_key() for _ in range(n_keys)]
    ids = [layer.mint_relay_id() for _ in range(n_ids)]
    assert len(set(keys)) == len(keys)
    assert len(set(ids)) == len(ids)


def test_layers_never_share_minted_tokens():
    world = new_world(2, 4)
    keys = [world.layer_of(p).mint_key() for p in range(4) for _ in range(10)]
    assert len(set(keys)) == len(keys)


@given(
    st.integers(0, 9),
    st.integers(1, 99),
    st.integers(0, 40),
    st.integers(0, 9),
)
def test_relay_parameter_roundtrip(creator, serial, level, sink):
    param = RelayParameter(Key(Rid(creator), serial), RelayId(Rid(sink), serial + 1), level, Rid(sink))
    (kc, ks), (ir, isr), lv, sk = param
    assert RelayParameter(Key(Rid(kc), ks), RelayId(Rid(ir), isr), lv, Rid(sk)) == param


def test_relay_json_is_stable_and_canonical():
    world = new_world(3, 2)
    layer = world.layer_of(0)
    ref = layer.new_relay()
    relay = layer.relays[ref.relay_id]
    relay.in_set.add(confirmed_entry(layer.mint_key(), Rid(1)))
    snap = relay_json(relay)
    assert set(snap) == {"id", "state", "out", "level", "sinkRID", "In", "Buf"}
    assert snap["state"] == "alive"
    assert snap["out"]["ID"] is None
    blob = json.dumps(snap, sort_keys=True)
    assert json.dumps(relay_json(relay), sort_keys=True) == blob

    # A relay holding a confirmed and an unconfirmed In entry, an out-key and
    # a buffered Transmit that carries a relay parameter (its own reference).
    world = new_world(3, 2)
    layer = world.layer_of(0)
    via = connect_door(world, 0, 1)
    world.ctx(0).send(via, "meet", (via,))
    relay = layer.relays[via.relay_id]
    relay.in_set.add(confirmed_entry(layer.mint_key(), Rid(1)))
    assert json.dumps(relay_json(relay), sort_keys=True) == (
        '{"Buf": [{"transmit": {"action": {"action": {"label": "meet", "params": '
        '[{"relayParameter": [[0, 1], [0, 1], 2, 1]}]}}, "header": [[1, 1], [0, 1], [1, 1], 1]}}], '
        '"In": [[[0, 1], null, [0, 1]], [[0, 2], 1, null]], "id": [0, 1], "level": 1, '
        '"out": {"ID": [1, 1], "Key": [[1, 1]]}, "sinkRID": 1, "state": "alive"}'
    )

    # Every other message type, by value.
    pinned = [
        (Probe(frozenset({Key(1, 2), Key(0, 5)}), (Key(0, 5), Key(1, 2))),
         '{"probe": {"controlKeys": [[0, 5], [1, 2]], "keySequence": [[0, 5], [1, 2]]}}'),
        (ProbeFail(Key(2, 3), (Key(2, 3), Key(1, 4))),
         '{"probefail": {"key": [2, 3], "keySequence": [[2, 3], [1, 4]]}}'),
        (NotAuthorized(Transmit(Header(Key(1, 1), RelayId(0, 1), RelayId(1, 1), 1), ActionInvocation(
            "meet", (RelayParameter(Key(0, 2), RelayId(0, 1), 2, 1),)))),
         '{"notauthorized": {"transmit": {"action": {"action": {"label": "meet", "params": '
         '[{"relayParameter": [[0, 2], [0, 1], 2, 1]}]}}, "header": [[1, 1], [0, 1], [1, 1], 1]}}}'),
        (InRelayClosed(frozenset({Key(1, 3), Key(1, 1)}), 0, RelayId(1, 1)),
         '{"inrelayclosed": {"id": [1, 1], "keys": [[1, 1], [1, 3]], "sender": 0}}'),
        (OutRelayClosed(RelayId(2, 4)), '{"outrelayclosed": [2, 4]}'),
        (Ping(RelayId(1, 1), 2, 1, Key(0, 3)), '{"ping": [[1, 1], 2, 1, [0, 3]]}'),
        (ActionInvocation("hello", (RelayRef(RelayId(0, 1)), ("marker", 3), None)),
         '{"action": {"label": "hello", "params": [{"relayRef": [0, 1]}, "(\'marker\', 3)", null]}}'),
    ]
    for message, expected in pinned:
        assert json.dumps(message_json(message), sort_keys=True) == expected


def test_relay_params_reads_only_a_transmitted_action():
    header = Header(Key(1, 1), RelayId(0, 1), RelayId(1, 1), 1)
    param = RelayParameter(Key(0, 2), RelayId(0, 1), 2, 1)
    param2 = RelayParameter(Key(0, 3), RelayId(2, 1), 2, 2)
    action = ActionInvocation("a", (param, None, param2))
    assert relay_params(Transmit(header, action)) == [param, param2]
    assert relay_params(Transmit(header, Probe(frozenset({Key(0, 2)}), (Key(0, 2),)))) == []
    assert relay_params(action) == []  # as a sink's buffer holds it
    assert relay_params(NotAuthorized(Transmit(header, action))) == []


def test_key_ordering_is_total():
    keys = [Key(Rid(1), 5), Key(Rid(0), 9), Key(Rid(1), 2)]
    assert sorted(keys) == [Key(Rid(0), 9), Key(Rid(1), 2), Key(Rid(1), 5)]


# Few distinct values, so entries often share keys, creators and serials.
small = st.integers(0, 3)
rids = st.builds(Rid, small)
relay_ids = st.builds(RelayId, rids, small)
in_entries = st.one_of(
    st.builds(confirmed_entry, st.builds(Key, rids, small), rids),
    st.builds(unconfirmed_entry, st.builds(Key, rids, small), relay_ids),
)


def _dataclass_sort_key(e: InEntry) -> tuple:
    # Reference order: key, confirmed first, then sender or announcing
    # relay, compared through the identity types' dataclass ordering.
    return (e.key, e.via is not None, e.from_rid if e.via is None else e.via)


@given(st.lists(in_entries, max_size=16))
def test_in_entry_sort_key_orders_like_dataclass_tuple(entries):
    assert sorted(entries, key=InEntry.sort_key) == sorted(entries, key=_dataclass_sort_key)
    for a in entries:
        for b in entries:
            assert (a.sort_key() < b.sort_key()) == (_dataclass_sort_key(a) < _dataclass_sort_key(b))
            assert (a.sort_key() == b.sort_key()) == (a == b)
    # Entries of one kind also sort natively in `sort_key` order, which the
    # repair loop relies on.  (A mixed list cannot: None and an int do not
    # compare.)
    for kind in ([e for e in entries if e.confirmed], [e for e in entries if not e.confirmed]):
        assert sorted(kind) == sorted(kind, key=InEntry.sort_key)


# Edits of an In set, each with its argument: an entry, a list of entries
# (which may repeat one) or nothing.
entry_lists = st.lists(in_entries, max_size=6)
in_set_edits = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["add", "discard", "remove"]), in_entries),
        st.tuples(st.sampled_from(["-=", "|=", "&=", "^=", "difference_update", "update"]), entry_lists),
        st.tuples(st.sampled_from(["clear", "pop", "-= itself"]), st.none()),
    ),
    max_size=40,
)


def _edit(s: set, op: str, arg) -> set:
    """`s` after the edit, which must leave it the same object."""
    before = s
    if op == "-=":
        s -= set(arg)
    elif op == "|=":
        s |= set(arg)
    elif op == "&=":
        s &= set(arg)
    elif op == "^=":
        s ^= set(arg)
    elif op == "-= itself":
        s -= s
    elif op in ("clear", "pop"):
        if s:
            getattr(s, op)()
    elif op == "remove":
        if arg in s:
            s.remove(arg)
    else:
        getattr(s, op)(arg)  # add and discard take an entry, the others a list
    assert s is before
    return s


@given(in_set_edits)
def test_in_set_index_groups_its_entries_through_every_edit(edits):
    indexed, plain = InSet(), set()
    for op, arg in edits:
        indexed, plain = _edit(indexed, op, arg), _edit(plain, op, arg)
        # The same entries in the same iteration order as a plain set: the
        # index changes nothing about the set itself.
        assert indexed == plain and list(indexed) == list(plain)
        grouped = {}
        for e in plain:
            grouped.setdefault(e.key, []).append(e)
        assert {k: sorted(v, key=InEntry.sort_key) for k, v in indexed.by_key.items()} == {
            k: sorted(v, key=InEntry.sort_key) for k, v in grouped.items()
        }


def test_in_set_copies_keep_the_index_and_expressions_are_plain_sets():
    key = Key(Rid(0), 1)
    a, b = confirmed_entry(key, Rid(1)), unconfirmed_entry(key, RelayId(Rid(0), 2))
    s = InSet([a, b, confirmed_entry(Key(Rid(0), 2), Rid(1))])
    for twin in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s)):
        assert type(twin) is InSet and twin == s
        assert sorted(twin.by_key[key], key=InEntry.sort_key) == [a, b] and len(twin.by_key) == 2
    for derived in (s - {a}, s | {a}, s & {a}, s.copy()):
        assert type(derived) is set
