"""Value types shared by the relay layer, the simulator and the oracles.

Everything here is plain data: identifiers, the per-socket relay record,
and the message vocabulary that travels between relay layers.  No behavior
beyond constructors, projections and canonical serialization.

Relay ids, keys, In entries and the wire messages are named tuples: they
hash, compare and serialize as the plain tuples of their fields, so `json`
writes them as arrays.  Two values of different types with equal fields
are therefore equal and hash alike (a key and a relay id, say): never mix
such types in one container.  `RelayRef` stays a class of its own, so an
application's handle never equals a message.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from typing import Any, NamedTuple, Optional, Union


# A layer's address is the pid of the process that owns it: one layer per
# process.
Rid = int


class RelayId(NamedTuple):
    """Globally unique relay identifier embedding its owning layer's address."""

    rid: Rid
    serial: int

    def __repr__(self) -> str:
        return f"R{self.rid}.{self.serial}"


class Key(NamedTuple):
    """Unforgeable token gating one incoming connection.

    The creator field makes ownership decidable without cryptography: a key
    "belongs to" the layer that minted it.
    """

    creator: Rid
    serial: int

    def __repr__(self) -> str:
        return f"k(R{self.creator},{self.serial})"


def belongs_to(key: Key, rid: Rid) -> bool:
    """True iff `key` was minted by the layer with address `rid`."""
    return key.creator == rid


class InEntry(namedtuple("InEntry", "key from_rid via")):
    """One incoming-permission triple of a relay.

    Exactly one of `from_rid` (confirmed: the sender's layer address) and
    `via` (unconfirmed: the local relay through which the key was announced)
    is set.
    """

    __slots__ = ()

    def __new__(cls, key: Key, from_rid: Optional[Rid] = None, via: Optional[RelayId] = None) -> InEntry:
        if (from_rid is None) == (via is None):
            raise ValueError("entry must be either confirmed or unconfirmed")
        return super().__new__(cls, key, from_rid, via)

    @property
    def confirmed(self) -> bool:
        return self.from_rid is not None

    def sort_key(self) -> tuple:
        # Key, then confirmed entries first, then by sender address or
        # announcing relay.
        if self.via is None:
            return (self.key, 0, self.from_rid)
        return (self.key, 1, self.via)


def confirmed_entry(key: Key, sender: Rid) -> InEntry:
    return InEntry(key, from_rid=sender)


def unconfirmed_entry(key: Key, via: RelayId) -> InEntry:
    return InEntry(key, via=via)


class RelayParameter(NamedTuple):
    """Serialized form of a relay reference inside a sent message."""

    key: Key
    id: RelayId
    level: int
    sink_rid: Rid


@dataclass(frozen=True, slots=True)
class RelayRef:
    """Dark handle to a relay owned by the calling process.

    Applications may only pass it back to layer primitives; the relay's
    variables are not readable through it.
    """

    relay_id: RelayId


class Header(NamedTuple):
    """Transmit header: (key, in_id, out_id, level).

    `level` is the sending relay's level at send time; the not-authorized
    handler pattern-matches on it.
    """

    key: Key
    in_id: RelayId
    out_id: RelayId
    level: int


class ActionInvocation(NamedTuple):
    """Application message `label(params)`.

    A parameter is a relay reference by its type: a RelayRef before
    serialization, a RelayParameter on the wire, a fresh RelayRef (or None
    for a duplicate key) on delivery.  Every other parameter rides as is.
    """

    label: str
    params: tuple


class Probe(NamedTuple):
    """Relay-layer liveness probe for unconfirmed keys, routed like a payload."""

    control_keys: frozenset
    key_sequence: tuple


class Transmit(NamedTuple):
    header: Header
    action: Union[ActionInvocation, Probe]


class ProbeFail(NamedTuple):
    key: Key
    key_sequence: tuple


class NotAuthorized(NamedTuple):
    original: Transmit


class InRelayClosed(NamedTuple):
    keys: frozenset
    sender_rid: Rid
    target_id: RelayId


class OutRelayClosed(NamedTuple):
    id: RelayId


class Ping(NamedTuple):
    id: RelayId
    level: int
    sink_rid: Rid
    key: Key


Message = Union[Transmit, ProbeFail, NotAuthorized, InRelayClosed, OutRelayClosed, Ping, ActionInvocation]


# The hot path's constructor of named-tuple values: `make(Ping, (id, level,
# sink_rid, key))` builds the value `Ping(id, level, sink_rid, key)` builds,
# without the Python frame of the generated `__new__`, in about a quarter of
# its time on CPython 3.11.  It checks neither the field count nor a custom
# `__new__`, so callers pass every field in declaration order, and only for
# the plain named tuples above (not `InEntry`).
make = tuple.__new__


def relay_params(message: Message) -> list:
    """The relay parameters of a Transmit carrying an ActionInvocation; [] for any other message."""
    if type(message) is Transmit and type(message.action) is ActionInvocation:
        return [p for p in message.action.params if type(p) is RelayParameter]
    return []


@dataclass(slots=True)
class Envelope:
    """Buffer entry: a message plus the kernel-assigned delivery identity.

    `target_rid` is the addressed layer, set only in layer buffers and the
    orphan list; a relay buffer's messages go to the relay's next hop.
    """

    uid: int
    message: Message
    target_rid: Optional[Rid] = None


@dataclass(slots=True)
class Relay:
    """Per-process socket record.

    `buf` is insert-only for the protocol; only the simulated link layer
    removes entries.  `out_id` absent means the relay is a sink and local
    sends deliver to the owning process.
    """

    id: RelayId
    alive: bool = True
    out_keys: set = field(default_factory=set)
    out_id: Optional[RelayId] = None
    level: int = 0
    sink_rid: Rid = None  # type: ignore[assignment]
    in_set: set = field(default_factory=set)
    buf: list = field(default_factory=list)

    def sorted_in(self) -> list:
        return sorted(self.in_set, key=InEntry.sort_key)

    def sorted_out_keys(self) -> list:
        return sorted(self.out_keys)


# ---------------------------------------------------------------------------
# Canonical structured-text serialization.  Field names follow the relay
# record itself (id, state, out, level, sinkRID, In, Buf) so fragments diff
# cleanly in golden tests.

def message_json(m: Message) -> Any:
    if isinstance(m, Transmit):
        return {
            "transmit": {
                "header": m.header,
                "action": message_json(m.action),
            }
        }
    if isinstance(m, Probe):
        return {
            "probe": {
                "controlKeys": sorted(m.control_keys),
                "keySequence": m.key_sequence,
            }
        }
    if isinstance(m, ProbeFail):
        return {"probefail": {"key": m.key, "keySequence": m.key_sequence}}
    if isinstance(m, NotAuthorized):
        return {"notauthorized": message_json(m.original)}
    if isinstance(m, InRelayClosed):
        return {
            "inrelayclosed": {
                "keys": sorted(m.keys),
                "sender": m.sender_rid,
                "id": m.target_id,
            }
        }
    if isinstance(m, OutRelayClosed):
        return {"outrelayclosed": m.id}
    if isinstance(m, Ping):
        return {"ping": m}
    if isinstance(m, ActionInvocation):
        return {"action": {"label": m.label, "params": [_param_json(p) for p in m.params]}}
    raise TypeError(f"not a message: {m!r}")


def _param_json(p: Any) -> Any:
    if isinstance(p, RelayParameter):
        return {"relayParameter": p}
    if isinstance(p, RelayRef):
        return {"relayRef": p.relay_id}
    if p is None:
        return None
    return repr(p)


def relay_json(r: Relay) -> dict:
    """Canonical dict form of one relay record."""
    return {
        "id": r.id,
        "state": "alive" if r.alive else "dead",
        "out": {"Key": r.sorted_out_keys(), "ID": r.out_id},
        "level": r.level,
        "sinkRID": r.sink_rid,
        "In": r.sorted_in(),
        "Buf": [message_json(env.message) for env in r.buf],
    }
