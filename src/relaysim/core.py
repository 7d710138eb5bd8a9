"""Value types shared by the relay layer, the simulator and the oracles.

Everything here is plain data: identifiers, the per-socket relay record,
and the message vocabulary that travels between relay layers.  No behavior
beyond constructors, projections and canonical serialization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Union


# A layer's address is the pid of the process that owns it: one layer per
# process.
Rid = int


# Identity types are dict keys all over the simulator and the oracle, so
# they carry their hash instead of recomputing it through nested fields.


@dataclass(frozen=True, slots=True, order=True)
class RelayId:
    """Globally unique relay identifier embedding its owning layer's address."""

    rid: Rid
    serial: int
    _h: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_h", hash(("id", self.rid, self.serial)))

    def __hash__(self) -> int:
        return self._h

    def __repr__(self) -> str:
        return f"R{self.rid}.{self.serial}"


@dataclass(frozen=True, slots=True, order=True)
class Key:
    """Unforgeable token gating one incoming connection.

    The creator field makes ownership decidable without cryptography: a key
    "belongs to" the layer that minted it.
    """

    creator: Rid
    serial: int
    _h: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_h", hash(("key", self.creator, self.serial)))

    def __hash__(self) -> int:
        return self._h

    def __repr__(self) -> str:
        return f"k(R{self.creator},{self.serial})"


def belongs_to(key: Key, rid: Rid) -> bool:
    """True iff `key` was minted by the layer with address `rid`."""
    return key.creator == rid


@dataclass(frozen=True, slots=True)
class InEntry:
    """One incoming-permission triple of a relay.

    Exactly one of `from_rid` (confirmed: the sender's layer address) and
    `via` (unconfirmed: the local relay through which the key was announced)
    is set.
    """

    key: Key
    from_rid: Optional[Rid] = None
    via: Optional[RelayId] = None
    _h: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self) -> None:
        if (self.from_rid is None) == (self.via is None):
            raise ValueError("entry must be either confirmed or unconfirmed")
        object.__setattr__(self, "_h", hash((self.key, self.from_rid, self.via)))

    def __hash__(self) -> int:
        return self._h

    @property
    def confirmed(self) -> bool:
        return self.from_rid is not None

    def sort_key(self) -> tuple:
        # Key, then confirmed entries first, then by sender address or
        # announcing relay; plain ints, so sorting calls no dataclass compare.
        key = self.key
        if self.via is None:
            return (key.creator, key.serial, 0, self.from_rid, 0)
        return (key.creator, key.serial, 1, self.via.rid, self.via.serial)


def confirmed_entry(key: Key, sender: Rid) -> InEntry:
    return InEntry(key, from_rid=sender)


def unconfirmed_entry(key: Key, via: RelayId) -> InEntry:
    return InEntry(key, via=via)


@dataclass(frozen=True, slots=True)
class RelayParameter:
    """Serialized form of a relay reference inside a sent message."""

    key: Key
    id: RelayId
    level: int
    sink_rid: Rid

    def to_tuple(self) -> tuple:
        return (
            (self.key.creator, self.key.serial),
            (self.id.rid, self.id.serial),
            self.level,
            self.sink_rid,
        )


@dataclass(frozen=True, slots=True)
class RelayRef:
    """Dark handle to a relay owned by the calling process.

    Applications may only pass it back to layer primitives; the relay's
    variables are not readable through it.
    """

    relay_id: RelayId


@dataclass(frozen=True, slots=True)
class Header:
    """Transmit header: (key, in_id, out_id, level).

    `level` is the sending relay's level at send time; the not-authorized
    handler pattern-matches on it.
    """

    key: Key
    in_id: RelayId
    out_id: RelayId
    level: int


@dataclass(frozen=True, slots=True)
class ActionInvocation:
    """Application message `label(params)`.

    `relay_positions` statically declares which parameter positions hold
    relay references: a RelayRef before serialization, a RelayParameter on
    the wire, a fresh RelayRef (or None for a duplicate key) on delivery.
    """

    label: str
    params: tuple
    relay_positions: tuple = ()


@dataclass(frozen=True, slots=True)
class Probe:
    """Relay-layer liveness probe for unconfirmed keys, routed like a payload."""

    control_keys: frozenset
    key_sequence: tuple


@dataclass(frozen=True, slots=True)
class Transmit:
    header: Header
    action: Union[ActionInvocation, Probe]


@dataclass(frozen=True, slots=True)
class ProbeFail:
    key: Key
    key_sequence: tuple


@dataclass(frozen=True, slots=True)
class NotAuthorized:
    original: Transmit


@dataclass(frozen=True, slots=True)
class InRelayClosed:
    keys: frozenset
    sender_rid: Rid
    target_id: RelayId


@dataclass(frozen=True, slots=True)
class OutRelayClosed:
    id: RelayId


@dataclass(frozen=True, slots=True)
class Ping:
    id: RelayId
    level: int
    sink_rid: Rid
    key: Key


Message = Union[Transmit, ProbeFail, NotAuthorized, InRelayClosed, OutRelayClosed, Ping, ActionInvocation]

@dataclass(slots=True)
class Envelope:
    """Buffer entry: a message plus the kernel-assigned delivery identity."""

    uid: int
    message: Message


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

def _key_json(k: Key) -> list:
    return [k.creator, k.serial]


def _id_json(i: RelayId) -> list:
    return [i.rid, i.serial]


def message_json(m: Message) -> Any:
    if isinstance(m, Transmit):
        h = m.header
        return {
            "transmit": {
                "header": [_key_json(h.key), _id_json(h.in_id), _id_json(h.out_id), h.level],
                "action": message_json(m.action),
            }
        }
    if isinstance(m, Probe):
        return {
            "probe": {
                "controlKeys": sorted(_key_json(k) for k in m.control_keys),
                "keySequence": [_key_json(k) for k in m.key_sequence],
            }
        }
    if isinstance(m, ProbeFail):
        return {"probefail": {"key": _key_json(m.key), "keySequence": [_key_json(k) for k in m.key_sequence]}}
    if isinstance(m, NotAuthorized):
        return {"notauthorized": message_json(m.original)}
    if isinstance(m, InRelayClosed):
        return {
            "inrelayclosed": {
                "keys": sorted(_key_json(k) for k in m.keys),
                "sender": m.sender_rid,
                "id": _id_json(m.target_id),
            }
        }
    if isinstance(m, OutRelayClosed):
        return {"outrelayclosed": _id_json(m.id)}
    if isinstance(m, Ping):
        return {"ping": [_id_json(m.id), m.level, m.sink_rid, _key_json(m.key)]}
    if isinstance(m, ActionInvocation):
        return {"action": {"label": m.label, "params": [_param_json(p) for p in m.params]}}
    raise TypeError(f"not a message: {m!r}")


def _param_json(p: Any) -> Any:
    if isinstance(p, RelayParameter):
        return {"relayParameter": p.to_tuple()}
    if isinstance(p, RelayRef):
        return {"relayRef": _id_json(p.relay_id)}
    if p is None:
        return None
    return repr(p)


def _entry_json(e: InEntry) -> list:
    if e.confirmed:
        return [_key_json(e.key), e.from_rid, None]
    return [_key_json(e.key), None, _id_json(e.via)]


def relay_json(r: Relay) -> dict:
    """Canonical dict form of one relay record."""
    return {
        "id": _id_json(r.id),
        "state": "alive" if r.alive else "dead",
        "out": {"Key": [_key_json(k) for k in r.sorted_out_keys()], "ID": _id_json(r.out_id) if r.out_id else None},
        "level": r.level,
        "sinkRID": r.sink_rid,
        "In": [_entry_json(e) for e in r.sorted_in()],
        "Buf": [message_json(env.message) for env in r.buf],
    }
