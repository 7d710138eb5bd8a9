"""Per-process relay layer: socket primitives, message handlers, repair loop.

One RelayLayer instance is a single logical actor.  Handlers execute
atomically against the layer's relay table and never interleave; all
cross-layer effects are queued as messages and moved by the simulated link
layer.  Every "arbitrary" choice in the protocol is resolved by the total
order on keys and by relay-table order, which is id order (`add_relay`), so
identical inputs yield identical outputs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from .core import (
    ActionInvocation,
    Envelope,
    Header,
    InEntry,
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
    confirmed_entry,
    make,
    relay_params,
    unconfirmed_entry,
)

if TYPE_CHECKING:
    from .kernel import PendingIndex


_NO_CONTROLS: frozenset = frozenset()


def buffered_param_keys(buf: list) -> set:
    """Keys of the relay parameters riding in the Transmits of `buf`."""
    # A loop, not a set comprehension: this runs in the repair loop, and on
    # Python 3.11 the comprehension builds a function object every call.
    keys = set()
    for env in buf:
        for p in relay_params(env.message):
            keys.add(p.key)
    return keys


class RelayLayer:
    def __init__(self, rid: Rid, env_source: PendingIndex) -> None:
        self.rid = rid
        self.env_source = env_source
        self.relays: dict[RelayId, Relay] = {}
        self.layer_buf: list[Envelope] = []
        self.owner_alive = True
        self._id_serial = 0
        self._key_serial = 0

    # -- minting -----------------------------------------------------------

    def mint_relay_id(self) -> RelayId:
        self._id_serial += 1
        return RelayId(self.rid, self._id_serial)

    def mint_key(self) -> Key:
        self._key_serial += 1
        return Key(self.rid, self._key_serial)

    def add_relay(self, **fields) -> Relay:
        """File a new relay, built from `fields`, under a freshly minted id.

        This is the only way a relay enters the table.  Ids rise with every
        mint and a relay is filed as soon as its id exists, so a layer's
        table is always in id order: iterating it visits the lowest id
        first, which is how every choice between relays is made.
        """
        relay = Relay(id=self.mint_relay_id(), **fields)
        self.relays[relay.id] = relay
        return relay

    # -- primitives --------------------------------------------------------

    def new_relay(self) -> Optional[RelayRef]:
        if not self.owner_alive:
            return None
        return RelayRef(self.add_relay(sink_rid=self.rid).id)

    def _resolve(self, ref: Optional[RelayRef]) -> Optional[Relay]:
        if ref is None:
            return None
        return self.relays.get(ref.relay_id)

    def delete_relay(self, ref: RelayRef) -> None:
        if not self.owner_alive:
            return
        relay = self._resolve(ref)
        if relay is not None:
            self._delete(relay)

    def merge(self, refs: Iterable[RelayRef]) -> Optional[RelayRef]:
        if not self.owner_alive:
            return None
        wanted = {ref.relay_id for ref in refs if ref is not None}
        relays = [r for r in self.relays.values() if r.id in wanted]
        if not relays:
            return None
        first = relays[0]
        if first.out_id is None:
            return None
        for r in relays:
            if not (
                r.alive
                and r.out_id == first.out_id
                and r.level == first.level
                and r.sink_rid == first.sink_rid
                and not r.in_set
            ):
                return None
        merged = self.add_relay(
            out_keys=set().union(*(r.out_keys for r in relays)),
            out_id=first.out_id,
            level=first.level,
            sink_rid=first.sink_rid,
        )
        originals = {r.id for r in relays}
        for r in relays:
            # Buffers and keys move to the merged relay; the originals stay
            # as drained tombstones until the repair loop collects them.
            # Messages the original sent now name the merged relay as their
            # sender, so anchoring and NotAuthorized replies reach the heir.
            for env in r.buf:
                m = env.message
                if isinstance(m, Transmit) and m.header.in_id == r.id:
                    env.message = Transmit(m.header._replace(in_id=merged.id), m.action)
            self.env_source.moved(r.buf, merged)
            merged.buf.extend(r.buf)
            r.buf = []
            r.out_keys = set()
            self._delete(r)
        # Announcements routed via an original are now carried by the heir,
        # so their entries must point there for confirmation and probing.
        for holder in self.relays.values():
            moved = {e for e in holder.in_set if not e.confirmed and e.via in originals}
            if moved:
                holder.in_set -= moved
                holder.in_set |= {unconfirmed_entry(e.key, merged.id) for e in moved}
        return RelayRef(merged.id)

    def get_relays(self) -> list[RelayRef]:
        return [RelayRef(r.id) for r in self.relays.values() if r.alive]

    def incoming(self, ref: RelayRef) -> int:
        relay = self._resolve(ref)
        return len(relay.in_set) if relay is not None else 0

    def direct(self, ref: RelayRef) -> bool:
        relay = self._resolve(ref)
        return relay is not None and relay.level <= 1

    def is_sink(self, ref: RelayRef) -> bool:
        relay = self._resolve(ref)
        return relay is not None and relay.level == 0

    def dead(self, ref: RelayRef) -> bool:
        relay = self._resolve(ref)
        return relay is None or not relay.alive

    def same_target(self, ref_a: RelayRef, ref_b: RelayRef) -> bool:
        a, b = self._resolve(ref_a), self._resolve(ref_b)
        return a is not None and b is not None and a.out_id == b.out_id

    def send(self, ref: RelayRef, action: ActionInvocation) -> None:
        if not self.owner_alive:
            return
        relay = self._resolve(ref)
        if relay is None or not relay.alive:
            return
        if relay.out_id is None:
            # Sink: local delivery, references pass through unserialized.
            self.env_source.emit_buf(relay, action)
            return
        if not relay.out_keys:
            # No key can head the message; the relay is invalid and the
            # repair loop will delete it.  Dropping avoids dangling In
            # entries that nothing could ever confirm.
            return
        params = list(action.params)
        for i, param in enumerate(params):
            if not isinstance(param, RelayRef):
                continue
            target = self._resolve(param)
            if target is None or not target.alive:
                params[i] = None
                continue
            key = self.mint_key()
            target.in_set.add(unconfirmed_entry(key, relay.id))
            params[i] = RelayParameter(key, target.id, target.level + 1, target.sink_rid)
        header = make(Header, (min(relay.out_keys), relay.id, relay.out_id, relay.level))
        self.env_source.emit_buf(relay, make(Transmit, (header, ActionInvocation(action.label, tuple(params)))))

    def stop_process(self) -> None:
        if not self.owner_alive:
            return
        self.owner_alive = False
        for relay in self.relays.values():
            if relay.alive and relay.out_id is None:
                self._delete(relay)

    # -- internal delete (shared by primitives and handlers) ----------------

    def _delete(self, relay: Relay) -> None:
        relay.alive = False
        for rid in sorted({e.from_rid for e in relay.in_set if e.confirmed}):
            self.env_source.emit_control(self, rid, OutRelayClosed(relay.id))
        relay.in_set.clear()

    def _purge_unconfirmed_via(self, via: Relay) -> None:
        for r in self.relays.values():
            stale = {e for e in r.in_set if not e.confirmed and e.via == via.id}
            r.in_set -= stale

    # -- header validity (local data only) -----------------------------------

    def admitting_entry(self, relay: Relay, header: Header) -> Optional[InEntry]:
        """The In entry under which `relay` takes a Transmit with `header`,
        or None when the header is not valid for it.  The header's key must
        be confirmed from the sender's layer or announced via a local relay
        that sinks there.  An announcement wins, the lowest via first: the
        first message over a fresh connection confirms it.  One pass finds
        both; most Transmits travel over confirmed connections.
        """
        if relay.id != header.out_id:
            return None
        key, sender = header.key, header.in_id.rid
        found = None
        for e in relay.in_set:
            if e.key != key:
                continue
            if e.via is None:
                if e.from_rid == sender and found is None:
                    found = e
            elif found is None or found.via is None or e.via < found.via:
                via = self.relays.get(e.via)
                if via is not None and via.sink_rid == sender:
                    found = e
        return found

    # -- message dispatch ----------------------------------------------------

    def receive(self, message: Message) -> None:
        # On the exact type, transmits and pings first: they are most of the
        # traffic.
        kind = type(message)
        if kind is Transmit:
            self.handle_transmit(message)
        elif kind is Ping:
            self.handle_ping(message.id, message.level, message.sink_rid, message.key)
        elif kind is ProbeFail:
            self.handle_probefail(message.key, message.key_sequence)
        elif kind is NotAuthorized:
            self.handle_notauthorized(message.original)
        elif kind is InRelayClosed:
            self.handle_inrelayclosed(message.keys, message.sender_rid, message.target_id)
        elif kind is OutRelayClosed:
            self.handle_outrelayclosed(message.id)
        # anything else is not an internal message and is ignored

    # -- transmit ------------------------------------------------------------

    def handle_transmit(self, m: Transmit) -> None:
        header = m.header
        relay = self.relays.get(header.out_id)
        if relay is None or not relay.alive:
            if header.out_id.rid == self.rid:
                self.env_source.emit_control(self, header.in_id.rid, OutRelayClosed(header.out_id))
            return
        entry = self.admitting_entry(relay, header)
        if entry is None:
            self.env_source.emit_control(self, header.in_id.rid, NotAuthorized(m))
            return
        if entry.via is not None:
            # The first message over a fresh connection confirms its key.
            relay.in_set.discard(entry)
            relay.in_set.add(confirmed_entry(entry.key, header.in_id.rid))
        if relay.out_id is None:
            self._sink_receipt(relay, m)
        else:
            self._forward(relay, m)

    def _sink_receipt(self, relay: Relay, m: Transmit) -> None:
        action = m.action
        if isinstance(action, Probe):
            # Each unheld control key fails back to the lowest sender
            # confirmed under the last key.
            controls, sequence = action.control_keys, action.key_sequence
            sender = self._confirmed_sender(relay, sequence[-1]) if controls and sequence else None
            if sender is not None:
                for control_key in sorted(controls):
                    if not any(control_key in r.out_keys for r in self.relays.values()):
                        self.env_source.emit_control(self, sender, ProbeFail(control_key, sequence))
            return
        if not isinstance(action, ActionInvocation):
            return
        params = list(action.params)
        incoming = [(i, p) for i, p in enumerate(params) if isinstance(p, RelayParameter)]
        if len({p.id.rid for _, p in incoming}) > 1:
            return  # ids from several layers: obviously corrupted
        for i, p in incoming:
            if any(p.key in r.out_keys for r in self.relays.values()):
                params[i] = None
                continue
            relay_in = self.add_relay(out_keys={p.key}, out_id=p.id, level=p.level, sink_rid=p.sink_rid)
            header = make(Header, (p.key, relay_in.id, p.id, relay_in.level))
            self.env_source.emit_buf(relay_in, make(Transmit, (header, make(Probe, (_NO_CONTROLS, (p.key,))))))
            params[i] = RelayRef(relay_in.id)
        self.env_source.emit_buf(relay, ActionInvocation(action.label, tuple(params)))

    def _forward(self, relay: Relay, m: Transmit) -> None:
        if not relay.out_keys:
            return  # header cannot be rewritten; repair loop deletes this relay
        new_key = min(relay.out_keys)
        action = m.action
        if isinstance(action, Probe):
            controls = action.control_keys
            if controls:
                controls = controls - buffered_param_keys(relay.buf)
            action = make(Probe, (controls, action.key_sequence + (new_key,)))
        header = make(Header, (new_key, relay.id, relay.out_id, relay.level))
        self.env_source.emit_buf(relay, make(Transmit, (header, action)))

    # -- probe failure ---------------------------------------------------------

    @staticmethod
    def _confirmed_sender(relay: Relay, key: Key) -> Optional[Rid]:
        """The lowest sender address confirmed under `key` in `relay`'s In set."""
        return min((e.from_rid for e in relay.in_set if e.via is None and e.key == key), default=None)

    def handle_probefail(self, key: Key, key_sequence: tuple) -> None:
        # The holder and announcer lookups take the first match in table
        # order, the lowest id.
        if not key_sequence:
            return
        last = key_sequence[-1]
        for holder in self.relays.values():
            if last in holder.out_keys:
                break
        else:
            return
        if len(key_sequence) > 1:
            sender = self._confirmed_sender(holder, key_sequence[-2])
            if sender is not None:
                self.env_source.emit_control(self, sender, ProbeFail(key, key_sequence[:-1]))
        else:
            entry = unconfirmed_entry(key, holder.id)
            for announcer in self.relays.values():
                if entry in announcer.in_set:
                    announcer.in_set.discard(entry)
                    return

    # -- not authorized ---------------------------------------------------------

    def handle_notauthorized(self, original: Transmit) -> None:
        h = original.header
        relay = self.relays.get(h.in_id)
        if relay is None or relay.out_id is None or relay.out_id != h.out_id:
            return
        if relay.level != h.level or h.key not in relay.out_keys:
            return
        relay.out_keys.discard(h.key)
        if relay.out_keys:
            new_key = min(relay.out_keys)
            self.env_source.emit_buf(relay, Transmit(Header(new_key, h.in_id, h.out_id, h.level), original.action))
        else:
            # Outgoing link is broken: drop announcements pending via this
            # relay, then close it.
            self._purge_unconfirmed_via(relay)
            self._delete(relay)

    # -- ping ---------------------------------------------------------------------

    def handle_ping(self, id: RelayId, level: int, sink_rid: Rid, key: Key) -> None:
        if id is None:
            return
        for holder in self.relays.values():
            if key in holder.out_keys and holder.out_id == id:
                holder.sink_rid = sink_rid
                if holder.level > level + 1:
                    holder.level = level + 1
                if holder.level < level + 1:
                    # raising the level could close a relay cycle, so delete
                    self._delete(holder)
                return
        self.env_source.emit_control(self, id.rid, InRelayClosed(frozenset({key}), self.rid, id))

    # -- in/out relay closed --------------------------------------------------------

    def handle_inrelayclosed(self, keys: frozenset, sender_rid: Rid, target_id: RelayId) -> None:
        # The sender revokes only what it holds: its confirmed entries in
        # the relay it names.
        relay = self.relays.get(target_id)
        if relay is not None:
            relay.in_set -= {e for e in relay.in_set if e.from_rid == sender_rid and e.key in keys}

    def handle_outrelayclosed(self, id: RelayId) -> None:
        for relay in self.relays.values():
            if relay.out_id == id:
                self._purge_unconfirmed_via(relay)
                relay.out_keys.clear()
                relay.out_id = None
                self._delete(relay)

    # -- repair loop -------------------------------------------------------------------

    def timeout(self) -> None:
        """Periodically executed self-repair; guard is always true."""
        # One snapshot of the relay table per call: In-key multiplicity
        # (duplicated In keys are purged everywhere), the unconfirmed entries
        # announced via each relay, and whether any out-key has two holders.
        # The loop only removes In entries and out-keys, never adds them, so
        # a lookup that re-checks membership reads the current table, a relay
        # whose In set is empty at its turn has nothing to purge or ping, and
        # when no out-key has two holders (`shared` false, the common case)
        # none can collide and a collected tombstone closes all its keys, so
        # the table is scanned for neither.
        table, rid, owner_alive, pending = self.relays, self.rid, self.owner_alive, self.env_source
        key_count: dict[Key, int] = {}
        announced: dict[RelayId, list] = {}  # via id -> [(holder, entry)]
        distinct: set = set()  # every out-key held
        out_total = 0
        for r in table.values():
            for e in r.in_set:
                key_count[e.key] = key_count.get(e.key, 0) + 1
                if e.via is not None:
                    announced.setdefault(e.via, []).append((r, e))
            out_total += len(r.out_keys)
            distinct.update(r.out_keys)
        shared = out_total > len(distinct)

        # Each recovery branch is guarded by its own trigger: announcements
        # via the relay (`via_me`), a keyless non-sink, and a dead relay or
        # a stopped owner.  Almost every relay of a settling world has none
        # of them.  Any relay without out-keys at the collision check (every
        # sink, among others) leaves there: it has no key to collide on or
        # to probe over.
        for relay in list(table.values()):
            relay_id, out_id = relay.id, relay.out_id
            if out_id is None:
                relay.level = level = 0
                relay.sink_rid = rid
                relay.out_keys.clear()
            else:
                level = relay.level
                if level < 1:
                    relay.level = level = 1
            out_keys = relay.out_keys
            via_me = announced.get(relay_id, ())
            # Announcements via this relay whose announcing message still
            # sits in its buffer (`in_buf`) are neither purged nor probed
            # for: the far side confirms them on delivery.
            in_buf = buffered_param_keys(relay.buf) if via_me else ()
            if out_id is not None and not out_keys:
                # Keyless non-sink: the outgoing link is unusable, exactly
                # the exhaustion case of the not-authorized handler, so
                # announcements via this relay can never be probed again.
                for holder, e in via_me:
                    if e.key not in in_buf:
                        holder.in_set.discard(e)
                if relay.alive:
                    self._delete(relay)
            if relay.in_set:
                # One pass: drop duplicated, foreign and dangling entries,
                # and ping every confirmed sender in key order (confirmed
                # entries compare as plain tuples in `sort_key` order).
                drop, confirmed = [], []
                for e in relay.in_set:
                    if key_count[e.key] > 1 or e.key.creator != rid:
                        drop.append(e)
                    elif e.via is None:
                        confirmed.append(e)
                    elif e.via not in table:
                        drop.append(e)
                if drop:
                    relay.in_set.difference_update(drop)
                confirmed.sort()
                sink_rid = relay.sink_rid
                for e in confirmed:
                    pending.emit_control(self, e.from_rid, make(Ping, (relay_id, level, sink_rid, e.key)))
            if not relay.alive or not owner_alive:
                pending_via = any(e in holder.in_set for holder, e in via_me)
                if not relay.alive and not pending_via and not relay.buf:
                    # Removal waits for the buffer: a deleted relay keeps
                    # delivering what was already sent through it.
                    if out_id is None:
                        self._delete(relay)
                        del table[relay_id]
                        continue
                    # A key an alive relay also holds stays in use: a tombstone
                    # that lost an out-key collision, or comes from a corrupted
                    # start, must not revoke it (`merge` leaves its originals
                    # keyless).
                    closed = frozenset(out_keys)
                    if shared:
                        closed = closed.difference(*(o.out_keys for o in table.values() if o.alive))
                    if closed:
                        pending.emit_control(self, out_id.rid, InRelayClosed(closed, rid, out_id))
                    # The collected relay leaves the table, and with it the
                    # announcements it holds.
                    relay.in_set.clear()
                    del table[relay_id]
                    continue
                if relay.alive and not relay.in_set and not relay.buf and not pending_via:
                    # An alive relay here has a stopped owner.
                    self._delete(relay)
            if not out_keys:
                continue
            if shared and relay.alive:
                # Out-key collisions are resolved between alive relays only;
                # a tombstone still holding an alive relay's key is the loser
                # of an earlier collision, or comes from a corrupted start.
                if any(o.alive and o.id > relay_id and not out_keys.isdisjoint(o.out_keys) for o in table.values()):
                    self._delete(relay)
            controls = (
                frozenset(e.key for holder, e in via_me if e.key not in in_buf and e in holder.in_set)
                if via_me else _NO_CONTROLS
            )
            # Alive relays probe while their owner lives or keys may still
            # arrive.  A dead relay probes only while announcements made via
            # it are unresolved: probing any longer would keep refilling its
            # buffer and prevent its own collection, probing any less would
            # strand the announcements of a stopped process.
            if controls or (relay.alive and (owner_alive or relay.in_set)):
                for key in out_keys if len(out_keys) == 1 else sorted(out_keys):
                    header = make(Header, (key, relay_id, out_id, level))
                    pending.emit_buf(relay, make(Transmit, (header, make(Probe, (controls, (key,))))))
