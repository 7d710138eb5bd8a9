"""Omniscient checkers over a world snapshot.

Everything here is read-only.  `WorldCheck` indexes one snapshot and
answers per-relay validity with the full property list, in-flight
parameter validity, header validity, legality and cycle-freeness of the
valid relays' connections.  The module functions extract the relay graph,
partition the processes by its weakly connected components, decide the
departure problem's end state and export DOT.  `process_components` reads
that partition straight from the world; the extracted graph serves DOT
export and is the graph that the tests' reference walks.  Protocol code
never consults this module.

Vertices of the extracted graph include dead relays still draining their
buffers: their outgoing and in-buffer reference edges are what keeps the
graph weakly connected in the middle of a reversal.  Legality, by contrast,
judges only alive relays and parameters carried by alive relays; a relay
that the application deleted is a tombstone, not a defect.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from graphlib import CycleError, TopologicalSorter
from typing import Iterable, Optional

from .core import (
    ActionInvocation,
    InRelayClosed,
    Key,
    NotAuthorized,
    OutRelayClosed,
    Ping,
    Probe,
    ProbeFail,
    Relay,
    RelayId,
    RelayParameter,
    Rid,
    Transmit,
    relay_params,
)
from .kernel import WorldState

# The local relay rules in the order `relay_violations` lists their codes.
RULES = ("P1", "P4", "P5", "P6", "P7", "P8", "P9", "P10", "P11b", "P11c", "P11d", "P11e", "P11f")


class WorldCheck:
    """Single-pass verification context: index once, query many times.

    The build makes one pass over the relays (In-key counts and out-key
    holders) and one over every relay, layer and orphan buffer, which
    dispatches on the message type inline.  One walk, `_walk`, states each
    local relay rule once as one line of evidence: `is_legal` runs it in
    decide mode, which stops after the first relay that fails, and
    `relay_violations` in explain mode, which records every relay's codes;
    a legal relay pays the same in both.
    Both modes skip the P7, P8 and P11f lookups when their index is empty,
    and P11e when no out-key has two holders.  A full check is linear in
    relays plus messages in flight.
    """

    def __init__(self, world: WorldState) -> None:
        relays = self.relays = {}
        in_key_count = self.in_key_count = {}
        out_key_holders = self.out_key_holders = {}  # key -> ids of the relays holding it
        out_key_total = 0  # above the count of distinct keys: some key has two holders
        buffers = []  # (carrier relay id | None, buffer), in the order `params` keeps
        for layer in world.layers.values():
            relays.update(layer.relays)
            for relay in layer.relays.values():
                if relay.in_set:
                    for e in relay.in_set:
                        in_key_count[e.key] = in_key_count.get(e.key, 0) + 1
                if relay.out_keys:
                    out_key_total += len(relay.out_keys)
                    for key in relay.out_keys:
                        out_key_holders.setdefault(key, []).append(relay.id)
                if relay.buf:
                    buffers.append((relay.id, relay.buf))
            buffers.append((None, layer.layer_buf))
        buffers.append((None, world.orphan_out))
        self.shared_out_key = out_key_total > len(out_key_holders)
        pings_by_id = self.pings_by_id = {}
        orc_ids = self.orc_ids = set()
        notauth_by_out = self.notauth_by_out = {}
        probefail_starts = self.probefail_starts = {}  # key -> first keys of its ProbeFails
        inrelays_by_target = self.inrelays_by_target = {}
        probes_by_control = self.probes_by_control = {}  # key -> [(carrier relay id | None, Probe)]
        header_keys = self.header_keys = set()  # keys heading a Transmit, bare or wrapped
        param_count = self.param_count = {}
        params = self.params = []  # (carrier relay id | None, Transmit, RelayParameter)
        for carrier, buf in buffers:
            for env in buf:
                msg = env.message
                kind = type(msg)
                if kind is Transmit:
                    header_keys.add(msg.header.key)
                    action = msg.action
                    if type(action) is Probe:
                        if action.control_keys and action.key_sequence:  # else it hunts nothing
                            for key in action.control_keys:
                                probes_by_control.setdefault(key, []).append((carrier, action))
                    elif type(action) is ActionInvocation:
                        for p in action.params:
                            if type(p) is RelayParameter:
                                param_count[p.key] = param_count.get(p.key, 0) + 1
                                params.append((carrier, msg, p))
                elif kind is Ping:
                    pings_by_id.setdefault(msg.id, []).append(msg)
                elif kind is OutRelayClosed:
                    orc_ids.add(msg.id)
                elif kind is NotAuthorized:
                    original = msg.original
                    notauth_by_out.setdefault(original.header.out_id, []).append(original)
                    # wrapped header and parameters still occupy their keys
                    header_keys.add(original.header.key)
                    for p in relay_params(original):
                        param_count[p.key] = param_count.get(p.key, 0) + 1
                elif kind is ProbeFail:
                    if msg.key_sequence:
                        probefail_starts.setdefault(msg.key, set()).add(msg.key_sequence[0])
                elif kind is InRelayClosed:
                    inrelays_by_target.setdefault(msg.target_id, []).append(msg)

        self._violations: Optional[dict[RelayId, list]] = None  # built by `_evaluate_all`
        self._alive_valid = False  # set once `is_legal` finds every alive relay valid

    @cached_property
    def layer_rids(self) -> dict[RelayId, Rid]:
        """The address of the layer holding each relay, which is always the
        relay id's own `rid`.  Built on first use for `relaybench`, which
        reads it; the checks themselves read `relay_id.rid`."""
        return {relay_id: relay_id.rid for relay_id in self.relays}

    # -- relay validity ------------------------------------------------------
    #
    # Validity is mutually recursive: an unconfirmed entry needs a valid
    # announcing relay and a non-sink needs a valid next hop, and both kinds
    # of reference may point back at the relay itself (sending a relay's own
    # reference via itself is allowed).  `_walk` states each local property
    # once; invalidity then propagates along the two reference kinds until a
    # fixpoint.  Genuine out-connection cycles always fail locally because
    # levels cannot strictly decrease around a loop.
    #
    # Invalidity starts only at a dead relay (P1) or a local violation, and
    # spreads only as P11b to the relays pointing at an invalid relay and as
    # P4 to the holders of entries announced via an alive invalid relay.  So
    # every alive relay is valid exactly when none fails locally and none
    # points at a relay that is not alive, and then a relay is valid exactly
    # when it is alive.  `is_legal` decides from this rule alone: the walk
    # in decide mode stops after the first alive relay that fails.
    # `_evaluate_all` runs the walk in explain mode and propagates; it,
    # `relay_violations` and `param_violations` are the explanation that
    # decide mode is tested against (tests/test_legal_walk.py).

    def _evaluate_all(self) -> None:
        if self._violations is not None:
            return
        found: list = []
        announced_via: dict[RelayId, list] = {}
        self._walk(found, announced_via)
        # Each relay with local codes lists them once, in `RULES` order.
        local: dict[RelayId, list] = {}
        for relay_id, code in found:
            local.setdefault(relay_id, set()).add(code)
        for relay_id, codes in local.items():
            local[relay_id] = [code for code in RULES if code in codes]
        # Reverse dependency edges: if dep becomes invalid, holder gains code.
        # Next-hop edges (P11b) are `relays_by_out`.
        relays_by_out: dict[RelayId, list] = {}
        for relay in self.relays.values():
            if relay.out_id is not None:
                relays_by_out.setdefault(relay.out_id, []).append(relay.id)
        worklist = list(local)
        while worklist:
            bad = worklist.pop()
            dependents = [(h, "P4") for h in announced_via.get(bad, ())]
            dependents += [(r, "P11b") for r in relays_by_out.get(bad, ())]
            for holder, code in dependents:
                v = local.setdefault(holder, [])
                if code not in v:
                    was_valid = not v
                    v.append(code)
                    if was_valid:
                        worklist.append(holder)
        self._violations = local

    def relay_valid(self, relay_id: RelayId) -> bool:
        if self._alive_valid:
            relay = self.relays.get(relay_id)
            return relay is not None and relay.alive
        return not self.relay_violations(relay_id)

    def relay_violations(self, relay_id: RelayId) -> list:
        self._evaluate_all()
        return self._violations.get(relay_id, [] if relay_id in self.relays else ["P2"])

    def _walk(self, found: list, announced_via: Optional[dict] = None) -> bool:
        """Each relay's local rules, stated once, in one of two modes.

        Every rule that fails appends a (relay id, code) pair to `found`.
        Decide mode (`found` empty, no `announced_via`) visits the alive
        relays and returns False after the first relay with a pair, or at a
        next hop that is not alive, else True.  Explain mode visits every
        relay and also maps each alive relay that announces a pending entry
        to the entry holders in `announced_via`.  The mode is read only at
        the dead-relay skip, the announcement map, the dead-next-hop exit
        and the end of each relay, so a legal relay pays the same in both
        modes."""
        decide = announced_via is None
        relays = self.relays
        in_key_count = self.in_key_count
        pings_by_id = self.pings_by_id
        orc_ids = self.orc_ids
        notauth_by_out = self.notauth_by_out
        shared_out_key = self.shared_out_key
        out_key_holders = self.out_key_holders
        inrelays_by_target = self.inrelays_by_target
        for relay in relays.values():
            if not relay.alive:  # P1
                if decide:
                    continue
                found.append((relay.id, "P1"))
            # P2: id uniqueness is structural (per-layer tables keyed by id
            # and serials minted per layer); nothing to scan.
            # P3: out always stores a (key set, id) pair by construction.
            relay_id = relay.id
            rid = relay_id.rid
            pings = pings_by_id.get(relay_id)
            for e in relay.in_set:
                key = e.key
                if in_key_count[key] > 1 or key.creator != rid:  # P5
                    found.append((relay_id, "P5"))
                via = e.via
                if via is None:  # confirmed
                    continue
                if via.rid != rid:  # P4 (a missing announcer fails P9)
                    found.append((relay_id, "P4"))
                elif announced_via is not None:
                    # A dead announcing relay is a reversal in flight, still
                    # draining the announcement; a missing one fails P9.
                    # Only an alive-but-invalid one condemns the entry.
                    if via in relays and relays[via].alive:
                        announced_via.setdefault(via, []).append(relay_id)
                if pings and any(ping.key == key for ping in pings):  # P6: pinged for a pending key
                    found.append((relay_id, "P6"))
                if not self._pending_entry_backed(relay, e):  # P9
                    found.append((relay_id, "P9"))
            if pings:
                for ping in pings:
                    if ping.level != relay.level or ping.sink_rid != relay.sink_rid:  # P6
                        found.append((relay_id, "P6"))
                        break
            if orc_ids and relay_id in orc_ids:  # P7
                found.append((relay_id, "P7"))
            if notauth_by_out:
                for m in notauth_by_out.get(relay_id, ()):  # P8
                    if self.valid_header(m, relay_id):
                        found.append((relay_id, "P8"))
                        break
            out_id = relay.out_id
            out_keys = relay.out_keys
            if out_id is None:
                if out_keys or relay.level != 0 or relay.sink_rid != rid:  # P10
                    found.append((relay_id, "P10"))
            else:
                target = relays.get(out_id)
                if target is None:  # P11b
                    found.append((relay_id, "P11b"))
                else:
                    if not target.alive and decide:  # a dead next hop; explained by propagation
                        return False
                    if relay.level != target.level + 1 or relay.sink_rid != target.sink_rid:  # P11c
                        found.append((relay_id, "P11c"))
                    # P11d, its common case first: an out-key confirmed
                    # from this layer.
                    anchors, anchored = target.in_set.by_key, False
                    for key in out_keys:
                        for e in anchors.get(key, ()):
                            if e.from_rid == rid:
                                anchored = True
                    if not anchored and not self._one_key_anchored(relay, target):
                        found.append((relay_id, "P11d"))
                if shared_out_key:
                    for key in out_keys:  # P11e
                        # Only alive co-holders violate uniqueness; a deleted
                        # relay keeps its out-keys until the repair loop
                        # collects it.
                        holders = out_key_holders[key]
                        if len(holders) > 1 and any(
                            h != relay_id and h.rid == rid and relays[h].alive for h in holders
                        ):
                            found.append((relay_id, "P11e"))
                            break
                if inrelays_by_target:
                    for m in inrelays_by_target.get(out_id, ()):  # P11f
                        if m.sender_rid == rid and m.keys & out_keys:
                            found.append((relay_id, "P11f"))
                            break
            if found and decide:
                return False
        return True

    def _chain_from(self, start: Relay) -> Optional[list]:
        """Out-connection sequence from `start` to its sink; None if broken."""
        chain = [start]
        seen = {start.id}
        cur = start
        while cur.out_id is not None:
            nxt = self.relays.get(cur.out_id)
            if nxt is None or nxt.id in seen:
                return None
            chain.append(nxt)
            seen.add(nxt.id)
            cur = nxt
        return chain

    def _no_killer_probe(self, key: Key, via: Relay, allowed: list) -> bool:
        """No probe carrying `key` as a control key, started over `via`'s
        out-keys, sits in a buffer outside the allowed chain prefix."""
        for carrier, probe in self.probes_by_control.get(key, ()):
            if probe.key_sequence[0] not in via.out_keys:
                continue
            if carrier is None or all(r.id != carrier for r in allowed):
                return False
        return True

    def _pending_entry_backed(self, relay: Relay, entry) -> bool:
        """The unconfirmed In entry still has a live confirmation path."""
        via = self.relays.get(entry.via)
        failed = self.probefail_starts.get(entry.key)  # first keys of the key's ProbeFails
        if via is None or (failed is not None and not failed.isdisjoint(via.out_keys)):
            return False
        chain = self._chain_from(via)
        if chain is None:
            return False
        key = entry.key
        # Far side already created its relay and the activation probe is on
        # its way back.
        sink_rid = via.sink_rid
        for holder_id in self.out_key_holders.get(key, ()):
            candidate = self.relays[holder_id]
            if (
                candidate.out_id == relay.id
                and holder_id.rid == sink_rid
                and candidate.level == relay.level + 1
            ):
                for env in candidate.buf:
                    msg = env.message
                    if (
                        type(msg) is Transmit
                        and type(msg.action) is Probe
                        and msg.action.key_sequence == (key,)
                        and not msg.action.control_keys
                        and self.valid_header(msg, relay.id)
                    ):
                        if self._no_killer_probe(key, via, chain[:-1]):
                            return True
                        break
        # Or the announcing message is still in transit along the chain: a
        # chain relay carries the key, headed validly for its next hop.
        for carrier, msg, param in self.params:
            if param.key != key:
                continue
            for j in range(len(chain) - 1):
                if chain[j].id == carrier and self.valid_header(msg, chain[j + 1].id):
                    if self._no_killer_probe(key, via, chain[: j + 1]):
                        return True
        return False

    def _one_key_anchored(self, relay: Relay, target: Relay) -> bool:
        """P11d by an announced entry; `_walk` has looked for a confirmed one."""
        rid = relay.id.rid
        anchors = target.in_set.by_key
        for key in relay.out_keys:
            for e in anchors.get(key, ()):
                if e.via is None:
                    continue
                via = self.relays.get(e.via)
                if via is not None and via.sink_rid == rid:
                    # Plain loops here and in `param_violations`: on Python
                    # 3.11 a generator or comprehension builds a function
                    # object on every call.
                    for env in relay.buf:
                        msg = env.message
                        if (
                            isinstance(msg, Transmit)
                            and isinstance(msg.action, Probe)
                            and msg.header.key == key
                            and msg.header.in_id == relay.id
                            and msg.header.out_id == relay.out_id
                            and msg.action.key_sequence == (key,)
                        ):
                            return True
        return False

    # -- header validity -------------------------------------------------------

    def valid_header(self, message: Transmit, relay_id: RelayId) -> bool:
        """Relay `relay_id` is the header's `out_id` and lists its key either
        as confirmed from the sender's layer, or as announced via a relay of
        the target's own layer that sinks at the sender."""
        header = message.header
        relay = self.relays.get(relay_id)
        if relay is None or relay_id != header.out_id:
            return False
        sender = header.in_id.rid
        for e in relay.in_set.by_key.get(header.key, ()):
            if e.via is None:
                if e.from_rid == sender:
                    return True
            elif e.via.rid == relay_id.rid and e.via in self.relays and self.relays[e.via].sink_rid == sender:
                return True
        return False

    # -- parameter validity ------------------------------------------------------

    def param_violations(self, carrier_id: Optional[RelayId], message: Transmit, param: RelayParameter) -> list:
        v: list = []
        carrier = self.relays.get(carrier_id) if carrier_id is not None else None
        if carrier is None or not self.relay_valid(carrier.id):
            v.append("C1")
        if self.param_count.get(param.key, 0) > 1:
            v.append("C2")
        target = self.relays.get(param.id)
        if target is None or not self.relay_valid(param.id):
            v.append("C3")
            return v
        if param.level != target.level + 1 or param.sink_rid != target.sink_rid:
            v.append("C4")
        # C5 asks only for the target's pending entry for the key, announced
        # via a relay that sinks where the carrier does.  The target passed
        # C3, so its own rules settle the rest: the announcer exists (P9) in
        # the target's layer (P4) and is valid unless dead (P4, propagated),
        # and the key is the target layer's (P5).
        announced = None
        for e in target.in_set.by_key.get(param.key, ()):
            if e.via is not None:
                via = self.relays[e.via]
                if carrier is not None and via.sink_rid == carrier.sink_rid:
                    announced = via
                    break
        if announced is None:
            v.append("C5")
        rids = set()
        for p in relay_params(message):
            rids.add(p.id.rid)
        if len(rids) > 1:
            v.append("C6")
        if self.out_key_holders.get(param.key):
            v.append("C7")
        if param.key in self.header_keys:
            v.append("C8")
        # No C9 check: a ProbeFail for the key over `announced` would leave the
        # target's pending entry unbacked (`_pending_entry_backed` tests for
        # one), and the target passed C3, so it has none.
        if announced is not None and not self._probe_positions_ok(param.key, announced, message):
            v.append("C10")
        for m in self.inrelays_by_target.get(target.id, ()):
            if param.key in m.keys:
                v.append("C11")
                break
        return v

    def _probe_positions_ok(self, key: Key, announced: Relay, message: Transmit) -> bool:
        """Every probe hunting `key` must trail the announcing message."""
        relevant = [
            (carrier, probe)
            for carrier, probe in self.probes_by_control.get(key, ())
            if probe.key_sequence[0] in announced.out_keys
        ]
        if not relevant:
            return True
        # The caller's target passed C3, so its entry is backed (P9): the
        # announcer's chain exists and `_no_killer_probe` put every relevant
        # probe in one of its buffers.
        chain = self._chain_from(announced)
        positions = {r.id: i for i, r in enumerate(chain)}
        message_pos = None
        for i, r in enumerate(chain):
            if any(env.message is message for env in r.buf):
                message_pos = i
                break
        for carrier, probe in relevant:
            k = len(probe.key_sequence)
            if positions[carrier] != k - 1:
                return False
            # At chain index k - 1, the probe's k keys all have a chain relay.
            for j, seq_key in enumerate(probe.key_sequence):
                if seq_key not in chain[j].out_keys:
                    return False
            if message_pos is None or message_pos < k:
                return False
        return True

    # -- aggregates ---------------------------------------------------------------

    def is_legal(self) -> bool:
        # Relay validity by the rule stated above `_evaluate_all`: the walk
        # in decide mode.  Every alive relay is then valid.
        if not self._walk([]):
            return False
        self._alive_valid = True
        # With every alive relay valid, C1 can only mean a dead carrier.  A
        # reversal leaves the reference draining out of one; that is fine
        # exactly as long as everything else about it is intact, because
        # delivery then recreates a valid relay.
        for carrier_id, message, param in self.params:
            if carrier_id is not None and self.param_violations(carrier_id, message, param) not in ([], ["C1"]):
                return False
        return True

    def valid_graph_cycle_free(self) -> bool:
        """No directed cycle among valid relays' outgoing connections."""
        valid_ids = {r.id for r in self.relays.values() if r.alive and self.relay_valid(r.id)}
        try:
            TopologicalSorter({rid: {self.relays[rid].out_id} & valid_ids for rid in valid_ids}).prepare()
        except CycleError:
            return False
        return True


def is_legal(world: WorldState) -> bool:
    return WorldCheck(world).is_legal()


# ---------------------------------------------------------------------------
# Relay graph.

PROCESS = "P"
RELAY = "R"


@dataclass(slots=True)
class RelayGraph:
    vertices: set = field(default_factory=set)
    explicit_edges: set = field(default_factory=set)
    implicit_edges: set = field(default_factory=set)

    @property
    def edges(self) -> set:
        return self.explicit_edges | self.implicit_edges


def extract_relay_graph(world: WorldState) -> RelayGraph:
    g = RelayGraph()
    for pid, proc in world.processes.items():
        if proc.active:
            g.vertices.add((PROCESS, pid))
    all_relays: dict[RelayId, Relay] = {}
    for layer in world.layers.values():
        for relay in layer.relays.values():
            all_relays[relay.id] = relay
            g.vertices.add((RELAY, relay.id))
    for relay in all_relays.values():
        owner = (PROCESS, relay.id.rid)
        if owner in g.vertices:
            g.explicit_edges.add((owner, (RELAY, relay.id)))
        if relay.out_id is None:
            if owner in g.vertices:
                g.explicit_edges.add(((RELAY, relay.id), owner))
        elif relay.out_id in all_relays:
            g.explicit_edges.add(((RELAY, relay.id), (RELAY, relay.out_id)))
        for env in relay.buf:
            for p in relay_params(env.message):
                if p.id in all_relays:
                    g.implicit_edges.add(((RELAY, relay.id), (RELAY, p.id)))
    return g


def process_components(world: WorldState) -> list:
    """Partition of the active processes by weak connectivity of the relay
    graph, each part sorted, the parts ordered by their smallest pid;
    components that hold only relays are dropped.  Read straight from the
    world, without extracting the graph.

    An owner edge ties each relay of an active process to its owner, so
    such a relay stands for its owner here; a relay of a process that is
    not active (a stopped one) is a vertex of its own.  Only next hops and
    relay parameters in relay buffers that name an existing relay join two
    vertices: a union-find over those links, read out in ascending pid
    order.
    """
    active = {pid for pid, proc in world.processes.items() if proc.active}
    tables = {rid: layer.relays for rid, layer in world.layers.items()}
    up: dict = {}  # vertex -> parent; a vertex without one is a root

    def root(v):
        while v in up:
            up[v] = v = up.get(up[v], up[v])  # path halving
        return v

    for table in tables.values():
        for relay_id, relay in table.items():
            out_id, buf = relay.out_id, relay.buf
            if out_id is None and not buf:
                continue  # a sink with nothing in flight has no link
            targets = [] if out_id is None else [out_id]
            for env in buf:
                m = env.message
                if type(m) is Transmit and type(m.action) is ActionInvocation:
                    for p in m.action.params:
                        if type(p) is RelayParameter:
                            targets.append(p.id)
            # The relay's root, kept current as its links join it to others.
            a = root(relay_id.rid if relay_id.rid in active else relay_id)
            for t in targets:
                there = tables.get(t.rid)
                if there is not None and t in there:
                    b = root(t.rid if t.rid in active else t)
                    if a != b:
                        up[a] = a = b
    parts: dict = {}
    for pid in sorted(active):
        parts.setdefault(root(pid), []).append(pid)
    return list(parts.values())


def fdp_legitimate(world: WorldState, initial_components: Iterable) -> bool:
    for proc in world.processes.values():
        if proc.leaving and proc.active:
            return False
        if not proc.leaving and not proc.active:
            return False
    return stayers_connected(world, initial_components)


def stayers_connected(world: WorldState, initial_components: Iterable) -> bool:
    """Safety half of the departure problem, checkable at every step."""
    current = process_components(world)
    membership = {}
    for i, comp in enumerate(current):
        for pid in comp:
            membership[pid] = i
    for component in initial_components:
        stayers = [pid for pid in component if not world.processes[pid].leaving]
        if len(stayers) <= 1:
            continue
        buckets = {membership.get(pid, ("missing", pid)) for pid in stayers}
        if len(buckets) != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# DOT export: processes as boxes, relays as ellipses labeled
# "<|In|, id, direct?>", explicit edges solid, implicit dashed.


def _node_name(node) -> str:
    if node[0] == PROCESS:
        return f"p{node[1]}"
    rid = node[1]
    return f"r{rid.rid}_{rid.serial}"


def to_dot(world: WorldState) -> str:
    g = extract_relay_graph(world)
    lines = ["digraph relays {"]
    for node in sorted(g.vertices):
        if node[0] == PROCESS:
            lines.append(f'  {_node_name(node)} [shape=box label="{node[1]}"];')
        else:
            relay = world.find_relay(node[1])
            direct = "d" if relay.level <= 1 else "i"
            style = ' style=dotted' if not relay.alive else ""
            label = f"{len(relay.in_set)}, {_node_name(node)}, {direct}"
            lines.append(f'  {_node_name(node)} [shape=ellipse label="{label}"{style}];')
    for a, b in sorted(g.explicit_edges):
        lines.append(f"  {_node_name(a)} -> {_node_name(b)};")
    for a, b in sorted(g.implicit_edges):
        lines.append(f"  {_node_name(a)} -> {_node_name(b)} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"
