"""Omniscient checkers over a world snapshot.

Everything here is read-only.  `WorldCheck` indexes one snapshot and
answers per-relay validity with the full property list, in-flight
parameter validity, header validity, legality and cycle-freeness of the
valid relays' connections.  The module functions extract the relay graph
and its connected components, decide the departure problem's end state and
export DOT.  Protocol code never consults this module.

Vertices of the extracted graph include dead relays still draining their
buffers: their outgoing and in-buffer reference edges are what keeps the
graph weakly connected in the middle of a reversal.  Legality, by contrast,
judges only alive relays and parameters carried by alive relays; a relay
that the application deleted is a tombstone, not a defect.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
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
    belongs_to,
)
from .kernel import WorldState


def _params_of(transmit: Transmit) -> list:
    action = transmit.action
    if not isinstance(action, ActionInvocation):
        return []
    return [p for p in action.params if isinstance(p, RelayParameter)]


class WorldCheck:
    """Single-pass verification context: index once, query many times.

    One pass over the relays and their buffers builds every index the
    checks look up: relays by next hop, in-flight probes by control key,
    ProbeFail first keys by key and InRelayClosed by target.  A full check
    is then linear in relays plus messages in flight.
    """

    def __init__(self, world: WorldState) -> None:
        self.world = world
        self.relays: dict[RelayId, Relay] = {}
        self.in_key_count: dict[Key, int] = {}
        self.out_key_holders: dict[Key, list] = {}
        self.relays_by_out: dict[RelayId, list] = {}
        self.pings_by_id: dict[RelayId, list] = {}
        self.orc_ids: set = set()
        self.notauth_by_out: dict[RelayId, list] = {}
        self.probefail_starts: dict[Key, set] = {}  # key -> first keys of its ProbeFails
        self.inrelays_by_target: dict[RelayId, list] = {}
        self.probes_by_control: dict[Key, list] = {}  # (carrier relay id | None, Probe)
        self.header_key_count: dict[Key, int] = {}
        self.param_count: dict[Key, int] = {}
        self.params: list = []  # (carrier relay id | None, Transmit, RelayParameter)

        for layer in world.layers.values():
            for relay in layer.relays.values():
                self.relays[relay.id] = relay
                for e in relay.in_set:
                    self.in_key_count[e.key] = self.in_key_count.get(e.key, 0) + 1
                for k in relay.out_keys:
                    self.out_key_holders.setdefault(k, []).append(relay.id)
                if relay.out_id is not None:
                    self.relays_by_out.setdefault(relay.out_id, []).append(relay)
                for env in relay.buf:
                    self._index_message(relay.id, env.message)
            for env in layer.layer_buf:
                self._index_message(None, env.message)
        for env in world.orphan_out:
            self._index_message(None, env.message)

        self._violations: dict[RelayId, list] = {}
        self._evaluated = False
        self._alive_valid = False  # set once `is_legal` finds every alive relay valid

    @cached_property
    def layer_rids(self) -> dict[RelayId, Rid]:
        """The address of the layer holding each relay, which is always the
        relay id's own `rid`.  Built on first use for `relaybench`, which
        reads it; the checks themselves read `relay_id.rid`."""
        return {relay_id: relay_id.rid for relay_id in self.relays}

    def _index_message(self, carrier, msg) -> None:
        kind = type(msg)
        if kind is Transmit:
            self.header_key_count[msg.header.key] = self.header_key_count.get(msg.header.key, 0) + 1
            if type(msg.action) is Probe:
                probe = msg.action
                if probe.key_sequence:  # one without a start hunts nothing
                    for k in probe.control_keys:
                        self.probes_by_control.setdefault(k, []).append((carrier, probe))
            else:
                for p in _params_of(msg):
                    self.param_count[p.key] = self.param_count.get(p.key, 0) + 1
                    self.params.append((carrier, msg, p))
        elif kind is Ping:
            self.pings_by_id.setdefault(msg.id, []).append(msg)
        elif kind is OutRelayClosed:
            self.orc_ids.add(msg.id)
        elif kind is NotAuthorized:
            self.notauth_by_out.setdefault(msg.original.header.out_id, []).append(msg.original)
            # wrapped header and parameters still occupy their keys
            self.header_key_count[msg.original.header.key] = (
                self.header_key_count.get(msg.original.header.key, 0) + 1
            )
            for p in _params_of(msg.original):
                self.param_count[p.key] = self.param_count.get(p.key, 0) + 1
        elif kind is ProbeFail:
            if msg.key_sequence:
                self.probefail_starts.setdefault(msg.key, set()).add(msg.key_sequence[0])
        elif kind is InRelayClosed:
            self.inrelays_by_target.setdefault(msg.target_id, []).append(msg)

    def _probe_failed(self, key: Key, via: Relay) -> bool:
        """A ProbeFail for `key` started over one of `via`'s out-keys is in flight."""
        starts = self.probefail_starts.get(key)
        return starts is not None and not starts.isdisjoint(via.out_keys)

    # -- relay validity ------------------------------------------------------
    #
    # Validity is mutually recursive: an unconfirmed entry needs a valid
    # announcing relay and a non-sink needs a valid next hop, and both kinds
    # of reference may point back at the relay itself (sending a relay's own
    # reference via itself is allowed).  Local properties are checked first;
    # invalidity then propagates along the two reference kinds until a
    # fixpoint.  Genuine out-connection cycles always fail locally because
    # levels cannot strictly decrease around a loop.
    #
    # Invalidity starts only at a dead relay (P1) or a local violation, and
    # spreads only as P11b to the relays pointing at an invalid relay and as
    # P4 to the holders of entries announced via an alive invalid relay.  So
    # every alive relay is valid exactly when none fails locally and none
    # points at a relay that is not alive, and then a relay is valid exactly
    # when it is alive.  `is_legal` decides from this rule alone.

    def _evaluate_all(self) -> None:
        if self._evaluated:
            return
        self._evaluated = True
        local: dict[RelayId, list] = {}
        via_deps: dict[RelayId, list] = {}
        for relay in self.relays.values():
            local[relay.id] = self._check_relay_local(relay, via_deps)
        worklist = [rid for rid, v in local.items() if v]
        # Reverse dependency edges: if dep becomes invalid, holder gains code.
        # Next-hop edges (P11b) are `relays_by_out`.
        announced_via: dict[RelayId, list] = {}
        for holder, vias in via_deps.items():
            for via in vias:
                announced_via.setdefault(via, []).append(holder)
        while worklist:
            bad = worklist.pop()
            dependents = [(h, "P4") for h in announced_via.get(bad, ())]
            dependents += [(r.id, "P11b") for r in self.relays_by_out.get(bad, ())]
            for holder, code in dependents:
                v = local[holder]
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
        return self._violations.get(relay_id, ["P2"])

    def _check_relay_local(self, relay: Relay, via_deps: dict) -> list:
        v: list = []
        rid = relay.id.rid
        if not relay.alive:
            v.append("P1")
        # P2: id uniqueness is structural (per-layer tables keyed by id and
        # serials minted per layer); nothing to scan.
        # P3: out always stores a (key set, id) pair by construction.
        p4 = p5 = p9 = False
        deps = []
        unconfirmed_keys = None
        for e in relay.in_set:
            if not p5 and (self.in_key_count.get(e.key, 0) > 1 or not belongs_to(e.key, rid)):
                p5 = True
            if not e.confirmed:
                if unconfirmed_keys is None:
                    unconfirmed_keys = set()
                unconfirmed_keys.add(e.key)
                via = self.relays.get(e.via)
                if via is None or e.via.rid != rid:
                    p4 = True
                elif via.alive:
                    # A dead announcing relay is a reversal in flight, still
                    # draining the announcement; only an alive-but-invalid
                    # or missing one condemns the entry.
                    deps.append(e.via)
                if not p9 and not self._pending_entry_backed(relay, e):
                    p9 = True
        if deps:
            via_deps[relay.id] = deps
        if p4:
            v.append("P4")
        if p5:
            v.append("P5")
        for ping in self.pings_by_id.get(relay.id, ()):
            if ping.level != relay.level or ping.sink_rid != relay.sink_rid:
                v.append("P6")
                break
            if unconfirmed_keys and ping.key in unconfirmed_keys:
                v.append("P6")
                break
        if self.orc_ids and relay.id in self.orc_ids:
            v.append("P7")
        if self.notauth_by_out and any(self.valid_header(m, relay.id) for m in self.notauth_by_out.get(relay.id, ())):
            v.append("P8")
        if p9:
            v.append("P9")
        if relay.out_id is None:
            if relay.out_keys or relay.level != 0 or relay.sink_rid != rid:
                v.append("P10")
        else:
            target = self.relays.get(relay.out_id)
            if target is None:
                v.append("P11b")
            else:
                if relay.level != target.level + 1 or relay.sink_rid != target.sink_rid:
                    v.append("P11c")
                if not self._one_key_anchored(relay, target):
                    v.append("P11d")
            for key in relay.out_keys:
                # Only alive co-holders violate uniqueness; a deleted relay
                # keeps its out-keys until the repair loop collects it.
                holders = self.out_key_holders[key]
                if len(holders) > 1 and any(
                    h != relay.id and h.rid == rid and self.relays[h].alive for h in holders
                ):
                    v.append("P11e")
                    break
            for m in self.inrelays_by_target.get(relay.out_id, ()):
                if m.sender_rid == rid and m.keys & relay.out_keys:
                    v.append("P11f")
                    break
        return v

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

    def _no_killer_probe(self, key: Key, via: Relay, allowed: set) -> bool:
        """No probe carrying `key` as a control key, started over `via`'s
        out-keys, sits in a buffer outside the allowed chain prefix."""
        for carrier, probe in self.probes_by_control.get(key, ()):
            if probe.key_sequence[0] not in via.out_keys:
                continue
            if carrier is None or carrier not in allowed:
                return False
        return True

    def _pending_entry_backed(self, relay: Relay, entry) -> bool:
        """The unconfirmed In entry still has a live confirmation path."""
        via = self.relays.get(entry.via)
        if via is None or self._probe_failed(entry.key, via):
            return False
        chain = self._chain_from(via)
        if chain is None:
            return False
        key = entry.key
        # Far side already created its relay and the activation probe is on
        # its way back.
        sink_rid = via.sink_rid
        for candidate in self.relays_by_out.get(relay.id, ()):
            if (
                candidate.id.rid == sink_rid
                and key in candidate.out_keys
                and candidate.level == relay.level + 1
            ):
                if any(
                    isinstance(env.message, Transmit)
                    and isinstance(env.message.action, Probe)
                    and env.message.action.key_sequence == (key,)
                    and not env.message.action.control_keys
                    and self.valid_header(env.message, relay.id)
                    for env in candidate.buf
                ):
                    allowed = {r.id for r in chain[:-1]}
                    if self._no_killer_probe(key, via, allowed):
                        return True
        # Or the announcing message is still in transit along the chain.
        for j in range(len(chain) - 1):
            holder, nxt = chain[j], chain[j + 1]
            for env in holder.buf:
                msg = env.message
                if (
                    isinstance(msg, Transmit)
                    and not isinstance(msg.action, Probe)
                    and any(p.key == key for p in _params_of(msg))
                    and self.valid_header(msg, nxt.id)
                ):
                    allowed = {r.id for r in chain[: j + 1]}
                    if self._no_killer_probe(key, via, allowed):
                        return True
        return False

    def _one_key_anchored(self, relay: Relay, target: Relay) -> bool:
        rid = relay.id.rid
        for e in target.in_set:
            key = e.key
            if key not in relay.out_keys:
                continue
            if e.confirmed:
                if e.from_rid == rid:
                    return True
                continue
            via = self.relays.get(e.via)
            if via is not None and via.sink_rid == rid:
                if any(
                    isinstance(env.message, Transmit)
                    and isinstance(env.message.action, Probe)
                    and env.message.header.key == key
                    and env.message.header.in_id == relay.id
                    and env.message.header.out_id == relay.out_id
                    and env.message.action.key_sequence == (key,)
                    for env in relay.buf
                ):
                    return True
        return False

    # -- header validity -------------------------------------------------------

    def valid_header(self, message: Transmit, relay_id: RelayId) -> bool:
        relay = self.relays.get(relay_id)
        if relay is None:
            return False
        layer = self.world.layers.get(relay_id.rid)
        return layer is not None and layer.header_valid_for(relay, message.header)

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
        announced = None
        for e in target.in_set:
            if not e.confirmed and e.key == param.key:
                via = self.relays.get(e.via)
                if (
                    via is not None
                    and e.via.rid == target.id.rid
                    and (not via.alive or self.relay_valid(via.id))
                    and carrier is not None
                    and via.sink_rid == carrier.sink_rid
                ):
                    announced = via
                    break
        if announced is None or not belongs_to(param.key, target.id.rid):
            v.append("C5")
        rids = {p.id.rid for p in _params_of(message)}
        if len(rids) > 1:
            v.append("C6")
        if self.out_key_holders.get(param.key):
            v.append("C7")
        if self.header_key_count.get(param.key, 0) > 0:
            v.append("C8")
        # No C9 check: a ProbeFail for the key over `announced` would leave the
        # target's pending entry unbacked (`_pending_entry_backed` tests
        # `_probe_failed`), and the target passed C3, so it has none.
        if announced is not None and not self._probe_positions_ok(param.key, announced, message):
            v.append("C10")
        if any(param.key in m.keys for m in self.inrelays_by_target.get(target.id, ())):
            v.append("C11")
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
        chain = self._chain_from(announced)
        if chain is None:
            return False
        positions = {r.id: i for i, r in enumerate(chain)}
        message_pos = None
        for i, r in enumerate(chain):
            if any(env.message is message for env in r.buf):
                message_pos = i
                break
        for carrier, probe in relevant:
            k = len(probe.key_sequence)
            if carrier is None or positions.get(carrier) != k - 1:
                return False
            for j, seq_key in enumerate(probe.key_sequence):
                if j >= len(chain) or seq_key not in chain[j].out_keys:
                    return False
            if message_pos is None or message_pos < k:
                return False
        return True

    # -- aggregates ---------------------------------------------------------------

    def is_legal(self) -> bool:
        # Decides relay validity by the rule stated above `_evaluate_all`.
        for relay in self.relays.values():
            if relay.alive and (
                self._check_relay_local(relay, {})
                or relay.out_id is not None and not self.relays[relay.out_id].alive
            ):
                return False
        self._alive_valid = True
        for carrier_id, message, param in self.params:
            if carrier_id is None:
                continue
            carrier = self.relays.get(carrier_id)
            if carrier is None:
                continue
            violations = self.param_violations(carrier_id, message, param)
            if not carrier.alive:
                # A reversal leaves the reference draining out of a dead
                # carrier; that is fine exactly as long as everything else
                # about it is intact, because delivery then recreates a
                # valid relay.
                violations = [v for v in violations if v != "C1"]
            if violations:
                return False
        return True

    def valid_graph_cycle_free(self) -> bool:
        """No directed cycle among valid relays' outgoing connections."""
        valid_ids = {r.id for r in self.relays.values() if r.alive and self.relay_valid(r.id)}
        color: dict = {}

        def dfs(rid: RelayId) -> bool:
            color[rid] = 1
            nxt = self.relays[rid].out_id
            if nxt in valid_ids:
                c = color.get(nxt, 0)
                if c == 1:
                    return False
                if c == 0 and not dfs(nxt):
                    return False
            color[rid] = 2
            return True

        for rid in valid_ids:
            if color.get(rid, 0) == 0 and not dfs(rid):
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
            msg = env.message
            if isinstance(msg, Transmit):
                for p in _params_of(msg):
                    if p.id in all_relays:
                        g.implicit_edges.add(((RELAY, relay.id), (RELAY, p.id)))
    return g


def weakly_connected_components(graph: RelayGraph) -> list:
    """Partition of the process vertices by weak connectivity, each part
    sorted, the parts ordered by their smallest pid.

    Walks start from process vertices only, in ascending pid order:
    components that hold only relays are never walked.
    """
    adj: dict = {v: [] for v in graph.vertices}
    for a, b in graph.edges:
        if a in adj and b in adj:
            adj[a].append(b)
            adj[b].append(a)
    seen: set = set()
    components = []
    for v in sorted(v for v in graph.vertices if v[0] == PROCESS):
        if v in seen:
            continue
        stack = [v]
        seen.add(v)
        members = []
        while stack:
            node = stack.pop()
            members.append(node)
            for nb in adj[node]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        components.append(sorted(n[1] for n in members if n[0] == PROCESS))
    return components


def process_components(world: WorldState) -> list:
    return weakly_connected_components(extract_relay_graph(world))


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
            if relay is None:
                continue
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
