"""Deterministic discrete-event execution of relay layers.

The kernel owns the world: processes, their relay layers, and every message
still in some buffer.  One step executes exactly one enabled action, chosen
by a seeded weakly fair scheduler: a layer timeout, a single message
delivery (non-FIFO, any buffered message may go next), or one application
action.  Same seed, same scenario, same state sequence.  The scheduler
indexes the enabled actions as they change instead of scanning them: a
forced pick takes the top of one heap of every enabled action, and a
random pick walks per-layer message counts.  The heap's key is the whole
tie-break rule: (birth or last run, -rank, -rid or -pid, -uid or 0, uid
or pid), with the ranks timeout 0, tick 1, relay buffer 2, layer buffer 3
and orphan 4; an orphan's is (birth, -rank, -uid, 0, uid).  After the
first `fairness_bound` steps a random pick happens only while at most
`fairness_bound` timeouts and ticks are enabled, and every live layer has
an enabled timeout, so that walk visits at most `fairness_bound` layers.
"""

from __future__ import annotations

import hashlib
import json
import random
from bisect import insort
from heapq import heappop, heappush
from typing import Callable, NamedTuple, Optional

from .core import (
    ActionInvocation,
    Envelope,
    Key,
    Message,
    Relay,
    RelayId,
    RelayRef,
    Rid,
    Transmit,
    Header,
    InRelayClosed,
    NotAuthorized,
    OutRelayClosed,
    Ping,
    Probe,
    ProbeFail,
    RelayParameter,
    confirmed_entry,
    message_json,
    relay_json,
    unconfirmed_entry,
)
from .layer import RelayLayer

MODE_RANDOM = "random"
MODE_ROUND_ROBIN = "round_robin"
# A world's default bound on the age of its oldest enabled action.
FAIRNESS_BOUND = 64


def derive_seed(*parts) -> int:
    """Stable cross-process seed derivation (str hashing is randomized)."""
    blob = ":".join(map(str, parts)).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


class ProcessContext:
    """One process: its flags, application, private store, rng and relay
    layer.  Application code gets this record and reaches the overlay only
    through `layer`, its own layer's primitives, and `send` and `stop`.
    After the layer shuts down, `layer` is a shared stopped layer whose
    primitives return their defaults.

    Assigning `active` or `app` calls `on_change(pid, enabled)`, so the
    world's scheduler keeps its set of enabled application actions current
    without rescanning the processes on every step.  Neither the hook nor
    the record may hold the world: a reference cycle would keep finished
    worlds alive until the cyclic garbage collector runs.  The layer never
    points back here.
    """

    __slots__ = ("pid", "leaving", "store", "rng", "layer", "_active", "_app", "on_change")

    def __init__(self, pid: int, rng: random.Random, layer: RelayLayer, leaving: bool = False,
                 app: Optional[object] = None, on_change: Optional[Callable] = None) -> None:
        self.pid = pid
        self.leaving = leaving
        self.store: dict = {}
        self.rng = rng
        self.layer = layer
        self._active = True
        self._app = app
        self.on_change = on_change

    @property
    def active(self) -> bool:
        return self._active

    @active.setter
    def active(self, value: bool) -> None:
        self._active = value
        if self.on_change is not None:
            self.on_change(self.pid, self.enabled)

    @property
    def app(self) -> Optional[object]:
        return self._app

    @app.setter
    def app(self, value: Optional[object]) -> None:
        self._app = value
        if self.on_change is not None:
            self.on_change(self.pid, self.enabled)

    @property
    def enabled(self) -> bool:
        """The process has an application action for the scheduler."""
        return self._active and self._app is not None

    def send(self, ref: RelayRef, label: str, params: tuple = (), relay_positions: tuple = ()) -> None:
        self.layer.send(ref, ActionInvocation(label, params, relay_positions))

    def stop(self) -> None:
        self.active = False
        self.layer.stop_process()


# Kind ranks in the forced pick's tie-break: among equally old actions the
# highest rank runs first.
_TIMEOUT, _TICK, _RELAY, _LAYER, _ORPHAN = range(5)


class _Recurring:
    """Actions that stay enabled across runs, one per pid: layer timeouts or
    application ticks.  Each one's age counts the steps since it last ran.

    `order` lists the enabled pids in scheduling order (ascending).  Each
    enabling and run pushes (last run, -rank, -pid, 0, pid) into the world's
    scheduling `heap`: live while the pid is `on` and `last[pid]` is its time.
    """

    __slots__ = ("last", "on", "order", "heap", "rank")

    def __init__(self, heap: list, rank: int) -> None:
        self.last: list[int] = []  # by pid; 0 until the first run
        self.on: list[bool] = []
        self.order: list[int] = []
        self.heap = heap
        self.rank = rank

    def add(self, enabled: bool) -> None:
        self.last.append(0)
        self.on.append(False)
        self.set(len(self.on) - 1, enabled)

    def set(self, pid: int, enabled: bool) -> None:
        if enabled == self.on[pid]:
            return
        self.on[pid] = enabled
        if enabled:
            insort(self.order, pid)
            heappush(self.heap, (self.last[pid], -self.rank, -pid, 0, pid))
        else:
            self.order.remove(pid)

    def ran(self, pid: int, now: int) -> None:
        self.last[pid] = now
        heappush(self.heap, (now, -self.rank, -pid, 0, pid))


class PendingIndex:
    """Envelope uids of one world, and every pending envelope, indexed as
    buffers report.

    Uids come from one monotonic counter shared by all layers of a world.
    Every change to a buffer is reported here: a layer's emissions and
    merge moves, and the kernel's deliveries.

    `holder` maps each pending uid to its relay, or to None in a layer
    buffer or the orphan list.  `heap` is the world's scheduling heap: an
    envelope's entry is (birth, -rank, -rid, -uid, uid), an orphan's (birth,
    -rank, -uid, 0, uid), live while the uid is in `holder`.  The forced
    pick drops stale entries when they reach the top.  `counts`
    holds the pending envelopes of each layer, by rid, and `in_layers`
    their total: the random pick walks them to find its layer.  Orphans
    are the kernel's own list.

    An envelope's birth is the step count of the first `step()` that can
    pick it: the kernel sets `stamp` to that value when a step begins.
    """

    def __init__(self) -> None:
        self._next = 0
        self.stamp = 0
        self.holder: dict[int, Optional[Relay]] = {}
        self.heap: list = []
        self.counts: list[int] = []  # by rid
        self.in_layers = 0

    def emit(self, rid: Rid, relay: Optional[Relay]) -> int:
        """Uid of a new envelope entering `relay`'s buffer, or the layer
        buffer of `rid` when `relay` is None."""
        uid = self._next
        self._next = uid + 1
        self.holder[uid] = relay
        rank = _LAYER if relay is None else _RELAY
        heappush(self.heap, (self.stamp, -rank, -rid, -uid, uid))
        self.counts[rid] += 1
        self.in_layers += 1
        return uid

    def moved(self, envelopes: list, relay: Relay) -> None:
        """`envelopes` moved into `relay`'s buffer within the same layer."""
        for env in envelopes:
            self.holder[env.uid] = relay

    def delivered(self, uid: int, rid: Optional[Rid]) -> None:
        """The kernel took `uid` out of layer `rid`, or out of the orphans."""
        del self.holder[uid]
        if rid is not None:
            self.counts[rid] -= 1
            self.in_layers -= 1

    def orphaned(self, rid: Rid, envelopes: list) -> None:
        """The layer buffer of `rid` moves to the orphans: its sort key changes."""
        moving = {env.uid for env in envelopes}
        if not moving:
            return
        self.counts[rid] -= len(moving)
        self.in_layers -= len(moving)
        # Once per dead layer: the births are read back from the layer-buffer
        # entries, which stay live behind the new ones (same birth, lower rank).
        for entry in [e for e in self.heap if e[1] == -_LAYER and e[-1] in moving]:
            uid = entry[-1]
            heappush(self.heap, (entry[0], -_ORPHAN, -uid, 0, uid))


class RunResult(NamedTuple):
    steps: int
    reached: bool


# Stands in for the layer of a process whose layer is gone.  A stopped layer
# without relays gives every primitive its default: no relay (None, []), 0,
# False, dead, and nothing to send, merge, delete or stop.  Every primitive
# that could change a layer returns early once its owner is stopped, so this
# shared instance never changes.
_STOPPED_LAYER = RelayLayer(-1, None)
_STOPPED_LAYER.owner_alive = False


class WorldState:
    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.fairness_bound = FAIRNESS_BOUND
        self.mode = MODE_RANDOM
        self.env_source = PendingIndex()
        self.processes: dict[int, ProcessContext] = {}
        self.layers: dict[Rid, RelayLayer] = {}
        self.orphan_out: list[Envelope] = []
        self.step_count = 0
        self.trace: Optional[list] = None
        # Scheduler state, indexed by pid (which is also the rid).
        self._timeouts = _Recurring(self.env_source.heap, _TIMEOUT)
        self._apps = _Recurring(self.env_source.heap, _TICK)
        # The offender the last `is_settled` found, re-checked before a scan.
        self._unsettled: Optional[tuple] = None

    # -- construction ------------------------------------------------------

    def add_process(self, leaving: bool = False, app: Optional[object] = None) -> int:
        pid = len(self.processes)
        layer = self.layers[pid] = RelayLayer(pid, self.env_source)
        rng = random.Random(derive_seed(self.seed, "proc", pid))
        self.processes[pid] = proc = ProcessContext(pid, rng, layer, leaving, app, self._apps.set)
        self._apps.add(proc.enabled)
        self._timeouts.add(True)
        self.env_source.counts.append(0)
        return pid

    def ctx(self, pid: int) -> ProcessContext:
        return self.processes[pid]

    def layer_of(self, pid: int) -> Optional[RelayLayer]:
        return self.layers.get(pid)

    # -- scheduling ----------------------------------------------------------
    #
    # The enabled actions, in this order: one timeout per layer (in `layers`
    # order), one action per process with an active application (ascending
    # pid), then every buffered message: per layer its relay buffers (in
    # `relays` order) and its layer buffer, then the orphans.  A timeout's
    # or application's age counts the steps since it last ran (since step 0
    # if never); a message's age counts the steps since its birth.  When the
    # oldest age exceeds `fairness_bound`, or always in round-robin mode,
    # the step runs the top of the scheduling heap: the oldest action with
    # the highest sort key.  Otherwise it runs the action at
    # `rng.randrange(len(actions))`.  The indexes below keep each kind in
    # this order as it changes, so `step` never builds the list.

    def step(self) -> None:
        action = self._pick()
        if action is not None:
            self._execute(action)
        self.step_count += 1

    def _pick(self):
        """The action this step runs, or None when nothing is enabled."""
        now = self.step_count
        pending = self.env_source
        pending.stamp = now + 1
        heap, holder = pending.heap, pending.holder
        recurring = (self._timeouts, self._apps)  # by rank
        while heap:
            oldest, rank, neg_id, _, key = heap[0]
            if rank <= -_RELAY:
                if key in holder:
                    break
            elif recurring[-rank].on[key] and recurring[-rank].last[key] == oldest:
                break
            heappop(heap)  # delivered, disabled or run since
        else:
            return None

        if self.mode == MODE_ROUND_ROBIN or now - oldest > self.fairness_bound:
            if rank == -_TIMEOUT:
                return ("timeout", key)
            if rank == -_TICK:
                return ("app", key)
            if rank == -_RELAY:
                return ("relay", -neg_id, holder[key].id, key)
            if rank == -_LAYER:
                return ("layer", -neg_id, key)
            return ("orphan", key)

        timeouts, apps = self._timeouts.order, self._apps.order
        in_layers = pending.in_layers
        i = self.rng.randrange(len(timeouts) + len(apps) + in_layers + len(self.orphan_out))
        if i < len(timeouts):
            return ("timeout", timeouts[i])
        i -= len(timeouts)
        if i < len(apps):
            return ("app", apps[i])
        i -= len(apps)
        if i >= in_layers:
            return ("orphan", self.orphan_out[i - in_layers].uid)
        # A dead layer holds no envelopes, so the live layers cover them all.
        counts = pending.counts
        for layer in self.layers.values():
            if i < counts[layer.rid]:
                break
            i -= counts[layer.rid]
        for relay in layer.relays.values():
            if i < len(relay.buf):
                return ("relay", layer.rid, relay.id, relay.buf[i].uid)
            i -= len(relay.buf)
        return ("layer", layer.rid, layer.layer_buf[i].uid)

    def _execute(self, action) -> None:
        kind = action[0]
        now = self.step_count
        if kind == "timeout":
            rid = action[1]
            layer = self.layers[rid]
            layer.timeout()
            self._timeouts.ran(rid, now)
            if layer.shut_down:
                self.env_source.orphaned(rid, layer.layer_buf)
                self.orphan_out.extend(layer.layer_buf)
                layer.layer_buf.clear()
                del self.layers[rid]
                self.processes[rid].layer = _STOPPED_LAYER
                self._timeouts.set(rid, False)
            if self.trace is not None:
                self._trace(kind, rid)
            return
        if kind == "app":
            pid = action[1]
            proc = self.processes[pid]
            if proc.enabled:
                proc.app.on_tick(proc)
            self._apps.ran(pid, now)
            if self.trace is not None:
                self._trace(kind, pid)
            return
        # A message, held by its relay, or by None in a layer buffer or the orphans.
        uid = action[-1]
        relay = self.env_source.holder[uid]
        if relay is not None:
            rid, buf = relay.id.rid, relay.buf
        elif kind == "layer":
            rid, buf = action[1], self.layers[action[1]].layer_buf
        else:
            rid, buf = None, self.orphan_out
        env = _pop_envelope(buf, uid)
        self.env_source.delivered(uid, rid)
        message = env.message
        if self.trace is not None:
            self._trace(kind, env.target_rid if rid is None else rid, message)
        if relay is not None and relay.out_id is None:
            # A sink hands application invocations to its enabled owner and
            # drops everything else.
            proc = self.processes.get(rid)
            if isinstance(message, ActionInvocation) and proc is not None and proc.enabled:
                proc.app.on_message(proc, message, RelayRef(relay.id))
            return
        target = self.layers.get(env.target_rid if relay is None else relay.out_id.rid)
        if target is not None:
            target.receive(message)

    def _trace(self, kind: str, actor: int, message: Optional[Message] = None) -> None:
        digest = "" if message is None else message_digest(message)
        self.trace.append(f"{self.step_count} {kind} {actor} {digest}")

    # -- predicates / inspection ---------------------------------------------

    def run_until(self, predicate: Callable[["WorldState"], bool], max_steps: int) -> RunResult:
        for i in range(max_steps):
            if predicate(self):
                return RunResult(i, True)
            self.step()
        return RunResult(max_steps, predicate(self))

    def run(self, steps: int) -> None:
        for _ in range(steps):
            self.step()

    def is_settled(self) -> bool:
        """No transient protocol work left: only steady-state noise remains.

        Settled worlds may still carry pings and control-free probes (the
        repair loop emits those forever); everything else - unconfirmed
        entries, dead relays, application payloads in transit, teardown
        notifications - must have drained.

        An unsettled answer keeps its first offender as a witness, and the
        next call re-checks that witness against the live state before it
        scans: polling every step costs amortized O(1), because a world
        usually stays unsettled for the same reason from one step to the
        next.  True only ever comes from a full scan, and False only from
        an offender that exists now, so edits made outside a step cannot
        make the answer stale.
        """
        witness = self._unsettled
        if witness is not None and self._still_offends(*witness):
            return False
        self._unsettled = self._find_offender()
        return self._unsettled is None

    def _still_offends(self, layer, relay, env) -> bool:
        """The witness (layer, relay, envelope) is still in the world and
        still breaks settledness."""
        if layer is None:
            buf = self.orphan_out
        elif self.layers.get(layer.rid) is not layer:
            return False
        elif relay is None:
            buf = layer.layer_buf
        elif layer.relays.get(relay.id) is not relay:
            return False
        elif env is None:
            return _relay_unsettled(relay)
        else:
            buf = relay.buf
        for e in buf:
            if e is env:
                return _envelope_unsettled(relay, env.message)
        return False

    def _find_offender(self) -> Optional[tuple]:
        """The first (layer, relay, envelope) that breaks settledness, with
        None in the parts that do not apply; None if the world is settled."""
        for layer in self.layers.values():
            for relay in layer.relays.values():
                if _relay_unsettled(relay):
                    return (layer, relay, None)
                for env in relay.buf:
                    if _envelope_unsettled(relay, env.message):
                        return (layer, relay, env)
            for env in layer.layer_buf:
                if _envelope_unsettled(None, env.message):
                    return (layer, None, env)
        for env in self.orphan_out:
            if _envelope_unsettled(None, env.message):
                return (None, None, env)
        return None

    def find_relay(self, relay_id: RelayId) -> Optional[Relay]:
        layer = self.layers.get(relay_id.rid)
        if layer is None:
            return None
        return layer.relays.get(relay_id)

    def state_hash(self) -> str:
        """sha256 of the world's canonical JSON, fed one layer at a time in
        the string order `sort_keys` gives their keys ("10" before "2"), so
        only one layer's dict and text exist at once."""
        h = hashlib.sha256(b'{"layers":{')
        for i, rid in enumerate(sorted(self.layers, key=str)):
            layer = self.layers[rid]
            h.update(f'{"," if i else ""}"{rid}":'.encode())
            h.update(_canonical({
                "ownerAlive": layer.owner_alive,
                "relays": [relay_json(r) for r in sorted(layer.relays.values(), key=lambda r: r.id)],
                "Buf": [[env.target_rid, message_json(env.message)] for env in layer.layer_buf],
            }).encode())
        h.update(b"}," + _canonical({
            "step": self.step_count,
            "processes": {str(pid): {"leaving": p.leaving, "active": p.active} for pid, p in self.processes.items()},
            "orphans": [[env.target_rid, message_json(env.message)] for env in self.orphan_out],
        })[1:].encode())
        return h.hexdigest()


def _relay_unsettled(relay: Relay) -> bool:
    return not relay.alive or any(not e.confirmed for e in relay.in_set)


def _envelope_unsettled(relay: Optional[Relay], msg: Message) -> bool:
    """A relay buffer may hold control-free probes, a layer buffer or the
    orphan list (relay None) pings; anything else is transient work."""
    if relay is None:
        return not isinstance(msg, Ping)
    return not isinstance(msg, Transmit) or not isinstance(msg.action, Probe) or bool(msg.action.control_keys)


def _pop_envelope(buf: list, uid: int) -> Envelope:
    for i, env in enumerate(buf):
        if env.uid == uid:
            return buf.pop(i)
    raise KeyError(uid)


# Canonical JSON text: sorted keys, no spaces.
_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def message_digest(message: Message) -> str:
    return hashlib.sha1(_canonical(message_json(message)).encode()).hexdigest()[:10]


# ---------------------------------------------------------------------------
# World builders.


def new_world(seed: int, n_processes: int) -> WorldState:
    world = WorldState(seed)
    for _ in range(n_processes):
        world.add_process()
    return world


def _running_layer(world: WorldState, pid: int) -> RelayLayer:
    if not world.processes[pid].layer.owner_alive:
        raise ValueError(f"process {pid} is stopped")
    return world.processes[pid].layer


def give_door(world: WorldState, pid: int) -> RelayRef:
    """Return the process's designated inbound sink relay, creating a new
    one when there is none or the stored one is no longer an alive relay of
    its layer (an application may delete it, and the repair loop collect it).
    A stopped process has no alive sink, so it raises ValueError."""
    store = world.processes[pid].store
    door = store.get("door")
    relay = world.find_relay(door.relay_id) if door is not None else None
    if relay is None or not relay.alive:
        store["door"] = _running_layer(world, pid).new_relay()
    return store["door"]


def connect(world: WorldState, u: int, target_relay_id: RelayId) -> RelayRef:
    """Wire a confirmed connection: a new relay of `u` feeding `target_relay_id`.

    Builds the post-handshake shape directly: the target's layer mints the
    key, registers it as confirmed from `u`, and `u` holds it as the single
    outgoing key.  Raises ValueError unless the target exists, is alive and `u` runs.
    """
    layer = _running_layer(world, u)
    target = world.find_relay(target_relay_id)
    if target is None or not target.alive:
        raise ValueError(f"relay {target_relay_id} is missing or dead")
    key = world.layers[target.id.rid].mint_key()
    target.in_set.add(confirmed_entry(key, u))
    relay = layer.add_relay(
        out_keys={key}, out_id=target.id, level=target.level + 1, sink_rid=target.sink_rid
    )
    return RelayRef(relay.id)


def connect_door(world: WorldState, u: int, v: int) -> RelayRef:
    """Confirmed direct connection from `u` to `v`'s door sink."""
    return connect(world, u, give_door(world, v).relay_id)


def fig_triangle(seed: int = 0) -> WorldState:
    """Three processes u, v, w: v owns a sink r; relays q (at u) and p (at w) feed r."""
    world = new_world(seed, 3)
    u, v, w = 0, 1, 2
    r_ref = give_door(world, v)
    q_ref = connect(world, u, r_ref.relay_id)
    p_ref = connect(world, w, r_ref.relay_id)
    world.processes[u].store["out"] = q_ref
    world.processes[w].store["out"] = p_ref
    return world


def random_connected_world(
    seed: int,
    n_processes: int,
    extra_edges: int = 2,
    chains: int = 1,
) -> WorldState:
    """Legal, weakly connected world: spanning tree plus extras and chains."""
    rng = random.Random(seed)
    world = new_world(seed, n_processes)
    for pid in range(n_processes):
        give_door(world, pid)
    edge_refs = {}
    for pid in range(1, n_processes):
        parent = rng.randrange(pid)
        edge_refs[(pid, parent)] = connect_door(world, pid, parent)
    for _ in range(extra_edges):
        u, v = rng.randrange(n_processes), rng.randrange(n_processes)
        if u != v:
            edge_refs[(u, v)] = connect_door(world, u, v)
    candidates = sorted(edge_refs.items())  # edge keys are distinct: refs never compare
    for _ in range(chains if candidates else 0):
        # A second-hop relay feeding an existing non-sink relay.
        (owner, _), ref = candidates[rng.randrange(len(candidates))]
        hopper = rng.randrange(n_processes)
        if hopper != owner:
            connect(world, hopper, ref.relay_id)
    return world


# ---------------------------------------------------------------------------
# Adversarial initial states.

CORRUPTION_PROFILES = ("none", "mixed")


def adversarial_init(
    seed: int,
    n_processes: int,
    n_relays: int,
    n_messages: int,
    corruption_profile: str = "mixed",
) -> WorldState:
    """Seeded initial state: all processes active, finitely many messages,
    every identifier resolving to an existing process, everything else fair
    game for corruption."""
    if corruption_profile not in CORRUPTION_PROFILES:
        raise ValueError(f"unknown corruption profile: {corruption_profile}")
    rng = random.Random(derive_seed(seed, corruption_profile))
    world = new_world(seed, n_processes)
    for pid in range(n_processes):
        give_door(world, pid)
    budget = max(0, n_relays - n_processes)
    connections = []
    for pid in range(1, n_processes):
        if budget <= 0:
            break
        connections.append(connect_door(world, pid, rng.randrange(pid)))
        budget -= 1
    while budget > 0:
        u, v = rng.randrange(n_processes), rng.randrange(n_processes)
        if u != v:
            connections.append(connect_door(world, u, v))
        budget -= 1
    if corruption_profile == "none":
        return world
    _corrupt(world, rng, n_messages)
    return world


def _fabricated_id(world: WorldState, rng: random.Random) -> RelayId:
    # Valid rid (existing process), relay that does not exist.
    return RelayId(rng.randrange(len(world.processes)), 900 + rng.randrange(100))


def _some_key(world: WorldState, rng: random.Random) -> Key:
    layer = world.layers[rng.randrange(len(world.processes))]
    return layer.mint_key()

def _corrupt(world: WorldState, rng: random.Random, n_messages: int) -> None:
    n = len(world.processes)
    relays = [r for layer in world.layers.values() for r in layer.relays.values()]
    for relay in relays:
        roll = rng.random()
        if roll < 0.25:
            relay.level = rng.randrange(5)
        elif roll < 0.4:
            relay.sink_rid = rng.randrange(n)
        if rng.random() < 0.2:
            # Foreign or duplicated key in the In set.
            key = _some_key(world, rng)
            relay.in_set.add(confirmed_entry(key, rng.randrange(n)))
        if rng.random() < 0.2:
            # Unconfirmed entry announced via a dangling id or an existing
            # local non-sink relay.  A sink can never be the announcing
            # relay (local sends serialize nothing), and nothing could ever
            # probe such an entry away.
            layer = world.layers[relay.id.rid]
            local_nonsinks = [r for r in layer.relays.values() if r.out_id is not None]
            if local_nonsinks and rng.random() < 0.5:
                via = local_nonsinks[rng.randrange(len(local_nonsinks))].id
            else:
                via = RelayId(relay.id.rid, 900 + rng.randrange(100))
            relay.in_set.add(unconfirmed_entry(layer.mint_key(), via))
        if rng.random() < 0.15 and relay.out_id is not None:
            relay.out_keys.clear()
        if rng.random() < 0.1:
            relay.alive = False

    # A relay aimed at a fabricated target, and one two-relay cycle.
    for _ in range(2):
        owner = rng.randrange(n)
        layer = world.layer_of(owner)
        layer.add_relay(
            out_keys={layer.mint_key()},
            out_id=_fabricated_id(world, rng),
            level=1 + rng.randrange(3),
            sink_rid=rng.randrange(n),
        )
    if n >= 2:
        la, lb = world.layer_of(0), world.layer_of(1)
        ka, kb = la.mint_key(), lb.mint_key()
        a = la.add_relay(out_keys={kb}, level=1, sink_rid=0, in_set={confirmed_entry(ka, 1)})
        b = lb.add_relay(out_keys={ka}, out_id=a.id, level=1, sink_rid=1, in_set={confirmed_entry(kb, 0)})
        a.out_id = b.id

    relays = [r for layer in world.layers.values() for r in layer.relays.values()]
    for _ in range(n_messages):
        kind = rng.randrange(6)
        target = rng.randrange(n)
        layer = world.layers[target]
        if kind == 0:
            layer._emit_control(target, Ping(_fabricated_id(world, rng), rng.randrange(4), rng.randrange(n), _some_key(world, rng)))
        elif kind == 1:
            layer._emit_control(target, ProbeFail(_some_key(world, rng), (_some_key(world, rng),)))
        elif kind == 2:
            layer._emit_control(target, InRelayClosed(frozenset({_some_key(world, rng)}), rng.randrange(n), _fabricated_id(world, rng)))
        elif kind == 3:
            layer._emit_control(target, OutRelayClosed(_fabricated_id(world, rng)))
        elif kind == 4:
            relay = relays[rng.randrange(len(relays))]
            header = Header(_some_key(world, rng), _fabricated_id(world, rng), relay.id, rng.randrange(4))
            layer._emit_control(target, NotAuthorized(Transmit(header, ActionInvocation("noise", ()))))
        else:
            relay = relays[rng.randrange(len(relays))]
            if relay.out_id is None:
                continue
            header = Header(_some_key(world, rng), relay.id, relay.out_id, relay.level)
            params: tuple = ()
            positions: tuple = ()
            if rng.random() < 0.5:
                param = RelayParameter(_some_key(world, rng), _fabricated_id(world, rng), 1 + rng.randrange(3), rng.randrange(n))
                params, positions = (param,), (0,)
            world.layers[relay.id.rid]._emit_buf(relay, Transmit(header, ActionInvocation("noise", params, positions)))
