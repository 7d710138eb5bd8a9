"""Deterministic discrete-event execution of relay layers.

The kernel owns the world: processes, their relay layers, and every message
still in some buffer.  One step executes exactly one enabled action, chosen
by a seeded weakly fair scheduler: a layer timeout, a single message
delivery (non-FIFO, any buffered message may go next), or one application
action.  Same seed, same scenario, same state sequence.  The scheduler
indexes the enabled actions as they change instead of scanning them: a
forced pick takes the head of one queue of every enabled action, kept in
ascending key order, and a random pick walks per-layer message counts to
the envelope at the drawn position.  `WorldState.step` picks and runs the
action in one call.  A random pick's draw consumes exactly what
`rng.randrange(len(actions))` would: the same `getrandbits` calls, so the
same seed picks the same index.  The queue's key is the whole tie-break
rule: (birth or last run, -rank, -rid or -pid, -uid or 0, uid or pid),
with the ranks timeout 0, tick 1, relay buffer 2, layer buffer 3 and
orphan 4; an orphan's is (birth, -rank, -uid, 0, uid).  Only this module
builds those keys: every envelope enters a buffer through `PendingIndex`'s
emitters.  After the first `fairness_bound` steps a random pick happens
only while at most `fairness_bound` timeouts and ticks are enabled, and
every live layer has an enabled timeout, so that walk visits at most
`fairness_bound` layers.
"""

from __future__ import annotations

import hashlib
import json
import random
from bisect import insort
from collections import deque
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

# A world's default bound on the age of its oldest enabled action.
FAIRNESS_BOUND = 64


def derive_seed(*parts) -> int:
    """Stable cross-process seed derivation (str hashing is randomized)."""
    blob = ":".join(map(str, parts)).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


class ProcessContext:
    """One process: its flags, application, private store, rng and relay
    layer.  Application code gets this record and reaches the overlay only
    through `layer`, its own layer's primitives, and `send` and `stop`;
    `send` passes every RelayRef parameter on as a relay reference.
    `layer` stays the process's own layer after it shuts down and leaves the
    world: every primitive that could change a layer returns early once its
    owner stops, and a shut-down layer has no relays and an empty layer
    buffer, so each call returns its default.

    `active` reads the layer's `owner_alive` flag, which only `stop()`
    clears.  Assigning `app` or calling `stop()` calls `on_change(pid,
    enabled)`, so the world's scheduler keeps its set of enabled application
    actions current without rescanning the processes on every step.  Neither
    the hook nor the record may hold the world: a reference cycle would keep
    finished worlds alive until the cyclic garbage collector runs.  The
    layer never points back here.
    """

    __slots__ = ("pid", "leaving", "store", "rng", "layer", "_app", "on_change")

    def __init__(self, pid: int, rng: random.Random, layer: RelayLayer, app: Optional[object], on_change: Callable) -> None:
        self.pid = pid
        self.leaving = False
        self.store: dict = {}
        self.rng = rng
        self.layer = layer
        self._app = app
        self.on_change = on_change

    @property
    def active(self) -> bool:
        return self.layer.owner_alive

    @property
    def app(self) -> Optional[object]:
        return self._app

    @app.setter
    def app(self, value: Optional[object]) -> None:
        self._app = value
        self.on_change(self.pid, self.enabled)

    @property
    def enabled(self) -> bool:
        """The process has an application action for the scheduler."""
        return self.layer.owner_alive and self._app is not None

    def send(self, ref: RelayRef, label: str, params: tuple = ()) -> None:
        self.layer.send(ref, ActionInvocation(label, params))

    def stop(self) -> None:
        self.layer.stop_process()
        self.on_change(self.pid, False)


# Kind ranks in the forced pick's tie-break: among equally old actions the
# highest rank runs first.
_TIMEOUT, _TICK, _RELAY, _LAYER, _ORPHAN = range(5)
_KINDS = ("timeout", "app", "relay", "layer", "orphan")  # trace names, by rank


class _Recurring:
    """Actions that stay enabled across runs, one per pid: layer timeouts or
    application ticks.  Each one's age counts the steps since it last ran.

    `order` lists the enabled pids in scheduling order (ascending).  Each
    enabling here and each run in `WorldState.step` files (last run, -rank,
    -pid, 0, pid) in `new`, the world's `PendingIndex.new`: live while the
    pid is `on` and `last[pid]` is its time.
    """

    __slots__ = ("last", "on", "order", "new", "rank")

    def __init__(self, new: list, rank: int) -> None:
        self.last: list[int] = []  # by pid; 0 until the first run
        self.on: list[bool] = []
        self.order: list[int] = []
        self.new = new
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
            self.new.append((self.last[pid], -self.rank, -pid, 0, pid))
        else:
            self.order.remove(pid)


class PendingIndex:
    """Envelope uids of one world, and every pending envelope, indexed as
    buffers change.

    Every envelope enters a buffer through one of the two emitters below,
    called by the layers for each message they send and by the builder of
    adversarial starts.  An emitter mints the uid from one monotonic counter
    shared by all layers of a world, files it in `holder`, `new` and
    `counts`, and appends the envelope to its buffer.  Layers report merge
    moves through `moved`, and the kernel a dead layer's buffer through
    `orphaned`.  Delivery lives in `WorldState.step`: it takes the envelope
    out of its buffer and updates `holder` and `counts` in place.

    `holder` maps each pending uid to its relay, or to None in a layer
    buffer or the orphan list.  `queue` and `new` hold the world's
    scheduling entries: an envelope's is (birth, -rank, -rid, -uid, uid),
    an orphan's (birth, -rank, -uid, 0, uid), live while the uid is in
    `holder`.  `queue` is in ascending key order.  `new` collects every
    entry filed since the current step began; it is one list object,
    shared with both `_Recurring`s, so it is cleared and never rebound.
    Each step sorts `new` into `queue` when it begins and then drops the
    stale entries at the head.  `counts` holds the pending envelopes of
    each layer, by rid: the random pick walks them to find its layer.
    Orphans are the kernel's own list.

    An envelope's birth is the step count of the first `step()` that can
    pick it: the kernel sets `stamp` to that value when a step begins.
    """

    def __init__(self) -> None:
        self._next = 0
        self.stamp = 0
        self.holder: dict[int, Optional[Relay]] = {}
        self.queue: deque = deque()
        self.new: list = []
        self.counts: list[int] = []  # by rid

    def emit_buf(self, relay: Relay, message: Message) -> None:
        """File a new envelope of `message` at the end of `relay`'s buffer."""
        uid = self._next
        self._next = uid + 1
        self.holder[uid] = relay
        rid = relay.id.rid
        self.new.append((self.stamp, -_RELAY, -rid, -uid, uid))
        self.counts[rid] += 1
        relay.buf.append(Envelope(uid, message))

    def emit_control(self, layer: RelayLayer, target: Rid, message: Message) -> None:
        """File a new envelope of `message`, addressed to layer `target`, at
        the end of `layer`'s layer buffer."""
        uid = self._next
        self._next = uid + 1
        self.holder[uid] = None
        rid = layer.rid
        self.new.append((self.stamp, -_LAYER, -rid, -uid, uid))
        self.counts[rid] += 1
        layer.layer_buf.append(Envelope(uid, message, target))

    def moved(self, envelopes: list, relay: Relay) -> None:
        """`envelopes` moved into `relay`'s buffer within the same layer."""
        for env in envelopes:
            self.holder[env.uid] = relay

    def orphaned(self, rid: Rid, envelopes: list) -> None:
        """The layer buffer of `rid` moves to the orphans: its sort key changes."""
        moving = {env.uid for env in envelopes}
        if not moving:
            return
        self.counts[rid] -= len(moving)
        # Once per dead layer: the births are read back from the layer-buffer
        # entries, which stay live behind the new ones (same birth, lower rank).
        self.new.extend([(e[0], -_ORPHAN, -e[-1], 0, e[-1])
                         for entries in (self.queue, self.new) for e in entries
                         if e[1] == -_LAYER and e[-1] in moving])


class RunResult(NamedTuple):
    steps: int
    reached: bool


class WorldState:
    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.fairness_bound = FAIRNESS_BOUND
        self.env_source = PendingIndex()
        self.processes: dict[int, ProcessContext] = {}
        self.layers: dict[Rid, RelayLayer] = {}
        self.orphan_out: list[Envelope] = []
        self.step_count = 0
        self.trace: Optional[list] = None
        # Scheduler state, indexed by pid (which is also the rid).
        self._timeouts = _Recurring(self.env_source.new, _TIMEOUT)
        self._apps = _Recurring(self.env_source.new, _TICK)
        # The container the last `is_settled` found unsettled, re-checked
        # before a scan.
        self._unsettled: Optional[tuple] = None

    # -- construction ------------------------------------------------------

    def add_process(self, app: Optional[object] = None) -> int:
        pid = len(self.processes)
        layer = self.layers[pid] = RelayLayer(pid, self.env_source)
        rng = random.Random(derive_seed(self.seed, "proc", pid))
        self.processes[pid] = proc = ProcessContext(pid, rng, layer, app, self._apps.set)
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
    # oldest age exceeds `fairness_bound` (always, for a bound of -1: round
    # robin), the step runs the head of the scheduling queue: the oldest
    # action with the highest sort key.  Otherwise it runs the action at
    # `rng.randrange(len(actions))`, drawn from the same bits.  The indexes
    # below keep each kind in this order as it changes, so `step` never
    # builds the list.  `step` picks and runs the action in one frame, with
    # no action record in between: a forced pick pops the queue's head and
    # finds its envelope by uid, a random pick walks to the drawn position
    # and pops the envelope there.  A timeout or tick records its run
    # (`last` and an entry in `new`) where it runs.
    #
    # A step begins by merging `new`, sorted, into the queue: a plain
    # `extend` unless the batch starts below the queue's tail.  The queue
    # holds what was filed before the previous step began: messages born
    # at now - 1 or earlier and runs before now - 1.  Since then come
    # messages born at now and the previous step's run, re-entered at
    # now - 1 with rank 0 or 1, which sorts after every message born at
    # now - 1.  Only older births are inserted in place: never-run actions
    # (last run 0) that tie with step 0's run or join mid-run, a re-enabled
    # tick, and orphaned layer-buffer envelopes.

    def step(self) -> None:
        now = self.step_count
        pending = self.env_source
        pending.stamp = now + 1
        queue, new, holder = pending.queue, pending.new, pending.holder
        if new:
            new.sort()
            if queue and new[0] < queue[-1]:
                for entry in new:
                    if entry < queue[-1]:
                        insort(queue, entry)
                    else:
                        queue.append(entry)
            else:
                queue.extend(new)
            new.clear()
        recurring = (self._timeouts, self._apps)  # by kind
        while queue:
            oldest, rank, neg_id, _, key = queue[0]
            if rank <= -_RELAY:
                if key in holder:
                    break
            elif recurring[-rank].on[key] and recurring[-rank].last[key] == oldest:
                break
            queue.popleft()  # delivered, disabled or run since
        else:
            self.step_count = now + 1
            return

        # The pick leaves `kind` and, for a timeout or tick, its pid in
        # `key`; for a message, its buffer `buf`, its position `i` there and
        # the rid of the layer holding it (orphans: none).
        kind = -rank
        if now - oldest > self.fairness_bound:
            queue.popleft()  # the head runs: its entry is stale after this step
            if kind >= _RELAY:
                if kind == _RELAY:
                    rid, buf = -neg_id, holder[key].buf
                elif kind == _LAYER:
                    rid = -neg_id
                    buf = self.layers[rid].layer_buf
                else:
                    buf = self.orphan_out
                for i, env in enumerate(buf):
                    if env.uid == key:
                        break
                else:
                    raise KeyError(key)  # the index and the buffers disagree
        else:
            timeouts, apps = self._timeouts.order, self._apps.order
            # `holder` maps every pending uid, orphans included; they come
            # last.  The draw consumes exactly what `rng.randrange(n)` would:
            # CPython's `Random._randbelow` rejects `getrandbits(n.bit_length())`
            # until it is below n.  Inlined, the same bits give the same index
            # without randrange's two Python frames.
            n_timeouts, n_recurring, n_messages = len(timeouts), len(timeouts) + len(apps), len(holder)
            n = n_recurring + n_messages
            bits, getrandbits = n.bit_length(), self.rng.getrandbits
            i = getrandbits(bits)
            while i >= n:
                i = getrandbits(bits)
            if i < n_timeouts:
                kind, key = _TIMEOUT, timeouts[i]
            elif i < n_recurring:
                kind, key = _TICK, apps[i - n_timeouts]
            else:
                i -= n_recurring
                orphan = i - (n_messages - len(self.orphan_out))
                if orphan >= 0:
                    kind, buf, i = _ORPHAN, self.orphan_out, orphan
                else:
                    # A dead layer holds no envelopes, so the live layers
                    # cover them all.  Within a layer its relay buffers
                    # come first, its layer buffer last.
                    counts = pending.counts
                    for layer in self.layers.values():
                        count = counts[layer.rid]
                        if i < count:
                            break
                        i -= count
                    rid, buf = layer.rid, layer.layer_buf
                    in_relays = count - len(buf)
                    if i >= in_relays:
                        kind, i = _LAYER, i - in_relays
                    else:
                        kind = _RELAY
                        for relay in layer.relays.values():
                            buf = relay.buf
                            if i < len(buf):
                                break
                            i -= len(buf)

        if kind <= _TICK:
            if kind == _TIMEOUT:
                layer = self.layers[key]
                layer.timeout()
                if not layer.owner_alive and not layer.relays:
                    pending.orphaned(key, layer.layer_buf)
                    self.orphan_out.extend(layer.layer_buf)
                    layer.layer_buf.clear()
                    del self.layers[key]
                    self._timeouts.set(key, False)
            else:
                # `_apps` schedules a tick only while its process is enabled:
                # the `app` setter and `stop()` report every change to it.
                proc = self.processes[key]
                proc.app.on_tick(proc)
            recurring[kind].last[key] = now
            new.append((now, -kind, -key, 0, key))
            if self.trace is not None:
                self._trace(_KINDS[kind], key)
        else:
            # A message, held by its relay, or by None in a layer buffer or
            # the orphans.  It leaves its buffer and the pending index here.
            env = buf.pop(i)
            relay = holder.pop(env.uid)
            message = env.message
            if kind != _ORPHAN:
                pending.counts[rid] -= 1
            if self.trace is not None:
                self._trace(_KINDS[kind], env.target_rid if kind == _ORPHAN else rid, message)
            if relay is None:
                target = self.layers.get(env.target_rid)
            elif relay.out_id is not None:
                target = self.layers.get(relay.out_id.rid)
            else:
                # A sink hands application invocations to its enabled owner
                # (`processes` never drops one) and drops everything else.
                target, proc = None, self.processes[rid]
                if isinstance(message, ActionInvocation) and proc.enabled:
                    proc.app.on_message(proc, message, RelayRef(relay.id))
            if target is not None:
                target.receive(message)
        self.step_count = now + 1

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

        An unsettled answer keeps the container that broke settledness as
        a witness: a relay, a layer buffer or the orphans.  The next call
        re-checks that container, if it is still in the world, with the
        predicate the scan uses, and scans only when it has settled:
        polling every step costs amortized O(1), because a world usually
        stays unsettled for the same reason from one step to the next.
        True only ever comes from a full scan, and False only from a
        container that is in the world and unsettled now, so edits made
        outside a step cannot make the answer stale.
        """
        if self._unsettled is not None:
            layer, relay = self._unsettled
            if layer is None:
                if not _pings_only(self.orphan_out):
                    return False
            elif self.layers.get(layer.rid) is layer:
                if relay is None:
                    if not _pings_only(layer.layer_buf):
                        return False
                elif layer.relays.get(relay.id) is relay and _relay_unsettled(relay):
                    return False
        self._unsettled = self._find_offender()
        return self._unsettled is None

    def _find_offender(self) -> Optional[tuple]:
        """The first container that breaks settledness: (layer, relay), or
        (layer, None) for a layer buffer, or (None, None) for the orphans;
        None if the world is settled."""
        for layer in self.layers.values():
            for relay in layer.relays.values():
                if _relay_unsettled(relay):
                    return (layer, relay)
            if not _pings_only(layer.layer_buf):
                return (layer, None)
        if not _pings_only(self.orphan_out):
            return (None, None)
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
    """The relay is dead, has an unconfirmed In entry, or holds anything
    but a control-free probe in its buffer."""
    # Loops, not `any()` over a generator: this re-checks the witness on
    # nearly every poll.
    if not relay.alive:
        return True
    for e in relay.in_set:
        if e.via is not None:
            return True
    for env in relay.buf:
        msg = env.message
        if not isinstance(msg, Transmit) or not isinstance(msg.action, Probe) or msg.action.control_keys:
            return True
    return False


def _pings_only(buf: list[Envelope]) -> bool:
    """A layer buffer or the orphan list may hold pings and nothing else."""
    for env in buf:
        if not isinstance(env.message, Ping):
            return False
    return True


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


def door_of(layer: RelayLayer, store: dict) -> Optional[RelayRef]:
    """Return the process's designated inbound sink relay, `store["door"]`,
    creating a new one when there is none or the stored one is no longer an
    alive relay of its layer (an application may delete it, and the repair
    loop collect it)."""
    if layer.dead(store.get("door")):
        store["door"] = layer.new_relay()
    return store["door"]


def give_door(world: WorldState, pid: int) -> RelayRef:
    """`door_of` a running process; a stopped process has no alive sink, so
    it raises ValueError."""
    return door_of(_running_layer(world, pid), world.processes[pid].store)


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


def _wired_world(seed: int, n: int, rng: random.Random, edges: int) -> tuple[WorldState, dict]:
    """A world of `n` processes, each with its door, and `edges` draws of
    door connections: a spanning tree over pids 1..min(n - 1, edges), each
    to a parent below it, then random `(u, v)` pairs, of which only the
    distinct ones connect.  Returns the world and its `(u, v) -> ref` map.
    """
    world = new_world(seed, n)
    for pid in range(n):
        give_door(world, pid)
    edge_refs = {}
    tree = range(1, min(n, edges + 1))
    for pid in tree:
        parent = rng.randrange(pid)
        edge_refs[(pid, parent)] = connect_door(world, pid, parent)
    for _ in range(edges - len(tree)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edge_refs[(u, v)] = connect_door(world, u, v)
    return world, edge_refs


def random_connected_world(
    seed: int,
    n_processes: int,
    extra_edges: int = 2,
    chains: int = 1,
) -> WorldState:
    """Legal, weakly connected world: spanning tree plus extras and chains."""
    rng = random.Random(seed)
    world, edge_refs = _wired_world(seed, n_processes, rng, n_processes - 1 + max(0, extra_edges))
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
    world, _ = _wired_world(seed, n_processes, rng, max(0, n_relays - n_processes))
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
        a = la.add_relay(out_keys={kb}, level=1, sink_rid=0)
        b = lb.add_relay(out_keys={ka}, out_id=a.id, level=1, sink_rid=1)
        a.in_set.add(confirmed_entry(ka, 1))
        b.in_set.add(confirmed_entry(kb, 0))
        a.out_id = b.id

    relays = [r for layer in world.layers.values() for r in layer.relays.values()]
    for _ in range(n_messages):
        kind = rng.randrange(6)
        target = rng.randrange(n)
        layer = world.layers[target]
        if kind == 0:
            world.env_source.emit_control(layer, target, Ping(_fabricated_id(world, rng), rng.randrange(4), rng.randrange(n), _some_key(world, rng)))
        elif kind == 1:
            world.env_source.emit_control(layer, target, ProbeFail(_some_key(world, rng), (_some_key(world, rng),)))
        elif kind == 2:
            world.env_source.emit_control(layer, target, InRelayClosed(frozenset({_some_key(world, rng)}), rng.randrange(n), _fabricated_id(world, rng)))
        elif kind == 3:
            world.env_source.emit_control(layer, target, OutRelayClosed(_fabricated_id(world, rng)))
        elif kind == 4:
            relay = relays[rng.randrange(len(relays))]
            header = Header(_some_key(world, rng), _fabricated_id(world, rng), relay.id, rng.randrange(4))
            world.env_source.emit_control(layer, target, NotAuthorized(Transmit(header, ActionInvocation("noise", ()))))
        else:
            relay = relays[rng.randrange(len(relays))]
            if relay.out_id is None:
                continue
            header = Header(_some_key(world, rng), relay.id, relay.out_id, relay.level)
            params: tuple = ()
            if rng.random() < 0.5:
                params = (RelayParameter(_some_key(world, rng), _fabricated_id(world, rng), 1 + rng.randrange(3), rng.randrange(n)),)
            world.env_source.emit_buf(relay, Transmit(header, ActionInvocation("noise", params)))
