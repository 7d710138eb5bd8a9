"""Topology transformation over the relay layer.

Three rules manipulate the relay graph from the application side:
introduction (send a reference, keep the carrier), fusion (merge two
same-target relays), and reversal (send a reference, then close the
carrier).  This module expresses them as macros over the layer primitives,
projects quiescent worlds onto process multigraphs, emulates the four
classical process rules, and plans full topology transformations, whose
steps the executor applies in place and settles one at a time.  The
planner adds each missing edge along a shortest path between its
endpoints, so a local edit gets a short plan at any graph size.

Plans are symbolic: steps name relays through per-process slots so a plan
can be inspected and replayed.  The receiving side of every
introduction files the new reference under the slot the planner chose.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter, deque
from dataclasses import dataclass
from typing import Callable, Optional

from .core import ActionInvocation, RelayRef, Transmit
from .kernel import ProcessContext, WorldState, connect, new_world


class PlanError(Exception):
    pass


# ---------------------------------------------------------------------------
# Process multigraph and its extraction from a quiescent world.


@dataclass(frozen=True)
class ProcessMultigraph:
    processes: tuple
    edges: tuple  # sorted multiset of (u, v) pairs

    @staticmethod
    def of(processes, edges) -> "ProcessMultigraph":
        return ProcessMultigraph(tuple(sorted(processes)), tuple(sorted(edges)))

    def _bfs_tree(self, root: int) -> dict:
        """Breadth-first tree of the undirected graph from `root`, as
        process -> parent (None at the root) in visit order; neighbours are
        visited in ascending order."""
        adj = {p: set() for p in self.processes}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        parent = {root: None}
        queue = deque([root])
        while queue:
            node = queue.popleft()
            for nb in sorted(adj[node]):
                if nb not in parent:
                    parent[nb] = node
                    queue.append(nb)
        return parent

    def is_weakly_connected(self) -> bool:
        return not self.processes or len(self._bfs_tree(self.processes[0])) == len(self.processes)


def cpg(world: WorldState) -> ProcessMultigraph:
    """Corresponding process graph of a simple, quiescent relay graph.

    Requires every relay alive and direct, no references in transit, and no
    relay chain longer than one hop.  Sinks may have any number of incoming
    connections (zero-incoming sinks are private pseudonyms and project to
    nothing).
    """
    edges = []
    for rid, layer in world.layers.items():
        for relay in layer.relays.values():
            if not relay.alive:
                raise PlanError(f"relay graph not simple: {relay.id} is dead")
            for env in relay.buf:
                msg = env.message
                if isinstance(msg, ActionInvocation) or (isinstance(msg, Transmit) and isinstance(msg.action, ActionInvocation)):
                    raise PlanError(f"relay graph not simple: payload in transit at {relay.id}")
            if relay.out_id is None:
                continue
            if relay.level != 1:
                raise PlanError(f"relay graph not simple: {relay.id} is indirect")
            target = world.find_relay(relay.out_id)
            if target is None or target.out_id is not None:
                raise PlanError(f"relay graph not simple: {relay.id} does not end at a sink")
            edges.append((rid, target.id.rid))
    return ProcessMultigraph.of([p for p in world.processes], edges)


# ---------------------------------------------------------------------------
# The three rules as application macros.


def relay_introduction(world: WorldState, pid: int, r: RelayRef, s: RelayRef) -> None:
    """Send a reference of `s` to the target of `r`, keeping both relays."""
    world.ctx(pid).send(r, "introduce", (s,))


def relay_fusion(world: WorldState, pid: int, r: RelayRef, r2: RelayRef) -> Optional[RelayRef]:
    """Merge two same-target relays; returns the merged reference or None."""
    return world.ctx(pid).layer.merge({r, r2})


def relay_reversal(world: WorldState, pid: int, r: RelayRef, s: RelayRef) -> bool:
    """Send a reference of `s` via `r`, then close `r`.

    Rejected (returns False, no state change) unless r != s and r has no
    incoming connections.
    """
    ctx = world.ctx(pid)
    if r == s or ctx.layer.incoming(r) != 0 or ctx.layer.dead(r):
        return False
    ctx.send(r, "introduce", (s,))
    ctx.layer.delete_relay(r)
    return True


# ---------------------------------------------------------------------------
# Plan steps.


@dataclass(frozen=True)
class NewRelayStep:
    pid: int
    slot: str


@dataclass(frozen=True)
class IntroductionStep:
    pid: int
    via_slot: str
    carry_slot: str
    to_slot: str


@dataclass(frozen=True)
class ReversalStep:
    pid: int
    via_slot: str
    carry_slot: str
    to_slot: Optional[str]  # None: the receiver discards the reference


@dataclass(frozen=True)
class FusionStep:
    pid: int
    slot_a: str
    slot_b: str
    to_slot: str


@dataclass
class TransformPlan:
    steps: list
    initial_slots: dict  # (pid, slot) -> RelayId


def initial_slots(world: WorldState) -> dict:
    """The slot every relay of `world` starts a plan under, as
    (pid, "w<rid>_<serial>") -> RelayId."""
    return {
        (pid, f"w{relay.id.rid}_{relay.id.serial}"): relay.id
        for pid, layer in world.layers.items()
        for relay in layer.relays.values()
    }


# ---------------------------------------------------------------------------
# Plan execution: each step applied in place, settled before the next.


def _perform(ctx: ProcessContext, step) -> None:
    """Apply one plan step at its process, as one application action."""
    if not ctx.active:
        raise PlanError(f"process {ctx.pid} is stopped: {step}")
    slots = ctx.store["slots"]
    if isinstance(step, NewRelayStep):
        slots[step.slot] = ctx.layer.new_relay()
    elif isinstance(step, IntroductionStep):
        ctx.send(slots[step.via_slot], "adopt", (slots[step.carry_slot], step.to_slot))
    elif isinstance(step, ReversalStep):
        if ctx.layer.incoming(slots[step.via_slot]) != 0:
            raise PlanError(f"reversal precondition failed at {step}")
        via = slots.pop(step.via_slot)
        label = "adopt" if step.to_slot is not None else "discard"
        ctx.send(via, label, (slots[step.carry_slot], step.to_slot))
        ctx.layer.delete_relay(via)
    elif isinstance(step, FusionStep):
        merged = ctx.layer.merge({slots[step.slot_a], slots[step.slot_b]})
        if merged is None:
            raise PlanError(f"fusion merged nothing at {step}")
        del slots[step.slot_a], slots[step.slot_b]
        slots[step.to_slot] = merged


class TransformApp:
    """Files received references under the slots the plan designates.
    Plan steps run through `execute_plan`, so a tick does nothing."""

    def on_tick(self, ctx: ProcessContext) -> None:
        pass

    def on_message(self, ctx: ProcessContext, action: ActionInvocation, via: RelayRef) -> None:
        if action.label == "adopt":
            ref, slot = action.params
            if ref is None:
                raise PlanError("adoption lost to a duplicate key")
            ctx.store["slots"][slot] = ref
        elif action.label == "discard":
            ref = action.params[0]
            if ref is not None:
                ctx.layer.delete_relay(ref)


PER_STEP_BUDGET = 8000  # kernel steps a plan step may take to settle


def execute_plan(world: WorldState, plan: TransformPlan, on_step=None) -> None:
    """Run a plan to completion, settling the world between steps.

    Every process gets a `TransformApp`; its slots persist, so one world may
    run several plans.  Each step runs in place between two kernel steps, as
    one application action of its process, and the world then runs until
    `is_settled`: a `NewRelayStep` costs no kernel step.  A step at a
    stopped process raises `PlanError` naming it.  A trace shows a step only
    through the messages it sends; `on_step(world, i, step)` is the per-step
    hook.  Relays the plan does not name stay as they are.
    """
    for proc in world.processes.values():
        proc.app = TransformApp()
        proc.store.setdefault("slots", {})
    for (pid, slot), relay_id in plan.initial_slots.items():
        world.processes[pid].store["slots"][slot] = RelayRef(relay_id)
    for i, step in enumerate(plan.steps):
        _perform(world.processes[step.pid], step)
        # Looked up per step, so a wrapper put on the class sees every poll.
        res = world.run_until(type(world).is_settled, PER_STEP_BUDGET)
        if not res.reached:
            raise PlanError(f"step {i} ({step}) did not settle within {PER_STEP_BUDGET} steps")
        if on_step is not None:
            on_step(world, i, step)


# ---------------------------------------------------------------------------
# Emulation fragments for the classical process rules.
#
# Slot names, and the order in which they draw from the counter, are frozen:
# they travel in `adopt` messages, so they reach trace digests and
# `state_hash`.  Hence `bindings.get("result", fresh("e"))` draws a number
# even when a result slot is bound.


def _namer() -> Callable[[str], str]:
    """Fresh slot names: the prefix followed by a counter shared by all."""
    counter = itertools.count(1)
    return lambda prefix: f"{prefix}{next(counter)}"


def _swap_out(pid: int, via_slot: str, carry_slot: str, to_slot: Optional[str]) -> list:
    """pid makes a relay under `carry_slot`, then reverses `via_slot` out
    carrying it; the receiver files it under `to_slot` (None: discards it)."""
    return [NewRelayStep(pid, carry_slot), ReversalStep(pid, via_slot, carry_slot, to_slot)]


def emulate_process_rule(rule: str, bindings: dict, namer: Optional[Callable[[str], str]] = None) -> list:
    """Plan fragment emulating one classical process rule.

    bindings name the acting processes and the slots of the relays they
    hold: introduction/delegation need u, v, w plus u_to_v and u_to_w;
    fusion needs u, v plus slot_a and slot_b (and same_target: bool);
    reversal needs u, v plus u_to_v.  Result slots are returned inside the
    steps themselves.  `namer` maps a prefix to a fresh slot name.
    """
    fresh = namer or _namer()
    if rule in ("introduction", "delegation"):
        tmp, n = fresh("tmp"), fresh("n")
        hand_over = IntroductionStep if rule == "introduction" else ReversalStep
        first = hand_over(bindings["u"], bindings["u_to_w"], bindings["u_to_v"], tmp)
        return [first, *_swap_out(bindings["w"], tmp, n, bindings.get("result", fresh("e")))]
    if rule == "fusion":
        if bindings.get("same_target"):
            result = bindings.get("result", fresh("e"))
            return [FusionStep(bindings["u"], bindings["slot_a"], bindings["slot_b"], result)]
        return _swap_out(bindings["u"], bindings["slot_b"], fresh("n"), None)
    if rule == "reversal":
        return _swap_out(bindings["u"], bindings["u_to_v"], fresh("n"), bindings.get("result", fresh("e")))
    raise PlanError(f"unknown process rule: {rule}")


# ---------------------------------------------------------------------------
# Full transformation planner.


class _Planner:
    def __init__(self, world: WorldState) -> None:
        if not world.is_settled():
            raise PlanError("transformation planning requires a settled world")
        self.fresh = _namer()
        self.steps: list = []
        self.initial_slots = initial_slots(world)
        # abstract edges: (u, v) -> list of slot names held by u
        self.edge_slots: dict = {}
        # abstract indirect relays: (owner, slot) -> (sink, target handle or None)
        self.indirect: dict = {}
        self.inbound: Counter = Counter()
        handle_of = {relay_id: handle for handle, relay_id in self.initial_slots.items()}
        for layer in world.layers.values():
            for relay in layer.relays.values():
                if relay.out_id is None:
                    continue
                owner, slot = handle_of[relay.id]
                if relay.level == 1:
                    self._add_edge(owner, relay.sink_rid, slot)
                else:
                    self.indirect[(owner, slot)] = (relay.sink_rid, handle_of.get(relay.out_id))
                if relay.out_id in handle_of:
                    self.inbound[handle_of[relay.out_id]] += 1
        self.pids = list(world.processes)

    # -- multigraph bookkeeping ------------------------------------------

    def m_count(self, u: int, v: int) -> int:
        return len(self.edge_slots.get((u, v), []))

    def _add_edge(self, u: int, v: int, slot: str) -> None:
        self.edge_slots.setdefault((u, v), []).append(slot)

    def _peek_edge(self, u: int, v: int) -> str:
        slots = self.edge_slots.get((u, v))
        if not slots:
            raise PlanError(f"no edge instance ({u},{v}) available")
        return slots[0]

    def _take_edge(self, u: int, v: int) -> str:
        self._peek_edge(u, v)  # raises PlanError when none is left
        return self.edge_slots[(u, v)].pop(0)

    def multigraph(self) -> ProcessMultigraph:
        edges = [edge for edge, slots in self.edge_slots.items() for _ in slots]
        return ProcessMultigraph.of(self.pids, edges)

    # -- fragments ----------------------------------------------------------

    def frag_self_introduction(self, u: int, v: int) -> None:
        """u introduces itself to v over an existing (u,v) edge: adds (v,u)."""
        n, slot = self.fresh("n"), self.fresh("e")
        self.steps += [NewRelayStep(u, n), IntroductionStep(u, self._peek_edge(u, v), n, slot)]
        self._add_edge(v, u, slot)

    def frag_introduction(self, u: int, v: int, w: int) -> None:
        """u introduces v to w using edges (u,v) and (u,w): adds (v,w)."""
        slot = self.fresh("e")
        u_to_v, u_to_w = self._peek_edge(u, v), self._peek_edge(u, w)
        bindings = dict(u=u, v=v, w=w, u_to_v=u_to_v, u_to_w=u_to_w, result=slot)
        self.steps += emulate_process_rule("introduction", bindings, self.fresh)
        self._add_edge(v, w, slot)

    def frag_drop(self, u: int, v: int) -> None:
        """Remove one (u,v) edge; the carried throwaway is discarded by v."""
        self.steps += _swap_out(u, self._take_edge(u, v), self.fresh("n"), None)

    def frag_edge(self, a: int, b: int) -> None:
        """Add one (a,b) edge along a shortest undirected path from a to b:
        walking back from b's neighbour, each path node x introduces its
        predecessor v to b.  Missing (x,b) and (x,v) edges are first made by
        self-introduction over the reverse edge."""
        parent = self.multigraph()._bfs_tree(b)
        if a not in parent:
            raise PlanError("source graph is not weakly connected")
        if parent[a] == b:
            if self.m_count(b, a) == 0:
                self.frag_self_introduction(a, b)
            self.frag_self_introduction(b, a)
            return
        path = [a]
        while path[-1] != b:
            path.append(parent[path[-1]])
        for v, x in reversed(list(zip(path, path[1:-1]))):
            if self.m_count(x, b) == 0:
                self.frag_self_introduction(b, x)
            if self.m_count(x, v) == 0:
                self.frag_self_introduction(v, x)
            self.frag_introduction(x, v, b)

    # -- phase 1: eliminate indirect relays ----------------------------------

    def phase_eliminate_indirect(self) -> None:
        while self.indirect:
            eligible = [h for h in self.indirect if self.inbound[h] == 0]
            if not eligible:
                raise PlanError("indirect relays form a cycle")
            owner, slot = handle = min(eligible)
            sink, target = self.indirect.pop(handle)
            n, new_slot = self.fresh("n"), self.fresh("e")
            self.steps += _swap_out(owner, slot, n, new_slot)
            self._add_edge(sink, owner, new_slot)
            if target is not None:
                self.inbound[target] -= 1

    # -- phase 2: reach a given edge multiset ---------------------------------

    def phase_to_multiset(self, target: Counter) -> None:
        for (a, b) in sorted(target):
            for _ in range(target[(a, b)] - self.m_count(a, b)):
                self.frag_edge(a, b)
        # Drop every surplus copy; the graph holds the whole target, so it
        # stays connected.
        for (a, b) in sorted(self.edge_slots):
            for _ in range(self.m_count(a, b) - target.get((a, b), 0)):
                self.frag_drop(a, b)


def plan_transform(world: WorldState, target: ProcessMultigraph) -> TransformPlan:
    """Plan a transformation of the world's topology into `target`.

    Both the current and the target graph must be weakly connected over the
    same processes.  The target may not have self-loops; the current graph
    may, and the plan removes them.  Two phases: indirect relays become direct
    edges, then each missing target edge (a, b) is added by introductions
    along a shortest undirected path from a to b, and last every surplus
    edge is dropped.  Edges the target keeps are left alone: a plan's length
    follows the edit and the distance between the endpoints of each added
    edge.
    """
    planner = _Planner(world)
    if tuple(world.processes) != target.processes:
        raise PlanError("target names a different process set")
    if any(u == v for u, v in target.edges):
        raise PlanError("self-loops are not supported")
    if not target.is_weakly_connected():
        raise PlanError("target graph is not weakly connected")
    planner.phase_eliminate_indirect()
    planner.phase_to_multiset(Counter(target.edges))
    return TransformPlan(planner.steps, planner.initial_slots)


# ---------------------------------------------------------------------------
# World realizations of process multigraphs (used by tests and the harness).


def build_simple_realization(
    seed: int, graph: ProcessMultigraph, shared_sinks: bool = False
) -> WorldState:
    """A legal world whose process projection equals `graph`.

    Each edge (u, v) is one direct relay of u feeding a sink of v; with
    shared_sinks, parallel edges reuse one sink, which makes the parallel
    relays mergeable (same target).
    """
    world = new_world(seed, len(graph.processes))
    sink_for = {}
    for u, v in sorted(graph.edges):
        if shared_sinks and (u, v) in sink_for:
            sink_id = sink_for[(u, v)]
        else:
            ref = world.layer_of(v).new_relay()
            sink_id = ref.relay_id
            sink_for[(u, v)] = sink_id
        world.processes[u].store.setdefault("edges", []).append(
            (v, connect(world, u, sink_id))
        )
    return world


def random_multigraph(seed: int, n: int, extra: int = 3, allow_parallel: bool = True) -> ProcessMultigraph:
    rng = random.Random(seed)
    edges = []
    for pid in range(1, n):
        a, b = pid, rng.randrange(pid)
        edges.append((a, b) if rng.random() < 0.5 else (b, a))
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        if not allow_parallel and ((u, v) in edges):
            continue
        edges.append((u, v))
    return ProcessMultigraph.of(range(n), edges)
