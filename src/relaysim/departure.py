"""Departure demo: leaving processes weave themselves out of the overlay.

Every process runs the same actor.  A leaver first tells its neighbors it
is retiring, then chains its remaining outgoing edges together: each tick
it reverses one edge, carrying the reference of the next neighbor, so the
two become connected without it.  The receiver of such a bridge holds an
indirect reference and immediately reverses it into a pair of direct edges
(a fresh sink out, the peer's door back).  When nothing points at the
leaver anymore it stops; stopping deletes only empty sinks, so the actor
is deliberate throughout, and it only ever forwards references of direct
relays (doors and fresh sinks are level zero, stored edges level one).

A leaver owes one retire notice per edge: `notified` holds the edges it
has sent one over, so an edge adopted later (`peers[pid]` replaced by a
`hello` or `welcome`) gets its own notice.  `hello` and `welcome` share
one adopt rule: the older edge to that peer goes to `discards`.  A `hello`
is answered with the door `kernel.door_of` keeps alive.

A stayer has one release rule: when a leaver's retire notice arrives, the
stayer moves its edge to that leaver from `peers` to `discards`, always.
This is safe because the leaver still holds its own edge to the stayer,
and that edge keeps the two weakly connected until the leaver's bridge
hands the stayer over to another neighbor.  A stayer's tick only drains
`discards`.

A leaver's last edge r1, to its one live peer p1, goes only when nothing
routes through it (`incoming(r1) == 0`) and one of two things holds:

- Its sinks drained: nothing points here, so this process hangs off p1
  by r1 alone, and cutting r1 separates no one else.
- The pair is isolated.  A leaver whose last peer is retired sends that
  peer one `solo` notice over the edge, and the receiver records the sink
  it arrived at (`store["solo"][sender] = via`).  Here p1 is retired, the
  sinks' total `incoming` is 1, p1's `solo` arrived at a sink whose
  `incoming` is 1, and our pid is below p1's.  While r1 lives, its key
  sits at p1's sink, so p1's sinks have not drained, and the pid order
  fails p1's own pair test: p1 cannot drop its edge e to us by this rule.
  If e still stands, it is the one connection pointing here, so cutting
  r1 leaves e holding the pair together and nothing else hangs on us.

Open: nothing refreshes a `solo` belief.  p1 can still lose e another way
(a bridge or a newer edge once p1 gains a peer).  The sink test then
fails, unless meanwhile another process was handed an edge to that same
sink (our door goes out in every `welcome`); no argument excludes that
interleaving yet.  The sweeps of tools/fdp_sweep.py found none.
"""

from __future__ import annotations

from .core import ActionInvocation, RelayRef
from .kernel import ProcessContext, WorldState, connect_door, door_of, give_door, new_world


def safe_to_stop(ctx: ProcessContext) -> bool:
    """Locally sufficient stop condition: nothing points here anymore.

    All owned relays are unreferenced sinks, so stopping deletes nothing
    anyone depends on.
    """
    for ref in ctx.layer.get_relays():
        if not ctx.layer.is_sink(ref) or ctx.layer.incoming(ref) != 0:
            return False
    return True


class DepartureApp:
    def on_tick(self, ctx: ProcessContext) -> None:
        """One atomic scheduling of the departure actor."""
        store = ctx.store
        peers: dict = store.setdefault("peers", {})
        retired: set = store.setdefault("retired", set())
        discards: list = store.setdefault("discards", [])
        notified: set = store.setdefault("notified", set())

        # Drop queued references once nothing routes through them.
        still = []
        for ref in discards:
            if ctx.layer.dead(ref):
                continue
            if ctx.layer.incoming(ref) == 0:
                ctx.layer.delete_relay(ref)
            else:
                still.append(ref)
        discards[:] = still

        if not ctx.leaving:
            return

        pending = [ref for _, ref in sorted(peers.items()) if ref not in notified]
        if pending:
            for ref in pending:
                ctx.send(ref, "retire", (ctx.pid,))
            notified.update(pending)
            return

        for pid in [p for p, ref in peers.items() if ctx.layer.dead(ref)]:
            peers.pop(pid)
        live = sorted(peers.items())
        if len(live) >= 2:
            # Hand every other neighbor an edge toward one anchor; a neighbor
            # not known to be leaving is preferred so the handoffs land on a
            # process that will outlive the exchange.
            stayers = [(p, r) for p, r in live if p not in retired]
            anchor_pid, anchor_ref = (stayers or live)[0]
            for pid, ref in live:
                if pid == anchor_pid or ctx.layer.incoming(ref) != 0:
                    continue
                ctx.send(ref, "bridge", (anchor_ref,))
                ctx.layer.delete_relay(ref)
                peers.pop(pid)
                return
            return
        if len(live) == 1:
            p1, r1 = live[0]
            solo_sent: set = store.setdefault("solo_sent", set())
            if p1 in retired and r1 not in solo_sent:
                ctx.send(r1, "solo", (ctx.pid,))
                solo_sent.add(r1)
            # The last edge is cut once our sinks drained, or once the pair is
            # isolated: the one connection pointing here is p1's (the module
            # docstring gives the argument).
            pointing = sum(ctx.layer.incoming(ref) for ref in ctx.layer.get_relays() if ctx.layer.is_sink(ref))
            solo_sink = store.get("solo", {}).get(p1)
            isolated = p1 in retired and pointing == 1 and ctx.layer.incoming(solo_sink) == 1 and ctx.pid < p1
            if ctx.layer.incoming(r1) == 0 and (pointing == 0 or isolated):
                ctx.layer.delete_relay(r1)
                peers.pop(p1)
            return
        if safe_to_stop(ctx):
            ctx.stop()

    def on_message(self, ctx: ProcessContext, action: ActionInvocation, via: RelayRef) -> None:
        store = ctx.store
        peers: dict = store.setdefault("peers", {})
        retired: set = store.setdefault("retired", set())
        discards: list = store.setdefault("discards", [])
        label, params = action

        if label == "solo":
            store.setdefault("solo", {})[params[0]] = via
            return
        if label == "retire":
            (from_pid,) = params
            retired.add(from_pid)
            if not ctx.leaving and from_pid in peers:
                # The retiree's own edge to us keeps us connected until its
                # bridge lands, so ours can go now.
                discards.append(peers.pop(from_pid))
            return
        if label not in ("bridge", "hello", "welcome") or params[0] is None:
            return

        if label == "bridge":
            (ref,) = params
            if ctx.layer.dead(ref):
                return
            # The bridged reference routes through the leaver; trade it for
            # a direct pair right away: send a fresh sink through, drop it.
            fresh = ctx.layer.new_relay()
            ctx.send(ref, "hello", (fresh, ctx.pid))
            ctx.layer.delete_relay(ref)
            return

        ref, from_pid = params
        if label == "hello":
            ctx.send(ref, "welcome", (door_of(ctx.layer, store), ctx.pid))
            if from_pid in retired:
                # The sender is weaving itself out: do not route through it,
                # but do hand it our door; its continued handoffs are what
                # links its dependents to us.
                ctx.layer.delete_relay(ref)
                return
        elif from_pid in retired:
            discards.append(ref)
            return
        if from_pid in peers:
            discards.append(peers[from_pid])
        peers[from_pid] = ref


def build_departure_world(
    seed: int,
    n_processes: int,
    undirected_edges,
    leaving,
) -> WorldState:
    """Bidirectional overlay over the given undirected edges, everyone
    running the departure actor, the listed processes tagged leaving."""
    world = new_world(seed, n_processes)
    leaving = set(leaving)
    for pid in range(n_processes):
        world.processes[pid].leaving = pid in leaving
        world.processes[pid].app = DepartureApp()
        give_door(world, pid)
    for u, v in sorted(set(tuple(sorted(e)) for e in undirected_edges)):
        ref_uv = connect_door(world, u, v)
        ref_vu = connect_door(world, v, u)
        world.processes[u].store.setdefault("peers", {})[v] = ref_uv
        world.processes[v].store.setdefault("peers", {})[u] = ref_vu
    return world
