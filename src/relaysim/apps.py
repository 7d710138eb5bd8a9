"""Application-layer actors used by the property suites.

The random application is deliberate: it never deletes a relay that still
has incoming keys and never calls stop.  In "direct" mode it also forwards
references, but only of relays the introspection primitives report as
direct, so runs satisfy the hypotheses of the stabilization guarantees.
"""

from __future__ import annotations

from typing import Optional

from .core import ActionInvocation, RelayRef
from .kernel import ProcessContext


class RandomDeliberateApp:
    """Seeded random exerciser of the relay primitives.

    send_refs: "never" sends payloads only; "direct" also introduces
    references of direct relays via arbitrary owned relays.  A `tracker`
    (the suites' DeliveryTracker) hears of each payload sent and received.
    """

    def __init__(self, send_refs: str = "direct", tracker: Optional[object] = None,
                 max_relays: int = 8) -> None:
        assert send_refs in ("never", "direct")
        self.send_refs = send_refs
        self.tracker = tracker
        self.max_relays = max_relays
        self.frozen = False  # set by harnesses to stop issuing commands

    def on_tick(self, ctx: ProcessContext) -> None:
        if self.frozen:
            return
        rng = ctx.rng
        refs = ctx.layer.get_relays()
        roll = rng.random()
        if roll < 0.45 and refs:
            ref = refs[rng.randrange(len(refs))]
            marker = self.tracker.on_send(ctx, ref) if self.tracker else None
            ctx.send(ref, "note", (marker,))
        elif roll < 0.55 and len(refs) < self.max_relays:
            ctx.layer.new_relay()
        elif roll < 0.65 and refs:
            ref = refs[rng.randrange(len(refs))]
            if ctx.layer.incoming(ref) == 0:
                ctx.layer.delete_relay(ref)
        elif roll < 0.75 and len(refs) >= 2:
            a = refs[rng.randrange(len(refs))]
            b = refs[rng.randrange(len(refs))]
            if a != b and ctx.layer.same_target(a, b) and not ctx.layer.is_sink(a):
                ctx.layer.merge({a, b})
        elif roll < 0.9 and self.send_refs == "direct" and refs:
            carried = [r for r in refs if ctx.layer.direct(r)]
            if carried:
                s = carried[rng.randrange(len(carried))]
                via = refs[rng.randrange(len(refs))]
                ctx.send(via, "meet", (s,))

    def on_message(self, ctx: ProcessContext, action: ActionInvocation, via: RelayRef) -> None:
        if action.label == "note" and self.tracker and action.params and action.params[0]:
            self.tracker.on_receive(ctx, tuple(action.params[0]))
        # "meet" deliveries hand over a relay reference; it joins the owned
        # pool automatically and the next ticks will exercise it.


class IdleApp:
    """Issues no commands at all."""

    def on_tick(self, ctx: ProcessContext) -> None:
        pass

    def on_message(self, ctx: ProcessContext, action: ActionInvocation, via: RelayRef) -> None:
        pass
