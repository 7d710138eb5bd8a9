"""Relay-based overlay networking, simulated and verified.

All inter-process connections go through relays: process-owned sockets
with key-gated incoming connections and at most one outgoing connection.
The package bundles the self-stabilizing relay layer, a deterministic
discrete-event kernel to run it in, omniscient validity oracles for tests,
the three topology-transformation rules with a universal planner, and a
departure protocol demo built on nothing but the layer's primitives.
"""

from .core import (
    ActionInvocation,
    Header,
    InEntry,
    Key,
    Message,
    Relay,
    RelayId,
    RelayParameter,
    RelayRef,
    Rid,
    Transmit,
    belongs_to,
)
from .kernel import (
    ProcessContext,
    RunResult,
    WorldState,
    adversarial_init,
    connect,
    connect_door,
    fig_triangle,
    give_door,
    new_world,
    random_connected_world,
)
from .layer import RelayLayer
from .oracle import (
    RelayGraph,
    WorldCheck,
    extract_relay_graph,
    fdp_legitimate,
    is_legal,
    process_components,
    stayers_connected,
    to_dot,
)
from .rules import (
    ProcessMultigraph,
    TransformPlan,
    cpg,
    emulate_process_rule,
    execute_plan,
    plan_transform,
    relay_fusion,
    relay_introduction,
    relay_reversal,
)
from .departure import DepartureApp, build_departure_world, safe_to_stop

__all__ = [
    "ActionInvocation", "Header", "InEntry", "Key", "Message", "Relay",
    "RelayId", "RelayParameter", "RelayRef", "Rid", "Transmit",
    "belongs_to",
    "ProcessContext", "RunResult", "WorldState", "adversarial_init",
    "connect", "connect_door", "fig_triangle", "give_door", "new_world",
    "random_connected_world",
    "RelayLayer",
    "RelayGraph", "WorldCheck", "extract_relay_graph", "fdp_legitimate",
    "is_legal", "process_components", "stayers_connected", "to_dot",
    "ProcessMultigraph", "TransformPlan", "cpg", "emulate_process_rule",
    "execute_plan", "plan_transform", "relay_fusion", "relay_introduction",
    "relay_reversal",
    "DepartureApp", "build_departure_world", "safe_to_stop",
]
