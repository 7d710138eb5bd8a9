"""Behaviour lock: fixed seeds give fixed final states and traces.

Each scenario runs a world at a fixed seed with tracing on and pins two
values: the final `state_hash` and the sha256 of the trace lines joined by
newlines.  A change that keeps behaviour keeps both; any change to the
scheduler's choices, a handler's output or the trace format moves them.
"""

import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from relaysim import oracle, rules, suites
from relaysim.apps import RandomDeliberateApp
from relaysim.departure import build_departure_world
from relaysim.kernel import (
    adversarial_init,
    fig_triangle,
    random_connected_world,
)


def _attach(world, **kwargs):
    for proc in world.processes.values():
        proc.app = RandomDeliberateApp(**kwargs)


def triangle():
    world = fig_triangle(seed=3)
    _attach(world, max_relays=3)
    world.trace = []
    world.run(1500)
    return world


def adversarial_mixed():
    world = adversarial_init(41, 4, 12, 15, "mixed")
    _attach(world, max_relays=4)
    world.trace = []
    world.run(3000)
    return world


def departure_line():
    world = build_departure_world(43, 5, [(i, i + 1) for i in range(4)], [1, 3])
    initial = oracle.process_components(world)
    world.trace = []
    res = world.run_until(lambda w: oracle.fdp_legitimate(w, initial), 40_000)
    assert res.reached
    return world


def transform():
    source = rules.random_multigraph(47, 5, extra=3)
    target = rules.random_multigraph(48, 5, extra=3)
    world = rules.build_simple_realization(47, source, shared_sinks=True)
    world.trace = []
    assert world.run_until(lambda w: w.is_settled(), 8_000).reached
    rules.execute_plan(world, rules.plan_transform(world, target))
    assert rules.cpg(world).edges == target.edges
    return world


def sparse_64():
    # 64 processes keep hundreds of messages in flight: nearly every pick
    # is a fairness-forced one.
    world = random_connected_world(53, 64, extra_edges=32, chains=4)
    _attach(world, max_relays=8)
    world.trace = []
    world.run(2500)
    return world


def round_robin():
    world = random_connected_world(59, 4, extra_edges=2, chains=1)
    world.fairness_bound = -1
    _attach(world, max_relays=4)
    world.trace = []
    world.run(2000)
    return world


def shutdown():
    # Apps are removed and processes stopped one by one while messages are
    # in flight; the dying layers leave orphans behind.
    world = random_connected_world(61, 5, extra_edges=3, chains=2)
    _attach(world, send_refs="never", max_relays=3)
    world.trace = []
    world.run(300)
    for pid in sorted(world.processes):
        world.processes[pid].app = None
        world.run(10)
        world.ctx(pid).stop()
    assert world.run_until(lambda w: not w.layers, 60_000).reached
    return world


def delivery():
    run = suites._delivery_run(100)
    return run["hash"], _sha(run["trace"])


def convergence():
    world = adversarial_init(500, 4, 12, 15, "mixed")
    _attach(world, max_relays=4)
    world.trace = []
    res = world.run_until(oracle.is_legal, 60_000)
    assert res.reached
    world.run(suites.CLOSURE_WINDOW)
    return world


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def fingerprint(scenario) -> tuple:
    out = scenario()
    if isinstance(out, tuple):
        return out
    return out.state_hash(), _sha("\n".join(out.trace))


SCENARIOS = {
    "triangle": triangle,
    "adversarial_mixed": adversarial_mixed,
    "departure_line": departure_line,
    "transform": transform,
    "sparse_64": sparse_64,
    "round_robin": round_robin,
    "shutdown": shutdown,
    "delivery": delivery,
    "convergence": convergence,
}

# (state_hash, sha256 of the joined trace), recorded before the incremental
# scheduler replaced the full action scan.
GOLDEN = {
    "adversarial_mixed": (
        "04e44c031683a4afc326914fa6247c71b7aa4f662b936ccd6a4ac88730baa8b8",
        "f096c5c64e83de73a542c2e88607049509a73bf634b43b5da3f8718702f0dee7",
    ),
    "convergence": (
        "3e82744a0b38042e2bbda7d90a1bdb9cc123fda19f61ee8897e9fc016b69f5c5",
        "b1ed660d6054b494a7ed7551870d08a2fa398242ed9330f710a5be9a18692825",
    ),
    "delivery": (
        "32210e9ad27d71906c91a961e63ca43204c1d3e72467e2f4b753d5556923f9c2",
        "b5ed2e73c31194adfeb509c4db24f24e79720b8fcc63c2d9cedd099e37528213",
    ),
    # Re-recorded when stayers began to drop an edge to a leaver on its retire notice.
    "departure_line": (
        "900f848761c5e7342f5df6df0c1256a869f47900627831788ab73f331751f8d7",
        "eca3cc44ddff73ab1a14c25c04de2da176a74712c9fbff5d656a5bc75aa8e288",
    ),
    "round_robin": (
        "0db108f13aabb2cda19b2222ec45969c39302cae99e3681b5936ab8ef5774492",
        "e663e48064fa8f51a7ab6c7ba24e6a8ea8105b07ba970a7b56c1c52984021576",
    ),
    "shutdown": (
        "7d233eec585b5e518ec1a573089bee4ab4139edc36c8080135ccaa970a235ba0",
        "b60bf408c696687b8bf2216e655602925bc54035d1e9d9bd77b07fff6cbf7b35",
    ),
    "sparse_64": (
        "835cb0d5aee871bbe7189cd7dd74bf3e07104891294688644ac90d2b67ae89d8",
        "2bc433b8e030b6da513fede84b9890562da1f0b6676139f19eb48a60de4cd622",
    ),
    # Re-recorded when plan steps began to run in place instead of at a tick,
    # and again when the planner stopped routing missing edges through a hub.
    "transform": (
        "bd821cafc701956de1f12ad97cb32c4796b06cbc75a2aba4ac0eb1c29434ba52",
        "d8862a8541807007ef3d73d3a0b2e0f9c9efbaa493243b55145531f286d25e0c",
    ),
    "triangle": (
        "e76da3e1e969fb5df1476fb2f4c6c30e7e35f780eb62e07793cff3cd4b41655f",
        "61acfb80680564e26c136cc50a1eb6f046d270e9cd71cabd01c358b0f4432f72",
    ),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden(name):
    assert fingerprint(SCENARIOS[name]) == GOLDEN[name]


def test_pins_hold_across_string_hash_seeds():
    # Str hashes, and with them the iteration order of sets of keys and In
    # entries, change with PYTHONHASHSEED; the pinned values must not.
    here = Path(__file__).resolve().parent
    code = "import test_golden as g; print(*g.fingerprint(g.adversarial_mixed))"
    runs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(here.parent / "src"), str(here), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        runs.append(tuple(proc.stdout.split()))
    assert runs[0] == runs[1] == GOLDEN["adversarial_mixed"]


def test_state_hash_holds_one_layer_at_a_time():
    # The hash streams the canonical JSON layer by layer, so its transient
    # memory is a small share of the world's, not a second copy of it.
    tracemalloc.start()
    try:
        world = sparse_64()
        live = tracemalloc.get_traced_memory()[0]  # the world's own size
        tracemalloc.reset_peak()
        assert world.state_hash() == GOLDEN["sparse_64"][0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - live < 0.25 * live
