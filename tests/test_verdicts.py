"""Behaviour lock for the oracle: fixed trajectories give fixed verdicts.

Each scenario steps a world at a fixed seed and, at fixed steps, asks a
fresh `WorldCheck` for every verdict it gives: `is_legal`, each relay's
`relay_valid` and `relay_violations` list, and each in-flight parameter's
`param_violations`.  The verdicts are hashed in a fixed order, so a change
to any verdict, any violation code or the order of a violation list moves
the digest.  The tally of violation codes shows what each scenario covers.
"""

import hashlib
from collections import Counter

import pytest

from relaysim import oracle
from relaysim.apps import RandomDeliberateApp
from relaysim.kernel import adversarial_init, random_connected_world


def _attach(world, max_relays):
    for proc in world.processes.values():
        proc.app = RandomDeliberateApp(max_relays=max_relays)


def _verdicts(world, digest, tally) -> None:
    check = oracle.WorldCheck(world)
    lines = [f"legal={check.is_legal()}"]
    for rid in sorted(check.relays):
        codes = check.relay_violations(rid)
        tally.update(codes)
        lines.append(f"{rid!r} {check.relay_valid(rid)} {codes}")
    for carrier, message, param in check.params:
        codes = check.param_violations(carrier, message, param)
        tally.update(codes)
        lines.append(f"{carrier!r} {param!r} {codes}")
    digest.update("\n".join(lines).encode() + b"\n")


def _sample(world, steps: int, every: int, digest, tally) -> None:
    for i in range(steps + 1):
        if i % every == 0:
            _verdicts(world, digest, tally)
        if i < steps:
            world.step()


def closure(digest, tally):
    for seed in range(300, 310):
        world = random_connected_world(seed, 3, extra_edges=1, chains=0)
        _attach(world, max_relays=3)
        _sample(world, 500, 1, digest, tally)


def mixed_4x96(digest, tally):
    for seed in range(1, 13):
        world = adversarial_init(seed, 4, 96, 48, "mixed")
        _attach(world, max_relays=16)
        _sample(world, 1500, 10, digest, tally)


def mixed_8x32(digest, tally):
    for seed in range(1, 7):
        world = adversarial_init(seed, 8, 32, 40, "mixed")
        _attach(world, max_relays=6)
        _sample(world, 1500, 10, digest, tally)


def sparse_256(digest, tally):
    world = random_connected_world(5, 256, extra_edges=128, chains=16)
    _attach(world, max_relays=8)
    world.run(1000)
    _sample(world, 800, 200, digest, tally)


def shutdown(digest, tally):
    # The golden `shutdown` trajectory: apps go and processes stop one by
    # one while messages are in flight.  Every state that holds orphans is
    # checked, and counted in the tally as `orphan_states`.
    world = random_connected_world(61, 5, extra_edges=3, chains=2)
    for proc in world.processes.values():
        proc.app = RandomDeliberateApp(send_refs="never", max_relays=3)
    world.run(300)

    def step():
        world.step()
        if world.orphan_out:
            _verdicts(world, digest, tally)
            tally["orphan_states"] += 1

    for pid in sorted(world.processes):
        world.processes[pid].app = None
        for _ in range(10):
            step()
        world.ctx(pid).stop()
    while world.layers:
        step()


def fingerprint(scenario) -> tuple:
    digest, tally = hashlib.sha256(), Counter()
    scenario(digest, tally)
    return digest.hexdigest(), " ".join(f"{c}:{n}" for c, n in sorted(tally.items()))


SCENARIOS = {
    "closure": closure,
    "mixed_4x96": mixed_4x96,
    "mixed_8x32": mixed_8x32,
    "shutdown": shutdown,
    "sparse_256": sparse_256,
}

# (sha256 of the verdicts, tally of violation codes).  The tallies were
# recorded before the oracle's cross-relay scans were replaced by lookups in
# its indexes.  The digests were re-recorded when layer addresses became
# plain ints: a parameter's repr now reads `sink_rid=0`, not `sink_rid=R0`.
# mixed_4x96 and mixed_8x32 were re-recorded when P4 stopped failing an
# entry whose announcing relay is missing; P9 fails every such entry.
GOLDEN = {
    "closure": (
        "8b236cf3827981ad366c4c2641390963036da33c80120c3a2e6d8c9ee50b4dc0",
        "P1:1800 P11d:2",
    ),
    "mixed_4x96": (
        "1787a8915aba96b6b2c953f5421e2e985e401f816980920b2e71738547066064",
        "C1:253 C3:320 P1:4706 P10:946 P11b:5942 P11c:4169 P11d:1356 P4:534 P5:753 P6:235 P7:540 P9:2221",
    ),
    "mixed_8x32": (
        "815897fd22177619798329d6f7e2e0236732503bd2b51a606ab91664cb6a6d8c",
        "C1:83 C3:122 P1:1161 P10:214 P11b:678 P11c:613 P11d:140 P4:142 P5:150 P6:43 P7:123 P9:318",
    ),
    "shutdown": (
        "ff5cb08cfa692c9e6c781d5b26816732de1472332469d06799e485a08a965fc1",
        "P1:76 P10:31 P11b:3 P7:1 orphan_states:15",
    ),
    "sparse_256": (
        "23bce133df4ee76a13850b59706b21b469b4be531264cc3c422e13e434959699",
        "P1:83",
    ),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_verdicts(name):
    assert fingerprint(SCENARIOS[name]) == GOLDEN[name]
