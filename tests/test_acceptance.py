"""Acceptance suite: every guarantee, at its stated scale and tolerance.

One test per criterion; each prints its suite's summary line so a full run
reads as a scorecard.  Budgets: desk scale (3-8 processes), zero tolerated
violations everywhere, deterministic seeds throughout.

The scorecard is pinned: each suite's summary line, the sha256 of its trace
(the joined per-run hashes, "" when the suite keeps none) and the number of
states it sampled for cycle-freeness must stay byte-identical across
refactors.
"""

import hashlib

from relaysim import suites

PINNED = {
    "delivery": (
        "criterion=delivery runs=100 tracked_sends=10308 undelivered=0 misdelivered=0 pass=yes",
        "b22a0b99f0f5e8b9b6f02a1b62fcc8dbef30d9cd89e4fd80f4e5ef45532864b4",
        100,
    ),
    "closure": (
        "criterion=closure runs=100 steps_each=10000 illegal_states=0 pass=yes",
        "ebe5d04aa52306de6317cc8a728dd9213ad2b6275806cf54146f300d96456603",
        2000,
    ),
    "convergence": (
        "criterion=convergence runs=200 converged=200 max_steps=203 window=640 window_violations=0 pass=yes",
        "fb9ea96ac8b3e5f7b57cc75cadb82545dfa329ed0ea9e6d5c622b040c5388224",
        200,
    ),
    "shutdown": (
        "criterion=shutdown runs=100 surviving_layers=0 pass=yes",
        "e53ca40c0fdbacef811d1d864168229a4d78376ea61c324b0f4c9211282e0e57",
        0,
    ),
    "connectivity": (
        "criterion=connectivity applications=1000 disconnections=0 pass=yes",
        "586b5f9fde669ac2fe555829551bbe087dc97da98995a8ade79771e97ec449ed",
        100,
    ),
    # The trace moved when plan steps began to run in place instead of at a tick,
    # and when missing edges began to be added along a shortest path.
    "universality": (
        "criterion=universality pairs=50 matched=50 disconnections=0 pass=yes",
        "5eedf2a1edccf0f34bc553a68980d2f0fe01a8d00c35b7a9d7caaa8a04d1ade4",
        50,
    ),
    "emulation": ("criterion=emulation cases=100 executed=100 delta_mismatches=0 pass=yes", "", 0),
    # The trace moved when stayers began to drop an edge to a leaver on its retire notice,
    # and when a leaver's last edge began to wait for its sinks to drain or for a `solo`
    # notice from its retired peer, and when each run began to hold the end state through
    # a closure window of CLOSURE_WINDOW steps after first reaching it.
    "fdp": (
        "criterion=fdp runs=100 reached_legitimate=100 safety_violations=0 pass=yes",
        "6acf1175841b103eaf1f6dca764c7224cba54d3288c616bed921f71cc3d5ed6d",
        100,
    ),
    "cycle_freeness": ("criterion=cycle_freeness sampled_states=3200 directed_cycles=0 pass=yes", "", 3200),
    "determinism": ("criterion=determinism reruns=2 trace_bytes=391931 identical=yes pass=yes", "", 0),
}
AGGREGATE = "criterion=cycle_freeness_aggregate sampled_states=5750 directed_cycles=0"

_reports = {}


def _run(name):
    report = suites.run_suite(name)
    _reports[name] = report
    for line in report.lines:
        print(line)
    line, digest, sampled = PINNED[name]
    assert report.lines == [line]
    assert (hashlib.sha256(report.trace.encode()).hexdigest() if report.trace else "") == digest
    assert (report.cycle_checks, report.cycle_violations) == (sampled, 0)
    return report


def test_criterion_1_delivery():
    report = _run("delivery")
    assert report.passed, report.lines


def test_criterion_2_closure():
    report = _run("closure")
    assert report.passed, report.lines


def test_criterion_3_convergence():
    report = _run("convergence")
    assert report.passed, report.lines


def test_criterion_4_shutdown():
    report = _run("shutdown")
    assert report.passed, report.lines


def test_criterion_5_connectivity_preservation():
    report = _run("connectivity")
    assert report.passed, report.lines


def test_criterion_6_universality():
    report = _run("universality")
    assert report.passed, report.lines


def test_criterion_7_emulation():
    report = _run("emulation")
    assert report.passed, report.lines


def test_criterion_8_departure_demo():
    report = _run("fdp")
    assert report.passed, report.lines


def test_criterion_9_cycle_freeness():
    report = _run("cycle_freeness")
    assert report.passed, report.lines
    # every state the other suites sampled counts as well
    checks = sum(r.cycle_checks for r in _reports.values())
    violations = sum(r.cycle_violations for r in _reports.values())
    aggregate = f"criterion=cycle_freeness_aggregate sampled_states={checks} directed_cycles={violations}"
    print(aggregate)
    assert checks > 0 and violations == 0
    if len(_reports) == len(PINNED) - 1:  # criteria 1-9 all ran in this pytest run
        assert aggregate == AGGREGATE


def test_criterion_10_determinism():
    report = _run("determinism")
    assert report.passed, report.lines
