"""The demos and the benchmark still run against the package.

Neither `demos/` nor `relaybench/` is collected by pytest, so a public name
they use could disappear from `src/` without any other test noticing.
"""

import hashlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from relaysim import kernel
from relaysim.kernel import adversarial_init, random_connected_world

ROOT = Path(__file__).resolve().parents[1]

# sha256 of each demo's stdout.  The demos are seeded and their output does
# not depend on PYTHONHASHSEED, so a change here is a change of behaviour.
DEMO_STDOUT_SHA256 = {
    "01_relay_basics.py": "8596f7f89985753dee8b274df0b048933804cc3cc32cf41be30022a152b2f58a",
    "02_self_stabilization.py": "3b1ab5fc9855ab943c5469adff22cad84ed9e06ca2be1fb64da2ae844e1902e2",
    "03_topology_transform.py": "72ff1cdb3c3fa273a72e0fde0d6de8e13ce9d21e1bc4f004cc7ad9b4199074b1",
    "04_departure.py": "7a738f2e0c11b4681a1e8c2276f07486fb03575f0facc464ed99e505341e8792",
}


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == DEMO_STDOUT_SHA256[demo], proc.stdout


def test_benchmark_modules_use_existing_names(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "relaybench"))
    import spans
    import workloads

    step = kernel.WorldState.step
    tracer = spans.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert kernel.WorldState.step is step
    assert workloads.check_state(random_connected_world(1, 3)) == (0, 0)
    assert workloads.check_state(adversarial_init(1, 4, 12, 15, "mixed"))[0] == 1


# Span names each traced unit must record: the calls behind the per-layer
# counts of `relaybench/spans.py`.  A hot path that inlined one of these
# methods would leave its count at 0.
TRACED_UNIT_SPANS = {
    "transform": {"kernel.build", "kernel.step", "kernel.is_settled", "layer.timeout",
                  "layer.receive.Transmit", "layer.receive.Ping", "layer.send", "layer.new_relay",
                  "apps.tick", "apps.deliver", "oracle.graph", "rules.plan", "rules.execute"},
    "closure_check": {"kernel.build", "kernel.step", "layer.timeout", "layer.receive.Transmit",
                      "layer.receive.Ping", "layer.send", "layer.new_relay", "apps.tick",
                      "apps.deliver", "oracle.check_build", "oracle.is_legal"},
}


@pytest.mark.parametrize("name", sorted(TRACED_UNIT_SPANS))
def test_traced_unit_records_a_span_for_every_wrapped_call(monkeypatch, name):
    monkeypatch.syspath_prepend(str(ROOT / "relaybench"))
    import refclock
    import spans
    import workloads

    tracer = spans.Tracer()
    tracer.install()
    wrapped = {original.__code__ for _, _, original in tracer._patches}
    ran = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in wrapped:
            ran[frame.f_code] += 1

    try:
        sys.setprofile(profile)
        try:
            workloads.WORKLOADS[name].unit(workloads.unit_seed(name, 1, 0), 0, refclock.RefClock(), tracer)
        finally:
            sys.setprofile(None)
    finally:
        tracer.uninstall()
    # Each wrapped original ran only through its wrapper: a caller holding
    # the original (a reference taken before `install`) would run it
    # without a span.
    assert len(tracer.start) == sum(ran.values())
    recorded = {tracer.names[i] for i in tracer.name_id}
    assert TRACED_UNIT_SPANS[name] <= recorded, TRACED_UNIT_SPANS[name] - recorded
