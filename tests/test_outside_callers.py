"""The demos and the benchmark still run against the package.

Neither `demos/` nor `relaybench/` is collected by pytest, so a public name
they use could disappear from `src/` without any other test noticing.
"""

import hashlib
import os
import subprocess
import sys
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
