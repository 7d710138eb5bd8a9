"""The demos and the benchmark still run against the package.

Neither `demos/` nor `relaybench/` is collected by pytest, so a public name
they use could disappear from `src/` without any other test noticing.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from relaysim import kernel
from relaysim.kernel import adversarial_init, random_connected_world

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


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
