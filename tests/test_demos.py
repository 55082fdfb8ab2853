"""Every narrative demo runs to completion against the package in src/, and
its stdout has the pinned sha256: a change that alters what a demo prints
says why in CHANGES.md."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
STDOUT_SHA256 = {
    "dependency_placement": "c70373ae62a046a3517589dc54d44d565c3bd4749694152a2e0f78e91303af06",
    "load_balancing": "f80a7624ba6ce51374cdae2685654578b0850d981d442b2dbe51cd3f09cfba17",
    "monitor_rebalancing": "9045dbea184935677d2bc587e0e24ed7d41355f45cb40296b16e5b5c99d37f19",
    "realtime_feasibility": "ac739d58a3c9fafe431b2332fd924f640e32015722c6f89ccb6316c127013822",
    "runtime_priorities": "6d01e4c221476a4730d6847cbeb1e39d3b3a7198931d4b075bb8c801653dc1fe",
}


def test_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_0(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.stem]
