"""Tier-1 wiring for ``scripts/check_api.py``: the documented public
surface (including the serving-metrics layer, ``health()`` and request
ids) is guarded by the ordinary test run.
"""

import os
import subprocess
import sys

REPO = os.path.join(os.path.dirname(__file__), "..", "..")


def test_public_api_surface_holds():
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(REPO, "scripts", "check_api.py")],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
