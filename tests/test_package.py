"""The package root: importing it loads no module, and each module is
reached under its own name."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys, types
import heckeb
loaded = sorted(m for m in sys.modules if m.startswith("heckeb."))
assert not loaded, loaded
import heckeb.trace
assert isinstance(heckeb.trace, types.ModuleType), heckeb.trace
assert callable(heckeb.trace.trace)
"""


def test_root_import_loads_no_module():
    proc = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
