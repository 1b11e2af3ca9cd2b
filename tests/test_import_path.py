"""What importing the library loads, each case in a fresh interpreter.

The closed loop designs its Butterworth filters and reads their
response with NumPy code, and the SciPy functions it does not use
(``sosfilt``, ``welch``, ``curve_fit``, ``solve_ivp``) import inside the
functions that call them.  The package inits of ``repro``,
``repro.engine`` and ``repro.service`` import their names on first
access, so a client that talks to a running service loads no NumPy.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: SciPy subpackages that only off-loop functions import, each when
#: called (``scipy.stats`` and ``scipy.interpolate`` came with
#: ``scipy.signal``).
OFF_PATH = ("scipy.signal", "scipy.optimize", "scipy.integrate",
            "scipy.stats", "scipy.interpolate")


def loaded_after(code: str) -> list[str]:
    """The ``sys.modules`` names of a fresh interpreter after ``code``."""
    script = textwrap.dedent(code) + (
        "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_the_packages_and_their_names_load_no_off_loop_scipy():
    modules = loaded_after("""
        import importlib

        for name in ("repro", "repro.analysis", "repro.config",
                     "repro.engine", "repro.service"):
            package = importlib.import_module(name)
            for attr in package.__all__:
                getattr(package, attr)
                assert attr in dir(package), (name, attr)
    """)
    assert "repro.circuits.filters" in modules
    assert [m for m in modules if m.startswith(OFF_PATH)] == []


def test_the_service_client_loads_no_numpy_or_scipy():
    modules = loaded_after("import repro.service.client")
    assert [m for m in modules
            if m.split(".")[0] in ("numpy", "scipy")] == []
