"""The engine is pure Python by design (see ``pyproject.toml``).

Importing the execution packages must not pull in numpy, even when it
is installed: columns are plain lists, and no module probes for an
optional accelerator.  The check runs in a fresh interpreter so modules
other tests imported cannot mask or fake the result.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

PACKAGES = (
    "repro",
    "repro.core",
    "repro.columnar",
    "repro.parallel",
    "repro.replay",
    "repro.adaptive",
)


def test_execution_packages_do_not_import_numpy():
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    code = (
        "import importlib, sys\n"
        f"for name in {PACKAGES!r}:\n"
        "    importlib.import_module(name)\n"
        "print('numpy' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"
