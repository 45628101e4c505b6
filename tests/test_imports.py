"""Each ``unjoin`` module imports first, in a fresh interpreter.

An import cycle between two modules shows only when one of them is the
first imported, so each module gets an interpreter of its own.
"""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import unjoin

SRC = str(Path(unjoin.__file__).parent.parent)
MODULES = sorted(m.name for m in pkgutil.iter_modules(unjoin.__path__))


def test_every_module_is_listed():
    assert {"schema", "correction", "sqlast", "sqlref", "pipeline", "cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_first(name):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", f"import unjoin.{name}"],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
