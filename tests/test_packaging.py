"""pyproject.toml declares numpy as spillnet's only dependency."""

import os
import subprocess
import sys
from pathlib import Path

import spillnet

# modules the import adds, by top-level package, in a fresh interpreter
_PROBE = """
import sys
before = set(sys.modules)
import spillnet
print(" ".join(sorted({m.split(".")[0] for m in set(sys.modules) - before})))
"""


def test_import_loads_no_third_party_module_but_numpy():
    env = dict(os.environ, PYTHONPATH=str(Path(spillnet.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "spillnet" in out and "numpy" in out
    assert "scipy" not in out
    assert set(out) - sys.stdlib_module_names - {"numpy", "spillnet"} == set()
