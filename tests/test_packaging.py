"""pyproject.toml declares numpy as spillnet's only dependency, and the
package's import surface holds together."""

import ast
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


def test_star_import_binds_every_public_name_once():
    namespace = {}
    exec("from spillnet import *", namespace)
    assert len(set(spillnet.__all__)) == len(spillnet.__all__)
    assert set(spillnet.__all__) <= set(namespace)


def test_longrun_does_not_import_the_integrator():
    # the long-run layer reads the structure alone; simulation stays out
    source = Path(spillnet.__file__).with_name("longrun.py").read_text()
    imports = [
        node
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module
    ]
    modules = [node.module.rsplit(".", 1)[-1] for node in imports]
    assert "dynamics" not in modules
    # and it reads the structure report, not the structure layer's private names
    private = [
        alias.name
        for node, module in zip(imports, modules)
        if module == "structure"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
