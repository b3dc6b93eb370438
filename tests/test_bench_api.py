"""The traced benchmark wraps spillnet functions by (module, name); every
pair it names must exist, or the traced run fails on start-up."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced():
    # read with ast, so the check runs none of the benchmark's code
    (traced,) = [
        node.value
        for node in ast.parse(SPANS.read_text()).body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]
    ]
    return ast.literal_eval(traced)


def test_every_traced_function_resolves():
    traced = _traced()
    assert traced
    for module_name, attr in traced:
        assert module_name.split(".")[0] == "spillnet"
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr} is missing"
