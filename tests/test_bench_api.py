"""The traced benchmark wraps spillnet functions by (module, name); every
pair it names must exist, or the traced run fails on start-up."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


def test_every_traced_function_resolves():
    traced = _traced()
    assert traced
    for module_name, attr in traced:
        assert module_name.split(".")[0] == "spillnet"
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr} is missing"
