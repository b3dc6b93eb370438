"""Spans around calls into spillnet's public functions.

The tracer replaces a function by a timing wrapper in every spillnet
module that binds it, so calls the package makes internally (classify
calling closure, simulate calling shares_from_productivities) are
recorded too. Spans are (name, start, end, parent) rows kept in memory;
`write` saves them as JSON when the run ends.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

# (module that defines the function, function name)
TRACED = (
    ("spillnet.model", "validate_model"),
    ("spillnet.allocation", "shares_from_productivities"),
    ("spillnet.dynamics", "simulate"),
    ("spillnet.dynamics", "detect_transitions"),
    ("spillnet.dynamics", "detect_convergence"),
    ("spillnet.structure", "classify"),
    ("spillnet.structure", "closure"),
    ("spillnet.structure", "is_eventually_nonnegative"),
    ("spillnet.structure", "dominant_eigenvalue_power"),
    ("spillnet.longrun", "predict_regime"),
    ("spillnet.longrun", "solve_support_system"),
    ("spillnet.scenarios", "run"),
    ("spillnet.scenarios", "load_scenario"),
    ("spillnet.scenarios", "trajectory_csv"),
    ("spillnet.svgchart", "trajectory_chart"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int] | None] = []
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, fn, name: str):
        name_id = self._name_id(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        # `span` written out inline: this runs on every call of a hot
        # function, so it avoids a context manager's per-call cost
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (name_id, start, clock(), parent)
                stack.pop()

        return traced

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as one item."""
        name_id = self._name_id(name)
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[idx] = (name_id, start, time.perf_counter(), parent)
            self._stack.pop()

    def install(self) -> None:
        """Wrap every TRACED function wherever a spillnet module binds it."""
        modules = [
            m for key, m in sys.modules.items() if key == "spillnet" or key.startswith("spillnet.")
        ]
        for module_name, attr in TRACED:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, f"{module_name.split('.')[1]}.{attr}")
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Inclusive seconds, self seconds and call count per span name."""
        inclusive: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        child_time = [0.0] * len(self.spans)
        for name_id, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for idx, (name_id, start, end, parent) in enumerate(self.spans):
            name = self.names[name_id]
            inclusive[name] += end - start
            own[name] += end - start - child_time[idx]
            calls[name] += 1
        return inclusive, own, calls

    def write(self, path: Path) -> None:
        """Save spans, gzip-compressed, as
        {"names": [...], "spans": [[name index, start_us, end_us, parent index], ...]}
        with times from the first span's start and parent -1 for a root."""
        if not self.spans:
            return
        t0 = min(s[1] for s in self.spans)
        rows = [
            [n, round((a - t0) * 1e6, 1), round((b - t0) * 1e6, 1), p]
            for n, a, b, p in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = json.dumps({"names": self.names, "spans": rows}, separators=(",", ":"))
        with gzip.open(path, "wt") as fh:
            fh.write(doc)
