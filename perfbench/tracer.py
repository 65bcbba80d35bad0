"""Outside-in layer tracing around the library's public functions.

The tracer replaces each layer function at the name its caller looks it up
by (a module global of the calling module), records one span per call and
puts the original functions back afterwards, so `src/` is never changed.
A span is (id, parent id, descent id, name, start, end); spans of one
descent share the descent id.  Spans stay in memory until `write`.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps
from pathlib import Path

ROOT = "optimizer.run_descent"  # opened by the benchmark around each descent

# (calling module, name it looks the callee up by, span name)
LAYERS = (
    ("waveng.optimizer", "armijo_step", "optimizer.armijo_step"),
    ("waveng.optimizer", "combined_eval", "losses.combined"),
    ("waveng.losses", "e1_eval", "losses.e1"),
    ("waveng.losses", "e2_eval", "losses.e2"),
    ("waveng.losses", "e3_eval", "losses.e3"),
    ("waveng.losses", "weighted_elliptic_pinv_apply", "operators.elliptic_solve"),
    ("waveng.losses", "laplacian_apply", "operators.laplacian"),
    ("waveng.metrics", "laplacian_pinv_apply", "operators.laplacian_pinv"),
    ("waveng.metrics", "transform_forward", "wavelets.forward"),
    ("waveng.metrics", "transform_inverse", "wavelets.inverse"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, parent, descent, name, start, end]
        self.absent: list[str] = []  # layers whose function no longer exists
        self._stack: list[int] = []
        self._descent = -1
        self._patched: list[tuple] = []

    def install(self) -> None:
        """Wrap every layer function that still exists; note the others as absent."""
        for module_name, attr, name in LAYERS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(name)
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            setattr(module, attr, self.wrap(original, name))
            self._patched.append((module, attr, original))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def wrap(self, fn, name: str):
        @wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        record = [sid, self._stack[-1] if self._stack else -1, self._descent, name, 0.0, 0.0]
        self.spans.append(record)
        self._stack.append(sid)
        record[4] = time.perf_counter()
        try:
            yield
        finally:
            record[5] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def descent(self):
        """Root span of one descent; every span inside shares its id."""
        self._descent += 1
        with self.span(ROOT):
            yield

    def summary(self) -> dict[str, dict[str, float]]:
        """calls, total seconds and self seconds per span name, within descents.

        Self time is a span's duration minus the time its child spans cover.
        """
        covered: dict[int, float] = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for sid, _, descent, name, start, end in self.spans:
            if descent < 0:
                continue
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - covered[sid]
        return dict(out)

    def count_under(self, name: str, parent_name: str) -> int:
        """Spans called `name` whose direct parent is called `parent_name`."""
        return sum(
            1
            for _, parent, descent, span_name, _, _ in self.spans
            if span_name == name
            and descent >= 0
            and parent >= 0
            and self.spans[parent][3] == parent_name
        )

    def write(self, path: Path) -> None:
        names = sorted({s[3] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[s[0], s[1], s[2], index[s[3]], s[4], s[5]] for s in self.spans]
        path.write_text(json.dumps({
            "columns": ["id", "parent", "descent", "name", "start_s", "end_s"],
            "names": names,
            "absent": self.absent,
            "spans": rows,
        }))
