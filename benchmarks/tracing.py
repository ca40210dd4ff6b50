"""Per-layer spans around locc-forge's public functions, from outside the package.

The tracer replaces each layer function in every module that looks it up,
records a span per call (name, start, end, parent) plus exact counts, and
puts the originals back when the traced block ends.  Spans stay in memory;
self times are computed afterwards, a span's duration minus the durations
of its direct children.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module that looks the name up, attribute, layer name, extra counter)
# A counter maps (args, result) to a number added to "<layer>.<counter>".
_SPANNED = [
    ("locc_forge.measurement", "independent_subset", "operators.independent_subset",
     ("candidates", lambda args, out: len(args[0]))),
    ("locc_forge.feasibility", "independent_subset", "operators.independent_subset",
     ("candidates", lambda args, out: len(args[0]))),
    ("locc_forge.feasibility", "local_span", "measurement.local_span", None),
    ("locc_forge.feasibility", "complement_span", "measurement.complement_span", None),
    ("locc_forge.feasibility", "build_q", "feasibility.build_q",
     ("rows", lambda args, out: out.shape[0])),
    ("locc_forge.feasibility", "nullspace", "feasibility.nullspace", None),
    ("locc_forge.cones", "extreme_rays", "cones.extreme_rays",
     ("rays", lambda args, out: len(out))),
    ("locc_forge.engine", "decompose", "cones.decompose",
     ("found", lambda args, out: len(out))),
    ("locc_forge.engine", "factorize", "feasibility.factorize", None),
    ("locc_forge.engine", "leaf_outcome", "engine.leaf_outcome", None),
    ("locc_forge.verify", "verify_tree", "verify.verify_tree", None),
]

# call counts only: their time stays with the enclosing span
_COUNTED = [
    ("locc_forge.cones", "nnls", "cones.nnls"),
    ("locc_forge.engine", "feasible_cone", "engine.feasible_cone"),
]

# the layers reported with self time, in report order
SPANNED_LAYERS = [
    "operators.independent_subset",
    "measurement.local_span",
    "measurement.complement_span",
    "feasibility.build_q",
    "feasibility.nullspace",
    "cones.extreme_rays",
    "cones.decompose",
    "feasibility.factorize",
    "engine.leaf_outcome",
    "verify.verify_tree",
]
EXTRA_COUNTS = ["operators.independent_subset.candidates", "feasibility.build_q.rows",
                "cones.extreme_rays.rays", "cones.decompose.found"]
CALL_COUNTS = [name + ".calls" for _, _, name in _COUNTED]


class Tracer:
    """Span recorder.  ``spans`` holds (name, start, end, parent index)."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def call(self, name: str, fn, args, kwargs):
        """Run ``fn`` inside a span named ``name``."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent)

    def _spanned(self, fn, name, extra):
        def wrapped(*args, **kwargs):
            out = self.call(name, fn, args, kwargs)
            self.counts[name + ".calls"] += 1
            if extra is not None:
                self.counts[f"{name}.{extra[0]}"] += extra[1](args, out)
            return out
        return wrapped

    def _counted(self, fn, name):
        def wrapped(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            return fn(*args, **kwargs)
        return wrapped

    @contextmanager
    def installed(self):
        """Swap every layer function for its traced wrapper, and back."""
        saved = []
        try:
            for mod_name, attr, name, extra in _SPANNED:
                mod = importlib.import_module(mod_name)
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self._spanned(getattr(mod, attr), name, extra))
            for mod_name, attr, name in _COUNTED:
                mod = importlib.import_module(mod_name)
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self._counted(getattr(mod, attr), name))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def mark(self) -> tuple[int, Counter]:
        return len(self.spans), Counter(self.counts)

    def summary(self, since: tuple[int, Counter]) -> tuple[dict[str, float], Counter]:
        """Self time per span name, and the counts, recorded after ``since``."""
        first, counts_before = since
        spans = self.spans[first:]
        child_time = defaultdict(float)
        for name, start, end, parent in spans:
            if parent >= first:
                child_time[parent] += end - start
        self_time: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(spans, start=first):
            self_time[name] += (end - start) - child_time[i]
        counts = Counter(self.counts)
        counts.subtract(counts_before)
        return dict(self_time), counts

    def dump(self, path: str, since: tuple[int, Counter]) -> None:
        """Write the spans recorded after ``since`` as JSON lines, times
        relative to the first of them."""
        first = since[0]
        t0 = self.spans[first][1] if len(self.spans) > first else 0.0
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans[first:], start=first):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent,
                                     "start": start - t0, "end": end - t0}) + "\n")
