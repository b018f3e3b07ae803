"""Span recorder for the traced run.

While installed, the recorder replaces public functions of ``nashroyalty``
with wrappers.  A span wrapper records (name, start, end, parent span, op)
for every call; a counter wrapper only counts calls and their time, for a
leaf called so often (``theta_model`` inside ``dblquad``) that a span per
call would swamp the trace.  Counter time is not a child span, so it stays
in its caller's self time.

A function is replaced in every ``nashroyalty`` module that holds it,
because ``cli.py``, ``sweep.py`` and others bind names with
``from ... import``: patching only the defining module would miss them.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from pathlib import Path

import numpy as np

# (defining module, function) pairs that get a span per call.
SPANNED = (
    ("nashroyalty.cli", "main"),
    ("nashroyalty.sweep", "family_sweep"),
    ("nashroyalty.sweep", "write_csv"),
    ("nashroyalty.estimators", "estimate"),
    ("nashroyalty.posterior", "cdf_at"),
    ("nashroyalty.posterior", "pdf_curve"),
    ("nashroyalty.posterior", "mode_from_curve"),
    ("nashroyalty.posterior", "numeric_median"),
    ("nashroyalty.posterior", "numeric_mean"),
    ("nashroyalty.montecarlo", "sample_thetas"),
    ("nashroyalty.montecarlo", "summarize"),
)
# Leaf functions that are only counted and timed.
COUNTED = (("nashroyalty.bargaining", "theta_model"),)


def layer_name(module: str, function: str) -> str:
    return f"{module.removeprefix('nashroyalty.')}.{function}"


class Tracer:
    """Keeps spans in memory; ``install()`` patches, ``restore()`` undoes."""

    def __init__(self) -> None:
        self.names: list[str] = []  # span name by id
        self.spans: list = []  # (name id, start ns, end ns, parent index, op)
        self.counters: dict[str, list[int]] = {}  # name -> [calls, ns]
        self.draws: list[int] = []  # n of every sample_thetas call
        self.op = -1
        self._stack: list[int] = []
        self._patched: list = []

    def _span(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.op)

        return wrapper

    def _counter(self, name: str, fn):
        stat = self.counters.setdefault(name, [0, 0])
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                stat[1] += clock() - start
                stat[0] += 1

        return wrapper

    def _sample_thetas(self, fn):
        draws = self.draws

        @functools.wraps(fn)
        def wrapper(model, bounds, n, seed):
            draws.append(int(n))
            return fn(model, bounds, n, seed)

        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        replacements = []
        for module, function in SPANNED + COUNTED:
            original = getattr(sys.modules[module], function)
            name = layer_name(module, function)
            if (module, function) in COUNTED:
                wrapper = self._counter(name, original)
            elif function == "sample_thetas":
                wrapper = self._span(name, self._sample_thetas(original))
            else:
                wrapper = self._span(name, original)
            replacements.append((original, wrapper))
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "nashroyalty" or key.startswith("nashroyalty."))
        ]
        for original, wrapper in replacements:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def arrays(self) -> dict:
        """Spans as columns, with each span's self time (ns)."""
        rows = np.array(self.spans, dtype=np.int64).reshape(-1, 5)
        name_id, start, end, parent, op = rows.T
        duration = end - start
        self_ns = duration.copy()
        child = parent >= 0
        np.subtract.at(self_ns, parent[child], duration[child])
        return {
            "name": name_id,
            "start_ns": start,
            "end_ns": end,
            "parent": parent,
            "op": op,
            "duration_ns": duration,
            "self_ns": self_ns,
        }

    def write(self, path: Path, meta: dict) -> None:
        """Write every span, column-wise, as gzip-compressed JSON."""
        columns = self.arrays()
        payload = {
            "meta": meta,
            "names": self.names,
            "counters": self.counters,
            "spans": {
                key: columns[key].tolist()
                for key in ("name", "start_ns", "end_ns", "parent", "op", "self_ns")
            },
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(payload, fh)
