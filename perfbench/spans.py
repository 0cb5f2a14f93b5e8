"""Spans around the public functions of each polyrot module, recorded from outside.

``Tracer.install`` wraps every function in ``SPANS`` and rebinds the wrapper in
every ``polyrot`` module namespace that holds the original (``cli`` keeps its
own ``full_report``, ``bounds`` its own ``rotation_speed``, and so on), so
calls through any import path are recorded.  ``restore`` puts the originals
back.  Spans stay in memory as flat arrays; ``self_times`` folds them into
per-name call counts and self time (a span's duration minus the time its
direct child spans cover), and ``save`` writes them out once the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

# (module, function) pairs that get a span, named "<module>.<function>".
SPANS = (
    ("cli", "main"),
    ("roots", "find_roots"),
    ("roots", "classify_zeros"),
    ("poly", "rotation_speed"),
    ("poly", "from_roots"),
    ("bounds", "full_report"),
    ("bounds", "bound_value"),
    ("bounds", "bound_coeff2"),
    ("oracle", "arc_increment"),
    ("oracle", "arg_derivative_fd"),
    ("blaschke", "check_mercer_remark"),
    ("corpus", "random_polynomial"),
    ("corpus", "random_rational"),
    ("rational", "check_rotation_bounds"),
    ("rational", "arg_derivative"),
    ("report", "dump_json"),
    ("report", "csv_cell"),
)

# (module, class, property) read so often that only a call count is kept.
COUNTED_PROPERTIES = (("poly", "Polynomial", "coeff_scale"),)


class Tracer:
    def __init__(self):
        self.names = [f"{m}.{f}" for m, f in SPANS]
        self.span_name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = {f"{m}.{p}": 0 for m, _, p in COUNTED_PROPERTIES}
        self.current_request = 0
        self._stack = [-1]
        self._saved: list = []

    def _span(self, index: int, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.start)
            self.span_name.append(index)
            self.parent.append(self._stack[-1])
            self.request.append(self.current_request)
            self.end.append(0.0)
            self._stack.append(sid)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[sid] = perf_counter()
                self._stack.pop()

        return wrapper

    def _counted(self, name: str, prop: property) -> property:
        def fget(obj):
            self.counts[name] += 1
            return prop.fget(obj)

        return property(fget)

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "polyrot" or n.startswith("polyrot.")]
        for index, (mod_name, fn_name) in enumerate(SPANS):
            original = getattr(importlib.import_module(f"polyrot.{mod_name}"), fn_name)
            wrapper = self._span(index, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, wrapper)
        for mod_name, cls_name, prop_name in COUNTED_PROPERTIES:
            cls = getattr(importlib.import_module(f"polyrot.{mod_name}"), cls_name)
            prop = cls.__dict__[prop_name]
            self._saved.append((cls, prop_name, prop))
            setattr(cls, prop_name, self._counted(f"{mod_name}.{prop_name}", prop))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def self_times(self) -> dict[str, tuple[int, float]]:
        """{span name: (calls, self seconds)} over every recorded span."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        covered = np.zeros_like(dur)
        child = parent >= 0
        np.add.at(covered, parent[child], dur[child])
        own = dur - covered
        calls = np.bincount(names, minlength=len(self.names))
        secs = np.bincount(names, weights=own, minlength=len(self.names))
        return {n: (int(calls[i]), float(secs[i])) for i, n in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            span_name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            request=np.frombuffer(self.request, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
