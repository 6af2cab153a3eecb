"""Span tracing installed around trident's public functions from outside.

``Tracer.install`` replaces every binding of a wrapped function inside the
``trident`` package (``trident.certify.meeting_counts`` as well as
``trident.counting.meeting_counts`` and ``trident.meeting_counts``), so each
caller reaches the wrapper through the name it already uses.  ``remove``
puts every original object back.  No file of the package changes.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from time import perf_counter
from types import FunctionType

import numpy as np

# Modules whose public functions are wrapped, with the layer name used in
# metric names (metric names may not start with "_").
LAYERS = {
    "cli": "cli",
    "formats": "formats",
    "graph": "graph",
    "counting": "counting",
    "_fast": "fast",
    "certify": "certify",
    "enumerator": "enumerator",
}


def _file_bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _graph_n(args, result):
    return {"vertices_in": args[0].n}


def _forward_wedges(args, result):
    out_deg = np.diff(np.asarray(args[0], np.int64))
    return {"wedges": int(np.sum(out_deg * (out_deg - 1) // 2))}


def _peel_steps(args, result):
    return {"steps": len(result.steps), "vertices_in": args[0].n}


def _graphs_enumerated(args, result):
    return {"graphs": result.graphs_enumerated}


# Counters taken when a span ends: span name -> hook(args, result).
HOOKS = {
    "formats.load_graph": _file_bytes,
    "graph.delete_vertices": _graph_n,
    "counting.meeting_counts": _graph_n,
    "fast.forward_triangles": _forward_wedges,
    "certify.peel": _peel_steps,
    "enumerator.enumerate_and_verify": _graphs_enumerated,
}

# Certificate (de)serialisation methods of PeelCertificate, traced under the
# one span name "certify.cert_io"; the hooks count the JSON text's bytes.
CERT_IO = {
    "to_json": lambda args, result: {"bytes": len(result)},
    "from_json": lambda args, result: {"bytes": len(args[1])},
    "save": None,
    "load": None,
}


class Tracer:
    """Records spans [name, start, end, parent index, counters] in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.installed: set[str] = set()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def take(self) -> list[list]:
        """Return the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name: str, fn, hook):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if hook is not None:
                try:
                    rec[4] = hook(args, result)
                except (IndexError, AttributeError, TypeError, OSError):
                    rec[4] = {"hook_errors": 1}  # a changed signature must not break the call
            return result

        self.installed.add(name)
        return traced

    def install(self) -> None:
        package = "trident"
        wrappers = {}
        for module_name, layer in LAYERS.items():
            try:
                module = importlib.import_module(f"{package}.{module_name}")
            except ImportError:
                self.absent.append(layer)
                continue
            for attr, obj in vars(module).items():
                if (isinstance(obj, FunctionType) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    name = f"{layer}.{attr}"
                    wrappers[id(obj)] = self._wrap(name, obj, HOOKS.get(name))

        owners = [m for n, m in list(sys.modules.items())
                  if m is not None and (n == package or n.startswith(package + "."))]
        for owner in owners:
            for attr, obj in list(vars(owner).items()):
                if id(obj) in wrappers:
                    self._patches.append((owner, attr, obj))
                    setattr(owner, attr, wrappers[id(obj)])

        certify = sys.modules.get(f"{package}.certify")
        cert_cls = getattr(certify, "PeelCertificate", None)
        for attr, hook in CERT_IO.items():
            original = vars(cert_cls).get(attr) if cert_cls is not None else None
            if original is None:
                continue
            if isinstance(original, classmethod):
                replacement = classmethod(self._wrap("certify.cert_io", original.__func__, hook))
            else:
                replacement = self._wrap("certify.cert_io", original, hook)
            self._patches.append((cert_cls, attr, original))
            setattr(cert_cls, attr, replacement)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._stack.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False


class SpanTable:
    """Aggregates over one list of spans."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self.self_time = [end - start - c for (_, start, end, _, _), c in zip(spans, child)]
        # names of each span's ancestors, innermost first
        self.ancestors = []
        for _, _, _, parent, _ in spans:
            self.ancestors.append(() if parent < 0 else (spans[parent][0],) + self.ancestors[parent])

    def _select(self, name: str):
        return [i for i, s in enumerate(self.spans) if s[0] == name]

    def inclusive(self, name: str) -> float:
        """Wall time inside ``name``, counting nested calls of ``name`` once."""
        return sum(self.spans[i][2] - self.spans[i][1] for i in self._select(name)
                   if name not in self.ancestors[i])

    def self_s(self, prefix: str) -> float:
        """Self time of the spans named ``prefix`` or inside the layer ``prefix.``."""
        return sum(t for (n, *_), t in zip(self.spans, self.self_time)
                   if n == prefix or n.startswith(prefix + "."))

    def calls(self, name: str) -> int:
        return len(self._select(name))

    def counter(self, name: str, key: str, under: str | None = None) -> int:
        """Sum of counter ``key`` over spans ``name``, optionally only over
        those nested in a span named ``under``."""
        return sum(self.spans[i][4].get(key, 0) for i in self._select(name)
                   if self.spans[i][4] and (under is None or under in self.ancestors[i]))

    def top_level(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def by_name(self) -> dict[str, dict]:
        table: dict[str, dict] = {}
        for i, ((n, start, end, _, _), t) in enumerate(zip(self.spans, self.self_time)):
            row = table.setdefault(n, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += t
            if n not in self.ancestors[i]:
                row["s"] += end - start
        return table
