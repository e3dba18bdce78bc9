"""In-memory spans around calls into the tensorpoly modules.

`Tracer.install` replaces every public function of the layer modules with
a timing wrapper, at every module attribute that is bound to it (the
defining module, the package namespace, and modules that imported the
name), so calls resolved through any of them are recorded. Nothing under
the package is edited; `uninstall` puts the original objects back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import threading
import time
from dataclasses import dataclass, field

LAYERS = ("cli", "io", "datagen", "training", "model", "metrics", "baselines", "benchmark")


@dataclass
class Span:
    id: int
    parent: int
    name: str
    start: float
    end: float = 0.0
    nested: bool = False  # an enclosing span on this thread has the same name
    size: int = 0  # bytes of the file (io CSV calls) or rows (model.predict)


def _csv_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _predict_rows(args, kwargs, result):
    return len(result)


SIZE_OF = {
    "io.write_dataset_csv": _csv_bytes,
    "io.read_dataset_csv": _csv_bytes,
    "io.write_predictions_csv": _csv_bytes,
    "model.predict": _predict_rows,
}


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    _local: threading.local = field(default_factory=threading.local)
    _ids: itertools.count = field(default_factory=lambda: itertools.count(1))
    _patched: list = field(default_factory=list)

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def begin(self, name):
        stack = self._stack()
        span = Span(
            id=next(self._ids),
            parent=stack[-1].id if stack else 0,
            name=name,
            start=time.perf_counter(),
            nested=any(s.name == name for s in stack),
        )
        stack.append(span)
        return span

    def end(self, span):
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def wrap(self, name, fn):
        size_of = SIZE_OF.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if size_of is not None:
                span.size = size_of(args, kwargs, result)
            return result

        return traced

    def install(self):
        modules = [importlib.import_module("tensorpoly")]
        modules += [importlib.import_module(f"tensorpoly.{layer}") for layer in LAYERS]
        for layer, module in zip(LAYERS, modules[1:]):
            for attr, fn in vars(module).copy().items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrapper = self.wrap(f"{layer}.{attr}", fn)
                for holder in modules:
                    for key, value in vars(holder).copy().items():
                        if value is fn:
                            self._patched.append((holder, key, fn))
                            setattr(holder, key, wrapper)

    def uninstall(self):
        for holder, key, fn in reversed(self._patched):
            setattr(holder, key, fn)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def summarize(spans):
    """Per span name: call count, outermost inclusive seconds, self seconds, size."""
    child_time = {}
    for s in spans:
        child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
    out = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "size": 0})
        dur = s.end - s.start
        row["calls"] += 1
        row["self_s"] += dur - child_time.get(s.id, 0.0)
        if not s.nested:
            row["total_s"] += dur
            row["size"] += s.size
    return out
