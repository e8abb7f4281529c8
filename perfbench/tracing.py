"""Span tracing of thermalpdc's layers from outside the package.

A layer is one module of the package.  ``Tracer.install`` finds every
public function, public class method and public property getter a layer
defines by inspecting the module, wraps it, and puts the wrapper into every
``thermalpdc`` namespace that holds the original (``scenario`` imports
``check_separability_lossy`` by name, for example).  ``uninstall`` puts the
originals back; the tracer can be installed again.  Wrappers record spans
only inside ``Tracer.call``; elsewhere they pass straight through.

Spans are kept in memory in flat arrays (name, start, end, parent, call id,
error), reduced when the run ends and written out by ``dump_spans``.  A
span's self time is its duration minus its children's.  With
``memory=True`` the wrappers record no spans; they measure instead, with
tracemalloc, the peak allocation above the starting level during each
layer's outermost spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc
from array import array
from contextlib import contextmanager

import numpy as np

LAYERS = ("scenario", "gaussian", "correlations", "fock", "ghost", "objects", "artifacts")
PACKAGE = "thermalpdc"


def public_callables(module):
    """(qualified name, owning class or None, raw attribute) for every public
    function, public class method and public property defined in `module`."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, None, obj
        elif inspect.isclass(obj):
            for attr, raw in vars(obj).items():
                if not attr.startswith("_") and (
                    inspect.isfunction(raw) or isinstance(raw, (staticmethod, classmethod, property))
                ):
                    yield f"{name}.{attr}", obj, raw


class Tracer:
    def __init__(self, memory: bool = False):
        self.memory = memory
        self.names: list[str] = []  # span name id -> "layer.qualname"
        self.layer_of: list[int] = []  # span name id -> index into LAYERS
        self.fid = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.call_id = array("i")
        self.error = array("b")
        self.peak_alloc = [0] * len(LAYERS)  # bytes, memory mode only
        self._stack = [-1]
        self._call = -1
        self._armed = False
        self._depth = [0] * len(LAYERS)
        self._outer: list[list[int]] = []  # [layer, baseline, max peak] per open outermost span
        self._patches: list[tuple[object, str, object, object]] = []  # target, attr, original, wrapper
        self._installed = False

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if not self._patches:
            self._discover()
        for target, attr, _, wrapper in self._patches:
            setattr(target, attr, wrapper)
        self._installed = True

    def uninstall(self) -> None:
        if not self._installed:
            return
        for target, attr, original, _ in reversed(self._patches):
            setattr(target, attr, original)
        self._installed = False

    def _discover(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for layer_index, layer in enumerate(LAYERS):
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for qualname, owner, raw in public_callables(module):
                fid = len(self.names)
                self.names.append(f"{layer}.{qualname}")
                self.layer_of.append(layer_index)
                if owner is None:
                    wrapper = self._wrap(raw, fid)
                    for ns in modules:
                        for attr, value in vars(ns).items():
                            if value is raw:
                                self._patches.append((ns, attr, raw, wrapper))
                    continue
                if isinstance(raw, property):
                    wrapper = property(self._wrap(raw.fget, fid), raw.fset, raw.fdel, raw.__doc__)
                elif isinstance(raw, (staticmethod, classmethod)):
                    wrapper = type(raw)(self._wrap(raw.__func__, fid))
                else:
                    wrapper = self._wrap(raw, fid)
                self._patches.append((owner, qualname.rsplit(".", 1)[1], raw, wrapper))

    def _wrap(self, fn, fid):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._armed:
                return fn(*args, **kwargs)
            sid = tracer._enter(fid)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                tracer._exit(sid, fid, failed)

        return traced

    # -- recording ---------------------------------------------------------

    @contextmanager
    def call(self, call_id: int):
        """Record spans for the thermalpdc calls made inside the block."""
        self._call, self._armed = call_id, True
        try:
            yield
        finally:
            self._armed = False

    def _enter(self, fid: int) -> int:
        if self.memory:
            layer = self.layer_of[fid]
            if self._depth[layer] == 0:
                self._fold_peak()
                current = tracemalloc.get_traced_memory()[0]
                self._outer.append([layer, current, current])
            self._depth[layer] += 1
            return -1
        sid = len(self.fid)
        self.fid.append(fid)
        self.parent.append(self._stack[-1])
        self.call_id.append(self._call)
        self.error.append(0)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _exit(self, sid: int, fid: int, failed: bool) -> None:
        if self.memory:
            layer = self.layer_of[fid]
            self._depth[layer] -= 1
            if self._depth[layer] == 0:
                self._fold_peak()
                _, baseline, peak = self._outer.pop()
                self.peak_alloc[layer] = max(self.peak_alloc[layer], peak - baseline)
            return
        self.end[sid] = time.perf_counter()
        self.error[sid] = failed
        self._stack.pop()

    def _fold_peak(self) -> None:
        peak = tracemalloc.get_traced_memory()[1]
        for record in self._outer:
            record[2] = max(record[2], peak)
        tracemalloc.reset_peak()

    # -- reduction ---------------------------------------------------------

    def self_times(self) -> np.ndarray:
        duration = np.array(self.end) - np.array(self.start)
        parent = np.array(self.parent)
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(duration))
        return duration - children

    def summary(self) -> dict:
        """Per span name and per layer: calls, self seconds, errors."""
        fid = np.array(self.fid)
        count = len(self.names)
        calls = np.bincount(fid, minlength=count)
        self_s = np.bincount(fid, weights=self.self_times(), minlength=count)
        errors = np.bincount(fid, weights=np.array(self.error), minlength=count)
        layer = np.array(self.layer_of)
        by_name = {
            name: {"calls": int(calls[i]), "self_s": float(self_s[i]), "errors": int(errors[i])}
            for i, name in enumerate(self.names)
        }
        by_layer = {
            name: {
                "calls": int(calls[layer == i].sum()),
                "self_s": float(self_s[layer == i].sum()),
                "errors": int(errors[layer == i].sum()),
            }
            for i, name in enumerate(LAYERS)
        }
        return {"functions": by_name, "layers": by_layer}

    def dump_spans(self, path) -> None:
        """Write every span to an ``.npz`` file: per span ``name_id``,
        ``start``, ``end``, ``parent`` (span index, -1 at a root), ``call``
        and ``error``, and ``names`` mapping a name id to its span name."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.array(self.fid),
            start=np.array(self.start),
            end=np.array(self.end),
            parent=np.array(self.parent),
            call=np.array(self.call_id),
            error=np.array(self.error, dtype=bool),
        )
