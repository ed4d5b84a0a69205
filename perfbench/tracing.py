"""Per-layer spans and counters, attached to ``cxho`` from the outside.

:class:`Tracer` replaces every public function of each layer module with a
wrapper that records a span, in every ``cxho.*`` namespace holding a
reference to it (``cli`` imports ``validate``, ``phase_grid`` and
``rotated_path`` by name, ``wavefunctions`` imports ``hermite_table`` by
name), and puts the originals back on :meth:`Tracer.uninstall`.  A span
stores its name, start, end, parent span and request id in flat arrays that
stay in memory until the run writes them out.  A layer's self time is the
sum over its spans of the span's duration minus the part covered by its
child spans.  The package is not modified; no span lives inside it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

#: Layer name -> module whose public functions form the layer.  ``cli`` is
#: the root span around ``cxho.cli.main`` and has no wrapped functions.
LAYERS = {
    "params": "cxho.params",
    "contour": "cxho.contour",
    "kernels": "cxho._kernels",
    "fock": "cxho.fock",
    "wavefunctions": "cxho.wavefunctions",
    "dynamics": "cxho.dynamics",
    "maximize": "cxho.maximize",
}
ALL_LAYERS = ("cli",) + tuple(LAYERS)

#: numpy quadrature-rule functions counted as ``contour.rule_builds``.
RULE_FUNCTIONS = (("numpy.polynomial.legendre", "leggauss"),
                  ("numpy.polynomial.hermite", "hermgauss"))

#: Bytes per computed cell of a complex128 kernel output.
CELL_BYTES = 16


def _size(z) -> int:
    return int(np.size(z))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self._stack: list[int] = []
        self.current_request = -1
        self.counts = {"rule_builds": 0, "rule_nodes": 0, "cells": 0,
                       "samples": 0, "iterations": 0, "maximize_calls": 0,
                       "converged": 0}
        self.cond_max = 0.0
        self.cross_defect_max = 0.0
        self._restore: list[tuple[object, str, object]] = []
        self._hooks = {
            "cxho._kernels.hermite_table": self._count_hermite,
            "cxho._kernels.hermite_table_numpy": self._count_hermite,
            "cxho._kernels.poly_gauss_eval": self._count_poly,
            "cxho._kernels.poly_gauss_eval_numpy": self._count_poly,
            "cxho.wavefunctions.gram_and_metric": self._record_gram,
            "cxho.wavefunctions.cross_gram": self._record_cross,
            "cxho.dynamics.trajectory": self._count_samples,
            "cxho.maximize.maximize": self._record_maximize,
        }

    # -- counters fed from call arguments and results ----------------------

    def _count_hermite(self, args, kwargs, result):
        self.counts["cells"] += int(args[0]) * _size(args[1])

    def _count_poly(self, args, kwargs, result):
        self.counts["cells"] += _size(args[0]) * _size(args[3])

    def _record_gram(self, args, kwargs, result):
        cond = result.condition_number
        if np.isfinite(cond):
            self.cond_max = max(self.cond_max, float(cond))

    def _record_cross(self, args, kwargs, result):
        defect = np.abs(result - np.eye(result.shape[0])).max()
        if np.isfinite(defect):
            self.cross_defect_max = max(self.cross_defect_max, float(defect))

    def _count_samples(self, args, kwargs, result):
        self.counts["samples"] += len(result)

    def _record_maximize(self, args, kwargs, result):
        self.counts["maximize_calls"] += 1
        self.counts["iterations"] += result.iterations
        self.counts["converged"] += bool(result.converged)

    def _count_rule(self, args, kwargs, result):
        self.counts["rule_builds"] += 1
        self.counts["rule_nodes"] += int(args[0] if args else kwargs["deg"])

    # -- spans --------------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called ``name``."""
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.current_request)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn, hook):
        def traced(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if hook is not None:
                hook(args, kwargs, result)
            return result
        return functools.wraps(fn)(traced)

    def _wrap_counter(self, fn, hook):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(args, kwargs, result)
            return result
        return functools.wraps(fn)(counted)

    # -- install / uninstall -------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "cxho" and not mod_name.startswith("cxho."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        for layer, mod_name in LAYERS.items():
            module = importlib.import_module(mod_name)
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod_name):
                    continue
                if any(fn is orig for _, _, orig in self._restore):
                    continue
                hook = self._hooks.get(f"{mod_name}.{attr}")
                self._replace_everywhere(
                    fn, self._wrap(f"{layer}.{fn.__name__}", fn, hook))
        for mod_name, attr in RULE_FUNCTIONS:
            module = importlib.import_module(mod_name)
            original = getattr(module, attr)
            self._restore.append((module, attr, original))
            setattr(module, attr, self._wrap_counter(original, self._count_rule))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names, dtype=str),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "request": np.frombuffer(self.request, dtype=np.int32).copy(),
        }

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Span count and summed self time per layer."""
        a = self.arrays()
        duration = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        children = np.bincount(a["parent"][has_parent], weights=duration[has_parent],
                               minlength=duration.size)
        self_time = duration - children
        layer_of_name = np.array([n.split(".", 1)[0] for n in self.names] or [""])
        layer = layer_of_name[a["name_id"]] if a["name_id"].size else np.array([])
        return {name: {"calls": int((layer == name).sum()),
                       "self_s": float(self_time[layer == name].sum())}
                for name in ALL_LAYERS}
