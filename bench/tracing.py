"""Span tracing of qpurify's layers, installed from outside the package.

A :class:`Tracer` replaces each public function of the layer modules with a
wrapper that records a span (name, start, end, parent span, op id) and puts
the original back on exit. Every module namespace that imported the function
(``purify.hermitian_eigen``, the ``qpurify`` package itself, ...) is
rebound too, so calls between layers are seen as nested spans and each
layer's self time can be computed. Spans stay in memory until
:meth:`Tracer.dump`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict

#: The package's modules; each one is a layer of the per-layer report.
LAYERS = ("rng", "core", "linalg", "purify", "circuit", "io", "bloch", "cli")

#: Per-element scalar helpers called inside the layers' inner loops. A span per
#: call would time the tracer, not the layer, so they stay unwrapped.
_SKIP = {"rng.word", "core.flat_index"}

#: Public methods worth a span of their own, as (layer, class, method).
_METHODS = (("rng", "CounterRng", "complex_normal_matrix"),)


def _zero_branches(args, kwargs, coeffs):
    from qpurify.core import DEFAULT_TOL

    tol = kwargs.get("tol", args[1] if len(args) > 1 else None) or DEFAULT_TOL
    return {"purify.zero_branches": int((coeffs.row_weights() <= tol.eps_pivot).sum())}


#: Counters taken from a call's arguments and result, at the layer boundary.
_COUNTERS = {
    "purify.cholesky_purify": _zero_branches,
    "circuit.extract_parameters": lambda a, k, r: {"circuit.parameters": r.parameter_count},
    "circuit.schedule_from_parameters": lambda a, k, r: {"circuit.gates": len(r.gates)},
    "bloch.bloch_surface": lambda a, k, r: {"bloch.points": len(r)},
}
for _dump in ("dump_density", "dump_state", "dump_circuit", "dump_coefficients"):
    _COUNTERS[f"io.{_dump}"] = lambda a, k, r: {"io.bytes_written": len(r.encode())}


def _span_name(name, args, kwargs):
    # the two simulation modes are different layers of work; name them apart
    if name == "circuit.simulate_circuit":
        mode = kwargs.get("mode", args[1] if len(args) > 1 else "product")
        return f"circuit.simulate_{mode}"
    return name


def _public_functions(module, layer):
    for attr, value in vars(module).items():
        if attr.startswith("_") or not callable(value) or isinstance(value, type):
            continue
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if not hasattr(value, "__code__") or f"{layer}.{attr}" in _SKIP:
            continue
        yield attr, value


class Tracer:
    """Records spans of the wrapped layer functions while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, op]
        self.counts: dict[str, int] = defaultdict(int)
        self.op = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around a block of the caller's code."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name, fn):
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(_span_name(name, args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counts[key] += value
            return result

        return traced

    def __enter__(self):
        modules = [importlib.import_module(f"qpurify.{layer}") for layer in LAYERS]
        modules.append(importlib.import_module("qpurify"))
        wrapped = {}
        for layer, module in zip(LAYERS, modules):
            for attr, fn in _public_functions(module, layer):
                wrapped[fn] = self._wrap(f"{layer}.{attr}", fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrapped:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapped[value])
        for layer, cls_name, method in _METHODS:
            cls = getattr(modules[LAYERS.index(layer)], cls_name)
            original = cls.__dict__[method]
            self._undo.append((cls, method, original))
            setattr(cls, method, self._wrap(f"{layer}.{method}", original))
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        return False

    def dump(self, path):
        """Write the spans and counters as JSON."""
        keys = ("name", "start_ns", "end_ns", "parent", "op")
        payload = {
            "spans": [dict(zip(keys, span)) for span in self.spans],
            "counts": dict(self.counts),
        }
        path.write_text(json.dumps(payload, separators=(",", ":")))

    def absorb(self, path):
        """Append the spans and counters another process dumped to ``path``."""
        payload = json.loads(path.read_text())
        base = len(self.spans)
        for s in payload["spans"]:
            parent = None if s["parent"] is None else s["parent"] + base
            self.spans.append([s["name"], s["start_ns"], s["end_ns"], parent, self.op])
        for key, value in payload["counts"].items():
            self.counts[key] += value

    def self_times(self):
        """Seconds of self time and call count per span name.

        Self time is a span's duration minus the durations of its direct
        children; wrapped calls never overlap within one process.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        seconds: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for (name, start, end, _, _), inner in zip(self.spans, child_ns):
            seconds[name] += (end - start - inner) * 1e-9
            calls[name] += 1
        return seconds, calls

