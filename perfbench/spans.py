"""Span recorder that wraps a package's public functions from outside it.

Each wrapped call opens a span on a stack; when it returns, its duration
is charged to the span's name and subtracted from the parent's self time,
so a layer's ``self_s`` excludes every nested wrapped call.  A name that
recurses into itself counts its inclusive time (``total_s``) once, at the
outermost call.  FFT entry points are spans of the ``fft`` layer, and the
points they transform are also charged to the innermost enclosing span.

Wrapping replaces every module-level binding of a wrapped function, so a
name imported with ``from .grid import sup_norm`` into another module is
traced too.  Nothing inside the traced package changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from dataclasses import dataclass

# 1-D entry points: (x, n=None, axis=-1, ...); the per-transform length is n,
# or the input length along axis (twice the Hermitian half minus one for c2r).
FFT_1D = {"fft": "c2c", "ifft": "c2c", "rfft": "r2c", "irfft": "c2r", "hfft": "c2r", "ihfft": "r2c"}
FFT_ND = ("fft2", "ifft2", "fftn", "ifftn", "rfft2", "irfft2", "rfftn", "irfftn")
FFT_MODULES = ("numpy.fft", "scipy.fft")


@dataclass
class LayerStats:
    calls: int = 0
    failed: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    fft_points: int = 0
    flops_computed: float = 0.0


class _Frame:
    __slots__ = ("stats", "start", "child_s")

    def __init__(self, stats: LayerStats, start: float):
        self.stats = stats
        self.start = start
        self.child_s = 0.0


class SpanRecorder:
    """Aggregates spans per name; ``stats`` maps name -> :class:`LayerStats`.

    ``counters`` maps a span name to ``hook(args, kwargs, result) -> dict``;
    the returned increments are added to ``extra[name]`` after each
    successful call, so counts are taken where the work happens.
    """

    ROOT = "<root>"

    def __init__(self, counters=None, clock=time.perf_counter):
        self.clock = clock
        self.counters = counters or {}
        self.reset()

    def reset(self):
        self.stats: dict[str, LayerStats] = {}
        self.extra: dict[str, dict[str, float]] = {}
        self._active: dict[str, int] = {}
        self._stack = [_Frame(self._stats(self.ROOT), self.clock())]

    def _stats(self, name: str) -> LayerStats:
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = LayerStats()
        return stats

    def call(self, name: str, fn, args, kwargs):
        stats = self._stats(name)
        frame = _Frame(stats, self.clock())
        self._stack.append(frame)
        self._active[name] = self._active.get(name, 0) + 1
        ok = False
        try:
            result = fn(*args, **kwargs)
            ok = True
        finally:
            duration = self.clock() - frame.start
            self._stack.pop()
            self._active[name] -= 1
            stats.calls += 1
            stats.failed += not ok
            stats.self_s += duration - frame.child_s
            if not self._active[name]:
                stats.total_s += duration
            self._stack[-1].child_s += duration
        hook = self.counters.get(name)
        if hook is not None:
            bucket = self.extra.setdefault(name, {})
            for key, value in hook(args, kwargs, result).items():
                bucket[key] = bucket.get(key, 0) + value
        return result

    def charge_fft(self, points: int, flops: float):
        """Charge an FFT's points to the innermost enclosing span."""
        owner = self._stack[-1].stats
        owner.fft_points += points
        owner.flops_computed += flops


def _fft_cost(name: str, args, kwargs, result) -> tuple[int, float]:
    """Points transformed and the computed 5 n log2 n flop count (half for real transforms)."""
    kind = FFT_1D.get(name)
    if kind is None:  # n-D: one transform over the larger of input and output
        points = max(getattr(args[0], "size", 0), getattr(result, "size", 0))
        return points, 5.0 * points * math.log2(max(points, 2))
    x = args[0]
    shape = getattr(x, "shape", None) or (len(x),)
    n = args[1] if len(args) > 1 else kwargs.get("n")
    axis = args[2] if len(args) > 2 else kwargs.get("axis", -1)
    along = shape[axis]
    length = n if n is not None else (2 * (along - 1) if kind == "c2r" else along)
    batch = math.prod(shape) // along if along else 0
    factor = 5.0 if kind == "c2c" else 2.5
    return length * batch, factor * length * math.log2(max(length, 2)) * batch


def _make_wrapper(recorder: SpanRecorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return recorder.call(name, fn, args, kwargs)

    return wrapper


def _make_fft_wrapper(recorder: SpanRecorder, short: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = recorder.call("fft", fn, args, kwargs)
        recorder.charge_fft(*_fft_cost(short, args, kwargs, result))
        return result

    return wrapper


def public_functions(module) -> list[str]:
    """Names in ``module.__all__`` bound to plain functions defined in that module."""
    out = []
    for name in getattr(module, "__all__", ()):
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            out.append(name)
    return out


class Instrumentation:
    """Context manager that installs span wrappers and restores the originals.

    ``layers`` maps a layer name to an imported module; each public function
    ``f`` of that module becomes span ``<layer>.f``.  Every binding of a
    wrapped object inside ``package`` (and the FFT modules) is replaced.
    """

    def __init__(self, recorder: SpanRecorder, package: str, layers: dict):
        self.recorder = recorder
        self.package = package
        self.layers = layers
        self._patched: list[tuple[object, str, object]] = []

    def _targets(self) -> dict[int, tuple[object, object]]:
        by_id: dict[int, tuple[object, object]] = {}
        for layer, module in self.layers.items():
            for name in public_functions(module):
                fn = getattr(module, name)
                by_id[id(fn)] = (fn, _make_wrapper(self.recorder, f"{layer}.{name}", fn))
        for mod_name in FFT_MODULES:
            module = importlib.import_module(mod_name)
            for short in (*FFT_1D, *FFT_ND):
                fn = getattr(module, short, None)
                if fn is not None and id(fn) not in by_id:
                    by_id[id(fn)] = (fn, _make_fft_wrapper(self.recorder, short, fn))
        return by_id

    def _modules(self):
        prefix = self.package + "."
        names = [m for m in list(sys.modules) if m == self.package or m.startswith(prefix)]
        names += FFT_MODULES
        return [sys.modules[m] for m in names if sys.modules.get(m) is not None]

    def __enter__(self):
        targets = self._targets()
        for module in self._modules():
            for key, value in list(vars(module).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, key, hit[1])
                    self._patched.append((module, key, value))
        return self.recorder

    def __exit__(self, *exc):
        for module, key, value in reversed(self._patched):
            setattr(module, key, value)
        self._patched.clear()
        return False
