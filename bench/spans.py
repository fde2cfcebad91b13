"""In-memory span recorder wrapped around treecut's public functions.

``instrumented(tracer)`` replaces every public function of the layer
modules listed in ``LAYERS`` by a wrapper that records one span per call:
name, start, end, parent, plus the vertex count ``n`` when the first
argument is a tree.  The wrapper is installed under every name a treecut
module bound the function to (``criteria.spectrum`` as well as
``spectral.spectrum``), so calls between modules are seen too.  Nothing
under ``src/`` changes; leaving the context restores the originals.

Spans stay in memory until the benchmark reads them.  A span's self time
is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, List

# layer name -> module; the layer name prefixes every span it records
LAYERS = {
    "tree": "treecut.tree",
    "kernels": "treecut._kernels",
    "spectral": "treecut.spectral",
    "mixing": "treecut.mixing",
    "generate": "treecut.generate",
    "bdchain": "treecut.bdchain",
    "criteria": "treecut.criteria",
    "cli": "treecut.cli",
}

# modules without ``__all__``: the functions that count as their public API
PUBLIC_OVERRIDE = {"treecut.cli": ("main",)}

# span record fields
NAME, START, END, PARENT, SIZE = range(5)


class Tracer:
    """Collects spans and counters for one traced job."""

    def __init__(self):
        self.spans: List[list] = []
        self.counters: Counter = Counter()
        self._stack: List[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            size = getattr(args[0], "n", None) if args else None
            rec = [name, clock(), 0, stack[-1] if stack else -1, size]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[END] = clock()

        return wrapper


def self_times_ns(spans) -> List[int]:
    """Per span: its duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def outermost(spans, match: Callable[[str], bool]) -> List[list]:
    """Spans whose name matches and that have no matching ancestor."""
    picked = []
    for s in spans:
        if not match(s[NAME]):
            continue
        p = s[PARENT]
        while p >= 0 and not match(spans[p][NAME]):
            p = spans[p][PARENT]
        if p < 0:
            picked.append(s)
    return picked


def _public_functions(module):
    names = PUBLIC_OVERRIDE.get(module.__name__) or getattr(module, "__all__", ())
    for name in names:
        fn = getattr(module, name)
        if inspect.isfunction(fn):
            yield name, fn


@contextmanager
def instrumented(tracer: Tracer):
    """Route every treecut reference to a layer function through ``tracer``.

    Also counts random streams created by the generators
    (``generate.attempts``): each rejection-sampler attempt builds one.
    """
    wrappers = {}
    for layer, modname in LAYERS.items():
        module = importlib.import_module(modname)
        for name, fn in _public_functions(module):
            wrappers[id(fn)] = (fn, tracer.wrap(f"{layer}.{name}", fn))

    generate = sys.modules["treecut.generate"]
    stream_cls = generate.SplitMix64
    counters = tracer.counters

    class CountedStream(stream_cls):
        __slots__ = ()

        def __init__(self, seed):
            counters["generate.attempts"] += 1
            super().__init__(seed)

    patched = []
    modules = [m for name, m in list(sys.modules.items())
               if name == "treecut" or name.startswith("treecut.")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                patched.append((module, attr, value))
                setattr(module, attr, hit[1])
    patched.append((generate, "SplitMix64", stream_cls))
    generate.SplitMix64 = CountedStream
    try:
        yield tracer
    finally:
        for module, attr, value in reversed(patched):
            setattr(module, attr, value)
