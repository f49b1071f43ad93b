"""Span recording around every call into the package's layers.

The tracer wraps each public module-level function of a layer module and
rebinds every name that refers to it across the ``entprobe`` modules, so
calls from the benchmark and calls from one layer into another are both
seen.  Nothing in the package changes; ``uninstall`` puts every original
function back.

A span is ``(name, start, end, parent, job, tag)``: ``name`` is
``<layer>.<function>``, times come from ``perf_counter``, ``parent`` is the
index of the enclosing span (or -1), ``job`` labels the job execution that
caused it, and ``tag`` is the scaling point (``d8``, ``t3e6``) of the
functions listed in ``TAGS``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import tracemalloc
from time import perf_counter

SPAN_FIELDS = ("name", "start", "end", "parent", "job", "tag")


def _dim_tag(value) -> str:
    return f"d{value}"


def _trials_tag(trials: int) -> str:
    exponent = len(str(trials)) - 1
    mantissa, rest = divmod(trials, 10**exponent)
    return f"t{mantissa}e{exponent}" if rest == 0 else f"t{trials}"


# function -> (argument holding the size, size of that argument, formatter)
TAGS = {
    "linops.eig_unitary": ("u", lambda u: u.shape[0], _dim_tag),
    "discrim.holevo_chi": ("group", lambda g: g.dim, _dim_tag),
    "discrim.copies_for_perfect": ("problem", lambda p: p.dim, _dim_tag),
    "discrim.optimal_pair_input": ("w", lambda w: w.shape[0], _dim_tag),
    "mc.sample_heterodyne": ("trials", int, _trials_tag),
    "mc.sample_helstrom": ("trials", int, _trials_tag),
}


class Tracer:
    """Records spans while installed; measures peak allocation of the
    functions in ``memory_functions`` whenever ``tracemalloc`` is tracing."""

    def __init__(self, layers: dict, memory_functions: set):
        self.spans: list = []
        self.trials: dict = {}  # span index -> trials of a sampling call
        self.peak_bytes: dict = {}
        self.job = "setup"
        self._stack: list = []
        self._paused = False
        self._patched: list = []
        self._wrappers: dict = {}
        for layer, module in layers.items():
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                self._wrappers[id(fn)] = (fn, self._wrap(fn, name, name in memory_functions))

    def _wrap(self, fn, name: str, measure_memory: bool):
        tag_rule = TAGS.get(name)
        signature = inspect.signature(fn) if tag_rule else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            tag = ""
            size = None
            if tag_rule is not None:
                arg, measure, fmt = tag_rule
                size = measure(signature.bind(*args, **kwargs).arguments[arg])
                tag = fmt(size)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            tracing_memory = measure_memory and tracemalloc.is_tracing()
            if tracing_memory:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.job, tag)
                if tag_rule is not None and arg == "trials":
                    self.trials[index] = size
                if tracing_memory:
                    peak = tracemalloc.get_traced_memory()[1] - base
                    self.peak_bytes[name] = max(self.peak_bytes.get(name, 0), peak)

        return wrapper

    def install(self) -> None:
        for module in [m for n, m in sys.modules.items() if n == "entprobe" or n.startswith("entprobe.")]:
            for attr, value in list(vars(module).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def pause(self) -> None:
        """Stop recording (reference checks call the package too)."""
        self._paused = True

    def resume(self) -> None:
        self._paused = False
