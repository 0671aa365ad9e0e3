"""Span tracing of qev's public functions, installed from outside the package.

``Tracer.install`` replaces every public function (a function defined in the
module whose name has no leading underscore) of the traced modules with a
wrapper that records one span per call.  It patches the attribute in every
qev module that holds the function, because callers reach a function either
through its defining module's globals or through a ``from .x import f``
binding in their own module.  No file of the package changes.

A span records name, thread, parent span, start and end; a few layers also
record a count (grid points, cells, elements, bytes written) or an allocation
peak.  ``concurrent.futures.ThreadPoolExecutor.submit`` is patched while the
tracer is installed so that work a pool runs keeps the submitting span as
its parent.
"""

from __future__ import annotations

import contextvars
import functools
import os
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

TRACED_MODULES = ("numerics", "state", "wigner", "oracle", "entanglement", "sweep", "formats", "cli")

# formats.fmt runs once per number written (66,049 times per 257^2 CSV); a
# span per call would cost more than the call and bury write_grid_csv.
# numerics.laguerre_general is reached only through laguerre_assoc_half, and
# cli's parser builder and command functions only through cli.main, whose
# spans already cover them: cli.main's self time is the CLI layer's own work.
NOT_TRACED = {
    "formats.fmt", "numerics.laguerre_general", "cli.build_parser",
    "cli.cmd_slice", "cli.cmd_validate", "cli.cmd_entangle", "cli.cmd_sweep", "cli.cmd_selftest",
}

# Layers whose allocation peak is recorded.  tracemalloc slows every
# allocation while it runs (transform_points by 2.8x when it ran on every
# call), so it runs only inside the first call of each distinct signature:
# calls with the same state, array shapes and rule orders allocate the same.
ALLOC_LAYERS = {"oracle.oracle_slice", "oracle.transform_points", "oracle.wigner_purity"}


def _alloc_key(value):
    if hasattr(value, "shape"):
        return ("shape", value.shape)
    if hasattr(value, "order") and hasattr(value, "nodes"):
        return ("rule", value.order)
    try:
        hash(value)
    except TypeError:
        return type(value).__name__
    return value


def _signature(name: str, args, kwargs) -> tuple:
    return (name, *map(_alloc_key, args), *((k, _alloc_key(v)) for k, v in sorted(kwargs.items())))


def _size(value) -> int:
    return int(getattr(value, "size", 1))


def _file_bytes(args, kwargs) -> int:
    path = kwargs.get("path", args[0] if args else None)
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


# name -> function(args, kwargs, result) giving the count recorded on the span.
COUNTERS = {
    "oracle.oracle_slice": lambda a, k, r: int(r.values.size),
    "oracle.transform_points": lambda a, k, r: int(len(r)),
    "wigner.significant_extrema": lambda a, k, r: int(a[0].values.size),
    "numerics.laguerre_assoc_half": lambda a, k, r: _size(r),
    "sweep.run_sweep": lambda a, k, r: int(r.n_completed * len(r.config.m_list)),
    "formats.write_grid_csv": lambda a, k, r: _file_bytes(a, k),
    "formats.write_validation_jsonl": lambda a, k, r: _file_bytes(a, k),
}


class Tracer:
    """Records spans in memory; ``install``/``uninstall`` patch the package."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, name, thread, start, end, count, alloc_bytes)
        self._current: contextvars.ContextVar[int | None] = contextvars.ContextVar("qevbench_span", default=None)
        self._ids = iter(range(1, sys.maxsize))
        self._alloc_lock = threading.Lock()
        self._alloc_depth = 0
        self._alloc_seen: set[tuple] = set()
        self._patched: list[tuple[object, str, object]] = []
        self._submit = None

    # -- spans ------------------------------------------------------------

    def _alloc_first(self, signature: tuple) -> bool:
        with self._alloc_lock:
            first = signature not in self._alloc_seen
            self._alloc_seen.add(signature)
            return first

    def _alloc_enter(self) -> int:
        with self._alloc_lock:
            if self._alloc_depth == 0:
                tracemalloc.start()
            self._alloc_depth += 1
            return tracemalloc.get_traced_memory()[0]

    def _alloc_exit(self) -> int:
        with self._alloc_lock:
            peak = tracemalloc.get_traced_memory()[1]
            self._alloc_depth -= 1
            if self._alloc_depth == 0:
                tracemalloc.stop()
            return peak

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        track_alloc = name in ALLOC_LAYERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(self._ids)
            parent = self._current.get()
            token = self._current.set(span_id)
            tracked = track_alloc and self._alloc_first(_signature(name, args, kwargs))
            base = self._alloc_enter() if tracked else 0
            start = time.perf_counter()
            count = 0
            try:
                result = fn(*args, **kwargs)
                count = counter(args, kwargs, result) if counter else 0
                return result
            finally:
                end = time.perf_counter()
                alloc = self._alloc_exit() - base if tracked else 0
                self._current.reset(token)
                self.spans.append((span_id, parent, name, threading.get_ident(), start, end, count, alloc))

        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    # -- installation -----------------------------------------------------

    def install(self, package) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n == package.__name__ or n.startswith(package.__name__ + ".")]
        wrappers = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"{package.__name__}.{short}"]
            for attr, fn in vars(module).items():
                name = f"{short}.{attr}"
                public = not attr.startswith("_") and getattr(fn, "__module__", None) == module.__name__
                if public and callable(fn) and not isinstance(fn, type) and name not in NOT_TRACED:
                    wrappers[id(fn)] = self.wrap(name, fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

        self._submit = ThreadPoolExecutor.submit
        submit = self._submit

        def submit_in_context(pool, fn, /, *args, **kwargs):
            return submit(pool, contextvars.copy_context().run, fn, *args, **kwargs)

        ThreadPoolExecutor.submit = submit_in_context

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()
        if self._submit is not None:
            ThreadPoolExecutor.submit = self._submit
            self._submit = None

    # -- reduction --------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self time (s), summed count, max alloc (bytes).

        Self time is the span's duration minus the union of the intervals
        its child spans cover, clipped to the span.
        """
        children: dict[int, list[tuple[float, float]]] = {}
        for span_id, parent, _, _, start, end, _, _ in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        out: dict[str, dict[str, float]] = {}
        for span_id, _, name, _, start, end, count, alloc in self.spans:
            covered = 0.0
            cursor = start
            for c_start, c_end in sorted(children.get(span_id, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "count": 0, "alloc_peak": 0})
            row["calls"] += 1
            row["self_s"] += (end - start) - covered
            row["count"] += count
            row["alloc_peak"] = max(row["alloc_peak"], alloc)
        return out
