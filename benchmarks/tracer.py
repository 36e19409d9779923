"""Span tracer that interposes on the public functions of ``oscent`` modules.

The tracer replaces every binding of a listed function object in every
loaded ``oscent.*`` module, so calls through ``from .x import f`` aliases and
calls inside the library (``symplectic_spectrum`` calling ``eigensystem``)
are both recorded. Spans stay in memory; each keeps its parent from a
per-thread stack, so a span opened in a pool thread is a root of that thread
and never counts as a child of the span that submitted the work.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import NamedTuple

# The public functions of each benchmarked layer. ``oracle`` is the referee
# and is deliberately not traced.
TARGETS = {
    "lattice": ("build_box", "box_region", "make_region", "inner_boundary"),
    "hamiltonian": ("sample_springs", "assemble_anderson", "validate_coupling"),
    "spectral": ("eigensystem", "spd_sqrt", "spd_inv_sqrt", "partition_blocks", "symplectic_spectrum"),
    "entanglement": (
        "ground_state_renyi",
        "excitation_weights",
        "excitation_profile",
        "excited_half_renyi_bounds",
        "entropy_report",
        "single_excitation_ensemble_bound",
    ),
    "correlators": (
        "ground_state_correlator_bound",
        "distance_bins",
        "mean_moment_by_distance",
        "correlator_csv",
    ),
    "experiments": ("run_scan", "write_records_csv", "write_aggregates_json", "write_scaling_data"),
}

# The ``cli`` layer is one span per subcommand, opened by the benchmark
# around its own call to ``oscent.cli.main``.
CLI_COMMANDS = ("scan", "ground_entropy", "excited_entropy", "correlators")

LAYERS = (*TARGETS, "cli")


def span_names() -> list[str]:
    names = [f"{layer}.{fn}" for layer, fns in TARGETS.items() for fn in fns]
    return names + [f"cli.{cmd}" for cmd in CLI_COMMANDS]


class Span(NamedTuple):
    span_id: int
    parent_id: int | None
    thread_id: int
    name: str
    start: float
    end: float


class Tracer:
    """Records spans; ``outcomes`` maps a span name to a predicate on its result."""

    def __init__(self, outcomes=None):
        self.spans: list[Span] = []
        self.outcomes = dict(outcomes or {})
        self.outcome_counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, parent, threading.get_ident(), name, start, end))

    def wrap(self, name: str, func):
        predicate = self.outcomes.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name):
                result = func(*args, **kwargs)
            if predicate is not None and predicate(result):
                with self._lock:
                    self.outcome_counts[name] += 1
            return result

        return traced

    def install(self):
        """Wrap every listed function; missing ones are recorded in ``absent``."""
        importlib.import_module("oscent")
        modules = [m for n, m in list(sys.modules.items()) if n == "oscent" or n.startswith("oscent.")]
        for layer, names in TARGETS.items():
            try:
                module = importlib.import_module(f"oscent.{layer}")
            except ModuleNotFoundError:
                module = None
            for fn in names:
                original = getattr(module, fn, None)
                if not callable(original):
                    self.absent.append(f"{layer}.{fn}")
                    continue
                wrapper = self.wrap(f"{layer}.{fn}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patches.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def write(self, path):
        with open(path, "w") as handle:
            for s in self.spans:
                handle.write(json.dumps(s._asdict()) + "\n")


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans) -> dict[int, float]:
    """Seconds of each span not covered by its children in the same thread."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    by_id = {s.span_id: s for s in spans}
    for s in spans:
        parent = by_id.get(s.parent_id)
        if parent is not None and parent.thread_id == s.thread_id:
            children[s.parent_id].append((s.start, s.end))
    return {
        s.span_id: (s.end - s.start) - _covered(children[s.span_id], s.start, s.end)
        for s in spans
    }


def summarize(spans) -> dict[str, tuple[int, float]]:
    """Per span name: (calls, summed self time in seconds)."""
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    for s in spans:
        calls[s.name] += 1
        busy[s.name] += own[s.span_id]
    return {name: (calls[name], busy[name]) for name in calls}
