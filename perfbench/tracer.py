"""Span tracer that wraps qoverlap's public functions from outside the package.

``Tracer.install`` replaces each traced function with a wrapper in every
``qoverlap`` module namespace that binds it, and wraps ``DensityMatrix``
construction through the class's ``__init__``.  ``Tracer.uninstall`` puts
every original object back.  Nothing under ``src/`` is edited.

Each wrapped call becomes a span: name, span id, parent span id, the id of
the workload call that caused it, start and end (``perf_counter_ns``), self
time and, when tracemalloc runs, the allocation peak above the level at
entry.  Spans nest on a stack and stay in memory until ``metrics`` folds
them into per-layer numbers.

Self time is a span's duration minus the durations of its child spans, so
the self times of one top-level span add up to its duration.  Time outside
every top-level span is kept as ``outside_ns``; the tracer's own
bookkeeping between spans lands there or in the enclosing span's self time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc
from typing import NamedTuple

# (span name, module, function names).  Several functions may share one
# span name; their spans then add up under that name.
_TARGETS = (
    ("linalg.tensor_states", "linalg", ("tensor_states",)),
    ("linalg.partial_trace", "linalg", ("partial_trace",)),
    ("linalg.exp_unitary", "linalg", ("exp_unitary",)),
    ("gates.beamsplitter", "gates", ("beamsplitter",)),
    ("dynamics.realize_gate", "dynamics", ("realize_gate",)),
    ("dynamics.ion_protocol_run", "dynamics", ("ion_protocol_run",)),
    ("protocol.sweep_visibility", "protocol", ("sweep_visibility",)),
    ("protocol.calibrate_phase", "protocol", ("calibrate_phase",)),
    ("protocol.run_device", "protocol", ("run_device",)),
    ("protocol.sample_shots", "protocol", ("sample_shots",)),
    ("protocol.estimate_visibility", "protocol", ("estimate_visibility",)),
    ("scenario.parse_scenario", "scenario", ("parse_scenario",)),
    ("scenario.run_scenario", "scenario", ("run_scenario",)),
    ("scenario.emit", "scenario", ("emit",)),
    ("cli.main", "cli", ("main",)),
    ("observables.pipeline", "observables",
     ("overlap", "fidelity_with_pure", "purity", "linear_entropy", "hs_distance", "witness")),
    ("observables.oracle", "observables",
     ("overlap_direct", "purity_direct", "hs_distance_direct", "flip_expectation", "witness_oracle")),
)
# Every public function defined in qoverlap.states is a state constructor.
_STATES_SPAN = "states.build"
_DENSITY_SPAN = "linalg.DensityMatrix"
_COMPILE_SPANS = ("gates.beamsplitter", "dynamics.realize_gate")

# Per-layer metrics in report order: (span name, stats).
LAYER_STATS = (
    (_DENSITY_SPAN, ("calls", "self_ms", "entries", "peak_mb")),
    ("linalg.tensor_states", ("calls", "self_ms", "peak_mb")),
    ("linalg.partial_trace", ("calls", "self_ms")),
    ("linalg.exp_unitary", ("calls", "self_ms")),
    ("gates.beamsplitter", ("calls", "self_ms")),
    ("dynamics.realize_gate", ("calls", "self_ms")),
    ("dynamics.ion_protocol_run", ("calls", "self_ms", "peak_mb")),
    ("protocol.sweep_visibility", ("calls", "self_ms", "peak_mb")),
    ("protocol.calibrate_phase", ("calls", "self_ms")),
    ("protocol.run_device", ("calls", "self_ms")),
    ("protocol.sample_shots", ("calls", "self_ms")),
    ("protocol.estimate_visibility", ("calls", "self_ms")),
    ("scenario.parse_scenario", ("calls", "self_ms")),
    ("scenario.run_scenario", ("calls", "self_ms")),
    ("scenario.emit", ("calls", "self_ms", "bytes")),
    ("cli.main", ("calls", "self_ms")),
    (_STATES_SPAN, ("calls", "self_ms")),
    ("observables.pipeline", ("calls", "self_ms")),
    ("observables.oracle", ("calls", "self_ms")),
)
USEFUL_FRAC = "w_compile.useful_frac"
OUTSIDE_MS = "trace.outside_ms"
# Metrics that count work; they must repeat exactly for a fixed seed.
COUNT_STATS = ("calls", "entries", "bytes")


def layer_metric_names() -> list[str]:
    names = [f"{span}.{stat}" for span, stats in LAYER_STATS for stat in stats]
    return names + [USEFUL_FRAC, OUTSIDE_MS]


class Span(NamedTuple):
    span_id: int
    parent_id: int  # -1 for a top-level span
    call_id: int  # the workload call in progress
    name: str
    start_ns: int
    end_ns: int
    self_ns: int
    peak_bytes: int  # tracemalloc peak above the level at entry
    note: object  # entries, bytes or compile key, by span name


class _Frame:
    __slots__ = ("span_id", "parent_id", "name", "start", "child_ns", "mem_entry", "peak")

    def __init__(self, span_id, parent_id, name, mem_entry):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.mem_entry = mem_entry
        self.peak = mem_entry
        self.child_ns = 0
        self.start = 0


def _first_arg(args, kwargs):
    return args[0] if args else tuple(sorted(kwargs.items()))


class Tracer:
    """Collects spans around qoverlap's public functions while installed.

    ``memory=True`` expects tracemalloc to be running and records per-span
    allocation peaks; otherwise every peak reads 0.
    """

    def __init__(self, memory: bool = True):
        self.memory = memory
        self.spans: list[Span] = []
        self.call_id = -1
        self.outside_ns = 0
        self._stack: list[_Frame] = []
        self._next_id = 0
        self._last_exit = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in every loaded qoverlap module namespace."""
        import qoverlap.cli  # noqa: F401  (the package imports every other module)
        from qoverlap import linalg, states

        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "qoverlap" or n.startswith("qoverlap.")) and m is not None]
        targets = []
        for span, mod_name, fn_names in _TARGETS:
            module = sys.modules[f"qoverlap.{mod_name}"]
            targets += [(span, getattr(module, fn)) for fn in fn_names if hasattr(module, fn)]
        targets += [
            (_STATES_SPAN, obj) for name, obj in vars(states).items()
            if inspect.isfunction(obj) and obj.__module__ == states.__name__
            and not name.startswith("_")
        ]
        for span, original in targets:
            key_of = _first_arg if span in _COMPILE_SPANS else None
            size_of = len if span == "scenario.emit" else None
            wrapper = self._wrap(span, original, key_of, size_of)
            for module in modules:
                for attr in [a for a, v in vars(module).items() if v is original]:
                    self._patch(module, attr, wrapper)

        cls = linalg.DensityMatrix
        self._patch(cls, "__init__", self._wrap_init(_DENSITY_SPAN, cls.__init__))

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Restore every patched name, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- spans -------------------------------------------------------------

    def _wrap(self, span, fn, key_of=None, size_of=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(span)
            note = key_of(args, kwargs) if key_of else 0
            try:
                result = fn(*args, **kwargs)
                if size_of:
                    note = size_of(result)
                return result
            finally:
                self._exit(frame, note)

        return wrapper

    def _wrap_init(self, span, init):
        @functools.wraps(init)
        def wrapper(obj, *args, **kwargs):
            frame = self._enter(span)
            entries = 0
            try:
                init(obj, *args, **kwargs)
                entries = int(obj.mat.size)
            finally:
                self._exit(frame, entries)

        return wrapper

    def begin(self) -> None:
        """Start the accounting of time outside spans (call at pass start)."""
        self._last_exit = time.perf_counter_ns()

    def end(self) -> None:
        """Close the accounting of time outside spans (call at pass end)."""
        self.outside_ns += time.perf_counter_ns() - self._last_exit

    def _enter(self, name) -> _Frame:
        stack = self._stack
        mem = 0
        if self.memory:
            mem, peak = tracemalloc.get_traced_memory()
            if stack:
                stack[-1].peak = max(stack[-1].peak, peak)
            tracemalloc.reset_peak()
        frame = _Frame(self._next_id, stack[-1].span_id if stack else -1, name, mem)
        self._next_id += 1
        stack.append(frame)
        frame.start = time.perf_counter_ns()
        if len(stack) == 1:
            self.outside_ns += frame.start - self._last_exit
        return frame

    def _exit(self, frame: _Frame, note) -> None:
        end = time.perf_counter_ns()
        duration = end - frame.start
        stack = self._stack
        stack.pop()
        peak_above = 0
        if self.memory:
            peak = max(frame.peak, tracemalloc.get_traced_memory()[1])
            peak_above = peak - frame.mem_entry
            if stack:
                stack[-1].peak = max(stack[-1].peak, peak)
            tracemalloc.reset_peak()
        if stack:
            stack[-1].child_ns += duration
        else:
            self._last_exit = end
        self.spans.append(Span(frame.span_id, frame.parent_id, self.call_id, frame.name,
                               frame.start, end, duration - frame.child_ns, peak_above, note))

    # -- per-layer numbers -------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Fold the spans into the per-layer metrics of ``layer_metric_names``."""
        agg: dict[str, dict] = {}
        compile_keys = []
        for span in self.spans:
            a = agg.setdefault(span.name, {"calls": 0, "self_ns": 0, "peak": 0, "sum": 0})
            a["calls"] += 1
            a["self_ns"] += span.self_ns
            a["peak"] = max(a["peak"], span.peak_bytes)
            if span.name in _COMPILE_SPANS:
                compile_keys.append((span.name, span.note))
            else:
                a["sum"] += span.note
        out = {}
        for span, stats in LAYER_STATS:
            a = agg.get(span, {"calls": 0, "self_ns": 0, "peak": 0, "sum": 0})
            values = {"calls": a["calls"], "self_ms": a["self_ns"] / 1e6,
                      "peak_mb": a["peak"] / 2**20, "entries": a["sum"], "bytes": a["sum"]}
            out.update({f"{span}.{stat}": values[stat] for stat in stats})
        # Distinct compiled (gate, cutoff or spec) over compile calls; 1 when
        # nothing was compiled, since then no compile was wasted.
        out[USEFUL_FRAC] = len(set(compile_keys)) / len(compile_keys) if compile_keys else 1.0
        out[OUTSIDE_MS] = self.outside_ns / 1e6
        return out
