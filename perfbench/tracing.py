"""Outside-in span tracing for the benchmark's traced run.

A :class:`Tracer` keeps spans in memory as ``[name, start, end, parent,
cell]`` lists (``parent`` is an index into the same list, ``-1`` for a
root; ``cell`` identifies the benchmark cell, e.g. ``"wtp@0.8"``) plus
named counters.  Spans come from two places, both in the benchmark's
own files:

* ``with tracer.span(name):`` around the calls the benchmark makes
  itself (trace generation, replays, audits, ``run_multihop``,
  ``run_city``);
* :func:`instrument`, which, for the duration of a traced round only,
  rebinds a handful of public functions and methods of the program
  (``Simulator.run``, ``HybridController.plan``, ``fluid_split``,
  ``check_fluid_envelopes``, ``compile_city_traces``,
  ``ShardRunner.map`` and the ``city_summary`` worker) to thin wrappers
  that open a span around the original and then restore them.

Worker processes record their own spans through
:func:`traced_city_summary`, which the sharded runner dispatches in place
of ``city_summary`` while a traced round runs; the spans travel back
inside the cell payload under :data:`TRACE_KEY`.

Untraced rounds use :data:`NULL_TRACER`, whose spans cost one method
call, and install no wrappers.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter
from typing import Any, Callable, Iterator, Optional

import repro.runner.shard as shard_mod
import repro.scenarios.city as city_mod
import repro.sim.engine as engine_mod
import repro.sim.hybrid as hybrid_mod

#: Payload key under which a traced worker returns its spans and counts.
TRACE_KEY = "_perfbench_trace"

_original_city_summary = city_mod.city_summary


class Tracer:
    """In-memory spans and counters of one traced round (or one worker
    cell)."""

    def __init__(self, cell: Optional[str] = None) -> None:
        self.spans: list[list[Any]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._root_cell = cell

    def _current_cell(self) -> Optional[str]:
        if self._stack:
            return self.spans[self._stack[-1]][4]
        return self._root_cell

    @contextlib.contextmanager
    def span(self, name: str, cell: Optional[str] = None) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, time.perf_counter(), None, parent,
                  cell if cell is not None else self._current_cell()]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()

    def count(self, name: str, value: float) -> None:
        self.counts[name] += value

    def adopt(self, spans: list, counts: dict) -> None:
        """Append a worker's span tree (indices shifted, roots stay
        roots) and add its counters."""
        base = len(self.spans)
        for name, start, end, parent, cell in spans:
            self.spans.append(
                [name, start, end, parent + base if parent >= 0 else -1, cell]
            )
        self.counts.update(counts)


class _NullTracer:
    """Tracing off: spans and counts do nothing."""

    def span(self, name: str, cell: Optional[str] = None):
        return contextlib.nullcontext()

    def count(self, name: str, value: float) -> None:
        pass


NULL_TRACER = _NullTracer()

#: The tracer the installed wrappers record into (set by instrument()).
_active: list[Tracer] = []


def _spanned(name: str, fn: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        with _active[-1].span(name):
            return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


def _traced_sim_run(original: Callable) -> Callable:
    def run(self, until=None, hybrid=None):
        # The outer run of a hybrid cell only delegates to the
        # controller; its self time is the controller's own work.
        name = "hybrid.run" if hybrid is not None else "sim.run"
        with _active[-1].span(name):
            return original(self, until=until, hybrid=hybrid)

    run.__wrapped__ = original
    return run


def _traced_compile(original: Callable) -> Callable:
    def compile_city_traces(config):
        tracer = _active[-1]
        with tracer.span("traffic.compile"):
            traces = original(config)
        tracer.count("traffic.packets", sum(len(t) for t in traces))
        return traces

    compile_city_traces.__wrapped__ = original
    return compile_city_traces


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Rebind the program's layer entry points to span-recording
    wrappers for the duration of the block, then restore them."""
    patches = [
        (engine_mod.Simulator, "run",
         _traced_sim_run(engine_mod.Simulator.run)),
        (hybrid_mod.HybridController, "plan",
         _spanned("hybrid.plan", hybrid_mod.HybridController.plan)),
        (hybrid_mod, "fluid_split",
         _spanned("hybrid.split", hybrid_mod.fluid_split)),
        (hybrid_mod, "check_fluid_envelopes",
         _spanned("hybrid.envelope", hybrid_mod.check_fluid_envelopes)),
        (city_mod, "compile_city_traces",
         _traced_compile(city_mod.compile_city_traces)),
        (shard_mod.ShardRunner, "map",
         _spanned("runner.map", shard_mod.ShardRunner.map)),
        (city_mod, "city_summary", traced_city_summary),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    _active.append(tracer)
    for owner, attr, replacement in patches:
        setattr(owner, attr, replacement)
    try:
        yield tracer
    finally:
        for owner, attr, value in saved:
            setattr(owner, attr, value)
        _active.pop()


def cell_label(scheduler: str, utilization: float) -> str:
    return f"{scheduler}@{utilization:g}"


def traced_city_summary(task) -> dict:
    """Sweep worker: ``city_summary`` under a worker-side tracer.

    Spans and counters come back with the payload under
    :data:`TRACE_KEY`; the coordinator strips them before comparing or
    digesting outputs.
    """
    config = task.config
    tracer = Tracer(cell=cell_label(config.scheduler, config.utilization))
    with instrument(tracer):
        with tracer.span("city.cell"):
            payload = _original_city_summary(task)
    payload = dict(payload)
    payload[TRACE_KEY] = {"spans": tracer.spans, "counts": dict(tracer.counts)}
    return payload


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def durations(spans: list) -> list[float]:
    return [end - start for _, start, end, _, _ in spans]


def self_times(spans: list) -> list[float]:
    """Span duration minus the time its direct children cover."""
    own = durations(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def total(spans: list, name: str, parent: Optional[str] = None,
          exclude_parent: Optional[str] = None,
          scheduler: Optional[str] = None, own: bool = False) -> float:
    """Summed duration (self time with ``own``) of the spans called
    ``name``, optionally only those whose parent span is called
    ``parent``, whose parent is not called ``exclude_parent``, and whose
    cell runs ``scheduler``."""
    values = self_times(spans) if own else durations(spans)
    result = 0.0
    for value, (span_name, _, _, up, cell) in zip(values, spans):
        if span_name != name:
            continue
        up_name = spans[up][0] if up >= 0 else None
        if parent is not None and up_name != parent:
            continue
        if exclude_parent is not None and up_name == exclude_parent:
            continue
        if scheduler is not None and (
            cell is None or cell.split("@")[0] != scheduler
        ):
            continue
        result += value
    return result
