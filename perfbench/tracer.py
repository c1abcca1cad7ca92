"""Spans around each layer's public entry points, recorded from outside.

The program is not edited: :func:`install` replaces each entry point, where
its caller looks it up (a class attribute, or the caller module's global),
with a wrapper that records a span -- name, start, end, parent -- and the
number of items the call processed.  Spans stay in memory and are summed
per layer when the traced sweep ends.  A layer's self time is its span's duration
minus the part of that interval its child spans cover (:func:`self_times`).

Counters that need arithmetic on a call's inputs and outputs (queue
backlogs, busy periods) are computed inside a ``bench.bookkeeping`` span,
so that their cost is charged to the benchmark, not to the calling layer.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "ENTRY_POINTS",
    "ONLY_ON",
    "Entry",
    "Span",
    "Tracer",
    "install",
    "layer_totals",
    "premise_violations",
    "self_times",
]

BOOKKEEPING = "bench.bookkeeping"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    items: int = 0


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent's interval, and overlapping
    children are counted once, so the result never goes below zero for
    well-formed input and the self times of a tree sum to its root's span.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(index, ())):
            start = max(start, cursor)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result.append((span.end - span.start) - covered)
    return result


class Tracer:
    """Span stack plus named counters for one traced sweep."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self._stack: List[int] = []

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def call(self, entry: "Entry", fn: Callable, args: tuple, kwargs: dict):
        clock = self.clock
        parent = self._stack[-1] if self._stack else -1
        before = entry.before(args, kwargs) if entry.before else None
        index = len(self.spans)
        span = Span(entry.prefix, clock(), 0.0, parent)
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = clock()
            self._stack.pop()
        if entry.items is not None:
            book = Span(BOOKKEEPING, clock(), 0.0, parent)
            span.items = int(entry.items(args, kwargs, result, before, self))
            book.end = clock()
            self.spans.append(book)
        return result


# ----------------------------------------------------------------------
# entry points


@dataclass(frozen=True)
class Entry:
    """One layer's public entry point(s) and how to count its items."""

    prefix: str
    targets: Tuple[Tuple[str, str], ...]  # (module, "Class.attr" or "attr")
    items: Optional[Callable] = None  # (args, kwargs, result, before, tracer)
    before: Optional[Callable] = None  # (args, kwargs) -> state before call
    moves: str = ""  # the end-to-end metric and workloads it should move


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _len_result(args, kwargs, result, before, tracer) -> int:
    return len(result)


def _queue_before(args, kwargs):
    return args[0]._free_at


def _queue_items(args, kwargs, result, free_at, tracer) -> int:
    """Offers, drops, near-full offers and busy periods of one scan.

    The backlog an arrival sees is ``free_at - t`` where ``free_at`` is the
    departure of the last accepted packet before it; an offer is near-full
    when that backlog exceeds the queue's drop-free threshold for the
    batch, the region where the scan must run the exact drop test, and an accepted
    offer that finds no backlog opens a busy period.
    """
    import numpy as np

    queue = args[0]
    arrivals = np.asarray(_arg(args, kwargs, 1, "arrivals"), dtype=np.float64)
    sizes = np.asarray(_arg(args, kwargs, 2, "sizes"))
    departures, accepted = result
    n = len(arrivals)
    if not n:
        return 0
    n_accepted = int(np.count_nonzero(accepted))
    last = np.maximum.accumulate(np.where(accepted, np.arange(n), -1))
    seen = np.where(last >= 0, departures[np.maximum(last, 0)], free_at)
    free_before = np.concatenate(([free_at], seen[:-1]))
    backlog = free_before - (arrivals + queue.proc_delay)
    # the queue's own certified drop-free threshold (-inf when none can be
    # certified, so every offer takes the exact drop test); skipped if a
    # refactor removes the helper
    drop_free_threshold = getattr(importlib.import_module("repro.sim.queue"),
                                  "_drop_free_threshold", None)
    if queue.buffer_bytes is not None and drop_free_threshold is not None:
        threshold = drop_free_threshold(
            queue.buffer_bytes, int(sizes.max()), queue.rate_Bps)
        tracer.count("sim.queue.nearfull", int(np.count_nonzero(backlog > threshold)))
    tracer.count("sim.queue.offers", n)
    tracer.count("sim.queue.drops", n - n_accepted)
    tracer.count("sim.queue.accepted", n_accepted)
    tracer.count("sim.queue.busy_periods",
                 int(np.count_nonzero(accepted & (backlog <= 0.0))))
    return n


def _receiver_finalize_before(args, kwargs):
    return args[0]._finalized


def _receiver_finalize_items(args, kwargs, result, was_final, tracer) -> int:
    if not was_final:
        tracer.count("core.receiver.flows", len(args[0].flow_true))
    return 0


def _replay_items(args, kwargs, result, before, tracer) -> int:
    tracer.count("core.receiver.flows", len(result.true))
    return len(_arg(args, kwargs, 0, "events"))


ENTRY_POINTS: Tuple[Entry, ...] = (
    Entry("traffic.generate",
          (("repro.experiments.workloads", "generate_trace"),
           ("repro.traffic.synthetic", "generate_fattree_trace")),
          items=_len_result,
          moves="setup_s if moved to import time; ~5% of sweep time everywhere"),
    Entry("traffic.cross",
          (("repro.experiments.workloads", "PipelineWorkload.cross_arrivals_batch"),),
          items=_len_result,
          moves="offers_per_ref_s on fig4ab, fig5"),
    Entry("sim.pipeline",
          (("repro.sim.pipeline", "TwoSwitchPipeline.run_batch"),),
          items=lambda a, k, r, b, t: len(_arg(a, k, 1, "regular")),
          moves="offers_per_ref_s on fig4ab, fig5 (stage-1 scan + merge)"),
    Entry("sim.queue",
          (("repro.sim.queue", "FifoQueue.offer_batch"),),
          items=_queue_items, before=_queue_before,
          moves="offers_per_ref_s on fig5 > fig4ab > multihop; "
                "peak_rss_mb on fig5, multihop"),
    Entry("sim.chain",
          (("repro.sim.chain", "SwitchChain.run_batch"),),
          items=lambda a, k, r, b, t: len(_arg(a, k, 1, "regular")),
          moves="offers_per_ref_s on multihop (first-hop scan + merges)"),
    Entry("sim.fatpath",
          (("repro.sim.fatpath", "FatTreeFastPath.run"),),
          items=lambda a, k, r, b, t: sum(len(x) for x in _arg(a, k, 1, "batches")),
          moves="offers_per_ref_s on mesh"),
    Entry("core.receiver",
          (("repro.core.receiver", "RliReceiver.observe_batch"),),
          items=lambda a, k, r, b, t: len(_arg(a, k, 1, "times")),
          moves="offers_per_ref_s on fig4ab, mesh; less on fig5"),
    Entry("core.receiver",
          (("repro.core.receiver", "RliReceiver.finalize"),),
          items=_receiver_finalize_items, before=_receiver_finalize_before),
    Entry("core.interpolation",
          (("repro.core.receiver", "interpolate_batch"),),
          items=lambda a, k, r, b, t: len(r),
          moves="offers_per_ref_s on fig4ab, mesh; less on fig5"),
    Entry("core.flowstats",
          (("repro.core.receiver", "welford_grouped"),),
          items=lambda a, k, r, b, t: len(_arg(a, k, 0, "values")),
          moves="offers_per_ref_s on fig4ab, mesh; less on fig5"),
    Entry("core.replay",
          (("repro.experiments.extension_jobs", "replay_observations"),),
          items=_replay_items, moves="offers_per_ref_s on multihop"),
    Entry("core.mesh",
          (("repro.core.mesh", "MeshResult.pair"),),
          items=lambda a, k, r, b, t: len(r.seg2_receiver.flow_true),
          moves="offers_per_ref_s on mesh"),
    Entry("experiments.summarize",
          (("repro.experiments.workloads", "summarize_condition"),),
          items=lambda a, k, r, b, t: len(r.flow_true),
          moves="offers_per_ref_s on fig4ab, fig5"),
    Entry("analysis.errors",
          (("repro.experiments.workloads", "flow_mean_errors"),
           ("repro.experiments.workloads", "flow_std_errors"),
           ("repro.experiments.extensions", "flow_mean_errors"),
           ("repro.analysis.metrics", "flow_mean_errors")),
          items=lambda a, k, r, b, t: len(_arg(a, k, 1, "true")),
          moves="offers_per_ref_s on fig4ab, fig5"),
    Entry("runner",
          (("repro.runner.runner", "ParallelRunner.run"),),
          items=_len_result, moves="nothing: self time stays near zero"),
)

# routing premises: a layer listed here runs on exactly these workloads
ONLY_ON: Dict[str, Tuple[str, ...]] = {
    "core.replay": ("multihop",),
    "sim.chain": ("multihop",),
    "sim.fatpath": ("mesh",),
    "core.mesh": ("mesh",),
    "sim.pipeline": ("fig4ab", "fig5"),
    "traffic.cross": ("fig4ab", "fig5"),
    "experiments.summarize": ("fig4ab", "fig5"),
}


def _resolve(module_name: str, path: str):
    """(owner, attribute name, current value) or None when missing."""
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    if value is None or not callable(value):
        return None
    return owner, attr, value


def install(tracer: Tracer, entries: Sequence[Entry] = ENTRY_POINTS
            ) -> Tuple[Callable[[], None], List[str]]:
    """Wrap every entry point; returns ``(uninstall, missing targets)``.

    A target that no longer exists is reported, not fatal, so a refactor
    that renames an entry point still gets a benchmark result.
    """
    undo: List[Tuple[Any, str, Any]] = []
    missing: List[str] = []
    for entry in entries:
        for module_name, path in entry.targets:
            found = _resolve(module_name, path)
            if found is None:
                missing.append(f"{module_name}:{path}")
                continue
            owner, attr, original = found
            if getattr(original, "__perfbench_entry__", None) is not None:
                continue  # already wrapped through another lookup site
            undo.append((owner, attr, owner.__dict__.get(attr)))
            setattr(owner, attr, _wrap(tracer, entry, original))

    def uninstall() -> None:
        for owner, attr, own in reversed(undo):
            if own is None:  # was inherited: uncover the base class's again
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    return uninstall, missing


def _wrap(tracer: Tracer, entry: Entry, original: Callable) -> Callable:
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        return tracer.call(entry, original, args, kwargs)

    wrapper.__perfbench_entry__ = entry.prefix  # type: ignore[attr-defined]
    return wrapper


# ----------------------------------------------------------------------
# reductions


def layer_totals(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, items and summed self time."""
    totals: Dict[str, Dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        row = totals.setdefault(span.name, {"calls": 0, "items": 0, "self_s": 0.0})
        row["calls"] += 1
        row["items"] += span.items
        row["self_s"] += own
    return totals


def premise_violations(workload: str, calls: Dict[str, float]) -> List[str]:
    """Routing premises that do not hold for *workload*."""
    bad = []
    for prefix, allowed in ONLY_ON.items():
        ran = calls.get(prefix, 0) > 0
        if ran != (workload in allowed):
            state = "ran" if ran else "did not run"
            bad.append(f"{prefix} {state} on {workload} "
                       f"(expected only on {', '.join(allowed)})")
    return bad
