"""Shardable replay of recorded receiver observations.

The estimation stage of an RLI receiver is per-flow work: a regular
packet's interpolated estimate depends only on the reference delays that
bracket it — never on other flows' regular packets (see
:class:`~repro.core.interpolation.InterpolationBuffer`).  That makes the
stage embarrassingly parallel *by flow* even though the simulation that
produced the observations is strictly sequential.

This module exploits that: a receiver recording into an
:class:`~repro.core.obslog.ObservationColumns` log (any iterable of event
tuples replays alike) writes its post-demux event stream during one
(sequential, memoized) simulation; :func:`replay_observations_multi` then
rebuilds the per-flow tables from the log for a *chunk* of flow shards in
one pass (every shard replays all reference events but only its own
flows' regular events) — the dispatch unit of the distributed backend —
and :func:`merge_shard_tables` reassembles the shards in sorted-key
order.  :func:`replay_observations` is the one-shard case.

Because shard membership is a pure function of the flow key
(:func:`~repro.traffic.divider.flow_shard`) and each flow's samples are
processed in original log order, the merged tables are **bitwise identical**
for any shard count, which the determinism suite asserts.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Tuple

from ..traffic.divider import flow_shard
from .flowstats import FlowStatsTable, StreamingStats
from .interpolation import InterpolationBuffer
from .receiver import REF_OBS, REG_OBS

__all__ = ["ReplayTables", "replay_observations", "replay_observations_multi",
           "merge_shard_tables", "pooled_stats"]


class ReplayTables:
    """Per-flow tables rebuilt from one (possibly sharded) log replay."""

    def __init__(self, estimated: FlowStatsTable, true: FlowStatsTable,
                 unestimated: int):
        self.estimated = estimated
        self.true = true
        self.unestimated = unestimated


def replay_observations(
    events: Sequence[tuple],
    estimator: str = "linear",
    shard: int = 0,
    n_shards: int = 1,
) -> ReplayTables:
    """Rebuild per-flow estimated/true tables from an observation log.

    With ``n_shards > 1`` only regular events whose flow hashes to *shard*
    are replayed; reference events always are (they define the
    interpolation intervals every flow estimates against), so each flow's
    estimates come out identical to an unsharded replay.  This is
    :func:`replay_observations_multi` over the one-shard chunk.
    """
    return replay_observations_multi(events, estimator, (shard,), n_shards)[shard]


def replay_observations_multi(
    events: Sequence[tuple],
    estimator: str = "linear",
    shards: Sequence[int] = (0,),
    n_shards: int = 1,
) -> Dict[int, "ReplayTables"]:
    """Replay several flow shards in **one pass** over the log.

    The shard-chunk envelope of the distributed backend: a worker handed a
    chunk of same-condition shard jobs replays all of its shards in a
    single scan instead of one scan per shard (reference events — the
    expensive interpolation state — are ~1 % of a log, so a k-shard chunk
    costs ≈1 pass, not k).  Each shard keeps its own buffers and tables
    and sees exactly its own event subsequence, in log order — so every
    per-shard result is **bitwise identical** to an individual replay,
    which the distributed determinism suite asserts.
    """
    shards = tuple(shards)
    if len(set(shards)) != len(shards):
        raise ValueError(f"duplicate shards in chunk: {shards}")
    for shard in shards:
        if not 0 <= shard < n_shards:
            raise ValueError(f"shard must be in [0, {n_shards}): {shard}")
    # per shard: (stream -> interpolation buffer, estimated, true)
    state = {s: ({}, FlowStatsTable(), FlowStatsTable()) for s in shards}
    for event in events:
        tag = event[0]
        if tag == REF_OBS:
            _, stream, now, delay = event
            for buffers, estimated, _ in state.values():
                buffer = buffers.get(stream)
                if buffer is None:
                    buffer = buffers[stream] = InterpolationBuffer(estimator)
                for est in buffer.add_reference(now, delay):
                    estimated.add(est.key, est.estimated)
        elif tag == REG_OBS:
            _, stream, now, key, truth = event
            mine = state.get(flow_shard(key, n_shards) if n_shards > 1 else 0)
            if mine is None:
                continue
            buffers, _, true = mine
            buffer = buffers.get(stream)
            if buffer is None:
                buffer = buffers[stream] = InterpolationBuffer(estimator)
            true.add(key, truth)
            buffer.add_regular(now, key, truth)
        else:
            raise ValueError(f"unknown observation event tag: {tag!r}")
    out: Dict[int, ReplayTables] = {}
    for shard, (buffers, estimated, true) in state.items():
        unestimated = 0
        for buffer in buffers.values():
            for est in buffer.flush():
                estimated.add(est.key, est.estimated)
            unestimated += buffer.unestimated
        out[shard] = ReplayTables(estimated, true, unestimated)
    return out


def merge_shard_tables(tables: Iterable[FlowStatsTable]) -> FlowStatsTable:
    """Union flow-disjoint shard tables into one, in sorted-key order.

    Sorting makes the merged table's layout (and every float computed by
    iterating it) independent of shard count and completion order — the
    property the byte-identical determinism guarantee rests on.  Keys
    appearing in more than one shard are merged, but the shard split
    guarantees that never happens.
    """
    merged: Dict[Tuple[int, int, int, int, int], StreamingStats] = {}
    for table in tables:
        for key, stats in table.items():
            mine = merged.get(key)
            if mine is None:
                merged[key] = stats
            else:
                mine.merge(stats)
    return FlowStatsTable.from_items((key, merged[key]) for key in sorted(merged))


def pooled_stats(table: FlowStatsTable) -> StreamingStats:
    """All flows' accumulators pooled, folded in sorted-key order.

    The sort pins the floating-point merge order, so the pooled mean is
    reproducible bit-for-bit no matter how the table was assembled.
    """
    pooled = StreamingStats()
    for key in sorted(table.keys()):
        pooled.merge(table.get(key))
    return pooled
