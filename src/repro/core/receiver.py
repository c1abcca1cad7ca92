"""RLI receiver: per-stream interpolation and per-flow aggregation.

"The RLI receiver then easily obtains true delays of these special packets
based on the local clock.  The delay samples can then be used to approximate
the latency of regular packets" (paper Section 2).

The RLIR receiver extends this with one interpolation buffer *per stream*
(per associated sender / path class), selected by a demultiplexer — the fix
for traffic multiplexing across routers (Section 3.1).  Interpolating a
packet against a reference that took a different path would violate delay
locality; the demux guarantees every estimate uses references that shared
the packet's path segment.

Ground truth: the simulator stamps each packet's segment entry time
(``tap_time``) at the sender's interface; the receiver records
``arrival − tap_time`` as the packet's true delay next to its estimate, so
per-flow relative errors are computed against exact truth, as in the
paper's evaluation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from ..net.packet import Packet, PacketKind
from ..sim.clock import Clock, PerfectClock
from .demux import Demux
from .flowstats import BoundedFlowStatsTable, FlowStatsTable, StreamingStats, welford_grouped
from .interpolation import Estimate, InterpolationBuffer, interpolate_batch
from .quantiles import FlowQuantileTable

if TYPE_CHECKING:
    from .obslog import ObservationColumns

__all__ = ["RliReceiver", "REF_OBS", "REG_OBS"]

# observation-log event tags (see repro.core.replay)
REF_OBS = 0  # (REF_OBS, stream, arrival, reference delay)
REG_OBS = 1  # (REG_OBS, stream, arrival, flow key, true delay)


class RliReceiver:
    """One RLI receiver instance on one interface.

    Parameters
    ----------
    demux:
        Stream demultiplexer (see :mod:`repro.core.demux`).
    clock:
        Local clock used to timestamp reference arrivals; sync error vs the
        senders' clocks biases delay samples (ablation knob).
    estimator:
        Interpolation strategy (``"linear"`` is the paper's).
    collect_estimates:
        If True, keep every per-packet :class:`Estimate` for packet-level
        analysis (memory-heavy; per-flow tables are always kept).
    max_flows:
        Optional flow-table memory bound; when set, both the estimated and
        true tables become LRU-evicting
        :class:`~repro.core.flowstats.BoundedFlowStatsTable` instances,
        modelling a hardware instance's fixed-size flow cache.
    quantiles:
        Optional sequence of quantiles (e.g. ``(0.5, 0.95, 0.99)``).  When
        set, the receiver additionally maintains streaming P² per-flow
        quantile estimates of both estimated and true delays
        (:attr:`flow_estimated_quantiles` / :attr:`flow_true_quantiles`) —
        the tail view mean/σ cannot give.
    observation_log:
        Optional :class:`~repro.core.obslog.ObservationColumns` the
        receiver records its post-demux observation events to instead of
        estimating live: interpolation buffers and flow tables stay empty,
        since replaying the log (:mod:`repro.core.replay`) — in full or
        restricted to one flow shard — rebuilds them without re-running
        the simulation; the within-condition sharding of the sweep runner
        (serial, process-pool, or distributed) is built on it.  Demux
        classification, clocking, and the tap/measurement accounting are
        unchanged.
    """

    def __init__(
        self,
        demux: Demux,
        clock: Optional[Clock] = None,
        estimator: str = "linear",
        collect_estimates: bool = False,
        max_flows: Optional[int] = None,
        quantiles: Optional[Sequence[float]] = None,
        observation_log: Optional[ObservationColumns] = None,
    ):
        self.demux = demux
        self.observation_log = observation_log
        self.clock = clock or PerfectClock()
        self.estimator = estimator
        self.collect_estimates = collect_estimates
        self.estimates: List[Estimate] = []
        self._buffers: Dict[int, InterpolationBuffer] = {}
        if max_flows is None:
            self.flow_estimated = FlowStatsTable()
            self.flow_true = FlowStatsTable()
        else:
            self.flow_estimated = BoundedFlowStatsTable(max_flows)
            self.flow_true = BoundedFlowStatsTable(max_flows)
        self.flow_estimated_quantiles: Optional[FlowQuantileTable] = None
        self.flow_true_quantiles: Optional[FlowQuantileTable] = None
        if quantiles is not None:
            self.flow_estimated_quantiles = FlowQuantileTable(quantiles)
            self.flow_true_quantiles = FlowQuantileTable(quantiles)
        self.regulars_measured = 0
        self.regulars_ignored = 0
        self.references_accepted = 0
        self.references_ignored = 0
        self.missing_tap = 0
        self.unestimated = 0
        self._finalized = False

    # ------------------------------------------------------------------

    def observe(self, packet: Packet, now: float) -> None:
        """Feed one packet arriving at this receiver's interface."""
        if self._finalized:
            raise RuntimeError("receiver already finalized")
        if packet.is_reference:
            stream = self.demux.classify_reference(packet)
            if stream is None:
                self.references_ignored += 1
                return
            self.references_accepted += 1
            delay = self.clock.now(now) - packet.ref_timestamp
            if self.observation_log is not None:
                self.observation_log.append((REF_OBS, stream, now, delay))
                return
            for estimate in self._buffer(stream).add_reference(now, delay):
                self._record(estimate)
        elif packet.is_regular:
            stream = self.demux.classify_regular(packet)
            if stream is None:
                self.regulars_ignored += 1
                return
            if packet.tap_time is None:
                # never crossed the associated sender's interface: cannot
                # have a ground-truth segment delay, so don't measure it
                self.missing_tap += 1
                return
            self.regulars_measured += 1
            truth = now - packet.tap_time
            if self.observation_log is not None:
                self.observation_log.append(
                    (REG_OBS, stream, now, packet.flow_key, truth))
                return
            self.flow_true.add(packet.flow_key, truth)
            if self.flow_true_quantiles is not None:
                self.flow_true_quantiles.add(packet.flow_key, truth)
            self._buffer(stream).add_regular(now, packet.flow_key, truth)

    # ------------------------------------------------------------------
    # columnar fast path

    @property
    def batch_capable(self) -> bool:
        """True when :meth:`observe_batch` reproduces :meth:`observe` exactly.

        Requires a demux with a vectorized regular classifier
        (``classify_regular_batch`` plus a truthy ``batch_capable`` flag —
        a path-classifier demux only advertises it when its classifier is
        vectorizable).  Observation logs are recorded on the fast path too
        — bulk-appended in observation order, byte-identical to per-event
        appends.
        """
        return bool(getattr(self.demux, "batch_capable", False)) and hasattr(
            self.demux, "classify_regular_batch"
        )

    def observe_batch(
        self,
        times: np.ndarray,
        kinds: np.ndarray,
        headers,
        header_index: np.ndarray,
        taps: np.ndarray,
        ref_packets: Sequence[Packet],
    ) -> None:
        """Feed one interface's *entire* observation stream at once.

        The vectorized equivalent of calling :meth:`observe` per packet in
        stream order and then flushing the one-sided tails: reference
        packets (few, stateful) take a per-object loop, while regular
        packets are classified, grouped and estimated with array
        operations whose per-element float ops match the scalar path —
        every counter, flow-table entry (including dict insertion order)
        and estimate is bitwise-identical, which the equivalence suite
        asserts.  One-shot: it covers the stream's tail flush, so a
        subsequent :meth:`finalize` is a no-op.

        Parameters
        ----------
        times:
            Observation (arrival) times, strictly increasing.
        kinds:
            Packet kind per observation (:class:`PacketKind` values;
            CROSS must already be filtered out by the caller, as the
            pipeline never shows cross traffic to a receiver).
        headers:
            A :class:`~repro.traffic.batch.PacketBatch` holding the header
            columns of the *regular* traffic.
        header_index:
            Per-observation row index into *headers* (-1 for references).
        taps:
            Per-observation measurement-tap times (NaN where unknown;
            references ignore this column).  ``None`` means every
            regular's tap is its trace timestamp ``headers.ts`` — the
            feed-forward pipeline's semantics — which skips building the
            full-width column.
        ref_packets:
            The reference :class:`Packet` objects, in observation order —
            one per REFERENCE row of *kinds*.
        """
        if self._finalized:
            raise RuntimeError("receiver already finalized")
        times = np.asarray(times, dtype=np.float64)
        kinds = np.asarray(kinds)
        header_index = np.asarray(header_index)
        if taps is not None:
            taps = np.asarray(taps, dtype=np.float64)
        n_obs = len(times)
        pos = np.arange(n_obs)
        is_ref = kinds == int(PacketKind.REFERENCE)
        is_reg = kinds == int(PacketKind.REGULAR)
        if int(np.count_nonzero(is_ref)) != len(ref_packets):
            raise ValueError("ref_packets must align with REFERENCE rows")

        # --- references: per-object, in observation order (small stream)
        refs_by_stream: Dict[int, list] = {}  # stream -> [positions, times, delays]
        first_by_stream: Dict[int, int] = {}  # buffer-creation order
        ref_log: List[list] = [[], [], [], []]  # accepted: pos, stream, t, delay
        clock_now = self.clock.now
        for p_obs, t, pkt in zip(
            pos[is_ref].tolist(), times[is_ref].tolist(), ref_packets
        ):
            stream = self.demux.classify_reference(pkt)
            if stream is None:
                self.references_ignored += 1
                continue
            self.references_accepted += 1
            delay = clock_now(t) - pkt.ref_timestamp
            if self.observation_log is not None:
                ref_log[0].append(p_obs)
                ref_log[1].append(stream)
                ref_log[2].append(t)
                ref_log[3].append(delay)
                continue
            entry = refs_by_stream.get(stream)
            if entry is None:
                entry = refs_by_stream[stream] = [[], [], []]
                first_by_stream.setdefault(stream, p_obs)
            entry[0].append(p_obs)
            entry[1].append(t)
            entry[2].append(delay)

        # --- regulars: vectorized classify / tap check / ground truth
        reg_pos = pos[is_reg]
        reg_times = times[is_reg]
        reg_hidx = header_index[is_reg]
        if len(reg_pos):
            streams = self.demux.classify_regular_batch(headers, reg_hidx)
        else:
            streams = np.empty(0, dtype=np.int64)
        ignored = streams < 0
        self.regulars_ignored += int(np.count_nonzero(ignored))
        if taps is None:
            keep = ~ignored
        else:
            reg_taps = taps[is_reg]
            tapped = ~np.isnan(reg_taps)
            self.missing_tap += int(np.count_nonzero(~ignored & ~tapped))
            keep = ~ignored & tapped
        mpos = reg_pos[keep]
        mtimes = reg_times[keep]
        mstreams = streams[keep]
        mhidx = reg_hidx[keep]
        self.regulars_measured += len(mpos)
        mtaps = headers.ts[mhidx] if taps is None else reg_taps[keep]
        truth = mtimes - mtaps  # same op as scalar `now - tap_time`

        if self.observation_log is not None:
            self._log_batch(ref_log, mpos, mstreams, mtimes, mhidx, truth,
                            headers)
            return

        a_col, b_col = headers.packed_flow_keys()
        self._fold_flow_samples(
            self.flow_true, self.flow_true_quantiles, headers,
            mhidx, a_col[mhidx], b_col[mhidx], truth,
        )

        # buffer-creation order: first accepted reference or measured
        # regular per stream, whichever was observed first
        if len(mpos):
            uniq, first_idx = np.unique(mstreams, return_index=True)
            for s, i in zip(uniq.tolist(), first_idx.tolist()):
                p0 = int(mpos[i])
                cur = first_by_stream.get(s)
                if cur is None or p0 < cur:
                    first_by_stream[s] = p0
        stream_rank = {
            s: r for r, s in enumerate(sorted(first_by_stream, key=first_by_stream.get))
        }

        # --- single-stream shortcut (the two-switch pipeline case): with
        # one stream, closing positions are non-decreasing in observation
        # order, so emission order IS observation order — no sort, no
        # per-stream partitioning
        if len(refs_by_stream) == 1 and (
            not len(mstreams)
            or (next(iter(refs_by_stream)) == mstreams[0]
                and bool(np.all(mstreams == mstreams[0])))
        ):
            entry = next(iter(refs_by_stream.values()))
            if len(mpos):
                ref_pos = np.asarray(entry[0], dtype=np.int64)
                intervals = np.searchsorted(ref_pos, mpos)
                est = interpolate_batch(
                    mtimes, np.asarray(entry[1]), np.asarray(entry[2]),
                    estimator=self.estimator, intervals=intervals,
                )
                self._fold_flow_samples(
                    self.flow_estimated, self.flow_estimated_quantiles,
                    headers, mhidx, a_col[mhidx], b_col[mhidx], est,
                )
                if self.collect_estimates:
                    self.estimates.extend(
                        Estimate(headers.flow_key(int(h)), t, e, tr)
                        for h, t, e, tr in zip(
                            mhidx.tolist(), mtimes.tolist(),
                            est.tolist(), truth.tolist(),
                        )
                    )
            return

        # --- per-stream interpolation; emission keyed by the closing event
        # (sorted: the downstream lexsort is order-insensitive today, but
        # set-iteration order must never be load-bearing — DET003)
        parts: List[tuple] = []
        for stream in sorted(refs_by_stream.keys() | set(mstreams.tolist())):
            sel = mstreams == stream
            rpos = mpos[sel]
            entry = refs_by_stream.get(stream)
            if entry is None:
                # pending forever: no reference ever closed this stream
                self.unestimated += int(np.count_nonzero(sel))
                continue
            if not len(rpos):
                continue
            ref_pos = np.asarray(entry[0], dtype=np.int64)
            ref_t = np.asarray(entry[1], dtype=np.float64)
            ref_d = np.asarray(entry[2], dtype=np.float64)
            intervals = np.searchsorted(ref_pos, rpos)
            est = interpolate_batch(
                mtimes[sel], ref_t, ref_d,
                estimator=self.estimator, intervals=intervals,
            )
            n_refs = len(ref_pos)
            # estimates surface when their interval closes: at the
            # right-endpoint reference, or at the final flush (ordered by
            # buffer creation, after every reference event)
            close = np.where(
                intervals < n_refs,
                ref_pos[np.minimum(intervals, n_refs - 1)],
                n_obs + stream_rank[stream],
            )
            parts.append((close, rpos, mtimes[sel], est, truth[sel],
                          mhidx[sel], a_col[mhidx[sel]], b_col[mhidx[sel]]))

        if parts:
            close_all = np.concatenate([p[0] for p in parts])
            obs_all = np.concatenate([p[1] for p in parts])
            t_all = np.concatenate([p[2] for p in parts])
            est_all = np.concatenate([p[3] for p in parts])
            truth_all = np.concatenate([p[4] for p in parts])
            hidx_all = np.concatenate([p[5] for p in parts])
            a_all = np.concatenate([p[6] for p in parts])
            b_all = np.concatenate([p[7] for p in parts])
            emit = np.lexsort((obs_all, close_all))
            est_e = est_all[emit]
            hidx_e = hidx_all[emit]
            self._fold_flow_samples(
                self.flow_estimated, self.flow_estimated_quantiles, headers,
                hidx_e, a_all[emit], b_all[emit], est_e,
            )
            if self.collect_estimates:
                self.estimates.extend(
                    Estimate(headers.flow_key(int(h)), t, e, tr)
                    for h, t, e, tr in zip(
                        hidx_e.tolist(), t_all[emit].tolist(),
                        est_e.tolist(), truth_all[emit].tolist(),
                    )
                )

    def _log_batch(self, ref_log, mpos, mstreams, mtimes, mhidx, truth,
                   headers) -> None:
        """Write one batch's observation events to the log, in stream order.

        Reference and measured-regular events are interleaved by their
        observation positions, reproducing the exact per-event append
        sequence (and values) of the scalar path in one bulk column append.
        """
        n_ref = len(ref_log[0])
        n_reg = len(mpos)
        total = n_ref + n_reg
        if not total:
            return
        pos_all = np.concatenate([
            np.asarray(ref_log[0], dtype=np.int64),
            np.asarray(mpos, dtype=np.int64),
        ])
        # scatter both event classes into their merged slots
        rank = np.empty(total, dtype=np.intp)
        rank[np.argsort(pos_all, kind="stable")] = np.arange(total)
        ref_rank = rank[:n_ref]
        reg_rank = rank[n_ref:]
        tags = np.empty(total, dtype=np.int8)
        tags[ref_rank] = REF_OBS
        tags[reg_rank] = REG_OBS
        streams_all = np.empty(total, dtype=np.int64)
        streams_all[ref_rank] = np.asarray(ref_log[1], dtype=np.int64)
        streams_all[reg_rank] = mstreams
        times_all = np.empty(total, dtype=np.float64)
        times_all[ref_rank] = np.asarray(ref_log[2], dtype=np.float64)
        times_all[reg_rank] = mtimes
        values_all = np.empty(total, dtype=np.float64)
        values_all[ref_rank] = np.asarray(ref_log[3], dtype=np.float64)
        values_all[reg_rank] = truth
        keys = []
        for column in (headers.src, headers.dst, headers.sport,
                       headers.dport, headers.proto):
            key_col = np.zeros(total, dtype=np.int64)
            key_col[reg_rank] = column[mhidx]
            keys.append(key_col)
        self.observation_log.extend_batch(tags, streams_all, times_all,
                                          values_all, keys)

    def _fold_flow_samples(
        self, table, qtable, headers, hidx, a, b, values
    ) -> None:
        """Fold (flow, value) samples into *table* (and *qtable*).

        Dict insertion order (first appearance of each flow) and per-flow
        sample order both match the per-sample scalar path.  Bounded (LRU)
        tables and quantile tracking depend on the exact cross-flow access
        sequence, so they take the per-sample loop; the common unbounded
        case groups samples by flow with array ops and folds each run
        through the Welford accumulator in one call.
        """
        n = len(values)
        if n == 0:
            return
        if isinstance(table, BoundedFlowStatsTable) or qtable is not None:
            keys = list(zip(
                headers.src[hidx].tolist(), headers.dst[hidx].tolist(),
                headers.sport[hidx].tolist(), headers.dport[hidx].tolist(),
                headers.proto[hidx].tolist(),
            ))
            table_add = table.add
            q_add = qtable.add if qtable is not None else None
            for key, value in zip(keys, values.tolist()):
                table_add(key, value)
                if q_add is not None:
                    q_add(key, value)
            return
        order = np.lexsort((b, a))
        a_s = a[order]
        b_s = b[order]
        boundary = np.empty(n, dtype=bool)
        boundary[0] = True
        boundary[1:] = (a_s[1:] != a_s[:-1]) | (b_s[1:] != b_s[:-1])
        starts = np.flatnonzero(boundary)
        ends = np.append(starts[1:], n)
        firsts = order[starts]  # stable sort => min original index per flow
        grouped_vals = values[order]
        counts, means, m2s, mins, maxs = welford_grouped(grouped_vals, starts, ends)
        # per-flow scalars as plain Python values, extracted in bulk
        rep = hidx[firsts]
        keys = list(zip(headers.src[rep].tolist(), headers.dst[rep].tolist(),
                        headers.sport[rep].tolist(), headers.dport[rep].tolist(),
                        headers.proto[rep].tolist()))
        counts_l = counts.tolist()
        means_l = means.tolist()
        m2_l = m2s.tolist()
        mins_l = mins.tolist()
        maxs_l = maxs.tolist()
        vals_list = None
        adopt = table.adopt
        for g in np.argsort(firsts, kind="stable").tolist():
            key = keys[g]
            if key in table:
                # fold into the existing accumulator sample by sample —
                # the precomputed one assumed a fresh start
                if vals_list is None:
                    vals_list = grouped_vals.tolist()
                table.add_many(key, vals_list[int(starts[g]):int(ends[g])])
                continue
            stats = StreamingStats()
            stats.count = counts_l[g]
            stats.mean = means_l[g]
            stats._m2 = m2_l[g]
            stats.min = mins_l[g]
            stats.max = maxs_l[g]
            adopt(key, stats)

    def finalize(self) -> None:
        """Flush the one-sided tails of every stream buffer (idempotent)."""
        if self._finalized:
            return
        for buffer in self._buffers.values():
            for estimate in buffer.flush():
                self._record(estimate)
            self.unestimated += buffer.unestimated
        self._finalized = True

    # ------------------------------------------------------------------

    def _buffer(self, stream: int) -> InterpolationBuffer:
        buffer = self._buffers.get(stream)
        if buffer is None:
            buffer = InterpolationBuffer(self.estimator)
            self._buffers[stream] = buffer
        return buffer

    def _record(self, estimate: Estimate) -> None:
        self.flow_estimated.add(estimate.key, estimate.estimated)
        if self.flow_estimated_quantiles is not None:
            self.flow_estimated_quantiles.add(estimate.key, estimate.estimated)
        if self.collect_estimates:
            self.estimates.append(estimate)

    # ------------------------------------------------------------------

    @property
    def stream_count(self) -> int:
        return len(self._buffers)

    def __repr__(self) -> str:
        return (
            f"RliReceiver(streams={self.stream_count}, measured={self.regulars_measured}, "
            f"refs={self.references_accepted}, estimator={self.estimator!r})"
        )
