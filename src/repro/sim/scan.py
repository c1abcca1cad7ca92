"""The tapped-queue scan: one egress queue with an RLI sender on it.

RLIR's one mechanism is a sender on an egress queue that, on the regular
packet that triggers it, injects a reference packet right behind it.
:func:`tapped_scan` is the columnar form of that, shared by every driver
that has a tapped queue (the two-switch pipeline and the N-hop chain via
:mod:`repro.sim.chain`, the fat-tree via :mod:`repro.sim.fatpath`).  Per
row it applies exactly the float-op sequence of
:meth:`~repro.sim.queue.FifoQueue.offer`, then — on acceptance, for rows
the tap sees — the update algebra of
:meth:`~repro.core.sender.RliSender.on_regular`: fold the EWMA windows the
arrival crossed, add its bytes, bump its class's 1-and-n counter against
``policy.gap(estimate)`` (re-evaluated only after a fold, the only time the
estimate moves) and, on trigger, offer the reference with the same queue
arithmetic.  It is bitwise-identical to per-object ``offer`` +
``on_regular`` calls.  Queues without a tap use the plain scan,
:meth:`~repro.sim.queue.FifoQueue.offer_batch`; both fold their statistics
through :func:`fold_stats`.
"""

from __future__ import annotations

import math
from functools import partial
from typing import List

import numpy as np

__all__ = ["NO_CLASS", "TapScan", "UNTAPPED", "fold_stats", "tapped_scan"]

UNTAPPED = -2  # class code of a row the tap does not see (hop-local cross)
NO_CLASS = -1  # class code of a row the tap sees but that has no class


def _drop_free_threshold(buffer_bytes: int, max_size: int, rate_Bps: float) -> float:
    """Largest certified drop-free backlog time for a batch of arrivals.

    Returns a value ``thr`` such that any arrival seeing ``free_at - t <=
    thr`` provably survives the tail-drop test for every packet size up to
    *max_size* — letting the batch scans skip the per-packet drop
    arithmetic away from buffer-full territory.  The certificate is exact:
    float multiplication/addition by positive values are monotone, so
    verifying the test expression at ``(thr, max_size)`` bounds it for all
    smaller backlogs and sizes; ``thr`` is nudged down by ulps until the
    verification passes.  Returns ``-inf`` when no positive threshold can
    be certified (buffer close to or below the packet size), which sends
    every packet down the exact test.
    """
    thr = (buffer_bytes - max_size) / rate_Bps
    while thr > 0.0 and thr * rate_Bps + max_size > buffer_bytes:
        thr = math.nextafter(thr, -math.inf)
    return thr if thr > 0.0 else -math.inf


def fold_stats(stats, offered: int, bytes_in: int, dropped: int,
               bytes_dropped: int, departures: np.ndarray,
               arrivals: np.ndarray) -> None:
    """Fold one scan into a queue's :class:`~repro.sim.queue.QueueStats`.

    *departures* and *arrivals* belong to the accepted packets in
    acceptance order.  The delays ``departure - arrival`` use the scalar
    path's operands.  ``np.add.accumulate`` adds strictly left to right,
    so its last element is the scalar path's sequential ``total_delay +=
    delay`` bit for bit — ``np.sum`` (pairwise) and builtin ``sum()``
    (compensated on 3.12+) would not be.
    """
    stats.arrivals += offered
    stats.bytes_in += bytes_in
    stats.accepted += offered - dropped
    stats.dropped += dropped
    stats.bytes_accepted += bytes_in - bytes_dropped
    stats.bytes_dropped += bytes_dropped
    if not len(departures):
        return
    delays = departures - arrivals
    stats.total_delay = float(np.add.accumulate(
        np.concatenate(([stats.total_delay], delays)))[-1])
    peak = float(delays.max())
    if peak > stats.max_delay:
        stats.max_delay = peak
    stats.last_departure = float(departures[-1])


def _commit(sender, state: tuple, built: int) -> None:
    sender.fast_scan_commit_classes(*state)
    sender.refs_injected += built


class TapScan:
    """One tapped scan's output, in acceptance order with references spliced.

    ``time`` holds each output slot's departure and ``rows`` its input row —
    a reference slot holds its trigger's row (the reference arrived with
    it).  ``is_ref`` marks the reference slots, ``refs`` lists the
    accepted reference packets in slot order and ``built`` counts every
    reference built, dropped ones included.  The sender's advanced state is
    written back only by calling ``commit()``, so a driver that may still
    fall back can defer it; ``commit`` holds that state alone, not the
    scan's arrays.
    """

    __slots__ = ("time", "rows", "is_ref", "refs", "built", "commit")

    def __init__(self, time, rows, is_ref, refs, built, sender, state):
        self.time = time
        self.rows = rows
        self.is_ref = is_ref
        self.refs = refs
        self.built = built
        self.commit = partial(_commit, sender, state, built)

    def take(self, column: np.ndarray, ref_value) -> np.ndarray:
        """*column* (indexed by input row) per output slot, with reference
        slots set to *ref_value*."""
        out = column[self.rows]
        out[self.is_ref] = ref_value
        return out


def tapped_scan(queue, times: np.ndarray, sizes: np.ndarray, cls: np.ndarray,
                sender) -> TapScan:
    """Offer sorted rows to *queue* with *sender* tapping its input.

    ``cls`` is each row's class code: :data:`UNTAPPED`, :data:`NO_CLASS`
    (the sender's utilization still sees the row), or a path class ``k >=
    0``.  A class the sender has no counter for counts as :data:`NO_CLASS`,
    exactly like :meth:`~repro.core.sender.RliSender.on_regular`.  The queue
    and its statistics advance in place; the sender only on
    ``TapScan.commit()``.
    """
    n = len(times)
    rate_Bps = queue.rate_Bps
    buffer_bytes = queue.buffer_bytes
    seen_any, wstart, wbytes, estimate, counters = sender.fast_scan_state_classes()
    keys = sorted(k for k in counters if k >= 0)
    counts = [0] * (keys[-1] + 1 if keys else 0)
    for k in keys:
        counts[k] = counters[k]
    # map classes without a counter to NO_CLASS before the loop, so the
    # loop indexes a list instead of testing dict membership
    known = np.zeros(len(counts), dtype=bool)
    known[keys] = True
    cls = np.asarray(cls, dtype=np.int64)
    has_counter = (cls >= 0) & (cls < len(counts))
    has_counter[has_counter] = known[cls[has_counter]]
    cls = np.where(has_counter | (cls == UNTAPPED), cls, NO_CLASS)
    cls_l = cls.tolist()

    utilization = sender.utilization
    window = utilization.window
    alpha = utilization.alpha
    capacity = utilization._capacity_per_window
    policy_gap = sender.policy.gap
    build_reference = sender.build_reference
    gap = policy_gap(estimate)

    ts_l = times.tolist()
    t_l = (times + queue.proc_delay).tolist()
    svc_l = (sizes / rate_Bps).tolist()
    size_l = sizes.tolist()
    fa = queue._free_at
    if buffer_bytes is None:
        threshold = math.inf  # no tail drop: every arrival is safe
    else:
        threshold = _drop_free_threshold(
            buffer_bytes, int(sizes.max()) if n else 0, rate_Bps)
    drop_idx: List[int] = []
    bytes_drop = 0
    dep_l: List[float] = []
    dep_append = dep_l.append
    ref_at: List[int] = []  # output slot of each accepted reference
    trig: List[int] = []  # its trigger's input row
    refs: List = []
    built = 0
    ref_bytes_in = 0
    for i, (now, t, svc, size, c) in enumerate(zip(ts_l, t_l, svc_l, size_l, cls_l)):
        # same float ops as FifoQueue.offer: a backlog at or below the
        # certified threshold cannot drop, so only near-full arrivals pay
        # for the drop test (max() resolved by the branch taken)
        backlog = fa - t
        if backlog > threshold:
            clamped = backlog * rate_Bps if backlog > 0.0 else 0.0
            if clamped + size > buffer_bytes:
                drop_idx.append(i)
                bytes_drop += size
                continue  # dropped: never passed the tap
            fa = (t if t > fa else fa) + svc
        elif backlog > 0.0:
            fa = fa + svc
        else:
            fa = t + svc
        dep_append(fa)
        if c == UNTAPPED:
            continue
        # --- RliSender.on_regular: utilization first, always
        if not seen_any:
            wstart = now - (now % window)
            seen_any = True
        wend = wstart + window
        if now >= wend:
            while True:
                sample = wbytes / capacity
                if sample > 1.0:
                    sample = 1.0  # min(1.0, sample)
                estimate += alpha * (sample - estimate)
                wbytes = 0
                wstart = wend
                wend = wstart + window
                if now < wend:
                    break
            gap = policy_gap(estimate)
        wbytes += size
        if c < 0:
            continue
        count = counts[c] + 1
        if count < gap:
            counts[c] = count
            continue
        counts[c] = 0
        ref = build_reference(c, now)
        built += 1
        # inject right behind the trigger: same queue float ops
        # (it arrives with its trigger: same t)
        rsize = ref.size
        ref_bytes_in += rsize
        if buffer_bytes is not None:
            backlog = fa - t
            backlog = backlog * rate_Bps if backlog > 0.0 else 0.0
            if backlog + rsize > buffer_bytes:
                bytes_drop += rsize
                ref.dropped = True
                continue
        fa = (t if t > fa else fa) + rsize / rate_Bps
        ref.hops += 1
        ref_at.append(len(dep_l))
        dep_append(fa)
        trig.append(i)
        refs.append(ref)

    queue._free_at = fa
    time = np.array(dep_l, dtype=np.float64)
    is_ref = np.zeros(len(dep_l), dtype=bool)
    is_ref[ref_at] = True
    rows = np.empty(len(dep_l), dtype=np.int64)
    rows[~is_ref] = np.delete(np.arange(n, dtype=np.int64), drop_idx)
    rows[is_ref] = trig
    bytes_in = (int(sizes.sum()) if n else 0) + ref_bytes_in  # reprolint: disable=BATCH003 -- int64 byte counter; integer addition is exact in any order
    # a reference arrives with its trigger (ref.ts == now), so every slot's
    # arrival is its input row's time
    fold_stats(queue.stats, n + built, bytes_in,
               len(drop_idx) + built - len(refs), bytes_drop, time, times[rows])
    # the sender counted every accepted row that has a class
    regulars_seen = int(np.count_nonzero(cls[rows[~is_ref]] >= 0))
    counters = {k: counts[k] for k in keys}
    return TapScan(time, rows, is_ref, refs, built, sender,
                   (seen_any, wstart, wbytes, estimate, counters, regulars_seen))
