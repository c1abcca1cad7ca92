"""Analytic work-conserving FIFO queue with a finite buffer.

This is the core of the paper's simulator: packets "experience processing and
queueing delays across multiple queues (equivalently, multiple
routers/switches)" (Section 4.1), where delays "are governed by queue size
and packet processing time".

Because service is FIFO at a deterministic link rate, the queue can be
simulated exactly in O(1) per packet without an event calendar:

* ``free_at`` is the time the transmitter finishes the last accepted packet;
* the backlog (in bytes) seen by an arrival at time ``t`` is exactly
  ``(free_at - t) * rate`` when ``free_at > t``, else 0;
* an arrival is dropped (tail drop) iff backlog + its size exceeds the
  buffer;
* otherwise its departure time is ``max(t, free_at) + size/rate``.

Arrivals must be offered in non-decreasing time order — both the fast
pipeline driver and the event engine guarantee this; the queue asserts it.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..net.packet import Packet
from .scan import _drop_free_threshold, fold_stats

__all__ = ["FifoQueue", "QueueStats"]


class QueueStats:
    """Counters accumulated by a :class:`FifoQueue`."""

    __slots__ = (
        "arrivals",
        "accepted",
        "dropped",
        "bytes_in",
        "bytes_accepted",
        "bytes_dropped",
        "total_delay",
        "max_delay",
        "last_departure",
    )

    def __init__(self) -> None:
        self.arrivals = 0
        self.accepted = 0
        self.dropped = 0
        self.bytes_in = 0
        self.bytes_accepted = 0
        self.bytes_dropped = 0
        self.total_delay = 0.0
        self.max_delay = 0.0
        self.last_departure = 0.0

    @property
    def loss_rate(self) -> float:
        """Fraction of arrivals dropped (0 if no arrivals)."""
        return self.dropped / self.arrivals if self.arrivals else 0.0

    @property
    def mean_delay(self) -> float:
        """Mean total delay (processing + waiting + transmission) of
        accepted packets."""
        return self.total_delay / self.accepted if self.accepted else 0.0


class FifoQueue:
    """Work-conserving FIFO queue draining at a fixed link rate.

    Parameters
    ----------
    rate_bps:
        Link rate in bits per second.
    buffer_bytes:
        Tail-drop buffer size in bytes.  An arrival that would push the
        backlog past this limit is dropped.  ``None`` means infinite.
    proc_delay:
        Fixed per-packet processing (pipeline) delay applied before the
        packet reaches the buffer, in seconds.
    name:
        Optional label used in reprs and drop diagnostics.
    """

    __slots__ = ("rate_Bps", "buffer_bytes", "proc_delay", "name", "_free_at", "stats")

    def __init__(
        self,
        rate_bps: float,
        buffer_bytes: Optional[int] = None,
        proc_delay: float = 0.0,
        name: str = "",
    ):
        if rate_bps <= 0:
            raise ValueError(f"rate must be positive: {rate_bps}")
        if buffer_bytes is not None and buffer_bytes <= 0:
            raise ValueError(f"buffer must be positive or None: {buffer_bytes}")
        if proc_delay < 0:
            raise ValueError(f"processing delay must be non-negative: {proc_delay}")
        self.rate_Bps = rate_bps / 8.0
        self.buffer_bytes = buffer_bytes
        self.proc_delay = proc_delay
        self.name = name
        self._free_at = 0.0
        self.stats = QueueStats()

    # ------------------------------------------------------------------

    def backlog_bytes(self, now: float) -> float:
        """Bytes queued (including the packet in service) at time *now*."""
        return max(0.0, self._free_at - now) * self.rate_Bps

    def transmission_time(self, size_bytes: int) -> float:
        """Seconds to serialize *size_bytes* onto the link."""
        return size_bytes / self.rate_Bps

    def offer(self, packet: Packet, arrival: float) -> Optional[float]:
        """Offer *packet* at time *arrival*; return its departure time.

        Returns ``None`` and marks ``packet.dropped`` if the buffer
        overflows.  Arrivals must be non-decreasing in time.
        """
        stats = self.stats
        stats.arrivals += 1
        stats.bytes_in += packet.size
        t = arrival + self.proc_delay
        backlog = max(0.0, self._free_at - t) * self.rate_Bps
        if self.buffer_bytes is not None and backlog + packet.size > self.buffer_bytes:
            stats.dropped += 1
            stats.bytes_dropped += packet.size
            packet.dropped = True
            return None
        departure = max(t, self._free_at) + packet.size / self.rate_Bps
        self._free_at = departure
        delay = departure - arrival
        stats.accepted += 1
        stats.bytes_accepted += packet.size
        stats.total_delay += delay
        if delay > stats.max_delay:
            stats.max_delay = delay
        stats.last_departure = departure
        packet.hops += 1
        return departure

    def offer_batch(
        self, arrivals: np.ndarray, sizes: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Offer a whole sorted arrival array: the plain (untapped) scan.

        Parameters are parallel arrays: arrival times (non-decreasing) and
        wire sizes in bytes.  Returns ``(departures, accepted)`` — departure
        times (``NaN`` where dropped) and a boolean acceptance mask.

        The scan applies *exactly* the per-packet float operations of
        :meth:`offer` (``max(t, free_at) + size/rate`` with the identical
        tail-drop test) over a running ``free_at``, and folds the same
        statistics in the same order, so interleaving ``offer`` and
        ``offer_batch`` calls is bitwise-indistinguishable from offering
        every packet individually.  Only per-``Packet`` bookkeeping
        (``dropped`` flags, ``hops``) is absent — there are no objects.

        Only valid on the tail-drop base class: subclasses with their own
        drop logic (e.g. RED) must not inherit this scan.
        """
        if type(self).offer is not FifoQueue.offer:
            raise NotImplementedError(
                f"{type(self).__name__} overrides offer(); the vectorized "
                f"scan only reproduces tail-drop FifoQueue semantics"
            )
        arrivals = np.asarray(arrivals, dtype=np.float64)
        sizes = np.asarray(sizes)
        n = len(arrivals)
        # vectorized per-element precomputation: identical IEEE ops to the
        # scalar `arrival + proc_delay` and `size / rate_Bps` in offer()
        t_l = (arrivals + self.proc_delay).tolist()
        svc_l = (sizes / self.rate_Bps).tolist()

        # the scan carries only the recurrence (free_at and the drop test);
        # statistics are folded in afterwards, with identical results
        fa = self._free_at
        rate_Bps = self.rate_Bps
        buffer_bytes = self.buffer_bytes
        dropped = 0
        bytes_drop = 0
        nan = float("nan")
        dep_l: list = []
        dep_append = dep_l.append
        if buffer_bytes is None:
            for t, svc in zip(t_l, svc_l):
                fa = (t if t > fa else fa) + svc
                dep_append(fa)
        else:
            size_l = sizes.tolist()
            threshold = _drop_free_threshold(
                buffer_bytes, int(sizes.max()) if n else 0, rate_Bps)
            # three arms: a backlog at or below the certified threshold
            # cannot drop any packet of this batch, so the common case skips
            # the drop arithmetic entirely; the rare near-full arm and the
            # idle arm apply the exact offer() float ops (max() resolved by
            # the branch already taken)
            for i, (t, svc) in enumerate(zip(t_l, svc_l)):
                backlog = fa - t
                if backlog > threshold:
                    size = size_l[i]
                    clamped = backlog * rate_Bps if backlog > 0.0 else 0.0
                    if clamped + size > buffer_bytes:
                        dropped += 1
                        bytes_drop += size
                        dep_append(nan)
                        continue
                    fa = (t if t > fa else fa) + svc
                elif backlog > 0.0:
                    fa = fa + svc
                else:
                    fa = t + svc
                dep_append(fa)

        self._free_at = fa
        departures = np.array(dep_l, dtype=np.float64) if n else np.empty(0)
        accepted_mask = (
            ~np.isnan(departures) if dropped else np.ones(n, dtype=bool)
        )
        acc_dep = departures[accepted_mask] if dropped else departures
        bytes_in = int(sizes.sum()) if n else 0  # reprolint: disable=BATCH003 -- int64 byte counter; integer addition is exact in any order
        fold_stats(self.stats, n, bytes_in, dropped, bytes_drop, acc_dep,
                   arrivals[accepted_mask])
        return departures, accepted_mask

    def utilization(self, duration: float) -> float:
        """Offered-load utilization of the link over *duration* seconds:
        accepted bytes / (rate × duration)."""
        if duration <= 0:
            raise ValueError("duration must be positive")
        return self.stats.bytes_accepted / (self.rate_Bps * duration)

    def set_rate(self, rate_bps: float) -> None:
        """Change the drain rate (e.g. to model a degraded link).

        Only valid between runs / before the queue has backlog — the
        analytic model assumes a constant rate while work is queued.
        """
        if rate_bps <= 0:
            raise ValueError(f"rate must be positive: {rate_bps}")
        self.rate_Bps = rate_bps / 8.0

    def reset(self) -> None:
        """Clear state and statistics for a fresh run."""
        self._free_at = 0.0
        self.stats = QueueStats()

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"FifoQueue({label and label.strip()} rate={self.rate_Bps * 8:.3g}bps "
            f"buffer={self.buffer_bytes} proc={self.proc_delay})"
        )
