"""N-switch chain: the Figure-3 environment across multiple hops.

The paper's simulator "lets packets from the trace experience processing and
queueing delays across multiple queues (equivalently, multiple
routers/switches)" and evaluates RLIR "in the presence of cross traffic
across multiple hops".  :class:`SwitchChain` runs a chain of N switches with
independent per-hop cross traffic: cross traffic for hop i joins just before
switch i's queue and leaves after it (classic single-hop interfering load),
while regular traffic (and the RLI reference stream) rides the whole chain.

The RLI sender taps the entry of switch 1; the receiver observes departures
from switch N.  The measured segment therefore spans all N queues — the
multi-router segment an RLIR deployment measures between two instrumented
interfaces.

This module also holds the one feed-forward driver under both
:class:`SwitchChain` and :class:`~repro.sim.pipeline.TwoSwitchPipeline` (a
2-hop chain with cross traffic at hop 2 only): :func:`drive` is the
per-object reference path, :func:`drive_batch` the columnar one.  The
columnar driver runs the tapped first hop through
:func:`~repro.sim.scan.tapped_scan`, every other hop through the plain scan
:meth:`~repro.sim.queue.FifoQueue.offer_batch`, and hands the final
departure stream to :meth:`~repro.core.receiver.RliReceiver.observe_batch`
— **bitwise identical** to the per-object path, with transparent fallback
when a component cannot be driven columnar.
"""

from __future__ import annotations

import heapq
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..net.packet import Packet, PacketKind
from ..obs import metrics as obs_metrics
from ..traffic.batch import PacketBatch
from .queue import FifoQueue
from .scan import UNTAPPED, tapped_scan

__all__ = ["ChainConfig", "ChainResult", "SwitchChain", "Tally", "drive",
           "drive_batch", "is_columnar"]

_REGULAR = int(PacketKind.REGULAR)
_REFERENCE = int(PacketKind.REFERENCE)
_CROSS = int(PacketKind.CROSS)


class ChainConfig:
    """Physical parameters of an N-switch chain (uniform by default).

    ``batch=True`` selects the columnar fast path: :meth:`SwitchChain.run`
    dispatches to :meth:`SwitchChain.run_batch` whenever the regular trace
    and every hop's cross traffic carry (or are)
    :class:`~repro.traffic.batch.PacketBatch` columns.  Results are
    bitwise-identical either way; non-batchable senders/receivers fall back
    to the per-object path inside ``run_batch``.
    """

    def __init__(
        self,
        n_hops: int = 3,
        rate_bps: float = 1e9,
        buffer_bytes: Optional[int] = 256 * 1024,
        proc_delay: float = 1e-6,
        rates_bps: Optional[Sequence[float]] = None,
        batch: bool = False,
    ):
        if n_hops < 1:
            raise ValueError(f"need at least one hop: {n_hops}")
        self.n_hops = n_hops
        self.rates_bps = list(rates_bps) if rates_bps is not None else [rate_bps] * n_hops
        if len(self.rates_bps) != n_hops:
            raise ValueError(
                f"rates_bps has {len(self.rates_bps)} entries for {n_hops} hops"
            )
        self.buffer_bytes = buffer_bytes
        self.proc_delay = proc_delay
        self.batch = batch


class ChainResult:
    """Counters and per-hop queue statistics from one chain run."""

    def __init__(self, queues: List[FifoQueue], duration: float):
        self.queues = queues
        self.duration = duration
        self.refs_injected = 0
        self.regular_in = 0
        self.regular_out = 0

    def utilization(self, hop: int) -> float:
        return self.queues[hop].utilization(self.duration)

    @property
    def regular_loss_rate(self) -> float:
        return 1.0 - self.regular_out / self.regular_in if self.regular_in else 0.0


class SwitchChain:
    """Drive one run of the N-hop environment.

    ``cross_per_hop`` maps hop index → sorted ``(arrival, packet)`` cross
    arrivals for that hop (missing hops get none).  Sender and receiver
    follow the protocols of :mod:`repro.sim.pipeline`.  On the columnar
    path, ``cross_per_hop`` values are
    :class:`~repro.traffic.batch.PacketBatch` columns instead (``ts`` is
    the hop arrival time — the output of a cross model's
    ``arrivals_batch``).
    """

    def __init__(self, config: ChainConfig):
        self.config = config

    def run(
        self,
        regular: Iterable[Packet],
        cross_per_hop: Optional[Dict[int, List[Tuple[float, Packet]]]] = None,
        sender=None,
        receiver=None,
        duration: Optional[float] = None,
    ) -> ChainResult:
        if self.config.batch and is_columnar("chain.run", regular, cross_per_hop):
            return self.run_batch(regular, cross_per_hop, sender=sender,
                                  receiver=receiver, duration=duration)
        queues = self._queues()
        tally = drive(queues, regular, cross_per_hop, sender, receiver)
        return self._result(queues, tally, duration)

    def run_batch(
        self,
        regular,
        cross_per_hop=None,
        sender=None,
        receiver=None,
        duration: Optional[float] = None,
    ) -> ChainResult:
        """Run the chain on columnar packet batches.

        Accepts a time-sorted :class:`~repro.traffic.batch.PacketBatch` (or
        batch-backed :class:`~repro.traffic.trace.Trace`) of regular
        traffic and a ``hop -> PacketBatch`` map of cross traffic whose
        ``ts`` column is the hop arrival time; see :func:`drive_batch`.
        """
        queues = self._queues()
        tally = drive_batch("chain.run_batch", queues, regular, cross_per_hop,
                            sender, receiver)
        return self._result(queues, tally, duration)

    def _queues(self) -> List[FifoQueue]:
        cfg = self.config
        return [
            FifoQueue(cfg.rates_bps[i], cfg.buffer_bytes, cfg.proc_delay, name=f"hop{i}")
            for i in range(cfg.n_hops)
        ]

    @staticmethod
    def _result(queues, tally: "Tally", duration: Optional[float]) -> ChainResult:
        result = ChainResult(queues, duration or 0.0)
        result.refs_injected = tally.refs_injected
        result.regular_in = tally.regular_in
        result.regular_out = tally.regular_out
        if duration is None:
            result.duration = max(q.stats.last_departure for q in queues)
        return result


# ----------------------------------------------------------------------
# the feed-forward driver


class Tally:
    """What one feed-forward run counts besides its queues' statistics.

    ``arrivals``/``drops`` count the packets of each kind offered to and
    dropped by the last hop's queue.
    """

    __slots__ = ("refs_injected", "regular_in", "regular_out", "arrivals", "drops")

    def __init__(self) -> None:
        self.refs_injected = 0
        self.regular_in = 0
        self.regular_out = 0
        self.arrivals: Dict[PacketKind, int] = {k: 0 for k in PacketKind}
        self.drops: Dict[PacketKind, int] = {k: 0 for k in PacketKind}


def _check_hops(n_hops: int, cross_per_hop) -> None:
    unknown = set(cross_per_hop) - set(range(n_hops))
    if unknown:
        raise ValueError(f"cross traffic for nonexistent hops: {sorted(unknown)}")


def drive(queues: List[FifoQueue], regular: Iterable[Packet],
          cross_per_hop, sender=None, receiver=None) -> Tally:
    """Per-object feed-forward run through *queues*.

    Hop i's queue sees the sorted merge of the surviving through-stream and
    ``cross_per_hop[i]`` (``heapq.merge``: through-packets precede
    coincident cross arrivals).  A CROSS packet leaves after its hop.  At
    the first hop every accepted through-packet gets its ``tap_time``, and
    each accepted REGULAR packet goes to ``sender.on_regular``, whose
    references are offered right behind it; other kinds pass the tap
    unseen.  The receiver observes every packet leaving the last hop.
    """
    cross_per_hop = cross_per_hop or {}
    _check_hops(len(queues), cross_per_hop)
    tally = Tally()
    arrivals, drops = tally.arrivals, tally.drops

    def through():
        for packet in regular:
            tally.regular_in += 1
            yield packet.ts, packet

    stream: Iterable[Tuple[float, Packet]] = through()
    last = len(queues) - 1
    for hop, queue in enumerate(queues):
        counted = hop == last
        out: List[Tuple[float, Packet]] = []
        merged = heapq.merge(stream, cross_per_hop.get(hop) or (), key=itemgetter(0))
        for arrival, packet in merged:
            if counted:
                arrivals[packet.kind] += 1
            departure = queue.offer(packet, arrival)
            if departure is None:
                if counted:
                    drops[packet.kind] += 1
                continue
            if packet.kind == PacketKind.CROSS:
                continue  # hop-local cross exits after its hop
            out.append((departure, packet))
            if hop:
                continue
            packet.tap_time = arrival
            if sender is None or not packet.is_regular:
                continue
            for ref in sender.on_regular(packet, arrival) or ():
                tally.refs_injected += 1
                if counted:
                    arrivals[ref.kind] += 1
                ref_departure = queue.offer(ref, arrival)
                if ref_departure is not None:
                    out.append((ref_departure, ref))
                elif counted:
                    drops[ref.kind] += 1
        stream = out

    for arrival, packet in stream:
        if packet.is_regular:
            tally.regular_out += 1
        if receiver is not None:
            receiver.observe(packet, arrival)
    return tally


def _coerce_cross(cross_per_hop) -> Optional[Dict[int, PacketBatch]]:
    """Per-hop cross traffic as batches, or None if any hop cannot."""
    out: Dict[int, PacketBatch] = {}
    for hop, cross in (cross_per_hop or {}).items():
        if cross is None or (isinstance(cross, (list, tuple)) and not cross):
            out[hop] = PacketBatch.empty()
            continue
        batch = PacketBatch.coerce(cross)
        if batch is None:
            return None
        out[hop] = batch
    return out


def is_columnar(site: str, regular, cross_per_hop) -> bool:
    """True when a ``batch=True`` run's inputs are columnar; otherwise
    notes why not at *site* (the run then stays per-object)."""
    if PacketBatch.coerce(regular) is None:
        obs_metrics.fallback(site, "regular-not-columnar")
        return False
    if _coerce_cross(cross_per_hop) is None:
        obs_metrics.fallback(site, "cross-not-columnar")
        return False
    return True


def _fast_path_blocker(queues, sender, receiver, reg: PacketBatch,
                       cross: Dict[int, PacketBatch]) -> Optional[str]:
    """Why the run can't be driven columnar — ``None`` when it can.

    The reason string feeds the ``batch.fallback`` counter and the
    ``--verbose`` once-per-sweep note, so a user can tell a nominal
    fast-path run was actually falling back and why.
    """
    if any(type(q) is not FifoQueue for q in queues):
        return "custom-queue"
    if sender is not None and not (
        getattr(sender, "batch_capable", False)
        and hasattr(sender, "fast_scan_state_classes")
    ):
        return "sender-not-batch-capable"
    if receiver is not None and not (
        getattr(receiver, "batch_capable", False)
        and hasattr(receiver, "observe_batch")
    ):
        return "receiver-not-batch-capable"
    # kinds the fast path hard-codes: the regular stream must be all
    # REGULAR (references are injected, not replayed) and the cross
    # streams all CROSS (anything else would reach the receiver)
    if len(reg) and not np.all(reg.kind == _REGULAR):
        return "mixed-regular-kinds"
    for batch in cross.values():
        if len(batch) and not np.all(batch.kind == _CROSS):
            return "mixed-cross-kinds"
    return None


def _merge(cols: Tuple[np.ndarray, ...], crs: Optional[PacketBatch]):
    """Sorted-merge a through-stream's columns with one hop's cross.

    Both inputs are time-sorted; two ``searchsorted`` passes give each
    element its merged position with ``heapq.merge``'s tie rule (the
    through-stream is the earlier iterable, so its entries precede
    coincident cross arrivals; original order within each stream).
    """
    if crs is None or not len(crs):
        return cols
    time = cols[0]
    pos_s = np.arange(len(time)) + np.searchsorted(crs.ts, time, side="left")
    pos_c = np.arange(len(crs)) + np.searchsorted(time, crs.ts, side="right")
    total = len(time) + len(crs)
    merged = []
    for i, (col, cross_col) in enumerate(zip(cols, (crs.ts, crs.size, _CROSS, -1, -1))):
        out = np.empty(total, dtype=np.float64 if i == 0 else np.int64)
        out[pos_s] = col
        out[pos_c] = cross_col
        merged.append(out)
    return tuple(merged)


def drive_batch(site: str, queues: List[FifoQueue], regular, cross_per_hop,
                sender=None, receiver=None) -> Tally:
    """Columnar :func:`drive`, bitwise-identical to it.

    *regular* is a time-sorted :class:`~repro.traffic.batch.PacketBatch`
    (or batch-backed :class:`~repro.traffic.trace.Trace`) and
    *cross_per_hop* maps hops to batches whose ``ts`` is the hop arrival
    time.  A stream is five parallel columns — time, size, kind, header row
    (-1 on references) and reference slot (-1 on header rows) — while the
    few references stay Packet objects.  The fast path needs plain
    tail-drop queues and a batch-capable sender and receiver (or none);
    anything else is noted at *site* and runs :func:`drive` on the
    materialized packets, with identical numbers.
    """
    reg = PacketBatch.coerce(regular)
    if reg is None:
        raise TypeError(f"run_batch needs a PacketBatch or batch-backed Trace, "
                        f"got {type(regular).__name__}")
    cross = _coerce_cross(cross_per_hop)
    if cross is None:
        raise TypeError("cross traffic must be PacketBatch columns")
    _check_hops(len(queues), cross)
    blocker = _fast_path_blocker(queues, sender, receiver, reg, cross)
    if blocker is not None:
        obs_metrics.fallback(site, blocker)
        pairs = {hop: [(p.ts, p) for p in batch.to_packets()]
                 for hop, batch in cross.items()}
        return drive(queues, reg.to_packets(), pairs, sender, receiver)
    obs_metrics.taken(site)

    tally = Tally()
    tally.regular_in = n = len(reg)
    cols = (reg.ts, reg.size, np.full(n, _REGULAR, dtype=np.int64),
            np.arange(n, dtype=np.int64), np.full(n, -1, dtype=np.int64))
    refs: List[Packet] = []
    last = len(queues) - 1
    for hop, queue in enumerate(queues):
        cols = _hop_batch(queue, _merge(cols, cross.get(hop)),
                          sender if hop == 0 else None, refs, tally,
                          hop == last)
    time, _size, kind, hidx, refslot = cols
    tally.regular_out = int(np.count_nonzero(kind == _REGULAR))
    if receiver is not None:
        out_refs = [refs[s] for s in refslot[refslot >= 0].tolist()]
        receiver.observe_batch(time, kind, reg, hidx, None, out_refs)
    return tally


def _hop_batch(queue: FifoQueue, cols, sender, refs: List[Packet],
               tally: Tally, last: bool):
    """One hop of :func:`drive_batch`: scan the merged columns (tapped when
    a *sender* is given) and keep the accepted through-rows; the last hop
    also counts its per-kind arrivals and drops into *tally*."""
    time, size, kind, hidx, refslot = cols
    built = 0
    if sender is not None:
        scan = tapped_scan(queue, time, size,
                           np.where(kind == _CROSS, UNTAPPED, 0), sender)
        scan.commit()
        built = tally.refs_injected = scan.built
        slots = np.arange(len(refs), len(refs) + len(scan.refs))
        refs.extend(scan.refs)
        out = (scan.time, scan.take(size, [r.size for r in scan.refs]),
               scan.take(kind, _REFERENCE), scan.take(hidx, -1),
               scan.take(refslot, slots))
        accepted = np.ones(len(scan.time), dtype=bool)
    else:
        departures, accepted = queue.offer_batch(time, size)
        ref_rows = np.flatnonzero(refslot >= 0)
        for slot, ok in zip(refslot[ref_rows].tolist(),
                            accepted[ref_rows].tolist()):
            if ok:
                refs[slot].hops += 1
            else:
                refs[slot].dropped = True
        out = (departures, size, kind, hidx, refslot)
    if last:
        offered = np.bincount(kind, minlength=len(PacketKind))
        offered[_REFERENCE] += built
        kept = np.bincount(out[2][accepted], minlength=len(PacketKind))
        for k in PacketKind:
            tally.arrivals[k] = int(offered[k])
            tally.drops[k] = int(offered[k] - kept[k])
    through = accepted & (out[2] != _CROSS)
    return tuple(col[through] for col in out)
