"""The paper's simulation environment (Figure 3): a two-switch pipeline.

    Packet trace ──► Traffic divider ──► [Switch 1] ──► [Switch 2] ──► sink
                          │  cross           ▲ RLI sender    ▲ bottleneck
                          └──────────► Cross-traffic injector   RLI receiver

Regular traffic traverses Switch 1 (where the RLI sender taps the egress
queue and injects reference packets) and then Switch 2.  Cross traffic skips
Switch 1 and joins at Switch 2, whose utilization is controlled by the
cross-traffic injection model.  The RLI receiver observes packets departing
Switch 2 and produces per-flow latency estimates of the regular traffic.

The pipeline is a 2-hop :class:`~repro.sim.chain.SwitchChain` with cross
traffic at hop 2 only, and runs on the chain's feed-forward driver
(:func:`~repro.sim.chain.drive` per object, :func:`~repro.sim.chain.drive_batch`
columnar): a sorted merge per hop instead of an event calendar — the
analytic queues make each packet O(1) — which lets the benches run
10^5–10^6-packet traces in seconds.  What it adds to the chain is queue
construction (per-switch buffers, ``queue_factory``, the names
``switch1``/``switch2``) and per-kind arrival/drop counters at Switch 2.

The pipeline is deliberately decoupled from :mod:`repro.core`: the sender
and receiver are any objects implementing the small protocols below, so the
same environment also drives baselines (LDA, Multiflow) and ablations.

Sender protocol
    ``on_regular(packet, now) -> Optional[List[Packet]]`` — called for every
    REGULAR packet accepted into Switch 1's egress queue; may return
    reference packets to inject right behind it.

Receiver protocol
    ``observe(packet, now)`` — called for every non-cross packet departing
    Switch 2.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..net.packet import Packet, PacketKind
from .chain import Tally, drive, drive_batch, is_columnar
from .queue import FifoQueue

__all__ = ["PipelineConfig", "PipelineResult", "TwoSwitchPipeline"]


class PipelineConfig:
    """Physical parameters of the two switches.

    Defaults model 1 Gb/s links with 256 KB tail-drop buffers and 1 µs of
    per-packet processing, giving the tens-of-µs congested delays the paper
    reports.

    ``batch=True`` selects the columnar fast path: :meth:`TwoSwitchPipeline.run`
    dispatches to :meth:`~TwoSwitchPipeline.run_batch` whenever the inputs
    carry (or are) :class:`~repro.traffic.batch.PacketBatch` columns.  The
    fast path produces bitwise-identical results; when a component cannot
    be driven columnar (custom queues, senders, receivers), it silently
    falls back to the per-object reference implementation.
    """

    __slots__ = ("rate1_bps", "rate2_bps", "buffer1_bytes", "buffer2_bytes",
                 "proc_delay", "queue_factory", "batch")

    def __init__(
        self,
        rate1_bps: float = 1e9,
        rate2_bps: float = 1e9,
        buffer1_bytes: Optional[int] = 256 * 1024,
        buffer2_bytes: Optional[int] = 256 * 1024,
        proc_delay: float = 1e-6,
        queue_factory=None,
        batch: bool = False,
    ):
        self.rate1_bps = rate1_bps
        self.rate2_bps = rate2_bps
        self.buffer1_bytes = buffer1_bytes
        self.buffer2_bytes = buffer2_bytes
        self.proc_delay = proc_delay
        # queue_factory(rate_bps, buffer_bytes, proc_delay, name) -> queue;
        # defaults to the tail-drop FifoQueue, override e.g. with RedQueue
        self.queue_factory = queue_factory or FifoQueue
        self.batch = batch


class PipelineResult:
    """Counters and queue statistics from one pipeline run."""

    def __init__(self, queue1: FifoQueue, queue2: FifoQueue, duration: float):
        self.queue1 = queue1
        self.queue2 = queue2
        self.duration = duration
        # per-kind arrival/drop counters at switch 2
        self.arrivals2: Dict[PacketKind, int] = {k: 0 for k in PacketKind}
        self.drops2: Dict[PacketKind, int] = {k: 0 for k in PacketKind}
        self.refs_injected = 0

    @property
    def utilization2(self) -> float:
        """Measured utilization of the bottleneck (Switch 2) link."""
        return self.queue2.utilization(self.duration)

    @property
    def utilization1(self) -> float:
        return self.queue1.utilization(self.duration)

    def loss_rate(self, kind: PacketKind = PacketKind.REGULAR) -> float:
        """Loss rate of *kind* packets at the bottleneck switch."""
        arrivals = self.arrivals2[kind]
        return self.drops2[kind] / arrivals if arrivals else 0.0


class TwoSwitchPipeline:
    """Drive one run of the Figure-3 environment."""

    def __init__(self, config: Optional[PipelineConfig] = None):
        self.config = config or PipelineConfig()

    def run(
        self,
        regular: Iterable[Packet],
        cross: Iterable[Tuple[float, Packet]],
        sender=None,
        receiver=None,
        duration: Optional[float] = None,
    ) -> PipelineResult:
        """Run the pipeline.

        Parameters
        ----------
        regular:
            Regular-traffic packets sorted by ``ts`` (arrival at Switch 1).
            Packets of another kind ride along: a CROSS packet leaves after
            Switch 1, a REFERENCE packet passes the sender unseen.
        cross:
            ``(arrival_time, packet)`` pairs sorted by time — the output of a
            cross-traffic injection model; these arrive directly at Switch 2.
        sender:
            Optional RLI sender (see module docstring).  ``None`` disables
            reference injection (the paper's "without references" runs for
            Figure 5).
        receiver:
            Optional RLI receiver observing Switch-2 departures.
        duration:
            Trace span in seconds used for utilization accounting; inferred
            from the last departure if omitted.
        """
        if self.config.batch and is_columnar("pipeline.run", regular, {1: cross}):
            return self.run_batch(regular, cross, sender=sender,
                                  receiver=receiver, duration=duration)
        queues = self._queues()
        tally = drive(queues, regular, {1: cross}, sender, receiver)
        return self._result(queues, tally, duration)

    def run_batch(
        self,
        regular,
        cross=None,
        sender=None,
        receiver=None,
        duration: Optional[float] = None,
    ) -> PipelineResult:
        """Run the pipeline on columnar packet batches.

        Accepts a :class:`~repro.traffic.batch.PacketBatch` (or a
        batch-backed :class:`~repro.traffic.trace.Trace`) of time-sorted
        regular traffic, and one of cross traffic whose ``ts`` column is the
        Switch-2 arrival time (the output of a cross model's
        ``arrivals_batch``).  Results are **bitwise-identical** to
        :meth:`run` on the materialized packets (see
        :func:`~repro.sim.chain.drive_batch`).

        The fast path requires plain tail-drop :class:`FifoQueue` switches,
        a batch-capable sender (or none) and a batch-capable receiver (or
        none); any other combination silently falls back to the per-object
        reference path with identical numbers.
        """
        queues = self._queues()
        tally = drive_batch("pipeline.run_batch", queues, regular, {1: cross},
                            sender, receiver)
        return self._result(queues, tally, duration)

    def _queues(self) -> List[FifoQueue]:
        cfg = self.config
        return [
            cfg.queue_factory(cfg.rate1_bps, cfg.buffer1_bytes, cfg.proc_delay, "switch1"),
            cfg.queue_factory(cfg.rate2_bps, cfg.buffer2_bytes, cfg.proc_delay, "switch2"),
        ]

    @staticmethod
    def _result(queues, tally: Tally, duration: Optional[float]) -> PipelineResult:
        result = PipelineResult(*queues, duration or 0.0)
        result.arrivals2 = tally.arrivals
        result.drops2 = tally.drops
        result.refs_injected = tally.refs_injected
        if duration is None:
            result.duration = max(q.stats.last_departure for q in queues)
        return result
