"""RLIR wiring: one shared core deployment serving any set of ToR pairs.

RLIR's architecture (paper Section 3.1) places RLI instances only at the
source ToRs' uplink interfaces, at the core routers, and at the
destination ToRs, splitting every inter-pod path into two measured
segments,

    segment 1:  src ToR uplink  →  core router      (upstream demux)
    segment 2:  core router     →  dst ToR          (downstream demux)

The core instances are *shared* by every ToR pair — which is where the
paper's Θ(k³)-vs-Θ(k⁴) saving comes from.  :class:`RlirMesh` is the one
wiring of this architecture; a single ToR pair
(:class:`~repro.core.rlir.RlirDeployment`) is a one-pair mesh.

* every source-ToR uplink hosts an :class:`~repro.core.sender.RliSender`
  with one reference template per reachable core, crafted against the
  aggregation switch's hash so each equal-cost path carries references;
* every core hosts one receiver (segment 1) that demultiplexes by sender
  ID + source-ToR prefix — sufficient upstream, because in a fat-tree all
  packets a core sees from one ToR climbed through the same uplink — and
  one sender per destination pod on its egress toward that pod
  (segment 2);
* each destination ToR hosts the downstream receiver, which identifies the
  traversed core by **reverse-ECMP computation** or **packet marking**
  (``demux_method``), plus source-prefix matching — every (stream,
  source) combination holding its own interpolation buffer.

Ground-truth segment delays ride on the packets' ``tap_time`` bookkeeping,
so every estimate is paired with exact truth.  :func:`sender_tap` and
:func:`receiver_tap` are the engine taps every deployment attaches (this
one and :class:`~repro.core.full_rli.FullRliDeployment`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..net.packet import Packet
from ..sim.clock import Clock, PerfectClock
from ..sim.ecmp import craft_dport_for_port
from ..sim.engine import Engine
from ..sim.fatpath import try_fast_path
from ..sim.switch import Switch
from ..sim.topology import FatTree
from ..traffic.trace import Trace
from .demux import PathClassifierDemux, UpstreamPrefixDemux
from .flowstats import FlowStatsTable
from .injection import InjectionPolicy, StaticInjection
from .marking import MarkingClassifier, assign_marks
from .obslog import ObservationColumns
from .receiver import RliReceiver
from .reverse_ecmp import ReverseEcmpClassifier
from .sender import RefTemplate, RliSender

__all__ = ["RlirMesh", "MeshResult", "RlirResult", "sender_tap", "receiver_tap"]

TOR_SENDER_STRIDE = 100


def sender_tap(engine: Engine, switch: Switch, port_index: int,
               sender: RliSender):
    """Enqueue tap of *sender* on ``switch.ports[port_index]``: stamps each
    regular packet's segment entry time and injects the sender's
    references right behind it."""

    def tap(packet: Packet, now: float) -> None:
        if not packet.is_regular:
            return
        packet.tap_time = now
        refs = sender.on_regular(packet, now)
        if refs:
            for ref in refs:
                engine.forward_injected(ref, switch.inject(ref, now, port_index))

    return tap


def receiver_tap(receiver: RliReceiver):
    """Arrival tap feeding regular and reference packets to *receiver*."""

    def tap(packet: Packet, now: float, in_port: int) -> None:
        if packet.is_regular or packet.is_reference:
            receiver.observe(packet, now)

    return tap


class RlirResult:
    """Measurement output of one RLIR run over a ToR pair."""

    def __init__(
        self,
        seg1_receivers: Dict[str, RliReceiver],
        seg2_receiver: RliReceiver,
    ):
        self.seg1_receivers = seg1_receivers
        self.seg2_receiver = seg2_receiver

    # ------------------------------------------------------------------

    def segment1_estimated(self) -> FlowStatsTable:
        """Per-flow estimates for src-ToR → core, merged across cores."""
        merged = FlowStatsTable()
        for receiver in self.seg1_receivers.values():
            merged.merge(receiver.flow_estimated)
        return merged

    def segment1_true(self) -> FlowStatsTable:
        merged = FlowStatsTable()
        for receiver in self.seg1_receivers.values():
            merged.merge(receiver.flow_true)
        return merged

    def segment2_estimated(self) -> FlowStatsTable:
        return self.seg2_receiver.flow_estimated

    def segment2_true(self) -> FlowStatsTable:
        return self.seg2_receiver.flow_true

    def end_to_end(self) -> List[Tuple[Tuple[int, int, int, int, int], float, float]]:
        """(flow key, estimated mean, true mean) across both segments.

        Per-flow end-to-end mean latency is the sum of the two segment
        means; only flows measured on both segments appear.
        """
        seg1_est, seg1_true = self.segment1_estimated(), self.segment1_true()
        out = []
        for key, est2 in self.seg2_receiver.flow_estimated.items():
            est1 = seg1_est.get(key)
            true1 = seg1_true.get(key)
            true2 = self.seg2_receiver.flow_true.get(key)
            if est1 is None or true1 is None or true2 is None:
                continue
            out.append((key, est1.mean + est2.mean, true1.mean + true2.mean))
        return out

    def named_receivers(self) -> List[Tuple[str, RliReceiver]]:
        """(segment name, receiver): ``seg1:<core>`` per core, then
        ``seg2:to-dst-tor``."""
        out = [(f"seg1:{name}", rx) for name, rx in self.seg1_receivers.items()]
        out.append(("seg2:to-dst-tor", self.seg2_receiver))
        return out

    def segments(self) -> List[Tuple[str, FlowStatsTable]]:
        """(name, estimated table) per segment, ready for localization."""
        return [(name, rx.flow_estimated) for name, rx in self.named_receivers()]


class MeshResult:
    """Per-pair views over the shared mesh receivers."""

    def __init__(self, mesh: "RlirMesh"):
        self._mesh = mesh

    def pair(self, src: Tuple[int, int], dst: Tuple[int, int]) -> RlirResult:
        """The (seg1, seg2) result restricted to one measured pair.

        Segment-1 receivers are shared across pairs; the returned tables
        are filtered to flows whose source lies in *src*'s prefix and whose
        destination lies in *dst*'s prefix.
        """
        mesh = self._mesh
        if (src, dst) not in mesh.pairs:
            raise KeyError(f"pair {src}->{dst} not measured by this mesh")
        src_prefix = mesh.fattree.tor_prefix(*src)
        dst_prefix = mesh.fattree.tor_prefix(*dst)

        def filtered(receiver: RliReceiver) -> RliReceiver:
            view = RliReceiver(demux=receiver.demux)
            for src_table, dst_table in (
                (receiver.flow_estimated, view.flow_estimated),
                (receiver.flow_true, view.flow_true),
            ):
                for key, stats in src_table.items():
                    if key[0] in src_prefix and key[1] in dst_prefix:
                        dst_table.merge_flow(key, stats)
            return view

        seg1 = {name: filtered(rx) for name, rx in mesh.core_receivers.items()}
        seg2 = filtered(mesh.dst_receivers[dst])
        return RlirResult(seg1, seg2)


class RlirMesh:
    """Shared RLIR deployment over a set of inter-pod ToR pairs.

    Parameters
    ----------
    fattree:
        The fabric (already built; this class only attaches taps/marks).
    pairs:
        ((src_pod, src_edge), (dst_pod, dst_edge)) tuples, all inter-pod.
    policy_factory:
        Builds a fresh injection policy per sender instance.
    demux_method:
        ``"reverse-ecmp"`` (default; the destination receiver recomputes
        the source-side hashes) or ``"marking"`` (each core stamps its ToS
        mark) for the downstream receivers.
    estimator:
        Interpolation strategy for all receivers.
    clock_factory:
        Builds the clock of each instance (default: perfect sync).
    record_observations:
        When True every receiver records its post-demux observation stream
        into a columnar :class:`~repro.core.obslog.ObservationColumns` log
        (see :mod:`repro.core.replay`) instead of estimating live — its
        tables stay empty, since replay recomputes every estimate from the
        log, one flow shard at a time if need be.
    batch:
        Run on the layered columnar fast path
        (:class:`~repro.sim.fatpath.FatTreeFastPath`) when every trace is
        batch-backed: **bitwise identical** to the event engine — arrival
        ties included, reconstructed exactly from event provenance —
        several times the throughput.  Non-batchable configurations —
        packet marking (the classifier reads per-packet ToS state),
        jittered clocks, an ``until`` bound — fall back to the engine
        transparently.
    """

    def __init__(
        self,
        fattree: FatTree,
        pairs: Sequence[Tuple[Tuple[int, int], Tuple[int, int]]],
        policy_factory: Callable[[], InjectionPolicy] = lambda: StaticInjection(100),
        demux_method: str = "reverse-ecmp",
        estimator: str = "linear",
        clock_factory: Optional[Callable[[], Clock]] = None,
        record_observations: bool = False,
        batch: bool = False,
    ):
        if demux_method not in ("marking", "reverse-ecmp"):
            raise ValueError(f"demux_method must be 'marking' or 'reverse-ecmp': {demux_method}")
        if not pairs:
            raise ValueError("at least one ToR pair required")
        for src, dst in pairs:
            if src == dst:
                raise ValueError(f"pair {src}->{dst}: ToRs must differ")
            if src[0] == dst[0]:
                raise ValueError(f"pair {src}->{dst}: inter-pod pairs only")
        self.fattree = fattree
        self.pairs = list(pairs)
        self.policy_factory = policy_factory
        self.demux_method = demux_method
        self.estimator = estimator
        self.clock_factory = clock_factory or PerfectClock
        self.record_observations = record_observations
        self.batch = batch
        self._srcs = list(dict.fromkeys(src for src, _ in self.pairs))
        self._dsts = list(dict.fromkeys(dst for _, dst in self.pairs))
        self.tor_senders: Dict[Tuple[Tuple[int, int], int], RliSender] = {}
        self.core_receivers: Dict[str, RliReceiver] = {}
        self.core_senders: Dict[Tuple[str, int], RliSender] = {}
        self.dst_receivers: Dict[Tuple[int, int], RliReceiver] = {}
        self._wired = False
        # declarative wiring descriptions consumed by the columnar driver
        self._sender_taps: Dict[Tuple[Switch, int], tuple] = {}
        self._receiver_taps: Dict[Switch, RliReceiver] = {}

    # ------------------------------------------------------------------
    # instance ids

    def tor_sender_id(self, src: Tuple[int, int], uplink: int) -> int:
        return 10_000 + self._srcs.index(src) * TOR_SENDER_STRIDE + uplink

    def core_sender_id(self, core: Switch, dst_pod: int) -> int:
        return 20_000 + core.node_id * 64 + dst_pod

    # ------------------------------------------------------------------

    def wire(self, engine: Engine) -> None:
        """Attach all measurement instances (once per deployment)."""
        if self._wired:
            raise RuntimeError("deployment already wired")
        self._wired = True
        ft = self.fattree
        half = ft.k // 2
        cores = [ft.cores[i][j] for i in range(half) for j in range(half)]

        # ---- source ToRs: one sender per uplink ----
        for src in self._srcs:
            src_edge = ft.edges[src[0]][src[1]]
            for u in range(half):
                agg = ft.aggs[src[0]][u]
                templates = {}
                for j in range(half):
                    core = ft.cores[u][j]
                    dport = craft_dport_for_port(
                        agg.hasher, src_edge.address, core.address, 0, 253, half, j)
                    if dport is None:
                        raise RuntimeError(
                            f"could not craft reference flow for {core.name} via {agg.name}")
                    templates[j] = RefTemplate(src_edge.address, core.address, 0, dport)
                self.tor_senders[(src, u)] = self._attach_sender(
                    engine, src_edge, ft.port_toward(src_edge, agg),
                    self.tor_sender_id(src, u), templates,
                    self._agg_hash_classifier(agg, half), ("hash", agg.hasher, half))

        # ---- cores: one shared receiver; one sender per involved dst pod ----
        dst_pods = sorted({dst[0] for dst in self._dsts})
        for i in range(half):
            for j in range(half):
                core = ft.cores[i][j]
                # packets from a src ToR reach this core via uplink i
                self.core_receivers[core.name] = self._attach_receiver(
                    core, UpstreamPrefixDemux([
                        (ft.tor_prefix(*src), self.tor_sender_id(src, i))
                        for src in self._srcs
                    ]))
                for pod in dst_pods:
                    pod_dsts = [dst for dst in self._dsts if dst[0] == pod]
                    templates = {
                        self._dsts.index(dst): RefTemplate(
                            core.address, ft.edges[dst[0]][dst[1]].address, 0, 0)
                        for dst in pod_dsts
                    }
                    self.core_senders[(core.name, pod)] = self._attach_sender(
                        engine, core, ft.port_toward(core, ft.aggs[pod][i]),
                        self.core_sender_id(core, pod), templates,
                        self._dst_tor_classifier(pod_dsts),
                        ("tor_map", tuple((dst[0], dst[1], self._dsts.index(dst))
                                          for dst in pod_dsts)))

        # ---- destination ToRs: one downstream receiver each ----
        marks = None
        if self.demux_method == "marking":
            marks = assign_marks(core.node_id for core in cores)
            for core in cores:
                core.mark = marks[core.node_id]
        for dst in self._dsts:
            core_to_sender = {c.node_id: self.core_sender_id(c, dst[0]) for c in cores}
            if marks is None:
                classifier = ReverseEcmpClassifier(ft, core_to_sender)
            else:
                classifier = MarkingClassifier(
                    {marks[node]: sender for node, sender in core_to_sender.items()})
            self.dst_receivers[dst] = self._attach_receiver(
                ft.edges[dst[0]][dst[1]], PathClassifierDemux(
                    classifier,
                    sender_ids=core_to_sender.values(),
                    source_prefixes=[ft.tor_prefix(*src)
                                     for src, d in self.pairs if d == dst],
                ))

    # ------------------------------------------------------------------
    # instance/classifier factories

    def _attach_sender(self, engine: Engine, switch: Switch, port_index: int,
                       sender_id: int, templates, classify, spec) -> RliSender:
        port = switch.ports[port_index]
        sender = RliSender(
            sender_id=sender_id,
            link_rate_bps=port.queue.rate_Bps * 8.0,
            policy=self.policy_factory(),
            templates=templates,
            classify=classify,
            clock=self.clock_factory(),
        )
        port.add_enqueue_tap(sender_tap(engine, switch, port_index, sender))
        self._sender_taps[(switch, port_index)] = (sender, spec)
        return sender

    def _attach_receiver(self, switch: Switch, demux) -> RliReceiver:
        receiver = RliReceiver(
            demux=demux,
            clock=self.clock_factory(),
            estimator=self.estimator,
            observation_log=ObservationColumns() if self.record_observations else None,
        )
        switch.add_arrival_tap(receiver_tap(receiver))
        self._receiver_taps[switch] = receiver
        return receiver

    def _agg_hash_classifier(self, agg: Switch, half: int):
        def classify(packet: Packet) -> int:
            return agg.hasher.choose(packet.flow_key, half)

        return classify

    def _dst_tor_classifier(self, pod_dsts: Sequence[Tuple[int, int]]):
        prefixes = [(self.fattree.tor_prefix(*dst), self._dsts.index(dst))
                    for dst in pod_dsts]

        def classify(packet: Packet) -> Optional[int]:
            for prefix, index in prefixes:
                if prefix.contains(packet.dst):
                    return index
            return None

        return classify

    # ------------------------------------------------------------------

    def run(self, traces: List[Trace], until: Optional[float] = None) -> MeshResult:
        """Inject traces (packets enter at their source ToR), run, collect.

        ``traces`` may include background traffic between arbitrary host
        pairs; only flows covered by the measured pairs are measured — that
        is the whole point of the demultiplexers.  With ``batch=True`` and
        batch-backed traces the layered columnar driver replaces the event
        calendar (``until`` must be None — a truncated run needs the
        calendar); anything non-batchable falls back to the engine with
        identical output.
        """
        engine = Engine()
        self.wire(engine)
        ft = self.fattree
        if not (self.batch and try_fast_path(ft, self._sender_taps,
                                             self._receiver_taps, traces, until)):
            for trace in traces:
                packets = (trace.clone_packets() if hasattr(trace, "clone_packets")
                           else trace.to_packets())
                engine.inject_trace(packets, lambda p: ft.edge_of(p.src))
            engine.run(until=until)
        for receiver in self._receiver_taps.values():
            receiver.finalize()
        return MeshResult(self)
