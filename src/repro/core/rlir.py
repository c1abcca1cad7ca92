"""RLIR for one ToR pair: the paper's Figure 1 (S1, R3) scenario.

Figure 1's interface pair generalized to whole ToR switches: RLI instances
only at the source ToR's uplink interfaces, at the core routers, and at
the destination ToR, splitting every path into two measured segments.
:class:`RlirDeployment` is a one-pair :class:`~repro.core.mesh.RlirMesh`
— the one RLIR wiring, described there — that adds the single-pair
views: the destination receiver, the unfiltered :class:`RlirResult`
(receiver counters included), and the recorded observation logs under the
segment names localization reports culprits by.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..sim.topology import FatTree
from ..traffic.trace import Trace
from .mesh import RlirMesh, RlirResult
from .obslog import ObservationColumns
from .receiver import RliReceiver

__all__ = ["RlirDeployment", "RlirResult"]


class RlirDeployment(RlirMesh):
    """Instrument a fat-tree for one ToR pair's measurements and run traces.

    *src* and *dst* are the (pod, edge) coordinates of the source and
    destination ToR switches; every keyword argument is
    :class:`~repro.core.mesh.RlirMesh`'s.
    """

    def __init__(self, fattree: FatTree, src: Tuple[int, int],
                 dst: Tuple[int, int], **kwargs):
        if src == dst:
            raise ValueError("source and destination ToR must differ")
        if src[0] == dst[0]:
            raise ValueError(
                "ToRs in the same pod never cross a core; RLIR core placement "
                "covers inter-pod pairs"
            )
        super().__init__(fattree, [(src, dst)], **kwargs)
        self.src = src
        self.dst = dst

    @property
    def dst_receiver(self) -> Optional[RliReceiver]:
        """The downstream receiver at the destination ToR (once wired)."""
        return self.dst_receivers.get(self.dst)

    def observation_logs(self) -> List[Tuple[str, ObservationColumns]]:
        """(segment name, recorded events) per receiver (after a run)."""
        if not self.record_observations:
            raise RuntimeError("deployment built without record_observations")
        return [(name, rx.observation_log) for name, rx in
                RlirResult(self.core_receivers, self.dst_receiver).named_receivers()]

    def run(self, traces: List[Trace], until: Optional[float] = None) -> RlirResult:
        """:meth:`RlirMesh.run`, returning the pair's receivers unfiltered."""
        super().run(traces, until)
        return RlirResult(dict(self.core_receivers), self.dst_receiver)
