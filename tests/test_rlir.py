"""End-to-end tests of the RLIR deployment on a fat-tree.

These are the paper's architecture tests: references crafted per path,
upstream demux by prefix at the cores, downstream demux by marking or
reverse ECMP at the destination ToR, and per-flow estimates that track
ground truth across two segments.
"""

import pytest

from repro.analysis.metrics import flow_mean_errors
from repro.core.injection import StaticInjection
from repro.core.localization import localize
from repro.core.rlir import RlirDeployment
from repro.sim.topology import FatTree, LinkParams
from repro.traffic.synthetic import TraceConfig, generate_fattree_trace


def build_fattree():
    return FatTree(4, LinkParams(rate_bps=40e6, buffer_bytes=128 * 1024,
                                 proc_delay=1e-6, prop_delay=0.5e-6))


def measured_trace(ft, n_packets=6000, seed=1):
    """Flows from ToR (0,0) hosts to ToR (1,0) hosts."""
    pairs = [(ft.host_address(0, 0, h), ft.host_address(1, 0, g))
             for h in range(2) for g in range(2)]
    cfg = TraceConfig(duration=1.0, n_packets=n_packets, mean_flow_pkts=12.0)
    return generate_fattree_trace(cfg, pairs, seed=seed, name="measured")


def background_trace(ft, n_packets=4000, seed=2):
    """Cross traffic from other ToRs, sharing cores and the dst ToR."""
    pairs = [(ft.host_address(2, e, h), ft.host_address(1, 0, g))
             for e in range(2) for h in range(2) for g in range(2)]
    pairs += [(ft.host_address(3, e, h), ft.host_address(0, 1, g))
              for e in range(2) for h in range(2) for g in range(2)]
    cfg = TraceConfig(duration=1.0, n_packets=n_packets, mean_flow_pkts=12.0)
    return generate_fattree_trace(cfg, pairs, seed=seed, name="background")


def deploy_and_run(demux_method="marking", n=20, with_background=True, ft=None):
    ft = ft or build_fattree()
    deployment = RlirDeployment(
        ft, src=(0, 0), dst=(1, 0),
        policy_factory=lambda: StaticInjection(n),
        demux_method=demux_method,
    )
    traces = [measured_trace(ft)]
    if with_background:
        traces.append(background_trace(ft))
    result = deployment.run(traces)
    return ft, deployment, result


class TestRlirDeployment:
    def test_validation(self):
        ft = build_fattree()
        with pytest.raises(ValueError):
            RlirDeployment(ft, src=(0, 0), dst=(0, 0))
        with pytest.raises(ValueError):
            RlirDeployment(ft, src=(0, 0), dst=(0, 1))  # same pod
        with pytest.raises(ValueError):
            RlirDeployment(ft, src=(0, 0), dst=(1, 0), demux_method="magic")

    def test_instances_wired(self):
        _, deployment, _ = deploy_and_run()
        assert len(deployment.tor_senders) == 2  # k/2 uplinks
        assert len(deployment.core_receivers) == 4  # (k/2)^2 cores
        assert len(deployment.core_senders) == 4
        assert deployment.dst_receiver is not None

    def test_references_flow_on_both_segments(self):
        _, deployment, result = deploy_and_run()
        seg1_refs = sum(r.references_accepted for r in result.seg1_receivers.values())
        assert seg1_refs > 0
        assert result.seg2_receiver.references_accepted > 0

    def test_segment1_measures_all_measured_flows(self):
        ft, _, result = deploy_and_run()
        est = result.segment1_estimated()
        true = result.segment1_true()
        # every inter-pod flow from the src ToR climbs through some core
        assert len(true) > 50
        assert len(est) == pytest.approx(len(true), abs=5)

    def test_segment_estimates_track_truth(self):
        """Median per-flow relative error is small on both segments."""
        from repro.analysis.cdf import Ecdf

        _, _, result = deploy_and_run(n=10)
        j1 = flow_mean_errors(result.segment1_estimated(), result.segment1_true())
        j2 = flow_mean_errors(result.segment2_estimated(), result.segment2_true())
        assert len(j1.errors) > 30
        assert len(j2.errors) > 30
        assert Ecdf(j1.errors).median < 0.5
        assert Ecdf(j2.errors).median < 0.5

    def test_background_flows_not_measured_downstream(self):
        ft, _, result = deploy_and_run()
        src_prefix = ft.tor_prefix(0, 0)
        for key, _ in result.seg2_receiver.flow_estimated.items():
            assert key[0] in src_prefix  # only src-ToR flows measured

    def test_background_traffic_inflates_true_delays(self):
        _, _, quiet = deploy_and_run(with_background=False)
        _, _, busy = deploy_and_run(with_background=True)

        def pooled_mean(table):
            from repro.core.flowstats import StreamingStats
            s = StreamingStats()
            for _, st in table.items():
                s.merge(st)
            return s.mean

        assert pooled_mean(busy.segment2_true()) > pooled_mean(quiet.segment2_true())

    def test_end_to_end_combines_segments(self):
        _, _, result = deploy_and_run(n=10)
        rows = result.end_to_end()
        assert len(rows) > 30
        errors = [abs(est - true) / true for _, est, true in rows if true > 0]
        errors.sort()
        assert errors[len(errors) // 2] < 0.5  # median

    def test_marking_and_reverse_ecmp_agree(self):
        """The two downstream demux options classify identically, so they
        produce identical per-flow sample counts."""
        ft1, _, by_mark = deploy_and_run("marking")
        ft2, _, by_recmp = deploy_and_run("reverse-ecmp")
        marked = {k: s.count for k, s in by_mark.seg2_receiver.flow_estimated.items()}
        recomputed = {k: s.count for k, s in by_recmp.seg2_receiver.flow_estimated.items()}
        assert marked == recomputed

    def test_reverse_ecmp_needs_no_marking_support(self):
        """With reverse ECMP the cores never touch the ToS byte."""
        ft, _, _ = deploy_and_run("reverse-ecmp")
        for row in ft.cores:
            for core in row:
                assert core.mark == 0

    def test_cannot_wire_twice(self):
        ft = build_fattree()
        deployment = RlirDeployment(ft, src=(0, 0), dst=(1, 0),
                                    demux_method="marking")
        deployment.run([measured_trace(ft, n_packets=200)])
        with pytest.raises(RuntimeError):
            deployment.run([measured_trace(ft, n_packets=200)])

    def test_localization_prefers_congested_segment(self):
        """Heavy background fan-in toward the destination ToR congests the
        downstream segment; localization ranks seg2 above every seg1."""
        ft = build_fattree()
        deployment = RlirDeployment(ft, src=(0, 0), dst=(1, 0),
                                    policy_factory=lambda: StaticInjection(20),
                                    demux_method="marking")
        light = measured_trace(ft, n_packets=2500)
        # incast: pods 2 and 3 all sending to the destination ToR's hosts
        pairs = [(ft.host_address(p, e, h), ft.host_address(1, 0, g))
                 for p in (2, 3) for e in range(2) for h in range(2)
                 for g in range(2)]
        cfg = TraceConfig(duration=1.0, n_packets=14_000, mean_flow_pkts=12.0)
        incast = generate_fattree_trace(cfg, pairs, seed=5, name="incast")
        result = deployment.run([light, incast])
        report = localize(result.segments(), factor=1.5, floor=1e-6, min_samples=5)
        seg2 = next(s for s in report.summaries if s.name.startswith("seg2"))
        seg1_means = [s.mean for s in report.summaries if s.name.startswith("seg1")]
        assert seg2.mean > max(seg1_means)
