"""The tapped-queue scan (``repro.sim.scan``) against its per-object oracle.

``tapped_scan`` must be bitwise-identical to offering every row to
:meth:`FifoQueue.offer` and, on acceptance of a row the tap sees, calling
:meth:`RliSender.on_regular` and offering the references it returns right
behind the row.  The workloads run at 1 B/s with integer sizes and times,
so every float is an exact integer and exact ties, zero-backlog restarts
and buffer-edge tests happen on purpose, not by luck.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.injection import AdaptiveInjection, StaticInjection
from repro.core.sender import RefTemplate, RliSender
from repro.net.packet import Packet
from repro.sim.queue import FifoQueue
from repro.sim.scan import NO_CLASS, UNTAPPED, tapped_scan

RATE_BPS = 8.0  # 1 byte per second: times and backlogs are byte counts
TEMPLATES = {0: 64, 2: 40}  # class -> reference size; classes 1, 3 have none


def make_sender(policy, window=50.0):
    templates = {c: RefTemplate(src=1, dst=(c + 1) << 8, size=size)
                 for c, size in TEMPLATES.items()}
    # the oracle's classifier reads the class a row was given from dport
    return RliSender(7, RATE_BPS, policy=policy, templates=templates,
                     classify=lambda p: p.dport - 10 if p.dport else None,
                     util_window=window, util_alpha=0.5)


def make_queue(buffer_bytes, proc_delay=0.0):
    return FifoQueue(RATE_BPS, buffer_bytes, proc_delay, name="tap")


def packet(t, size, c):
    return Packet(src=1, dst=2, dport=c + 10 if c >= 0 else 0, size=size, ts=t)


def oracle(queue, sender, times, sizes, cls):
    """Per-object run: (departure, row or None, ref) per accepted packet,
    plus every reference built."""
    out, built = [], []
    for i, (t, size, c) in enumerate(zip(times, sizes, cls)):
        departure = queue.offer(packet(t, size, c), t)
        if departure is None:
            continue
        out.append((departure, i, None))
        if c == UNTAPPED:
            continue
        for ref in sender.on_regular(packet(t, size, c), t) or ():
            built.append(ref)
            ref_departure = queue.offer(ref, t)
            if ref_departure is not None:
                out.append((ref_departure, i, ref))
    return out, built


def queue_state(q):
    s = q.stats
    return (q._free_at, s.arrivals, s.accepted, s.dropped, s.bytes_in,
            s.bytes_accepted, s.bytes_dropped, s.total_delay, s.max_delay,
            s.last_departure)


def sender_state(tx):
    u = tx.utilization
    return (u._seen_any, u._window_start, u._window_bytes, u._estimate,
            dict(tx._counters), tx.regulars_seen, tx.refs_injected)


def ref_fields(ref):
    return (ref.ts, ref.size, ref.dst, ref.ref_timestamp, ref.tap_time,
            ref.hops, ref.dropped)


def assert_scan_matches(times, sizes, cls, buffer_bytes, policy, proc_delay=0.0,
                        prefix=0):
    """Run rows [prefix:] through both paths after feeding rows [:prefix]
    per object to both, so the scan resumes from live queue and sender
    state."""
    q_o, q_b = make_queue(buffer_bytes, proc_delay), make_queue(buffer_bytes, proc_delay)
    tx_o, tx_b = make_sender(policy), make_sender(policy)
    head = (times[:prefix], sizes[:prefix], cls[:prefix])
    oracle(q_o, tx_o, *head)
    oracle(q_b, tx_b, *head)
    times, sizes, cls = times[prefix:], sizes[prefix:], cls[prefix:]

    out, built = oracle(q_o, tx_o, times, sizes, cls)
    scan = tapped_scan(q_b, np.array(times, dtype=np.float64),
                       np.array(sizes, dtype=np.int64),
                       np.array(cls, dtype=np.int64), tx_b)
    scan.commit()

    assert scan.time.tolist() == [d for d, _, _ in out]
    assert scan.rows.tolist() == [i for _, i, _ in out]
    assert scan.is_ref.tolist() == [ref is not None for _, _, ref in out]
    assert ([ref_fields(r) for r in scan.refs]
            == [ref_fields(ref) for _, _, ref in out if ref is not None])
    assert scan.built == len(built)
    assert queue_state(q_b) == queue_state(q_o)
    assert sender_state(tx_b) == sender_state(tx_o)
    return scan, built


class TestEdges:
    def test_exact_tie_and_zero_backlog_restart(self):
        # row 1 arrives exactly when row 0 finishes (t == free_at), row 2
        # after an idle gap, row 3 into a backlog
        assert_scan_matches([0.0, 100.0, 250.0, 260.0], [100, 100, 100, 100],
                            [0, 0, 0, 0], None, StaticInjection(3))

    def test_buffer_edge_accepts_equal_and_drops_one_byte_more(self):
        # row 1 sees 160 B of backlog: 160 + 100 == 260 fits exactly.  Its
        # backlog is above the drop-free threshold (260 - 200 B), so the
        # exact drop test decides
        scan, _ = assert_scan_matches([0.0, 40.0], [200, 100], [NO_CLASS] * 2,
                                      260, StaticInjection(100))
        assert scan.rows.tolist() == [0, 1]
        scan, _ = assert_scan_matches([0.0, 40.0], [200, 100], [NO_CLASS] * 2,
                                      259, StaticInjection(100))
        assert scan.rows.tolist() == [0]

    def test_reference_dropped_at_the_edge(self):
        # the reference behind row 0 sees 100 B of backlog: 100 + 64
        scan, built = assert_scan_matches([0.0], [100], [0], 164,
                                          StaticInjection(1))
        assert len(scan.refs) == 1 and not scan.refs[0].dropped
        scan, built = assert_scan_matches([0.0], [100], [0], 163,
                                          StaticInjection(1))
        assert scan.refs == [] and len(built) == 1 and built[0].dropped

    def test_class_codes(self):
        # untapped rows advance the queue only; NO_CLASS rows and classes
        # without a counter (1, 3) feed the utilization only
        assert_scan_matches([float(10 * i) for i in range(8)], [30] * 8,
                            [UNTAPPED, NO_CLASS, 0, 1, 2, 3, 0, 2], 1000,
                            StaticInjection(1))

    def test_empty_input(self):
        assert_scan_matches([], [], [], 500, StaticInjection(2))


class TestProperty:
    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.lists(st.tuples(st.sampled_from([0, 0, 10, 40, 64, 100, 300]),
                                st.sampled_from([40, 64, 100, 200]),
                                st.sampled_from([UNTAPPED, NO_CLASS, 0, 1, 2, 3])),
                      max_size=60),
        buffer_bytes=st.sampled_from([None, 150, 200, 264, 400, 1000]),
        policy=st.sampled_from([StaticInjection(1), StaticInjection(3),
                                AdaptiveInjection(1, 4, 0.2, 0.8)]),
        proc_delay=st.sampled_from([0.0, 5.0]),
        prefix=st.integers(0, 20),
    )
    def test_scan_matches_offer_and_on_regular(self, rows, buffer_bytes,
                                               policy, proc_delay, prefix):
        times = np.cumsum([gap for gap, _, _ in rows]).astype(float).tolist()
        sizes = [size for _, size, _ in rows]
        cls = [c for _, _, c in rows]
        assert_scan_matches(times, sizes, cls, buffer_bytes, policy,
                            proc_delay=proc_delay, prefix=min(prefix, len(rows)))
