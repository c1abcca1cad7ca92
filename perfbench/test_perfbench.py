"""Tests of the benchmark itself, on miniature sweeps."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import child, run, tracer as tr, workloads as wl

TINY = {"scale": 0.02}


def test_self_times_on_a_synthetic_span_tree():
    spans = [
        tr.Span("root", 0.0, 10.0, -1),
        tr.Span("a", 1.0, 4.0, 0, items=3),
        tr.Span("b", 3.0, 6.0, 0),  # overlaps a: the overlap counts once
        tr.Span("a.child", 2.0, 3.0, 1),
        tr.Span("c", 8.0, 12.0, 0),  # runs past root: clipped to it
        tr.Span("a", 6.5, 7.0, 0, items=2),
    ]
    own = tr.self_times(spans)
    assert own == pytest.approx([10 - (5 + 0.5 + 2), 2.0, 3.0, 1.0, 4.0, 0.5])
    totals = tr.layer_totals(spans)
    assert totals["a"] == {"calls": 2, "items": 5, "self_s": pytest.approx(2.5)}


def test_tracer_charges_bookkeeping_to_itself_not_the_caller():
    ticks = iter(range(100))
    tracer = tr.Tracer(clock=lambda: float(next(ticks)))
    inner = tr.Entry("inner", (), items=lambda a, k, r, b, t: 7)
    outer = tr.Entry("outer", ())
    tracer.call(outer, lambda: tracer.call(inner, lambda: None, (), {}), (), {})
    totals = tr.layer_totals(tracer.spans)
    assert totals["inner"]["items"] == 7
    # outer: ticks 0..5; inner 1..2; bookkeeping 3..4 -> outer keeps 5-1-1
    assert totals["outer"]["self_s"] == 3.0
    assert totals[tr.BOOKKEEPING]["self_s"] == 1.0


def test_missing_entry_point_is_reported_not_fatal():
    entries = (tr.Entry("gone", (("repro.sim.queue", "FifoQueue.no_such_scan"),
                                 ("repro.no_such_module", "f"))),)
    uninstall, missing = tr.install(tr.Tracer(), entries)
    uninstall()
    assert missing == ["repro.sim.queue:FifoQueue.no_such_scan",
                       "repro.no_such_module:f"]


def test_routing_premises():
    assert tr.premise_violations("mesh", {"sim.fatpath": 1, "core.mesh": 1}) == []
    bad = tr.premise_violations("fig4ab", {"sim.pipeline": 1, "traffic.cross": 1,
                                           "experiments.summarize": 1,
                                           "core.replay": 2})
    assert bad == ["core.replay ran on fig4ab (expected only on multihop)"]


def _oracle(name, size):
    results = []
    undo = child._capture_results(results)
    try:
        output = wl.run_sweep(name, 3, batch=False, size=size)
    finally:
        undo()
    return {"digest": wl.digest(output, results)}


def test_one_ulp_perturbation_raises_failed_frac(monkeypatch):
    import repro.core.receiver as receiver

    oracle = _oracle("fig4ab", TINY)
    bench = run.Run("fig4ab", 3, env={}, oracle=oracle)
    request = dict(bench.request(traced=False), size=TINY)
    bench.record(child.sweep(request), traced=False)
    assert bench.failed_frac == 0.0

    original = receiver.interpolate_batch
    monkeypatch.setattr(receiver, "interpolate_batch",
                        lambda *a, **k: np.nextafter(original(*a, **k), np.inf))
    bench.known_pickle = None
    bench.record(child.sweep(request), traced=False)
    assert bench.failed_frac == 0.5
    assert "differs from the per-object oracle" in bench.failures[0]


def test_a_memo_set_in_one_sweep_is_not_visible_in_the_next():
    # in one process the trace memo of the first sweep serves the second...
    request = {"mode": "sweep", "workload": "fig4ab", "seed": 4,
               "traced": True, "size": TINY}
    shared = [child.sweep(request) for _ in range(2)]
    assert "traffic.generate" not in shared[1]["layers"]
    # ...but the benchmark gives every sweep a fresh process
    env = run.child_env()
    fresh = [run.run_child(request, env) for _ in range(2)]
    assert [r["layers"]["traffic.generate"]["calls"] for r in fresh] == [2, 2]


def test_refuses_to_run_without_the_program(tmp_path):
    root = Path(__file__).resolve().parent.parent
    shutil.copytree(root / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mesh", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_benchmark_json_names_every_workload_and_metric():
    root = Path(__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    for entry in spec["workloads"]:
        assert entry["why"].startswith(wl.WORKLOADS[entry["name"]].why)
    prefixes = dict.fromkeys(e.prefix for e in tr.ENTRY_POINTS)
    names = {m["name"] for m in spec["per_layer"]}
    for prefix in prefixes:
        for suffix in ("calls", "items", "self_s", "ns_per_item"):
            assert f"{prefix}.{suffix}" in names


def test_end_to_end_metrics_match_benchmark_json_and_scale_to_host_speed():
    root = Path(__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    bench = run.Run("mesh", 1, env={}, oracle={
        "digest": None, "accuracy": {"worst_median_rel_err": 0.01}})
    # the calibration kernel took twice its reference time: a slow host
    bench.plain = [{"sweep_cpu_s": 3.0, "calib_cpu_s": 2 * run.REF_CALIB_S,
                    "offers": 600, "peak_rss_mb": 100.0}]
    bench.setup = [0.25]
    metrics = run.end_to_end(bench)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (_, unit, _) in metrics.items()}
    assert metrics["offers_per_ref_s"][0] == pytest.approx(400.0)
    assert metrics["setup_s"][0] == pytest.approx(0.125)
