"""One sweep, or one oracle computation, in a fresh interpreter.

Started by ``run.py`` as ``python3 perfbench/child.py '<json request>'``;
prints one JSON object as its last line of output.  A fresh process per
sweep means no module-level memo (trace caches, memoized simulations) can
carry over from one timed sweep to the next.

Request keys: ``mode`` ("sweep" or "oracle"), ``workload``, ``seed``, and
optionally ``size`` (overrides the workload's size), ``traced`` and
``known_pickle`` (the pickle digest of a sweep already judged equal to the
oracle, which lets an identical sweep skip the slower full judgement).
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import pickle
import resource
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List

ROOT = Path(__file__).resolve().parent.parent
STATE_DIR = ROOT / ".perfbench"
# the untimed oracle may use both cores of a small host; timed sweeps never do
ORACLE_JOBS = 2
for _path in (str(ROOT / "src"), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench import tracer as tr  # noqa: E402
from perfbench import workloads as wl  # noqa: E402


def _record_instances(cls: type, sink: List[Any]) -> Callable[[], None]:
    """Collect every instance of *cls* built from now on; returns undo."""
    original = cls.__init__

    def __init__(self, *args, **kwargs):
        original(self, *args, **kwargs)
        sink.append(self)

    cls.__init__ = __init__
    return lambda: setattr(cls, "__init__", original)


def _capture_results(sink: List[list]) -> Callable[[], None]:
    """Keep every list of job results the sweep's runner returns."""
    from repro.runner.runner import ParallelRunner

    original = ParallelRunner.run

    def run(self, spec_or_jobs):
        results = original(self, spec_or_jobs)
        sink.append(results)
        return results

    ParallelRunner.run = run
    return lambda: setattr(ParallelRunner, "run", original)


def _offers(queues) -> int:
    """Packets offered to every queue, from the queues' own stats.

    Fast paths that scan a clone of a queue hand the clone's stats object
    back to the original, so stats objects are counted once each.
    """
    unique = {id(q.stats): q.stats for q in queues}
    return sum(stats.arrivals for stats in unique.values())


def calibration_cpu_s() -> float:
    """CPU seconds of a fixed kernel that owes nothing to the program.

    It mixes what a sweep spends its time on: sorting, prefix sums and
    searches over arrays of a few MB, masked selects, writing 32 MB of fresh
    pages, and an interpreted loop.  So a shared host that runs the sweep
    slowly for a while (a neighbour using the same caches and memory bus)
    runs this slowly too.  Timed right before and right after each sweep,
    it lets ``run.py`` scale the sweep's CPU seconds to a fixed host speed.
    """
    import numpy as np

    x = np.random.default_rng(20110330).random(400_000)
    start = time.process_time()
    order = np.argsort(x, kind="stable")
    prefix = np.cumsum(x[order])
    hits = np.searchsorted(prefix, prefix[::7])
    fresh = np.empty(4_000_000)
    fresh[:] = np.where(x > 0.5, x, -x)[hits % x.size].sum()
    total = float(np.cumsum(fresh)[-1])
    for i in range(60_000):
        total += i % 7
    return time.process_time() - start


def sweep(request: Dict[str, Any]) -> Dict[str, Any]:
    """Time one cold batch sweep; count, check and (optionally) trace it."""
    name, seed = request["workload"], int(request["seed"])
    traced = bool(request.get("traced"))
    wl.import_study(name)
    # modules the sweep would import lazily are loaded before the clock
    # starts in both modes, so the traced and untraced sweeps time the same
    # work and wrapping (which imports them) shifts nothing into sweep_s
    for entry in tr.ENTRY_POINTS:
        for module_name, _ in entry.targets:
            try:
                importlib.import_module(module_name)
            except ImportError:
                pass
    from repro import obs
    from repro.core.sender import RliSender
    from repro.sim.queue import FifoQueue

    queues: List[Any] = []
    senders: List[Any] = []
    job_results: List[list] = []
    undo = [_record_instances(FifoQueue, queues), _capture_results(job_results)]
    tracer = tr.Tracer()
    missing: List[str] = []
    try:
        if traced:
            undo.append(_record_instances(RliSender, senders))
            uninstall, missing = tr.install(tracer)
            undo.append(uninstall)
            obs.enable()
            undo.append(obs.disable)
        calib_before = calibration_cpu_s()
        start = time.perf_counter()
        cpu_start = time.process_time()
        output = wl.run_sweep(name, seed, batch=True, size=request.get("size"))
        # CPU seconds leave out the time a shared host ran something else on
        # this core (runqueue waits, and steal under a hypervisor), which
        # wall seconds count and which varies from one run to the next
        sweep_cpu_s = time.process_time() - cpu_start
        sweep_s = time.perf_counter() - start
        # read before the reply pickles and digests the output below
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        calib_after = calibration_cpu_s()
    finally:
        for restore in reversed(undo):
            restore()
    # a sweep whose pickled output is byte-equal to one already judged equal
    # to the oracle is equal to the oracle too; otherwise judge it in full
    pickled = hashlib.sha256(pickle.dumps((output, job_results), protocol=4)).hexdigest()
    reply: Dict[str, Any] = {
        "sweep_s": sweep_s,
        "sweep_cpu_s": sweep_cpu_s,
        "calib_cpu_s": (calib_before + calib_after) / 2,
        "peak_rss_mb": peak_rss_mb,
        "offers": _offers(queues),
        "pickle_digest": pickled,
        "digest": (None if pickled == request.get("known_pickle")
                   else wl.digest(output, job_results)),
    }
    if traced:
        obs.drain_spans()
        reply.update(_trace_reply(tracer, missing, senders,
                                  obs.drain_registry()["counters"]))
    return reply


def _trace_reply(tracer: tr.Tracer, missing: List[str], senders: List[Any],
                 obs_counters: Dict[str, float]) -> Dict[str, Any]:
    counters = dict(tracer.counters)
    counters["core.sender.refs_injected"] = sum(s.refs_injected for s in senders)
    taken = sum(v for k, v in obs_counters.items() if k.startswith("batch.fastpath"))
    fell = sum(v for k, v in obs_counters.items() if k.startswith("batch.fallback"))
    counters["batch.fastpath"] = taken
    counters["batch.fallback"] = fell
    return {
        "layers": tr.layer_totals(tracer.spans),
        "counters": counters,
        "missing": missing,
    }


def oracle(request: Dict[str, Any]) -> Dict[str, Any]:
    """Digest of the per-object path's output, cached per commit and seed.

    The cache key holds the simulator's source fingerprint (the repo's own
    ``ResultCache``) and a hash of the benchmark's judging code, so an entry
    is reused only for the same program, workload, size and seed.
    """
    from repro.runner.cache import ResultCache

    name, seed = request["workload"], int(request["seed"])
    size = dict(wl.WORKLOADS[name].size, **(request.get("size") or {}))
    cache = ResultCache(str(STATE_DIR / "oracle"))
    key = cache.key({"kind": "perfbench-oracle", "workload": name,
                     "seed": seed, "size": size, "judge": wl.source_hash()})
    hit, value = cache.get(key)
    if not hit:
        job_results: List[list] = []
        undo = _capture_results(job_results)
        try:
            output = wl.run_sweep(name, seed, batch=False, size=size,
                                  jobs=ORACLE_JOBS)
        finally:
            undo()
        value = {"digest": wl.digest(output, job_results),
                 "accuracy": wl.accuracy(name, output, job_results)}
        cache.put(key, value)
    return dict(value, cached=hit)


def main(argv: List[str]) -> int:
    request = json.loads(argv[1])
    handler = {"sweep": sweep, "oracle": oracle}[request["mode"]]
    print(json.dumps(handler(request)))
    return 0


if __name__ == "__main__":
    status = main(sys.argv)
    sys.stdout.flush()
    # skip tearing down the sweep's object graph: nothing is left to write
    os._exit(status)
