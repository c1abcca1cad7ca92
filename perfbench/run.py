"""Cold-sweep benchmark: end-to-end metrics, or a traced per-layer run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig4ab --seed 1 --seconds 16 --trace 0

One client, closed loop: each sweep starts only after the previous one has
finished, every sweep in a fresh single-threaded child process (BLAS/OpenMP
pinned to one thread), one child at a time.  The run

1. computes the per-object oracle for this workload and seed (cached per
   simulator source fingerprint under ``.perfbench/oracle``);
2. runs cold batch sweeps until ``--seconds`` have passed (at least
   ``MIN_SWEEPS``), checking each sweep's output for equality with the
   oracle, and after each sweep measures a fresh interpreter importing
   ``repro`` and the workload's experiment module (``setup_s``).  Sweep
   and set-up times are CPU seconds of the single-threaded child (on an
   idle host, its wall seconds), scaled to a reference host speed by a
   fixed calibration kernel timed next to each sweep.  With
   ``--trace 1`` it alternates untraced and traced sweeps instead and
   reports per-layer metrics in place of the end-to-end ones.

Human-readable lines name every metric with its unit and sample count; the
last line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A sweep that raises or whose output differs from the oracle
counts as failed, and the command then exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import tracer as tr  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

MIN_SWEEPS = 3  # per kind: untraced, and traced with --trace 1
# CPU seconds of child.calibration_cpu_s() at the reference host speed (about
# what one 2.1 GHz Xeon vCPU takes when its host is quiet); gated times are
# scaled by REF_CALIB_S / (the kernel's median CPU seconds in the run)
REF_CALIB_S = 0.1
CHILD_TIMEOUT_S = 60
# traced sweep wall seconds not covered by any layer's self time, as a
# share of them
UNATTRIBUTED_TOLERANCE = 0.10
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class ChildError(RuntimeError):
    pass


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONPATH"}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(request: Dict[str, Any], env: Dict[str, str]) -> Dict[str, Any]:
    """Run ``child.py`` on *request* in a fresh interpreter; its JSON reply."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), json.dumps(request)],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise ChildError(f"{request['mode']} child exited {proc.returncode}: {tail}")
    return json.loads(lines[-1])


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def time_setup(workload: str, env: Dict[str, str]) -> float:
    """CPU seconds a fresh interpreter spends starting and importing the
    workload's modules (CPU, not wall, for the reason ``child.py`` gives)."""
    code = f"import repro, {WORKLOADS[workload].module}"
    before = children_cpu_s()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                   timeout=CHILD_TIMEOUT_S)
    return children_cpu_s() - before


def high_percentile(values: List[float]) -> Optional[Tuple[float, float]]:
    """The highest of p50/p90/p99 with at least ten samples beyond it."""
    n = len(values)
    for p in (0.99, 0.90, 0.50):
        if (1.0 - p) * n >= 10:
            ranked = sorted(values)
            return p, ranked[min(n - 1, int(p * n))]
    return None


class Run:
    """Sweeps of one benchmark run and their correctness accounting."""

    def __init__(self, workload: str, seed: int, env: Dict[str, str],
                 oracle: Dict[str, Any]):
        self.workload = workload
        self.seed = seed
        self.env = env
        self.oracle = oracle
        self.attempted = 0
        self.failures: List[str] = []
        self.plain: List[Dict[str, Any]] = []
        self.traced: List[Dict[str, Any]] = []
        self.setup: List[float] = []
        self.known_pickle: Optional[str] = None  # of a sweep equal to the oracle

    def request(self, traced: bool) -> Dict[str, Any]:
        return {"mode": "sweep", "workload": self.workload, "seed": self.seed,
                "traced": traced, "known_pickle": self.known_pickle}

    def sweep(self, traced: bool) -> None:
        try:
            reply = run_child(self.request(traced), self.env)
        except (ChildError, subprocess.TimeoutExpired) as exc:
            self.attempted += 1
            self.failures.append(str(exc))
            return
        self.record(reply, traced)

    def record(self, reply: Dict[str, Any], traced: bool) -> None:
        """Judge one sweep's reply against the oracle and keep it if equal."""
        self.attempted += 1
        if reply["digest"] is not None:
            if reply["digest"] != self.oracle["digest"]:
                self.failures.append(f"sweep {self.attempted}: output differs "
                                     f"from the per-object oracle")
                return
            self.known_pickle = reply["pickle_digest"]
        (self.traced if traced else self.plain).append(reply)

    @property
    def failed_frac(self) -> float:
        return len(self.failures) / self.attempted

    def measure(self, seconds: float, trace: bool) -> None:
        """Sweep until *seconds* have passed, interleaving the second kind of
        sample (a traced sweep, or a set-up probe) so both see the same
        stretch of host speed."""
        start = time.perf_counter()
        deadline = start + seconds
        rounds = 0
        while True:
            self.sweep(traced=False)
            if trace:
                self.sweep(traced=True)
            else:
                self.setup.append(time_setup(self.workload, self.env))
            rounds += 1
            now = time.perf_counter()
            done = min(len(self.plain), len(self.traced)) if trace else len(self.plain)
            enough = done >= MIN_SWEEPS or self.attempted >= 4 * MIN_SWEEPS
            # start another round only if at least half of it fits
            if enough and now + 0.5 * (now - start) / rounds >= deadline:
                return


def host_speed(sweeps: List[Dict[str, Any]]) -> float:
    """Reference seconds per CPU second on the host during *sweeps*.

    A shared host's speed drifts by up to a third over minutes; the same drift
    slows the calibration kernel timed around every sweep, so times scaled
    by it vary far less from run to run.  A change to the program leaves the
    kernel alone and shows in the scaled times in full.
    """
    return REF_CALIB_S / statistics.median(s["calib_cpu_s"] for s in sweeps)


def end_to_end(run: Run) -> Dict[str, Tuple[float, str, int]]:
    """The gated metrics.  Sweep seconds are not among them: they follow the
    seed's input size (one seed's traces make a fifth more queue offers than
    another's), so their spread over ten seeds takes up most of the bound
    even on a quiet host; offers per second divides that out."""
    sweeps = run.plain
    speed = host_speed(sweeps)
    rates = [s["offers"] / s["sweep_cpu_s"] for s in sweeps]
    accuracy = run.oracle["accuracy"]
    n = len(sweeps)
    return {
        "offers_per_ref_s": (statistics.median(rates) / speed, "1/s", n),
        "setup_s": (statistics.median(run.setup) * speed, "s", len(run.setup)),
        "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in sweeps), "MB", n),
        # one deterministic value from the per-object oracle, not per sweep
        "worst_median_rel_err": (accuracy["worst_median_rel_err"], "1", 1),
    }


def per_layer(run: Run) -> Tuple[Dict[str, Tuple[float, str, int]], List[str]]:
    """Per-layer metrics from the traced sweeps, plus failed self-checks."""
    traced = run.traced
    n = len(traced)
    metrics: Dict[str, Tuple[float, str, int]] = {}
    prefixes = list(dict.fromkeys(e.prefix for e in tr.ENTRY_POINTS))
    first = traced[0]["layers"]
    for prefix in prefixes:
        row = first.get(prefix, {"calls": 0, "items": 0})
        self_s = statistics.median(t["layers"].get(prefix, {}).get("self_s", 0.0)
                                   for t in traced)
        items = row["items"]
        metrics[f"{prefix}.calls"] = (row["calls"], "count", n)
        metrics[f"{prefix}.items"] = (items, "count", n)
        metrics[f"{prefix}.self_s"] = (self_s, "s", n)
        metrics[f"{prefix}.ns_per_item"] = (
            self_s / items * 1e9 if items else 0.0, "ns", n)

    counters = traced[0]["counters"]
    offers = counters.get("sim.queue.offers", 0)
    accepted = counters.get("sim.queue.accepted", 0)
    busy = counters.get("sim.queue.busy_periods", 0)
    decided = counters["batch.fastpath"] + counters["batch.fallback"]
    metrics.update({
        "sim.queue.offers": (offers, "count", n),
        "sim.queue.drops": (counters.get("sim.queue.drops", 0), "count", n),
        "sim.queue.nearfull_share": (
            counters.get("sim.queue.nearfull", 0) / offers if offers else 0.0, "1", n),
        "sim.queue.busy_periods": (busy, "count", n),
        "sim.queue.busy_period_mean": (accepted / busy if busy else 0.0, "packets", n),
        "core.sender.refs_injected": (counters["core.sender.refs_injected"], "count", n),
        "core.receiver.flows": (counters.get("core.receiver.flows", 0), "count", n),
        "batch.fallback_share": (
            counters["batch.fallback"] / decided if decided else 0.0, "1", n),
    })

    traced_s = [t["sweep_s"] for t in traced]
    unattributed = [
        t["sweep_s"] - sum(row["self_s"] for row in t["layers"].values())
        for t in traced
    ]
    sweep_traced = statistics.median(traced_s)
    sweep_plain = statistics.median(s["sweep_s"] for s in run.plain)
    unattributed_s = statistics.median(unattributed)
    share = unattributed_s / sweep_traced
    checks: List[str] = []
    if share > UNATTRIBUTED_TOLERANCE:
        checks.append(f"unattributed {share:.1%} of traced sweep wall time exceeds "
                      f"{UNATTRIBUTED_TOLERANCE:.0%}")
    calls = {p: first.get(p, {}).get("calls", 0) for p in prefixes}
    checks.extend(tr.premise_violations(run.workload, calls))
    missing = sorted({m for t in traced for m in t["missing"]})
    checks.extend(f"entry point missing: {m}" for m in missing)
    metrics.update({
        "traced_sweep_s": (sweep_traced, "s", n),
        "trace_overhead_s": (sweep_traced - sweep_plain, "s", n),
        "bench.bookkeeping_s": (statistics.median(
            t["layers"].get(tr.BOOKKEEPING, {}).get("self_s", 0.0) for t in traced), "s", n),
        "unattributed_s": (unattributed_s, "s", n),
        "unattributed_share": (share, "1", n),
        "missing_entry_points": (len(missing), "count", n),
        "selfcheck_failures": (len(checks), "count", n),
    })
    return metrics, checks


def report(run: Run, metrics: Dict[str, Tuple[float, str, int]],
           notes: List[str]) -> None:
    size = WORKLOADS[run.workload].size
    print(f"perfbench {run.workload} seed={run.seed} size={json.dumps(size)}: "
          f"closed loop, 1 client, fresh serial process per sweep, no cache")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:34s} {value:>16.6g} {unit:8s} n={n}")
    for note in notes:
        print(f"  {note}")


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    env = child_env()
    try:
        oracle = run_child({"mode": "oracle", "workload": args.workload,
                            "seed": args.seed}, env)
    except (ChildError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: oracle failed: {exc}", file=sys.stderr)
        return 1
    run = Run(args.workload, args.seed, env, oracle)
    run.measure(args.seconds, trace=bool(args.trace))

    notes = [f"FAILED: {f}" for f in run.failures]
    ok = not run.failures and bool(run.plain) and bool(run.traced or not args.trace)
    metrics: Dict[str, Tuple[float, str, int]] = {}
    if ok:
        if args.trace:
            metrics, checks = per_layer(run)
            notes.extend(f"SELF-CHECK: {c}" for c in checks)
            notes.extend(f"{e.prefix} should move: {e.moves}"
                         for e in tr.ENTRY_POINTS if e.moves)
        else:
            metrics = end_to_end(run)
            speed = host_speed(run.plain)
            times = [s["sweep_cpu_s"] * speed for s in run.plain]
            notes.append(f"sweep_ref_s = {statistics.median(times):.6g} s, "
                         f"n={len(times)} (not gated: follows the input size)")
            for key, what in (("sweep_s", "sweep wall seconds"),
                              ("sweep_cpu_s", "sweep CPU seconds"),
                              ("calib_cpu_s", "calibration CPU seconds")):
                value = statistics.median(s[key] for s in run.plain)
                notes.append(f"{what}, unscaled median (not gated): {value:.6g} s")
            pct = high_percentile(times)
            notes.append("sweep_ref_s high percentile: " + (
                f"p{pct[0] * 100:g} = {pct[1]:.6g} s" if pct else
                "none (needs at least ten samples beyond it)"))
        for name, value in run.oracle["accuracy"].items():
            if name not in metrics:
                notes.append(f"{name} = {value:.6g} (per-object oracle)")
    report(run, metrics, notes + [
        f"failed_frac = {run.failed_frac:.6g} "
        f"({len(run.failures)} of {run.attempted} sweeps)"])
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
