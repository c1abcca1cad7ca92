"""The benchmark's four cold sweeps, their sizes, and how their output is judged.

Each workload is one sweep of a paper figure or extension study through the
batch (columnar) path, run on the serial ``ParallelRunner()`` with no result
cache, so the numbers measure the simulator rather than a scheduler or a disk
cache.  The benchmark seed maps onto ``ExperimentConfig(seed=...)`` (and onto
``run_seed`` for the mesh study, which has no ExperimentConfig).

Sizes are chosen so that the per-object oracle (several times slower than the
batch path) plus a full measurement window fit the benchmark's run budget.

This module is imported by the benchmark's child processes, which put the
checkout's ``src`` directory on ``sys.path``; ``repro`` is imported lazily so
that the parent process never loads the simulator.
"""

from __future__ import annotations

import enum
import hashlib
import importlib
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

__all__ = ["Workload", "WORKLOADS", "accuracy", "digest", "import_study",
           "run_sweep", "source_hash"]


@dataclass(frozen=True)
class Workload:
    """One cold sweep: its experiment module, size and why it is here."""

    name: str
    module: str  # what a user's command imports before the sweep starts
    size: Dict[str, Any]
    why: str


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "fig4ab", "repro.experiments.fig4", {"scale": 0.5},
            "Figure 4(a,b), the headline sweep: 4 conditions at 67/93 % with "
            "the RLI receiver; loads the stage-1 scan, the bottleneck "
            "offer_batch, the receiver and the summaries.",
        ),
        # the figure's lowest and highest load at scale 0.5, not all five
        # loads at a smaller scale: smaller traces make the work, and with it
        # sweep time, vary too much from seed to seed
        Workload(
            "fig5", "repro.experiments.fig5",
            {"scale": 0.5, "n_seeds": 1, "utilizations": [0.82, 0.98]},
            "Figure 5 at 82 and 98 % load: 6 conditions, no loss at 82 %, ~1 % "
            "at 98 %, a third without sender or receiver; stresses the "
            "near-full queue scans.",
        ),
        Workload(
            "multihop", "repro.experiments.extensions",
            {"scale": 0.25, "hops": [1, 2, 4, 8], "utilization": 0.8},
            "Multihop ablation, hops 1/2/4/8 at 80 %: the only sweep through "
            "sim.chain and the per-flow core.replay; bypasses the pipeline "
            "and observe_batch.",
        ),
        Workload(
            "mesh", "repro.experiments.extensions",
            {"packets_per_pair": 75_000},
            "Mesh study on a k=4 fat-tree: the only sweep through sim.fatpath "
            "and core.mesh.",
        ),
    )
}


def run_sweep(name: str, seed: int, batch: bool = True,
              size: Optional[Dict[str, Any]] = None, jobs: int = 1):
    """Run one workload's sweep and return the experiment's own output.

    *size* overrides the workload's default size (tests use miniature ones);
    *jobs* > 1 fans the conditions out over worker processes, which only the
    untimed oracle does.
    """
    from repro.experiments.config import ExperimentConfig
    from repro.runner.runner import ParallelRunner

    size = dict(WORKLOADS[name].size, **(size or {}))
    runner = ParallelRunner(jobs=jobs)
    if name == "fig4ab":
        from repro.experiments.fig4 import run_fig4ab

        return run_fig4ab(ExperimentConfig(scale=size["scale"], seed=seed),
                          runner=runner, batch=batch)
    if name == "fig5":
        from repro.experiments.fig5 import run_fig5

        cfg = ExperimentConfig(scale=size["scale"], seed=seed)
        cfg.fig5_utilizations = tuple(size["utilizations"])
        return run_fig5(cfg, n_seeds=size["n_seeds"], runner=runner, batch=batch)
    if name == "multihop":
        from repro.experiments.extensions import run_multihop_ablation

        return run_multihop_ablation(
            ExperimentConfig(scale=size["scale"], seed=seed),
            hops=tuple(size["hops"]), utilization=size["utilization"],
            runner=runner, batch=batch)
    if name == "mesh":
        from repro.experiments.extensions import run_mesh_study

        return run_mesh_study(size["packets_per_pair"], runner=runner,
                              run_seed=seed, batch=batch)
    raise KeyError(f"unknown workload: {name!r}")


def import_study(name: str) -> None:
    importlib.import_module(WORKLOADS[name].module)


# ----------------------------------------------------------------------
# output judgement


def _median(values: List[float]) -> float:
    from repro.analysis.cdf import Ecdf

    return Ecdf(values).median if values else math.nan


def accuracy(name: str, output, job_results: List[list]) -> Dict[str, float]:
    """The workload's user-visible accuracy figures.

    ``worst_median_rel_err`` is the largest median relative error of
    per-flow mean-latency estimates over the sweep's conditions or rows (the
    Figure 4(a) statistic; the mesh study's end-to-end column).  Figure 5's
    rows carry only loss rates, so its value comes from the condition
    summaries the runner returned; ``ref_loss_increase`` is Figure 5's own
    statistic, the largest loss-rate increase references cause.
    """
    figures: Dict[str, float] = {}
    if name == "fig4ab":
        figures["worst_median_rel_err"] = max(
            _median(c.mean_join.errors) for c in output)
    elif name == "fig5":
        summaries = [s for batch in job_results for s in batch]
        figures["worst_median_rel_err"] = max(
            _median(s.mean_join.errors) for s in summaries
            if s.mean_join is not None)
        figures["ref_loss_increase"] = max(
            max(row.static_diff, row.adaptive_diff) for row in output)
    elif name == "multihop":
        figures["worst_median_rel_err"] = max(row[1] for row in output)
    elif name == "mesh":
        figures["worst_median_rel_err"] = max(row[3] for row in output)
    return figures


_PLAIN = {float, int, str, bool, type(None)}


def _flat(obj: Any) -> Optional[str]:
    """Text of a plain scalar or a flat list/tuple of them, else ``None``.

    ``repr`` of a float is the shortest string that reads back to the same
    bits, so equal text means bit-equal values.
    """
    kind = type(obj)
    if kind in _PLAIN:
        return repr(obj)
    if (kind is list or kind is tuple) and set(map(type, obj)) <= _PLAIN:
        return repr(list(obj))
    return None


def _canon(obj: Any, memo: Dict[int, str]) -> str:
    """An exact, order-independent text form of *obj*.

    numpy scalars and arrays are written as their Python equivalents and
    tuples as lists, so values the batch and per-object paths hold in
    different containers still compare equal; dict entries and set members
    are sorted by their text, since the two paths may build equal tables in
    different insertion orders; other objects are written as their class
    name and attributes (once each: *memo* holds the text of every object
    already written).
    """
    import numpy as np

    text = _flat(obj)
    if text is not None:
        return text
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join([_canon(item, memo) for item in obj]) + "]"
    if isinstance(obj, dict):
        return "{" + ", ".join(sorted([
            _canon(k, memo) + ": " + _canon(v, memo) for k, v in obj.items()
        ])) + "}"
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__name__}.{obj.name}"
    if isinstance(obj, (bool, np.bool_)):
        return repr(bool(obj))
    if isinstance(obj, (int, np.integer)):
        return repr(int(obj))
    if isinstance(obj, (float, np.floating)):
        return repr(float(obj))
    if isinstance(obj, (str, bytes)):
        return repr(obj)
    if isinstance(obj, np.ndarray):
        return _canon(obj.tolist(), memo)
    if isinstance(obj, (set, frozenset)):
        return "{" + ", ".join(sorted(_canon(x, memo) for x in obj)) + "}"
    text = memo.get(id(obj))
    if text is None:
        attrs = dict(getattr(obj, "__dict__", {}))
        for klass in type(obj).__mro__:
            for name in getattr(klass, "__slots__", ()):
                if name not in attrs and hasattr(obj, name):
                    attrs[name] = getattr(obj, name)
        text = memo[id(obj)] = type(obj).__name__ + _canon(attrs, memo)
    return text


def digest(output, job_results: List[list]) -> str:
    """SHA-256 of the sweep's output and every runner job result."""
    return hashlib.sha256(_canon([output, job_results], {}).encode()).hexdigest()


def source_hash() -> str:
    """Hash of this file: oracle entries are stale when judgement changes."""
    with open(__file__, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]

