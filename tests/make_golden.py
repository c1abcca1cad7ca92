"""Regenerate the golden fixtures under ``tests/golden/``.

Usage (from the repo root)::

    PYTHONPATH=src python tests/make_golden.py

Only run this when an *intentional* change shifts the reproduction numbers
(a new estimator default, a recalibrated workload, …) — the golden tests
exist precisely so refactors that should NOT move the numbers (like sweep
parallelization) can prove they didn't.  Commit the regenerated JSON
together with the change that moved the numbers and say why in the commit.
"""

import json
import pathlib
import sys

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

# tiny but non-degenerate: ~2k regular packets, full condition grids
GOLDEN_SCALE = 0.01
GOLDEN_SEED = 7
GOLDEN_FIG5_SEEDS = 2


def golden_config():
    from repro.experiments.config import ExperimentConfig

    return ExperimentConfig(scale=GOLDEN_SCALE, seed=GOLDEN_SEED)


def compute_fig4ab(batch=False):
    """Figure 4(a)/4(b) summary rows (strings/ints, exact).

    ``batch=True`` drives the same grid through the columnar pipeline fast
    path; the golden tests assert it reproduces the fixture bit-for-bit
    (the fixtures themselves are always regenerated on the reference
    per-object path).
    """
    from repro.experiments.fig4 import run_fig4ab

    return {
        "scale": GOLDEN_SCALE,
        "seed": GOLDEN_SEED,
        "curves": [
            {"label": c.label, "row": c.summary_row()}
            for c in run_fig4ab(golden_config(), batch=batch)
        ],
    }


def compute_fig5(batch=False):
    """Figure 5 rows (raw floats — simulation is bit-deterministic)."""
    from repro.experiments.fig5 import run_fig5

    return {
        "scale": GOLDEN_SCALE,
        "seed": GOLDEN_SEED,
        "n_seeds": GOLDEN_FIG5_SEEDS,
        "rows": [
            {
                "target_util": r.target_util,
                "measured_util": r.measured_util,
                "baseline_loss": r.baseline_loss,
                "static_loss": r.static_loss,
                "adaptive_loss": r.adaptive_loss,
                "static_refs": r.static_refs,
                "adaptive_refs": r.adaptive_refs,
            }
            for r in run_fig5(golden_config(), n_seeds=GOLDEN_FIG5_SEEDS, batch=batch)
        ],
    }


def compute_aqm(batch=False):
    """Tail-drop vs RED rows (raw floats): pins the RED queues' numbers,
    whose drop lotteries are seeded from the queue names."""
    from repro.experiments.extensions import run_aqm_comparison

    return {
        "scale": GOLDEN_SCALE,
        "seed": GOLDEN_SEED,
        "rows": [
            {"discipline": name, "regular_loss": loss,
             "median_mean_re": median_re, "refs_lost": refs_lost}
            for name, loss, median_re, refs_lost in run_aqm_comparison(
                golden_config(), run_seed=GOLDEN_SEED, batch=batch)
        ],
    }


def compute_rlir(batch=False):
    """RLIR fat-tree rows (raw floats): the incast localization study under
    both downstream demux methods, and the full-RLI-vs-RLIR granularity
    comparison — the numbers of the ToR-pair wiring and its recorded-log
    replay."""
    from dataclasses import asdict

    from repro.experiments.extensions import (
        run_granularity_comparison,
        run_localization_study,
    )

    return {
        "seed": GOLDEN_SEED,
        "localization": {
            method: [list(row) for row in run_localization_study(
                n_packets=2000, demux_method=method, run_seed=GOLDEN_SEED,
                batch=batch).as_rows()]
            for method in ("reverse-ecmp", "marking")
        },
        "granularity": [asdict(row) for row in
                        run_granularity_comparison(n_packets=4000)],
    }


def main() -> int:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, compute in (("fig4ab", compute_fig4ab), ("fig5", compute_fig5),
                          ("aqm", compute_aqm), ("rlir", compute_rlir)):
        path = GOLDEN_DIR / f"{name}_scale{GOLDEN_SCALE}_seed{GOLDEN_SEED}.json"
        path.write_text(json.dumps(compute(), indent=2) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
