"""Golden regression test: the RLIR fat-tree numbers are frozen.

Pins the ToR-pair wiring end to end — sender placement, both downstream
demux methods, the recorded observation logs and their replay — through
the incast localization study and the full-RLI-vs-RLIR granularity
comparison; see ``tests/make_golden.py`` for the regeneration policy.
"""

import json

import pytest

from make_golden import GOLDEN_DIR, GOLDEN_SCALE, GOLDEN_SEED, compute_rlir

FIXTURE = GOLDEN_DIR / f"rlir_scale{GOLDEN_SCALE}_seed{GOLDEN_SEED}.json"


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_fixture_matches_golden_parameters(golden):
    assert golden["seed"] == GOLDEN_SEED
    assert sorted(golden["localization"]) == ["marking", "reverse-ecmp"]
    assert [r["name"] for r in golden["granularity"]] == ["full RLI", "RLIR"]


@pytest.mark.parametrize("batch", [False, True], ids=["object", "batch"])
def test_rows_exactly_match(golden, batch):
    # exact float equality is intentional: the simulator is
    # bit-deterministic, so any drift is a real behavior change
    current = compute_rlir(batch=batch)
    assert current == golden, (
        "rlir rows shifted — if intentional, regenerate tests/golden/ via "
        "tests/make_golden.py"
    )
