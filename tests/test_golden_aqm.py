"""Golden regression test: the tail-drop vs RED comparison is frozen.

RED's early-drop lottery is seeded from each queue's name, so these rows
pin the bottleneck queues' construction (names, buffers, thresholds) as
well as the numbers; see ``tests/make_golden.py`` for the regeneration
policy.
"""

import json

import pytest

from make_golden import GOLDEN_DIR, GOLDEN_SCALE, GOLDEN_SEED, compute_aqm

FIXTURE = GOLDEN_DIR / f"aqm_scale{GOLDEN_SCALE}_seed{GOLDEN_SEED}.json"


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_fixture_matches_golden_parameters(golden):
    assert golden["scale"] == GOLDEN_SCALE
    assert golden["seed"] == GOLDEN_SEED
    assert [r["discipline"] for r in golden["rows"]] == ["tail-drop", "RED"]


@pytest.mark.parametrize("batch", [False, True], ids=["object", "batch"])
def test_rows_exactly_match(golden, batch):
    # exact float equality is intentional: the simulator is
    # bit-deterministic, so any drift is a real behavior change
    current = compute_aqm(batch=batch)
    assert current["rows"] == golden["rows"], (
        "aqm rows shifted — if intentional, regenerate tests/golden/ via "
        "tests/make_golden.py"
    )
