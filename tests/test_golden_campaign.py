"""Golden regression tests for the campaign report format.

Each case runs a fully deterministic campaign on a checked-in ``.bench``
fixture and compares ``CampaignResult.as_dict(include_runtime=False)``
byte-for-byte against a golden JSON file under ``tests/golden/``, so any
drift in the report schema, detection indices, compaction choices or fault
keys is caught immediately.  The same golden file is then asserted against
a 3-shard :class:`~repro.campaign.ShardedCampaign` run, tying the report
format to the sharded executor's determinism guarantee.

Regenerate the goldens after an *intentional* format change with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_campaign.py

and commit the updated files alongside the change that caused them.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.campaign import Campaign, CampaignSpec, ShardedCampaign, resolve_circuit

GOLDEN_DIR = Path(__file__).parent / "golden"
UPDATE = os.environ.get("REPRO_UPDATE_GOLDEN") == "1"

# Deterministic campaigns only: fixed seeds, no wall-clock-dependent fields
# (runtimes are excluded via include_runtime=False).  The circuit is passed
# to run() directly so the golden payload stays free of absolute paths.
CASES = {
    "c17_stuck_at_random_atpg": (
        "c17.bench",
        CampaignSpec(
            model="stuck-at",
            pattern_source="random",
            pattern_count=8,
            seed=5,
            collapse=True,
            run_atpg=True,
            compact=True,
        ),
    ),
    "c17_transition_random_drop": (
        "c17.bench",
        CampaignSpec(
            model="transition",
            pattern_source="random",
            pattern_count=6,
            seed=7,
            run_atpg=True,
            drop_detected=True,
        ),
    ),
    "c17_stuck_at_dalg_static_off": (
        "c17.bench",
        CampaignSpec(
            model="stuck-at",
            pattern_source="none",
            run_atpg=True,
            static_phase=False,
            atpg_engine="d-alg",
        ),
    ),
    "fa_sum_obd_sic": (
        "fa_sum.bench",
        CampaignSpec(
            model="obd",
            pattern_source="sic",
            run_atpg=True,
            compact=True,
        ),
    ),
    "fa_sum_path_delay_random": (
        "fa_sum.bench",
        CampaignSpec(
            model="path-delay",
            universe_options={"limit": 30},
            pattern_source="random",
            pattern_count=10,
            seed=11,
            run_atpg=True,
        ),
    ),
}


def _golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


def _payload(result) -> dict:
    # Round-trip through JSON so the comparison sees exactly what a consumer
    # of to_json() would (tuples become lists, enum values become strings).
    return json.loads(json.dumps(result.as_dict(include_runtime=False)))


@pytest.mark.parametrize("name", sorted(CASES))
def test_campaign_report_matches_golden(name):
    bench, spec = CASES[name]
    circuit = resolve_circuit(GOLDEN_DIR / bench)
    payload = _payload(Campaign(spec).run(circuit))

    path = _golden_path(name)
    if UPDATE:
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    if not path.exists():
        pytest.fail(
            f"missing golden file {path}; generate it with "
            f"REPRO_UPDATE_GOLDEN=1 and commit the result"
        )
    golden = json.loads(path.read_text(encoding="utf-8"))
    assert payload == golden, (
        f"campaign report for {name!r} drifted from {path}; if the change is "
        f"intentional, regenerate with REPRO_UPDATE_GOLDEN=1"
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_sharded_campaign_matches_golden(name):
    """Three ragged shards (inline executor) reproduce the same golden."""
    bench, spec = CASES[name]
    circuit = resolve_circuit(GOLDEN_DIR / bench)
    payload = _payload(ShardedCampaign(spec, shards=3, max_workers=0).run(circuit))
    golden = json.loads(_golden_path(name).read_text(encoding="utf-8"))
    assert payload == golden


def test_bench_fixtures_parse_to_expected_shapes():
    """The golden circuits themselves are pinned (inputs/outputs/gates)."""
    c17 = resolve_circuit(GOLDEN_DIR / "c17.bench")
    fa = resolve_circuit(GOLDEN_DIR / "fa_sum.bench")
    assert (len(c17.primary_inputs), len(c17.primary_outputs), len(c17.gates)) == (5, 2, 6)
    assert len(fa.primary_inputs) == 3


def test_obd_benchmark_spec_search_is_pinned():
    """The end-to-end benchmark's OBD campaign makes the same search decisions.

    The two-rail PODEM runs from lookup tables; these counts pin its
    decision order on a circuit large enough to backtrack often.
    """
    spec = CampaignSpec(
        model="obd",
        circuit="rdag:60,4",
        pattern_source="random",
        pattern_count=256,
        seed=0,
        engine="packed",
    )
    result = Campaign(spec).run()
    atpg = result.atpg_phase
    assert (atpg.attempted, atpg.backtracks, atpg.decisions) == (70, 1710, 930)
    assert round(result.coverage.coverage, 6) == 0.632979
    assert result.compaction.size == 18
