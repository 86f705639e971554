"""Exhaustiveness guard over the fault-model registry.

Every registered model's ``generate_test`` must return the one per-fault
record, :class:`~repro.atpg.AtpgOutcome`, with tests in the model's
``pattern_kind`` shape, and the record must survive the service layer's
durable codec unchanged.  A newly registered model is checked here without
further edits.
"""

from __future__ import annotations

import pytest

from repro.atpg import AtpgOutcome
from repro.campaign import SINGLE_PATTERN, TWO_PATTERN, get_model, registered_models
from repro.service.records import decode, encode

#: Models whose searches are all two-rail, which counts no implications.
TWO_RAIL_ONLY = ("obd", "path-delay")


def _is_pattern(value, width: int) -> bool:
    return (
        type(value) is tuple
        and len(value) == width
        and all(type(bit) is int and bit in (0, 1) for bit in value)
    )


def test_registry_lists_the_four_models():
    assert set(registered_models()) >= {"stuck-at", "transition", "path-delay", "obd"}


@pytest.mark.parametrize("name", registered_models())
def test_generate_test_returns_one_outcome_record(name, fa_sum):
    model = get_model(name)
    width = len(fa_sum.primary_inputs)
    assert model.pattern_kind in (SINGLE_PATTERN, TWO_PATTERN)
    outcomes = [model.generate_test(fa_sum, fault) for fault in model.build_universe(fa_sum)]
    assert all(type(outcome) is AtpgOutcome for outcome in outcomes)
    tested = [outcome for outcome in outcomes if outcome.success]
    assert tested, f"{name}: no testable fault on fa_sum"
    for outcome in outcomes:
        assert len(outcome.tests) == int(outcome.success), outcome.fault.key
        for test in outcome.tests:
            if model.pattern_kind == SINGLE_PATTERN:
                assert _is_pattern(test, width), (outcome.fault.key, test)
            else:
                assert type(test) is tuple and len(test) == 2, (outcome.fault.key, test)
                assert all(_is_pattern(pattern, width) for pattern in test), outcome.fault.key
        assert decode(encode(outcome)) == outcome, outcome.fault.key
        if name in TWO_RAIL_ONLY:
            assert outcome.implications == 0, outcome.fault.key
