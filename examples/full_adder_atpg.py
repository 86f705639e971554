"""OBD test generation for an embedded gate (the paper's full-adder example).

The script

1. builds the Figure-8 full-adder sum circuit (14 NAND gates + inverters),
2. enumerates every transistor-level OBD defect site of the NAND gates,
3. runs the OBD-aware two-pattern ATPG and compacts the resulting test set,
4. compares coverage against classical baselines: exhaustive single-input-
   change transition patterns and random pattern pairs,
5. prints the Section-4.3 style summary,
6. cross-checks the hand-wired flow against the one-call campaign API.

Run with ``python examples/full_adder_atpg.py``.

The one-call campaign equivalent
--------------------------------

Steps 2-4 above are the universe -> ATPG -> fault-sim -> compaction pipeline
that every fault model shares, so the whole flow is also available as a
single declarative call through :mod:`repro.campaign`::

    from repro.campaign import CampaignSpec, run_campaign
    from repro.logic import GateType, full_adder_sum

    result = run_campaign(
        full_adder_sum(),
        CampaignSpec(
            model="obd",                                   # any registered model
            universe_options={"gate_types": [GateType.NAND2]},
            pattern_source="none",                         # ATPG-only flow
            drop_detected=False,
        ),
    )
    print(result.describe())          # per-phase coverage + compaction
    print(result.to_json(indent=2))   # machine-readable campaign record

Swapping ``model="obd"`` for ``"stuck-at"``, ``"transition"`` or
``"path-delay"`` runs the identical pipeline under a different fault model;
``pattern_source="sic"`` or ``"random"`` adds a pattern phase whose detected
faults the ATPG top-up then skips.  The hand-wired flow below produces
exactly the same tests, detected-fault sets and compacted subset -- the
campaign is the API, this script is the anatomy lesson.
"""

from __future__ import annotations

from repro.atpg import (
    greedy_compaction,
    random_pairs,
    single_input_change_pairs,
)
from repro.campaign import CampaignSpec, get_model, run_campaign
from repro.campaign.runner import generate_atpg_outcomes
from repro.core import format_sequence
from repro.faults import obd_fault_universe
from repro.logic import GateType, full_adder_sum


def main() -> None:
    circuit = full_adder_sum()
    print(circuit.summary())

    faults = obd_fault_universe(circuit, gate_types=[GateType.NAND2])
    print(f"OBD defect sites in the NAND gates: {len(faults)}")

    # OBD-aware ATPG: the campaign's ATPG loop, with nothing detected yet.
    outcomes, _ = generate_atpg_outcomes(get_model("obd"), circuit, faults, detected=set())
    untestable = [o.fault.key for o in outcomes if o.untestable]
    print(
        f"OBD ATPG: {len(outcomes)} faults, {sum(o.success for o in outcomes)} testable, "
        f"{len(untestable)} untestable, {sum(o.aborted for o in outcomes)} aborted, "
        f"{sum(o.backtracks for o in outcomes)} backtracks"
    )

    pairs = [pair for outcome in outcomes for pair in outcome.tests]
    report = get_model("obd").simulate(circuit, pairs, faults)
    compacted = greedy_compaction(report)
    print(
        f"ATPG test set: {len(pairs)} pattern pairs, "
        f"compacted to {compacted.size} pairs covering {len(compacted.covered_faults)} faults"
    )
    for index in compacted.selected_indices:
        first, second = pairs[index]
        print(f"  apply {format_sequence((first, second))} at inputs (A, B, C)")

    # Baseline 1: launch-on-capture style single-input-change transitions.
    sic_report = get_model("obd").simulate(circuit, single_input_change_pairs(circuit), faults)
    # Baseline 2: 20 random pattern pairs.
    random_report = get_model("obd").simulate(circuit, random_pairs(circuit, 20, seed=7), faults)

    print("\nCoverage comparison (detected / total OBD faults):")
    print(f"  OBD-aware ATPG:                {len(report.detected_faults):>3} / {len(faults)}")
    print(f"  single-input-change patterns:  {len(sic_report.detected_faults):>3} / {len(faults)}")
    print(f"  20 random pattern pairs:       {len(random_report.detected_faults):>3} / {len(faults)}")
    print(
        "\nFaults the ATPG proved untestable (circuit redundancy): "
        + ", ".join(sorted(untestable))
    )

    # The same flow as one declarative campaign call.
    campaign = run_campaign(
        circuit,
        CampaignSpec(
            model="obd",
            universe_options={"gate_types": [GateType.NAND2]},
            pattern_source="none",
            drop_detected=False,
        ),
    )
    print("\nOne-call campaign equivalent:")
    print(campaign.describe())
    assert set(campaign.detected_faults) == set(report.detected_faults)
    assert campaign.compaction.size == compacted.size
    print("campaign reproduces the hand-wired detected sets and compacted count.")


if __name__ == "__main__":
    main()
