"""Quickstart: one campaign call at the gate level, one defect at the SPICE level.

The fastest way into the codebase is the unified campaign API: pick a fault
model from the registry (``stuck-at``, ``transition``, ``path-delay`` or the
paper's ``obd``), describe the flow declaratively, and run it -- universe
enumeration, pattern phase, deterministic ATPG top-up (skipping faults the
patterns already caught), fault simulation, greedy compaction and a unified
report all happen behind one call::

    result = run_campaign(full_adder_sum(), CampaignSpec(model="obd", ...))

Outside a campaign, fault simulation has one entry point, the registered
model's own ``get_model("obd").simulate(circuit, pairs, faults)``, and
every model's test generator returns the same per-fault ``AtpgOutcome``
the campaign collects.

Part 2 shows the benchmark-circuit subsystem: parametric generator
families, ISCAS-85 ``.bench`` netlist round-trips, and campaigns that name
their workload through the circuit registry instead of building it.

Part 3 then drops below the gate level and walks the paper's core
experiment: inject the diode-resistor breakdown model into one transistor of
a real NAND gate and watch the *input-specific* delay appear -- the physical
behaviour the OBD fault model in part 1 abstracts.

Run with ``python examples/quickstart.py``.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.campaign import CampaignSpec, registered_models, run_campaign
from repro.cells import build_nand_harness, characterize_harness, default_technology
from repro.core import BreakdownStage, OBDDefect, harness_preparer
from repro.logic import (
    GateType,
    array_multiplier,
    full_adder_sum,
    load_bench,
    save_bench,
    write_bench,
)


def campaign_tour() -> None:
    """One declarative campaign per registered fault model."""
    circuit = full_adder_sum()
    print(f"Registered fault models: {', '.join(registered_models())}")
    print(f"Circuit: {circuit.summary()}\n")

    # The paper's flow: OBD defect sites in the NAND gates, a single-input-
    # change pattern phase, ATPG top-up for what the patterns missed.
    spec = CampaignSpec(
        model="obd",
        universe_options={"gate_types": [GateType.NAND2]},
        pattern_source="sic",
        drop_detected=False,
    )
    print(run_campaign(circuit, spec).describe())
    print()

    # The identical pipeline under the classical baselines.
    for model in ("stuck-at", "transition", "path-delay"):
        print(run_campaign(circuit, CampaignSpec(model=model, pattern_source="none")).describe())
        print()


def benchmark_circuit_tour() -> None:
    """Generators, .bench round-trips and registry-resolved campaigns."""
    # A generated workload: 4x4 array multiplier, with its structural stats.
    circuit = array_multiplier(4)
    print(f"Generated: {circuit.stats().describe()}\n")

    # Write it out as an ISCAS-85 .bench netlist and load it back.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mult4.bench"
        save_bench(circuit, path)
        print(f"First lines of {path.name}:")
        for line in write_bench(circuit).splitlines()[:6]:
            print(f"  {line}")
        reloaded = load_bench(path)
        print(f"Reloaded: {reloaded.stats().describe()}\n")

        # Campaigns can name their circuit: a registry reference or a .bench
        # path in the spec replaces building the netlist by hand.
        print(run_campaign(path, CampaignSpec(
            model="stuck-at", pattern_source="random", pattern_count=128,
        )).describe())
        print()
    print(run_campaign(spec=CampaignSpec(
        model="transition", circuit="rdag:60,5",
        pattern_source="random", pattern_count=128, run_atpg=False,
    )).describe())
    print()


def measure(sequence, defect=None, label=""):
    """Build, (optionally) break, simulate and measure one NAND harness."""
    tech = default_technology()
    harness = build_nand_harness(tech, sequence)
    run = characterize_harness(
        harness,
        prepare=harness_preparer(defect),
        dt=4e-12,
        capture_window=1.5e-9,
    )
    print(f"  {label:<38} {run.measurement.table_entry():>8}")
    return run.measurement


def transistor_level_tour() -> None:
    """The Figure-5 harness: where the OBD model's excitation conditions come from."""
    falling = ((0, 1), (1, 1))   # output falls: excites the NMOS defects
    rising_a = ((1, 1), (0, 1))  # A switches, B held at 1: excites PA only
    rising_b = ((1, 1), (1, 0))  # B switches, A held at 1: excites PB only

    print("\nFault-free reference:")
    measure(falling, None, "falling output (01,11)")
    measure(rising_a, None, "rising output (11,01)")

    print("\nNMOS breakdown in the transistor driven by input A (site NA):")
    for stage in (BreakdownStage.MBD1, BreakdownStage.MBD2, BreakdownStage.HBD):
        measure(falling, OBDDefect("NA", stage), f"(01,11) with NA at {stage.value}")

    print("\nPMOS breakdown in the transistor driven by input A (site PA):")
    print("  (only the sequence that makes PA the sole charger shows the defect)")
    measure(rising_a, OBDDefect("PA", BreakdownStage.MBD2), "(11,01) with PA at mbd2 -- excited")
    measure(rising_b, OBDDefect("PA", BreakdownStage.MBD2), "(11,10) with PA at mbd2 -- not excited")


def main() -> None:
    print("Part 1: unified test campaigns (gate level)")
    print("=" * 60)
    campaign_tour()

    print("Part 2: benchmark circuits (.bench I/O + generators)")
    print("=" * 60)
    benchmark_circuit_tour()

    print("Part 3: oxide-breakdown physics (Figure-5 NAND harness)")
    print("=" * 60)
    transistor_level_tour()

    print("\nDone.  See examples/concurrent_test_planning.py for the")
    print("progression/window analysis and examples/full_adder_atpg.py for")
    print("the anatomy of the campaign pipeline on the paper's full adder.")


if __name__ == "__main__":
    main()
