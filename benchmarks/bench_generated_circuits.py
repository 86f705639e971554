"""Packed-engine throughput and campaign coverage on the generated families.

The generator subsystem (:mod:`repro.logic.generators`) opens workloads well
beyond the paper's full adder; this benchmark sweeps one instance of every
family through (a) raw packed stuck-at fault simulation, reporting
fault-x-pattern throughput, and (b) the full campaign pipeline per fault
model, reporting coverage and runtime next to the circuit's structural
stats.  A serial-vs-packed cross-check on the random DAG keeps the two
engines honest inside the benchmark itself.

CI smoke mode: set ``REPRO_GENC_BITS`` / ``REPRO_GENC_TESTS`` /
``REPRO_GENC_DAG_GATES`` (e.g. 3 / 64 / 30) to shrink the sweep.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.atpg import (
    compile_for_engine,
    random_patterns,
    serial_simulate_stuck_at,
    simulate_stuck_at,
)
from repro.campaign import CampaignSpec, resolve_circuit, run_campaign
from repro.faults import stuck_at_universe
from repro.logic import random_dag

from _report import record_faultsim, report

BITS = int(os.environ.get("REPRO_GENC_BITS", "4"))
NUM_TESTS = int(os.environ.get("REPRO_GENC_TESTS", "256"))
DAG_GATES = int(os.environ.get("REPRO_GENC_DAG_GATES", "120"))

#: The family sweep: circuit references understood by the campaign registry.
FAMILY_REFS = [
    f"mult:{BITS}",
    f"cla:{2 * BITS}",
    f"parity:{4 * BITS}",
    f"cmp:{2 * BITS}",
    f"alu:{BITS}",
    f"rdag:{DAG_GATES},5",
]


@pytest.mark.benchmark(group="generated-circuits")
@pytest.mark.parametrize("ref", FAMILY_REFS)
def test_packed_throughput_per_family(ref, benchmark):
    circuit = resolve_circuit(ref)
    stats = circuit.stats()
    patterns = random_patterns(circuit, NUM_TESTS, seed=21)
    faults = list(stuck_at_universe(circuit))
    compiled = compile_for_engine(circuit, "packed", None)

    rep = benchmark.pedantic(
        simulate_stuck_at,
        args=(circuit, patterns, faults),
        kwargs={"compiled": compiled},
        rounds=3,
        iterations=1,
    )
    # Mean of the pedantic rounds; --benchmark-disable still returns the
    # result but records no stats, so time one extra run for the report.
    timing = getattr(benchmark, "stats", None)
    if timing is not None:
        elapsed = timing.stats.mean
    else:
        start = time.perf_counter()
        simulate_stuck_at(circuit, patterns, faults, compiled=compiled)
        elapsed = time.perf_counter() - start
    throughput = record_faultsim(
        circuit=ref,
        family=ref.split(":", 1)[0],
        engine="codegen",
        model="stuck-at",
        num_faults=len(faults),
        num_tests=NUM_TESTS,
        seconds=elapsed,
        word_bits=compiled.word_bits,
    )
    report(
        [
            f"  {stats.describe()}",
            f"  stuck-at[packed]: {len(faults)} faults x {NUM_TESTS} patterns in "
            f"{elapsed * 1e3:7.1f} ms -> {throughput / 1e6:6.2f} Mfault-patterns/s, "
            f"coverage {100 * rep.coverage:.1f}%",
        ]
    )
    assert rep.num_tests == NUM_TESTS
    assert rep.coverage > 0.5  # generated families must be mostly testable


@pytest.mark.benchmark(group="generated-circuits")
@pytest.mark.parametrize("model", ["stuck-at", "transition", "path-delay", "obd"])
def test_campaign_coverage_per_model(model, benchmark):
    """The full campaign pipeline on a generated workload, per fault model."""
    # The random DAG's default palette contains expandable (OBD-capable)
    # gates, so one workload exercises all four registered models.
    spec = CampaignSpec(
        model=model,
        circuit=f"rdag:{DAG_GATES},5",
        universe_options={"limit": 200} if model == "path-delay" else {},
        pattern_source="random",
        pattern_count=NUM_TESTS,
        seed=23,
        run_atpg=False,
        drop_detected=True,
    )
    result = benchmark.pedantic(run_campaign, kwargs={"spec": spec}, rounds=1, iterations=1)
    report(["  " + line for line in result.describe().splitlines()])
    assert result.merged_report.num_tests == NUM_TESTS
    assert len(result.faults) > 0


@pytest.mark.benchmark(group="generated-circuits")
def test_serial_packed_agree_on_generated_workload(benchmark):
    """Cross-engine equivalence inside the benchmark: same detections."""
    circuit = random_dag(max(DAG_GATES // 4, 10), seed=31, max_depth=8)
    patterns = random_patterns(circuit, min(NUM_TESTS, 64), seed=32)
    faults = list(stuck_at_universe(circuit))
    serial = serial_simulate_stuck_at(circuit, patterns, faults)
    packed = benchmark.pedantic(
        simulate_stuck_at, args=(circuit, patterns, faults), rounds=1, iterations=1
    )
    assert packed.detections == serial.detections
    assert packed.num_tests == serial.num_tests
