"""Structural ATPG engine benchmarks: throughput, proof counts, coverage floor.

One group, ``structural-atpg``: every registered engine (``d-alg``,
``podem``, ``legacy``) runs pure test generation over the collapsed
stuck-at universe of the random-DAG and array-multiplier workloads at the
SAME backtrack budget. Per engine and circuit the run records faults/sec
plus the three-way outcome counts (tested / proven_redundant / aborted)
and the search-effort counters to ``BENCH_faultsim.json``.

Acceptance floor: the rewritten engines must *resolve* (tested or proven,
i.e. not abort) at least as many faults as the legacy PODEM, and reach at
least its tested count -- the rewrite may not trade coverage for speed.
Vectors are cross-checked against the packed fault simulator, so the
throughput numbers can never come from unsound patterns.

CI smoke mode: ``REPRO_BENCH_ATPG_RDAG`` / ``REPRO_BENCH_ATPG_MULT``
shrink the workloads (e.g. ``rdag:80,4`` / ``mult:3``) and
``REPRO_BENCH_ATPG_BACKTRACKS`` sets the shared budget (default 5000).
"""

from __future__ import annotations

import os
import time

import pytest

from repro.atpg import PodemOptions, get_atpg_engine, simulate_stuck_at
from repro.atpg.structural import ABORTED, PROVEN_REDUNDANT, TESTED
from repro.campaign import resolve_circuit
from repro.faults.collapse import collapse_stuck_at_faults
from repro.faults.stuck_at import stuck_at_universe

from _report import record_faultsim, report

RDAG_REF = os.environ.get("REPRO_BENCH_ATPG_RDAG", "rdag:300,4")
MULT_REF = os.environ.get("REPRO_BENCH_ATPG_MULT", "mult:6")
MAX_BACKTRACKS = int(os.environ.get("REPRO_BENCH_ATPG_BACKTRACKS", "5000"))

ENGINES = ("d-alg", "podem", "legacy")


def _collapsed(circuit):
    keep = collapse_stuck_at_faults(circuit)
    return [f for f in stuck_at_universe(circuit) if f in keep]


def _run_engine(circuit, faults, name):
    engine = get_atpg_engine(name)
    options = PodemOptions(max_backtracks=MAX_BACKTRACKS)
    counts = {TESTED: 0, PROVEN_REDUNDANT: 0, ABORTED: 0}
    effort = {"backtracks": 0, "decisions": 0, "implications": 0}
    vectors = []
    t0 = time.perf_counter()
    for fault in faults:
        result = engine.generate(circuit, fault, options)
        counts[result.status] += 1
        effort["backtracks"] += result.backtracks
        effort["decisions"] += result.decisions
        effort["implications"] += result.implications
        if result.success:
            vectors.append(
                (fault, tuple(result.pattern[n] for n in circuit.primary_inputs))
            )
    seconds = time.perf_counter() - t0
    return counts, effort, vectors, seconds


@pytest.mark.benchmark(group="structural-atpg")
@pytest.mark.parametrize("ref", [RDAG_REF, MULT_REF], ids=lambda r: r.split(":")[0])
def test_structural_engines_throughput_and_coverage_floor(ref, benchmark):
    circuit = resolve_circuit(ref)
    faults = _collapsed(circuit)
    family = ref.split(":")[0]

    def run_all():
        return {name: _run_engine(circuit, faults, name) for name in ENGINES}

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = [f"structural ATPG on {ref} ({len(faults)} collapsed faults, "
            f"budget {MAX_BACKTRACKS} backtracks):"]
    for name in ENGINES:
        counts, effort, vectors, seconds = results[name]
        throughput = record_faultsim(
            circuit=ref,
            family=family,
            engine=name,
            model="stuck-at",
            num_faults=len(faults),
            num_tests=1,
            seconds=seconds,
            backtracks=effort["backtracks"],
            decisions=effort["decisions"],
            implications=effort["implications"],
            tested=counts[TESTED],
            proven_redundant=counts[PROVEN_REDUNDANT],
            aborted=counts[ABORTED],
        )
        rows.append(
            f"  {name:7s} {throughput:10.1f} faults/s  "
            f"tested={counts[TESTED]} proven={counts[PROVEN_REDUNDANT]} "
            f"aborted={counts[ABORTED]}  backtracks={effort['backtracks']}"
        )
        # Soundness: every vector must detect its fault under packed sim.
        if vectors:
            patterns = [p for _, p in vectors]
            packed = simulate_stuck_at(circuit, patterns, [f for f, _ in vectors])
            for index, (fault, _) in enumerate(vectors):
                assert index in packed.detections[fault.key], (name, fault.key)
    report(rows)

    # Coverage floor: at the same budget the rewritten engines must do no
    # worse than the legacy PODEM, in tested faults and in total resolution.
    legacy_counts = results["legacy"][0]
    for name in ("d-alg", "podem"):
        counts = results[name][0]
        assert counts[TESTED] >= legacy_counts[TESTED], (
            f"{name} tested {counts[TESTED]} < legacy {legacy_counts[TESTED]} on {ref}"
        )
        assert counts[ABORTED] <= legacy_counts[ABORTED], (
            f"{name} aborted {counts[ABORTED]} > legacy {legacy_counts[ABORTED]} on {ref}"
        )

    # Cross-engine agreement on the resolved verdicts: the complete engines
    # may never split a fault between tested and proven_redundant.
    d_alg_counts = results["d-alg"][0]
    podem_counts = results["podem"][0]
    if d_alg_counts[ABORTED] == 0 and podem_counts[ABORTED] == 0:
        assert d_alg_counts == podem_counts
