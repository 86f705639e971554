"""Test generation and fault simulation (stuck-at, transition, path-delay, OBD).

Campaign API (preferred)
------------------------

The recommended way to drive this package is the unified campaign API in
:mod:`repro.campaign`: every fault model is registered as a
:class:`~repro.campaign.FaultModel` (universe builder, pattern-source kind,
ATPG routine and packed/serial simulation hooks behind one interface), and a
declarative :class:`~repro.campaign.CampaignSpec` runs the whole pipeline --
universe, optional collapsing, random/exhaustive/SIC pattern phase with
fault dropping, deterministic ATPG top-up for the still-undetected faults,
greedy compaction and a unified :class:`~repro.campaign.CampaignResult`::

    from repro.campaign import CampaignSpec, run_campaign
    from repro.logic import full_adder_sum

    result = run_campaign(full_adder_sum(), CampaignSpec(model="obd"))
    print(result.describe())

Per-model entry points
----------------------

Fault simulation has one entry point, the model's own:
``get_model(name).simulate(circuit, tests, faults, engine=...)`` (see
:func:`repro.campaign.get_model`).  The test generators are the models' own
routines and return the same two records as the campaign: one
:class:`~repro.atpg.podem.StructuralResult` per search
(``generate_stuck_at_test``, ``justify`` and the structural engines) and one
:class:`~repro.atpg.two_pattern.AtpgOutcome` per fault
(``generate_transition_test``, ``generate_path_delay_test`` and
``generate_obd_test``).  The ATPG loop over a fault list is the campaign's
(``CampaignSpec(run_atpg=True)`` or
:func:`~repro.campaign.runner.generate_atpg_outcomes`).

Fault-simulation engines
------------------------

Three engines produce identical :class:`~repro.atpg.fault_sim.DetectionReport`
objects behind ``get_model(name).simulate``:

* **packed** (default) -- the bit-parallel engine in
  :mod:`repro.atpg.parallel_sim` running per-circuit generated code
  (:mod:`repro.logic.compiled`).  Patterns are packed hundreds per wide
  integer word, the good machine is evaluated once per pattern block by an
  ``exec``-compiled straight-line function and shared across all faults, and
  each fault costs one re-simulation of its fan-out cone per block, walked
  op by op until a compiled per-cone kernel would pay for itself.  Use it
  everywhere; it is the engine that makes ISCAS-scale workloads practical.
* **numpy** (``engine="numpy"``) -- the same block loop and generated code
  over little-endian ``uint64`` ndarray words (thousands of patterns per
  block) with PPSFP fault batching: faults sharing a fault-site net and
  forced row share one stacked row, and rows broadcast through one
  union-cone pass.  The fastest engine on large pattern sets.
* **serial** -- the reference engine in :mod:`repro.atpg.fault_sim`
  (``serial_simulate_*``, or ``engine="serial"``).  One full circuit walk per
  (fault, pattern): easy to read and to instrument, and the executable
  specification every packed variant is property-tested against.  Reach for
  it when debugging a coverage discrepancy or adding a new fault model.

Both packed engines run one block loop
(:func:`~repro.atpg.parallel_sim.simulate_sites`) over the per-fault site
descriptors each fault model builds.  All four models support
``drop_detected`` (stop simulating a fault after its first detection) in
every engine with identical first-detection indices, at any ``word_bits``.
"""

from .compaction import (
    CompactionResult,
    concat_phase_reports,
    greedy_compaction,
    merge_fault_shards,
)
from .coverage import CoverageReport, coverage_from_report
from .fault_sim import (
    DetectionReport,
    serial_simulate_obd,
    serial_simulate_path_delay,
    serial_simulate_stuck_at,
    serial_simulate_transition,
    simulate_with_forced_net,
)
from .obd_atpg import generate_obd_test
from .parallel_sim import (
    ENGINE_BACKENDS,
    compile_for_engine,
    compiled_matches_engine,
)
from .path_delay_atpg import generate_path_delay_test
from .podem import PodemOptions, generate_stuck_at_test, justify
from .random_tpg import (
    exhaustive_pairs,
    exhaustive_patterns,
    random_pairs,
    random_patterns,
    single_input_change_pairs,
)
from .structural import (
    ATPG_ENGINES,
    StructuralAtpg,
    StructuralAtpgError,
    StructuralResult,
    atpg_engine_names,
    get_atpg_engine,
    register_atpg_engine,
)
from .two_pattern import AtpgOutcome, generate_transition_test
from .values import D, DBAR, ONE, X, ZERO, LogicValue, evaluate_gate_values, from_bit

__all__ = [
    "LogicValue",
    "ZERO",
    "ONE",
    "X",
    "D",
    "DBAR",
    "from_bit",
    "evaluate_gate_values",
    "PodemOptions",
    "generate_stuck_at_test",
    "justify",
    "ATPG_ENGINES",
    "StructuralAtpg",
    "StructuralAtpgError",
    "StructuralResult",
    "atpg_engine_names",
    "get_atpg_engine",
    "register_atpg_engine",
    "AtpgOutcome",
    "generate_transition_test",
    "generate_obd_test",
    "generate_path_delay_test",
    "DetectionReport",
    "serial_simulate_stuck_at",
    "serial_simulate_transition",
    "serial_simulate_path_delay",
    "serial_simulate_obd",
    "ENGINE_BACKENDS",
    "compile_for_engine",
    "compiled_matches_engine",
    "simulate_with_forced_net",
    "exhaustive_patterns",
    "exhaustive_pairs",
    "random_patterns",
    "random_pairs",
    "single_input_change_pairs",
    "greedy_compaction",
    "merge_fault_shards",
    "concat_phase_reports",
    "CompactionResult",
    "CoverageReport",
    "coverage_from_report",
]
