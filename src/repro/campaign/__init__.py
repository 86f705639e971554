"""Unified test campaigns over a fault-model registry.

The paper's argument is a *flow* -- enumerate defect sites, generate
input-specific two-pattern tests, fault-simulate, compact and schedule -- and
this package exposes that flow as one declarative API:

* :class:`FaultModel` / :func:`register_model` / :func:`get_model` -- the
  registry under which each fault model (stuck-at, transition, path-delay,
  OBD) packages its universe builder, pattern-source kind, ATPG routine and
  packed/serial simulation hooks.
* :class:`CampaignSpec` / :class:`Campaign` / :func:`run_campaign` -- the
  declarative pipeline runner: fault universe (with optional collapsing), a
  random / exhaustive / single-input-change pattern phase with fault
  dropping, deterministic ATPG top-up that skips already-detected faults,
  greedy compaction and a unified :class:`CampaignResult`.
* :func:`resolve_circuit` / :func:`register_circuit` -- the circuit
  registry behind ``CampaignSpec.circuit``: registered names (``"c17"``),
  parametric references (``"rca:8"``, ``"mult:4"``, ``"rdag:40,7"``) and
  ``.bench`` file paths all resolve to a
  :class:`~repro.logic.netlist.LogicCircuit` workload.
* :class:`ShardedCampaign` / :func:`run_sharded_campaign` -- the
  multi-process executor: the fault universe is partitioned into contiguous
  shards, pattern simulation and ATPG run per shard in a process pool, and
  per-shard reports merge back into a result bit-identical to
  :meth:`Campaign.run`.
* :class:`CampaignSuite` -- batteries of campaigns (e.g. the circuits x
  models x engines cross product) over one shared worker pool, with a
  consolidated JSON / CSV report.

Fault simulation has one entry point, ``get_model(name).simulate``: the
serial reference engines of :mod:`repro.atpg.fault_sim` and the packed
engines of :mod:`repro.atpg.parallel_sim` sit behind it.  Deterministic
ATPG has one loop, the campaign's: every model's ``generate_test`` returns
one :class:`~repro.atpg.AtpgOutcome` per fault, and
:func:`~repro.campaign.runner.generate_atpg_outcomes` runs it over a fault
list, skipping the faults an earlier phase detected.

>>> from repro.campaign import CampaignSpec, run_campaign
>>> from repro.logic import full_adder_sum
>>> result = run_campaign(full_adder_sum(), CampaignSpec(model="obd"))
>>> print(result.describe())          # doctest: +SKIP
"""

# Eager, not lazy: the pipeline's front door, so importing the package loads the pipeline.
from .circuits import (
    circuit_names,
    register_circuit,
    resolve_circuit,
)
from .errors import CampaignError
from .model import (
    SINGLE_PATTERN,
    TWO_PATTERN,
    AtpgOutcome,
    FaultModel,
    get_model,
    register_model,
    registered_models,
)
from .models import ObdModel, PathDelayModel, StuckAtModel, TransitionModel
from .runner import (
    PATTERN_SOURCES,
    AtpgPhaseResult,
    Campaign,
    CampaignResult,
    CampaignSpec,
    PatternPhaseResult,
    run_campaign,
)
from .sharded import (
    InlineExecutor,
    ShardedCampaign,
    partition_faults,
    run_sharded_campaign,
)
from .suite import (
    CampaignSuite,
    SuiteEntry,
    SuiteResult,
)

__all__ = [
    "FaultModel",
    "AtpgOutcome",
    "SINGLE_PATTERN",
    "TWO_PATTERN",
    "register_model",
    "get_model",
    "registered_models",
    "StuckAtModel",
    "TransitionModel",
    "PathDelayModel",
    "ObdModel",
    "register_circuit",
    "resolve_circuit",
    "circuit_names",
    "PATTERN_SOURCES",
    "CampaignError",
    "CampaignSpec",
    "Campaign",
    "CampaignResult",
    "PatternPhaseResult",
    "AtpgPhaseResult",
    "run_campaign",
    "ShardedCampaign",
    "InlineExecutor",
    "partition_faults",
    "run_sharded_campaign",
    "CampaignSuite",
    "SuiteEntry",
    "SuiteResult",
]
