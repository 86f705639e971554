"""Frontier-based structural ATPG: D-algorithm and hardened PODEM.

The package exposes one interface -- :class:`StructuralAtpg` -- with three
registered engines:

========== ==================================================================
``d-alg``  Roth's D-algorithm: decisions on internal nets via D-frontier
           propagation cubes and J-frontier justification cubes
           (:mod:`repro.atpg.structural.d_algorithm`).
``podem``  PODEM with SCOAP-guided backtrace, static excitation closures and
           sound exhaustion (:mod:`repro.atpg.structural.podem`).
``legacy`` The pre-rewrite two-rail PODEM, adapted
           (:mod:`repro.atpg.structural.legacy`).
========== ==================================================================

Every engine resolves a stuck-at fault to ``tested`` (vector verified by
forced-net re-simulation before it is returned), ``proven_redundant``
(complete search exhausted -- a proof) or ``aborted`` (budget ran out), with
backtrack / decision / implication counters.  Campaigns select an engine via
``CampaignSpec.atpg_engine``.
"""

from .d_algorithm import DAlgorithm
from .engine import (
    ABORTED,
    ATPG_ENGINES,
    PROVEN_REDUNDANT,
    STATUSES,
    TESTED,
    StructuralAtpg,
    StructuralAtpgError,
    StructuralResult,
    atpg_engine_names,
    get_atpg_engine,
    register_atpg_engine,
)
from .legacy import LegacyPodem
from .podem import StructuralPodem

__all__ = [
    "ABORTED",
    "ATPG_ENGINES",
    "PROVEN_REDUNDANT",
    "STATUSES",
    "TESTED",
    "DAlgorithm",
    "LegacyPodem",
    "StructuralAtpg",
    "StructuralAtpgError",
    "StructuralPodem",
    "StructuralResult",
    "atpg_engine_names",
    "get_atpg_engine",
    "register_atpg_engine",
]
