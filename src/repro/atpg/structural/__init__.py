"""Frontier-based structural ATPG: D-algorithm and hardened PODEM.

The package exposes one interface -- :class:`StructuralAtpg` -- with two
registered engines:

========== ==================================================================
``d-alg``  Roth's D-algorithm: decisions on internal nets via D-frontier
           propagation cubes and J-frontier justification cubes
           (:mod:`repro.atpg.structural.d_algorithm`).
``podem``  PODEM with SCOAP-guided backtrace, static excitation closures and
           sound exhaustion (:mod:`repro.atpg.structural.podem`).
========== ==================================================================

Every engine resolves a stuck-at fault to a
:class:`~repro.atpg.podem.StructuralResult` (re-exported here): ``tested``
(vector verified by forced-net re-simulation before it is returned),
``proven_redundant`` (complete search exhausted -- a proof) or ``aborted``
(budget ran out), with backtrack / decision / implication counters.
Campaigns select an engine via ``CampaignSpec.atpg_engine``.
"""

from ..podem import ABORTED, PROVEN_REDUNDANT, STATUSES, TESTED, StructuralResult
from .d_algorithm import DAlgorithm
from .engine import (
    ATPG_ENGINES,
    StructuralAtpg,
    StructuralAtpgError,
    atpg_engine_names,
    get_atpg_engine,
    register_atpg_engine,
)
from .podem import StructuralPodem

__all__ = [
    "ABORTED",
    "ATPG_ENGINES",
    "PROVEN_REDUNDANT",
    "STATUSES",
    "TESTED",
    "DAlgorithm",
    "StructuralAtpg",
    "StructuralAtpgError",
    "StructuralPodem",
    "StructuralResult",
    "atpg_engine_names",
    "get_atpg_engine",
    "register_atpg_engine",
]
