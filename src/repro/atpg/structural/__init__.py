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

from ..._exports import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "..podem": ("ABORTED", "PROVEN_REDUNDANT", "STATUSES", "TESTED", "StructuralResult"),
    ".d_algorithm": ("DAlgorithm",),
    ".engine": (
        "ATPG_ENGINES", "StructuralAtpg", "StructuralAtpgError", "atpg_engine_names",
        "get_atpg_engine", "register_atpg_engine",
    ),
    ".podem": ("StructuralPodem",),
})
