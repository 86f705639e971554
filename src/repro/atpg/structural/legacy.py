"""The legacy two-rail PODEM behind the structural interface.

Registered as ``atpg_engine="legacy"`` so campaigns and the differential
cross-check harness can run the pre-rewrite engine side by side with the
frontier-based core.  The adapter maps the legacy three-way outcome onto
:class:`~repro.atpg.structural.engine.StructuralResult` verbatim: after the
silent-failure fix in :mod:`repro.atpg.podem`, ``untestable`` means the
legacy search really exhausted its decision tree without abandoning any
branch, so it is safe to translate into ``proven_redundant``.

The base-class screens and vector verification still apply, so a legacy
"success" pattern gets the same forced-net re-simulation check as the new
engines.
"""

from __future__ import annotations

from ...analysis_static.analysis import CircuitAnalysis
from ...faults.stuck_at import StuckAtFault
from ..podem import PodemOptions, generate_stuck_at_test
from .engine import (
    ABORTED,
    PROVEN_REDUNDANT,
    TESTED,
    StructuralAtpg,
    StructuralResult,
    register_atpg_engine,
)


class LegacyPodem(StructuralAtpg):
    """Adapter over :func:`repro.atpg.podem.generate_stuck_at_test`."""

    name = "legacy"
    complete = True

    def _search(
        self,
        analysis: CircuitAnalysis,
        fault: StuckAtFault,
        closure: dict[str, int],
        options: PodemOptions,
    ) -> StructuralResult:
        result = generate_stuck_at_test(analysis.circuit, fault, options=options)
        if result.success:
            status = TESTED
        elif result.aborted:
            status = ABORTED
        else:
            status = PROVEN_REDUNDANT
        return StructuralResult(
            status,
            result.pattern,
            backtracks=result.backtracks,
            decisions=result.decisions,
            implications=len(closure),
            engine=self.name,
        )


register_atpg_engine(LegacyPodem())
