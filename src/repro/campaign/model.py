"""The :class:`FaultModel` protocol and the fault-model registry.

A fault model packages everything the campaign runner needs to drive one
model through the full pipeline -- universe building, optional structural
collapsing, pattern-source kind (single-pattern vs. launch/capture pairs),
fault simulation (packed and serial engines) and deterministic ATPG -- behind
one uniform interface.  The four models of the reproduction (stuck-at,
transition, path-delay, OBD) register themselves in
:mod:`repro.campaign.models`; downstream code looks them up by name via
:func:`get_model` and never hard-codes per-model entry points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Protocol, Sequence, runtime_checkable

from ..atpg.fault_sim import DetectionReport
from ..atpg.podem import PodemOptions
from ..faults.base import Fault, FaultList
from ..logic.compiled import CompiledCircuit
from ..logic.netlist import LogicCircuit

#: Pattern-source kinds: one pattern per test, or launch/capture pairs.
SINGLE_PATTERN = "single"
TWO_PATTERN = "pair"


@dataclass(frozen=True)
class AtpgOutcome:
    """Uniform per-fault result of deterministic test generation.

    ``tests`` holds zero or more tests in the model's native shape (a pattern
    tuple for single-pattern models, a ``(first, second)`` pair for
    two-pattern models).
    """

    fault: Fault
    success: bool
    tests: tuple = ()
    backtracks: int = 0
    aborted: bool = False
    #: PODEM decision count (assignments tried), the second half of the
    #: classical search-effort pair alongside ``backtracks``.
    decisions: int = 0
    #: Net values derived by implication (structural engines only; the
    #: legacy two-rail PODEM reports 0 here).
    implications: int = 0

    @property
    def untestable(self) -> bool:
        """Search exhausted without aborting: the fault is proven untestable."""
        return not self.success and not self.aborted

    @property
    def status(self) -> str:
        """Three-way outcome: ``tested`` / ``proven_redundant`` / ``aborted``."""
        if self.success:
            return "tested"
        return "aborted" if self.aborted else "proven_redundant"


@runtime_checkable
class FaultModel(Protocol):
    """Everything a campaign needs to know about one fault model."""

    #: Registry name, e.g. ``"stuck-at"``.
    name: str
    #: :data:`SINGLE_PATTERN` or :data:`TWO_PATTERN`.
    pattern_kind: str
    #: One-line human description.
    description: str

    def build_universe(self, circuit: LogicCircuit, **options: Any) -> FaultList:
        """Enumerate the model's fault universe for *circuit*."""

    def collapse(self, circuit: LogicCircuit, faults: FaultList) -> FaultList:
        """Structurally collapsed equivalent of *faults* (identity if none)."""

    def simulate(
        self,
        circuit: LogicCircuit,
        tests: Sequence,
        faults: Iterable[Fault],
        *,
        drop_detected: bool = False,
        engine: str = "packed",
        compiled: CompiledCircuit | None = None,
        word_bits: int | None = None,
    ) -> DetectionReport:
        """Fault-simulate *tests* (in the model's native shape) over *faults*.

        *compiled* lets a caller (e.g. the campaign runner) reuse one
        :class:`~repro.logic.compiled.CompiledCircuit` across every phase
        instead of recompiling per call; serial simulation ignores it.
        *word_bits* overrides the engine's default block width -- a
        *compiled* circuit of a different width (or engine flavor) is
        recompiled rather than silently reused.
        """

    def generate_test(
        self,
        circuit: LogicCircuit,
        fault: Fault,
        options: PodemOptions | None = None,
        atpg_engine: str | None = None,
        searches: dict | None = None,
    ) -> AtpgOutcome:
        """Deterministic test generation for one fault.

        *atpg_engine* names a structural engine from
        :data:`repro.atpg.structural.ATPG_ENGINES` (``"d-alg"`` or
        ``"podem"``); None keeps the model's default.  Models
        whose search is not stuck-at-shaped (path-delay, OBD) accept and
        ignore it.  *searches* is a dict owned by one ATPG loop in which a
        model may memoize searches shared between faults (OBD does); the
        other models accept and ignore it.
        """

    def collapse_dominance(self, circuit: LogicCircuit, faults: FaultList) -> FaultList:
        """Equivalence *plus* dominance collapsing (identity if unsupported)."""

    def prove_untestable(self, circuit: LogicCircuit, faults: Iterable[Fault]) -> dict:
        """Statically proven untestable faults among *faults*, keyed by fault key.

        The campaign passes the faults its pattern phase left undetected, in
        universe order; a proof must depend on its fault alone.  Values are
        :class:`~repro.analysis_static.untestable.StaticProof` instances;
        models without a static prover return ``{}``.
        """


_REGISTRY: dict[str, FaultModel] = {}


def register_model(model: FaultModel, replace: bool = False) -> FaultModel:
    """Register *model* under ``model.name``; returns the model for chaining."""
    if model.name in _REGISTRY and not replace:
        raise ValueError(
            f"fault model {model.name!r} is already registered; pass replace=True to override"
        )
    _REGISTRY[model.name] = model
    return model


def get_model(name: str) -> FaultModel:
    """Look up a registered fault model by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown fault model {name!r}; registered models: {registered_models()}"
        ) from None


def registered_models() -> tuple[str, ...]:
    """Names of all registered fault models, sorted."""
    return tuple(sorted(_REGISTRY))
