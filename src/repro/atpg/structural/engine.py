"""The :class:`StructuralAtpg` interface and engine registry.

Every structural test generator resolves one stuck-at fault to a
:class:`~repro.atpg.podem.StructuralResult` (defined beside the two-rail
PODEM, whose searches return it too) with exactly one of three statuses:

* ``tested`` -- a primary-input pattern was found (and is verified against
  the forced-net reference simulation before being returned);
* ``proven_redundant`` -- the complete search space was exhausted without a
  test, so the fault is redundant.  Only *complete* searches may claim this;
* ``aborted`` -- the backtrack budget ran out (or the engine gave up
  heuristically) before either of the above.

Engines register themselves in :data:`ATPG_ENGINES` and campaigns select one
via ``CampaignSpec.atpg_engine``.

Every search reads its per-circuit facts from the netlist's structural
index (:attr:`~repro.logic.netlist.LogicCircuit.index`: topological order,
net ids, levels, fan-out and cones) and the circuit's shared
:class:`~repro.analysis_static.analysis.CircuitAnalysis`: observability,
SCOAP numbers (guiding PODEM's backtrace and the D-algorithm's frontier
ordering) and the static-learning implication engine, whose excitation
closures both prune the search and prove ``unexcitable`` faults outright.
The same analysis serves lint and the static untestability prover, so a
campaign learns once, not once per fault or per consumer.
"""

from __future__ import annotations

from ...analysis_static.analysis import CircuitAnalysis, circuit_analysis
from ...faults.stuck_at import StuckAtFault
from ...logic.netlist import LogicCircuit
from ..fault_sim import simulate_with_forced_net
from ..podem import PROVEN_REDUNDANT, TESTED, PodemOptions, StructuralResult


class StructuralAtpgError(Exception):
    """Raised for internal consistency violations (a generated vector that
    fails verification, an unknown engine name)."""


class StructuralAtpg:
    """Base class: static screening and verification.

    Subclasses implement :meth:`_search` and may assume the fault is
    neither dead-cone nor statically unexcitable -- :meth:`generate`
    resolves those outright (they are sound proofs, and resolving them here
    keeps every engine at least as strong as the static prover's
    excitation/observability screens).
    """

    #: Registry name; subclasses override.
    name = ""
    #: Whether an exhausted search is a completeness proof.  Engines that
    #: can give up heuristically must keep this False and report ``aborted``.
    complete = True

    def generate(
        self,
        circuit: LogicCircuit,
        fault: StuckAtFault,
        options: PodemOptions | None = None,
    ) -> StructuralResult:
        """Resolve *fault* to tested / proven_redundant / aborted."""
        options = options or PodemOptions()
        analysis = circuit_analysis(circuit)
        if fault.net not in circuit.index.ids:
            raise ValueError(f"fault net {fault.net!r} is not in the circuit")
        if fault.net not in analysis.observable:
            return StructuralResult(
                PROVEN_REDUNDANT, None, implications=1, engine=self.name
            )
        closure = analysis.excitation_closure(fault)
        if closure is None:
            return StructuralResult(
                PROVEN_REDUNDANT, None, implications=1, engine=self.name
            )
        result = self._search(analysis, fault, closure, options)
        if result.status == TESTED:
            self._verify(circuit, fault, result.pattern)
        return result

    __call__ = generate

    def _search(
        self,
        analysis: CircuitAnalysis,
        fault: StuckAtFault,
        closure: dict[str, int],
        options: PodemOptions,
    ) -> StructuralResult:
        raise NotImplementedError  # pragma: no cover - abstract

    def _verify(
        self, circuit: LogicCircuit, fault: StuckAtFault, pattern: dict[str, int]
    ) -> None:
        """Check the generated vector really detects the fault (fail loud).

        One forced-net reference simulation per successful fault: cheap next
        to the search, and it turns any engine soundness bug into an
        immediate, attributable error instead of silently corrupting
        campaign coverage.
        """
        bits = [pattern[n] for n in circuit.primary_inputs]
        good = simulate_with_forced_net(circuit, bits, fault.net, 1 - fault.value)
        bad = simulate_with_forced_net(circuit, bits, fault.net, fault.value)
        if all(good[n] == bad[n] for n in circuit.primary_outputs):
            raise StructuralAtpgError(
                f"engine {self.name!r} produced a non-detecting vector for "
                f"{fault.key}: {pattern!r}"
            )


#: Registered structural ATPG engines, keyed by name (the values accepted
#: by ``CampaignSpec.atpg_engine``).
ATPG_ENGINES: dict[str, StructuralAtpg] = {}


def register_atpg_engine(engine: StructuralAtpg) -> StructuralAtpg:
    """Register *engine* under ``engine.name``; returns it for chaining."""
    if engine.name in ATPG_ENGINES:
        raise ValueError(f"ATPG engine {engine.name!r} is already registered")
    ATPG_ENGINES[engine.name] = engine
    return engine


def get_atpg_engine(name: str) -> StructuralAtpg:
    """Look up a registered engine by name."""
    try:
        return ATPG_ENGINES[name]
    except KeyError:
        raise StructuralAtpgError(
            f"unknown ATPG engine {name!r}; registered engines: {atpg_engine_names()}"
        ) from None


def atpg_engine_names() -> tuple[str, ...]:
    """Names of all registered engines, sorted."""
    return tuple(sorted(ATPG_ENGINES))


# The built-in engines register themselves on import; importing them here
# fills the registry for every importer of this module, whatever the order.
from . import d_algorithm, podem  # noqa: F401
