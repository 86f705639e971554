"""The four registered fault models of the reproduction.

Each adapter packages one model's universe builder, structural collapsing,
fault-simulation hooks and deterministic ATPG behind the
:class:`~repro.campaign.model.FaultModel` protocol.  For fault simulation a
model supplies only its serial reference and its per-fault
:class:`~repro.atpg.parallel_sim.FaultSite` descriptors; the shared
``simulate`` method runs both word backends through one block loop.  The
legacy free functions (``simulate_stuck_at``, ``run_obd_atpg``, ...) remain
available as thin wrappers over these adapters.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from ..analysis_static.untestable import (
    StaticProof,
    prove_stuck_at_untestable,
    prove_transition_untestable,
)
from ..atpg.fault_sim import (
    DetectionReport,
    _check_engine,
    serial_simulate_obd,
    serial_simulate_path_delay,
    serial_simulate_stuck_at,
    serial_simulate_transition,
)
from ..atpg.obd_atpg import generate_obd_test
from ..atpg.parallel_sim import (
    HOLD,
    FaultSite,
    compile_for_engine,
    compiled_matches_engine,
    simulate_sites,
)
from ..atpg.path_delay_atpg import generate_path_delay_test
from ..atpg.podem import PodemOptions
from ..atpg.structural import get_atpg_engine
from ..atpg.two_pattern import generate_transition_test, pattern_tuple
from ..faults.base import Fault, FaultList
from ..faults.collapse import (
    collapse_stuck_at_dominance,
    collapse_stuck_at_faults,
    obd_equivalence_groups,
)
from ..faults.obd import ObdFault, obd_fault_universe
from ..faults.path_delay import RISING, PathDelayFault, path_delay_universe
from ..faults.stuck_at import StuckAtFault, stuck_at_universe
from ..faults.transition import TransitionFault, transition_fault_universe
from ..logic.compiled import CompiledCircuit
from ..logic.netlist import LogicCircuit
from .model import SINGLE_PATTERN, TWO_PATTERN, AtpgOutcome, register_model


def _transition_excite(net: int, launch: int, final: int):
    """Launch value at *net* in the first frame, final value in the last."""

    def excite(first, last, words):
        return (first[net] ^ words[1 - launch]) & (last[net] ^ words[1 - final])

    return excite


def _path_delay_excite(nets: tuple[int, ...], edge: int):
    """The path input ends at *edge* (1 = rising), and every path net toggles."""

    def excite(first, last, words):
        word = last[nets[0]] ^ words[1 - edge]
        for net in nets:
            word = word & (first[net] ^ last[net])
        return word

    return excite


def _obd_excite(pins: tuple[int, ...], sequences):
    """OR over the local sequences of the AND of per-pin matches.

    ``frame[pin] ^ words[1 - v]`` is the word of "pin equals v".
    """

    def excite(first, last, words):
        excited = words[0]
        for values1, values2 in sequences:
            word = words[1]
            for pin, v1, v2 in zip(pins, values1, values2):
                word = word & (first[pin] ^ words[1 - v1]) & (last[pin] ^ words[1 - v2])
            excited = excited | word
        return excited

    return excite


class _ModelBase:
    """Shared model behaviour: one ``simulate`` over the model's
    :meth:`fault_sites` and ``serial_simulate`` hooks, and the default
    static-analysis hooks (no dominance collapsing, no proofs)."""

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
        """Route one call to the serial reference or the block loop.

        ``"packed"`` and ``"numpy"`` both run
        :func:`~repro.atpg.parallel_sim.simulate_sites`; they differ only in
        the :class:`CompiledCircuit` flavor (see
        :func:`~repro.atpg.parallel_sim.compile_for_engine`).  A
        caller-supplied *compiled* circuit is reused when its flavor matches
        the requested engine and *word_bits*, so campaigns compile exactly
        once; on any mismatch the call recompiles rather than silently
        simulating at the wrong width or through the wrong engine.
        """
        _check_engine(engine)
        if engine == "serial":
            return self.serial_simulate(circuit, tests, faults, drop_detected=drop_detected)
        if not compiled_matches_engine(compiled, engine, word_bits):
            compiled = compile_for_engine(circuit, engine, word_bits)
        return simulate_sites(
            compiled,
            tests,
            self.fault_sites(circuit, compiled, faults),
            two_pattern=self.pattern_kind == TWO_PATTERN,
            drop_detected=drop_detected,
        )

    def collapse_dominance(self, circuit: LogicCircuit, faults: FaultList) -> FaultList:
        return self.collapse(circuit, faults)

    def prove_untestable(
        self, circuit: LogicCircuit, faults: Iterable[Fault]
    ) -> dict[str, StaticProof]:
        return {}


class StuckAtModel(_ModelBase):
    """Classical single stuck-at model: single patterns, PODEM ATPG."""

    name = "stuck-at"
    pattern_kind = SINGLE_PATTERN
    description = "single stuck-at faults on every net, PODEM test generation"

    def build_universe(self, circuit: LogicCircuit, **options: Any) -> FaultList:
        return stuck_at_universe(circuit, **options)

    def collapse(self, circuit: LogicCircuit, faults: FaultList) -> FaultList:
        collapsed = collapse_stuck_at_faults(circuit)
        return faults.filtered(lambda f: f in collapsed)

    def collapse_dominance(self, circuit: LogicCircuit, faults: FaultList) -> FaultList:
        collapsed = collapse_stuck_at_dominance(circuit)
        return faults.filtered(lambda f: f in collapsed)

    def prove_untestable(
        self, circuit: LogicCircuit, faults: Iterable[Fault]
    ) -> dict[str, StaticProof]:
        return prove_stuck_at_untestable(circuit, faults)

    serial_simulate = staticmethod(serial_simulate_stuck_at)

    def fault_sites(
        self, circuit: LogicCircuit, compiled: CompiledCircuit, faults: Iterable[StuckAtFault]
    ) -> list[FaultSite]:
        index = compiled.index.ids
        return [FaultSite(f.key, index[f.net], f.value, None) for f in faults]

    #: Structural engine used when a caller does not pick one explicitly.
    default_atpg_engine = "podem"

    def generate_test(
        self,
        circuit: LogicCircuit,
        fault: StuckAtFault,
        options: PodemOptions | None = None,
        atpg_engine: str | None = None,
        searches: dict | None = None,
    ) -> AtpgOutcome:
        engine = get_atpg_engine(atpg_engine or self.default_atpg_engine)
        result = engine.generate(circuit, fault, options)
        tests = (pattern_tuple(circuit, result.pattern),) if result.success else ()
        return AtpgOutcome(
            fault,
            result.success,
            tests,
            result.backtracks,
            result.aborted,
            decisions=result.decisions,
            implications=result.implications,
        )


class TransitionModel(_ModelBase):
    """Classical transition (slow-to-rise / slow-to-fall) model."""

    name = "transition"
    pattern_kind = TWO_PATTERN
    description = "transition faults on every net, launch/capture two-pattern ATPG"

    def build_universe(self, circuit: LogicCircuit, **options: Any) -> FaultList:
        return transition_fault_universe(circuit, **options)

    def collapse(self, circuit: LogicCircuit, faults: FaultList) -> FaultList:
        return faults

    serial_simulate = staticmethod(serial_simulate_transition)

    def fault_sites(
        self, circuit: LogicCircuit, compiled: CompiledCircuit, faults: Iterable[TransitionFault]
    ) -> list[FaultSite]:
        # The slow net holds its launch value into pattern two.
        sites = []
        for fault in faults:
            net, launch = compiled.index.ids[fault.net], fault.launch_value
            excite = _transition_excite(net, launch, fault.final_value)
            sites.append(FaultSite(fault.key, net, launch, excite))
        return sites

    def prove_untestable(
        self, circuit: LogicCircuit, faults: Iterable[Fault]
    ) -> dict[str, StaticProof]:
        return prove_transition_untestable(circuit, faults)

    #: Structural engine for the capture (stuck-at) half of the search.
    default_atpg_engine = "podem"

    def generate_test(
        self,
        circuit: LogicCircuit,
        fault: TransitionFault,
        options: PodemOptions | None = None,
        atpg_engine: str | None = None,
        searches: dict | None = None,
    ) -> AtpgOutcome:
        result = generate_transition_test(
            circuit, fault, options=options,
            atpg_engine=atpg_engine or self.default_atpg_engine,
        )
        tests = ((result.test.first, result.test.second),) if result.success else ()
        return AtpgOutcome(
            fault,
            result.success,
            tests,
            result.backtracks,
            result.aborted,
            decisions=result.decisions,
            implications=result.implications,
        )


class PathDelayModel(_ModelBase):
    """Path-delay model: non-robust sensitization over structural paths."""

    name = "path-delay"
    pattern_kind = TWO_PATTERN
    description = "path-delay faults along structural paths, non-robust sensitization"

    def build_universe(self, circuit: LogicCircuit, **options: Any) -> FaultList:
        return path_delay_universe(circuit, **options)

    def collapse(self, circuit: LogicCircuit, faults: FaultList) -> FaultList:
        return faults

    serial_simulate = staticmethod(serial_simulate_path_delay)

    def fault_sites(
        self, circuit: LogicCircuit, compiled: CompiledCircuit, faults: Iterable[PathDelayFault]
    ) -> list[FaultSite]:
        # The sensitization word is the detection word: no net is clamped.
        index = compiled.index.ids
        return [
            FaultSite(
                f.key, None, 0,
                _path_delay_excite(tuple(index[n] for n in f.nets), int(f.direction == RISING)),
            )
            for f in faults
        ]

    def generate_test(
        self,
        circuit: LogicCircuit,
        fault: PathDelayFault,
        options: PodemOptions | None = None,
        atpg_engine: str | None = None,
        searches: dict | None = None,
    ) -> AtpgOutcome:
        # atpg_engine is accepted for interface uniformity: the path-delay
        # search is objective-driven, not a stuck-at search to delegate.
        result = generate_path_delay_test(circuit, fault, options=options)
        tests = ((result.test.first, result.test.second),) if result.success else ()
        return AtpgOutcome(
            fault,
            result.success,
            tests,
            result.backtracks,
            result.aborted,
            decisions=result.decisions,
        )


class ObdModel(_ModelBase):
    """The paper's oxide-breakdown model with input-specific excitation."""

    name = "obd"
    pattern_kind = TWO_PATTERN
    description = "transistor-level OBD defect sites, input-specific two-pattern ATPG"

    def build_universe(self, circuit: LogicCircuit, **options: Any) -> FaultList:
        return obd_fault_universe(circuit, **options)

    def collapse(self, circuit: LogicCircuit, faults: FaultList) -> FaultList:
        """One representative per gate-local equivalence group.

        Faults in a group share identical excitation-condition sets (e.g. NA
        and NB of a NAND), so any test set covering the representative covers
        the whole group.
        """
        groups = obd_equivalence_groups(faults)
        representatives = {members[0].key for members in groups.values()}
        return faults.filtered(lambda f: f.key in representatives)

    serial_simulate = staticmethod(serial_simulate_obd)

    def fault_sites(
        self, circuit: LogicCircuit, compiled: CompiledCircuit, faults: Iterable[ObdFault]
    ) -> list[FaultSite]:
        # The slow gate holds its first-pattern output into pattern two, so
        # every fault of one gate shares the forced row.
        index = compiled.index.ids
        sites = []
        for fault in faults:
            gate = circuit.gate(fault.gate_name)
            excite = _obd_excite(tuple(index[n] for n in gate.inputs), fault.local_sequences)
            sites.append(FaultSite(fault.key, index[gate.output], HOLD, excite))
        return sites

    def generate_test(
        self,
        circuit: LogicCircuit,
        fault: ObdFault,
        options: PodemOptions | None = None,
        atpg_engine: str | None = None,
        searches: dict | None = None,
    ) -> AtpgOutcome:
        # atpg_engine is accepted for interface uniformity: OBD excitation
        # cubes pin the defective gate's inputs, a constrained search the
        # structural stuck-at engines do not model.
        result = generate_obd_test(circuit, fault, options=options, searches=searches)
        tests = ((result.test.first, result.test.second),) if result.success else ()
        return AtpgOutcome(
            fault,
            result.success,
            tests,
            result.backtracks,
            result.aborted,
            decisions=result.decisions,
        )


STUCK_AT = register_model(StuckAtModel())
TRANSITION = register_model(TransitionModel())
PATH_DELAY = register_model(PathDelayModel())
OBD = register_model(ObdModel())
