"""Fault simulation for the stuck-at, transition, path-delay and OBD models.

Three engines sit behind one API.  The default is the **packed** bit-parallel
engine (:mod:`repro.atpg.parallel_sim`): patterns are simulated hundreds at a
time over wide bit-vectors by per-circuit generated straight-line code
(:mod:`repro.logic.compiled`), the good machine is computed once per block
and shared across all faults, and each fault costs one re-simulation of its
fan-out cone per block: an op-by-op walk, or a compiled per-cone kernel once
the site has run often enough to pay for compiling it.
``engine="numpy"`` runs the same block loop and generated code over
``uint64`` ndarray words (thousands of patterns per block) with PPSFP fault
batching -- the fastest engine on large pattern sets.  The **serial** engine
in this module re-walks the circuit one (fault, pattern) at a time; it is the
executable specification the packed engines are property-tested against, and
remains available via ``engine="serial"`` for debugging and for
cross-checking.

The one entry point is the fault-model registry's
``get_model(name).simulate`` (:mod:`repro.campaign`): each registered
:class:`~repro.campaign.FaultModel` packages the serial engine of this module
and the packed hooks of one model, and :class:`~repro.campaign.Campaign`
drives them through the full universe -> patterns -> ATPG -> compaction
pipeline.  The models are:
classical stuck-at, classical transition, path-delay (non-robust functional
sensitization) and the paper's OBD model whose *input-specific* excitation
conditions are enforced before checking propagation -- the behavioural
difference from transition-fault simulation that Section 4.1 is about.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from ..core.excitation import Sequence2
from ..faults.obd import ObdFault
from ..faults.path_delay import RISING, PathDelayFault
from ..faults.stuck_at import StuckAtFault
from ..faults.transition import TransitionFault
from ..logic.compiled import iter_bits
from ..logic.netlist import LogicCircuit
from ..logic.simulator import simulate_pattern

Pattern = tuple[int, ...]
PatternPair = tuple[Pattern, Pattern]

#: Engine names accepted by ``FaultModel.simulate``: ``"packed"``
#: (generated code, wide big-int words -- the default), ``"numpy"``
#: (generated code over uint64 ndarray words with PPSFP fault batching) and
#: ``"serial"`` (the one-(fault, pattern)-at-a-time reference).
ENGINES = ("packed", "numpy", "serial")


def _check_engine(engine: str) -> None:
    if engine not in ENGINES:
        raise ValueError(f"unknown fault-simulation engine {engine!r}; expected one of {ENGINES}")


def simulate_with_forced_net(
    circuit: LogicCircuit,
    pattern: Sequence[int],
    net: str,
    value: int,
) -> dict[str, int]:
    """Zero-delay simulation with one net forced to a fixed value."""
    inputs = circuit.primary_inputs
    values = dict(zip(inputs, (int(b) for b in pattern)))
    if net in values:
        values[net] = value
    for gate in circuit.topological_order():
        if gate.output == net:
            values[gate.output] = value
        else:
            values[gate.output] = gate.evaluate(values)
    return values


def _outputs(circuit: LogicCircuit, values: dict[str, int]) -> tuple[int, ...]:
    return tuple(values[n] for n in circuit.primary_outputs)


# --------------------------------------------------------------------------- #
# Detection reports.
# --------------------------------------------------------------------------- #
@dataclass
class DetectionReport:
    """Which tests detect which faults.

    ``words[key]`` is one int bitset per fault: bit *i* is set when test *i*
    detects it.  Reports are never mutated once built; :attr:`detections`
    decodes them to ascending index lists for the JSON boundary.
    """

    words: dict[str, int]
    num_tests: int

    @cached_property
    def detections(self) -> dict[str, list[int]]:
        return {key: list(iter_bits(word)) for key, word in self.words.items()}

    @property
    def detected_faults(self) -> list[str]:
        return [key for key, word in self.words.items() if word]

    @property
    def undetected_faults(self) -> list[str]:
        return [key for key, word in self.words.items() if not word]

    @property
    def coverage(self) -> float:
        if not self.words:
            return 1.0
        return len(self.detected_faults) / len(self.words)


# --------------------------------------------------------------------------- #
# Stuck-at faults.
# --------------------------------------------------------------------------- #
def serial_simulate_stuck_at(
    circuit: LogicCircuit,
    patterns: Sequence[Pattern],
    faults: Iterable[StuckAtFault],
    drop_detected: bool = False,
) -> DetectionReport:
    """Serial reference engine: one forced re-simulation per (fault, pattern)."""
    fault_list = list(faults)
    words = {f.key: 0 for f in fault_list}
    for index, pattern in enumerate(patterns):
        good = simulate_pattern(circuit, pattern)
        good_outputs = _outputs(circuit, good)
        for fault in fault_list:
            if drop_detected and words[fault.key]:
                continue
            if good[fault.net] == fault.value:
                continue  # not activated by this pattern
            faulty = simulate_with_forced_net(circuit, pattern, fault.net, fault.value)
            if _outputs(circuit, faulty) != good_outputs:
                words[fault.key] |= 1 << index
    return DetectionReport(words=words, num_tests=len(patterns))


# --------------------------------------------------------------------------- #
# Transition faults.
# --------------------------------------------------------------------------- #
def _transition_detected_with_values(
    circuit: LogicCircuit,
    fault: TransitionFault,
    second: Pattern,
    values1: dict[str, int],
    values2: dict[str, int],
    good_outputs: tuple[int, ...],
) -> bool:
    """Transition-fault check against precomputed good-machine values."""
    if values1[fault.net] != fault.launch_value or values2[fault.net] != fault.final_value:
        return False
    faulty = simulate_with_forced_net(circuit, second, fault.net, fault.launch_value)
    return _outputs(circuit, faulty) != good_outputs


def serial_simulate_transition(
    circuit: LogicCircuit,
    pairs: Sequence[PatternPair],
    faults: Iterable[TransitionFault],
    drop_detected: bool = False,
) -> DetectionReport:
    """Serial reference engine; good machine computed once per pair."""
    fault_list = list(faults)
    words = {f.key: 0 for f in fault_list}
    for index, (first, second) in enumerate(pairs):
        values1 = simulate_pattern(circuit, first)
        values2 = simulate_pattern(circuit, second)
        good_outputs = _outputs(circuit, values2)
        for fault in fault_list:
            if drop_detected and words[fault.key]:
                continue
            if _transition_detected_with_values(
                circuit, fault, second, values1, values2, good_outputs
            ):
                words[fault.key] |= 1 << index
    return DetectionReport(words=words, num_tests=len(pairs))


# --------------------------------------------------------------------------- #
# Path-delay faults.
# --------------------------------------------------------------------------- #
def _path_delay_sensitized_with_values(
    fault: PathDelayFault,
    values1: dict[str, int],
    values2: dict[str, int],
) -> bool:
    """Non-robust sensitization check against precomputed good-machine values.

    Same criterion as :func:`repro.faults.path_delay.is_sensitized`: the
    launch net makes the fault's edge and every net along the path toggles.
    """
    expected = 1 if fault.direction == RISING else 0
    if values2[fault.launch_net] != expected:
        return False
    return all(values1[net] != values2[net] for net in fault.nets)


def serial_simulate_path_delay(
    circuit: LogicCircuit,
    pairs: Sequence[PatternPair],
    faults: Iterable[PathDelayFault],
    drop_detected: bool = False,
) -> DetectionReport:
    """Serial reference engine; good machine computed once per pair."""
    fault_list = list(faults)
    words = {f.key: 0 for f in fault_list}
    for index, (first, second) in enumerate(pairs):
        values1 = simulate_pattern(circuit, first)
        values2 = simulate_pattern(circuit, second)
        for fault in fault_list:
            if drop_detected and words[fault.key]:
                continue
            if _path_delay_sensitized_with_values(fault, values1, values2):
                words[fault.key] |= 1 << index
    return DetectionReport(words=words, num_tests=len(pairs))


# --------------------------------------------------------------------------- #
# OBD faults.
# --------------------------------------------------------------------------- #
def _obd_detected_with_values(
    circuit: LogicCircuit,
    fault: ObdFault,
    second: Pattern,
    values1: dict[str, int],
    values2: dict[str, int],
    good_outputs: tuple[int, ...],
) -> bool:
    """OBD check against precomputed good-machine values of both patterns."""
    gate = circuit.gate(fault.gate_name)
    local_sequence: Sequence2 = (
        tuple(values1[n] for n in gate.inputs),
        tuple(values2[n] for n in gate.inputs),
    )
    if local_sequence not in fault.local_sequences:
        return False
    faulty = simulate_with_forced_net(circuit, second, gate.output, values1[gate.output])
    return _outputs(circuit, faulty) != good_outputs


def serial_simulate_obd(
    circuit: LogicCircuit,
    pairs: Sequence[PatternPair],
    faults: Iterable[ObdFault],
    drop_detected: bool = False,
) -> DetectionReport:
    """Serial reference engine; good machine computed once per pair."""
    fault_list = list(faults)
    words = {f.key: 0 for f in fault_list}
    for index, (first, second) in enumerate(pairs):
        values1 = simulate_pattern(circuit, first)
        values2 = simulate_pattern(circuit, second)
        good_outputs = _outputs(circuit, values2)
        for fault in fault_list:
            if drop_detected and words[fault.key]:
                continue
            if _obd_detected_with_values(
                circuit, fault, second, values1, values2, good_outputs
            ):
                words[fault.key] |= 1 << index
    return DetectionReport(words=words, num_tests=len(pairs))
