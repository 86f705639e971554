"""Logic simulation: zero-delay, two-pattern, and event-driven timing modes."""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from itertools import count
from typing import Callable, Mapping, Sequence

from .netlist import Gate, LogicCircuit, LogicCircuitError


def _check_assignment(circuit: LogicCircuit, assignment: Mapping[str, int]) -> dict[str, int]:
    values: dict[str, int] = {}
    for net in circuit.primary_inputs:
        if net not in assignment:
            raise LogicCircuitError(f"missing value for primary input {net!r}")
        bit = int(assignment[net])
        if bit not in (0, 1):
            raise LogicCircuitError(f"primary input {net!r} must be 0 or 1, got {assignment[net]!r}")
        values[net] = bit
    return values


def simulate(circuit: LogicCircuit, assignment: Mapping[str, int]) -> dict[str, int]:
    """Zero-delay simulation: values of every net for one input assignment."""
    values = _check_assignment(circuit, assignment)
    for gate in circuit.topological_order():
        values[gate.output] = gate.evaluate(values)
    return values


def _pattern_assignment(circuit: LogicCircuit, pattern: Sequence[int]) -> dict[str, int]:
    """A positional pattern as an assignment to the primary inputs."""
    inputs = circuit.primary_inputs
    if len(pattern) != len(inputs):
        raise LogicCircuitError(
            f"pattern has {len(pattern)} bits but the circuit has {len(inputs)} inputs"
        )
    return dict(zip(inputs, pattern))


def simulate_pattern(circuit: LogicCircuit, pattern: Sequence[int]) -> dict[str, int]:
    """Zero-delay simulation from a positional pattern over the primary inputs."""
    return simulate(circuit, _pattern_assignment(circuit, pattern))


def output_values(circuit: LogicCircuit, pattern: Sequence[int]) -> tuple[int, ...]:
    """Primary-output values for a positional input pattern."""
    values = simulate_pattern(circuit, pattern)
    return tuple(values[net] for net in circuit.primary_outputs)


def simulate_two_patterns(
    circuit: LogicCircuit,
    first: Sequence[int],
    second: Sequence[int],
) -> tuple[dict[str, int], dict[str, int]]:
    """Zero-delay values of every net under both patterns of a sequence."""
    return simulate_pattern(circuit, first), simulate_pattern(circuit, second)


def transitions_between(
    circuit: LogicCircuit,
    first: Sequence[int],
    second: Sequence[int],
) -> dict[str, tuple[int, int]]:
    """Nets whose value changes between the two patterns, with (v1, v2) pairs."""
    values1, values2 = simulate_two_patterns(circuit, first, second)
    return {
        net: (values1[net], values2[net])
        for net in circuit.nets()
        if values1[net] != values2[net]
    }


# --------------------------------------------------------------------------- #
# Event-driven timing simulation.
# --------------------------------------------------------------------------- #
@dataclass
class TimingEvent:
    """A scheduled net-value change."""

    time: float
    net: str
    value: int


@dataclass
class TimingSimulationResult:
    """Net waveforms produced by the event-driven simulator."""

    #: For every net, the list of (time, value) changes, starting at t=0.
    histories: dict[str, list[tuple[float, int]]]

    def value_at(self, net: str, time: float) -> int:
        """Value of *net* at the given time."""
        history = self.histories[net]
        value = history[0][1]
        for t, v in history:
            if t <= time:
                value = v
            else:
                break
        return value

    def final_value(self, net: str) -> int:
        return self.histories[net][-1][1]

    def arrival_time(self, net: str) -> float:
        """Time of the last value change on *net* (0.0 if it never changes)."""
        history = self.histories[net]
        return history[-1][0] if len(history) > 1 else 0.0

    def toggles(self, net: str) -> int:
        """Number of value changes on *net* after time zero."""
        return len(self.histories[net]) - 1


class EventDrivenSimulator:
    """Event-driven gate-level simulator with per-gate delays.

    The delay model is a callable ``delay(gate) -> float``; the default
    assigns one time unit to every gate (unit-delay model).  Slow gates --
    e.g. a gate whose output transition is delayed by an OBD defect -- can be
    modeled by supplying a larger delay for that gate, which is how the
    gate-level surrogate of the paper's transition-fault behaviour is built.
    """

    def __init__(
        self,
        circuit: LogicCircuit,
        delay_model: Callable[[object], float] | None = None,
    ):
        self.circuit = circuit
        self.delay_model = delay_model or (lambda gate: 1.0)

    def run(
        self,
        initial_pattern: Sequence[int],
        final_pattern: Sequence[int],
        launch_time: float = 0.0,
    ) -> TimingSimulationResult:
        """Apply *initial_pattern*, settle, then switch to *final_pattern*.

        Returns the full value history of every net.  The initial state is
        the zero-delay steady state of the first pattern; input changes are
        applied at *launch_time* and propagated with per-gate delays.  Both
        patterns must have one 0/1 bit per primary input
        (:class:`LogicCircuitError` otherwise).  Each event costs one heap
        operation and one evaluation per gate input it drives.
        """
        circuit = self.circuit
        steady = simulate_pattern(circuit, initial_pattern)
        final = _check_assignment(circuit, _pattern_assignment(circuit, final_pattern))
        histories: dict[str, list[tuple[float, int]]] = {
            net: [(0.0, steady[net])] for net in circuit.nets()
        }
        current = dict(steady)
        # The gates reading each net, one entry per pin, in declaration order.
        loads: dict[str, list[Gate]] = {net: [] for net in histories}
        for gate in circuit:
            for net in gate.inputs:
                loads[net].append(gate)

        # Events pop by (time, insertion order).  Each net's pending events,
        # oldest first, carry increasing times: a new event cancels those at
        # or after its own time and becomes the latest.  A cancelled event
        # stays in the heap and is skipped when it pops.
        heap: list[tuple[float, int, TimingEvent]] = []
        pending: dict[str, deque[tuple[int, TimingEvent]]] = {net: deque() for net in histories}
        cancelled: set[int] = set()
        sequence = count()

        def schedule(event: TimingEvent) -> None:
            entry = (event.time, next(sequence), event)
            heapq.heappush(heap, entry)
            pending[event.net].append(entry[1:])

        # Seed events with the primary-input changes.
        for net, bit in final.items():
            if bit != current[net]:
                schedule(TimingEvent(launch_time, net, bit))

        while heap:
            _, seq, event = heapq.heappop(heap)
            if seq in cancelled:
                cancelled.discard(seq)
                continue
            pending[event.net].popleft()
            if current[event.net] == event.value:
                continue
            current[event.net] = event.value
            histories[event.net].append((event.time, event.value))
            for gate in loads[event.net]:
                new_value = gate.evaluate(current)
                scheduled_time = event.time + self.delay_model(gate)
                # Compare against the value the output is already headed for
                # (last pending event), not its present value: a pending
                # transition launched by another fanin must survive a
                # re-evaluation that agrees with the current output.
                queue = pending[gate.output]
                projected = queue[-1][1].value if queue else current[gate.output]
                if new_value != projected:
                    # Only when scheduling a replacement do we cancel pending
                    # events, and only those at or after the new event's time
                    # (now stale); earlier-scheduled events stay intact.
                    while queue and queue[-1][1].time >= scheduled_time:
                        cancelled.add(queue.pop()[0])
                    schedule(TimingEvent(scheduled_time, gate.output, new_value))
        return TimingSimulationResult(histories=histories)
