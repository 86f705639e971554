"""The event-driven timing simulator against a straightforward reference.

:func:`reference_histories` is the simulator's original scheduler: one
pending-event list re-sorted per event, loads found by scanning every gate.
The heap-based simulator must produce the same net histories, event for
event, under every delay model.
"""

from __future__ import annotations

import random

import pytest

from repro.campaign import resolve_circuit
from repro.logic import EventDrivenSimulator, LogicCircuitError, simulate_pattern
from repro.logic.simulator import TimingEvent

CIRCUITS = ("c17", "rdag:60,4", "rdag:200,4")


def reference_histories(
    circuit, delay_model, initial_pattern, final_pattern, launch_time=0.0, cancelled=None
):
    """Net histories of one run; *cancelled* collects, per replacement
    event, how many pending events it cancelled."""
    steady = simulate_pattern(circuit, initial_pattern)
    histories = {net: [(0.0, steady[net])] for net in circuit.nets()}
    current = dict(steady)
    events = []
    for net, bit in zip(circuit.primary_inputs, final_pattern):
        if int(bit) != current[net]:
            events.append(TimingEvent(launch_time, net, int(bit)))
    while events:
        events.sort(key=lambda e: e.time)
        event = events.pop(0)
        if current[event.net] == event.value:
            continue
        current[event.net] = event.value
        histories[event.net].append((event.time, event.value))
        for gate, _pin in circuit.loads_of(event.net):
            new_value = gate.evaluate(current)
            scheduled_time = event.time + delay_model(gate)
            pending = [e for e in events if e.net == gate.output]
            projected = max(pending, key=lambda e: e.time).value if pending else current[gate.output]
            if new_value != projected:
                kept = [e for e in events if e.net != gate.output or e.time < scheduled_time]
                if cancelled is not None:
                    cancelled.append(len(events) - len(kept))
                events = kept
                events.append(TimingEvent(scheduled_time, gate.output, new_value))
    return histories


def unit_delay():
    return lambda gate: 1.0


def per_gate_delay():
    """A fixed delay per gate, from its name: many equal-time ties."""
    return lambda gate: 0.5 + 0.25 * (sum(map(ord, gate.name)) % 5)


def jittered_delay():
    """A fresh random delay on every call, so a gate's events can overtake
    each other and one replacement cancels several pending events."""
    rng = random.Random(11)
    return lambda gate: rng.choice((0.25, 0.5, 1.0, 2.0, 4.0))


DELAY_MODELS = {"unit": unit_delay, "per-gate": per_gate_delay, "jittered": jittered_delay}


def pattern_pairs(circuit, seed):
    n = len(circuit.primary_inputs)
    rng = random.Random(seed)
    pairs = [((0,) * n, (1,) * n), ((1,) * n, (0,) * n)]
    for _ in range(4):
        pairs.append(
            (tuple(rng.randint(0, 1) for _ in range(n)), tuple(rng.randint(0, 1) for _ in range(n)))
        )
    return pairs


@pytest.mark.parametrize("delay", sorted(DELAY_MODELS))
@pytest.mark.parametrize("ref", CIRCUITS)
def test_histories_match_reference(ref, delay):
    circuit = resolve_circuit(ref)
    transitions = 0
    for first, second in pattern_pairs(circuit, seed=len(ref)):
        expected = reference_histories(circuit, DELAY_MODELS[delay](), first, second, 0.5)
        result = EventDrivenSimulator(circuit, DELAY_MODELS[delay]()).run(first, second, 0.5)
        assert result.histories == expected, (first, second)
        transitions += sum(len(history) - 1 for history in expected.values())
    assert transitions > 0


@pytest.mark.parametrize("delay, most", [("per-gate", 1), ("jittered", 2)])
def test_delay_models_exercise_cancellation(delay, most):
    """Guards the cases above against vacuity: a fixed per-gate delay
    cancels at most the one latest pending event, a jittered one cancels
    several at once."""
    circuit = resolve_circuit("rdag:200,4")
    cancelled: list[int] = []
    for first, second in pattern_pairs(circuit, seed=len("rdag:200,4")):
        reference_histories(circuit, DELAY_MODELS[delay](), first, second, cancelled=cancelled)
    assert max(cancelled) >= most
    if delay == "per-gate":
        assert max(cancelled) == 1


@pytest.mark.parametrize("final", [(1, 1), (0, 1, 0, 1, 0, 1)])
def test_final_pattern_of_wrong_length_rejected(c17_circuit, final):
    with pytest.raises(LogicCircuitError, match="5 inputs"):
        EventDrivenSimulator(c17_circuit).run((0,) * 5, final)


@pytest.mark.parametrize("bit", [2, -1])
def test_final_pattern_bit_must_be_0_or_1(c17_circuit, bit):
    with pytest.raises(LogicCircuitError, match="must be 0 or 1"):
        EventDrivenSimulator(c17_circuit).run((0,) * 5, (1, bit, 0, 0, 0))
