"""Zero-delay logic simulation of a gate-level netlist."""

from __future__ import annotations

from typing import Mapping, Sequence

from .netlist import LogicCircuit, LogicCircuitError


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


def simulate_pattern(circuit: LogicCircuit, pattern: Sequence[int]) -> dict[str, int]:
    """Zero-delay simulation from a positional pattern over the primary inputs."""
    inputs = circuit.primary_inputs
    if len(pattern) != len(inputs):
        raise LogicCircuitError(
            f"pattern has {len(pattern)} bits but the circuit has {len(inputs)} inputs"
        )
    return simulate(circuit, dict(zip(inputs, pattern)))
