"""Characterization of transistor-level cells in the Figure-5 harness.

These routines run the harness built by :mod:`repro.cells.fixtures` and turn
the resulting waveforms into :class:`~repro.analysis.delay.TransitionMeasurement`
objects.  Fault injection is deliberately decoupled: callers that want to
characterize a defective gate pass a ``prepare`` callback (usually
:func:`repro.core.injection.inject_obd_defect`) that mutates the harness
circuit before simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..analysis.delay import TransitionMeasurement, measure_transition
from ..spice.analysis.transient import TransientResult, transient_sweep
from .fixtures import GateHarness

#: Callback applied to a harness before simulation (e.g. defect injection).
HarnessPreparer = Callable[[GateHarness], None]


@dataclass
class HarnessCharacterization:
    """Simulation output plus the measured output transition."""

    harness: GateHarness
    result: TransientResult
    measurement: TransitionMeasurement
    switching_pin: Optional[str]

    @property
    def delay(self) -> Optional[float]:
        return self.measurement.delay

    @property
    def classification(self) -> str:
        return self.measurement.classification


def _recorded_nodes(harness: GateHarness) -> tuple[str, ...]:
    """The DUT inputs and output and the load nodes, sorted."""
    record = set(harness.input_nodes.values())
    record.add(harness.output_node)
    record.update(harness.load_nodes)
    return tuple(sorted(record))


def simulate_harnesses(
    harnesses: Sequence[GateHarness], dt: float = 2e-12
) -> list[TransientResult]:
    """Run the transient simulation of every harness, in input order.

    Records the DUT inputs, the DUT output and the load nodes.  Harnesses
    with the same stop time and recorded nodes share one
    :func:`~repro.spice.analysis.transient.transient_sweep`.
    """
    sweeps: dict[tuple, list[int]] = {}
    for index, harness in enumerate(harnesses):
        key = (harness.t_stop, _recorded_nodes(harness))
        sweeps.setdefault(key, []).append(index)
    results: list[Optional[TransientResult]] = [None] * len(harnesses)
    for (t_stop, record), members in sweeps.items():
        circuits = [harnesses[i].circuit for i in members]
        runs = transient_sweep(circuits, t_stop=t_stop, dt=dt, record_nodes=record)
        for index, result in zip(members, runs):
            results[index] = result
    return results


def measure_harness(
    harness: GateHarness,
    result: TransientResult,
    capture_window: Optional[float] = None,
    switching_pin: Optional[str] = None,
) -> TransitionMeasurement:
    """Measure the expected output transition of a simulated harness.

    The launching edge is taken from *switching_pin* (default: the first pin
    that toggles between the two patterns).  The expected output edge comes
    from the gate's Boolean function.
    """
    pins = harness.switching_pins
    if switching_pin is None:
        if not pins:
            raise ValueError("harness sequence does not switch any input")
        switching_pin = pins[0]
    elif switching_pin not in harness.input_nodes:
        raise ValueError(f"unknown pin {switching_pin!r}")

    input_node = harness.input_nodes[switching_pin]
    input_edge = harness.pin_edge(switching_pin)
    if input_edge is None:
        raise ValueError(f"pin {switching_pin!r} does not switch in this sequence")

    return measure_transition(
        result.waveform(input_node),
        result.waveform(harness.output_node),
        input_edge=input_edge,
        output_edge=harness.output_edge,
        threshold=harness.tech.half_vdd,
        launch_after=harness.launch_time * 0.5,
        capture_window=capture_window,
    )


def characterize_harnesses(
    harnesses: Sequence[GateHarness],
    dt: float = 2e-12,
    capture_window: Optional[float] = None,
) -> list[HarnessCharacterization]:
    """Simulate and measure every (already prepared) harness, in input order."""
    results = simulate_harnesses(harnesses, dt=dt)
    return [
        _characterization(harness, result, capture_window)
        for harness, result in zip(harnesses, results)
    ]


def characterize_harness(
    harness: GateHarness,
    prepare: HarnessPreparer | None = None,
    dt: float = 2e-12,
    capture_window: Optional[float] = None,
) -> HarnessCharacterization:
    """Prepare (optionally inject a defect), simulate and measure a harness."""
    if prepare is not None:
        prepare(harness)
    return characterize_harnesses([harness], dt=dt, capture_window=capture_window)[0]


def _characterization(
    harness: GateHarness, result: TransientResult, capture_window: Optional[float]
) -> HarnessCharacterization:
    pins = harness.switching_pins
    switching_pin = pins[0] if pins else None
    measurement = (
        measure_harness(harness, result, capture_window=capture_window)
        if switching_pin is not None
        else TransitionMeasurement(
            delay=None,
            classification="no-launch-edge",
            launch_time=None,
            capture_deadline=result.time[-1],
            output_start=result.waveform(harness.output_node).initial_value(),
            output_final=result.waveform(harness.output_node).final_value(),
        )
    )
    return HarnessCharacterization(
        harness=harness,
        result=result,
        measurement=measurement,
        switching_pin=switching_pin,
    )
