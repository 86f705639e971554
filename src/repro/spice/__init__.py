"""A small, self-contained SPICE-like circuit simulator.

This package is the analog substrate of the reproduction: the paper's
experiments were run in HSPICE; here they run on a from-scratch modified
nodal analysis (MNA) engine with Level-1 MOSFETs, Shockley diodes, linear
resistors/capacitors and time-dependent independent sources.

Public entry points
-------------------
* :class:`Circuit` -- netlist container with convenience builders.
* :func:`operating_point` -- DC solution.
* :func:`dc_sweep` -- DC transfer curves (e.g. inverter VTC, Figure 4).
* :func:`transient` -- time-domain simulation (Table 1, Figures 6, 7, 9).
* :func:`transient_sweep` -- :func:`transient` of several circuits; equal-shape
  ones share one stamp plan and one lockstep Newton loop, of which a lone
  circuit is the group of one.
* :class:`Waveform` -- the measurement primitive.
"""

from .analysis import (
    DcSweepResult,
    MnaSystem,
    OperatingPoint,
    SolverOptions,
    TransientOptions,
    TransientResult,
    dc_sweep,
    operating_point,
    transient,
    transient_sweep,
)
from .elements import (
    Capacitor,
    CurrentSource,
    Diode,
    DiodeModel,
    Element,
    Mosfet,
    MosfetModel,
    PiecewiseLinearWaveform,
    Resistor,
    VoltageSource,
)
from .errors import AnalysisError, CircuitError, ConvergenceError, SpiceError
from .netlist import Circuit
from .waveform import Waveform

__all__ = [
    "Circuit",
    "Element",
    "Resistor",
    "Capacitor",
    "Diode",
    "DiodeModel",
    "Mosfet",
    "MosfetModel",
    "VoltageSource",
    "CurrentSource",
    "PiecewiseLinearWaveform",
    "MnaSystem",
    "SolverOptions",
    "operating_point",
    "OperatingPoint",
    "dc_sweep",
    "DcSweepResult",
    "transient",
    "transient_sweep",
    "TransientOptions",
    "TransientResult",
    "Waveform",
    "SpiceError",
    "CircuitError",
    "ConvergenceError",
    "AnalysisError",
]
