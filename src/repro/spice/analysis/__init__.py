"""Analyses: operating point, DC sweep and transient simulation, all on one
MNA stamp plan and one Newton loop."""

from .dc_sweep import DcSweepResult, dc_sweep
from .mna import MnaSystem
from .op import OperatingPoint, operating_point
from .solver import SolveResult, SolverOptions, newton_solve, robust_solve
from .transient import TransientOptions, TransientResult, transient, transient_sweep

__all__ = [
    "MnaSystem",
    "SolverOptions",
    "SolveResult",
    "newton_solve",
    "robust_solve",
    "OperatingPoint",
    "operating_point",
    "DcSweepResult",
    "dc_sweep",
    "TransientOptions",
    "TransientResult",
    "transient",
    "transient_sweep",
]
