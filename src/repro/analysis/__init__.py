"""Measurement helpers shared by the experiments: delays and VTC metrics."""

from .delay import TransitionMeasurement, measure_transition
from .vtc import VtcMetrics, analyze_vtc

__all__ = [
    "TransitionMeasurement",
    "measure_transition",
    "VtcMetrics",
    "analyze_vtc",
]
