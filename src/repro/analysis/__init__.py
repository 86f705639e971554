"""Measurement helpers shared by the experiments: delays and VTC metrics."""

from .._exports import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    ".delay": ("TransitionMeasurement", "measure_transition"),
    ".vtc": ("VtcMetrics", "analyze_vtc"),
})
