"""Circuit elements understood by the MNA engine."""

from ..._exports import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    ".base": ("Element", "StampContext", "Stamper", "GROUND_NAMES", "is_ground"),
    ".capacitor": ("Capacitor",),
    ".diode": ("Diode", "DiodeModel", "DiodeBank", "THERMAL_VOLTAGE"),
    ".mosfet": ("Mosfet", "MosfetModel", "MosfetBank", "MosfetOperatingPoint"),
    ".resistor": ("Resistor",),
    ".sources": ("VoltageSource", "CurrentSource", "PiecewiseLinearWaveform"),
})
