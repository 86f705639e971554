"""Circuit elements understood by the MNA engine."""

from .base import GROUND_NAMES, Element, StampContext, Stamper, is_ground
from .capacitor import Capacitor
from .diode import THERMAL_VOLTAGE, Diode, DiodeBank, DiodeModel
from .mosfet import Mosfet, MosfetBank, MosfetModel, MosfetOperatingPoint
from .resistor import Resistor
from .sources import (
    CurrentSource,
    PiecewiseLinearWaveform,
    VoltageSource,
)

__all__ = [
    "Element",
    "StampContext",
    "Stamper",
    "GROUND_NAMES",
    "is_ground",
    "Resistor",
    "Capacitor",
    "Diode",
    "DiodeModel",
    "DiodeBank",
    "THERMAL_VOLTAGE",
    "Mosfet",
    "MosfetModel",
    "MosfetBank",
    "MosfetOperatingPoint",
    "VoltageSource",
    "CurrentSource",
    "PiecewiseLinearWaveform",
]
