"""Transistor-level CMOS standard cells and measurement fixtures."""

from .builder import (
    CellInstance,
    TransistorSite,
    add_transistor,
    available_cells,
    build_cell,
    pin_names,
    register_cell,
)
from .characterize import (
    HarnessCharacterization,
    characterize_harness,
    characterize_harnesses,
    measure_harness,
    simulate_harnesses,
)
from .complex_gates import add_aoi21, add_oai21
from .fixtures import (
    GateHarness,
    TwoPatternSequence,
    build_gate_harness,
    build_inverter_dc_circuit,
    build_nand_harness,
    validate_sequence,
)
from .inverter import add_inverter
from .nand import add_nand
from .nor import add_nor
from .technology import Technology, default_technology

__all__ = [
    "Technology",
    "default_technology",
    "CellInstance",
    "TransistorSite",
    "add_transistor",
    "register_cell",
    "available_cells",
    "build_cell",
    "pin_names",
    "add_inverter",
    "add_nand",
    "add_nor",
    "add_aoi21",
    "add_oai21",
    "GateHarness",
    "TwoPatternSequence",
    "build_gate_harness",
    "build_nand_harness",
    "build_inverter_dc_circuit",
    "validate_sequence",
    "HarnessCharacterization",
    "simulate_harnesses",
    "measure_harness",
    "characterize_harness",
    "characterize_harnesses",
]
