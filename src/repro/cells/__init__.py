"""Transistor-level CMOS standard cells and measurement fixtures."""

from .._exports import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    ".builder": (
        "CellInstance", "TransistorSite", "add_transistor", "register_cell", "available_cells",
        "build_cell", "pin_names",
    ),
    ".characterize": (
        "HarnessCharacterization", "simulate_harnesses", "measure_harness", "characterize_harness",
        "characterize_harnesses",
    ),
    ".complex_gates": ("add_aoi21", "add_oai21"),
    ".fixtures": (
        "GateHarness", "TwoPatternSequence", "build_gate_harness", "build_nand_harness",
        "build_inverter_dc_circuit", "validate_sequence",
    ),
    ".inverter": ("add_inverter",),
    ".nand": ("add_nand",),
    ".nor": ("add_nor",),
    ".technology": ("Technology", "default_technology"),
})
