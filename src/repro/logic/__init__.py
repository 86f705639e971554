"""Gate-level substrate: netlists, logic simulation, circuits, .bench I/O."""

from .._exports import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    ".bench": ("parse_bench", "load_bench", "write_bench", "save_bench", "structurally_equal"),
    ".circuits": (
        "full_adder_sum", "full_adder", "ripple_carry_adder", "c17", "nand_chain", "two_to_one_mux",
    ),
    ".compiled": (
        "DEFAULT_WORD_BITS", "DEFAULT_NUMPY_WORD_BITS", "BACKENDS", "CompiledCircuit",
        "compile_circuit", "pack_pattern_blocks", "pack_pair_blocks", "pack_pattern_blocks_array",
        "pack_pair_blocks_array", "iter_bits",
    ),
    ".expand": (
        "ExpandedCircuit", "expand_to_transistors", "two_pattern_input_waveforms",
        "EXPANDABLE_TYPES",
    ),
    ".gates": (
        "GateType", "evaluate_gate", "truth_table", "controlling_value", "all_input_patterns",
    ),
    ".generators": (
        "GENERATOR_FAMILIES", "DEFAULT_DAG_GATE_TYPES", "OBD_DAG_GATE_TYPES", "generate",
        "parity_tree", "carry_lookahead_adder", "array_multiplier", "magnitude_comparator",
        "alu_slice", "random_dag",
    ),
    ".netlist": ("Gate", "LogicCircuit", "LogicCircuitError", "NetIndex", "CircuitStats"),
    ".simulator": ("simulate", "simulate_pattern"),
})
