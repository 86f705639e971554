"""Library of gate-level circuits used by the experiments and tests.

The centrepiece is the paper's example circuit (Section 4.3, Figure 8): the
sum output of a full adder implemented with 2-input NAND gates and inverters,
without optimization, giving a logic depth of 9.  The paper does not publish
the exact netlist; :func:`full_adder_sum` is a documented reconstruction that
matches the two structural numbers the experiments depend on -- **14 NAND
gates** (hence 14 x 4 = 56 OBD defect sites in NAND gates) and **logic depth
9** -- and contains the kind of intentional redundancy the paper mentions.
"""

from __future__ import annotations

from .gates import GateType
from .netlist import LogicCircuit, LogicCircuitError


def full_adder_sum() -> LogicCircuit:
    """The paper's Figure-8 circuit: sum bit of a full adder, NAND/INV only.

    The function computed is ``sum = A xor B xor C`` expressed as the
    unoptimized sum of its four minterms::

        sum = A'B'C + A'BC' + AB'C' + ABC

    Mapping choices (a naive technology mapper without Boolean optimization):

    * each literal complement is an inverter;
    * each 3-input product is built as ``INV(NAND(l1, l2))`` followed by
      ``NAND(., l3)`` and a final inverter, i.e. two NAND2 and two INV per
      minterm;
    * each 2-input OR is ``NAND(INV(x), NAND(y, y))`` -- one input complement
      implemented with an inverter, the other with a NAND used as an
      inverter, as a redundancy-oblivious mapper would emit.

    Resulting structure: 14 NAND2 + 14 INV, logic depth 9.  (The paper quotes
    14 NAND gates and 11 inverters; the reconstruction matches the NAND count
    -- and therefore the 56 NAND defect sites -- and the logic depth exactly,
    but carries three extra inverters because the exact netlist is not
    recoverable from the paper.)
    """
    c = LogicCircuit("fa_sum")
    a, b, ci = c.add_inputs(["A", "B", "C"])
    c.add_output("SUM")

    # Literal complements.
    c.add_gate("inv_a", GateType.INV, [a], "a_n")
    c.add_gate("inv_b", GateType.INV, [b], "b_n")
    c.add_gate("inv_c", GateType.INV, [ci], "c_n")

    # Minterms: (first literal, second literal, third literal).
    minterms = {
        "m1": ("a_n", "b_n", ci),   # A' B' C
        "m2": ("a_n", b, "c_n"),    # A' B  C'
        "m3": (a, "b_n", "c_n"),    # A  B' C'
        "m4": (a, b, ci),           # A  B  C
    }
    for label, (l1, l2, l3) in minterms.items():
        c.add_gate(f"nand_{label}_ab", GateType.NAND2, [l1, l2], f"{label}_ab_n")
        c.add_gate(f"inv_{label}_ab", GateType.INV, [f"{label}_ab_n"], f"{label}_ab")
        c.add_gate(f"nand_{label}", GateType.NAND2, [f"{label}_ab", l3], f"{label}_n")
        c.add_gate(f"inv_{label}", GateType.INV, [f"{label}_n"], label)

    # OR tree: or(x, y) = NAND(INV(x), NAND(y, y)).
    def add_or(tag: str, x: str, y: str, output: str) -> None:
        c.add_gate(f"inv_{tag}", GateType.INV, [x], f"{tag}_xn")
        c.add_gate(f"nand_{tag}_self", GateType.NAND2, [y, y], f"{tag}_yn")
        c.add_gate(f"nand_{tag}", GateType.NAND2, [f"{tag}_xn", f"{tag}_yn"], output)

    add_or("or12", "m1", "m2", "z1")
    add_or("or34", "m3", "m4", "z2")
    add_or("or_final", "z1", "z2", "SUM")

    c.validate()
    return c


def full_adder() -> LogicCircuit:
    """A complete full adder (sum and carry) in NAND/INV form.

    Used by the wider ATPG and fault-simulation tests; the sum cone follows
    the same unoptimized construction as :func:`full_adder_sum`, the carry is
    the standard NAND-only majority implementation.
    """
    c = LogicCircuit("full_adder")
    a, b, ci = c.add_inputs(["A", "B", "C"])
    c.add_output("SUM")
    c.add_output("COUT")

    # Sum cone (compact XOR-of-XOR NAND mapping).
    def add_xor(tag: str, x: str, y: str, output: str) -> None:
        c.add_gate(f"{tag}_n1", GateType.NAND2, [x, y], f"{tag}_t")
        c.add_gate(f"{tag}_n2", GateType.NAND2, [x, f"{tag}_t"], f"{tag}_u")
        c.add_gate(f"{tag}_n3", GateType.NAND2, [y, f"{tag}_t"], f"{tag}_v")
        c.add_gate(f"{tag}_n4", GateType.NAND2, [f"{tag}_u", f"{tag}_v"], output)

    add_xor("xor1", a, b, "axb")
    add_xor("xor2", "axb", ci, "SUM")

    # Carry = NAND(NAND(a, b), NAND(axb, c)).
    c.add_gate("carry_ab", GateType.NAND2, [a, b], "ab_n")
    c.add_gate("carry_axbc", GateType.NAND2, ["axb", ci], "axbc_n")
    c.add_gate("carry_out", GateType.NAND2, ["ab_n", "axbc_n"], "COUT")

    c.validate()
    return c


def ripple_carry_adder(bits: int) -> LogicCircuit:
    """An N-bit ripple-carry adder built from NAND/INV full adders.

    Provides a scalable combinational workload for ATPG-complexity and
    fault-simulation benchmarks.
    """
    if bits < 1:
        raise LogicCircuitError(f"ripple-carry adder needs bits >= 1, got {bits}")
    c = LogicCircuit(f"rca{bits}")
    a_bits = c.add_inputs([f"A{i}" for i in range(bits)])
    b_bits = c.add_inputs([f"B{i}" for i in range(bits)])
    cin = c.add_input("CIN")
    for i in range(bits):
        c.add_output(f"S{i}")
    c.add_output("COUT")

    def add_xor(tag: str, x: str, y: str, output: str) -> None:
        c.add_gate(f"{tag}_n1", GateType.NAND2, [x, y], f"{tag}_t")
        c.add_gate(f"{tag}_n2", GateType.NAND2, [x, f"{tag}_t"], f"{tag}_u")
        c.add_gate(f"{tag}_n3", GateType.NAND2, [y, f"{tag}_t"], f"{tag}_v")
        c.add_gate(f"{tag}_n4", GateType.NAND2, [f"{tag}_u", f"{tag}_v"], output)

    carry = cin
    for i in range(bits):
        a, b = a_bits[i], b_bits[i]
        add_xor(f"fa{i}_x1", a, b, f"fa{i}_axb")
        add_xor(f"fa{i}_x2", f"fa{i}_axb", carry, f"S{i}")
        c.add_gate(f"fa{i}_cab", GateType.NAND2, [a, b], f"fa{i}_ab_n")
        c.add_gate(f"fa{i}_cax", GateType.NAND2, [f"fa{i}_axb", carry], f"fa{i}_ax_n")
        next_carry = "COUT" if i == bits - 1 else f"fa{i}_cout"
        c.add_gate(f"fa{i}_cout_g", GateType.NAND2, [f"fa{i}_ab_n", f"fa{i}_ax_n"], next_carry)
        carry = next_carry

    c.validate()
    return c


def c17() -> LogicCircuit:
    """The classic ISCAS-85 C17 benchmark (6 NAND2 gates).

    A small standard circuit useful for exercising ATPG and fault simulation
    against well-known results.
    """
    c = LogicCircuit("c17")
    c.add_inputs(["G1", "G2", "G3", "G6", "G7"])
    c.add_output("G22")
    c.add_output("G23")
    c.add_gate("g10", GateType.NAND2, ["G1", "G3"], "G10")
    c.add_gate("g11", GateType.NAND2, ["G3", "G6"], "G11")
    c.add_gate("g16", GateType.NAND2, ["G2", "G11"], "G16")
    c.add_gate("g19", GateType.NAND2, ["G11", "G7"], "G19")
    c.add_gate("g22", GateType.NAND2, ["G10", "G16"], "G22")
    c.add_gate("g23", GateType.NAND2, ["G16", "G19"], "G23")
    c.validate()
    return c


def nand_chain(length: int) -> LogicCircuit:
    """A chain of 2-input NAND gates (second input tied to a shared enable).

    Simple deep circuit used for path-depth and propagation tests.
    """
    if length < 1:
        raise LogicCircuitError(f"NAND chain needs length >= 1, got {length}")
    c = LogicCircuit(f"nand_chain{length}")
    data = c.add_input("D")
    enable = c.add_input("EN")
    c.add_output("OUT")
    previous = data
    for i in range(length):
        output = "OUT" if i == length - 1 else f"n{i}"
        c.add_gate(f"g{i}", GateType.NAND2, [previous, enable], output)
        previous = output
    c.validate()
    return c


def two_to_one_mux() -> LogicCircuit:
    """A 2:1 multiplexer in NAND/INV form (classic redundant-free circuit)."""
    c = LogicCircuit("mux2")
    c.add_inputs(["D0", "D1", "S"])
    c.add_output("Y")
    c.add_gate("inv_s", GateType.INV, ["S"], "s_n")
    c.add_gate("n0", GateType.NAND2, ["D0", "s_n"], "t0")
    c.add_gate("n1", GateType.NAND2, ["D1", "S"], "t1")
    c.add_gate("n2", GateType.NAND2, ["t0", "t1"], "Y")
    c.validate()
    return c
