"""Gate types and Boolean evaluation.

This is the leaf module shared by the gate-level substrate
(:mod:`repro.logic`), the transistor-level cells (:mod:`repro.cells`) and the
fault/ATPG machinery: a single place that knows what each gate computes.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from itertools import product
from typing import Sequence


class GateType(str, Enum):
    """Supported combinational gate types."""

    BUF = "BUF"
    INV = "INV"
    AND2 = "AND2"
    AND3 = "AND3"
    OR2 = "OR2"
    OR3 = "OR3"
    NAND2 = "NAND2"
    NAND3 = "NAND3"
    NOR2 = "NOR2"
    NOR3 = "NOR3"
    XOR2 = "XOR2"
    XNOR2 = "XNOR2"
    AOI21 = "AOI21"
    OAI21 = "OAI21"

    @property
    def num_inputs(self) -> int:
        return _NUM_INPUTS[self]

    @property
    def is_inverting(self) -> bool:
        """True when the gate output is an inverting function of its inputs."""
        return self in _INVERTING

    def evaluate(self, inputs: Sequence[int]) -> int:
        """Boolean output (0/1) for the given input bits."""
        return evaluate_gate(self, inputs)


_NUM_INPUTS = {
    GateType.BUF: 1,
    GateType.INV: 1,
    GateType.AND2: 2,
    GateType.AND3: 3,
    GateType.OR2: 2,
    GateType.OR3: 3,
    GateType.NAND2: 2,
    GateType.NAND3: 3,
    GateType.NOR2: 2,
    GateType.NOR3: 3,
    GateType.XOR2: 2,
    GateType.XNOR2: 2,
    GateType.AOI21: 3,
    GateType.OAI21: 3,
}

_INVERTING = {
    GateType.INV,
    GateType.NAND2,
    GateType.NAND3,
    GateType.NOR2,
    GateType.NOR3,
    GateType.XNOR2,
    GateType.AOI21,
    GateType.OAI21,
}


def _check_bits(gate_type: GateType, inputs: Sequence[int]) -> tuple[int, ...]:
    bits = tuple(int(b) for b in inputs)
    if len(bits) != gate_type.num_inputs:
        raise ValueError(
            f"{gate_type.value} expects {gate_type.num_inputs} inputs, got {len(bits)}"
        )
    if any(b not in (0, 1) for b in bits):
        raise ValueError(f"inputs must be 0/1 bits, got {inputs!r}")
    return bits


def evaluate_gate(gate_type: GateType | str, inputs: Sequence[int]) -> int:
    """Evaluate a gate's Boolean function on concrete 0/1 inputs."""
    gate_type = GateType(gate_type)
    bits = _check_bits(gate_type, inputs)
    if gate_type == GateType.BUF:
        return bits[0]
    if gate_type == GateType.INV:
        return 1 - bits[0]
    if gate_type in (GateType.AND2, GateType.AND3):
        return int(all(bits))
    if gate_type in (GateType.OR2, GateType.OR3):
        return int(any(bits))
    if gate_type in (GateType.NAND2, GateType.NAND3):
        return int(not all(bits))
    if gate_type in (GateType.NOR2, GateType.NOR3):
        return int(not any(bits))
    if gate_type == GateType.XOR2:
        return bits[0] ^ bits[1]
    if gate_type == GateType.XNOR2:
        return 1 - (bits[0] ^ bits[1])
    if gate_type == GateType.AOI21:
        return int(not ((bits[0] and bits[1]) or bits[2]))
    if gate_type == GateType.OAI21:
        return int(not ((bits[0] or bits[1]) and bits[2]))
    raise ValueError(f"unhandled gate type {gate_type!r}")  # pragma: no cover


def truth_table(gate_type: GateType | str) -> dict[tuple[int, ...], int]:
    """Full truth table of a gate as a dict from input tuples to output bit."""
    gate_type = GateType(gate_type)
    n = gate_type.num_inputs
    table: dict[tuple[int, ...], int] = {}
    for value in range(2**n):
        bits = tuple((value >> (n - 1 - i)) & 1 for i in range(n))
        table[bits] = evaluate_gate(gate_type, bits)
    return table


#: The unknown value of :func:`ternary_table`.
UNKNOWN = 2


@lru_cache(maxsize=None)
def ternary_table(gate_type: GateType | str) -> dict[tuple[int, ...], int]:
    """Exact three-valued truth table of a gate, from :func:`evaluate_gate`.

    Keys are input tuples over 0, 1 and :data:`UNKNOWN`; the value is the
    output every 0/1 completion of the unknown inputs agrees on, else
    :data:`UNKNOWN`.  The two-rail and five-valued ATPG tables are read off
    it one rail at a time.
    """
    binary = truth_table(gate_type)
    table: dict[tuple[int, ...], int] = {}
    for values in product((0, 1, UNKNOWN), repeat=GateType(gate_type).num_inputs):
        outputs = {
            binary[bits]
            for bits in product(*((0, 1) if v == UNKNOWN else (v,) for v in values))
        }
        table[values] = outputs.pop() if len(outputs) == 1 else UNKNOWN
    return table


def controlling_value(gate_type: GateType | str) -> int | None:
    """The controlling input value of the gate, if it has one.

    A controlling value forces the output regardless of the other inputs
    (0 for AND/NAND, 1 for OR/NOR).  XOR-type and complex gates return None.
    """
    gate_type = GateType(gate_type)
    if gate_type in (GateType.AND2, GateType.AND3, GateType.NAND2, GateType.NAND3):
        return 0
    if gate_type in (GateType.OR2, GateType.OR3, GateType.NOR2, GateType.NOR3):
        return 1
    return None


def all_input_patterns(num_inputs: int) -> list[tuple[int, ...]]:
    """All 2**n input bit tuples in ascending binary order."""
    return [
        tuple((value >> (num_inputs - 1 - i)) & 1 for i in range(num_inputs))
        for value in range(2**num_inputs)
    ]
