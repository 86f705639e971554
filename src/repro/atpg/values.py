"""Five-valued logic (0, 1, X, D, D-bar) used by the PODEM engine.

A signal value carries the pair (good-machine value, faulty-machine value),
each of which is 0, 1 or unknown.  ``D`` is (1, 0) and ``D-bar`` is (0, 1);
a fault is observable when a primary output carries ``D`` or ``D-bar``.

:func:`evaluate_gate_values` is the reference definition of two-rail gate
evaluation; the PODEM engine in :mod:`repro.atpg.podem` does not call it
during search but builds its per-gate-type lookup tables from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..logic.gates import GateType

Bit = Optional[int]  # 0, 1 or None (unknown)


@dataclass(frozen=True)
class LogicValue:
    """A (good, faulty) value pair."""

    good: Bit
    faulty: Bit

    @property
    def is_known(self) -> bool:
        return self.good is not None and self.faulty is not None

    @property
    def is_error(self) -> bool:
        """True for D or D-bar (good and faulty values are known and differ)."""
        return self.is_known and self.good != self.faulty

    def __str__(self) -> str:
        if self.good is None and self.faulty is None:
            return "X"
        if self.is_error:
            return "D" if self.good == 1 else "D'"
        if self.good is None or self.faulty is None:
            return f"({self.good},{self.faulty})"
        return str(self.good)


ZERO = LogicValue(0, 0)
ONE = LogicValue(1, 1)
X = LogicValue(None, None)
D = LogicValue(1, 0)
DBAR = LogicValue(0, 1)


def from_bit(bit: Bit) -> LogicValue:
    """Lift a plain 0/1/None bit into a fault-free five-valued value."""
    if bit is None:
        return X
    return ONE if bit else ZERO


def _and3(bits: Sequence[Bit]) -> Bit:
    """Three-valued AND."""
    if any(b == 0 for b in bits):
        return 0
    if any(b is None for b in bits):
        return None
    return 1


def _or3(bits: Sequence[Bit]) -> Bit:
    """Three-valued OR."""
    if any(b == 1 for b in bits):
        return 1
    if any(b is None for b in bits):
        return None
    return 0


def _not3(bit: Bit) -> Bit:
    return None if bit is None else 1 - bit


def _xor3(a: Bit, b: Bit) -> Bit:
    if a is None or b is None:
        return None
    return a ^ b


def _evaluate_three_valued(gate_type: GateType, bits: Sequence[Bit]) -> Bit:
    if gate_type == GateType.BUF:
        return bits[0]
    if gate_type == GateType.INV:
        return _not3(bits[0])
    if gate_type in (GateType.AND2, GateType.AND3):
        return _and3(bits)
    if gate_type in (GateType.OR2, GateType.OR3):
        return _or3(bits)
    if gate_type in (GateType.NAND2, GateType.NAND3):
        return _not3(_and3(bits))
    if gate_type in (GateType.NOR2, GateType.NOR3):
        return _not3(_or3(bits))
    if gate_type == GateType.XOR2:
        return _xor3(bits[0], bits[1])
    if gate_type == GateType.XNOR2:
        return _not3(_xor3(bits[0], bits[1]))
    if gate_type == GateType.AOI21:
        return _not3(_or3([_and3(bits[:2]), bits[2]]))
    if gate_type == GateType.OAI21:
        return _not3(_and3([_or3(bits[:2]), bits[2]]))
    raise ValueError(f"unhandled gate type {gate_type!r}")  # pragma: no cover


def evaluate_gate_values(gate_type: GateType | str, inputs: Sequence[LogicValue]) -> LogicValue:
    """Evaluate a gate on five-valued inputs (good and faulty rails separately)."""
    gate_type = GateType(gate_type)
    good = _evaluate_three_valued(gate_type, [v.good for v in inputs])
    faulty = _evaluate_three_valued(gate_type, [v.faulty for v in inputs])
    return LogicValue(good, faulty)


def noncontrolling_value(gate_type: GateType | str) -> Bit:
    """Non-controlling input value of a gate (None for XOR-type gates)."""
    gate_type = GateType(gate_type)
    if gate_type in (GateType.AND2, GateType.AND3, GateType.NAND2, GateType.NAND3):
        return 1
    if gate_type in (GateType.OR2, GateType.OR3, GateType.NOR2, GateType.NOR3):
        return 0
    if gate_type in (GateType.INV, GateType.BUF):
        return 1
    # Complex / XOR gates: no single non-controlling value.
    return None


def gate_inverts(gate_type: GateType | str) -> bool:
    """True when the gate's output polarity is inverted w.r.t. its inputs."""
    return GateType(gate_type).is_inverting
