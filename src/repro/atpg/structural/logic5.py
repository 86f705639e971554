"""Roth's five-valued logic (0, 1, X, D, D') for structural ATPG.

Unlike :mod:`repro.atpg.values`, which carries the (good, faulty) rails as
two independent three-valued bits, this module treats each signal as one of
exactly five symbolic values -- the calculus the D-algorithm and PODEM
frontiers are defined over:

======  ============================  =========================
value   meaning                       (good, faulty) pairs
======  ============================  =========================
``V0``  0 in both machines            {(0, 0)}
``V1``  1 in both machines            {(1, 1)}
``VD``  D: 1 good / 0 faulty          {(1, 0)}
``VDB`` D': 0 good / 1 faulty         {(0, 1)}
``VX``  unknown                       all four
======  ============================  =========================

Gate evaluation is the exact set semantics: evaluate the gate's Boolean
function on every concrete (good, faulty) pair combination the inputs
admit, and map the result set back to a five-valued symbol (a non-singleton
set is ``VX``).  That recovers every classical identity -- ``AND(D, D') = 0``,
``XOR(D, D) = 0``, ``NAND(D, 1) = D'`` -- for *all* gate types, complex
AOI/OAI cells included, from one generic construction.  Every symbol's pair
set is a product of a good set and a faulty set, so the image is the product
of the two rails' images: the tables are read off the exact three-valued
table :func:`repro.logic.gates.ternary_table`, one rail at a time.

The per-gate-type tables are built once and cached.  The D-algorithm
looks gates up in them directly; PODEM runs them through the circuit's
compiled implication kernel
(:meth:`repro.analysis_static.analysis.CircuitAnalysis.kernel`), which
flattens each table into one tuple indexed by ``a*25 + b*5 + c``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Iterable, Optional, Sequence

from ...logic.gates import UNKNOWN, GateType, ternary_table

#: The five values.  Small ints so they pack into tuples cheaply.
V0, V1, VX, VD, VDB = 0, 1, 2, 3, 4

FIVE_VALUES = (V0, V1, VX, VD, VDB)

#: The good and the faulty rail of each symbolic value as ternary codes
#: (the pair sets of the module table: ``VX`` leaves both rails unknown).
_GOOD_RAIL = (0, 1, UNKNOWN, 1, 0)
_FAULTY_RAIL = (0, 1, UNKNOWN, 0, 1)

#: Map a known (good, faulty) pair back to its symbolic value.
_PAIR_TO_VALUE = {(0, 0): V0, (1, 1): V1, (1, 0): VD, (0, 1): VDB}

#: Error values: good and faulty machines disagree.
ERRORS = (VD, VDB)


def is_error(value: int) -> bool:
    """True for D and D'."""
    return value == VD or value == VDB


def good_bit(value: int) -> Optional[int]:
    """The good-machine bit (None for X)."""
    if value == VX:
        return None
    return 1 if value in (V1, VD) else 0


def from_good_bit(bit: Optional[int]) -> int:
    """Lift a fault-free 0/1/None bit into the five-valued domain."""
    if bit is None:
        return VX
    return V1 if bit else V0


@lru_cache(maxsize=64)
def gate_table(gate_type: GateType) -> dict[tuple[int, ...], int]:
    """The full five-valued truth table of one gate type.

    Keys are input-value tuples over :data:`FIVE_VALUES`; the value is the
    exact five-valued output (set semantics over the concrete pairs): a
    known symbol when both rails of the ternary table are known, else ``VX``.
    """
    ternary = ternary_table(gate_type)
    return {
        values: _PAIR_TO_VALUE.get(
            (ternary[tuple(_GOOD_RAIL[v] for v in values)],
             ternary[tuple(_FAULTY_RAIL[v] for v in values)]),
            VX,
        )
        for values in product(FIVE_VALUES, repeat=GateType(gate_type).num_inputs)
    }


def evaluate5(gate_type: GateType, inputs: Sequence[int]) -> int:
    """Evaluate a gate on five-valued inputs."""
    return gate_table(gate_type)[tuple(inputs)]


@lru_cache(maxsize=4096)
def justification_cubes(
    gate_type: GateType, required: int, domains: tuple[tuple[int, ...], ...]
) -> tuple[tuple[int, ...], ...]:
    """All input-value tuples producing *required* at the gate output.

    ``domains[i]`` restricts input *i* to the given candidate values (a
    known value is a singleton domain; an unknown input outside the fault
    cone ranges over ``(V0, V1)``, inside the cone over ``(V0, V1, VD,
    VDB)``).  The result enumerates every completion whose exact
    five-valued evaluation equals *required* -- the branch set a complete
    justification decision must explore.
    """
    table = gate_table(gate_type)
    return tuple(
        combo for combo in product(*domains) if table[combo] == required
    )


def propagation_cubes(
    gate_type: GateType,
    inputs: Sequence[int],
    domains: Sequence[Iterable[int]],
) -> tuple[tuple[int, ...], ...]:
    """Completions of the unknown inputs that put an error on the output.

    *inputs* holds the gate's current five-valued input values; every ``VX``
    entry ranges over its entry of *domains*, the rest stay fixed.  Returns
    the completions whose output evaluates to D or D' -- the alternatives a
    D-frontier propagation decision branches over.
    """
    table = gate_table(gate_type)
    choice = [
        tuple(domain) if value == VX else (value,)
        for value, domain in zip(inputs, domains)
    ]
    return tuple(
        combo for combo in product(*choice) if table[combo] in ERRORS
    )
