"""Parametric benchmark-circuit generators.

The paper's experiments run on a handful of hand-built circuits (the
full-adder reconstruction, C17, a ripple-carry adder).  This module opens
up realistic scalable workloads for the fault-simulation and campaign
layers: classic arithmetic/datapath families with known Boolean behaviour
(so tests can check them against Python integers) plus a seeded random-DAG
generator for property-based serial-vs-packed equivalence testing.

Every generator validates its size parameters and raises
:class:`~repro.logic.netlist.LogicCircuitError` on degenerate requests
(zero widths, zero gates, an empty gate palette) instead of crashing or
emitting an unusable netlist.  All families are registered in
:data:`GENERATOR_FAMILIES` so the campaign circuit registry and the
benchmark harness can enumerate them by name.
"""

from __future__ import annotations

import random
from typing import Callable, Sequence

from .gates import GateType
from .netlist import LogicCircuit, LogicCircuitError


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise LogicCircuitError(message)


# --------------------------------------------------------------------------- #
# Reduction-tree helpers (fixed 2/3-input gate arities).
# --------------------------------------------------------------------------- #
def _reduce_tree(
    c: LogicCircuit,
    nets: Sequence[str],
    two: GateType,
    three: GateType,
    output: str,
    tag: str,
) -> str:
    """Balanced AND/OR-style reduction of *nets* into *output*.

    Consumes the net list in chunks of three (two for the last pair) until
    one gate producing *output* remains; intermediate nets are named
    ``<tag>_t<i>``.  A single net degenerates to a BUF driving *output*.
    """
    current = list(nets)
    if len(current) == 1:
        c.add_gate(f"{tag}_buf", GateType.BUF, current, output)
        return output
    aux = 0
    while True:
        take = 3 if len(current) >= 3 and len(current) != 4 else 2
        chunk, current = current[:take], current[take:]
        gate_type = three if take == 3 else two
        if not current:
            c.add_gate(f"{tag}_t{aux}_g", gate_type, chunk, output)
            return output
        net = f"{tag}_t{aux}"
        aux += 1
        c.add_gate(f"{net}_g", gate_type, chunk, net)
        current.append(net)


def _and_tree(c: LogicCircuit, nets: Sequence[str], output: str, tag: str) -> str:
    return _reduce_tree(c, nets, GateType.AND2, GateType.AND3, output, tag)


def _or_tree(c: LogicCircuit, nets: Sequence[str], output: str, tag: str) -> str:
    return _reduce_tree(c, nets, GateType.OR2, GateType.OR3, output, tag)


def _half_adder(c: LogicCircuit, tag: str, a: str, b: str, s: str, cy: str) -> None:
    c.add_gate(f"{tag}_s", GateType.XOR2, [a, b], s)
    c.add_gate(f"{tag}_c", GateType.AND2, [a, b], cy)


def _full_adder(c: LogicCircuit, tag: str, a: str, b: str, cin: str, s: str, cy: str) -> None:
    c.add_gate(f"{tag}_x1", GateType.XOR2, [a, b], f"{tag}_ab")
    c.add_gate(f"{tag}_s", GateType.XOR2, [f"{tag}_ab", cin], s)
    c.add_gate(f"{tag}_a1", GateType.AND2, [a, b], f"{tag}_g")
    c.add_gate(f"{tag}_a2", GateType.AND2, [f"{tag}_ab", cin], f"{tag}_p")
    c.add_gate(f"{tag}_c", GateType.OR2, [f"{tag}_g", f"{tag}_p"], cy)


# --------------------------------------------------------------------------- #
# Arithmetic / datapath families.
# --------------------------------------------------------------------------- #
def parity_tree(width: int) -> LogicCircuit:
    """Balanced XOR tree computing the parity of *width* input bits.

    The classic observability workload: every input is on a reconvergence-
    free path to the single output ``PAR``, so stuck-at coverage is total
    and the tree depth grows as ``log2(width)``.
    """
    _require(width >= 2, f"parity tree needs width >= 2, got {width}")
    c = LogicCircuit(f"parity{width}")
    nets = c.add_inputs([f"D{i}" for i in range(width)])
    c.add_output("PAR")
    level = 0
    while len(nets) > 1:
        next_nets: list[str] = []
        for j in range(0, len(nets) - 1, 2):
            out = "PAR" if len(nets) == 2 else f"p{level}_{j // 2}"
            c.add_gate(f"x{level}_{j // 2}", GateType.XOR2, [nets[j], nets[j + 1]], out)
            next_nets.append(out)
        if len(nets) % 2:
            next_nets.append(nets[-1])
        nets = next_nets
        level += 1
    c.validate()
    return c


def carry_lookahead_adder(bits: int) -> LogicCircuit:
    """N-bit adder with fully expanded carry lookahead.

    Each carry is the two-level sum-of-products
    ``c[i+1] = g[i] + p[i]g[i-1] + ... + p[i]...p[0]c0`` built from
    AND/OR reduction trees, so the carry logic is shallow but wide -- the
    opposite structural profile of :func:`~repro.logic.circuits.
    ripple_carry_adder` and a heavy fan-out workload for the packed engine.
    """
    _require(bits >= 1, f"carry-lookahead adder needs bits >= 1, got {bits}")
    c = LogicCircuit(f"cla{bits}")
    a = c.add_inputs([f"A{i}" for i in range(bits)])
    b = c.add_inputs([f"B{i}" for i in range(bits)])
    cin = c.add_input("CIN")
    for i in range(bits):
        c.add_output(f"S{i}")
    c.add_output("COUT")

    for i in range(bits):
        c.add_gate(f"p{i}_g", GateType.XOR2, [a[i], b[i]], f"p{i}")
        c.add_gate(f"g{i}_g", GateType.AND2, [a[i], b[i]], f"g{i}")

    carries = [cin]
    for i in range(bits):
        # Product terms of c[i+1]: g[i], p[i]g[i-1], ..., p[i]..p[0]c0.
        terms: list[str] = [f"g{i}"]
        for j in range(i - 1, -1, -1):
            factors = [f"p{k}" for k in range(j + 1, i + 1)] + [f"g{j}"]
            terms.append(_and_tree(c, factors, f"c{i + 1}_m{j}", f"c{i + 1}_m{j}"))
        factors = [f"p{k}" for k in range(i + 1)] + [cin]
        terms.append(_and_tree(c, factors, f"c{i + 1}_mc", f"c{i + 1}_mc"))
        carry = "COUT" if i == bits - 1 else f"c{i + 1}"
        _or_tree(c, terms, carry, f"c{i + 1}_or")
        carries.append(carry)

    for i in range(bits):
        c.add_gate(f"s{i}_g", GateType.XOR2, [f"p{i}", carries[i]], f"S{i}")

    c.validate()
    return c


def array_multiplier(bits: int) -> LogicCircuit:
    """N x N array multiplier (AND partial products + carry-save adder rows).

    Produces the ``2N``-bit product ``P`` of inputs ``A`` and ``B``.  The
    quadratic gate count and long reconvergent carry chains make this the
    largest-footprint family per parameter step.
    """
    _require(bits >= 1, f"array multiplier needs bits >= 1, got {bits}")
    c = LogicCircuit(f"mult{bits}")
    a = c.add_inputs([f"A{i}" for i in range(bits)])
    b = c.add_inputs([f"B{i}" for i in range(bits)])
    for i in range(2 * bits):
        c.add_output(f"P{i}")

    if bits == 1:
        c.add_gate("pp_0_0", GateType.AND2, [a[0], b[0]], "P0")
        # The high product bit of a 1x1 multiply is constant zero; derive it
        # structurally so the netlist stays closed without constant nets.
        c.add_gate("p1_x", GateType.XOR2, ["P0", "P0"], "P1")
        c.validate()
        return c

    # Partial products pp[i][j] = a[j] & b[i].
    pp = [[f"pp_{i}_{j}" for j in range(bits)] for i in range(bits)]
    for i in range(bits):
        for j in range(bits):
            c.add_gate(f"pp_{i}_{j}_g", GateType.AND2, [a[j], b[i]], pp[i][j])

    # Row 0 contributes P0 directly.
    c.add_gate("p0_buf", GateType.BUF, [pp[0][0]], "P0")
    # Running sum bits s[j] hold the (j+1)-th column value after each row.
    acc = pp[0][1:]  # bits 1..N-1 of row 0
    for i in range(1, bits):
        row = pp[i]
        sums: list[str] = []
        carry: str | None = None
        for j in range(bits):
            s = f"P{i}" if j == 0 else f"r{i}_s{j}"
            tag = f"r{i}_c{j}"
            operands = [row[j]]
            if j < len(acc):
                operands.append(acc[j])
            if carry is not None:
                operands.append(carry)
            if len(operands) == 1:
                c.add_gate(f"{tag}_buf", GateType.BUF, operands, s)
                carry = None
            elif len(operands) == 2:
                _half_adder(c, tag, operands[0], operands[1], s, f"{tag}_co")
                carry = f"{tag}_co"
            else:
                _full_adder(c, tag, operands[0], operands[1], operands[2], s, f"{tag}_co")
                carry = f"{tag}_co"
            sums.append(s)
        if carry is not None:
            sums.append(carry)
        acc = sums[1:]  # drop the product bit emitted this row

    # Remaining accumulator bits are the top product bits.
    for offset, net in enumerate(acc):
        c.add_gate(f"ptop_{offset}", GateType.BUF, [net], f"P{bits + offset}")
    # Any still-missing high bits (possible when the final carry chain is
    # short) would leave outputs undriven; validate() guards against it.
    c.validate()
    return c


def magnitude_comparator(bits: int) -> LogicCircuit:
    """N-bit magnitude comparator with ``EQ``, ``GT`` and ``LT`` outputs.

    ``GT`` is the standard priority chain: A > B iff some bit position i
    has ``a[i] & ~b[i]`` while all higher positions are bit-equal.  ``LT``
    is derived as ``NOR(EQ, GT)``.
    """
    _require(bits >= 1, f"magnitude comparator needs bits >= 1, got {bits}")
    c = LogicCircuit(f"cmp{bits}")
    a = c.add_inputs([f"A{i}" for i in range(bits)])
    b = c.add_inputs([f"B{i}" for i in range(bits)])
    c.add_output("EQ")
    c.add_output("GT")
    c.add_output("LT")

    for i in range(bits):
        c.add_gate(f"eq{i}_g", GateType.XNOR2, [a[i], b[i]], f"eq{i}")
        c.add_gate(f"bn{i}_g", GateType.INV, [b[i]], f"bn{i}")
        c.add_gate(f"gtb{i}_g", GateType.AND2, [a[i], f"bn{i}"], f"gtb{i}")

    _and_tree(c, [f"eq{i}" for i in range(bits)], "EQ", "eq_all")
    # Per-position win terms: gtb[i] AND eq[j] for all j > i.
    terms: list[str] = []
    for i in range(bits):
        higher = [f"eq{j}" for j in range(i + 1, bits)]
        if not higher:
            terms.append(f"gtb{i}")
        else:
            terms.append(_and_tree(c, [f"gtb{i}"] + higher, f"win{i}", f"win{i}"))
    _or_tree(c, terms, "GT", "gt_all")
    c.add_gate("lt_g", GateType.NOR2, ["EQ", "GT"], "LT")

    c.validate()
    return c


def alu_slice(bits: int) -> LogicCircuit:
    """N-bit ALU slice: AND / OR / XOR / ADD selected by ``S1 S0``.

    Op encoding: ``00`` bitwise AND, ``01`` bitwise OR, ``10`` bitwise
    XOR, ``11`` ripple-carry ADD (with ``CIN`` and ``COUT``).  The 4-way
    result mux per bit is AND3/OR reduction logic, giving the family a mix
    of datapath and control structure.
    """
    _require(bits >= 1, f"ALU slice needs bits >= 1, got {bits}")
    c = LogicCircuit(f"alu{bits}")
    a = c.add_inputs([f"A{i}" for i in range(bits)])
    b = c.add_inputs([f"B{i}" for i in range(bits)])
    c.add_input("CIN")
    c.add_inputs(["S0", "S1"])
    for i in range(bits):
        c.add_output(f"Y{i}")
    c.add_output("COUT")

    c.add_gate("s0n_g", GateType.INV, ["S0"], "s0n")
    c.add_gate("s1n_g", GateType.INV, ["S1"], "s1n")
    c.add_gate("sel_and_g", GateType.AND2, ["s1n", "s0n"], "sel_and")
    c.add_gate("sel_or_g", GateType.AND2, ["s1n", "S0"], "sel_or")
    c.add_gate("sel_xor_g", GateType.AND2, ["S1", "s0n"], "sel_xor")
    c.add_gate("sel_add_g", GateType.AND2, ["S1", "S0"], "sel_add")

    carry = "CIN"
    for i in range(bits):
        c.add_gate(f"and{i}_g", GateType.AND2, [a[i], b[i]], f"and{i}")
        c.add_gate(f"or{i}_g", GateType.OR2, [a[i], b[i]], f"or{i}")
        c.add_gate(f"xor{i}_g", GateType.XOR2, [a[i], b[i]], f"xor{i}")
        sum_net = f"sum{i}"
        next_carry = "COUT" if i == bits - 1 else f"cy{i}"
        _full_adder(c, f"fa{i}", a[i], b[i], carry, sum_net, next_carry)
        carry = next_carry

        c.add_gate(f"m{i}_and", GateType.AND2, ["sel_and", f"and{i}"], f"m{i}_a")
        c.add_gate(f"m{i}_or", GateType.AND2, ["sel_or", f"or{i}"], f"m{i}_o")
        c.add_gate(f"m{i}_xor", GateType.AND2, ["sel_xor", f"xor{i}"], f"m{i}_x")
        c.add_gate(f"m{i}_add", GateType.AND2, ["sel_add", sum_net], f"m{i}_s")
        _or_tree(c, [f"m{i}_a", f"m{i}_o", f"m{i}_x", f"m{i}_s"], f"Y{i}", f"m{i}_or_t")

    c.validate()
    return c


#: Gate palette for the random DAG generator: every fixed-arity type with
#: at most three inputs (the full :class:`GateType` set).
DEFAULT_DAG_GATE_TYPES: tuple[GateType, ...] = (
    GateType.INV,
    GateType.AND2,
    GateType.OR2,
    GateType.NAND2,
    GateType.NOR2,
    GateType.XOR2,
    GateType.XNOR2,
    GateType.NAND3,
    GateType.NOR3,
    GateType.AOI21,
    GateType.OAI21,
)

#: NAND/NOR/INV-style palette whose every member has OBD defect sites
#: (see :data:`repro.logic.expand.EXPANDABLE_TYPES`) -- use this for
#: random DAGs feeding OBD fault-model tests.
OBD_DAG_GATE_TYPES: tuple[GateType, ...] = (
    GateType.INV,
    GateType.NAND2,
    GateType.NOR2,
    GateType.NAND3,
    GateType.NOR3,
    GateType.AOI21,
    GateType.OAI21,
)


def random_dag(
    num_gates: int,
    seed: int = 0,
    num_inputs: int = 4,
    max_depth: int | None = None,
    gate_types: Sequence[GateType] | None = None,
) -> LogicCircuit:
    """Seeded random combinational DAG with controllable depth.

    The positional order ``(num_gates, seed, num_inputs)`` is shared with
    the campaign circuit registry (``"rdag:40,7"`` is 40 gates, seed 7), so
    the two public entry points name the same circuit the same way.

    Gates are added one at a time; each draws a type from *gate_types*
    (default :data:`DEFAULT_DAG_GATE_TYPES`) and its input nets from the
    already-available nets.  *max_depth* both caps the circuit depth (gate
    operands are drawn only from nets below the cap) and biases one operand
    of each gate toward the deepest admissible net, so requested depths are
    actually reached; without it, operands are uniform and depth grows
    logarithmically with the net pool.  Every net with no reader becomes a
    primary output, so all gates are observable.  Identical parameters
    (including *seed*) reproduce the identical netlist.
    """
    _require(num_gates >= 1, f"random DAG needs num_gates >= 1, got {num_gates}")
    _require(num_inputs >= 1, f"random DAG needs num_inputs >= 1, got {num_inputs}")
    _require(
        max_depth is None or max_depth >= 1,
        f"random DAG needs max_depth >= 1, got {max_depth}",
    )
    palette = tuple(gate_types) if gate_types is not None else DEFAULT_DAG_GATE_TYPES
    _require(bool(palette), "random DAG needs at least one gate type")

    rng = random.Random(seed)
    c = LogicCircuit(f"rdag{num_gates}g{num_inputs}i_s{seed}")
    nets = c.add_inputs([f"I{i}" for i in range(num_inputs)])
    level = {net: 0 for net in nets}

    for index in range(num_gates):
        gate_type = palette[rng.randrange(len(palette))]
        if max_depth is not None:
            # Primary inputs sit at level 0, so this is never empty.
            candidates = [n for n in nets if level[n] < max_depth]
            # Stratify the first operand by level: pick an admissible level
            # uniformly, then a net at that level.  This reaches the depth
            # cap without funnelling all fan-out onto the few deepest nets.
            chosen_level = rng.choice(sorted({level[n] for n in candidates}))
            inputs = [rng.choice([n for n in candidates if level[n] == chosen_level])]
        else:
            candidates = nets
            inputs = [rng.choice(candidates)]
        for _ in range(gate_type.num_inputs - 1):
            inputs.append(candidates[rng.randrange(len(candidates))])
        rng.shuffle(inputs)
        output = f"n{index}"
        c.add_gate(f"g{index}", gate_type, inputs, output)
        level[output] = 1 + max(level[n] for n in inputs)
        nets.append(output)

    # Every unread gate output becomes a primary output, so all gates are
    # observable.  Unread primary inputs stay plain inputs: promoting them
    # to outputs would create gateless input-to-output "paths" that the
    # path-delay universe (rightly) rejects.
    read = {net for gate in c for net in gate.inputs}
    for gate in c:
        if gate.output not in read:
            c.add_output(gate.output)
    c.validate()
    return c


#: Registered generator families: name -> builder taking one size/seed
#: signature as documented on each function.
GENERATOR_FAMILIES: dict[str, Callable[..., LogicCircuit]] = {
    "parity": parity_tree,
    "cla": carry_lookahead_adder,
    "mult": array_multiplier,
    "cmp": magnitude_comparator,
    "alu": alu_slice,
    "rdag": random_dag,
}


def generate(family: str, *args: int, **kwargs) -> LogicCircuit:
    """Build one registered family by name (``generate("mult", 4)``)."""
    try:
        builder = GENERATOR_FAMILIES[family]
    except KeyError:
        known = ", ".join(sorted(GENERATOR_FAMILIES))
        raise LogicCircuitError(f"unknown generator family {family!r}; known: {known}") from None
    return builder(*args, **kwargs)
