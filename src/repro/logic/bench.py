"""ISCAS-85 ``.bench`` netlist I/O.

The ``.bench`` format is the lingua franca of the ATPG literature: one
``INPUT(net)`` / ``OUTPUT(net)`` declaration per line followed by gate
assignments ``net = OP(in1, in2, ...)``.  This module maps it onto
:class:`~repro.logic.netlist.LogicCircuit` in both directions:

* :func:`parse_bench` / :func:`load_bench` -- text (or file) to circuit,
  with line-numbered :class:`~repro.logic.netlist.LogicCircuitError`
  diagnostics for malformed statements, double drivers and undriven nets,
  plus netlist-level combinational-loop rejection;
* :func:`write_bench` / :func:`save_bench` -- circuit to text, primary
  inputs and outputs first, gates in topological order.

Conventions handled:

* ``BUFF`` (and the ``BUF`` spelling some files use) maps to
  :attr:`GateType.BUF`, ``NOT`` to :attr:`GateType.INV` -- the explicit
  fan-out buffers ISCAS netlists insert at branch stems survive a round
  trip unchanged;
* gate operators are case-insensitive on input and upper-case on output;
* wide gates (``AND`` with more than three inputs, ``XOR`` with more than
  two) are decomposed on parse into trees of the fixed-arity
  :class:`GateType` members, with deterministic ``<net>__d<i>``
  intermediate nets so re-parsing the written form is stable;
* single-input ``AND``/``OR``/``XOR`` collapse to ``BUFF`` and
  single-input ``NAND``/``NOR``/``XNOR`` to ``NOT``, as the degenerate
  reductions of their Boolean functions;
* ``AOI21``/``OAI21`` have no standard ``.bench`` operator and are written
  as extension operators of the same name (the parser accepts them, other
  tools will not see them in standard benchmark files).

Round-trip fidelity is the contract the test suite enforces: for any
circuit built from fixed-arity gates, ``parse_bench(write_bench(c))`` is
structurally identical to ``c`` up to gate instance names (``.bench`` has
no gate-name column; parsed gates are named ``g_<output net>``), and
``write_bench`` of the re-parsed circuit reproduces the text byte for
byte.
"""

from __future__ import annotations

import re
from pathlib import Path

from .gates import GateType
from .netlist import LogicCircuit, LogicCircuitError

#: Fixed-arity gate types for each variadic ``.bench`` operator, keyed by
#: number of inputs.  Operators with more inputs than the largest entry are
#: decomposed; one input collapses to BUF/INV.
_SIZED_OPS: dict[str, dict[int, GateType]] = {
    "AND": {2: GateType.AND2, 3: GateType.AND3},
    "OR": {2: GateType.OR2, 3: GateType.OR3},
    "NAND": {2: GateType.NAND2, 3: GateType.NAND3},
    "NOR": {2: GateType.NOR2, 3: GateType.NOR3},
    "XOR": {2: GateType.XOR2},
    "XNOR": {2: GateType.XNOR2},
}

#: Inner (reduction) operator and inverted-ness of each variadic operator:
#: a wide NAND is an AND-reduction with an inverting final stage.
_REDUCTIONS = {
    "AND": ("AND", False),
    "OR": ("OR", False),
    "NAND": ("AND", True),
    "NOR": ("OR", True),
    "XOR": ("XOR", False),
    "XNOR": ("XOR", True),
}

#: Fixed-arity operators accepted verbatim (extension ops included).
_FIXED_OPS = {
    "BUFF": GateType.BUF,
    "BUF": GateType.BUF,
    "NOT": GateType.INV,
    "INV": GateType.INV,
    "AOI21": GateType.AOI21,
    "OAI21": GateType.OAI21,
}

#: Canonical ``.bench`` operator for each gate type on output.
_WRITE_OPS = {
    GateType.BUF: "BUFF",
    GateType.INV: "NOT",
    GateType.AND2: "AND",
    GateType.AND3: "AND",
    GateType.OR2: "OR",
    GateType.OR3: "OR",
    GateType.NAND2: "NAND",
    GateType.NAND3: "NAND",
    GateType.NOR2: "NOR",
    GateType.NOR3: "NOR",
    GateType.XOR2: "XOR",
    GateType.XNOR2: "XNOR",
    GateType.AOI21: "AOI21",
    GateType.OAI21: "OAI21",
}

_DECL_RE = re.compile(r"^(INPUT|OUTPUT)\s*\(\s*([^\s()]+)\s*\)$", re.IGNORECASE)
_GATE_RE = re.compile(r"^([^\s()=]+)\s*=\s*([A-Za-z][A-Za-z0-9]*)\s*\(\s*(.*?)\s*\)$")


def _error(line_no: int, message: str) -> LogicCircuitError:
    return LogicCircuitError(f".bench line {line_no}: {message}")


def _strip(line: str) -> str:
    """Remove the comment part and surrounding whitespace of one line."""
    hash_index = line.find("#")
    if hash_index >= 0:
        line = line[:hash_index]
    return line.strip()


def _add_variadic(
    circuit: LogicCircuit,
    op: str,
    inputs: list[str],
    output: str,
) -> None:
    """Add one variadic-operator gate, decomposing wide instances.

    The reduction tree consumes inputs left to right in chunks of the
    widest available arity; intermediate nets are named ``<output>__d<i>``
    so the decomposition is deterministic and collision-checked like any
    other net.
    """
    sized = _SIZED_OPS[op]
    inner_op, inverted = _REDUCTIONS[op]
    inner_sized = _SIZED_OPS[inner_op]
    widest = max(inner_sized)
    if len(inputs) == 1:
        final_type = GateType.INV if inverted else GateType.BUF
        circuit.add_gate(f"g_{output}", final_type, inputs, output)
        return
    aux = 0
    current = list(inputs)
    # Reduce widest-arity chunks until one final gate of the original
    # operator can finish (the loop guard keeps len(current) > widest, so a
    # full chunk always leaves at least one operand for the final gate).
    while len(current) > max(sized):
        net = f"{output}__d{aux}"
        aux += 1
        circuit.add_gate(f"g_{net}", inner_sized[widest], current[:widest], net)
        current = [net] + current[widest:]
    circuit.add_gate(f"g_{output}", sized[len(current)], current, output)


def parse_bench(text: str, name: str = "") -> LogicCircuit:
    """Parse ``.bench`` source text into a validated :class:`LogicCircuit`."""
    circuit = LogicCircuit(name)
    outputs: list[tuple[int, str]] = []
    #: Source line of each gate statement, keyed by the statement's output
    #: net (decomposed aux gates map back through their ``__d`` base name).
    statement_lines: dict[str, int] = {}
    #: First line that defined each net (INPUT declaration or assignment),
    #: so redefinition errors can name both the net and its first driver.
    defined_lines: dict[str, int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        decl = _DECL_RE.match(line)
        if decl is not None:
            kind, net = decl.group(1).upper(), decl.group(2)
            try:
                if kind == "INPUT":
                    if net in defined_lines:
                        raise _error(
                            line_no,
                            f"net {net!r} redefined: first defined at line "
                            f"{defined_lines[net]}",
                        )
                    circuit.add_input(net)
                    defined_lines[net] = line_no
                else:
                    circuit.add_output(net)
                    outputs.append((line_no, net))
            except LogicCircuitError as exc:
                if str(exc).startswith(".bench line"):
                    raise
                raise _error(line_no, str(exc)) from None
            continue
        gate = _GATE_RE.match(line)
        if gate is None:
            raise _error(line_no, f"unparseable statement {line!r}")
        output, op, arg_text = gate.group(1), gate.group(2).upper(), gate.group(3)
        inputs = [a.strip() for a in arg_text.split(",")] if arg_text else []
        if any(not a for a in inputs) or not inputs:
            raise _error(line_no, f"malformed input list in {line!r}")
        if output in defined_lines:
            raise _error(
                line_no,
                f"net {output!r} is already driven (first defined at line "
                f"{defined_lines[output]})",
            )
        statement_lines[output] = line_no
        defined_lines[output] = line_no
        try:
            if op in _FIXED_OPS:
                gate_type = _FIXED_OPS[op]
                if len(inputs) != gate_type.num_inputs:
                    raise _error(
                        line_no,
                        f"{op} expects {gate_type.num_inputs} input(s), got {len(inputs)}",
                    )
                circuit.add_gate(f"g_{output}", gate_type, inputs, output)
            elif op in _SIZED_OPS:
                _add_variadic(circuit, op, inputs, output)
            else:
                raise _error(line_no, f"unknown operator {op!r}")
        except LogicCircuitError as exc:
            if str(exc).startswith(".bench line"):
                raise
            raise _error(line_no, str(exc)) from None
    # Completeness checks with source positions: gates reading undriven
    # nets and undriven primary outputs point at the offending line.
    driven = set(circuit.primary_inputs) | {g.output for g in circuit}
    for gate in circuit:
        for net in gate.inputs:
            if net not in driven:
                stmt = gate.output.rsplit("__d", 1)[0]
                raise _error(
                    statement_lines.get(stmt, statement_lines.get(gate.output, 0)),
                    f"gate output {stmt!r} reads undriven net {net!r}",
                )
    for line_no, net in outputs:
        if net not in driven:
            raise _error(line_no, f"primary output {net!r} is not driven")
    # validate() re-checks closure and rejects combinational loops (which
    # have no single offending line to point at).
    try:
        circuit.validate()
    except LogicCircuitError as exc:
        raise LogicCircuitError(f".bench netlist {name!r}: {exc}") from None
    return circuit


def load_bench(path: str | Path) -> LogicCircuit:
    """Read and parse a ``.bench`` file; the circuit is named after the file."""
    path = Path(path)
    return parse_bench(path.read_text(), name=path.stem)


def write_bench(circuit: LogicCircuit) -> str:
    """Render a circuit as ``.bench`` text.

    A comment block records the circuit name and structural summary;
    parsers (including this module's) ignore it.  Primary inputs come next
    (declaration order), then primary outputs, then one assignment per gate
    in topological order.
    """
    s = circuit.stats()
    lines = [
        f"# {circuit.name or 'circuit'}",
        f"# {s.num_inputs} inputs, {s.num_outputs} outputs, "
        f"{s.num_gates} gates, depth {s.depth}",
    ]
    for net in circuit.primary_inputs:
        lines.append(f"INPUT({net})")
    for net in circuit.primary_outputs:
        lines.append(f"OUTPUT({net})")
    lines.append("")
    for gate in circuit.topological_order():
        op = _WRITE_OPS[gate.gate_type]
        lines.append(f"{gate.output} = {op}({', '.join(gate.inputs)})")
    return "\n".join(lines) + "\n"


def save_bench(circuit: LogicCircuit, path: str | Path) -> Path:
    """Write a circuit to a ``.bench`` file and return the path."""
    path = Path(path)
    path.write_text(write_bench(circuit))
    return path


def structurally_equal(a: LogicCircuit, b: LogicCircuit) -> bool:
    """True when two circuits match up to gate instance names.

    Compares primary input/output order and, for every driven net, the
    driving gate's type and input-net tuple -- the exact information a
    ``.bench`` file carries.
    """
    if a.primary_inputs != b.primary_inputs or a.primary_outputs != b.primary_outputs:
        return False
    drivers_a = {g.output: (g.gate_type, g.inputs) for g in a}
    drivers_b = {g.output: (g.gate_type, g.inputs) for g in b}
    return drivers_a == drivers_b
