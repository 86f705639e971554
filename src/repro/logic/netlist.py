"""Gate-level combinational netlists.

A :class:`LogicCircuit` is the structural substrate for fault modeling and
ATPG: named nets, primary inputs/outputs, and gates from
:class:`~repro.logic.gates.GateType`.  Its :class:`NetIndex`
(:attr:`LogicCircuit.index`) is the one structural index every consumer
reads -- topological order, dense net ids, fan-in and fan-out ids, levels
(the logic depth the paper quotes for the full-adder example) and fan-out
cones: the simulators and the compiled fault-simulation engine, both PODEM
searches and their implication kernels, the D-algorithm, SCOAP and the
untestability prover.  It is built by one Kahn sort on first use, dropped
by every construction call and pickled with the circuit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

from .gates import GateType, evaluate_gate


class LogicCircuitError(Exception):
    """Raised for malformed gate-level netlists."""


@dataclass(frozen=True)
class CircuitStats:
    """Structural profile of one circuit (see :meth:`LogicCircuit.stats`)."""

    name: str
    num_inputs: int
    num_outputs: int
    num_gates: int
    num_nets: int
    depth: int
    #: Gate count per :class:`~repro.logic.gates.GateType` value, e.g.
    #: ``{"NAND2": 14, "INV": 14}``; types absent from the circuit are omitted.
    gate_counts: dict[str, int] = field(default_factory=dict)
    #: Histogram of net fan-out: ``{loads: number of nets with that many
    #: loads}``.  Primary outputs with no readers count as zero-load nets.
    fanout_histogram: dict[int, int] = field(default_factory=dict)
    #: SCOAP testability roll-up (:func:`repro.analysis_static.scoap
    #: .scoap_summary`): ``max_cc`` / ``mean_cc`` / ``max_co`` / ``mean_co``
    #: / ``unreachable``.  None unless :meth:`LogicCircuit.stats` was asked
    #: for it with ``include_scoap=True``.
    scoap: Optional[dict] = None

    @property
    def max_fanout(self) -> int:
        return max(self.fanout_histogram, default=0)

    def describe(self) -> str:
        """One-line summary used by campaign and benchmark reports."""
        gates = ", ".join(f"{count} {name}" for name, count in sorted(self.gate_counts.items()))
        return (
            f"{self.name or 'circuit'}: {self.num_inputs} in / {self.num_outputs} out, "
            f"{self.num_gates} gates ({gates}), depth {self.depth}, "
            f"max fan-out {self.max_fanout}"
        )


@dataclass(frozen=True)
class Gate:
    """One gate instance: a named, typed node of the netlist."""

    name: str
    gate_type: GateType
    inputs: tuple[str, ...]
    output: str

    def evaluate(self, values: dict[str, int]) -> int:
        """Evaluate the gate on a net-value assignment."""
        return evaluate_gate(self.gate_type, [values[n] for n in self.inputs])


class NetIndex:
    """The structural index of one closed, acyclic circuit.

    Primary inputs take ids ``0 .. n_inputs - 1`` in declaration order; the
    output of the *k*-th gate of :attr:`order` takes id ``n_inputs + k``, so
    ids are topological and a net's driver is ``order[id - n_inputs]``.
    Read it through :attr:`LogicCircuit.index`, which builds it once.
    """

    def __init__(self, circuit: "LogicCircuit"):
        #: Gates in topological order (see :meth:`LogicCircuit.topological_order`).
        self.order = order = _kahn_order(circuit)
        self.n_inputs = n_inputs = len(circuit.primary_inputs)
        #: Net name of every id.
        self.names = (*circuit.primary_inputs, *(gate.output for gate in order))
        #: Net name -> id.
        self.ids = ids = {net: i for i, net in enumerate(self.names)}
        #: Input ids of each gate, in :attr:`order`.
        self.gate_inputs = tuple(tuple(ids[net] for net in gate.inputs) for gate in order)
        fanouts: list[list[int]] = [[] for _ in self.names]
        levels = [0] * n_inputs
        for out, inputs in enumerate(self.gate_inputs, start=n_inputs):
            for net in dict.fromkeys(inputs):
                fanouts[net].append(out)
            levels.append(1 + max(levels[net] for net in inputs))
        #: Output ids of the gates reading each net, ascending, each gate once.
        self.fanouts = tuple(map(tuple, fanouts))
        #: Topological level of every id (primary inputs are level 0).
        self.levels = tuple(levels)
        #: Primary-output ids, in declaration order.
        self.outputs = tuple(ids[net] for net in circuit.primary_outputs)

    def fanout_cone(self, net: int) -> tuple[int, ...]:
        """Ids of the transitive fan-out of *net*, ascending, *net* excluded."""
        cone: set[int] = set()
        stack = list(self.fanouts[net])
        while stack:
            current = stack.pop()
            if current not in cone:
                cone.add(current)
                stack.extend(self.fanouts[current])
        return tuple(sorted(cone))

    def d_frontier(
        self, values: Sequence[int], error: Sequence[bool], unknown: Sequence[bool]
    ) -> list[int]:
        """Output ids, ascending, of the gates with an *unknown* output and an
        *error* input (both predicates are indexed by value code)."""
        gates = {
            out
            for net, value in enumerate(values) if error[value]
            for out in self.fanouts[net] if unknown[values[out]]
        }
        return sorted(gates)

    def x_path(
        self, values: Sequence[int], starts: Sequence[int], passable: Sequence[bool]
    ) -> bool:
        """Is a primary output reachable from *starts* through *passable* nets?"""
        targets = set(self.outputs)
        seen: set[int] = set()
        stack = list(starts)
        while stack:
            net = stack.pop()
            if net in seen:
                continue
            seen.add(net)
            if not passable[values[net]]:
                continue
            if net in targets:
                return True
            stack.extend(self.fanouts[net])
        return False


def _kahn_order(circuit: "LogicCircuit") -> tuple[Gate, ...]:
    """Gates in topological order, by Kahn's algorithm over pin counts.

    O(gates + pins) even on deep chain-shaped circuits, and deterministic
    (declaration order breaks ties), so derived artifacts like ``.bench``
    output are stable.  Raises :class:`LogicCircuitError` on combinational
    loops and undriven nets.
    """
    gates = circuit._gates
    placed = set(circuit.primary_inputs)
    pending: dict[str, int] = {}
    readers: dict[str, list[Gate]] = {}
    order: list[Gate] = []
    for gate in gates.values():
        unplaced = [net for net in gate.inputs if net not in placed]
        pending[gate.name] = len(unplaced)
        for net in unplaced:
            readers.setdefault(net, []).append(gate)
        if not unplaced:
            order.append(gate)
    # *order* is also the FIFO queue: each gate is appended once ready.
    for gate in order:
        for reader in readers.get(gate.output, ()):
            pending[reader.name] -= 1
            if pending[reader.name] == 0:
                order.append(reader)
    if len(order) != len(gates):
        emitted = {gate.name for gate in order}
        remaining = sorted(name for name in gates if name not in emitted)
        raise LogicCircuitError(
            f"combinational loop or undriven nets involving gates: {remaining[:5]}"
        )
    return tuple(order)


class LogicCircuit:
    """A combinational gate-level netlist."""

    def __init__(self, name: str = ""):
        self.name = name
        self._inputs: list[str] = []
        self._outputs: list[str] = []
        self._gates: dict[str, Gate] = {}
        self._driver: dict[str, str] = {}
        #: The circuit's :class:`NetIndex`, built by :attr:`index` and dropped
        #: by every construction call below.
        self._index: Optional[NetIndex] = None
        #: The circuit's :class:`~repro.analysis_static.analysis.CircuitAnalysis`,
        #: owned by :func:`~repro.analysis_static.analysis.circuit_analysis`
        #: and dropped by every construction call below.
        self._analysis = None

    # ------------------------------------------------------------------ #
    # Construction.
    # ------------------------------------------------------------------ #
    def add_input(self, net: str) -> str:
        """Declare a primary input net."""
        if net in self._inputs:
            raise LogicCircuitError(f"primary input {net!r} already declared")
        if net in self._driver:
            raise LogicCircuitError(f"net {net!r} is already driven by gate {self._driver[net]!r}")
        self._inputs.append(net)
        self._index = self._analysis = None
        return net

    def add_inputs(self, nets: Iterable[str]) -> list[str]:
        return [self.add_input(n) for n in nets]

    def add_output(self, net: str) -> str:
        """Declare a primary output net (must eventually be driven)."""
        if net in self._outputs:
            raise LogicCircuitError(f"primary output {net!r} already declared")
        self._outputs.append(net)
        self._index = self._analysis = None
        return net

    def add_gate(
        self,
        name: str,
        gate_type: GateType | str,
        inputs: Sequence[str],
        output: str,
    ) -> Gate:
        """Add a gate; the output net must not already be driven."""
        gate_type = GateType(gate_type)
        if name in self._gates:
            raise LogicCircuitError(f"duplicate gate name {name!r}")
        if len(inputs) != gate_type.num_inputs:
            raise LogicCircuitError(
                f"gate {name!r} ({gate_type.value}) expects {gate_type.num_inputs} inputs, "
                f"got {len(inputs)}"
            )
        if output in self._driver:
            raise LogicCircuitError(
                f"net {output!r} already driven by gate {self._driver[output]!r}"
            )
        if output in self._inputs:
            raise LogicCircuitError(f"net {output!r} is a primary input and cannot be driven")
        gate = Gate(name=name, gate_type=gate_type, inputs=tuple(inputs), output=output)
        self._gates[name] = gate
        self._driver[output] = name
        self._index = self._analysis = None
        return gate

    # ------------------------------------------------------------------ #
    # Introspection.
    # ------------------------------------------------------------------ #
    @property
    def primary_inputs(self) -> list[str]:
        return list(self._inputs)

    @property
    def primary_outputs(self) -> list[str]:
        return list(self._outputs)

    @property
    def gates(self) -> list[Gate]:
        return list(self._gates.values())

    def __len__(self) -> int:
        return len(self._gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self._gates.values())

    def gate(self, name: str) -> Gate:
        try:
            return self._gates[name]
        except KeyError:
            raise LogicCircuitError(f"no gate named {name!r}") from None

    def nets(self) -> list[str]:
        """All nets: primary inputs plus every gate output."""
        nets = list(self._inputs)
        nets.extend(g.output for g in self._gates.values())
        return nets

    def driver_of(self, net: str) -> Gate | None:
        """Gate driving *net*, or None for primary inputs."""
        name = self._driver.get(net)
        return self._gates[name] if name is not None else None

    def loads_of(self, net: str) -> list[tuple[Gate, int]]:
        """(gate, input-pin index) pairs reading *net*."""
        loads = []
        for gate in self._gates.values():
            for index, inp in enumerate(gate.inputs):
                if inp == net:
                    loads.append((gate, index))
        return loads

    def gate_count(self, gate_type: GateType | str | None = None) -> int:
        """Number of gates, optionally restricted to one type."""
        if gate_type is None:
            return len(self._gates)
        gate_type = GateType(gate_type)
        return sum(1 for g in self._gates.values() if g.gate_type == gate_type)

    # ------------------------------------------------------------------ #
    # Structure checks and ordering.
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Check that the netlist is a closed combinational circuit."""
        driven = set(self._inputs) | set(self._driver)
        for gate in self._gates.values():
            for net in gate.inputs:
                if net not in driven:
                    raise LogicCircuitError(
                        f"gate {gate.name!r} reads undriven net {net!r}"
                    )
        for net in self._outputs:
            if net not in driven:
                raise LogicCircuitError(f"primary output {net!r} is not driven")
        # Building the index raises on combinational loops.
        _ = self.index

    @property
    def index(self) -> NetIndex:
        """The circuit's :class:`NetIndex`, built on first use.

        A circuit that is not closed and acyclic raises
        :class:`LogicCircuitError` and caches nothing.
        """
        index = self._index
        if index is None:
            index = self._index = NetIndex(self)
        return index

    def topological_order(self) -> list[Gate]:
        """Gates in topological (input-to-output) order (see :func:`_kahn_order`)."""
        return list(self.index.order)

    def levelize(self) -> dict[str, int]:
        """Topological level of every net (primary inputs are level 0)."""
        index = self.index
        return dict(zip(index.names, index.levels))

    @property
    def depth(self) -> int:
        """Logic depth: the largest primary-output level."""
        index = self.index
        if not self._outputs:
            return max(index.levels, default=0)
        return max(index.levels[net] for net in index.outputs)

    # ------------------------------------------------------------------ #
    # Cones.
    # ------------------------------------------------------------------ #
    def fanin_cone(self, net: str) -> set[str]:
        """All nets in the transitive fan-in of *net* (including itself)."""
        cone: set[str] = set()
        stack = [net]
        while stack:
            current = stack.pop()
            if current in cone:
                continue
            cone.add(current)
            driver = self.driver_of(current)
            if driver is not None:
                stack.extend(driver.inputs)
        return cone

    def fanout_cone(self, net: str) -> set[str]:
        """All nets in the transitive fan-out of *net* (including itself).

        Read from :attr:`index`, so the circuit must be closed and acyclic
        (see :meth:`validate`).
        """
        index = self.index
        return {net, *(index.names[out] for out in index.fanout_cone(index.ids[net]))}

    def stats(self, include_scoap: bool = False) -> CircuitStats:
        """Structural profile: gate counts by type, depth, fan-out histogram.

        One pass over the gates counts loads and types; the depth reads
        :attr:`index`, so the whole profile is linear in gates + pins.
        ``include_scoap=True`` additionally attaches the SCOAP testability
        roll-up of the circuit's analysis as :attr:`CircuitStats.scoap`.
        """
        gate_counts: dict[str, int] = {}
        loads = {net: 0 for net in self.nets()}
        for gate in self._gates.values():
            gate_counts[gate.gate_type.value] = gate_counts.get(gate.gate_type.value, 0) + 1
            for net in gate.inputs:
                loads[net] = loads.get(net, 0) + 1
        fanout_histogram: dict[int, int] = {}
        for count in loads.values():
            fanout_histogram[count] = fanout_histogram.get(count, 0) + 1
        scoap = None
        if include_scoap:
            from ..analysis_static.scoap import scoap_summary

            scoap = scoap_summary(self)
        return CircuitStats(
            name=self.name,
            num_inputs=len(self._inputs),
            num_outputs=len(self._outputs),
            num_gates=len(self._gates),
            num_nets=len(loads),
            depth=self.depth,
            gate_counts=gate_counts,
            fanout_histogram=fanout_histogram,
            scoap=scoap,
        )

    def summary(self) -> str:
        """One-line structural summary (the numbers quoted in Section 4.3)."""
        s = self.stats()
        parts = ", ".join(f"{count} {name}" for name, count in sorted(s.gate_counts.items()))
        return (
            f"LogicCircuit {self.name!r}: {s.num_inputs} inputs, "
            f"{s.num_outputs} outputs, {s.num_gates} gates ({parts}), depth {s.depth}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<LogicCircuit {self.name!r} gates={len(self._gates)}>"
