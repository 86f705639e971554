"""The per-circuit analysis shared by lint, the prover and every ATPG engine.

:class:`CircuitAnalysis` derives, lazily and at most once per circuit, the
facts those consumers share: topological order, levels, fan-out,
observability, SCOAP numbers, the SOCRATES static-learning pass (Schulz,
Trischler, Sarfert, IEEE TCAD 1988), a dense integer net index and the
compiled implication kernels both PODEM searches run on.  It lives in a
slot on its :class:`~repro.logic.netlist.LogicCircuit`, reached only
through :func:`circuit_analysis`: it is freed with the circuit, dropped by
every ``add_input`` / ``add_output`` / ``add_gate`` call, and pickled with
the circuit, so shard workers receive what the parent already learned.
Compiled kernels are code objects and are not pickled: each process builds
its own on first use.

An implication kernel (compiled-code simulation in the sense of Barzilai,
Carter, Rosen and Rutledge, "HSS -- a high-speed simulator", IEEE TCAD 1987)
is one straight-line function per circuit and value system, generated with
:func:`compile` over the net ids of :class:`NetIndex`.  It takes the
primary-input value codes, a fault-site id *f* and an injection tuple
*inj*, and returns the code of every net: each gate is one lookup in its
type's flat truth table, ``T[a*r + b]`` over *r* value codes, and the net
whose id is *f* is replaced by ``inj[v]`` (``f = -1`` injects nothing).
"""

from __future__ import annotations

from functools import cached_property
from itertools import product
from typing import TYPE_CHECKING, Callable, Mapping, Optional, Sequence

from .implication import ImplicationEngine, StaticLearning, learn_implications
from .scoap import ScoapMeasures, scoap_measures

if TYPE_CHECKING:
    from ..faults.stuck_at import StuckAtFault
    from ..logic.gates import GateType
    from ..logic.netlist import Gate, LogicCircuit

#: An implication kernel: ``kernel(pis, f, inj)`` -> the code of every net.
Kernel = Callable[[Sequence[int], int, Sequence[int]], list[int]]


class NetIndex:
    """Dense integer ids of a circuit's nets.

    Primary inputs take ids ``0 .. n_inputs - 1`` in declaration order; the
    output of the *k*-th gate of *order* takes id ``n_inputs + k``, so ids
    are topological and a net's driver is ``order[id - n_inputs]``.
    """

    def __init__(self, circuit: "LogicCircuit", order: Sequence["Gate"]):
        self.n_inputs = len(circuit.primary_inputs)
        self.names = (*circuit.primary_inputs, *(gate.output for gate in order))
        self.ids = ids = {net: i for i, net in enumerate(self.names)}
        #: Input ids of each gate, in *order*.
        self.gate_inputs = tuple(tuple(ids[net] for net in gate.inputs) for gate in order)
        fanouts: list[list[int]] = [[] for _ in self.names]
        for out, inputs in enumerate(self.gate_inputs, start=self.n_inputs):
            for net in dict.fromkeys(inputs):
                fanouts[net].append(out)
        #: Output ids of the gates reading each net, ascending, each gate once.
        self.fanouts = tuple(map(tuple, fanouts))
        #: Primary-output ids, in declaration order.
        self.outputs = tuple(ids[net] for net in circuit.primary_outputs)

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


def compile_implication_kernel(
    analysis: "CircuitAnalysis",
    radix: int,
    table: Callable[["GateType"], Mapping[tuple[int, ...], int]],
) -> Kernel:
    """Generate the implication kernel of *analysis* over *radix* value codes.

    *table* maps a gate type to its truth table keyed by input-code tuples;
    each table is flattened once, so a gate reads ``T[a*r*r + b*r + c]``.
    """
    index = analysis.net_index
    flat: dict["GateType", str] = {}
    bound: dict[str, tuple[int, ...]] = {}
    pis = [f"n{i}" for i in range(index.n_inputs)]
    lines = [f"    {', '.join(pis)}, = pis"] if pis else []
    lines += [f"    if f == {i}: n{i} = inj[n{i}]" for i in range(index.n_inputs)]
    for k, (gate, inputs) in enumerate(zip(analysis.order, index.gate_inputs)):
        name = flat.get(gate.gate_type)
        if name is None:
            name = flat[gate.gate_type] = f"T{len(flat)}"
            codes = table(gate.gate_type)
            bound[name] = tuple(
                codes[key] for key in product(range(radix), repeat=len(inputs))
            )
        offset = " + ".join(
            f"n{net}*{radix ** power}" if power else f"n{net}"
            for power, net in zip(range(len(inputs) - 1, -1, -1), inputs)
        )
        out = index.n_inputs + k
        lines.append(f"    n{out} = {name}[{offset}]")
        lines.append(f"    if f == {out}: n{out} = inj[n{out}]")
    lines.append(f"    return [{', '.join(f'n{i}' for i in range(len(index.names)))}]")
    params = "".join(f", {name}={name}" for name in bound)
    source = f"def kernel(pis, f, inj{params}):\n" + "\n".join(lines) + "\n"
    namespace: dict = dict(bound)
    label = f"<implication kernel {analysis.circuit.name}/{radix}>"
    exec(compile(source, label, "exec"), namespace)
    return namespace["kernel"]


class CircuitAnalysis:
    """Derived structure of one circuit; every part is computed on first use."""

    def __init__(self, circuit: "LogicCircuit"):
        self.circuit = circuit
        #: Compiled implication kernels, keyed by radix (see :meth:`kernel`).
        self._kernels: dict[int, Kernel] = {}

    def __getstate__(self) -> dict:
        # Kernels are generated code: each process compiles its own.
        return {**self.__dict__, "_kernels": {}}

    @cached_property
    def order(self) -> list["Gate"]:
        """Gates in topological order."""
        return self.circuit.topological_order()

    @cached_property
    def levels(self) -> dict[str, int]:
        """Topological level of every net (primary inputs are level 0)."""
        return self.circuit.levelize()

    @cached_property
    def loads(self) -> dict[str, list["Gate"]]:
        """Gates reading each net, in topological order, each gate once."""
        loads: dict[str, list["Gate"]] = {net: [] for net in self.circuit.nets()}
        for gate in self.order:
            for net in dict.fromkeys(gate.inputs):
                loads[net].append(gate)
        return loads

    @cached_property
    def net_index(self) -> NetIndex:
        """Dense net ids: primary inputs, then gate outputs in :attr:`order`."""
        return NetIndex(self.circuit, self.order)

    def kernel(
        self, radix: int, table: Callable[["GateType"], Mapping[tuple[int, ...], int]]
    ) -> Kernel:
        """The implication kernel over *radix* value codes, compiled on first use.

        The radix names the value system (5 for the five-valued calculus, 9
        for two-rail pair codes); *table* supplies its per-type truth tables.
        """
        kernel = self._kernels.get(radix)
        if kernel is None:
            kernel = self._kernels[radix] = compile_implication_kernel(self, radix, table)
        return kernel

    @cached_property
    def observable(self) -> set[str]:
        """Nets from which at least one primary output is reachable."""
        observable = set(self.circuit.primary_outputs)
        for gate in reversed(self.order):
            if gate.output in observable:
                observable.update(gate.inputs)
        return observable

    def fanout_nets(self, net: str) -> list[str]:
        """Output nets of the gates reading *net*."""
        return [gate.output for gate in self.loads[net]]

    def fanout_cone(self, net: str) -> set[str]:
        """Transitive fan-out of *net*, itself included."""
        cone: set[str] = set()
        stack = [net]
        while stack:
            current = stack.pop()
            if current in cone:
                continue
            cone.add(current)
            stack.extend(gate.output for gate in self.loads[current])
        return cone

    @cached_property
    def scoap(self) -> ScoapMeasures:
        """SCOAP controllability / observability."""
        return scoap_measures(self.circuit)

    @cached_property
    def learning(self) -> StaticLearning:
        """The pairwise static-learning pass: learned implications and constants."""
        return learn_implications(self.circuit)

    @cached_property
    def implication_engine(self) -> ImplicationEngine:
        """Implication engine strengthened by :attr:`learning`."""
        learning = self.learning
        return ImplicationEngine(
            self.circuit, learned=learning.implications, constants=learning.constants
        )

    def excitation_closure(self, fault: "StuckAtFault") -> Optional[dict[str, int]]:
        """Necessary good-machine values of every test exciting *fault*.

        The implication closure of ``{fault.net: 1 - fault.value}`` under
        the learned implications; None means the activating value is
        unreachable (the fault is statically proven unexcitable).
        """
        return self.implication_engine.imply({fault.net: 1 - fault.value})

    def build(self) -> "CircuitAnalysis":
        """Compute every part now, e.g. before the circuit is shipped to workers."""
        for part in ("order", "levels", "loads", "observable", "scoap", "implication_engine"):
            getattr(self, part)
        return self


def circuit_analysis(circuit: "LogicCircuit") -> CircuitAnalysis:
    """The analysis of *circuit*, created on first use and kept on the circuit."""
    analysis = circuit._analysis
    if analysis is None:
        analysis = circuit._analysis = CircuitAnalysis(circuit)
    return analysis
