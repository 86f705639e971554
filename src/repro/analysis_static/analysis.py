"""The per-circuit analysis shared by lint, the prover and every ATPG engine.

:class:`CircuitAnalysis` derives, lazily and at most once per circuit, the
facts those consumers share beyond the netlist's own structural index
(:attr:`~repro.logic.netlist.LogicCircuit.index`: topological order, net
ids, fan-out, levels and cones): observability, SCOAP numbers, the SOCRATES
static-learning pass (Schulz, Trischler, Sarfert, IEEE TCAD 1988) and the
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
:func:`compile` over the net ids of the circuit's
:class:`~repro.logic.netlist.NetIndex`.  It takes the
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
    from ..logic.netlist import LogicCircuit

#: An implication kernel: ``kernel(pis, f, inj)`` -> the code of every net.
Kernel = Callable[[Sequence[int], int, Sequence[int]], list[int]]


def compile_implication_kernel(
    analysis: "CircuitAnalysis",
    radix: int,
    table: Callable[["GateType"], Mapping[tuple[int, ...], int]],
) -> Kernel:
    """Generate the implication kernel of *analysis* over *radix* value codes.

    *table* maps a gate type to its truth table keyed by input-code tuples;
    each table is flattened once, so a gate reads ``T[a*r*r + b*r + c]``.
    """
    index = analysis.circuit.index
    flat: dict["GateType", str] = {}
    bound: dict[str, tuple[int, ...]] = {}
    pis = [f"n{i}" for i in range(index.n_inputs)]
    lines = [f"    {', '.join(pis)}, = pis"] if pis else []
    lines += [f"    if f == {i}: n{i} = inj[n{i}]" for i in range(index.n_inputs)]
    for k, (gate, inputs) in enumerate(zip(index.order, index.gate_inputs)):
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
        for gate in reversed(self.circuit.index.order):
            if gate.output in observable:
                observable.update(gate.inputs)
        return observable

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
        for part in ("observable", "scoap", "implication_engine"):
            getattr(self, part)
        return self


def circuit_analysis(circuit: "LogicCircuit") -> CircuitAnalysis:
    """The analysis of *circuit*, created on first use and kept on the circuit."""
    analysis = circuit._analysis
    if analysis is None:
        analysis = circuit._analysis = CircuitAnalysis(circuit)
    return analysis
