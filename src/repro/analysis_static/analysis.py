"""The per-circuit analysis shared by lint, the prover and every ATPG engine.

:class:`CircuitAnalysis` derives, lazily and at most once per circuit, the
facts those consumers share: topological order, levels, fan-out,
observability, SCOAP numbers and the SOCRATES static-learning pass (Schulz,
Trischler, Sarfert, IEEE TCAD 1988).  It lives in a slot on its
:class:`~repro.logic.netlist.LogicCircuit`, reached only through
:func:`circuit_analysis`: it is freed with the circuit, dropped by every
``add_input`` / ``add_output`` / ``add_gate`` call, and pickled with the
circuit, so shard workers receive what the parent already learned.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Optional

from .implication import ImplicationEngine, StaticLearning, learn_implications
from .scoap import ScoapMeasures, scoap_measures

if TYPE_CHECKING:
    from ..faults.stuck_at import StuckAtFault
    from ..logic.netlist import Gate, LogicCircuit


class CircuitAnalysis:
    """Derived structure of one circuit; every part is computed on first use."""

    def __init__(self, circuit: "LogicCircuit"):
        self.circuit = circuit

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
