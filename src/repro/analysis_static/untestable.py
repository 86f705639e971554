"""Structural untestability proofs for stuck-at and transition faults.

A stuck-at fault ``net/sa-v`` needs a test that (a) *excites* it -- drives
``net`` to ``1-v`` in the good machine -- and (b) *observes* it -- sensitizes
a path from ``net`` to a primary output.  Each half admits a purely static
refutation:

* **dead cone**: no primary output is even reachable from ``net``;
* **unexcitable**: the implication closure of ``{net: 1-v}`` (ternary
  propagation plus learned implications, all *necessary* consequences) is
  contradictory, so no input vector sets the net to ``1-v``;
* **unobservable**: a D-propagation reachability sweep shows the
  good/faulty difference at ``net`` cannot reach any primary output.  A
  gate passes the difference only if, for some assignment of its
  difference-free side inputs consistent with the excitation implications,
  its output still depends on the difference-carrying inputs.  Side inputs
  carry equal values in both machines and the implied values are necessary
  in *every* exciting test, so a blocked frontier is a proof, not a
  heuristic.

Every check is conservative (sound, incomplete): a returned
:class:`StaticProof` is a guarantee the fault is untestable -- the property
suite cross-checks this against PODEM's search-exhausted verdicts -- while
the absence of a proof says nothing.

Transition faults reduce to the stuck-at machinery: a slow-to-rise /
slow-to-fall fault on ``net`` needs a capture pattern detecting
``net`` stuck at the launch value *and* a launch pattern setting ``net`` to
the launch value, so it is proven untestable by a stuck-at proof for the
capture fault or by the launch value being unreachable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

from .analysis import circuit_analysis
from .implication import _gate_relation

if TYPE_CHECKING:
    from ..faults.stuck_at import StuckAtFault
    from ..faults.transition import TransitionFault
    from ..logic.netlist import LogicCircuit

#: Proof reasons.
DEAD_CONE = "dead-cone"
UNEXCITABLE = "unexcitable"
UNOBSERVABLE = "unobservable"
LAUNCH_IMPOSSIBLE = "launch-impossible"


@dataclass(frozen=True)
class StaticProof:
    """A structural proof that one fault is untestable."""

    fault_key: str
    reason: str
    detail: str = ""

    def describe(self) -> str:
        suffix = f": {self.detail}" if self.detail else ""
        return f"{self.fault_key} proven untestable ({self.reason}){suffix}"


class StaticUntestabilityProver:
    """Per-circuit prover: the shared learning pass, then cheap per-fault checks."""

    def __init__(self, circuit: "LogicCircuit"):
        self.circuit = circuit
        analysis = circuit_analysis(circuit)
        self.engine = analysis.implication_engine
        self.order = circuit.index.order
        self.outputs = set(circuit.primary_outputs)
        #: Nets from which at least one primary output is reachable.
        self.observable = analysis.observable

    # ------------------------------------------------------------------ #
    # Stuck-at.
    # ------------------------------------------------------------------ #
    def prove_stuck_at(self, net: str, value: int) -> Optional[tuple[str, str]]:
        """A ``(reason, detail)`` proof for ``net/sa-value``, or None."""
        if net not in self.observable:
            return DEAD_CONE, f"no primary output in the fan-out cone of {net!r}"
        implied = self.engine.imply({net: 1 - value})
        if implied is None:
            return (
                UNEXCITABLE,
                f"implication proves net {net!r} can never be {1 - value}",
            )
        if self._propagation_blocked(net, implied):
            return (
                UNOBSERVABLE,
                f"the difference at {net!r} cannot reach a primary output",
            )
        return None

    def _propagation_blocked(self, net: str, implied: dict[str, int]) -> bool:
        """Can the good/faulty difference at *net* reach a primary output?

        Forward sweep in topological order over the over-approximate set of
        difference-carrying nets; True means every path is provably blocked
        under the (necessary) excitation implications *implied*.
        """
        if net in self.outputs:
            return False
        carrying = {net}
        for gate in self.order:
            if gate.output in carrying:
                continue
            if not any(inp in carrying for inp in gate.inputs):
                continue
            if self._gate_passes_difference(gate, carrying, implied):
                carrying.add(gate.output)
                if gate.output in self.outputs:
                    return False
        return True

    def _gate_passes_difference(self, gate, carrying, implied) -> bool:
        """Might *gate*'s output differ between the two machines?

        Group the gate's truth-table rows by the values of the
        difference-free side inputs (restricted to rows consistent with the
        implied good values on those side inputs); the difference can pass
        only if some group produces both output values.  Side inputs hold
        identical, implication-consistent values in both machines, while
        difference-carrying inputs are left free in either machine -- an
        over-approximation, hence sound for blocking claims.
        """
        nets, rows = _gate_relation(gate.gate_type, gate.inputs, gate.output)
        in_nets = nets[:-1]
        side = [
            index for index, name in enumerate(in_nets) if name not in carrying
        ]
        groups: dict[tuple[int, ...], set[int]] = {}
        for row in rows:
            consistent = True
            for index in side:
                known = implied.get(in_nets[index])
                if known is not None and known != row[index]:
                    consistent = False
                    break
            if not consistent:
                continue
            key = tuple(row[index] for index in side)
            outs = groups.setdefault(key, set())
            outs.add(row[-1])
            if len(outs) > 1:
                return True
        return False

    # ------------------------------------------------------------------ #
    # Transition.
    # ------------------------------------------------------------------ #
    def prove_transition(self, net: str, launch_value: int) -> Optional[tuple[str, str]]:
        """Proof for a transition fault launching from *launch_value* on *net*.

        The capture pattern is exactly a test for ``net`` stuck at the
        launch value; the launch pattern needs ``net = launch_value`` to be
        reachable at all.
        """
        capture = self.prove_stuck_at(net, launch_value)
        if capture is not None:
            return capture
        if self.engine.imply({net: launch_value}) is None:
            return (
                LAUNCH_IMPOSSIBLE,
                f"implication proves net {net!r} can never be {launch_value}",
            )
        return None


def prove_stuck_at_untestable(
    circuit: "LogicCircuit",
    faults: Iterable["StuckAtFault"],
    prover: StaticUntestabilityProver | None = None,
) -> dict[str, StaticProof]:
    """Proofs for every provably untestable stuck-at fault, keyed by fault key."""
    prover = prover or StaticUntestabilityProver(circuit)
    proofs: dict[str, StaticProof] = {}
    for fault in faults:
        found = prover.prove_stuck_at(fault.net, fault.value)
        if found is not None:
            reason, detail = found
            proofs[fault.key] = StaticProof(fault.key, reason, detail)
    return proofs


def prove_transition_untestable(
    circuit: "LogicCircuit",
    faults: Iterable["TransitionFault"],
    prover: StaticUntestabilityProver | None = None,
) -> dict[str, StaticProof]:
    """Proofs for every provably untestable transition fault, keyed by fault key."""
    prover = prover or StaticUntestabilityProver(circuit)
    proofs: dict[str, StaticProof] = {}
    for fault in faults:
        found = prover.prove_transition(fault.net, fault.launch_value)
        if found is not None:
            reason, detail = found
            proofs[fault.key] = StaticProof(fault.key, reason, detail)
    return proofs
