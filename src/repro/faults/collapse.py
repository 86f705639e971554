"""Structural fault collapsing.

* Stuck-at equivalence collapsing uses the textbook dominance-free
  equivalence rules for elementary gates (an input stuck at the controlling
  value is equivalent to the output stuck at the controlled response, and an
  inverter/buffer input fault is equivalent to the corresponding output
  fault).
* OBD faults collapse per gate: within one gate, the defects of transistors
  that are structurally interchangeable (same network, same excitation
  condition set) form an equivalence group for *test-set* purposes, although
  they remain physically distinct sites.
"""

from __future__ import annotations

from collections import defaultdict

from ..core.excitation import excitation_conditions
from ..logic.gates import GateType, controlling_value, evaluate_gate
from ..logic.netlist import LogicCircuit
from .base import FaultList
from .obd import ObdFault
from .stuck_at import StuckAtFault, stuck_at_universe


def collapse_stuck_at_faults(circuit: LogicCircuit) -> FaultList[StuckAtFault]:
    """Equivalence-collapsed stuck-at fault list.

    Collapsing rules applied per gate (output faults are kept as the class
    representatives):

    * INV / BUF: both input faults are equivalent to output faults.
    * AND/NAND: input stuck-at-0 faults are equivalent to the output
      stuck-at-(0 for AND / 1 for NAND) fault.
    * OR/NOR: input stuck-at-1 faults are equivalent to the output
      stuck-at-(1 for OR / 0 for NOR) fault.

    Faults on primary inputs that also feed gates stay in the list only when
    they are not absorbed by one of the rules above (standard practice keeps
    the output-side representative).
    """
    universe = stuck_at_universe(circuit)
    removed: set[str] = set()

    for gate in circuit:
        ctrl = controlling_value(gate.gate_type)
        if gate.gate_type in (GateType.INV, GateType.BUF):
            # Input faults equivalent to output faults.
            for value in (0, 1):
                removed.add(StuckAtFault(gate.inputs[0], value).key)
            continue
        if ctrl is None:
            continue
        for net in gate.inputs:
            removed.add(StuckAtFault(net, ctrl).key)

    survivors = [f for f in universe if f.key not in removed]
    return FaultList(survivors)


def collapse_stuck_at_dominance(circuit: LogicCircuit) -> FaultList[StuckAtFault]:
    """Equivalence *plus* guarded dominance-collapsed stuck-at fault list.

    On top of :func:`collapse_stuck_at_faults`, drops each gate-output fault
    that *dominates* the gate's input faults: for a gate with controlling
    value ``c``, every test for an input stuck at ``1 - c`` sets that input
    to ``c`` and the others to ``1 - c`` and observes the gate output, so it
    also detects the output stuck at the all-noncontrolling response (e.g.
    ``AND -> out/sa1``, ``OR -> out/sa0``).  Targeting only the dominated
    input faults therefore still covers the output fault.

    Dominance is only sound for the *per-net* fault model under structural
    guards; the drop is applied when

    * the gate has at least two distinct inputs and a controlling value,
    * every input net's only load is this gate (with other fan-out, an input
      difference can reach an output without sensitizing this gate, so the
      dominance argument breaks), and
    * no input net is itself a primary output (its fault is then observable
      without going through the gate at all).

    The remaining caveat is classical: in a redundant circuit every dominated
    input fault may be untestable while the dropped output fault is testable,
    in which case a test set targeting the collapsed list can miss it.  The
    property suite cross-checks full-universe coverage of collapsed-universe
    campaigns on the generator families.
    """
    base = collapse_stuck_at_faults(circuit)
    ids, fanouts = circuit.index.ids, circuit.index.fanouts
    outputs = set(circuit.primary_outputs)

    removed: set[str] = set()
    for gate in circuit:
        ctrl = controlling_value(gate.gate_type)
        if ctrl is None:
            continue
        distinct = tuple(dict.fromkeys(gate.inputs))
        if len(distinct) < 2:
            continue
        if any(net in outputs for net in distinct):
            continue
        only_load = (ids[gate.output],)
        if any(fanouts[ids[net]] != only_load for net in distinct):
            continue
        response = evaluate_gate(gate.gate_type, [1 - ctrl] * len(gate.inputs))
        removed.add(StuckAtFault(gate.output, response).key)

    return FaultList([f for f in base if f.key not in removed])


def collapse_ratio(circuit: LogicCircuit) -> float:
    """Collapsed / uncollapsed stuck-at fault count ratio."""
    total = len(stuck_at_universe(circuit))
    collapsed = len(collapse_stuck_at_faults(circuit))
    return collapsed / total if total else 1.0


def obd_equivalence_groups(faults: FaultList[ObdFault]) -> dict[str, list[ObdFault]]:
    """Group OBD faults of each gate by identical excitation-condition sets.

    Faults in the same group are detected by exactly the same local input
    sequences (e.g. NA and NB of a NAND), so a test set that covers one
    covers the other.  The group key is ``<gate>/<sorted site list>``.
    """
    by_gate: dict[str, list[ObdFault]] = defaultdict(list)
    for fault in faults:
        by_gate[fault.gate_name].append(fault)

    groups: dict[str, list[ObdFault]] = {}
    for gate_name, gate_faults in by_gate.items():
        by_conditions: dict[tuple, list[ObdFault]] = defaultdict(list)
        for fault in gate_faults:
            conditions = tuple(sorted(excitation_conditions(fault.gate_type, fault.site)))
            by_conditions[conditions].append(fault)
        for members in by_conditions.values():
            label = f"{gate_name}/" + "+".join(sorted(f.site for f in members))
            groups[label] = sorted(members, key=lambda f: f.site)
    return groups
