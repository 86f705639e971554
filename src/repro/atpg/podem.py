"""PODEM test generation for stuck-at faults, with value constraints.

The engine serves three callers:

* classical stuck-at ATPG (``generate_stuck_at_test``);
* pure justification of net-value objectives (``justify``), used for the
  first pattern of two-pattern tests;
* constrained stuck-at ATPG, where specific nets must settle to required
  good-machine values in addition to detecting the fault -- this is how the
  OBD ATPG pins the defective gate's inputs to the excitation cube.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from ..analysis_static.analysis import circuit_analysis
from ..faults.stuck_at import StuckAtFault
from ..logic.gates import GateType
from ..logic.netlist import Gate, LogicCircuit
from .values import LogicValue, evaluate_gate_values, from_bit, noncontrolling_value


@dataclass
class PodemOptions:
    """Search controls for the PODEM engine."""

    max_backtracks: int = 20_000
    #: Value used to fill unassigned primary inputs in the returned pattern.
    fill_value: int = 0


@dataclass
class PodemResult:
    """Outcome of one test-generation attempt."""

    success: bool
    pattern: Optional[dict[str, int]]
    backtracks: int
    aborted: bool = False
    decisions: int = 0

    @property
    def untestable(self) -> bool:
        """Search exhausted without aborting: the fault is proven untestable.

        ``aborted`` covers both the backtrack budget running out and the
        engine abandoning a branch heuristically (backtrace landing on an
        already-assigned input); either way the search was incomplete, so
        exhaustion does *not* prove anything and this property stays False.
        """
        return not self.success and not self.aborted


class _PodemEngine:
    """One PODEM search over a circuit with an optional fault and constraints."""

    def __init__(
        self,
        circuit: LogicCircuit,
        fault: Optional[StuckAtFault],
        constraints: Mapping[str, int],
        options: PodemOptions,
    ):
        self.circuit = circuit
        self.fault = fault
        self.constraints = dict(constraints)
        self.options = options
        self.analysis = circuit_analysis(circuit)
        self.order = self.analysis.order
        self.assignments: dict[str, int] = {}
        self.values: dict[str, LogicValue] = {}
        self.backtracks = 0
        self.decisions = 0
        #: Set when a branch is abandoned without exploring it (backtrace
        #: landing on an assigned or non-input net).  Once set, exhausting
        #: the stack no longer proves untestability: the result is reported
        #: as aborted, never as "no test exists".
        self.gave_up = False
        self._pi_set = frozenset(circuit.primary_inputs)
        self._validate()

    def _validate(self) -> None:
        nets = self.analysis.loads
        if self.fault is not None and self.fault.net not in nets:
            raise ValueError(f"fault net {self.fault.net!r} is not in the circuit")
        for net, value in self.constraints.items():
            if net not in nets:
                raise ValueError(f"constraint net {net!r} is not in the circuit")
            if value not in (0, 1):
                raise ValueError(f"constraint value for {net!r} must be 0/1")

    # ------------------------------------------------------------------ #
    # Implication (five-valued forward simulation).
    # ------------------------------------------------------------------ #
    def imply(self) -> None:
        values: dict[str, LogicValue] = {}
        fault = self.fault
        for net in self.circuit.primary_inputs:
            value = from_bit(self.assignments.get(net))
            if fault is not None and net == fault.net:
                value = LogicValue(value.good, fault.value)
            values[net] = value
        for gate in self.order:
            value = evaluate_gate_values(gate.gate_type, [values[n] for n in gate.inputs])
            if fault is not None and gate.output == fault.net:
                value = LogicValue(value.good, fault.value)
            values[gate.output] = value
        self.values = values

    # ------------------------------------------------------------------ #
    # Status predicates.
    # ------------------------------------------------------------------ #
    def fault_detected(self) -> bool:
        if self.fault is None:
            return False
        return any(self.values[net].is_error for net in self.circuit.primary_outputs)

    def constraints_satisfied(self) -> bool:
        return all(self.values[net].good == value for net, value in self.constraints.items())

    def constraints_violated(self) -> bool:
        for net, value in self.constraints.items():
            good = self.values[net].good
            if good is not None and good != value:
                return True
        return False

    def fault_activation_blocked(self) -> bool:
        """Fault site already settled to the stuck value in the good machine."""
        if self.fault is None:
            return False
        good = self.values[self.fault.net].good
        return good is not None and good == self.fault.value

    def d_frontier(self) -> list[Gate]:
        frontier = []
        for gate in self.order:
            if self.values[gate.output].is_known:
                continue
            if any(self.values[n].is_error for n in gate.inputs):
                frontier.append(gate)
        return frontier

    def fault_activated(self) -> bool:
        """The fault site carries an error value (D or D-bar)."""
        if self.fault is None:
            return False
        return self.values[self.fault.net].is_error

    def x_path_exists(self) -> bool:
        """Is there a path of unknown-valued nets from the D-frontier to a PO?"""
        if self.fault is None:
            return True
        frontier = self.d_frontier()
        if not frontier:
            # Either already detected, or nothing left to propagate.
            return self.fault_detected()
        targets = set(self.circuit.primary_outputs)
        for gate in frontier:
            stack = [gate.output]
            seen: set[str] = set()
            while stack:
                net = stack.pop()
                if net in seen:
                    continue
                seen.add(net)
                if self.values[net].is_known and not self.values[net].is_error:
                    continue
                if net in targets:
                    return True
                stack.extend(self.analysis.fanout_nets(net))
        return False

    def done(self) -> bool:
        if not self.constraints_satisfied():
            return False
        if self.fault is None:
            return True
        return self.fault_detected()

    def failed(self) -> bool:
        if self.constraints_violated():
            return True
        if self.fault is None:
            return False
        if self.fault_detected():
            return False
        if self.fault_activation_blocked():
            return True
        if not self.fault_activated():
            # The fault site is still unassigned; activation remains possible.
            return False
        # The error exists somewhere: it must still have a way to reach a PO.
        return not self.x_path_exists()

    # ------------------------------------------------------------------ #
    # Objective selection and backtrace.
    # ------------------------------------------------------------------ #
    def objective(self) -> Optional[tuple[str, int]]:
        # 1. Unsatisfied constraints.
        for net, value in self.constraints.items():
            if self.values[net].good is None:
                return net, value
        # 2. Fault activation.
        if self.fault is not None:
            good = self.values[self.fault.net].good
            if good is None:
                return self.fault.net, 1 - self.fault.value
            # 3. Fault propagation through the D-frontier.
            frontier = self.d_frontier()
            if frontier:
                gate = frontier[0]
                for net in gate.inputs:
                    if self.values[net].good is None:
                        value = noncontrolling_value(gate.gate_type)
                        return net, value if value is not None else 1
        return None

    def backtrace(self, net: str, value: int) -> tuple[str, int]:
        """Walk backwards from an objective to an unassigned primary input."""
        current, target = net, value
        for _ in range(10 * (len(self.circuit) + len(self.circuit.primary_inputs)) + 10):
            driver = self.circuit.driver_of(current)
            if driver is None:
                return current, target
            inputs_x = [n for n in driver.inputs if self.values[n].good is None]
            if not inputs_x:
                # Everything justified below; fall back to the first input.
                inputs_x = [driver.inputs[0]]
            chosen = inputs_x[0]
            target = self._backtrace_value(driver.gate_type, target)
            current = chosen
        return current, target  # pragma: no cover - safety net

    @staticmethod
    def _backtrace_value(gate_type: GateType, target: int) -> int:
        """Input value most likely to produce *target* at the gate output."""
        if gate_type in (GateType.INV, GateType.NAND2, GateType.NAND3, GateType.NOR2,
                         GateType.NOR3, GateType.XNOR2, GateType.AOI21, GateType.OAI21):
            return 1 - target
        return target

    # ------------------------------------------------------------------ #
    # Main search loop.
    # ------------------------------------------------------------------ #
    def run(self) -> PodemResult:
        self.imply()
        stack: list[tuple[str, int, bool]] = []  # (pi, value, alternative tried)
        while True:
            if self.done():
                return self._success()
            if self.failed() or self.objective() is None:
                if not self._backtrack(stack):
                    return self._exhausted()
                continue
            if self.backtracks > self.options.max_backtracks:
                return PodemResult(False, None, self.backtracks, aborted=True,
                                   decisions=self.decisions)
            net, value = self.objective()
            pi, pi_value = self.backtrace(net, value)
            if pi in self.assignments or pi not in self._pi_set:
                # Backtrace landed on an assigned (or non-input) net: the
                # branch is abandoned *heuristically*, not refuted, so a
                # later stack exhaustion must be reported as aborted rather
                # than as a proof that no test exists.
                self.gave_up = True
                if not self._backtrack(stack):
                    return self._exhausted()
                continue
            self.assignments[pi] = pi_value
            self.decisions += 1
            stack.append((pi, pi_value, False))
            self.imply()

    def _exhausted(self) -> PodemResult:
        """Decision stack exhausted: a proof only if no branch was abandoned."""
        return PodemResult(False, None, self.backtracks, aborted=self.gave_up,
                           decisions=self.decisions)

    def _backtrack(self, stack: list[tuple[str, int, bool]]) -> bool:
        while stack:
            pi, value, tried_alternative = stack.pop()
            del self.assignments[pi]
            self.backtracks += 1
            if not tried_alternative:
                alternative = 1 - value
                self.assignments[pi] = alternative
                stack.append((pi, alternative, True))
                self.imply()
                return True
        self.imply()
        return False

    def _success(self) -> PodemResult:
        pattern = {
            net: self.assignments.get(net, self.options.fill_value)
            for net in self.circuit.primary_inputs
        }
        return PodemResult(True, pattern, self.backtracks, decisions=self.decisions)


# --------------------------------------------------------------------------- #
# Public entry points.
# --------------------------------------------------------------------------- #
def generate_stuck_at_test(
    circuit: LogicCircuit,
    fault: StuckAtFault,
    constraints: Mapping[str, int] | None = None,
    options: PodemOptions | None = None,
) -> PodemResult:
    """Generate a single test pattern detecting *fault* (or prove it untestable)."""
    engine = _PodemEngine(circuit, fault, constraints or {}, options or PodemOptions())
    return engine.run()


def justify(
    circuit: LogicCircuit,
    objectives: Mapping[str, int],
    options: PodemOptions | None = None,
) -> PodemResult:
    """Find a primary-input pattern that sets every objective net to its value."""
    engine = _PodemEngine(circuit, None, objectives, options or PodemOptions())
    return engine.run()
