"""Hardened PODEM over the five-valued calculus.

The classical decision discipline -- decisions only on primary inputs,
objective/backtrace to pick them, five-valued forward simulation as the
implication step -- hardened in four ways over the legacy engine in
:mod:`repro.atpg.podem`:

* **Static implications.**  The excitation closure (everything the learned
  implication engine derives from ``fault.net = 1 - v``) is applied before
  the search: its primary-input literals become *necessary assignments*
  (never backtracked), and every other closure literal is re-checked after
  each simulation -- a settled good value contradicting the closure kills
  the branch immediately, long before the mismatch would surface at the
  fault site.
* **Testability-guided backtrace.**  SCOAP numbers steer the walk from an
  objective to a primary input: when one controlling-side input suffices
  the cheapest is taken, when every input must hold the non-controlling
  value the most expensive is taken first (fail fast on the hardest
  obligation).
* **Sound three-way outcome.**  Exhausting the decision tree with only
  sound prunes (monotone five-valued simulation: a value settled under a
  partial assignment persists under every completion) is a *proof* of
  redundancy; crossing the backtrack budget is reported as ``aborted``,
  never conflated with a proof.
* **Loud invariants.**  The legacy engine silently "flipped the search"
  when backtrace landed on an assigned input; here that would be an
  internal-consistency error and raises.
"""

from __future__ import annotations

from ...analysis_static.analysis import CircuitAnalysis
from ...faults.stuck_at import StuckAtFault
from ...logic.gates import controlling_value
from ..podem import PodemOptions
from .engine import (
    ABORTED,
    PROVEN_REDUNDANT,
    TESTED,
    StructuralAtpg,
    StructuralAtpgError,
    StructuralResult,
    register_atpg_engine,
)
from .logic5 import (
    ERRORS,
    V0,
    V1,
    VD,
    VDB,
    VX,
    from_good_bit,
    gate_table,
    good_bit,
)


class StructuralPodem(StructuralAtpg):
    """PODEM with SCOAP backtrace, closure pruning and sound exhaustion."""

    name = "podem"
    complete = True

    def _search(
        self,
        analysis: CircuitAnalysis,
        fault: StuckAtFault,
        closure: dict[str, int],
        options: PodemOptions,
    ) -> StructuralResult:
        return _PodemSearch(analysis, fault, closure, options).run()


class _PodemSearch:
    def __init__(
        self,
        analysis: CircuitAnalysis,
        fault: StuckAtFault,
        closure: dict[str, int],
        options: PodemOptions,
    ):
        self.analysis = analysis
        self.circuit = analysis.circuit
        self.fault = fault
        self.closure = closure
        self.options = options
        self.site_value = VD if fault.value == 0 else VDB
        self.pi_set = set(self.circuit.primary_inputs)
        # Closure literals on primary inputs hold in every test: assign them
        # up front, outside the decision stack, so they are never flipped.
        self.assignments: dict[str, int] = {
            net: value for net, value in closure.items() if net in self.pi_set
        }
        self.values: dict[str, int] = {}
        self.backtracks = 0
        self.decisions = 0
        self.implications = len(closure)

    # ------------------------------------------------------------------ #
    # Implication: five-valued forward simulation with fault injection.
    # ------------------------------------------------------------------ #
    def simulate(self) -> None:
        values: dict[str, int] = {}
        fault = self.fault
        for net in self.circuit.primary_inputs:
            value = from_good_bit(self.assignments.get(net))
            if net == fault.net:
                value = self._inject(value)
            values[net] = value
        for gate in self.analysis.order:
            value = gate_table(gate.gate_type)[tuple(values[n] for n in gate.inputs)]
            if gate.output == fault.net:
                value = self._inject(value)
            values[gate.output] = value
        self.values = values
        self.implications += 1

    def _inject(self, value: int) -> int:
        """Five-valued value at the fault site given its fault-free value."""
        good = good_bit(value)
        if good is None:
            return VX
        if good == self.fault.value:
            return value  # not excited: both machines agree
        return self.site_value

    # ------------------------------------------------------------------ #
    # Status predicates (all prunes are sound under monotone simulation).
    # ------------------------------------------------------------------ #
    def detected(self) -> bool:
        return any(self.values[po] in ERRORS for po in self.circuit.primary_outputs)

    def failed(self) -> bool:
        for net, needed in self.closure.items():
            good = good_bit(self.values[net])
            if good is not None and good != needed:
                return True  # a necessary excitation condition is violated
        site = self.values[self.fault.net]
        if site in (V0, V1):
            return True  # fault site settled to the stuck value: blocked
        if site == VX:
            return False  # activation still open
        return not self._x_path()

    def _d_frontier(self) -> list:
        frontier = []
        values = self.values
        for gate in self.analysis.order:
            if values[gate.output] != VX:
                continue
            if any(values[n] in ERRORS for n in gate.inputs):
                frontier.append(gate)
        co = self.analysis.scoap.co
        frontier.sort(key=lambda g: co[g.output])
        return frontier

    def _x_path(self) -> bool:
        """Unknown-valued path from some D-frontier gate to a primary output."""
        frontier = self._d_frontier()
        if not frontier:
            return self.detected()
        targets = set(self.circuit.primary_outputs)
        values = self.values
        for gate in frontier:
            stack = [gate.output]
            seen: set[str] = set()
            while stack:
                net = stack.pop()
                if net in seen:
                    continue
                seen.add(net)
                if values[net] in (V0, V1):
                    continue
                if net in targets:
                    return True
                stack.extend(self.analysis.fanout_nets(net))
        return False

    # ------------------------------------------------------------------ #
    # Objective and SCOAP-guided backtrace.
    # ------------------------------------------------------------------ #
    def objective(self) -> tuple[str, int] | None:
        if self.values[self.fault.net] == VX:
            return self.fault.net, 1 - self.fault.value
        for gate in self._d_frontier():
            for net in gate.inputs:
                if good_bit(self.values[net]) is None:
                    control = controlling_value(gate.gate_type)
                    return net, 1 - control if control is not None else 1
        return None

    def backtrace(self, net: str, value: int) -> tuple[str, int]:
        """SCOAP-guided walk from an objective to an unassigned primary input.

        A net whose good value is unknown always has a good-unknown fan-in
        (five-valued simulation determines outputs from fully known inputs),
        so the walk terminates at an unassigned input by construction.
        """
        scoap = self.analysis.scoap
        current, target = net, value
        bound = 2 * (len(self.circuit) + len(self.circuit.primary_inputs)) + 4
        for _ in range(bound):
            driver = self.circuit.driver_of(current)
            if driver is None:
                if current in self.assignments:
                    raise StructuralAtpgError(
                        f"backtrace reached assigned input {current!r} "
                        f"(objective {net}={value})"
                    )
                return current, target
            unknown = [
                n for n in driver.inputs if good_bit(self.values[n]) is None
            ]
            if not unknown:
                raise StructuralAtpgError(
                    f"backtrace stuck at justified gate {driver.name!r}"
                )
            target = 1 - target if driver.gate_type.is_inverting else target
            control = controlling_value(driver.gate_type)
            if control is not None and target != control:
                # Every input must hold the non-controlling value: take the
                # hardest obligation first so conflicts surface early.
                current = max(
                    unknown, key=lambda n: scoap.controllability(n, target)
                )
            else:
                # One input suffices (or no controlling structure): take the
                # cheapest.
                current = min(
                    unknown, key=lambda n: scoap.controllability(n, target)
                )
        raise StructuralAtpgError("backtrace exceeded its structural bound")

    # ------------------------------------------------------------------ #
    # Main loop.
    # ------------------------------------------------------------------ #
    def run(self) -> StructuralResult:
        self.simulate()
        stack: list[tuple[str, int, bool]] = []
        while True:
            if self.detected():
                return self._result(TESTED, self._pattern())
            if self.failed() or (objective := self.objective()) is None:
                if not self._backtrack(stack):
                    return self._result(PROVEN_REDUNDANT, None)
                continue
            if self.backtracks >= self.options.max_backtracks:
                return self._result(ABORTED, None)
            pi, pi_value = self.backtrace(*objective)
            self.assignments[pi] = pi_value
            self.decisions += 1
            stack.append((pi, pi_value, False))
            self.simulate()

    def _backtrack(self, stack: list[tuple[str, int, bool]]) -> bool:
        while stack:
            pi, value, tried_alternative = stack.pop()
            del self.assignments[pi]
            self.backtracks += 1
            if not tried_alternative:
                alternative = 1 - value
                self.assignments[pi] = alternative
                stack.append((pi, alternative, True))
                self.simulate()
                return True
        return False

    def _pattern(self) -> dict[str, int]:
        fill = self.options.fill_value
        return {
            net: self.assignments.get(net, fill)
            for net in self.circuit.primary_inputs
        }

    def _result(self, status: str, pattern: dict[str, int] | None) -> StructuralResult:
        return StructuralResult(
            status,
            pattern,
            backtracks=self.backtracks,
            decisions=self.decisions,
            implications=self.implications,
            engine=StructuralPodem.name,
        )


register_atpg_engine(StructuralPodem())
