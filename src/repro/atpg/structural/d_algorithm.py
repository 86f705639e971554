"""Roth's D-algorithm with explicit D-frontier / J-frontier bookkeeping.

Unlike PODEM, decisions are made on *internal* nets: a propagation decision
picks a D-frontier gate and a side-input completion that pushes the error
through it; a justification decision picks a J-frontier gate (assigned
output, inputs not yet implying it) and one of its justification cubes.
Between decisions an implication fixpoint runs forward (gate tables) and
backward (unique-cube consequences), recording every derived value on a
trail so chronological backtracking is an O(undone) pop.

Completeness -- what makes ``proven_redundant`` a proof -- rests on three
properties, each load-bearing:

* a propagation decision branches over **all** D-frontier gates times all
  error-producing side-input completions (any test propagates through some
  currently-frontier gate with some concrete side-input cube, so the test
  survives into at least one branch);
* a justification decision branches over **all** cubes of one gate (every
  gate must be justified eventually, so fixing the gate order loses
  nothing);
* justification domains range over {0, 1, D, D'} for nets inside the
  fault's fan-out cone and {0, 1} outside -- restricting cone nets to
  Boolean values would wrongly prune tests whose justification itself
  carries the error, and is the classic way D-algorithm implementations
  lose their redundancy proofs.

The backtrack budget turns an over-long search into ``aborted``; only full
exhaustion claims ``proven_redundant``.
"""

from __future__ import annotations

from typing import Optional

from ...analysis_static.analysis import CircuitAnalysis
from ...faults.stuck_at import StuckAtFault
from ..podem import PodemOptions
from .engine import (
    ABORTED,
    PROVEN_REDUNDANT,
    TESTED,
    StructuralAtpg,
    StructuralResult,
    register_atpg_engine,
)
from .logic5 import (
    ERRORS,
    FIVE_VALUES,
    V0,
    V1,
    VD,
    VDB,
    VX,
    from_good_bit,
    gate_table,
    good_bit,
    justification_cubes,
    propagation_cubes,
)

#: Justification domains: Boolean outside the fault cone, full inside.
_BOOL = (V0, V1)
_FULL = (V0, V1, VD, VDB)
#: Nets an X-path may cross, by value code: every value but a settled 0 or 1.
_PASSABLE = tuple(v not in _BOOL for v in FIVE_VALUES)


class DAlgorithm(StructuralAtpg):
    """The D-algorithm: complete search over net-value decisions."""

    name = "d-alg"
    complete = True

    def _search(
        self,
        analysis: CircuitAnalysis,
        fault: StuckAtFault,
        closure: dict[str, int],
        options: PodemOptions,
    ) -> StructuralResult:
        return _DAlgSearch(analysis, fault, closure, options).run()


#: One decision alternative: the (gate, input-cube) pair to apply.
_Alternative = tuple[object, tuple[int, ...]]


class _DAlgSearch:
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
        self.options = options
        self.index = analysis.circuit.index
        self.cone = analysis.circuit.fanout_cone(fault.net)
        self.fault_driver = analysis.circuit.driver_of(fault.net)
        self.site_value = VD if fault.value == 0 else VDB
        self.values: dict[str, int] = {}
        self.trail: list[str] = []
        self.backtracks = 0
        self.decisions = 0
        self.implications = 0
        self.conflict = False
        # Seed: the fault site carries the error, and every closure literal
        # on a net outside the cone (where good == faulty) is a necessary
        # assignment of any test.
        self._assign(fault.net, self.site_value)
        for net, value in closure.items():
            if net != fault.net and net not in self.cone:
                self._assign(net, from_good_bit(value))
        self.implications += len(closure)

    # ------------------------------------------------------------------ #
    # Assignment trail.
    # ------------------------------------------------------------------ #
    def _assign(self, net: str, value: int) -> bool:
        current = self.values.get(net)
        if current is not None:
            if current != value:
                self.conflict = True
                return False
            return True
        self.values[net] = value
        self.trail.append(net)
        return True

    def _undo_to(self, mark: int) -> None:
        while len(self.trail) > mark:
            del self.values[self.trail.pop()]
        self.conflict = False

    def _domain(self, net: str) -> tuple[int, ...]:
        value = self.values.get(net)
        if value is not None:
            return (value,)
        return _FULL if net in self.cone else _BOOL

    def _required(self, gate) -> int:
        """The five-valued output value *gate* must justify.

        The fault-site driver is special: the net carries D/D' but the gate
        itself lives in the good machine, so it must justify the good value
        ``1 - fault.value``.
        """
        if gate is self.fault_driver:
            return from_good_bit(1 - self.fault.value)
        return self.values[gate.output]

    # ------------------------------------------------------------------ #
    # Implication fixpoint: forward tables + backward unique cubes.
    # ------------------------------------------------------------------ #
    def imply(self) -> bool:
        changed = True
        while changed and not self.conflict:
            changed = False
            for gate in self.index.order:
                table = gate_table(gate.gate_type)
                computed = table[tuple(self.values.get(n, VX) for n in gate.inputs)]
                if gate is self.fault_driver:
                    required = self._required(gate)
                    if computed != VX:
                        if computed != required:
                            self.conflict = True
                            return False
                        continue
                elif (required := self.values.get(gate.output)) is None:
                    if computed != VX:
                        self._assign(gate.output, computed)
                        self.implications += 1
                        changed = True
                    continue
                elif computed != VX:
                    if computed != required:
                        self.conflict = True
                        return False
                    continue
                # Output required but not implied: backward unique-cube pass.
                domains = tuple(self._domain(n) for n in gate.inputs)
                cubes = justification_cubes(gate.gate_type, required, domains)
                if not cubes:
                    self.conflict = True
                    return False
                for position, net in enumerate(gate.inputs):
                    if self.values.get(net) is not None:
                        continue
                    first = cubes[0][position]
                    if all(cube[position] == first for cube in cubes):
                        self._assign(net, first)
                        self.implications += 1
                        changed = True
                        if self.conflict:
                            return False
        return not self.conflict

    # ------------------------------------------------------------------ #
    # Frontiers and prunes.
    # ------------------------------------------------------------------ #
    def _d_frontier(self) -> list:
        frontier = []
        for gate in self.index.order:
            if self.values.get(gate.output) is not None:
                continue
            if any(self.values.get(n, VX) in ERRORS for n in gate.inputs):
                frontier.append(gate)
        co = self.analysis.scoap.co
        frontier.sort(key=lambda g: co[g.output])
        return frontier

    def _j_frontier(self) -> list:
        frontier = []
        for gate in self.index.order:
            if gate is not self.fault_driver and self.values.get(gate.output) is None:
                continue
            computed = gate_table(gate.gate_type)[
                tuple(self.values.get(n, VX) for n in gate.inputs)
            ]
            if computed == VX:
                frontier.append(gate)
        ids, levels = self.index.ids, self.index.levels
        frontier.sort(key=lambda g: -levels[ids[g.output]])
        return frontier

    def _error_at_output(self) -> bool:
        return any(
            self.values.get(po, VX) in ERRORS for po in self.circuit.primary_outputs
        )

    def _pruned(self) -> bool:
        """Sound dead-branch checks (error masked, or no X-path left)."""
        if self._error_at_output():
            return False
        frontier = self._d_frontier()
        if not frontier:
            return True  # the site error is masked on every path
        index = self.index
        values = [self.values.get(net, VX) for net in index.names]
        starts = [index.ids[gate.output] for gate in frontier]
        return not index.x_path(values, starts, _PASSABLE)

    # ------------------------------------------------------------------ #
    # Decisions.
    # ------------------------------------------------------------------ #
    def _alternatives(self) -> Optional[list[_Alternative]]:
        """The complete branch set of the next decision (None when solved)."""
        if not self._error_at_output():
            alternatives: list[_Alternative] = []
            for gate in self._d_frontier():
                inputs = tuple(self.values.get(n, VX) for n in gate.inputs)
                domains = tuple(
                    _FULL if n in self.cone else _BOOL for n in gate.inputs
                )
                for cube in propagation_cubes(gate.gate_type, inputs, domains):
                    alternatives.append((gate, cube))
            return alternatives
        j_frontier = self._j_frontier()
        if not j_frontier:
            return None  # detected and fully justified: a test
        gate = j_frontier[0]
        domains = tuple(self._domain(n) for n in gate.inputs)
        cubes = justification_cubes(gate.gate_type, self._required(gate), domains)
        return [(gate, cube) for cube in cubes]

    def _apply(self, alternative: _Alternative) -> None:
        gate, cube = alternative
        self.decisions += 1
        for net, value in zip(gate.inputs, cube):
            if not self._assign(net, value):
                return

    # ------------------------------------------------------------------ #
    # Main loop.
    # ------------------------------------------------------------------ #
    def run(self) -> StructuralResult:
        if self.conflict:  # contradictory seed: closure vs. site error
            return self._result(PROVEN_REDUNDANT, None)
        stack: list[tuple[list[_Alternative], int, int]] = []
        while True:
            if self.imply() and not self._pruned():
                alternatives = self._alternatives()
                if alternatives is None:
                    return self._result(TESTED, self._pattern())
                if alternatives:
                    mark = len(self.trail)
                    stack.append((alternatives, 0, mark))
                    self._apply(alternatives[0])
                    continue
            # Dead branch: chronological backtrack to the next alternative.
            while stack:
                alternatives, index, mark = stack[-1]
                self._undo_to(mark)
                self.backtracks += 1
                if self.backtracks >= self.options.max_backtracks:
                    return self._result(ABORTED, None)
                index += 1
                if index < len(alternatives):
                    stack[-1] = (alternatives, index, mark)
                    self._apply(alternatives[index])
                    break
                stack.pop()
            else:
                return self._result(PROVEN_REDUNDANT, None)

    def _pattern(self) -> dict[str, int]:
        fill = self.options.fill_value
        pattern = {}
        for net in self.circuit.primary_inputs:
            bit = good_bit(self.values.get(net, VX))
            pattern[net] = fill if bit is None else bit
        return pattern

    def _result(self, status: str, pattern: dict[str, int] | None) -> StructuralResult:
        return StructuralResult(
            status,
            pattern,
            backtracks=self.backtracks,
            decisions=self.decisions,
            implications=self.implications,
            engine=DAlgorithm.name,
        )


register_atpg_engine(DAlgorithm())
