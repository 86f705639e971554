"""PODEM test generation for stuck-at faults, with value constraints.

The engine serves three callers:

* classical stuck-at ATPG (``generate_stuck_at_test``);
* pure justification of net-value objectives (``justify``), used for the
  first pattern of two-pattern tests;
* constrained stuck-at ATPG, where specific nets must settle to required
  good-machine values in addition to detecting the fault -- this is how the
  OBD ATPG pins the defective gate's inputs to the excitation cube.

Implication is compiled: each net carries its (good, faulty) value as one
of nine *pair codes*, and each gate type has a truth table over those codes,
read rail by rail off :func:`repro.logic.gates.ternary_table`
(:func:`_table`).  The circuit's
:class:`~repro.analysis_static.analysis.CircuitAnalysis` turns
the tables into one straight-line kernel over integer net ids, compiled on
the first search and shared by every later one; an implication pass is one
kernel call, one flat-tuple lookup per gate.  The search state (input
assignments, net values, constraints) is held in lists indexed by net id.

Every search here and in :mod:`repro.atpg.structural` returns one
:class:`StructuralResult`; the two-rail search reports no implication count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Mapping, Optional

from ..analysis_static.analysis import circuit_analysis
from ..faults.stuck_at import StuckAtFault
from ..logic.gates import GateType, controlling_value, ternary_table
from ..logic.netlist import LogicCircuit
from .values import LogicValue, from_bit

#: The nine (good, faulty) pairs over 0/1/unknown.  The search carries each
#: net's value as its index here, its *pair code* ``good * 3 + faulty`` with
#: unknown coded as 2: X is 8, D is 3 and D-bar is 1.
_PAIRS = tuple(LogicValue(good, faulty) for good in (0, 1, None) for faulty in (0, 1, None))
_GOOD = tuple(value.good for value in _PAIRS)
_KNOWN = tuple(value.is_known for value in _PAIRS)
_ERROR = tuple(value.is_error for value in _PAIRS)
_FROM_BIT = {bit: _PAIRS.index(from_bit(bit)) for bit in (0, 1, None)}
_X = _FROM_BIT[None]


@lru_cache(maxsize=64)
def _table(gate_type: GateType, stuck: Optional[int] = None) -> dict[tuple[int, ...], int]:
    """Two-rail truth table of one gate type over pair codes.

    Built once per gate type from the exact three-valued table, one rail per
    quotient and remainder of the codes by 3; the implication kernel
    flattens it into one tuple indexed by the input codes.  With *stuck*
    set, the faulty rail of the output is forced to it: the table of a gate
    whose output carries the stuck-at fault.
    """
    if stuck is not None:
        return {key: code // 3 * 3 + stuck for key, code in _table(gate_type).items()}
    ternary = ternary_table(gate_type)
    return {
        codes: ternary[tuple(c // 3 for c in codes)] * 3 + ternary[tuple(c % 3 for c in codes)]
        for codes in product(range(len(_PAIRS)), repeat=GateType(gate_type).num_inputs)
    }


@dataclass
class PodemOptions:
    """Search controls for the PODEM engine."""

    max_backtracks: int = 20_000

    def __post_init__(self) -> None:
        budget = self.max_backtracks
        if not isinstance(budget, int) or isinstance(budget, bool) or budget < 0:
            raise ValueError(f"max_backtracks must be an int >= 0, got {budget!r}")


#: The three outcomes of one search.
TESTED = "tested"
PROVEN_REDUNDANT = "proven_redundant"
ABORTED = "aborted"

STATUSES = (TESTED, PROVEN_REDUNDANT, ABORTED)


@dataclass(frozen=True)
class StructuralResult:
    """Outcome of one search: the result every search engine returns.

    ``status`` is ``tested`` (with the primary-input ``pattern``),
    ``proven_redundant`` (a complete search exhausted: no test exists) or
    ``aborted`` (the backtrack budget ran out, or the engine gave up
    heuristically, so exhaustion proves nothing).
    """

    status: str
    pattern: Optional[dict[str, int]]
    backtracks: int = 0
    decisions: int = 0
    #: Net values derived by implication (forward five-valued propagation,
    #: backward unique justification, learned-closure assignments); the
    #: two-rail search does not count them and reports 0.
    implications: int = 0
    engine: str = ""

    @property
    def success(self) -> bool:
        return self.status == TESTED

    @property
    def aborted(self) -> bool:
        return self.status == ABORTED

    @property
    def untestable(self) -> bool:
        """The fault is proven redundant (complete search exhausted)."""
        return self.status == PROVEN_REDUNDANT

    def describe(self) -> str:
        return (
            f"[{self.engine}] {self.status}: {self.backtracks} backtracks, "
            f"{self.decisions} decisions, {self.implications} implications"
        )


#: Pair-code predicates for the D-frontier and the X-path walk.
_UNKNOWN = tuple(not known for known in _KNOWN)
_PASSABLE = tuple(not known or error for known, error in zip(_KNOWN, _ERROR))
#: Pair code at a stuck-at-*s* site given its fault-free code: the faulty
#: rail is forced to *s*.
_INJECT = tuple(tuple(code // 3 * 3 + stuck for code in range(len(_PAIRS))) for stuck in (0, 1))


class _PodemEngine:
    """One PODEM search over a circuit with an optional fault and constraints."""

    def __init__(
        self,
        circuit: LogicCircuit,
        fault: Optional[StuckAtFault],
        constraints: Mapping[str, int],
        options: PodemOptions,
    ):
        self.fault = fault
        self.options = options
        self.analysis = circuit_analysis(circuit)
        self.index = index = circuit.index
        self._validate(constraints)
        self.kernel = self.analysis.kernel(len(_PAIRS), _table)
        #: Fault-site id (-1 without a fault) and its injection tuple.
        self.site = index.ids[fault.net] if fault is not None else -1
        self.inject = _INJECT[fault.value] if fault is not None else _INJECT[0]
        self.constraints = [(index.ids[net], value) for net, value in constraints.items()]
        #: Pair code of every primary input: X until assigned.
        self.inputs = [_X] * index.n_inputs
        #: Pair code of every net (see :data:`_PAIRS`), by net id.
        self.values: list[int] = []
        self.backtracks = 0
        self.decisions = 0
        #: Set when a branch is abandoned without exploring it (backtrace
        #: landing on an assigned or non-input net).  Once set, exhausting
        #: the stack no longer proves untestability: the result is reported
        #: as aborted, never as "no test exists".
        self.gave_up = False

    def _validate(self, constraints: Mapping[str, int]) -> None:
        nets = self.index.ids
        if self.fault is not None and self.fault.net not in nets:
            raise ValueError(f"fault net {self.fault.net!r} is not in the circuit")
        for net, value in constraints.items():
            if net not in nets:
                raise ValueError(f"constraint net {net!r} is not in the circuit")
            if value not in (0, 1):
                raise ValueError(f"constraint value for {net!r} must be 0/1")

    # ------------------------------------------------------------------ #
    # Implication: the circuit's compiled two-rail kernel.
    # ------------------------------------------------------------------ #
    def imply(self) -> None:
        self.values = self.kernel(self.inputs, self.site, self.inject)

    # ------------------------------------------------------------------ #
    # Status predicates.
    # ------------------------------------------------------------------ #
    def fault_detected(self) -> bool:
        if self.fault is None:
            return False
        values = self.values
        return any(_ERROR[values[net]] for net in self.index.outputs)

    def constraints_satisfied(self) -> bool:
        values = self.values
        return all(_GOOD[values[net]] == value for net, value in self.constraints)

    def constraints_violated(self) -> bool:
        values = self.values
        for net, value in self.constraints:
            good = _GOOD[values[net]]
            if good is not None and good != value:
                return True
        return False

    def fault_activation_blocked(self) -> bool:
        """Fault site already settled to the stuck value in the good machine."""
        if self.fault is None:
            return False
        good = _GOOD[self.values[self.site]]
        return good is not None and good == self.fault.value

    def d_frontier(self) -> list[int]:
        """Output ids of the D-frontier gates, in topological order."""
        return self.index.d_frontier(self.values, _ERROR, _UNKNOWN)

    def fault_activated(self) -> bool:
        """The fault site carries an error value (D or D-bar)."""
        if self.fault is None:
            return False
        return _ERROR[self.values[self.site]]

    def x_path_exists(self) -> bool:
        """Is there a path of unknown-valued nets from the D-frontier to a PO?"""
        if self.fault is None:
            return True
        frontier = self.d_frontier()
        if not frontier:
            # Either already detected, or nothing left to propagate.
            return self.fault_detected()
        return self.index.x_path(self.values, frontier, _PASSABLE)

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
    def objective(self) -> Optional[tuple[int, int]]:
        values = self.values
        # 1. Unsatisfied constraints.
        for net, value in self.constraints:
            if _GOOD[values[net]] is None:
                return net, value
        # 2. Fault activation.
        if self.fault is not None:
            good = _GOOD[values[self.site]]
            if good is None:
                return self.site, 1 - self.fault.value
            # 3. Fault propagation through the D-frontier.
            frontier = self.d_frontier()
            if frontier:
                gate = frontier[0] - self.index.n_inputs
                for net in self.index.gate_inputs[gate]:
                    if _GOOD[values[net]] is None:
                        # The non-controlling value; 1 where the gate has none.
                        control = controlling_value(self.index.order[gate].gate_type)
                        return net, 1 - control if control is not None else 1
        return None

    def backtrace(self, net: int, value: int) -> tuple[int, int]:
        """Walk backwards from an objective to a primary input."""
        index, values = self.index, self.values
        current, target = net, value
        for _ in range(10 * len(index.names) + 10):
            if current < index.n_inputs:
                return current, target
            gate = current - index.n_inputs
            inputs = index.gate_inputs[gate]
            # The first good-unknown input; with everything justified below,
            # fall back to the first input.
            current = next((n for n in inputs if _GOOD[values[n]] is None), inputs[0])
            # The input value most likely to produce *target* at the output.
            if index.order[gate].gate_type.is_inverting:
                target = 1 - target
        return current, target  # pragma: no cover - safety net

    # ------------------------------------------------------------------ #
    # Main search loop.
    # ------------------------------------------------------------------ #
    def run(self) -> StructuralResult:
        self.imply()
        stack: list[tuple[int, int, bool]] = []  # (pi, value, alternative tried)
        while True:
            if self.done():
                return self._success()
            if self.failed() or (objective := self.objective()) is None:
                if not self._backtrack(stack):
                    return self._exhausted()
                continue
            if self.backtracks > self.options.max_backtracks:
                return self._result(ABORTED)
            pi, pi_value = self.backtrace(*objective)
            if pi >= self.index.n_inputs or self.inputs[pi] != _X:
                # Backtrace landed on an assigned (or non-input) net: the
                # branch is abandoned *heuristically*, not refuted, so a
                # later stack exhaustion must be reported as aborted rather
                # than as a proof that no test exists.
                self.gave_up = True
                if not self._backtrack(stack):
                    return self._exhausted()
                continue
            self.inputs[pi] = _FROM_BIT[pi_value]
            self.decisions += 1
            stack.append((pi, pi_value, False))
            self.imply()

    def _exhausted(self) -> StructuralResult:
        """Decision stack exhausted: a proof only if no branch was abandoned."""
        return self._result(ABORTED if self.gave_up else PROVEN_REDUNDANT)

    def _backtrack(self, stack: list[tuple[int, int, bool]]) -> bool:
        """Flip the deepest untried decision; False once the stack is exhausted."""
        while stack:
            pi, value, tried_alternative = stack.pop()
            self.inputs[pi] = _X
            self.backtracks += 1
            if not tried_alternative:
                alternative = 1 - value
                self.inputs[pi] = _FROM_BIT[alternative]
                stack.append((pi, alternative, True))
                self.imply()
                return True
        return False

    def _success(self) -> StructuralResult:
        # Primary inputs the search left unassigned are filled with 0.
        pattern = {
            net: _GOOD[code] if _KNOWN[code] else 0
            for net, code in zip(self.index.names, self.inputs)
        }
        return self._result(TESTED, pattern)

    def _result(self, status: str, pattern: dict[str, int] | None = None) -> StructuralResult:
        return StructuralResult(status, pattern, self.backtracks, self.decisions, engine="two-rail")


# --------------------------------------------------------------------------- #
# Public entry points.
# --------------------------------------------------------------------------- #
def generate_stuck_at_test(
    circuit: LogicCircuit,
    fault: StuckAtFault,
    constraints: Mapping[str, int] | None = None,
    options: PodemOptions | None = None,
) -> StructuralResult:
    """Generate a single test pattern detecting *fault* (or prove it untestable)."""
    engine = _PodemEngine(circuit, fault, constraints or {}, options or PodemOptions())
    return engine.run()


def justify(
    circuit: LogicCircuit,
    objectives: Mapping[str, int],
    options: PodemOptions | None = None,
) -> StructuralResult:
    """Find a primary-input pattern that sets every objective net to its value."""
    engine = _PodemEngine(circuit, None, objectives, options or PodemOptions())
    return engine.run()
