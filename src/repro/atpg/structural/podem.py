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

Forward simulation is one call of the circuit's compiled five-valued
kernel (:meth:`~repro.analysis_static.analysis.CircuitAnalysis.kernel`):
straight-line code over integer net ids, one flat-tuple lookup per gate,
with the fault injected at its site.  The kernel is compiled on the
circuit's first search and shared by every later one; the search state
(input assignments, net values, closure literals) is held in lists indexed
by net id.
"""

from __future__ import annotations

from ...analysis_static.analysis import CircuitAnalysis
from ...faults.stuck_at import StuckAtFault
from ...logic.gates import controlling_value
from ..podem import ABORTED, PROVEN_REDUNDANT, TESTED, PodemOptions, StructuralResult
from .engine import StructuralAtpg, StructuralAtpgError, register_atpg_engine
from .logic5 import FIVE_VALUES, V0, V1, VD, VDB, VX, gate_table, good_bit, is_error


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


#: Five-valued predicates, indexed by value code.
_ERROR = tuple(is_error(v) for v in FIVE_VALUES)
_UNKNOWN = tuple(v == VX for v in FIVE_VALUES)
#: Nets an X-path may cross: every value but a settled 0 or 1.
_PASSABLE = tuple(v not in (V0, V1) for v in FIVE_VALUES)
_GOOD = tuple(good_bit(v) for v in FIVE_VALUES)
#: Value at a stuck-at-*s* site given its fault-free value: X stays X, a
#: good value equal to *s* is unexcited, the other one becomes the error.
_INJECT = tuple(
    tuple(v if _GOOD[v] in (None, stuck) else (VD if stuck == 0 else VDB)
          for v in FIVE_VALUES)
    for stuck in (0, 1)
)


class _PodemSearch:
    def __init__(
        self,
        analysis: CircuitAnalysis,
        fault: StuckAtFault,
        closure: dict[str, int],
        options: PodemOptions,
    ):
        self.analysis = analysis
        self.index = index = analysis.circuit.index
        self.kernel = analysis.kernel(5, gate_table)
        self.fault = fault
        self.site = index.ids[fault.net]
        self.inject = _INJECT[fault.value]
        self.closure = [(index.ids[net], value) for net, value in closure.items()]
        self.options = options
        # Closure literals on primary inputs hold in every test: assign them
        # up front, outside the decision stack, so they are never flipped.
        self.inputs = [VX] * index.n_inputs
        for net, value in self.closure:
            if net < index.n_inputs:
                self.inputs[net] = value
        self.values: list[int] = []
        self._frontier: list[int] | None = None
        self.backtracks = 0
        self.decisions = 0
        self.implications = len(closure)

    # ------------------------------------------------------------------ #
    # Implication: the circuit's compiled five-valued kernel.
    # ------------------------------------------------------------------ #
    def simulate(self) -> None:
        self.values = self.kernel(self.inputs, self.site, self.inject)
        self._frontier = None
        self.implications += 1

    # ------------------------------------------------------------------ #
    # Status predicates (all prunes are sound under monotone simulation).
    # ------------------------------------------------------------------ #
    def detected(self) -> bool:
        values = self.values
        return any(_ERROR[values[po]] for po in self.index.outputs)

    def failed(self) -> bool:
        values = self.values
        for net, needed in self.closure:
            good = _GOOD[values[net]]
            if good is not None and good != needed:
                return True  # a necessary excitation condition is violated
        site = values[self.site]
        if site in (V0, V1):
            return True  # fault site settled to the stuck value: blocked
        if site == VX:
            return False  # activation still open
        return not self._x_path()

    def _d_frontier(self) -> list[int]:
        """Output ids of the D-frontier gates, topological, then by CO."""
        if self._frontier is None:
            names, co = self.index.names, self.analysis.scoap.co
            frontier = self.index.d_frontier(self.values, _ERROR, _UNKNOWN)
            frontier.sort(key=lambda out: co[names[out]])
            self._frontier = frontier
        return self._frontier

    def _x_path(self) -> bool:
        """Unknown-valued path from some D-frontier gate to a primary output."""
        frontier = self._d_frontier()
        if not frontier:
            return self.detected()
        return self.index.x_path(self.values, frontier, _PASSABLE)

    # ------------------------------------------------------------------ #
    # Objective and SCOAP-guided backtrace.
    # ------------------------------------------------------------------ #
    def objective(self) -> tuple[int, int] | None:
        values = self.values
        if values[self.site] == VX:
            return self.site, 1 - self.fault.value
        index = self.index
        for out in self._d_frontier():
            for net in index.gate_inputs[out - index.n_inputs]:
                if _GOOD[values[net]] is None:
                    control = controlling_value(index.order[out - index.n_inputs].gate_type)
                    return net, 1 - control if control is not None else 1
        return None

    def backtrace(self, net: int, value: int) -> tuple[int, int]:
        """SCOAP-guided walk from an objective to an unassigned primary input.

        A net whose good value is unknown always has a good-unknown fan-in
        (five-valued simulation determines outputs from fully known inputs),
        so the walk terminates at an unassigned input by construction.
        """
        scoap = self.analysis.scoap
        index, values = self.index, self.values
        order, names = index.order, index.names
        current, target = net, value
        bound = 2 * len(names) + 4
        for _ in range(bound):
            if current < index.n_inputs:
                if self.inputs[current] != VX:
                    raise StructuralAtpgError(
                        f"backtrace reached assigned input {names[current]!r} "
                        f"(objective {names[net]}={value})"
                    )
                return current, target
            driver = order[current - index.n_inputs]
            unknown = [
                n for n in index.gate_inputs[current - index.n_inputs]
                if _GOOD[values[n]] is None
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
                    unknown, key=lambda n: scoap.controllability(names[n], target)
                )
            else:
                # One input suffices (or no controlling structure): take the
                # cheapest.
                current = min(
                    unknown, key=lambda n: scoap.controllability(names[n], target)
                )
        raise StructuralAtpgError("backtrace exceeded its structural bound")

    # ------------------------------------------------------------------ #
    # Main loop.
    # ------------------------------------------------------------------ #
    def run(self) -> StructuralResult:
        self.simulate()
        stack: list[tuple[int, int, bool]] = []
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
            self.inputs[pi] = pi_value
            self.decisions += 1
            stack.append((pi, pi_value, False))
            self.simulate()

    def _backtrack(self, stack: list[tuple[int, int, bool]]) -> bool:
        while stack:
            pi, value, tried_alternative = stack.pop()
            self.inputs[pi] = VX
            self.backtracks += 1
            if not tried_alternative:
                alternative = 1 - value
                self.inputs[pi] = alternative
                stack.append((pi, alternative, True))
                self.simulate()
                return True
        return False

    def _pattern(self) -> dict[str, int]:
        return {
            net: 0 if value == VX else value
            for net, value in zip(self.index.names, self.inputs)
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
