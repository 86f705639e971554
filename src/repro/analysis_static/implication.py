"""Ternary (0/1/X) static implication with pairwise static learning.

The engine reasons about *necessary consequences* of partial net-value
assignments.  Every gate contributes a relation -- the set of value rows its
truth table allows over its **distinct** nets (tied pins collapse, so e.g.
``XOR2(x, x)`` only allows rows with output 0) -- and a worklist pass filters
each touched relation against the currently known values:

* if no row survives, the assignment is **contradictory** (no input vector
  produces it);
* if every surviving row agrees on a still-unknown net, that value is
  **forced** and propagates further, forward and backward alike.

The filter is table-driven.  The scalar row filter (:func:`_filter_rows`)
is the reference: for each gate shape -- gate type plus pin-tie pattern,
never net names -- it is evaluated once, on first use, over every ternary
state of the shape's nets, and a worklist visit is one lookup.

Because only forced values are ever derived, the engine is *sound but
incomplete*: ``imply`` returning a value map means every complete consistent
assignment extends it, and ``imply`` returning None means the seed
assignment is unsatisfiable -- but satisfiable seeds may still come back
with few derived values.

:func:`learn_implications` adds the classical pairwise static-learning pass:
assert each single net value, record what it forces elsewhere, and keep the
contrapositives.  The learned pairs feed back into
:class:`ImplicationEngine` to strengthen later ``imply`` calls (used by the
untestability prover in :mod:`repro.analysis_static.untestable`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import TYPE_CHECKING, Mapping, Optional

from ..logic.gates import GateType, evaluate_gate

if TYPE_CHECKING:
    from ..logic.netlist import LogicCircuit

#: A single-net assignment: ``(net, value)`` with value 0 or 1.
Literal = tuple[str, int]


def _tie_pattern(
    inputs: tuple[str, ...], output: str
) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """The gate's distinct nets and its pin-tie pattern.

    ``nets`` lists the distinct input nets in first-use order, followed by
    the output net unless it already appears among them.  The pattern holds,
    for every input pin and then the output, the position of its net in
    ``nets``: ``NAND3(a, b, a)`` has pattern ``(0, 1, 0, 2)``.  Gates with
    the same type and pattern share one relation whatever their net names.
    """
    nets = tuple(dict.fromkeys(inputs))
    if output not in nets:
        nets += (output,)
    return nets, tuple(nets.index(net) for net in inputs + (output,))


@lru_cache(maxsize=None)
def _relation_rows(gate_type: GateType, pattern: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Rows of the relation of one gate shape (see :func:`_gate_relation`)."""
    *pins, out = pattern
    width = max(pins) + 1
    rows: list[tuple[int, ...]] = []
    for value in range(2**width):
        assign = tuple((value >> (width - 1 - i)) & 1 for i in range(width))
        result = evaluate_gate(gate_type, [assign[pin] for pin in pins])
        if out < width:
            # Self-loop (only possible in cyclic netlists): keep the row
            # only when it is a fixed point of the gate function.
            if assign[out] == result:
                rows.append(assign)
        else:
            rows.append(assign + (result,))
    return tuple(rows)


def _gate_relation(
    gate_type: GateType, inputs: tuple[str, ...], output: str
) -> tuple[tuple[str, ...], tuple[tuple[int, ...], ...]]:
    """The gate's relation over its distinct nets.

    Returns ``(nets, rows)`` where ``nets`` lists the distinct input nets
    followed by the output net, and each row assigns one value per entry of
    ``nets``.  Tied pins (the same net on several inputs) are merged, so
    rows where tied pins would disagree simply do not exist -- this is what
    lets the engine prove ``XOR2(x, x)`` constant 0.  The rows are cached
    per gate shape, not per gate.
    """
    nets, pattern = _tie_pattern(inputs, output)
    return nets, _relation_rows(gate_type, pattern)


def _filter_rows(
    rows: tuple[tuple[int, ...], ...], known: tuple[Optional[int], ...]
) -> Optional[tuple[tuple[int, int], ...]]:
    """Filter a relation against known values (None = unknown).

    Returns None when no row survives (a conflict), else the ``(position,
    value)`` pairs every surviving row agrees on at an unknown position.
    """
    consistent = [
        row for row in rows if all(k is None or k == bit for k, bit in zip(known, row))
    ]
    if not consistent:
        return None
    first = consistent[0]
    return tuple(
        (position, first[position])
        for position, k in enumerate(known)
        if k is None and all(row[position] == first[position] for row in consistent)
    )


@lru_cache(maxsize=None)
def _closure_table(
    gate_type: GateType, pattern: tuple[int, ...]
) -> tuple[Optional[tuple[tuple[int, int], ...]], ...]:
    """:func:`_filter_rows` of one gate shape for every ternary state.

    Entry ``sum(code[i] * 3**(width-1-i))`` holds the result for the known
    values ``code`` (0, 1, or 2 for unknown) over the shape's distinct nets.
    """
    rows = _relation_rows(gate_type, pattern)
    return tuple(
        _filter_rows(rows, known) for known in product((0, 1, None), repeat=max(pattern) + 1)
    )


class ImplicationEngine:
    """Worklist constant propagation over one circuit.

    ``learned`` maps a literal to the literals it is known to force (from
    :func:`learn_implications`); ``constants`` seeds extra net values proven
    elsewhere (e.g. learning-discovered constants).  Both strengthen every
    subsequent :meth:`imply` call.

    The engine computes its :attr:`baseline` -- the closure of the empty
    assignment, i.e. all structurally forced constants -- once on
    construction, and every ``imply`` starts from that baseline.
    """

    def __init__(
        self,
        circuit: "LogicCircuit",
        learned: Mapping[Literal, tuple[Literal, ...]] | None = None,
        constants: Mapping[str, int] | None = None,
    ):
        self.circuit = circuit
        self.learned: dict[Literal, tuple[Literal, ...]] = {
            key: tuple(value) for key, value in (learned or {}).items()
        }
        self._gates = list(circuit)
        #: Per gate: its distinct nets and its shape's closure table.
        self._relations = []
        for gate in self._gates:
            nets, pattern = _tie_pattern(gate.inputs, gate.output)
            self._relations.append((nets, _closure_table(gate.gate_type, pattern)))
        self._nets = set(circuit.nets())
        touch: dict[str, list[int]] = {}
        for index, gate in enumerate(self._gates):
            for net in {gate.output, *gate.inputs}:
                touch.setdefault(net, []).append(index)
        self._touch = touch
        baseline = self._closure(constants or {}, {}, seed_all=True)
        if baseline is None:
            raise ValueError("contradictory seed constants for implication engine")
        self.baseline: dict[str, int] = baseline

    # ------------------------------------------------------------------ #
    # Core propagation.
    # ------------------------------------------------------------------ #
    def imply(self, assignments: Mapping[str, int]) -> Optional[dict[str, int]]:
        """Closure of *assignments* (plus the baseline), or None on conflict.

        The returned map contains every net value that holds in *every*
        complete consistent assignment extending *assignments*; None means
        no complete consistent assignment exists at all.
        """
        for net, value in assignments.items():
            if net not in self._nets:
                raise ValueError(f"net {net!r} is not in the circuit")
            if value not in (0, 1):
                raise ValueError(f"value for {net!r} must be 0/1")
        return self._closure(assignments, self.baseline, seed_all=False)

    def _closure(
        self,
        assignments: Mapping[str, int],
        baseline: Mapping[str, int],
        seed_all: bool,
    ) -> Optional[dict[str, int]]:
        values = dict(baseline)
        work: deque[int] = deque()
        in_work = [False] * len(self._gates)
        todo: list[Literal] = [(net, int(value)) for net, value in assignments.items()]
        if seed_all:
            work.extend(range(len(self._gates)))
            in_work = [True] * len(self._gates)

        def enqueue(net: str) -> None:
            for index in self._touch.get(net, ()):
                if not in_work[index]:
                    in_work[index] = True
                    work.append(index)

        while todo or work:
            while todo:
                net, value = todo.pop()
                current = values.get(net)
                if current is not None:
                    if current != value:
                        return None
                    continue
                values[net] = value
                todo.extend(self.learned.get((net, value), ()))
                enqueue(net)
            if not work:
                break
            index = work.popleft()
            in_work[index] = False
            nets, table = self._relations[index]
            state = 0
            for net in nets:
                state = state * 3 + values.get(net, 2)
            forced = table[state]
            if forced is None:
                return None
            for position, value in forced:
                todo.append((nets[position], value))
        return values


@dataclass(frozen=True)
class StaticLearning:
    """Result of the pairwise static-learning pass.

    ``implications`` maps each literal to the tuple of literals it forces
    (contrapositives included); ``constants`` collects every net proven to
    hold a fixed value -- structurally forced baseline constants plus nets
    whose opposite assignment was contradictory during learning.
    """

    implications: dict[Literal, tuple[Literal, ...]] = field(default_factory=dict)
    constants: dict[str, int] = field(default_factory=dict)


def learn_implications(
    circuit: "LogicCircuit", engine: ImplicationEngine | None = None
) -> StaticLearning:
    """Pairwise static learning: assert each net value once, record what it forces.

    For every non-constant net ``n`` and value ``v``, run ``imply({n: v})``:

    * a conflict proves ``n`` is constant at ``1 - v``;
    * every newly derived value ``m = w`` yields the learned implication
      ``(n, v) => (m, w)`` *and* its contrapositive ``(m, 1-w) => (n, 1-v)``
      (modus tollens), which is how backward-unreachable conclusions become
      usable by later forward passes.
    """
    engine = engine or ImplicationEngine(circuit)
    constants = dict(engine.baseline)
    pairs: dict[Literal, dict[Literal, None]] = {}

    def record(source: Literal, target: Literal) -> None:
        pairs.setdefault(source, {})[target] = None

    for net in circuit.nets():
        if net in constants:
            continue
        for value in (0, 1):
            result = engine.imply({net: value})
            if result is None:
                constants[net] = 1 - value
                continue
            for other, forced in result.items():
                if other == net or other in engine.baseline:
                    continue
                record((net, value), (other, forced))
                record((other, 1 - forced), (net, 1 - value))
    implications = {
        source: tuple(targets) for source, targets in pairs.items()
    }
    return StaticLearning(implications=implications, constants=constants)
