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

The worklist runs on the dense net ids of the circuit's structural index,
over one value list that holds the baseline constants.  A closure records
each assignment on an undo trail (the standard SAT-solver structure; Eén
and Sörensson, SAT 2003) and, when it returns, resets only the trailed ids
instead of copying the value list per call.

Because only forced values are ever derived, the engine is *sound but
incomplete*: ``imply`` returning a value map means every complete consistent
assignment extends it, and ``imply`` returning None means the seed
assignment is unsatisfiable -- but satisfiable seeds may still come back
with few derived values.

:func:`learn_implications` adds the classical pairwise static-learning pass:
assert each single net value, see what it forces elsewhere, and keep the
contrapositives that plain implication cannot derive (SOCRATES; Schulz,
Trischler and Sarfert, IEEE TCAD 1988).  The learned pairs feed back into
:class:`ImplicationEngine` to strengthen later ``imply`` calls (used by the
untestability prover in :mod:`repro.analysis_static.untestable` and the
excitation closures of the structural ATPG engines).
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
    """Worklist constant propagation over one circuit, on its net ids.

    Nets are the ids of the circuit's :attr:`~repro.logic.netlist.LogicCircuit.index`,
    and the literal ``net = value`` is the code ``2*id + value``.  ``learned``
    maps a literal to the literals it is known to force (from
    :func:`learn_implications`); ``constants`` seeds extra net values proven
    elsewhere (e.g. learning-discovered constants).  Both strengthen every
    subsequent :meth:`imply` call.

    The engine computes its :attr:`baseline` -- the closure of the empty
    assignment, i.e. all structurally forced constants -- once on
    construction and keeps it in one value list (2 = unknown).  A closure
    assigns on top of the baseline, records every assignment on an undo
    trail, and resets only the trailed ids when it returns.  The value list
    and the worklist flags are scratch state shared by every call, so the
    engine is not reentrant: one closure must return before the next starts.
    """

    def __init__(
        self,
        circuit: "LogicCircuit",
        learned: Mapping[Literal, tuple[Literal, ...]] | None = None,
        constants: Mapping[str, int] | None = None,
    ):
        self.circuit = circuit
        index = circuit.index
        self._ids = ids = index.ids
        self._names = index.names
        #: Per gate, in declaration order: its distinct net ids and its
        #: shape's closure table.
        self._relations = []
        touch: list[list[int]] = [[] for _ in self._names]
        for k, gate in enumerate(circuit):
            nets, pattern = _tie_pattern(gate.inputs, gate.output)
            net_ids = tuple(ids[net] for net in nets)
            self._relations.append((net_ids, _closure_table(gate.gate_type, pattern)))
            for i in net_ids:
                touch[i].append(k)
        #: Gates reading or driving each id, in declaration order.
        self._touch = tuple(map(tuple, touch))
        #: Literal codes each literal code forces, indexed ``2*id + value``.
        self.learned: list[tuple[int, ...]] = [()] * (2 * len(self._names))
        for (net, value), targets in (learned or {}).items():
            self.learned[2 * ids[net] + value] = tuple(2 * ids[t] + w for t, w in targets)
        self._values = [2] * len(self._names)
        self._in_work = [True] * len(self._relations)
        trail = self._closure(self._codes(constants or {}), deque(range(len(self._relations))))
        if trail is None:
            raise ValueError("contradictory seed constants for implication engine")
        for code in trail:
            self._values[code >> 1] = code & 1
        self.baseline: dict[str, int] = self._as_dict(trail)

    # ------------------------------------------------------------------ #
    # Core propagation.
    # ------------------------------------------------------------------ #
    def imply(self, assignments: Mapping[str, int]) -> Optional[dict[str, int]]:
        """Closure of *assignments* (plus the baseline), or None on conflict.

        The returned map contains every net value that holds in *every*
        complete consistent assignment extending *assignments*; None means
        no complete consistent assignment exists at all.
        """
        trail = self._closure(self._codes(assignments))
        if trail is None:
            return None
        return {**self.baseline, **self._as_dict(trail)}

    def _codes(self, assignments: Mapping[str, int]) -> list[int]:
        """The literal codes of *assignments*; a foreign net or a value other
        than 0/1 raises ``ValueError`` naming the net."""
        codes = []
        for net, value in assignments.items():
            net_id = self._ids.get(net)
            if net_id is None:
                raise ValueError(f"net {net!r} is not in the circuit")
            if value not in (0, 1):
                raise ValueError(f"value for {net!r} must be 0/1")
            codes.append(2 * net_id + int(value))
        return codes

    def _as_dict(self, trail: list[int]) -> dict[str, int]:
        names = self._names
        return {names[code >> 1]: code & 1 for code in trail}

    def _closure(self, todo: list[int], work: deque[int] | None = None) -> Optional[list[int]]:
        """Assign the literal codes *todo* (last first) and all they force.

        Returns the trail -- the code of every newly assigned literal, in
        assignment order -- or None on conflict.  *work* holds gates already
        queued (their flags set).  Either way the value list is back at the
        baseline and every worklist flag is clear when this returns.
        """
        values = self._values
        learned = self.learned
        touch = self._touch
        relations = self._relations
        in_work = self._in_work
        work = deque() if work is None else work
        trail: list[int] = []
        try:
            while True:
                while todo:
                    code = todo.pop()
                    net = code >> 1
                    current = values[net]
                    if current != 2:
                        if current != code & 1:
                            return None
                        continue
                    values[net] = code & 1
                    trail.append(code)
                    todo.extend(learned[code])
                    for k in touch[net]:
                        if not in_work[k]:
                            in_work[k] = True
                            work.append(k)
                if not work:
                    return trail
                k = work.popleft()
                in_work[k] = False
                nets, table = relations[k]
                state = 0
                for net in nets:
                    state = state * 3 + values[net]
                forced = table[state]
                if forced is None:
                    return None
                for position, value in forced:
                    todo.append(2 * nets[position] + value)
        finally:
            for code in trail:
                values[code >> 1] = 2
            for k in work:
                in_work[k] = False


@dataclass(frozen=True)
class StaticLearning:
    """Result of the pairwise static-learning pass.

    ``implications`` maps each literal to the tuple of literals it forces
    that plain implication cannot derive from it (see
    :func:`learn_implications`); ``constants`` collects every net proven to
    hold a fixed value -- structurally forced baseline constants plus nets
    whose opposite assignment was contradictory during learning.
    """

    implications: dict[Literal, tuple[Literal, ...]] = field(default_factory=dict)
    constants: dict[str, int] = field(default_factory=dict)


def learn_implications(circuit: "LogicCircuit") -> StaticLearning:
    """Pairwise static learning: assert each net value once, keep what is new.

    For every non-constant net ``n`` and value ``v``, take the plain closure
    of ``{n: v}``; a conflict proves ``n`` is constant at ``1 - v``.  Every
    derived value ``m = w`` gives the contrapositive ``(m, 1-w) => (n, 1-v)``
    (modus tollens), which is how backward-unreachable conclusions become
    usable by later forward passes.  Following SOCRATES, only what direct
    implication cannot derive is kept: a contrapositive whose conclusion is
    already in the plain closure of ``m = 1-w`` is dropped, and so is every
    forward pair ``(n, v) => (m, w)`` (closure is monotone, so every
    closure holding ``n = v`` derives ``m = w`` anyway).  Pairs are kept in
    literal order (nets as declared, 0 before 1), then trail order.
    """
    engine = ImplicationEngine(circuit)
    ids = engine._ids
    constants = dict(engine.baseline)
    closures: dict[int, Optional[list[int]]] = {}
    for net in circuit.nets():
        if net in constants:
            continue
        for value in (0, 1):
            code = 2 * ids[net] + value
            closures[code] = engine._closure([code])
            if closures[code] is None:
                constants[net] = 1 - value
    derived = {code: set(trail) for code, trail in closures.items() if trail is not None}
    pairs: dict[int, list[int]] = {}
    for code, trail in closures.items():
        if trail is None:
            continue
        # trail[0] is the seed itself; the rest is what it forces.
        for forced in trail[1:]:
            source = forced ^ 1
            plain = derived.get(source)
            if plain is not None and code ^ 1 not in plain:
                pairs.setdefault(source, []).append(code ^ 1)
    literals = [(net, value) for net in engine._names for value in (0, 1)]
    implications = {
        literals[source]: tuple(literals[target] for target in targets)
        for source, targets in pairs.items()
    }
    return StaticLearning(implications=implications, constants=constants)
