"""The id-indexed implication engine against the dict-based reference.

:class:`ReferenceEngine` and :func:`reference_learning` are the name-keyed
worklist closure and the learning pass that records every forward pair and
every contrapositive, kept here verbatim as the oracle.  The engine under
test must return the same plain closures, insertion order included, and its
pruned learning must give every strengthened closure the same set of values
(and the same conflicts) as the full reference learning.
"""

from __future__ import annotations

import random
from collections import deque
from functools import lru_cache
from typing import Mapping, Optional

import pytest

from repro.analysis_static import ImplicationEngine, learn_implications
from repro.analysis_static.implication import _closure_table, _tie_pattern
from repro.campaign import resolve_circuit

CIRCUITS = [
    "c17",
    "fa_sum",
    "rdag:60,4",
    "rdag:200,4",
    "mult:6",
    "alu:3",
    pytest.param("rdag:600,4", marks=pytest.mark.slow),
]

#: Learned pairs (targets summed over sources): full reference learning
#: against the pruned learning.
PAIR_COUNTS = {
    "c17": (26, 1),
    "fa_sum": (816, 48),
    "rdag:60,4": (1922, 304),
    "rdag:200,4": (16238, 3239),
    "mult:6": (1114, 215),
    "alu:3": (716, 104),
    "rdag:600,4": (86462, 20684),
}

SEEDS = 300


class ReferenceEngine:
    """The name-keyed worklist closure: a fresh value dict per call."""

    def __init__(self, circuit, learned=None, constants=None):
        self.learned = {key: tuple(value) for key, value in (learned or {}).items()}
        self._gates = list(circuit)
        self._relations = []
        self._touch: dict[str, list[int]] = {}
        for index, gate in enumerate(self._gates):
            nets, pattern = _tie_pattern(gate.inputs, gate.output)
            self._relations.append((nets, _closure_table(gate.gate_type, pattern)))
            for net in {gate.output, *gate.inputs}:
                self._touch.setdefault(net, []).append(index)
        baseline = self._closure(constants or {}, {}, seed_all=True)
        assert baseline is not None
        self.baseline = baseline

    def imply(self, assignments: Mapping[str, int]) -> Optional[dict[str, int]]:
        return self._closure(assignments, self.baseline, seed_all=False)

    def _closure(self, assignments, baseline, seed_all):
        values = dict(baseline)
        work: deque[int] = deque()
        in_work = [False] * len(self._gates)
        todo = [(net, int(value)) for net, value in assignments.items()]
        if seed_all:
            work.extend(range(len(self._gates)))
            in_work = [True] * len(self._gates)

        def enqueue(net):
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


def reference_learning(circuit):
    """Every forward pair and every contrapositive, plus the constants."""
    engine = ReferenceEngine(circuit)
    constants = dict(engine.baseline)
    pairs: dict[tuple, dict[tuple, None]] = {}
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
                pairs.setdefault((net, value), {})[(other, forced)] = None
                pairs.setdefault((other, 1 - forced), {})[(net, 1 - value)] = None
    return {source: tuple(targets) for source, targets in pairs.items()}, constants


@lru_cache(maxsize=None)
def case(name):
    """``(circuit, reference pairs, reference constants, pruned learning)``."""
    circuit = resolve_circuit(name)
    pairs, constants = reference_learning(circuit)
    return circuit, pairs, constants, learn_implications(circuit)


def literals(circuit):
    return [(net, value) for net in circuit.nets() for value in (0, 1)]


def two_literal_seeds(circuit, count=SEEDS):
    rng = random.Random(f"implication-parity/{circuit.name}")
    nets = circuit.nets()
    seeds = []
    for _ in range(count):
        first, second = rng.sample(nets, 2)
        seeds.append({first: rng.randint(0, 1), second: rng.randint(0, 1)})
    return seeds


def as_set(closure):
    return None if closure is None else set(closure.items())


@pytest.mark.parametrize("name", CIRCUITS)
def test_plain_imply_equals_reference_in_order(name):
    circuit = case(name)[0]
    engine, reference = ImplicationEngine(circuit), ReferenceEngine(circuit)
    assert list(engine.baseline.items()) == list(reference.baseline.items())
    for seed in [dict([lit]) for lit in literals(circuit)] + two_literal_seeds(circuit):
        implied, expected = engine.imply(seed), reference.imply(seed)
        assert (implied is None) == (expected is None), seed
        if expected is not None:
            assert list(implied.items()) == list(expected.items()), seed


@pytest.mark.parametrize("name", CIRCUITS)
def test_pruned_learning_keeps_every_strengthened_closure(name):
    circuit, pairs, constants, learning = case(name)
    engine = ImplicationEngine(
        circuit, learned=learning.implications, constants=learning.constants
    )
    reference = ReferenceEngine(circuit, learned=pairs, constants=constants)
    assert as_set(engine.baseline) == as_set(reference.baseline)
    for seed in [dict([lit]) for lit in literals(circuit)] + two_literal_seeds(circuit):
        assert as_set(engine.imply(seed)) == as_set(reference.imply(seed)), seed


@pytest.mark.parametrize("name", CIRCUITS)
def test_learning_constants_equal_reference(name):
    _, _, constants, learning = case(name)
    assert list(learning.constants.items()) == list(constants.items())


@pytest.mark.parametrize("name", CIRCUITS)
def test_kept_pairs_are_exactly_the_underivable_ones(name):
    circuit, pairs, _, learning = case(name)
    plain = ReferenceEngine(circuit)
    closures = {lit: plain.imply(dict([lit])) for lit in literals(circuit)}

    def derivable(source, target):
        closure = closures[source]
        return closure is None or closure.get(target[0]) == target[1]

    kept = {(s, t) for s, targets in learning.implications.items() for t in targets}
    full = {(s, t) for s, targets in pairs.items() for t in targets}
    assert kept <= full
    for source, target in kept:
        assert not derivable(source, target), (source, target)
    for source, target in full - kept:
        assert derivable(source, target), (source, target)


@pytest.mark.parametrize("name", CIRCUITS)
def test_pair_counts_are_pinned(name):
    _, pairs, _, learning = case(name)
    counts = (
        sum(map(len, pairs.values())),
        sum(map(len, learning.implications.values())),
    )
    assert counts == PAIR_COUNTS[name]
