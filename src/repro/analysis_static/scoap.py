"""SCOAP testability measures (controllability / observability).

The classical Sandia Controllability/Observability Analysis Program
(Goldstein 1979) measures, computed generically from each gate's truth
table so every :class:`~repro.logic.gates.GateType` (complex AOI/OAI cells
included) is handled by the same formulation:

* ``CC0(n)`` / ``CC1(n)`` -- combinational 0-/1-controllability: 1 for a
  primary input; for a gate output, ``1 + min`` over the input *cubes*
  guaranteeing that value of the summed controllabilities of the cube's
  specified inputs (don't-care inputs cost nothing, recovering e.g.
  ``CC0(AND2) = 1 + min(CC0(a), CC0(b))``).  Cubes range over the gate's
  *distinct* input nets, so tied pins are handled exactly (``XOR2(x, x)``
  has no cube producing 1 and ``CC1 = inf``).
* ``CO(n)`` -- combinational observability: 0 at a primary output; through
  a gate input, ``CO(output) + 1 +`` the cheapest way to set the remaining
  inputs so the output toggles with this input; at a fan-out stem, the
  minimum over the branches.

Both passes are single topological sweeps (forward for CC, reverse for CO).
Unreachable values are ``inf`` -- exactly the nets/values the static
untestability prover (:mod:`repro.analysis_static.untestable`) can reject,
and the numbers a frontier-guided ATPG backtrace would consult.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import TYPE_CHECKING

from .implication import _gate_relation, _relation_rows, _tie_pattern

if TYPE_CHECKING:
    from ..logic.gates import GateType
    from ..logic.netlist import LogicCircuit

INF = math.inf


@lru_cache(maxsize=None)
def _controllability_cubes(
    gate_type: "GateType", pattern: tuple[int, ...]
) -> tuple[tuple[tuple[int | None, ...], ...], tuple[tuple[int | None, ...], ...]]:
    """Per output value, the input cubes guaranteeing it (None = don't care).

    Classical SCOAP charges only the inputs that *must* be set -- e.g.
    ``CC0(AND) = 1 + min(CC0(a), CC0(b))`` leaves the other input free -- so
    controllability minimizes over cubes, not fully specified rows.  Cached
    per gate shape (type and pin-tie pattern).
    """
    rows = _relation_rows(gate_type, pattern)
    arity = max(pattern)
    by_value: tuple[list[tuple[int | None, ...]], list[tuple[int | None, ...]]] = ([], [])
    for cube in product((None, 0, 1), repeat=arity):
        outs = {
            row[-1]
            for row in rows
            if all(want is None or want == bit for want, bit in zip(cube, row))
        }
        if len(outs) == 1:
            by_value[outs.pop()].append(cube)
    return tuple(by_value[0]), tuple(by_value[1])


@dataclass(frozen=True)
class ScoapMeasures:
    """Per-net SCOAP numbers for one circuit (``inf`` = unreachable)."""

    cc0: dict[str, float]
    cc1: dict[str, float]
    co: dict[str, float]

    def controllability(self, net: str, value: int) -> float:
        return self.cc1[net] if value else self.cc0[net]


def scoap_measures(circuit: "LogicCircuit") -> ScoapMeasures:
    """Compute CC0/CC1/CO for every net in two topological passes."""
    cc0: dict[str, float] = {}
    cc1: dict[str, float] = {}
    for net in circuit.primary_inputs:
        cc0[net] = cc1[net] = 1.0

    order = circuit.index.order
    for gate in order:
        nets, pattern = _tie_pattern(gate.inputs, gate.output)
        in_nets = nets[:-1]
        cubes = _controllability_cubes(gate.gate_type, pattern)
        best = [INF, INF]
        for value in (0, 1):
            for cube in cubes[value]:
                cost = 1.0
                for net, bit in zip(in_nets, cube):
                    if bit is not None:
                        cost += cc1[net] if bit else cc0[net]
                if cost < best[value]:
                    best[value] = cost
        cc0[gate.output], cc1[gate.output] = best[0], best[1]

    outputs = set(circuit.primary_outputs)
    co: dict[str, float] = {net: (0.0 if net in outputs else INF) for net in circuit.nets()}
    for gate in reversed(order):
        co_out = co[gate.output]
        nets, rows = _gate_relation(gate.gate_type, gate.inputs, gate.output)
        in_nets = nets[:-1]
        for position, net in enumerate(in_nets):
            best = INF
            # Cheapest side-input assignment that sensitizes this input to
            # the output: a pair of rows differing only in this net with
            # different outputs; the cost is setting the side inputs.
            for row in rows:
                if row[position] != 0:
                    continue
                flipped = row[:position] + (1,) + row[position + 1 : len(in_nets)]
                for other in rows:
                    if other[: len(in_nets)] != flipped:
                        continue
                    if other[-1] == row[-1]:
                        continue
                    cost = 1.0
                    for index, side in enumerate(in_nets):
                        if index == position:
                            continue
                        cost += cc1[side] if row[index] else cc0[side]
                    best = min(best, cost)
            candidate = co_out + best
            if candidate < co[net]:
                co[net] = candidate
    return ScoapMeasures(cc0=cc0, cc1=cc1, co=co)


def _finite(values) -> list[float]:
    return [v for v in values if v != INF]


def scoap_summary(circuit: "LogicCircuit") -> dict[str, float | int]:
    """JSON-safe roll-up of the per-net measures for reports and stats.

    ``unreachable`` counts the infinite entries across all three measures
    (values no input vector can produce, nets no output observes); the
    max/mean figures aggregate the finite entries only.  The measures come
    from the circuit's shared analysis, so they are computed once.
    """
    from .analysis import circuit_analysis  # analysis imports this module

    measures = circuit_analysis(circuit).scoap
    cc = _finite(measures.cc0.values()) + _finite(measures.cc1.values())
    co = _finite(measures.co.values())
    unreachable = (
        sum(1 for v in measures.cc0.values() if v == INF)
        + sum(1 for v in measures.cc1.values() if v == INF)
        + sum(1 for v in measures.co.values() if v == INF)
    )
    return {
        "max_cc": max(cc, default=0.0),
        "mean_cc": round(sum(cc) / len(cc), 3) if cc else 0.0,
        "max_co": max(co, default=0.0),
        "mean_co": round(sum(co) / len(co), 3) if co else 0.0,
        "unreachable": unreachable,
    }
