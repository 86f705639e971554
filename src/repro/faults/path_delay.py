"""Path-delay fault model (second classical baseline).

The paper lists the path-delay model alongside the transition model as the
existing dynamic fault models that OBD behaviour resembles but does not
match.  The implementation here provides the fault objects, path enumeration
and a (non-robust) sensitization check via two-pattern logic simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..logic.netlist import LogicCircuit
from ..logic.simulator import simulate_pattern
from .base import Fault, FaultList

RISING = "rising"
FALLING = "falling"


@dataclass(frozen=True)
class PathDelayFault(Fault):
    """A structural path that is too slow for the given launch edge."""

    nets: tuple[str, ...]
    direction: str

    def __post_init__(self):
        if self.direction not in (RISING, FALLING):
            raise ValueError("direction must be 'rising' or 'falling'")
        if len(self.nets) < 2:
            raise ValueError("a path needs at least an input and an output net")

    @property
    def key(self) -> str:
        arrow = "->".join(self.nets)
        return f"{arrow}/{self.direction}"

    def describe(self) -> str:
        return f"{self.direction}-edge path delay along {' -> '.join(self.nets)}"

    @property
    def launch_net(self) -> str:
        return self.nets[0]


def _structural_paths(circuit: LogicCircuit, limit: int) -> list[tuple[str, ...]]:
    """Input-to-output net paths, walked back depth first from each output.

    Each distinct fan-in net of a gate is walked once, in pin order, so a
    net read on two pins of one gate yields its paths once.  The walk stops
    once *limit* paths are found, which guards against the exponential path
    count of larger netlists.
    """
    paths: list[tuple[str, ...]] = []

    def walk(net: str, suffix: tuple[str, ...]) -> None:
        if len(paths) >= limit:
            return
        driver = circuit.driver_of(net)
        if driver is None:
            paths.append((net,) + suffix)
            return
        for source in dict.fromkeys(driver.inputs):
            walk(source, (net,) + suffix)

    for out in circuit.primary_outputs:
        walk(out, ())
    return paths


def path_delay_universe(circuit: LogicCircuit, limit: int = 1000) -> FaultList[PathDelayFault]:
    """Rising and falling path-delay faults along every structural path."""
    faults: list[PathDelayFault] = []
    for nets in _structural_paths(circuit, limit):
        faults.append(PathDelayFault(nets, RISING))
        faults.append(PathDelayFault(nets, FALLING))
    return FaultList(faults)


def is_sensitized(
    circuit: LogicCircuit,
    fault: PathDelayFault,
    first: Sequence[int],
    second: Sequence[int],
) -> bool:
    """Non-robust sensitization check of a path-delay fault by a pattern pair.

    The launch net must make the fault's edge between the two patterns and
    every net along the path must toggle in the corresponding direction
    (functional sensitization; glitch-robustness is not checked).
    """
    values1 = simulate_pattern(circuit, first)
    values2 = simulate_pattern(circuit, second)
    launch_net = fault.nets[0]
    expected = 1 if fault.direction == RISING else 0
    if values2[launch_net] != expected or values1[launch_net] == values2[launch_net]:
        return False
    # Functional sensitization: every net along the path must toggle, so the
    # launched edge actually travels down the whole path.
    return all(values1[net] != values2[net] for net in fault.nets)
