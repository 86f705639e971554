"""DC operating-point analysis."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..elements import StampContext
from ..netlist import Circuit
from .mna import MnaSystem, StampPlan
from .solver import (
    SolveResult,
    SolverOptions,
    lockstep_newton_solve,
    robust_solve,
    stepping_solve,
)


@dataclass
class OperatingPoint:
    """Result of a DC operating-point solve."""

    voltages: dict[str, float]
    branch_currents: dict[str, float]
    iterations: int
    x: np.ndarray
    system: MnaSystem

    def voltage(self, node: str) -> float:
        """Voltage of *node* (0.0 for ground)."""
        if node in self.voltages:
            return self.voltages[node]
        return self.system.voltage(self.x, node)

    def current(self, source_name: str) -> float:
        """Branch current of a voltage source (positive from + to - inside)."""
        return self.branch_currents[source_name]


def operating_point(
    circuit: Circuit,
    time: float = 0.0,
    options: SolverOptions | None = None,
    initial_guess: Mapping[str, float] | None = None,
) -> OperatingPoint:
    """Solve the DC operating point of *circuit*.

    Time-dependent sources are evaluated at *time*, which lets the transient
    analysis reuse this function to establish its initial condition.
    ``initial_guess`` maps node names to starting voltages (helpful for
    bistable circuits).
    """
    options = options or SolverOptions()
    system = MnaSystem(circuit)
    ctx = StampContext(mode="dc", time=time, gmin=options.gmin)
    x0 = system.initial_guess(initial_guess)
    result = robust_solve(system, ctx, x0, options)
    return OperatingPoint(
        voltages=system.voltages(result.x),
        branch_currents=system.branch_currents(result.x),
        iterations=result.iterations,
        x=result.x,
        system=system,
    )


def lockstep_operating_points(
    systems: Sequence[MnaSystem], plan: StampPlan, options: SolverOptions
) -> list[SolveResult]:
    """DC operating points at t=0 of *systems*, whose stamps make up *plan*.

    One lockstep plain-Newton solve from zero takes every member; a member it
    leaves unconverged goes on alone to gmin and source stepping, as
    :func:`~repro.spice.analysis.solver.robust_solve` does.  Each result
    equals the member's own :func:`operating_point` (``x`` and
    ``iterations``) bit for bit.
    """
    ctx = StampContext(mode="dc", gmin=options.gmin)
    x0 = np.zeros((len(systems), plan.size))
    result = lockstep_newton_solve(plan, ctx, x0, options, plan.source_terms([0.0])[0])
    return [
        result.member(m) if result.converged[m] else stepping_solve(
            system, StampContext(mode="dc", gmin=options.gmin), x0[m], options
        )
        for m, system in enumerate(systems)
    ]
