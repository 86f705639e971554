"""Fixed-step transient analysis with local step refinement on Newton failure.

:func:`transient_sweep` simulates several circuits over one time grid.
Circuits whose stamps have the same shape form a group with one
:class:`~repro.spice.analysis.mna.StampPlan`; :func:`transient` is a sweep of
one circuit, a group of one.  A group's DC operating points are one lockstep
solve, its source values are computed for the whole time grid up front, its
solutions are one ``(members, size)`` array, and each time step is one
:func:`~repro.spice.analysis.solver.lockstep_newton_solve` over the whole
group.  A member whose step fails there halves that step alone, on its own
one-member plan; the failed solve is the one its own run makes first, so
only its iterations are counted.  Every circuit's waveforms and Newton
counts equal those of its own :func:`transient` bit for bit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from ..elements import StampContext
from ..errors import AnalysisError, ConvergenceError
from ..netlist import Circuit
from ..waveform import Waveform
from .mna import MnaSystem, StampPlan
from .op import lockstep_operating_points
from .solver import SolveResult, SolverOptions, lockstep_newton_solve, newton_solve


@dataclass
class TransientResult:
    """Sampled node voltages (and source branch currents) over time."""

    time: np.ndarray
    voltages: dict[str, np.ndarray]
    branch_currents: dict[str, np.ndarray] = field(default_factory=dict)
    #: Newton iterations of all time-step solves, failed ones included (the
    #: DC operating point is not counted).
    newton_iterations: int = 0

    def waveform(self, node: str) -> Waveform:
        """Waveform of a recorded node."""
        if node not in self.voltages:
            raise AnalysisError(f"node {node!r} was not recorded")
        return Waveform(self.time, self.voltages[node], name=node)

    @property
    def nodes(self) -> list[str]:
        return sorted(self.voltages)


@dataclass
class TransientOptions:
    """Transient analysis controls."""

    method: str = "backward_euler"
    solver: SolverOptions = field(default_factory=SolverOptions)
    #: Maximum number of times a failing step is halved before giving up.
    max_step_refinements: int = 6
    #: Record every ``decimation``-th accepted step (1 records everything).
    decimation: int = 1

    def __post_init__(self):
        if self.method not in ("backward_euler", "trapezoidal"):
            raise AnalysisError(f"unknown integration method {self.method!r}")
        if self.decimation < 1:
            raise AnalysisError("decimation must be >= 1")
        refinements = self.max_step_refinements
        if not isinstance(refinements, numbers.Integral) or refinements < 0:
            raise AnalysisError(f"max_step_refinements must be an int >= 0, got {refinements!r}")


def transient(
    circuit: Circuit,
    t_stop: float,
    dt: float,
    options: TransientOptions | None = None,
    record_nodes: Optional[Iterable[str]] = None,
    record_currents: Optional[Iterable[str]] = None,
) -> TransientResult:
    """Simulate *circuit* from t=0 to *t_stop* with nominal step *dt*.

    The initial condition is the DC operating point with all time-dependent
    sources evaluated at t=0.  Integration uses backward Euler by default
    (robust for the stiff breakdown circuits); trapezoidal integration is
    available via :class:`TransientOptions`.

    When a time step fails to converge it is retried with successively halved
    sub-steps before the analysis gives up.
    """
    return transient_sweep([circuit], t_stop, dt, options, record_nodes, record_currents)[0]


def transient_sweep(
    circuits: Sequence[Circuit],
    t_stop: float,
    dt: float,
    options: TransientOptions | None = None,
    record_nodes: Optional[Iterable[str]] = None,
    record_currents: Optional[Iterable[str]] = None,
) -> list[TransientResult]:
    """:func:`transient` of every circuit, with one shared set of arguments.

    Circuits whose stamps have equal
    :attr:`~repro.spice.analysis.mna.CircuitStamps.shape` advance in lockstep.
    Results come back in input order, each equal to the circuit's own
    :func:`transient`.  A circuit whose own :func:`transient` raises
    :class:`~repro.spice.errors.ConvergenceError` makes the sweep raise.
    """
    if t_stop <= 0.0:
        raise AnalysisError("t_stop must be > 0")
    if dt <= 0.0 or dt > t_stop:
        raise AnalysisError("dt must satisfy 0 < dt <= t_stop")
    options = options or TransientOptions()
    nodes = None if record_nodes is None else list(record_nodes)
    currents = [] if record_currents is None else list(record_currents)

    systems = [MnaSystem(circuit) for circuit in circuits]
    probes = [_probe_rows(system, nodes, currents) for system in systems]
    groups: dict[tuple, list[int]] = {}
    for index, system in enumerate(systems):
        groups.setdefault(system.stamps.shape, []).append(index)

    results: list[Optional[TransientResult]] = [None] * len(systems)
    for members in groups.values():
        times, trajectory, iterations = _integrate(
            [systems[i] for i in members], t_stop, dt, options
        )
        for m, index in enumerate(members):
            columns = trajectory[:, m]
            node_rows, branch_rows = probes[index]
            results[index] = TransientResult(
                time=np.array(times),
                voltages={
                    n: columns[:, row].copy() if row >= 0 else np.zeros(len(times))
                    for n, row in node_rows.items()
                },
                branch_currents={s: columns[:, row].copy() for s, row in branch_rows.items()},
                newton_iterations=int(iterations[m]),
            )
    return results


def _probe_rows(system, nodes, currents) -> tuple[dict[str, int], dict[str, int]]:
    """Solution rows of the recorded nodes (-1 for ground) and source currents."""
    nodes = system.node_names if nodes is None else nodes
    return (
        {n: system.node_index(n) for n in nodes},
        {s: system.branch_index(s) for s in currents},
    )


def _integrate(
    systems: Sequence[MnaSystem], t_stop: float, dt: float, options: TransientOptions
) -> tuple[list[float], np.ndarray, np.ndarray]:
    """Step one group of equal-shape systems from their operating points to *t_stop*.

    Returns the recorded times, the members' solutions at each of them as one
    ``(times, members, size)`` array and each member's total Newton iterations.
    """
    plan = StampPlan([system.stamps for system in systems])
    # Initial conditions: DC operating points at t = 0.
    x = np.array([op.x for op in lockstep_operating_points(systems, plan, options.solver)])
    ctx = StampContext(
        mode="tran", time=0.0, dt=dt, x_prev=x, method=options.method,
        gmin=options.solver.gmin,
    )
    iterations = np.zeros(len(systems), dtype=int)
    times = [0.0]
    states = [x]
    t = 0.0
    num_steps = _step_count(t_stop, dt)
    grid = [step * dt for step in range(1, num_steps)] + [t_stop]
    sources = plan.source_terms(grid)

    for step, t_target in enumerate(grid, start=1):
        x = _advance(plan, systems, ctx, iterations, t, t_target, sources[step - 1], options)
        t = t_target
        if step % options.decimation == 0 or t >= t_stop:
            times.append(t)
            states.append(x)
    return times, np.stack(states), iterations


def _step_count(t_stop: float, dt: float) -> int:
    """Steps of size *dt* needed to reach *t_stop*; the last one may be shorter.

    A ratio within rounding of an integer keeps that integer, so floating-point
    noise in ``t_stop / dt`` adds no sliver step.
    """
    ratio = t_stop / dt
    nearest = round(ratio)
    if abs(ratio - nearest) <= 1e-9 * nearest:
        return int(nearest)
    return math.ceil(ratio)


def _advance(plan, systems, ctx, iterations, t_from, t_to, sources, options) -> np.ndarray:
    """Advance every member of *plan* from *t_from* to *t_to*.

    *ctx* holds the members' state at *t_from* and is left at *t_to*;
    *sources* holds their source terms at *t_to*, and *iterations* gains the
    Newton iterations each member spends.  Returns the solutions at *t_to*.
    """
    ctx.time = t_to
    ctx.dt = t_to - t_from
    result = lockstep_newton_solve(plan, ctx, ctx.x_prev, options.solver, sources)
    iterations += result.iterations
    previous = ctx.capacitor_currents
    plan.commit(ctx)
    for m in np.flatnonzero(~result.converged):
        own = StampContext(
            mode="tran", x_prev=ctx.x_prev[m], method=ctx.method, gmin=ctx.gmin,
            capacitor_currents=_member_row(previous, m, plan),
        )
        result.x[m], count = _refine(systems[m], own, result.member(m), t_from, t_to, options)
        iterations[m] += count
        if own.capacitor_currents is not None:
            _member_row(ctx.capacitor_currents, m, plan)[:] = own.capacitor_currents
    ctx.x_prev = result.x
    return result.x


def _member_row(values: Optional[np.ndarray], m: int, plan: StampPlan) -> Optional[np.ndarray]:
    """Member *m*'s slice of a flat per-capacitor array (None stays None)."""
    return None if values is None else values.reshape(plan.members, -1)[m]


def _refine(system, ctx, failed: SolveResult, t_from, t_to, options) -> tuple[np.ndarray, int]:
    """Take one member's failed step alone, halving it until every piece converges.

    *failed* is the member's failed solve of the whole step, already counted;
    *ctx* is the member's own context at *t_from*, left at *t_to*.  Returns
    the solution at *t_to* and the Newton iterations of the pieces.
    """
    x = ctx.x_prev
    spent = 0
    pending: list[tuple[float, float, int]] = []
    start, target, depth, result = t_from, t_to, 0, failed
    while True:
        if result.converged:
            system.plan.commit(ctx)
            x = result.x
        elif depth >= options.max_step_refinements:
            raise ConvergenceError(
                f"transient step at t={target:.4e}s failed after "
                f"{options.max_step_refinements} refinements",
                iterations=result.iterations,
                residual=result.max_delta,
            )
        else:
            midpoint = start + (target - start) / 2.0
            # Solve the two halves in order (pending is LIFO, push the second half first).
            pending.append((midpoint, target, depth + 1))
            pending.append((start, midpoint, depth + 1))
        if not pending:
            return x, spent
        start, target, depth = pending.pop()
        ctx.time = target
        ctx.dt = target - start
        ctx.x_prev = x
        result = newton_solve(system, ctx, x, options.solver)
        spent += result.iterations
