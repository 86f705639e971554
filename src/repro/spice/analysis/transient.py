"""Fixed-step transient analysis with local step refinement on Newton failure.

:func:`transient_sweep` simulates several circuits over one time grid.
Circuits whose compiled plans have the same shape advance in lockstep: the
group's source values are computed for the whole time grid up front, each
time step is one :func:`~repro.spice.analysis.solver.lockstep_newton_solve`
over the whole group, and a member whose solve fails there redoes that step
alone, with the scalar solver and step halving, exactly as a run of its own
would.  A group of one uses the scalar solver throughout.  Every circuit's
waveforms equal those of its own :func:`transient` bit for bit.
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
from .mna import StackedPlan
from .op import OperatingPoint, operating_point
from .solver import SolverOptions, lockstep_newton_solve, newton_solve


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

    Circuits whose plans have equal :attr:`~repro.spice.analysis.mna.StampPlan.shape`
    advance in lockstep.  Results come back in input order, each equal to the
    circuit's own :func:`transient`.  A circuit whose own :func:`transient`
    raises :class:`~repro.spice.errors.ConvergenceError` makes the sweep raise.
    """
    if t_stop <= 0.0:
        raise AnalysisError("t_stop must be > 0")
    if dt <= 0.0 or dt > t_stop:
        raise AnalysisError("dt must satisfy 0 < dt <= t_stop")
    options = options or TransientOptions()
    nodes = None if record_nodes is None else list(record_nodes)
    currents = [] if record_currents is None else list(record_currents)

    # Initial conditions: DC operating points at t = 0.
    ops = [operating_point(circuit, time=0.0, options=options.solver) for circuit in circuits]
    probes = [_probe_rows(op.system, nodes, currents) for op in ops]
    groups: dict[tuple, list[int]] = {}
    for index, op in enumerate(ops):
        groups.setdefault(op.system.plan.shape, []).append(index)

    results: list[Optional[TransientResult]] = [None] * len(ops)
    for members in groups.values():
        times, states, iterations = _integrate([ops[i] for i in members], t_stop, dt, options)
        for m, index in enumerate(members):
            columns = np.array([state[m] for state in states]).T
            node_rows, branch_rows = probes[index]
            results[index] = TransientResult(
                time=np.array(times),
                voltages={
                    n: columns[row].copy() if row >= 0 else np.zeros(len(times))
                    for n, row in node_rows.items()
                },
                branch_currents={s: columns[row].copy() for s, row in branch_rows.items()},
                newton_iterations=iterations[m],
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
    ops: Sequence[OperatingPoint], t_stop: float, dt: float, options: TransientOptions
) -> tuple[list[float], list[list[np.ndarray]], list[int]]:
    """Step one group from its operating points to *t_stop*.

    Returns the recorded times, every member's solution at each of them and
    each member's total Newton iterations.
    """
    systems = [op.system for op in ops]
    ctxs = [
        StampContext(
            mode="tran", time=0.0, dt=dt, x_prev=op.x, method=options.method,
            gmin=options.solver.gmin,
        )
        for op in ops
    ]
    xs = [op.x for op in ops]
    iterations = [0] * len(ops)
    times = [0.0]
    states = [list(xs)]
    t = 0.0
    num_steps = _step_count(t_stop, dt)
    grid = [step * dt for step in range(1, num_steps)] + [t_stop]
    stack = StackedPlan([system.plan for system in systems]) if len(ops) > 1 else None
    sources = None if stack is None else stack.source_terms(grid)

    for step, t_target in enumerate(grid, start=1):
        if stack is None:
            xs[0], count = _advance(systems[0], ctxs[0], xs[0], t, t_target, options)
            iterations[0] += count
        else:
            _advance_lockstep(
                stack, systems, ctxs, xs, iterations, t, t_target, sources[step - 1], options
            )
        t = t_target
        if step % options.decimation == 0 or t >= t_stop:
            times.append(t)
            states.append(list(xs))
    return times, states, iterations


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


def _advance(system, ctx, x_prev, t_from, t_to, options) -> tuple[np.ndarray, int]:
    """Advance the solution from *t_from* to *t_to*, refining on failure.

    Returns the solution at *t_to* and the Newton iterations spent.
    """
    stack = [(t_from, t_to, 0)]
    x = x_prev
    iterations = 0
    while stack:
        start, target, depth = stack.pop()
        h = target - start
        ctx.time = target
        ctx.dt = h
        ctx.x_prev = x
        result = newton_solve(system, ctx, x, options.solver)
        iterations += result.iterations
        if result.converged:
            system.plan.commit(ctx)
            x = result.x
            continue
        if depth >= options.max_step_refinements:
            raise ConvergenceError(
                f"transient step at t={target:.4e}s failed after "
                f"{options.max_step_refinements} refinements",
                iterations=result.iterations,
                residual=result.max_delta,
            )
        midpoint = start + h / 2.0
        # Solve the two halves in order (stack is LIFO, push second half first).
        stack.append((midpoint, target, depth + 1))
        stack.append((start, midpoint, depth + 1))
    return x, iterations


def _advance_lockstep(
    stack, systems, ctxs, xs, iterations, t_from, t_to, sources, options
) -> None:
    """Advance every member of *stack* from *t_from* to *t_to* in place.

    *sources* holds the members' source terms at *t_to*.  A member whose lockstep
    solve fails takes this step alone through :func:`_advance`, which repeats
    that solve and then halves the step.
    """
    for ctx, x in zip(ctxs, xs):
        ctx.time = t_to
        ctx.dt = t_to - t_from
        ctx.x_prev = x
    solved, converged_at = lockstep_newton_solve(
        stack, ctxs, np.array(xs), options.solver, sources
    )
    for m, (system, ctx) in enumerate(zip(systems, ctxs)):
        if converged_at[m]:
            ctx.x = xs[m] = solved[m]
            system.plan.commit(ctx)
            iterations[m] += int(converged_at[m])
        else:
            xs[m], count = _advance(system, ctx, xs[m], t_from, t_to, options)
            iterations[m] += count
