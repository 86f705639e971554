"""Fixed-step transient analysis with local step refinement on Newton failure."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from ..elements import StampContext
from ..errors import AnalysisError, ConvergenceError
from ..netlist import Circuit
from ..waveform import Waveform
from .op import operating_point
from .solver import SolverOptions, newton_solve


@dataclass
class TransientResult:
    """Sampled node voltages (and source branch currents) over time."""

    time: np.ndarray
    voltages: dict[str, np.ndarray]
    branch_currents: dict[str, np.ndarray] = field(default_factory=dict)

    def waveform(self, node: str) -> Waveform:
        """Waveform of a recorded node."""
        if node not in self.voltages:
            raise AnalysisError(f"node {node!r} was not recorded")
        return Waveform(self.time, self.voltages[node], name=node)

    def current_waveform(self, source_name: str) -> Waveform:
        """Waveform of a voltage-source branch current."""
        if source_name not in self.branch_currents:
            raise AnalysisError(f"source {source_name!r} current was not recorded")
        return Waveform(self.time, self.branch_currents[source_name], name=source_name)

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
    if t_stop <= 0.0:
        raise AnalysisError("t_stop must be > 0")
    if dt <= 0.0 or dt > t_stop:
        raise AnalysisError("dt must satisfy 0 < dt <= t_stop")
    options = options or TransientOptions()

    # Initial condition: DC operating point at t = 0.
    op0 = operating_point(circuit, time=0.0, options=options.solver)
    system = op0.system

    nodes = list(record_nodes) if record_nodes is not None else list(system.node_names)
    currents = list(record_currents) if record_currents is not None else []

    times: list[float] = [0.0]
    samples: dict[str, list[float]] = {n: [system.voltage(op0.x, n)] for n in nodes}
    current_samples: dict[str, list[float]] = {
        s: [float(op0.x[system.branch_index(s)])] for s in currents
    }

    ctx = StampContext(
        mode="tran",
        time=0.0,
        dt=dt,
        x_prev=op0.x,
        method=options.method,
        gmin=options.solver.gmin,
    )

    x_prev = op0.x
    t = 0.0
    num_steps = _step_count(t_stop, dt)
    accepted = 0

    for step in range(1, num_steps + 1):
        t_target = t_stop if step == num_steps else step * dt
        x_prev, t = _advance(system, ctx, x_prev, t, t_target, options)
        accepted += 1
        if accepted % options.decimation == 0 or t >= t_stop:
            times.append(t)
            for n in nodes:
                samples[n].append(system.voltage(x_prev, n))
            for s in currents:
                current_samples[s].append(float(x_prev[system.branch_index(s)]))

    return TransientResult(
        time=np.asarray(times),
        voltages={n: np.asarray(v) for n, v in samples.items()},
        branch_currents={s: np.asarray(v) for s, v in current_samples.items()},
    )


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


def _advance(system, ctx, x_prev, t_from, t_to, options) -> tuple[np.ndarray, float]:
    """Advance the solution from *t_from* to *t_to*, refining on failure."""
    stack = [(t_from, t_to, 0)]
    x = x_prev
    t = t_from
    while stack:
        start, target, depth = stack.pop()
        h = target - start
        ctx.time = target
        ctx.dt = h
        ctx.x_prev = x
        result = newton_solve(system, ctx, x, options.solver)
        if result.converged:
            system.plan.commit(ctx)
            x = result.x
            t = target
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
    return x, t
