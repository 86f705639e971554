"""Damped Newton-Raphson solvers for the nonlinear MNA system.

:func:`lockstep_newton_solve` is the one Newton loop.  It solves every member
of a :class:`~repro.spice.analysis.mna.StampPlan` at once: each iteration
assembles all members' linearized systems from the plan and solves them with
one batched ``np.linalg.solve``.  Damping, clipping and the convergence test
are applied row by row, each as one array operation over all members (the
update written in place for the members still iterating).  A member stops
when it converges or its update goes non-finite, and no member's iterates
depend on another's, so a member of a stack and the same circuit solved
alone agree bit for bit.

:func:`newton_solve` is that loop on a circuit's own one-member plan
(:attr:`~repro.spice.analysis.mna.MnaSystem.plan`), with the sources read at
each call, so a DC sweep that edits them and source stepping that scales
them are seen.  Gmin and source stepping, and :func:`robust_solve`, which
tries them after plain Newton, are built on it.
:meth:`Element.stamp <repro.spice.elements.Element.stamp>` is the scalar
reference for the assembled matrix and right-hand side.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from ..elements import StampContext
from ..errors import AnalysisError, ConvergenceError
from .mna import MnaSystem, StampPlan


@dataclass
class SolverOptions:
    """Newton iteration controls.

    Attributes
    ----------
    max_iterations:
        Iteration limit per solve.
    reltol / vntol:
        Relative and absolute voltage convergence tolerances (SPICE style):
        the solve converges when every solution entry changes by less than
        ``vntol + reltol * |x|``.
    max_step:
        Largest allowed per-iteration change of any node voltage (damping);
        0 turns damping off.  Branch currents are not damped.
    gmin:
        Conductance tied from every node to ground.

    ``max_iterations`` must be an int >= 1 and the other fields >= 0;
    anything else raises :class:`~repro.spice.errors.AnalysisError`.
    """

    max_iterations: int = 200
    reltol: float = 1e-3
    vntol: float = 1e-6
    max_step: float = 0.5
    gmin: float = 1e-12

    def __post_init__(self):
        if not isinstance(self.max_iterations, numbers.Integral) or self.max_iterations < 1:
            raise AnalysisError(f"max_iterations must be an int >= 1, got {self.max_iterations!r}")
        for name in ("reltol", "vntol", "max_step", "gmin"):
            value = getattr(self, name)
            if not value >= 0.0:
                raise AnalysisError(f"{name} must be >= 0, got {value!r}")


@dataclass
class SolveResult:
    """Outcome of a Newton solve.

    :func:`lockstep_newton_solve` fills each field with one entry per member
    (``x`` with one row per member); :meth:`member` picks one member's
    outcome, the form :func:`newton_solve` returns.
    """

    x: np.ndarray
    converged: bool
    #: The iteration that converged or went non-finite, else the limit.
    iterations: int
    #: Largest node-voltage change of the last iteration (inf when the update
    #: went non-finite).
    max_delta: float = 0.0

    def member(self, m: int) -> "SolveResult":
        """Member *m*'s outcome of a lockstep solve."""
        return SolveResult(
            x=self.x[m], converged=bool(self.converged[m]),
            iterations=int(self.iterations[m]), max_delta=float(self.max_delta[m]),
        )


def newton_solve(
    system: MnaSystem,
    ctx: StampContext,
    x0: np.ndarray,
    options: SolverOptions | None = None,
) -> SolveResult:
    """Solve the MNA system by damped Newton iteration.

    The sources are read at ``ctx.time`` and scaled by ``ctx.source_scale``;
    ``ctx.x`` is left at the returned iterate.  The caller decides what to do
    with non-convergence (the function returns the best iterate rather than
    raising, so homotopy strategies can chain solves).
    """
    plan = system.plan
    result = lockstep_newton_solve(
        plan, ctx, np.reshape(x0, (1, -1)), options or SolverOptions(),
        plan.source_terms([ctx.time], ctx.source_scale)[0],
    ).member(0)
    ctx.x = result.x
    return result


def _solve_linear(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """One Newton update; least squares when the matrix is singular."""
    try:
        return np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(matrix, rhs, rcond=None)[0]


def lockstep_newton_solve(
    plan: StampPlan,
    ctx: StampContext,
    x0: np.ndarray,
    options: SolverOptions,
    sources: np.ndarray,
) -> SolveResult:
    """Damped Newton iteration for every member of *plan* at once.

    Row ``m`` of *x0* starts member ``m``.  *ctx* is shared by the members:
    its ``x_prev`` and ``capacitor_currents`` hold one row per member, and
    ``ctx.x`` is left at the final iterates.  *sources* is the row of
    :meth:`StampPlan.source_terms <repro.spice.analysis.mna.StampPlan.source_terms>`
    at the context's time and source scale.  Each iteration assembles all
    members and solves them as one batch; a member is frozen once it
    converges or its update goes non-finite (its row then keeps the last
    finite iterate).

    Returns a :class:`SolveResult` with one entry per member in each field.
    """
    x = np.array(x0, dtype=float)
    members, size = x.shape
    num_nodes = plan.num_nodes
    linear = plan.linear(ctx, max(options.gmin, ctx.gmin), sources)
    active = np.ones(members, dtype=bool)
    converged = np.zeros(members, dtype=bool)
    iterations = np.full(members, options.max_iterations)
    max_delta = np.full(members, np.inf)
    # Node-voltage updates are clipped to max_step; an infinite bound leaves
    # branch currents (and everything, without damping) unchanged.
    bound = np.full(size, np.inf)
    if options.max_step > 0.0:
        bound[:num_nodes] = options.max_step

    for iteration in range(1, options.max_iterations + 1):
        iterations[active] = iteration
        matrix, rhs = plan.assemble(linear, x)
        try:
            x_new = np.linalg.solve(matrix, rhs[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            x_new = np.zeros_like(x)
            for m in np.flatnonzero(active):
                x_new[m] = _solve_linear(matrix[m], rhs[m])
        with np.errstate(invalid="ignore"):
            active &= np.isfinite(x_new).all(axis=1)
            delta = x_new - x
            np.add(x, np.minimum(np.maximum(delta, -bound), bound), out=x, where=active[:, None])
            tolerance = np.abs(x_new)
            tolerance *= options.reltol
            tolerance += options.vntol
            np.abs(delta, out=delta)
            done = active & (delta <= tolerance).all(axis=1)
        if done.any():
            converged |= done
            max_delta[done] = delta[done, :num_nodes].max(axis=1)
            active &= ~done
        if not active.any():
            break
    else:
        # The members still active ran out of iterations; delta holds their
        # last change.
        max_delta[active] = delta[active, :num_nodes].max(axis=1)
    ctx.x = x
    return SolveResult(x=x, converged=converged, iterations=iterations, max_delta=max_delta)


def solve_with_gmin_stepping(
    system: MnaSystem,
    ctx: StampContext,
    x0: np.ndarray,
    options: SolverOptions | None = None,
    gmin_ladder: tuple[float, ...] = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-8, 1e-10, 1e-12),
) -> SolveResult:
    """Gmin-stepping homotopy: solve with large gmin, then relax it.

    Each rung of the ladder is solved starting from the previous rung's
    solution.  The final rung uses the caller's own gmin.
    """
    options = options or SolverOptions()
    x = np.array(x0, dtype=float, copy=True)
    result = SolveResult(x=x, converged=False, iterations=0)
    for gmin in gmin_ladder:
        ctx.gmin = gmin
        result = newton_solve(system, ctx, x, options)
        # Even without convergence the iterate is usually a better start for
        # the next rung -- unless it diverged to non-finite values, in which
        # case the previous rung's iterate is kept.
        if np.all(np.isfinite(result.x)):
            x = result.x
    ctx.gmin = options.gmin
    final = newton_solve(system, ctx, x, options)
    return final


def solve_with_source_stepping(
    system: MnaSystem,
    ctx: StampContext,
    x0: np.ndarray,
    options: SolverOptions | None = None,
    steps: int = 10,
) -> SolveResult:
    """Source-stepping homotopy: ramp all independent sources from 0 to 100 %."""
    options = options or SolverOptions()
    x = np.array(x0, dtype=float, copy=True)
    result = SolveResult(x=x, converged=False, iterations=0)
    for k in range(1, steps + 1):
        ctx.source_scale = k / steps
        result = newton_solve(system, ctx, x, options)
        x = result.x
        if not result.converged and k == steps:
            break
    ctx.source_scale = 1.0
    return result


def robust_solve(
    system: MnaSystem,
    ctx: StampContext,
    x0: np.ndarray,
    options: SolverOptions | None = None,
    raise_on_failure: bool = True,
) -> SolveResult:
    """Plain Newton, then gmin stepping, then source stepping.

    Raises :class:`~repro.spice.errors.ConvergenceError` when everything
    fails (unless ``raise_on_failure`` is False).
    """
    options = options or SolverOptions()
    result = newton_solve(system, ctx, x0, options)
    if result.converged:
        return result
    return stepping_solve(system, ctx, x0, options, raise_on_failure)


def stepping_solve(
    system: MnaSystem,
    ctx: StampContext,
    x0: np.ndarray,
    options: SolverOptions,
    raise_on_failure: bool = True,
) -> SolveResult:
    """Gmin stepping, then source stepping: :func:`robust_solve` once plain
    Newton from *x0* has failed."""
    result = solve_with_gmin_stepping(system, ctx, x0, options)
    if result.converged:
        return result
    result = solve_with_source_stepping(system, ctx, x0, options)
    if result.converged or not raise_on_failure:
        return result
    raise ConvergenceError(
        f"Newton iteration failed to converge for circuit {system.circuit.title!r} "
        f"(max node-voltage change {result.max_delta:.3e} V)",
        iterations=result.iterations,
        residual=result.max_delta,
    )
