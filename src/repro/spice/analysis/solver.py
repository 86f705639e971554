"""Damped Newton-Raphson solvers for the nonlinear MNA system.

:func:`newton_solve` assembles each iterate's linearized system from the
system's compiled :class:`~repro.spice.analysis.mna.StampPlan`: the stamps
fixed within one solve (linear elements, sources, capacitor companions and
``gmin``) once per call, and the MOSFETs and diodes once per iteration.
:meth:`Element.stamp <repro.spice.elements.Element.stamp>` is the scalar
reference for the same matrix and right-hand side.

:func:`lockstep_newton_solve` runs the same iteration for every member of a
:class:`~repro.spice.analysis.mna.StackedPlan` at once, with one batched
``np.linalg.solve`` per iteration.  Damping, clipping and the convergence
test are applied row by row, each as one array operation over all members
(the update written in place for the members still iterating), so each
member's iterates equal its own :func:`newton_solve`'s bit for bit.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..elements import StampContext
from ..errors import AnalysisError, ConvergenceError
from .mna import MnaSystem, StackedPlan


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
    """Outcome of one Newton solve."""

    x: np.ndarray
    converged: bool
    iterations: int
    max_delta: float = 0.0


def newton_solve(
    system: MnaSystem,
    ctx: StampContext,
    x0: np.ndarray,
    options: SolverOptions | None = None,
) -> SolveResult:
    """Solve the MNA system by damped Newton iteration.

    The context's ``x`` field is updated in place with each iterate; the
    caller decides what to do with non-convergence (the function returns the
    best iterate rather than raising, so homotopy strategies can chain
    solves).
    """
    options = options or SolverOptions()
    plan = system.plan
    x = np.array(x0, dtype=float, copy=True)
    num_nodes = system.num_nodes
    max_delta = np.inf
    linear = plan.linear(ctx, max(options.gmin, ctx.gmin))

    for iteration in range(1, options.max_iterations + 1):
        ctx.x = x
        matrix, rhs = plan.assemble(linear, x)
        x_new = _solve_linear(matrix, rhs)
        if not np.all(np.isfinite(x_new)):
            return SolveResult(x=x, converged=False, iterations=iteration, max_delta=np.inf)

        delta = x_new - x
        max_delta = float(np.max(np.abs(delta[:num_nodes]))) if num_nodes else 0.0

        # Damp node-voltage updates only.
        limited = delta.copy()
        if num_nodes and options.max_step > 0.0:
            np.clip(
                limited[:num_nodes], -options.max_step, options.max_step, out=limited[:num_nodes]
            )
        x = x + limited

        tolerance = options.vntol + options.reltol * np.abs(x_new)
        if np.all(np.abs(delta) <= tolerance):
            ctx.x = x
            return SolveResult(x=x, converged=True, iterations=iteration, max_delta=max_delta)

    ctx.x = x
    return SolveResult(
        x=x, converged=False, iterations=options.max_iterations, max_delta=max_delta
    )


def _solve_linear(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """One Newton update; least squares when the matrix is singular."""
    try:
        return np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(matrix, rhs, rcond=None)[0]


def lockstep_newton_solve(
    stack: StackedPlan,
    ctxs: Sequence[StampContext],
    x0: np.ndarray,
    options: SolverOptions,
    sources: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`newton_solve` for every member of *stack* at once.

    Row ``m`` of *x0* starts member ``m``, solved in ``ctxs[m]``.  *sources*
    is the row of
    :meth:`StackedPlan.source_terms <repro.spice.analysis.mna.StackedPlan.source_terms>`
    at the contexts' time.  Each iteration assembles all members and solves
    them as one batch; a member that converges is frozen.  Every member's
    iterates equal those of its own :func:`newton_solve` bit for bit.

    Returns the final iterates and the iteration at which each member
    converged, 0 for a member whose solve went non-finite or ran out of
    iterations (its row then holds no solution).
    """
    x = np.array(x0, dtype=float)
    members, size = x.shape
    linear = stack.linear(ctxs, max(options.gmin, ctxs[0].gmin), sources)
    active = np.ones(members, dtype=bool)
    converged_at = np.zeros(members, dtype=int)
    # Node-voltage updates are clipped to max_step; an infinite bound leaves
    # branch currents (and everything, without damping) unchanged.
    bound = np.full(size, np.inf)
    if options.max_step > 0.0:
        bound[: stack.num_nodes] = options.max_step

    for iteration in range(1, options.max_iterations + 1):
        matrix, rhs = stack.assemble(linear, x)
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
            done = active & (np.abs(delta) <= tolerance).all(axis=1)
        converged_at[done] = iteration
        active &= ~done
        if not active.any():
            break
    return x, converged_at


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
    result = solve_with_gmin_stepping(system, ctx, x0, options)
    if result.converged:
        return result
    result = solve_with_source_stepping(system, ctx, x0, options)
    if result.converged:
        return result
    if raise_on_failure:
        raise ConvergenceError(
            f"Newton iteration failed to converge for circuit {system.circuit.title!r} "
            f"(max node-voltage change {result.max_delta:.3e} V)",
            iterations=result.iterations,
            residual=result.max_delta,
        )
    return result
