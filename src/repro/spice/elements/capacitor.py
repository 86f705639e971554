"""Linear capacitor element with backward-Euler and trapezoidal companions."""

from __future__ import annotations

from .base import Element, StampContext, Stamper


class Capacitor(Element):
    """Ideal linear capacitor between nodes ``a`` and ``b``.

    In DC analyses the capacitor is an open circuit.  In transient analyses it
    is replaced by its integration-method companion model:

    * backward Euler:   ``i_n = (C/h) (v_n - v_{n-1})``
    * trapezoidal:      ``i_n = (2C/h) (v_n - v_{n-1}) - i_{n-1}``

    The trapezoidal rule requires the element to remember its branch current
    from the previous accepted step, which :meth:`stamp` reads from
    ``ctx.state``.
    """

    def __init__(self, name: str, a: str, b: str, capacitance: float, ic: float | None = None):
        super().__init__(name, (a, b))
        if capacitance < 0.0:
            raise ValueError(f"capacitor {name}: capacitance must be >= 0, got {capacitance}")
        self.capacitance = float(capacitance)
        #: Optional initial voltage across the capacitor (a minus b).
        self.initial_voltage = ic

    # ------------------------------------------------------------------ #
    def _previous_voltage(self, ctx: StampContext) -> float:
        a, b = self._indices
        if ctx.x_prev is None:
            return self.initial_voltage or 0.0
        va = ctx.x_prev[a] if a >= 0 else 0.0
        vb = ctx.x_prev[b] if b >= 0 else 0.0
        return float(va - vb)

    def stamp(self, stamper: Stamper, ctx: StampContext) -> None:
        if ctx.mode != "tran" or ctx.dt <= 0.0 or self.capacitance == 0.0:
            return
        a, b = self._indices
        v_prev = self._previous_voltage(ctx)
        if ctx.method == "trapezoidal":
            geq = 2.0 * self.capacitance / ctx.dt
            i_prev = float(ctx.state.get(self.name, {}).get("current", 0.0))
            i_rhs = geq * v_prev + i_prev
        else:  # backward Euler
            geq = self.capacitance / ctx.dt
            i_rhs = geq * v_prev
        stamper.conductance(a, b, geq)
        # Element current (a -> b) is geq * v_ab - i_rhs; the constant term is
        # an injection of i_rhs into node a (see Stamper.current convention).
        stamper.current(a, b, -i_rhs)
