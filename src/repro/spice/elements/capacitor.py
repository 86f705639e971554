"""Linear capacitor element with its backward-Euler companion."""

from __future__ import annotations

from .base import Element, StampContext, Stamper


class Capacitor(Element):
    """Ideal linear capacitor between nodes ``a`` and ``b``.

    In DC analyses the capacitor is an open circuit.  In transient analyses it
    is replaced by its backward-Euler companion model
    ``i_n = (C/h) (v_n - v_{n-1})``, with ``v_{n-1}`` read from ``ctx.x_prev``.
    """

    def __init__(self, name: str, a: str, b: str, capacitance: float):
        super().__init__(name, (a, b))
        if capacitance < 0.0:
            raise ValueError(f"capacitor {name}: capacitance must be >= 0, got {capacitance}")
        self.capacitance = float(capacitance)

    def stamp(self, stamper: Stamper, ctx: StampContext) -> None:
        if ctx.mode != "tran" or ctx.dt <= 0.0 or self.capacitance == 0.0:
            return
        a, b = self._indices
        va = ctx.x_prev[a] if a >= 0 else 0.0
        vb = ctx.x_prev[b] if b >= 0 else 0.0
        geq = self.capacitance / ctx.dt
        stamper.conductance(a, b, geq)
        # Element current (a -> b) is geq * v_ab - geq * v_prev; the constant
        # term is an injection into node a (see Stamper.current convention).
        stamper.current(a, b, -geq * float(va - vb))
