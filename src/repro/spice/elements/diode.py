"""Junction diode element (exponential Shockley model with junction limiting)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .base import Element, StampContext, Stamper

#: Thermal voltage kT/q at 300 K, in volts.
THERMAL_VOLTAGE = 0.025852


@dataclass(frozen=True)
class DiodeModel:
    """Parameters of the Shockley diode equation.

    Attributes
    ----------
    saturation_current:
        Reverse saturation current ``Is`` in amperes.
    ideality:
        Emission coefficient ``n`` (dimensionless).
    series_resistance:
        Optional ohmic series resistance folded into the companion model as a
        separate internal drop is *not* modeled; callers that need it should
        add an explicit :class:`~repro.spice.elements.resistor.Resistor`.
        Retained as metadata only.
    """

    saturation_current: float = 1e-14
    ideality: float = 1.0
    series_resistance: float = 0.0

    def __post_init__(self):
        if self.saturation_current <= 0.0:
            raise ValueError("diode saturation current must be > 0")
        if self.ideality <= 0.0:
            raise ValueError("diode ideality factor must be > 0")

    @property
    def thermal_voltage(self) -> float:
        """``n * kT/q`` used by the exponential."""
        return self.ideality * THERMAL_VOLTAGE

    @property
    def critical_voltage(self) -> float:
        """Voltage above which the exponential is linearized for stability."""
        nvt = self.thermal_voltage
        return nvt * math.log(nvt / (math.sqrt(2.0) * self.saturation_current))


class Diode(Element):
    """PN junction diode from ``anode`` to ``cathode``.

    The forward characteristic is the Shockley equation
    ``I = Is (exp(V / nVt) - 1)``.  Above the model's critical voltage the
    exponential is continued linearly (first-order Taylor expansion) so that
    Newton iterations cannot overflow; combined with the solver's step
    damping this provides robust convergence even for the extremely small
    saturation currents used by the oxide-breakdown model (1e-30 A).
    """

    def __init__(self, name: str, anode: str, cathode: str, model: DiodeModel):
        super().__init__(name, (anode, cathode))
        self.model = model

    @property
    def is_nonlinear(self) -> bool:
        return True

    # ------------------------------------------------------------------ #
    def evaluate(self, vd: float) -> tuple[float, float]:
        """Return ``(current, conductance)`` at junction voltage *vd*."""
        isat = self.model.saturation_current
        nvt = self.model.thermal_voltage
        vcrit = self.model.critical_voltage
        if vd > vcrit:
            # Linear continuation beyond the critical voltage.
            exp_crit = math.exp(vcrit / nvt)
            g_crit = isat * exp_crit / nvt
            i_crit = isat * (exp_crit - 1.0)
            current = i_crit + g_crit * (vd - vcrit)
            conductance = g_crit
        elif vd < -5.0 * nvt:
            # Deep reverse bias: constant -Is with a small slope for stability.
            current = -isat
            conductance = isat / nvt * math.exp(-5.0)
        else:
            e = math.exp(vd / nvt)
            current = isat * (e - 1.0)
            conductance = isat * e / nvt
        # Never stamp an exactly-zero conductance (keeps the matrix regular).
        conductance = max(conductance, 1e-18)
        return current, conductance

    def stamp(self, stamper: Stamper, ctx: StampContext) -> None:
        a, c = self._indices
        va = self.terminal_voltage(ctx, 0)
        vc = self.terminal_voltage(ctx, 1)
        vd = va - vc
        current, conductance = self.evaluate(vd)
        ieq = current - conductance * vd
        stamper.conductance(a, c, conductance)
        stamper.current(a, c, ieq)

    def current(self, va: float, vc: float) -> float:
        """Diode current (anode to cathode) at the given terminal voltages."""
        return self.evaluate(va - vc)[0]


class DiodeBank:
    """The Shockley parameters of many diodes as arrays.

    :meth:`evaluate` is the array form of :meth:`Diode.evaluate` and equals it
    bit for bit.  The exponential is taken with :func:`math.exp`, element by
    element: ``np.exp`` may round differently in the last place.
    """

    def __init__(self, devices: Sequence[Diode]):
        models = [device.model for device in devices]
        self.isat = np.array([model.saturation_current for model in models])
        self.nvt = np.array([model.thermal_voltage for model in models])
        self.vcrit = np.array([model.critical_voltage for model in models])
        self._reverse_limit = -5.0 * self.nvt
        self._reverse_current = -self.isat
        self._reverse_conductance = self.isat / self.nvt * math.exp(-5.0)

    def evaluate(self, vd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(current, conductance)`` of every diode at junction voltages *vd*."""
        isat, nvt, vcrit = self.isat, self.nvt, self.vcrit
        # Above vcrit the scalar model linearizes around exp(vcrit / nvt), so
        # clamping the argument gives both branches their exponential.
        args = (np.minimum(vd, vcrit) / nvt).tolist()
        e = np.fromiter(map(math.exp, args), float, len(args))
        current = isat * (e - 1.0)
        conductance = isat * e / nvt
        with np.errstate(invalid="ignore"):
            np.add(current, conductance * (vd - vcrit), out=current, where=vd > vcrit)
        reverse = vd < self._reverse_limit
        np.copyto(current, self._reverse_current, where=reverse)
        np.copyto(conductance, self._reverse_conductance, where=reverse)
        np.maximum(conductance, 1e-18, out=conductance)
        return current, conductance
