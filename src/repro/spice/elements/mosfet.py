"""Level-1 (Shichman-Hodges) MOSFET element.

The model implements the classic square-law characteristic with channel-length
modulation and (optional) body effect.  Intrinsic and overlap capacitances are
*not* stamped by the element itself; :meth:`MosfetModel.capacitances` reports
the constant capacitances a cell builder should attach as explicit
:class:`~repro.spice.elements.capacitor.Capacitor` elements (see
:meth:`repro.spice.netlist.Circuit.add_mosfet`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .base import Element, StampContext, Stamper


@dataclass(frozen=True)
class MosfetModel:
    """Level-1 MOSFET model card.

    Attributes
    ----------
    polarity:
        ``"n"`` for NMOS, ``"p"`` for PMOS.
    vto:
        Zero-bias threshold voltage in volts (positive for NMOS, negative for
        PMOS, following SPICE convention).
    kp:
        Transconductance parameter ``mu * Cox`` in A/V^2.
    lambda_:
        Channel-length modulation coefficient in 1/V.
    gamma:
        Body-effect coefficient in sqrt(V).
    phi:
        Surface potential ``2*phi_F`` in volts.
    cox:
        Gate-oxide capacitance per unit area in F/m^2 (used only for the
        reported constant capacitances).
    overlap_cap:
        Gate-drain / gate-source overlap capacitance per metre of width (F/m).
    junction_cap:
        Source/drain junction capacitance per unit area (F/m^2); the junction
        area is approximated as ``width * 2.5 * length``.
    """

    polarity: str = "n"
    vto: float = 0.6
    kp: float = 120e-6
    lambda_: float = 0.05
    gamma: float = 0.0
    phi: float = 0.7
    cox: float = 4.6e-3
    overlap_cap: float = 3.0e-10
    junction_cap: float = 1.0e-3

    def __post_init__(self):
        if self.polarity not in ("n", "p"):
            raise ValueError(f"polarity must be 'n' or 'p', got {self.polarity!r}")
        if self.kp <= 0.0:
            raise ValueError("kp must be > 0")
        if self.phi <= 0.0:
            raise ValueError("phi must be > 0")

    @property
    def sign(self) -> float:
        """+1 for NMOS, -1 for PMOS (voltage transformation factor)."""
        return 1.0 if self.polarity == "n" else -1.0

    def capacitances(self, width: float, length: float) -> dict[str, float]:
        """Constant terminal capacitances for a device of the given geometry.

        Returns a mapping with keys ``cgs``, ``cgd``, ``cgb``, ``cdb``,
        ``csb`` in farads.  The intrinsic gate capacitance ``Cox * W * L`` is
        split 40/40/20 between source, drain and bulk, which is a reasonable
        average over the operating regions for delay estimation.
        """
        c_gate = self.cox * width * length
        c_overlap = self.overlap_cap * width
        c_junction = self.junction_cap * width * 2.5 * length
        return {
            "cgs": 0.4 * c_gate + c_overlap,
            "cgd": 0.4 * c_gate + c_overlap,
            "cgb": 0.2 * c_gate,
            "cdb": c_junction,
            "csb": c_junction,
        }


@dataclass
class MosfetOperatingPoint:
    """Small-signal snapshot of a MOSFET at one bias point."""

    ids: float = 0.0
    gm: float = 0.0
    gds: float = 0.0
    gmb: float = 0.0
    vgs: float = 0.0
    vds: float = 0.0
    vbs: float = 0.0
    region: str = "cutoff"
    reversed: bool = False


class Mosfet(Element):
    """Four-terminal Level-1 MOSFET (drain, gate, source, bulk)."""

    #: Minimum drain-source conductance stamped in every region; keeps the
    #: MNA matrix well conditioned when entire stacks are cut off.
    GDS_MIN = 1e-12

    def __init__(
        self,
        name: str,
        drain: str,
        gate: str,
        source: str,
        bulk: str,
        model: MosfetModel,
        width: float,
        length: float,
    ):
        super().__init__(name, (drain, gate, source, bulk))
        if width <= 0.0 or length <= 0.0:
            raise ValueError(f"mosfet {name}: width and length must be > 0")
        self.model = model
        self.width = float(width)
        self.length = float(length)

    @property
    def is_nonlinear(self) -> bool:
        return True

    @property
    def beta(self) -> float:
        """Device transconductance factor ``kp * W / L``."""
        return self.model.kp * self.width / self.length

    # ------------------------------------------------------------------ #
    def evaluate(self, vd: float, vg: float, vs: float, vb: float) -> MosfetOperatingPoint:
        """Evaluate drain current and small-signal conductances.

        Voltages are the actual terminal voltages.  The returned ``ids`` is
        the current flowing *into the drain terminal* (out of the source).
        """
        model = self.model
        sign = model.sign
        # Transform to NMOS-equivalent voltages.
        vds = sign * (vd - vs)
        vgs = sign * (vg - vs)
        vbs = sign * (vb - vs)

        swapped = False
        if vds < 0.0:
            # Operate with source and drain exchanged so that vds >= 0.
            swapped = True
            vds = -vds
            vgs = sign * (vg - vd)
            vbs = sign * (vb - vd)

        vto = sign * model.vto
        if model.gamma > 0.0:
            sqrt_arg = max(model.phi - vbs, 1e-6)
            vth = vto + model.gamma * (math.sqrt(sqrt_arg) - math.sqrt(model.phi))
            dvth_dvbs = -model.gamma / (2.0 * math.sqrt(sqrt_arg))
        else:
            vth = vto
            dvth_dvbs = 0.0

        beta = self.beta
        vov = vgs - vth
        lam = model.lambda_

        if vov <= 0.0:
            ids = 0.0
            gm = 0.0
            gds = self.GDS_MIN
            gmb = 0.0
            region = "cutoff"
        elif vds < vov:
            clm = 1.0 + lam * vds
            ids = beta * (vov * vds - 0.5 * vds * vds) * clm
            gm = beta * vds * clm
            gds = beta * (vov - vds) * clm + beta * (vov * vds - 0.5 * vds * vds) * lam
            gmb = gm * (-dvth_dvbs)
            region = "linear"
        else:
            clm = 1.0 + lam * vds
            ids = 0.5 * beta * vov * vov * clm
            gm = beta * vov * clm
            gds = 0.5 * beta * vov * vov * lam
            gmb = gm * (-dvth_dvbs)
            region = "saturation"

        gds = max(gds, self.GDS_MIN)

        op = MosfetOperatingPoint(
            ids=ids,
            gm=gm,
            gds=gds,
            gmb=gmb,
            vgs=vgs,
            vds=vds,
            vbs=vbs,
            region=region,
            reversed=swapped,
        )
        return op

    # ------------------------------------------------------------------ #
    def stamp(self, stamper: Stamper, ctx: StampContext) -> None:
        d, g, s, b = self._indices
        vd = self.terminal_voltage(ctx, 0)
        vg = self.terminal_voltage(ctx, 1)
        vs = self.terminal_voltage(ctx, 2)
        vb = self.terminal_voltage(ctx, 3)

        op = self.evaluate(vd, vg, vs, vb)

        # Effective drain/source assignment after a potential swap.
        if op.reversed:
            eff_d, eff_s = s, d
        else:
            eff_d, eff_s = d, s

        sign = self.model.sign
        # The device current flowing from the effective drain to the effective
        # source, expressed in *real* terminal voltages, linearizes to
        #   I = gds (vD - vS) + gm (vG - vS) + gmb (vB - vS) + sign * ieq
        # because the polarity sign cancels in every derivative term (it
        # multiplies both the current and the controlling voltage) but not in
        # the constant term.
        ieq = op.ids - op.gm * op.vgs - op.gds * op.vds - op.gmb * op.vbs

        stamper.conductance(eff_d, eff_s, op.gds)
        stamper.vccs(eff_d, eff_s, g, eff_s, op.gm)
        if op.gmb != 0.0:
            stamper.vccs(eff_d, eff_s, b, eff_s, op.gmb)
        stamper.current(eff_d, eff_s, sign * ieq)

    def drain_current(self, vd: float, vg: float, vs: float, vb: float) -> float:
        """Signed current into the drain terminal at the given voltages."""
        op = self.evaluate(vd, vg, vs, vb)
        sign = self.model.sign
        ids = op.ids
        if op.reversed:
            ids = -ids
        return sign * ids


class MosfetBank:
    """The Level-1 parameters of many MOSFETs as arrays.

    :meth:`evaluate` is the array form of :meth:`Mosfet.evaluate`: it repeats
    the scalar operations in the same order, so each device's results equal
    the scalar ones bit for bit.
    """

    #: ``(ids, gm, gds, gmb)`` of a device in cutoff, as a column.
    _CUTOFF = np.array([[0.0], [0.0], [Mosfet.GDS_MIN], [0.0]])

    def __init__(self, devices: Sequence[Mosfet]):
        models = [device.model for device in devices]
        self.sign = np.array([model.sign for model in models])
        self.vto = np.array([model.sign * model.vto for model in models])
        self.gamma = np.array([model.gamma for model in models])
        self.phi = np.array([model.phi for model in models])
        self.lam = np.array([model.lambda_ for model in models])
        self.beta = np.array([device.beta for device in devices])
        self._half_beta = 0.5 * self.beta
        self._body = self.gamma > 0.0
        self._any_body = bool(self._body.any())
        self._sqrt_phi = np.sqrt(self.phi)

    def evaluate(self, vd, vg, vs, vb) -> tuple[np.ndarray, ...]:
        """``(ids, gm, gds, gmb, vgs, vds, vbs, reversed)`` of every device.

        The fields are those of :class:`MosfetOperatingPoint`, one array entry
        per device.
        """
        sign = self.sign
        swapped = sign * (vd - vs) < 0.0
        # Exchanging the terminals negates vd - vs exactly, so taking vds from
        # the effective drain and source equals the scalar -vds.
        drain = np.where(swapped, vs, vd)
        source = np.where(swapped, vd, vs)
        vds = sign * (drain - source)
        vgs = sign * (vg - source)
        vbs = sign * (vb - source)

        with np.errstate(all="ignore"):
            if self._any_body:
                root = np.sqrt(np.maximum(self.phi - vbs, 1e-6))
                vth = np.where(
                    self._body, self.vto + self.gamma * (root - self._sqrt_phi), self.vto
                )
                # -dvth/dvbs; the scalar model's 0.0 slope negates to -0.0.
                slope = np.where(self._body, self.gamma / (2.0 * root), -0.0)
            else:
                vth, slope = self.vto, -0.0
            beta, lam = self.beta, self.lam
            vov = vgs - vth
            clm = 1.0 + lam * vds
            linear = vds < vov
            scaled_core = beta * (vov * vds - 0.5 * vds * vds)
            half_square = self._half_beta * vov * vov

            currents = np.empty((4, len(sign)))
            ids, gm, gds, gmb = currents
            np.multiply(np.where(linear, scaled_core, half_square), clm, out=ids)
            np.multiply(beta * np.where(linear, vds, vov), clm, out=gm)
            gds[:] = np.where(
                linear, beta * (vov - vds) * clm + scaled_core * lam, half_square * lam
            )
            np.multiply(gm, slope, out=gmb)
            np.copyto(currents, self._CUTOFF, where=vov <= 0.0)
        np.maximum(gds, Mosfet.GDS_MIN, out=gds)
        return ids, gm, gds, gmb, vgs, vds, vbs, swapped
