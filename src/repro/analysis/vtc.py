"""Voltage-transfer-characteristic (VTC) measurements.

Figure 4 of the paper shows the inverter input/output characteristic for the
fault-free case and for soft, medium and hard NMOS breakdown: the visible
effect is an upward shift of the output-low level (VOL).  The helpers here
extract VOL, VOH, the switching threshold and the noise margins from a DC
sweep so that the experiment can report those shifts numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..spice.waveform import Waveform


@dataclass(frozen=True)
class VtcMetrics:
    """Summary metrics of an inverter voltage transfer curve.

    Attributes
    ----------
    vol:
        Output voltage with the input at the highest swept value.
    voh:
        Output voltage with the input at the lowest swept value.
    switching_threshold:
        Input voltage at which the output crosses VDD / 2 (None when the
        curve never crosses it, e.g. for a hard breakdown).
    vil / vih:
        Unity-gain input voltages (slope = -1) bounding the transition
        region; None when the curve has no such point.
    noise_margin_low / noise_margin_high:
        ``NML = VIL - VOL`` and ``NMH = VOH - VIH`` (None when undefined).
    """

    vol: float
    voh: float
    switching_threshold: float | None
    vil: float | None
    vih: float | None
    noise_margin_low: float | None
    noise_margin_high: float | None


def analyze_vtc(curve: Waveform, vdd: float) -> VtcMetrics:
    """Compute :class:`VtcMetrics` from a transfer curve.

    The curve's "time" axis is the swept input voltage (as produced by
    :meth:`repro.spice.analysis.dc_sweep.DcSweepResult.transfer_curve`).
    """
    vin = np.asarray(curve.time)
    vout = np.asarray(curve.values)
    if vin.size < 3:
        raise ValueError("VTC analysis needs at least 3 sweep points")

    voh = float(vout[0])
    vol = float(vout[-1])

    threshold = curve.first_crossing(vdd / 2.0, direction="falling")
    if threshold is None:
        threshold = curve.first_crossing(vdd / 2.0, direction="any")

    # Unity-gain points: where dVout/dVin crosses -1.
    gain = np.gradient(vout, vin)
    vil = _first_gain_crossing(vin, gain, direction="entering")
    vih = _first_gain_crossing(vin, gain, direction="leaving")

    nml = (vil - vol) if vil is not None else None
    nmh = (voh - vih) if vih is not None else None

    return VtcMetrics(
        vol=vol,
        voh=voh,
        switching_threshold=threshold,
        vil=vil,
        vih=vih,
        noise_margin_low=nml,
        noise_margin_high=nmh,
    )


def _first_gain_crossing(vin: np.ndarray, gain: np.ndarray, direction: str) -> float | None:
    """Input voltage where the VTC gain first crosses -1.

    ``direction="entering"`` finds the crossing into the high-gain region
    (gain dropping below -1, defines VIL); ``direction="leaving"`` finds the
    crossing back out of it (defines VIH).
    """
    below = gain < -1.0
    if direction == "entering":
        for i in range(1, len(vin)):
            if below[i] and not below[i - 1]:
                return float(vin[i - 1])
        return None
    for i in range(len(vin) - 1, 0, -1):
        if below[i - 1] and not below[i]:
            return float(vin[i])
    return None
