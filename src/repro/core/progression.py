"""Temporal progression of oxide breakdown and the detection window.

Section 3.3 / 4.2 of the paper: the time between the first soft-breakdown
event and the final hard breakdown is roughly 27 hours (for the PFET with a
15 angstrom oxide measured by Linder et al.), and the growth of the leakage
current over that interval is *exponential*.  Consequently the practical
window for detecting the defect -- after the delay becomes observable but
before hard breakdown endangers the rest of the circuit -- is much shorter
than the full interval, and fault-tolerance schemes must schedule their
test/diagnose/repair actions accordingly.

This module models that progression as an exponential interpolation of the
diode saturation current between the soft- and hard-breakdown values, with
the series resistance interpolated logarithmically as well, and maps times to
the discrete stages of Table 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .breakdown import BreakdownParameters, BreakdownStage, stage_ladder

#: SBD-to-HBD interval quoted by the paper (27 hours), in seconds.
DEFAULT_SBD_TO_HBD_SECONDS = 27.0 * 3600.0


@dataclass(frozen=True)
class ProgressionModel:
    """Exponential-growth model of a single breakdown spot.

    Attributes
    ----------
    polarity:
        Device polarity ('n' or 'p'); selects the Table-1 parameter ladder.
    time_to_hbd:
        Time from the onset of soft breakdown to hard breakdown, in seconds.
    onset_time:
        Absolute time at which soft breakdown starts (defaults to 0).
    """

    polarity: str = "n"
    time_to_hbd: float = DEFAULT_SBD_TO_HBD_SECONDS
    onset_time: float = 0.0

    def __post_init__(self):
        if self.polarity.lower() not in ("n", "p"):
            raise ValueError("polarity must be 'n' or 'p'")
        if self.time_to_hbd <= 0.0:
            raise ValueError("time_to_hbd must be > 0")

    # ------------------------------------------------------------------ #
    @property
    def ladder(self) -> dict[BreakdownStage, BreakdownParameters]:
        return stage_ladder(self.polarity)

    @property
    def hbd_time(self) -> float:
        """Absolute time of hard breakdown."""
        return self.onset_time + self.time_to_hbd

    def _log_interp(self, start: float, stop: float, fraction: float) -> float:
        return math.exp(math.log(start) + fraction * (math.log(stop) - math.log(start)))

    def saturation_current_at(self, time: float) -> float:
        """Junction saturation current at absolute *time* (exponential growth)."""
        ladder = self.ladder
        i_start = ladder[BreakdownStage.SBD].saturation_current
        i_stop = ladder[BreakdownStage.HBD].saturation_current
        if time <= self.onset_time:
            return ladder[BreakdownStage.FAULT_FREE].saturation_current
        fraction = min((time - self.onset_time) / self.time_to_hbd, 1.0)
        return self._log_interp(i_start, i_stop, fraction)

    def resistance_at(self, time: float) -> float:
        """Breakdown path resistance at absolute *time* (log interpolation)."""
        ladder = self.ladder
        r_start = ladder[BreakdownStage.SBD].resistance
        r_stop = ladder[BreakdownStage.HBD].resistance
        if time <= self.onset_time:
            return ladder[BreakdownStage.FAULT_FREE].resistance
        fraction = min((time - self.onset_time) / self.time_to_hbd, 1.0)
        return self._log_interp(r_start, r_stop, fraction)

    # ------------------------------------------------------------------ #
    def stage_at(self, time: float) -> BreakdownStage:
        """Discrete Table-1 stage reached by absolute *time*.

        The stage is the most severe one whose saturation current has been
        reached (saturation current grows monotonically with severity for
        the NMOS ladder; for the PMOS ladder, where the tabulated currents
        are nearly constant, the resistance decrease is used instead).
        """
        if time <= self.onset_time:
            return BreakdownStage.FAULT_FREE
        if time >= self.hbd_time:
            return BreakdownStage.HBD
        isat = self.saturation_current_at(time)
        resistance = self.resistance_at(time)
        reached = BreakdownStage.SBD
        for stage in BreakdownStage.progression():
            if stage == BreakdownStage.FAULT_FREE:
                continue
            params = self.ladder[stage]
            if isat >= params.saturation_current and resistance <= params.resistance:
                reached = stage
        return reached

    def time_of_stage(self, stage: BreakdownStage) -> float:
        """Earliest absolute time at which *stage* is reached."""
        if stage == BreakdownStage.FAULT_FREE:
            return self.onset_time
        if stage == BreakdownStage.HBD:
            return self.hbd_time
        ladder = self.ladder
        i_start = ladder[BreakdownStage.SBD].saturation_current
        i_stop = ladder[BreakdownStage.HBD].saturation_current
        r_start = ladder[BreakdownStage.SBD].resistance
        r_stop = ladder[BreakdownStage.HBD].resistance
        target = ladder[stage]
        # Invert both interpolations and take the later (both must be reached).
        frac_i = _safe_log_fraction(i_start, i_stop, target.saturation_current)
        frac_r = _safe_log_fraction(r_start, r_stop, target.resistance)
        fraction = max(frac_i, frac_r)
        return self.onset_time + fraction * self.time_to_hbd

    def detection_window(
        self,
        first_detectable: BreakdownStage = BreakdownStage.MBD1,
        last_safe: BreakdownStage = BreakdownStage.HBD,
    ) -> tuple[float, float]:
        """(start, end) of the window in which the defect can and should be caught.

        The window opens when the defect reaches *first_detectable* (the first
        stage whose delay is observable by the detection mechanism) and closes
        when it reaches *last_safe* (by default hard breakdown, after which
        the paper warns the upstream driver and supply are endangered).
        """
        start = self.time_of_stage(first_detectable)
        end = self.time_of_stage(last_safe)
        if end < start:
            raise ValueError("detection window is empty (last_safe precedes first_detectable)")
        return start, end

    def window_fraction(
        self,
        first_detectable: BreakdownStage = BreakdownStage.MBD1,
        last_safe: BreakdownStage = BreakdownStage.HBD,
    ) -> float:
        """Detection window length as a fraction of the full SBD-to-HBD time."""
        start, end = self.detection_window(first_detectable, last_safe)
        return (end - start) / self.time_to_hbd


def _safe_log_fraction(start: float, stop: float, value: float) -> float:
    """Fraction f in [0, 1] with value = exp(log(start) + f*(log(stop)-log(start)))."""
    if start == stop:
        return 0.0
    fraction = (math.log(value) - math.log(start)) / (math.log(stop) - math.log(start))
    return min(max(fraction, 0.0), 1.0)
