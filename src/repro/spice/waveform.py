"""Waveform container and measurement primitives.

The classes here are the raw material of the paper's evaluation: transition
delays (Table 1, Figures 6, 7, 9) are 50 %-crossing differences between an
input and an output :class:`Waveform`, and the "sa-0" / "sa-1" entries of
Table 1 correspond to waveforms that never cross the measurement threshold
within the observation window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass
class Waveform:
    """A sampled signal ``values(time)``.

    Attributes
    ----------
    time:
        Monotonically non-decreasing sample times in seconds.
    values:
        Sample values (volts or amperes), same length as ``time``.
    name:
        Optional label used in reports.
    """

    time: np.ndarray
    values: np.ndarray
    name: str = ""

    def __post_init__(self):
        self.time = np.asarray(self.time, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.time.shape != self.values.shape:
            raise ValueError("time and values must have the same shape")
        if self.time.ndim != 1:
            raise ValueError("waveforms are one-dimensional")
        if self.time.size >= 2 and np.any(np.diff(self.time) < 0):
            raise ValueError("waveform time axis must be non-decreasing")

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return int(self.time.size)

    def at(self, t: float) -> float:
        """Linearly interpolated value at time *t*."""
        return float(np.interp(t, self.time, self.values))

    @property
    def t_start(self) -> float:
        return float(self.time[0]) if len(self) else 0.0

    @property
    def t_stop(self) -> float:
        return float(self.time[-1]) if len(self) else 0.0

    def initial_value(self) -> float:
        return float(self.values[0])

    def final_value(self) -> float:
        return float(self.values[-1])

    def minimum(self) -> float:
        return float(np.min(self.values))

    def maximum(self) -> float:
        return float(np.max(self.values))

    def slice(self, t0: float, t1: float) -> "Waveform":
        """Sub-waveform restricted to ``t0 <= t <= t1`` (endpoints interpolated)."""
        if t1 < t0:
            raise ValueError("slice requires t1 >= t0")
        mask = (self.time > t0) & (self.time < t1)
        times = np.concatenate(([t0], self.time[mask], [t1]))
        values = np.concatenate(([self.at(t0)], self.values[mask], [self.at(t1)]))
        return Waveform(times, values, name=self.name)

    # ------------------------------------------------------------------ #
    # Threshold crossings.
    # ------------------------------------------------------------------ #
    def crossings(self, threshold: float, direction: str = "any") -> list[float]:
        """Times at which the waveform crosses *threshold*.

        ``direction`` selects ``"rising"``, ``"falling"`` or ``"any"``
        crossings.  Crossing times are linearly interpolated.
        """
        if direction not in ("any", "rising", "falling"):
            raise ValueError(f"unknown direction {direction!r}")
        v = self.values - threshold
        out: list[float] = []
        for i in range(1, len(self)):
            v0, v1 = v[i - 1], v[i]
            if v0 == v1:
                continue
            if v0 < 0.0 <= v1:
                kind = "rising"
            elif v0 >= 0.0 > v1:
                kind = "falling"
            else:
                continue
            if direction != "any" and kind != direction:
                continue
            t0, t1 = self.time[i - 1], self.time[i]
            frac = -v0 / (v1 - v0)
            out.append(float(t0 + frac * (t1 - t0)))
        return out

    def first_crossing(
        self, threshold: float, direction: str = "any", after: float = 0.0
    ) -> Optional[float]:
        """First crossing of *threshold* at or after time *after*, or None."""
        for t in self.crossings(threshold, direction):
            if t >= after:
                return t
        return None

    def crosses(self, threshold: float, direction: str = "any", after: float = 0.0) -> bool:
        """True when the waveform crosses *threshold* after time *after*."""
        return self.first_crossing(threshold, direction, after) is not None

    # ------------------------------------------------------------------ #
    # Edge measurements.
    # ------------------------------------------------------------------ #
    def rise_time(self, vlow: float, vhigh: float, after: float = 0.0) -> Optional[float]:
        """10/90-style rise time between the two given absolute levels."""
        t_lo = self.first_crossing(vlow, "rising", after)
        if t_lo is None:
            return None
        t_hi = self.first_crossing(vhigh, "rising", t_lo)
        if t_hi is None:
            return None
        return t_hi - t_lo

    def fall_time(self, vhigh: float, vlow: float, after: float = 0.0) -> Optional[float]:
        """90/10-style fall time between the two given absolute levels."""
        t_hi = self.first_crossing(vhigh, "falling", after)
        if t_hi is None:
            return None
        t_lo = self.first_crossing(vlow, "falling", t_hi)
        if t_lo is None:
            return None
        return t_lo - t_hi

    def shifted(self, dt: float) -> "Waveform":
        """Copy with the time axis shifted by *dt*."""
        return Waveform(self.time + dt, self.values.copy(), name=self.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<Waveform {self.name!r} n={len(self)} [{self.t_start:g},{self.t_stop:g}]s>"
