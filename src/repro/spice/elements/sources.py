"""Independent voltage and current sources.

A source holds a constant value or follows any callable of time; the
two-pattern input sequences of the experiments use the piecewise-linear
waveform below.
"""

from __future__ import annotations

import bisect
from typing import Callable, Sequence

import numpy as np

from .base import Element, StampContext, Stamper

WaveformFunction = Callable[[float], float]


class PiecewiseLinearWaveform:
    """SPICE-style PWL waveform defined by (time, value) breakpoints.

    The value is held constant before the first breakpoint and after the last
    one, and linearly interpolated in between.
    """

    def __init__(self, points: Sequence[tuple[float, float]]):
        if not points:
            raise ValueError("PWL waveform needs at least one point")
        times = [float(t) for t, _ in points]
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("PWL breakpoint times must be non-decreasing")
        self.times = times
        self.values = [float(v) for _, v in points]

    def __call__(self, time: float) -> float:
        times, values = self.times, self.values
        if time <= times[0]:
            return values[0]
        if time >= times[-1]:
            return values[-1]
        hi = bisect.bisect_right(times, time)
        lo = hi - 1
        t0, t1 = times[lo], times[hi]
        v0, v1 = values[lo], values[hi]
        if t1 == t0:
            return v1
        frac = (time - t0) / (t1 - t0)
        return v0 + frac * (v1 - v0)

    def sample(self, times: Sequence[float]) -> np.ndarray:
        """The waveform at each of *times*, equal to :meth:`__call__` bit for bit.

        ``np.searchsorted`` with ``side="right"`` is :func:`bisect.bisect_right`,
        and the interpolation repeats the same float operations.
        """
        grid = np.asarray(times, dtype=float)
        breakpoints, levels = self.times, self.values
        if len(breakpoints) == 1:
            # Repeated, so that every time has a segment to index.
            breakpoints, levels = breakpoints * 2, levels * 2
        breakpoints, levels = np.array(breakpoints), np.array(levels)
        # The interpolation is kept only strictly between the first and the
        # last breakpoint, where 1 <= hi < len(breakpoints) and t0 < t1;
        # clipping keeps the other times' indices inside the waveform.
        hi = np.searchsorted(breakpoints, grid, side="right")
        np.clip(hi, 1, len(breakpoints) - 1, out=hi)
        t0, t1 = breakpoints[hi - 1], breakpoints[hi]
        v0, v1 = levels[hi - 1], levels[hi]
        with np.errstate(divide="ignore", invalid="ignore"):
            interpolated = v0 + (grid - t0) / (t1 - t0) * (v1 - v0)
        return np.where(
            grid <= breakpoints[0],
            levels[0],
            np.where(grid >= breakpoints[-1], levels[-1], interpolated),
        )


class VoltageSource(Element):
    """Ideal independent voltage source between ``p`` and ``n``.

    The source introduces one MNA branch-current unknown.  The value may be a
    constant (``dc``) or any callable of time (``waveform``); when both are
    given the waveform wins.
    """

    num_branches = 1

    def __init__(
        self,
        name: str,
        p: str,
        n: str,
        dc: float = 0.0,
        waveform: WaveformFunction | None = None,
    ):
        super().__init__(name, (p, n))
        self.dc = float(dc)
        self.waveform = waveform

    def value(self, time: float) -> float:
        """Source voltage at the given time."""
        if self.waveform is not None:
            return float(self.waveform(time))
        return self.dc

    def stamp(self, stamper: Stamper, ctx: StampContext) -> None:
        p, n = self._indices
        value = self.value(ctx.time) * ctx.source_scale
        stamper.voltage_source(self._branch, p, n, value)


class CurrentSource(Element):
    """Ideal independent current source pushing current from ``p`` to ``n``."""

    def __init__(
        self,
        name: str,
        p: str,
        n: str,
        dc: float = 0.0,
        waveform: WaveformFunction | None = None,
    ):
        super().__init__(name, (p, n))
        self.dc = float(dc)
        self.waveform = waveform

    def value(self, time: float) -> float:
        """Source current at the given time."""
        if self.waveform is not None:
            return float(self.waveform(time))
        return self.dc

    def stamp(self, stamper: Stamper, ctx: StampContext) -> None:
        p, n = self._indices
        stamper.current(p, n, self.value(ctx.time) * ctx.source_scale)
