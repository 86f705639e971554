"""Scheduling of concurrent test / diagnose / repair intervals.

The paper's closing argument of Section 4.2: the diode-resistor model
predicts the delay at every progression stage, and that prediction "helps the
scheduling of test/diagnosis/repair intervals of fault-tolerance schemes".
Given a detection window, the scheduler below answers the operational
question: how often must the concurrent test run so that any defect is caught
inside its window with the required number of opportunities?
"""

from __future__ import annotations

from dataclasses import dataclass

from .window import DetectionWindow


@dataclass(frozen=True)
class TestSchedule:
    """A periodic concurrent-test schedule."""

    period: float
    test_duration: float
    detection_attempts: int

    @property
    def overhead(self) -> float:
        """Fraction of time spent testing."""
        if self.period <= 0.0:
            return 1.0
        return min(self.test_duration / self.period, 1.0)

    def describe(self) -> str:
        return (
            f"test every {self.period / 3600.0:.2f} h "
            f"({self.detection_attempts} attempts per window, "
            f"{100.0 * self.overhead:.4f}% time overhead)"
        )


def maximum_test_period(window: DetectionWindow, attempts: int = 1) -> float:
    """Largest test period guaranteeing *attempts* test runs inside the window."""
    if attempts < 1:
        raise ValueError("attempts must be >= 1")
    if not window.exists:
        return 0.0
    return window.duration / attempts


def schedule_for_window(
    window: DetectionWindow,
    test_duration: float,
    attempts: int = 2,
    safety_factor: float = 1.0,
) -> TestSchedule:
    """Build a periodic schedule that catches defects inside *window*.

    ``attempts`` is the number of test opportunities required inside the
    window (2 by default: one to detect, one to confirm/diagnose);
    ``safety_factor`` > 1 shrinks the period further.
    """
    if test_duration < 0.0:
        raise ValueError("test_duration must be >= 0")
    if safety_factor < 1.0:
        raise ValueError("safety_factor must be >= 1")
    period = maximum_test_period(window, attempts) / safety_factor
    return TestSchedule(period=period, test_duration=test_duration, detection_attempts=attempts)
