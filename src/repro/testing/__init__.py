"""Concurrent-testing support: detection windows and test schedules."""

from .scheduler import TestSchedule, maximum_test_period, schedule_for_window
from .window import (
    DetectionWindow,
    StageDelay,
    detectability_threshold,
    detection_window,
    first_detectable_stage,
    window_versus_slack,
)

__all__ = [
    "StageDelay",
    "DetectionWindow",
    "detectability_threshold",
    "first_detectable_stage",
    "detection_window",
    "window_versus_slack",
    "TestSchedule",
    "maximum_test_period",
    "schedule_for_window",
]
