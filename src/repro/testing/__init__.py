"""Concurrent-testing support: detection windows and test schedules."""

from .._exports import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    ".scheduler": ("TestSchedule", "maximum_test_period", "schedule_for_window"),
    ".window": (
        "StageDelay", "DetectionWindow", "detectability_threshold", "first_detectable_stage",
        "detection_window", "window_versus_slack",
    ),
})
