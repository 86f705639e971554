"""Build detection reports from index lists, the form tests write them in."""

from __future__ import annotations

from repro.atpg import DetectionReport


def report_from_lists(detections: dict[str, list[int]], num_tests: int) -> DetectionReport:
    """A report whose fault *key* is detected by the tests ``detections[key]``."""
    words = {key: sum(1 << index for index in set(indices)) for key, indices in detections.items()}
    return DetectionReport(words=words, num_tests=num_tests)
