"""Fault-coverage accounting and report formatting."""

from __future__ import annotations

from dataclasses import dataclass

from .fault_sim import DetectionReport


@dataclass(frozen=True)
class CoverageReport:
    """Summary of a fault-simulation or ATPG campaign."""

    model: str
    total_faults: int
    detected: int
    untestable: int = 0
    aborted: int = 0
    num_tests: int = 0
    #: How many of ``untestable`` were proven by the static phase
    #: (implication / observability analysis) rather than by an exhausted
    #: ATPG search.  Always ``<= untestable``.
    proven_static: int = 0

    @property
    def coverage(self) -> float:
        """Detected / total (raw fault coverage)."""
        if self.total_faults == 0:
            return 1.0
        return self.detected / self.total_faults

    @property
    def test_efficiency(self) -> float:
        """(detected + proven untestable) / total."""
        if self.total_faults == 0:
            return 1.0
        return (self.detected + self.untestable) / self.total_faults

    def describe(self) -> str:
        untestable = f"{self.untestable} untestable"
        if self.proven_static:
            untestable += f" ({self.proven_static} proven statically)"
        return (
            f"{self.model}: {self.detected}/{self.total_faults} detected "
            f"({100.0 * self.coverage:.1f}%), {untestable}, "
            f"{self.aborted} aborted, {self.num_tests} tests"
        )


def coverage_from_report(model: str, report: DetectionReport) -> CoverageReport:
    """Build a :class:`CoverageReport` from a fault-simulation detection report.

    Simulation proves nothing untestable and aborts nothing, so those counts
    are 0.
    """
    return CoverageReport(
        model=model,
        total_faults=len(report.words),
        detected=len(report.detected_faults),
        num_tests=report.num_tests,
    )
