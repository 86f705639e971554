"""Static test-set compaction (greedy set cover) and report merging.

Used to reproduce the Section-4.3 statistic that a small subset of the
possible input transitions (the paper quotes 18) suffices to detect every
testable OBD fault of the full-adder example.

The two merge helpers are the determinism backbone of the sharded campaign
executor (:mod:`repro.campaign.sharded`): per-shard
:class:`~repro.atpg.fault_sim.DetectionReport`\\ s are recombined into the
single report the unsharded pipeline would have produced **before** the
greedy cover runs, so compaction quality (and the selected test indices)
are independent of how the fault universe was partitioned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .fault_sim import DetectionReport


def merge_fault_shards(
    reports: Sequence[DetectionReport],
    fault_order: Iterable[str] | None = None,
) -> DetectionReport:
    """Union of reports over **disjoint fault shards** of one test list.

    Every shard must have simulated the same tests (``num_tests`` must
    agree) over a disjoint slice of the fault universe; the merged report
    contains each fault's detection list unchanged.  It takes ownership of
    the shard reports rather than copying them: the merged report holds the
    same list objects (a single report already in order is returned as is),
    so callers must not mutate or reuse the shard reports.  *fault_order*
    restores the original universe order of the detections dict (shards may
    have run out of order), so downstream JSON reports are byte-identical to
    the unsharded run; without it, shards are concatenated in the given
    order.
    """
    if not reports:
        return DetectionReport(detections={}, num_tests=0)
    fault_order = None if fault_order is None else list(fault_order)
    if len(reports) == 1 and fault_order in (None, list(reports[0].detections)):
        return reports[0]
    num_tests = reports[0].num_tests
    merged: dict[str, list[int]] = {}
    for report in reports:
        if report.num_tests != num_tests:
            raise ValueError(
                f"fault shards disagree on the test list: {report.num_tests} "
                f"tests vs {num_tests}; shard merging needs one shared test list"
            )
        for key, indices in report.detections.items():
            if key in merged:
                raise ValueError(f"fault {key!r} appears in more than one shard")
            merged[key] = indices
    if fault_order is None:
        return DetectionReport(detections=merged, num_tests=num_tests)
    ordered: dict[str, list[int]] = {}
    for key in fault_order:
        try:
            ordered[key] = merged.pop(key)
        except KeyError:
            raise ValueError(f"fault {key!r} missing from every shard report") from None
    if merged:
        extra = next(iter(merged))
        raise ValueError(f"fault {extra!r} not in the requested fault order")
    return DetectionReport(detections=ordered, num_tests=num_tests)


def concat_phase_reports(
    fault_keys: Iterable[str],
    reports: Sequence[DetectionReport],
) -> DetectionReport:
    """Concatenate per-phase reports into one test-index space.

    Each report covers a (subset of the) same fault universe but a
    *different* test list; test indices of later reports are offset by the
    number of tests in earlier ones (pattern-phase tests first, then ATPG
    tests -- the convention of :class:`~repro.campaign.CampaignResult`).
    Faults absent from a report (e.g. dropped before the ATPG re-simulation)
    simply contribute no indices from it.
    """
    detections: dict[str, list[int]] = {key: [] for key in fault_keys}
    offset = 0
    for report in reports:
        for key, indices in report.detections.items():
            detections[key].extend(offset + index for index in indices)
        offset += report.num_tests
    return DetectionReport(detections=detections, num_tests=offset)


@dataclass(frozen=True)
class CompactionResult:
    """A compacted test subset and what it covers."""

    selected_indices: tuple[int, ...]
    covered_faults: tuple[str, ...]
    uncovered_faults: tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.selected_indices)


def greedy_compaction(report: DetectionReport) -> CompactionResult:
    """Greedy minimum-cover selection of tests from a detection report.

    Repeatedly picks the test detecting the largest number of still-uncovered
    faults; ties on gain break deterministically toward the **lowest** test
    index, independent of the order faults appear in the report.  Faults
    never detected by any test are reported as uncovered.
    """
    detectable = {key for key, tests in report.detections.items() if tests}
    fault_sets: dict[int, set[str]] = {}
    for key, tests in report.detections.items():
        for index in tests:
            fault_sets.setdefault(index, set()).add(key)
    candidate_order = sorted(fault_sets)

    uncovered = set(detectable)
    selected: list[int] = []
    chosen: set[int] = set()
    while uncovered:
        best_index, best_gain = None, 0
        for index in candidate_order:
            if index in chosen:
                continue
            gain = len(fault_sets[index] & uncovered)
            if gain > best_gain:
                best_index, best_gain = index, gain
        if best_index is None:
            break
        selected.append(best_index)
        chosen.add(best_index)
        uncovered -= fault_sets[best_index]

    never_detected = tuple(sorted(set(report.detections) - detectable))
    return CompactionResult(
        selected_indices=tuple(selected),
        covered_faults=tuple(sorted(detectable - uncovered)),
        uncovered_faults=tuple(sorted(uncovered | set(never_detected))),
    )


def compact_tests(report: DetectionReport, tests: Sequence) -> tuple[list, CompactionResult]:
    """Return the compacted subset of *tests* plus the compaction record."""
    result = greedy_compaction(report)
    return [tests[i] for i in result.selected_indices], result
