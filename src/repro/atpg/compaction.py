"""Static test-set compaction (greedy set cover) and report merging.

Used to reproduce the Section-4.3 statistic that a small subset of the
possible input transitions (the paper quotes 18) suffices to detect every
testable OBD fault of the full-adder example.

Everything here works on the reports' per-fault int bitsets
(:attr:`~repro.atpg.fault_sim.DetectionReport.words`).

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

import numpy as _np

from .fault_sim import DetectionReport


def merge_fault_shards(
    reports: Sequence[DetectionReport],
    fault_order: Iterable[str] | None = None,
) -> DetectionReport:
    """Union of reports over **disjoint fault shards** of one test list.

    Every shard must have simulated the same tests (``num_tests`` must
    agree) over a disjoint slice of the fault universe; the merged report
    holds each fault's detection bitset unchanged, and a single report
    already in order is returned as is.  *fault_order* restores the
    original universe order of the faults (shards may have run out of
    order), so downstream JSON reports are byte-identical to the unsharded
    run; without it, shards are concatenated in the given order.
    """
    if not reports:
        return DetectionReport(words={}, num_tests=0)
    fault_order = None if fault_order is None else list(fault_order)
    if len(reports) == 1 and fault_order in (None, list(reports[0].words)):
        return reports[0]
    num_tests = reports[0].num_tests
    merged: dict[str, int] = {}
    for report in reports:
        if report.num_tests != num_tests:
            raise ValueError(
                f"fault shards disagree on the test list: {report.num_tests} "
                f"tests vs {num_tests}; shard merging needs one shared test list"
            )
        for key in report.words:
            if key in merged:
                raise ValueError(f"fault {key!r} appears in more than one shard")
        merged |= report.words
    if fault_order is None:
        return DetectionReport(words=merged, num_tests=num_tests)
    ordered: dict[str, int] = {}
    for key in fault_order:
        try:
            ordered[key] = merged.pop(key)
        except KeyError:
            raise ValueError(f"fault {key!r} missing from every shard report") from None
    if merged:
        extra = next(iter(merged))
        raise ValueError(f"fault {extra!r} not in the requested fault order")
    return DetectionReport(words=ordered, num_tests=num_tests)


def concat_phase_reports(
    fault_keys: Iterable[str],
    reports: Sequence[DetectionReport],
) -> DetectionReport:
    """Concatenate per-phase reports into one test-index space.

    Each report covers a (subset of the) same fault universe but a
    *different* test list; test indices of later reports are offset by the
    number of tests in earlier ones (pattern-phase tests first, then ATPG
    tests -- the convention of :class:`~repro.campaign.CampaignResult`), so
    each fault's bitset is shifted by that offset and ORed in.  Faults
    absent from a report (e.g. dropped before the ATPG re-simulation)
    simply contribute no bits from it.
    """
    words = {key: 0 for key in fault_keys}
    offset = 0
    for report in reports:
        for key, word in report.words.items():
            words[key] |= word << offset
        offset += report.num_tests
    return DetectionReport(words=words, num_tests=offset)


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
    index, independent of the order faults appear in the report.  Every
    detectable fault ends covered; faults never detected by any test are
    reported as uncovered.

    Gains are column sums of a detectable-fault x test 0/1 matrix (one byte
    per cell), and ``argmax`` returns the first maximum: the lowest index.
    """
    detectable = [key for key, word in report.words.items() if word]
    selected: list[int] = []
    if detectable:
        words = [report.words[key] for key in detectable]
        width = (max(word.bit_length() for word in words) + 7) >> 3
        packed = _np.frombuffer(
            b"".join(word.to_bytes(width, "little") for word in words), dtype=_np.uint8
        ).reshape(len(words), width)
        matrix = _np.unpackbits(packed, axis=1, bitorder="little").view(_np.bool_)
        gains = matrix.sum(axis=0, dtype=_np.int64)
        uncovered = _np.ones(len(words), dtype=_np.bool_)
        while uncovered.any():
            best = int(gains.argmax())
            selected.append(best)
            newly = uncovered & matrix[:, best]
            uncovered ^= newly
            gains -= matrix[newly].sum(axis=0, dtype=_np.int64)
    return CompactionResult(
        selected_indices=tuple(selected),
        covered_faults=tuple(sorted(detectable)),
        uncovered_faults=tuple(sorted(key for key, word in report.words.items() if not word)),
    )
