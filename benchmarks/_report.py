"""Shared report printer and machine-readable perf-record sink.

Benchmarks call :func:`record_faultsim` with one measurement per (circuit,
engine, fault model); at the end of the pytest session the conftest hook
writes every record to ``BENCH_faultsim.json`` (override the path with
``REPRO_BENCH_JSON``) so the fault-simulation perf trajectory is tracked
across PRs -- CI uploads the file as an artifact.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Optional


def report(rows):
    """Print experiment report rows beneath the benchmark output."""
    print()
    for row in rows:
        print(row)


#: Fault-simulation perf records accumulated over one pytest session.
_FAULTSIM_RECORDS: list[dict[str, Any]] = []


def record_faultsim(
    *,
    circuit: str,
    family: str,
    engine: str,
    model: str,
    num_faults: int,
    num_tests: int,
    seconds: float,
    backend: str = "int",
    word_bits: Optional[int] = None,
    workers: Optional[int] = None,
    backtracks: Optional[int] = None,
    decisions: Optional[int] = None,
    implications: Optional[int] = None,
    tested: Optional[int] = None,
    proven_redundant: Optional[int] = None,
    aborted: Optional[int] = None,
) -> float:
    """Record one fault-simulation measurement; returns fault-tests/second.

    ``engine`` is one of ``"codegen"`` / ``"numpy"`` / ``"serial"``;
    ``backend`` is the packed-word representation behind the engine
    (``"int"`` for arbitrary-precision integers, ``"numpy"`` for
    uint64 ndarrays), giving the JSON a backend axis now that the same
    generated code runs over more than one word type.  ``family`` is the
    circuit family (``"rdag"``, ``"mult"``, ``"rca"``, ...)
    so trend tooling can group workloads across PRs.  ``workers`` is the
    process count of a sharded-campaign measurement (None for single-process
    engine runs), giving the JSON a workers axis for the scale trajectory.
    ``backtracks`` / ``decisions`` / ``implications`` carry the total search
    effort of an ATPG measurement (None when the run had no generation
    phase), so search regressions show up in the trajectory even when
    wall-clock noise hides them.  ``tested`` / ``proven_redundant`` /
    ``aborted`` are the three-way outcome counts of a structural-ATPG
    measurement, giving the JSON a per-engine resolution axis alongside raw
    throughput.
    """
    throughput = (num_faults * num_tests / seconds) if seconds > 0 else float("inf")
    _FAULTSIM_RECORDS.append(
        {
            "circuit": circuit,
            "family": family,
            "engine": engine,
            "backend": backend,
            "model": model,
            "num_faults": num_faults,
            "num_tests": num_tests,
            "seconds": seconds,
            "fault_tests_per_second": throughput,
            "word_bits": word_bits,
            "workers": workers,
            "backtracks": backtracks,
            "decisions": decisions,
            "implications": implications,
            "tested": tested,
            "proven_redundant": proven_redundant,
            "aborted": aborted,
        }
    )
    return throughput


def write_faultsim_report(path: Optional[str] = None) -> Optional[str]:
    """Write all accumulated records as JSON; returns the path (None if empty)."""
    if not _FAULTSIM_RECORDS:
        return None
    if path is None:
        path = os.environ.get("REPRO_BENCH_JSON") or os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "BENCH_faultsim.json",
        )
    payload = {
        "schema": "repro/faultsim-bench/1",
        "records": sorted(
            _FAULTSIM_RECORDS,
            key=lambda r: (
                r["family"],
                r["circuit"],
                r["model"],
                r["engine"],
                r.get("workers") or 0,
            ),
        ),
    }
    # Atomic write (temp file + os.replace): a benchmark run killed
    # mid-flush never leaves a truncated BENCH_faultsim.json behind.
    # Inlined rather than importing repro.ioutil so this helper stays
    # importable without PYTHONPATH=src.
    fd, tmp_name = tempfile.mkstemp(
        prefix=".BENCH_faultsim.", suffix=".tmp", dir=os.path.dirname(path) or "."
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path
