"""Workload process of the benchmark; ``run.py`` starts it.

``python3 child.py setup <workload>``
    import the workload's layers, build its circuit or technology, print
    ``ready`` and exit (``run.py`` times this from process start).
``python3 child.py reference <workload> --seed N``
    run the campaign once, single process, on the other word backend and
    print its digest as JSON.
``python3 child.py measure <workload> --seed N --seconds S --trace 0|1
[--reference DIGEST]``
    run one untimed warm-up repetition, then repetitions until S seconds are
    used, with a host-speed calibration (``calibrate.py``) before the first
    and after each one; check every output, and print the samples, raw and
    adjusted to the reference host, as JSON.  With
    ``--trace 1`` untraced and traced repetitions alternate, and the traced
    ones record the per-layer metrics.
``python3 child.py record > expected.json``
    print the stored digests and Table-1 delays for the recorded seed; rerun
    only when a change is meant to alter results.

``src`` must be on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import sys
import time
from typing import Any

import calibrate
import workloads as wl
from tracer import Tracer

#: Counters that must read the same in every traced repetition.
EXACT_COUNTERS = (
    "analysis_static.learn_calls",
    "atpg.attempted",
    "atpg.backtracks",
    "spice.newton_iterations",
    "atpg.fault_tests",
)


def layer_metrics(
    tracer: Tracer, wall: float, result: Any, workload: wl.Workload
) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (units follow the suffix)."""
    s, calls, counts = tracer.seconds, tracer.calls, tracer.counts
    metrics = {
        "analysis_static.lint_s": s["analysis_static.lint"],
        "analysis_static.learn_calls": calls["analysis_static.learn"],
        "analysis_static.learn_s": s["analysis_static.learn"],
        "analysis_static.prove_s": s["analysis_static.prove"],
        "analysis_static.proven": counts["analysis_static.proven"],
        "logic.compile_s": s["logic.compile"],
        "faults.universe_s": s["faults.universe"],
        "atpg.patterns_s": s["atpg.patterns"],
        "atpg.faultsim_s": s["atpg.faultsim"],
        "atpg.faultsim_calls": calls["atpg.faultsim"],
        "atpg.fault_tests": counts["atpg.fault_tests"],
        "atpg.search_s": s["atpg.search"],
        "atpg.attempted": 0,
        "atpg.useful_ratio": 0.0,
        "atpg.backtracks": 0,
        "atpg.decisions": 0,
        "atpg.implications": 0,
        "atpg.concat_s": s["atpg.concat"],
        "atpg.compaction_s": s["atpg.compaction"],
        "atpg.detection_indices": counts["atpg.detection_indices"],
        "campaign.self_s": wall - tracer.top_level_s,
        "campaign.worker_busy_s": 0.0,
        "campaign.parallel_efficiency": 0.0,
        "spice.newton_calls": calls["spice.newton"],
        "spice.newton_iterations": counts["spice.newton_iterations"],
        "spice.newton_s": s["spice.newton"],
        "spice.transient_s": s["spice.transient"],
        "experiments.measure_s": (
            s["experiments.measure"] / calls["experiments.measure"]
            if calls["experiments.measure"]
            else 0.0
        ),
    }
    if workload.is_campaign:
        atpg = result.atpg_phase
        busy = result.pattern_phase.runtime + atpg.runtime
        workers = wl.WORKERS if workload.kind == "sharded" else 1
        metrics.update(
            {
                "atpg.attempted": atpg.attempted,
                "atpg.useful_ratio": (
                    len(atpg.testable) / atpg.attempted if atpg.attempted else 0.0
                ),
                "atpg.backtracks": atpg.backtracks,
                "atpg.decisions": atpg.decisions,
                "atpg.implications": atpg.implications,
                "campaign.worker_busy_s": busy,
                "campaign.parallel_efficiency": busy / (workers * wall),
            }
        )
    return metrics


def cmd_setup(workload: wl.Workload) -> None:
    wl.setup(workload)
    print("ready", flush=True)


def cmd_reference(workload: wl.Workload, seed: int) -> None:
    from repro.campaign import Campaign

    wl.setup(workload)
    engine = wl.OTHER_ENGINE[workload.engine]
    start = time.perf_counter()
    result = Campaign(wl.campaign_spec(workload, seed, engine=engine)).run()
    seconds = time.perf_counter() - start
    print(json.dumps({
        "engine": engine,
        "seconds": seconds,
        "digest": wl.digest(result, engine=workload.engine),
    }))


def cmd_record() -> None:
    """Print ``expected.json`` for the recorded seed (single-process runs)."""
    digests = {}
    for workload in wl.WORKLOADS.values():
        if workload.kind == "campaign":
            digests[workload.name] = wl.digest(wl.run_once(workload, wl.RECORDED_SEED))
    table1 = wl.run_once(wl.WORKLOADS["table1-spice"], wl.RECORDED_SEED)
    print(json.dumps(
        {"seed": wl.RECORDED_SEED, "digests": digests, "table1_delays": wl.table1_delays(table1)},
        indent=2,
    ))


def cmd_measure(
    workload: wl.Workload, seed: int, seconds: float, trace: bool, reference: str | None
) -> None:
    memory = wl.WorkerMemory()
    if workload.kind != "sharded":
        # One CPU for the repetitions and the calibrations between them: the
        # CPUs of a shared host slow down independently, so a calibration on
        # another CPU would not tell how fast the repetition ran.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    wl.setup(workload)
    if workload.kind == "sharded":
        import repro.campaign.sharded as sharded

        sharded.ProcessPoolExecutor = memory.pool_class()

    expected = wl.load_expected()
    failures: list[str] = []  # repetitions that raised or failed their check
    problems: list[str] = []  # checks that are not about one repetition
    wanted = reference
    if workload.is_campaign and seed == wl.RECORDED_SEED:
        # sharded-rdag must reproduce sa-rdag's result exactly.
        wanted = expected["digests"]["sa-rdag" if workload.kind == "sharded" else workload.name]
        if reference is not None and reference != wanted:
            problems.append(f"reference digest {reference[:16]} != stored {wanted[:16]}")
    if workload.is_campaign and wanted is None:
        raise SystemExit("a non-recorded seed needs --reference")

    samples: list[float] = []
    traced_samples: list[float] = []
    per_layer: list[dict[str, float]] = []
    summary: dict[str, Any] = {}

    def repetition(traced: bool) -> float | None:
        tracer = Tracer()
        try:
            with tracer if traced else contextlib.nullcontext():
                start = time.perf_counter()
                result = wl.run_once(workload, seed)
                wall = time.perf_counter() - start
        except Exception as exc:  # a repetition that raises counts as failed
            failures.append(f"raised {type(exc).__name__}: {exc}")
            return None
        if workload.is_campaign:
            got = wl.digest(result)
            if got != wanted:
                failures.append(f"digest {got[:16]} != expected {wanted[:16]}")
                return None
            summary.update(
                fault_coverage=result.coverage.coverage,
                test_count=result.compaction.size,
            )
        else:
            if not wl.delays_match(wl.table1_delays(result), expected["table1_delays"]):
                failures.append("Table-1 delays differ from the stored values")
                return None
        summary["work_items"] = wl.work_items(workload, result)
        if traced:
            per_layer.append(layer_metrics(tracer, wall, result, workload))
        return wall

    repetition(traced=False)  # warm-up: fills import-time and gate-table caches
    attempted = 1
    rss_kb = worker_rss_kb = 0
    untraced: list[tuple[int, float]] = []  # (repetition, seconds) for calibrate.adjust
    calibrations = [calibrate.measure()]
    start = time.perf_counter()
    while True:
        traced = trace and attempted % 2 == 0
        wall = repetition(traced)
        calibrations.append(calibrate.measure())
        attempted += 1
        if attempted == 2:
            # Peak memory after a fixed amount of work (warm-up plus one
            # repetition): every campaign leaves its circuit and ATPG context
            # in structural.engine._CONTEXTS (the context holds its own weak
            # key), so a later peak would grow with the repetition count,
            # which depends on speed.
            rss_kb, worker_rss_kb = wl.peak_rss_kb(), memory.peak_kb
        if wall is not None:
            (traced_samples if traced else samples).append(wall)
            if not traced:
                untraced.append((attempted - 1, wall))
        done = samples + traced_samples
        estimate = statistics.median(done) if done else 0.0
        # With --trace 1, stop only after at least one traced repetition.
        if time.perf_counter() - start + estimate > seconds and (not trace or attempted > 2):
            break

    out: dict[str, Any] = {
        "samples": samples,
        "adjusted": calibrate.adjust(untraced, calibrations),
        "calibrations": calibrations,
        "attempted": attempted,
        "failures": failures,
        "problems": problems,
        "peak_rss_kb": rss_kb,
        "worker_rss_kb": worker_rss_kb,
        **summary,
    }
    if trace:
        layers: dict[str, float] = {}
        for metric in per_layer[0] if per_layer else ():
            values = [rep[metric] for rep in per_layer]
            if metric.endswith(("_s", "_ratio", "_efficiency")):
                layers[metric] = statistics.median(values)
            else:
                layers[metric] = values[0]
                if len(set(values)) > 1 and metric in EXACT_COUNTERS:
                    problems.append(f"exact counter {metric} varied: {values}")
        out.update(layers=layers, traced_samples=traced_samples)
    print(json.dumps(out))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "reference", "measure", "record"))
    parser.add_argument("workload", nargs="?", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=wl.RECORDED_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference")
    args = parser.parse_args()
    if args.mode == "record":
        return cmd_record()
    if args.workload is None:
        parser.error(f"{args.mode} needs a workload")
    workload = wl.WORKLOADS[args.workload]
    if args.mode == "setup":
        cmd_setup(workload)
    elif args.mode == "reference":
        cmd_reference(workload, args.seed)
    else:
        cmd_measure(workload, args.seed, args.seconds, bool(args.trace), args.reference)


if __name__ == "__main__":
    sys.exit(main())
