"""End-to-end benchmark of the OBD/ATPG pipeline and the SPICE path.

Run from the repository root::

    python3 perfbench/run.py --workload sa-rdag --seed 0 --seconds 35 --trace 0

The workload runs in its own process (``child.py``), with ``src`` on
``PYTHONPATH``: one untimed warm-up repetition, then repetitions until
``--seconds`` are used.  Every repetition's output is checked; a repetition
that raises or fails its check counts as failed.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s`` -- median seconds per repetition, each adjusted to the speed of
  a reference host by the calibration loop of ``calibrate.py`` timed
  between repetitions (the raw median is printed beside it);
* ``setup_s`` -- median, over several fresh interpreters, of the seconds from
  process start until the workload's layers are imported and its circuit is
  built (or its technology loaded), adjusted the same way;
* ``faults_per_s`` -- faults of the collapsed universe per second, or for
  ``table1-spice`` Table-1 entries (one OBD fault characterized each);
* ``peak_rss_mb`` -- peak RSS of the workload process after the warm-up and
  the first timed repetition, plus the summed peak RSS of its worker
  processes for ``sharded-rdag``.

``fault_coverage``, ``test_count``, ``fail_rate`` and ``entries_per_s`` are
printed on the report lines; the first two are exact results that the digest
check already pins.

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of ``tracer.py`` plus ``trace.overhead_s`` (traced minus
untraced median ``wall_s``).

Checks.  On the recorded seed each campaign result must match the sha256 of
``as_dict(include_runtime=False)`` stored in ``expected.json``; ``sharded-rdag``
must match the ``sa-rdag`` digest.  On any other seed each result must match
a single-process run of the same spec on the other word backend (packed and
numpy), computed once before the timed repetitions; ``sharded-rdag`` is
always checked that way, which also checks sharded against single-process.
``table1-spice`` has no random inputs: its delays must match the stored
ones within 1e-9 relative on every seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import workloads as wl  # noqa: E402

#: Fresh interpreters started to measure ``setup_s``.
SETUP_LAUNCHES = 5
#: Seconds a child process may take beyond the measuring window.
CHILD_GRACE = 120

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "faults_per_s": "1/s", "peak_rss_mb": "MB"}


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_efficiency")):
        return "ratio"
    return "count"


def child_command(*args: str) -> list[str]:
    return [sys.executable, str(HERE / "child.py"), *args]


def child_env() -> dict[str, str]:
    path = [str(ROOT / "src")]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def run_child(*args: str, timeout: float) -> dict:
    """Run a child to completion and parse the JSON on its last output line."""
    done = subprocess.run(
        child_command(*args), env=child_env(), stdout=subprocess.PIPE, text=True,
        timeout=timeout, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"child {' '.join(args)} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure_setup(workload: wl.Workload) -> list[float]:
    """Seconds from process start to ``ready``, once per fresh interpreter,
    adjusted to the reference host by calibrations between the launches."""
    times = []
    calibrations = [calibrate.measure()]
    for launch in range(1, SETUP_LAUNCHES + 1):
        start = time.perf_counter()
        with subprocess.Popen(
            child_command("setup", workload.name), env=child_env(),
            stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            seconds = time.perf_counter() - start
            proc.stdout.read()
            proc.wait(timeout=CHILD_GRACE)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup of {workload.name} failed")
        calibrations.append(calibrate.measure())
        times.append((launch, seconds))
    return calibrate.adjust(times, calibrations)


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, and its value."""
    ordered = sorted(samples)
    rank = len(ordered) - 10
    if rank < 1:
        return None
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def print_header(args: argparse.Namespace) -> None:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    print(
        f"host: nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy_version} machine={platform.machine()}"
    )
    print("workloads (closed loop, one client, repetitions back to back):")
    for w in wl.WORKLOADS.values():
        print(f"  {w.name:<13} {w.describe()}")
        print(f"  {'':<13} why: {w.why}")
    print(
        f"run: workload={args.workload} seed={args.seed} (recorded {wl.RECORDED_SEED}; "
        f"rdag circuit seed {wl.CIRCUIT_SEED}) seconds={args.seconds} trace={args.trace}"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(wl.WORKLOADS))
    parser.add_argument(
        "--seed", type=int, default=wl.RECORDED_SEED,
        help="pattern seed of the campaign workloads (table1-spice has no random input)",
    )
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro").is_dir() or not wl.EXPECTED_PATH.is_file():
        print(f"error: no repro source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    print_header(args)

    setup_times = [] if args.trace else measure_setup(workload)

    reference = None
    if workload.is_campaign and (workload.kind == "sharded" or args.seed != wl.RECORDED_SEED):
        ref = run_child("reference", workload.name, "--seed", str(args.seed), timeout=CHILD_GRACE)
        reference = ref["digest"]
        print(
            f"check: against a single-process {ref['engine']} run "
            f"({ref['seconds']:.2f} s, untimed), digest {reference[:16]}"
        )
    elif workload.is_campaign:
        print("check: against the digest stored for the recorded seed")
    else:
        print("check: Table-1 delays against the stored values (1e-9 relative)")

    measure_args = [
        "measure", workload.name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if reference is not None:
        measure_args += ["--reference", reference]
    out = run_child(*measure_args, timeout=args.seconds + CHILD_GRACE)

    samples = out["samples"]
    failed = len(out["failures"])
    for failure in out["failures"]:
        print(f"FAILED: {failure}")
    for problem in out["problems"]:
        print(f"FAILED: {problem}")
    if not samples:
        print("error: no repetition succeeded", file=sys.stderr)
        return 1

    wall = statistics.median(out["adjusted"])
    items = out["work_items"]
    tail = tail_percentile(out["adjusted"])
    print(
        f"wall_s         = {wall:.4f} s   (median of n={len(samples)}, at reference host speed; "
        + (f"p{tail[0]:.0f} = {tail[1]:.4f} s, 10 samples beyond it)" if tail
           else "too few samples for a tail percentile with 10 beyond it)")
    )
    speeds = [calibrate.REFERENCE_S / c for c in out["calibrations"]]
    print(
        f"raw wall       = {statistics.median(samples):.4f} s   (median as measured; host speed "
        f"{min(speeds):.2f} to {max(speeds):.2f} x reference, median {statistics.median(speeds):.2f})"
    )
    if workload.is_campaign:
        print(f"faults_per_s   = {items / wall:.2f} 1/s ({items} collapsed faults)")
        print(f"fault_coverage = {out['fault_coverage']:.6f} (exact)")
        print(f"test_count     = {out['test_count']} tests (exact)")
    else:
        print(f"entries_per_s  = {items / wall:.3f} 1/s ({items} Table-1 entries)")
    print(f"fail_rate      = {failed}/{out['attempted']} repetitions (incl. the warm-up)")
    peak_rss_mb = (out["peak_rss_kb"] + out["worker_rss_kb"]) / 1024.0
    print(
        f"peak_rss_mb    = {peak_rss_mb:.1f} MB"
        + (f" (workers {out['worker_rss_kb'] / 1024.0:.1f} MB)" if out["worker_rss_kb"] else "")
    )

    if args.trace:
        layers = dict(out["layers"])
        layers["trace.overhead_s"] = (
            statistics.median(out["traced_samples"]) - statistics.median(samples)
        )
        print(f"per-layer metrics (median of {len(out['traced_samples'])} traced repetitions):")
        for name, value in layers.items():
            print(f"  {name:<32} {value:.6g} {unit_of(name)}")
        if workload.kind == "sharded":
            print(
                "  note: work inside worker processes (per-shard learning, search, "
                "simulation) is not counted; that waits for an in-program tracer"
            )
        metrics = {name: {"value": v, "unit": unit_of(name)} for name, v in layers.items()}
    else:
        setup_s = statistics.median(setup_times)
        print(
            f"setup_s        = {setup_s:.4f} s   "
            f"(median of {len(setup_times)} fresh interpreters, at reference host speed)"
        )
        values = {
            "wall_s": wall,
            "setup_s": setup_s,
            "faults_per_s": items / wall,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {
            name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()
        }

    correct = failed == 0 and not out["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": out["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
