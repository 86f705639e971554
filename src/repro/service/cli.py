"""Run the campaign service against a directory of JSON job specs.

Each ``*.json`` file under ``--jobs`` describes one job: either a bare
:class:`~repro.campaign.runner.CampaignSpec` field mapping, or
``{"client": "...", "spec": {...}}`` to attribute it to a client for fair
scheduling.  Example job file::

    {"client": "alice",
     "spec": {"circuit": "mult:4", "model": "stuck-at",
              "pattern_source": "random", "pattern_count": 32, "seed": 7}}

Every job's result report lands in ``--out`` as ``<jobfile>.result.json``
(or ``<jobfile>.error.json`` with the structured error and traceback), plus
a consolidated ``service_report.json`` with per-job statuses and the cache
statistics.  Typical invocation::

    PYTHONPATH=src python -m repro.service.cli \\
        --jobs jobspecs/ --out results/ --workers 4 \\
        --cache-dir .campaign-cache --checkpoint-root .campaign-ckpt

Exit status: 0 when every job succeeded, 1 when any failed, 2 for a
malformed invocation or job file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from ..campaign.errors import CampaignError
from ..campaign.runner import CampaignSpec
from ..ioutil import atomic_write_json
from .faultinject import PLAN_ENV, InjectionPlan
from .jobs import CampaignService, JobStatus


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.cli",
        description="Run campaign jobs from a spec directory over a shared worker pool.",
    )
    parser.add_argument("--jobs", required=True, metavar="DIR",
                        help="directory of *.json job spec files")
    parser.add_argument("--out", required=True, metavar="DIR",
                        help="directory for per-job results and service_report.json")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: CPU count; 0 = inline)")
    parser.add_argument("--cache-dir", metavar="DIR",
                        help="content-addressed result cache directory")
    parser.add_argument("--checkpoint-root", metavar="DIR",
                        help="per-job shard checkpoint root (resumable jobs)")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-job wait timeout in seconds")
    parser.add_argument("--job-timeout", type=float, default=None,
                        help="watchdog deadline per job attempt; overdue jobs "
                        "are requeued (within --max-job-retries) or failed "
                        "with a structured timeout error")
    parser.add_argument("--max-job-retries", type=int, default=0,
                        help="extra attempts for jobs that crash or time out")
    parser.add_argument("--fault-plan", metavar="PATH",
                        help="fault-injection plan JSON (testing only): "
                        f"exported as {PLAN_ENV} so worker processes "
                        "inject the same plan")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-job progress lines")
    return parser


def load_job_file(path: Path) -> tuple[str, CampaignSpec]:
    """Parse one job file into (client, spec); malformed files raise."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CampaignError(f"unreadable job file {path}: {exc}") from None
    if not isinstance(payload, dict):
        raise CampaignError(f"job file {path} must hold a JSON object")
    client = "default"
    spec_fields = payload
    if "spec" in payload:
        client = str(payload.get("client", "default"))
        spec_fields = payload["spec"]
        if not isinstance(spec_fields, dict):
            raise CampaignError(f"job file {path}: 'spec' must be an object")
    try:
        return client, CampaignSpec(**spec_fields)
    except (TypeError, CampaignError) as exc:  # unknown field, or a bad value
        raise CampaignError(f"job file {path}: {exc}") from None


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    jobs_dir = Path(args.jobs)
    job_files = sorted(jobs_dir.glob("*.json"))
    if not job_files:
        print(f"error: no *.json job files under {jobs_dir}", file=sys.stderr)
        return 2

    try:
        parsed = [(path, *load_job_file(path)) for path in job_files]
    except CampaignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.fault_plan:
        # Validate up front (a typo'd plan silently injecting nothing is
        # worse than an error), then hand the path to worker processes.
        try:
            InjectionPlan.load(args.fault_plan)
        except (OSError, ValueError) as exc:
            print(f"error: --fault-plan {args.fault_plan}: {exc}", file=sys.stderr)
            return 2
        os.environ[PLAN_ENV] = str(Path(args.fault_plan).resolve())

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    failures = 0
    with CampaignService(
        max_workers=args.workers,
        cache_dir=args.cache_dir,
        checkpoint_root=args.checkpoint_root,
        job_timeout=args.job_timeout,
        max_job_retries=args.max_job_retries,
        autostart=False,
    ) as service:
        submitted = []
        for path, client, spec in parsed:
            try:
                submitted.append((path, service.submit(spec, client=client)))
            except CampaignError as exc:
                print(f"error: {path.name}: {exc}", file=sys.stderr)
                return 2
        service.start()

        job_rows = []
        for path, job_id in submitted:
            job = service.job(job_id)
            job._event.wait(args.timeout)
            row = job.info()
            row["job_file"] = path.name
            if job.status is JobStatus.DONE:
                report_path = out_dir / f"{path.stem}.result.json"
                atomic_write_json(
                    report_path, job.result.as_dict(), indent=2
                )
                row["report"] = report_path.name
                if not args.quiet:
                    hit = " [cache hit]" if job.cache_hit else ""
                    print(f"{path.name}: done{hit} -> {report_path.name}")
            else:
                failures += 1
                error_path = out_dir / f"{path.stem}.error.json"
                atomic_write_json(
                    error_path,
                    {"status": job.status.value,
                     "error": job.error.as_dict() if job.error else None},
                )
                row["report"] = error_path.name
                if not args.quiet:
                    category = job.error.category if job.error else "error"
                    print(f"{path.name}: {job.status.value} [{category}] "
                          f"({job.error or 'no error detail'})")
            job_rows.append(row)

        report = service.report()
        report["job_rows"] = job_rows
    atomic_write_json(out_dir / "service_report.json", report, indent=2)
    if not args.quiet:
        by_status = report["by_status"]
        cache_line = ""
        if "cache" in report:
            cache_line = (f", cache {report['cache_hits']} hits over "
                          f"{report['cache']['entries']} entries "
                          f"({report['cache']['bytes']} bytes)")
        print(f"service: {report['jobs']} jobs {by_status}{cache_line}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
