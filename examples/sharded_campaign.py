"""CLI for the sharded multi-process campaign executor and campaign suites.

Single campaign, fault universe sharded across worker processes::

    PYTHONPATH=src python examples/sharded_campaign.py \\
        --circuit rdag:300,4 --model stuck-at --patterns 64 --shards 4

Battery mode -- the circuits x models cross product over one shared pool,
with a consolidated JSON/CSV report::

    PYTHONPATH=src python examples/sharded_campaign.py \\
        --suite --circuit rca:8 mult:4 cla:8 --model stuck-at transition \\
        --patterns 32 --report-dir campaign_reports

Sharded and unsharded runs are bit-identical; pass ``--verify`` to prove it
on the spot (the single-process pipeline is re-run and the reports are
compared field by field).

Crash-safe runs: ``--checkpoint-dir DIR`` persists each completed shard so a
killed campaign resumes from where it stopped (``--no-resume`` discards a
prior checkpoint instead).  Kill-and-resume demo, proven bit-identical by
the same ``--verify`` path::

    PYTHONPATH=src python examples/sharded_campaign.py \\
        --circuit mult:4 --shards 8 --checkpoint-dir ckpt &
    kill -9 $!          # mid-run
    PYTHONPATH=src python examples/sharded_campaign.py \\
        --circuit mult:4 --shards 8 --checkpoint-dir ckpt --verify

``--cache-dir DIR`` serves repeated identical runs (single or suite mode)
from the content-addressed result cache without re-simulating.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.atpg.fault_sim import ENGINES
from repro.campaign import (
    Campaign,
    CampaignError,
    CampaignSpec,
    CampaignSuite,
    ShardedCampaign,
    registered_models,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Run fault-sharded test campaigns across worker processes."
    )
    parser.add_argument(
        "--circuit", nargs="+", default=["rdag:300,4"],
        help="circuit reference(s): registered name, family:args or .bench path",
    )
    parser.add_argument(
        "--model", nargs="+", default=["stuck-at"], choices=registered_models(),
        help="fault model(s); multiple values imply --suite",
    )
    parser.add_argument("--engine", default="packed", choices=ENGINES)
    parser.add_argument("--patterns", type=int, default=64,
                        help="random pattern-phase size (0 disables the phase)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--no-atpg", action="store_true",
                        help="skip the deterministic ATPG top-up phase")
    parser.add_argument("--collapse", action="store_true",
                        help="structurally collapse the fault universe")
    parser.add_argument("--shards", type=int, default=4,
                        help="fault-universe partitions (= max worker processes)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes (default min(shards, cpus); 0 = inline)")
    parser.add_argument("--suite", action="store_true",
                        help="run the circuits x models battery over a shared pool")
    parser.add_argument("--verify", action="store_true",
                        help="re-run single-process and assert bit-identical results")
    parser.add_argument("--json", metavar="PATH",
                        help="write the single-campaign report JSON here")
    parser.add_argument("--report-dir", metavar="DIR",
                        help="suite mode: write suite_report.json/.csv here")
    parser.add_argument("--checkpoint-dir", metavar="DIR",
                        help="persist per-shard checkpoints here; a killed run resumes")
    parser.add_argument("--resume", action=argparse.BooleanOptionalAction, default=True,
                        help="reuse checkpoints from --checkpoint-dir (--no-resume "
                             "discards them and starts fresh)")
    parser.add_argument("--cache-dir", metavar="DIR",
                        help="serve repeated identical runs from this result cache")
    parser.add_argument("--max-retries", type=int, default=0,
                        help="extra attempts for shards that crash or time out")
    parser.add_argument("--shard-timeout", type=float, default=None,
                        help="per-shard deadline in seconds (overdue shards retry)")
    parser.add_argument("--no-degrade", action="store_true",
                        help="fail instead of falling back to a slower engine "
                             "once a shard's retry budget is spent")
    parser.add_argument("--fault-plan", metavar="PATH",
                        help="fault-injection plan JSON (testing only): inject "
                             "the plan into this run to exercise the retry/"
                             "degrade/checkpoint recovery paths")
    return parser


def spec_from_args(args: argparse.Namespace, circuit: str, model: str) -> CampaignSpec:
    return CampaignSpec(
        model=model,
        circuit=circuit,
        pattern_source="random" if args.patterns else "none",
        pattern_count=args.patterns,
        seed=args.seed,
        run_atpg=not args.no_atpg,
        collapse=args.collapse,
        engine=args.engine,
        shards=args.shards,
        max_retries=args.max_retries,
        shard_timeout=args.shard_timeout,
        allow_degraded=not args.no_degrade,
    )


def run_single(args: argparse.Namespace) -> int:
    spec = spec_from_args(args, args.circuit[0], args.model[0])
    if args.fault_plan:
        import os

        from repro.service.faultinject import PLAN_ENV, InjectionPlan

        InjectionPlan.load(args.fault_plan)  # fail fast on a malformed plan
        os.environ[PLAN_ENV] = os.path.abspath(args.fault_plan)
    cache = None
    if args.cache_dir:
        from repro.service import ResultCache

        cache = ResultCache(args.cache_dir)
    start = time.perf_counter()
    cache_key, cached = cache.fetch(None, spec) if cache else (None, None)
    if cached is not None:
        result = cached
        wall = time.perf_counter() - start
        print(result.describe())
        print(f"  served from cache in {wall * 1e3:.1f} ms ({args.cache_dir})")
    else:
        sharded = ShardedCampaign(
            spec,
            max_workers=args.workers,
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
        )
        result = sharded.run()
        wall = time.perf_counter() - start
        if cache:
            cache.put(cache_key, result)
        print(result.describe())
        throughput = len(result.faults) * result.merged_report.num_tests / wall
        print(f"  sharded wall time: {wall * 1e3:.1f} ms over {spec.shards} shard(s) "
              f"({throughput / 1e3:.1f} Kfault-tests/s)")
        if sharded.checkpoint_summary:
            summary = sharded.checkpoint_summary
            loaded = summary["round1_loaded"] + summary["round2_loaded"]
            stored = summary["round1_stored"] + summary["round2_stored"]
            print(f"  checkpoint: resumed {loaded} shard record(s), "
                  f"computed {stored} ({args.checkpoint_dir})")
        tolerance = sharded.fault_tolerance
        if tolerance and any(tolerance.values()):
            print("  fault tolerance: "
                  + ", ".join(f"{k}={v}" for k, v in tolerance.items() if v))
        if result.degraded:
            print(f"  degraded shards: {result.degraded['fallbacks']} "
                  f"(primary engine {result.degraded['engine']})")
    if args.verify:
        base = Campaign(spec).run().as_dict(include_runtime=False)
        mine = result.as_dict(include_runtime=False)
        mine.pop("degraded", None)  # provenance, not payload
        same = base == mine
        print(f"  verify vs single-process: {'bit-identical' if same else 'MISMATCH'}")
        if not same:
            return 1
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(result.to_json(indent=2) + "\n")
        print(f"  report written to {args.json}")
    return 0


def run_suite(args: argparse.Namespace) -> int:
    suite = CampaignSuite.cross(
        args.circuit,
        models=tuple(args.model),
        engines=(args.engine,),
        pattern_source="random" if args.patterns else "none",
        pattern_count=args.patterns,
        seed=args.seed,
        run_atpg=not args.no_atpg,
        collapse=args.collapse,
        shards=args.shards,
        max_workers=args.workers,
        cache_dir=args.cache_dir,
    )
    result = suite.run()
    print(result.describe())
    if args.cache_dir:
        print(f"  cache hits: {len(result.cache_hits)}/{len(result.entries)} "
              f"entries ({args.cache_dir})")
    if args.verify:
        mismatches = [
            entry.spec.circuit
            for entry in result.entries
            if entry.ok
            and Campaign(entry.spec).run().as_dict(include_runtime=False)
            != entry.result.as_dict(include_runtime=False)
        ]
        print(
            "  verify vs single-process: "
            + ("bit-identical" if not mismatches else f"MISMATCH on {mismatches}")
        )
        if mismatches:
            return 1
    if args.report_dir:
        json_path, csv_path = result.write_report(args.report_dir)
        print(f"  consolidated report: {json_path} + {csv_path}")
    else:
        print(json.dumps(result.as_dict()["rows"][:3], indent=2))
    return 0 if not result.failed else 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.suite or len(args.circuit) > 1 or len(args.model) > 1:
            return run_suite(args)
        return run_single(args)
    except CampaignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
