"""Chaos-recovery overhead benchmark: fault tolerance must stay cheap.

Three wall-clock measurements of the same sharded campaign:

* **clean** -- no injections, retry policy armed but idle (the production
  configuration; its delta vs. a policy-free run is the cost of the hooks);
* **chaos** -- a worker crash on shard 0 plus a torn checkpoint record,
  absorbed by one retry (the recovery path exercised end to end);
* **resume** -- chaos lifted, restarting from the damaged checkpoint
  directory: the torn record is quarantined, the rest load from disk.

All three results must be bit-identical (the robustness invariant), and
with ``REPRO_BENCH_CHAOS_MAX`` > 0 the chaos run must finish within that
multiple of the clean run -- the acceptance ceiling for what one absorbed
crash may cost.  CI runs record-only (``0``): the timing trajectory lands
in ``BENCH_faultsim.json`` without flaking on noisy runners.

Workload knobs: ``REPRO_BENCH_CHAOS_CIRCUIT`` (default ``mult:3``),
``REPRO_BENCH_CHAOS_PATTERNS``, ``REPRO_BENCH_CHAOS_SHARDS``.
"""

from __future__ import annotations

import os
import time

from repro.campaign import CampaignSpec, InlineExecutor, ShardedCampaign
from repro.service import Injection, InjectionPlan, install

from _report import record_faultsim, report

CIRCUIT = os.environ.get("REPRO_BENCH_CHAOS_CIRCUIT", "mult:3")
PATTERNS = int(os.environ.get("REPRO_BENCH_CHAOS_PATTERNS", "32"))
SHARDS = int(os.environ.get("REPRO_BENCH_CHAOS_SHARDS", "4"))
#: Ceiling on chaos/clean wall-time ratio; 0 records without asserting.
CHAOS_MAX = float(os.environ.get("REPRO_BENCH_CHAOS_MAX", "3.0"))


def _spec() -> CampaignSpec:
    return CampaignSpec(
        model="stuck-at",
        circuit=CIRCUIT,
        pattern_source="random",
        pattern_count=PATTERNS,
        seed=5,
        engine="packed",
        shards=SHARDS,
        max_retries=1,
        retry_backoff=0.0,
    )


def _timed_run(spec, checkpoint_dir=None):
    campaign = ShardedCampaign(
        spec, pool=InlineExecutor(), checkpoint_dir=checkpoint_dir
    )
    start = time.perf_counter()
    result = campaign.run()
    return result, time.perf_counter() - start, campaign


def test_absorbed_crash_overhead_and_resume(tmp_path):
    spec = _spec()
    clean, clean_seconds, _ = _timed_run(spec)
    payload = clean.as_dict(include_runtime=False)

    ckpt = tmp_path / "ckpt"
    plan = InjectionPlan(
        injections=(
            Injection("worker.round1", "crash", shard=0),
            Injection("checkpoint.write", "torn", call=1),
        ),
        seed=5,
        name="bench-chaos",
    )
    with install(plan) as injector:
        chaos, chaos_seconds, campaign = _timed_run(spec, checkpoint_dir=ckpt)
    assert injector.summary()["fired"] == 2
    assert campaign.fault_tolerance["retries"] == 1
    assert chaos.as_dict(include_runtime=False) == payload

    resumed, resume_seconds, campaign = _timed_run(spec, checkpoint_dir=ckpt)
    assert resumed.as_dict(include_runtime=False) == payload
    summary = campaign.checkpoint_summary
    assert summary["quarantined"] >= 1, "the torn record must be quarantined"
    assert summary["round1_loaded"] + summary["round2_loaded"] > 0

    overhead = chaos_seconds / clean_seconds if clean_seconds > 0 else float("inf")
    for phase, seconds in (
        ("chaos-clean", clean_seconds),
        ("chaos-absorbed-crash", chaos_seconds),
        ("chaos-resume", resume_seconds),
    ):
        record_faultsim(
            circuit=clean.circuit_name,
            family=phase,
            engine=spec.engine,
            model=spec.model,
            num_faults=len(clean.faults),
            num_tests=clean.merged_report.num_tests,
            seconds=seconds,
        )
    report([
        f"chaos-recovery on {CIRCUIT} ({SHARDS} shards, {PATTERNS} patterns):",
        f"  clean  {clean_seconds * 1e3:8.1f} ms",
        f"  chaos  {chaos_seconds * 1e3:8.1f} ms "
        f"({overhead:.2f}x, ceiling {CHAOS_MAX or 'record-only'})",
        f"  resume {resume_seconds * 1e3:8.1f} ms "
        f"({summary['round1_loaded'] + summary['round2_loaded']} shard records "
        f"loaded, {summary['quarantined']} quarantined)",
    ])
    if CHAOS_MAX > 0:
        assert overhead <= CHAOS_MAX, (
            f"absorbed crash cost {overhead:.2f}x clean (ceiling {CHAOS_MAX}x)"
        )
