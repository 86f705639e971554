"""Seeded chaos-matrix harness: prove the fault-handling invariant end to end.

The campaign service stack promises that under injected infrastructure
failures every campaign either

* **completes bit-identically** to its fault-free run (compared through
  ``as_dict(include_runtime=False)`` JSON equality, with the ``degraded``
  provenance block -- which only a faulted run can carry -- set aside), or
* **fails with a structured error** carrying a taxonomy category
  (``crash`` / ``timeout`` / ``corruption`` / ``degraded``) -- never a raw
  traceback, never a silently wrong result.

This module turns that promise into an executable check.  :func:`run_matrix`
takes the standard crash/hang/corrupt x checkpoint/cache/pool plans from
:func:`~repro.service.faultinject.seeded_matrix`, runs each against a real
sharded campaign (plus a result-cache round trip and a checkpoint-resume
pass), and verifies the observed outcome against the :data:`EXPECTED` table.
Any deviation -- wrong bits, wrong category, an injection that never fired,
a raw exception escaping the campaign API -- is a violation, and the CLI
(``python -m repro.service.chaos``) exits nonzero.  CI runs exactly this as
its chaos-smoke job.

Scenario anatomy (everything runs on :class:`InlineExecutor` wrapped in a
:class:`~repro.service.faultinject.ChaosExecutor`, so the matrix is fast
and fully deterministic):

1. one fault-free single-process baseline (shared by all scenarios);
2. the chaos run: plan installed, campaign executed with checkpointing;
3. a cache round trip under the still-active plan (put, get, and -- when
   the entry was torn -- a second put/get proving recompute-and-overwrite);
4. a recovery run with chaos lifted, resuming from whatever checkpoint
   state the faulted run left behind (quarantined records included).
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Optional

from ..campaign.errors import CampaignError
from ..campaign.runner import Campaign, CampaignSpec
from ..campaign.sharded import InlineExecutor, ShardedCampaign
from .cache import ResultCache
from .faultinject import ChaosExecutor, InjectionPlan, install, seeded_matrix

#: Spec knobs per scenario name; everything else uses ``DEFAULT_POLICY``.
#: ``corrupt-x-pool`` is the designated *failure* scenario: no retry budget
#: and no degradation, so the injected submit-time I/O errors must surface
#: as a structured ``ShardExecutionError`` instead of being absorbed.
DEFAULT_POLICY: dict[str, Any] = {
    "max_retries": 2,
    "shard_timeout": 0.75,
    "retry_backoff": 0.01,
    "allow_degraded": True,
}
POLICIES: dict[str, dict[str, Any]] = {
    "corrupt-x-pool": {
        "max_retries": 0,
        "shard_timeout": 0.75,
        "retry_backoff": 0.0,
        "allow_degraded": False,
    },
    # Retry budget of 1 against two injected crashes: the budget is spent
    # while the fault persists, forcing the engine-degradation rung (which
    # grants a fresh budget) -- the scenario the provenance check targets.
    "crash-x-engine": {
        "max_retries": 1,
        "shard_timeout": 0.75,
        "retry_backoff": 0.0,
        "allow_degraded": True,
    },
}

#: What each scenario of the standard matrix must produce.  ``outcome`` is
#: ``"ok"`` (completes bit-identically) or ``"error"`` (fails with the given
#: structured category); ``degraded`` marks scenarios whose success must
#: carry engine-degradation provenance.
EXPECTED: dict[str, dict[str, Any]] = {
    "crash-x-checkpoint": {"outcome": "ok"},
    "crash-x-cache": {"outcome": "ok"},
    "crash-x-pool": {"outcome": "ok"},
    "hang-x-checkpoint": {"outcome": "ok"},
    "hang-x-cache": {"outcome": "ok"},
    "hang-x-pool": {"outcome": "ok"},
    "corrupt-x-checkpoint": {"outcome": "ok"},
    "corrupt-x-cache": {"outcome": "ok"},
    "corrupt-x-pool": {"outcome": "error", "category": "crash"},
    "crash-x-engine": {"outcome": "ok", "degraded": True},
}


def canonical_result(result) -> str:
    """The bit-identity oracle: runtime-free JSON, degradation set aside.

    The ``degraded`` block is operational provenance (which shards fell
    back to which engine), not a result payload -- the invariant is that
    the *payload* matches the fault-free run exactly.
    """
    payload = result.as_dict(include_runtime=False)
    payload.pop("degraded", None)
    return json.dumps(payload, sort_keys=True)


def base_spec(
    circuit: str = "c17",
    *,
    shards: int = 2,
    pattern_count: int = 8,
) -> CampaignSpec:
    """The campaign every scenario runs (policy knobs applied per scenario).

    ``drop_detected=False`` keeps the round-2 shard count fixed at
    ``shards`` regardless of round-1 coverage, so the matrix's call-indexed
    ``pool.submit`` injections always land on the submission they name.
    """
    return CampaignSpec(
        model="stuck-at",
        circuit=circuit,
        pattern_source="random",
        pattern_count=pattern_count,
        seed=3,
        engine="packed",
        shards=shards,
        drop_detected=False,
    )


@dataclass
class ScenarioResult:
    """One scenario's observed behaviour plus its verification verdict."""

    name: str
    outcome: str = "ok"                 # "ok" | "error" | "unexpected"
    category: Optional[str] = None      # structured error category, if any
    bit_identical: Optional[bool] = None
    degraded: bool = False
    fired: int = 0
    fault_tolerance: Optional[dict] = None
    checkpoint: Optional[dict] = None
    cache_stats: Optional[dict] = None
    recovery: Optional[dict] = None     # the chaos-lifted resume pass
    violations: list[str] = field(default_factory=list, init=False)

    @property
    def passed(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "outcome": self.outcome,
            "category": self.category,
            "bit_identical": self.bit_identical,
            "degraded": self.degraded,
            "fired": self.fired,
            "fault_tolerance": self.fault_tolerance,
            "checkpoint": self.checkpoint,
            "cache_stats": self.cache_stats,
            "recovery": self.recovery,
            "violations": list(self.violations),
            "passed": self.passed,
        }


def _cache_round_trip(
    spec: CampaignSpec, result, baseline: str, workdir: Path, out: ScenarioResult
) -> None:
    """Store/load the result through a ResultCache under the active plan.

    A torn/corrupt entry must come back as a quarantined miss, after which
    a second store (the "recompute") must hit and match the baseline.
    """
    cache = ResultCache(workdir / "cache")
    key = cache.key_for(None, spec)
    cache.put(key, result)
    cached = cache.get(key)
    if cached is None:
        # The entry was damaged by the plan; prove recompute-and-overwrite.
        if cache.stats.quarantined == 0 and cache.stats.io_errors == 0:
            out.violations.append("cache miss without quarantine or I/O error")
        cache.put(key, result)
        cached = cache.get(key)
    if cached is None:
        out.violations.append("cache entry unreadable after rewrite")
    elif canonical_result(cached) != baseline:
        out.violations.append("cached result diverges from baseline")
    out.cache_stats = cache.stats.as_dict()


def run_scenario(
    plan: InjectionPlan,
    spec: CampaignSpec,
    baseline: str,
    workdir: Path,
) -> ScenarioResult:
    """Run one chaos scenario end to end and verify it against EXPECTED."""
    out = ScenarioResult(name=plan.name)
    expected = EXPECTED.get(plan.name, {"outcome": "ok"})
    ckpt = workdir / plan.name / "ckpt"
    result = None

    with install(plan) as injector:
        campaign = ShardedCampaign(
            spec,
            pool=ChaosExecutor(InlineExecutor(), injector),
            checkpoint_dir=ckpt,
        )
        try:
            result = campaign.run()
        except CampaignError as exc:
            out.outcome = "error"
            out.category = str(getattr(exc, "category", "error"))
        except Exception as exc:  # raw escape = broken error taxonomy
            out.outcome = "unexpected"
            out.category = type(exc).__name__
            out.violations.append(f"raw {type(exc).__name__} escaped the campaign API")
        out.fault_tolerance = campaign.fault_tolerance
        out.checkpoint = campaign.checkpoint_summary

        if result is not None:
            out.bit_identical = canonical_result(result) == baseline
            out.degraded = bool(getattr(result, "degraded", None))
            _cache_round_trip(spec, result, baseline, workdir / plan.name, out)
        out.fired = injector.summary()["fired"]

    # Verify the observed outcome against the contract.
    if out.fired == 0:
        out.violations.append("no injection fired; the scenario tested nothing")
    if out.outcome != expected["outcome"] and out.outcome != "unexpected":
        out.violations.append(
            f"expected outcome {expected['outcome']!r}, observed {out.outcome!r}"
        )
    if expected["outcome"] == "ok" and result is not None and not out.bit_identical:
        out.violations.append("completed run is not bit-identical to baseline")
    if expected.get("category") and out.category != expected["category"]:
        out.violations.append(
            f"expected error category {expected['category']!r}, got {out.category!r}"
        )
    if expected.get("degraded") and not out.degraded:
        out.violations.append("expected degraded-engine provenance on the result")

    # Recovery pass: chaos lifted, resuming from the (possibly damaged)
    # checkpoint state the faulted run left behind.  Must always complete
    # bit-identically -- this is what "no silent corruption" means for the
    # records the plan tore or scribbled over.
    try:
        recovered = ShardedCampaign(
            spec, pool=InlineExecutor(), checkpoint_dir=ckpt
        ).run()
    except Exception as exc:
        out.recovery = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        out.violations.append("recovery run failed after chaos was lifted")
    else:
        identical = canonical_result(recovered) == baseline
        out.recovery = {"ok": identical}
        if not identical:
            out.violations.append("recovery run is not bit-identical to baseline")
    return out


def run_matrix(
    seed: int = 0,
    *,
    circuit: str = "c17",
    shards: int = 2,
    pattern_count: int = 8,
    only: Optional[str] = None,
) -> dict[str, Any]:
    """Run the seeded chaos matrix; returns the machine-readable report."""
    plans = seeded_matrix(seed)
    if only is not None:
        plans = [p for p in plans if p.name == only]
        if not plans:
            raise ValueError(f"no matrix scenario named {only!r}")

    spec = base_spec(circuit, shards=shards, pattern_count=pattern_count)
    baseline = canonical_result(Campaign(spec).run())

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        root = Path(tmp)
        scenarios = []
        for plan in plans:
            policy = POLICIES.get(plan.name, DEFAULT_POLICY)
            scenarios.append(
                run_scenario(plan, replace(spec, **policy), baseline, root)
            )

    violations = sum(len(s.violations) for s in scenarios)
    return {
        "schema": "repro/chaos-report/1",
        "seed": seed,
        "circuit": circuit,
        "shards": shards,
        "pattern_count": pattern_count,
        "scenarios": [s.as_dict() for s in scenarios],
        "violations": violations,
        "passed": violations == 0,
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.chaos",
        description="Run the seeded fault-injection matrix against the "
        "campaign service stack and verify the bit-identity-or-structured-"
        "error invariant.",
    )
    parser.add_argument("--seed", type=int, default=0, help="matrix seed")
    parser.add_argument("--circuit", default="c17", help="circuit reference")
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--patterns", type=int, default=8,
                        help="random-pattern count of the campaign")
    parser.add_argument("--only", default=None, metavar="NAME",
                        help="run a single named scenario")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the JSON report here")
    args = parser.parse_args(argv)

    try:
        report = run_matrix(
            args.seed,
            circuit=args.circuit,
            shards=args.shards,
            pattern_count=args.patterns,
            only=args.only,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for scenario in report["scenarios"]:
        status = "ok" if scenario["passed"] else "FAIL"
        extra = f" [{scenario['category']}]" if scenario["category"] else ""
        extra += " [degraded]" if scenario["degraded"] else ""
        print(f"{status:4s} {scenario['name']:22s} outcome={scenario['outcome']}"
              f"{extra} fired={scenario['fired']}")
        for violation in scenario["violations"]:
            print(f"     violation: {violation}")

    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        print(f"report: {out}")

    print(f"{len(report['scenarios'])} scenarios, "
          f"{report['violations']} violations")
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
