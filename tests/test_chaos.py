"""Tests for the fault-injection harness and the hardened failure paths.

Three layers, mirroring the production stack:

* the injection machinery itself (plans, selectors, deterministic file
  mutation, the process-wide install/environment routes);
* the shard-round failure handling (retry backoff schedule, per-shard
  deadlines, engine degradation, pool rebuild, structured
  ``ShardExecutionError`` taxonomy) driven through ``_collect_round`` with
  hand-built futures -- no real campaigns, so the schedule assertions are
  exact;
* artifact hardening (checkpoint record trailer, cache quarantine) and the
  end-to-end seeded chaos matrix, whose invariant -- bit-identical or a
  structured error -- is the acceptance criterion of the robustness work.
"""

from __future__ import annotations

import json
from concurrent.futures import BrokenExecutor, Future

import pytest

from repro.campaign import Campaign, CampaignError, CampaignSpec
from repro.campaign.errors import ShardExecutionError
from repro.campaign.sharded import RetryPolicy, RoundStats, _collect_round
from repro.service import (
    ChaosExecutor,
    FaultInjector,
    InjectedFault,
    Injection,
    InjectionPlan,
    ResultCache,
    install,
    seeded_matrix,
)
from repro.service.chaos import EXPECTED, run_matrix
from repro.service.checkpoint import CHECKPOINT_SCHEMA, _encode_record, _parse_record
from repro.service.faultinject import PLAN_ENV, active_injector


# --------------------------------------------------------------------------- #
# Injection plans and the injector.
# --------------------------------------------------------------------------- #
class TestInjectionPlan:
    def test_rejects_unknown_kind_and_bad_bounds(self):
        with pytest.raises(ValueError, match="unknown injection kind"):
            Injection("worker.round1", "melt")
        with pytest.raises(ValueError, match="times"):
            Injection("worker.round1", "crash", times=0)
        with pytest.raises(ValueError, match="seconds"):
            Injection("worker.round1", "hang", seconds=-1)

    def test_selectors_must_all_match(self):
        inj = Injection("worker.round1", "crash", shard=1, call=2, tag="c17")
        assert inj.matches("worker.round1", 1, 2, "c17")
        assert not inj.matches("worker.round2", 1, 2, "c17")
        assert not inj.matches("worker.round1", 0, 2, "c17")
        assert not inj.matches("worker.round1", 1, 3, "c17")
        assert not inj.matches("worker.round1", 1, 2, "mult:3")

    def test_json_round_trip(self, tmp_path):
        plan = InjectionPlan(
            injections=(
                Injection("cache.write", "torn", call=0),
                Injection("pool.submit", "hang", seconds=0.5, times=3),
            ),
            seed=42,
            name="round-trip",
        )
        path = plan.dump(tmp_path / "plan.json")
        loaded = InjectionPlan.load(path)
        assert loaded == plan

    def test_malformed_plan_raises_value_error(self):
        with pytest.raises(ValueError, match="malformed fault plan"):
            InjectionPlan.from_json("{not json")
        with pytest.raises(ValueError, match="injections"):
            InjectionPlan.from_json('{"injections": 3}')

    def test_seeded_matrix_is_deterministic_and_complete(self):
        a, b = seeded_matrix(9), seeded_matrix(9)
        assert [p.name for p in a] == [p.name for p in b] == sorted(EXPECTED, key=[
            p.name for p in a].index)
        assert [p.seed for p in a] == [p.seed for p in b]
        assert [p.seed for p in seeded_matrix(10)] != [p.seed for p in a]


class TestFaultInjector:
    def test_fires_at_most_times_and_records(self):
        plan = InjectionPlan((Injection("worker.round1", "crash", shard=0, times=2),))
        injector = FaultInjector(plan)
        for _ in range(2):
            with pytest.raises(InjectedFault) as excinfo:
                injector.fire("worker.round1", shard=0)
            assert excinfo.value.category == "crash"
        injector.fire("worker.round1", shard=0)  # budget spent: no-op
        injector.fire("worker.round1", shard=1)  # selector mismatch: no-op
        assert len(injector.fired) == 2
        assert injector.summary() == {
            "fired": 2, "by_site": {"worker.round1:crash": 2},
        }

    def test_io_error_and_broken_pool_raise_native_types(self):
        injector = FaultInjector(InjectionPlan((
            Injection("cache.read", "io_error"),
            Injection("pool.submit", "broken_pool"),
        )))
        with pytest.raises(OSError):
            injector.fire("cache.read")
        with pytest.raises(BrokenExecutor):
            injector.fire("pool.submit")

    def test_call_selector_counts_per_site(self):
        injector = FaultInjector(InjectionPlan((
            Injection("checkpoint.write", "crash", call=1),
        )))
        injector.fire("checkpoint.write")      # call 0: pass
        injector.fire("cache.write")           # different site: own counter
        with pytest.raises(InjectedFault):
            injector.fire("checkpoint.write")  # call 1: fires

    def test_file_mutation_is_seeded_deterministic(self, tmp_path):
        original = bytes(range(256)) * 4
        outcomes = []
        for run in range(2):
            path = tmp_path / f"blob{run}.bin"
            path.write_bytes(original)
            injector = FaultInjector(InjectionPlan(
                (Injection("cache.write", "corrupt"),), seed=77,
            ))
            injector.fire("cache.write", path=path)
            outcomes.append(path.read_bytes())
        assert outcomes[0] == outcomes[1] != original
        torn = tmp_path / "torn.bin"
        torn.write_bytes(original)
        FaultInjector(InjectionPlan(
            (Injection("checkpoint.write", "torn"),), seed=77,
        )).fire("checkpoint.write", path=torn)
        assert len(torn.read_bytes()) < len(original)

    def test_install_scopes_the_injector(self):
        plan = InjectionPlan((Injection("job.run", "crash"),))
        assert active_injector() is None
        with install(plan) as injector:
            assert active_injector() is injector
        assert active_injector() is None

    def test_environment_route_loads_plan_once_per_path(self, tmp_path, monkeypatch):
        path = InjectionPlan(
            (Injection("job.run", "crash", tag="c17"),), name="env",
        ).dump(tmp_path / "plan.json")
        monkeypatch.setenv(PLAN_ENV, str(path))
        injector = active_injector()
        assert injector is not None and injector.plan.name == "env"
        assert active_injector() is injector  # cached, counters preserved
        # An in-process install wins over the environment plan.
        with install(InjectionPlan(name="inner")) as inner:
            assert active_injector() is inner

    def test_environment_route_tolerates_bad_plan(self, tmp_path, monkeypatch):
        path = tmp_path / "broken.json"
        path.write_text("{not a plan")
        monkeypatch.setenv(PLAN_ENV, str(path))
        assert active_injector() is None


class TestChaosExecutor:
    def test_broken_pool_and_io_error_at_submit(self):
        from repro.campaign import InlineExecutor

        injector = FaultInjector(InjectionPlan((
            Injection("pool.submit", "broken_pool", call=0),
            Injection("pool.submit", "io_error", call=1),
        )))
        pool = ChaosExecutor(InlineExecutor(), injector)
        with pytest.raises(BrokenExecutor):
            pool.submit(lambda: 1)
        with pytest.raises(OSError):
            pool.submit(lambda: 1)
        assert pool.submit(lambda: 1).result() == 1  # chaos exhausted

    def test_hang_swallows_the_task(self):
        from repro.campaign import InlineExecutor

        injector = FaultInjector(InjectionPlan((
            Injection("pool.submit", "hang", call=0),
        )))
        pool = ChaosExecutor(InlineExecutor(), injector)
        future = pool.submit(lambda: 1)
        assert not future.done() and pool.hung == [future]
        assert future.cancel()  # the deadline path can always reclaim it


# --------------------------------------------------------------------------- #
# Shard-round failure handling, driven with hand-built futures.
# --------------------------------------------------------------------------- #
def _ok(value) -> Future:
    future: Future = Future()
    future.set_result(value)
    return future


def _err(exc) -> Future:
    future: Future = Future()
    future.set_exception(exc)
    return future


class TestCollectRoundRetries:
    def test_exponential_backoff_schedule(self):
        calls, sleeps = [], []
        def submit(engine=None):
            calls.append(engine)
            return _err(RuntimeError("boom")) if len(calls) < 3 else _ok(("rec",))
        policy = RetryPolicy(max_retries=2, backoff=0.1, sleep=sleeps.append)
        stats = RoundStats()
        out = _collect_round([(0, submit)], None, None, policy=policy, stats=stats)
        assert out == [("rec",)]
        assert sleeps == [pytest.approx(0.1), pytest.approx(0.2)]
        assert stats.retries == 2 and stats.crashes == 2 and not stats.degraded

    def test_budget_exhaustion_raises_structured_error(self):
        policy = RetryPolicy(max_retries=1, backoff=0.0)
        with pytest.raises(ShardExecutionError) as excinfo:
            _collect_round(
                [(3, lambda engine=None: _err(RuntimeError("boom")))],
                None, None, policy=policy,
            )
        err = excinfo.value
        assert err.category == "crash"
        assert err.shard == 3 and err.attempts == 2
        assert isinstance(err, CampaignError)

    def test_degradation_grants_fresh_budget_and_passes_engine(self):
        calls = []
        def submit(engine=None):
            calls.append(engine)
            return _err(RuntimeError("boom")) if engine is None else _ok(("rec",))
        policy = RetryPolicy(max_retries=0, backoff=0.0, degrade_to="serial")
        stats = RoundStats()
        out = _collect_round([(0, submit)], None, None, policy=policy, stats=stats)
        assert out == [("rec",)]
        assert calls == [None, "serial"]
        assert stats.degraded == {0: "serial"}

    def test_failure_after_degradation_reports_degraded_category(self):
        policy = RetryPolicy(max_retries=0, backoff=0.0, degrade_to="serial")
        with pytest.raises(ShardExecutionError) as excinfo:
            _collect_round(
                [(0, lambda engine=None: _err(RuntimeError("boom")))],
                None, None, policy=policy,
            )
        assert excinfo.value.category == "degraded"

    def test_deadline_expiry_cancels_and_retries(self):
        calls = []
        def submit(engine=None):
            calls.append(engine)
            return Future() if len(calls) == 1 else _ok(("rec",))
        policy = RetryPolicy(max_retries=1, timeout=0.05, backoff=0.0)
        stats = RoundStats()
        out = _collect_round([(0, submit)], None, None, policy=policy, stats=stats)
        assert out == [("rec",)]
        assert stats.timeouts == 1 and stats.retries == 1

    def test_campaign_errors_are_never_retried(self):
        attempts = []
        def submit(engine=None):
            attempts.append(1)
            return _err(CampaignError("deterministic failure"))
        policy = RetryPolicy(max_retries=5, backoff=0.0)
        stats = RoundStats()
        with pytest.raises(CampaignError, match="deterministic failure"):
            _collect_round([(0, submit)], None, None, policy=policy, stats=stats)
        assert attempts == [1] and stats.retries == 0

    def test_broken_executor_triggers_rebuild_then_retry(self):
        rebuilt, calls = [], []
        def submit(engine=None):
            calls.append(1)
            if len(calls) == 1:
                raise BrokenExecutor("pool died at submit")
            return _ok(("rec",))
        policy = RetryPolicy(max_retries=1, backoff=0.0)
        stats = RoundStats()
        out = _collect_round(
            [(0, submit)], None, None,
            policy=policy, stats=stats, rebuild=lambda: rebuilt.append(1),
        )
        assert out == [("rec",)]
        assert rebuilt == [1] and stats.rebuilds == 1


# --------------------------------------------------------------------------- #
# Checkpoint record trailer.
# --------------------------------------------------------------------------- #
class TestCheckpointRecordTrailer:
    def test_round_trip(self):
        payload = {"schema": CHECKPOINT_SCHEMA, "round": 1, "data": [1, 2, 3]}
        assert _parse_record(_encode_record(payload)) == payload

    def test_torn_record_rejected(self):
        text = _encode_record({"schema": CHECKPOINT_SCHEMA, "data": list(range(50))})
        for cut in (1, len(text) // 2, len(text) - 2):
            with pytest.raises(ValueError):
                _parse_record(text[:cut])

    def test_flipped_byte_rejected(self):
        text = _encode_record({"schema": CHECKPOINT_SCHEMA, "value": 123456})
        mangled = text.replace("123456", "123457")
        with pytest.raises(ValueError):
            _parse_record(mangled)

    def test_wrong_length_rejected(self):
        text = _encode_record({"a": 1})
        body, trailer, _ = text.split("\n")
        prefix, digest, _length = trailer.split(":")
        with pytest.raises(ValueError):
            _parse_record(f"{body}\n{prefix}:{digest}:9999\n")


# --------------------------------------------------------------------------- #
# Result-cache quarantine.
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def small_campaign():
    spec = CampaignSpec(
        model="stuck-at", circuit="c17", pattern_source="random",
        pattern_count=4, seed=1, engine="packed",
    )
    return spec, Campaign(spec).run()


class TestCacheQuarantine:
    def test_corrupt_pickle_is_quarantined_miss_then_recovers(
        self, tmp_path, small_campaign
    ):
        spec, result = small_campaign
        cache = ResultCache(tmp_path)
        key = cache.key_for(None, spec)
        path = cache.put(key, result)
        path.write_bytes(b"\x80\x04 definitely not a pickle")
        assert cache.get(key) is None
        assert cache.stats.quarantined == 1 and cache.stats.misses == 1
        moved = list((tmp_path / "quarantine").iterdir())
        assert moved and not path.exists()
        cache.put(key, result)  # recompute-and-overwrite
        assert cache.get(key) is not None
        assert cache.stats.as_dict()["hits"] == 1

    def test_mismatched_sidecar_is_quarantined(self, tmp_path, small_campaign):
        spec, result = small_campaign
        cache = ResultCache(tmp_path)
        key = cache.key_for(None, spec)
        cache.put(key, result)
        sidecar = tmp_path / f"{key}.json"
        sidecar.write_text(json.dumps({"key": "someone-else"}))
        assert cache.get(key) is None
        assert cache.stats.quarantined == 1

    def test_foreign_schema_version_is_plain_miss_not_damage(
        self, tmp_path, small_campaign
    ):
        spec, result = small_campaign
        writer = ResultCache(tmp_path)
        key = writer.key_for(None, spec)
        path = writer.put(key, result)
        reader = ResultCache(tmp_path, schema_version=writer.schema_version + 1)
        assert reader.get(key) is None
        assert reader.stats.quarantined == 0 and path.exists()

    def test_injected_write_error_is_counted_not_raised(
        self, tmp_path, small_campaign
    ):
        spec, result = small_campaign
        cache = ResultCache(tmp_path)
        key = cache.key_for(None, spec)
        with install(InjectionPlan((Injection("cache.write", "io_error"),))):
            cache.put(key, result)
        assert cache.stats.io_errors == 1 and cache.stats.stores == 0

    def test_injected_read_error_is_a_miss(self, tmp_path, small_campaign):
        spec, result = small_campaign
        cache = ResultCache(tmp_path)
        key = cache.key_for(None, spec)
        cache.put(key, result)
        with install(InjectionPlan((Injection("cache.read", "io_error"),))):
            assert cache.get(key) is None
        assert cache.stats.io_errors == 1 and cache.stats.misses == 1
        assert cache.get(key) is not None  # transient: entry intact


# --------------------------------------------------------------------------- #
# The end-to-end chaos matrix: the robustness acceptance criterion.
# --------------------------------------------------------------------------- #
class TestChaosMatrix:
    def test_full_matrix_upholds_the_invariant(self):
        report = run_matrix(seed=0)
        names = [s["name"] for s in report["scenarios"]]
        assert names == [p.name for p in seeded_matrix(0)]
        failures = {
            s["name"]: s["violations"]
            for s in report["scenarios"] if not s["passed"]
        }
        assert report["passed"], failures
        by_name = {s["name"]: s for s in report["scenarios"]}
        # The designated failure scenario produced a structured error...
        assert by_name["corrupt-x-pool"]["outcome"] == "error"
        assert by_name["corrupt-x-pool"]["category"] == "crash"
        # ... the engine scenario completed degraded-but-identical ...
        assert by_name["crash-x-engine"]["degraded"]
        assert by_name["crash-x-engine"]["bit_identical"]
        # ... and the corruption scenarios actually quarantined artifacts.
        assert by_name["corrupt-x-cache"]["cache_stats"]["quarantined"] >= 1
        recovery = by_name["corrupt-x-checkpoint"]["recovery"]
        assert recovery == {"ok": True}

    def test_single_scenario_selection(self):
        report = run_matrix(seed=0, only="crash-x-checkpoint")
        assert [s["name"] for s in report["scenarios"]] == ["crash-x-checkpoint"]
        assert report["passed"]
        with pytest.raises(ValueError, match="no matrix scenario"):
            run_matrix(seed=0, only="does-not-exist")
