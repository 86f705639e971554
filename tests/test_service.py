"""Tests for the campaign service stack: checkpoints, cache, async jobs.

The kill-and-resume tests simulate crashes deterministically: a flaky
executor raises after *k* shard submissions (the checkpoint store has by
then persisted the completed shards), and the resumed run goes through a
counting executor that proves only the missing shards were recomputed.
Bit-identity is asserted against the single-process ``Campaign.run`` via
``as_dict(include_runtime=False)``, the same oracle the sharded-executor
tests use.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import Future
from dataclasses import replace

import pytest

from repro.campaign import (
    Campaign,
    CampaignError,
    CampaignSpec,
    CampaignSuite,
    InlineExecutor,
    ShardedCampaign,
)
from repro.ioutil import atomic_write_bytes, atomic_write_json, atomic_write_text
from repro.service.cache import CACHE_SCHEMA
from repro.service.checkpoint import CHECKPOINT_SCHEMA
from repro.service.records import decode, encode_record
from repro.logic import GateType, LogicCircuit, full_adder_sum
from repro.service import (
    SCHEMA_VERSION,
    CampaignService,
    CheckpointStore,
    Injection,
    InjectionPlan,
    JobFailedError,
    JobStatus,
    ResultCache,
    campaign_fingerprint,
    circuit_canonical_form,
    install,
)
from repro.service.faultinject import PLAN_ENV


def baseline(spec: CampaignSpec) -> dict:
    """The single-process oracle payload (runtime fields excluded)."""
    return Campaign(spec).run().as_dict(include_runtime=False)


# --------------------------------------------------------------------------- #
# Atomic writes.
# --------------------------------------------------------------------------- #
class TestAtomicWrites:
    def test_creates_parents_and_content(self, tmp_path):
        path = tmp_path / "a" / "b" / "out.txt"
        atomic_write_text(path, "hello\n")
        assert path.read_text() == "hello\n"

    def test_replaces_existing_file(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_json(path, {"v": 1})
        atomic_write_json(path, {"v": 2})
        assert json.loads(path.read_text()) == {"v": 2}

    def test_failure_leaves_no_temp_file_and_keeps_original(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_json(path, {"v": 1})
        with pytest.raises(TypeError):
            atomic_write_json(path, {"bad": object()})
        assert json.loads(path.read_text()) == {"v": 1}
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_bytes_roundtrip(self, tmp_path):
        path = tmp_path / "blob.bin"
        atomic_write_bytes(path, b"\x00\xff")
        assert path.read_bytes() == b"\x00\xff"


# --------------------------------------------------------------------------- #
# Fingerprints: the cache-key invalidation matrix.
# --------------------------------------------------------------------------- #
def _spec(**overrides) -> CampaignSpec:
    fields = dict(
        model="stuck-at", circuit="fa_sum", pattern_source="random",
        pattern_count=8, seed=3,
    )
    fields.update(overrides)
    return CampaignSpec(**fields)


class TestFingerprintInvalidation:
    def test_identical_rebuild_shares_key(self):
        a = campaign_fingerprint(full_adder_sum(), _spec())
        b = campaign_fingerprint(full_adder_sum(), _spec())
        assert a == b

    def test_gate_instance_names_do_not_matter(self):
        def build(prefix):
            c = LogicCircuit("same")
            c.add_input("a")
            c.add_input("b")
            c.add_gate(f"{prefix}1", GateType.AND2, ["a", "b"], "y")
            c.add_output("y")
            return c

        assert circuit_canonical_form(build("g")) == circuit_canonical_form(build("h"))

    def test_structural_change_misses(self):
        def build(gate_type):
            c = LogicCircuit("same")
            c.add_input("a")
            c.add_input("b")
            c.add_gate("g", gate_type, ["a", "b"], "y")
            c.add_output("y")
            return c

        spec = _spec()
        assert campaign_fingerprint(build(GateType.AND2), spec) != campaign_fingerprint(
            build(GateType.OR2), spec
        )

    def test_circuit_name_is_part_of_the_key(self):
        a, b = full_adder_sum(), full_adder_sum()
        b.name = "renamed"
        spec = _spec()
        assert campaign_fingerprint(a, spec) != campaign_fingerprint(b, spec)

    @pytest.mark.parametrize(
        "change",
        [
            {"model": "transition"},
            {"circuit": "c17"},
            {"pattern_count": 9},
            {"pattern_source": "exhaustive"},
            {"seed": 4},
            {"engine": "numpy"},
            {"engine": "serial"},
            {"word_bits": 16},
            {"shards": 2},
            {"collapse": True},
            {"run_atpg": False},
            {"compact": False},
            {"static_phase": False},
        ],
        ids=lambda change: next(iter(change.items()))[0],
    )
    def test_every_result_bearing_spec_field_misses(self, change):
        circuit = full_adder_sum()
        base = campaign_fingerprint(circuit, _spec())
        assert campaign_fingerprint(circuit, _spec(**change)) != base

    def test_schema_version_bump_misses(self):
        circuit, spec = full_adder_sum(), _spec()
        assert campaign_fingerprint(circuit, spec, schema_version=SCHEMA_VERSION) != (
            campaign_fingerprint(circuit, spec, schema_version=SCHEMA_VERSION + 1)
        )


class TestResultCache:
    def test_roundtrip_is_bit_identical(self, tmp_path):
        spec = _spec()
        cache = ResultCache(tmp_path)
        key, cached = cache.fetch(None, spec)
        assert cached is None and cache.stats.misses == 1
        cache.put(key, Campaign(spec).run())
        key2, hit = cache.fetch(None, spec)
        assert key2 == key
        assert hit is not None and cache.stats.hits == 1
        assert hit.as_dict(include_runtime=False) == baseline(spec)

    def test_identical_rerun_hits_changed_spec_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        key, _ = cache.fetch(None, _spec())
        cache.put(key, Campaign(_spec()).run())
        assert cache.fetch(None, _spec())[1] is not None
        for change in ({"seed": 99}, {"engine": "numpy"}, {"word_bits": 16},
                       {"pattern_count": 7}, {"circuit": "c17"}):
            assert cache.fetch(None, _spec(**change))[1] is None, change

    def test_schema_version_bump_goes_cold(self, tmp_path):
        spec = _spec()
        old = ResultCache(tmp_path)
        key, _ = old.fetch(None, spec)
        old.put(key, Campaign(spec).run())
        new = ResultCache(tmp_path, schema_version=SCHEMA_VERSION + 1)
        assert new.fetch(None, spec)[1] is None
        # Even a forced read under the old key revalidates the version.
        assert new.get(key) is None

    def test_corrupt_entry_is_a_miss_not_an_error(self, tmp_path):
        spec = _spec()
        cache = ResultCache(tmp_path)
        key, _ = cache.fetch(None, spec)
        cache.put(key, Campaign(spec).run())
        (tmp_path / f"{key}.json").write_bytes(b"not a record")
        assert cache.get(key) is None

    def test_foreign_payload_with_wrong_key_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for(None, _spec())
        (tmp_path / f"{key}.json").write_text(
            encode_record({"schema": CACHE_SCHEMA,
                           "schema_version": SCHEMA_VERSION,
                           "key": "someone-else", "result": None})
        )
        assert cache.get(key) is None

    def test_clear_and_report(self, tmp_path):
        cache = ResultCache(tmp_path)
        key, _ = cache.fetch(None, _spec())
        cache.put(key, Campaign(_spec()).run())
        report = cache.report()
        assert report["entries"] == 1 and report["bytes"] > 0
        assert report["inventory"][0]["circuit"] == "fa_sum"
        key2, _ = cache.fetch(None, _spec(seed=5))
        cache.put(key2, Campaign(_spec(seed=5)).run())
        assert cache.clear() == 2
        assert cache.get(key) is None
        assert cache.report()["entries"] == 0
        assert cache.stats.invalidations == 2


# --------------------------------------------------------------------------- #
# Checkpoints: kill-and-resume bit-identity.
# --------------------------------------------------------------------------- #
class CrashAfter(InlineExecutor):
    """Executes shard tasks inline, then dies after *limit* submissions.

    Deterministic stand-in for SIGKILL mid-campaign: the first *limit*
    shards complete (and get checkpointed by the parent), the next
    submission raises out of ``ShardedCampaign.run``.
    """

    def __init__(self, limit: int):
        self.limit = limit
        self.submitted = 0

    def submit(self, fn, /, *args, **kwargs) -> Future:
        if self.submitted >= self.limit:
            raise RuntimeError("simulated crash")
        self.submitted += 1
        return super().submit(fn, *args, **kwargs)


class CountingExecutor(InlineExecutor):
    """Inline executor that records how many shard tasks actually ran."""

    def __init__(self):
        self.submitted = 0

    def submit(self, fn, /, *args, **kwargs) -> Future:
        self.submitted += 1
        return super().submit(fn, *args, **kwargs)


RESUME_MATRIX = [
    ("stuck-at", "packed"),
    ("stuck-at", "numpy"),
    ("transition", "packed"),
    ("transition", "numpy"),
]


class TestKillAndResume:
    @pytest.mark.parametrize("model,engine", RESUME_MATRIX,
                             ids=[f"{m}-{e}" for m, e in RESUME_MATRIX])
    def test_killed_after_k_shards_resumes_bit_identical(self, model, engine, tmp_path):
        spec = CampaignSpec(
            model=model, circuit="mult:3", pattern_source="random",
            pattern_count=12, seed=7, engine=engine, shards=4,
        )
        ckpt = tmp_path / "ckpt"

        crash = CrashAfter(2)
        with pytest.raises(RuntimeError, match="simulated crash"):
            ShardedCampaign(spec, pool=crash, checkpoint_dir=ckpt).run()
        store = CheckpointStore(ckpt)
        persisted = len(store.shard_files(1)) + len(store.shard_files(2))
        assert persisted == 2, "completed shards must be checkpointed before the crash"

        counter = CountingExecutor()
        resumed = ShardedCampaign(spec, pool=counter, checkpoint_dir=ckpt)
        result = resumed.run()
        assert result.as_dict(include_runtime=False) == baseline(spec)
        summary = resumed.checkpoint_summary
        assert summary["round1_loaded"] + summary["round2_loaded"] == 2
        total_round1 = summary["round1_loaded"] + summary["round1_stored"]
        total_round2 = summary["round2_loaded"] + summary["round2_stored"]
        assert counter.submitted == (total_round1 + total_round2) - 2

    @pytest.mark.parametrize("model,engine", RESUME_MATRIX[:2],
                             ids=[f"{m}-{e}" for m, e in RESUME_MATRIX[:2]])
    def test_crash_mid_round2_resumes_bit_identical(self, model, engine, tmp_path):
        spec = CampaignSpec(
            model=model, circuit="fa_sum", pattern_source="random",
            pattern_count=4, seed=1, engine=engine, shards=3,
        )
        ckpt = tmp_path / "ckpt"
        with pytest.raises(RuntimeError):
            # All of round 1 (3 shards) plus one round-2 shard complete.
            ShardedCampaign(spec, pool=CrashAfter(4), checkpoint_dir=ckpt).run()
        store = CheckpointStore(ckpt)
        assert len(store.shard_files(1)) == 3 and len(store.shard_files(2)) == 1

        resumed = ShardedCampaign(spec, pool=InlineExecutor(), checkpoint_dir=ckpt)
        assert resumed.run().as_dict(include_runtime=False) == baseline(spec)
        assert resumed.checkpoint_summary["round1_loaded"] == 3
        assert resumed.checkpoint_summary["round2_loaded"] == 1

    def test_completed_run_replays_entirely_from_disk(self, tmp_path):
        spec = CampaignSpec(
            model="stuck-at", circuit="c17", pattern_source="random",
            pattern_count=8, seed=2, shards=3,
        )
        ckpt = tmp_path / "ckpt"
        first = ShardedCampaign(spec, pool=InlineExecutor(), checkpoint_dir=ckpt)
        expected = first.run().as_dict(include_runtime=False)

        counter = CountingExecutor()
        again = ShardedCampaign(spec, pool=counter, checkpoint_dir=ckpt)
        assert again.run().as_dict(include_runtime=False) == expected
        assert counter.submitted == 0
        summary = again.checkpoint_summary
        assert summary["round1_stored"] == summary["round2_stored"] == 0

    def test_mismatched_campaign_is_rejected(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        spec = CampaignSpec(model="stuck-at", circuit="c17",
                            pattern_source="random", pattern_count=4, shards=2)
        ShardedCampaign(spec, pool=InlineExecutor(), checkpoint_dir=ckpt).run()
        other = replace(spec, seed=spec.seed + 1)
        with pytest.raises(CampaignError, match="different campaign"):
            ShardedCampaign(other, pool=InlineExecutor(), checkpoint_dir=ckpt).run()
        with pytest.raises(CampaignError, match="shard count"):
            ShardedCampaign(spec, shards=3, pool=InlineExecutor(),
                            checkpoint_dir=ckpt).run()

    def test_resume_false_discards_stale_state(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        spec = CampaignSpec(model="stuck-at", circuit="c17",
                            pattern_source="random", pattern_count=4, shards=2)
        ShardedCampaign(spec, pool=InlineExecutor(), checkpoint_dir=ckpt).run()
        other = replace(spec, seed=spec.seed + 1)
        fresh = ShardedCampaign(other, pool=InlineExecutor(),
                                checkpoint_dir=ckpt, resume=False)
        assert fresh.run().as_dict(include_runtime=False) == baseline(other)
        assert fresh.checkpoint_summary["round1_loaded"] == 0

    def test_stale_shard_file_is_recomputed_not_trusted(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        spec = CampaignSpec(model="stuck-at", circuit="c17",
                            pattern_source="random", pattern_count=4, shards=2)
        ShardedCampaign(spec, pool=InlineExecutor(), checkpoint_dir=ckpt).run()
        # Rewrite one shard record with a wrong fault digest (but a valid
        # checksum trailer): the loader must reject it as stale.
        path = CheckpointStore(ckpt).shard_files(1)[0]
        payload = json.loads(path.read_text().split("\n", 1)[0])
        payload["faults_digest"] = "0" * 64
        path.write_text(encode_record(payload))
        resumed = ShardedCampaign(spec, pool=InlineExecutor(), checkpoint_dir=ckpt)
        assert resumed.run().as_dict(include_runtime=False) == baseline(spec)
        assert resumed.checkpoint_summary["round1_stored"] == 1


    def test_previous_checkpoint_schema_is_refused_then_restarted(self, tmp_path):
        """A directory left by the v3 (index-list) format: resume refuses it,
        naming both schemas; ``resume=False`` starts over bit-identically."""
        old_schema = "repro/campaign-checkpoint/3"
        ckpt = tmp_path / "ckpt"
        spec = CampaignSpec(model="stuck-at", circuit="c17",
                            pattern_source="random", pattern_count=8, seed=2, shards=3)
        ShardedCampaign(spec, pool=InlineExecutor(), checkpoint_dir=ckpt).run()
        store = CheckpointStore(ckpt)
        manifest = store.read_manifest()
        atomic_write_json(ckpt / "manifest.json", {**manifest, "schema": old_schema})
        for path in store.shard_files(1) + store.shard_files(2):
            payload = json.loads(path.read_text().split("\n", 1)[0])
            words = payload["report"].pop("words")
            payload["report"]["detections"] = {
                key: [i for i in range(payload["report"]["num_tests"]) if decode(word) >> i & 1]
                for key, word in words.items()
            }
            path.write_text(encode_record({**payload, "schema": old_schema}))

        with pytest.raises(CampaignError) as refused:
            CheckpointStore(ckpt).prepare(manifest["fingerprint"], manifest["shards"])
        assert old_schema in str(refused.value)
        assert CHECKPOINT_SCHEMA in str(refused.value)
        with pytest.raises(CampaignError, match="uses schema"):
            ShardedCampaign(spec, pool=InlineExecutor(), checkpoint_dir=ckpt).run()

        fresh = ShardedCampaign(spec, pool=InlineExecutor(), checkpoint_dir=ckpt, resume=False)
        assert fresh.run().as_dict(include_runtime=False) == baseline(spec)
        assert fresh.checkpoint_summary["round1_loaded"] == 0
        assert CheckpointStore(ckpt).read_manifest()["schema"] == CHECKPOINT_SCHEMA

    def test_v4_checkpoint_without_proofs_is_refused(self, tmp_path):
        """A directory left by v4, whose round-1 records carry no proofs:
        resume refuses it with the schema message; ``resume=False`` restarts."""
        old_schema = "repro/campaign-checkpoint/4"
        ckpt = tmp_path / "ckpt"
        spec = CampaignSpec(model="stuck-at", circuit="rdag:60,5",
                            pattern_source="random", pattern_count=16, seed=7, shards=3)
        ShardedCampaign(spec, pool=InlineExecutor(), checkpoint_dir=ckpt).run()
        store = CheckpointStore(ckpt)
        manifest = store.read_manifest()
        atomic_write_json(ckpt / "manifest.json", {**manifest, "schema": old_schema})
        for path in store.shard_files(1):
            payload = json.loads(path.read_text().split("\n", 1)[0])
            del payload["proofs"], payload["prove_seconds"]
            path.write_text(encode_record({**payload, "schema": old_schema}))

        with pytest.raises(CampaignError, match="uses schema") as refused:
            ShardedCampaign(spec, pool=InlineExecutor(), checkpoint_dir=ckpt).run()
        assert old_schema in str(refused.value)
        assert CHECKPOINT_SCHEMA in str(refused.value)

        fresh = ShardedCampaign(spec, pool=InlineExecutor(), checkpoint_dir=ckpt, resume=False)
        assert fresh.run().as_dict(include_runtime=False) == baseline(spec)
        assert fresh.checkpoint_summary["round1_loaded"] == 0

    def test_v5_checkpoint_is_refused(self, tmp_path):
        """A directory left by v5, whose round-1 records also list the proven
        keys: resume refuses it with the schema message; ``resume=False``
        restarts."""
        old_schema = "repro/campaign-checkpoint/5"
        ckpt = tmp_path / "ckpt"
        spec = CampaignSpec(model="stuck-at", circuit="rdag:60,5",
                            pattern_source="random", pattern_count=16, seed=7, shards=3)
        ShardedCampaign(spec, pool=InlineExecutor(), checkpoint_dir=ckpt).run()
        store = CheckpointStore(ckpt)
        manifest = store.read_manifest()
        atomic_write_json(ckpt / "manifest.json", {**manifest, "schema": old_schema})
        for path in store.shard_files(1):
            payload = json.loads(path.read_text().split("\n", 1)[0])
            payload["proven"] = list(payload["proofs"])
            path.write_text(encode_record({**payload, "schema": old_schema}))

        with pytest.raises(CampaignError, match="uses schema") as refused:
            ShardedCampaign(spec, pool=InlineExecutor(), checkpoint_dir=ckpt).run()
        assert old_schema in str(refused.value)
        assert CHECKPOINT_SCHEMA in str(refused.value)

        fresh = ShardedCampaign(spec, pool=InlineExecutor(), checkpoint_dir=ckpt, resume=False)
        assert fresh.run().as_dict(include_runtime=False) == baseline(spec)
        assert fresh.checkpoint_summary["round1_loaded"] == 0

    def test_v6_checkpoint_is_refused(self, tmp_path):
        """A directory left by v6, whose records store each test pattern as a
        list of tagged items: resume refuses it with the schema message;
        ``resume=False`` restarts."""
        old_schema = "repro/campaign-checkpoint/6"

        def untag(data):
            if isinstance(data, list):
                return [untag(item) for item in data]
            if not isinstance(data, dict):
                return data
            if data.get("#") == "bits":
                return {"#": "tuple", "items": [int(bit) for bit in data["bits"]]}
            return {key: untag(item) for key, item in data.items()}

        ckpt = tmp_path / "ckpt"
        spec = CampaignSpec(model="stuck-at", circuit="rdag:60,5",
                            pattern_source="random", pattern_count=16, seed=7, shards=3)
        ShardedCampaign(spec, pool=InlineExecutor(), checkpoint_dir=ckpt).run()
        store = CheckpointStore(ckpt)
        manifest = store.read_manifest()
        atomic_write_json(ckpt / "manifest.json", {**manifest, "schema": old_schema})
        rewritten = 0
        for path in store.shard_files(1):
            text = path.read_text().split("\n", 1)[0]
            rewritten += '"#": "bits"' in text
            payload = untag(json.loads(text))
            path.write_text(encode_record({**payload, "schema": old_schema}))
        assert rewritten  # the rewrite really changed the pattern encoding

        with pytest.raises(CampaignError, match="uses schema") as refused:
            ShardedCampaign(spec, pool=InlineExecutor(), checkpoint_dir=ckpt).run()
        assert old_schema in str(refused.value)
        assert CHECKPOINT_SCHEMA in str(refused.value)

        fresh = ShardedCampaign(spec, pool=InlineExecutor(), checkpoint_dir=ckpt, resume=False)
        assert fresh.run().as_dict(include_runtime=False) == baseline(spec)
        assert fresh.checkpoint_summary["round1_loaded"] == 0

    def test_resumed_round1_shards_restore_their_proofs(self, tmp_path):
        """Round-1 records carry each shard's proofs (key, reason, detail):
        a run killed after two round-1 shards resumes to the uninterrupted
        result, static proofs included."""
        spec = CampaignSpec(model="stuck-at", circuit="rdag:60,5",
                            pattern_source="random", pattern_count=16, seed=7, shards=3)
        ckpt = tmp_path / "ckpt"
        with pytest.raises(RuntimeError, match="simulated crash"):
            ShardedCampaign(spec, pool=CrashAfter(2), checkpoint_dir=ckpt).run()
        stored = [
            json.loads(path.read_text().split("\n", 1)[0])
            for path in CheckpointStore(ckpt).shard_files(1)
        ]
        assert len(stored) == 2
        assert all(payload["proofs"] for payload in stored)

        expected = Campaign(spec).run()
        resumed = ShardedCampaign(spec, pool=InlineExecutor(), checkpoint_dir=ckpt)
        result = resumed.run()
        assert resumed.checkpoint_summary["round1_loaded"] == 2
        assert result.as_dict(include_runtime=False) == expected.as_dict(include_runtime=False)
        assert result.static_phase.proofs == expected.static_phase.proofs
        assert list(result.static_phase.proofs) == list(expected.static_phase.proofs)


# --------------------------------------------------------------------------- #
# The async job service (inline workers: deterministic, process-free).
# --------------------------------------------------------------------------- #
class TestCampaignService:
    def test_submit_result_matches_single_process(self, tmp_path):
        spec = _spec()
        with CampaignService(max_workers=0) as service:
            job_id = service.submit(spec)
            result = service.result(job_id, timeout=60)
        assert result.as_dict(include_runtime=False) == baseline(spec)
        assert service.status(job_id) is JobStatus.DONE

    def test_round_robin_is_fair_across_clients(self):
        with CampaignService(max_workers=0, autostart=False) as service:
            a = [service.submit(_spec(seed=i), client="alice") for i in range(3)]
            b = service.submit(_spec(circuit="c17"), client="bob")
            c = service.submit(_spec(circuit="mux2"), client="carol")
            service.start()
            jobs = {j.id: j for j in service.wait_all(timeout=60)}
        order = sorted(jobs, key=lambda job_id: jobs[job_id].started_seq)
        # alice queued three first, but bob and carol interleave ahead of
        # her backlog: a0, b, c, a1, a2.
        assert order == [a[0], b, c, a[1], a[2]]

    def test_failure_is_isolated_and_carries_traceback(self):
        with CampaignService(max_workers=0) as service:
            bad = service.submit(CampaignSpec(model="stuck-at", circuit="mult:0"))
            good = service.submit(_spec())
            service.wait_all(timeout=60)
            assert service.status(good) is JobStatus.DONE
            job = service.job(bad)
            assert job.status is JobStatus.FAILED
            assert job.error.type == "CampaignError"
            assert "bits >= 1" in job.error.message
            assert "Traceback" in job.error.traceback
            with pytest.raises(JobFailedError, match="bits >= 1"):
                service.result(bad)

    def test_cancel_only_queued_jobs(self):
        with CampaignService(max_workers=0, autostart=False) as service:
            job_id = service.submit(_spec())
            assert service.cancel(job_id) is True
            assert service.status(job_id) is JobStatus.CANCELLED
            assert service.cancel(job_id) is False
            service.start()
            done = service.submit(_spec(seed=11))
            service.result(done, timeout=60)
            assert service.cancel(done) is False

    def test_cache_serves_repeated_submissions(self, tmp_path):
        spec = _spec()
        with CampaignService(max_workers=0, cache_dir=tmp_path / "cache") as service:
            first = service.submit(spec)
            service.result(first, timeout=60)
            second = service.submit(spec)
            result = service.result(second, timeout=60)
            assert not service.job(first).cache_hit
            assert service.job(second).cache_hit
            report = service.report()
        assert result.as_dict(include_runtime=False) == baseline(spec)
        assert report["cache_hits"] == 1
        assert report["cache"]["entries"] == 1

    def test_spec_without_circuit_is_rejected(self):
        with CampaignService(max_workers=0) as service:
            with pytest.raises(CampaignError, match="circuit"):
                service.submit(CampaignSpec(model="stuck-at"))

    def test_closed_service_rejects_submissions(self):
        service = CampaignService(max_workers=0)
        service.close()
        with pytest.raises(CampaignError, match="closed"):
            service.submit(_spec())

    def test_sharded_job_checkpoints_under_fingerprint(self, tmp_path):
        spec = _spec(shards=3)
        root = tmp_path / "ckpt"
        with CampaignService(max_workers=0, checkpoint_root=root) as service:
            result = service.result(service.submit(spec), timeout=60)
        assert result.as_dict(include_runtime=False) == baseline(spec)
        subdirs = [p for p in root.iterdir() if p.is_dir()]
        assert len(subdirs) == 1
        assert (subdirs[0] / "manifest.json").is_file()


# --------------------------------------------------------------------------- #
# Service robustness: watchdog, retries, pool rebuild, shutdown races.
# --------------------------------------------------------------------------- #
class TestServiceRobustness:
    def test_cancel_while_running_returns_false_then_completes(self):
        plan = InjectionPlan((
            Injection("job.run", "hang", tag="fa_sum", seconds=0.4),
        ))
        with install(plan):
            with CampaignService(max_workers=0, autostart=False) as service:
                job_id = service.submit(_spec())
                service.start()
                deadline = time.monotonic() + 10
                while service.status(job_id) is JobStatus.QUEUED:
                    assert time.monotonic() < deadline, "job never started"
                    time.sleep(0.01)
                assert service.cancel(job_id) is False  # running: not interrupted
                result = service.result(job_id, timeout=60)
        assert result.as_dict(include_runtime=False) == baseline(_spec())

    def test_close_cancels_queued_jobs(self):
        service = CampaignService(max_workers=0, autostart=False)
        ids = [service.submit(_spec(seed=i)) for i in range(3)]
        service.close()  # cancel_queued=True: nothing ever ran
        for job_id in ids:
            assert service.status(job_id) is JobStatus.CANCELLED
        with pytest.raises(JobFailedError):
            service.result(ids[0])

    def test_draining_close_finishes_queued_jobs(self):
        service = CampaignService(max_workers=0, autostart=False)
        ids = [service.submit(_spec(seed=i)) for i in range(2)]
        service.start()
        service.close(cancel_queued=False)
        for job_id in ids:
            assert service.status(job_id) is JobStatus.DONE

    def test_injected_crash_is_retried_to_success(self):
        plan = InjectionPlan((Injection("job.run", "crash", tag="fa_sum"),))
        with install(plan):
            with CampaignService(max_workers=0, max_job_retries=1) as service:
                job_id = service.submit(_spec())
                result = service.result(job_id, timeout=60)
                report = service.report()
        assert result.as_dict(include_runtime=False) == baseline(_spec())
        assert service.job(job_id).attempts == 2
        assert report["retries"] == 1
        assert report["by_error_category"] == {}

    def test_watchdog_requeues_stuck_job_and_ignores_late_completion(self):
        # The first attempt hangs well past job_timeout; the watchdog
        # requeues it, and when the stuck attempt finally finishes its
        # completion is discarded as superseded.
        plan = InjectionPlan((
            Injection("job.run", "hang", tag="fa_sum", seconds=1.0),
        ))
        with install(plan):
            with CampaignService(
                max_workers=0, job_timeout=0.2, max_job_retries=1
            ) as service:
                job_id = service.submit(_spec())
                result = service.result(job_id, timeout=60)
                report = service.report()
        assert result.as_dict(include_runtime=False) == baseline(_spec())
        assert service.job(job_id).attempts == 2
        assert report["retries"] == 1
        assert report["by_error_category"] == {}

    def test_watchdog_without_retry_budget_fails_with_timeout_category(self):
        plan = InjectionPlan((
            Injection("job.run", "hang", tag="fa_sum", seconds=1.0),
        ))
        with install(plan):
            with CampaignService(max_workers=0, job_timeout=0.2) as service:
                job_id = service.submit(_spec())
                with pytest.raises(JobFailedError):
                    service.result(job_id, timeout=60)
                report = service.report()
        job = service.job(job_id)
        assert job.status is JobStatus.FAILED
        assert job.error.type == "TimeoutError"
        assert job.error.category == "timeout"
        assert report["by_error_category"] == {"timeout": 1}

    def test_worker_death_fails_structured_and_pool_rebuilds(
        self, tmp_path, monkeypatch
    ):
        # A worker process hard-killed mid-job (the OOM-killer/segfault
        # case) must fail only its own job -- category "crash", no raw
        # traceback explosion -- and the next job runs on a rebuilt pool.
        plan_path = InjectionPlan(
            (Injection("job.run", "exit", tag="c17"),), name="kill-worker",
        ).dump(tmp_path / "plan.json")
        monkeypatch.setenv(PLAN_ENV, str(plan_path))
        with CampaignService(max_workers=1) as service:
            doomed = service.submit(_spec(circuit="c17"))
            with pytest.raises(JobFailedError):
                service.result(doomed, timeout=120)
            survivor = service.submit(_spec())
            result = service.result(survivor, timeout=120)
            report = service.report()
        assert service.job(doomed).error.category == "crash"
        assert result.as_dict(include_runtime=False) == baseline(_spec())
        assert report["pool_rebuilds"] >= 1
        assert report["by_status"] == {"done": 1, "failed": 1}

    def test_degraded_job_provenance_reaches_the_report(self):
        # Two injected crashes exhaust the shard's retry budget, forcing
        # the engine-degradation rung; the job succeeds bit-identically and
        # the provenance surfaces through job info and the service report.
        spec = _spec(shards=2, engine="packed", max_retries=1)
        plan = InjectionPlan((
            Injection("worker.round1", "crash", shard=0, times=2),
        ))
        with install(plan):
            with CampaignService(max_workers=0) as service:
                job_id = service.submit(spec)
                result = service.result(job_id, timeout=60)
                report = service.report()
        payload = result.as_dict(include_runtime=False)
        assert payload.pop("degraded") == {
            "engine": "packed", "fallbacks": {"0": "serial"},
        }
        assert payload == baseline(spec)
        job = service.job(job_id)
        assert job.degraded and job.info()["degraded"]["fallbacks"] == {"0": "serial"}
        assert report["degraded_jobs"] == 1


# --------------------------------------------------------------------------- #
# Suite integration: per-entry tracebacks and the shared result cache.
# --------------------------------------------------------------------------- #
class TestSuiteServiceIntegration:
    def test_failed_entry_keeps_full_traceback(self):
        suite = CampaignSuite([
            _spec(),
            CampaignSpec(model="stuck-at", circuit="mult:0"),
        ], max_workers=0)
        result = suite.run()
        ok, failed = result.entries
        assert ok.ok and ok.traceback is None
        assert not failed.ok
        assert "bits >= 1" in failed.error
        assert "Traceback (most recent call last)" in failed.traceback
        row = result.as_dict()["rows"][1]
        assert "Traceback" in row["traceback"]
        assert "traceback" not in result.as_dict()["rows"][0]

    def test_second_run_hits_cache_on_every_entry(self, tmp_path):
        kwargs = dict(
            models=("stuck-at", "transition"), pattern_source="random",
            pattern_count=6, seed=2, shards=2, max_workers=0,
            cache_dir=tmp_path / "cache",
        )
        cold = CampaignSuite.cross(["c17", "fa_sum"], **kwargs).run()
        warm = CampaignSuite.cross(["c17", "fa_sum"], **kwargs).run()
        assert not cold.cache_hits
        assert len(warm.cache_hits) == len(warm.entries) == 4
        for before, after in zip(cold.entries, warm.entries):
            assert before.result.as_dict(include_runtime=False) == (
                after.result.as_dict(include_runtime=False)
            )
        payload = warm.as_dict()
        assert payload["schema"] == "repro/campaign-suite/2"
        assert payload["cache_hits"] == 4
