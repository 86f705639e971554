"""Unit tests for the sharded multi-process executor and the campaign suite."""

from __future__ import annotations

import dataclasses
import json
from concurrent.futures import ProcessPoolExecutor

import pytest
from report_helpers import report_from_lists

from repro.atpg import concat_phase_reports, merge_fault_shards
from repro.campaign import (
    Campaign,
    CampaignError,
    CampaignSpec,
    CampaignSuite,
    InlineExecutor,
    ShardedCampaign,
    SuiteResult,
    partition_faults,
    run_campaign_suite,
    run_sharded_campaign,
)
import repro.campaign.sharded as sharded_module
from repro.campaign.errors import ShardExecutionError
from repro.campaign.model import get_model
from repro.campaign.sharded import _new_token, _shard_resimulate
from repro.faults import stuck_at_universe
from repro.service.faultinject import Injection, InjectionPlan, install


# --------------------------------------------------------------------------- #
# Partitioning.
# --------------------------------------------------------------------------- #
class TestPartitioning:
    def test_contiguous_in_universe_order(self, fa_sum):
        faults = list(stuck_at_universe(fa_sum))
        shards = partition_faults(faults, 3)
        assert [f for shard in shards for f in shard] == faults

    def test_ragged_final_shard(self):
        shards = partition_faults(list(range(10)), 3)
        assert [len(s) for s in shards] == [4, 4, 2]

    def test_more_shards_than_faults_leaves_empties(self):
        shards = partition_faults(list(range(3)), 7)
        assert [len(s) for s in shards] == [1, 1, 1, 0, 0, 0, 0]

    def test_single_shard_is_identity(self):
        assert partition_faults(list(range(5)), 1) == [list(range(5))]

    def test_empty_universe(self):
        assert all(not s for s in partition_faults([], 4))

    def test_rejects_nonpositive_shards(self):
        with pytest.raises(CampaignError, match="shards must be >= 1"):
            partition_faults([1, 2], 0)


# --------------------------------------------------------------------------- #
# Report merging.
# --------------------------------------------------------------------------- #
class TestMergeFaultShards:
    def test_union_preserves_lists_and_orders_faults(self):
        a = report_from_lists({"f2": [1, 3]}, 4)
        b = report_from_lists({"f1": [0]}, 4)
        merged = merge_fault_shards([a, b], fault_order=["f1", "f2"])
        assert list(merged.detections) == ["f1", "f2"]
        assert merged.detections == {"f1": [0], "f2": [1, 3]}
        assert merged.num_tests == 4

    def test_mismatched_num_tests_rejected(self):
        a = report_from_lists({"f1": []}, 4)
        b = report_from_lists({"f2": []}, 5)
        with pytest.raises(ValueError, match="disagree on the test list"):
            merge_fault_shards([a, b])

    def test_overlapping_shards_rejected(self):
        a = report_from_lists({"f1": [0]}, 2)
        b = report_from_lists({"f1": [1]}, 2)
        with pytest.raises(ValueError, match="more than one shard"):
            merge_fault_shards([a, b])

    def test_missing_fault_rejected(self):
        a = report_from_lists({"f1": [0]}, 2)
        with pytest.raises(ValueError, match="missing from every shard"):
            merge_fault_shards([a], fault_order=["f1", "f2"])

    def test_extra_fault_rejected(self):
        a = report_from_lists({"f1": [0], "f2": [1]}, 2)
        with pytest.raises(ValueError, match="not in the requested fault order"):
            merge_fault_shards([a], fault_order=["f1"])

    def test_empty_input(self):
        merged = merge_fault_shards([])
        assert merged.detections == {} and merged.num_tests == 0

    def test_concat_phase_reports_offsets_indices(self):
        first = report_from_lists({"f1": [0], "f2": []}, 3)
        second = report_from_lists({"f2": [1]}, 2)
        merged = concat_phase_reports(["f1", "f2"], [first, second])
        assert merged.detections == {"f1": [0], "f2": [4]}
        assert merged.num_tests == 5


def test_merge_takes_ownership_of_shard_lists():
    a = report_from_lists({"f1": [0, 2]}, 3)
    # One shard already in fault order is its own union.
    assert merge_fault_shards([a], fault_order=["f1"]) is a


# --------------------------------------------------------------------------- #
# Campaign.run: the one-shard, in-process case of the shard pipeline.  It
# uses no executor, retry, degradation or fault-injection hook.
# --------------------------------------------------------------------------- #
C17_SPEC = dict(model="stuck-at", circuit="c17", pattern_source="random",
                pattern_count=8, seed=2)


class TestInProcessCampaign:
    def test_engine_error_propagates_as_raised(self, monkeypatch):
        model = get_model("stuck-at")
        simulate = model.simulate

        def packed_down(*args, engine="packed", **kwargs):
            if engine == "packed":
                raise RuntimeError("packed engine down")
            return simulate(*args, engine=engine, **kwargs)

        monkeypatch.setattr(model, "simulate", packed_down)
        # A sharded run would retry the shard on the serial engine and
        # return a degraded result; the in-process run raises instead.
        with pytest.raises(RuntimeError, match="packed engine down") as info:
            Campaign(CampaignSpec(**C17_SPEC)).run()
        assert type(info.value) is RuntimeError

    def test_builds_no_process_pool(self, monkeypatch):
        built = []

        def spy_pool(max_workers=None):
            built.append(max_workers)
            return InlineExecutor()

        monkeypatch.setattr(sharded_module, "ProcessPoolExecutor", spy_pool)
        spec = CampaignSpec(**C17_SPEC, shards=4)
        Campaign(spec).run()
        assert built == []
        # Control: the sharded executor does build its pool by this name.
        ShardedCampaign(spec).run()
        assert len(built) == 1

    def test_worker_injection_hooks_do_not_fire(self):
        plan = InjectionPlan((
            Injection("worker.round1", "crash"),
            Injection("worker.round2", "crash"),
        ))
        spec = CampaignSpec(**C17_SPEC)
        with install(plan) as injector:
            Campaign(spec).run()
        assert injector.fired == []
        with install(plan) as injector:
            ShardedCampaign(spec, max_workers=0).run()
        assert [f.site for f in injector.fired] == ["worker.round1", "worker.round2"]


class TestCompiledCircuitEviction:
    def test_inline_runs_leave_no_compiled_circuit(self):
        spec = CampaignSpec(**C17_SPEC)
        before = set(sharded_module._WORKER_COMPILED)
        for _ in range(3):
            ShardedCampaign(spec, shards=2, max_workers=0).run()
        ShardedCampaign(spec, shards=2, pool=InlineExecutor()).run()
        CampaignSuite([dataclasses.replace(spec, shards=2)], max_workers=0).run()
        # A run that fails after round 1 compiled evicts its circuits too.
        plan = InjectionPlan((Injection("worker.round2", "crash", times=4),))
        failing = dataclasses.replace(spec, allow_degraded=False)
        with install(plan), pytest.raises(ShardExecutionError):
            ShardedCampaign(failing, shards=2, max_workers=0).run()
        assert set(sharded_module._WORKER_COMPILED) <= before


# --------------------------------------------------------------------------- #
# The sharded executor itself.
# --------------------------------------------------------------------------- #
class TestShardedCampaign:
    def test_real_process_pool_matches_single_process(self, fa_sum):
        spec = CampaignSpec(model="stuck-at", pattern_source="random",
                            pattern_count=8, seed=3)
        base = Campaign(spec).run(fa_sum)
        sharded = run_sharded_campaign(fa_sum, spec, shards=3, max_workers=2)
        assert sharded.as_dict(include_runtime=False) == base.as_dict(include_runtime=False)
        assert sharded.tests == base.tests
        assert sharded.compacted_tests == base.compacted_tests

    def test_shared_external_pool_is_reused_not_shut_down(self, fa_sum):
        spec = CampaignSpec(model="stuck-at", pattern_source="random",
                            pattern_count=4, seed=1, run_atpg=False)
        base = Campaign(spec).run(fa_sum)
        with ProcessPoolExecutor(max_workers=2) as pool:
            first = ShardedCampaign(spec, shards=2, pool=pool).run(fa_sum)
            second = ShardedCampaign(spec, shards=4, pool=pool).run(fa_sum)
        expected = base.as_dict(include_runtime=False)
        assert first.as_dict(include_runtime=False) == expected
        assert second.as_dict(include_runtime=False) == expected

    @pytest.mark.parametrize("engine", ["packed", "numpy", "serial"])
    def test_all_engines_shard_identically(self, fa_sum, engine):
        spec = CampaignSpec(model="obd", pattern_source="sic", engine=engine)
        base = Campaign(spec).run(fa_sum)
        sharded = ShardedCampaign(spec, shards=4, max_workers=0).run(fa_sum)
        assert sharded.detections == base.detections
        assert sharded.as_dict(include_runtime=False) == base.as_dict(include_runtime=False)

    def test_shards_default_comes_from_spec(self, fa_sum):
        spec = CampaignSpec(model="stuck-at", pattern_source="random",
                            pattern_count=4, seed=0, shards=5, run_atpg=False)
        executor = ShardedCampaign(spec, max_workers=0)
        assert executor.shards == 5
        base = Campaign(spec).run(fa_sum)
        assert executor.run(fa_sum).detections == base.detections

    def test_more_shards_than_faults(self, fa_sum):
        faults = stuck_at_universe(fa_sum)
        spec = CampaignSpec(model="stuck-at", pattern_source="exhaustive",
                            run_atpg=False)
        base = Campaign(spec).run(fa_sum)
        sharded = ShardedCampaign(
            spec, shards=len(faults) + 13, max_workers=0
        ).run(fa_sum)
        assert sharded.as_dict(include_runtime=False) == base.as_dict(include_runtime=False)

    def test_bad_shard_count_rejected(self):
        with pytest.raises(CampaignError, match="shards must be >= 1"):
            ShardedCampaign(CampaignSpec(), shards=0)

    def test_spec_circuit_reference_resolves(self):
        spec = CampaignSpec(model="stuck-at", circuit="c17",
                            pattern_source="random", pattern_count=8, seed=2)
        base = Campaign(spec).run()
        sharded = ShardedCampaign(spec, shards=2, max_workers=0).run()
        assert sharded.as_dict(include_runtime=False) == base.as_dict(include_runtime=False)

    def test_bad_circuit_reference_raises_campaign_error(self):
        spec = CampaignSpec(model="stuck-at", circuit="no-such-circuit")
        with pytest.raises(CampaignError, match="unknown circuit reference"):
            ShardedCampaign(spec, max_workers=0).run()

    def test_spec_or_kwargs_not_both(self, fa_sum):
        with pytest.raises(CampaignError, match="not both"):
            run_sharded_campaign(fa_sum, CampaignSpec(), model="obd")

    def test_inline_executor_runs_submissions_eagerly(self):
        future = InlineExecutor().submit(lambda x: x + 1, 41)
        assert future.done() and future.result() == 42

    def test_packed_simulate_shard_rejects_unknown_model(self, fa_sum):
        # The shard worker looks its model up by name; an unregistered one
        # fails loudly instead of simulating some other model.
        with pytest.raises(KeyError, match="unknown fault model 'bridging'"):
            _shard_resimulate(_new_token(), fa_sum, "bridging", "packed", None, [], [], False)


# --------------------------------------------------------------------------- #
# Campaign suites.
# --------------------------------------------------------------------------- #
class TestCampaignSuite:
    @pytest.fixture(scope="class")
    def suite_result(self) -> SuiteResult:
        return run_campaign_suite(
            ["fa_sum", "c17"],
            models=("stuck-at", "obd"),
            pattern_source="random",
            pattern_count=6,
            seed=4,
            max_workers=2,
        )

    def test_cross_product_shape_and_order(self, suite_result):
        combos = [(e.spec.circuit, e.spec.model) for e in suite_result.entries]
        assert combos == [
            ("fa_sum", "stuck-at"), ("fa_sum", "obd"),
            ("c17", "stuck-at"), ("c17", "obd"),
        ]
        assert [e.index for e in suite_result.entries] == [0, 1, 2, 3]

    def test_entries_match_standalone_campaigns(self, suite_result):
        for entry in suite_result.entries:
            standalone = Campaign(entry.spec).run()
            assert entry.ok, entry.error
            assert entry.result.as_dict(include_runtime=False) == standalone.as_dict(
                include_runtime=False
            )

    def test_consolidated_json_report(self, suite_result):
        payload = json.loads(suite_result.to_json())
        assert payload["schema"] == "repro/campaign-suite/2"
        assert payload["campaigns"] == 4 and payload["failed"] == 0
        row = payload["rows"][0]
        assert row["circuit"] == "fa_sum" and row["model"] == "stuck-at"
        assert 0.0 <= row["coverage"] <= 1.0
        assert row["fault_tests_per_second"] > 0

    def test_consolidated_csv_report(self, suite_result):
        lines = suite_result.to_csv().strip().splitlines()
        assert lines[0].startswith("index,circuit,model,engine,shards")
        assert len(lines) == 1 + 4

    def test_write_report_creates_both_files(self, suite_result, tmp_path):
        json_path, csv_path = suite_result.write_report(tmp_path / "reports")
        assert json.loads(json_path.read_text())["campaigns"] == 4
        assert csv_path.read_text().count("\n") >= 5

    def test_describe_lists_every_campaign(self, suite_result):
        text = suite_result.describe()
        assert "4/4 campaigns ok" in text
        assert text.count("detected") == 4

    def test_failing_entry_is_trapped_not_fatal(self):
        result = CampaignSuite(
            [CampaignSpec(circuit="mult:0"), CampaignSpec(circuit="fa_sum")],
            max_workers=0,
        ).run()
        assert len(result.failed) == 1 and len(result.ok) == 1
        assert "bits >= 1" in result.failed[0].error
        assert "FAILED" in result.describe()
        assert result.rows()[0]["error"] is not None

    def test_sharded_specs_run_inline_inside_workers(self):
        spec = CampaignSpec(model="stuck-at", circuit="c17", shards=3,
                            pattern_source="random", pattern_count=6, seed=9)
        entry = CampaignSuite([spec], max_workers=0).run().entries[0]
        base = Campaign(spec).run()
        assert entry.ok
        assert entry.result.as_dict(include_runtime=False) == base.as_dict(
            include_runtime=False
        )

    def test_suite_requires_circuit_refs(self):
        with pytest.raises(CampaignError, match="has no circuit"):
            CampaignSuite([CampaignSpec(model="stuck-at")])

    def test_empty_suite_rejected(self):
        with pytest.raises(CampaignError, match="empty campaign suite"):
            CampaignSuite([])

    def test_cross_base_and_kwargs_exclusive(self):
        with pytest.raises(CampaignError, match="not both"):
            CampaignSuite.cross(["c17"], base=CampaignSpec(), seed=1)

    def test_cross_sic_battery_over_two_pattern_models(self):
        """The kwargs template must not trip sic validation on the default
        (single-pattern) model when every battery model is two-pattern."""
        suite = CampaignSuite.cross(
            ["fa_sum"], models=("transition", "obd"), pattern_source="sic",
            max_workers=0,
        )
        result = suite.run()
        assert [e.spec.model for e in result.entries] == ["transition", "obd"]
        assert not result.failed
