"""Tests for the unified campaign API: registry, pipeline, parity, reporting."""

from __future__ import annotations

import json
import re

import pytest

from repro.atpg import generate_obd_test, greedy_compaction, simulate_obd
from repro.campaign import (
    SINGLE_PATTERN,
    TWO_PATTERN,
    Campaign,
    CampaignError,
    CampaignSpec,
    ShardedCampaign,
    get_model,
    register_model,
    registered_models,
    run_campaign,
)
from repro.faults import obd_fault_universe, stuck_at_universe
from repro.logic import GateType


class TestRegistry:
    def test_four_models_registered(self):
        assert registered_models() == ("obd", "path-delay", "stuck-at", "transition")

    def test_get_model_shapes(self):
        assert get_model("stuck-at").pattern_kind == SINGLE_PATTERN
        for name in ("transition", "path-delay", "obd"):
            assert get_model(name).pattern_kind == TWO_PATTERN

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError, match="unknown fault model"):
            get_model("bridging")

    def test_duplicate_registration_rejected(self):
        model = get_model("obd")
        with pytest.raises(ValueError, match="already registered"):
            register_model(model)
        # replace=True keeps the registry unchanged but does not raise.
        assert register_model(model, replace=True) is model

    def test_models_expose_universe_and_atpg(self, fa_sum):
        for name in registered_models():
            model = get_model(name)
            universe = model.build_universe(fa_sum)
            assert len(universe) > 0
            outcome = model.generate_test(fa_sum, next(iter(universe)))
            assert outcome.success == bool(outcome.tests)


class TestSpecValidation:
    def test_bad_pattern_source(self):
        with pytest.raises(CampaignError):
            Campaign(CampaignSpec(pattern_source="walking-ones"))

    def test_no_phase_at_all(self):
        with pytest.raises(CampaignError):
            Campaign(CampaignSpec(pattern_source="none", run_atpg=False))

    def test_bad_engine_fails_fast(self):
        """A typoed engine is rejected at spec time, not after the ATPG run,
        and surfaces as CampaignError like every other bad field."""
        for engine in ("quantum", "interp"):
            with pytest.raises(CampaignError, match="unknown fault-simulation engine"):
                CampaignSpec(engine=engine)

    def test_unknown_model_is_a_spec_error(self):
        with pytest.raises(CampaignError, match="unknown fault model"):
            Campaign(CampaignSpec(model="bridging"))

    def test_sic_needs_two_pattern_model(self):
        """sic x single-pattern fails at construction and names both fields."""
        with pytest.raises(CampaignError, match="pattern_source='sic'.*two-pattern") as err:
            CampaignSpec(model="stuck-at", pattern_source="sic")
        assert "stuck-at" in str(err.value)

    def test_sic_accepted_for_two_pattern_models(self):
        for name in ("transition", "path-delay", "obd"):
            assert CampaignSpec(model=name, pattern_source="sic").pattern_source == "sic"

    def test_shards_must_be_positive(self):
        """shards < 1 fails at construction and the message names the field."""
        for bad in (0, -3):
            with pytest.raises(CampaignError, match=f"shards must be >= 1, got {bad}"):
                CampaignSpec(shards=bad)
        assert CampaignSpec(shards=7).shards == 7

    @pytest.mark.parametrize(
        "field_name,bad",
        [
            ("pattern_count", 2.5),
            ("pattern_count", True),
            ("shards", 2.5),
            ("shards", True),
            ("max_retries", 1.5),
            ("word_bits", 8.5),
            ("word_bits", "64"),
        ],
    )
    def test_counts_must_be_integers(self, field_name, bad):
        """A float, bool or string count is refused at construction, naming
        the field, instead of raising a raw TypeError mid-run."""
        with pytest.raises(CampaignError, match=f"{field_name} must be an integer"):
            CampaignSpec(circuit="c17", pattern_source="random", **{field_name: bad})

    @pytest.mark.parametrize(
        "field_name,bad",
        [
            ("shard_timeout", float("nan")),
            ("shard_timeout", float("inf")),
            ("shard_timeout", True),
            ("shard_timeout", "5"),
            ("shard_timeout", 0.0),
            ("shard_timeout", -1),
            ("retry_backoff", float("nan")),
            ("retry_backoff", float("-inf")),
            ("retry_backoff", False),
            ("retry_backoff", "0.1"),
            ("retry_backoff", None),
            ("retry_backoff", -0.5),
        ],
    )
    def test_seconds_must_be_finite_numbers(self, field_name, bad):
        """A NaN deadline never expires and a NaN backoff crashes the retry
        sleep, so both are refused at construction, naming the field."""
        with pytest.raises(CampaignError, match=f"{field_name} must be "):
            CampaignSpec(circuit="c17", **{field_name: bad})

    @pytest.mark.parametrize(
        "fields", [{"shard_timeout": None}, {"shard_timeout": 2}, {"retry_backoff": 0}]
    )
    def test_seconds_accept_finite_numbers(self, fields):
        spec = CampaignSpec(circuit="c17", **fields)
        assert all(getattr(spec, name) == value for name, value in fields.items())

    def test_sharded_shard_override_must_be_an_integer(self):
        with pytest.raises(CampaignError, match="shards must be an integer"):
            ShardedCampaign(CampaignSpec(circuit="c17"), shards=2.5)

    def test_validation_fires_at_construction_not_mid_run(self):
        """A bad field never survives to run(): construction itself raises."""
        with pytest.raises(CampaignError, match="pattern_count"):
            CampaignSpec(pattern_count=-1)
        with pytest.raises(CampaignError, match="word_bits"):
            CampaignSpec(word_bits=0)

    def test_spec_and_kwargs_exclusive(self, fa_sum):
        with pytest.raises(CampaignError):
            run_campaign(fa_sum, CampaignSpec(), model="obd")


class TestResolveCircuitErrors:
    """Bad circuit references surface as CampaignError / LogicCircuitError
    with actionable messages -- never a bare ValueError or FileNotFoundError."""

    def test_malformed_parametric_ref_missing_args(self):
        from repro.campaign import resolve_circuit

        with pytest.raises(CampaignError, match="needs arguments, e.g. 'rdag:4'"):
            resolve_circuit("rdag:")

    #: A degenerate size of every parametric family, with the builder's
    #: message for it.
    DEGENERATE_SIZES = {
        "alu": ("alu:0", "ALU slice needs bits >= 1, got 0"),
        "cla": ("cla:0", "carry-lookahead adder needs bits >= 1, got 0"),
        "cmp": ("cmp:0", "magnitude comparator needs bits >= 1, got 0"),
        "mult": ("mult:0", "array multiplier needs bits >= 1, got 0"),
        "nand_chain": ("nand_chain:0", "NAND chain needs length >= 1, got 0"),
        "parity": ("parity:1", "parity tree needs width >= 2, got 1"),
        "rca": ("rca:0", "ripple-carry adder needs bits >= 1, got 0"),
        "rdag": ("rdag:0", "random DAG needs num_gates >= 1, got 0"),
    }

    def test_degenerate_sizes_cover_every_family(self):
        from repro.campaign import circuit_names, resolve_circuit

        families = []
        for name in circuit_names():
            try:
                resolve_circuit(name)
            except CampaignError as exc:
                assert "needs arguments" in str(exc)
                families.append(name)
        assert sorted(self.DEGENERATE_SIZES) == sorted(families)

    @pytest.mark.parametrize("family", sorted(DEGENERATE_SIZES))
    def test_degenerate_builder_size_keeps_builder_error(self, family):
        """A degenerate size surfaces the builder's own LogicCircuitError,
        naming the value, never a bare ValueError."""
        from repro.campaign import resolve_circuit
        from repro.logic import LogicCircuitError

        ref, message = self.DEGENERATE_SIZES[family]
        with pytest.raises(LogicCircuitError, match=re.escape(message)):
            resolve_circuit(ref)

    def test_nonexistent_bench_path_is_campaign_error(self, tmp_path):
        from repro.campaign import resolve_circuit

        missing = tmp_path / "nope.bench"
        with pytest.raises(CampaignError, match="no .bench file at"):
            resolve_circuit(str(missing))
        # Never a FileNotFoundError leak.
        try:
            resolve_circuit(str(missing))
        except FileNotFoundError:  # pragma: no cover - the regression itself
            pytest.fail("FileNotFoundError leaked out of resolve_circuit")
        except CampaignError:
            pass

    def test_unreadable_bench_path_is_campaign_error(self, tmp_path):
        from repro.campaign import resolve_circuit

        directory = tmp_path / "adir.bench"
        directory.mkdir()
        with pytest.raises(CampaignError, match="cannot read .bench file"):
            resolve_circuit(str(directory))

    def test_non_integer_arguments(self):
        from repro.campaign import resolve_circuit

        with pytest.raises(CampaignError, match="must be integers"):
            resolve_circuit("mult:a")

    def test_unknown_family_and_unknown_name(self):
        from repro.campaign import resolve_circuit

        with pytest.raises(CampaignError, match="unknown parametric circuit family"):
            resolve_circuit("quux:4")
        with pytest.raises(CampaignError, match="registered:"):
            resolve_circuit("quux")

    def test_wrong_argument_count(self):
        from repro.campaign import resolve_circuit

        with pytest.raises(CampaignError, match="between 1 and 1"):
            resolve_circuit("mult:2,3")

    def test_non_string_reference(self):
        from repro.campaign import resolve_circuit

        with pytest.raises(CampaignError, match="expected a circuit name"):
            resolve_circuit(123)

    def test_campaign_run_normalizes_everything_to_campaign_error(self):
        for ref in ("rdag:", "mult:0", "/nonexistent/f.bench", "quux:4"):
            with pytest.raises(CampaignError):
                run_campaign(ref, CampaignSpec(model="stuck-at"))


class TestSection43Parity:
    """One campaign reproduces the hand-wired examples/full_adder_atpg.py flow."""

    @pytest.fixture(scope="class")
    def obd_campaign(self, fa_sum):
        spec = CampaignSpec(
            model="obd",
            universe_options={"gate_types": [GateType.NAND2]},
            pattern_source="none",
            drop_detected=False,
        )
        return Campaign(spec).run(fa_sum)

    @pytest.fixture(scope="class")
    def hand_wired(self, fa_sum):
        faults = obd_fault_universe(fa_sum, gate_types=[GateType.NAND2])
        searches: dict = {}
        outcomes = [generate_obd_test(fa_sum, fault, searches=searches) for fault in faults]
        pairs = [pair for outcome in outcomes for pair in outcome.tests]
        report = simulate_obd(fa_sum, pairs, faults)
        return outcomes, pairs, report, greedy_compaction(report)

    def test_same_tests(self, obd_campaign, hand_wired):
        _, pairs, _, _ = hand_wired
        assert obd_campaign.tests == pairs

    def test_same_detected_fault_sets(self, obd_campaign, hand_wired):
        _, _, report, _ = hand_wired
        assert set(obd_campaign.detected_faults) == set(report.detected_faults)
        assert obd_campaign.detections == report.detections

    def test_same_compaction(self, obd_campaign, hand_wired):
        _, _, _, compaction = hand_wired
        assert obd_campaign.compaction.selected_indices == compaction.selected_indices
        assert obd_campaign.compaction.size == compaction.size

    def test_same_untestable_accounting(self, obd_campaign, hand_wired):
        outcomes, _, _, _ = hand_wired
        untested = {o.fault.key for o in obd_campaign.atpg_phase.untestable}
        assert untested == {o.fault.key for o in outcomes if o.untestable}

    def test_all_four_models_complete_the_pipeline(self, fa_sum):
        """ATPG-only campaigns agree with exhaustive fault simulation for
        every registered model on the Figure-8 full adder."""
        for name in registered_models():
            model = get_model(name)
            atpg_only = run_campaign(
                fa_sum, model=name, pattern_source="none", drop_detected=False
            )
            exhaustive = run_campaign(
                fa_sum, model=name, pattern_source="exhaustive", run_atpg=False
            )
            assert atpg_only.coverage.aborted == 0, name
            assert set(atpg_only.detected_faults) == set(exhaustive.detected_faults), name
            # Everything is either detected or proven untestable.
            efficiency = atpg_only.coverage.test_efficiency
            assert efficiency == pytest.approx(1.0), (name, efficiency)
            assert model.name == name


class TestPipelinePhases:
    def test_drop_detected_keeps_one_index_per_fault(self, fa_sum):
        """With dropping on, a fault detected in the pattern phase is not
        re-simulated by the ATPG phase: at most one index survives."""
        result = run_campaign(
            fa_sum,
            model="obd",
            universe_options={"gate_types": [GateType.NAND2]},
            pattern_source="random",
            pattern_count=3,
            seed=0,
            drop_detected=True,
        )
        for key, indices in result.detections.items():
            assert len(indices) <= 1, (key, indices)

    def test_pattern_phase_then_atpg_skips_detected(self, fa_sum):
        result = run_campaign(
            fa_sum,
            model="obd",
            universe_options={"gate_types": [GateType.NAND2]},
            pattern_source="sic",
        )
        atpg = result.atpg_phase
        assert atpg is not None
        detected_by_patterns = set(result.pattern_phase.report.detected_faults)
        assert set(atpg.skipped) == detected_by_patterns
        assert atpg.attempted == len(result.faults) - len(atpg.skipped)
        attempted_keys = {o.fault.key for o in atpg.outcomes}
        assert not attempted_keys & detected_by_patterns

    def test_merged_indices_offset_by_pattern_phase(self, fa_sum):
        result = run_campaign(fa_sum, model="stuck-at", pattern_source="random",
                              pattern_count=4, seed=9, drop_detected=False)
        num_patterns = len(result.pattern_phase.tests)
        assert result.merged_report.num_tests == num_patterns + len(result.atpg_phase.tests)
        for key, indices in result.atpg_phase.report.detections.items():
            merged = result.detections[key]
            pattern_part = result.pattern_phase.report.detections[key]
            assert merged == pattern_part + [num_patterns + i for i in indices]

    def test_compacted_tests_detect_everything(self, fa_sum):
        result = run_campaign(fa_sum, model="transition", pattern_source="sic",
                              drop_detected=False)
        model = get_model("transition")
        report = model.simulate(fa_sum, result.compacted_tests, result.faults)
        assert set(report.detected_faults) == set(result.detected_faults)

    def test_collapse_stuck_at(self, fa_sum):
        full = run_campaign(fa_sum, model="stuck-at", pattern_source="exhaustive",
                            run_atpg=False, collapse=False)
        collapsed = run_campaign(fa_sum, model="stuck-at", pattern_source="exhaustive",
                                 run_atpg=False, collapse=True)
        assert len(collapsed.faults) < len(full.faults)
        assert collapsed.uncollapsed_faults == len(full.faults)
        assert set(f.key for f in collapsed.faults) <= set(f.key for f in full.faults)

    def test_collapse_obd_equivalence_groups(self, fa_sum):
        spec = CampaignSpec(
            model="obd",
            universe_options={"gate_types": [GateType.NAND2]},
            collapse=True,
            pattern_source="exhaustive",
            run_atpg=False,
        )
        result = Campaign(spec).run(fa_sum)
        # 14 NANDs x 3 equivalence groups ({NA,NB}, {PA}, {PB}).
        assert len(result.faults) == 14 * 3
        assert result.uncollapsed_faults == 56

    def test_random_pattern_phase_respects_kind(self, fa_sum):
        single = Campaign(CampaignSpec(model="stuck-at", pattern_source="random",
                                       pattern_count=5)).patterns_for(fa_sum)
        pairs = Campaign(CampaignSpec(model="obd", pattern_source="random",
                                      pattern_count=5)).patterns_for(fa_sum)
        assert all(isinstance(bit, int) for pattern in single for bit in pattern)
        assert all(len(pair) == 2 and pair[0] != pair[1] for pair in pairs)

    def test_all_engines_match(self, fa_sum):
        """packed, numpy and serial campaigns agree."""
        packed_detections = None
        for engine in ("packed", "numpy", "serial"):
            result = run_campaign(fa_sum, model="obd", pattern_source="sic",
                                  run_atpg=False, engine=engine, compact=False)
            if packed_detections is None:
                packed_detections = result.detections
            else:
                assert result.detections == packed_detections

    def test_word_bits_knob(self, fa_sum):
        """Any positive word_bits yields identical detections; 0 is rejected."""
        baseline = run_campaign(fa_sum, model="stuck-at", pattern_source="exhaustive",
                                run_atpg=False, compact=False)
        narrow = run_campaign(fa_sum, model="stuck-at", pattern_source="exhaustive",
                              run_atpg=False, compact=False, word_bits=2)
        assert narrow.detections == baseline.detections
        assert narrow.as_dict()["spec"]["word_bits"] == 2
        with pytest.raises(CampaignError, match="word_bits"):
            Campaign(CampaignSpec(word_bits=0))


class TestReporting:
    @pytest.fixture(scope="class")
    def result(self, fa_sum):
        return run_campaign(
            fa_sum,
            model="obd",
            universe_options={"gate_types": [GateType.NAND2]},
            pattern_source="sic",
            drop_detected=False,
        )

    def test_describe_mentions_phases(self, result):
        text = result.describe()
        assert "campaign[obd]" in text
        assert "patterns[sic]" in text
        assert "atpg:" in text
        assert "compaction:" in text

    def test_to_json_roundtrip(self, result):
        payload = json.loads(result.to_json())
        assert payload["model"] == "obd"
        assert payload["spec"]["universe_options"] == {"gate_types": ["NAND2"]}
        assert payload["faults"] == 56
        assert payload["pattern_phase"]["num_tests"] == len(result.pattern_phase.tests)
        assert payload["atpg_phase"]["skipped"] == len(result.atpg_phase.skipped)
        assert payload["compaction"]["size"] == result.compaction.size
        assert len(payload["compaction"]["tests"]) == result.compaction.size
        assert set(payload["detections"]) == set(result.detections)

    def test_overall_coverage_counts(self, result):
        coverage = result.coverage
        assert coverage.total_faults == 56
        assert coverage.detected == len(result.detected_faults)
        assert coverage.num_tests == result.merged_report.num_tests

    def test_wrappers_still_delegate(self, fa_sum):
        """The legacy silo entry points agree with the registry they wrap."""
        faults = obd_fault_universe(fa_sum, gate_types=[GateType.NAND2])
        pairs = Campaign(CampaignSpec(model="obd", pattern_source="sic")).patterns_for(fa_sum)
        legacy = simulate_obd(fa_sum, pairs, faults)
        registry = get_model("obd").simulate(fa_sum, pairs, faults)
        assert legacy.detections == registry.detections

    def test_stuck_at_wrapper_engine_validation(self, fa_sum):
        from repro.atpg import simulate_stuck_at

        faults = list(stuck_at_universe(fa_sum))
        for engine in ("quantum", "interp"):
            with pytest.raises(ValueError, match="unknown fault-simulation engine"):
                simulate_stuck_at(fa_sum, [(0, 0, 0)], faults, engine=engine)
