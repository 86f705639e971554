"""Cross-backend parity and plumbing tests for the numpy array engine.

The numpy backend runs the same generated code as the big-int packed engine
over ``(n_words,)`` uint64 arrays with PPSFP fault batching; every test here
pins the bit-identity contract between the two backends (and the serial
reference) across fault models, word widths, fault dropping, sharding, and
the campaign pipeline.
"""

from __future__ import annotations

import pytest
from parity_cases import late_tests, one_gate_obd_faults, same_net_stuck_at

from repro.atpg import (
    ENGINE_BACKENDS,
    compile_for_engine,
    compiled_matches_engine,
    serial_simulate_obd,
    serial_simulate_path_delay,
    serial_simulate_stuck_at,
    serial_simulate_transition,
)
from repro.atpg.fault_sim import ENGINES
from repro.atpg.parallel_sim import simulate_sites
from repro.atpg.random_tpg import random_pairs, random_patterns
from repro.campaign import (
    Campaign,
    CampaignSpec,
    get_model,
    models,
    run_sharded_campaign,
)
from repro.campaign.sharded import DEGRADE_FALLBACK, RetryPolicy
from repro.faults import (
    obd_fault_universe,
    path_delay_universe,
    stuck_at_universe,
    transition_fault_universe,
)
from repro.logic import LogicCircuitError, generate
from repro.logic.compiled import (
    DEFAULT_NUMPY_WORD_BITS,
    compile_circuit,
    num_words_for,
    pack_pair_blocks,
    pack_pair_blocks_array,
    pack_pattern_blocks,
    pack_pattern_blocks_array,
    words_to_int,
)

#: 130 tests leave ragged final blocks at every width in the matrix and
#: exercise non-byte-multiple decode paths at widths 1 and 63.
_PARITY_TESTS = 130


@pytest.fixture(scope="module")
def rdag():
    return generate("rdag", 40, seed=3)


# --------------------------------------------------------------------------- #
# Packing helpers: the array packers must be bit-identical to the int packers.
# --------------------------------------------------------------------------- #
class TestArrayPacking:
    @pytest.mark.parametrize("word_bits", [1, 63, 64, 130, 1000])
    def test_pattern_blocks_match_int_packers(self, rdag, word_bits):
        patterns = random_patterns(rdag, _PARITY_TESTS, seed=11)
        n = len(rdag.primary_inputs)
        ints = list(pack_pattern_blocks(patterns, n, word_bits))
        arrays = list(pack_pattern_blocks_array(patterns, n, word_bits))
        assert len(ints) == len(arrays)
        for (base_i, mask_i, words_i), (base_a, mask_a, matrix) in zip(ints, arrays):
            assert base_i == base_a
            assert mask_i == words_to_int(mask_a)
            # Ragged final blocks get arrays sized to the block, not word_bits.
            block_len = min(word_bits, len(patterns) - base_a)
            assert matrix.shape == (n, num_words_for(block_len))
            for row, word in zip(matrix, words_i):
                assert words_to_int(row) == word

    @pytest.mark.parametrize("word_bits", [1, 63, 64, 1000])
    def test_pair_blocks_match_int_packers(self, rdag, word_bits):
        pairs = random_pairs(rdag, _PARITY_TESTS, seed=12)
        n = len(rdag.primary_inputs)
        ints = list(pack_pair_blocks(pairs, n, word_bits))
        arrays = list(pack_pair_blocks_array(pairs, n, word_bits))
        assert len(ints) == len(arrays)
        for (bi, mi, w1, w2), (ba, ma, a1, a2) in zip(ints, arrays):
            assert bi == ba and mi == words_to_int(ma)
            assert [words_to_int(r) for r in a1] == list(w1)
            assert [words_to_int(r) for r in a2] == list(w2)

    def test_bad_pattern_values_rejected(self):
        with pytest.raises(LogicCircuitError):
            list(pack_pattern_blocks_array([(0, 2)], 2, 64))
        with pytest.raises(LogicCircuitError):
            list(pack_pattern_blocks_array([(0,)], 2, 64))

    def test_bad_word_bits_rejected(self):
        with pytest.raises(LogicCircuitError, match="word_bits"):
            list(pack_pattern_blocks_array([(0, 1)], 2, 0))


# --------------------------------------------------------------------------- #
# Engine registry and compile_for_engine.
# --------------------------------------------------------------------------- #
class TestEngineRegistry:
    def test_backend_registry_shape(self):
        assert ENGINE_BACKENDS == {"packed": "int", "numpy": "numpy"}

    def test_compile_for_engine_flavors(self, c17_circuit):
        numpy_cc = compile_for_engine(c17_circuit, "numpy", None)
        assert numpy_cc.backend == "numpy"
        assert numpy_cc.word_bits == DEFAULT_NUMPY_WORD_BITS
        assert compile_for_engine(c17_circuit, "serial", None) is None
        for engine in ("cuda", "interp"):
            with pytest.raises(ValueError, match="unknown fault-simulation engine"):
                compile_for_engine(c17_circuit, engine, None)

    def test_compile_for_engine_honors_word_bits(self, c17_circuit):
        # Regression: the campaign dispatcher once hard-coded a 64-bit width
        # regardless of the request.
        for engine in ("packed", "numpy"):
            cc = compile_for_engine(c17_circuit, engine, 192)
            assert cc.word_bits == 192 and cc.num_words == 3

    def test_compiled_matches_engine(self, c17_circuit):
        cc = compile_circuit(c17_circuit, word_bits=128, backend="numpy")
        assert compiled_matches_engine(cc, "numpy")
        assert compiled_matches_engine(cc, "numpy", word_bits=128)
        assert not compiled_matches_engine(cc, "numpy", word_bits=64)
        assert not compiled_matches_engine(cc, "packed")
        assert compiled_matches_engine(None, "serial")
        assert not compiled_matches_engine(None, "packed")

    def test_driver_infers_backend_from_compiled(self, c17_circuit):
        # One block loop: the word backend follows the compiled circuit.
        model = get_model("stuck-at")
        patterns = random_patterns(c17_circuit, 40, seed=5)
        faults = list(stuck_at_universe(c17_circuit))
        reports = []
        for engine in ("packed", "numpy"):
            cc = compile_for_engine(c17_circuit, engine, 128)
            sites = model.fault_sites(c17_circuit, cc, faults)
            reports.append(simulate_sites(cc, patterns, sites, two_pattern=False))
        assert reports[0].detections == reports[1].detections
        assert reports[0].detections == (
            serial_simulate_stuck_at(c17_circuit, patterns, faults).detections
        )

    def test_backend_mismatch_rejected(self, c17_circuit, monkeypatch):
        # A numpy-flavored compiled circuit handed to engine="packed" is never
        # silently reused: the dispatcher recompiles to the int backend.
        ran_on = []

        def spy(cc, *args, **kwargs):
            ran_on.append(cc)
            return simulate_sites(cc, *args, **kwargs)

        monkeypatch.setattr(models, "simulate_sites", spy)
        patterns = random_patterns(c17_circuit, 8, seed=5)
        faults = list(stuck_at_universe(c17_circuit))
        numpy_cc = compile_for_engine(c17_circuit, "numpy", None)
        assert not compiled_matches_engine(numpy_cc, "packed")
        report = get_model("stuck-at").simulate(
            c17_circuit, patterns, faults, engine="packed", compiled=numpy_cc
        )
        assert len(ran_on) == 1
        assert ran_on[0] is not numpy_cc and ran_on[0].backend == "int"
        assert report.detections == (
            serial_simulate_stuck_at(c17_circuit, patterns, faults).detections
        )


# --------------------------------------------------------------------------- #
# Cross-backend parity: numpy vs packed vs serial, all four models.
# --------------------------------------------------------------------------- #
def _parity_inputs(circuit):
    """(model, serial engine, tests, faults) rows of the parity matrix."""
    patterns = random_patterns(circuit, _PARITY_TESTS, seed=7)
    pairs = random_pairs(circuit, _PARITY_TESTS, seed=8)
    stuck_at = list(stuck_at_universe(circuit))
    return [
        ("stuck-at", serial_simulate_stuck_at, patterns, stuck_at),
        ("stuck-at", serial_simulate_stuck_at, patterns, same_net_stuck_at(circuit)),
        ("stuck-at", serial_simulate_stuck_at, late_tests(patterns), stuck_at),
        ("transition", serial_simulate_transition,
         pairs, list(transition_fault_universe(circuit))),
        ("path-delay", serial_simulate_path_delay,
         pairs, list(path_delay_universe(circuit, limit=60))),
        ("obd", serial_simulate_obd, pairs, list(obd_fault_universe(circuit))),
        ("obd", serial_simulate_obd, pairs, one_gate_obd_faults(circuit)),
        ("obd", serial_simulate_obd,
         late_tests(pairs), list(obd_fault_universe(circuit))),
    ]


@pytest.mark.parametrize("word_bits", [1, 63, 64, 1000])
@pytest.mark.parametrize("drop", [False, True])
def test_numpy_parity_all_models_across_widths(rdag, word_bits, drop):
    circuit = rdag
    compiled = [compile_for_engine(circuit, e, word_bits) for e in ("numpy", "packed")]
    for model, serial_fn, tests, faults in _parity_inputs(circuit):
        serial = serial_fn(circuit, tests, faults, drop_detected=drop)
        for cc in compiled:
            engine = "numpy" if cc.backend == "numpy" else "packed"
            report = get_model(model).simulate(
                circuit, tests, faults, drop_detected=drop, engine=engine, compiled=cc
            )
            assert report.detections == serial.detections, (model, cc.backend)
            assert report.num_tests == serial.num_tests


# --------------------------------------------------------------------------- #
# Campaign pipeline: engine="numpy" end to end, plus sharding.
# --------------------------------------------------------------------------- #
def _normalized(result):
    payload = result.as_dict(include_runtime=False)
    payload["spec"].pop("engine")
    payload["spec"].pop("word_bits")
    return payload


class TestNumpyCampaign:
    @pytest.mark.parametrize("model", ["stuck-at", "transition", "path-delay", "obd"])
    def test_campaign_matches_packed(self, fa_sum, model):
        def run(engine):
            spec = CampaignSpec(
                model=model, pattern_source="random", pattern_count=24,
                seed=9, engine=engine,
            )
            return Campaign(spec).run(fa_sum)

        assert _normalized(run("numpy")) == _normalized(run("packed"))

    def test_campaign_with_drop_detected(self, fa_sum):
        def run(engine):
            spec = CampaignSpec(
                model="stuck-at", pattern_source="random", pattern_count=24,
                seed=9, engine=engine, drop_detected=True,
            )
            return Campaign(spec).run(fa_sum)

        assert _normalized(run("numpy")) == _normalized(run("packed"))

    def test_custom_word_bits_changes_block_width_not_results(self, fa_sum):
        # Regression for the dispatcher hard-coding the legacy 64-bit width:
        # a non-default word_bits must reach the compiled circuit...
        cc = compile_for_engine(fa_sum, "numpy", 256)
        assert cc.word_bits == 256 and cc.num_words == 4
        # ... and campaign results stay bit-identical across widths.
        def run(word_bits):
            spec = CampaignSpec(
                model="stuck-at", pattern_source="random", pattern_count=24,
                seed=2, engine="numpy", word_bits=word_bits,
            )
            return Campaign(spec).run(fa_sum)

        assert _normalized(run(256)) == _normalized(run(None))

    @pytest.mark.parametrize("shards", [1, 2, 3, 7])
    def test_sharded_inline_matches_unsharded_packed(self, fa_sum, shards):
        spec = CampaignSpec(model="stuck-at", pattern_source="random",
                            pattern_count=16, seed=4, engine="numpy")
        base = Campaign(
            CampaignSpec(model="stuck-at", pattern_source="random",
                         pattern_count=16, seed=4, engine="packed")
        ).run(fa_sum)
        sharded = run_sharded_campaign(fa_sum, spec, shards=shards, max_workers=0)
        assert _normalized(sharded) == _normalized(base)

    def test_sharded_real_process_pool(self, fa_sum):
        # Worker processes recompile in-process; everything crossing the
        # pool (specs, fault shards, DetectionReports) must pickle.
        spec = CampaignSpec(model="transition", pattern_source="random",
                            pattern_count=12, seed=6, engine="numpy")
        base = Campaign(spec).run(fa_sum)
        sharded = run_sharded_campaign(fa_sum, spec, shards=3, max_workers=2)
        assert sharded.as_dict(include_runtime=False) == base.as_dict(include_runtime=False)

    def test_model_simulate_accepts_word_bits(self, c17_circuit):
        model = get_model("stuck-at")
        patterns = random_patterns(c17_circuit, 20, seed=3)
        faults = list(stuck_at_universe(c17_circuit))
        default = model.simulate(c17_circuit, patterns, faults, engine="numpy")
        narrow = model.simulate(
            c17_circuit, patterns, faults, engine="numpy", word_bits=8
        )
        assert narrow.detections == default.detections

    def test_model_simulate_recompiles_mismatched_flavor(self, c17_circuit):
        # A packed-flavored compiled circuit handed to engine="numpy" (or the
        # wrong width) is recompiled, never silently reused.
        model = get_model("stuck-at")
        patterns = random_patterns(c17_circuit, 20, seed=3)
        faults = list(stuck_at_universe(c17_circuit))
        wrong = compile_circuit(c17_circuit, word_bits=16)
        report = model.simulate(
            c17_circuit, patterns, faults, engine="numpy", compiled=wrong
        )
        serial = serial_simulate_stuck_at(c17_circuit, patterns, faults)
        assert report.detections == serial.detections


# --------------------------------------------------------------------------- #
# Degradation ladder and numpy availability.
# --------------------------------------------------------------------------- #
class TestDegradeAndGating:
    def test_fallback_ladder(self):
        # Exhaustiveness guard: every engine but serial degrades to exactly
        # one known engine, and every chain ends at serial without a cycle.
        assert set(DEGRADE_FALLBACK) == set(ENGINES) - {"serial"}
        assert set(DEGRADE_FALLBACK.values()) <= set(ENGINES)
        for engine in ENGINES:
            seen = [engine]
            while seen[-1] != "serial":
                seen.append(DEGRADE_FALLBACK[seen[-1]])
                assert len(seen) == len(set(seen)), f"degradation cycle {seen}"

    def test_retry_policy_degrades_numpy_to_packed(self):
        spec = CampaignSpec(engine="numpy", allow_degraded=True)
        assert RetryPolicy.for_spec(spec).degrade_to == "packed"
        strict = CampaignSpec(engine="numpy", allow_degraded=False)
        assert RetryPolicy.for_spec(strict).degrade_to is None

    def test_numpy_engine_always_available(self, c17_circuit):
        # numpy is a declared dependency: the engine validates and compiles
        # unconditionally.
        CampaignSpec(engine="numpy").validate()
        assert compile_circuit(c17_circuit, backend="numpy").backend == "numpy"
