"""Packed (bit-parallel) fault-simulation engine: unit, fixture and property
tests asserting equivalence with the serial reference engine."""

from __future__ import annotations

import functools
import random

import pytest
from hypothesis import given, settings, strategies as st
from parity_cases import late_tests, one_gate_obd_faults, same_net_stuck_at

from repro.atpg import (
    exhaustive_pairs,
    exhaustive_patterns,
    random_pairs,
    random_patterns,
    serial_simulate_obd,
    serial_simulate_path_delay,
    serial_simulate_stuck_at,
    serial_simulate_transition,
    simulate_obd,
    simulate_path_delay,
    simulate_stuck_at,
    simulate_transition,
    simulate_with_forced_net,
)
from repro.campaign import Campaign, CampaignSpec
from repro.faults import (
    obd_fault_universe,
    path_delay_universe,
    stuck_at_universe,
    transition_fault_universe,
)
from repro.logic import (
    DEFAULT_WORD_BITS,
    GateType,
    LogicCircuit,
    LogicCircuitError,
    compile_circuit,
    iter_bits,
    pack_pair_blocks,
    pack_pattern_blocks,
    simulate_pattern,
)
from repro.logic.compiled import (
    KERNEL_BREAK_EVEN,
    CompiledCircuit,
    kernel_pays,
)

# Gate types every fault model (including OBD site enumeration) supports.
_RANDOM_GATE_TYPES = [
    GateType.INV,
    GateType.NAND2,
    GateType.NAND3,
    GateType.NOR2,
    GateType.NOR3,
    GateType.AOI21,
    GateType.OAI21,
]


def random_circuit(seed: int, num_inputs: int, num_gates: int) -> LogicCircuit:
    """A random combinational DAG over OBD-expandable gate types."""
    rng = random.Random(seed)
    c = LogicCircuit(f"rand{seed}")
    nets = c.add_inputs([f"i{k}" for k in range(num_inputs)])
    for g in range(num_gates):
        gate_type = rng.choice(_RANDOM_GATE_TYPES)
        ins = [rng.choice(nets) for _ in range(gate_type.num_inputs)]
        output = f"n{g}"
        c.add_gate(f"g{g}", gate_type, ins, output)
        nets.append(output)
    # Every net nothing reads becomes a primary output (at least one exists:
    # the last gate's output has no reader).
    read = {n for gate in c for n in gate.inputs}
    for net in c.nets():
        if net not in read and net not in c.primary_inputs:
            c.add_output(net)
    c.validate()
    return c


@pytest.fixture
def cone_calls(monkeypatch):
    """Net ids of every kernel compile and every cone walk, on any circuit."""
    calls = {"compile": [], "walk": []}
    compile_kernel, walk = CompiledCircuit._compile_cone_kernel, CompiledCircuit.cone_diff

    def compile_spy(self, net_index):
        calls["compile"].append(net_index)
        return compile_kernel(self, net_index)

    def walk_spy(self, base_values, net_index, forced_word, mask):
        calls["walk"].append(net_index)
        return walk(self, base_values, net_index, forced_word, mask)

    monkeypatch.setattr(CompiledCircuit, "_compile_cone_kernel", compile_spy)
    monkeypatch.setattr(CompiledCircuit, "cone_diff", walk_spy)
    return calls


def _serial_forced_diff(circuit, patterns, net, forced) -> int:
    """Detection word of clamping *net* to the bits of *forced*, pattern by
    pattern on the serial engine: bit *i* is set when some primary output
    under pattern *i* differs from the good machine."""
    word = 0
    for bit, pattern in enumerate(patterns):
        good = simulate_pattern(circuit, pattern)
        faulty = simulate_with_forced_net(circuit, pattern, net, (forced >> bit) & 1)
        if any(faulty[out] != good[out] for out in circuit.primary_outputs):
            word |= 1 << bit
    return word


# --------------------------------------------------------------------------- #
# Compiled-circuit unit tests.
# --------------------------------------------------------------------------- #
class TestCompiledCircuit:
    def test_matches_dict_simulation(self, fa_sum):
        cc = compile_circuit(fa_sum)
        patterns = exhaustive_patterns(fa_sum)
        for base, mask, words in pack_pattern_blocks(patterns, len(fa_sum.primary_inputs)):
            values = cc.evaluate(words, mask)
            for bit, pattern in enumerate(patterns[base : base + DEFAULT_WORD_BITS]):
                reference = simulate_pattern(fa_sum, pattern)
                for net, index in cc.index.ids.items():
                    assert (values[index] >> bit) & 1 == reference[net], net

    @pytest.mark.parametrize("tier", ["walk", "kernel"])
    def test_forced_matches_serial_forced(self, c17_circuit, tier):
        """Each forced-resim tier against the serial engine, on every net."""
        cc = compile_circuit(c17_circuit, word_bits=32)
        patterns = exhaustive_patterns(c17_circuit)
        _, mask, words = next(pack_pattern_blocks(patterns, 5, 32))
        good = cc.evaluate(words, mask)
        for net, index in cc.index.ids.items():
            for forced in (0, mask, 0b1010):
                if tier == "walk":
                    word = cc.cone_diff(good, index, forced, mask)
                else:
                    word = cc.cone_kernel(index)(good, forced, mask)
                assert word == _serial_forced_diff(c17_circuit, patterns, net, forced), (
                    net, forced,
                )
        assert bool(cc._cone_walks) == (tier == "walk")
        assert bool(cc._diff_kernels) == (tier == "kernel")

    def test_cone_excludes_driver_and_reaches_outputs(self, c17_circuit):
        cc = compile_circuit(c17_circuit)
        index = cc.index.ids["G11"]
        ops, outputs = cc.cone(index)
        assert all(out != index for _code, out, _ins in ops)
        assert set(outputs) == {cc.index.ids["G22"], cc.index.ids["G23"]}
        # G10 only reaches G22.
        _, g10_outs = cc.cone(cc.index.ids["G10"])
        assert set(g10_outs) == {cc.index.ids["G22"]}

    def test_pack_blocks_round_trip(self):
        patterns = [(i & 1, (i >> 1) & 1) for i in range(70)]
        blocks = list(pack_pattern_blocks(patterns, 2, 64))
        assert [b[0] for b in blocks] == [0, 64]
        assert blocks[0][1] == (1 << 64) - 1 and blocks[1][1] == (1 << 6) - 1
        for base, _mask, words in blocks:
            for bit, pattern in enumerate(patterns[base : base + 64]):
                assert tuple((w >> bit) & 1 for w in words) == pattern

    def test_pack_blocks_default_width_is_wide(self):
        """At the wide default, 70 patterns fit one (ragged) block."""
        patterns = [(i & 1, (i >> 1) & 1) for i in range(70)]
        assert 70 < DEFAULT_WORD_BITS
        [(base, mask, words)] = list(pack_pattern_blocks(patterns, 2))
        assert base == 0 and mask == (1 << 70) - 1
        for bit, pattern in enumerate(patterns):
            assert tuple((w >> bit) & 1 for w in words) == pattern

    @pytest.mark.parametrize("word_bits", [1, 3, 64, 1000])
    def test_pack_pair_blocks_streams_any_width(self, word_bits):
        pairs = [
            ((i & 1, (i >> 1) & 1), ((i >> 1) & 1, 1 - (i & 1))) for i in range(10)
        ]
        blocks = list(pack_pair_blocks(pairs, 2, word_bits))
        assert [b[0] for b in blocks] == list(range(0, 10, word_bits))
        seen = []
        for base, mask, w1, w2 in blocks:
            size = min(word_bits, 10 - base)
            assert mask == (1 << size) - 1
            for bit in range(size):
                seen.append(
                    (
                        tuple((w >> bit) & 1 for w in w1),
                        tuple((w >> bit) & 1 for w in w2),
                    )
                )
        assert seen == pairs

    def test_pack_pairs_aligns_blocks(self):
        pairs = [((0, 1), (1, 1)), ((1, 0), (0, 0))]
        [(base, mask, w1, w2)] = list(pack_pair_blocks(pairs, 2))
        assert base == 0 and mask == 0b11
        assert [(w >> 1) & 1 for w in w1] == [1, 0]
        assert [(w >> 1) & 1 for w in w2] == [0, 0]

    def test_bad_word_bits_rejected(self, c17_circuit):
        with pytest.raises(LogicCircuitError, match="word_bits"):
            list(pack_pattern_blocks([(0, 0, 0, 0, 0)], 5, 0))
        with pytest.raises(LogicCircuitError, match="word_bits"):
            compile_circuit(c17_circuit, word_bits=0)

    def test_iter_bits(self):
        assert list(iter_bits(0)) == []
        assert list(iter_bits(0b1011001)) == [0, 3, 4, 6]
        rng = random.Random(9)
        for _ in range(50):
            word = rng.getrandbits(rng.randrange(1, 1200))
            expected, rest = [], word
            while rest:
                low = rest & -rest
                expected.append(low.bit_length() - 1)
                rest ^= low
            assert list(iter_bits(word)) == expected

    def test_non_binary_pattern_rejected_like_serial(self, c17_circuit):
        """Both engines reject non-0/1 pattern bits (engine parity)."""
        from repro.logic import LogicCircuitError

        faults = list(stuck_at_universe(c17_circuit))
        bad = [(2, 0, 1, 0, 1)]
        with pytest.raises(LogicCircuitError):
            simulate_stuck_at(c17_circuit, bad, faults)
        with pytest.raises(LogicCircuitError):
            simulate_stuck_at(c17_circuit, bad, faults, engine="serial")


# --------------------------------------------------------------------------- #
# Fixture-based bit-identity (the acceptance-criteria circuits).
# --------------------------------------------------------------------------- #
class TestPackedSerialIdentity:
    @pytest.mark.parametrize("drop", [False, True])
    def test_full_adder_all_models(self, fa_sum, drop):
        patterns = exhaustive_patterns(fa_sum)
        pairs = exhaustive_pairs(fa_sum)
        sa = list(stuck_at_universe(fa_sum))
        packed = simulate_stuck_at(fa_sum, patterns, sa, drop_detected=drop)
        serial = serial_simulate_stuck_at(fa_sum, patterns, sa, drop_detected=drop)
        assert packed.detections == serial.detections
        tr = list(transition_fault_universe(fa_sum))
        packed = simulate_transition(fa_sum, pairs, tr, drop_detected=drop)
        serial = serial_simulate_transition(fa_sum, pairs, tr, drop_detected=drop)
        assert packed.detections == serial.detections
        obd = list(obd_fault_universe(fa_sum))
        packed = simulate_obd(fa_sum, pairs, obd, drop_detected=drop)
        serial = serial_simulate_obd(fa_sum, pairs, obd, drop_detected=drop)
        assert packed.detections == serial.detections

    def test_c17_all_models(self, c17_circuit):
        patterns = exhaustive_patterns(c17_circuit)
        pairs = random_pairs(c17_circuit, 100, seed=5)
        sa = list(stuck_at_universe(c17_circuit))
        assert (
            simulate_stuck_at(c17_circuit, patterns, sa).detections
            == serial_simulate_stuck_at(c17_circuit, patterns, sa).detections
        )
        tr = list(transition_fault_universe(c17_circuit))
        assert (
            simulate_transition(c17_circuit, pairs, tr).detections
            == serial_simulate_transition(c17_circuit, pairs, tr).detections
        )
        obd = list(obd_fault_universe(c17_circuit))
        assert (
            simulate_obd(c17_circuit, pairs, obd).detections
            == serial_simulate_obd(c17_circuit, pairs, obd).detections
        )

    def test_default_entry_points_use_packed(self, c17_circuit):
        """simulate_* with default engine equals both explicit engines."""
        patterns = exhaustive_patterns(c17_circuit)
        faults = list(stuck_at_universe(c17_circuit))
        default = simulate_stuck_at(c17_circuit, patterns, faults)
        explicit = simulate_stuck_at(c17_circuit, patterns, faults, engine="serial")
        assert default.detections == explicit.detections
        with pytest.raises(ValueError):
            simulate_stuck_at(c17_circuit, patterns, faults, engine="warp")

    def test_num_tests_and_coverage_survive_delegation(self, fa_sum):
        pairs = exhaustive_pairs(fa_sum)
        faults = list(obd_fault_universe(fa_sum, gate_types=[GateType.NAND2]))
        report = simulate_obd(fa_sum, pairs, faults)
        assert report.num_tests == len(pairs)
        assert 0.0 < report.coverage <= 1.0


# --------------------------------------------------------------------------- #
# Code generation: generated evaluator and cone kernels vs op-by-op references.
# --------------------------------------------------------------------------- #
class TestCodegen:
    def test_generated_evaluate_matches_dict_simulation_across_blocks(self, c17_circuit):
        cc = compile_circuit(c17_circuit, word_bits=5)
        patterns = exhaustive_patterns(c17_circuit)
        for base, mask, words in pack_pattern_blocks(patterns, 5, 5):
            values = cc.evaluate(words, mask)
            for bit, pattern in enumerate(patterns[base : base + 5]):
                reference = simulate_pattern(c17_circuit, pattern)
                for net, index in cc.index.ids.items():
                    assert (values[index] >> bit) & 1 == reference[net], net

    def test_cone_kernel_cached(self, c17_circuit):
        cc = compile_circuit(c17_circuit)
        index = cc.index.ids["G11"]
        assert cc.cone_kernel(index) is cc.cone_kernel(index)

    def test_width_and_backend_recorded(self, c17_circuit):
        cc = compile_circuit(c17_circuit)
        assert cc.word_bits == DEFAULT_WORD_BITS and cc.backend == "int"

    def test_interp_engine_rejected(self, c17_circuit):
        """The removed interpreter engine is an unknown engine everywhere."""
        patterns = exhaustive_patterns(c17_circuit)
        faults = list(stuck_at_universe(c17_circuit))
        with pytest.raises(ValueError, match="unknown fault-simulation engine 'interp'"):
            simulate_stuck_at(c17_circuit, patterns, faults, engine="interp")
        with pytest.raises(ValueError, match="unknown fault-simulation engine 'interp'"):
            simulate_obd(c17_circuit, exhaustive_pairs(c17_circuit), [], engine="interp")

    def test_wrapper_reuses_prebuilt_compiled(self, c17_circuit):
        patterns = exhaustive_patterns(c17_circuit)
        faults = list(stuck_at_universe(c17_circuit))
        cc = compile_circuit(c17_circuit, word_bits=16)
        via_wrapper = simulate_stuck_at(c17_circuit, patterns, faults, compiled=cc)
        fresh = simulate_stuck_at(c17_circuit, patterns, faults)
        assert via_wrapper.detections == fresh.detections
        # The prebuilt circuit ran the call: its sites walked their cones.
        assert cc._cone_walks

    def test_conflicting_compiled_and_word_bits_recompiles(self, c17_circuit):
        patterns = exhaustive_patterns(c17_circuit)
        faults = list(stuck_at_universe(c17_circuit))
        cc = compile_circuit(c17_circuit, word_bits=16)
        rep = simulate_stuck_at(
            c17_circuit, patterns, faults, compiled=cc, word_bits=64
        )
        # The width wins: the 16-bit circuit was not used.
        assert not cc._cone_walks and not cc._diff_kernels
        assert rep.detections == (
            serial_simulate_stuck_at(c17_circuit, patterns, faults).detections
        )
        # Agreement reuses it.
        rep = simulate_stuck_at(
            c17_circuit, patterns, faults, compiled=cc, word_bits=16
        )
        assert rep.num_tests == len(patterns) and cc._cone_walks


# --------------------------------------------------------------------------- #
# Engine parity across word widths: both word backends vs serial, all four
# fault models, including ragged final blocks and fault dropping.
# --------------------------------------------------------------------------- #
#: 130 tests make ragged final blocks at 64 (2 full + 2 left) and 1000
#: (one short block), and 130 single-pattern blocks at width 1.  Width 63
#: exercises block lengths that are not byte multiples in the decode tables.
_PARITY_TESTS = 130


@functools.cache
def _parity_cases(drop):
    """The circuit and ``(simulate, tests, faults, serial report)`` cases.

    The serial reports do not depend on the width or the engine, so they are
    computed once per *drop* for every parity test that shares them.
    """
    circuit = random_circuit(97, 5, 18)
    patterns = random_patterns(circuit, _PARITY_TESTS, seed=7)
    pairs = random_pairs(circuit, _PARITY_TESTS, seed=8)
    models = [
        (simulate_stuck_at, serial_simulate_stuck_at,
         patterns, list(stuck_at_universe(circuit))),
        (simulate_stuck_at, serial_simulate_stuck_at,
         patterns, same_net_stuck_at(circuit)),
        (simulate_stuck_at, serial_simulate_stuck_at,
         late_tests(patterns), list(stuck_at_universe(circuit))),
        (simulate_transition, serial_simulate_transition,
         pairs, list(transition_fault_universe(circuit))),
        (simulate_path_delay, serial_simulate_path_delay,
         pairs, list(path_delay_universe(circuit, limit=60))),
        (simulate_obd, serial_simulate_obd,
         pairs, list(obd_fault_universe(circuit))),
        (simulate_obd, serial_simulate_obd,
         pairs, one_gate_obd_faults(circuit)),
        (simulate_obd, serial_simulate_obd,
         late_tests(pairs), list(obd_fault_universe(circuit))),
    ]
    return circuit, [
        (simulate, tests, faults, serial_fn(circuit, tests, faults, drop_detected=drop))
        for simulate, serial_fn, tests, faults in models
    ]


def _assert_engine_parity(word_bits, drop, engines):
    circuit, cases = _parity_cases(drop)
    for simulate, tests, faults, serial in cases:
        for engine in engines:
            packed = simulate(
                circuit, tests, faults, drop_detected=drop, engine=engine,
                word_bits=word_bits,
            )
            assert packed.detections == serial.detections, (simulate.__name__, engine)
            assert packed.num_tests == serial.num_tests


@pytest.mark.parametrize("word_bits", [1, 63, 64, 256, 1000])
@pytest.mark.parametrize("drop", [False, True])
def test_engine_parity_all_models_across_widths(word_bits, drop):
    _assert_engine_parity(word_bits, drop, ("packed", "numpy"))


@pytest.mark.parametrize("word_bits", [1, 63, 64, 256, 1000])
@pytest.mark.parametrize("drop", [False, True])
@pytest.mark.parametrize("break_even, tier", [(0, "compile"), (10**9, "walk")])
def test_packed_parity_in_each_cone_tier(
    monkeypatch, cone_calls, word_bits, drop, break_even, tier
):
    """The same parity cases with every site forced onto one tier."""
    monkeypatch.setattr("repro.logic.compiled.KERNEL_BREAK_EVEN", break_even)
    _assert_engine_parity(word_bits, drop, ("packed",))
    other = "walk" if tier == "compile" else "compile"
    assert cone_calls[tier] and not cone_calls[other]


# --------------------------------------------------------------------------- #
# Cone tiers: a site walks its cone until a compiled kernel would pay for
# itself, judged from call counts alone.
# --------------------------------------------------------------------------- #
def _spec(model, circuit, count):
    return CampaignSpec(
        model=model, circuit=circuit, pattern_source="random",
        pattern_count=count, seed=0, engine="packed",
    )


def _activated(cc, faults, goods):
    """Net ids of the stuck-at-0 *faults* activated under some good frame."""
    return {cc.index.ids[fault.net] for fault in faults if any(good[fault.net] for good in goods)}


class TestConeTiers:
    def test_rule_is_walks_plus_runs_left_against_break_even(self):
        assert KERNEL_BREAK_EVEN == 17
        assert kernel_pays(0, 17) and kernel_pays(16, 1) and kernel_pays(5, 12)
        assert not kernel_pays(0, 16) and not kernel_pays(15, 1) and not kernel_pays(0, 1)

    @pytest.mark.parametrize(
        "spec",
        [_spec("stuck-at", "rdag:200,4", 192), _spec("obd", "rdag:60,4", 256)],
        ids=["sa-rdag", "obd-rdag"],
    )
    def test_benchmark_specs_compile_no_kernel(self, cone_calls, spec):
        Campaign(spec).run()
        assert cone_calls["compile"] == [] and cone_calls["walk"]

    @pytest.mark.parametrize("blocks", [16, 17, 20])
    def test_no_drop_run_compiles_on_first_use_from_break_even_blocks(
        self, cone_calls, blocks
    ):
        circuit = random_circuit(97, 5, 18)
        patterns = random_patterns(circuit, 8 * blocks, seed=3)
        # One fault per net, so a net's detector runs at most once per block.
        faults = [fault for fault in stuck_at_universe(circuit) if fault.value == 0]
        cc = compile_circuit(circuit, word_bits=8)
        first = simulate_stuck_at(circuit, patterns, faults, compiled=cc)
        goods = [simulate_pattern(circuit, pattern) for pattern in patterns]
        activated = _activated(cc, faults, goods)
        # Every activated site is first activated in the first block.
        assert activated and _activated(cc, faults, goods[:8]) == activated
        if blocks < 17:
            # walks + runs_left stays at the block count: never compiles.
            assert cone_calls["compile"] == []
            assert set(cone_calls["walk"]) == activated
            return
        assert cone_calls["walk"] == [] and not cc._cone_walks
        assert sorted(cone_calls["compile"]) == sorted(activated)
        # A second call on the same circuit reuses every kernel, even on a
        # dropping run whose single first block would walk a fresh site.
        again = simulate_stuck_at(circuit, patterns, faults, compiled=cc)
        dropped = simulate_stuck_at(
            circuit, patterns[:8], faults, compiled=cc, drop_detected=True
        )
        assert again.detections == first.detections
        assert dropped.num_tests == 8
        assert cone_calls["walk"] == [] and sorted(cone_calls["compile"]) == sorted(activated)

    def test_repeated_calls_compile_once_walks_reach_break_even(self, cone_calls, c17_circuit):
        patterns = exhaustive_patterns(c17_circuit)
        fault = next(f for f in stuck_at_universe(c17_circuit) if f.net == "G11")
        cc = compile_circuit(c17_circuit)
        index = cc.index.ids["G11"]
        reference = serial_simulate_stuck_at(c17_circuit, patterns, [fault], drop_detected=True)
        for call in range(1, 20):
            report = simulate_stuck_at(
                c17_circuit, patterns, [fault], compiled=cc, drop_detected=True
            )
            assert report.detections == reference.detections
            walks = min(call, KERNEL_BREAK_EVEN - 1)
            assert cc._cone_walks == {index: walks}
            assert cone_calls["compile"] == ([index] if call >= KERNEL_BREAK_EVEN else [])

    @pytest.mark.parametrize("blocks", [17, 20])
    def test_dropping_run_walks_its_first_block(self, cone_calls, blocks):
        """With fault dropping the first block counts as one block left."""
        circuit = random_circuit(97, 5, 18)
        patterns = random_patterns(circuit, 8 * blocks, seed=3)
        faults = [fault for fault in stuck_at_universe(circuit) if fault.value == 0]
        cc = compile_circuit(circuit, word_bits=8)
        report = simulate_stuck_at(circuit, patterns, faults, compiled=cc, drop_detected=True)
        assert report.detections == (
            serial_simulate_stuck_at(circuit, patterns, faults, drop_detected=True).detections
        )
        goods = [simulate_pattern(circuit, pattern) for pattern in patterns]
        first_block = _activated(cc, faults, goods[:8])
        survivors = first_block - {
            cc.index.ids[fault.net]
            for fault in faults
            if report.detections[fault.key] and report.detections[fault.key][0] < 8
        }
        # Some sites outlive the first block and are activated again in the
        # second, with walks 1 + blocks left 16 or more.
        assert survivors and survivors <= _activated(cc, faults, goods[8:16])
        # Each site activated in the first block walks there once, instead of
        # compiling; the survivors compile on their second call.
        assert sorted(cone_calls["walk"]) == sorted(first_block)
        assert sorted(cone_calls["compile"]) == sorted(survivors)


# --------------------------------------------------------------------------- #
# Property tests: random circuits, random pattern sets.
# --------------------------------------------------------------------------- #
circuit_params = st.tuples(
    st.integers(min_value=0, max_value=10_000),  # seed
    st.integers(min_value=1, max_value=5),  # inputs
    st.integers(min_value=1, max_value=12),  # gates
)


@settings(max_examples=25, deadline=None)
@given(circuit_params, st.integers(min_value=0, max_value=10_000), st.booleans())
def test_packed_equals_serial_stuck_at(params, pattern_seed, drop):
    circuit = random_circuit(*params)
    patterns = random_patterns(circuit, 70, seed=pattern_seed)
    faults = list(stuck_at_universe(circuit))
    packed = simulate_stuck_at(circuit, patterns, faults, drop_detected=drop)
    serial = serial_simulate_stuck_at(circuit, patterns, faults, drop_detected=drop)
    assert packed.detections == serial.detections
    assert packed.num_tests == serial.num_tests


@settings(max_examples=25, deadline=None)
@given(circuit_params, st.integers(min_value=0, max_value=10_000), st.booleans())
def test_packed_equals_serial_transition(params, pattern_seed, drop):
    circuit = random_circuit(*params)
    pairs = random_pairs(circuit, 70, seed=pattern_seed)
    faults = list(transition_fault_universe(circuit))
    packed = simulate_transition(circuit, pairs, faults, drop_detected=drop)
    serial = serial_simulate_transition(circuit, pairs, faults, drop_detected=drop)
    assert packed.detections == serial.detections


@settings(max_examples=25, deadline=None)
@given(circuit_params, st.integers(min_value=0, max_value=10_000), st.booleans())
def test_packed_equals_serial_obd(params, pattern_seed, drop):
    circuit = random_circuit(*params)
    pairs = random_pairs(circuit, 70, seed=pattern_seed)
    faults = list(obd_fault_universe(circuit))
    packed = simulate_obd(circuit, pairs, faults, drop_detected=drop)
    serial = serial_simulate_obd(circuit, pairs, faults, drop_detected=drop)
    assert packed.detections == serial.detections
