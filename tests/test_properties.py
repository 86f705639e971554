"""Property-based tests (hypothesis) on the core data structures and invariants."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.atpg import (
    evaluate_gate_values,
    from_bit,
    random_pairs,
    random_patterns,
    serial_simulate_obd,
    serial_simulate_path_delay,
    serial_simulate_stuck_at,
    serial_simulate_transition,
    simulate_with_forced_net,
)
from repro.atpg.structural import get_atpg_engine
from repro.campaign import Campaign, CampaignSpec, ShardedCampaign, get_model
from repro.core import (
    BreakdownStage,
    ProgressionModel,
    excited_sites,
    is_exercised_em,
    output_switches,
)
from repro.faults import (
    obd_fault_universe,
    path_delay_universe,
    stuck_at_universe,
    transition_fault_universe,
)
from repro.logic import (
    OBD_DAG_GATE_TYPES,
    GateType,
    array_multiplier,
    carry_lookahead_adder,
    evaluate_gate,
    full_adder_sum,
    magnitude_comparator,
    parse_bench,
    random_dag,
    ripple_carry_adder,
    simulate_pattern,
    structurally_equal,
    write_bench,
)
from repro.spice import Circuit, operating_point
from repro.spice.waveform import Waveform


FA_SUM = full_adder_sum()
RCA3 = ripple_carry_adder(3)

SIMPLE_GATES = [
    GateType.INV,
    GateType.NAND2,
    GateType.NOR2,
    GateType.NAND3,
    GateType.NOR3,
    GateType.AOI21,
    GateType.OAI21,
]

bits = st.integers(min_value=0, max_value=1)


def pattern_strategy(width: int):
    return st.tuples(*([bits] * width))


# --------------------------------------------------------------------------- #
# Logic-level invariants.
# --------------------------------------------------------------------------- #
@given(st.sampled_from(SIMPLE_GATES), st.data())
def test_five_valued_algebra_agrees_with_boolean(gate_type, data):
    """The 5-valued evaluation restricted to known values matches Boolean eval."""
    inputs = data.draw(pattern_strategy(gate_type.num_inputs))
    expected = evaluate_gate(gate_type, inputs)
    value = evaluate_gate_values(gate_type, [from_bit(b) for b in inputs])
    assert value.good == expected
    assert value.faulty == expected


@given(pattern_strategy(3), pattern_strategy(3))
def test_full_adder_sum_matches_xor(first, second):
    values1 = simulate_pattern(FA_SUM, first)
    values2 = simulate_pattern(FA_SUM, second)
    assert values1["SUM"] == first[0] ^ first[1] ^ first[2]
    assert values2["SUM"] == second[0] ^ second[1] ^ second[2]


@given(st.integers(0, 7), st.integers(0, 7), bits)
def test_ripple_carry_adder_is_an_adder(a, b, carry):
    pattern = [(a >> i) & 1 for i in range(3)] + [(b >> i) & 1 for i in range(3)] + [carry]
    values = simulate_pattern(RCA3, pattern)
    total = sum(values[f"S{i}"] << i for i in range(3)) + (values["COUT"] << 3)
    assert total == a + b + carry


@given(pattern_strategy(3), st.sampled_from([g.output for g in FA_SUM.gates]))
def test_forcing_a_net_to_its_own_value_changes_nothing(pattern, net):
    good = simulate_pattern(FA_SUM, pattern)
    forced = simulate_with_forced_net(FA_SUM, pattern, net, good[net])
    assert forced == good


# --------------------------------------------------------------------------- #
# Generator-family invariants.
# --------------------------------------------------------------------------- #
@given(st.integers(min_value=1, max_value=4), st.data())
@settings(max_examples=20, deadline=None)
def test_array_multiplier_matches_integer_product(bits, data):
    a = data.draw(st.integers(0, 2**bits - 1))
    b = data.draw(st.integers(0, 2**bits - 1))
    circuit = array_multiplier(bits)
    pattern = [(a >> i) & 1 for i in range(bits)] + [(b >> i) & 1 for i in range(bits)]
    values = simulate_pattern(circuit, pattern)
    assert sum(values[f"P{i}"] << i for i in range(2 * bits)) == a * b


@given(st.integers(min_value=1, max_value=5), st.data())
@settings(max_examples=20, deadline=None)
def test_carry_lookahead_matches_integer_sum(bits, data):
    a = data.draw(st.integers(0, 2**bits - 1))
    b = data.draw(st.integers(0, 2**bits - 1))
    cin = data.draw(st.integers(0, 1))
    circuit = carry_lookahead_adder(bits)
    pattern = (
        [(a >> i) & 1 for i in range(bits)]
        + [(b >> i) & 1 for i in range(bits)]
        + [cin]
    )
    values = simulate_pattern(circuit, pattern)
    total = sum(values[f"S{i}"] << i for i in range(bits)) + (values["COUT"] << bits)
    assert total == a + b + cin


@given(st.integers(min_value=1, max_value=5), st.data())
@settings(max_examples=20, deadline=None)
def test_comparator_matches_integer_order(bits, data):
    a = data.draw(st.integers(0, 2**bits - 1))
    b = data.draw(st.integers(0, 2**bits - 1))
    circuit = magnitude_comparator(bits)
    pattern = [(a >> i) & 1 for i in range(bits)] + [(b >> i) & 1 for i in range(bits)]
    values = simulate_pattern(circuit, pattern)
    assert (values["EQ"], values["GT"], values["LT"]) == (int(a == b), int(a > b), int(a < b))


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_bench_round_trip_on_random_dags(seed):
    """write -> parse -> write is a fixed point on arbitrary generated DAGs."""
    circuit = random_dag(25, num_inputs=4, seed=seed, max_depth=6)
    text = write_bench(circuit)
    back = parse_bench(text, name=circuit.name)
    assert structurally_equal(circuit, back)
    assert write_bench(back) == text


# --------------------------------------------------------------------------- #
# Cross-engine equivalence: the serial engine is the executable spec the
# packed engine must match fault for fault, test index for test index --
# on random DAGs, for every fault model, with and without fault dropping.
# --------------------------------------------------------------------------- #
_ENGINE_PAIRS = {
    "stuck-at": (serial_simulate_stuck_at, get_model("stuck-at").simulate),
    "transition": (serial_simulate_transition, get_model("transition").simulate),
    "path-delay": (serial_simulate_path_delay, get_model("path-delay").simulate),
    "obd": (serial_simulate_obd, get_model("obd").simulate),
}


def _equivalence_case(model: str, seed: int, drop_detected: bool) -> None:
    # OBD needs an expandable-gate palette; other models take the full one.
    palette = OBD_DAG_GATE_TYPES if model == "obd" else None
    circuit = random_dag(18, num_inputs=4, seed=seed, max_depth=6, gate_types=palette)
    if model == "stuck-at":
        tests = random_patterns(circuit, 48, seed=seed + 1)
        faults = list(stuck_at_universe(circuit))
    else:
        tests = random_pairs(circuit, 48, seed=seed + 1)
        if model == "transition":
            faults = list(transition_fault_universe(circuit))
        elif model == "path-delay":
            faults = list(path_delay_universe(circuit, limit=60))
        else:
            faults = list(obd_fault_universe(circuit))
    serial_fn, packed_fn = _ENGINE_PAIRS[model]
    serial = serial_fn(circuit, tests, faults, drop_detected=drop_detected)
    packed = packed_fn(circuit, tests, faults, drop_detected=drop_detected)
    assert serial.num_tests == packed.num_tests
    assert serial.detections == packed.detections


@given(st.integers(min_value=0, max_value=10_000), st.booleans())
@settings(max_examples=15, deadline=None)
def test_serial_packed_equivalence_stuck_at(seed, drop_detected):
    _equivalence_case("stuck-at", seed, drop_detected)


@given(st.integers(min_value=0, max_value=10_000), st.booleans())
@settings(max_examples=15, deadline=None)
def test_serial_packed_equivalence_transition(seed, drop_detected):
    _equivalence_case("transition", seed, drop_detected)


@given(st.integers(min_value=0, max_value=10_000), st.booleans())
@settings(max_examples=15, deadline=None)
def test_serial_packed_equivalence_path_delay(seed, drop_detected):
    _equivalence_case("path-delay", seed, drop_detected)


@given(st.integers(min_value=0, max_value=10_000), st.booleans())
@settings(max_examples=15, deadline=None)
def test_serial_packed_equivalence_obd(seed, drop_detected):
    _equivalence_case("obd", seed, drop_detected)


# --------------------------------------------------------------------------- #
# Structural ATPG on random DAGs: any vector an engine emits must be a real
# test under BOTH fault simulators, and the two complete searches (D-algorithm
# and PODEM) must reach the same testable / proven_redundant verdicts.
# --------------------------------------------------------------------------- #
@given(
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from(("d-alg", "podem")),
)
@settings(max_examples=10, deadline=None)
def test_structural_atpg_vectors_detected_by_both_simulators(seed, engine_name):
    circuit = random_dag(24, num_inputs=5, seed=seed, max_depth=7)
    engine = get_atpg_engine(engine_name)
    faults = list(stuck_at_universe(circuit))
    tested = []
    for fault in faults:
        result = engine.generate(circuit, fault)
        if result.success:
            tested.append(
                (fault, tuple(result.pattern[n] for n in circuit.primary_inputs))
            )
    assert tested, "random DAG produced no testable faults"
    patterns = [pattern for _, pattern in tested]
    serial = serial_simulate_stuck_at(circuit, patterns, [f for f, _ in tested])
    packed = get_model("stuck-at").simulate(circuit, patterns, [f for f, _ in tested])
    for index, (fault, _) in enumerate(tested):
        assert index in serial.detections[fault.key]
        assert index in packed.detections[fault.key]
    assert serial.detections == packed.detections


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=10, deadline=None)
def test_structural_engines_agree_on_random_dags(seed):
    circuit = random_dag(30, num_inputs=5, seed=seed, max_depth=8)
    d_alg = get_atpg_engine("d-alg")
    podem = get_atpg_engine("podem")
    for fault in stuck_at_universe(circuit):
        a = d_alg.generate(circuit, fault)
        b = podem.generate(circuit, fault)
        if not a.aborted and not b.aborted:
            assert a.status == b.status, (fault.key, a.status, b.status)


@given(
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from(("stuck-at", "transition", "path-delay", "obd")),
)
@settings(max_examples=8, deadline=None)
def test_campaign_atpg_statuses_engine_independent(seed, model):
    """Per-fault tested / proven_redundant verdicts (not the vectors) are a
    property of the circuit, so the complete engines must report identical
    status maps through the campaign pipeline -- for all four fault models,
    including the two whose search ignores the engine selection."""
    palette = OBD_DAG_GATE_TYPES if model == "obd" else None
    circuit = random_dag(16, num_inputs=4, seed=seed, max_depth=6, gate_types=palette)
    status_maps = []
    for engine_name in ("d-alg", "podem"):
        spec = CampaignSpec(
            model=model,
            universe_options={"limit": 40} if model == "path-delay" else {},
            pattern_source="none",
            run_atpg=True,
            compact=False,
            atpg_engine=engine_name,
        )
        payload = Campaign(spec).run(circuit).as_dict(include_runtime=False)
        outcomes = payload["atpg_phase"]["outcomes"]
        assert "aborted" not in outcomes.values()
        status_maps.append(outcomes)
    assert status_maps[0] == status_maps[1]


# --------------------------------------------------------------------------- #
# Sharded-campaign determinism: partitioning the fault universe across any
# number of shards (ragged and empty final shards included) must reproduce
# the single-process Campaign.run result exactly -- coverage, per-fault
# detection indices, merged/compacted test lists and the JSON payload.
# --------------------------------------------------------------------------- #
SHARD_COUNTS = (1, 2, 3, 7)


def _sharded_equality_case(model: str, seed: int, shards: int, drop_detected: bool) -> None:
    palette = OBD_DAG_GATE_TYPES if model == "obd" else None
    circuit = random_dag(16, num_inputs=4, seed=seed, max_depth=6, gate_types=palette)
    spec = CampaignSpec(
        model=model,
        universe_options={"limit": 40} if model == "path-delay" else {},
        pattern_source="random",
        pattern_count=6,
        seed=seed + 1,
        run_atpg=True,
        compact=True,
        drop_detected=drop_detected,
    )
    base = Campaign(spec).run(circuit)
    sharded = ShardedCampaign(spec, shards=shards, max_workers=0).run(circuit)
    assert sharded.detections == base.detections
    assert sharded.detected_faults == base.detected_faults
    assert sharded.tests == base.tests
    assert [f.key for f in sharded.faults] == [f.key for f in base.faults]
    assert sharded.compaction.selected_indices == base.compaction.selected_indices
    assert sharded.compacted_tests == base.compacted_tests
    if base.atpg_phase is not None:
        assert sharded.atpg_phase.skipped == base.atpg_phase.skipped
        assert [o.fault.key for o in sharded.atpg_phase.outcomes] == [
            o.fault.key for o in base.atpg_phase.outcomes
        ]
    # The whole report payload (runtimes aside) is byte-identical.
    assert sharded.as_dict(include_runtime=False) == base.as_dict(include_runtime=False)


@given(st.integers(min_value=0, max_value=10_000), st.sampled_from(SHARD_COUNTS), st.booleans())
@settings(max_examples=8, deadline=None)
def test_sharded_campaign_equals_unsharded_stuck_at(seed, shards, drop_detected):
    _sharded_equality_case("stuck-at", seed, shards, drop_detected)


@given(st.integers(min_value=0, max_value=10_000), st.sampled_from(SHARD_COUNTS), st.booleans())
@settings(max_examples=8, deadline=None)
def test_sharded_campaign_equals_unsharded_transition(seed, shards, drop_detected):
    _sharded_equality_case("transition", seed, shards, drop_detected)


@given(st.integers(min_value=0, max_value=10_000), st.sampled_from(SHARD_COUNTS), st.booleans())
@settings(max_examples=8, deadline=None)
def test_sharded_campaign_equals_unsharded_path_delay(seed, shards, drop_detected):
    _sharded_equality_case("path-delay", seed, shards, drop_detected)


@given(st.integers(min_value=0, max_value=10_000), st.sampled_from(SHARD_COUNTS), st.booleans())
@settings(max_examples=8, deadline=None)
def test_sharded_campaign_equals_unsharded_obd(seed, shards, drop_detected):
    _sharded_equality_case("obd", seed, shards, drop_detected)


# --------------------------------------------------------------------------- #
# Excitation-rule invariants (Sections 4.1 / 5).
# --------------------------------------------------------------------------- #
@given(st.sampled_from(SIMPLE_GATES), st.data())
def test_obd_excitation_implies_em_exercise_and_output_switch(gate_type, data):
    width = gate_type.num_inputs
    v1 = data.draw(pattern_strategy(width))
    v2 = data.draw(pattern_strategy(width))
    if v1 == v2:
        return
    sequence = (v1, v2)
    for site in excited_sites(gate_type, sequence, mode="obd"):
        assert is_exercised_em(gate_type, site, sequence)
        assert output_switches(gate_type, sequence)


@given(st.sampled_from(SIMPLE_GATES), st.data())
def test_at_most_one_parallel_pullup_site_excited_per_rising_edge(gate_type, data):
    """For NAND-like gates, a rising output excites at most one PMOS defect."""
    if gate_type not in (GateType.NAND2, GateType.NAND3):
        return
    width = gate_type.num_inputs
    v1 = data.draw(pattern_strategy(width))
    v2 = data.draw(pattern_strategy(width))
    if v1 == v2:
        return
    pmos_sites = [s for s in excited_sites(gate_type, (v1, v2)) if s.startswith("P")]
    assert len(pmos_sites) <= 1


# --------------------------------------------------------------------------- #
# Progression-model invariants.
# --------------------------------------------------------------------------- #
@given(
    st.sampled_from(["n", "p"]),
    st.floats(min_value=0.0, max_value=27 * 3600.0),
    st.floats(min_value=0.0, max_value=27 * 3600.0),
)
def test_progression_is_monotonic_in_time(polarity, t1, t2):
    model = ProgressionModel(polarity)
    early, late = min(t1, t2), max(t1, t2)
    assert model.saturation_current_at(late) >= model.saturation_current_at(early)
    assert model.resistance_at(late) <= model.resistance_at(early)
    assert model.stage_at(late).order >= model.stage_at(early).order


@given(st.sampled_from(["n", "p"]), st.sampled_from(list(BreakdownStage)))
def test_stage_times_lie_inside_the_progression(polarity, stage):
    model = ProgressionModel(polarity)
    t = model.time_of_stage(stage)
    assert model.onset_time <= t <= model.hbd_time


# --------------------------------------------------------------------------- #
# Analog substrate invariants.
# --------------------------------------------------------------------------- #
@given(
    st.floats(min_value=10.0, max_value=1e6),
    st.floats(min_value=10.0, max_value=1e6),
    st.floats(min_value=0.1, max_value=10.0),
)
@settings(max_examples=25, deadline=None)
def test_resistive_divider_solution(r1, r2, vin):
    circuit = Circuit("divider")
    circuit.add_voltage_source("vin", "a", "0", dc=vin)
    circuit.add_resistor("r1", "a", "b", r1)
    circuit.add_resistor("r2", "b", "0", r2)
    op = operating_point(circuit)
    expected = vin * r2 / (r1 + r2)
    assert abs(op.voltage("b") - expected) < 1e-6 + 1e-3 * abs(expected)


@given(st.lists(st.floats(min_value=-5.0, max_value=5.0), min_size=2, max_size=40))
@settings(max_examples=50, deadline=None)
def test_waveform_crossings_alternate(values):
    wave = Waveform(np.arange(len(values), dtype=float), np.array(values))
    rising = wave.crossings(0.0, "rising")
    falling = wave.crossings(0.0, "falling")
    # Crossings at identical times (the signal touching the threshold exactly
    # at a sample point produces a rising and a falling crossing at the same
    # instant) are excluded: their relative order is arbitrary.
    touches = set(rising) & set(falling)
    merged = sorted(
        [(t, "r") for t in rising if t not in touches]
        + [(t, "f") for t in falling if t not in touches]
    )
    # The remaining crossings of the same threshold must alternate direction.
    for (_, kind_a), (_, kind_b) in zip(merged, merged[1:]):
        assert kind_a != kind_b
