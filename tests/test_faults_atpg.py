"""Tests for the fault models, PODEM, two-pattern / OBD ATPG and fault simulation."""

from __future__ import annotations

import random
from itertools import product

import pytest
from report_helpers import report_from_lists

from repro.atpg import (
    CoverageReport,
    PodemOptions,
    coverage_from_report,
    exhaustive_pairs,
    exhaustive_patterns,
    generate_obd_test,
    generate_path_delay_test,
    generate_stuck_at_test,
    generate_transition_test,
    greedy_compaction,
    justify,
    random_pairs,
    random_patterns,
    serial_simulate_obd,
    serial_simulate_path_delay,
    serial_simulate_transition,
    simulate_with_forced_net,
    single_input_change_pairs,
)
from repro.atpg.podem import _PAIRS, _table
from repro.atpg.values import D, DBAR, ONE, X, ZERO, LogicValue, evaluate_gate_values, from_bit
from repro.campaign import Campaign, CampaignSpec, get_model, resolve_circuit
from repro.campaign.runner import generate_atpg_outcomes
from repro.core.excitation import (
    all_sequences,
    excitation_conditions,
    gate_structure,
    is_excited_obd,
    is_exercised_em,
)
from repro.faults import (
    ObdFault,
    PathDelayFault,
    StuckAtFault,
    TransitionFault,
    collapse_stuck_at_faults,
    is_sensitized,
    obd_equivalence_groups,
    obd_fault_universe,
    path_delay_universe,
    stuck_at_universe,
    transition_fault_universe,
)
from repro.faults.path_delay import _structural_paths
from repro.logic import GateType, LogicCircuit, simulate_pattern, two_to_one_mux


class TestFaultModels:
    def test_stuck_at_universe_size(self, c17_circuit):
        assert len(stuck_at_universe(c17_circuit)) == 2 * len(c17_circuit.nets())

    def test_stuck_at_key_and_eq(self):
        assert StuckAtFault("n1", 0) == StuckAtFault("n1", 0)
        assert StuckAtFault("n1", 0) != StuckAtFault("n1", 1)
        assert StuckAtFault("n1", 1).key == "n1/sa1"
        with pytest.raises(ValueError):
            StuckAtFault("n1", 2)

    def test_transition_fault_values(self):
        str_fault = TransitionFault("n1", "slow-to-rise")
        assert str_fault.launch_value == 0 and str_fault.final_value == 1
        stf_fault = TransitionFault("n1", "slow-to-fall")
        assert stf_fault.launch_value == 1
        with pytest.raises(ValueError):
            TransitionFault("n1", "slow")

    def test_transition_universe(self, c17_circuit):
        assert len(transition_fault_universe(c17_circuit)) == 2 * len(c17_circuit.nets())

    def test_obd_universe_counts(self, fa_sum):
        """Two transistor sites per gate input; the universe keys faults by
        site, so the counts also show every site is distinct."""
        assert len(obd_fault_universe(fa_sum, gate_types=[GateType.NAND2])) == 56
        assert len(obd_fault_universe(fa_sum)) == 56 + 2 * 14  # NANDs + inverters

    def test_obd_universe_rejects_gates_without_a_cell(self):
        circuit = LogicCircuit("and")
        circuit.add_input("a")
        circuit.add_input("b")
        circuit.add_gate("g_and", GateType.AND2, ["a", "b"], "y")
        circuit.add_output("y")
        assert len(obd_fault_universe(circuit)) == 0
        with pytest.raises(ValueError, match="'g_and'"):
            obd_fault_universe(circuit, gate_types=["AND2"])

    def test_obd_fault_properties(self):
        fault = ObdFault("g1", GateType.NAND2, "PA")
        assert fault.polarity == "p"
        assert fault.output_edge == "rising"
        assert fault.local_sequences == (((1, 1), (0, 1)),)

    def test_path_delay_universe_and_sensitization(self):
        mux = two_to_one_mux()
        faults = path_delay_universe(mux)
        assert len(faults) > 0
        fault = PathDelayFault(("D0", "t0", "Y"), "rising")
        # D0 rising with S=0 selects D0; the path toggles end to end.
        assert is_sensitized(mux, fault, (0, 0, 0), (1, 0, 0))
        assert not is_sensitized(mux, fault, (0, 0, 1), (1, 0, 1))

    def test_stuck_at_collapsing_reduces_count(self, c17_circuit):
        collapsed = collapse_stuck_at_faults(c17_circuit)
        assert 0 < len(collapsed) < len(stuck_at_universe(c17_circuit))

    def test_obd_equivalence_groups(self, fa_sum):
        faults = obd_fault_universe(fa_sum, gate_types=[GateType.NAND2])
        groups = obd_equivalence_groups(faults)
        # Each NAND contributes 3 groups: {NA, NB}, {PA}, {PB}.
        assert len(groups) == 14 * 3
        sizes = sorted(len(v) for v in groups.values())
        assert sizes.count(2) == 14


class TestFiveValuedAlgebra:
    def test_basic_values(self):
        assert str(D) == "D" and str(DBAR) == "D'"
        assert D.is_error and not ONE.is_error
        assert from_bit(None) == X and from_bit(1) == ONE

    def test_nand_with_error_input(self):
        assert evaluate_gate_values(GateType.NAND2, [D, ONE]) == DBAR
        assert evaluate_gate_values(GateType.NAND2, [D, ZERO]) == ONE
        assert evaluate_gate_values(GateType.NAND2, [D, X]).good is None

    def test_inverter_propagates_error(self):
        assert evaluate_gate_values(GateType.INV, [D]) == DBAR
        assert evaluate_gate_values(GateType.INV, [DBAR]) == D

    def test_complex_gate_three_valued(self):
        assert evaluate_gate_values(GateType.AOI21, [ONE, ONE, X]) == ZERO
        assert evaluate_gate_values(GateType.OAI21, [ZERO, ZERO, X]) == ONE


class TestTableParity:
    """The lookup tables on the OBD ATPG path equal the scalar references."""

    def test_pair_code_layout(self):
        assert _PAIRS[8] == X and _PAIRS[3] == D and _PAIRS[1] == DBAR
        assert _PAIRS[0] == ZERO and _PAIRS[4] == ONE

    @pytest.mark.parametrize("gate_type", list(GateType))
    def test_two_rail_table_equals_evaluate_gate_values(self, gate_type):
        table = _table(gate_type)
        keys = list(product(range(9), repeat=gate_type.num_inputs))
        assert sorted(table) == keys
        for codes in keys:
            want = evaluate_gate_values(gate_type, [_PAIRS[c] for c in codes])
            assert _PAIRS[table[codes]] == want
            for stuck in (0, 1):
                assert _PAIRS[_table(gate_type, stuck)[codes]] == LogicValue(want.good, stuck)

    @pytest.mark.parametrize("mode", ["obd", "em"])
    @pytest.mark.parametrize(
        "gate_type",
        [GateType.INV, GateType.NAND2, GateType.NAND3, GateType.NOR2, GateType.NOR3,
         GateType.AOI21, GateType.OAI21],
    )
    def test_memoized_excitation_equals_predicate_filter(self, gate_type, mode):
        predicate = is_excited_obd if mode == "obd" else is_exercised_em
        for site in gate_structure(gate_type).sites:
            want = [seq for seq in all_sequences(gate_type) if predicate(gate_type, site, seq)]
            assert excitation_conditions(gate_type, site, mode) == want
            assert excitation_conditions(gate_type.value, site.lower(), mode) == want

    def test_mutating_returned_conditions_does_not_leak(self):
        first = excitation_conditions(GateType.NAND2, "NA")
        expected = list(first)
        first.clear()
        assert excitation_conditions(GateType.NAND2, "NA") == expected
        assert list(ObdFault("g", GateType.NAND2, "NA").local_sequences) == expected


class TestPodem:
    def test_c17_full_stuck_at_coverage(self, c17_circuit):
        faults = list(stuck_at_universe(c17_circuit))
        patterns = []
        for fault in faults:
            result = generate_stuck_at_test(c17_circuit, fault)
            assert result.success, fault.key
            patterns.append(tuple(result.pattern[n] for n in c17_circuit.primary_inputs))
        report = get_model("stuck-at").simulate(c17_circuit, patterns, faults)
        assert coverage_from_report("sa", report).coverage == 1.0

    def test_generated_test_actually_detects(self, fa_sum):
        fault = StuckAtFault("z1", 0)
        result = generate_stuck_at_test(fa_sum, fault)
        assert result.success
        pattern = tuple(result.pattern[n] for n in fa_sum.primary_inputs)
        report = get_model("stuck-at").simulate(fa_sum, [pattern], [fault])
        assert report.detected_faults == [fault.key]

    def test_constraint_satisfaction(self, fa_sum):
        result = justify(fa_sum, {"m4": 1})
        assert result.success
        values = simulate_pattern(fa_sum, tuple(result.pattern[n] for n in fa_sum.primary_inputs))
        assert values["m4"] == 1

    def test_conflicting_constraints_unjustifiable(self, fa_sum):
        # m4_n is the complement of m4: both cannot be 1.
        result = justify(fa_sum, {"m4": 1, "m4_n": 1})
        assert not result.success and not result.aborted

    def test_untestable_fault_reported(self):
        """A redundant stuck-at fault is proven untestable, not aborted."""
        from repro.logic import LogicCircuit

        c = LogicCircuit("redundant")
        c.add_input("a")
        c.add_output("y")
        c.add_gate("inv", GateType.INV, ["a"], "an")
        # y = NAND(a, NOT a) == 1 always: output stuck-at-1 is undetectable.
        c.add_gate("g", GateType.NAND2, ["a", "an"], "y")
        result = generate_stuck_at_test(c, StuckAtFault("y", 1))
        assert not result.success
        assert result.untestable

    def test_constrained_stuck_at(self, fa_sum):
        gate = fa_sum.gate("nand_m4")
        constraints = dict(zip(gate.inputs, (1, 1)))
        result = generate_stuck_at_test(fa_sum, StuckAtFault(gate.output, 1), constraints=constraints)
        assert result.success
        values = simulate_pattern(fa_sum, tuple(result.pattern[n] for n in fa_sum.primary_inputs))
        for net, bit in constraints.items():
            assert values[net] == bit

    def test_backtrack_limit_aborts(self, rca4):
        options = PodemOptions(max_backtracks=0)
        # A hard fault with zero backtracks allowed either succeeds directly
        # or aborts -- it must not claim untestability.
        result = generate_stuck_at_test(rca4, StuckAtFault("COUT", 1), options=options)
        assert result.success or result.aborted


OBD = get_model("obd")
NAND2_ONLY = {"gate_types": [GateType.NAND2]}


def _detects(serial_simulate, circuit, fault, pair) -> bool:
    """Does the one-pair serial reference simulation detect *fault*?"""
    return bool(serial_simulate(circuit, [pair], [fault]).words[fault.key])


class TestTwoPatternAndObdAtpg:
    def test_transition_test_detects(self, fa_sum):
        fault = TransitionFault("z1", "slow-to-rise")
        result = generate_transition_test(fa_sum, fault)
        assert result.success
        (pair,) = result.tests
        assert _detects(serial_simulate_transition, fa_sum, fault, pair)

    def test_obd_test_respects_excitation(self, fa_sum):
        fault = ObdFault("nand_m4", GateType.NAND2, "PA")
        result = generate_obd_test(fa_sum, fault)
        assert result.success
        (pair,) = result.tests
        gate = fa_sum.gate("nand_m4")
        # The gate's inputs under the pair are the local sequence it excites.
        local_sequence = tuple(
            tuple(simulate_pattern(fa_sum, pattern)[n] for n in gate.inputs) for pattern in pair
        )
        assert local_sequence in fault.local_sequences
        assert _detects(serial_simulate_obd, fa_sum, fault, pair)

    def test_obd_atpg_matches_exhaustive_simulation(self, fa_sum):
        faults = obd_fault_universe(fa_sum, **NAND2_ONLY)
        outcomes, _ = generate_atpg_outcomes(OBD, fa_sum, faults, set())
        report = get_model("obd").simulate(fa_sum, exhaustive_pairs(fa_sum), faults)
        assert {o.fault.key for o in outcomes if o.success} == set(report.detected_faults)
        assert not [o for o in outcomes if o.aborted]

    def test_self_coupled_nand_pb_untestable(self, fa_sum):
        """A NAND used as an inverter cannot have its PB defect excited."""
        fault = ObdFault("nand_or12_self", GateType.NAND2, "PB")
        result = generate_obd_test(fa_sum, fault)
        assert result.untestable

    def test_obd_summary_describe(self, fa_sum):
        result = Campaign(CampaignSpec(model="obd", universe_options=NAND2_ONLY)).run(fa_sum)
        assert f"atpg: {len(result.faults)} attempted" in result.describe()

    def test_obd_atpg_skips_already_detected(self, fa_sum):
        """Cross-phase fault dropping: detected faults never reach PODEM."""
        faults = obd_fault_universe(fa_sum, **NAND2_ONLY)
        report = get_model("obd").simulate(fa_sum, single_input_change_pairs(fa_sum), faults)
        outcomes, skipped = generate_atpg_outcomes(
            OBD, fa_sum, faults, set(report.detected_faults)
        )
        assert set(skipped) == set(report.detected_faults)
        assert len(outcomes) == len(faults) - len(skipped)
        attempted = {o.fault.key for o in outcomes}
        assert not attempted & set(report.detected_faults)
        spec = CampaignSpec(model="obd", universe_options=NAND2_ONLY, pattern_source="sic")
        result = Campaign(spec).run(fa_sum)
        assert result.atpg_phase.skipped == tuple(skipped)
        assert f"{len(skipped)} skipped" in result.describe()

    def test_obd_atpg_no_skip_by_default(self, fa_sum):
        faults = list(obd_fault_universe(fa_sum, **NAND2_ONLY))[:4]
        outcomes, skipped = generate_atpg_outcomes(OBD, fa_sum, faults, set())
        assert skipped == []
        assert len(outcomes) == 4


#: The structural paths of each circuit, in the universe's walk order: depth
#: first back from each primary output, driver inputs in pin order.
STRUCTURAL_PATHS = {
    "c17": [
        "G1->G10->G22",
        "G3->G10->G22",
        "G2->G16->G22",
        "G3->G11->G16->G22",
        "G6->G11->G16->G22",
        "G2->G16->G23",
        "G3->G11->G16->G23",
        "G6->G11->G16->G23",
        "G3->G11->G19->G23",
        "G6->G11->G19->G23",
        "G7->G19->G23",
    ],
    "fa_sum": [
        "A->a_n->m1_ab_n->m1_ab->m1_n->m1->or12_xn->z1->or_final_xn->SUM",
        "B->b_n->m1_ab_n->m1_ab->m1_n->m1->or12_xn->z1->or_final_xn->SUM",
        "C->m1_n->m1->or12_xn->z1->or_final_xn->SUM",
        "A->a_n->m2_ab_n->m2_ab->m2_n->m2->or12_yn->z1->or_final_xn->SUM",
        "B->m2_ab_n->m2_ab->m2_n->m2->or12_yn->z1->or_final_xn->SUM",
        "C->c_n->m2_n->m2->or12_yn->z1->or_final_xn->SUM",
        "A->m3_ab_n->m3_ab->m3_n->m3->or34_xn->z2->or_final_yn->SUM",
        "B->b_n->m3_ab_n->m3_ab->m3_n->m3->or34_xn->z2->or_final_yn->SUM",
        "C->c_n->m3_n->m3->or34_xn->z2->or_final_yn->SUM",
        "A->m4_ab_n->m4_ab->m4_n->m4->or34_yn->z2->or_final_yn->SUM",
        "B->m4_ab_n->m4_ab->m4_n->m4->or34_yn->z2->or_final_yn->SUM",
        "C->m4_n->m4->or34_yn->z2->or_final_yn->SUM",
    ],
}


class TestPathDelay:
    """The path-delay model's simulate + ATPG path (satellite of ISSUE 2)."""

    @pytest.mark.parametrize(
        "fixture,limit,distinct",
        [
            ("c17_circuit", None, 11),  # the default limit
            ("c17_circuit", 5, 5),
            ("fa_sum", None, 12),
            ("fa_sum", 5, 5),
            # The limit counts distinct paths: a NAND used as an inverter
            # reads one net on both pins, and the walk follows that net once.
            ("fa_sum", 9, 9),
            ("fa_sum", 10, 10),
        ],
    )
    def test_universe_walk_order_and_limit(self, fixture, limit, distinct, request):
        circuit = request.getfixturevalue(fixture)
        options = {} if limit is None else {"limit": limit}
        paths = STRUCTURAL_PATHS[circuit.name][:distinct]
        assert path_delay_universe(circuit, **options).keys() == [
            f"{path}/{direction}" for path in paths for direction in ("rising", "falling")
        ]

    def test_net_read_on_two_pins_is_walked_once(self):
        circuit = LogicCircuit("twice")
        circuit.add_input("a")
        circuit.add_input("b")
        circuit.add_gate("g_inv", GateType.NAND2, ["a", "a"], "x")
        circuit.add_gate("g_out", GateType.NAND2, ["x", "b"], "y")
        circuit.add_output("y")
        assert _structural_paths(circuit, 1000) == [("a", "x", "y"), ("b", "y")]
        assert len(path_delay_universe(circuit, limit=2)) == 4

    @pytest.mark.parametrize(
        "ref,count",
        [("c17", 11), ("fa_sum", 12), ("rca:4", None), ("mult:3", None),
         ("rdag:60,5", 455), ("alu:3", None)],
    )
    def test_walk_yields_each_path_once(self, ref, count):
        """The uncapped walk repeats no path, so the universe keeps all it walks."""
        circuit = resolve_circuit(ref)
        paths = _structural_paths(circuit, 10**6)
        assert len(set(paths)) == len(paths)
        assert len(path_delay_universe(circuit, limit=10**6)) == 2 * len(paths)
        if count is not None:
            assert len(paths) == count

    @pytest.mark.parametrize("fixture", ["c17_circuit", "fa_sum"])
    def test_paths_follow_gates_and_span_the_depth(self, fixture, request):
        """Every path runs from a primary input through driver gates to a
        primary output, and the longest one is as long as the circuit is deep."""
        circuit = request.getfixturevalue(fixture)
        faults = list(path_delay_universe(circuit))
        for fault in faults:
            assert fault.launch_net in circuit.primary_inputs
            assert fault.nets[-1] in circuit.primary_outputs
            for source, sink in zip(fault.nets, fault.nets[1:]):
                assert source in circuit.driver_of(sink).inputs
        assert max(len(fault.nets) - 1 for fault in faults) == circuit.depth

    def test_simulate_engines_agree(self, fa_sum):
        faults = list(path_delay_universe(fa_sum))
        pairs = exhaustive_pairs(fa_sum)
        packed = get_model("path-delay").simulate(fa_sum, pairs, faults, engine="packed")
        serial = get_model("path-delay").simulate(fa_sum, pairs, faults, engine="serial")
        assert packed.detections == serial.detections
        assert packed.num_tests == serial.num_tests == len(pairs)

    def test_detection_matches_is_sensitized(self, fa_sum):
        faults = list(path_delay_universe(fa_sum))
        pairs = exhaustive_pairs(fa_sum)[:20]
        report = get_model("path-delay").simulate(fa_sum, pairs, faults)
        for fault in faults:
            for index, pair in enumerate(pairs):
                expected = is_sensitized(fa_sum, fault, pair[0], pair[1])
                assert (index in report.detections[fault.key]) == expected
                assert _detects(serial_simulate_path_delay, fa_sum, fault, pair) == expected

    def test_atpg_generates_sensitizing_pairs(self, fa_sum):
        """Full-adder circuit: every generated test sensitizes its path."""
        for fault in path_delay_universe(fa_sum):
            result = generate_path_delay_test(fa_sum, fault)
            assert result.success, fault.key
            ((first, second),) = result.tests
            assert is_sensitized(fa_sum, fault, first, second)

    def test_atpg_matches_exhaustive_simulation(self, fa_full):
        """ATPG testability agrees with exhaustive two-pattern simulation on
        the complete full adder (whose XOR trees make some paths untestable)."""
        faults = list(path_delay_universe(fa_full))
        report = get_model("path-delay").simulate(fa_full, exhaustive_pairs(fa_full), faults)
        for fault in faults:
            result = generate_path_delay_test(fa_full, fault)
            assert not result.aborted, fault.key
            assert result.success == bool(report.detections[fault.key]), fault.key

    def test_drop_detected_first_index_parity(self, fa_sum):
        faults = list(path_delay_universe(fa_sum))
        pairs = exhaustive_pairs(fa_sum)
        full = get_model("path-delay").simulate(fa_sum, pairs, faults)
        for engine in ("packed", "serial"):
            dropped = get_model("path-delay").simulate(fa_sum, pairs, faults,
                                          drop_detected=True, engine=engine)
            for key, detecting in full.detections.items():
                assert dropped.detections[key] == detecting[:1], (key, engine)


def _reference_cover(detections):
    """The set-based eager greedy cover over index lists, kept as a reference."""
    detectable = {key for key, tests in detections.items() if tests}
    fault_sets: dict[int, set[str]] = {}
    for key, tests in detections.items():
        for index in tests:
            fault_sets.setdefault(index, set()).add(key)
    uncovered, selected = set(detectable), []
    while uncovered:
        best_index, best_gain = None, 0
        for index in sorted(fault_sets):
            gain = len(fault_sets[index] & uncovered)
            if gain > best_gain:
                best_index, best_gain = index, gain
        if best_index is None:
            break
        selected.append(best_index)
        uncovered -= fault_sets[best_index]
    never_detected = set(detections) - detectable
    return (
        tuple(selected),
        tuple(sorted(detectable - uncovered)),
        tuple(sorted(uncovered | never_detected)),
    )


class TestFaultSimulation:
    def test_forced_net_simulation(self, c17_circuit):
        values = simulate_with_forced_net(c17_circuit, (1, 1, 1, 1, 1), "G11", 1)
        assert values["G11"] == 1

    def test_transition_needs_both_patterns(self, fa_sum):
        fault = TransitionFault("m4", "slow-to-rise")
        # Second pattern does not set m4=1 -> no detection.
        assert not _detects(serial_simulate_transition, fa_sum, fault, ((0, 0, 0), (0, 1, 0)))

    def test_obd_detection_is_input_specific(self, fa_sum):
        """The same output transition through a different input does not count."""
        fault = ObdFault("nand_m4_ab", GateType.NAND2, "PA")
        gate = fa_sum.gate("nand_m4_ab")
        detected_pairs = [
            pair for pair in exhaustive_pairs(fa_sum)
            if _detects(serial_simulate_obd, fa_sum, fault, pair)
        ]
        for pair in detected_pairs:
            values1 = simulate_pattern(fa_sum, pair[0])
            values2 = simulate_pattern(fa_sum, pair[1])
            local = (
                tuple(values1[n] for n in gate.inputs),
                tuple(values2[n] for n in gate.inputs),
            )
            assert local == ((1, 1), (0, 1))

    def test_exhaustive_beats_random_for_obd(self, fa_sum):
        faults = obd_fault_universe(fa_sum, gate_types=[GateType.NAND2])
        exhaustive = get_model("obd").simulate(fa_sum, exhaustive_pairs(fa_sum), faults)
        random_report = get_model("obd").simulate(fa_sum, random_pairs(fa_sum, 10, seed=3), faults)
        assert len(exhaustive.detected_faults) >= len(random_report.detected_faults)

    def test_compaction_covers_all_detected(self, fa_sum):
        faults = obd_fault_universe(fa_sum, gate_types=[GateType.NAND2])
        report = get_model("obd").simulate(fa_sum, exhaustive_pairs(fa_sum), faults)
        compaction = greedy_compaction(report)
        assert set(compaction.covered_faults) == set(report.detected_faults)
        assert compaction.size <= report.num_tests

    def test_compaction_tie_break_is_lowest_index(self):
        """Regression: ties on gain pick the lowest test index, independent of
        the order faults (and hence candidate tests) appear in the report."""
        detections = {"f1": [5, 2], "f2": [2], "f3": [5], "f4": [7]}
        result = greedy_compaction(report_from_lists(detections, 8))
        # Tests 2 and 5 both cover two faults; 2 wins the tie, then 5 and 7.
        assert result.selected_indices == (2, 5, 7)

        shuffled = {"f4": [7], "f3": [5], "f1": [2, 5], "f2": [2]}
        permuted = greedy_compaction(report_from_lists(shuffled, 8))
        assert permuted.selected_indices == result.selected_indices

    def test_compaction_reports_never_detected_faults(self):
        report = report_from_lists({"a": [0], "b": []}, 1)
        result = greedy_compaction(report)
        assert result.selected_indices == (0,)
        assert result.covered_faults == ("a",)
        assert result.uncovered_faults == ("b",)

    def test_compaction_matches_set_cover_reference(self):
        """The matrix cover picks exactly what the set-based eager cover did."""
        rng = random.Random(11)
        cases = [({}, 0), ({"a": [], "b": []}, 0), ({"a": [], "b": [3]}, 4)]
        for _ in range(60):
            num_tests = rng.randrange(1, 24)
            density = rng.random()
            detections = {
                f"f{n}": [i for i in range(num_tests) if rng.random() < density / 4]
                for n in range(rng.randrange(0, 40))
            }
            cases.append((detections, num_tests))
        for detections, num_tests in cases:
            result = greedy_compaction(report_from_lists(detections, num_tests))
            assert (
                result.selected_indices, result.covered_faults, result.uncovered_faults
            ) == _reference_cover(detections), (detections, num_tests)

    def test_coverage_report_zero_fault_universe(self):
        cov = coverage_from_report("sa", report_from_lists({}, 5))
        assert cov.total_faults == 0
        assert cov.coverage == 1.0
        assert cov.test_efficiency == 1.0
        assert cov.detected == 0
        assert "0/0" in cov.describe() or "0" in cov.describe()

    def test_coverage_report_untestable_and_aborted_accounting(self):
        cov = CoverageReport(
            model="obd", total_faults=10, detected=6, untestable=3, aborted=1, num_tests=4
        )
        assert cov.coverage == pytest.approx(0.6)
        # Proven-untestable faults count toward efficiency; aborted ones do not.
        assert cov.test_efficiency == pytest.approx(0.9)
        text = cov.describe()
        assert "3 untestable" in text and "1 aborted" in text

    def test_coverage_report_arithmetic(self, c17_circuit):
        faults = list(stuck_at_universe(c17_circuit))
        report = get_model("stuck-at").simulate(
            c17_circuit, exhaustive_patterns(c17_circuit), faults
        )
        cov = coverage_from_report("sa", report)
        assert cov.total_faults == len(faults)
        assert 0 <= cov.detected <= cov.total_faults
        assert 0.0 <= cov.coverage <= 1.0
        assert "sa" in cov.describe()

    def test_pattern_sources(self, c17_circuit):
        assert len(exhaustive_patterns(c17_circuit)) == 32
        assert len(random_patterns(c17_circuit, 7, seed=1)) == 7
        pairs = random_pairs(c17_circuit, 5, seed=2)
        assert len(pairs) == 5 and all(a != b for a, b in pairs)
        sic = single_input_change_pairs(c17_circuit)
        assert all(sum(x != y for x, y in zip(a, b)) == 1 for a, b in sic)

    def test_random_pairs_zero_input_circuit_raises(self):
        """Regression: a zero-input circuit used to spin forever."""
        from repro.logic import LogicCircuit, LogicCircuitError

        empty = LogicCircuit("empty")
        with pytest.raises(LogicCircuitError):
            random_pairs(empty, 1)

    def test_random_pairs_tiny_input_space_terminates(self):
        """Regression: with one input only 2 of 4 draws are valid pairs; the
        generator must still return exactly *count* distinct-pattern pairs."""
        from repro.logic import GateType, LogicCircuit

        c = LogicCircuit("tiny")
        c.add_input("a")
        c.add_output("y")
        c.add_gate("g", GateType.INV, ["a"], "y")
        for seed in range(5):
            pairs = random_pairs(c, 200, seed=seed)
            assert len(pairs) == 200
            assert all(v1 != v2 for v1, v2 in pairs)
            assert set(pairs) <= {((0,), (1,)), ((1,), (0,))}

    def test_drop_detected_parity_across_models(self, fa_sum):
        """drop_detected records exactly the first detecting index for every
        fault, in all three models and both engines."""
        pairs = exhaustive_pairs(fa_sum)
        patterns = exhaustive_patterns(fa_sum)
        cases = [
            (get_model("stuck-at").simulate, patterns, list(stuck_at_universe(fa_sum))),
            (get_model("transition").simulate, pairs, list(transition_fault_universe(fa_sum))),
            (get_model("obd").simulate, pairs, list(obd_fault_universe(fa_sum))),
        ]
        for simulate, tests, faults in cases:
            full = simulate(fa_sum, tests, faults)
            for engine in ("packed", "serial"):
                dropped = simulate(fa_sum, tests, faults, drop_detected=True, engine=engine)
                for key, detecting in full.detections.items():
                    expected = detecting[:1]
                    assert dropped.detections[key] == expected, (key, engine)
