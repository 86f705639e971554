"""Tests for the gate-level substrate: gates, netlists, simulation, circuits
and transistor-level expansion."""

from __future__ import annotations

from itertools import product

import pytest

from repro.logic import (
    GateType,
    LogicCircuit,
    LogicCircuitError,
    all_input_patterns,
    controlling_value,
    evaluate_gate,
    expand_to_transistors,
    simulate,
    simulate_pattern,
    truth_table,
    two_pattern_input_waveforms,
    two_to_one_mux,
)
from repro.faults import obd_fault_universe
from repro.spice import operating_point


class TestGateEvaluation:
    @pytest.mark.parametrize(
        "gate,inputs,expected",
        [
            (GateType.INV, (0,), 1),
            (GateType.INV, (1,), 0),
            (GateType.NAND2, (1, 1), 0),
            (GateType.NAND2, (0, 1), 1),
            (GateType.NOR2, (0, 0), 1),
            (GateType.NOR2, (1, 0), 0),
            (GateType.XOR2, (1, 0), 1),
            (GateType.XOR2, (1, 1), 0),
            (GateType.AOI21, (1, 1, 0), 0),
            (GateType.AOI21, (0, 1, 0), 1),
            (GateType.OAI21, (0, 0, 1), 1),
            (GateType.OAI21, (1, 0, 1), 0),
            (GateType.NAND3, (1, 1, 1), 0),
            (GateType.NOR3, (0, 0, 0), 1),
        ],
    )
    def test_truth_values(self, gate, inputs, expected):
        assert evaluate_gate(gate, inputs) == expected

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            evaluate_gate(GateType.NAND2, (1,))

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            evaluate_gate(GateType.INV, (2,))

    def test_truth_table_completeness(self):
        table = truth_table(GateType.NAND2)
        assert len(table) == 4
        assert table[(1, 1)] == 0

    def test_controlling_values(self):
        assert controlling_value(GateType.NAND2) == 0
        assert controlling_value(GateType.NOR3) == 1
        assert controlling_value(GateType.XOR2) is None

    @pytest.mark.parametrize("gate", list(GateType))
    def test_controlling_value_matches_truth_table(self, gate):
        """The table agrees with the gate's truth table: a gate has a
        controlling value when exactly one value forces its output from any
        single pin (a one-input gate, where both do, has none)."""
        table = truth_table(gate)

        def controls(value):
            return all(
                len({out for bits, out in table.items() if bits[pin] == value}) == 1
                for pin in range(gate.num_inputs)
            )

        forcing = [value for value in (0, 1) if controls(value)]
        expected = forcing[0] if len(forcing) == 1 else None
        assert controlling_value(gate) == expected

    def test_pattern_helpers(self):
        assert len(all_input_patterns(3)) == 8


class TestLogicCircuit:
    def test_duplicate_gate_rejected(self):
        c = LogicCircuit("t")
        c.add_input("a")
        c.add_gate("g1", GateType.INV, ["a"], "x")
        with pytest.raises(LogicCircuitError):
            c.add_gate("g1", GateType.INV, ["a"], "y")

    def test_double_driver_rejected(self):
        c = LogicCircuit("t")
        c.add_input("a")
        c.add_gate("g1", GateType.INV, ["a"], "x")
        with pytest.raises(LogicCircuitError):
            c.add_gate("g2", GateType.INV, ["a"], "x")

    def test_validate_catches_undriven_nets(self):
        c = LogicCircuit("t")
        c.add_input("a")
        c.add_gate("g1", GateType.NAND2, ["a", "floating"], "x")
        c.add_output("x")
        with pytest.raises(LogicCircuitError):
            c.validate()

    def test_levelization_and_depth(self, fa_sum):
        levels = fa_sum.levelize()
        assert levels["A"] == 0
        assert fa_sum.depth == 9

    def test_levels_grow_along_every_gate(self, c17_circuit, fa_sum):
        """A gate's output sits exactly one level above its deepest input."""
        for circuit in (c17_circuit, fa_sum):
            levels = circuit.levelize()
            for gate in circuit.gates:
                assert levels[gate.output] == 1 + max(levels[net] for net in gate.inputs)

    def test_driver_and_loads(self, c17_circuit):
        gate = c17_circuit.driver_of("G22")
        assert gate is not None and gate.name == "g22"
        loads = c17_circuit.loads_of("G11")
        assert {g.name for g, _ in loads} == {"g16", "g19"}

    def test_fanout_cone(self, c17_circuit):
        assert "G22" in c17_circuit.fanout_cone("G10")

    def test_gate_count_by_type(self, fa_sum):
        assert fa_sum.gate_count(GateType.NAND2) == 14
        assert fa_sum.gate_count() == 28


class TestLogicSimulation:
    def test_full_adder_sum_function(self, fa_sum):
        for bits in product((0, 1), repeat=3):
            expected = bits[0] ^ bits[1] ^ bits[2]
            assert simulate_pattern(fa_sum, bits)["SUM"] == expected

    def test_full_adder_complete(self, fa_full):
        for bits in product((0, 1), repeat=3):
            values = simulate_pattern(fa_full, bits)
            s, cout = (values[net] for net in fa_full.primary_outputs)
            assert s == bits[0] ^ bits[1] ^ bits[2]
            assert cout == int(sum(bits) >= 2)

    def test_ripple_carry_adder_arithmetic(self, rca4):
        for a, b, ci in [(3, 5, 0), (15, 15, 1), (9, 6, 1), (0, 0, 0)]:
            pattern = [(a >> i) & 1 for i in range(4)] + [(b >> i) & 1 for i in range(4)] + [ci]
            values = simulate_pattern(rca4, pattern)
            outs = [values[net] for net in rca4.primary_outputs]
            total = sum(bit << i for i, bit in enumerate(outs[:4])) + (outs[4] << 4)
            assert total == a + b + ci

    def test_c17_known_vector(self, c17_circuit):
        values = simulate(c17_circuit, {"G1": 1, "G2": 1, "G3": 0, "G6": 1, "G7": 0})
        assert values["G22"] in (0, 1) and values["G23"] in (0, 1)

    def test_missing_input_rejected(self, c17_circuit):
        with pytest.raises(LogicCircuitError):
            simulate(c17_circuit, {"G1": 1})

    def test_wrong_pattern_width(self, c17_circuit):
        with pytest.raises(LogicCircuitError):
            simulate_pattern(c17_circuit, (1, 0))

    def test_mux_function(self):
        mux = two_to_one_mux()
        for d0, d1, s in product((0, 1), repeat=3):
            expected = d1 if s else d0
            values = simulate_pattern(mux, (d0, d1, s))
            assert [values[net] for net in mux.primary_outputs] == [expected]


class TestExpansion:
    def test_site_enumeration_counts(self, fa_sum):
        nand_sites = obd_fault_universe(fa_sum, gate_types=[GateType.NAND2])
        assert len(nand_sites) == 56
        all_sites = obd_fault_universe(fa_sum)
        assert len(all_sites) == 56 + 2 * 14  # NANDs + inverters

    def test_site_keys_unique(self, fa_sum):
        sites = obd_fault_universe(fa_sum)
        keys = [s.key for s in sites]
        assert len(keys) == len(set(keys))

    def test_expand_static_levels_match_logic(self, fa_sum, tech):
        pattern = (1, 0, 1)
        expanded = expand_to_transistors(
            fa_sum, tech, input_levels=dict(zip(fa_sum.primary_inputs, pattern))
        )
        op = operating_point(expanded.circuit)
        steady = simulate_pattern(fa_sum, pattern)
        for net in ("SUM", "m1", "z1"):
            voltage = op.voltage(net)
            expected = steady[net]
            assert (voltage > 0.8 * tech.vdd) == bool(expected), net

    def test_two_pattern_input_waveforms(self, fa_sum, tech):
        """Each input holds its first level until launch and its second after
        the edge, and only the inputs that change move."""
        first, second = (0, 1, 1), (1, 1, 0)
        waveforms = two_pattern_input_waveforms(
            fa_sum, tech, first, second, launch_time=2e-9, transition_time=0.1e-9
        )
        assert list(waveforms) == fa_sum.primary_inputs
        for net, bit1, bit2 in zip(fa_sum.primary_inputs, first, second):
            wf = waveforms[net]
            assert wf(1e-9) == pytest.approx(tech.logic_level(bit1))
            assert wf(2.05e-9) == pytest.approx(
                (tech.logic_level(bit1) + tech.logic_level(bit2)) / 2
            )
            assert wf(3e-9) == pytest.approx(tech.logic_level(bit2))
        with pytest.raises(ValueError):
            two_pattern_input_waveforms(fa_sum, tech, (0, 1), (1, 1), launch_time=2e-9)

    def test_expand_counts_cells(self, fa_sum, tech):
        expanded = expand_to_transistors(fa_sum, tech)
        assert len(expanded.cells) == len(fa_sum.gates)
        assert len(expanded.circuit.mosfets()) == 14 * 4 + 14 * 2
