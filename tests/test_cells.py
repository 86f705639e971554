"""Tests for the transistor-level cell library, fixtures and characterization."""

from __future__ import annotations

import pytest

from repro.cells import (
    GateHarness,
    Technology,
    build_cell,
    build_gate_harness,
    build_inverter_dc_circuit,
    build_nand_harness,
    characterize_harness,
    default_technology,
    pin_names,
    validate_sequence,
)
from repro.logic.gates import GateType
from repro.spice import Circuit, operating_point


def _static_output(tech, cell_type, bits):
    """DC output voltage of a cell with its inputs tied to static levels."""
    c = Circuit("static")
    c.add_voltage_source("vdd", "vdd", "0", dc=tech.vdd)
    inputs = []
    for i, bit in enumerate(bits):
        node = f"in{i}"
        c.add_voltage_source(f"v{i}", node, "0", dc=tech.logic_level(bit))
        inputs.append(node)
    build_cell(c, tech, cell_type, "dut", inputs, "out")
    return operating_point(c).voltage("out")


class TestTechnology:
    def test_default_values(self):
        tech = default_technology()
        assert tech.vdd == pytest.approx(3.3)
        assert tech.nmos.polarity == "n"
        assert tech.pmos.polarity == "p"

    def test_logic_levels(self, tech):
        assert tech.logic_level(0) == 0.0
        assert tech.logic_level(1) == tech.vdd
        with pytest.raises(ValueError):
            tech.logic_level(2)

    def test_validation(self):
        with pytest.raises(ValueError):
            Technology(vdd=-1.0)


class TestCellTruthTables:
    """Every cell's static (DC) behaviour matches its Boolean function."""

    @pytest.mark.parametrize(
        "cell_type,gate_type",
        [("INV", GateType.INV), ("NAND2", GateType.NAND2), ("NOR2", GateType.NOR2)],
    )
    def test_two_input_cells(self, tech, cell_type, gate_type):
        n = gate_type.num_inputs
        for value in range(2**n):
            bits = tuple((value >> (n - 1 - i)) & 1 for i in range(n))
            expected = gate_type.evaluate(bits)
            out = _static_output(tech, cell_type, bits)
            if expected:
                assert out > 0.9 * tech.vdd, (cell_type, bits, out)
            else:
                assert out < 0.1 * tech.vdd, (cell_type, bits, out)

    @pytest.mark.parametrize("cell_type,gate_type", [("AOI21", GateType.AOI21), ("OAI21", GateType.OAI21)])
    def test_complex_cells(self, tech, cell_type, gate_type):
        for value in range(8):
            bits = tuple((value >> (2 - i)) & 1 for i in range(3))
            expected = gate_type.evaluate(bits)
            out = _static_output(tech, cell_type, bits)
            if expected:
                assert out > 0.9 * tech.vdd
            else:
                assert out < 0.1 * tech.vdd

    def test_nand3_truth_table(self, tech):
        for value in range(8):
            bits = tuple((value >> (2 - i)) & 1 for i in range(3))
            out = _static_output(tech, "NAND3", bits)
            expected = GateType.NAND3.evaluate(bits)
            assert (out > 0.9 * tech.vdd) == bool(expected)


class TestCellStructure:
    def test_nand_sites(self, tech):
        c = Circuit("t")
        c.add_voltage_source("vdd", "vdd", "0", dc=tech.vdd)
        cell = build_cell(c, tech, "NAND2", "g1", ["a", "b"], "out")
        assert sorted(cell.sites()) == ["NA", "NB", "PA", "PB"]
        na = cell.site("NA")
        assert na.polarity == "n"
        assert na.drain == "out"

    def test_nor_series_pullup(self, tech):
        c = Circuit("t")
        c.add_voltage_source("vdd", "vdd", "0", dc=tech.vdd)
        cell = build_cell(c, tech, "NOR2", "g1", ["a", "b"], "out")
        pa = cell.site("PA")
        pb = cell.site("PB")
        assert pa.source == "vdd"
        assert pb.drain == "out"
        assert pa.drain == pb.source  # shared internal node

    def test_unknown_site_raises(self, tech):
        c = Circuit("t")
        c.add_voltage_source("vdd", "vdd", "0", dc=tech.vdd)
        cell = build_cell(c, tech, "INV", "g1", ["a"], "out")
        with pytest.raises(KeyError):
            cell.site("NB")

    def test_unknown_cell_type(self, tech):
        c = Circuit("t")
        with pytest.raises(KeyError):
            build_cell(c, tech, "XYZ", "g1", ["a"], "out")

    def test_pin_names(self):
        assert pin_names(2) == ["A", "B"]
        assert pin_names(3) == ["A", "B", "C"]
        with pytest.raises(ValueError):
            pin_names(0)

    def test_wrong_input_count(self, tech):
        c = Circuit("t")
        c.add_voltage_source("vdd", "vdd", "0", dc=tech.vdd)
        with pytest.raises(ValueError):
            build_cell(c, tech, "NAND2", "g1", ["a"], "out")


class TestHarness:
    def test_harness_structure(self, tech):
        harness = build_nand_harness(tech, ((0, 1), (1, 1)))
        assert isinstance(harness, GateHarness)
        assert harness.gate_type == GateType.NAND2
        assert harness.switching_pins == ["A"]
        assert harness.pin_edge("A") == "rising"
        assert harness.pin_edge("B") is None
        assert harness.output_edge == "falling"
        assert harness.expected_outputs == (1, 0)

    def test_harness_rising_output(self, tech):
        harness = build_nand_harness(tech, ((1, 1), (0, 1)))
        assert harness.output_edge == "rising"
        assert harness.switching_pins == ["A"]

    def test_sequence_validation(self):
        with pytest.raises(ValueError):
            validate_sequence("NAND2", ((0, 1, 1), (1, 1, 1)))
        with pytest.raises(ValueError):
            validate_sequence("NAND2", ((0, 2), (1, 1)))

    def test_harness_characterization_fault_free(self, tech):
        harness = build_nand_harness(tech, ((0, 1), (1, 1)))
        run = characterize_harness(harness, dt=8e-12)
        assert run.classification == "transition"
        assert run.delay is not None
        assert 10e-12 < run.delay < 400e-12

    def test_harness_no_output_transition(self, tech):
        harness = build_nand_harness(tech, ((0, 0), (0, 1)))
        run = characterize_harness(harness, dt=8e-12)
        assert run.measurement.classification == "no-transition-expected"

    def test_gate_harness_for_nor(self, tech):
        harness = build_gate_harness(tech, "NOR2", ((0, 0), (0, 1)))
        run = characterize_harness(harness, dt=8e-12)
        assert run.classification == "transition"

    def test_inverter_dc_circuit(self, tech):
        circuit, cell = build_inverter_dc_circuit(tech)
        assert cell.cell_type == "INV"
        op = operating_point(circuit)
        assert op.voltage("out") == pytest.approx(tech.vdd, abs=0.01)

    def test_load_stage_validation(self, tech):
        with pytest.raises(ValueError):
            build_gate_harness(tech, "NAND2", ((0, 1), (1, 1)), load_stages=0)
