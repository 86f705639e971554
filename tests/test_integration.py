"""Cross-layer integration tests (transistor level <-> gate level <-> ATPG).

These run real (coarse-step) SPICE simulations, so they are marked slow where
they take more than a couple of seconds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.vtc import analyze_vtc
from repro.atpg import generate_obd_test
from repro.cells import build_inverter_dc_circuit, build_nand_harness, characterize_harness
from repro.core import (
    BreakdownStage,
    OBDDefect,
    harness_preparer,
    inject_into_cell,
)
from repro.faults import ObdFault
from repro.logic import GateType, expand_to_transistors, simulate_pattern
from repro.spice import dc_sweep, operating_point


class TestNandDefectDelays:
    """Transistor-level behaviour matches the paper's qualitative Table-1 claims."""

    @pytest.fixture(scope="class")
    def delays(self, tech):
        """Fault-free and NA-defective delays for the falling sequence."""
        results = {}
        for stage in (None, BreakdownStage.MBD1, BreakdownStage.MBD3):
            harness = build_nand_harness(tech, ((0, 1), (1, 1)))
            defect = None if stage is None else OBDDefect("NA", stage)
            run = characterize_harness(
                harness, prepare=harness_preparer(defect), dt=8e-12, capture_window=1.5e-9
            )
            results[stage] = run.measurement
        return results

    @pytest.mark.slow
    def test_nmos_delay_grows_with_stage(self, delays):
        fault_free = delays[None].delay
        mbd1 = delays[BreakdownStage.MBD1].delay
        mbd3 = delays[BreakdownStage.MBD3].delay
        assert fault_free is not None and mbd1 is not None and mbd3 is not None
        assert mbd1 > 1.2 * fault_free
        assert mbd3 > mbd1

    @pytest.mark.slow
    def test_pmos_defect_input_specific(self, tech):
        """PA slows (11,01) but leaves (11,10) at the fault-free value."""
        measurements = {}
        for seq in (((1, 1), (0, 1)), ((1, 1), (1, 0))):
            clean = characterize_harness(build_nand_harness(tech, seq), dt=8e-12)
            faulty = characterize_harness(
                build_nand_harness(tech, seq),
                prepare=harness_preparer(OBDDefect("PA", BreakdownStage.MBD2)),
                dt=8e-12,
            )
            measurements[seq] = (clean.delay, faulty.delay)
        excited_clean, excited_faulty = measurements[((1, 1), (0, 1))]
        unexcited_clean, unexcited_faulty = measurements[((1, 1), (1, 0))]
        assert excited_faulty > 1.5 * excited_clean
        assert abs(unexcited_faulty - unexcited_clean) < 0.2 * unexcited_clean


class TestInverterVtcIntegration:
    def test_nmos_obd_raises_vol(self, tech):
        metrics = {}
        for stage in (None, BreakdownStage.MBD2):
            circuit, cell = build_inverter_dc_circuit(tech)
            if stage is not None:
                inject_into_cell(circuit, cell, OBDDefect("NA", stage))
            sweep = dc_sweep(circuit, "vin", np.linspace(0, tech.vdd, 23), record_nodes=["out"])
            metrics[stage] = analyze_vtc(sweep.transfer_curve("out"), tech.vdd)
        assert metrics[BreakdownStage.MBD2].vol > metrics[None].vol + 0.02
        assert metrics[BreakdownStage.MBD2].voh == pytest.approx(metrics[None].voh, abs=0.05)

    def test_pmos_obd_lowers_voh(self, tech):
        circuit, cell = build_inverter_dc_circuit(tech)
        inject_into_cell(circuit, cell, OBDDefect("PA", BreakdownStage.MBD2))
        sweep = dc_sweep(circuit, "vin", np.linspace(0, tech.vdd, 23), record_nodes=["out"])
        metrics = analyze_vtc(sweep.transfer_curve("out"), tech.vdd)
        assert metrics.voh < tech.vdd - 0.02
        assert metrics.vol == pytest.approx(0.0, abs=0.05)


class TestGateLevelToTransistorLevel:
    def test_expanded_full_adder_matches_logic_simulation(self, fa_sum, tech):
        pattern = (0, 1, 1)
        expanded = expand_to_transistors(
            fa_sum, tech, input_levels=dict(zip(fa_sum.primary_inputs, pattern))
        )
        op = operating_point(expanded.circuit)
        steady = simulate_pattern(fa_sum, pattern)
        for net in fa_sum.nets():
            if net in fa_sum.primary_inputs:
                continue
            voltage = op.voltage(net)
            assert (voltage > tech.half_vdd) == bool(steady[net]), net

    def test_atpg_sequence_justifies_excitation_at_transistor_level(self, fa_sum, tech):
        """The PI sequence found by OBD ATPG really drives the defective gate's
        inputs through the required local cube (checked via DC solutions)."""
        fault = ObdFault("nand_m4", GateType.NAND2, "NA")
        result = generate_obd_test(fa_sum, fault)
        assert result.success
        gate = fa_sum.gate("nand_m4")
        (pair,) = result.tests
        # The gate's inputs under the pair are the local sequence it excites.
        local_sequence = tuple(
            tuple(simulate_pattern(fa_sum, pattern)[n] for n in gate.inputs) for pattern in pair
        )
        assert local_sequence in fault.local_sequences
        for pattern, local in zip(pair, local_sequence):
            expanded = expand_to_transistors(
                fa_sum, tech, input_levels=dict(zip(fa_sum.primary_inputs, pattern))
            )
            op = operating_point(expanded.circuit)
            for net, bit in zip(gate.inputs, local):
                assert (op.voltage(net) > tech.half_vdd) == bool(bit)
