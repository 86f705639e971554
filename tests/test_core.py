"""Tests for the OBD core: breakdown ladder, defects, injection, progression,
excitation and detection conditions."""

from __future__ import annotations

import pytest

from repro.cells import build_gate_harness, build_nand_harness
from repro.core import (
    NMOS_STAGE_PARAMETERS,
    PMOS_STAGE_PARAMETERS,
    BreakdownParameters,
    BreakdownStage,
    OBDDefect,
    ProgressionModel,
    all_sequences,
    analyze_gate,
    compare_em_and_obd,
    excitation_conditions,
    excited_sites,
    format_sequence,
    gate_structure,
    harness_preparer,
    inject_into_harness,
    is_excited_obd,
    is_exercised_em,
    output_switches,
    paper_nand_test_set,
    paper_nor_test_set,
    stage_parameters,
)
from repro.spice import operating_point


class TestBreakdownLadder:
    def test_stage_ordering(self):
        stages = BreakdownStage.progression()
        assert stages[0] == BreakdownStage.FAULT_FREE
        assert stages[-1] == BreakdownStage.HBD
        assert BreakdownStage.MBD1 < BreakdownStage.MBD3

    def test_nmos_table1_values(self):
        assert NMOS_STAGE_PARAMETERS[BreakdownStage.MBD2].saturation_current == pytest.approx(1e-27)
        assert NMOS_STAGE_PARAMETERS[BreakdownStage.MBD2].resistance == pytest.approx(100.0)
        assert NMOS_STAGE_PARAMETERS[BreakdownStage.HBD].resistance == pytest.approx(0.05)

    def test_pmos_table1_values(self):
        assert PMOS_STAGE_PARAMETERS[BreakdownStage.MBD1].resistance == pytest.approx(1000.0)
        assert PMOS_STAGE_PARAMETERS[BreakdownStage.MBD3].saturation_current == pytest.approx(1.2e-29)

    def test_progression_monotonic_in_severity(self):
        """Leakage grows and resistance shrinks as breakdown progresses."""
        for ladder in (NMOS_STAGE_PARAMETERS, PMOS_STAGE_PARAMETERS):
            ordered = [ladder[s] for s in BreakdownStage.progression()]
            isats = [p.saturation_current for p in ordered]
            resistances = [p.resistance for p in ordered]
            assert all(b >= a for a, b in zip(isats, isats[1:]))
            assert all(b <= a for a, b in zip(resistances, resistances[1:]))

    def test_stage_parameters_lookup(self):
        assert stage_parameters("n", BreakdownStage.MBD1).resistance == 500.0
        assert stage_parameters("p", BreakdownStage.MBD1).resistance == 1000.0
        with pytest.raises(ValueError):
            stage_parameters("z", BreakdownStage.MBD1)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            BreakdownParameters(saturation_current=-1.0, resistance=1.0)
        with pytest.raises(ValueError):
            BreakdownParameters(saturation_current=1e-20, resistance=0.0)


class TestDefect:
    def test_site_parsing(self):
        defect = OBDDefect("na", BreakdownStage.MBD1)
        assert defect.site == "NA"
        assert defect.polarity == "n"
        assert defect.input_pin == "A"

    def test_effective_parameters_from_stage(self):
        defect = OBDDefect("PB", BreakdownStage.MBD2)
        assert defect.effective_parameters.resistance == pytest.approx(900.0)

    def test_explicit_parameters_override(self):
        params = BreakdownParameters(1e-20, 42.0)
        defect = OBDDefect("NA", BreakdownStage.MBD1, parameters=params)
        assert defect.effective_parameters.resistance == 42.0

    def test_in_gate(self):
        defect = OBDDefect("NA", BreakdownStage.MBD1)
        bound = defect.in_gate("g7")
        assert bound.key == "g7/NA@mbd1"

    def test_invalid_site_rejected(self):
        with pytest.raises(ValueError):
            OBDDefect("A")
        with pytest.raises(ValueError):
            OBDDefect("XA")

    def test_defect_sites_for_gate(self, tech):
        """A harness DUT exposes one OBD site per transistor, each a valid defect site."""
        nand2 = build_nand_harness(tech, ((0, 1), (1, 1))).dut.sites()
        nand3 = build_gate_harness(tech, "NAND3", ((0, 1, 1), (1, 1, 1))).dut.sites()
        assert sorted(nand2) == ["NA", "NB", "PA", "PB"]
        assert sorted(nand3) == ["NA", "NB", "NC", "PA", "PB", "PC"]
        for site in nand2 + nand3:
            assert OBDDefect(site).site == site


class TestInjection:
    def test_injects_four_elements(self, tech):
        harness = build_nand_harness(tech, ((0, 1), (1, 1)))
        before = len(harness.circuit)
        injected = inject_into_harness(harness, OBDDefect("NA", BreakdownStage.MBD2))
        assert len(harness.circuit) == before + 4
        assert injected.breakdown_node in harness.circuit.nodes()
        assert all(name in harness.circuit for name in injected.element_names)

    def test_injection_adds_only_its_elements(self, tech):
        """Injection adds exactly the defect's elements; the fault-free
        preparer leaves the harness untouched."""
        harness = build_nand_harness(tech, ((0, 1), (1, 1)))
        before = {element.name for element in harness.circuit}
        harness_preparer(None)(harness)
        assert {element.name for element in harness.circuit} == before
        injected = inject_into_harness(harness, OBDDefect("PB", BreakdownStage.MBD1))
        after = {element.name for element in harness.circuit}
        assert after - before == set(injected.element_names)
        assert before <= after

    def test_nmos_injection_degrades_static_input(self, tech):
        """With the defective NMOS gate held high, its input level droops."""
        clean = build_nand_harness(tech, ((1, 1), (1, 1)))
        op_clean = operating_point(clean.circuit)
        faulty = build_nand_harness(tech, ((1, 1), (1, 1)))
        inject_into_harness(faulty, OBDDefect("NA", BreakdownStage.MBD3))
        op_faulty = operating_point(faulty.circuit)
        node = clean.input_nodes["A"]
        assert op_faulty.voltage(node) < op_clean.voltage(node) - 0.2

    def test_polarity_mismatch_impossible(self, tech):
        harness = build_nand_harness(tech, ((0, 1), (1, 1)))
        defect = OBDDefect("NA", BreakdownStage.MBD1)
        injected = inject_into_harness(harness, defect)
        assert injected.site.polarity == "n"


class TestProgression:
    def test_stage_at_boundaries(self):
        model = ProgressionModel("n")
        assert model.stage_at(-1.0) == BreakdownStage.FAULT_FREE
        assert model.stage_at(model.hbd_time + 1.0) == BreakdownStage.HBD

    def test_stage_sequence_is_monotonic(self):
        model = ProgressionModel("n")
        hours = [1, 3, 6, 10, 15, 20, 26, 27]
        stages = [model.stage_at(h * 3600.0) for h in hours]
        orders = [s.order for s in stages]
        assert all(b >= a for a, b in zip(orders, orders[1:]))

    def test_time_of_stage_inverse(self):
        model = ProgressionModel("n")
        for stage in (BreakdownStage.MBD1, BreakdownStage.MBD2, BreakdownStage.MBD3):
            t = model.time_of_stage(stage)
            assert model.stage_at(t + 1.0).order >= stage.order

    def test_saturation_current_grows_exponentially(self):
        """Equal time steps multiply the leakage by the same factor."""
        model = ProgressionModel("n")
        quarter = model.saturation_current_at(model.time_to_hbd * 0.25)
        half = model.saturation_current_at(model.time_to_hbd * 0.5)
        three_quarters = model.saturation_current_at(model.time_to_hbd * 0.75)
        assert half / quarter == pytest.approx(three_quarters / half, rel=1e-6)

    def test_detection_window(self):
        model = ProgressionModel("n")
        start, end = model.detection_window()
        assert 0.0 < start < end
        assert end == pytest.approx(model.hbd_time)

    def test_default_duration_is_27_hours(self):
        assert ProgressionModel("p").time_to_hbd == pytest.approx(27 * 3600.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ProgressionModel("n", time_to_hbd=-1.0)
        with pytest.raises(ValueError):
            ProgressionModel("q")


class TestExcitation:
    def test_nand_structure(self):
        structure = gate_structure("NAND2")
        assert sorted(structure.sites) == ["NA", "NB", "PA", "PB"]
        assert len(structure.pull_up) == 2
        assert len(structure.pull_down) == 2

    def test_paper_nand_conditions(self):
        """Section 4.1: the exact excitation conditions for the NAND gate."""
        falling = {((1, 0), (1, 1)), ((0, 0), (1, 1)), ((0, 1), (1, 1))}
        assert set(excitation_conditions("NAND2", "NA")) == falling
        assert set(excitation_conditions("NAND2", "NB")) == falling
        assert set(excitation_conditions("NAND2", "PA")) == {((1, 1), (0, 1))}
        assert set(excitation_conditions("NAND2", "PB")) == {((1, 1), (1, 0))}

    def test_paper_nor_conditions(self):
        """Section 5: the exact excitation conditions for the NOR gate."""
        rising = {((1, 0), (0, 0)), ((0, 1), (0, 0)), ((1, 1), (0, 0))}
        assert set(excitation_conditions("NOR2", "PA")) == rising
        assert set(excitation_conditions("NOR2", "PB")) == rising
        assert set(excitation_conditions("NOR2", "NA")) == {((0, 0), (1, 0))}
        assert set(excitation_conditions("NOR2", "NB")) == {((0, 0), (0, 1))}

    def test_both_inputs_switching_excites_no_pmos(self):
        assert not is_excited_obd("NAND2", "PA", ((1, 1), (0, 0)))
        assert not is_excited_obd("NAND2", "PB", ((1, 1), (0, 0)))
        # ...but it does exercise both for EM purposes.
        assert is_exercised_em("NAND2", "PA", ((1, 1), (0, 0)))
        assert is_exercised_em("NAND2", "PB", ((1, 1), (0, 0)))

    def test_em_is_weaker_than_obd(self):
        for gate in ("NAND2", "NOR2", "AOI21", "OAI21"):
            for site in gate_structure(gate).sites:
                for seq in all_sequences(gate):
                    if is_excited_obd(gate, site, seq):
                        assert is_exercised_em(gate, site, seq)

    def test_output_must_switch(self):
        assert not is_excited_obd("NAND2", "NA", ((1, 1), (1, 1)))
        assert not output_switches("NAND2", ((0, 1), (1, 0)))

    def test_inverter_conditions(self):
        assert set(excitation_conditions("INV", "NA")) == {((0,), (1,))}
        assert set(excitation_conditions("INV", "PA")) == {((1,), (0,))}

    def test_excited_sites(self):
        assert excited_sites("NAND2", ((0, 1), (1, 1))) == {"NA", "NB"}
        assert excited_sites("NAND2", ((1, 1), (0, 1))) == {"PA"}

    def test_sequence_formatting(self):
        assert format_sequence(((1, 1), (0, 1))) == "(11,01)"

    def test_unsupported_gate_type(self):
        with pytest.raises(ValueError):
            gate_structure("XOR2")


class TestDetection:
    def test_nand_minimal_set_size(self):
        analysis = analyze_gate("NAND2")
        assert analysis.minimal_size == 3
        assert not analysis.undetectable_sites

    def test_nor_minimal_set_size(self):
        analysis = analyze_gate("NOR2")
        assert analysis.minimal_size == 3

    def test_paper_sets_cover(self):
        assert analyze_gate("NAND2").covers_all(paper_nand_test_set())
        assert analyze_gate("NOR2").covers_all(paper_nor_test_set())

    def test_incomplete_set_detected(self):
        analysis = analyze_gate("NAND2")
        partial = [((0, 1), (1, 1)), ((1, 1), (0, 1))]  # misses PB
        assert not analysis.covers_all(partial)
        assert "PB" not in analysis.detects(partial)

    def test_nand3_needs_three_pmos_sequences(self):
        analysis = analyze_gate("NAND3")
        # Each PMOS has exactly one exciting sequence; all three are needed.
        for site in ("PA", "PB", "PC"):
            assert len(analysis.site_conditions[site]) == 1
        assert analysis.minimal_size == 4

    def test_em_minimal_misses_obd_on_nand(self):
        comparison = compare_em_and_obd("NAND2")
        assert not comparison.em_set_covers_obd
        assert len(comparison.em_minimal) < len(comparison.obd_minimal)

    def test_complex_gate_comparison(self):
        comparison = compare_em_and_obd("AOI21")
        assert comparison.obd_sites_missed_by_em_minimal

    def test_describe_mentions_every_site(self):
        text = analyze_gate("NAND2").describe()
        for site in ("NA", "NB", "PA", "PB"):
            assert site in text
