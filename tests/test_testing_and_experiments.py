"""Tests for the concurrent-testing layer and (fast) experiment smoke tests."""

from __future__ import annotations

import pytest

from repro.core import BreakdownStage, ProgressionModel
from repro.core.excitation import format_sequence
from repro.experiments import (
    measure_gate_obd_delay,
    run_adder_stats,
    run_atpg_complexity,
    run_em_comparison,
    run_fig4,
    run_nand_conditions,
    run_nor_conditions,
    run_progression_window,
    run_table1,
    run_upstream_stress,
)
from repro.experiments.table1 import NMOS_SEQUENCES, PMOS_SEQUENCES
from repro.logic import c17
from repro.testing import (
    StageDelay,
    detectability_threshold,
    detection_window,
    first_detectable_stage,
    maximum_test_period,
    schedule_for_window,
    window_versus_slack,
)

STAGE_DELAYS = (
    StageDelay(BreakdownStage.FAULT_FREE, 70e-12),
    StageDelay(BreakdownStage.SBD, 80e-12),
    StageDelay(BreakdownStage.MBD1, 150e-12),
    StageDelay(BreakdownStage.MBD2, 250e-12),
    StageDelay(BreakdownStage.MBD3, 330e-12),
    StageDelay(BreakdownStage.HBD, None, stuck=True),
)


class TestDetectionWindow:
    def test_threshold(self):
        assert detectability_threshold(70e-12, 30e-12) == pytest.approx(100e-12)
        with pytest.raises(ValueError):
            detectability_threshold(-1.0, 0.0)

    def test_first_detectable_stage_depends_on_slack(self):
        tight = first_detectable_stage(STAGE_DELAYS, 70e-12, 20e-12)
        loose = first_detectable_stage(STAGE_DELAYS, 70e-12, 200e-12)
        assert tight == BreakdownStage.MBD1
        assert loose == BreakdownStage.MBD3
        assert tight.order < loose.order

    def test_stuck_stage_always_detectable(self):
        stage = first_detectable_stage(STAGE_DELAYS, 70e-12, 10.0)
        assert stage == BreakdownStage.HBD

    def test_window_shrinks_with_slack(self):
        model = ProgressionModel("n")
        windows = window_versus_slack(model, STAGE_DELAYS, 70e-12, [20e-12, 100e-12, 200e-12])
        durations = [windows[s].duration for s in sorted(windows)]
        assert all(b <= a for a, b in zip(durations, durations[1:]))

    def test_window_description(self):
        model = ProgressionModel("n")
        window = detection_window(model, STAGE_DELAYS, 70e-12, 50e-12)
        assert window.exists
        assert "window opens" in window.describe()

    def test_empty_window_when_never_observable(self):
        delays = (StageDelay(BreakdownStage.MBD1, 71e-12),)
        model = ProgressionModel("n")
        window = detection_window(model, delays, 70e-12, 10.0)
        assert not window.exists
        assert window.duration == 0.0


class TestScheduler:
    def _window(self):
        model = ProgressionModel("n")
        return detection_window(model, STAGE_DELAYS, 70e-12, 50e-12)

    def test_maximum_period(self):
        window = self._window()
        assert maximum_test_period(window, attempts=1) == pytest.approx(window.duration)
        assert maximum_test_period(window, attempts=4) == pytest.approx(window.duration / 4)
        with pytest.raises(ValueError):
            maximum_test_period(window, attempts=0)

    def test_schedule_overhead(self):
        schedule = schedule_for_window(self._window(), test_duration=1e-3, attempts=2)
        assert 0.0 < schedule.overhead < 1.0
        assert "test every" in schedule.describe()

    def test_schedule_safety_factor_and_validation(self):
        window = self._window()
        base = schedule_for_window(window, test_duration=1e-3, attempts=2)
        safe = schedule_for_window(window, test_duration=1e-3, attempts=2, safety_factor=2.0)
        assert base.period == pytest.approx(window.duration / 2)
        assert safe.period == pytest.approx(base.period / 2)
        assert safe.overhead == pytest.approx(2 * base.overhead)
        with pytest.raises(ValueError):
            schedule_for_window(window, test_duration=-1.0)
        with pytest.raises(ValueError):
            schedule_for_window(window, test_duration=1e-3, safety_factor=0.5)

    def test_empty_window_schedules_continuous_testing(self):
        model = ProgressionModel("n")
        window = detection_window(model, (StageDelay(BreakdownStage.MBD1, 71e-12),), 70e-12, 10.0)
        schedule = schedule_for_window(window, test_duration=1e-3)
        assert maximum_test_period(window, attempts=3) == 0.0
        assert schedule.period == 0.0
        assert schedule.overhead == 1.0


class TestExperimentsFast:
    """Smoke tests of the experiment drivers (analytical / coarse settings)."""

    def test_nand_conditions_match_paper(self):
        result = run_nand_conditions()
        assert result.paper_set_covers_all
        assert result.matches_paper_structure

    def test_nor_conditions_match_paper(self):
        result = run_nor_conditions()
        assert result.paper_set_covers_all
        assert result.matches_paper_structure

    def test_adder_stats_headline_numbers(self):
        stats = run_adder_stats()
        assert stats.nand_gates == 14
        assert stats.total_sites == 56
        assert stats.untestable > 0  # redundancy makes some faults untestable
        assert stats.testable + stats.untestable == 56
        assert stats.compacted_test_count < stats.total_transitions
        assert len(stats.rows()) >= 6

    def test_em_comparison_flags_gaps(self):
        result = run_em_comparison(gates=["NAND2", "AOI21"])
        assert result.gates_where_em_misses_obd()

    def test_progression_window_report(self):
        result = run_progression_window()
        assert result.window_shrinks_with_slack()
        assert any("window opens" in row for row in result.rows())

    def test_atpg_complexity_small(self):
        result = run_atpg_complexity(circuit_factories=[c17])
        entry = result.circuits[0]
        assert entry.stuck_at.testable == entry.stuck_at.faults
        assert entry.obd.faults == 6 * 4
        assert result.same_order_of_magnitude(factor=100.0)

    @pytest.mark.slow
    def test_fig4_vol_shift(self):
        result = run_fig4(points=23)
        vol = result.vol_by_stage()
        assert vol[BreakdownStage.HBD] > vol[BreakdownStage.SBD] >= vol[BreakdownStage.FAULT_FREE]
        voh = result.voh_by_stage()
        assert voh[BreakdownStage.HBD] == pytest.approx(voh[BreakdownStage.FAULT_FREE], abs=0.05)

    @pytest.mark.slow
    def test_upstream_stress_monotonic(self):
        result = run_upstream_stress(
            stages=[BreakdownStage.FAULT_FREE, BreakdownStage.MBD2, BreakdownStage.HBD]
        )
        assert result.current_grows_monotonically()
        assert result.supply_current[BreakdownStage.HBD] > 1e-4


#: Table-1 delays at dt=6e-12, as stored for the end-to-end benchmark's
#: result check (NMOS MBD3 at NA, PMOS MBD1 at PB, both sequences each).
TABLE1_DELAYS = {
    ("nmos", "(01,11)", "NA"): 6.493840243886285e-10,
    ("nmos", "(10,11)", "NA"): 6.478872035795164e-10,
    ("pmos", "(11,10)", "PB"): 2.4510647977313603e-10,
    ("pmos", "(11,01)", "PB"): 5.705009482412324e-11,
}


class TestTable1Pin:
    def test_delays_match_stored_values(self):
        result = run_table1(
            nmos_stages=[BreakdownStage.MBD3],
            pmos_stages=[BreakdownStage.MBD1],
            nmos_sites=("NA",),
            pmos_sites=("PB",),
            dt=6e-12,
        )
        measured = {}
        for polarity, table in (("nmos", result.nmos), ("pmos", result.pmos)):
            for per_seq in table.values():
                for sequence, per_site in per_seq.items():
                    for site, entry in per_site.items():
                        measured[(polarity, sequence, site)] = entry.measurement.delay
        assert measured.keys() == TABLE1_DELAYS.keys()
        for key, want in TABLE1_DELAYS.items():
            assert measured[key] == pytest.approx(want, rel=1e-9, abs=0.0), key


#: The stage set of ``benchmarks/bench_table1.py``: fault-free and defective
#: harnesses, so the sweep holds groups of different plan shapes.
BENCH_NMOS_STAGES = (
    BreakdownStage.FAULT_FREE, BreakdownStage.MBD1, BreakdownStage.MBD3, BreakdownStage.HBD,
)
BENCH_PMOS_STAGES = (BreakdownStage.FAULT_FREE, BreakdownStage.MBD1, BreakdownStage.MBD3)


class TestTable1Lockstep:
    @pytest.mark.slow
    def test_run_table1_matches_per_entry_measurements(self):
        """The one-sweep ``run_table1`` equals measuring entry by entry."""
        dt = 6e-12
        result = run_table1(nmos_stages=BENCH_NMOS_STAGES, pmos_stages=BENCH_PMOS_STAGES, dt=dt)
        for table, sequences in ((result.nmos, NMOS_SEQUENCES), (result.pmos, PMOS_SEQUENCES)):
            for stage, per_seq in table.items():
                for sequence in sequences:
                    for site, entry in per_seq[format_sequence(sequence)].items():
                        fault_free = stage == BreakdownStage.FAULT_FREE
                        alone = measure_gate_obd_delay(
                            "NAND2", sequence, None if fault_free else site,
                            None if fault_free else stage, dt=dt,
                        )
                        assert entry.measurement.delay == alone.measurement.delay, entry.label
                        assert entry.table_entry == alone.table_entry, entry.label
