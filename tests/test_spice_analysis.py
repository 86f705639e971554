"""Tests for the MNA analyses: operating point, DC sweep, transient, waveforms."""

from __future__ import annotations

import importlib
import itertools

import numpy as np
import pytest

from repro.analysis import measure_transition
from repro.cells import build_gate_harness
from repro.core import BreakdownStage, OBDDefect, inject_into_harness
from repro.experiments.table1 import NMOS_SEQUENCES, PMOS_SEQUENCES
from repro.spice import (
    AnalysisError,
    Circuit,
    DiodeModel,
    PiecewiseLinearWaveform,
    SolverOptions,
    TransientOptions,
    Waveform,
    dc_sweep,
    operating_point,
    transient,
    transient_sweep,
)
from repro.spice.analysis.mna import MnaSystem, StampPlan
from repro.spice.analysis.solver import lockstep_newton_solve, newton_solve
from repro.spice.elements import Capacitor, Diode, Mosfet, StampContext, Stamper
from repro.spice.errors import CircuitError

#: The module, not the function the package exports under the same name.
transient_module = importlib.import_module("repro.spice.analysis.transient")
op_module = importlib.import_module("repro.spice.analysis.op")
solver_module = importlib.import_module("repro.spice.analysis.solver")
dc_sweep_module = importlib.import_module("repro.spice.analysis.dc_sweep")


def _divider() -> Circuit:
    c = Circuit("divider")
    c.add_voltage_source("vin", "a", "0", dc=3.0)
    c.add_resistor("r1", "a", "b", 1000.0)
    c.add_resistor("r2", "b", "0", 2000.0)
    return c


def _diode_load(volts: float) -> Circuit:
    """A diode fed through a resistor; damped Newton needs about
    ``volts / max_step`` iterations to lift the supply node from zero."""
    c = Circuit("diode-load")
    c.add_voltage_source("v1", "a", "0", dc=volts)
    c.add_resistor("r1", "a", "b", 1e3)
    c.add_diode("d1", "b", "0", DiodeModel())
    return c


def _assert_same_outcome(got, want):
    """Two solve results agree bit for bit."""
    assert got.x.tobytes() == want.x.tobytes()
    assert (got.converged, got.iterations, got.max_delta) == (
        want.converged, want.iterations, want.max_delta
    )


def _inverter(tech) -> Circuit:
    c = Circuit("inv")
    c.add_voltage_source("vdd", "vdd", "0", dc=tech.vdd)
    c.add_voltage_source("vin", "in", "0", dc=0.0)
    c.add_mosfet("mp", "out", "in", "vdd", "vdd", tech.pmos, tech.pmos_width, tech.length)
    c.add_mosfet("mn", "out", "in", "0", "0", tech.nmos, tech.nmos_width, tech.length)
    return c


class TestMnaSystem:
    def test_node_indexing(self):
        system = MnaSystem(_divider())
        assert system.num_nodes == 2
        assert system.num_branches == 1
        assert system.node_index("0") == -1

    def test_unknown_node_raises(self):
        system = MnaSystem(_divider())
        with pytest.raises(CircuitError):
            system.node_index("zzz")

    def test_empty_circuit_rejected(self):
        with pytest.raises(CircuitError):
            MnaSystem(Circuit("empty"))


def _cell_fixture(tech, gate_type, sequence, defect_site):
    """A Figure-5 harness, optionally with an OBD defect, plus odd elements: a
    current source, a zero-valued capacitor and a ground-to-ground resistor."""
    harness = build_gate_harness(tech, gate_type, sequence)
    if defect_site is not None:
        inject_into_harness(harness, OBDDefect(site=defect_site, stage=BreakdownStage.MBD2))
    circuit = harness.circuit
    circuit.add_current_source("iprobe", "out", "0", dc=2e-6)
    circuit.add_capacitor("czero", "out", "vdd", 0.0)
    circuit.add_resistor("rgnd", "0", "gnd", 1e3)
    return circuit


def _reference_system(system, ctx, gmin):
    """Matrix and RHS stamped element by element, the scalar reference."""
    stamper = Stamper(system.size)
    nodes = np.arange(system.num_nodes)
    stamper.matrix[nodes, nodes] += gmin
    for element in system.circuit:
        element.stamp(stamper, ctx)
    return stamper.matrix, stamper.rhs


def _diode_region(diode, vd):
    model = diode.model
    if vd > model.critical_voltage:
        return "linearized"
    if vd < -5.0 * model.thermal_voltage:
        return "reverse"
    return "exponential"


CELL_FIXTURES = [
    ("INV", ((0,), (1,)), None),
    ("INV", ((0,), (1,)), "NA"),
    ("NAND2", ((0, 1), (1, 1)), None),
    ("NAND2", ((0, 1), (1, 1)), "NA"),
    ("NOR2", ((1, 0), (0, 0)), None),
    ("NOR2", ((1, 0), (0, 0)), "PB"),
]


def _assemble(plan, ctx, gmin, x):
    """One assembly of *plan* at the rows of *x*, with the sources at the
    context's time and source scale."""
    sources = plan.source_terms([ctx.time], ctx.source_scale)[0]
    return plan.assemble(plan.linear(ctx, gmin, sources), x)


class TestStampPlanParity:
    """The stamp plan assembles exactly the reference system, for a lone
    circuit and for every member of a stack."""

    @pytest.mark.parametrize("gate_type,sequence,defect_site", CELL_FIXTURES)
    def test_plan_matches_element_stamps(self, tech, gate_type, sequence, defect_site):
        circuit = _cell_fixture(tech, gate_type, sequence, defect_site)
        system = MnaSystem(circuit)
        plan = system.plan
        capacitors = system.stamps.capacitors
        rng = np.random.default_rng(7)
        mosfets = [el for el in circuit if isinstance(el, Mosfet)]
        diodes = [el for el in circuit if isinstance(el, Diode)]
        all_capacitors = [el for el in circuit if isinstance(el, Capacitor)]
        assert any(c.capacitance == 0.0 for c in all_capacitors)
        assert [c.capacitance != 0.0 for c in all_capacitors].count(True) == len(capacitors)
        reversed_seen, regions_seen = set(), set()
        for trial in range(7):
            x = rng.uniform(-1.5, tech.vdd + 2.5, system.size)
            x_prev = rng.uniform(-0.5, tech.vdd + 0.5, system.size)
            for mode, gmin, scale in itertools.product(
                ("dc", "tran"), (0.0, 1e-12, 1e-3), (1.0, 0.35)
            ):
                ctx = StampContext(
                    mode=mode, x=x, time=2.01e-9 + 1e-11 * trial, dt=3e-12 * (1 + trial),
                    x_prev=x_prev, source_scale=scale, gmin=gmin,
                )
                matrices, rhs = _assemble(plan, ctx, gmin, x[None])
                ref_matrix, ref_rhs = _reference_system(system, ctx, gmin)
                np.testing.assert_allclose(matrices[0], ref_matrix, rtol=1e-12, atol=0)
                np.testing.assert_allclose(rhs[0], ref_rhs, rtol=1e-12, atol=0)
            for m in mosfets:
                reversed_seen.add(m.evaluate(*(system.voltage(x, n) for n in m.nodes)).reversed)
            for d in diodes:
                vd = system.voltage(x, d.nodes[0]) - system.voltage(x, d.nodes[1])
                regions_seen.add(_diode_region(d, vd))
        assert reversed_seen == {False, True}
        if diodes:
            assert regions_seen == {"linearized", "exponential", "reverse"}

    @pytest.mark.parametrize("gate_type,sequence,defect_site", CELL_FIXTURES)
    def test_stacked_plan_matches_member_plans(self, tech, gate_type, sequence, defect_site):
        """Row m of a stack's matrices and RHS equals member m's own
        one-member plan exactly, scaled sources included."""
        systems = []
        for m in range(3):
            circuit = _cell_fixture(tech, gate_type, sequence, defect_site)
            circuit["iprobe"].dc = 1e-6 * (m - 1.3)
            systems.append(MnaSystem(circuit))
        members, size = len(systems), systems[0].size
        plan = StampPlan([system.stamps for system in systems])
        rng = np.random.default_rng(3)
        for trial in range(4):
            x = rng.uniform(-1.5, tech.vdd + 2.5, (members, size))
            x_prev = rng.uniform(-0.5, tech.vdd + 0.5, (members, size))
            for mode, gmin, scale in itertools.product(("dc", "tran"), (1e-12, 1e-3), (1.0, 0.35)):
                fields = dict(
                    mode=mode, time=2.01e-9 + 1e-11 * trial, dt=3e-12 * (1 + trial),
                    source_scale=scale, gmin=gmin,
                )
                matrices, rhs = _assemble(plan, StampContext(x=x, x_prev=x_prev, **fields), gmin, x)
                for m, system in enumerate(systems):
                    own = StampContext(x=x[m], x_prev=x_prev[m], **fields)
                    want_matrix, want_rhs = _assemble(system.plan, own, gmin, x[m][None])
                    np.testing.assert_array_equal(matrices[m], want_matrix[0])
                    np.testing.assert_array_equal(rhs[m], want_rhs[0])

    def test_stacked_plan_rejects_mixed_shapes(self, tech):
        clean = MnaSystem(_cell_fixture(tech, "NAND2", ((0, 1), (1, 1)), None)).stamps
        defective = MnaSystem(_cell_fixture(tech, "NAND2", ((0, 1), (1, 1)), "NA")).stamps
        assert clean.shape != defective.shape
        with pytest.raises(CircuitError):
            StampPlan([clean, defective])


class TestOperatingPoint:
    def test_resistive_divider(self):
        op = operating_point(_divider())
        assert op.voltage("b") == pytest.approx(2.0, rel=1e-6)
        assert op.voltage("a") == pytest.approx(3.0, rel=1e-6)

    def test_source_current(self):
        op = operating_point(_divider())
        assert op.current("vin") == pytest.approx(-1e-3, rel=1e-6)

    def test_diode_resistor(self):
        c = Circuit("d")
        c.add_voltage_source("v1", "a", "0", dc=3.3)
        c.add_resistor("r", "a", "d", 1000.0)
        c.add_diode("d1", "d", "0", DiodeModel(saturation_current=1e-14))
        op = operating_point(c)
        assert 0.55 < op.voltage("d") < 0.8

    def test_cmos_inverter_levels(self, tech):
        c = _inverter(tech)
        op_low = operating_point(c)
        assert op_low.voltage("out") == pytest.approx(tech.vdd, abs=1e-3)
        c["vin"].dc = tech.vdd
        op_high = operating_point(c)
        assert op_high.voltage("out") == pytest.approx(0.0, abs=1e-3)

    def test_kcl_residual_is_small(self, tech):
        """The solution satisfies KCL at internal nodes (flat rebuild check)."""
        c = _inverter(tech)
        c["vin"].dc = 1.5
        op = operating_point(c)
        # Re-evaluate device currents at the solved voltages.
        v = {n: op.voltage(n) for n in c.nodes()}
        v["0"] = 0.0
        mn, mp = c["mn"], c["mp"]
        i_n = mn.drain_current(v["out"], v["in"], 0.0, 0.0)
        i_p = mp.drain_current(v["out"], v["in"], v["vdd"], v["vdd"])
        assert i_n + i_p == pytest.approx(0.0, abs=1e-6)

    def test_gmin_stepping_discards_non_finite_rung(self, monkeypatch):
        """Regression: a rung that diverges to NaN must not poison the next
        rung's starting point (and the dead converged-branch is gone)."""
        system = MnaSystem(_divider())
        ctx = StampContext(mode="dc", gmin=1e-12)
        real_newton = solver_module.newton_solve
        starts = []

        def newton_spy(system_, ctx_, x0, options=None):
            starts.append(np.array(x0, copy=True))
            result = real_newton(system_, ctx_, x0, options)
            if ctx_.gmin == 1e-4:  # poison exactly one rung
                return solver_module.SolveResult(
                    x=np.full_like(result.x, np.nan), converged=False, iterations=1
                )
            return result

        monkeypatch.setattr(solver_module, "newton_solve", newton_spy)
        result = solver_module.solve_with_gmin_stepping(
            system, ctx, np.zeros(system.size), gmin_ladder=(1e-2, 1e-4, 1e-6)
        )
        assert result.converged
        assert np.all(np.isfinite(result.x))
        # The rung after the poisoned one restarted from finite values.
        assert all(np.all(np.isfinite(x0)) for x0 in starts[2:])

    def test_lockstep_operating_points_equal_each_circuit_own(self, monkeypatch):
        """The group's plain solve leaves the 12 V member unconverged; it alone
        goes on to gmin stepping, and every member matches its own solve."""
        options = SolverOptions(max_iterations=10)
        circuits = [_diode_load(volts) for volts in (0.7, 3.0, 12.0, 1.5)]
        systems = [MnaSystem(circuit) for circuit in circuits]
        plan = StampPlan([system.stamps for system in systems])
        stepped = []
        stepping = op_module.stepping_solve

        def spying_stepping(system, *args):
            stepped.append(system)
            return stepping(system, *args)

        monkeypatch.setattr(op_module, "stepping_solve", spying_stepping)
        got = op_module.lockstep_operating_points(systems, plan, options)
        assert stepped == [systems[2]]
        monkeypatch.undo()
        for circuit, result in zip(circuits, got):
            want = operating_point(circuit, options=options)
            assert result.converged
            assert result.x.tobytes() == want.x.tobytes()
            assert result.iterations == want.iterations


class TestDcSweep:
    def test_failed_point_solves_plain_newton_once(self, monkeypatch):
        """robust_solve starts with the plain solve; the sweep does not run it
        a second time before that."""
        options = SolverOptions(max_iterations=10)
        solve = solver_module.newton_solve
        plain = []

        def spying_solve(system, ctx, x0, solver_options=None):
            result = solve(system, ctx, x0, solver_options)
            if ctx.gmin == options.gmin and ctx.source_scale == 1.0 and not np.any(x0):
                plain.append(result.converged)
            return result

        monkeypatch.setattr(solver_module, "newton_solve", spying_solve)
        monkeypatch.setattr(dc_sweep_module, "newton_solve", spying_solve, raising=False)
        result = dc_sweep(_diode_load(0.0), "v1", [12.0], options=options)
        assert plain == [False]
        assert result.voltages["b"][0] == pytest.approx(0.717, abs=1e-3)

    def test_inverter_vtc_monotone_decreasing(self, tech):
        c = _inverter(tech)
        result = dc_sweep(c, "vin", np.linspace(0.0, tech.vdd, 23), record_nodes=["out"])
        out = result.voltages["out"]
        assert out[0] == pytest.approx(tech.vdd, abs=5e-3)
        assert out[-1] == pytest.approx(0.0, abs=5e-3)
        assert all(b <= a + 1e-6 for a, b in zip(out, out[1:]))

    def test_sweep_restores_source_value(self, tech):
        c = _inverter(tech)
        original = c["vin"].dc
        dc_sweep(c, "vin", [0.0, 1.0, 2.0], record_nodes=["out"])
        assert c["vin"].dc == original

    def test_sweep_requires_voltage_source(self, tech):
        c = _inverter(tech)
        with pytest.raises(AnalysisError):
            dc_sweep(c, "mn", [0.0, 1.0])

    def test_sweep_rejects_empty_values(self, tech):
        c = _inverter(tech)
        with pytest.raises(AnalysisError):
            dc_sweep(c, "vin", [])

    def test_transfer_curve_lookup(self, tech):
        c = _inverter(tech)
        result = dc_sweep(c, "vin", np.linspace(0.0, tech.vdd, 12), record_nodes=["out"])
        curve = result.transfer_curve("out")
        assert curve.at(0.0) == pytest.approx(tech.vdd, abs=5e-3)
        with pytest.raises(AnalysisError):
            result.transfer_curve("nope")


class TestTransient:
    def test_rc_charging(self):
        c = Circuit("rc")
        wf = PiecewiseLinearWaveform([(0.0, 0.0), (1e-12, 1.0)])
        c.add_voltage_source("v1", "a", "0", waveform=wf)
        c.add_resistor("r1", "a", "b", 1000.0)
        c.add_capacitor("c1", "b", "0", 1e-12)
        tau = 1e-9
        result = transient(c, 5 * tau, 10e-12, record_nodes=["b"])
        wave = result.waveform("b")
        assert wave.at(tau) == pytest.approx(1.0 - np.exp(-1.0), rel=0.05)
        assert wave.final_value() == pytest.approx(1.0, rel=0.01)

    def test_rc_follows_the_backward_euler_recurrence(self):
        """Every step obeys v_n = (v_{n-1} + (h/RC) * v_src(t_n)) / (1 + h/RC),
        the backward-Euler update of an RC low pass, on the time points the
        run took."""
        c = Circuit("rc")
        wf = PiecewiseLinearWaveform([(0.0, 0.0), (25e-12, 1.0)])
        c.add_voltage_source("v1", "a", "0", waveform=wf)
        c.add_resistor("r1", "a", "b", 1000.0)
        c.add_capacitor("c1", "b", "0", 1e-12)
        result = transient(c, 0.5e-9, 10e-12, record_nodes=["a", "b"])
        source, out = result.waveform("a").values, result.waveform("b").values
        ratio = np.diff(result.time) / 1e-9
        np.testing.assert_allclose(
            out[1:], (out[:-1] + ratio * source[1:]) / (1.0 + ratio), rtol=1e-6, atol=1e-9
        )

    def test_inverter_switching(self, tech):
        c = _inverter(tech)
        c.remove("vin")
        wf = PiecewiseLinearWaveform([(0, 0.0), (1e-9, 0.0), (1.05e-9, tech.vdd)])
        c.add_voltage_source("vin", "in", "0", waveform=wf)
        c.add_capacitor("cl", "out", "0", 10e-15)
        result = transient(c, 2.5e-9, 5e-12, record_nodes=["in", "out"])
        out = result.waveform("out")
        assert out.initial_value() == pytest.approx(tech.vdd, abs=0.05)
        assert out.final_value() == pytest.approx(0.0, abs=0.05)
        measurement = measure_transition(
            result.waveform("in"), out, "rising", "falling", tech.vdd / 2
        )
        assert measurement.classification == "transition"
        assert measurement.delay is not None and 1e-12 < measurement.delay < 300e-12

    @pytest.mark.parametrize(
        "dt,times", [(0.3e-9, [0.0, 0.3e-9, 0.6e-9, 0.9e-9, 1e-9]),
                     (0.4e-9, [0.0, 0.4e-9, 0.8e-9, 1e-9])]
    )
    def test_ends_at_t_stop_when_dt_does_not_divide_it(self, dt, times):
        c = Circuit("rc")
        c.add_voltage_source("v1", "a", "0", dc=1.0)
        c.add_resistor("r1", "a", "b", 1000.0)
        c.add_capacitor("c1", "b", "0", 1e-12)
        result = transient(c, 1e-9, dt, record_nodes=["b"])
        np.testing.assert_allclose(result.time, times, rtol=1e-12)
        assert result.time[-1] == 1e-9

    def test_near_integer_ratio_keeps_its_step_count(self):
        """Table 1's t_stop/dt is 750.0000000000001: 750 steps, no sliver step."""
        c = Circuit("rc")
        c.add_voltage_source("v1", "a", "0", dc=1.0)
        c.add_resistor("r1", "a", "b", 1000.0)
        c.add_capacitor("c1", "b", "0", 1e-12)
        t_stop = 2e-9 + 2.5e-9
        result = transient(c, t_stop, 6e-12, record_nodes=["b"])
        assert len(result.time) == 751
        assert result.time[-1] == t_stop

    def test_invalid_arguments(self, tech):
        c = _inverter(tech)
        with pytest.raises(AnalysisError):
            transient(c, -1e-9, 1e-12)
        with pytest.raises(AnalysisError):
            transient(c, 1e-9, 2e-9)

    def test_record_subset(self, tech):
        c = _inverter(tech)
        result = transient(c, 0.1e-9, 10e-12, record_nodes=["out"])
        assert result.nodes == ["out"]
        with pytest.raises(AnalysisError):
            result.waveform("in")


#: Table-1 entries of the end-to-end benchmark: NMOS MBD3 at NA and NB, PMOS
#: MBD1 at PB, both input sequences each.
TABLE1_ENTRIES = (
    [(seq, site, BreakdownStage.MBD3) for seq in NMOS_SEQUENCES for site in ("NA", "NB")]
    + [(seq, "PB", BreakdownStage.MBD1) for seq in PMOS_SEQUENCES]
)


def _table1_circuits(tech, entries=TABLE1_ENTRIES):
    """Figure-5 NAND harnesses, fault-free where the site is None."""
    circuits = []
    for sequence, site, stage in entries:
        harness = build_gate_harness(tech, "NAND2", sequence)
        if site is not None:
            inject_into_harness(harness, OBDDefect(site=site, stage=stage))
        circuits.append(harness.circuit)
    return circuits, harness.t_stop


def _stepped_reference(circuit, t_stop, dt, options):
    """Every solution of *circuit* and its Newton count, stepped one
    ``newton_solve`` at a time on its own plan and halving a failed step: the
    per-circuit loop that a lockstep group must reproduce member by member."""
    op = operating_point(circuit, options=options.solver)
    system = op.system
    ctx = StampContext(mode="tran", gmin=options.solver.gmin)
    x, t, count, states = op.x, 0.0, 0, [op.x]
    steps = transient_module._step_count(t_stop, dt)
    for target in [k * dt for k in range(1, steps)] + [t_stop]:
        pending = [(t, target, 0)]
        while pending:
            start, end, depth = pending.pop()
            ctx.time, ctx.dt, ctx.x_prev = end, end - start, x
            result = newton_solve(system, ctx, x, options.solver)
            count += result.iterations
            if result.converged:
                x = result.x
            else:
                assert depth < options.max_step_refinements
                middle = start + (end - start) / 2.0
                pending += [(middle, end, depth + 1), (start, middle, depth + 1)]
        t = target
        states.append(x)
    return np.array(states), count


class TestLockstepTransient:
    """``transient_sweep`` reproduces each circuit's own ``transient`` exactly."""

    @staticmethod
    def _assert_matches_solo(circuits, t_stop, options=None, swept=None):
        dt = 6e-12
        if swept is None:
            swept = transient_sweep(circuits, t_stop, dt, options=options)
        assert len(swept) == len(circuits)
        for circuit, got in zip(circuits, swept):
            want = transient(circuit, t_stop, dt, options=options)
            np.testing.assert_array_equal(got.time, want.time)
            assert got.voltages.keys() == want.voltages.keys()
            for node, values in want.voltages.items():
                assert got.voltages[node].tobytes() == values.tobytes(), node
            assert got.newton_iterations == want.newton_iterations > 0

    def test_table1_harnesses(self, tech):
        circuits, t_stop = _table1_circuits(tech)
        assert len({MnaSystem(c).stamps.shape for c in circuits}) == 1
        self._assert_matches_solo(circuits, t_stop)

    def test_fault_free_and_defective_mixed(self, tech):
        entries = [
            (NMOS_SEQUENCES[0], None, None), *TABLE1_ENTRIES[:2],
            (PMOS_SEQUENCES[1], None, None), *TABLE1_ENTRIES[4:],
        ]
        circuits, t_stop = _table1_circuits(tech, entries)
        shapes = [MnaSystem(c).stamps.shape for c in circuits]
        assert len(set(shapes)) == 2 and shapes[0] != shapes[1]
        self._assert_matches_solo(circuits, t_stop)

    def test_failed_members_refine_inside_a_live_group(self, tech, monkeypatch):
        """A 4-iteration limit makes some members fail a step that the rest of
        their group passes; they halve it alone, on their own plans."""
        circuits, t_stop = _table1_circuits(tech)
        partial_failures, solo_solves = [], []
        lockstep, solve = transient_module.lockstep_newton_solve, transient_module.newton_solve

        def spying_lockstep(plan, *args):
            result = lockstep(plan, *args)
            partial_failures.append(0 < np.count_nonzero(~result.converged) < plan.members)
            return result

        def spying_solve(system, *args):
            solo_solves.append(system.plan.members)
            return solve(system, *args)

        monkeypatch.setattr(transient_module, "lockstep_newton_solve", spying_lockstep)
        monkeypatch.setattr(transient_module, "newton_solve", spying_solve)
        options = TransientOptions(solver=SolverOptions(max_iterations=4))
        swept = transient_sweep(circuits, t_stop, 6e-12, options=options)
        assert any(partial_failures)
        assert solo_solves and set(solo_solves) == {1}
        monkeypatch.undo()
        self._assert_matches_solo(circuits, t_stop, options, swept)
        # Each failed member counts its failed lockstep solve once, as a
        # circuit stepped on its own counts its first attempt at the step.
        for circuit, got in zip(circuits, swept):
            states, count = _stepped_reference(circuit, t_stop, 6e-12, options)
            assert got.newton_iterations == count
            system = MnaSystem(circuit)
            for node, values in got.voltages.items():
                assert values.tobytes() == states[:, system.node_index(node)].tobytes()

    def test_empty_sweep(self):
        assert transient_sweep([], 1e-9, 1e-11) == []

    def test_dc_current_and_callable_sources(self, tech):
        """Members driven by a DC supply, a current source and a plain lambda
        (a waveform the group source table cannot look into)."""

        def driven(delay, current):
            c = _inverter(tech)
            c["vin"].waveform = lambda t: tech.vdd * min(max((t - delay) / 60e-12, 0.0), 1.0)
            c.add_current_source("iload", "out", "0", dc=current)
            c.add_capacitor("cload", "out", "0", 4e-15)
            return c

        circuits = [driven(0.1e-9, 2e-6), driven(0.15e-9, 0.0), driven(0.2e-9, -5e-6)]
        assert len({MnaSystem(c).stamps.shape for c in circuits}) == 1
        self._assert_matches_solo(circuits, 0.6e-9)

    def test_companion_terms_built_once_per_step_size(self, tech, monkeypatch):
        """The step t_to - t_from takes a few last-place values along the grid;
        each step size builds its companion terms once, on the group's plan."""
        builds = []
        build = StampPlan._build_companion

        def counting_build(plan, dt):
            builds.append((plan.members, dt))
            return build(plan, dt)

        monkeypatch.setattr(StampPlan, "_build_companion", counting_build)
        circuits, t_stop = _table1_circuits(tech)
        (result, *_) = transient_sweep(circuits, t_stop, 6e-12)
        steps = set(np.diff(result.time).tolist())
        assert 1 < len(steps) <= StampPlan.COMPANION_ENTRIES
        assert sorted(builds) == sorted((len(circuits), step) for step in steps)


class TestWaveform:
    def test_crossing_detection(self):
        w = Waveform(np.array([0.0, 1.0, 2.0, 3.0]), np.array([0.0, 1.0, 0.0, 1.0]))
        assert w.crossings(0.5, "rising") == pytest.approx([0.5, 2.5])
        assert w.crossings(0.5, "falling") == pytest.approx([1.5])
        assert w.crossings(0.5) == pytest.approx([0.5, 1.5, 2.5])

    def test_first_crossing_after(self):
        w = Waveform(np.array([0.0, 1.0, 2.0, 3.0]), np.array([0.0, 1.0, 0.0, 1.0]))
        assert w.first_crossing(0.5, "rising", after=1.0) == pytest.approx(2.5)
        assert w.first_crossing(2.0, "rising") is None

    def test_interpolation(self):
        w = Waveform(np.array([0.0, 1.0, 2.0]), np.array([0.0, 2.0, 4.0]))
        assert w.at(0.5) == pytest.approx(1.0)

    def test_transition_delay_none_when_stuck(self):
        t = np.linspace(0.0, 1.0, 11)
        inp = Waveform(t, t)
        flat = Waveform(t, np.zeros_like(t))
        measurement = measure_transition(inp, flat, "rising", "rising", 0.5)
        assert measurement.delay is None
        assert measurement.classification == "sa-0"
        assert measurement.is_stuck

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            Waveform(np.array([0.0, 1.0]), np.array([0.0]))

    def test_non_monotonic_time_rejected(self):
        with pytest.raises(ValueError):
            Waveform(np.array([0.0, 2.0, 1.0]), np.array([0.0, 1.0, 2.0]))


class TestSolverRobustness:
    def test_breakdown_network_converges(self, tech):
        """The OBD diode network with extreme parameters still solves."""
        c = _inverter(tech)
        c["vin"].dc = tech.vdd
        c.add_resistor("obd_r", "in", "x", 0.05)
        c.add_diode("obd_d1", "x", "0", DiodeModel(saturation_current=2e-24))
        c.add_diode("obd_d2", "x", "out", DiodeModel(saturation_current=2e-24))
        c.add_resistor("obd_rsub", "x", "0", 10e6)
        op = operating_point(c)
        assert 0.0 <= op.voltage("x") <= tech.vdd + 0.1

    def test_lockstep_newton_solves_singular_members_one_by_one(self):
        """A singular batch falls back to each member's own solve/lstsq rule."""

        def floating(volts):
            c = Circuit("floating")
            c.add_voltage_source("v1", "a", "0", dc=volts)
            c.add_resistor("r1", "a", "b", 1e3)
            c.add_diode("d1", "b", "0", DiodeModel())
            c.add_resistor("r2", "f", "g", 1e3)  # no path to ground: singular
            return c

        options = SolverOptions(gmin=0.0)
        systems = [MnaSystem(floating(volts)) for volts in (0.7, 1.2, 3.0)]
        x0 = np.zeros((len(systems), systems[0].size))
        matrices, rhs = _assemble(systems[0].plan, StampContext(gmin=0.0), 0.0, x0[:1])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(matrices[0], rhs[0])
        plan = StampPlan([system.stamps for system in systems])
        result = lockstep_newton_solve(
            plan, StampContext(mode="dc", gmin=0.0), x0, options, plan.source_terms([0.0])[0]
        )
        for m, system in enumerate(systems):
            alone = newton_solve(system, StampContext(mode="dc", gmin=0.0), x0[m], options)
            assert alone.converged
            _assert_same_outcome(result.member(m), alone)

    def test_lockstep_failures_report_their_solo_outcome(self):
        """Members that run out of iterations report what their own solve
        does: the iteration limit, the last iterate and its node change."""
        options = SolverOptions(max_iterations=8)
        systems = [MnaSystem(_diode_load(volts)) for volts in (0.7, 3.0, 6.0, 12.0)]
        x0 = np.zeros((len(systems), systems[0].size))
        plan = StampPlan([system.stamps for system in systems])
        sources = plan.source_terms([0.0])[0]
        result = lockstep_newton_solve(plan, StampContext(mode="dc"), x0, options, sources)
        assert 0 < np.count_nonzero(result.converged) < len(systems)
        for m, system in enumerate(systems):
            alone = newton_solve(system, StampContext(mode="dc"), x0[m], options)
            _assert_same_outcome(result.member(m), alone)
            assert alone.converged or alone.iterations == options.max_iterations
        # The last change is the full Newton step from the iterate before it.
        before = lockstep_newton_solve(
            plan, StampContext(mode="dc"), x0, SolverOptions(max_iterations=7), sources
        )
        matrices, rhs = _assemble(plan, StampContext(mode="dc"), options.gmin, before.x)
        steps = np.linalg.solve(matrices, rhs[:, :, None])[:, :, 0] - before.x
        for m in np.flatnonzero(~result.converged):
            assert result.max_delta[m] == np.abs(steps[m, : plan.num_nodes]).max()

    @pytest.mark.parametrize(
        "field,value",
        [("max_iterations", 0), ("max_iterations", -3), ("max_iterations", 2.5),
         ("reltol", -1e-3), ("vntol", -1e-6), ("max_step", -0.5), ("gmin", -1e-12),
         ("reltol", float("nan"))],
    )
    def test_solver_options_reject_unusable_values(self, field, value):
        with pytest.raises(AnalysisError, match=field):
            SolverOptions(**{field: value})

    @pytest.mark.parametrize("value", [-1, 1.5])
    def test_transient_options_reject_bad_refinement_count(self, value):
        with pytest.raises(AnalysisError, match="max_step_refinements"):
            TransientOptions(max_step_refinements=value)

    def test_zero_values_are_accepted(self):
        SolverOptions(reltol=0.0, vntol=0.0, max_step=0.0, gmin=0.0)
        TransientOptions(max_step_refinements=0)

    def test_solver_options_respected(self):
        op = operating_point(_divider(), options=SolverOptions(max_iterations=5))
        assert op.voltage("b") == pytest.approx(2.0, rel=1e-6)
