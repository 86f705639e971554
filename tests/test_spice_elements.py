"""Unit tests for the SPICE element models."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from repro.spice import Circuit, CircuitError
from repro.spice.elements import (
    THERMAL_VOLTAGE,
    Capacitor,
    Diode,
    DiodeBank,
    DiodeModel,
    Mosfet,
    MosfetBank,
    MosfetModel,
    PiecewiseLinearWaveform,
    Resistor,
    StampContext,
    Stamper,
    VoltageSource,
    is_ground,
)


class TestResistor:
    def test_conductance(self):
        r = Resistor("r1", "a", "b", 2000.0)
        assert r.conductance == pytest.approx(5e-4)

    def test_current_direction(self):
        r = Resistor("r1", "a", "b", 100.0)
        assert r.current(1.0, 0.0) == pytest.approx(0.01)
        assert r.current(0.0, 1.0) == pytest.approx(-0.01)

    @pytest.mark.parametrize("bad", [0.0, -10.0])
    def test_rejects_nonpositive_resistance(self, bad):
        with pytest.raises(ValueError):
            Resistor("r1", "a", "b", bad)

    def test_stamp_symmetry(self):
        r = Resistor("r1", "a", "b", 1000.0)
        r.assign_indices((0, 1))
        stamper = Stamper(2)
        r.stamp(stamper, StampContext())
        g = 1e-3
        assert stamper.matrix[0, 0] == pytest.approx(g)
        assert stamper.matrix[1, 1] == pytest.approx(g)
        assert stamper.matrix[0, 1] == pytest.approx(-g)
        assert stamper.matrix[1, 0] == pytest.approx(-g)

    def test_stamp_to_ground_drops_row(self):
        r = Resistor("r1", "a", "0", 1000.0)
        r.assign_indices((0, -1))
        stamper = Stamper(1)
        r.stamp(stamper, StampContext())
        assert stamper.matrix[0, 0] == pytest.approx(1e-3)


class TestCapacitor:
    def test_rejects_negative_capacitance(self):
        with pytest.raises(ValueError):
            Capacitor("c1", "a", "b", -1e-15)

    def test_open_in_dc(self):
        c = Capacitor("c1", "a", "b", 1e-12)
        c.assign_indices((0, 1))
        stamper = Stamper(2)
        c.stamp(stamper, StampContext(mode="dc"))
        assert stamper.matrix[0, 0] == 0.0

    def test_backward_euler_companion(self):
        import numpy as np

        c = Capacitor("c1", "a", "0", 1e-12)
        c.assign_indices((0, -1))
        stamper = Stamper(1)
        ctx = StampContext(mode="tran", dt=1e-12, x_prev=np.array([2.0]))
        c.stamp(stamper, ctx)
        geq = 1e-12 / 1e-12
        assert stamper.matrix[0, 0] == pytest.approx(geq)
        # RHS injects geq * v_prev into node a.
        assert stamper.rhs[0] == pytest.approx(geq * 2.0)


class TestDiode:
    def test_forward_current_matches_shockley(self):
        model = DiodeModel(saturation_current=1e-14)
        d = Diode("d1", "a", "c", model)
        vd = 0.6
        current, conductance = d.evaluate(vd)
        expected = 1e-14 * (math.exp(vd / THERMAL_VOLTAGE) - 1.0)
        assert current == pytest.approx(expected, rel=1e-9)
        assert conductance > 0.0

    def test_reverse_current_saturates(self):
        d = Diode("d1", "a", "c", DiodeModel(saturation_current=1e-14))
        current, _ = d.evaluate(-2.0)
        assert current == pytest.approx(-1e-14, rel=1e-6)

    def test_linearized_above_critical_voltage(self):
        model = DiodeModel(saturation_current=1e-30)
        d = Diode("d1", "a", "c", model)
        vcrit = model.critical_voltage
        i_below, g_below = d.evaluate(vcrit - 0.01)
        i_above, g_above = d.evaluate(vcrit + 0.5)
        # Above vcrit the conductance stops growing exponentially.
        assert g_above == pytest.approx(d.evaluate(vcrit + 1.0)[1], rel=1e-9)
        assert i_above > i_below

    def test_monotonic_current(self):
        d = Diode("d1", "a", "c", DiodeModel(saturation_current=1e-29))
        voltages = [-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0]
        currents = [d.evaluate(v)[0] for v in voltages]
        assert all(b >= a for a, b in zip(currents, currents[1:]))

    @pytest.mark.parametrize("isat,ideality", [(-1e-15, 1.0), (1e-15, 0.0)])
    def test_model_validation(self, isat, ideality):
        with pytest.raises(ValueError):
            DiodeModel(saturation_current=isat, ideality=ideality)


class TestMosfet:
    @pytest.fixture
    def nmos(self):
        return MosfetModel(polarity="n", vto=0.6, kp=120e-6, lambda_=0.0, gamma=0.0)

    @pytest.fixture
    def pmos(self):
        return MosfetModel(polarity="p", vto=-0.7, kp=40e-6, lambda_=0.0, gamma=0.0)

    def test_cutoff(self, nmos):
        m = Mosfet("m1", "d", "g", "s", "b", nmos, 1e-6, 0.35e-6)
        op = m.evaluate(vd=3.3, vg=0.0, vs=0.0, vb=0.0)
        assert op.region == "cutoff"
        assert op.ids == 0.0

    def test_saturation_square_law(self, nmos):
        m = Mosfet("m1", "d", "g", "s", "b", nmos, 1e-6, 0.35e-6)
        vgs, vds = 2.0, 3.0
        op = m.evaluate(vd=vds, vg=vgs, vs=0.0, vb=0.0)
        beta = 120e-6 * (1e-6 / 0.35e-6)
        expected = 0.5 * beta * (vgs - 0.6) ** 2
        assert op.region == "saturation"
        assert op.ids == pytest.approx(expected, rel=1e-9)

    def test_linear_region(self, nmos):
        m = Mosfet("m1", "d", "g", "s", "b", nmos, 1e-6, 0.35e-6)
        op = m.evaluate(vd=0.1, vg=3.3, vs=0.0, vb=0.0)
        beta = 120e-6 * (1e-6 / 0.35e-6)
        expected = beta * ((3.3 - 0.6) * 0.1 - 0.5 * 0.1**2)
        assert op.region == "linear"
        assert op.ids == pytest.approx(expected, rel=1e-9)

    def test_source_drain_swap(self, nmos):
        m = Mosfet("m1", "d", "g", "s", "b", nmos, 1e-6, 0.35e-6)
        forward = m.drain_current(vd=1.0, vg=3.3, vs=0.0, vb=0.0)
        reverse = m.drain_current(vd=0.0, vg=3.3, vs=1.0, vb=1.0)
        assert forward > 0.0
        assert reverse == pytest.approx(-forward, rel=1e-6)

    def test_pmos_current_sign(self, pmos):
        m = Mosfet("m1", "d", "g", "s", "b", pmos, 2e-6, 0.35e-6)
        # PMOS with source at 3.3 V, gate at 0, drain at 0: conducts, current
        # flows out of the drain terminal (negative drain current).
        current = m.drain_current(vd=0.0, vg=0.0, vs=3.3, vb=3.3)
        assert current < 0.0

    def test_pmos_cutoff(self, pmos):
        m = Mosfet("m1", "d", "g", "s", "b", pmos, 2e-6, 0.35e-6)
        op = m.evaluate(vd=0.0, vg=3.3, vs=3.3, vb=3.3)
        assert op.region == "cutoff"

    def test_body_effect_raises_threshold(self):
        model = MosfetModel(polarity="n", vto=0.6, kp=120e-6, gamma=0.5, phi=0.7, lambda_=0.0)
        m = Mosfet("m1", "d", "g", "s", "b", model, 1e-6, 0.35e-6)
        with_body = m.evaluate(vd=3.3, vg=2.5, vs=1.0, vb=0.0)
        without_body = m.evaluate(vd=3.3, vg=2.5, vs=1.0, vb=1.0)
        assert with_body.ids < without_body.ids

    def test_capacitances_scale_with_area(self):
        model = MosfetModel()
        small = model.capacitances(1e-6, 0.35e-6)
        large = model.capacitances(2e-6, 0.35e-6)
        assert large["cgs"] > small["cgs"]
        assert set(small) == {"cgs", "cgd", "cgb", "cdb", "csb"}

    def test_invalid_geometry_rejected(self, nmos):
        with pytest.raises(ValueError):
            Mosfet("m1", "d", "g", "s", "b", nmos, -1e-6, 0.35e-6)

    def test_invalid_polarity_rejected(self):
        with pytest.raises(ValueError):
            MosfetModel(polarity="x")


def _bits(values) -> np.ndarray:
    """IEEE bit patterns, so 0.0 and -0.0 differ and NaN equals itself."""
    return np.asarray(values, dtype=np.float64).view(np.int64)


class TestDeviceBanks:
    """The array device models equal the scalar ``evaluate`` bit for bit."""

    def test_mosfet_bank_matches_scalar_evaluate(self):
        devices = []
        for polarity, gamma in itertools.product("np", (0.0, 0.45)):
            model = MosfetModel(
                polarity=polarity, vto=0.6 if polarity == "n" else -0.7, gamma=gamma,
                lambda_=0.05 if polarity == "n" else 0.08,
            )
            for width in (0.9e-6, 2.7e-6):
                devices.append(Mosfet(f"m{len(devices)}", "d", "g", "s", "b", model, width, 0.35e-6))
        rng = np.random.default_rng(11)
        picks = rng.integers(0, len(devices), 4000)
        bias = rng.uniform(-1.5, 4.5, size=(4, picks.size))
        got = MosfetBank([devices[i] for i in picks]).evaluate(*bias)

        fields = ("ids", "gm", "gds", "gmb", "vgs", "vds", "vbs")
        ops = [devices[i].evaluate(*bias[:, k].tolist()) for k, i in enumerate(picks)]
        for name, values in zip(fields, got):
            np.testing.assert_array_equal(
                _bits([getattr(op, name) for op in ops]), _bits(values), err_msg=name
            )
        assert [op.reversed for op in ops] == got[-1].tolist()
        covered = {(op.region, op.reversed, devices[i].model.polarity, devices[i].model.gamma > 0)
                   for op, i in zip(ops, picks)}
        assert len(covered) == 3 * 2 * 2 * 2

    def test_mosfet_bank_mixed_body_and_equal_drain_source(self):
        """One bank of body-effect and body-less devices, biased with vd == vs
        (where the scalar model keeps signed zeros), among other biases."""
        models = [
            MosfetModel(polarity=polarity, vto=vto, gamma=gamma)
            for polarity, vto in (("n", 0.6), ("p", -0.7)) for gamma in (0.0, 0.45)
        ]
        devices = [Mosfet(f"m{k}", "d", "g", "s", "b", model, 1.8e-6, 0.35e-6)
                   for k, model in enumerate(models)]
        levels = (-0.0, 0.0, 0.4, 1.2, 3.3)
        biases = [(vd, vg, vd, vb) for vd, vg, vb in itertools.product(levels, repeat=3)]
        biases += [(vd, vg, vs, 0.0) for vd, vg, vs in itertools.product(levels, repeat=3)]
        picks = [k % len(devices) for k in range(len(biases))]
        got = MosfetBank([devices[i] for i in picks]).evaluate(*np.array(biases).T)

        ops = [devices[i].evaluate(*bias) for i, bias in zip(picks, biases)]
        for name, values in zip(("ids", "gm", "gds", "gmb", "vgs", "vds", "vbs"), got):
            np.testing.assert_array_equal(
                _bits([getattr(op, name) for op in ops]), _bits(values), err_msg=name
            )
        assert [op.reversed for op in ops] == got[-1].tolist()
        assert {math.copysign(1.0, op.vds) for op, (vd, _, vs, _) in zip(ops, biases)
                if vd == vs} == {1.0, -1.0}
        assert {op.region for op in ops} == {"cutoff", "linear", "saturation"}

    def test_diode_bank_matches_scalar_evaluate(self):
        devices = [
            Diode(f"d{k}", "a", "c", DiodeModel(saturation_current=isat, ideality=n))
            for k, (isat, n) in enumerate([(1e-14, 1.0), (2e-24, 1.3), (1e-30, 1.0)])
        ]
        rng = np.random.default_rng(5)
        picks = rng.integers(0, len(devices), 3000)
        vd = rng.uniform(-2.0, 3.0, picks.size)
        current, conductance = DiodeBank([devices[i] for i in picks]).evaluate(vd)

        expected = [devices[i].evaluate(v) for i, v in zip(picks, vd.tolist())]
        np.testing.assert_array_equal(_bits([i for i, _ in expected]), _bits(current))
        np.testing.assert_array_equal(_bits([g for _, g in expected]), _bits(conductance))
        regions = set()
        for i, v in zip(picks, vd):
            model = devices[i].model
            regions.add("linearized" if v > model.critical_voltage
                        else "reverse" if v < -5.0 * model.thermal_voltage else "exponential")
        assert regions == {"linearized", "exponential", "reverse"}


class TestSources:
    def test_dc_value(self):
        v = VoltageSource("v1", "a", "0", dc=2.5)
        assert v.value(0.0) == 2.5
        assert v.value(1e-9) == 2.5

    def test_pwl_interpolation(self):
        wf = PiecewiseLinearWaveform([(0, 0.0), (1e-9, 0.0), (2e-9, 3.3)])
        assert wf(0.5e-9) == pytest.approx(0.0)
        assert wf(1.5e-9) == pytest.approx(1.65)
        assert wf(5e-9) == pytest.approx(3.3)

    def test_pwl_rejects_decreasing_times(self):
        with pytest.raises(ValueError):
            PiecewiseLinearWaveform([(1e-9, 0.0), (0.5e-9, 1.0)])

    def test_pwl_sample_matches_call_bit_for_bit(self):
        """``sample`` repeats the float operations of ``__call__``, at
        breakpoints, outside them and over a step grid."""
        waveforms = [
            [(0.1e-9, 0.0), (0.2e-9, 3.3), (0.5e-9, 3.3), (0.6e-9, -0.0)],
            [(0.2e-9, -0.0), (0.3e-9, -0.0), (0.3e-9, 1.2), (0.3e-9, 0.7), (0.45e-9, -1.0)],
            [(0.25e-9, -0.0)],
            [(0.0, 1.0), (0.0, 2.0), (0.7e-9, 0.0), (0.7e-9, 5.0)],
            [(0.05e-9, 1.7), (0.35e-9, 0.2)],
        ]
        pwls = [PiecewiseLinearWaveform(points) for points in waveforms]
        breakpoints = sorted({t for points in waveforms for t, _ in points})
        times = (
            [-1e-9, 0.0, 1e-9]
            + breakpoints
            + [math.nextafter(t, -math.inf) for t in breakpoints]
            + [math.nextafter(t, math.inf) for t in breakpoints]
            + [step * 6e-12 for step in range(1, 150)] + [0.9e-9]
        )
        for pwl in pwls:
            got = pwl.sample(times)
            np.testing.assert_array_equal(_bits(got), _bits([pwl(t) for t in times]))
        assert np.signbit(pwls[2].sample(times)).all()

    def test_waveform_overrides_dc(self):
        wf = PiecewiseLinearWaveform([(0, 1.0)])
        v = VoltageSource("v1", "a", "0", dc=9.9, waveform=wf)
        assert v.value(0.0) == 1.0


class TestCircuitContainer:
    def test_duplicate_names_rejected(self):
        c = Circuit("t")
        c.add_resistor("r1", "a", "b", 100.0)
        with pytest.raises(CircuitError):
            c.add_resistor("r1", "a", "b", 100.0)

    def test_nodes_exclude_ground(self):
        c = Circuit("t")
        c.add_resistor("r1", "a", "0", 100.0)
        c.add_resistor("r2", "a", "gnd", 100.0)
        assert c.nodes() == ["a"]

    def test_remove_element(self):
        c = Circuit("t")
        c.add_resistor("r1", "a", "b", 100.0)
        c.remove("r1")
        assert "r1" not in c
        with pytest.raises(CircuitError):
            c.remove("r1")

    def test_clone_is_independent(self):
        c = Circuit("t")
        c.add_resistor("r1", "a", "b", 100.0)
        clone = c.clone()
        clone.remove("r1")
        assert "r1" in c and "r1" not in clone

    def test_add_mosfet_adds_parasitic_caps(self, tech):
        c = Circuit("t")
        c.add_mosfet("m1", "d", "g", "s", "b", tech.nmos, 1e-6, 0.35e-6)
        assert "m1:cgs" in c
        assert "m1:cgd" in c

    def test_add_mosfet_without_caps(self, tech):
        c = Circuit("t")
        c.add_mosfet("m1", "d", "g", "s", "b", tech.nmos, 1e-6, 0.35e-6, with_caps=False)
        assert "m1:cgs" not in c

    def test_summary_counts(self):
        c = Circuit("demo")
        c.add_resistor("r1", "a", "0", 100.0)
        c.add_voltage_source("v1", "a", "0", dc=1.0)
        text = c.summary()
        assert "Resistor" in text and "VoltageSource" in text

    def test_is_ground_names(self):
        assert is_ground("0") and is_ground("gnd") and is_ground("GND")
        assert not is_ground("out")
