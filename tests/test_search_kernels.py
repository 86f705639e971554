"""Parity and lifetime of the compiled implication kernels of both PODEMs.

Each circuit's :class:`~repro.analysis_static.analysis.CircuitAnalysis`
compiles one straight-line kernel per value system: five-valued codes for
the structural PODEM, two-rail pair codes for the OBD capture and launch
searches.  The references below evaluate the per-type tables gate by gate
with the injection the interpreted loops used; every net of each circuit is
a fault site (and, for two-rail, the fault-free ``justify`` case too) under
seeded random partial input assignments.
"""

from __future__ import annotations

import pickle
import random
from collections import Counter

import pytest

from repro.analysis_static import analysis as analysis_module
from repro.analysis_static.analysis import circuit_analysis
from repro.atpg.podem import _FROM_BIT, _INJECT, _table
from repro.atpg.structural.logic5 import VD, VDB, VX, gate_table, good_bit
from repro.atpg.structural.podem import _INJECT as _INJECT5
from repro.campaign import Campaign, CampaignSpec, resolve_circuit
from repro.logic import c17

CIRCUITS = {"c17": c17, "rdag:60,4": lambda: resolve_circuit("rdag:60,4")}

#: Random partial input assignments per circuit and value system.
DRAWS = 6


def _draws(circuit, seed: int):
    """Seeded partial assignments: each input 0, 1 or unassigned."""
    rng = random.Random(seed)
    for _ in range(DRAWS):
        yield {net: rng.choice((0, 1, None)) for net in circuit.primary_inputs}


def _reference5(circuit, bits, site, stuck):
    """Gate-by-gate five-valued simulation with the interpreted injection."""

    def inject(value):
        good = good_bit(value)
        if good is None:
            return VX
        if good == stuck:
            return value  # not excited: both machines agree
        return VD if stuck == 0 else VDB

    values = {}
    for net in circuit.primary_inputs:
        value = VX if bits[net] is None else bits[net]
        values[net] = inject(value) if net == site else value
    for gate in circuit.index.order:
        value = gate_table(gate.gate_type)[tuple(values[n] for n in gate.inputs)]
        values[gate.output] = inject(value) if gate.output == site else value
    return values


def _reference9(circuit, bits, site, stuck):
    """Gate-by-gate two-rail simulation with the faulty gate's stuck table."""
    values = {net: _FROM_BIT[bits[net]] for net in circuit.primary_inputs}
    if site in values:
        values[site] = values[site] // 3 * 3 + stuck
    for gate in circuit.index.order:
        table = _table(gate.gate_type, stuck if gate.output == site else None)
        values[gate.output] = table[tuple(values[n] for n in gate.inputs)]
    return values


def _run(kernel, index, codes, site, inject):
    values = kernel(codes, index.ids[site] if site is not None else -1, inject)
    return dict(zip(index.names, values))


@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_five_valued_kernel_matches_the_table_loop(name):
    circuit = CIRCUITS[name]()
    analysis = circuit_analysis(circuit)
    index = circuit.index
    kernel = analysis.kernel(5, gate_table)
    for bits in _draws(circuit, seed=5):
        codes = [VX if bits[net] is None else bits[net] for net in circuit.primary_inputs]
        for site in index.names:
            for stuck in (0, 1):
                assert _run(kernel, index, codes, site, _INJECT5[stuck]) == _reference5(
                    circuit, bits, site, stuck
                ), (site, stuck, bits)


@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_two_rail_kernel_matches_the_table_loop(name):
    circuit = CIRCUITS[name]()
    analysis = circuit_analysis(circuit)
    index = circuit.index
    kernel = analysis.kernel(9, _table)
    for bits in _draws(circuit, seed=9):
        codes = [_FROM_BIT[bits[net]] for net in circuit.primary_inputs]
        # No fault: what ``justify`` runs.
        assert _run(kernel, index, codes, None, _INJECT[0]) == _reference9(
            circuit, bits, None, 0
        )
        for site in index.names:
            for stuck in (0, 1):
                assert _run(kernel, index, codes, site, _INJECT[stuck]) == _reference9(
                    circuit, bits, site, stuck
                ), (site, stuck, bits)


def test_net_index_is_inputs_then_topological():
    circuit = resolve_circuit("rdag:60,4")
    index = circuit.index
    n = index.n_inputs
    assert index.names[:n] == tuple(circuit.primary_inputs)
    assert index.names[n:] == tuple(gate.output for gate in index.order)
    assert all(max(inputs) < n + k for k, inputs in enumerate(index.gate_inputs))
    for net, outs in enumerate(index.fanouts):
        assert list(outs) == sorted(
            {index.ids[gate.output] for gate, _ in circuit.loads_of(index.names[net])}
        )
    assert [index.names[po] for po in index.outputs] == circuit.primary_outputs


def test_pickled_analysis_drops_and_rebuilds_its_kernels():
    circuit = resolve_circuit("rdag:60,4")
    analysis = circuit_analysis(circuit)
    built = {5: analysis.kernel(5, gate_table), 9: analysis.kernel(9, _table)}
    clone = pickle.loads(pickle.dumps(circuit))
    restored = circuit_analysis(clone)
    assert restored is not analysis and restored._kernels == {}
    assert analysis._kernels == built  # pickling leaves the original alone
    rebuilt = {5: restored.kernel(5, gate_table), 9: restored.kernel(9, _table)}
    for radix, kernel in built.items():
        assert rebuilt[radix].__code__.co_code == kernel.__code__.co_code
        assert rebuilt[radix].__defaults__ == kernel.__defaults__
    codes = [VX] * clone.index.n_inputs
    assert rebuilt[5](codes, 7, _INJECT5[1]) == built[5](codes, 7, _INJECT5[1])


@pytest.mark.parametrize(
    "spec, radix",
    [
        (CampaignSpec(model="stuck-at", circuit="rdag:200,4", pattern_source="random",
                      pattern_count=192, seed=0, engine="packed"), 5),
        (CampaignSpec(model="obd", circuit="rdag:60,4", pattern_source="random",
                      pattern_count=256, seed=0, engine="packed"), 9),
    ],
    ids=["sa-rdag", "obd-rdag"],
)
def test_one_kernel_build_per_circuit_and_value_system(spec, radix, monkeypatch):
    builds: Counter = Counter()
    original = analysis_module.compile_implication_kernel

    def spy(analysis, kernel_radix, table):
        builds[id(analysis.circuit), kernel_radix] += 1
        return original(analysis, kernel_radix, table)

    monkeypatch.setattr(analysis_module, "compile_implication_kernel", spy)
    result = Campaign(spec).run()
    assert result.atpg_phase.attempted > 1
    assert list(builds.values()) == [1]
    assert [system for _, system in builds] == [radix]
