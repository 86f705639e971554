"""The shared per-circuit analysis and structural index: each built once,
never stale, never leaked."""

from __future__ import annotations

import gc
import pickle
import sys
import weakref
from collections import Counter

import pytest

import repro.logic.netlist as netlist_module
from repro.analysis_static import circuit_analysis, implication
from repro.atpg.structural import TESTED, get_atpg_engine
from repro.campaign import Campaign, CampaignSpec, InlineExecutor, ShardedCampaign
from repro.campaign.circuits import resolve_circuit
from repro.faults.stuck_at import StuckAtFault
from repro.logic import LogicCircuit, LogicCircuitError


@pytest.fixture
def learn_calls(monkeypatch):
    """Count ``learn_implications`` calls, wherever the function was imported."""
    calls: list[str] = []
    original = implication.learn_implications

    def counted(circuit, *args, **kwargs):
        calls.append(circuit.name)
        return original(circuit, *args, **kwargs)

    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, counted)
    assert sys.modules["repro.analysis_static.analysis"].learn_implications is counted
    return calls


def nand2() -> LogicCircuit:
    circuit = LogicCircuit("nand2")
    circuit.add_inputs(["a", "b"])
    circuit.add_gate("g1", "NAND2", ["a", "b"], "y")
    circuit.add_output("y")
    return circuit


class PicklingExecutor(InlineExecutor):
    """Inline executor that round-trips every task through pickle, as a pool does."""

    def submit(self, fn, /, *args, **kwargs):
        fn, args, kwargs = pickle.loads(pickle.dumps((fn, args, kwargs)))
        return super().submit(fn, *args, **kwargs)


class TestLifetime:
    def test_mutation_drops_the_analysis(self):
        circuit = nand2()
        podem = get_atpg_engine("podem")
        assert podem.generate(circuit, StuckAtFault("y", 0)).status == TESTED
        circuit.add_gate("g2", "INV", ["y"], "z")
        circuit.add_output("z")
        assert podem.generate(circuit, StuckAtFault("z", 0)).status == TESTED

    def test_every_construction_call_drops_the_analysis(self):
        circuit = nand2()
        for mutate in (
            lambda: circuit.add_input("c"),
            lambda: circuit.add_gate("g2", "INV", ["c"], "d"),
            lambda: circuit.add_output("d"),
        ):
            first = circuit_analysis(circuit)
            index = circuit.index
            assert circuit_analysis(circuit) is first
            assert circuit.index is index
            mutate()
            assert circuit_analysis(circuit) is not first
            assert circuit.index is not index
        assert "d" in circuit_analysis(circuit).observable
        assert circuit.index.names[-1] == "d"
        assert circuit.index.outputs == (circuit.index.ids["y"], circuit.index.ids["d"])

    def test_a_loop_raises_and_caches_no_index(self):
        circuit = LogicCircuit("loop")
        circuit.add_input("a")
        circuit.add_gate("g1", "NAND2", ["a", "z"], "y")
        circuit.add_gate("g2", "INV", ["y"], "z")
        circuit.add_output("z")
        for _ in range(2):
            with pytest.raises(LogicCircuitError, match="combinational loop"):
                _ = circuit.index
            assert circuit._index is None

    def test_index_pickles_with_its_circuit(self):
        circuit = resolve_circuit("rdag:40,4")
        index = circuit.index
        copy = pickle.loads(pickle.dumps(circuit))
        assert copy._index is not None
        for part in ("names", "ids", "gate_inputs", "fanouts", "levels", "outputs"):
            assert getattr(copy.index, part) == getattr(index, part)
        assert [g.name for g in copy.index.order] == [g.name for g in index.order]
        assert copy.index.order[0] is copy.gate(index.order[0].name)

    def test_analysis_is_freed_with_its_circuit(self):
        def run_atpg() -> weakref.ref:
            circuit = resolve_circuit("c17")
            podem = get_atpg_engine("podem")
            for net in circuit.nets():
                podem.generate(circuit, StuckAtFault(net, 0))
            return weakref.ref(circuit)

        ref = run_atpg()
        gc.collect()
        assert ref() is None


class TestOneLearningPass:
    @pytest.mark.parametrize("model", ["stuck-at", "transition", "obd"])
    def test_one_pass_per_campaign(self, learn_calls, model):
        spec = CampaignSpec(model=model, circuit="rdag:40,4")
        result = Campaign(spec).run()
        assert result.atpg_phase.attempted > 0
        assert len(learn_calls) == 1

    def test_pickled_circuit_carries_its_analysis(self, learn_calls):
        circuit = resolve_circuit("rdag:40,4")
        circuit_analysis(circuit).build()
        assert len(learn_calls) == 1
        copy = pickle.loads(pickle.dumps(circuit))
        analysis = circuit_analysis(copy)
        assert analysis.circuit is copy
        assert analysis.learning.constants == circuit_analysis(circuit).learning.constants
        for net in copy.nets():
            get_atpg_engine("podem").generate(copy, StuckAtFault(net, 1))
        assert len(learn_calls) == 1

    @pytest.mark.parametrize("static_phase", [True, False])
    def test_sharded_workers_do_not_relearn(self, learn_calls, static_phase):
        spec = CampaignSpec(
            model="stuck-at", circuit="rdag:40,4", pattern_source="random",
            pattern_count=8, static_phase=static_phase,
        )
        sharded = ShardedCampaign(spec, shards=3, pool=PicklingExecutor()).run()
        assert len(learn_calls) == 1
        single = Campaign(spec).run()
        assert sharded.as_dict(include_runtime=False) == single.as_dict(include_runtime=False)


class TestOneSort:
    """Every consumer reads the circuit's one structural index."""

    @pytest.mark.parametrize(
        "spec",
        [
            CampaignSpec(model="stuck-at", circuit="rdag:200,4", pattern_source="random",
                         pattern_count=192, seed=0, engine="packed"),
            CampaignSpec(model="obd", circuit="rdag:60,4", pattern_source="random",
                         pattern_count=256, seed=0, engine="packed"),
        ],
        ids=["sa-rdag", "obd-rdag"],
    )
    def test_one_topological_sort_per_campaign(self, spec, monkeypatch):
        sorts: Counter = Counter()
        original = netlist_module._kahn_order

        def spy(circuit):
            sorts[id(circuit)] += 1
            return original(circuit)

        monkeypatch.setattr(netlist_module, "_kahn_order", spy)
        result = Campaign(spec).run()
        assert result.atpg_phase.attempted > 1
        assert list(sorts.values()) == [1]
