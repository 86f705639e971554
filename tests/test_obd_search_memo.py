"""The OBD ATPG search memo: each distinct search runs once per ATPG run."""

from __future__ import annotations

import sys

import pytest

from repro.atpg import PodemOptions, generate_obd_test, get_atpg_engine, podem
from repro.campaign import Campaign, CampaignSpec, ShardedCampaign, get_model
from repro.campaign.circuits import resolve_circuit
from repro.campaign.runner import generate_atpg_outcomes
from repro.faults import StuckAtFault, obd_fault_universe
from repro.logic import GateType, LogicCircuit

#: The end-to-end benchmark's OBD campaign (``obd-rdag``).
BENCHMARK_SPEC = CampaignSpec(
    model="obd",
    circuit="rdag:60,4",
    pattern_source="random",
    pattern_count=256,
    seed=0,
    engine="packed",
)


@pytest.fixture
def search_calls(monkeypatch):
    """Count capture and launch searches, wherever the functions were imported."""
    calls = {"capture": 0, "justify": 0}
    originals = {"capture": podem.generate_stuck_at_test, "justify": podem.justify}

    def counted(kind):
        original = originals[kind]

        def spy(*args, **kwargs):
            calls[kind] += 1
            return original(*args, **kwargs)

        return spy

    spies = {kind: counted(kind) for kind in originals}
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            for kind, original in originals.items():
                if value is original:
                    monkeypatch.setattr(module, attr, spies[kind])
    obd_atpg = sys.modules["repro.atpg.obd_atpg"]
    assert obd_atpg.generate_stuck_at_test is spies["capture"]
    assert obd_atpg.justify is spies["justify"]
    return calls


class TestPodemOptionsValidation:
    @pytest.mark.parametrize("engine", ["two-rail", "podem", "d-alg"])
    def test_unassigned_inputs_are_filled_with_zero(self, engine):
        circuit = LogicCircuit("fill")
        circuit.add_inputs(["A", "B", "C"])
        circuit.add_output("Y")
        circuit.add_output("Z")
        circuit.add_gate("g1", GateType.AND2, ["A", "B"], "Y")
        circuit.add_gate("g2", GateType.INV, ["C"], "Z")
        fault = StuckAtFault("Y", 0)
        if engine == "two-rail":
            result = podem.generate_stuck_at_test(circuit, fault)
        else:
            result = get_atpg_engine(engine).generate(circuit, fault)
        assert result.pattern == {"A": 1, "B": 1, "C": 0}

    @pytest.mark.parametrize("max_backtracks", [-1, 1.5, "10", True, None])
    def test_max_backtracks_must_be_a_nonnegative_int(self, max_backtracks):
        with pytest.raises(ValueError, match="max_backtracks"):
            PodemOptions(max_backtracks=max_backtracks)

    @pytest.mark.parametrize("max_backtracks", [0, 1])
    def test_valid_options_accepted(self, max_backtracks):
        assert PodemOptions(max_backtracks=max_backtracks).max_backtracks == max_backtracks


class TestSearchCounts:
    def test_benchmark_spec_runs_each_distinct_search_once(self, search_calls):
        result = Campaign(BENCHMARK_SPEC).run()
        atpg = result.atpg_phase
        assert (atpg.attempted, atpg.backtracks, atpg.decisions) == (70, 1710, 930)
        assert search_calls == {"capture": 58, "justify": 9}

        search_calls.update(capture=0, justify=0)
        circuit = resolve_circuit(BENCHMARK_SPEC.circuit)
        faults = [outcome.fault for outcome in atpg.outcomes]
        outcomes, skipped = generate_atpg_outcomes(get_model("obd"), circuit, faults, set())
        assert skipped == []
        effort = (sum(o.backtracks for o in outcomes), sum(o.decisions for o in outcomes))
        assert (len(outcomes), *effort) == (70, 1710, 930)
        assert outcomes == atpg.outcomes
        assert search_calls == {"capture": 58, "justify": 9}

    def test_separate_calls_without_a_memo_do_not_share_one(self, search_calls, fa_sum):
        fault = next(iter(obd_fault_universe(fa_sum)))
        generate_obd_test(fa_sum, fault)
        first = dict(search_calls)
        generate_obd_test(fa_sum, fault)
        assert search_calls == {kind: 2 * count for kind, count in first.items()}
        assert first["capture"] >= 1


@pytest.mark.parametrize("circuit_name", ["fa_sum", "c17", "rdag:60,5"])
@pytest.mark.parametrize("max_backtracks", [20_000, 2])
def test_shared_memo_matches_fresh_memo_per_fault(circuit_name, max_backtracks):
    circuit = resolve_circuit(circuit_name)
    options = PodemOptions(max_backtracks=max_backtracks)
    shared: dict = {}
    aborted = 0
    for fault in obd_fault_universe(circuit):
        fresh = generate_obd_test(circuit, fault, options=options, searches={})
        memoized = generate_obd_test(circuit, fault, options=options, searches=shared)
        assert memoized == fresh, fault.key
        assert generate_obd_test(circuit, fault, options=options) == fresh
        aborted += fresh.aborted
    if circuit_name == "rdag:60,5" and max_backtracks == 2:
        # The tight budget must really exercise aborted results from the memo.
        assert aborted > 0


def test_sharded_benchmark_spec_matches_single_process():
    base = Campaign(BENCHMARK_SPEC).run()
    sharded = ShardedCampaign(BENCHMARK_SPEC, shards=3, max_workers=2).run()
    assert sharded.as_dict(include_runtime=False) == base.as_dict(include_runtime=False)


def test_memo_keeps_option_budgets_apart():
    circuit = resolve_circuit("rdag:60,5")
    shared: dict = {}
    for max_backtracks in (2, 20_000, 2):
        options = PodemOptions(max_backtracks=max_backtracks)
        for fault in obd_fault_universe(circuit):
            fresh = generate_obd_test(circuit, fault, options=options, searches={})
            memoized = generate_obd_test(circuit, fault, options=options, searches=shared)
            assert memoized == fresh, (max_backtracks, fault.key)


def test_cube_order_is_part_of_the_key():
    """Equal cubes in a different pin order are different searches.

    ``g1`` and ``g2`` read the same nets in swapped order, and the
    justification of ``{x: 0, y: 1}`` picks ``p`` differently depending on
    which objective comes first, so a sorted key would hand ``g2`` the launch
    pattern of ``g1``.
    """
    circuit = LogicCircuit("swapped_pins")
    circuit.add_inputs(["p", "q"])
    circuit.add_gate("gn", "INV", ["p"], "pn")
    circuit.add_gate("gx", "AND2", ["p", "q"], "x")
    circuit.add_gate("gy", "OR2", ["p", "pn"], "y")
    circuit.add_gate("g1", "NAND2", ["x", "y"], "o1")
    circuit.add_gate("g2", "NAND2", ["y", "x"], "o2")
    circuit.add_output("o1")
    circuit.add_output("o2")
    shared: dict = {}
    launches = {}
    for fault in obd_fault_universe(circuit):
        fresh = generate_obd_test(circuit, fault, searches={})
        memoized = generate_obd_test(circuit, fault, searches=shared)
        assert memoized == fresh, fault.key
        if fresh.success:
            launches[fault.key] = fresh.tests[0][0]
    assert launches["g1/NA"] != launches["g2/NA"]
