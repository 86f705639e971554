"""Tests for the netlist static-analysis subsystem.

Covers the lint/DRC rule registry (circuit- and ``.bench``-source), the
SCOAP testability measures, the ternary implication engine with static
learning, the structural untestability prover (cross-checked against
exhaustive PODEM search), the campaign static phase, and the
collapse-preserves-coverage property for equivalence and dominance fault
collapsing.
"""

from __future__ import annotations

import math
from dataclasses import replace
from itertools import product

import pytest

from repro.analysis_static import (
    ImplicationEngine,
    Severity,
    learn_implications,
    lint_bench,
    lint_circuit,
    prove_stuck_at_untestable,
    prove_transition_untestable,
    scoap_measures,
    scoap_summary,
)
from repro.analysis_static.cli import main as lint_cli_main
from repro.analysis_static.implication import _closure_table, _gate_relation, _tie_pattern
from repro.analysis_static.lint import _RULES
from repro.analysis_static.untestable import (
    DEAD_CONE,
    LAUNCH_IMPOSSIBLE,
    UNEXCITABLE,
    UNOBSERVABLE,
    StaticProof,
)
from repro.atpg import (
    generate_stuck_at_test,
    generate_transition_test,
)
from repro.campaign import (
    CampaignError,
    CampaignSpec,
    ShardedCampaign,
    get_model,
    resolve_circuit,
    run_campaign,
    run_sharded_campaign,
)
from repro.faults import stuck_at_universe, transition_fault_universe
from repro.logic import GateType, LogicCircuit, random_dag, write_bench
from repro.logic.gates import evaluate_gate


# --------------------------------------------------------------------- #
# Small purpose-built circuits.
# --------------------------------------------------------------------- #
def and2_circuit() -> LogicCircuit:
    c = LogicCircuit("and2")
    c.add_inputs(["a", "b"])
    c.add_gate("g", GateType.AND2, ["a", "b"], "y")
    c.add_output("y")
    return c


def xor_tied_circuit() -> LogicCircuit:
    """y = XOR(x, x): constant 0, with a tied gate input."""
    c = LogicCircuit("xorxx")
    c.add_input("x")
    c.add_gate("g", GateType.XOR2, ["x", "x"], "y")
    c.add_output("y")
    return c


def reconvergent_buffer_circuit() -> LogicCircuit:
    """y = AND(x, BUFF(x)): faults on the internal net ``b`` are blocked."""
    c = LogicCircuit("rebuf")
    c.add_input("x")
    c.add_gate("g1", GateType.BUF, ["x"], "b")
    c.add_gate("g2", GateType.AND2, ["x", "b"], "y")
    c.add_output("y")
    return c


def dead_cone_circuit() -> LogicCircuit:
    """Gate ``g2`` drives net ``z`` that reaches no primary output."""
    c = LogicCircuit("deadcone")
    c.add_inputs(["a", "b"])
    c.add_gate("g1", GateType.INV, ["a"], "y")
    c.add_gate("g2", GateType.INV, ["b"], "z")
    c.add_output("y")
    return c


# --------------------------------------------------------------------- #
# Lint rules over in-memory circuits.
# --------------------------------------------------------------------- #
class TestLintRules:
    def test_registry_is_deterministic_and_complete(self):
        rules = tuple(_RULES)  # registration (execution) order
        assert rules == (
            "undriven-net",
            "multiply-driven-net",
            "combinational-cycle",
            "dead-cone",
            "unused-input",
            "constant-net",
            "tied-input",
        )

    def test_clean_circuit_has_no_diagnostics(self):
        report = lint_circuit(resolve_circuit("c17"))
        assert report.ok
        assert report.diagnostics == []
        assert report.counts() == {"errors": 0, "warnings": 0, "infos": 0}

    def test_undriven_net_is_an_error(self):
        c = LogicCircuit("broken")
        c.add_input("a")
        c.add_gate("g", GateType.NAND2, ["a", "ghost"], "y")
        c.add_output("y")
        report = lint_circuit(c)
        assert not report.ok
        (diag,) = [d for d in report.errors if d.rule == "undriven-net"]
        assert diag.net == "ghost"
        assert diag.severity is Severity.ERROR

    def test_combinational_cycle_is_an_error(self):
        c = LogicCircuit("cyclic")
        c.add_input("a")
        c.add_gate("g1", GateType.AND2, ["a", "z"], "y")
        c.add_gate("g2", GateType.INV, ["y"], "z")
        c.add_output("y")
        report = lint_circuit(c)
        assert any(d.rule == "combinational-cycle" for d in report.errors)

    def test_dead_cone_and_unused_input_warnings(self):
        report = lint_circuit(dead_cone_circuit())
        assert report.ok  # warnings only
        rules = {d.rule for d in report.warnings}
        assert "dead-cone" in rules
        assert "unused-input" not in rules  # b drives a gate, it is just dead
        dead = [d for d in report.warnings if d.rule == "dead-cone"]
        assert {d.net for d in dead} == {"z"}

    def test_truly_unused_input_warns(self):
        c = LogicCircuit("unused")
        c.add_inputs(["a", "b"])
        c.add_gate("g", GateType.INV, ["a"], "y")
        c.add_output("y")
        report = lint_circuit(c)
        assert any(d.rule == "unused-input" and d.net == "b" for d in report.warnings)

    def test_constant_net_and_tied_input(self):
        report = lint_circuit(xor_tied_circuit())
        assert any(d.rule == "constant-net" and d.net == "y" for d in report.warnings)
        assert any(d.rule == "tied-input" for d in report.infos)

    def test_tied_input_read_off_the_full_report(self):
        report = lint_circuit(xor_tied_circuit())
        tied = [d for d in report.diagnostics if d.rule == "tied-input"]
        assert len(tied) == 1 and tied[0].severity is Severity.INFO

    def test_every_diagnostic_names_a_registered_rule(self):
        for circuit in (xor_tied_circuit(), dead_cone_circuit(), and2_circuit()):
            rules = {d.rule for d in lint_circuit(circuit).diagnostics}
            assert rules <= set(_RULES)

    def test_diagnostic_format_names_the_site(self):
        report = lint_circuit(dead_cone_circuit())
        (diag,) = [d for d in report.warnings if d.rule == "dead-cone"]
        assert "net 'z'" in diag.format()
        assert diag.as_dict()["severity"] == "warning"


class TestLintBench:
    def test_multiply_driven_net_reports_both_lines(self):
        text = "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = BUFF(a)\n"
        report = lint_bench(text, name="dup")
        (diag,) = [d for d in report.errors if d.rule == "multiply-driven-net"]
        assert diag.net == "y"
        assert diag.line == 4
        assert "line 3" in diag.message

    def test_parse_error_fallback_carries_line_number(self):
        text = "INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n"
        report = lint_bench(text, name="bad-op")
        assert not report.ok
        (diag,) = report.errors
        assert diag.rule == "parse-error"
        assert diag.line == 3

    def test_structural_findings_carry_source_lines(self):
        text = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOT(a)\nz = NOT(b)\n"
        report = lint_bench(text, name="dead")
        (diag,) = [d for d in report.warnings if d.rule == "dead-cone"]
        assert diag.line == 5

    def test_round_tripped_circuit_is_clean(self):
        report = lint_bench(write_bench(resolve_circuit("c17")), name="c17")
        assert report.ok and not report.diagnostics


# --------------------------------------------------------------------- #
# SCOAP testability measures.
# --------------------------------------------------------------------- #
class TestScoap:
    def test_and2_classical_values(self):
        m = scoap_measures(and2_circuit())
        assert m.cc0["a"] == m.cc1["a"] == 1.0
        assert m.cc0["y"] == 2.0  # cheapest 0 via one controlling input
        assert m.cc1["y"] == 3.0  # both inputs must be 1
        assert m.co["y"] == 0.0
        assert m.co["a"] == 2.0  # CO(y) + CC1(b) + 1
        assert m.controllability("y", 0) == 2.0
        assert m.controllability("y", 1) == 3.0

    def test_inverter_chain_accumulates(self):
        c = LogicCircuit("chain")
        c.add_input("a")
        c.add_gate("g1", GateType.INV, ["a"], "n1")
        c.add_gate("g2", GateType.INV, ["n1"], "n2")
        c.add_output("n2")
        m = scoap_measures(c)
        assert m.cc0["n1"] == 2.0 and m.cc1["n1"] == 2.0
        assert m.cc0["n2"] == 3.0 and m.cc1["n2"] == 3.0
        assert m.co["a"] == 2.0

    def test_unreachable_value_is_infinite(self):
        c = xor_tied_circuit()
        m = scoap_measures(c)
        # y is constant 0: setting it to 0 needs no input, only the gate hop.
        assert m.cc0["y"] == 1.0
        assert math.isinf(m.cc1["y"])
        assert math.isinf(m.co["x"])  # x never propagates through XOR(x, x)
        assert scoap_summary(c)["unreachable"] >= 1

    def test_c17_summary(self):
        summary = scoap_summary(resolve_circuit("c17"))
        assert summary["max_cc"] == 5.0
        assert summary["max_co"] == 7.0
        assert summary["unreachable"] == 0
        assert summary["mean_cc"] == pytest.approx(2.318, abs=1e-3)
        assert summary["mean_co"] == pytest.approx(3.909, abs=1e-3)

    def test_stats_attaches_scoap_on_demand(self):
        c = resolve_circuit("c17")
        assert c.stats().scoap is None
        stats = c.stats(include_scoap=True)
        assert stats.scoap is not None
        assert stats.scoap["max_cc"] == 5.0


# --------------------------------------------------------------------- #
# Ternary implication engine + static learning.
# --------------------------------------------------------------------- #
class TestImplication:
    def test_backward_and_forward_implication(self):
        engine = ImplicationEngine(and2_circuit())
        implied = engine.imply({"y": 1})
        assert implied is not None
        assert implied["a"] == 1 and implied["b"] == 1
        implied = engine.imply({"a": 0})
        assert implied is not None and implied["y"] == 0

    def test_contradiction_detected(self):
        engine = ImplicationEngine(xor_tied_circuit())
        assert engine.imply({"y": 1}) is None

    def test_baseline_constants(self):
        assert ImplicationEngine(xor_tied_circuit()).baseline.get("y") == 0
        assert ImplicationEngine(resolve_circuit("c17")).baseline == {}

    def test_static_learning_finds_constants(self):
        learning = learn_implications(xor_tied_circuit())
        assert learning.constants.get("y") == 0

    def test_static_learning_on_reconvergence(self):
        circuit = reconvergent_buffer_circuit()
        learning = learn_implications(circuit)
        engine = ImplicationEngine(
            circuit, learned=learning.implications, constants=learning.constants
        )
        # b tracks x, so x=0 must force y=0 (and the contrapositive y=1 -> x=1).
        assert engine.imply({"x": 0})["y"] == 0
        assert engine.imply({"y": 1})["x"] == 1


def _tie_patterns(arity: int):
    """Every pin-tie pattern of *arity* input pins plus an output.

    Inputs get restricted-growth labels (first-use order); the output is a
    fresh net or, for a self-loop, one of the input nets.
    """
    labels = [[0]]
    for _ in range(arity - 1):
        labels = [pins + [k] for pins in labels for k in range(max(pins) + 2)]
    for pins in labels:
        for out in range(max(pins) + 2):
            yield tuple(pins) + (out,)


def _brute_force_closure(gate_type, pattern, known):
    """Conflict (None) or forced ``(position, value)`` pairs by enumeration."""
    *pins, out = pattern
    solutions = [
        bits
        for bits in product((0, 1), repeat=len(known))
        if all(k is None or k == b for k, b in zip(known, bits))
        and bits[out] == evaluate_gate(gate_type, [bits[p] for p in pins])
    ]
    if not solutions:
        return None
    return tuple(
        (position, solutions[0][position])
        for position, k in enumerate(known)
        if k is None and len({s[position] for s in solutions}) == 1
    )


class TestClosureTables:
    def test_tie_patterns_of_named_shapes(self):
        assert _tie_pattern(("x", "x"), "y") == (("x", "y"), (0, 0, 1))
        assert _tie_pattern(("a", "b", "a"), "y") == (("a", "b", "y"), (0, 1, 0, 2))
        assert _tie_pattern(("a", "a", "b"), "y") == (("a", "b", "y"), (0, 0, 1, 2))
        # XOR2(x, x) is constant 0 with nothing known.
        assert _closure_table(GateType.XOR2, (0, 0, 1))[8] == ((1, 0),)

    @pytest.mark.parametrize("gate_type", list(GateType))
    def test_closure_table_equals_brute_force(self, gate_type):
        for pattern in _tie_patterns(gate_type.num_inputs):
            table = _closure_table(gate_type, pattern)
            states = list(product((0, 1, None), repeat=max(pattern) + 1))
            assert len(table) == len(states)
            for index, known in enumerate(states):
                assert table[index] == _brute_force_closure(gate_type, pattern, known), (
                    gate_type, pattern, known
                )

    def test_relation_rows_are_shared_across_net_names(self):
        nets_a, rows_a = _gate_relation(GateType.NAND3, ("a", "b", "a"), "y")
        nets_b, rows_b = _gate_relation(GateType.NAND3, ("p", "q", "p"), "z")
        assert nets_a == ("a", "b", "y") and nets_b == ("p", "q", "z")
        assert rows_a is rows_b
        assert rows_a == ((0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 0))

    def test_non_binary_seed_value_is_rejected(self):
        # The closure tables index known values as 0/1 and unknown as 2.
        with pytest.raises(ValueError, match="must be 0/1"):
            ImplicationEngine(and2_circuit()).imply({"a": 2})

    def test_foreign_seed_constant_is_rejected(self):
        with pytest.raises(ValueError, match="'nope' is not in the circuit"):
            ImplicationEngine(resolve_circuit("c17"), constants={"nope": 1})

    def test_non_binary_seed_constant_is_rejected(self):
        # 2 is the engine's code for unknown, so it cannot seed a constant.
        with pytest.raises(ValueError, match="'G1' must be 0/1"):
            ImplicationEngine(resolve_circuit("c17"), constants={"G1": 2})


# --------------------------------------------------------------------- #
# Static untestability proofs.
# --------------------------------------------------------------------- #
class TestStaticProofs:
    def test_dead_cone_fault_is_proven(self):
        c = dead_cone_circuit()
        proofs = prove_stuck_at_untestable(c, stuck_at_universe(c))
        assert proofs["z/sa0"].reason == DEAD_CONE
        assert proofs["z/sa1"].reason == DEAD_CONE

    def test_constant_net_fault_is_unexcitable(self):
        c = xor_tied_circuit()
        proofs = prove_stuck_at_untestable(c, stuck_at_universe(c))
        assert proofs["y/sa0"].reason == UNEXCITABLE
        assert "y/sa1" not in proofs  # a constant-0 output stuck at 1 is testable

    def test_blocked_propagation_is_unobservable(self):
        c = reconvergent_buffer_circuit()
        proofs = prove_stuck_at_untestable(c, stuck_at_universe(c))
        assert "b/sa1" in proofs
        assert proofs["b/sa1"].reason in (UNOBSERVABLE, UNEXCITABLE)

    def test_impossible_launch_is_proven_for_transitions(self):
        c = xor_tied_circuit()
        proofs = prove_transition_untestable(c, transition_fault_universe(c))
        # y never reaches 1, so the 1->0 launch of a slow-to-fall is impossible.
        assert "y/stf" in proofs
        assert proofs["y/stf"].reason == LAUNCH_IMPOSSIBLE

    @pytest.mark.parametrize("ref", ["rdag:60,5", "rdag:120,7", "mult:3", "alu:3"])
    def test_stuck_at_proofs_are_podem_confirmed(self, ref):
        """Acceptance: every statically proven fault is PODEM-proven untestable
        with the search exhausted, never aborted."""
        circuit = resolve_circuit(ref)
        faults = stuck_at_universe(circuit)
        proofs = prove_stuck_at_untestable(circuit, faults)
        if ref == "rdag:60,5":
            assert len(proofs) == 15  # known redundancy count; guards vacuity
        by_key = {f.key: f for f in faults}
        for key in proofs:
            result = generate_stuck_at_test(circuit, by_key[key])
            assert not result.aborted, f"{ref}: search aborted for {key}"
            assert result.untestable, f"{ref}: PODEM found a test for proven {key}"

    @pytest.mark.parametrize("ref", ["rdag:60,5", "mult:3"])
    def test_transition_proofs_are_podem_confirmed(self, ref):
        circuit = resolve_circuit(ref)
        faults = transition_fault_universe(circuit)
        proofs = prove_transition_untestable(circuit, faults)
        if ref == "rdag:60,5":
            assert len(proofs) == 23
        by_key = {f.key: f for f in faults}
        for key in proofs:
            result = generate_transition_test(circuit, by_key[key])
            assert not result.aborted, f"{ref}: search aborted for {key}"
            assert result.untestable, f"{ref}: PODEM found a test for proven {key}"


# --------------------------------------------------------------------- #
# Campaign integration.
# --------------------------------------------------------------------- #
class TestCampaignStaticPhase:
    def _spec(self, **overrides) -> CampaignSpec:
        base = dict(
            circuit="rdag:60,5",
            pattern_source="random",
            pattern_count=16,
            seed=7,
            run_atpg=True,
        )
        base.update(overrides)
        return CampaignSpec(**base)

    def test_static_phase_on_by_default(self):
        result = run_campaign(spec=self._spec())
        phase = result.static_phase
        assert phase is not None
        assert phase.lint.ok
        assert phase.num_proven == 15
        assert result.coverage.proven_static == 15
        assert result.coverage.aborted == 0
        # Proven faults are skipped by ATPG and recorded as untestable.
        assert set(result.atpg_phase.proven) == set(phase.proofs)
        assert result.coverage.untestable >= phase.num_proven

    def test_as_dict_payload(self):
        payload = run_campaign(spec=self._spec()).as_dict()
        assert payload["spec"]["static_phase"] is True
        static = payload["static_phase"]
        assert static["lint"]["errors"] == 0
        assert len(static["proven_untestable"]) == 15
        assert "scoap" in payload["circuit_stats"]

    def test_opt_out_disables_the_phase(self):
        result = run_campaign(spec=self._spec(static_phase=False))
        assert result.static_phase is None
        assert result.coverage.proven_static == 0
        assert "static_phase" not in result.as_dict()

    @pytest.mark.parametrize("model", ["stuck-at", "transition"])
    def test_pruning_on_equals_off(self, model):
        """Static pruning must not change what the campaign detects."""
        on = run_campaign(spec=self._spec(model=model))
        off = run_campaign(spec=self._spec(model=model, static_phase=False))
        assert on.coverage.aborted == off.coverage.aborted == 0
        assert set(on.detected_faults) == set(off.detected_faults)
        assert on.coverage.detected == off.coverage.detected
        assert on.coverage.untestable == off.coverage.untestable
        assert on.coverage.total_faults == off.coverage.total_faults

    def test_lint_errors_abort_the_campaign(self):
        c = LogicCircuit("broken")
        c.add_input("a")
        c.add_gate("g", GateType.NAND2, ["a", "ghost"], "y")
        c.add_output("y")
        with pytest.raises(CampaignError, match="undriven-net"):
            run_campaign(c, spec=self._spec(circuit=None))

    def test_sharded_run_is_bit_identical(self):
        spec = self._spec()
        base = run_campaign(spec=spec)
        sharded = run_sharded_campaign(spec=spec, shards=3, max_workers=0)
        assert sharded.as_dict(include_runtime=False) == base.as_dict(include_runtime=False)

    def test_dominance_collapse_mode(self):
        full = run_campaign(spec=self._spec(collapse=False))
        equiv = run_campaign(spec=self._spec(collapse="equivalence"))
        dom = run_campaign(spec=self._spec(collapse="dominance"))
        assert len(dom.faults) <= len(equiv.faults) < len(full.faults)
        with pytest.raises(CampaignError, match="unknown collapse mode"):
            CampaignSpec(collapse="bogus")


#: The eager reference: the free provers over a whole collapsed universe.
EAGER_PROVERS = {
    "stuck-at": prove_stuck_at_untestable,
    "transition": prove_transition_untestable,
}

#: The spec of the end-to-end benchmark's ``sa-rdag`` workload.
SA_RDAG = CampaignSpec(
    model="stuck-at", circuit="rdag:200,4", pattern_source="random",
    pattern_count=192, seed=0, engine="packed",
)

_RDAG_60 = dict(circuit="rdag:60,5", pattern_source="random", pattern_count=16, seed=7)

LAZY_SPECS = {
    "sa-rdag": SA_RDAG,
    "transition-keep": CampaignSpec(model="transition", **_RDAG_60),
    "transition-drop": CampaignSpec(model="transition", drop_detected=True, **_RDAG_60),
    "no-patterns": CampaignSpec(**{**_RDAG_60, "pattern_source": "none"}),
    "exhaustive": CampaignSpec(**{**_RDAG_60, "pattern_source": "exhaustive"}),
    "no-atpg": CampaignSpec(run_atpg=False, **_RDAG_60),
}


def _golden_runs():
    """(circuit, spec) of every golden campaign, static phase switched on."""
    from test_golden_campaign import CASES, GOLDEN_DIR

    for name in sorted(CASES):
        bench, spec = CASES[name]
        yield name, resolve_circuit(GOLDEN_DIR / bench), replace(spec, static_phase=True)


def _eager_proofs(result, circuit) -> dict:
    prove = EAGER_PROVERS.get(result.spec.model)
    return prove(circuit, result.faults) if prove is not None else {}


def _assert_lazy_equals_eager(result, circuit) -> None:
    eager = _eager_proofs(result, circuit)
    lazy = result.static_phase.proofs
    assert lazy == eager  # same keys, reasons and detail strings
    assert list(lazy) == list(eager)  # in universe order
    assert result.static_phase.num_proven == result.coverage.proven_static


class TestLazyProofs:
    """Round 1 proves only the faults the patterns leave undetected.

    The prover is sound, so no pattern-detected fault is provable and the
    proofs over the survivors equal the eager proofs over the whole
    collapsed universe.
    """

    @pytest.mark.parametrize("name", sorted(LAZY_SPECS))
    def test_lazy_proofs_equal_eager_proofs(self, name):
        spec = LAZY_SPECS[name]
        circuit = resolve_circuit(spec.circuit)
        _assert_lazy_equals_eager(run_campaign(circuit, spec), circuit)

    def test_lazy_proofs_equal_eager_proofs_on_golden_specs(self):
        for _, circuit, spec in _golden_runs():
            _assert_lazy_equals_eager(run_campaign(circuit, spec), circuit)

    @pytest.mark.parametrize("shards", [1, 3, 7])
    def test_sharded_proofs_equal_eager_proofs(self, shards):
        for spec in (SA_RDAG, LAZY_SPECS["transition-drop"], LAZY_SPECS["no-patterns"]):
            circuit = resolve_circuit(spec.circuit)
            result = ShardedCampaign(spec, shards=shards, max_workers=0).run(circuit)
            _assert_lazy_equals_eager(result, circuit)
            assert result.as_dict(include_runtime=False) == run_campaign(
                circuit, spec
            ).as_dict(include_runtime=False)

    @pytest.mark.parametrize("name", ["sa-rdag", "transition-keep", "transition-drop"])
    def test_prover_sees_only_the_pattern_survivors(self, name, monkeypatch):
        spec = LAZY_SPECS[name]
        model = get_model(spec.model)
        seen: list = []
        original = model.prove_untestable

        def spy(circuit, faults):
            seen.extend(fault.key for fault in faults)
            return original(circuit, faults)

        monkeypatch.setattr(model, "prove_untestable", spy)
        result = run_campaign(spec=spec)
        words = result.pattern_phase.report.words
        survivors = [key for key in result.faults.keys() if not words.get(key)]
        assert seen == survivors
        assert 0 < len(seen) < len(result.faults)

    def test_no_eager_proven_fault_has_a_detection_bit(self):
        """The soundness premise, checked directly on the pattern reports."""
        runs = [(resolve_circuit(s.circuit), s) for s in LAZY_SPECS.values()]
        runs += [(circuit, spec) for _, circuit, spec in _golden_runs()]
        for circuit, spec in runs:
            result = run_campaign(circuit, spec)
            eager = _eager_proofs(result, circuit)
            for phase in (result.pattern_phase, result.atpg_phase):
                if phase is not None:
                    assert not [key for key in eager if phase.report.words.get(key)]

    def test_sa_rdag_search_is_pinned(self):
        """The end-to-end benchmark's stuck-at campaign makes the same search
        decisions and proofs with the prover after the patterns."""
        result = run_campaign(spec=SA_RDAG)
        atpg = result.atpg_phase
        assert (atpg.attempted, atpg.backtracks, atpg.decisions, atpg.implications) == (
            22, 298, 149, 1884,
        )
        assert result.static_phase.num_proven == 76
        assert len(atpg.proven) == 76


class TestSoundnessAlarm:
    """An ATPG (round-2) detection of a "proven" fault aborts the campaign."""

    SPEC = CampaignSpec(circuit="c17", pattern_source="none", collapse=True)

    @staticmethod
    def _victim(spec) -> str:
        """A fault that the test generated for another fault also detects."""
        result = run_campaign(spec=spec)
        start = 0
        for outcome in result.atpg_phase.outcomes:
            own = range(start, start + len(outcome.tests))
            start += len(outcome.tests)
            if any(index not in own for index in result.detections.get(outcome.fault.key, ())):
                return outcome.fault.key
        raise AssertionError("no fault is detected by another fault's test")

    @pytest.fixture
    def unsound(self, monkeypatch):
        """The stuck-at prover, made to also "prove" one detectable fault."""
        victim = self._victim(self.SPEC)
        model = get_model("stuck-at")
        original = model.prove_untestable

        def prove(circuit, faults):
            proofs = original(circuit, faults)
            if any(fault.key == victim for fault in faults):
                proofs[victim] = StaticProof(victim, UNEXCITABLE, "injected")
            return proofs

        monkeypatch.setattr(model, "prove_untestable", prove)
        return victim

    def test_in_process_run_raises(self, unsound):
        with pytest.raises(CampaignError, match="unsound") as err:
            run_campaign(spec=self.SPEC)
        assert repr(unsound) in str(err.value)

    def test_inline_sharded_run_raises(self, unsound):
        with pytest.raises(CampaignError, match="unsound") as err:
            run_sharded_campaign(spec=self.SPEC, shards=3, max_workers=0)
        assert repr(unsound) in str(err.value)


class TestLintCli:
    def test_clean_targets_exit_zero(self, capsys):
        assert lint_cli_main(["c17", "mult:3"]) == 0
        out = capsys.readouterr().out
        assert out.count("ok") == 2

    def test_bad_bench_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.bench"
        bad.write_text("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = BUFF(a)\n")
        assert lint_cli_main([str(bad)]) == 1
        assert "multiply-driven-net" in capsys.readouterr().out


# --------------------------------------------------------------------- #
# Collapse preserves fault coverage (satellite property test).
# --------------------------------------------------------------------- #
class TestCollapsePreservesCoverage:
    """Equivalence- and dominance-collapsed campaigns must produce test sets
    that detect exactly the same faults of the FULL universe as an
    uncollapsed campaign -- the classical collapse-preservation guarantee."""

    @pytest.mark.parametrize("seed", [5, 11])
    @pytest.mark.parametrize("engine", ["packed", "numpy", "serial"])
    @pytest.mark.parametrize("model", ["stuck-at", "transition"])
    @pytest.mark.parametrize("drop_detected", [False, True])
    def test_collapsed_tests_cover_full_universe(self, seed, engine, model, drop_detected):
        circuit = random_dag(40, seed=seed)
        if model == "stuck-at":
            universe = stuck_at_universe(circuit)
            simulate = get_model("stuck-at").simulate
        else:
            universe = transition_fault_universe(circuit)
            simulate = get_model("transition").simulate
        full_keys = {f.key for f in universe}

        def run(collapse):
            return run_campaign(
                circuit,
                model=model,
                collapse=collapse,
                pattern_source="random",
                pattern_count=8,
                seed=3,
                run_atpg=True,
                drop_detected=drop_detected,
                engine=engine,
                compact=False,
            )

        reference = run(False)
        assert reference.coverage.aborted == 0
        ref_detected = set(
            simulate(circuit, reference.tests, universe, engine=engine).detected_faults
        )

        for mode in ("equivalence", "dominance"):
            result = run(mode)
            assert result.coverage.aborted == 0
            assert {f.key for f in result.faults} <= full_keys
            assert len(result.faults) <= len(reference.faults)
            detected = set(
                simulate(circuit, result.tests, universe, engine=engine).detected_faults
            )
            assert detected == ref_detected, (
                f"collapse={mode} changed full-universe coverage "
                f"({len(detected)} vs {len(ref_detected)} detected)"
            )
