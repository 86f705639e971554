"""Differential cross-check harness for the structural ATPG core.

The headline invariants, checked on every circuit-generator family:

* every vector any engine returns as ``tested`` actually detects its fault
  under the packed fault simulator (and the serial reference);
* the D-algorithm and the rewritten PODEM -- two complete searches with
  different decision spaces -- never disagree on redundant-vs-testable;
* every fault the static prover declares untestable is ``proven_redundant``
  (or at worst ``aborted``, never ``tested``) by every structural engine;
* on circuits small enough to enumerate exhaustively, ``proven_redundant``
  matches the brute-force oracle exactly (no false proofs, no misses).
"""

from __future__ import annotations

import pytest

from repro.analysis_static.untestable import prove_stuck_at_untestable
from repro.atpg import (
    ATPG_ENGINES,
    PodemOptions,
    StructuralAtpg,
    StructuralAtpgError,
    StructuralResult,
    atpg_engine_names,
    get_atpg_engine,
    register_atpg_engine,
    serial_simulate_stuck_at,
    simulate_stuck_at,
)
from repro.atpg.structural import ABORTED, PROVEN_REDUNDANT, TESTED
from repro.atpg.structural.logic5 import (
    V0,
    V1,
    VD,
    VDB,
    VX,
    evaluate5,
    justification_cubes,
    propagation_cubes,
)
from repro.campaign import Campaign, CampaignSpec, ShardedCampaign, run_campaign
from repro.campaign.circuits import resolve_circuit
from repro.campaign.errors import CampaignError
from repro.campaign.sharded import run_sharded_campaign
from repro.faults.collapse import collapse_stuck_at_faults
from repro.faults.stuck_at import StuckAtFault, stuck_at_universe
from repro.logic.gates import GateType
from repro.logic.netlist import LogicCircuit

GENEROUS = PodemOptions(max_backtracks=200_000)

#: One small instance per registered circuit-generator family.
FAMILY_REFS = [
    "c17",
    "fa_sum",
    "full_adder",
    "mux2",
    "alu:2",
    "cla:3",
    "cmp:3",
    "mult:3",
    "nand_chain:6",
    "parity:5",
    "rca:3",
    "rdag:60,11",
]

STRUCTURAL = ("d-alg", "podem")
ALL_ENGINES = ("d-alg", "podem")


def collapsed_faults(circuit):
    universe = stuck_at_universe(circuit)
    keep = collapse_stuck_at_faults(circuit)
    return [f for f in universe if f in keep]


# --------------------------------------------------------------------------- #
# Five-valued algebra.
# --------------------------------------------------------------------------- #
def test_logic5_classic_identities():
    assert evaluate5(GateType.AND2, (VD, VDB)) == V0
    assert evaluate5(GateType.OR2, (VD, VDB)) == V1
    assert evaluate5(GateType.XOR2, (VD, VD)) == V0
    assert evaluate5(GateType.XOR2, (VD, VDB)) == V1
    assert evaluate5(GateType.NAND2, (VD, V1)) == VDB
    assert evaluate5(GateType.NOR2, (VD, V0)) == VDB
    assert evaluate5(GateType.INV, (VD,)) == VDB
    assert evaluate5(GateType.BUF, (VDB,)) == VDB
    assert evaluate5(GateType.AND2, (V0, VX)) == V0
    assert evaluate5(GateType.AND2, (V1, VX)) == VX


@pytest.mark.parametrize("gate_type", list(GateType))
def test_logic5_tables_match_concrete_pair_semantics(gate_type):
    """Each 5-valued entry is exactly the set-image of its concrete pairs."""
    from itertools import product

    from repro.logic.gates import evaluate_gate

    pairs = {
        V0: ((0, 0),),
        V1: ((1, 1),),
        VD: ((1, 0),),
        VDB: ((0, 1),),
        VX: ((0, 0), (1, 1), (1, 0), (0, 1)),
    }
    back = {(0, 0): V0, (1, 1): V1, (1, 0): VD, (0, 1): VDB}
    for inputs in product((V0, V1, VX, VD, VDB), repeat=gate_type.num_inputs):
        images = set()
        for concrete in product(*(pairs[v] for v in inputs)):
            g = evaluate_gate(gate_type, [c[0] for c in concrete])
            b = evaluate_gate(gate_type, [c[1] for c in concrete])
            images.add(back[(g, b)])
        expected = images.pop() if len(images) == 1 else VX
        assert evaluate5(gate_type, inputs) == expected, inputs


def test_justification_and_propagation_cubes_are_sound_and_complete():
    from itertools import product

    domains = (V0, V1, VD, VDB)
    for gate_type in (GateType.NAND2, GateType.OR3, GateType.XOR2, GateType.OAI21):
        arity = gate_type.num_inputs
        per_input = tuple(domains for _ in range(arity))
        for required in (V0, V1, VD, VDB):
            cubes = justification_cubes(gate_type, required, per_input)
            producing = {
                combo
                for combo in product(domains, repeat=arity)
                if evaluate5(gate_type, combo) == required
            }
            # Exact: every cube produces the target, every producing
            # combination over the domains is enumerated.
            assert set(cubes) == producing, (gate_type, required)
        # Propagation cubes: with one error input, each completion over the
        # unknown positions drives an error onto the output.
        for err in (VD, VDB):
            state = (err,) + (VX,) * (arity - 1)
            cubes = propagation_cubes(gate_type, state, per_input)
            expected = {
                combo
                for combo in product(*((v,) if v != VX else domains for v in state))
                if evaluate5(gate_type, combo) in (VD, VDB)
            }
            assert set(cubes) == expected, (gate_type, err)


# --------------------------------------------------------------------------- #
# Registry.
# --------------------------------------------------------------------------- #
def test_registry_mirrors_packed_simulators_shape():
    assert atpg_engine_names() == ("d-alg", "podem")
    for name in atpg_engine_names():
        engine = get_atpg_engine(name)
        assert isinstance(engine, StructuralAtpg)
        assert engine.name == name
    with pytest.raises(StructuralAtpgError):
        get_atpg_engine("no-such-engine")
    with pytest.raises(ValueError):
        register_atpg_engine(ATPG_ENGINES["podem"])


def test_unknown_fault_net_raises():
    circuit = resolve_circuit("c17")
    with pytest.raises(ValueError):
        get_atpg_engine("podem").generate(circuit, StuckAtFault("nonexistent", 0))


# --------------------------------------------------------------------------- #
# The differential harness: every generator family, every collapsed fault.
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("ref", FAMILY_REFS)
def test_engines_agree_and_vectors_detect(ref):
    circuit = resolve_circuit(ref)
    faults = collapsed_faults(circuit)
    proofs = prove_stuck_at_untestable(circuit, stuck_at_universe(circuit))
    results: dict[str, dict[str, StructuralResult]] = {}
    for name in ALL_ENGINES:
        engine = get_atpg_engine(name)
        results[name] = {f.key: engine.generate(circuit, f, GENEROUS) for f in faults}

    # 1. Every tested vector detects its fault under packed AND serial sim.
    for name, by_key in results.items():
        tested = [(f, by_key[f.key]) for f in faults if by_key[f.key].status == TESTED]
        if tested:
            patterns = [
                tuple(r.pattern[n] for n in circuit.primary_inputs) for _, r in tested
            ]
            for engine_report in (
                simulate_stuck_at(circuit, patterns, [f for f, _ in tested]),
                serial_simulate_stuck_at(circuit, patterns, [f for f, _ in tested]),
            ):
                for index, (fault, _) in enumerate(tested):
                    assert index in engine_report.detections[fault.key], (
                        f"{name} vector {index} misses {fault.key} on {ref}"
                    )

    # 2. The two complete engines never disagree on redundant-vs-testable.
    for fault in faults:
        statuses = {name: results[name][fault.key].status for name in STRUCTURAL}
        decided = {s for s in statuses.values() if s != ABORTED}
        assert len(decided) <= 1, f"engines disagree on {fault.key} in {ref}: {statuses}"

    # 3. Statically proven faults are never 'tested' by any engine.
    for name, by_key in results.items():
        for key in proofs:
            if key in by_key:
                assert by_key[key].status in (PROVEN_REDUNDANT, ABORTED), (
                    f"{name} generated a test for statically-proven {key} on {ref}"
                )


@pytest.mark.parametrize("ref", ["rdag:30,123", "rdag:35,9", "nand_chain:5", "mux2"])
def test_redundancy_proofs_match_exhaustive_oracle(ref):
    """On exhaustively enumerable circuits, proofs are exact: a fault is
    proven_redundant iff no input vector detects it."""
    circuit = resolve_circuit(ref)
    n = len(circuit.primary_inputs)
    assert n <= 10
    patterns = [tuple((v >> i) & 1 for i in range(n)) for v in range(1 << n)]
    faults = collapsed_faults(circuit)
    report = serial_simulate_stuck_at(circuit, patterns, faults)
    oracle_testable = report.detected_faults
    for name in STRUCTURAL:
        engine = get_atpg_engine(name)
        for fault in faults:
            result = engine.generate(circuit, fault, GENEROUS)
            if fault.key in oracle_testable:
                assert result.status == TESTED, (name, fault.key, result.status)
            else:
                assert result.status == PROVEN_REDUNDANT, (name, fault.key, result.status)


# --------------------------------------------------------------------------- #
# Budget handling: aborted is a distinct, honest outcome.
# --------------------------------------------------------------------------- #
def test_zero_budget_aborts_instead_of_claiming_redundancy():
    circuit = resolve_circuit("mult:4")
    faults = collapsed_faults(circuit)
    tight = PodemOptions(max_backtracks=0)
    for name in STRUCTURAL:
        engine = get_atpg_engine(name)
        statuses = {engine.generate(circuit, f, tight).status for f in faults}
        # With zero backtracks some faults still resolve (implication-only or
        # first-try success), but nothing may claim a proof that needed search.
        assert ABORTED in statuses, f"{name} never aborted at zero budget on mult:4"
        results = [engine.generate(circuit, f, tight) for f in faults]
        for r in results:
            if r.status == PROVEN_REDUNDANT:
                assert r.backtracks == 0


def test_counters_are_populated():
    circuit = resolve_circuit("cla:3")
    fault = collapsed_faults(circuit)[0]
    for name in STRUCTURAL:
        result = get_atpg_engine(name).generate(circuit, fault, GENEROUS)
        assert result.engine == name
        assert result.implications > 0


# --------------------------------------------------------------------------- #
# Verification: a lying engine fails loudly.
# --------------------------------------------------------------------------- #
def test_verification_rejects_non_detecting_vector():
    class LyingEngine(StructuralAtpg):
        name = "lying"

        def _search(self, context, fault, closure, options):
            pattern = {net: 0 for net in context.circuit.primary_inputs}
            return StructuralResult(TESTED, pattern, engine=self.name)

    circuit = resolve_circuit("c17")
    # Pick a fault the all-zeros vector does not detect.
    universe = stuck_at_universe(circuit)
    zeros = [tuple(0 for _ in circuit.primary_inputs)]
    report = serial_simulate_stuck_at(circuit, zeros, universe)
    missed = next(f for f in universe if f.key not in report.detected_faults)
    with pytest.raises(StructuralAtpgError):
        LyingEngine().generate(circuit, missed)


# --------------------------------------------------------------------------- #
# Legacy engine: search give-up is 'aborted', not 'no test exists'.
# --------------------------------------------------------------------------- #
def test_legacy_give_up_reports_aborted_not_untestable():
    from repro.atpg.podem import generate_stuck_at_test

    circuit = resolve_circuit("mult:4")
    hits = 0
    for fault in collapsed_faults(circuit):
        result = generate_stuck_at_test(
            circuit, fault, options=PodemOptions(max_backtracks=1)
        )
        if not result.success and result.aborted:
            hits += 1
            assert not result.untestable
    assert hits > 0, "budget of 1 backtrack never aborted on mult:4"


# --------------------------------------------------------------------------- #
# Campaign threading: spec field, JSON payload, sharded bit-identity.
# --------------------------------------------------------------------------- #
def test_campaign_spec_rejects_unknown_engine():
    for name in ("bogus", "legacy"):
        with pytest.raises(CampaignError):
            CampaignSpec(model="stuck-at", circuit="c17", atpg_engine=name)


@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_campaign_reports_engine_and_outcome_statuses(engine):
    spec = CampaignSpec(
        model="stuck-at",
        circuit="rdag:80,13",
        pattern_source="random",
        pattern_count=8,
        seed=5,
        atpg_engine=engine,
    )
    result = run_campaign(spec.circuit, spec)
    payload = result.as_dict(include_runtime=False)
    assert payload["spec"]["atpg_engine"] == engine
    atpg = payload["atpg_phase"]
    assert atpg["atpg_engine"] == engine
    assert set(atpg["outcomes"].values()) <= {TESTED, PROVEN_REDUNDANT, ABORTED}
    assert len(atpg["outcomes"]) == atpg["attempted"]
    assert atpg["proven_structural"] == atpg["untestable"]
    assert atpg["implications"] >= 0
    counts = {
        TESTED: atpg["testable"],
        PROVEN_REDUNDANT: atpg["untestable"],
        ABORTED: atpg["aborted"],
    }
    for status, expected in counts.items():
        assert sum(1 for s in atpg["outcomes"].values() if s == status) == expected


@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_sharded_campaign_bit_identical_per_engine(engine):
    kwargs = dict(
        model="stuck-at",
        circuit="rdag:100,17",
        pattern_source="random",
        pattern_count=12,
        seed=9,
        atpg_engine=engine,
    )
    single = run_campaign(kwargs["circuit"], CampaignSpec(**kwargs))
    sharded = run_sharded_campaign(kwargs["circuit"], CampaignSpec(**kwargs, shards=3))
    d1 = single.as_dict(include_runtime=False)
    d2 = sharded.as_dict(include_runtime=False)
    d1["spec"].pop("shards")
    d2["spec"].pop("shards")
    assert d1 == d2


def test_transition_campaign_threads_engine():
    for engine in ALL_ENGINES:
        spec = CampaignSpec(
            model="transition",
            circuit="rdag:50,3",
            pattern_source="random",
            pattern_count=8,
            seed=2,
            atpg_engine=engine,
        )
        payload = run_campaign(spec.circuit, spec).as_dict(include_runtime=False)
        assert payload["atpg_phase"]["atpg_engine"] == engine


# --------------------------------------------------------------------------- #
# Redundancy soundness on known-redundant netlists (satellite 3).
# --------------------------------------------------------------------------- #
def constant_zero_cone():
    """``t = a AND (NOT a)`` is constant 0, so ``t`` stuck-at-0 is redundant."""
    c = LogicCircuit("constant_zero_cone")
    c.add_inputs(["a", "b"])
    c.add_output("y")
    c.add_gate("g_na", GateType.INV, ["a"], "na")
    c.add_gate("g_t", GateType.AND2, ["a", "na"], "t")
    c.add_gate("g_y", GateType.OR2, ["t", "b"], "y")
    return c, [StuckAtFault("t", 0)]


def reconvergent_identity():
    """``y = (a OR b) AND (a OR NOT b)`` collapses to ``a``: both stuck-at
    faults on ``b`` are classically redundant."""
    c = LogicCircuit("reconvergent_identity")
    c.add_inputs(["a", "b"])
    c.add_output("y")
    c.add_gate("g_nb", GateType.INV, ["b"], "nb")
    c.add_gate("g_l", GateType.OR2, ["a", "b"], "l")
    c.add_gate("g_r", GateType.OR2, ["a", "nb"], "r")
    c.add_gate("g_y", GateType.AND2, ["l", "r"], "y")
    return c, [StuckAtFault("b", 0), StuckAtFault("b", 1)]


def unobservable_stub():
    """A gate output that feeds nothing: every fault on it is redundant."""
    c = LogicCircuit("unobservable_stub")
    c.add_inputs(["a", "b"])
    c.add_output("y")
    c.add_gate("g_y", GateType.NAND2, ["a", "b"], "y")
    c.add_gate("g_dead", GateType.XOR2, ["a", "b"], "dead")
    return c, [StuckAtFault("dead", 0), StuckAtFault("dead", 1)]


REDUNDANT_NETLISTS = [constant_zero_cone, reconvergent_identity, unobservable_stub]


@pytest.mark.parametrize("build", REDUNDANT_NETLISTS, ids=lambda b: b.__name__)
def test_known_redundant_faults_are_proven_by_both_algorithms(build):
    circuit, redundant = build()
    for name in STRUCTURAL:
        engine = get_atpg_engine(name)
        for fault in redundant:
            result = engine.generate(circuit, fault, GENEROUS)
            assert result.status == PROVEN_REDUNDANT, (name, fault.key, result.status)


@pytest.mark.parametrize("build", REDUNDANT_NETLISTS, ids=lambda b: b.__name__)
@pytest.mark.parametrize("engine", STRUCTURAL)
def test_campaign_reports_structural_redundancy_provenance(build, engine):
    """With the static phase off, the proofs must come from the search:
    campaigns report the redundant faults as untestable with
    ``proven_structural`` provenance, bit-identically sharded or not."""
    circuit, redundant = build()
    spec = CampaignSpec(
        model="stuck-at",
        pattern_source="none",
        run_atpg=True,
        compact=False,
        static_phase=False,
        atpg_engine=engine,
    )
    result = Campaign(spec).run(circuit)
    payload = result.as_dict(include_runtime=False)
    atpg = payload["atpg_phase"]
    assert "static_phase" not in payload
    assert atpg["proven_static"] == 0
    assert atpg["proven_structural"] >= len(redundant)
    for fault in redundant:
        assert atpg["outcomes"][fault.key] == PROVEN_REDUNDANT
    assert atpg["untestable"] == atpg["proven_structural"]
    assert payload["coverage"]["untestable"] >= len(redundant)

    sharded = ShardedCampaign(spec, shards=2, max_workers=0).run(build()[0])
    assert sharded.as_dict(include_runtime=False) == payload


def test_static_and_structural_proofs_agree_on_redundant_netlists():
    """Every statically proven fault is also search-proven; the structural
    engines may additionally prove faults the static screens cannot."""
    for build in REDUNDANT_NETLISTS:
        circuit, _ = build()
        universe = stuck_at_universe(circuit)
        proofs = prove_stuck_at_untestable(circuit, universe)
        for name in STRUCTURAL:
            engine = get_atpg_engine(name)
            for fault in universe:
                if fault.key in proofs:
                    result = engine.generate(circuit, fault, GENEROUS)
                    assert result.status == PROVEN_REDUNDANT, (name, fault.key)


def legacy_status(circuit, fault, options):
    """The two-rail PODEM's verdict on *fault*, in structural-engine terms."""
    from repro.atpg.podem import generate_stuck_at_test

    result = generate_stuck_at_test(circuit, fault, options=options)
    if result.success:
        return TESTED
    return ABORTED if result.aborted else PROVEN_REDUNDANT


def test_structural_engines_beat_or_match_legacy_resolution():
    """At the same budget, the rewritten engines leave no more faults
    unresolved (aborted) than the legacy two-rail PODEM."""
    circuit = resolve_circuit("rdag:150,29")
    faults = collapsed_faults(circuit)
    budget = PodemOptions(max_backtracks=5_000)
    aborted = {}
    for name in ALL_ENGINES:
        engine = get_atpg_engine(name)
        aborted[name] = sum(
            1 for f in faults if engine.generate(circuit, f, budget).status == ABORTED
        )
    aborted["legacy"] = sum(
        1 for f in faults if legacy_status(circuit, f, budget) == ABORTED
    )
    assert aborted["podem"] <= aborted["legacy"]
    assert aborted["d-alg"] <= aborted["legacy"]
