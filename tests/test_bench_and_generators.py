"""Tests for .bench netlist I/O, the parametric generators and the circuit registry."""

from __future__ import annotations

import itertools

import pytest

from repro.campaign import (
    Campaign,
    CampaignError,
    CampaignSpec,
    circuit_names,
    register_circuit,
    resolve_circuit,
    run_campaign,
)
from repro.faults import obd_fault_universe
from repro.logic import (
    DEFAULT_DAG_GATE_TYPES,
    GENERATOR_FAMILIES,
    OBD_DAG_GATE_TYPES,
    GateType,
    LogicCircuit,
    LogicCircuitError,
    alu_slice,
    array_multiplier,
    c17,
    carry_lookahead_adder,
    full_adder,
    generate,
    load_bench,
    magnitude_comparator,
    parity_tree,
    parse_bench,
    random_dag,
    ripple_carry_adder,
    save_bench,
    simulate_pattern,
    structurally_equal,
    two_to_one_mux,
    write_bench,
)


def _int_pattern(value: int, bits: int) -> list[int]:
    return [(value >> i) & 1 for i in range(bits)]


def _int_of(values: dict[str, int], names: list[str]) -> int:
    return sum(values[n] << i for i, n in enumerate(names))


#: One representative instance per generator family, plus the library
#: circuits -- the set every round-trip test runs over.
def _family_instances() -> list[LogicCircuit]:
    return [
        parity_tree(8),
        carry_lookahead_adder(4),
        array_multiplier(3),
        magnitude_comparator(3),
        alu_slice(2),
        random_dag(30, num_inputs=5, seed=3),
        random_dag(20, num_inputs=4, seed=9, max_depth=5, gate_types=OBD_DAG_GATE_TYPES),
        c17(),
        full_adder(),
        ripple_carry_adder(3),
        two_to_one_mux(),
    ]


# --------------------------------------------------------------------------- #
# .bench parsing.
# --------------------------------------------------------------------------- #
class TestParseBench:
    def test_basic_netlist_with_comments_and_blank_lines(self):
        c = parse_bench(
            """
            # a comment line
            INPUT(a)
            INPUT(b)   # trailing comment
            OUTPUT(y)

            y = NAND(a, b)
            """,
            name="tiny",
        )
        assert c.name == "tiny"
        assert c.primary_inputs == ["a", "b"]
        assert c.primary_outputs == ["y"]
        [gate] = c.gates
        assert gate.gate_type == GateType.NAND2
        assert gate.inputs == ("a", "b")

    def test_operator_spellings_and_case(self):
        c = parse_bench(
            """
            INPUT(a)
            OUTPUT(x)
            OUTPUT(y)
            OUTPUT(z)
            x = buff(a)
            y = NOT(x)
            z = Buf(y)
            """
        )
        types = {g.output: g.gate_type for g in c}
        assert types == {"x": GateType.BUF, "y": GateType.INV, "z": GateType.BUF}

    def test_three_input_ops_map_to_wide_arities(self):
        c = parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\ny = NOR(a, b, c)\n"
        )
        [gate] = c.gates
        assert gate.gate_type == GateType.NOR3

    def test_extension_ops_aoi_oai(self):
        c = parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nOUTPUT(z)\n"
            "y = AOI21(a, b, c)\nz = OAI21(a, b, c)\n"
        )
        types = {g.output: g.gate_type for g in c}
        assert types == {"y": GateType.AOI21, "z": GateType.OAI21}

    def test_single_input_variadic_collapses_to_buf_or_inv(self):
        c = parse_bench(
            "INPUT(a)\nOUTPUT(x)\nOUTPUT(y)\nx = AND(a)\ny = NOR(a)\n"
        )
        types = {g.output: g.gate_type for g in c}
        assert types == {"x": GateType.BUF, "y": GateType.INV}

    @pytest.mark.parametrize("op,width", [("AND", 5), ("NAND", 4), ("OR", 6), ("NOR", 5)])
    def test_wide_and_or_family_decomposes_correctly(self, op, width):
        names = [f"i{k}" for k in range(width)]
        text = "".join(f"INPUT({n})\n" for n in names)
        text += f"OUTPUT(y)\ny = {op}({', '.join(names)})\n"
        c = parse_bench(text)
        assert all(g.gate_type.num_inputs <= 3 for g in c)
        for bits in itertools.product((0, 1), repeat=width):
            conj = all(bits) if op in ("AND", "NAND") else any(bits)
            expected = int(conj) if op in ("AND", "OR") else int(not conj)
            assert simulate_pattern(c, bits)["y"] == expected

    @pytest.mark.parametrize("op", ["XOR", "XNOR"])
    def test_wide_parity_ops_decompose_correctly(self, op):
        names = [f"i{k}" for k in range(4)]
        text = "".join(f"INPUT({n})\n" for n in names)
        text += f"OUTPUT(y)\ny = {op}({', '.join(names)})\n"
        c = parse_bench(text)
        for bits in itertools.product((0, 1), repeat=4):
            parity = sum(bits) % 2
            expected = parity if op == "XOR" else 1 - parity
            assert simulate_pattern(c, bits)["y"] == expected

    def test_output_can_be_a_primary_input(self):
        c = parse_bench("INPUT(a)\nOUTPUT(a)\n")
        assert c.primary_outputs == ["a"]
        assert len(c) == 0


class TestParseBenchErrors:
    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n", "unknown operator"),
            ("INPUT(a)\nOUTPUT(y)\ny = NOT(a, a)\n", "expects 1 input"),
            ("INPUT(a)\nOUTPUT(y)\nthis is not bench\n", "unparseable"),
            ("INPUT(a)\nOUTPUT(y)\ny = AND(a, )\n", "malformed input list"),
            ("INPUT(a)\nINPUT(a)\n", "net 'a' redefined: first defined at line 1"),
            ("OUTPUT(y)\nOUTPUT(y)\n", "already declared"),
            (
                "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = BUFF(a)\n",
                "net 'y' is already driven .first defined at line 3",
            ),
            ("INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n", "undriven net"),
            ("OUTPUT(y)\n", "not driven"),
            ("INPUT(a)\nOUTPUT(y)\ny = AND(a, z)\nz = NOT(y)\n", "loop"),
        ],
    )
    def test_malformed_sources_raise_logic_circuit_error(self, text, fragment):
        with pytest.raises(LogicCircuitError, match=fragment):
            parse_bench(text)

    def test_errors_carry_line_numbers(self):
        with pytest.raises(LogicCircuitError, match="line 3"):
            parse_bench("INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n")
        # Undriven nets are reported at the statement that reads them...
        with pytest.raises(LogicCircuitError, match="line 3.*ghost"):
            parse_bench("INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n")
        # ...including nets read only inside a wide-gate decomposition...
        with pytest.raises(LogicCircuitError, match="line 3.*ghost"):
            parse_bench("INPUT(a)\nOUTPUT(y)\ny = AND(a, a, a, ghost)\n")
        # ...and undriven primary outputs at their declaration.
        with pytest.raises(LogicCircuitError, match="line 2"):
            parse_bench("INPUT(a)\nOUTPUT(y)\n")


# --------------------------------------------------------------------------- #
# .bench writing and round-trip fidelity.
# --------------------------------------------------------------------------- #
class TestWriteBench:
    def test_writer_emits_canonical_ops_and_header(self):
        text = write_bench(two_to_one_mux())
        assert text.startswith("# mux2\n")
        assert "NOT(S)" in text and "NAND(" in text
        assert text.splitlines()[2] == "INPUT(D0)"

    @pytest.mark.parametrize("circuit", _family_instances(), ids=lambda c: c.name)
    def test_round_trip_is_exact_on_every_family(self, circuit):
        text = write_bench(circuit)
        back = parse_bench(text, name=circuit.name)
        assert structurally_equal(circuit, back)
        # Writing the re-parsed circuit reproduces the text byte for byte.
        assert write_bench(back) == text
        # parse(write(parse(write(c)))) is a fixed point.
        again = parse_bench(write_bench(back), name=circuit.name)
        assert structurally_equal(back, again)

    @pytest.mark.parametrize("circuit", _family_instances()[:4], ids=lambda c: c.name)
    def test_round_trip_preserves_function(self, circuit):
        back = parse_bench(write_bench(circuit), name=circuit.name)
        n = len(circuit.primary_inputs)
        for value in range(0, 2**n, max(1, 2**n // 16)):
            pattern = _int_pattern(value, n)
            original = simulate_pattern(circuit, pattern)
            copied = simulate_pattern(back, pattern)
            for out in circuit.primary_outputs:
                assert original[out] == copied[out]

    def test_save_and_load(self, tmp_path):
        path = tmp_path / "fa.bench"
        save_bench(full_adder(), path)
        loaded = load_bench(path)
        assert loaded.name == "fa"  # named after the file stem
        assert structurally_equal(full_adder(), loaded)

    def test_structurally_equal_distinguishes(self):
        assert not structurally_equal(c17(), full_adder())
        a = parse_bench("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n")
        b = parse_bench("INPUT(a)\nOUTPUT(y)\ny = BUFF(a)\n")
        assert not structurally_equal(a, b)


# --------------------------------------------------------------------------- #
# Generator families: degenerate sizes must raise, functions must be right.
# --------------------------------------------------------------------------- #
class TestGeneratorDegenerateSizes:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: parity_tree(0),
            lambda: parity_tree(1),
            lambda: carry_lookahead_adder(0),
            lambda: carry_lookahead_adder(-3),
            lambda: array_multiplier(0),
            lambda: magnitude_comparator(0),
            lambda: alu_slice(0),
            lambda: random_dag(0),
            lambda: random_dag(10, num_inputs=0),
            lambda: random_dag(10, max_depth=0),
            lambda: random_dag(10, gate_types=[]),
            lambda: generate("no-such-family", 4),
        ],
        ids=[
            "parity-0",
            "parity-1",
            "cla-0",
            "cla-negative",
            "mult-0",
            "cmp-0",
            "alu-0",
            "rdag-0-gates",
            "rdag-0-inputs",
            "rdag-0-depth",
            "rdag-empty-palette",
            "unknown-family",
        ],
    )
    def test_degenerate_parameters_raise(self, build):
        with pytest.raises(LogicCircuitError):
            build()


class TestGeneratorFunctions:
    def test_multiplier_multiplies(self):
        m = array_multiplier(3)
        outs = [f"P{i}" for i in range(6)]
        for a in range(8):
            for b in range(8):
                values = simulate_pattern(m, _int_pattern(a, 3) + _int_pattern(b, 3))
                assert _int_of(values, outs) == a * b

    def test_carry_lookahead_adds(self):
        cla = carry_lookahead_adder(4)
        outs = [f"S{i}" for i in range(4)]
        for a in range(16):
            for b in range(16):
                for cin in (0, 1):
                    pattern = _int_pattern(a, 4) + _int_pattern(b, 4) + [cin]
                    values = simulate_pattern(cla, pattern)
                    assert _int_of(values, outs) + (values["COUT"] << 4) == a + b + cin

    def test_parity_tree_is_parity(self):
        p = parity_tree(6)
        for bits in itertools.product((0, 1), repeat=6):
            assert simulate_pattern(p, bits)["PAR"] == sum(bits) % 2

    def test_comparator_compares(self):
        cmp4 = magnitude_comparator(4)
        for a in range(16):
            for b in range(16):
                values = simulate_pattern(cmp4, _int_pattern(a, 4) + _int_pattern(b, 4))
                assert values["EQ"] == int(a == b)
                assert values["GT"] == int(a > b)
                assert values["LT"] == int(a < b)

    def test_alu_slice_all_ops(self):
        alu = alu_slice(2)
        outs = ["Y0", "Y1"]
        ops = {(0, 0): lambda a, b, c: a & b, (0, 1): lambda a, b, c: a | b,
               (1, 0): lambda a, b, c: a ^ b, (1, 1): lambda a, b, c: (a + b + c) % 4}
        for a in range(4):
            for b in range(4):
                for cin in (0, 1):
                    for (s1, s0), fn in ops.items():
                        pattern = _int_pattern(a, 2) + _int_pattern(b, 2) + [cin, s0, s1]
                        values = simulate_pattern(alu, pattern)
                        assert _int_of(values, outs) == fn(a, b, cin)
                        if (s1, s0) == (1, 1):
                            assert values["COUT"] == (a + b + cin) >> 2

    def test_generate_dispatches_by_family_name(self):
        assert set(GENERATOR_FAMILIES) == {"parity", "cla", "mult", "cmp", "alu", "rdag"}
        c = generate("parity", 4)
        assert structurally_equal(c, parity_tree(4))


class TestRandomDag:
    def test_same_seed_reproduces_identical_netlist(self):
        a = random_dag(40, num_inputs=5, seed=11, max_depth=7)
        b = random_dag(40, num_inputs=5, seed=11, max_depth=7)
        assert structurally_equal(a, b)
        assert [g.name for g in a] == [g.name for g in b]

    def test_different_seeds_differ(self):
        a = random_dag(40, num_inputs=5, seed=11)
        b = random_dag(40, num_inputs=5, seed=12)
        assert not structurally_equal(a, b)

    @pytest.mark.parametrize("depth", [1, 3, 6])
    def test_depth_cap_is_respected(self, depth):
        for seed in range(5):
            assert random_dag(25, seed=seed, max_depth=depth).depth <= depth

    def test_gates_come_from_the_default_palette(self):
        c = random_dag(30, seed=4)
        assert {g.gate_type for g in c} <= set(DEFAULT_DAG_GATE_TYPES)

    def test_every_gate_is_observable(self):
        c = random_dag(30, seed=2)
        outputs = set(c.primary_outputs)
        for gate in c:
            assert c.fanout_cone(gate.output) & outputs

    def test_obd_palette_yields_obd_faults(self):
        c = random_dag(20, seed=6, gate_types=OBD_DAG_GATE_TYPES)
        assert len(obd_fault_universe(c)) > 0


# --------------------------------------------------------------------------- #
# LogicCircuit.stats().
# --------------------------------------------------------------------------- #
class TestCircuitStats:
    def test_stats_of_c17(self):
        s = c17().stats()
        assert (s.num_inputs, s.num_outputs, s.num_gates, s.num_nets) == (5, 2, 6, 11)
        assert s.gate_counts == {"NAND2": 6}
        assert s.depth == 3
        assert s.fanout_histogram == {0: 2, 1: 6, 2: 3}
        assert s.max_fanout == 2

    def test_describe_mentions_the_key_numbers(self):
        text = c17().stats().describe()
        assert "c17" in text and "6 gates" in text and "depth 3" in text


# --------------------------------------------------------------------------- #
# Circuit registry and campaign integration.
# --------------------------------------------------------------------------- #
class TestCircuitRegistry:
    def test_named_and_parametric_resolution(self):
        assert structurally_equal(resolve_circuit("c17"), c17())
        assert structurally_equal(resolve_circuit("rca:3"), ripple_carry_adder(3))
        assert structurally_equal(resolve_circuit("mult:2"), array_multiplier(2))
        assert structurally_equal(resolve_circuit("rdag:20,7"), random_dag(20, seed=7))

    def test_circuit_passes_through(self):
        circuit = c17()
        assert resolve_circuit(circuit) is circuit

    def test_bench_path_resolution(self, tmp_path):
        path = tmp_path / "cmp2.bench"
        save_bench(magnitude_comparator(2), path)
        assert structurally_equal(resolve_circuit(str(path)), magnitude_comparator(2))
        # Path objects (e.g. save_bench's return value) work directly too.
        assert structurally_equal(resolve_circuit(path), magnitude_comparator(2))

    @pytest.mark.parametrize(
        "ref",
        ["nope", "rca", "rca:x", "rca:1,2", "nope:4", "/does/not/exist.bench"],
    )
    def test_bad_references_raise(self, ref):
        with pytest.raises(ValueError):
            resolve_circuit(ref)

    def test_unreadable_bench_path_raises_value_error(self, tmp_path):
        # A directory named *.bench must not leak an OSError upward.
        bad = tmp_path / "dir.bench"
        bad.mkdir()
        with pytest.raises(ValueError, match="cannot read"):
            resolve_circuit(bad)

    def test_register_custom_circuit(self):
        register_circuit("test_only_mux", two_to_one_mux)
        try:
            assert "test_only_mux" in circuit_names()
            assert structurally_equal(resolve_circuit("test_only_mux"), two_to_one_mux())
        finally:
            from repro.campaign.circuits import _NAMED

            _NAMED.pop("test_only_mux", None)

    def test_campaign_spec_accepts_circuit_reference(self):
        spec = CampaignSpec(
            model="stuck-at",
            circuit="cla:3",
            pattern_source="random",
            pattern_count=32,
            run_atpg=False,
        )
        result = run_campaign(spec=spec)
        assert result.circuit_name == "cla3"
        assert result.circuit_stats.num_gates == len(carry_lookahead_adder(3))
        assert "circuit: cla3" in result.describe()
        assert result.as_dict()["circuit_stats"]["gates"] == result.circuit_stats.num_gates

    def test_explicit_circuit_overrides_spec(self):
        spec = CampaignSpec(model="stuck-at", circuit="cla:3", run_atpg=True)
        result = Campaign(spec).run("c17")
        assert result.circuit_name == "c17"

    def test_missing_circuit_is_a_campaign_error(self):
        with pytest.raises(CampaignError, match="no circuit"):
            run_campaign(spec=CampaignSpec(model="stuck-at"))
        with pytest.raises(CampaignError, match="unknown circuit"):
            run_campaign("definitely-not-registered", CampaignSpec(model="stuck-at"))

    def test_degenerate_builder_sizes_become_campaign_errors(self):
        # LogicCircuitError from a builder is normalized like ValueError.
        with pytest.raises(CampaignError, match="bits >= 1"):
            run_campaign("mult:0", CampaignSpec(model="stuck-at"))
