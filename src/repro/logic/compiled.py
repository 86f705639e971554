"""Compiled bit-parallel circuit evaluation with per-circuit code generation.

A :class:`CompiledCircuit` reads the structural index of a
:class:`~repro.logic.netlist.LogicCircuit` (its
:class:`~repro.logic.netlist.NetIndex`: dense net ids, per-gate input ids,
fan-out cones) as a flat, topologically ordered op list and turns it into
the source of one straight-line Python function (one
assignment per gate over local variables, no list indexing, no dispatch),
``exec``-compiled once per circuit.  Evaluation then runs over packed words:
bit *i* of every net word carries the value of that net under pattern *i* of
the block, so one pass simulates up to ``word_bits`` patterns at once.
Masking is fused only into the ops that need it: inputs are masked once on
entry, AND/OR/XOR of already-masked words stay masked, and only inverting
ops re-mask.  Forced re-simulation of one fault site has two tiers with the
same result, the OR of ``faulty ^ good`` over the site's reachable outputs:

* the **walk** (:meth:`CompiledCircuit.cone_diff`) evaluates the site's
  fan-out cone op by op; it costs nothing up front;
* the **kernel** (:meth:`CompiledCircuit.cone_kernel`) is straight-line code
  generated for the cone, which reads just the cone's side inputs.  A call is
  2-8x cheaper than a walk, but compiling it costs 25-60 walks.

:meth:`CompiledCircuit.cone_detect` picks the tier per site from call counts
alone (:func:`kernel_pays`, adaptive recompilation in the sense of Hölzle
and Ungar, OOPSLA 1994): a site walks until its walks so far plus the calls
still ahead of it reach :data:`KERNEL_BREAK_EVEN`, then compiles once.

The packed *word type* is abstract: the generated code only ever applies
``& | ^ ~`` to already-masked operands, so the same straight-line source runs
over two interchangeable **backends** (:data:`BACKENDS`):

* ``backend="int"`` (default) -- arbitrary-precision Python ints.  The block
  width is a free parameter; the default of :data:`DEFAULT_WORD_BITS` packs
  several hundred patterns per pass, amortizing the per-op overhead that
  dominates a pure-Python engine;
* ``backend="numpy"`` -- little-endian ``uint64`` NumPy arrays of
  ``ceil(word_bits / 64)`` elements, where every bitwise op is one
  vectorized ufunc call.  Per-op Python overhead is then amortized over the
  whole array instead of per big-int limb, which is what lets the numpy
  engine default to much wider blocks (:data:`DEFAULT_NUMPY_WORD_BITS`).
  :meth:`CompiledCircuit.batch_cone_detect` additionally re-simulates a
  union cone over *stacked* ``(rows, n_words)`` arrays for a whole fault
  group in one pass (PPSFP batching -- see :mod:`repro.atpg.parallel_sim`).

Both backends are bit-identical for every ``word_bits``; the serial engine
in :mod:`repro.atpg.fault_sim` is the reference both tiers are tested
against.

The helpers :func:`pack_pattern_blocks` / :func:`pack_pair_blocks` slice a
pattern (pair) sequence into word-sized blocks.  Detection words leave the
engines as ints on both backends (:func:`words_to_int` for arrays), and
:func:`iter_bits` is the one decoder from a detection word back to pattern
indices.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as _np

from .gates import GateType
from .netlist import LogicCircuit, LogicCircuitError

#: Default number of patterns packed into one word of the engine.  Wider than
#: a machine word on purpose: per-op Python overhead, not bit-width, bounds
#: throughput, and CPython big-int bitwise ops on a few hundred bits cost
#: barely more than on 64.  512 is the measured sweet spot on the benchmark
#: workloads; past ~1024 bits the limb work starts to dominate again.
DEFAULT_WORD_BITS = 512

#: Default block width of the numpy backend.  Vectorized ufuncs have a fixed
#: per-call cost but stream the array body at near memory bandwidth, so --
#: unlike big ints, whose limb loop makes >1024-bit words a wash -- the numpy
#: sweet spot is much wider: thousands of patterns per pass.
DEFAULT_NUMPY_WORD_BITS = 16384

#: Registered packed word backends: ``"int"`` (arbitrary-precision Python
#: ints, the reference) and ``"numpy"`` (uint64 ndarrays).
BACKENDS = ("int", "numpy")

#: Calls of one site's detector at which compiling its cone kernel is taken
#: to pay for itself.  Over every net of rdag:200,4, rdag:300,4 and mult:6 on
#: one 192-pattern block, compiling a kernel costs 25-60 walks of the same
#: cone and a warm kernel call saves 1/2 to 7/8 of a walk.  End to end, cold
#: no-drop stuck-at runs (two faults per net) of rdag:200,4 and mult:6 walk
#: about as fast as they compile at 16 to 32 blocks of 512 patterns.  17 is
#: the low end of that range, so in a no-drop run of 17 or more blocks every
#: site activated in the first block compiles on first use.
KERNEL_BREAK_EVEN = 17


def kernel_pays(walks: int, runs_left: int) -> bool:
    """The tier rule: does a site with no kernel yet compile one now?

    *walks* counts the site's walks so far and *runs_left* the calls still
    ahead of it in the current run, this one included.  Both are counts, so
    the choice -- and every counter -- repeats from run to run.
    """
    return walks + runs_left >= KERNEL_BREAK_EVEN


def _check_backend(backend: str) -> None:
    if backend not in BACKENDS:
        raise LogicCircuitError(
            f"unknown packed word backend {backend!r}; expected one of {BACKENDS}"
        )

# Flat op codes; variadic gate types (AND2/AND3, ...) share one code and are
# distinguished by their input count alone.
_BUF, _INV, _AND, _OR, _NAND, _NOR, _XOR, _XNOR, _AOI21, _OAI21 = range(10)

_OPCODES: dict[GateType, int] = {
    GateType.BUF: _BUF,
    GateType.INV: _INV,
    GateType.AND2: _AND,
    GateType.AND3: _AND,
    GateType.OR2: _OR,
    GateType.OR3: _OR,
    GateType.NAND2: _NAND,
    GateType.NAND3: _NAND,
    GateType.NOR2: _NOR,
    GateType.NOR3: _NOR,
    GateType.XOR2: _XOR,
    GateType.XNOR2: _XNOR,
    GateType.AOI21: _AOI21,
    GateType.OAI21: _OAI21,
}

#: One op: (opcode, output net id, input net ids).
Op = tuple[int, int, tuple[int, ...]]


def _op_value(code: int, ins: tuple[int, ...], values: list, mask):
    """One op's output word over packed words of either backend.

    Used where op evaluation is interleaved with other work: per-row fault
    clamping in :meth:`CompiledCircuit.batch_cone_detect` and the walk tier
    of forced re-simulation, :meth:`CompiledCircuit.cone_diff`.

    Inverting gates complement via ``word ^ mask`` rather than
    ``~word & mask``: every operand keeps its pad bits zero (the packing
    invariant), so the two are equal and the xor saves one full array pass
    per inverting op on the batched hot path.
    """
    if code == _NAND:
        word = values[ins[0]]
        for index in ins[1:]:
            word = word & values[index]
        return word ^ mask
    if code == _INV:
        return values[ins[0]] ^ mask
    if code == _AND:
        word = values[ins[0]]
        for index in ins[1:]:
            word = word & values[index]
        return word
    if code == _OR:
        word = values[ins[0]]
        for index in ins[1:]:
            word = word | values[index]
        return word
    if code == _NOR:
        word = values[ins[0]]
        for index in ins[1:]:
            word = word | values[index]
        return word ^ mask
    if code == _XOR:
        return values[ins[0]] ^ values[ins[1]]
    if code == _XNOR:
        return values[ins[0]] ^ values[ins[1]] ^ mask
    if code == _AOI21:
        return ((values[ins[0]] & values[ins[1]]) | values[ins[2]]) ^ mask
    if code == _OAI21:
        return ((values[ins[0]] | values[ins[1]]) & values[ins[2]]) ^ mask
    return values[ins[0]]  # _BUF


def _op_expression(code: int, names: Sequence[str]) -> str:
    """Python expression computing one op over already-masked operand names.

    The masking invariant of the generated code: every operand name holds a
    masked word, AND/OR/XOR preserve maskedness, so only inverting ops append
    ``& mask``.
    """
    if code == _BUF:
        return names[0]
    if code == _INV:
        return f"~{names[0]} & mask"
    if code == _AND:
        return " & ".join(names)
    if code == _OR:
        return " | ".join(names)
    if code == _NAND:
        return f"~({' & '.join(names)}) & mask"
    if code == _NOR:
        return f"~({' | '.join(names)}) & mask"
    if code == _XOR:
        return f"{names[0]} ^ {names[1]}"
    if code == _XNOR:
        return f"~({names[0]} ^ {names[1]}) & mask"
    if code == _AOI21:
        return f"~(({names[0]} & {names[1]}) | {names[2]}) & mask"
    if code == _OAI21:
        return f"~(({names[0]} | {names[1]}) & {names[2]}) & mask"
    raise LogicCircuitError(f"unhandled opcode {code}")  # pragma: no cover


def _check_word_bits(word_bits: int) -> None:
    if word_bits < 1:
        raise LogicCircuitError(f"word_bits must be >= 1, got {word_bits}")


class CompiledCircuit:
    """A levelized, bit-parallel evaluator for one :class:`LogicCircuit`.

    ``word_bits`` sets the block width every evaluation of this instance
    uses.  ``backend`` picks the packed word type (:data:`BACKENDS`): the
    evaluator itself is backend-agnostic -- the same compiled source runs
    over ints and uint64 arrays -- but the fault-simulation driver follows
    the declared backend to pick pack/decode helpers and the detect step, so
    a compiled instance is only valid for engines of the same backend.
    """

    def __init__(
        self,
        circuit: LogicCircuit,
        word_bits: int = DEFAULT_WORD_BITS,
        backend: str = "int",
    ):
        _check_word_bits(word_bits)
        _check_backend(backend)
        self.circuit = circuit
        self.word_bits = word_bits
        self.backend = backend
        #: uint64 array length holding one full ``word_bits``-wide block
        #: (ragged final blocks use shorter arrays sized to the actual mask).
        self.num_words = (word_bits + 63) >> 6
        #: The circuit's :class:`~repro.logic.netlist.NetIndex`: primary
        #: inputs first, then gate outputs in topological order, so evaluating
        #: ops in id order is always legal.  Op *p* drives net
        #: ``index.n_inputs + p``.
        self.index = index = circuit.index
        self.ops: tuple[Op, ...] = tuple(
            (_OPCODES[gate.gate_type], out, inputs)
            for out, (gate, inputs) in enumerate(
                zip(index.order, index.gate_inputs), start=index.n_inputs
            )
        )
        self._cones: dict[int, tuple[tuple[Op, ...], tuple[int, ...]]] = {}
        self._cone_positions: dict[int, tuple[int, ...]] = {}
        self._cone_masks: dict[int, int] = {}
        self._eval_fn = self._compile_evaluate()
        self._diff_kernels: dict[int, Callable[[Sequence[int], int, int], int]] = {}
        #: Net id -> walks of its cone so far (:meth:`cone_diff` calls).
        self._cone_walks: dict[int, int] = {}

    # ------------------------------------------------------------------ #
    # Code generation.
    # ------------------------------------------------------------------ #
    def _exec(self, lines: list[str], name: str) -> Callable:
        source = "\n".join(lines)
        namespace: dict = {}
        exec(compile(source, f"<compiled {self.circuit.name}:{name}>", "exec"), {}, namespace)
        return namespace[name]

    def _compile_evaluate(self) -> Callable[[Sequence[int], int], list[int]]:
        """Straight-line full-circuit evaluator: one assignment per gate."""
        lines = ["def _evaluate(inputs, mask):"]
        lines += [f"    v{i} = inputs[{i}] & mask" for i in range(self.index.n_inputs)]
        for code, out, ins in self.ops:
            lines.append(f"    v{out} = {_op_expression(code, [f'v{i}' for i in ins])}")
        body = ", ".join(f"v{i}" for i in range(len(self.index.names)))
        lines.append(f"    return [{body}]")
        return self._exec(lines, "_evaluate")

    def _compile_cone_kernel(self, net_index: int) -> Callable[[Sequence[int], int, int], int]:
        """Specialized forced-resim kernel for one net's fan-out cone.

        The kernel re-evaluates only the cone's ops (side inputs read from
        the base value list, cone nets held in locals -- nothing is copied or
        written back) and returns the OR over the cone's reachable primary
        outputs of ``faulty ^ base``: the detection word, directly.
        """
        ops, outputs = self.cone(net_index)
        computed = {net_index} | {out for _code, out, _ins in ops}
        side_inputs = sorted(
            {i for _code, _out, ins in ops for i in ins if i not in computed}
        )
        lines = ["def _kernel(values, forced, mask):"]
        lines.append(f"    v{net_index} = forced & mask")
        for index in side_inputs:
            lines.append(f"    v{index} = values[{index}]")
        for code, out, ins in ops:
            lines.append(f"    v{out} = {_op_expression(code, [f'v{i}' for i in ins])}")
        terms = [f"(v{index} ^ values[{index}])" for index in outputs]
        lines.append("    return " + (" | ".join(terms) if terms else "0"))
        return self._exec(lines, "_kernel")

    # ------------------------------------------------------------------ #
    # Evaluation.
    # ------------------------------------------------------------------ #
    def evaluate(self, input_words: Sequence[int], mask: int) -> list[int]:
        """Packed good-machine evaluation of one pattern block.

        ``input_words[i]`` holds the packed values of primary input *i*;
        returns the packed value of every net, indexed by net id.
        """
        if len(input_words) != self.index.n_inputs:
            raise LogicCircuitError(
                f"expected {self.index.n_inputs} input words, got {len(input_words)}"
            )
        return self._eval_fn(input_words, mask)

    def cone_positions(self, net_index: int) -> tuple[int, ...]:
        """Op-list positions of a net's fan-out cone, in topological order.

        Excludes the driver of the net itself (the net stays clamped during
        forced re-simulation).  Cached per net; :meth:`union_cone` merges
        these position tuples to batch faults on different nets.
        """
        cached = self._cone_positions.get(net_index)
        if cached is None:
            start = self.index.n_inputs
            cached = self._cone_positions[net_index] = tuple(
                out - start for out in self.index.fanout_cone(net_index)
            )
        return cached

    def cone_mask(self, net_index: int) -> int:
        """Interference bitmask of a fault site, for PPSFP row packing.

        Covers the site's cone op positions, its own driver op, and a
        site-identity bit past the op range.  Two sites may share a batch
        row in :meth:`batch_cone_detect` only when their masks are disjoint:
        then neither fault can reach, rewrite, or clamp any net the other's
        detection depends on, so one stacked row simulates both faults with
        zero interference.
        """
        cached = self._cone_masks.get(net_index)
        if cached is None:
            cached = 1 << (len(self.ops) + net_index)
            for position in self.cone_positions(net_index):
                cached |= 1 << position
            driver = net_index - self.index.n_inputs
            if driver >= 0:
                cached |= 1 << driver
            self._cone_masks[net_index] = cached
        return cached

    def cone(self, net_index: int) -> tuple[tuple[Op, ...], tuple[int, ...]]:
        """Fan-out cone of a net: (ops to re-evaluate, reachable output ids).

        The op slice excludes the driver of the net itself (the net stays
        clamped during forced re-simulation) and is in topological order; the
        output ids include the net when it is itself a primary output.
        """
        cached = self._cones.get(net_index)
        if cached is None:
            cached = self._cones[net_index] = self.union_cone((net_index,))
        return cached

    def union_cone(
        self, net_indices: Iterable[int]
    ) -> tuple[tuple[Op, ...], tuple[int, ...]]:
        """Merged fan-out cone of several nets: (ops, reachable output ids).

        The op slice is the union of the per-net cones in topological order;
        outputs are every primary output any of the nets can reach.  This is
        the evaluation scope of one PPSFP batch (:meth:`batch_cone_detect`).
        """
        sites = set(net_indices)
        positions: set[int] = set()
        for index in sites:
            positions.update(self.cone_positions(index))
        ops = tuple(self.ops[p] for p in sorted(positions))
        cone_nets = sites | {op[1] for op in ops}
        outputs = tuple(i for i in self.index.outputs if i in cone_nets)
        return ops, outputs

    def cone_kernel(self, net_index: int) -> Callable[[Sequence[int], int, int], int]:
        """The compiled tier for one net, compiled on first use and cached.

        ``kernel(base_values, forced_word, mask)`` returns the same word as
        ``cone_diff(base_values, net_index, forced_word, mask)``.
        """
        kernel = self._diff_kernels.get(net_index)
        if kernel is None:
            kernel = self._diff_kernels[net_index] = self._compile_cone_kernel(net_index)
        return kernel

    def batch_cone_detect(self, base_values, sites, forced_rows, mask, rows=None):
        """PPSFP batch detection: one union-cone pass over stacked array rows.

        Numpy-backend only.  ``sites[g]`` is the clamped net of fault *g* and
        ``forced_rows[g]`` its ``(num_words,)`` forced word; *base_values* is
        the good machine of the block (:meth:`evaluate`).  The union cone of
        every site is re-evaluated once over ``(n_rows, num_words)`` stacked
        arrays -- rows ride the ufunc batch axis, so the per-op dispatch cost
        is paid once per *batch*, not once per fault.  Each clamped net is
        re-forced after any op that rewrites it, and a row whose site lies
        outside another row's cone just reproduces the base values there.

        *rows*, when given, assigns each fault to a batch row; faults whose
        :meth:`cone_mask` bitmasks are disjoint may share a row, which is
        what keeps shallow circuits (many small non-overlapping cones) from
        paying a full union-width row per fault.  Detection is attributed
        per fault from per-output diff words -- a fault only ORs the outputs
        its *own* cone reaches, so row-mates cannot leak detections into
        each other.  Returns the ``(len(sites), num_words)`` detection
        array: row *g* = OR over fault *g*'s reachable outputs of
        ``faulty ^ base``.
        """
        num_words = len(mask)
        if rows is None:
            rows = range(len(sites))
            group = len(sites)
        else:
            group = (max(rows) + 1) if sites else 0
        detected = _np.zeros((len(sites), num_words), dtype=mask.dtype)
        if not sites:
            return detected
        ops, outputs = self.union_cone(sites)
        clamp: dict[int, tuple[list[int], list]] = {}
        for row, site, forced in zip(rows, sites, forced_rows):
            clamp_rows, words = clamp.setdefault(site, ([], []))
            clamp_rows.append(row)
            words.append(forced)
        values = list(base_values)
        for site, (clamp_rows, words) in clamp.items():
            stacked = _np.broadcast_to(values[site], (group, num_words)).copy()
            stacked[clamp_rows] = words
            values[site] = stacked
        for code, out, ins in ops:
            word = _op_value(code, ins, values, mask)
            entry = clamp.get(out)
            if entry is not None:
                # A clamped site rewritten inside another site's cone: force
                # its rows again (copy first -- the op result may alias an
                # operand, e.g. a buffer).
                clamp_rows, words = entry
                word = _np.broadcast_to(word, (group, num_words)).copy()
                word[clamp_rows] = words
            values[out] = word
        # Diff each changed union output once, then attribute: fault g ORs
        # the diffs of its own cone's outputs at its row, via one fancy
        # gather + segmented bitwise_or.reduceat pass.
        slot: dict[int, int] = {}
        diffs = []
        for index in outputs:
            word = values[index]
            if word is not base_values[index]:
                slot[index] = len(diffs)
                diffs.append(word ^ base_values[index])
        if not diffs:
            return detected
        stacked_diffs = _np.stack(diffs)
        pair_slots: list[int] = []
        pair_rows: list[int] = []
        starts: list[int] = []
        covered: list[int] = []
        for g, (site, row) in enumerate(zip(sites, rows)):
            outs = [slot[o] for o in self.cone(site)[1] if o in slot]
            if not outs:
                continue
            covered.append(g)
            starts.append(len(pair_slots))
            pair_slots.extend(outs)
            pair_rows.extend([row] * len(outs))
        if not covered:
            return detected
        gathered = stacked_diffs[pair_slots, pair_rows]
        detected[covered] = _np.bitwise_or.reduceat(gathered, starts, axis=0)
        return detected

    def cone_diff(
        self,
        base_values: Sequence[int],
        net_index: int,
        forced_word: int,
        mask: int,
    ) -> int:
        """The walk tier: detection word of clamping one net to *forced_word*.

        Re-evaluates the net's fan-out cone op by op over a copy of
        *base_values* and returns the OR of ``faulty ^ base`` over the cone's
        reachable primary outputs.  Counts one walk of the site.
        """
        self._cone_walks[net_index] = self._cone_walks.get(net_index, 0) + 1
        ops, outputs = self.cone(net_index)
        values = list(base_values)
        values[net_index] = forced_word & mask
        for code, out, ins in ops:
            values[out] = _op_value(code, ins, values, mask)
        word = 0
        for index in outputs:
            word |= values[index] ^ base_values[index]
        return word

    def cone_detect(
        self,
        base_values: Sequence[int],
        net_index: int,
        forced_word: int,
        mask: int,
        runs_left: int,
    ) -> int:
        """Detection word of clamping one net, from the cheaper tier.

        A site whose kernel exists uses it; otherwise it compiles one when
        :func:`kernel_pays` says so for its walks so far and *runs_left*,
        and walks (:meth:`cone_diff`) when not.  Both tiers return the same
        word, so the choice never changes a result.
        """
        kernel = self._diff_kernels.get(net_index)
        if kernel is None:
            if not kernel_pays(self._cone_walks.get(net_index, 0), runs_left):
                return self.cone_diff(base_values, net_index, forced_word, mask)
            kernel = self.cone_kernel(net_index)
        return kernel(base_values, forced_word, mask)


def compile_circuit(
    circuit: LogicCircuit,
    word_bits: int = DEFAULT_WORD_BITS,
    backend: str = "int",
) -> CompiledCircuit:
    """Compile *circuit* into a :class:`CompiledCircuit`."""
    return CompiledCircuit(circuit, word_bits=word_bits, backend=backend)


# --------------------------------------------------------------------------- #
# Pattern packing.
# --------------------------------------------------------------------------- #
def _pack_into(
    words: list[int],
    pattern: Sequence[int],
    bit: int,
    index: int,
    num_inputs: int,
) -> None:
    """OR one pattern into *words* at bit position *bit* (validating it)."""
    if len(pattern) != num_inputs:
        raise LogicCircuitError(
            f"pattern {index} has {len(pattern)} bits, expected {num_inputs}"
        )
    select = 1 << bit
    for position, value in enumerate(pattern):
        if value == 1:
            words[position] |= select
        elif value != 0:
            raise LogicCircuitError(
                f"pattern {index} bit {position} must be 0 or 1, got {value!r}"
            )


def pack_pattern_blocks(
    patterns: Sequence[Sequence[int]],
    num_inputs: int,
    word_bits: int = DEFAULT_WORD_BITS,
) -> Iterator[tuple[int, int, list[int]]]:
    """Slice *patterns* into packed blocks of (base index, mask, input words).

    Pattern ``base + i`` occupies bit *i* of every word; ``mask`` has one bit
    per pattern actually present in the (possibly short, final) block.
    """
    _check_word_bits(word_bits)
    for base in range(0, len(patterns), word_bits):
        block = patterns[base : base + word_bits]
        words = [0] * num_inputs
        for bit, pattern in enumerate(block):
            _pack_into(words, pattern, bit, base + bit, num_inputs)
        yield base, (1 << len(block)) - 1, words


def pack_pair_blocks(
    pairs: Sequence[tuple[Sequence[int], Sequence[int]]],
    num_inputs: int,
    word_bits: int = DEFAULT_WORD_BITS,
) -> Iterator[tuple[int, int, list[int], list[int]]]:
    """Like :func:`pack_pattern_blocks` for two-pattern sequences.

    Yields (base index, mask, first-pattern words, second-pattern words).
    Streams block-wise: only one block of pairs is touched at a time, never
    full first/second copies of the whole sequence.
    """
    _check_word_bits(word_bits)
    for base in range(0, len(pairs), word_bits):
        block = pairs[base : base + word_bits]
        words1 = [0] * num_inputs
        words2 = [0] * num_inputs
        for bit, (first, second) in enumerate(block):
            _pack_into(words1, first, bit, base + bit, num_inputs)
            _pack_into(words2, second, bit, base + bit, num_inputs)
        yield base, (1 << len(block)) - 1, words1, words2


#: Per-byte set-bit offsets, for decoding detection words a byte at a time.
_BYTE_BITS: tuple[tuple[int, ...], ...] = tuple(
    tuple(bit for bit in range(8) if (value >> bit) & 1) for value in range(256)
)


def iter_bits(word: int) -> Iterator[int]:
    """Indices of the set bits of *word*, in ascending order.

    Walks the word a byte at a time through a lookup table, so the cost is
    linear in the word's length rather than its length times its set bits --
    a dense detection word over thousands of tests decodes in one pass.
    """
    for position, byte in enumerate(word.to_bytes((word.bit_length() + 7) >> 3, "little")):
        if byte:
            offset = position << 3
            for bit in _BYTE_BITS[byte]:
                yield offset + bit


# --------------------------------------------------------------------------- #
# NumPy backend: uint64-array words.
# --------------------------------------------------------------------------- #
# Arrays use the explicit little-endian dtype "<u8" with bit i of element j
# holding pattern ``j * 64 + i`` of the block, so an array's byte stream is
# exactly the little-endian byte stream of the equivalent big-int word --
# words_to_int converts by reinterpreting bytes, never by shifting, and the
# two backends' detection words are bit-identical by construction.

#: Little-endian uint64, the element dtype of every numpy-backend word array.
WORD_DTYPE = "<u8"


def num_words_for(mask_bits: int) -> int:
    """uint64 elements needed for a block of *mask_bits* patterns (>= 1)."""
    return max(1, (mask_bits + 63) >> 6)


def words_to_int(words: "Any") -> int:
    """Little-endian uint64 word array -> big-int packed word."""
    return int.from_bytes(_np.ascontiguousarray(words, dtype=WORD_DTYPE).tobytes(), "little")


def _pack_matrix(matrix: "Any", num_words: int) -> "Any":
    """Pack a ``(num_inputs, block_len)`` 0/1 uint8 matrix into word arrays.

    Returns a ``(num_inputs, num_words)`` uint64 array: row *p* is the packed
    word of primary input *p*, bit *i* of the row carrying pattern *i*.
    """
    packed = _np.packbits(matrix, axis=1, bitorder="little")
    padded = _np.zeros((matrix.shape[0], num_words * 8), dtype=_np.uint8)
    padded[:, : packed.shape[1]] = packed
    return padded.view(WORD_DTYPE)


def _block_matrix(block: Sequence[Sequence[int]], base: int, num_inputs: int) -> "Any":
    """Validate one block of patterns into a ``(num_inputs, len(block))`` matrix."""
    # Bulk-convert the whole block in one C call when it is well-formed;
    # fall back to the per-pattern loop only to localize the bad pattern in
    # the error message.
    matrix = None
    try:
        candidate = _np.asarray(block, dtype=_np.uint8)
        if candidate.ndim == 2 and candidate.shape == (len(block), num_inputs):
            matrix = candidate
    except (ValueError, TypeError, OverflowError):
        matrix = None
    if matrix is None:
        matrix = _np.empty((len(block), num_inputs), dtype=_np.uint8)
        for bit, pattern in enumerate(block):
            if len(pattern) != num_inputs:
                raise LogicCircuitError(
                    f"pattern {base + bit} has {len(pattern)} bits, expected {num_inputs}"
                )
            try:
                matrix[bit] = pattern
            except (ValueError, TypeError, OverflowError) as exc:
                raise LogicCircuitError(
                    f"pattern {base + bit} is not a 0/1 vector: {exc}"
                ) from exc
    bad = _np.argwhere(matrix > 1)
    if bad.size:
        row, position = (int(v) for v in bad[0])
        raise LogicCircuitError(
            f"pattern {base + row} bit {position} must be 0 or 1, "
            f"got {int(matrix[row, position])!r}"
        )
    return matrix.T


def mask_words(block_len: int, num_words: int) -> "Any":
    """Block mask as a word array: bits ``0..block_len-1`` set, rest clear."""
    mask = _np.zeros(num_words, dtype=WORD_DTYPE)
    full, rem = divmod(block_len, 64)
    mask[:full] = _np.uint64(0xFFFFFFFFFFFFFFFF)
    if rem:
        mask[full] = _np.uint64((1 << rem) - 1)
    return mask


def pack_pattern_blocks_array(
    patterns: Sequence[Sequence[int]],
    num_inputs: int,
    word_bits: int = DEFAULT_NUMPY_WORD_BITS,
) -> Iterator[tuple[int, "Any", "Any"]]:
    """Array counterpart of :func:`pack_pattern_blocks`.

    Yields ``(base, mask_words, input_words)`` where ``mask_words`` is the
    ``(num_words,)`` block mask and ``input_words`` a ``(num_inputs,
    num_words)`` uint64 array (row *p* = packed word of input *p*).  Ragged
    final blocks get arrays sized to the actual block, not ``word_bits``, so
    short blocks waste no lanes.
    """
    _check_word_bits(word_bits)
    _check_backend("numpy")
    for base in range(0, len(patterns), word_bits):
        block = patterns[base : base + word_bits]
        num_words = num_words_for(len(block))
        matrix = _block_matrix(block, base, num_inputs)
        yield base, mask_words(len(block), num_words), _pack_matrix(matrix, num_words)


def pack_pair_blocks_array(
    pairs: Sequence[tuple[Sequence[int], Sequence[int]]],
    num_inputs: int,
    word_bits: int = DEFAULT_NUMPY_WORD_BITS,
) -> Iterator[tuple[int, "Any", "Any", "Any"]]:
    """Array counterpart of :func:`pack_pair_blocks`.

    Yields ``(base, mask_words, first_words, second_words)``.
    """
    _check_word_bits(word_bits)
    _check_backend("numpy")
    for base in range(0, len(pairs), word_bits):
        block = pairs[base : base + word_bits]
        num_words = num_words_for(len(block))
        first = _block_matrix([pair[0] for pair in block], base, num_inputs)
        second = _block_matrix([pair[1] for pair in block], base, num_inputs)
        yield (
            base,
            mask_words(len(block), num_words),
            _pack_matrix(first, num_words),
            _pack_matrix(second, num_words),
        )
