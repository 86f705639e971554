"""Bit-parallel (word-packed) fault simulation over generated code.

This is the fast engine behind :mod:`repro.atpg.fault_sim`: patterns are
packed into wide bit-vectors (:mod:`repro.logic.compiled`, ``word_bits``
patterns per word, :data:`~repro.logic.compiled.DEFAULT_WORD_BITS` by
default), the good machine is evaluated **once per pattern block** by a
per-circuit ``exec``-compiled straight-line function and shared across every
fault, and each fault costs only one call into a per-cone specialized kernel
that returns the detection word directly -- no value-list copy, no output
loop.  Passing a ``compiled`` circuit built with ``codegen=False`` selects
the tuple-dispatch interpreter baseline instead; results are bit-identical.

All four fault models of the reproduction are supported and produce
:class:`~repro.atpg.fault_sim.DetectionReport`s that are bit-identical to
the serial reference engine:

* **stuck-at** -- clamp the faulty net to the stuck value; a pattern detects
  the fault where a reachable output word differs from the good machine
  (un-activated bit positions clamp to their good value and can never
  differ, so activation falls out of the arithmetic);
* **transition** -- evaluate both patterns of each pair, require
  launch/final values at the faulty net, and clamp the net to the launch
  value during the second-pattern re-simulation;
* **path-delay** -- non-robust functional sensitization: the detection word
  is the AND over the path nets of the per-net toggle words (with the launch
  edge direction enforced), so no forced re-simulation is needed at all;
* **OBD** -- the input-specific model of the paper: the excitation word is
  the OR over the fault's local sequences of per-pin match words, and the
  faulty machine holds the gate output at its *first-pattern* value (a
  per-bit word, not a constant) into the second pattern.

The packed word type itself is pluggable (:data:`SIMULATOR_BACKENDS`): the
``numpy_simulate_*`` drivers run the identical algorithm over little-endian
``uint64`` ndarrays (:data:`~repro.logic.compiled.DEFAULT_NUMPY_WORD_BITS`
patterns per block by default) and additionally batch faults **PPSFP**-style
(parallel-pattern single-fault propagation): faults sharing a fault-site net
stack their forced words into one ``(g, n_words)`` array and broadcast
through a single cone-kernel call, and OBD faults of one gate -- whose
forced word, the gate's first-pattern output, is identical -- share one
kernel call outright.  Every backend/engine combination is bit-identical;
:func:`compile_for_engine` maps an engine name to the right
:class:`~repro.logic.compiled.CompiledCircuit` flavor.

With ``drop_detected`` a fault stops being simulated after its first
detection; the recorded index is the lowest set bit of the first non-zero
detection word, which is exactly the pattern the serial engine would have
stopped at.  Detection indices are independent of ``word_bits`` and of the
backend: blocks run in ascending pattern order at every width.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as _np

from ..faults.obd import ObdFault
from ..faults.path_delay import RISING, PathDelayFault
from ..faults.stuck_at import StuckAtFault
from ..faults.transition import TransitionFault
from ..logic.compiled import (
    DEFAULT_NUMPY_WORD_BITS,
    DEFAULT_WORD_BITS,
    WORD_BITS,
    CompiledCircuit,
    compile_circuit,
    decode_into,
    decode_words_into,
    first_set_bit,
    pack_pair_blocks,
    pack_pair_blocks_array,
    pack_pattern_blocks,
    pack_pattern_blocks_array,
)
from ..logic.netlist import LogicCircuit, LogicCircuitError
from .fault_sim import DetectionReport, Pattern, PatternPair


def _record(
    detections: dict[str, list[int]],
    remaining: set[str],
    key: str,
    base: int,
    detected_word: int,
    drop_detected: bool,
) -> None:
    """Append the pattern indices encoded by *detected_word* for one fault."""
    if drop_detected:
        low = detected_word & -detected_word
        detections[key].append(base + low.bit_length() - 1)
        remaining.discard(key)
    else:
        decode_into(detections[key], detected_word, base)


def _record_words(
    detections: dict[str, list[int]],
    remaining: set[str],
    key: str,
    base: int,
    detected_words,
    drop_detected: bool,
) -> None:
    """Array-backend counterpart of :func:`_record` for one nonzero word array."""
    if drop_detected:
        detections[key].append(base + first_set_bit(detected_words))
        remaining.discard(key)
    else:
        decode_words_into(detections[key], detected_words, base)


def _record_rows(
    detections: dict[str, list[int]],
    remaining: set[str],
    hits: list,
    base: int,
    drop_detected: bool,
) -> None:
    """Record one block's ``(key, detection_row)`` pairs.

    Fault dropping records only the first set bit per fault, so it decodes
    row by row; the dense no-drop path stacks every detected row and decodes
    the whole block in **one** ``unpackbits`` + ``flatnonzero`` pass --
    per-row decode calls would otherwise dominate dense workloads.
    """
    if not hits:
        return
    if drop_detected:
        for key, row in hits:
            detections[key].append(base + first_set_bit(row))
            remaining.discard(key)
        return
    stacked = _np.stack([row for _key, row in hits])
    row_bits = stacked.shape[1] << 6
    bits = _np.unpackbits(stacked.view(_np.uint8), bitorder="little")
    # flatnonzero on a bool view hits numpy's fast path (~7x over uint8).
    positions = _np.flatnonzero(bits.view(_np.bool_))
    boundaries = _np.searchsorted(
        positions, _np.arange(1, len(hits)) * row_bits
    )
    # Detection indices repeat heavily across faults, so gather shared int
    # objects from a per-block pool instead of materializing a fresh PyLong
    # per index (``.tolist()`` on the raw positions) -- the lists still
    # compare equal, they just alias the pool's objects.
    pool = _np.fromiter(range(base, base + row_bits), dtype=object, count=row_bits)
    for offset, chunk in enumerate(_np.split(positions, boundaries)):
        if chunk.size:
            detections[hits[offset][0]].extend(
                pool[chunk - offset * row_bits].tolist()
            )


def _compiled_for(
    circuit: LogicCircuit,
    compiled: CompiledCircuit | None,
    word_bits: int | None,
    backend: str = "int",
) -> CompiledCircuit:
    """Reuse *compiled* when given, else compile with the requested width.

    Passing both is allowed only when they agree -- a prebuilt circuit's
    width always wins, so a conflicting *word_bits* is an error rather than
    a silent override.  The prebuilt circuit must also carry the *backend*
    the calling driver packs words for.
    """
    if compiled is not None:
        if compiled.backend != backend:
            raise LogicCircuitError(
                f"the prebuilt compiled circuit has backend "
                f"{compiled.backend!r} but this driver packs {backend!r} "
                f"words; compile with backend={backend!r}"
            )
        if word_bits is not None and word_bits != compiled.word_bits:
            raise LogicCircuitError(
                f"word_bits={word_bits} conflicts with the prebuilt compiled "
                f"circuit (word_bits={compiled.word_bits}); pass one or the other"
            )
        return compiled
    if backend == "numpy":
        return compile_circuit(
            circuit, word_bits=word_bits or DEFAULT_NUMPY_WORD_BITS, backend="numpy"
        )
    if word_bits is not None:
        return compile_circuit(circuit, word_bits=word_bits)
    return compile_circuit(circuit)


def packed_simulate_stuck_at(
    circuit: LogicCircuit,
    patterns: Sequence[Pattern],
    faults: Iterable[StuckAtFault],
    drop_detected: bool = False,
    compiled: CompiledCircuit | None = None,
    word_bits: int | None = None,
) -> DetectionReport:
    """Bit-parallel stuck-at fault simulation of a pattern set."""
    cc = _compiled_for(circuit, compiled, word_bits)
    fault_list = list(faults)
    detections: dict[str, list[int]] = {f.key: [] for f in fault_list}
    remaining = set(detections)
    # Everything per-fault is resolved once: key (a property), net id, stuck
    # value -- the block loop then runs over plain tuples and kernel calls.
    sites = [(fault.key, cc.net_index[fault.net], fault.value) for fault in fault_list]
    kernel_for = cc.cone_kernel
    for base, mask, words in pack_pattern_blocks(
        patterns, len(cc.input_indices), cc.word_bits
    ):
        if drop_detected and not remaining:
            break
        good = cc.evaluate(words, mask)
        for key, net, value in sites:
            if drop_detected and key not in remaining:
                continue
            forced = mask if value else 0
            if not (good[net] ^ forced):
                continue  # never activated in this block
            detected = kernel_for(net)(good, forced, mask)
            if detected:
                _record(detections, remaining, key, base, detected, drop_detected)
    return DetectionReport(detections=detections, num_tests=len(patterns))


def packed_simulate_transition(
    circuit: LogicCircuit,
    pairs: Sequence[PatternPair],
    faults: Iterable[TransitionFault],
    drop_detected: bool = False,
    compiled: CompiledCircuit | None = None,
    word_bits: int | None = None,
) -> DetectionReport:
    """Bit-parallel transition-fault simulation of a two-pattern test set."""
    cc = _compiled_for(circuit, compiled, word_bits)
    fault_list = list(faults)
    detections: dict[str, list[int]] = {f.key: [] for f in fault_list}
    remaining = set(detections)
    sites = [
        (fault.key, cc.net_index[fault.net], fault.launch_value, fault.final_value)
        for fault in fault_list
    ]
    kernel_for = cc.cone_kernel
    for base, mask, words1, words2 in pack_pair_blocks(
        pairs, len(cc.input_indices), cc.word_bits
    ):
        if drop_detected and not remaining:
            break
        good1 = cc.evaluate(words1, mask)
        good2 = cc.evaluate(words2, mask)
        for key, net, launch_value, final_value in sites:
            if drop_detected and key not in remaining:
                continue
            launch = mask if launch_value else 0
            final = mask if final_value else 0
            excited = ~(good1[net] ^ launch) & ~(good2[net] ^ final) & mask
            if not excited:
                continue
            detected = kernel_for(net)(good2, launch, mask) & excited
            if detected:
                _record(detections, remaining, key, base, detected, drop_detected)
    return DetectionReport(detections=detections, num_tests=len(pairs))


def packed_simulate_path_delay(
    circuit: LogicCircuit,
    pairs: Sequence[PatternPair],
    faults: Iterable[PathDelayFault],
    drop_detected: bool = False,
    compiled: CompiledCircuit | None = None,
    word_bits: int | None = None,
) -> DetectionReport:
    """Bit-parallel path-delay fault simulation of a two-pattern test set.

    Detection is non-robust functional sensitization (the criterion of
    :func:`repro.faults.path_delay.is_sensitized`): the launch net reaches the
    fault's post-edge value in the second pattern and every net along the path
    toggles between the two patterns, so the slow edge arrives late at the
    path's capture net.  The sensitization word is the AND over the path nets
    of the per-net toggle words -- no forced re-simulation is needed.
    """
    cc = _compiled_for(circuit, compiled, word_bits)
    fault_list = list(faults)
    detections: dict[str, list[int]] = {f.key: [] for f in fault_list}
    remaining = set(detections)
    sites = [
        (fault.key, tuple(cc.net_index[net] for net in fault.nets), fault.direction == RISING)
        for fault in fault_list
    ]
    for base, mask, words1, words2 in pack_pair_blocks(
        pairs, len(cc.input_indices), cc.word_bits
    ):
        if drop_detected and not remaining:
            break
        good1 = cc.evaluate(words1, mask)
        good2 = cc.evaluate(words2, mask)
        for key, nets, rising in sites:
            if drop_detected and key not in remaining:
                continue
            word = ~(good2[nets[0]] ^ (mask if rising else 0)) & mask
            for net in nets:
                if not word:
                    break
                word &= good1[net] ^ good2[net]
            if word:
                _record(detections, remaining, key, base, word, drop_detected)
    return DetectionReport(detections=detections, num_tests=len(pairs))


#: Per-model packed drivers keyed by fault-model registry name; the sharded
#: campaign workers dispatch through this table instead of hard-coding one
#: driver per model.
PACKED_SIMULATORS: dict[str, object] = {}

#: Per-model drivers of the uint64-ndarray backend, same keys as
#: :data:`PACKED_SIMULATORS`.
NUMPY_SIMULATORS: dict[str, object] = {}

#: The engine-backend registry: packed word backend name -> per-model driver
#: table.  Extends :data:`PACKED_SIMULATORS` along the backend axis; new
#: backends register a driver table here and an engine name in
#: :data:`ENGINE_BACKENDS`.
SIMULATOR_BACKENDS: dict[str, dict[str, object]] = {
    "int": PACKED_SIMULATORS,
    "numpy": NUMPY_SIMULATORS,
}

#: Compiled-engine name -> packed word backend (``"serial"`` has neither a
#: compiled circuit nor a backend and is absent on purpose).
ENGINE_BACKENDS: dict[str, str] = {"packed": "int", "interp": "int", "numpy": "numpy"}


def compile_for_engine(
    circuit: LogicCircuit, engine: str, word_bits: int | None
) -> CompiledCircuit | None:
    """One compile per campaign (or per worker process) for a spec's engine.

    Codegen over big-int words for ``"packed"``, the interpreter baseline at
    the legacy width for ``"interp"``, codegen over uint64 arrays for
    ``"numpy"``; the serial engine needs no compiled circuit at all.  A
    ``word_bits`` of None keeps each engine's default width
    (:data:`~repro.logic.compiled.DEFAULT_WORD_BITS`,
    :data:`~repro.logic.compiled.WORD_BITS`,
    :data:`~repro.logic.compiled.DEFAULT_NUMPY_WORD_BITS` respectively).
    """
    if engine == "serial":
        return None
    try:
        backend = ENGINE_BACKENDS[engine]
    except KeyError:
        raise ValueError(
            f"unknown fault-simulation engine {engine!r}; "
            f"expected 'serial' or one of {tuple(ENGINE_BACKENDS)}"
        ) from None
    if word_bits is not None:
        bits = word_bits
    elif engine == "numpy":
        bits = DEFAULT_NUMPY_WORD_BITS
    elif engine == "packed":
        bits = DEFAULT_WORD_BITS
    else:
        bits = WORD_BITS
    return compile_circuit(
        circuit, word_bits=bits, codegen=engine != "interp", backend=backend
    )


def compiled_matches_engine(
    compiled: CompiledCircuit | None,
    engine: str,
    word_bits: int | None = None,
) -> bool:
    """Is *compiled* the flavor (backend, codegen, width) *engine* needs?

    A None *word_bits* accepts any width; a concrete one must match exactly.
    Callers recompile via :func:`compile_for_engine` on a mismatch instead
    of silently running a different engine than requested.
    """
    if engine == "serial" or compiled is None:
        return (compiled is None) == (engine == "serial")
    backend = ENGINE_BACKENDS.get(engine)
    return (
        compiled.backend == backend
        and compiled.codegen == (engine != "interp")
        and (word_bits is None or compiled.word_bits == word_bits)
    )


def packed_simulate_shard(
    model: str,
    circuit: LogicCircuit,
    tests: Sequence,
    faults: Iterable,
    *,
    compiled: CompiledCircuit | None = None,
    drop_detected: bool = False,
    word_bits: int | None = None,
    backend: str | None = None,
) -> DetectionReport:
    """Packed simulation of one **fault sublist** for the named model.

    This is the shard-aware entry point of the engine: pass the same
    prebuilt *compiled* circuit for every shard and nothing per-circuit is
    re-derived between calls -- the good-machine evaluator is reused as-is
    and the per-cone kernels accumulate lazily in the
    :class:`~repro.logic.compiled.CompiledCircuit` cache, so simulating a
    fault universe in k slices costs the same kernel compilations as
    simulating it whole.

    *backend* picks the driver table from :data:`SIMULATOR_BACKENDS`; when
    None it follows the prebuilt circuit's backend (``"int"`` if compiling
    fresh), so sharded workers need only hand back the compiled circuit
    :func:`compile_for_engine` gave them.
    """
    if backend is None:
        backend = compiled.backend if compiled is not None else "int"
    try:
        table = SIMULATOR_BACKENDS[backend]
    except KeyError:
        raise ValueError(
            f"unknown packed word backend {backend!r}; "
            f"expected one of {tuple(sorted(SIMULATOR_BACKENDS))}"
        ) from None
    try:
        driver = table[model]
    except KeyError:
        raise ValueError(
            f"unknown packed fault-simulation model {model!r}; "
            f"expected one of {tuple(sorted(table))}"
        ) from None
    return driver(
        circuit,
        tests,
        faults,
        drop_detected=drop_detected,
        compiled=compiled,
        word_bits=word_bits,
    )


def packed_simulate_obd(
    circuit: LogicCircuit,
    pairs: Sequence[PatternPair],
    faults: Iterable[ObdFault],
    drop_detected: bool = False,
    compiled: CompiledCircuit | None = None,
    word_bits: int | None = None,
) -> DetectionReport:
    """Bit-parallel OBD fault simulation of a two-pattern test set."""
    cc = _compiled_for(circuit, compiled, word_bits)
    fault_list = list(faults)
    detections: dict[str, list[int]] = {f.key: [] for f in fault_list}
    remaining = set(detections)
    # Per fault: output-net id, input-pin net ids, excitation sequences.
    sites = []
    for fault in fault_list:
        gate = circuit.gate(fault.gate_name)
        sites.append(
            (
                fault.key,
                cc.net_index[gate.output],
                tuple(cc.net_index[n] for n in gate.inputs),
                fault.local_sequences,
            )
        )
    kernel_for = cc.cone_kernel
    for base, mask, words1, words2 in pack_pair_blocks(
        pairs, len(cc.input_indices), cc.word_bits
    ):
        if drop_detected and not remaining:
            break
        good1 = cc.evaluate(words1, mask)
        good2 = cc.evaluate(words2, mask)
        for key, out_net, pins, sequences in sites:
            if drop_detected and key not in remaining:
                continue
            excited = 0
            for first, second in sequences:
                word = mask
                for pin, v1, v2 in zip(pins, first, second):
                    word &= ~(good1[pin] ^ (mask if v1 else 0))
                    word &= ~(good2[pin] ^ (mask if v2 else 0))
                    if not word:
                        break
                excited |= word & mask
            if not excited:
                continue
            # The slow gate holds its first-pattern output into pattern two.
            detected = kernel_for(out_net)(good2, good1[out_net], mask) & excited
            if detected:
                _record(detections, remaining, key, base, detected, drop_detected)
    return DetectionReport(detections=detections, num_tests=len(pairs))


PACKED_SIMULATORS.update(
    {
        "stuck-at": packed_simulate_stuck_at,
        "transition": packed_simulate_transition,
        "path-delay": packed_simulate_path_delay,
        "obd": packed_simulate_obd,
    }
)


# --------------------------------------------------------------------------- #
# NumPy-backend drivers with PPSFP fault batching.
#
# Same block structure and arithmetic as the int drivers above -- every
# detection word is bit-identical by construction -- but words are uint64
# arrays and faults are batched PPSFP-style: each block's still-live,
# activated faults are chunked into groups of PPSFP_BATCH, and one
# :meth:`~repro.logic.compiled.CompiledCircuit.batch_cone_detect` pass per
# group re-evaluates the union fan-out cone over (group, n_words) stacked
# arrays with per-row fault clamping.  The numpy ufunc dispatch cost is paid
# once per *batch* instead of once per fault, which is what lets the array
# backend beat the big-int engine despite identical generated code.
# --------------------------------------------------------------------------- #
#: Stacked array rows per batched union-cone pass.  Row-packing puts many
#: disjoint-cone faults on one row, so a chunk usually holds far more
#: *faults* than this.  Wide enough to amortize ufunc dispatch across the
#: batch axis, small enough that the stacked value arrays stay cache- and
#: allocator-friendly and that a chunk's union cone stays local (chunks are
#: carved from the cone-sorted fault list, so fewer rows also means tighter
#: unions on deep circuits).  Empirically flat between 24 and 48 on both
#: shallow and deep benchmark circuits.
PPSFP_BATCH = 24


def _cone_order(cc, site):
    """Sort key clustering fault sites whose fan-out cones overlap.

    Batches are carved from the sorted fault list, so sites with nearby
    cone spans land in the same batch and the batch's *union* cone stays
    close to each member's own cone -- output-side faults batch into tiny
    unions instead of being dragged through an input-side fault's
    near-full-circuit cone.
    """
    positions = cc.cone_positions(site)
    return (positions[0], positions[-1]) if positions else (len(cc.ops), len(cc.ops))


def _batched_detect(cc, good, keys, sites, forced, mask):
    """Yield ``(key, detection_row)`` for every detected fault in the lists.

    Carves the cone-sorted fault list into PPSFP chunks, packing faults with
    disjoint :meth:`~repro.logic.compiled.CompiledCircuit.cone_mask` bitmasks
    into shared batch rows (greedy first-fit), so a chunk of *n* faults costs
    ``|union cone| * n_rows`` row-ops with ``n_rows`` well below *n* on
    shallow circuits.  A chunk closes when its row count hits
    :data:`PPSFP_BATCH`.  Zero detection rows are filtered in one vectorized
    ``any(axis=1)`` pass, so undetected faults cost nothing downstream.
    """
    count = len(keys)
    start = 0
    while start < count:
        row_masks: list[int] = []
        row_of: list[int] = []
        stop = start
        while stop < count:
            fault_mask = cc.cone_mask(sites[stop])
            placed = -1
            for index, existing in enumerate(row_masks):
                if not existing & fault_mask:
                    placed = index
                    break
            if placed < 0:
                if len(row_masks) >= PPSFP_BATCH:
                    break
                placed = len(row_masks)
                row_masks.append(fault_mask)
            else:
                row_masks[placed] |= fault_mask
            row_of.append(placed)
            stop += 1
        detected = cc.batch_cone_detect(
            good, sites[start:stop], forced[start:stop], mask, rows=row_of
        )
        for offset in _np.flatnonzero(detected.any(axis=1)):
            yield keys[start + offset], detected[offset]
        start = stop


def numpy_simulate_stuck_at(
    circuit: LogicCircuit,
    patterns: Sequence[Pattern],
    faults: Iterable[StuckAtFault],
    drop_detected: bool = False,
    compiled: CompiledCircuit | None = None,
    word_bits: int | None = None,
) -> DetectionReport:
    """uint64-array stuck-at simulation, PPSFP-batched across fault sites."""
    cc = _compiled_for(circuit, compiled, word_bits, backend="numpy")
    fault_list = list(faults)
    detections: dict[str, list[int]] = {f.key: [] for f in fault_list}
    remaining = set(detections)
    entries = [(f.key, cc.net_index[f.net], f.value) for f in fault_list]
    entries.sort(key=lambda e: _cone_order(cc, e[1]))
    for base, mask, words in pack_pattern_blocks_array(
        patterns, len(cc.input_indices), cc.word_bits
    ):
        if drop_detected and not remaining:
            break
        good = cc.evaluate(words, mask)
        zero = _np.zeros_like(mask)
        live = [e for e in entries if not drop_detected or e[0] in remaining]
        if not live:
            continue
        # One vectorized activation pass over all live faults: a fault is
        # active in the block iff the good machine ever differs from its
        # forced value.
        site_words = _np.stack([good[net] for _key, net, _value in live])
        forced_words = _np.where(
            _np.array([value for _key, _net, value in live], dtype=bool)[:, None],
            mask,
            zero,
        )
        active = (site_words ^ forced_words).any(axis=1)
        keys: list[str] = []
        sites: list[int] = []
        rows: list = []
        for offset in _np.flatnonzero(active):
            key, net, _value = live[offset]
            keys.append(key)
            sites.append(net)
            rows.append(forced_words[offset])
        hits = list(_batched_detect(cc, good, keys, sites, rows, mask))
        _record_rows(detections, remaining, hits, base, drop_detected)
    return DetectionReport(detections=detections, num_tests=len(patterns))


def numpy_simulate_transition(
    circuit: LogicCircuit,
    pairs: Sequence[PatternPair],
    faults: Iterable[TransitionFault],
    drop_detected: bool = False,
    compiled: CompiledCircuit | None = None,
    word_bits: int | None = None,
) -> DetectionReport:
    """uint64-array transition simulation, PPSFP-batched across fault sites."""
    cc = _compiled_for(circuit, compiled, word_bits, backend="numpy")
    fault_list = list(faults)
    detections: dict[str, list[int]] = {f.key: [] for f in fault_list}
    remaining = set(detections)
    entries = [
        (f.key, cc.net_index[f.net], f.launch_value, f.final_value) for f in fault_list
    ]
    entries.sort(key=lambda e: _cone_order(cc, e[1]))
    for base, mask, words1, words2 in pack_pair_blocks_array(
        pairs, len(cc.input_indices), cc.word_bits
    ):
        if drop_detected and not remaining:
            break
        good1 = cc.evaluate(words1, mask)
        good2 = cc.evaluate(words2, mask)
        zero = _np.zeros_like(mask)
        live = [e for e in entries if not drop_detected or e[0] in remaining]
        if not live:
            continue
        # One vectorized excitation pass over all live faults: the launch
        # pattern must set the site to the launch value and the capture
        # pattern to the final value.
        site1 = _np.stack([good1[net] for _key, net, _lv, _fv in live])
        site2 = _np.stack([good2[net] for _key, net, _lv, _fv in live])
        launch_bits = _np.array([lv for _key, _net, lv, _fv in live], dtype=bool)
        final_bits = _np.array([fv for _key, _net, _lv, fv in live], dtype=bool)
        launch_words = _np.where(launch_bits[:, None], mask, zero)
        final_words = _np.where(final_bits[:, None], mask, zero)
        excitation = (site1 ^ launch_words) | (site2 ^ final_words)
        excitation = excitation ^ mask  # pad bits stay zero: ~x & mask == x ^ mask
        excited_rows = excitation.any(axis=1)
        keys: list[str] = []
        sites: list[int] = []
        rows: list = []
        excited_for: dict[str, object] = {}
        for offset in _np.flatnonzero(excited_rows):
            key, net, _lv, _fv = live[offset]
            keys.append(key)
            sites.append(net)
            rows.append(launch_words[offset])
            excited_for[key] = excitation[offset]
        # The slow net holds its launch value into pattern two, so the
        # faulty machine is pattern two with the site clamped to launch.
        # Gate propagation by excitation in one stacked pass per block.
        prop_keys: list[str] = []
        prop_rows: list = []
        for key, propagated in _batched_detect(cc, good2, keys, sites, rows, mask):
            prop_keys.append(key)
            prop_rows.append(propagated)
        hits = []
        if prop_keys:
            detected = _np.stack(prop_rows) & _np.stack(
                [excited_for[key] for key in prop_keys]
            )
            for offset in _np.flatnonzero(detected.any(axis=1)):
                hits.append((prop_keys[offset], detected[offset]))
        _record_rows(detections, remaining, hits, base, drop_detected)
    return DetectionReport(detections=detections, num_tests=len(pairs))


def numpy_simulate_path_delay(
    circuit: LogicCircuit,
    pairs: Sequence[PatternPair],
    faults: Iterable[PathDelayFault],
    drop_detected: bool = False,
    compiled: CompiledCircuit | None = None,
    word_bits: int | None = None,
) -> DetectionReport:
    """uint64-array path-delay simulation (pure word arithmetic, no kernels)."""
    cc = _compiled_for(circuit, compiled, word_bits, backend="numpy")
    fault_list = list(faults)
    detections: dict[str, list[int]] = {f.key: [] for f in fault_list}
    remaining = set(detections)
    sites = [
        (fault.key, tuple(cc.net_index[net] for net in fault.nets), fault.direction == RISING)
        for fault in fault_list
    ]
    for base, mask, words1, words2 in pack_pair_blocks_array(
        pairs, len(cc.input_indices), cc.word_bits
    ):
        if drop_detected and not remaining:
            break
        good1 = cc.evaluate(words1, mask)
        good2 = cc.evaluate(words2, mask)
        zero = _np.zeros_like(mask)
        for key, nets, rising in sites:
            if drop_detected and key not in remaining:
                continue
            word = ~(good2[nets[0]] ^ (mask if rising else zero)) & mask
            for net in nets:
                if not _np.any(word):
                    break
                word = word & (good1[net] ^ good2[net])
            if _np.any(word):
                _record_words(detections, remaining, key, base, word, drop_detected)
    return DetectionReport(detections=detections, num_tests=len(pairs))


def numpy_simulate_obd(
    circuit: LogicCircuit,
    pairs: Sequence[PatternPair],
    faults: Iterable[ObdFault],
    drop_detected: bool = False,
    compiled: CompiledCircuit | None = None,
    word_bits: int | None = None,
) -> DetectionReport:
    """uint64-array OBD simulation; PPSFP rows = gates, shared by their faults.

    Every OBD fault of a gate forces the same word -- the gate's
    first-pattern output -- so each gate with at least one excited fault
    contributes **one** row to the batched union-cone pass, and all its
    faults share that row's propagation word (differing only in their
    excitation ANDs).
    """
    cc = _compiled_for(circuit, compiled, word_bits, backend="numpy")
    fault_list = list(faults)
    detections: dict[str, list[int]] = {f.key: [] for f in fault_list}
    remaining = set(detections)
    groups: dict[int, list[tuple[str, tuple[int, ...], tuple]]] = {}
    for fault in fault_list:
        gate = circuit.gate(fault.gate_name)
        groups.setdefault(cc.net_index[gate.output], []).append(
            (
                fault.key,
                tuple(cc.net_index[n] for n in gate.inputs),
                fault.local_sequences,
            )
        )
    ordered_groups = sorted(groups.items(), key=lambda g: _cone_order(cc, g[0]))
    for base, mask, words1, words2 in pack_pair_blocks_array(
        pairs, len(cc.input_indices), cc.word_bits
    ):
        if drop_detected and not remaining:
            break
        good1 = cc.evaluate(words1, mask)
        good2 = cc.evaluate(words2, mask)
        zero = _np.zeros_like(mask)
        gate_keys: list[int] = []
        gate_rows: list = []
        gate_faults: list[list[tuple[str, object]]] = []
        for out_net, entries in ordered_groups:
            active: list[tuple[str, object]] = []
            for key, pins, sequences in entries:
                if drop_detected and key not in remaining:
                    continue
                excited = zero
                for first, second in sequences:
                    word = mask
                    for pin, v1, v2 in zip(pins, first, second):
                        word = word & ~(good1[pin] ^ (mask if v1 else zero))
                        word = word & ~(good2[pin] ^ (mask if v2 else zero))
                        if not _np.any(word):
                            break
                    excited = excited | (word & mask)
                if _np.any(excited):
                    active.append((key, excited))
            if active:
                # The slow gate holds its first-pattern output into pattern
                # two: one shared forced row for the whole gate.
                gate_keys.append(out_net)
                gate_rows.append(good1[out_net])
                gate_faults.append(active)
        faults_for = dict(zip(gate_keys, gate_faults))
        # Gate propagation by per-fault excitation in one stacked pass:
        # every fault of a gate group shares the group's propagated row.
        prop_of: list[int] = []
        prop_rows: list = []
        exc_keys: list[str] = []
        exc_rows: list = []
        for out_net, propagated in _batched_detect(
            cc, good2, gate_keys, gate_keys, gate_rows, mask
        ):
            for key, excited in faults_for[out_net]:
                exc_keys.append(key)
                exc_rows.append(excited)
                prop_of.append(len(prop_rows))
            prop_rows.append(propagated)
        hits = []
        if exc_keys:
            detected = _np.stack(prop_rows)[prop_of] & _np.stack(exc_rows)
            for offset in _np.flatnonzero(detected.any(axis=1)):
                hits.append((exc_keys[offset], detected[offset]))
        _record_rows(detections, remaining, hits, base, drop_detected)
    return DetectionReport(detections=detections, num_tests=len(pairs))


NUMPY_SIMULATORS.update(
    {
        "stuck-at": numpy_simulate_stuck_at,
        "transition": numpy_simulate_transition,
        "path-delay": numpy_simulate_path_delay,
        "obd": numpy_simulate_obd,
    }
)
