"""Bit-parallel (word-packed) fault simulation over generated code.

This is the fast engine behind :mod:`repro.atpg.fault_sim`: patterns are
packed into wide bit-vectors (:mod:`repro.logic.compiled`, ``word_bits``
patterns per word), the good machine is evaluated **once per pattern block**
by a per-circuit ``exec``-compiled straight-line function and shared across
every fault, and each fault costs one forced re-simulation of its fan-out
cone per block, which returns the detection word directly.

One block loop, :func:`simulate_sites`, serves all four fault models of the
reproduction.  Each :class:`~repro.campaign.FaultModel` describes its faults
as :class:`FaultSite` descriptors, built once per call:

* **stuck-at** -- clamp the faulty net to the stuck value; a pattern detects
  the fault where a reachable output word differs from the good machine;
* **transition** -- the excitation word requires the launch and final values
  at the net in the two patterns, and the net is clamped to the launch value
  during the second pattern;
* **path-delay** -- non-robust functional sensitization: the excitation word
  is the AND over the path nets of the per-net toggle words (with the launch
  edge direction enforced), and it *is* the detection word -- no net is
  clamped;
* **OBD** -- the input-specific model of the paper: the excitation word is
  the OR over the fault's local sequences of per-pin match words, and the
  faulty gate holds its *first-pattern* output (:data:`HOLD`) into the
  second pattern.

A detection word is the excitation word AND the propagation word of
clamping the net, propagated through the last frame.  Only that per-block
detect step depends on the packed word backend
(:data:`~repro.logic.compiled.BACKENDS`), which the driver takes from the
compiled circuit:

* ``"int"`` -- one cone re-simulation per excited, activated site over
  big-int words, as an op-by-op walk of the cone or a call into the cone's
  compiled kernel, whichever :meth:`~repro.logic.compiled.CompiledCircuit.cone_detect`
  picks from the site's calls so far and the blocks left in the call (a
  site that drops on its first block never pays for a compile);
* ``"numpy"`` -- little-endian ``uint64`` ndarray words
  (:data:`~repro.logic.compiled.DEFAULT_NUMPY_WORD_BITS` patterns per block
  by default) with **PPSFP** batching (parallel-pattern single-fault
  propagation, Waicukauski et al., "Fault simulation for structured VLSI",
  VLSI Systems Design, 1985): sites sharing a net and forced row share one
  row -- every OBD fault of a gate does -- and rows are stacked into
  ``(rows, n_words)`` arrays that broadcast through one union-cone pass.

Every backend is bit-identical; :func:`compile_for_engine` maps an engine
name to the right :class:`~repro.logic.compiled.CompiledCircuit` flavor.

Both detect steps hand back int detection words, which the block loop ORs
into each fault's report bitset at the block's base.  With
``drop_detected`` a fault stops being simulated after its first detection;
the report keeps only the lowest set bit of the first non-zero detection
word, which is exactly the pattern the serial engine would have stopped at.
Reports are independent of ``word_bits`` and of the backend: blocks run in
ascending pattern order at every width.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional, Sequence

import numpy as _np

from ..logic.compiled import (
    DEFAULT_NUMPY_WORD_BITS,
    DEFAULT_WORD_BITS,
    CompiledCircuit,
    compile_circuit,
    pack_pair_blocks,
    pack_pair_blocks_array,
    pack_pattern_blocks,
    pack_pattern_blocks_array,
    words_to_int,
)
from ..logic.netlist import LogicCircuit
from .fault_sim import DetectionReport

#: :attr:`FaultSite.force` of a site whose net holds its first-pattern value
#: into the second pattern (the OBD model) instead of a constant 0 or 1.
HOLD = 2


class FaultSite(NamedTuple):
    """One fault as the block loop sees it, resolved to dense net ids.

    ``excite(first, last, words)`` returns the fault's excitation word from
    the good values of the first and last frame (the same list for
    single-pattern tests); ``words`` is ``(zero, mask)`` of the block, so
    ``words[v]`` is the constant row of value *v*.  None means no condition
    beyond the clamped net differing from its good value (stuck-at).
    """

    key: str
    #: Net clamped during re-simulation of the last frame; None when the
    #: excitation word is already the detection word (path-delay).
    net: Optional[int]
    #: Forced row of ``net``: 0, 1 or :data:`HOLD`.
    force: int
    excite: Optional[Callable]


def _record(words, hits, base, drop_detected) -> None:
    """OR one block's ``(key, detection_word)`` hits into the report at *base*."""
    for key, word in hits:
        if drop_detected:
            word &= -word  # first detection only
        words[key] |= word << base


def _detect_ints(cc: CompiledCircuit, sites, first, last, mask, runs_left) -> list:
    """Big-int detect step: one cone re-simulation per excited, activated site.

    *runs_left* is the number of blocks left in the call, this one included;
    with the site's walks so far it picks the walk or the compiled tier.
    """
    words = (0, mask)
    cone_detect = cc.cone_detect
    hits = []
    for key, net, force, excite in sites:
        detected = mask if excite is None else excite(first, last, words)
        if detected and net is not None:
            forced = first[net] if force == HOLD else words[force]
            if last[net] ^ forced:
                detected &= cone_detect(last, net, forced, mask, runs_left)
            else:
                detected = 0  # never activated in this block
        if detected:
            hits.append((key, detected))
    return hits


# --------------------------------------------------------------------------- #
# NumPy detect step with PPSFP fault batching.
#
# Same arithmetic as the big-int step -- every detection word is
# bit-identical by construction -- but each block's excited sites are
# reduced to unique (net, forced row) rows, the rows are chunked into
# groups of up to PPSFP_BATCH stacked array rows, and one
# :meth:`~repro.logic.compiled.CompiledCircuit.batch_cone_detect` pass per
# group re-evaluates the union fan-out cone with per-row clamping.  The
# numpy ufunc dispatch cost is paid once per *batch* instead of once per
# fault, which is what lets the array backend beat the big-int engine
# despite identical generated code.
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


def _cone_order(cc: CompiledCircuit, net: Optional[int]):
    """Sort key clustering fault sites whose fan-out cones overlap.

    Batches are carved from the sorted site list, so sites with nearby
    cone spans land in the same batch and the batch's *union* cone stays
    close to each member's own cone -- output-side faults batch into tiny
    unions instead of being dragged through an input-side fault's
    near-full-circuit cone.
    """
    positions = cc.cone_positions(net) if net is not None else ()
    return (positions[0], positions[-1]) if positions else (len(cc.ops), len(cc.ops))


def _batched_detect(cc, good, keys, sites, forced, mask):
    """Yield ``(key, detection_row)`` for every detected row in the lists.

    Carves the cone-sorted row list into PPSFP chunks, packing rows with
    disjoint :meth:`~repro.logic.compiled.CompiledCircuit.cone_mask` bitmasks
    into shared batch rows (greedy first-fit), so a chunk of *n* rows costs
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


def _detect_arrays(cc: CompiledCircuit, sites, first, last, mask, runs_left) -> list:
    """NumPy detect step: excitation per site, propagation per shared row.

    *runs_left* is unused: the batched union-cone pass is already a walk.
    """
    words = (_np.zeros_like(mask), mask)
    hits = []
    members = []  # (key, row id, excitation word or None)
    row_ids: dict[tuple[int, int], int] = {}
    row_nets: list[int] = []
    row_forced: list = []
    for key, net, force, excite in sites:
        excited = None if excite is None else excite(first, last, words)
        if excited is not None and not excited.any():
            continue
        if net is None:
            hits.append((key, words_to_int(excited)))
            continue
        row = row_ids.get((net, force))
        if row is None:
            row = row_ids[net, force] = len(row_nets)
            row_nets.append(net)
            row_forced.append(first[net] if force == HOLD else words[force])
        members.append((key, row, excited))
    if not row_nets:
        return hits
    # One vectorized activation pass: a row whose forced word never differs
    # from the good value cannot detect anything in this block.
    active = _np.flatnonzero(
        (_np.stack([last[net] for net in row_nets]) ^ _np.stack(row_forced)).any(axis=1)
    ).tolist()
    propagated = dict(
        _batched_detect(
            cc, last, active, [row_nets[r] for r in active],
            [row_forced[r] for r in active], mask,
        )
    )
    # Gate every member's shared propagation row by its own excitation in
    # one stacked pass.
    gated = [member for member in members if member[1] in propagated]
    if gated:
        detected = _np.stack([propagated[row] for _key, row, _exc in gated]) & _np.stack(
            [mask if excited is None else excited for _key, _row, excited in gated]
        )
        for offset in _np.flatnonzero(detected.any(axis=1)):
            hits.append((gated[offset][0], words_to_int(detected[offset])))
    return hits


def simulate_sites(
    cc: CompiledCircuit,
    tests: Sequence,
    sites: Sequence[FaultSite],
    *,
    two_pattern: bool,
    drop_detected: bool = False,
) -> DetectionReport:
    """The block loop: fault-simulate *tests* over per-fault *sites*.

    *tests* are single patterns, or ``(first, second)`` pairs when
    *two_pattern* is set.  The word backend -- packers and detect step --
    follows ``cc.backend``.  Pass the same *cc* for every fault sublist and
    nothing per-circuit is re-derived between calls: the big-int backend's
    per-site walk counts and cone kernels accumulate in the compiled
    circuit, so a site that keeps being simulated across calls compiles its
    kernel once its walks plus the blocks left reach
    :data:`~repro.logic.compiled.KERNEL_BREAK_EVEN`.

    A block's *runs_left* is the number of blocks left in the call, this one
    included.  With *drop_detected* the first block counts as one, because
    most faults drop on their first activated block.
    """
    words = {site.key: 0 for site in sites}
    if cc.backend == "numpy":
        pack = pack_pair_blocks_array if two_pattern else pack_pattern_blocks_array
        detect = _detect_arrays
        sites = sorted(sites, key=lambda site: _cone_order(cc, site.net))
    else:
        pack = pack_pair_blocks if two_pattern else pack_pattern_blocks
        detect = _detect_ints
    live = sites
    num_blocks = -(-len(tests) // cc.word_bits)
    blocks = pack(tests, cc.index.n_inputs, cc.word_bits)
    for block, (base, mask, *frames) in enumerate(blocks):
        if drop_detected:
            live = [site for site in live if not words[site.key]]
            if not live:
                break
        goods = [cc.evaluate(inputs, mask) for inputs in frames]
        runs_left = 1 if drop_detected and block == 0 else num_blocks - block
        hits = detect(cc, live, goods[0], goods[-1], mask, runs_left)
        _record(words, hits, base, drop_detected)
    return DetectionReport(words=words, num_tests=len(tests))


#: Compiled-engine name -> packed word backend (``"serial"`` has neither a
#: compiled circuit nor a backend and is absent on purpose).
ENGINE_BACKENDS: dict[str, str] = {"packed": "int", "numpy": "numpy"}


def compile_for_engine(
    circuit: LogicCircuit, engine: str, word_bits: int | None
) -> CompiledCircuit | None:
    """One compile per campaign (or per worker process) for a spec's engine.

    Generated code over big-int words for ``"packed"`` and over uint64
    arrays for ``"numpy"``; the serial engine needs no compiled circuit at
    all.  A ``word_bits`` of None keeps each engine's default width
    (:data:`~repro.logic.compiled.DEFAULT_WORD_BITS` and
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
    if word_bits is None:
        word_bits = DEFAULT_NUMPY_WORD_BITS if backend == "numpy" else DEFAULT_WORD_BITS
    return compile_circuit(circuit, word_bits=word_bits, backend=backend)


def compiled_matches_engine(compiled: CompiledCircuit | None, engine: str) -> bool:
    """Is *compiled* the backend *engine* needs (at any block width)?

    Callers recompile via :func:`compile_for_engine` on a mismatch instead
    of silently running a different engine than requested.
    """
    if engine == "serial" or compiled is None:
        return (compiled is None) == (engine == "serial")
    return compiled.backend == ENGINE_BACKENDS.get(engine)
