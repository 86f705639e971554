"""Declarative test campaigns: one pipeline for every registered fault model.

A :class:`CampaignSpec` describes the whole flow the paper argues for --
enumerate the fault universe (with optional structural collapsing), apply a
random / exhaustive / single-input-change pattern phase with fault dropping,
top up the remaining undetected faults with deterministic ATPG (faults
already detected by the pattern phase are skipped, not re-run), greedily
compact the combined test set, and report per-phase coverage -- and
:class:`Campaign` executes it for any registered
:class:`~repro.campaign.model.FaultModel`.

:meth:`Campaign.run` holds the one phase sequence; it runs each round body
(:func:`simulate_and_generate`, :func:`resimulate`) once, in this process,
and :class:`~repro.campaign.sharded.ShardedCampaign` once per fault shard.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import time
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterable, NamedTuple, Optional, Sequence

from ..analysis_static.diagnostics import LintReport
from ..analysis_static.lint import lint_circuit
from ..analysis_static.untestable import StaticProof
from ..atpg.compaction import (
    CompactionResult,
    concat_phase_reports,
    greedy_compaction,
    merge_fault_shards,
)
from ..atpg.coverage import CoverageReport, coverage_from_report
from ..atpg.fault_sim import DetectionReport, _check_engine
from ..atpg.parallel_sim import compile_for_engine
from ..atpg.random_tpg import (
    exhaustive_pairs,
    exhaustive_patterns,
    random_pairs,
    random_patterns,
    single_input_change_pairs,
)
from ..atpg.structural import ATPG_ENGINES
from ..faults.base import FaultList
from ..logic.compiled import CompiledCircuit
from ..logic.netlist import CircuitStats, LogicCircuit, LogicCircuitError
from .circuits import resolve_circuit
from .errors import CampaignError
from .model import TWO_PATTERN, AtpgOutcome, FaultModel, get_model

#: Accepted ``CampaignSpec.pattern_source`` values.
PATTERN_SOURCES = ("none", "random", "exhaustive", "sic")

#: Accepted ``CampaignSpec.collapse`` values (booleans are also accepted:
#: False = no collapsing, True = "equivalence").
COLLAPSE_MODES = ("equivalence", "dominance")

#: The on/off fields of :class:`CampaignSpec`.  Job files fill a spec from
#: JSON, so each must be a real ``bool``: ``"off"`` is truthy.
_FLAG_FIELDS = ("run_atpg", "compact", "drop_detected", "static_phase", "allow_degraded")


def check_count(name: str, value: Any, minimum: int) -> None:
    """Raise :class:`CampaignError` unless *value* is an ``int`` >= *minimum*.

    ``bool`` is refused although it subclasses ``int``: ``True`` is no count.
    """
    if not isinstance(value, int) or isinstance(value, bool):
        raise CampaignError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise CampaignError(f"{name} must be >= {minimum}, got {value}")


def check_seconds(name: str, value: Any, allow_zero: bool) -> None:
    """Raise :class:`CampaignError` unless *value* is a finite number of
    seconds, ``> 0`` (or ``>= 0`` with *allow_zero*).

    ``bool`` is refused like in :func:`check_count`, and so are NaN and the
    infinities: ``nan <= 0`` is False, so a plain comparison lets NaN through.
    """
    if not isinstance(value, numbers.Real) or isinstance(value, bool) or not math.isfinite(value):
        raise CampaignError(f"{name} must be a finite number of seconds, got {value!r}")
    if value < 0 or (value == 0 and not allow_zero):
        raise CampaignError(f"{name} must be {'>=' if allow_zero else '>'} 0, got {value}")


@dataclass
class CampaignSpec:
    """Declarative description of one test campaign.

    ``universe_options`` is forwarded to the model's universe builder (e.g.
    ``gate_types=[GateType.NAND2]`` for OBD, ``limit=...`` for path-delay).
    ``pattern_source`` selects the optional pattern phase run before ATPG:
    ``"random"`` (``pattern_count`` tests from ``seed``), ``"exhaustive"``,
    or ``"sic"`` (single-input-change pairs; two-pattern models only).

    ``drop_detected=True`` stops simulating each fault after its first
    detection -- the right mode for large coverage-only campaigns, but it
    leaves the compactor only one candidate test per fault, so the greedy
    cover can come out larger than the true minimum.  The default keeps every
    detection of every fault so compaction quality is exact.

    ``circuit`` optionally names the workload instead of passing a
    :class:`LogicCircuit` to :meth:`Campaign.run`: a registered circuit
    name, a parametric reference (``"rca:8"``, ``"mult:4"``,
    ``"rdag:40,7"``) or a ``.bench`` file path -- see
    :func:`repro.campaign.circuits.resolve_circuit`.

    ``engine`` picks the fault-simulation engine (any name in
    :data:`repro.atpg.fault_sim.ENGINES`: ``"packed"`` generated code over
    big-int words, ``"numpy"`` generated code over uint64 ndarray words with
    PPSFP fault batching, ``"serial"`` reference), and ``word_bits``
    overrides its block width (None keeps the engine's default:
    :data:`~repro.logic.compiled.DEFAULT_WORD_BITS` for packed,
    :data:`~repro.logic.compiled.DEFAULT_NUMPY_WORD_BITS` for numpy).  The
    circuit is compiled once per campaign and the same
    :class:`~repro.logic.compiled.CompiledCircuit` drives the pattern phase,
    the ATPG top-up re-simulation and everything downstream of them.

    ``shards`` is the default fault-universe partition count used by the
    multi-process executor (:class:`~repro.campaign.sharded.ShardedCampaign`);
    the single-process :class:`Campaign` ignores it and runs the pipeline as
    one in-process shard.  Sharded and unsharded runs of the same spec
    produce bit-identical results.

    The spec validates itself on construction, so a bad field fails fast at
    the call site instead of mid-run.
    """

    model: str = "stuck-at"
    circuit: Optional[str] = None
    universe_options: dict = field(default_factory=dict)
    #: False = full universe, True or "equivalence" = structural equivalence
    #: collapsing, "dominance" = equivalence plus guarded dominance drops.
    collapse: bool | str = False
    pattern_source: str = "none"
    pattern_count: int = 64
    seed: int = 0
    run_atpg: bool = True
    #: Structural ATPG engine for the top-up phase: any name registered in
    #: :data:`repro.atpg.structural.ATPG_ENGINES` (``"podem"`` -- the
    #: frontier-based PODEM, the default -- or ``"d-alg"``).
    atpg_engine: str = "podem"
    compact: bool = True
    drop_detected: bool = False
    engine: str = "packed"
    word_bits: Optional[int] = None
    shards: int = 1
    #: Static phase: lint the circuit (errors abort the campaign) and prove
    #: untestable the faults the pattern phase leaves undetected, which ATPG
    #: then skips.  On by default; set False to opt out.
    static_phase: bool = True
    # -- Robustness knobs (sharded/service execution only). ------------- #
    # None of these can change a campaign's *result* -- retried, resumed
    # and engine-degraded runs are bit-identical by construction -- so they
    # are deliberately excluded from ``as_dict()``'s spec block and from
    # ``spec_canonical_form`` (two specs differing only here share cache
    # entries, checkpoints and goldens).
    #: Extra attempts per shard task after its first failure (crash or
    #: deadline overrun).  0 = fail the campaign on the first shard error.
    max_retries: int = 0
    #: Per-shard deadline in seconds; a shard still running past it counts
    #: as hung and is retried (or failed) like a crash.  None = no deadline.
    shard_timeout: Optional[float] = None
    #: Base of the exponential retry backoff: attempt *n* sleeps
    #: ``retry_backoff * 2**n`` seconds before resubmitting.
    retry_backoff: float = 0.05
    #: After the retry budget is spent, fall back to the next slower engine
    #: (numpy -> packed -> serial; all bit-identical) with a fresh
    #: attempt budget, recording the degradation in the result's provenance.
    #: Set False to fail instead of degrading.
    allow_degraded: bool = True

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        for name in _FLAG_FIELDS:
            if not isinstance(getattr(self, name), bool):
                raise CampaignError(f"{name} must be True or False, got {getattr(self, name)!r}")
        # A str or float seed would seed a different random stream.
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise CampaignError(f"seed must be an integer, got {self.seed!r}")
        if not isinstance(self.universe_options, dict):
            raise CampaignError(
                f"universe_options must be a dict, got {self.universe_options!r}"
            )
        check_count("pattern_count", self.pattern_count, 0)
        check_count("shards", self.shards, 1)
        check_count("max_retries", self.max_retries, 0)
        if self.word_bits is not None:
            check_count("word_bits", self.word_bits, 1)
        if self.shard_timeout is not None:
            check_seconds("shard_timeout", self.shard_timeout, allow_zero=False)
        check_seconds("retry_backoff", self.retry_backoff, allow_zero=True)
        if not isinstance(self.collapse, bool) and self.collapse not in COLLAPSE_MODES:
            raise CampaignError(
                f"unknown collapse mode {self.collapse!r}; expected a boolean "
                f"or one of {COLLAPSE_MODES}"
            )
        if self.pattern_source not in PATTERN_SOURCES:
            raise CampaignError(
                f"unknown pattern source {self.pattern_source!r}; expected one of {PATTERN_SOURCES}"
            )
        if self.pattern_source == "none" and not self.run_atpg:
            raise CampaignError("campaign has no test phase: set pattern_source or run_atpg")
        try:
            _check_engine(self.engine)
        except ValueError as exc:
            raise CampaignError(str(exc)) from None
        if self.atpg_engine not in ATPG_ENGINES:
            raise CampaignError(
                f"unknown ATPG engine {self.atpg_engine!r}; expected one of "
                f"{tuple(sorted(ATPG_ENGINES))}"
            )
        try:
            model = get_model(self.model)
        except KeyError as exc:
            raise CampaignError(exc.args[0]) from None
        if self.pattern_source == "sic" and model.pattern_kind != TWO_PATTERN:
            raise CampaignError(
                f"pattern_source='sic' (single-input-change pairs) needs a "
                f"two-pattern model, but model={self.model!r} is single-pattern"
            )


@dataclass
class StaticPhaseResult:
    """Outcome of the static phase: the lint report plus the proofs.

    ``proofs`` maps each statically proven untestable fault key to its
    :class:`~repro.analysis_static.untestable.StaticProof`, in universe
    order.  The prover runs in round 1 on the faults the pattern phase left
    undetected (every fault without a pattern phase); a sound proof never
    holds for a detected fault, so these are exactly the proofs over the
    whole universe.  Proven faults are skipped by ATPG and reported as
    untestable with ``proven_static`` provenance.  They deliberately *stay*
    in the round-2 simulation universe: keeping them changes no detection
    result -- and an ATPG test detecting one trips the soundness alarm in
    :func:`assemble_result`.  ``runtime`` is the summed prove time of the
    fault slices.
    """

    lint: LintReport
    proofs: dict[str, StaticProof]
    runtime: float

    @property
    def num_proven(self) -> int:
        return len(self.proofs)


@dataclass
class PatternPhaseResult:
    """Outcome of the random / exhaustive / SIC pattern phase."""

    source: str
    tests: list
    report: DetectionReport
    coverage: CoverageReport
    runtime: float


@dataclass
class AtpgPhaseResult:
    """Outcome of the deterministic ATPG top-up phase.

    ``skipped`` lists the fault keys that were already detected by an earlier
    phase and therefore never handed to the ATPG engine (cross-phase fault
    dropping); ``proven`` lists the keys the static phase proved untestable,
    which are likewise never searched; ``outcomes`` covers only the
    attempted faults.
    """

    outcomes: list[AtpgOutcome]
    skipped: tuple[str, ...]
    tests: list
    report: DetectionReport
    coverage: CoverageReport
    runtime: float
    #: Time spent in test generation alone, excluding the verification
    #: fault-simulation of the generated tests (use this for ATPG-cost
    #: comparisons such as the Section-5 complexity experiment).
    generation_runtime: float = 0.0
    #: Fault keys proven untestable by the static phase (universe order),
    #: skipped without running the search.
    proven: tuple[str, ...] = ()

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def testable(self) -> list[AtpgOutcome]:
        return [o for o in self.outcomes if o.success]

    @property
    def untestable(self) -> list[AtpgOutcome]:
        return [o for o in self.outcomes if o.untestable]

    @property
    def aborted(self) -> list[AtpgOutcome]:
        return [o for o in self.outcomes if not o.success and o.aborted]

    @property
    def backtracks(self) -> int:
        return sum(o.backtracks for o in self.outcomes)

    @property
    def decisions(self) -> int:
        return sum(o.decisions for o in self.outcomes)

    @property
    def implications(self) -> int:
        return sum(o.implications for o in self.outcomes)


@dataclass
class CampaignResult:
    """Everything one campaign run produced.

    Test indices in :attr:`compaction` refer to the merged test list
    (:attr:`tests`): pattern-phase tests first, ATPG tests after them.
    """

    spec: CampaignSpec
    model_name: str
    circuit_name: str
    circuit_stats: CircuitStats
    faults: FaultList
    uncollapsed_faults: int
    static_phase: Optional[StaticPhaseResult]
    pattern_phase: Optional[PatternPhaseResult]
    atpg_phase: Optional[AtpgPhaseResult]
    #: All tests applied, pattern phase first, then ATPG tests; detection
    #: and compaction indices refer to this list.
    tests: list
    merged_report: DetectionReport
    compaction: Optional[CompactionResult]
    compacted_tests: Optional[list]
    runtime: float
    #: Engine-degradation provenance, set by the sharded executor when a
    #: shard fell back to a slower engine after repeated failures:
    #: ``{"engine": spec engine, "fallbacks": {shard: engine}}``.  None for
    #: a clean run, and omitted from :meth:`as_dict` then -- degradation is
    #: operational provenance, not part of the (bit-identical) result.
    degraded: Optional[dict[str, Any]] = None

    # ------------------------------------------------------------------ #
    # Merged views.
    # ------------------------------------------------------------------ #
    @property
    def detections(self) -> dict[str, list[int]]:
        """Per-fault detecting indices into the merged test list."""
        return self.merged_report.detections

    @property
    def detected_faults(self) -> list[str]:
        return self.merged_report.detected_faults

    @property
    def undetected_faults(self) -> list[str]:
        return self.merged_report.undetected_faults

    @property
    def coverage(self) -> CoverageReport:
        """Overall coverage across all phases.

        Statically proven faults count as untestable (with their own
        ``proven_static`` tally) exactly like ATPG-proven ones, so test
        efficiency is comparable with the static phase on or off.
        """
        proven = self.static_phase.num_proven if self.static_phase else 0
        untestable = (len(self.atpg_phase.untestable) if self.atpg_phase else 0) + proven
        aborted = len(self.atpg_phase.aborted) if self.atpg_phase else 0
        return CoverageReport(
            model=self.model_name,
            total_faults=len(self.faults),
            detected=len(self.detected_faults),
            untestable=untestable,
            aborted=aborted,
            num_tests=self.merged_report.num_tests,
            proven_static=proven,
        )

    # ------------------------------------------------------------------ #
    # Reporting.
    # ------------------------------------------------------------------ #
    def describe(self) -> str:
        overall = self.coverage
        lines = [
            f"circuit: {self.circuit_stats.describe()}",
            f"campaign[{self.model_name}] on {self.circuit_name or 'circuit'}: "
            f"{len(self.faults)} faults"
            + (
                f" (collapsed from {self.uncollapsed_faults})"
                if len(self.faults) != self.uncollapsed_faults
                else ""
            )
            + f", {overall.detected}/{overall.total_faults} detected "
            f"({100.0 * overall.coverage:.1f}%)"
        ]
        if self.static_phase is not None:
            s = self.static_phase
            counts = s.lint.counts()
            lines.append(
                f"  static: lint {counts['errors']} errors / {counts['warnings']} "
                f"warnings, {s.num_proven} faults proven untestable"
            )
        if self.pattern_phase is not None:
            p = self.pattern_phase
            lines.append(
                f"  patterns[{p.source}]: {len(p.tests)} tests -> "
                f"{p.coverage.detected}/{p.coverage.total_faults} detected"
            )
        if self.atpg_phase is not None:
            a = self.atpg_phase
            lines.append(
                f"  atpg: {a.attempted} attempted ({len(a.skipped)} skipped as already "
                f"detected, {len(a.proven)} proven untestable statically), "
                f"{len(a.testable)} testable, {len(a.untestable)} untestable, "
                f"{len(a.aborted)} aborted, {a.backtracks} backtracks / "
                f"{a.decisions} decisions -> {len(a.tests)} tests"
            )
        if self.compaction is not None:
            lines.append(
                f"  compaction: {self.compaction.size}/{self.merged_report.num_tests} tests "
                f"cover {len(self.compaction.covered_faults)} faults"
            )
        lines.append(f"  runtime: {self.runtime * 1e3:.1f} ms")
        return "\n".join(lines)

    def as_dict(self, include_runtime: bool = True) -> dict[str, Any]:
        """JSON-serializable summary of the campaign.

        ``include_runtime=False`` omits the wall-clock fields (``runtime_s``,
        ``generation_runtime_s``) so two runs of the same spec -- e.g. a
        sharded and an unsharded execution, or a run against a golden file --
        compare byte-identical.
        """
        payload: dict[str, Any] = {
            "model": self.model_name,
            "circuit": self.circuit_name,
            "spec": _jsonable(spec_result_fields(self.spec)),
            "circuit_stats": {
                "inputs": self.circuit_stats.num_inputs,
                "outputs": self.circuit_stats.num_outputs,
                "gates": self.circuit_stats.num_gates,
                "nets": self.circuit_stats.num_nets,
                "depth": self.circuit_stats.depth,
                "gate_counts": dict(self.circuit_stats.gate_counts),
                "fanout_histogram": {
                    str(k): v for k, v in sorted(self.circuit_stats.fanout_histogram.items())
                },
                "max_fanout": self.circuit_stats.max_fanout,
                "scoap": self.circuit_stats.scoap,
            },
            "faults": len(self.faults),
            "uncollapsed_faults": self.uncollapsed_faults,
            "coverage": _coverage_dict(self.coverage),
            "detections": {key: list(indices) for key, indices in self.detections.items()},
        }
        if include_runtime:
            payload["runtime_s"] = self.runtime
        if self.static_phase is not None:
            s = self.static_phase
            payload["static_phase"] = {
                "lint": s.lint.counts(),
                "proven_untestable": {
                    key: s.proofs[key].reason for key in sorted(s.proofs)
                },
            }
            if include_runtime:
                payload["static_phase"]["runtime_s"] = s.runtime
        if self.pattern_phase is not None:
            payload["pattern_phase"] = {
                "source": self.pattern_phase.source,
                "num_tests": len(self.pattern_phase.tests),
                "coverage": _coverage_dict(self.pattern_phase.coverage),
            }
            if include_runtime:
                payload["pattern_phase"]["runtime_s"] = self.pattern_phase.runtime
        if self.atpg_phase is not None:
            a = self.atpg_phase
            payload["atpg_phase"] = {
                "atpg_engine": self.spec.atpg_engine,
                "attempted": a.attempted,
                "skipped": len(a.skipped),
                "proven_static": len(a.proven),
                "proven_structural": len(a.untestable),
                "testable": len(a.testable),
                "untestable": len(a.untestable),
                "aborted": len(a.aborted),
                "backtracks": a.backtracks,
                "decisions": a.decisions,
                "implications": a.implications,
                "num_tests": len(a.tests),
                "outcomes": {o.fault.key: o.status for o in a.outcomes},
                "coverage": _coverage_dict(a.coverage),
            }
            if include_runtime:
                payload["atpg_phase"]["runtime_s"] = a.runtime
                payload["atpg_phase"]["generation_runtime_s"] = a.generation_runtime
        if self.compaction is not None:
            payload["compaction"] = {
                "selected_indices": list(self.compaction.selected_indices),
                "size": self.compaction.size,
                "covered_faults": len(self.compaction.covered_faults),
                "uncovered_faults": len(self.compaction.uncovered_faults),
                "tests": _jsonable(self.compacted_tests),
            }
        if self.degraded:
            payload["degraded"] = _jsonable(self.degraded)
        return payload

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.as_dict(), indent=indent)


def _coverage_dict(report: CoverageReport) -> dict[str, Any]:
    return {
        "total_faults": report.total_faults,
        "detected": report.detected,
        "untestable": report.untestable,
        "proven_static": report.proven_static,
        "aborted": report.aborted,
        "num_tests": report.num_tests,
        "coverage": report.coverage,
        "test_efficiency": report.test_efficiency,
    }


#: The spec fields a result embeds, in report order.  The result cache's
#: fingerprint (:func:`repro.service.fingerprint.spec_canonical_form`) keys on
#: them too, plus one constant key kept so cache keys and checkpoint
#: manifests written before the ``podem_options`` field was deleted still match.
_RESULT_SPEC_FIELDS = (
    "model", "circuit", "universe_options", "collapse", "pattern_source",
    "pattern_count", "seed", "run_atpg", "compact", "drop_detected", "engine",
    "atpg_engine", "word_bits", "shards", "static_phase",
)


def spec_result_fields(spec: CampaignSpec) -> dict[str, Any]:
    """The :data:`_RESULT_SPEC_FIELDS` of *spec*, in report order."""
    return {name: getattr(spec, name) for name in _RESULT_SPEC_FIELDS}


def _jsonable(value: Any) -> Any:
    """Recursively convert enums/tuples so ``json.dumps`` accepts the value."""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


# --------------------------------------------------------------------------- #
# Pure pipeline pieces.
#
# These are module-level (hence picklable) and side-effect free, so the round
# bodies run unchanged in this process (Campaign.run) and in the worker
# processes of the sharded executor (repro.campaign.sharded).
# --------------------------------------------------------------------------- #
def resolve_campaign_circuit(
    circuit: LogicCircuit | str | os.PathLike | None,
    spec: CampaignSpec,
) -> LogicCircuit:
    """Resolve the run() argument or the spec's ``circuit`` field.

    Normalizes everything a bad circuit reference can produce (builder
    errors, malformed ``.bench`` files, unknown names) to
    :class:`CampaignError`.
    """
    if circuit is None:
        if spec.circuit is None:
            raise CampaignError("no circuit: pass one to run() or set CampaignSpec.circuit")
        circuit = spec.circuit
    try:
        return resolve_circuit(circuit)
    except (ValueError, LogicCircuitError) as exc:
        raise CampaignError(str(exc)) from None


def collapse_universe(
    model: FaultModel, circuit: LogicCircuit, universe: FaultList, mode: bool | str
) -> FaultList:
    """Apply the spec's collapse mode (False / True / "equivalence" / "dominance")."""
    if not mode:
        return universe
    if mode == "dominance":
        return model.collapse_dominance(circuit, universe)
    return model.collapse(circuit, universe)


def run_lint_gate(circuit: LogicCircuit) -> LintReport:
    """Lint *circuit* and abort on error-severity findings.

    An error-severity diagnostic aborts the campaign with a
    :class:`CampaignError` quoting every finding; warnings and infos are
    recorded on the report but do not block.  This runs before the circuit
    is compiled or the fault universe built, so structural defects surface
    as campaign errors with rule ids instead of engine tracebacks.
    """
    lint = lint_circuit(circuit)
    if not lint.ok:
        findings = "; ".join(d.format() for d in lint.errors)
        raise CampaignError(
            f"circuit {circuit.name or '<unnamed>'!r} failed netlist lint: {findings}"
        )
    return lint


def generate_atpg_outcomes(
    model: FaultModel,
    circuit: LogicCircuit,
    faults: Iterable,
    detected: set[str],
    proven: frozenset[str] = frozenset(),
    atpg_engine: str | None = None,
) -> tuple[list[AtpgOutcome], list[str]]:
    """Deterministic ATPG over *faults*, skipping already-*detected* keys.

    Keys in *proven* (statically proven untestable) are skipped without
    running the search.  *atpg_engine* names a structural engine
    (``"d-alg"`` / ``"podem"``); None keeps the model's default.  Returns
    (outcomes for the attempted faults, skipped fault keys), both in
    universe order -- the invariant that makes the shards' outcomes
    concatenate into exactly the one-shard test list.  Round 1
    (:func:`simulate_and_generate`) calls it once per fault slice, and the
    loop owns one *searches* memo for the model's ``generate_test``, so
    each slice has its own.
    """
    outcomes: list[AtpgOutcome] = []
    skipped: list[str] = []
    searches: dict = {}
    for fault in faults:
        if fault.key in proven:
            continue
        if fault.key in detected:
            skipped.append(fault.key)
            continue
        outcomes.append(
            model.generate_test(circuit, fault, atpg_engine=atpg_engine, searches=searches)
        )
    return outcomes, skipped


class Round1Record(NamedTuple):
    """What round 1 returns for one fault slice.

    *skipped* and *proofs* are in universe order; *report* is None without
    a pattern phase.  The prover sees only the faults the patterns left
    undetected, so with ATPG on the faults it skipped as proven are exactly
    the *proofs* keys.  A tuple, so it pickles across the worker boundary.
    """

    report: Optional[DetectionReport]
    outcomes: list[AtpgOutcome]
    skipped: list[str]
    proofs: dict[str, StaticProof]
    sim_seconds: float
    prove_seconds: float
    gen_seconds: float


def simulate_and_generate(
    spec: CampaignSpec,
    model: FaultModel,
    circuit: LogicCircuit,
    compiled: Optional[CompiledCircuit],
    faults: Iterable,
    tests: Optional[Sequence],
    engine: Optional[str] = None,
) -> Round1Record:
    """Round 1 over one fault slice: simulate, prove the survivors, generate.

    *compiled* is the circuit compiled for *engine* (default: the spec's;
    None for the serial engine).  *tests* is None when the spec has no
    pattern phase.  With the static phase on, the model's
    ``prove_untestable`` hook runs on the faults the patterns left
    undetected (every fault without patterns) and ATPG skips what it
    proves.
    """
    report: Optional[DetectionReport] = None
    detected: set[str] = set()
    outcomes, skipped = [], []
    proofs: dict[str, StaticProof] = {}
    sim_seconds = prove_seconds = gen_seconds = 0.0
    if tests is not None:
        t0 = time.perf_counter()
        report = model.simulate(
            circuit, tests, faults, drop_detected=spec.drop_detected,
            engine=engine or spec.engine, compiled=compiled,
        )
        sim_seconds = time.perf_counter() - t0
        detected.update(report.detected_faults)
    if spec.static_phase:
        t0 = time.perf_counter()
        proofs = model.prove_untestable(
            circuit, [fault for fault in faults if fault.key not in detected]
        )
        prove_seconds = time.perf_counter() - t0
    if spec.run_atpg:
        t0 = time.perf_counter()
        outcomes, skipped = generate_atpg_outcomes(
            model, circuit, faults, detected, proven=frozenset(proofs),
            atpg_engine=spec.atpg_engine,
        )
        gen_seconds = time.perf_counter() - t0
    return Round1Record(
        report, outcomes, skipped, proofs, sim_seconds, prove_seconds, gen_seconds
    )


def resimulate(
    model: FaultModel,
    circuit: LogicCircuit,
    compiled: Optional[CompiledCircuit],
    faults: Iterable,
    tests: Sequence,
    engine: str,
    drop_detected: bool,
) -> tuple[DetectionReport, float]:
    """Round 2 over one fault slice: re-simulate the merged ATPG test list.

    Returns the round-2 record: the slice's report and its seconds.
    """
    t0 = time.perf_counter()
    report = model.simulate(
        circuit, tests, faults, drop_detected=drop_detected, engine=engine, compiled=compiled
    )
    return report, time.perf_counter() - t0


def _merge_round(reports: list, faults: FaultList, num_tests: int) -> DetectionReport:
    """A round's slice reports merged in universe order (none: no slice ran)."""
    if not reports:
        return DetectionReport(words={}, num_tests=num_tests)
    return merge_fault_shards(reports, fault_order=faults.keys())


def build_atpg_phase(
    model_name: str,
    num_faults: int,
    outcomes: list[AtpgOutcome],
    skipped: Sequence[str],
    report: DetectionReport,
    runtime: float,
    generation_runtime: float,
    proven: Sequence[str] = (),
) -> AtpgPhaseResult:
    """Assemble the ATPG phase record from its parts (shared with sharding).

    The phase coverage counts the statically *proven* keys as untestable
    alongside the search-proven ones, so the phase's test efficiency is
    unchanged by moving a proof from PODEM to the static phase.
    """
    atpg_tests = [test for outcome in outcomes for test in outcome.tests]
    untestable = sum(1 for o in outcomes if o.untestable)
    aborted = sum(1 for o in outcomes if not o.success and o.aborted)
    return AtpgPhaseResult(
        outcomes=outcomes,
        skipped=tuple(skipped),
        tests=atpg_tests,
        report=report,
        coverage=CoverageReport(
            model=model_name,
            total_faults=num_faults,
            detected=len(report.detected_faults),
            untestable=untestable + len(proven),
            aborted=aborted,
            num_tests=len(atpg_tests),
            proven_static=len(proven),
        ),
        runtime=runtime,
        generation_runtime=generation_runtime,
        proven=tuple(proven),
    )


def assemble_result(
    spec: CampaignSpec,
    model: FaultModel,
    circuit: LogicCircuit,
    universe: FaultList,
    faults: FaultList,
    pattern_phase: Optional[PatternPhaseResult],
    atpg_phase: Optional[AtpgPhaseResult],
    runtime: float,
    static_phase: Optional[StaticPhaseResult] = None,
) -> CampaignResult:
    """Merge phases, compact, and build the final :class:`CampaignResult`.

    Every run of the pipeline ends here, whether its rounds ran in this
    process or over shards, so report merging and compaction behave
    identically no matter how the phases were computed.  A detection of a
    statically proven fault means an unsound proof and raises
    :class:`CampaignError` -- by construction it cannot happen, and silently
    reporting such a fault both detected and untestable would corrupt every
    downstream count.
    """
    merged_report = concat_phase_reports(
        faults.keys(), [p.report for p in (pattern_phase, atpg_phase) if p is not None]
    )
    if static_phase is not None and static_phase.proofs:
        unsound = sorted(set(merged_report.detected_faults) & set(static_phase.proofs))
        if unsound:
            raise CampaignError(
                f"static untestability proofs are unsound: faults {unsound} were "
                f"proven untestable but detected by simulation"
            )
    merged_tests = (pattern_phase.tests if pattern_phase else []) + (
        atpg_phase.tests if atpg_phase else []
    )
    compaction = compacted_tests = None
    if spec.compact:
        compaction = greedy_compaction(merged_report)
        compacted_tests = [merged_tests[i] for i in compaction.selected_indices]
    return CampaignResult(
        spec=spec,
        model_name=model.name,
        circuit_name=circuit.name,
        circuit_stats=circuit.stats(include_scoap=spec.static_phase),
        faults=faults,
        uncollapsed_faults=len(universe),
        static_phase=static_phase,
        pattern_phase=pattern_phase,
        atpg_phase=atpg_phase,
        tests=merged_tests,
        merged_report=merged_report,
        compaction=compaction,
        compacted_tests=compacted_tests,
        runtime=runtime,
    )


class Campaign:
    """Executable form of a :class:`CampaignSpec` for any registered model."""

    def __init__(self, spec: CampaignSpec):
        # Re-validate in case the spec was mutated after construction.
        spec.validate()
        self.spec = spec
        self.model: FaultModel = get_model(spec.model)

    # ------------------------------------------------------------------ #
    # Pattern sources.
    # ------------------------------------------------------------------ #
    def patterns_for(self, circuit: LogicCircuit) -> list:
        """The pattern-phase test list dictated by the spec and model kind."""
        spec = self.spec
        pairs = self.model.pattern_kind == TWO_PATTERN
        if spec.pattern_source == "random":
            if pairs:
                return random_pairs(circuit, spec.pattern_count, seed=spec.seed)
            return random_patterns(circuit, spec.pattern_count, seed=spec.seed)
        if spec.pattern_source == "exhaustive":
            return exhaustive_pairs(circuit) if pairs else exhaustive_patterns(circuit)
        if spec.pattern_source == "sic":
            if not pairs:
                raise CampaignError(
                    f"single-input-change patterns need a two-pattern model, "
                    f"not {self.model.name!r}"
                )
            return single_input_change_pairs(circuit)
        return []

    # ------------------------------------------------------------------ #
    # Pipeline.
    # ------------------------------------------------------------------ #
    def run(self, circuit: LogicCircuit | str | None = None) -> CampaignResult:
        """Execute the full pipeline on *circuit*.

        *circuit* may be a :class:`LogicCircuit`, a circuit reference
        string (registered name, parametric ``family:args`` or ``.bench``
        path), or None to use the spec's ``circuit`` field.

        This is the one phase sequence of every campaign; executors differ
        only in how the two rounds run (:meth:`_rounds`).  :class:`Campaign`
        runs each round body once, in this process, with no executor,
        retry, checkpoint or fault-injection hook, so an exception
        propagates as raised.
        """
        spec, model = self.spec, self.model
        circuit = resolve_campaign_circuit(circuit, spec)
        start = time.perf_counter()

        # The lint gate runs before anything touches the netlist, so a
        # malformed circuit fails with rule-id diagnostics rather than a
        # compile or universe-builder traceback.
        lint = run_lint_gate(circuit) if spec.static_phase else None
        universe = model.build_universe(circuit, **spec.universe_options)
        faults = collapse_universe(model, circuit, universe, spec.collapse)
        tests = list(self.patterns_for(circuit)) if spec.pattern_source != "none" else None

        static_phase: StaticPhaseResult | None = None
        pattern_phase: PatternPhaseResult | None = None
        atpg_phase: AtpgPhaseResult | None = None
        with self._rounds(circuit) as rounds:
            results = rounds.round1(faults, tests)
            if spec.static_phase:
                # Slice-order concatenation is universe order (slices are
                # contiguous), so proofs, outcomes and skipped keys merge
                # deterministically no matter the worker schedule.
                static_phase = StaticPhaseResult(
                    lint=lint,
                    proofs={key: proof for r in results for key, proof in r.proofs.items()},
                    runtime=sum(r.prove_seconds for r in results),
                )
            if tests is not None:
                report = _merge_round([r.report for r in results], faults, len(tests))
                pattern_phase = PatternPhaseResult(
                    source=spec.pattern_source,
                    tests=tests,
                    report=report,
                    coverage=coverage_from_report(model.name, report),
                    # Summed slice time: the sequential phase cost, not the
                    # parallel wall time of a sharded run.
                    runtime=sum(r.sim_seconds for r in results),
                )
            if spec.run_atpg:
                outcomes = [o for r in results for o in r.outcomes]
                skipped = [k for r in results for k in r.skipped]
                generation_runtime = sum(r.gen_seconds for r in results)
                atpg_tests = [test for outcome in outcomes for test in outcome.tests]
                # With dropping on, faults the pattern phase already detected
                # are excluded here too, so each dropped fault keeps exactly
                # one detection index across the whole campaign; without
                # dropping the full universe is simulated so compaction sees
                # every alternative.
                sim_faults = faults
                if spec.drop_detected and pattern_phase is not None:
                    detected = set(pattern_phase.report.detected_faults)
                    sim_faults = faults.filtered(lambda f: f.key not in detected)
                resim = rounds.round2(sim_faults, atpg_tests)
                atpg_phase = build_atpg_phase(
                    model.name,
                    len(faults),
                    outcomes,
                    skipped,
                    _merge_round([r[0] for r in resim], sim_faults, len(atpg_tests)),
                    runtime=generation_runtime + sum(r[1] for r in resim),
                    generation_runtime=generation_runtime,
                    proven=[key for r in results for key in r.proofs],
                )

        result = assemble_result(
            spec,
            model,
            circuit,
            universe,
            faults,
            pattern_phase,
            atpg_phase,
            runtime=time.perf_counter() - start,
            static_phase=static_phase,
        )
        result.degraded = rounds.degraded
        return result

    def _rounds(self, circuit: LogicCircuit) -> AbstractContextManager:
        """How this executor runs the two rounds, opened once the patterns are drawn."""
        return nullcontext(_InProcessRounds(self, circuit))


class _InProcessRounds:
    """Each round body once, in this process, over the whole collapsed
    universe, on one circuit compiled for the spec's engine."""

    #: An in-process run never falls back to another engine.
    degraded = None

    def __init__(self, campaign: Campaign, circuit: LogicCircuit):
        self.spec, self.model, self.circuit = campaign.spec, campaign.model, circuit
        self.compiled = compile_for_engine(circuit, self.spec.engine, self.spec.word_bits)

    def round1(self, faults: FaultList, tests: Optional[list]) -> list[Round1Record]:
        return [
            simulate_and_generate(self.spec, self.model, self.circuit, self.compiled, faults, tests)
        ]

    def round2(self, faults: FaultList, tests: list) -> list:
        return [
            resimulate(
                self.model, self.circuit, self.compiled, faults, tests,
                self.spec.engine, self.spec.drop_detected,
            )
        ]


def run_campaign(
    circuit: LogicCircuit | str | None = None,
    spec: CampaignSpec | None = None,
    **spec_kwargs: Any,
) -> CampaignResult:
    """One-call convenience: build a spec (or take one) and run it.

    *circuit* accepts everything :meth:`Campaign.run` does, including a
    circuit reference string or None when the spec names the circuit.
    """
    if spec is not None and spec_kwargs:
        raise CampaignError("pass either a CampaignSpec or keyword fields, not both")
    return Campaign(spec or CampaignSpec(**spec_kwargs)).run(circuit)
