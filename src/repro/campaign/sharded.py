"""Multi-process sharded campaign execution.

The campaign pipeline is embarrassingly parallel across the fault universe:
every fault's pattern-phase detection bitset, ATPG attempt and re-simulation
result depend only on that fault (and the shared test lists), never on other
faults.  :class:`ShardedCampaign` runs the phase sequence of
:meth:`Campaign.run <repro.campaign.runner.Campaign.run>` -- which is its
one-shard, in-process case -- but partitions the (collapsed) universe into
contiguous shards and runs each of the two round bodies once per shard in a
:class:`~concurrent.futures.ProcessPoolExecutor`:

1. **simulate + prove + generate** -- each shard fault-simulates the shared
   pattern tests over its fault slice, proves untestable (static phase) the
   faults the patterns left undetected, and runs deterministic ATPG for the
   rest;
2. **re-simulate** -- the per-shard ATPG tests are concatenated in shard
   order (identical to the single-process test list, because shards are
   contiguous in universe order) and every shard re-simulates the full
   merged ATPG test list over its fault slice.

Per-shard :class:`~repro.atpg.fault_sim.DetectionReport`\\ s are merged back
in universe order (:func:`repro.atpg.compaction.merge_fault_shards`)
**before** greedy compaction runs, so the final
:class:`~repro.campaign.runner.CampaignResult` -- coverage, detection
indices, test lists, compacted subset, JSON report -- is bit-identical to
:meth:`Campaign.run <repro.campaign.runner.Campaign.run>` for every fault
model, engine, ``drop_detected`` setting and shard count (ragged or empty
final shards included).  The property suite in ``tests/test_properties.py``
asserts exactly this.

Each worker process compiles the circuit once per campaign (keyed by a run
token) and reuses the same :class:`~repro.logic.compiled.CompiledCircuit`
for both rounds, so sharding adds one compile per worker, not per task.
Workers receive plain picklable payloads (the netlist, fault dataclasses,
test tuples); compiled circuits never cross process boundaries.  The
netlist carries its :class:`~repro.analysis_static.analysis.CircuitAnalysis`,
which the parent builds before dispatch, so workers never relearn.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Executor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from contextlib import AbstractContextManager
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..analysis_static.analysis import circuit_analysis
from ..atpg.fault_sim import DetectionReport
from ..atpg.parallel_sim import compile_for_engine
from ..faults.base import Fault, FaultList
from ..logic.netlist import LogicCircuit

# faultinject has no repro dependencies and service/__init__ imports it
# before service.jobs, so this cross-package hook cannot cycle; the hooks
# are no-ops unless an injection plan is installed.
from ..service.faultinject import inject
from .errors import CampaignError, ShardExecutionError
from .model import get_model
from .runner import (
    Campaign,
    CampaignResult,
    CampaignSpec,
    Round1Record,
    check_count,
    resimulate,
    simulate_and_generate,
)


class InlineExecutor(Executor):
    """Run submitted calls immediately in the calling process.

    Drop-in for :class:`~concurrent.futures.ProcessPoolExecutor` when
    process startup is not worth it (tiny circuits, tests, single-CPU
    boxes): the shard/merge pipeline is exercised unchanged, without
    pickling or forking.
    """

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as exc:  # pragma: no cover - surfaced via .result()
            future.set_exception(exc)
        return future


def partition_faults(faults: Sequence[Fault] | FaultList, shards: int) -> list[list[Fault]]:
    """Contiguous fault shards in universe order; the final shard is ragged.

    Chunks are ``ceil(n / shards)`` long, so with more shards than faults
    the trailing shards come out empty -- callers skip those.  Contiguity in
    universe order is what makes per-shard ATPG test lists concatenate into
    exactly the single-process test list.
    """
    if shards < 1:
        raise CampaignError(f"shards must be >= 1, got {shards}")
    fault_list = list(faults)
    size = -(-len(fault_list) // shards) if fault_list else 1
    return [fault_list[i * size : (i + 1) * size] for i in range(shards)]


# --------------------------------------------------------------------------- #
# Worker-side code.  Everything below runs inside pool processes; the
# per-process compiled-circuit cache means each worker compiles the circuit once
# per campaign regardless of how many shard tasks it executes.
# --------------------------------------------------------------------------- #
_TOKENS = itertools.count()

#: Per-worker-process cache: (run token, engine, word bits) -> compiled
#: circuit (or None for the serial engine).  Keyed by engine as well as
#: token because retry degradation can re-run a shard of the same campaign
#: under a fallback engine -- the packed artifact must not be reused then.
#: Bounded so a long-lived pool (the campaign service's) does not hold one
#: compiled circuit per finished campaign; a run also evicts its own entries
#: from the calling process when it ends (inline executors compile there).
_WORKER_COMPILED: dict[tuple[str, str, Optional[int]], object] = {}
_WORKER_CACHE_LIMIT = 8


def _exit_with_parent() -> None:
    """Pool-worker initializer: exit once the parent pid changes.

    A SIGKILLed parent never shuts its pool down; without this its orphaned
    workers would wait on their task queue forever.
    """
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=watch, name="exit-with-parent", daemon=True).start()


def worker_pool(max_workers: int) -> Executor:
    """A process pool whose workers exit when the process that made it dies."""
    return ProcessPoolExecutor(max_workers=max_workers, initializer=_exit_with_parent)


def _new_token() -> str:
    """A campaign-run id that is unique across the parent process lifetime."""
    return f"{os.getpid()}:{next(_TOKENS)}"


def _worker_compiled(token: str, circuit: LogicCircuit, engine: str, word_bits: Optional[int]):
    key = (token, engine, word_bits)
    compiled = _WORKER_COMPILED.get(key, _WORKER_COMPILED)
    if compiled is _WORKER_COMPILED:  # sentinel: not cached yet (None is valid)
        compiled = compile_for_engine(circuit, engine, word_bits)
        while len(_WORKER_COMPILED) >= _WORKER_CACHE_LIMIT:
            _WORKER_COMPILED.pop(next(iter(_WORKER_COMPILED)))
        _WORKER_COMPILED[key] = compiled
    return compiled


def _shard_pattern_and_generate(
    token: str,
    circuit: LogicCircuit,
    spec: CampaignSpec,
    engine: str,
    tests: Optional[Sequence],
    fault_shard: Sequence[Fault],
    shard_index: int = -1,
) -> Round1Record:
    """Round 1 of one shard in a worker: the round body on this worker's compile."""
    inject("worker.round1", shard=shard_index)
    model = get_model(spec.model)
    compiled = _worker_compiled(token, circuit, engine, spec.word_bits)
    return simulate_and_generate(spec, model, circuit, compiled, fault_shard, tests, engine)


def _shard_resimulate(
    token: str,
    circuit: LogicCircuit,
    model_name: str,
    engine: str,
    word_bits: Optional[int],
    tests: Sequence,
    fault_shard: Sequence[Fault],
    drop_detected: bool,
    shard_index: int = -1,
) -> tuple[DetectionReport, float]:
    """Round 2 of one shard in a worker: the round body on this worker's compile."""
    inject("worker.round2", shard=shard_index)
    model = get_model(model_name)
    compiled = _worker_compiled(token, circuit, engine, word_bits)
    return resimulate(model, circuit, compiled, fault_shard, tests, engine, drop_detected)


# --------------------------------------------------------------------------- #
# Parent-side executor.
# --------------------------------------------------------------------------- #
#: Engine-degradation ladder: after a shard's retry budget is spent the
#: executor may fall back one rung and try again.  Every engine is
#: property-tested bit-identical to the others, so degradation can change
#: only runtime, never the result.  The numpy backend falls back to the
#: big-int backend of the same generated code, and that to the serial
#: reference, which needs no compiled circuit at all.
DEGRADE_FALLBACK = {"numpy": "packed", "packed": "serial"}


@dataclass
class RetryPolicy:
    """How one shard round treats failing or overdue tasks.

    ``max_retries`` extra attempts per shard (on top of the first), each
    preceded by an exponential ``backoff * 2**attempt`` sleep;
    ``timeout`` is the per-shard deadline in seconds (None = wait forever);
    ``degrade_to`` names the fallback engine granted a fresh attempt budget
    once the primary engine's budget is spent (None = fail instead).
    *sleep* is injectable so tests can assert the backoff schedule without
    real waiting.
    """

    max_retries: int = 0
    timeout: Optional[float] = None
    backoff: float = 0.05
    degrade_to: Optional[str] = None
    sleep: Callable[[float], None] = time.sleep

    @classmethod
    def for_spec(cls, spec: CampaignSpec) -> "RetryPolicy":
        return cls(
            max_retries=spec.max_retries,
            timeout=spec.shard_timeout,
            backoff=spec.retry_backoff,
            degrade_to=DEGRADE_FALLBACK.get(spec.engine) if spec.allow_degraded else None,
        )


@dataclass
class RoundStats:
    """Fault-tolerance counters accumulated across a campaign's rounds."""

    retries: int = 0
    crashes: int = 0
    timeouts: int = 0
    rebuilds: int = 0
    #: Shard index -> fallback engine, for shards that completed degraded.
    degraded: dict[int, str] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "retries": self.retries,
            "crashes": self.crashes,
            "timeouts": self.timeouts,
            "rebuilds": self.rebuilds,
            "degraded_shards": len(self.degraded),
        }


def _collect_round(
    tasks: Sequence[tuple[int, Callable[..., Future]]],
    load: Optional[Callable[[int], Optional[tuple]]],
    save: Optional[Callable[[int, tuple], None]],
    *,
    policy: Optional[RetryPolicy] = None,
    stats: Optional[RoundStats] = None,
    rebuild: Optional[Callable[[], None]] = None,
) -> list[tuple]:
    """Run one shard round, mixing checkpointed and freshly computed shards.

    *tasks* pairs each shard index with a thunk that submits its worker
    task (the thunk takes an optional fallback-engine override); *load*
    returns a checkpointed record (or None) and *save* persists one -- both
    None when checkpointing is off.  Results are persisted **as they
    complete** (not at round end), so a crash mid-round loses only the
    still-running shards; if collecting a result raises, the
    already-finished shards are persisted before the exception propagates.
    The returned list is ordered by shard index, exactly as if every shard
    had been computed in submit order.

    Failure handling, governed by *policy* and tallied into *stats*:

    * A worker-side :class:`Exception` (or a shard exceeding the deadline)
      is retried with exponential backoff up to ``policy.max_retries``
      times, then retried once more on ``policy.degrade_to`` (fresh attempt
      budget), and finally raised as :class:`ShardExecutionError` with its
      taxonomy category.  Determinism makes every disposition safe: a retry
      or a degraded re-run of the same shard produces the identical record.
    * :class:`CampaignError` and ``BaseException``\\ s
      (``KeyboardInterrupt`` & co) are never retried -- deterministic
      failures cannot be fixed by running again.
    * :class:`~concurrent.futures.BrokenExecutor` (worker-side or at
      submission) invokes *rebuild* -- once per breakage wave -- before the
      affected shards are retried on the replacement pool.
    * A submit-time exception of any other type is a parent-side crash and
      propagates raw (the checkpoint store has already persisted every
      finished shard, so the campaign resumes).
    """
    policy = policy or RetryPolicy()
    stats = stats if stats is not None else RoundStats()
    results: dict[int, tuple] = {}
    written: set[int] = set()
    submits: dict[int, Callable[..., Future]] = {}
    stage_attempts: dict[int, int] = {}
    total_attempts: dict[int, int] = {}
    engines: dict[int, str] = {}
    pending: dict[Future, int] = {}
    deadlines: dict[Future, float] = {}

    def _save(index: int, record: tuple) -> None:
        if save is not None and index not in written:
            save(index, record)
            written.add(index)

    def _attempt(index: int) -> None:
        try:
            future = submits[index](engines.get(index))
        except (BrokenExecutor, OSError) as exc:
            if isinstance(exc, BrokenExecutor):
                stats.rebuilds += 1
                if rebuild is not None:
                    rebuild()
            _fail(index, exc, "crash")
            return
        pending[future] = index
        if policy.timeout is not None:
            deadlines[future] = time.monotonic() + policy.timeout

    def _fail(index: int, exc: BaseException, category: str) -> None:
        if category == "timeout":
            stats.timeouts += 1
        else:
            stats.crashes += 1
        total_attempts[index] = total_attempts.get(index, 0) + 1
        stage_attempts[index] = stage_attempts.get(index, 0) + 1
        if stage_attempts[index] <= policy.max_retries:
            stats.retries += 1
            if policy.backoff > 0:
                policy.sleep(policy.backoff * (2 ** (stage_attempts[index] - 1)))
        elif policy.degrade_to is not None and index not in engines:
            engines[index] = policy.degrade_to
            stats.degraded[index] = policy.degrade_to
            stage_attempts[index] = 0
        else:
            final = "degraded" if index in engines else category
            raise ShardExecutionError(
                index, total_attempts[index], final, f"{type(exc).__name__}: {exc}"
            ) from exc
        _attempt(index)

    try:
        for index, submit in tasks:
            record = load(index) if load is not None else None
            if record is not None:
                results[index] = record
            else:
                submits[index] = submit
                _attempt(index)
        while pending:
            timeout = None
            if deadlines:
                timeout = max(0.0, min(deadlines.values()) - time.monotonic())
            done, _ = wait(set(pending), timeout=timeout, return_when=FIRST_COMPLETED)
            rebuilt = False
            for future in done:
                index = pending.pop(future)
                deadlines.pop(future, None)
                exc = future.exception()
                if exc is None:
                    record = future.result()
                    _save(index, record)
                    results[index] = record
                elif isinstance(exc, BrokenExecutor):
                    # One breakage kills every in-flight future; rebuild the
                    # pool once per wave, then retry each shard on it.
                    if not rebuilt:
                        rebuilt = True
                        stats.rebuilds += 1
                        if rebuild is not None:
                            rebuild()
                    _fail(index, exc, "crash")
                elif isinstance(exc, CampaignError) or not isinstance(exc, Exception):
                    raise exc
                else:
                    _fail(index, exc, "crash")
            if not done:
                now = time.monotonic()
                for future in [f for f, d in deadlines.items() if d <= now]:
                    index = pending.pop(future)
                    del deadlines[future]
                    future.cancel()
                    _fail(
                        index,
                        TimeoutError(f"no result within shard_timeout={policy.timeout}s"),
                        "timeout",
                    )
    except BaseException:
        for future, index in pending.items():
            if future.done() and not future.cancelled() and future.exception() is None:
                _save(index, future.result())
        raise
    return [results[index] for index in sorted(results)]


class ShardedCampaign(Campaign):
    """Fault-sharded, multi-process form of :class:`~repro.campaign.Campaign`.

    ``shards`` defaults to the spec's ``shards`` field; ``max_workers``
    defaults to ``min(shards, cpu_count)``, and ``max_workers=0`` selects
    :class:`InlineExecutor` (no processes -- same pipeline, deterministic,
    handy for tests and one-CPU machines).  Pass *pool* to run the shards on
    an external executor (an inline or fault-injecting one, or a pool shared
    across campaigns); it is not shut down here.

    ``checkpoint_dir`` enables crash-safe shard checkpointing through a
    :class:`~repro.service.checkpoint.CheckpointStore`: every completed
    shard task is persisted (atomically) as its result arrives, and a rerun
    pointed at the same directory loads the completed shards instead of
    recomputing them -- the deterministic universe-order merge makes the
    resumed result bit-identical to an uninterrupted run.  With ``resume``
    (the default) existing checkpoints are reused after validating the
    campaign fingerprint; ``resume=False`` clears them first.  After
    :meth:`run`, :attr:`checkpoint_summary` reports how many shard records
    each round loaded from disk vs computed.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        *,
        shards: Optional[int] = None,
        max_workers: Optional[int] = None,
        pool: Optional[Executor] = None,
        checkpoint_dir: str | os.PathLike | None = None,
        resume: bool = True,
    ):
        super().__init__(spec)
        self.shards = spec.shards if shards is None else shards
        check_count("shards", self.shards, 1)
        self.max_workers = max_workers
        self.pool = pool
        self.checkpoint_dir = checkpoint_dir
        self.resume = resume
        #: Filled by :meth:`run` when checkpointing is on (see
        #: :meth:`repro.service.checkpoint.CheckpointStore.summary`).
        self.checkpoint_summary: Optional[dict] = None
        #: Filled by :meth:`run`: the fault-tolerance counters of the run
        #: (:meth:`RoundStats.as_dict` -- retries, crashes, timeouts, pool
        #: rebuilds, degraded shards).  All zero on a clean run.
        self.fault_tolerance: Optional[dict] = None

    def _rounds(self, circuit: LogicCircuit) -> "_ShardRounds":
        return _ShardRounds(self, circuit)


class _ShardRounds(AbstractContextManager):
    """The rounds of :class:`ShardedCampaign`: one worker task per shard.

    Opening builds the circuit analysis when ATPG or the prover may use it
    (it is pickled with the circuit, so no shard task relearns it), prepares
    the checkpoint store and draws the run token; round 1 picks the
    executor.  Closing records the checkpoint summary and fault-tolerance
    counters on the campaign, shuts an owned pool down, and evicts the
    run's compiled circuits from this process, where inline executors
    compile them.
    """

    def __init__(self, campaign: ShardedCampaign, circuit: LogicCircuit):
        spec = campaign.spec
        self.campaign, self.circuit = campaign, circuit
        self.store = None
        #: Worker count of a pool this run owns (shuts down, rebuilds).
        self.pool_workers: Optional[int] = None
        self.policy = RetryPolicy.for_spec(spec)
        self.stats = RoundStats()
        #: Engine-degradation provenance, set on close when a shard fell back.
        self.degraded: Optional[dict] = None
        if spec.run_atpg or spec.static_phase:
            circuit_analysis(circuit).build()
        if campaign.checkpoint_dir is not None:
            # Imported lazily: the service layer sits on top of this package.
            from ..service.checkpoint import CheckpointStore
            from ..service.fingerprint import campaign_fingerprint

            self.store = CheckpointStore(campaign.checkpoint_dir)
            self.store.prepare(
                campaign_fingerprint(circuit, spec), campaign.shards, resume=campaign.resume
            )
        self.token = _new_token()

    def __exit__(self, *exc_info) -> None:
        if self.store is not None:
            self.campaign.checkpoint_summary = self.store.summary()
        self.campaign.fault_tolerance = self.stats.as_dict()
        if self.pool_workers is not None:
            self.executor.shutdown()
        for key in [key for key in _WORKER_COMPILED if key[0] == self.token]:
            del _WORKER_COMPILED[key]
        if self.stats.degraded:
            # Operational provenance only: the fallback engines are
            # bit-identical, so the result payload itself is unchanged.
            self.degraded = {
                "engine": self.campaign.spec.engine,
                "fallbacks": {str(i): eng for i, eng in sorted(self.stats.degraded.items())},
            }

    def _rebuild(self) -> None:
        # Replace a broken owned pool.  External/inline executors are left
        # alone -- retries go back to the same (possibly chaos-wrapped)
        # executor.
        if self.pool_workers is None:
            return
        broken = self.executor
        self.executor = worker_pool(self.pool_workers)
        broken.shutdown(wait=False, cancel_futures=True)

    def _collect(self, submits: list, load: Callable, save: Callable) -> list:
        """One round of per-shard *submits* through :func:`_collect_round`."""
        if self.store is None:
            load = save = None
        return _collect_round(
            list(enumerate(submits)), load, save,
            policy=self.policy, stats=self.stats, rebuild=self._rebuild,
        )

    # The submit thunks read self.executor late, so retries after a rebuild
    # land on the replacement pool; their *engine* is a degradation fallback.
    def round1(self, faults: FaultList, tests: Optional[list]) -> list[Round1Record]:
        campaign, spec, store = self.campaign, self.campaign.spec, self.store
        shards = [s for s in partition_faults(faults, campaign.shards) if s]
        # An external pool, an inline executor, or a process pool of our own.
        if campaign.pool is not None:
            self.executor = campaign.pool
        elif campaign.max_workers == 0:
            self.executor = InlineExecutor()
        else:
            workers = campaign.max_workers or max(1, min(len(shards), os.cpu_count() or 1))
            self.executor = worker_pool(workers)
            self.pool_workers = workers
        num_tests = len(tests) if tests is not None else None
        return self._collect(
            [
                lambda engine=None, shard=shard, index=index: self.executor.submit(
                    _shard_pattern_and_generate, self.token, self.circuit, spec,
                    engine or spec.engine, tests, shard, index,
                )
                for index, shard in enumerate(shards)
            ],
            load=lambda index: store.load_round1(index, shards[index], num_tests),
            save=lambda index, record: store.store_round1(index, shards[index], record),
        )

    def round2(self, faults: FaultList, tests: list) -> list:
        campaign, spec, store = self.campaign, self.campaign.spec, self.store
        shards = [s for s in partition_faults(faults, campaign.shards) if s]
        return self._collect(
            [
                lambda engine=None, shard=shard, index=index: self.executor.submit(
                    _shard_resimulate, self.token, self.circuit, campaign.model.name,
                    engine or spec.engine, spec.word_bits, tests, shard,
                    spec.drop_detected, index,
                )
                for index, shard in enumerate(shards)
            ],
            load=lambda index: store.load_round2(index, shards[index], len(tests)),
            save=lambda index, record: store.store_round2(index, shards[index], record),
        )


def run_sharded_campaign(
    spec: Optional[CampaignSpec] = None,
    *,
    shards: Optional[int] = None,
    max_workers: Optional[int] = None,
    **spec_kwargs,
) -> CampaignResult:
    """One-call convenience: build a spec (or take one) and run it sharded.

    The spec names the circuit.  The fault universe is partitioned into
    *shards* (default: the spec's ``shards`` field) and the campaign runs
    across worker processes; the result is bit-identical to the
    single-process :func:`~repro.campaign.run_campaign`.  Pools, checkpoints
    and resumes are :class:`ShardedCampaign`'s.
    """
    if spec is not None and spec_kwargs:
        raise CampaignError("pass either a CampaignSpec or keyword fields, not both")
    executor = ShardedCampaign(
        spec or CampaignSpec(**spec_kwargs), shards=shards, max_workers=max_workers
    )
    return executor.run()
