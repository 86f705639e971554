"""Asynchronous campaign service: submit / status / result / cancel.

:class:`CampaignService` puts a job queue in front of the campaign
pipeline so many clients can share one worker pool:

* **FIFO-fair scheduling** -- each client gets its own FIFO queue and a
  round-robin dispatcher interleaves clients, so one client submitting a
  thousand jobs cannot starve another's single request.
* **Crash isolation** -- jobs run in pool processes behind a wrapper that
  traps every Python exception into a structured :class:`JobError` (type,
  message, full traceback); a worker process that dies outright (OOM
  killer, segfault) fails only its job, and the service transparently
  rebuilds the broken pool for the jobs behind it.
* **Result cache** -- with ``cache_dir`` every job consults the
  content-addressed :class:`~repro.service.cache.ResultCache` (checksummed
  records, decoded through an allow-list -- never pickles) before doing
  any engine work, so repeated identical requests are served from disk.
* **Checkpoints** -- with ``checkpoint_root`` each job shard-checkpoints
  under a directory derived from its campaign fingerprint, so resubmitting
  a job that previously crashed resumes from its completed shards.

The synchronous entry points (:meth:`~CampaignService.result`,
:meth:`~CampaignService.wait_all`) block on per-job events; everything
else returns immediately.  ``python -m repro.service.cli`` drives a
service from a directory of JSON job specs;
:class:`~repro.campaign.suite.CampaignSuite` runs its batteries on one.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
import traceback
from collections import Counter, deque
from concurrent.futures import Executor, Future
from dataclasses import asdict, dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any, Optional

from ..campaign.errors import CampaignError
from ..campaign.runner import (
    Campaign,
    CampaignResult,
    CampaignSpec,
    resolve_campaign_circuit,
)
from ..campaign.sharded import InlineExecutor, ShardedCampaign, worker_pool
from .cache import ResultCache
from .faultinject import inject
from .fingerprint import campaign_fingerprint


class JobStatus(str, Enum):
    """Lifecycle of one submitted campaign job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


#: JobError categories that a retry can plausibly fix: infrastructure
#: failures (dead worker, broken pool) and deadline overruns.  Everything
#: else -- deterministic spec errors, corruption beyond quarantine, a
#: degraded run that still failed -- fails the job immediately.
RETRYABLE_CATEGORIES = frozenset({"crash", "timeout"})


@dataclass(frozen=True)
class JobError:
    """Structured failure record of one job (never takes down the service).

    ``category`` is the service failure taxonomy: ``crash`` (worker died or
    raised an infrastructure error), ``timeout`` (watchdog or shard
    deadline), ``corruption`` (artifact damaged beyond quarantine),
    ``degraded`` (the engine-fallback attempt also failed) or ``error``
    (deterministic campaign/spec failure).  Exceptions advertise their own
    category via a ``category`` attribute (see
    :mod:`repro.campaign.errors`); anything else is an ``error``.
    """

    type: str
    message: str
    traceback: Optional[str] = None
    category: str = "error"

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)

    def __str__(self) -> str:
        return f"{self.type}: {self.message}"


class JobFailedError(CampaignError):
    """Raised by :meth:`CampaignService.result` for failed/cancelled jobs."""

    def __init__(self, job_id: str, status: JobStatus, error: Optional[JobError]):
        detail = f" ({error})" if error else ""
        super().__init__(f"job {job_id} {status.value}{detail}")
        self.job_id = job_id
        self.status = status
        self.error = error


@dataclass
class Job:
    """One submitted campaign and everything known about it."""

    id: str
    client: str
    spec: CampaignSpec
    status: JobStatus = JobStatus.QUEUED
    result: Optional[CampaignResult] = None
    error: Optional[JobError] = None
    cache_hit: bool = False
    #: Dispatch sequence number (order the dispatcher started the job),
    #: None while queued/cancelled.  Tests of scheduling fairness read this.
    started_seq: Optional[int] = None
    #: Times this job has been dispatched (> 1 after crash/timeout requeues);
    #: doubles as the attempt generation that lets the service ignore a
    #: completion from a superseded attempt.
    attempts: int = 0
    #: ``time.monotonic()`` of the latest dispatch; the watchdog compares it
    #: against the service's ``job_timeout``.  None while queued.
    started_at: Optional[float] = None
    #: Engine-degradation provenance copied from the result (None normally).
    degraded: Optional[dict[str, Any]] = None
    #: Seconds the latest attempt spent in the job body (0.0 when its
    #: worker died before reporting).
    runtime: float = 0.0
    _event: threading.Event = field(default_factory=threading.Event, init=False, repr=False)

    def info(self) -> dict[str, Any]:
        """JSON-able status snapshot (no result payload)."""
        return {
            "id": self.id,
            "client": self.client,
            "circuit": self.spec.circuit,
            "model": self.spec.model,
            "status": self.status.value,
            "cache_hit": self.cache_hit,
            "attempts": self.attempts,
            "degraded": self.degraded,
            "error": self.error.as_dict() if self.error else None,
        }


def _execute_job(
    spec: CampaignSpec,
    cache_dir: Optional[str],
    checkpoint_root: Optional[str],
) -> dict[str, Any]:
    """Worker-side job body: cache lookup, run, cache store -- all trapped.

    Runs inside a pool process; returns a plain dict so every outcome
    (including the failure path) pickles back to the parent, with the
    seconds the body took.  Sharded specs run their shard pipeline inline
    -- nested process pools are never created -- and the checkpoint
    directory is derived from the campaign fingerprint, so a resubmitted
    job resumes the shards a crashed predecessor completed.
    """
    start = time.perf_counter()
    try:
        # Tagged by circuit reference, not call count: the hook stays
        # deterministic across pool rebuilds and worker process reuse.
        inject("job.run", tag=spec.circuit)
        cache = ResultCache(cache_dir) if cache_dir else None
        key, result = cache.fetch(None, spec) if cache is not None else (None, None)
        payload = {"ok": True, "result": result, "cache_hit": result is not None}
        if result is None:
            checkpoint_dir = None
            if checkpoint_root is not None:
                circuit = resolve_campaign_circuit(None, spec)
                fingerprint = campaign_fingerprint(circuit, spec)
                checkpoint_dir = str(Path(checkpoint_root) / fingerprint[:24])
            if checkpoint_dir is not None or spec.shards > 1:
                sharded = ShardedCampaign(
                    spec, pool=InlineExecutor(), checkpoint_dir=checkpoint_dir
                )
                result = sharded.run()
            else:
                result = Campaign(spec).run()
            if cache is not None:
                cache.put(key, result)
            payload.update(result=result, degraded=result.degraded)
    except Exception as exc:
        payload = {
            "ok": False,
            "error": {
                "type": type(exc).__name__,
                "message": str(exc),
                "traceback": traceback.format_exc(),
                "category": str(getattr(exc, "category", "error")),
            },
        }
    payload["seconds"] = time.perf_counter() - start
    return payload


class CampaignService:
    """An async job front-end over one shared campaign worker pool.

    ``max_workers`` bounds concurrent jobs (default: CPU count);
    ``max_workers=0`` runs jobs inline in the dispatcher thread through
    :class:`~repro.campaign.sharded.InlineExecutor` -- deterministic and
    process-free, the right mode for tests.  With ``autostart=False`` the
    dispatcher stays parked until :meth:`start`, letting callers stage a
    burst of submissions that is then scheduled strictly fairly.

    The service is a context manager; leaving the ``with`` block cancels
    the jobs still queued (:meth:`close`).

    **Failure handling.**  Worker failures come back as structured
    :class:`JobError`\\ s with a taxonomy category; jobs failing with a
    retryable category (``crash``/``timeout``) are requeued up to
    ``max_job_retries`` times before failing for good.  With ``job_timeout``
    set, a watchdog thread marks any job running past the deadline as timed
    out -- requeueing or failing it, and flagging the pool for rebuild so a
    genuinely stuck worker cannot absorb a slot forever; a late completion
    from the superseded attempt is ignored.
    """

    def __init__(
        self,
        *,
        max_workers: Optional[int] = None,
        cache_dir: str | os.PathLike | None = None,
        checkpoint_root: str | os.PathLike | None = None,
        autostart: bool = True,
        job_timeout: Optional[float] = None,
        max_job_retries: int = 0,
    ):
        if job_timeout is not None and job_timeout <= 0:
            raise CampaignError(f"job_timeout must be positive or None, got {job_timeout}")
        if max_job_retries < 0:
            raise CampaignError(f"max_job_retries must be >= 0, got {max_job_retries}")
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.checkpoint_root = str(checkpoint_root) if checkpoint_root is not None else None
        self.job_timeout = job_timeout
        self.max_job_retries = max_job_retries
        self._inline = max_workers == 0
        self._slots = 1 if self._inline else (max_workers or os.cpu_count() or 1)
        self._executor: Executor = (
            InlineExecutor() if self._inline else worker_pool(self._slots)
        )
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._jobs: dict[str, Job] = {}
        self._queues: dict[str, deque[str]] = {}
        self._clients: deque[str] = deque()
        self._in_flight: set[str] = set()
        self._ids = itertools.count(1)
        self._dispatch_seq = itertools.count(1)
        self._pool_broken = False
        self._rebuilds = 0
        self._retries = 0
        self._closed = False
        self._started = False
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="campaign-service-dispatch", daemon=True
        )
        self._dispatcher.start()
        self._watchdog: Optional[threading.Thread] = None
        if job_timeout is not None:
            self._watchdog_interval = max(0.02, min(1.0, job_timeout / 4))
            self._watchdog = threading.Thread(
                target=self._watchdog_loop, name="campaign-service-watchdog", daemon=True
            )
            self._watchdog.start()
        if autostart:
            self.start()

    # ------------------------------------------------------------------ #
    # Client API.
    # ------------------------------------------------------------------ #
    def submit(self, spec: CampaignSpec, client: str = "default") -> str:
        """Enqueue one campaign; returns the job id immediately.

        The spec must name its circuit (``CampaignSpec.circuit``), exactly
        as in :class:`~repro.campaign.suite.CampaignSuite`.
        """
        spec.validate()
        if spec.circuit is None:
            raise CampaignError(
                "service jobs need CampaignSpec.circuit set to a registered "
                "name, family:args reference or .bench path"
            )
        with self._wake:
            if self._closed:
                raise CampaignError("campaign service is closed")
            job = Job(id=f"job-{next(self._ids):04d}", client=client, spec=spec)
            self._jobs[job.id] = job
            if client not in self._queues:
                self._queues[client] = deque()
                self._clients.append(client)
            self._queues[client].append(job.id)
            self._wake.notify_all()
            return job.id

    def start(self) -> None:
        """Release the dispatcher (no-op when already started)."""
        with self._wake:
            self._started = True
            self._wake.notify_all()

    def job(self, job_id: str) -> Job:
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise CampaignError(f"unknown job id {job_id!r}") from None

    def status(self, job_id: str) -> JobStatus:
        return self.job(job_id).status

    def result(self, job_id: str, timeout: Optional[float] = None) -> CampaignResult:
        """Block until *job_id* finishes; the result or a raised failure.

        Raises :class:`JobFailedError` for failed/cancelled jobs and
        :class:`TimeoutError` when *timeout* elapses first.
        """
        job = self.job(job_id)
        if not job._event.wait(timeout):
            raise TimeoutError(f"job {job_id} still {job.status.value} after {timeout} s")
        if job.status is not JobStatus.DONE:
            raise JobFailedError(job_id, job.status, job.error)
        assert job.result is not None
        return job.result

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued job; running/finished jobs are not interrupted."""
        with self._wake:
            job = self._jobs.get(job_id)
            if job is None:
                raise CampaignError(f"unknown job id {job_id!r}")
            if job.status is not JobStatus.QUEUED:
                return False
            self._queues[job.client].remove(job_id)
            job.status = JobStatus.CANCELLED
            job._event.set()
            self._wake.notify_all()
            return True

    def wait_all(self, timeout: Optional[float] = None) -> list[Job]:
        """Block until every submitted job is terminal; returns them all."""
        with self._lock:
            jobs = list(self._jobs.values())
        for job in jobs:
            remaining = timeout  # per-job cap; total bound = timeout * jobs
            if not job._event.wait(remaining):
                raise TimeoutError(f"job {job.id} still {job.status.value}")
        return jobs

    def report(self) -> dict[str, Any]:
        """Service snapshot: job tallies per status/error-category plus
        cache statistics and fault-tolerance counters."""
        with self._lock:
            jobs = list(self._jobs.values())
            retries, rebuilds = self._retries, self._rebuilds
        tally = Counter(job.status.value for job in jobs)
        errors = Counter(job.error.category for job in jobs if job.error is not None)
        payload: dict[str, Any] = {
            "schema": "repro/campaign-service/2",
            "jobs": len(jobs),
            "by_status": dict(sorted(tally.items())),
            "by_error_category": dict(sorted(errors.items())),
            "cache_hits": sum(1 for job in jobs if job.cache_hit),
            "retries": retries,
            "pool_rebuilds": rebuilds,
            "degraded_jobs": sum(1 for job in jobs if job.degraded),
        }
        if self.cache_dir is not None:
            payload["cache"] = ResultCache(self.cache_dir).report()
        return payload

    def close(self) -> None:
        """Stop accepting jobs, cancel the queued ones and shut down."""
        with self._wake:
            for queue in self._queues.values():
                while queue:
                    job = self._jobs[queue.popleft()]
                    job.status = JobStatus.CANCELLED
                    job._event.set()
            self._closed = True
            self._started = True
            self._wake.notify_all()
        self._dispatcher.join()
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "CampaignService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Dispatcher internals.
    # ------------------------------------------------------------------ #
    def _has_pending(self) -> bool:
        return any(self._queues.values())

    def _next_job_id(self) -> str:
        """Round-robin across clients: serve the head client, rotate it back."""
        while self._clients:
            client = self._clients[0]
            queue = self._queues[client]
            if not queue:
                self._clients.popleft()
                continue
            job_id = queue.popleft()
            self._clients.rotate(-1)
            return job_id
        raise AssertionError("called with no pending jobs")  # pragma: no cover

    def _dispatch_loop(self) -> None:
        while True:
            with self._wake:
                while not self._closed and not (
                    self._started
                    and self._has_pending()
                    and len(self._in_flight) < self._slots
                ):
                    self._wake.wait()
                if self._closed and not self._has_pending():
                    return
                if self._closed:
                    # Draining close: keep scheduling the remaining queue.
                    if len(self._in_flight) >= self._slots:
                        self._wake.wait()
                        continue
                job_id = self._next_job_id()
                job = self._jobs[job_id]
                job.status = JobStatus.RUNNING
                job.started_seq = next(self._dispatch_seq)
                job.attempts += 1
                job.started_at = time.monotonic()
                attempt = job.attempts
                self._in_flight.add(job_id)
                if self._pool_broken:
                    old = self._executor
                    self._executor = worker_pool(self._slots)
                    self._pool_broken = False
                    self._rebuilds += 1
                    # Reap the broken pool without blocking dispatch; any
                    # still-running (stuck) tasks are abandoned with it.
                    old.shutdown(wait=False, cancel_futures=True)
            try:
                future = self._executor.submit(
                    _execute_job,
                    job.spec,
                    self.cache_dir,
                    self.checkpoint_root,
                )
            except Exception as exc:
                self._finish_with_error(job_id, attempt, exc)
                continue
            future.add_done_callback(
                lambda fut, job_id=job_id, attempt=attempt: self._on_job_done(
                    job_id, attempt, fut
                )
            )

    def _requeue_or_fail(self, job: Job, error: JobError) -> None:
        """Failure disposition for one attempt; caller holds the lock.

        Retryable categories (``crash``/``timeout``) are requeued at the
        front of their client's queue while the attempt budget lasts;
        everything else -- and a closing service -- fails the job with its
        structured error.
        """
        self._in_flight.discard(job.id)
        job.started_at = None
        retryable = error.category in RETRYABLE_CATEGORIES
        if retryable and job.attempts <= self.max_job_retries and not self._closed:
            self._retries += 1
            job.status = JobStatus.QUEUED
            job.started_seq = None
            self._queues[job.client].appendleft(job.id)
            if job.client not in self._clients:
                self._clients.append(job.client)
        else:
            job.status = JobStatus.FAILED
            job.error = error
            job._event.set()
        self._wake.notify_all()

    def _finish_with_error(self, job_id: str, attempt: int, exc: BaseException) -> None:
        """An attempt died outside the worker wrapper (pool-level failure)."""
        with self._wake:
            job = self._jobs[job_id]
            if job.status is not JobStatus.RUNNING or job.attempts != attempt:
                return  # superseded attempt (watchdog already ruled)
            self._pool_broken = not self._inline
            category = str(getattr(exc, "category", "crash"))
            self._requeue_or_fail(
                job, JobError(type(exc).__name__, str(exc), category=category)
            )

    def _on_job_done(self, job_id: str, attempt: int, future: Future) -> None:
        try:
            payload = future.result()
        except BaseException as exc:
            # The worker process died without returning (BrokenProcessPool,
            # unpicklable result, ...): fail or requeue this job, rebuild
            # the pool for the next one.
            self._finish_with_error(job_id, attempt, exc)
            return
        with self._wake:
            job = self._jobs[job_id]
            if job.status is not JobStatus.RUNNING or job.attempts != attempt:
                # A watchdog-superseded attempt finishing late: its requeued
                # successor (or terminal ruling) already owns the job.
                return
            job.runtime = payload["seconds"]
            if payload["ok"]:
                self._in_flight.discard(job_id)
                job.status = JobStatus.DONE
                job.result = payload["result"]
                job.cache_hit = payload["cache_hit"]
                job.degraded = payload.get("degraded")
                job.started_at = None
                job._event.set()
            else:
                self._requeue_or_fail(job, JobError(**payload["error"]))
            self._wake.notify_all()

    def _watchdog_loop(self) -> None:
        """Fail or requeue jobs stuck past ``job_timeout``; rebuild the pool."""
        while True:
            with self._wake:
                if self._closed and not self._in_flight:
                    return
                now = time.monotonic()
                for job_id in sorted(self._in_flight):
                    job = self._jobs[job_id]
                    if (
                        job.status is JobStatus.RUNNING
                        and job.started_at is not None
                        and now - job.started_at > self.job_timeout
                    ):
                        # Invalidate the attempt first so the stuck future's
                        # eventual completion is ignored, then abandon the
                        # pool it is wedged in.
                        self._pool_broken = not self._inline
                        self._requeue_or_fail(
                            job,
                            JobError(
                                "TimeoutError",
                                f"job ran longer than job_timeout={self.job_timeout}s",
                                category="timeout",
                            ),
                        )
            time.sleep(self._watchdog_interval)
