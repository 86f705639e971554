"""Deterministic, seeded fault injection for the campaign service stack.

The serving layer (sharded executor, checkpoint store, result cache, async
job service) promises that any campaign which completes under infrastructure
failures is **bit-identical** to its fault-free run, and that any campaign
which cannot complete fails with a structured, attributable error -- never a
silent wrong result.  This module provides the machinery to *prove* that:

* :class:`Injection` -- one fault to inject: a *site* (a named hook point in
  the production code, e.g. ``"worker.round1"`` or ``"cache.write"``), a
  *kind* (``crash`` / ``hang`` / ``torn`` / ``corrupt`` / ``io_error`` /
  ``broken_pool`` / ``exit``) and selectors (shard index, call number, tag)
  that pin the fault to one deterministic point in the run.
* :class:`InjectionPlan` -- a seeded, JSON-serializable composition of
  injections; :func:`seeded_matrix` builds the standard
  crash/hang/corrupt x checkpoint/cache/pool chaos matrix from a seed.
* :class:`FaultInjector` -- executes a plan.  Production code calls
  :func:`inject` at its hook sites; with no injector installed the call is
  a cheap no-op, so the hooks cost nothing in production paths.
* :class:`ChaosExecutor` -- an :class:`~concurrent.futures.Executor`
  wrapper that injects pool-level faults (broken pool at submit, tasks that
  hang past their deadline) without touching worker code.

Injectors are installed either in-process (:func:`install`, a context
manager -- the right tool for tests) or across process boundaries via the
``REPRO_FAULT_PLAN`` environment variable naming a plan JSON file, which
worker processes pick up lazily on their first :func:`inject` call.

Everything is deterministic: file corruption offsets/lengths come from the
plan's seeded RNG, triggers count calls per (site, selector), and the
injector records every fired fault so tests can assert exactly what chaos
actually happened.

This module deliberately imports nothing from the rest of the package so
the campaign layer can hook into it without import cycles.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from concurrent.futures import BrokenExecutor, Executor, Future
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Optional

#: Injection kinds understood by :meth:`FaultInjector.fire`.
KINDS = ("crash", "hang", "torn", "corrupt", "io_error", "broken_pool", "exit")

#: Hook sites threaded through the production code.  Sites are plain
#: strings so new subsystems can add hooks without touching this module;
#: this tuple documents the ones that exist today.
SITES = (
    "worker.round1",      # sharded round-1 worker (pattern sim + ATPG), per shard
    "worker.round2",      # sharded round-2 worker (merged re-simulation), per shard
    "checkpoint.write",   # after one shard checkpoint record is written
    "checkpoint.read",    # before one shard checkpoint record is read
    "cache.write",        # after one result-cache entry is written
    "cache.read",         # before one result-cache entry is read
    "pool.submit",        # executor submission (ChaosExecutor)
    "job.run",            # service job body, worker side
)


class InjectedFault(RuntimeError):
    """An exception raised on purpose by the fault-injection layer.

    Carries the site and kind so recovery code and tests can attribute the
    failure; categorized as a ``crash`` by the service error taxonomy.
    """

    category = "crash"

    def __init__(self, site: str, kind: str, detail: str = ""):
        suffix = f": {detail}" if detail else ""
        super().__init__(f"injected {kind} at {site}{suffix}")
        self.site = site
        self.kind = kind


@dataclass(frozen=True)
class Injection:
    """One fault to inject at *site* when every given selector matches.

    ``shard`` pins the fault to one shard index (sites that pass one),
    ``call`` to the nth matching call at the site (0-based, counted per
    process), and ``tag`` to a caller-supplied context string (e.g. the
    spec's circuit reference for job-level faults -- stable across worker
    process rebuilds, unlike call counters).  ``times`` bounds how often
    the injection fires (per process); ``seconds`` is the hang duration.
    """

    site: str
    kind: str
    shard: Optional[int] = None
    call: Optional[int] = None
    tag: Optional[str] = None
    times: int = 1
    seconds: float = 0.25

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown injection kind {self.kind!r}; expected one of {KINDS}")
        if self.times < 1:
            raise ValueError(f"injection times must be >= 1, got {self.times}")
        if self.seconds < 0:
            raise ValueError(f"injection seconds must be >= 0, got {self.seconds}")

    def matches(self, site: str, shard: Optional[int], call: int, tag: Optional[str]) -> bool:
        if site != self.site:
            return False
        if self.shard is not None and shard != self.shard:
            return False
        if self.call is not None and call != self.call:
            return False
        if self.tag is not None and tag != self.tag:
            return False
        return True

    def as_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {"site": self.site, "kind": self.kind}
        for key in ("shard", "call", "tag"):
            value = getattr(self, key)
            if value is not None:
                payload[key] = value
        if self.times != 1:
            payload["times"] = self.times
        if self.kind == "hang":
            payload["seconds"] = self.seconds
        return payload


@dataclass(frozen=True)
class InjectionPlan:
    """A seeded, serializable set of injections (one chaos scenario)."""

    injections: tuple[Injection, ...] = ()
    seed: int = 0
    name: str = ""

    def as_dict(self) -> dict[str, Any]:
        return {
            "schema": "repro/fault-plan/1",
            "name": self.name,
            "seed": self.seed,
            "injections": [inj.as_dict() for inj in self.injections],
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "InjectionPlan":
        if not isinstance(payload, dict) or not isinstance(payload.get("injections"), list):
            raise ValueError("fault plan must be an object with an 'injections' list")
        injections = tuple(
            Injection(**{k: v for k, v in entry.items()})
            for entry in payload["injections"]
        )
        return cls(
            injections=injections,
            seed=int(payload.get("seed", 0)),
            name=str(payload.get("name", "")),
        )

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "InjectionPlan":
        try:
            return cls.from_dict(json.loads(text))
        except (json.JSONDecodeError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed fault plan: {exc}") from None

    @classmethod
    def load(cls, path: str | os.PathLike) -> "InjectionPlan":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    def dump(self, path: str | os.PathLike) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n", encoding="utf-8")
        return path


@dataclass(frozen=True)
class FiredFault:
    """One injection that actually fired (recorded for test assertions)."""

    site: str
    kind: str
    shard: Optional[int]
    call: int
    path: Optional[str] = None


class FaultInjector:
    """Executes an :class:`InjectionPlan` at the production hook sites.

    Thread-safe: the dispatcher, watchdog and worker threads of one process
    may all hit the same injector.  Call counters and per-injection fire
    counts are per-instance (hence per-process when the plan travels via
    ``REPRO_FAULT_PLAN``), and the corruption RNG is seeded from the plan,
    so a given plan always corrupts the same bytes.
    """

    def __init__(self, plan: InjectionPlan):
        self.plan = plan
        self.fired: list[FiredFault] = []
        self._calls: dict[str, int] = {}
        self._fire_counts: dict[int, int] = {}
        self._rng = random.Random(plan.seed)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Matching.
    # ------------------------------------------------------------------ #
    def check(
        self,
        site: str,
        *,
        shard: Optional[int] = None,
        tag: Optional[str] = None,
        path: str | os.PathLike | None = None,
    ) -> list[Injection]:
        """Consume and record the injections matching this call (no action).

        :class:`ChaosExecutor` uses this to implement pool-level faults
        itself; :meth:`fire` layers the default actions on top.
        """
        with self._lock:
            call = self._calls.get(site, 0)
            self._calls[site] = call + 1
            matched = []
            for slot, injection in enumerate(self.plan.injections):
                if self._fire_counts.get(slot, 0) >= injection.times:
                    continue
                if injection.matches(site, shard, call, tag):
                    self._fire_counts[slot] = self._fire_counts.get(slot, 0) + 1
                    matched.append(injection)
                    self.fired.append(
                        FiredFault(
                            site=site, kind=injection.kind, shard=shard, call=call,
                            path=os.fspath(path) if path is not None else None,
                        )
                    )
            return matched

    # ------------------------------------------------------------------ #
    # Actions.
    # ------------------------------------------------------------------ #
    def _mutate_file(self, kind: str, path: str | os.PathLike) -> None:
        """Deterministically tear (truncate) or corrupt (scribble) *path*."""
        target = Path(path)
        try:
            data = target.read_bytes()
        except OSError:
            return
        if not data:
            return
        with self._lock:
            if kind == "torn":
                keep = self._rng.randrange(0, max(1, len(data) - 1)) if len(data) > 1 else 0
                target.write_bytes(data[:keep])
            else:  # corrupt: flip a seeded byte span in place
                offset = self._rng.randrange(0, len(data))
                span = min(len(data) - offset, 1 + self._rng.randrange(0, 16))
                scribble = bytes(self._rng.randrange(0, 256) for _ in range(span))
                target.write_bytes(data[:offset] + scribble + data[offset + span:])

    def fire(
        self,
        site: str,
        *,
        shard: Optional[int] = None,
        tag: Optional[str] = None,
        path: str | os.PathLike | None = None,
    ) -> None:
        """Run the default action of every injection matching this call.

        ``crash`` raises :class:`InjectedFault`; ``io_error`` raises
        :class:`OSError` (so production error handling exercises its real
        I/O-failure paths); ``hang`` sleeps; ``torn``/``corrupt`` mutate
        *path* in place; ``broken_pool`` raises
        :class:`~concurrent.futures.BrokenExecutor`; ``exit`` hard-kills
        the process (``os._exit``), simulating OOM-killer/segfault death.
        """
        for injection in self.check(site, shard=shard, tag=tag, path=path):
            kind = injection.kind
            if kind == "crash":
                raise InjectedFault(site, kind)
            if kind == "io_error":
                raise OSError(f"injected I/O error at {site}")
            if kind == "broken_pool":
                raise BrokenExecutor(f"injected broken pool at {site}")
            if kind == "hang":
                time.sleep(injection.seconds)
            elif kind == "exit":
                os._exit(13)
            elif kind in ("torn", "corrupt") and path is not None:
                self._mutate_file(kind, path)

    def summary(self) -> dict[str, Any]:
        """What actually fired, grouped for reports and assertions."""
        by_site: dict[str, int] = {}
        for fault in self.fired:
            by_site[f"{fault.site}:{fault.kind}"] = by_site.get(f"{fault.site}:{fault.kind}", 0) + 1
        return {"fired": len(self.fired), "by_site": dict(sorted(by_site.items()))}


# --------------------------------------------------------------------------- #
# Process-wide installation.
# --------------------------------------------------------------------------- #
#: Name of the environment variable pointing worker processes at a plan file.
PLAN_ENV = "REPRO_FAULT_PLAN"

_ACTIVE: Optional[FaultInjector] = None
#: Lazily loaded (path, injector) pair for the PLAN_ENV route; per-process.
_ENV_LOADED: tuple[Optional[str], Optional[FaultInjector]] = (None, None)
_ENV_LOCK = threading.Lock()


def active_injector() -> Optional[FaultInjector]:
    """The injector governing this process, or None (the production case).

    An in-process :func:`install` wins over the ``REPRO_FAULT_PLAN``
    environment route; the environment plan is parsed once per process and
    shared by every thread (counters included).
    """
    if _ACTIVE is not None:
        return _ACTIVE
    path = os.environ.get(PLAN_ENV)
    if not path:
        return None
    global _ENV_LOADED
    with _ENV_LOCK:
        loaded_path, injector = _ENV_LOADED
        if loaded_path != path:
            try:
                injector = FaultInjector(InjectionPlan.load(path))
            except (OSError, ValueError):
                injector = None
            _ENV_LOADED = (path, injector)
        return injector


def inject(
    site: str,
    *,
    shard: Optional[int] = None,
    tag: Optional[str] = None,
    path: str | os.PathLike | None = None,
) -> None:
    """Production hook: fire any active injections for *site*; else no-op."""
    injector = active_injector()
    if injector is not None:
        injector.fire(site, shard=shard, tag=tag, path=path)


@contextmanager
def install(plan: InjectionPlan | FaultInjector) -> Iterator[FaultInjector]:
    """Install *plan* for this process for the duration of the block."""
    global _ACTIVE
    injector = plan if isinstance(plan, FaultInjector) else FaultInjector(plan)
    previous = _ACTIVE
    _ACTIVE = injector
    try:
        yield injector
    finally:
        _ACTIVE = previous


# --------------------------------------------------------------------------- #
# Pool-level chaos.
# --------------------------------------------------------------------------- #
class ChaosExecutor(Executor):
    """Executor wrapper that injects pool-level faults at ``pool.submit``.

    ``broken_pool`` / ``crash`` raise :class:`BrokenExecutor` out of
    ``submit`` (a dead process pool), ``io_error`` raises :class:`OSError`,
    and ``hang`` swallows the task and returns a Future that never
    completes -- the deterministic stand-in for a worker stuck past its
    deadline.  Everything else passes straight through to the wrapped
    executor.
    """

    def __init__(self, inner: Executor, injector: Optional[FaultInjector] = None):
        self.inner = inner
        self.injector = injector
        #: Futures handed out for swallowed (hung) tasks.
        self.hung: list[Future] = []

    def submit(self, fn, /, *args, **kwargs) -> Future:
        injector = self.injector or active_injector()
        if injector is not None:
            for injection in injector.check("pool.submit"):
                if injection.kind in ("broken_pool", "crash"):
                    raise BrokenExecutor("injected broken pool at pool.submit")
                if injection.kind == "io_error":
                    raise OSError("injected I/O error at pool.submit")
                if injection.kind == "hang":
                    future: Future = Future()
                    self.hung.append(future)
                    return future
        return self.inner.submit(fn, *args, **kwargs)

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        self.inner.shutdown(wait=wait, cancel_futures=cancel_futures)


# --------------------------------------------------------------------------- #
# The standard chaos matrix.
# --------------------------------------------------------------------------- #
def seeded_matrix(seed: int = 0) -> list[InjectionPlan]:
    """The crash/hang/corrupt x checkpoint/cache/pool injection matrix.

    Nine seeded plans named ``<kind>-x-<target>`` (plus a tenth,
    ``crash-x-engine``, exercising the packed->serial degradation path).
    :mod:`repro.service.chaos` runs each against a hardened campaign and
    asserts the bit-identity-or-structured-error invariant; the per-plan
    seeds are derived from *seed* so two runs of the same matrix corrupt
    the same bytes.
    """
    rng = random.Random(seed)

    def plan(name: str, *injections: Injection) -> InjectionPlan:
        return InjectionPlan(injections=injections, seed=rng.randrange(2**31), name=name)

    return [
        plan("crash-x-checkpoint", Injection("worker.round1", "crash", shard=1)),
        plan("crash-x-cache", Injection("worker.round2", "crash", shard=0)),
        plan("crash-x-pool", Injection("pool.submit", "broken_pool", call=1)),
        plan("hang-x-checkpoint", Injection("pool.submit", "hang", call=2)),
        plan("hang-x-cache", Injection("pool.submit", "hang", call=1)),
        plan("hang-x-pool", Injection("pool.submit", "hang", call=0)),
        plan("corrupt-x-checkpoint",
             Injection("checkpoint.write", "torn", call=1),
             Injection("checkpoint.write", "corrupt", call=2)),
        plan("corrupt-x-cache", Injection("cache.write", "torn", call=0)),
        plan("corrupt-x-pool", Injection("pool.submit", "io_error", call=0, times=3)),
        plan("crash-x-engine", Injection("worker.round1", "crash", shard=0, times=2)),
    ]
