"""Content-addressed campaign result cache.

Campaign results are pure functions of (circuit structure + name, spec,
code schema version) -- see :mod:`repro.service.fingerprint` -- so a
repeated request can be answered from disk without touching an engine.
:class:`ResultCache` stores each :class:`~repro.campaign.runner.
CampaignResult` as one record (:mod:`repro.service.records`) named by its
campaign fingerprint, with the key, the schema versions and the inventory
fields in the record header.

Writes are atomic (:mod:`repro.ioutil`) and reads validate the checksum,
the embedded key and the schema versions, so a cache directory can be
shared by many worker processes: the worst concurrent-access outcome is a
redundant recompute, never a corrupt or wrong result, and never code run
from the shared directory.  Hit/miss/store counters are per-instance.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Optional

from ..campaign.runner import CampaignResult, CampaignSpec, resolve_campaign_circuit
from ..ioutil import atomic_write_text
from ..logic.netlist import LogicCircuit
from .faultinject import inject
from .fingerprint import SCHEMA_VERSION, campaign_fingerprint
from .records import decode, encode, encode_record, parse_record, quarantine

#: Cache entry file-format version.  Version 2 replaces the pickle and its
#: JSON sidecar with one checksummed record per entry; version 3 stores test
#: patterns under the codec's compact ``"bits"`` tag.  An entry of any other
#: version is a plain miss.
CACHE_SCHEMA = "repro/campaign-cache/3"


@dataclass
class CacheStats:
    """Per-instance counters of one :class:`ResultCache`."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalidations: int = 0
    #: Damaged entries (torn or corrupt record, mismatched key, a type off
    #: the records allow-list) moved aside on read; each also counts as a miss.
    quarantined: int = 0
    #: Transient I/O failures tolerated (read -> miss, write -> dropped).
    io_errors: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {**asdict(self), "hit_rate": self.hit_rate}


@dataclass
class ResultCache:
    """Campaign result records keyed by campaign fingerprint.

    ``schema_version`` defaults to the code's
    :data:`~repro.service.fingerprint.SCHEMA_VERSION`; entries written
    under any other version never hit (the version is part of the key *and*
    revalidated on read), which is the explicit invalidation story for code
    changes -- bump the constant and every stale entry goes cold at once.
    """

    directory: str | os.PathLike
    schema_version: int = SCHEMA_VERSION
    stats: CacheStats = field(default_factory=CacheStats, init=False)

    def __post_init__(self) -> None:
        self.directory = Path(self.directory)

    # ------------------------------------------------------------------ #
    # Keys and paths.
    # ------------------------------------------------------------------ #
    def key_for(self, circuit: LogicCircuit | str | None, spec: CampaignSpec) -> str:
        """The cache key of (*circuit*, *spec*) under this schema version.

        *circuit* accepts everything :meth:`Campaign.run` does (a live
        netlist, a reference string, or None to use ``spec.circuit``).
        """
        resolved = resolve_campaign_circuit(circuit, spec)
        return campaign_fingerprint(resolved, spec, schema_version=self.schema_version)

    def _entry_path(self, key: str) -> Path:
        return Path(self.directory) / f"{key}.json"

    # ------------------------------------------------------------------ #
    # Read / write.
    # ------------------------------------------------------------------ #
    def get(self, key: str) -> Optional[CampaignResult]:
        """The cached result for *key*, or None (counted as hit/miss).

        Never raises for a bad entry: a transient read failure is a miss; a
        torn record, a mismatched key or a body that does not decode to a
        :class:`CampaignResult` is quarantined and a miss.  Entries of
        another cache schema or ``schema_version`` are a plain miss and stay
        on disk: they are valid for the code that wrote them.
        """
        path = self._entry_path(key)
        try:
            inject("cache.read", path=path)
            data = path.read_bytes()
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except OSError:
            self.stats.io_errors += 1
            self.stats.misses += 1
            return None
        try:
            record = parse_record(data.decode("utf-8"))
            if (
                record.get("schema") != CACHE_SCHEMA
                or record.get("schema_version") != self.schema_version
            ):
                self.stats.misses += 1
                return None
            result = decode(record["result"]) if record.get("key") == key else None
        except Exception:  # a torn record or a body that does not decode is damage
            result = None
        if not isinstance(result, CampaignResult):
            try:
                quarantine(path)
                self.stats.quarantined += 1
            except OSError:
                self.stats.io_errors += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return result

    def fetch(
        self, circuit: LogicCircuit | str | None, spec: CampaignSpec
    ) -> tuple[str, Optional[CampaignResult]]:
        """Key plus cached result (or None) for one campaign request."""
        key = self.key_for(circuit, spec)
        return key, self.get(key)

    def put(self, key: str, result: CampaignResult) -> Path:
        """Store *result* under *key* (best effort); returns the entry path.

        A transient write failure drops the store -- counted in
        ``stats.io_errors`` -- rather than failing the campaign that
        produced the (already complete) result.
        """
        path = self._entry_path(key)
        header = {
            "schema": CACHE_SCHEMA,
            "schema_version": self.schema_version,
            "key": key,
            "model": result.model_name,
            "circuit": result.circuit_name,
            "spec_circuit": result.spec.circuit,
            "engine": result.spec.engine,
            "seed": result.spec.seed,
            "faults": len(result.faults),
            "num_tests": result.merged_report.num_tests,
        }
        try:
            atomic_write_text(path, encode_record({**header, "result": encode(result)}))
            inject("cache.write", path=path)
        except OSError:
            self.stats.io_errors += 1
            return path
        self.stats.stores += 1
        return path

    # ------------------------------------------------------------------ #
    # Clearing and reporting.
    # ------------------------------------------------------------------ #
    def _entry_files(self) -> list[Path]:
        directory = Path(self.directory)
        return sorted(directory.glob("*.json")) if directory.is_dir() else []

    def clear(self) -> int:
        """Drop every entry; returns how many results were removed."""
        paths = self._entry_files()
        for path in paths:
            path.unlink(missing_ok=True)
        self.stats.invalidations += len(paths)
        return len(paths)

    def entries(self) -> list[dict[str, Any]]:
        """Header fields plus file size of every stored entry."""
        found = []
        for path in self._entry_files():
            try:
                record = parse_record(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                record = {"key": path.stem}
            record.pop("result", None)
            found.append({**record, "bytes": path.stat().st_size})
        return found

    def report(self) -> dict[str, Any]:
        """Cache-stats report: counters plus the stored-entry inventory."""
        entries = self.entries()
        return {
            "schema": CACHE_SCHEMA,
            "schema_version": self.schema_version,
            "directory": str(self.directory),
            "entries": len(entries),
            "bytes": sum(e.get("bytes", 0) for e in entries),
            "stats": self.stats.as_dict(),
            "inventory": entries,
        }
