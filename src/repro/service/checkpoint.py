"""Per-campaign shard checkpoints: crash-safe persistence of shard reports.

:class:`CheckpointStore` gives :class:`~repro.campaign.sharded.
ShardedCampaign` a per-campaign directory where every completed shard task
is persisted the moment its result arrives in the parent -- round-1
(pattern simulation, survivor proofs, ATPG generation) and round-2
(merged-test re-simulation) records alike.  All writes are atomic
(:mod:`repro.ioutil`), so a campaign killed mid-run -- SIGKILL included --
leaves only complete shard files, and a resumed run loads them instead of
recomputing, recomputes only the missing shards, and merges in universe
order.  The deterministic-merge property of the sharded pipeline makes the
resumed :class:`~repro.campaign.runner.CampaignResult` bit-identical to an
uninterrupted run.

A checkpoint directory belongs to exactly one campaign: the manifest
records the :func:`~repro.service.fingerprint.campaign_fingerprint` (which
covers circuit structure and name, every spec field, and the code
:data:`~repro.service.fingerprint.SCHEMA_VERSION`) plus the effective shard
count.  Resuming against a mismatched manifest raises
:class:`~repro.campaign.errors.CampaignError` instead of silently mixing
incompatible shard files; per-shard records additionally carry a digest of
their fault keys as a defence in depth.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Iterable, Optional, Sequence

from ..campaign.errors import CampaignError, CorruptArtifactError
from ..campaign.runner import Round1Record
from ..faults.base import Fault
from ..ioutil import atomic_write_json, atomic_write_text
from .faultinject import inject
from .fingerprint import SCHEMA_VERSION
from .records import decode, encode, encode_record, parse_record, quarantine

#: Checkpoint file-format version (independent of the campaign
#: SCHEMA_VERSION, which governs *result* compatibility).  A manifest of any
#: other version is refused on resume, and ``resume=False`` clears it.
#: Version 6 stores every record field through the codec of
#: :mod:`repro.service.records` and drops v5's round-1 ``"proven"`` key;
#: version 7 stores test patterns under the codec's ``"bits"`` tag.
CHECKPOINT_SCHEMA = "repro/campaign-checkpoint/7"

MANIFEST_NAME = "manifest.json"


def _fault_keys_digest(faults: Sequence[Fault]) -> str:
    joined = "\n".join(f.key for f in faults)
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()


class CheckpointStore:
    """Atomic per-shard checkpoint files under one campaign directory.

    Layout::

        <directory>/manifest.json     campaign fingerprint + shard count
        <directory>/round1-0003.json  pattern report, proofs, ATPG outcomes, shard 3
        <directory>/round2-0003.json  re-simulation report, shard 3

    ``loaded``/``stored`` counters (per round) let callers report how much
    of a resumed campaign came from disk.
    """

    def __init__(self, directory: str | os.PathLike):
        self.directory = Path(directory)
        self.loaded = {1: 0, 2: 0}
        self.stored = {1: 0, 2: 0}
        #: Damaged records moved aside (and recomputed) this run.
        self.quarantined = 0
        #: Transient read failures tolerated (record treated as missing).
        self.read_errors = 0
        #: Failed checkpoint writes tolerated (the campaign continues; the
        #: shard is simply not resumable).
        self.write_errors = 0

    # ------------------------------------------------------------------ #
    # Manifest / lifecycle.
    # ------------------------------------------------------------------ #
    def _manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    def _quarantine(self, path: Path) -> None:
        """Move a damaged artifact into ``quarantine/`` (never delete it)."""
        try:
            quarantine(path)
            self.quarantined += 1
        except OSError:
            # Cannot even move it aside; count it and leave the loader to
            # keep treating the record as missing.
            self.read_errors += 1

    def read_manifest(self) -> Optional[dict[str, Any]]:
        try:
            return json.loads(self._manifest_path().read_text(encoding="utf-8"))
        except FileNotFoundError:
            return None
        except ValueError:
            # A corrupt manifest (bad JSON or scribbled bytes) cannot vouch
            # for any shard record: move it aside and start the campaign
            # fresh rather than fail the resume.
            self._quarantine(self._manifest_path())
            return None
        except OSError as exc:
            raise CampaignError(
                f"unreadable checkpoint manifest {self._manifest_path()}: {exc}"
            ) from None

    def prepare(self, fingerprint: str, shards: int, resume: bool = True) -> None:
        """Bind the directory to one campaign; validate or reset prior state.

        With *resume* a matching manifest keeps every shard file for reuse;
        a mismatched fingerprint or shard count raises
        :class:`CampaignError` (the old checkpoints describe a different
        campaign and must be cleared explicitly).  Without *resume* any
        existing checkpoint state is discarded first.
        """
        if self.directory.exists() and not self.directory.is_dir():
            raise CorruptArtifactError(
                f"checkpoint path {self.directory} is a file, not a directory"
            )
        manifest = self.read_manifest()
        if manifest is not None and not resume:
            self.clear()
            manifest = None
        if manifest is not None:
            if manifest.get("schema") != CHECKPOINT_SCHEMA:
                raise CampaignError(
                    f"checkpoint directory {self.directory} uses schema "
                    f"{manifest.get('schema')!r}, expected {CHECKPOINT_SCHEMA!r}; "
                    f"clear it (or pass resume=False) to start fresh"
                )
            stale = []
            if manifest.get("fingerprint") != fingerprint:
                stale.append("campaign fingerprint")
            if manifest.get("shards") != shards:
                stale.append(f"shard count ({manifest.get('shards')} vs {shards})")
            if stale:
                raise CampaignError(
                    f"checkpoint directory {self.directory} belongs to a different "
                    f"campaign ({', '.join(stale)} changed); clear it (or pass "
                    f"resume=False) to start fresh"
                )
            return
        # No (trustworthy) manifest: any stray shard records cannot be
        # vouched for -- drop them before binding the directory afresh.
        self.clear()
        atomic_write_json(
            self._manifest_path(),
            {
                "schema": CHECKPOINT_SCHEMA,
                "schema_version": SCHEMA_VERSION,
                "fingerprint": fingerprint,
                "shards": shards,
            },
        )

    def clear(self) -> None:
        """Delete the manifest and every shard checkpoint file."""
        if not self.directory.is_dir():
            return
        for path in self.directory.iterdir():
            if path.name == MANIFEST_NAME or (
                path.suffix == ".json" and path.name.startswith(("round1-", "round2-"))
            ):
                path.unlink(missing_ok=True)

    def shard_files(self, round_no: int) -> list[Path]:
        return sorted(self.directory.glob(f"round{round_no}-*.json"))

    def summary(self) -> dict[str, int]:
        """Per-round load/store counts plus fault-tolerance counters."""
        return {
            "round1_loaded": self.loaded[1],
            "round1_stored": self.stored[1],
            "round2_loaded": self.loaded[2],
            "round2_stored": self.stored[2],
            "quarantined": self.quarantined,
            "read_errors": self.read_errors,
            "write_errors": self.write_errors,
        }

    # ------------------------------------------------------------------ #
    # Shard records: a header plus the record's fields, codec-encoded.
    # ------------------------------------------------------------------ #
    def _shard_path(self, round_no: int, index: int) -> Path:
        return self.directory / f"round{round_no}-{index:04d}.json"

    def _load(
        self, round_no: int, index: int, shard: Sequence[Fault], names: Iterable[str]
    ) -> Optional[list]:
        """The decoded *names* fields of one shard record, or None when absent/invalid."""
        path = self._shard_path(round_no, index)
        try:
            inject("checkpoint.read", shard=index, path=path)
            data = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError:
            # Transient read failure: treat the record as missing (the
            # shard recomputes) rather than fail the resume.
            self.read_errors += 1
            return None
        try:
            payload = parse_record(data.decode("utf-8"))
            if (
                payload.get("schema") != CHECKPOINT_SCHEMA
                or payload.get("faults_digest") != _fault_keys_digest(shard)
            ):
                # Stale (foreign-campaign) record: recompute without
                # quarantine -- the file is intact, it describes other faults.
                return None
            return [decode(payload[name]) for name in names]
        except Exception:  # torn, scribbled or undecodable record
            # Only this record is discarded -- moved to quarantine,
            # recomputed -- never the whole resume.
            self._quarantine(path)
            return None

    def _store(
        self, round_no: int, index: int, shard: Sequence[Fault], fields: dict[str, Any]
    ) -> bool:
        """Best-effort persist: a failed write never fails the campaign."""
        path = self._shard_path(round_no, index)
        header = {
            "schema": CHECKPOINT_SCHEMA,
            "shard": index,
            "faults_digest": _fault_keys_digest(shard),
        }
        body = {**header, **{name: encode(value) for name, value in fields.items()}}
        try:
            atomic_write_text(path, encode_record(body))
            inject("checkpoint.write", shard=index, path=path)
        except OSError:
            self.write_errors += 1
            return False
        self.stored[round_no] += 1
        return True

    # ------------------------------------------------------------------ #
    # Round 1: pattern report, static proofs, ATPG outcomes.
    # ------------------------------------------------------------------ #
    def store_round1(self, index: int, shard: Sequence[Fault], record: Round1Record) -> None:
        """Persist one shard's ``_shard_pattern_and_generate`` result."""
        self._store(1, index, shard, record._asdict())

    def load_round1(
        self, index: int, shard: Sequence[Fault], num_tests: Optional[int]
    ) -> Optional[Round1Record]:
        """Load one shard's round-1 record, or None when absent/invalid.

        *num_tests* is the current pattern-phase test count (None when the
        spec has no pattern phase); a stored report simulated against a
        different test list, or outcomes and proofs naming a fault outside
        the shard, are rejected.
        """
        fields = self._load(1, index, shard, Round1Record._fields)
        if fields is None:
            return None
        record = Round1Record(*fields)
        report = record.report
        if (report is None) != (num_tests is None):
            return None
        if report is not None and report.num_tests != num_tests:
            return None
        named = {o.fault.key for o in record.outcomes} | record.proofs.keys()
        if not named <= {fault.key for fault in shard}:
            return None
        self.loaded[1] += 1
        return record

    # ------------------------------------------------------------------ #
    # Round 2: merged-ATPG-test re-simulation.
    # ------------------------------------------------------------------ #
    def store_round2(self, index: int, shard: Sequence[Fault], record: tuple) -> None:
        """Persist one shard's ``_shard_resimulate`` result."""
        report, seconds = record
        self._store(2, index, shard, {"report": report, "seconds": seconds})

    def load_round2(
        self, index: int, shard: Sequence[Fault], num_tests: int
    ) -> Optional[tuple]:
        """Load one shard's round-2 record, or None when absent/invalid."""
        fields = self._load(2, index, shard, ("report", "seconds"))
        if fields is None or fields[0].num_tests != num_tests:
            return None
        self.loaded[2] += 1
        return tuple(fields)
