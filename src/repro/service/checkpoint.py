"""Per-campaign shard checkpoints: crash-safe persistence of shard reports.

:class:`CheckpointStore` gives :class:`~repro.campaign.sharded.
ShardedCampaign` a per-campaign directory where every completed shard task
is persisted the moment its result arrives in the parent -- round-1
(pattern simulation + ATPG generation) and round-2 (merged-test
re-simulation) records alike.  All writes are atomic
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
from typing import Any, Optional, Sequence

from ..atpg.fault_sim import DetectionReport
from ..campaign.errors import CampaignError, CorruptArtifactError
from ..campaign.model import SINGLE_PATTERN, AtpgOutcome
from ..faults.base import Fault
from ..ioutil import atomic_write_json, atomic_write_text
from .faultinject import inject
from .fingerprint import SCHEMA_VERSION

#: Checkpoint file-format version (independent of the campaign
#: SCHEMA_VERSION, which governs *result* compatibility).  Version 3 adds
#: the per-record checksum/length trailer; v2 records fail trailer
#: validation and are quarantined + recomputed on first resume.  Version 4
#: stores a report as one hex detection bitset per fault (``"words"``)
#: instead of index lists; a v3 manifest is refused on resume, and
#: ``resume=False`` clears it.
CHECKPOINT_SCHEMA = "repro/campaign-checkpoint/4"

MANIFEST_NAME = "manifest.json"

#: Subdirectory damaged artifacts are moved into (never deleted: they are
#: the forensic record of what the store refused to trust).
QUARANTINE_DIR = "quarantine"

_TRAILER_PREFIX = "sha256:"


def _fault_keys_digest(faults: Sequence[Fault]) -> str:
    joined = "\n".join(f.key for f in faults)
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()


def _encode_record(payload: dict[str, Any]) -> str:
    """One shard record: a single JSON line plus a checksum/length trailer.

    Atomic writes already rule out torn records under POSIX rename
    semantics; the trailer is the defence for everything rename cannot
    promise -- non-POSIX filesystems, partial network-volume flushes,
    post-crash block corruption -- and for the fault-injection suite, which
    tears and scribbles records on purpose.
    """
    body = json.dumps(payload, indent=None)
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    return f"{body}\n{_TRAILER_PREFIX}{digest}:{len(body.encode('utf-8'))}\n"


def _parse_record(text: str) -> dict[str, Any]:
    """Validate and decode one record; raises ``ValueError`` when damaged."""
    lines = text.split("\n")
    if len(lines) != 3 or lines[2] != "":
        raise ValueError("torn record: expected body + trailer lines")
    body, trailer = lines[0], lines[1]
    if not trailer.startswith(_TRAILER_PREFIX):
        raise ValueError("missing checksum trailer")
    digest, length = trailer[len(_TRAILER_PREFIX):].split(":")
    if int(length) != len(body.encode("utf-8")):
        raise ValueError("record length mismatch")
    if hashlib.sha256(body.encode("utf-8")).hexdigest() != digest:
        raise ValueError("record checksum mismatch")
    payload = json.loads(body)
    if not isinstance(payload, dict):
        raise ValueError("record body is not an object")
    return payload


def _encode_report(report: Optional[DetectionReport]) -> Optional[dict[str, Any]]:
    if report is None:
        return None
    return {
        "words": {key: format(word, "x") for key, word in report.words.items()},
        "num_tests": report.num_tests,
    }


def _decode_report(payload: Optional[dict[str, Any]]) -> Optional[DetectionReport]:
    if payload is None:
        return None
    return DetectionReport(
        words={key: int(word, 16) for key, word in payload["words"].items()},
        num_tests=payload["num_tests"],
    )


def _decode_test(payload: list, pattern_kind: str) -> tuple:
    """Restore one test to the model's native tuple shape.

    JSON flattens tuples to lists; single-pattern tests come back as an int
    tuple, two-pattern tests as a ``(first, second)`` pair of int tuples --
    exactly what the simulators and report comparisons expect.
    """
    if pattern_kind == SINGLE_PATTERN:
        return tuple(int(bit) for bit in payload)
    first, second = payload
    return (tuple(int(b) for b in first), tuple(int(b) for b in second))


class CheckpointStore:
    """Atomic per-shard checkpoint files under one campaign directory.

    Layout::

        <directory>/manifest.json     campaign fingerprint + shard count
        <directory>/round1-0003.json  pattern report + ATPG outcomes, shard 3
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
            qdir = self.directory / QUARANTINE_DIR
            qdir.mkdir(parents=True, exist_ok=True)
            target = qdir / path.name
            suffix = 0
            while target.exists():
                suffix += 1
                target = qdir / f"{path.name}.{suffix}"
            os.replace(path, target)
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
    # Round 1: pattern report + ATPG outcomes.
    # ------------------------------------------------------------------ #
    def _shard_path(self, round_no: int, index: int) -> Path:
        return self.directory / f"round{round_no}-{index:04d}.json"

    def _load_payload(
        self, round_no: int, index: int, shard: Sequence[Fault]
    ) -> Optional[dict[str, Any]]:
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
            payload = _parse_record(data.decode("utf-8"))
        except ValueError:  # includes UnicodeDecodeError from scribbled bytes
            # Torn or corrupt record: only this record is discarded --
            # moved to quarantine, recomputed -- never the whole resume.
            self._quarantine(path)
            return None
        if payload.get("schema") != CHECKPOINT_SCHEMA:
            return None
        if payload.get("faults_digest") != _fault_keys_digest(shard):
            # Stale (foreign-campaign) record: recompute without quarantine
            # -- the file is intact, it just describes different faults.
            return None
        return payload

    def _store_payload(self, round_no: int, index: int, payload: dict[str, Any]) -> bool:
        """Best-effort persist: a failed write never fails the campaign."""
        path = self._shard_path(round_no, index)
        try:
            atomic_write_text(path, _encode_record(payload))
            inject("checkpoint.write", shard=index, path=path)
        except OSError:
            self.write_errors += 1
            return False
        self.stored[round_no] += 1
        return True

    def store_round1(
        self,
        index: int,
        shard: Sequence[Fault],
        record: tuple,
    ) -> None:
        """Persist one shard's ``_shard_pattern_and_generate`` result."""
        report, outcomes, skipped, proven, sim_seconds, gen_seconds = record
        self._store_payload(
            1,
            index,
            {
                "schema": CHECKPOINT_SCHEMA,
                "shard": index,
                "faults_digest": _fault_keys_digest(shard),
                "report": _encode_report(report),
                "outcomes": [
                    {
                        "fault": o.fault.key,
                        "success": o.success,
                        "tests": [list(map(list, t)) if isinstance(t[0], tuple) else list(t)
                                  for t in o.tests],
                        "backtracks": o.backtracks,
                        "aborted": o.aborted,
                        "decisions": o.decisions,
                        "implications": o.implications,
                    }
                    for o in outcomes
                ],
                "skipped": list(skipped),
                "proven": list(proven),
                "sim_seconds": sim_seconds,
                "gen_seconds": gen_seconds,
            },
        )

    def load_round1(
        self,
        index: int,
        shard: Sequence[Fault],
        pattern_kind: str,
        num_tests: Optional[int],
    ) -> Optional[tuple]:
        """Load one shard's round-1 record, or None when absent/invalid.

        *num_tests* is the current pattern-phase test count (None when the
        spec has no pattern phase); a stored report simulated against a
        different test list is rejected.
        """
        payload = self._load_payload(1, index, shard)
        if payload is None:
            return None
        report = _decode_report(payload["report"])
        if (report is None) != (num_tests is None):
            return None
        if report is not None and report.num_tests != num_tests:
            return None
        by_key = {fault.key: fault for fault in shard}
        try:
            outcomes = [
                AtpgOutcome(
                    fault=by_key[o["fault"]],
                    success=o["success"],
                    tests=tuple(_decode_test(t, pattern_kind) for t in o["tests"]),
                    backtracks=o["backtracks"],
                    aborted=o["aborted"],
                    decisions=o["decisions"],
                    implications=o["implications"],
                )
                for o in payload["outcomes"]
            ]
        except KeyError:
            return None
        self.loaded[1] += 1
        return (
            report,
            outcomes,
            list(payload["skipped"]),
            list(payload["proven"]),
            payload["sim_seconds"],
            payload["gen_seconds"],
        )

    # ------------------------------------------------------------------ #
    # Round 2: merged-ATPG-test re-simulation.
    # ------------------------------------------------------------------ #
    def store_round2(self, index: int, shard: Sequence[Fault], record: tuple) -> None:
        """Persist one shard's ``_shard_resimulate`` result."""
        report, seconds = record
        self._store_payload(
            2,
            index,
            {
                "schema": CHECKPOINT_SCHEMA,
                "shard": index,
                "faults_digest": _fault_keys_digest(shard),
                "report": _encode_report(report),
                "seconds": seconds,
            },
        )

    def load_round2(
        self, index: int, shard: Sequence[Fault], num_tests: int
    ) -> Optional[tuple]:
        """Load one shard's round-2 record, or None when absent/invalid."""
        payload = self._load_payload(2, index, shard)
        if payload is None:
            return None
        report = _decode_report(payload["report"])
        if report is None or report.num_tests != num_tests:
            return None
        self.loaded[2] += 1
        return report, payload["seconds"]
