"""The one durable record format of the service layer's on-disk stores.

Checkpoint shard files and result-cache entries are both *records*: one
JSON object on one line plus a ``sha256:<digest>:<length>`` trailer line.
Campaign objects in a record body go through :func:`encode` /
:func:`decode`, which rebuild only the types on :data:`ALLOWED`, so reading
a record from a directory other processes write never runs their code.
A non-empty tuple of exact ``int`` 0/1 items (a test pattern) is stored as
one ``"0101..."`` string under the ``"bits"`` tag; every other tuple,
bools included, keeps the ``"tuple"`` tag.
Damaged records are moved aside by :func:`quarantine`, never deleted.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from enum import Enum
from pathlib import Path
from typing import Any

from ..analysis_static.diagnostics import Diagnostic, LintReport, Severity
from ..analysis_static.untestable import StaticProof
from ..atpg.compaction import CompactionResult
from ..atpg.coverage import CoverageReport
from ..atpg.fault_sim import DetectionReport
from ..campaign.model import AtpgOutcome
from ..campaign.runner import (
    AtpgPhaseResult,
    CampaignResult,
    CampaignSpec,
    PatternPhaseResult,
    Round1Record,
    StaticPhaseResult,
)
from ..faults import FaultList, ObdFault, PathDelayFault, StuckAtFault, TransitionFault
from ..logic.gates import GateType
from ..logic.netlist import CircuitStats

#: Subdirectory damaged records are moved into (kept for forensics).
QUARANTINE_DIR = "quarantine"

#: The types a record may name, by class name: the parts of a
#: :class:`CampaignResult` and of the checkpoint records.
ALLOWED: dict[str, type] = {
    cls.__qualname__: cls
    for cls in (
        CampaignResult, CampaignSpec, CircuitStats, FaultList,
        StuckAtFault, TransitionFault, PathDelayFault, ObdFault, GateType,
        StaticPhaseResult, LintReport, Diagnostic, Severity, StaticProof,
        PatternPhaseResult, AtpgPhaseResult, AtpgOutcome, DetectionReport,
        CoverageReport, CompactionResult, Round1Record,
    )
}

#: Fields deleted from a class on :data:`ALLOWED`, with the value every
#: record written before the deletion holds there: :func:`decode` drops
#: that key, so those records still load.  Any other value is damage.
_RETIRED: dict[str, dict[str, Any]] = {"CampaignSpec": {"podem_options": None}}

#: Ints from here on are stored as hex: JSON readers hold numbers as
#: doubles, and Python's int -> decimal conversion stops at 4,300 digits.
_BIG = 2**53


def encode(value: Any) -> Any:
    """*value* as JSON-able data; ``TypeError`` for a type off :data:`ALLOWED`."""
    # Enums first: Severity and GateType are str enums, compared with ``is``.
    if isinstance(value, Enum):
        return {"#": _tag(value), "value": value.value}
    if value is None or isinstance(value, (bool, str, float)):
        return value
    if isinstance(value, int):
        return value if -_BIG < value < _BIG else {"#": "int", "hex": format(value, "x")}
    if isinstance(value, list):
        return [encode(item) for item in value]
    if isinstance(value, dict):
        if "#" not in value and all(type(key) is str for key in value):
            return {key: encode(item) for key, item in value.items()}
        return {"#": "dict", "items": [[encode(k), encode(v)] for k, v in value.items()]}
    if type(value) is tuple:
        if value and all(type(item) is int and item in (0, 1) for item in value):
            return {"#": "bits", "bits": "".join(map(str, value))}
        return {"#": "tuple", "items": [encode(item) for item in value]}
    tag = _tag(value)
    if isinstance(value, FaultList):
        return {"#": tag, "faults": [encode(fault) for fault in value]}
    names = getattr(value, "_fields", None) or [f.name for f in dataclasses.fields(value)]
    return {"#": tag, **{name: encode(getattr(value, name)) for name in names}}


def _tag(value: Any) -> str:
    name = type(value).__qualname__
    if ALLOWED.get(name) is not type(value):
        raise TypeError(f"cannot store a {name} in a record: not on the allow-list")
    return name


def decode(data: Any) -> Any:
    """Inverse of :func:`encode`; ``ValueError`` for a type off :data:`ALLOWED`."""
    if isinstance(data, list):
        return [decode(item) for item in data]
    if not isinstance(data, dict):
        return data
    tag = data.get("#")
    if tag is None:
        return {key: decode(item) for key, item in data.items()}
    if tag == "int":
        return int(data["hex"], 16)
    if tag == "bits":
        return tuple(map(int, data["bits"]))
    if tag == "tuple":
        return tuple(decode(item) for item in data["items"])
    if tag == "dict":
        return {decode(key): decode(item) for key, item in data["items"]}
    cls = ALLOWED.get(tag)
    if cls is None:
        raise ValueError(f"record names type {tag!r}, which is not on the allow-list")
    if issubclass(cls, Enum):
        return cls(data["value"])
    if cls is FaultList:
        return FaultList(decode(fault) for fault in data["faults"])
    retired = _RETIRED.get(tag, {})
    return cls(**{
        key: decode(item) for key, item in data.items()
        if key != "#" and not (key in retired and item == retired[key])
    })


def _trailer(body: str) -> str:
    data = body.encode("utf-8")
    return f"sha256:{hashlib.sha256(data).hexdigest()}:{len(data)}"


def encode_record(body: dict[str, Any]) -> str:
    """*body* as one JSON line plus its checksum/length trailer line.

    Atomic writes already rule out torn records under POSIX rename
    semantics; the trailer guards against what rename cannot promise
    (non-POSIX filesystems, post-crash block corruption) and against the
    fault-injection suite, which tears and scribbles records on purpose.
    """
    text = json.dumps(body)
    return f"{text}\n{_trailer(text)}\n"


def parse_record(text: str) -> dict[str, Any]:
    """Validate and parse one record's body; ``ValueError`` when damaged."""
    lines = text.split("\n")
    if len(lines) != 3 or lines[2] != "":
        raise ValueError("torn record: expected body + trailer lines")
    if lines[1] != _trailer(lines[0]):
        raise ValueError("record checksum or length mismatch")
    payload = json.loads(lines[0])
    if not isinstance(payload, dict):
        raise ValueError("record body is not an object")
    return payload


def quarantine(path: str | os.PathLike) -> None:
    """Move a damaged file into ``quarantine/`` beside it; ``OSError`` if it cannot."""
    path = Path(path)
    qdir = path.parent / QUARANTINE_DIR
    qdir.mkdir(parents=True, exist_ok=True)
    target = qdir / path.name
    suffix = 0
    while target.exists():
        suffix += 1
        target = qdir / f"{path.name}.{suffix}"
    os.replace(path, target)
