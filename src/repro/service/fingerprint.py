"""Content-addressed keys for campaign results and checkpoints.

A campaign's outcome is a pure function of (circuit structure, spec, code
schema): the pattern phase is seeded, fault enumeration / collapsing /
compaction are deterministic, and sharded execution merges in universe
order.  That purity is what the result cache and the checkpoint store key
on:

* :func:`circuit_fingerprint` hashes the circuit's *structural* canonical
  form -- primary input/output order plus every driven net's (gate type,
  input nets) -- exactly the information
  :func:`repro.logic.bench.structurally_equal` compares, so two circuits
  that are structurally equal always share a fingerprint regardless of how
  they were built (generator, ``.bench`` file, hand construction).
* :func:`spec_fingerprint` hashes every :class:`~repro.campaign.runner.
  CampaignSpec` field that can influence the result, including
  ``universe_options`` and ``podem_options``.
* :func:`campaign_fingerprint` combines the two with the circuit name (it
  appears verbatim in reports) and :data:`SCHEMA_VERSION`.

Bump :data:`SCHEMA_VERSION` whenever the campaign pipeline's observable
output changes (report schema, detection semantics, compaction tie-breaks,
generated engine code): the bump invalidates every cached result and checkpoint at
once, so stale artifacts from older code are never replayed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from typing import Any

from ..campaign.runner import CampaignSpec, _jsonable, spec_result_fields
from ..logic.netlist import LogicCircuit

#: Version of the campaign result/checkpoint schema.  Part of every cache
#: key and checkpoint manifest; see the module docstring for when to bump.
#:
#: v2: structural ATPG rewrite -- ``CampaignSpec.atpg_engine`` joined the
#: spec, and the ``atpg_phase`` payload grew ``atpg_engine`` /
#: ``implications`` / ``proven_structural`` / per-fault ``outcomes``.
#: v3: ``DetectionReport`` holds one int bitset per fault (``words``) instead
#: of index lists, so results the result cache stored under v2 no longer
#: load as working objects; the bump turns them into plain misses.  (The
#: cache's file format has its own version, ``CACHE_SCHEMA``.)
SCHEMA_VERSION = 3


def _digest(payload: Any) -> str:
    """SHA-256 over the canonical (sorted-key) JSON form of *payload*."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def circuit_canonical_form(circuit: LogicCircuit) -> dict[str, Any]:
    """The structural identity of *circuit* as a JSON-able dict.

    Mirrors :func:`repro.logic.bench.structurally_equal`: primary
    input/output order and, for every driven net, the driving gate's type
    and input tuple.  Gate instance names and circuit names are excluded.
    """
    return {
        "inputs": list(circuit.primary_inputs),
        "outputs": list(circuit.primary_outputs),
        "drivers": {
            gate.output: [gate.gate_type.value, list(gate.inputs)] for gate in circuit
        },
    }


def circuit_fingerprint(circuit: LogicCircuit) -> str:
    """Hex digest of the circuit's structural canonical form."""
    return _digest(circuit_canonical_form(circuit))


def spec_canonical_form(spec: CampaignSpec) -> dict[str, Any]:
    """Every result-influencing spec field as a JSON-able dict.

    ``shards`` is included even though sharded and unsharded results are
    bit-identical: the spec is embedded verbatim in the JSON report, so two
    shard counts are two distinct (both correct) cacheable artifacts.
    """
    return _jsonable(
        {
            **spec_result_fields(spec),
            "podem_options": asdict(spec.podem_options) if spec.podem_options else None,
        }
    )


def spec_fingerprint(spec: CampaignSpec) -> str:
    """Hex digest of the spec's canonical form."""
    return _digest(spec_canonical_form(spec))


def campaign_fingerprint(
    circuit: LogicCircuit,
    spec: CampaignSpec,
    schema_version: int = SCHEMA_VERSION,
) -> str:
    """The content-addressed key of one (circuit, spec, schema) campaign.

    Two calls agree exactly when the campaign is guaranteed to produce the
    same :meth:`~repro.campaign.runner.CampaignResult.as_dict` payload
    (runtime fields aside): same circuit structure and name, same spec
    fields, same code schema version.
    """
    return _digest(
        {
            "schema_version": schema_version,
            "circuit_name": circuit.name,
            "circuit": circuit_canonical_form(circuit),
            "spec": spec_canonical_form(spec),
        }
    )
