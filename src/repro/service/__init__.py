"""Campaign-as-a-service: checkpoints, result cache, async job front-end.

This package turns the one-shot campaign pipeline into a serving stack:

* :class:`CheckpointStore` -- crash-safe per-shard checkpoints for
  :class:`~repro.campaign.sharded.ShardedCampaign` (pass
  ``checkpoint_dir=``): a killed campaign resumes from its completed
  shards, bit-identical to an uninterrupted run.
* :class:`ResultCache` -- a content-addressed cache of
  :class:`~repro.campaign.runner.CampaignResult`\\ s keyed by
  :func:`campaign_fingerprint` (circuit structural hash, spec hash, seed,
  engine/word width, code :data:`SCHEMA_VERSION`), so repeated identical
  requests -- including repeated :class:`~repro.campaign.suite.
  CampaignSuite` entries via ``cache_dir=`` -- are served from disk.
* :class:`CampaignService` -- submit / status / result / cancel over a
  shared worker pool, FIFO-fair across clients and crash-isolated per job;
  ``python -m repro.service.cli`` runs it against a directory of JSON job
  specs.
"""

# faultinject first: it has no repro dependencies, and the campaign layer's
# modules (imported transitively by everything below) hook into it at import
# time -- loading it before them keeps the import graph acyclic.
from .faultinject import (
    ChaosExecutor,
    FaultInjector,
    InjectedFault,
    Injection,
    InjectionPlan,
    inject,
    install,
    seeded_matrix,
)

from .cache import CACHE_SCHEMA, CacheStats, ResultCache
from .checkpoint import CHECKPOINT_SCHEMA, CheckpointStore
from .fingerprint import (
    SCHEMA_VERSION,
    campaign_fingerprint,
    circuit_canonical_form,
    spec_canonical_form,
)
from .jobs import (
    CampaignService,
    Job,
    JobError,
    JobFailedError,
    JobStatus,
)

__all__ = [
    "ChaosExecutor",
    "FaultInjector",
    "InjectedFault",
    "Injection",
    "InjectionPlan",
    "inject",
    "install",
    "seeded_matrix",
    "SCHEMA_VERSION",
    "CACHE_SCHEMA",
    "CHECKPOINT_SCHEMA",
    "circuit_canonical_form",
    "spec_canonical_form",
    "campaign_fingerprint",
    "CheckpointStore",
    "ResultCache",
    "CacheStats",
    "CampaignService",
    "Job",
    "JobError",
    "JobFailedError",
    "JobStatus",
]
