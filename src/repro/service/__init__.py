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

from .._exports import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    ".faultinject": (
        "ChaosExecutor", "FaultInjector", "InjectedFault", "Injection", "InjectionPlan", "inject",
        "install", "seeded_matrix",
    ),
    ".cache": ("CACHE_SCHEMA", "ResultCache", "CacheStats"),
    ".checkpoint": ("CHECKPOINT_SCHEMA", "CheckpointStore"),
    ".fingerprint": (
        "SCHEMA_VERSION", "circuit_canonical_form", "spec_canonical_form", "campaign_fingerprint",
    ),
    ".jobs": ("CampaignService", "Job", "JobError", "JobFailedError", "JobStatus"),
})
