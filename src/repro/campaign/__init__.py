"""repro.campaign -- declarative, cached, resumable sampling campaigns.

Every paper artefact is a sampling campaign: a grid of (machine x attack
x parameters) trials whose aggregate drives a decoder or a report.  This
package makes that shape first-class:

* :class:`CampaignSpec` -- a frozen grid description that expands
  deterministically into the trial list (``spec.py``);
* :class:`ResultStore` -- a content-addressed JSONL store under
  ``.campaigns/``; re-running a campaign replays cached trials for free
  and executes only the delta (``store.py``);
* :class:`CampaignRunner` -- a resumable executor that checkpoints after
  every batch and survives interruption mid-sweep (``runner.py``);
* :class:`CampaignReport` -- deterministic text + JSON artifacts built
  purely from trial results (``report.py``);
* built-in definitions for the E3 environment matrix, E8 throughput and
  the E9 KASLR break (``builtin.py``).

See ``docs/CAMPAIGN.md`` for the spec format, store layout, cache-key
rules and resume semantics.  From the CLI:
``python -m repro campaign run e9-kaslr --workers 4``.
"""

from repro import _exports

__getattr__, __dir__, __all__ = _exports.lazy(__name__, {
    ".builtin": ("BUILTIN_CAMPAIGNS", "builtin_campaign", "builtin_names"),
    ".report": ("REPORT_SCHEMA_VERSION", "CampaignReport", "build_report"),
    ".runner": ("CampaignAborted", "CampaignRunner", "CampaignStatus", "RunStats"),
    ".spec": (
        "CampaignCell",
        "CampaignSpec",
        "Shard",
        "TrialRef",
        "channel_cell",
        "detect_cell",
        "freeze_params",
        "kaslr_cell",
    ),
    ".store": (
        "ResultStore",
        "StoredOutcome",
        "canonical_json",
        "spec_digest",
        "trial_key",
    ),
})
