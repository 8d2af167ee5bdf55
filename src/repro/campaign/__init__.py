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

from repro.campaign.builtin import (
    BUILTIN_CAMPAIGNS,
    builtin_campaign,
    builtin_names,
)
from repro.campaign.report import (
    REPORT_SCHEMA_VERSION,
    CampaignReport,
    build_report,
)
from repro.campaign.runner import (
    CampaignAborted,
    CampaignRunner,
    CampaignStatus,
    RunStats,
)
from repro.campaign.spec import (
    CampaignCell,
    CampaignSpec,
    Shard,
    TrialRef,
    channel_cell,
    detect_cell,
    freeze_params,
    kaslr_cell,
)
from repro.campaign.store import (
    ResultStore,
    StoredOutcome,
    canonical_json,
    spec_digest,
    trial_key,
)

__all__ = [
    "BUILTIN_CAMPAIGNS",
    "CampaignAborted",
    "CampaignCell",
    "CampaignReport",
    "CampaignRunner",
    "CampaignSpec",
    "CampaignStatus",
    "REPORT_SCHEMA_VERSION",
    "ResultStore",
    "RunStats",
    "Shard",
    "StoredOutcome",
    "TrialRef",
    "build_report",
    "builtin_campaign",
    "builtin_names",
    "canonical_json",
    "channel_cell",
    "detect_cell",
    "freeze_params",
    "kaslr_cell",
    "spec_digest",
    "trial_key",
]
