"""repro.defend -- the defense side of the arms race, at traffic scale.

The paper's threat model (§4.2) grants the victim state-of-the-art
HPC-based cache-attack detection; Whisper's claim is that the TET channel
stays under it.  This package makes that claim *measured* instead of
asserted:

* :mod:`repro.defend.features` -- the deterministic per-window
  :class:`FeatureVector` (PMU deltas + clflush traffic + timing shape)
  and the one shared rate implementation every detector uses;
* :mod:`repro.defend.scenarios` -- the attack/benign traffic mix
  (cache-channel attacks, TET attacks, benign look-alikes);
* :mod:`repro.defend.calibrate` -- seeded threshold calibration and a
  byte-deterministic logistic regression trained on cache-vs-benign
  traffic (TET held out, as honesty demands);
* :mod:`repro.defend.online` -- the :class:`StreamingDetector` that
  scores trials as campaigns execute (runner ``sink=`` hook, coordinator
  ingest-on-completion) with order-independent verdicts;
* :mod:`repro.defend.eval` -- ROC/AUC + detection-latency artifacts
  under the campaign byte-identity contract.

The ``e11-detect`` builtin campaign plus ``repro defend
calibrate|score|eval|stream`` turn bench E11 into a campaign-scale
evaluation that shards and merges through :mod:`repro.distrib`.  See
``docs/DEFEND.md``.
"""

from repro import _exports

__getattr__, __dir__, __all__ = _exports.lazy(__name__, {
    ".calibrate": (
        "DEFEND_SCHEMA_VERSION",
        "Calibration",
        "calibrate",
        "calibration_campaign",
        "fit_calibration",
        "training_samples",
    ),
    ".eval": ("DefendReport", "auc", "build_defend_report", "roc_curve"),
    ".features": (
        "FEATURE_FIELDS",
        "FEATURE_SCHEMA_VERSION",
        "RATE_FIELDS",
        "FeatureVector",
        "per_kilo_uop",
    ),
    ".online": ("StreamingDetector", "Verdict"),
    ".scenarios": ("SCENARIOS", "Scenario", "get_scenario", "scenario_names"),
})
