"""Deterministic fault injection and resilient execution (testing layer).

The Whisper campaigns are long statistical sweeps; anything that can run
for hours will eventually meet a dying worker, a wedged trial, or a torn
checkpoint.  This package makes those events *injectable on purpose and
deterministic*, so the hardening in :mod:`repro.runtime.pool` and
:mod:`repro.campaign.runner` is tested the same way the simulator is:
fixed seed in, byte-identical behaviour out.

Two halves:

* **injection** (:mod:`repro.faults.plan`, :mod:`repro.faults.inject`) --
  a seeded :class:`FaultPlan` decides, purely from ``(seed, payload,
  attempt)``, whether a trial raises, hangs, returns garbage, or kills
  its worker, and whether a store record rots on the way to disk.
* **hardening** (:mod:`repro.faults.resilience`) -- the
  :class:`ResiliencePolicy` retry/backoff/timeout/quarantine knobs the
  pool runs under, plus the ledgers it fills.

The determinism-of-failure contract and the full fault taxonomy live in
``docs/FAULTS.md``.  ``python -m repro faults demo`` exercises the whole
stack end to end.
"""

from repro import _exports

__getattr__, __dir__, __all__ = _exports.lazy(__name__, {
    ".inject": (
        "FaultingFn",
        "FaultyStore",
        "GarbageResult",
        "HangToken",
        "InjectedFault",
        "SimulatedCrash",
        "SimulatedWorkerDeath",
        "TornStore",
        "lost_worker_message",
    ),
    ".plan": ("STORE_FAULTS", "TRIAL_FAULTS", "FaultPlan", "payload_fingerprint"),
    ".resilience": (
        "BACKOFF_CAP",
        "FaultStats",
        "QuarantineEntry",
        "ResiliencePolicy",
        "backoff_delay",
        "trial_result_validator",
    ),
})
