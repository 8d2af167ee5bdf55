"""repro.runtime -- the parallel trial-execution engine.

Whisper's attacks are statistical sampling campaigns: thousands of
independent gadget trials whose ToTE measurements are decoded in
aggregate.  This package turns that shape into throughput:

* :class:`MachineSpec` -- a frozen, picklable machine recipe with
  deterministic per-trial seed derivation (:func:`derive_seed`);
* :class:`TrialPool` -- runs trials in-process or across a
  :class:`WorkerCrew` of worker processes with bit-identical results at
  any worker count, plus the resilience surface (retries, timeouts,
  dead-worker respawn, quarantine) driven by :mod:`repro.faults`;
* :mod:`repro.runtime.tasks` -- the worker-side trial functions for the
  TET-CC byte scan and the TET-KASLR probe sweep;
* :mod:`repro.runtime.batch` -- the lockstep batch executor
  (:class:`LockstepBatch`): N pack-eligible trials stepped over one
  shared leader execution, divergent lanes evicted to the scalar path,
  results byte-identical to scalar dispatch (``TrialPool(lanes=N)``
  turns it on).

See ``docs/RUNTIME.md`` for the architecture and a worked example, and
``docs/FAULTS.md`` for the failure model.
"""

from repro import _exports

__getattr__, __dir__, __all__ = _exports.lazy(__name__, {
    ".batch": (
        "BatchStats",
        "LockstepBatch",
        "plan_packs",
        "run_trial_group",
        "run_trials_batched",
    ),
    ".pool": ("TrialPool", "WorkerCrew", "WorkerLostError", "default_workers"),
    ".spec": ("MachineSpec", "derive_seed", "derive_stream"),
    ".tasks": (
        "ChannelTrial",
        "DetectTrial",
        "KaslrTrial",
        "TrialFailure",
        "TrialResult",
        "run_channel_trial",
        "run_detect_trial",
        "run_kaslr_trial",
        "run_trial",
    ),
})
