"""The trial-kind table: one row per payload type, read by every worker path.

``runtime/tasks.py:TRIAL_KINDS`` is the only place the worker side spells
out a trial kind.  These tests pin the two things a row must get right
beyond identity (which the batch, perf and warm-start suites cover):
dispatch resolves a kind's trial function by name at call time, so the
ledger's timing shims -- which rebind ``tasks.run_*_trial`` after import
-- see every scalar trial; and every payload type a campaign emits has a
row.
"""

import pytest

from repro.campaign.spec import CampaignSpec
from repro.kernel.layout import slot_base
from repro.runtime import tasks
from repro.runtime.batch import BatchStats, run_pack
from repro.runtime.pool import TrialPool
from repro.runtime.spec import MachineSpec
from repro.runtime.tasks import (
    TRIAL_KINDS,
    ChannelTrial,
    DetectTrial,
    KaslrTrial,
    TrialResult,
    clear_worker_contexts,
    run_trial,
)

SPEC = MachineSpec("i7-7700", seed=1)


def test_rebound_trial_functions_see_every_trial(monkeypatch):
    """Counting wrappers installed the way ``ledger/tracer.py`` installs
    its timers see ``run_trial`` for each kind and a pack's evicted lane,
    and the pool still batches the rebound KASLR function."""
    calls = {}

    def counting(kind):
        real = getattr(tasks, f"run_{kind}_trial")

        def wrapper(trial):
            calls[kind] = calls.get(kind, 0) + 1
            return real(trial)

        return wrapper

    for kind in ("channel", "kaslr", "detect"):
        monkeypatch.setattr(tasks, f"run_{kind}_trial", counting(kind))
    clear_worker_contexts()
    run_trial(ChannelTrial(spec=SPEC, byte=7, test=3, batches=1, trial_index=0))
    run_trial(KaslrTrial(spec=SPEC, va=slot_base(5), cr3_switch=False, trial_index=0))
    run_trial(DetectTrial(SPEC, "benign-compute", 0))
    assert calls == {"channel": 1, "kaslr": 1, "detect": 1}

    # Lane 2 carries the sent byte: its Jcc really goes the other way, so
    # it evicts and re-runs scalar through the (rebound) trial function.
    pack = [
        ChannelTrial(spec=SPEC, byte=7, test=test, batches=1, trial_index=test)
        for test in (5, 6, 7, 8)
    ]
    stats = BatchStats()
    run_pack(pack, stats)
    assert stats.evictions == {"branch-divergence": 1}
    assert calls["channel"] == 2

    with TrialPool(workers=1, lanes=4) as pool:
        assert pool._batchable(tasks.run_kaslr_trial)
    clear_worker_contexts()


def test_every_expanded_trial_type_has_a_row():
    spec = CampaignSpec.grid(
        "kinds",
        [SPEC],
        kinds=("channel", "kaslr", "detect"),
        payload=b"A",
        values=range(2),
        scenario="benign-compute",
        trials=1,
    )
    emitted = {type(ref.trial) for ref in spec.expand()}
    assert len(emitted) == 3
    assert emitted <= set(TRIAL_KINDS)


def test_run_trial_names_an_unknown_payload():
    with pytest.raises(TypeError, match="unknown trial payload type: TrialResult"):
        run_trial(TrialResult(totes=(), cycles=0))
