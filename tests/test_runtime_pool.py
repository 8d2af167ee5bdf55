"""The TrialPool determinism contract: serial == parallel, bit for bit.

Every test here compares the same campaign run through
``TrialPool(workers=1)`` (trials run in the calling process) and
``TrialPool(workers=4)`` (real worker processes).  The contract is not
"statistically similar" -- it is full structural equality of results,
including every raw ToTE sample, because each trial's outcome is a pure
function of ``(MachineSpec, payload)``.
"""

import multiprocessing
import os

import pytest

from repro.runtime import (
    ChannelTrial,
    DetectTrial,
    MachineSpec,
    TrialPool,
    WorkerLostError,
    derive_seed,
    run_channel_trial,
    run_detect_trial,
    run_trial,
)
from repro.sim.machine import Machine
from repro.whisper.channel import TetCovertChannel

VALUES = range(48)  # a fast sub-scan; full 256-value scans are marked slow


def _scan(workers: int, byte: int = 0x2A):
    machine = Machine("i7-7700", seed=99)
    with TrialPool(workers=workers) as pool:
        channel = TetCovertChannel(machine, batches=2, values=VALUES, pool=pool)
        return channel.send_byte(byte)


def _pid(payload):
    """Where a trial ran."""
    return os.getpid()


def _crew_pids():
    return {child.pid for child in multiprocessing.active_children()}


class TestExecutorSelection:
    """Where trials run: in the calling process at ``workers=1``, in
    crew processes otherwise -- and no crew outlives ``close()``."""

    def test_one_worker_is_serial(self):
        with TrialPool(workers=1) as pool:
            assert pool.map(_pid, range(4)) == [os.getpid()] * 4

    def test_many_workers_is_process(self):
        with TrialPool(workers=2) as pool:
            pids = set(pool.map(_pid, range(8)))
        assert pids and os.getpid() not in pids

    def test_workers_floor_is_one(self):
        assert TrialPool(workers=0).workers == 1
        assert TrialPool(workers=-3).workers == 1

    def test_context_manager_closes(self):
        with TrialPool(workers=2) as pool:
            assert pool.map(len, ["ab", "c"]) == [2, 1]
            pids = set(pool.map(_pid, range(8)))
            assert pids <= _crew_pids()
        assert not pids & _crew_pids()
        pool.close()  # idempotent

    def test_empty_payloads(self):
        with TrialPool(workers=2) as pool:
            assert pool.map(len, []) == []

    def test_trials_executed_counter(self):
        """The pool counts dispatched trials (campaign reports use the
        counter to tell live execution from store replays)."""
        with TrialPool(workers=1) as pool:
            assert pool.trials_executed == 0
            pool.map(len, ["ab", "c"])
            pool.map(len, ["def"])
            assert pool.trials_executed == 3
        with TrialPool(workers=2) as pool:
            pool.map(len, ["ab", "c", "d"])
            assert pool.trials_executed == 3


def _exit_on_sentinel(payload):
    """A trial function whose worker dies -- for real -- on one payload."""
    if payload == "die":
        os._exit(43)
    return len(payload)


def _raise_on_sentinel(payload):
    if payload == "boom":
        raise ValueError("boom payload")
    return len(payload)


class TestWorkerLoss:
    def test_worker_death_raises_with_payload_index(self):
        """A dead worker surfaces as WorkerLostError naming the payload
        it took down -- never an opaque hang (the multiprocessing.Pool
        failure mode this crew replaces)."""
        with TrialPool(workers=2) as pool:
            with pytest.raises(WorkerLostError) as info:
                pool.map(_exit_on_sentinel, ["ab", "c", "die", "wxyz"])
            assert info.value.payload_index == 2
            assert "payload 2" in str(info.value)

    def test_pool_usable_after_worker_death(self):
        """The casualty is respawned before the raise, so the same pool
        keeps working."""
        with TrialPool(workers=2) as pool:
            with pytest.raises(WorkerLostError):
                pool.map(_exit_on_sentinel, ["die", "ab"])
            assert pool.map(_exit_on_sentinel, ["ab", "c"]) == [2, 1]

    def test_worker_exception_propagates(self):
        with TrialPool(workers=2) as pool:
            with pytest.raises(RuntimeError, match="boom payload"):
                pool.map(_raise_on_sentinel, ["ab", "boom", "c"])
            assert pool.map(_raise_on_sentinel, ["abc"]) == [3]

    @pytest.mark.parametrize("chunked", [False, True], ids=["per-pack", "chunked"])
    def test_failing_pack_names_its_own_payload(self, chunked):
        """With lanes, a failing trial is named by its payload index (its
        pack's first), not by its pack's position -- also when a chunk
        carries several packs."""
        good = MachineSpec("i7-7700", seed=3)
        bad = MachineSpec(
            "i7-7700", seed=3, kpti=True, flare=True, flare_coverage="bogus"
        )
        trials = [
            ChannelTrial(spec=spec, byte=1, test=index, batches=1, trial_index=index)
            for index, spec in enumerate([good] * 12 + [bad] * 4 + [good] * 4)
        ]
        with TrialPool(workers=2, lanes=4) as pool:
            if chunked:
                pool._per_payload_est = 0.0  # cheap: chunks of two packs
            with pytest.raises(RuntimeError, match="trial payload 12 failed"):
                pool.map(run_trial, trials)

    def test_in_process_exception_is_the_trial_own(self):
        """At ``workers=1`` a raising trial raises its own exception,
        unwrapped, and the pool keeps working."""
        with TrialPool(workers=1) as pool:
            with pytest.raises(ValueError, match="boom payload") as info:
                pool.map(_raise_on_sentinel, ["ab", "boom", "c"])
            assert type(info.value) is ValueError
            assert pool.map(_raise_on_sentinel, ["abc"]) == [3]


class TestSerialParallelEquivalence:
    def test_byte_scan_identical(self):
        """workers=1 and workers=4 produce the same ByteScanResult --
        value, confidence, votes, and every raw ToTE sample."""
        serial = _scan(workers=1)
        parallel = _scan(workers=4)
        assert serial.value == parallel.value == 0x2A
        assert serial.confidence == parallel.confidence
        assert serial.votes == parallel.votes
        assert serial.totes_by_test == parallel.totes_by_test

    def test_trial_function_is_pure(self):
        """The same trial payload yields the same result on repeat runs
        (the property the pool's scheduling-independence rests on)."""
        spec = MachineSpec(seed=5)
        trial = ChannelTrial(spec=spec, byte=0x11, test=0x11, batches=3, trial_index=7)
        assert run_channel_trial(trial) == run_channel_trial(trial)

    def test_trial_index_controls_noise_stream(self):
        """Distinct trial indices derive distinct noise seeds."""
        spec = MachineSpec(seed=5, noise_amplitude=3)
        seeds = {spec.trial_seed(i) for i in range(64)}
        assert len(seeds) == 64

    @pytest.mark.slow
    def test_full_byte_scan_identical(self):
        machine = Machine("i7-7700", seed=3)
        with TrialPool(workers=1) as p1:
            one = TetCovertChannel(machine, batches=3, pool=p1).send_byte(0xC4)
        machine2 = Machine("i7-7700", seed=3)
        with TrialPool(workers=4) as p4:
            four = TetCovertChannel(machine2, batches=3, pool=p4).send_byte(0xC4)
        assert one == four
        assert one.value == 0xC4


class TestKaslrEquivalence:
    @pytest.mark.slow
    def test_kpti_break_identical(self):
        from repro.whisper.attacks.kaslr import TetKaslr

        results = []
        for workers in (1, 4):
            machine = Machine("i7-7700", seed=21, kaslr=True, kpti=True)
            with TrialPool(workers=workers) as pool:
                results.append(TetKaslr(machine, pool=pool).break_kaslr_kpti())
        one, four = results
        assert one.found_base == four.found_base
        assert one.totes_by_slot == four.totes_by_slot
        assert one.mapped_slots == four.mapped_slots
        assert one.success and four.success


class TestSeedDerivation:
    def test_derive_seed_is_deterministic(self):
        assert derive_seed(1234, 0) == derive_seed(1234, 0)

    def test_derive_seed_spreads(self):
        """splitmix64 mixing: nearby (root, index) pairs land far apart."""
        outs = {derive_seed(root, index) for root in range(4) for index in range(64)}
        assert len(outs) == 4 * 64

    def test_derive_seed_is_64_bit(self):
        for index in (0, 1, 2**31, 2**62):
            assert 0 <= derive_seed(0xDEADBEEF, index) < 2**64

    def test_spec_roundtrip(self):
        machine = Machine("i9-13900K", seed=42, kaslr=True, kpti=True)
        spec = MachineSpec.of(machine)
        rebuilt = spec.build()
        assert rebuilt.model.name == machine.model.name
        assert rebuilt.kernel.layout.base == machine.kernel.layout.base

    def test_seedless_machine_has_no_spec(self):
        with pytest.raises(ValueError, match="pass seed="):
            MachineSpec.of(Machine("i7-7700"))
        # The spec type itself still admits seed=None (store keys use it).
        assert MachineSpec(seed=None).seed is None

    def test_pooled_kaslr_refuses_seedless_machine(self):
        """A worker would boot another random layout and report a wrong
        base; the pooled sweep raises before any trial runs."""
        from repro.whisper.attacks.kaslr import TetKaslr

        machine = Machine("i7-7700", kpti=True)
        with TrialPool(workers=1) as pool:
            with pytest.raises(ValueError, match="pass seed="):
                TetKaslr(machine, pool=pool).break_kaslr_kpti()
            assert pool.trials_executed == 0

    def test_pooled_channel_refuses_seedless_machine(self):
        with TrialPool(workers=1) as pool:
            channel = TetCovertChannel(
                Machine("i7-7700"), batches=1, values=VALUES, pool=pool
            )
            with pytest.raises(ValueError, match="pass seed="):
                channel.send_byte(0x2A)
            assert pool.trials_executed == 0


class TestBatchStanddown:
    """``batch.standdown`` events: a requested-but-bypassed batch path
    must be visible in telemetry, never a silent slow run."""

    def _payloads(self):
        spec = MachineSpec("i7-7700", seed=1)
        return [
            ChannelTrial(
                spec=spec, byte=0x2A, test=test, batches=2, trial_index=test
            )
            for test in range(4)
        ]

    def _standdowns(self, records):
        return [
            record["attrs"]
            for record in records
            if record.get("kind") == "event"
            and record.get("name") == "batch.standdown"
        ]

    def _map_observed(self, pool, fn, payloads, faults=None):
        from repro import telemetry

        telemetry.enable()
        try:
            if faults is not None:
                pool.install_faults(faults)
            pool.map(fn, payloads)
            return self._standdowns(telemetry.recorder().drain())
        finally:
            telemetry.disable()

    def test_wrapped_fn_stands_down_with_reason(self):
        payloads = self._payloads()
        with TrialPool(workers=1, lanes=4) as pool:
            events = self._map_observed(
                pool, lambda trial: run_channel_trial(trial), payloads
            )
        assert events == [{"reason": "wrapped-fn", "payloads": 4}]

    def test_resilience_policy_stands_down(self):
        from repro.faults import ResiliencePolicy

        payloads = self._payloads()
        policy = ResiliencePolicy(max_retries=0, backoff_base=0.0)
        with TrialPool(workers=1, lanes=4, policy=policy) as pool:
            events = self._map_observed(pool, run_channel_trial, payloads)
        assert events == [{"reason": "resilience-policy", "payloads": 4}]

    def test_fault_injection_stands_down(self):
        from repro.faults import FaultPlan

        payloads = self._payloads()
        with TrialPool(workers=1, lanes=4) as pool:
            events = self._map_observed(
                pool,
                run_channel_trial,
                payloads,
                faults=FaultPlan.chaos(seed=7, rate=0.0),
            )
        assert events == [{"reason": "fault-injection", "payloads": 4}]

    def test_unbatched_trial_kind_stands_down(self):
        spec = MachineSpec("i7-7700", seed=1)
        payloads = [DetectTrial(spec, "benign-compute", index) for index in range(2)]
        with TrialPool(workers=1, lanes=4) as pool:
            events = self._map_observed(pool, run_detect_trial, payloads)
        assert events == [{"reason": "ineligible-trial-kind", "payloads": 2}]

    def test_batched_map_emits_no_standdown(self):
        payloads = self._payloads()
        with TrialPool(workers=1, lanes=4) as pool:
            events = self._map_observed(pool, run_channel_trial, payloads)
        assert events == []
