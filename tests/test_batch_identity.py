"""Differential identity: the lockstep batch executor vs the scalar core.

The batch executor never gets to *be* the reference: the scalar
``Core`` run is the bit-identity oracle (exactly as ``decode_plan=False``
is for the plan cache), and every follower lane the shadow replay keeps
alive must read back byte-for-byte what a hermetic scalar run of that
lane computes -- architectural registers, PMU counters, cycle timeline,
and at the trial level, ``TrialResult.totes``/``cycles``.

Random programs come from the same generator the decode-plan suite uses
(faults under TSX suppression, speculation windows, stores feeding later
loads), driven per lane with divergent initial registers so taint flows
through ALU/flag/memory state.  Runs under Hypothesis when installed; a
seeded-``random`` fallback drives the same property with fixed seeds
otherwise (the repo convention).
"""

import dataclasses
import os
import random

import pytest

from repro.kernel.kaslr import user_mapped_slots
from repro.kernel.layout import KPTI_TRAMPOLINE_OFFSET, slot_base
from repro.runtime.batch import (
    BatchStats,
    LeaderRun,
    LockstepBatch,
    plan_packs,
    run_pack,
    run_trials_batched,
)
from repro.runtime.spec import MachineSpec
from repro.runtime.tasks import (
    TRIAL_KINDS,
    ChannelTrial,
    DetectTrial,
    KaslrTrial,
    clear_worker_contexts,
    run_trial,
    trial_context,
    warm_key,
)
from repro.sim.machine import Machine

from tests.test_decode_plan_properties import PAGE_IMAGE, random_program_text

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - depends on environment
    HAVE_HYPOTHESIS = False


#: Registers the differential harness reads back (the full GPR file minus
#: nothing -- divergence anywhere is a failure).
from repro.isa.registers import GPRS

#: Per-lane initial registers: r12/r13 are the pinned data/null pointers;
#: the rest diverge per lane so taint actually flows.
def _lane_regs(page: int, lanes: int):
    return [
        {
            "r12": page,
            "r13": 0,
            "r9": 3 + lane * 17,
            "rax": (lane * 0x9E3779B9) & ((1 << 64) - 1),
            "r8": lane,
        }
        for lane in range(lanes)
    ]


def _fresh_context(seed: int):
    """A hermetic (machine, page, program) triple for one observation."""
    rng = random.Random(seed)
    machine = Machine("i7-7700", seed=7)
    page = machine.alloc_data()
    program = machine.load_program(random_program_text(rng))
    return machine, page, program


def _scalar_lane(seed: int, regs, runs: int):
    """The oracle: one lane run scalar on its own machine, *runs* times
    back-to-back (memory persists between runs, like a batch's)."""
    machine, page, program = _fresh_context(seed)
    machine.reset_uarch(noise_seed=99)
    machine.write_data(page, PAGE_IMAGE)
    for _ in range(runs):
        result = machine.run(program, regs=dict(regs))
    return {
        "regs": {name: result.regs.read(name) for name in GPRS},
        "pmu": dict(machine.core.pmu.counts),
        "cycles": machine.core.global_cycle,
    }


def check_batch_equals_scalar(seed: int, lanes: int = 5, runs: int = 2) -> None:
    machine, page, program = _fresh_context(seed)
    machine.reset_uarch(noise_seed=99)
    machine.write_data(page, PAGE_IMAGE)
    lane_regs = _lane_regs(page, lanes)
    batch = LockstepBatch(lanes)
    for _ in range(runs):
        # Lane 0 is the leader: record its run, then replay it for all.
        result = machine.run(program, regs=dict(lane_regs[0]), record_trace=True)
        run = batch.run(LeaderRun(lane_regs[0], result), lane_regs[1:])
    leader_pmu = dict(machine.core.pmu.counts)
    leader_cycles = machine.core.global_cycle
    assert batch.alive[0], "the leader lane can never be evicted"
    for lane in range(lanes):
        scalar = _scalar_lane(seed, lane_regs[lane], runs)
        if not batch.alive[lane]:
            # Evicted lanes make no claims -- the production path re-runs
            # them scalar, which is trivially identical.  Just check the
            # eviction was recorded.
            assert lane in batch.evict_reasons
            continue
        got = {name: run.lane_reg(lane, name) for name in GPRS}
        assert got == scalar["regs"], (
            f"seed {seed} lane {lane}: shadow registers diverged "
            f"({batch.evict_reasons})"
        )
        # Timing state is shared with the leader by construction; the
        # assertion is that the scalar run agrees with it.
        assert leader_pmu == scalar["pmu"], f"seed {seed} lane {lane}: PMU diverged"
        assert leader_cycles == scalar["cycles"], (
            f"seed {seed} lane {lane}: cycle timeline diverged"
        )


if HAVE_HYPOTHESIS:

    class TestLockstepEqualsScalar:
        @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
        @settings(max_examples=10, deadline=None)
        def test_lanes_match_hermetic_scalar_runs(self, seed):
            check_batch_equals_scalar(seed)

else:  # pragma: no cover - exercised only without hypothesis

    class TestLockstepEqualsScalar:
        @pytest.mark.parametrize("seed", list(range(10)))
        def test_lanes_match_hermetic_scalar_runs(self, seed):
            check_batch_equals_scalar(seed)


def test_seed_254_batch_path():
    """The pinned decode-plan/legacy reproducer, third path: the batch
    shadow replays seed 254's retired-store-before-xbegin program without
    inheriting the (fixed) harness residue bug."""
    check_batch_equals_scalar(254)


#: Lane-divergent bytes read back from memory: an 8-byte load straddling
#: a store of r9 (each lane's stored bytes spliced into the leader's
#: value), a load after a lane-invariant store over them (no taint left),
#: and a callee that moves its own return address by 4 bytes in the one
#: lane whose r9 (71) has bit 6 set, so that lane alone returns past
#: ``mov rdx, 1``.
SPLICE_PROGRAM = """
    store [r12 + 16], r9
    load r10, [r12 + 12]
    add r11, r10
    store [r12 + 16], r12
    load rdi, [r12 + 16]
    mov rbx, r9
    shr rbx, 6
    shl rbx, 2
    call fn
    mov rdx, 1
    mov rsi, 2
    hlt
fn:
    load rcx, [rsp]
    add rcx, rbx
    store [rsp], rcx
    ret
"""


def test_tainted_memory_reaches_loads_and_return_targets():
    """The random programs need not read tainted memory back, and never
    return: a load and a ``ret`` over lane-divergent bytes keep every lane
    equal to its hermetic scalar run, and only the lane whose return
    target differs from the leader's is evicted."""

    def fresh():
        machine = Machine("i7-7700", seed=7)
        page = machine.alloc_data()
        program = machine.load_program(SPLICE_PROGRAM)
        machine.reset_uarch(noise_seed=99)
        machine.write_data(page, PAGE_IMAGE)
        return machine, page, program

    machine, page, program = fresh()
    lane_regs = [{**regs, "rsp": page + 2048} for regs in _lane_regs(page, 5)]
    batch = LockstepBatch(5)
    result = machine.run(program, regs=dict(lane_regs[0]), record_trace=True)
    run = batch.run(LeaderRun(lane_regs[0], result), lane_regs[1:])
    assert batch.evict_reasons == {4: "return-target-divergence"}
    for lane in range(4):
        scalar_machine, _, scalar_program = fresh()
        scalar = scalar_machine.run(scalar_program, regs=dict(lane_regs[lane]))
        got = {name: run.lane_reg(lane, name) for name in GPRS}
        assert got == {name: scalar.regs.read(name) for name in GPRS}, lane
        assert scalar_machine.core.global_cycle == machine.core.global_cycle, lane
    assert len({run.lane_reg(lane, "r10") for lane in range(4)}) == 4


# -- trial-level identity ------------------------------------------------------


def _channel_payloads():
    """A scan whose byte sits inside the test range, so one lane's Jcc
    really does diverge (the eviction + scalar-fallback path)."""
    spec = MachineSpec("i7-7700", seed=1)
    return [
        ChannelTrial(spec=spec, byte=7, test=test, batches=2, trial_index=test)
        for test in range(20)
    ]


class TestChannelPackIdentity:
    @pytest.mark.parametrize(
        "batch_size,leader_cache",
        [(1, True), (4, True), (17, True), (4, False), (17, False)],
        ids=["1", "4", "17", "4-no-leader-cache", "17-no-leader-cache"],
    )
    def test_batched_trials_equal_scalar_trials(
        self, batch_size, leader_cache, monkeypatch
    ):
        if not leader_cache:
            monkeypatch.setenv("REPRO_BATCH_LEADER_CACHE", "0")
        payloads = _channel_payloads()
        clear_worker_contexts()
        scalar = [run_trial(p) for p in payloads]
        clear_worker_contexts()
        stats = BatchStats()
        batched = run_trials_batched(payloads, batch_size, stats)
        assert batched == scalar
        if batch_size > 1:
            assert stats.packs > 0
            # The matching test value (7) diverges at its Jcc and must
            # have been evicted, not approximated.
            assert stats.evicted_lanes >= 1
            # One structure, so one leader execution serves every pack.
            misses = 1 if leader_cache else 0
            hits = stats.packs - 1 if leader_cache else 0
            assert stats.leader_cache_misses == misses
            assert stats.leader_cache_hits == hits
        clear_worker_contexts()

    def test_pack_results_positionally_aligned(self):
        payloads = _channel_payloads()
        clear_worker_contexts()
        results = run_pack(payloads[:6])
        clear_worker_contexts()
        assert results == [run_trial(p) for p in payloads[:6]]

    def test_plan_packs_preserves_order_and_size(self):
        payloads = _channel_payloads()
        groups = plan_packs(payloads, 8)
        assert [t for g in groups for t in g] == payloads
        assert max(len(g) for g in groups) <= 8
        # Mixed-key neighbours never share a pack.
        other = ChannelTrial(
            spec=MachineSpec("i7-7700", seed=2),
            byte=7,
            test=0,
            batches=2,
            trial_index=0,
        )
        groups = plan_packs(payloads[:3] + [other] + payloads[3:6], 8)
        for group in groups:
            assert len({(t.spec, t.byte) for t in group}) == 1

    def test_batch_size_one_is_scalar(self):
        payloads = _channel_payloads()[:4]
        groups = plan_packs(payloads, 1)
        assert all(len(g) == 1 for g in groups)


# -- KASLR pack identity (translation shadow + leader trace cache) -------------


def _kaslr_payloads(seed, slots, cr3_switch, suppression, warm_probes=1):
    """KASLR-style sweep payloads: one double-probe per candidate slot."""
    spec = MachineSpec("i7-7700", seed=seed, kpti=True)
    return [
        KaslrTrial(
            spec=spec,
            va=slot_base(slot),
            cr3_switch=cr3_switch,
            trial_index=index,
            warm_probes=warm_probes,
            suppression=suppression,
        )
        for index, slot in enumerate(slots)
    ]


def check_kaslr_batch_equals_scalar(
    seed, slots, cr3_switch, suppression, batch_size=8
):
    """The KASLR differential property: batched double-probes over an
    arbitrary slot mix (mapped, unmapped, and out-of-image candidates)
    are byte-identical to hermetic scalar trials, mapped candidates are
    evicted (never approximated), and disabling the leader trace cache
    changes nothing."""
    payloads = _kaslr_payloads(seed, slots, cr3_switch, suppression)
    clear_worker_contexts()
    scalar = [run_trial(p) for p in payloads]
    clear_worker_contexts()
    stats = BatchStats()
    batched = run_trials_batched(payloads, batch_size, stats)
    assert batched == scalar
    # Which slots actually resolve from user space this boot: exactly
    # those lanes cannot be walk-isomorphic to an unmapped leader.
    layout = _kaslr_layout(payloads[0].spec)
    mapped = user_mapped_slots(layout, kpti=True)
    n_mapped = sum(1 for slot in slots if slot in mapped)
    if 0 < n_mapped < len(slots):
        assert stats.evictions.get("translation-divergence", 0) >= 1
    clear_worker_contexts()
    os.environ["REPRO_BATCH_LEADER_CACHE"] = "0"
    try:
        assert run_trials_batched(payloads, batch_size) == scalar
    finally:
        os.environ.pop("REPRO_BATCH_LEADER_CACHE", None)
        clear_worker_contexts()


def _kaslr_layout(spec):
    trial = KaslrTrial(spec=spec, va=0, cr3_switch=False, trial_index=0)
    return trial_context(trial)[0].kernel.layout


def _slot_mix(rng, layout):
    """A small sweep slice straddling interesting territory: slots near
    the hidden kernel image (some user-mapped under KPTI via the
    trampoline remnant), plus far-away definitely-unmapped ones."""
    base = layout.slot
    near = rng.sample(range(max(0, base - 2), min(512, base + 18)), 6)
    far = rng.sample(range(0, 64), 3)
    return near + far


def check_kaslr_random_case(seed):
    rng = random.Random(seed)
    spec = MachineSpec("i7-7700", seed=seed % 97, kpti=True)
    layout = _kaslr_layout(spec)
    slots = _slot_mix(rng, layout)
    check_kaslr_batch_equals_scalar(
        seed % 97,
        slots,
        cr3_switch=rng.random() < 0.5,
        suppression=rng.choice([None, "tsx"]),
    )


if HAVE_HYPOTHESIS:

    class TestKaslrPackEqualsScalar:
        @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
        @settings(max_examples=5, deadline=None)
        def test_random_sweeps_match_hermetic_scalar_trials(self, seed):
            check_kaslr_random_case(seed)

else:  # pragma: no cover - exercised only without hypothesis

    class TestKaslrPackEqualsScalar:
        @pytest.mark.parametrize("seed", list(range(5)))
        def test_random_sweeps_match_hermetic_scalar_trials(self, seed):
            check_kaslr_random_case(seed)


def _batched_both_ways(payloads, batch_size, monkeypatch):
    """Batch *payloads* on a cold worker with the leader cache on, then
    off, asserting each run equals hermetic scalar trials; returns each
    run's ``BatchStats`` by whether the cache was on."""
    clear_worker_contexts()
    scalar = [run_trial(p) for p in payloads]
    stats = {}
    for leader_cache in (True, False):
        monkeypatch.setenv("REPRO_BATCH_LEADER_CACHE", "1" if leader_cache else "0")
        clear_worker_contexts()
        stats[leader_cache] = BatchStats()
        assert run_trials_batched(payloads, batch_size, stats[leader_cache]) == scalar
    clear_worker_contexts()
    return stats


class TestKaslrPackStructure:
    @pytest.mark.parametrize("position", [3, 0])
    def test_mapped_candidate_evicts_unmapped_survive(self, position, monkeypatch):
        """A sweep straddling the trampoline slot, which is trial
        *position* of the pack.  Mid-pack, the one user-mapped
        candidate evicts with the translation-divergence reason and every
        unmapped lane rides the leader's walk shape; leading the pack, the
        mapped slot is the recorded leader, so every other lane evicts.
        Either way, with the leader cache on and off."""
        spec = MachineSpec("i7-7700", seed=21, kpti=True)
        layout = _kaslr_layout(spec)
        mapped = user_mapped_slots(layout, kpti=True)
        assert len(mapped) == 1  # KPTI: just the trampoline remnant
        (tramp_slot,) = mapped
        first = tramp_slot - position
        slots = list(range(first, first + 8))
        payloads = _kaslr_payloads(21, slots, False, None)
        evicted = 1 if position else len(payloads) - 1
        for stats in _batched_both_ways(payloads, len(payloads), monkeypatch).values():
            assert stats.evictions == {"translation-divergence": evicted}

    def test_flare_bypass_packs_equal_scalar(self, monkeypatch):
        """The flare-bypass scan under KPTI+FLARE (trampoline offset, CR3
        switch between the probes) in 8-lane packs, so the cr3-switch hook
        runs in the recording and in the replay.  FLARE maps a dummy page
        at every candidate, which makes each walk's paging-structure-cache
        keys hold its own slot: no lane is isomorphic to another slot's
        leader, and every eviction is a translation divergence.  With the
        cache on, the second pack replays the first pack's leader and all
        8 of its lanes evict; off, each pack keeps its own leader's lane.
        The sweep straddles the real trampoline's slot."""
        spec = MachineSpec("i9-10980XE", seed=21, kpti=True, flare=True)
        layout = _kaslr_layout(spec)
        (tramp_slot,) = user_mapped_slots(
            layout, kpti=True, probe_offset=KPTI_TRAMPOLINE_OFFSET
        )
        payloads = [
            KaslrTrial(
                spec=spec,
                va=slot_base(slot) + KPTI_TRAMPOLINE_OFFSET,
                cr3_switch=True,
                trial_index=index,
            )
            for index, slot in enumerate(range(tramp_slot - 5, tramp_slot + 11))
        ]
        stats = _batched_both_ways(payloads, 8, monkeypatch)
        assert stats[True].evictions == {"translation-divergence": 15}
        assert stats[False].evictions == {"translation-divergence": 14}

    def test_leader_cache_hits_across_same_structure_packs(self):
        """Every pack after the first in a uniform sweep replays the
        memoized leader: misses stay at one."""
        payloads = _kaslr_payloads(3, list(range(24)), False, None)
        clear_worker_contexts()
        scalar = [run_trial(p) for p in payloads]
        clear_worker_contexts()
        stats = BatchStats()
        assert run_trials_batched(payloads, 8, stats) == scalar
        assert stats.leader_cache_misses == 1
        assert stats.leader_cache_hits == stats.packs - 1
        clear_worker_contexts()

    def test_sets_eviction_stays_scalar(self):
        """'sets' eviction has per-address conflict structure the pack
        planner must not batch."""
        payloads = [
            KaslrTrial(
                spec=MachineSpec("i7-7700", seed=5, kpti=True),
                va=0xFFFFFFFF80000000 + i * 0x200000,
                cr3_switch=False,
                trial_index=i,
                eviction="sets",
            )
            for i in range(4)
        ]
        assert all(len(g) == 1 for g in plan_packs(payloads, 8))


# -- the pack key and mixed-kind packing ----------------------------------------


def _changed(value):
    """A different value for the trial field holding *value*."""
    if isinstance(value, MachineSpec):
        return dataclasses.replace(value, seed=value.seed + 1)
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    return "tsx" if value is None else None


#: One case per trial kind with a probed field: (payload, probed field).
PACK_KEY_CASES = [
    (_channel_payloads()[3], "test"),
    (_kaslr_payloads(3, [5], True, None)[0], "va"),
]


class TestPackKey:
    @pytest.mark.parametrize("trial,probe", PACK_KEY_CASES, ids=["channel", "kaslr"])
    def test_every_structural_field_keys_the_pack(self, trial, probe):
        """The key (also the leader-cache key) is derived from the trial's
        own fields: changing any one of them changes it, except the lane's
        probed value and ``trial_index`` (inert at zero noise).  Every
        kind with a probed field has a case here."""
        swept = {kind for kind, row in TRIAL_KINDS.items() if row.probe is not None}
        assert {type(case) for case, _ in PACK_KEY_CASES} == swept
        assert TRIAL_KINDS[type(trial)].probe == probe
        for field in dataclasses.fields(trial):
            other = dataclasses.replace(
                trial, **{field.name: _changed(getattr(trial, field.name))}
            )
            assert other != trial
            same = field.name in (probe, "trial_index")
            assert (warm_key(other) == warm_key(trial)) is same, field.name

    def test_mixed_kinds_share_one_worker_context(self):
        """Channel, KASLR and detect payloads interleaved on one spec: no
        pack mixes kinds, every result equals the scalar one, and each
        kind's cached leader serves only its own later pack."""
        spec = MachineSpec("i7-7700", seed=4, kpti=True)
        channel = [
            ChannelTrial(spec=spec, byte=7, test=test, batches=2, trial_index=test)
            for test in range(4, 10)
        ]
        kaslr = _kaslr_payloads(4, range(6), False, None)
        detect = [DetectTrial(spec, "benign-compute", index) for index in range(2)]
        payloads = (
            channel[:3] + kaslr[:3] + detect[:1] + channel[3:] + kaslr[3:] + detect[1:]
        )
        groups = plan_packs(payloads, 8)
        assert [len(group) for group in groups] == [3, 3, 1, 3, 3, 1]
        assert all(len({type(trial) for trial in group}) == 1 for group in groups)
        clear_worker_contexts()
        scalar = [run_trial(p) for p in payloads]
        clear_worker_contexts()
        stats = BatchStats()
        assert run_trials_batched(payloads, 8, stats) == scalar
        assert (stats.packs, stats.scalar_trials) == (4, 2 + stats.evicted_lanes)
        assert (stats.leader_cache_misses, stats.leader_cache_hits) == (2, 2)
        clear_worker_contexts()
