"""Warm starts: one saved timing state, loaded instead of a replayed warm-up.

``Machine.save_uarch()`` returns the machine's whole timing state as a
value and ``Machine.load_uarch(state)`` puts it back; ``reset_uarch`` is a
load of the state saved at boot.  On a noise-free spec the scalar channel
and KASLR trial functions save the state their warm prefix leaves, once
per warm key, and later trials with that key load it and run only their
probe.  That is exact only if the snapshot carries every class of timing
state that survives between runs (caches, TLBs, the paging-structure
cache, predictors, the DSB, the PMU -- the classes Ge et al. enumerate),
so this module checks, in order:

* **coverage**: every attribute of every timing-state object reachable
  from a booted machine is either restored by a load or declared
  configuration, architecture or transient below;
* **round trip**: ``load_uarch(s)`` then ``save_uarch()`` equals ``s``,
  and a state stays reusable after any number of loads;
* **warm equals cold**: each warm-started trial equals its cold run (the
  same trial with the memo dropped) in ``TrialResult``, the whole PMU
  bank, ``telemetry_counters()`` and the saved state after the trial --
  a seeded subset of the model x defence x suppression grid here, the
  whole grid in the slow set;
* **cache keys**: ``MachineSpec(seed=1)`` and ``MachineSpec(seed=True)``
  compare equal and share contexts and saved states, and memory residue
  (the sender byte ``reset_uarch`` keeps) never leaks across payload
  bytes.
"""

import random
from collections import deque

import pytest

from repro.kernel.layout import KASLR_UNMAPPED_REFERENCE, slot_base
from repro.memory.cache import Cache, CacheHierarchy
from repro.memory.lfb import LfbEntry, LineFillBuffer
from repro.memory.mmu import Mmu
from repro.memory.paging import PageSize, Pte
from repro.memory.tlb import SplitTlb, Tlb
from repro.memory.walker import PageWalker
from repro.runtime import tasks
from repro.runtime.spec import MachineSpec
from repro.runtime.tasks import (
    KASLR_SCANS,
    ChannelTrial,
    KaslrTrial,
    clear_worker_contexts,
    run_trial,
    trial_context,
    warm_key,
)
from repro.uarch.bpu import (
    BranchPredictor,
    BranchTargetBuffer,
    PatternHistoryTable,
    ReturnStackBuffer,
)
from repro.uarch.config import CPU_MODELS
from repro.uarch.core import Core
from repro.uarch.frontend import Frontend
from repro.uarch.pmu import PmuCounters
from repro.whisper.attacks.kaslr import TetKaslr
from repro.whisper.gadgets import GadgetBuilder, Suppression

# -- coverage: every attribute is restored or declared -------------------------

CONFIG, ARCH, TRANSIENT, ALIAS = "configuration", "architecture", "transient", "alias"

#: Every class that owns timing state, with the attributes its snapshot
#: leaves out and why.  Any other attribute a booted machine's instance
#: holds is either another timing-state object (restored in place by its
#: own snapshot) or must come back from a load.
NOT_STATE = {
    Core: {
        "model": CONFIG,
        "mmu": CONFIG,  # the machine snapshots it beside the core
        "thread_id": CONFIG,
        "syscall_handler": CONFIG,  # installed by the kernel substrate
    },
    PmuCounters: {"counts": ALIAS},  # the same dict as ``_counts``
    BranchPredictor: {},
    PatternHistoryTable: {"entries": CONFIG, "history_bits": CONFIG},
    BranchTargetBuffer: {"entries": CONFIG},
    ReturnStackBuffer: {"depth": CONFIG},
    Frontend: {
        "model": CONFIG,
        "mmu": CONFIG,
        "pmu": CONFIG,  # the core's bank (shared between SMT siblings)
        "_issue_width": CONFIG,
        "_l1i_latency": CONFIG,
        "_mite_line_penalty": CONFIG,
        "_ms_switch_penalty": CONFIG,
        "_dsb_lines": CONFIG,
    },
    Mmu: {
        "physical": ARCH,
        "space": ARCH,  # CR3: the installed address space
        "fill_tlb_on_faulting_access": CONFIG,
        "fault_determination_cost": CONFIG,
        "_noise_amplitude": CONFIG,
        "translation_log": TRANSIENT,  # armed by Core.run(record_trace=True)
    },
    CacheHierarchy: {
        "dram_latency": CONFIG,
        "_l2_outcome": CONFIG,
        "_llc_outcome": CONFIG,
        "_dram_outcome": CONFIG,
    },
    Cache: {
        "geometry": CONFIG,
        "_set_count": CONFIG,
        "_way_count": CONFIG,
        "hit_outcome": CONFIG,
    },
    SplitTlb: {"name": CONFIG},
    Tlb: {
        "name": CONFIG,
        "page_size": CONFIG,
        "ways": CONFIG,
        "sets": CONFIG,
        "_page_bytes": CONFIG,
    },
    PageWalker: {
        "hierarchy": CONFIG,
        "psc_entries": CONFIG,
        "setup_cost": CONFIG,
        "not_present_cost": CONFIG,
        "record_details": TRANSIENT,  # armed by Core.run(record_trace=True)
    },
    LineFillBuffer: {"capacity": CONFIG},
}

#: Values a timing-state attribute may hold (inside containers): anything
#: else is an object whose state no snapshot covers.
LEAF_TYPES = (int, str, float, type(None), Pte, PageSize, LfbEntry)


def _canon(value, where):
    """A comparable, order-preserving copy of one attribute's value."""
    if isinstance(value, random.Random):
        return ("random", value.getstate())
    if isinstance(value, LEAF_TYPES):  # before tuples: LfbEntry is a NamedTuple
        return value
    if isinstance(value, dict):
        return tuple((_canon(k, where), _canon(v, where)) for k, v in value.items())
    if isinstance(value, (list, tuple, deque)):
        return tuple(_canon(item, where) for item in value)
    raise AssertionError(
        f"{where} holds a {type(value).__name__}: give its class a "
        "snapshot()/restore() pair and a NOT_STATE row"
    )


def _timing_state(machine):
    """``{path: canonical value}`` for every timing-state attribute
    reachable from the machine (``"mmu.dtlb.tlb_2m._sets"``), and the
    timing-state objects reached, by path, so a load can be checked to
    restore them in place."""
    state, objects = {}, {}
    pending = [("core", machine.core), ("mmu", machine.mmu)]
    while pending:
        path, obj = pending.pop(0)
        if any(seen is obj for seen in objects.values()):
            continue
        cls = type(obj)
        assert cls in NOT_STATE, f"{path}: unlisted timing-state class {cls.__name__}"
        objects[path] = obj
        for name, value in vars(obj).items():
            where = f"{path}.{name}"
            if type(value) in NOT_STATE:
                pending.append((where, value))
            elif name not in NOT_STATE[cls]:
                state[where] = _canon(value, where)
    return state, objects


#: Attributes the workload below cannot move away from their boot value:
#: the PHT keeps no global history (``history_bits=0``), and a quiet
#: machine has no noise stream.
UNMOVED = {"core.bpu.pht._history"}
UNMOVED_QUIET = {"mmu._noise_rng"}


def _workload(machine):
    """Touch every class of timing state: KASLR double-probes, the last on
    a mapped 2 MiB kernel page (DTLB arrays, PSC, walker backlog, CR3
    round trip), the signal-suppressed Figure 1a gadget (DSB, PHT,
    caches, LFB, PMU, disruptions, signal handler) with L1 and L2
    flushed between runs, a call (RSB, BTB), a clflush, an ITLB fill of
    a 2 MiB page, an LFB sample, and a first run of a fresh program
    (MITE delivery)."""
    layout = machine.kernel.layout
    attack = TetKaslr(machine)
    attack.probe_tote(KASLR_UNMAPPED_REFERENCE, cr3_switch=True)
    attack.probe_tote(layout.base)
    program = GadgetBuilder(machine, suppression=Suppression.SIGNAL).figure1()
    page = machine.alloc_data()
    machine.write_data(page, b"\x41" + b"\x00" * 7)
    hierarchy = machine.hierarchy
    for test, flushed in ((0x40, ()), (0x41, (hierarchy.l1d, hierarchy.l1i)),
                          (0x42, (hierarchy.l1d, hierarchy.l1i, hierarchy.l2))):
        for cache in flushed:
            cache.flush_all()
        machine.run(program, regs={"r12": page, "r13": 0, "r9": test})
    machine.core.bpu.on_call(program.base + 8, program.base + 64, program.base)
    machine.core.bpu.btb.predict(program.base)
    machine.mmu.clflush(page)
    machine.mmu.itlb.fill(layout.base, machine.kernel.kernel_space.lookup(layout.base))
    machine.mmu.itlb.lookup(layout.base)
    machine.mmu.lfb.sample_stale()
    machine.mmu.lfb.sample_stale()
    machine.run(machine.load_program("nop\nhlt"))


@pytest.mark.parametrize("noise", [0, 3], ids=["quiet", "noisy"])
def test_snapshot_covers_every_timing_attribute(noise):
    """Load the boot state after a workload and every timing attribute is
    back at its boot value; load the post-workload state and every one is
    back at that.  An attribute no snapshot restores fails here, whether
    or not anyone declared it."""
    machine = MachineSpec("i7-7700", seed=5, noise_amplitude=noise).build()
    boot, boot_objects = _timing_state(machine)
    _workload(machine)
    worked, objects = _timing_state(machine)
    assert objects.keys() == boot_objects.keys()
    unmoved = {path for path, value in worked.items() if value == boot[path]}
    assert unmoved == UNMOVED | (set() if noise else UNMOVED_QUIET), (
        "the workload must move every timing attribute"
    )
    saved = machine.save_uarch()

    machine.reset_uarch()
    after_reset, after_objects = _timing_state(machine)
    assert all(after_objects[path] is obj for path, obj in objects.items())
    assert after_reset == boot

    machine.load_uarch(saved)
    assert _timing_state(machine) == (worked, objects)


def test_round_trip_and_reuse():
    """``load_uarch(s)`` then ``save_uarch()`` equals ``s``; a state
    loaded, run from and loaded again starts the same runs."""
    spec = MachineSpec("i7-7700", seed=12345)
    trial = ChannelTrial(spec=spec, byte=0x53, test=0x10, batches=1, trial_index=3)
    clear_worker_contexts()
    run_trial(trial)
    machine, program, page = trial_context(trial)
    state = machine.save_uarch()
    machine.load_uarch(state)
    assert machine.save_uarch() == state
    regs = {"r12": page, "r13": 0, "r9": 0x53}
    first = [machine.run(program, regs=regs).cycles for _ in range(3)]
    machine.load_uarch(state)
    assert machine.save_uarch() == state
    assert [machine.run(program, regs=regs).cycles for _ in range(3)] == first


def test_load_drops_the_smt_view():
    machine = MachineSpec("i7-7700", seed=1).build()
    state = machine.save_uarch()
    smt = machine.smt()
    assert machine.smt() is smt
    machine.load_uarch(state)
    assert machine.smt() is not smt


# -- warm equals cold ----------------------------------------------------------


def _observe(trial):
    """Everything a trial leaves behind: its result, the whole PMU bank,
    the telemetry counters and the machine's timing state."""
    result = run_trial(trial)
    machine = trial_context(trial)[0]
    return (
        result,
        dict(machine.pmu.counts),
        machine.core.telemetry_counters(),
        machine.save_uarch(),
    )


def check_warm_equals_cold(trials):
    """Run *trials* in order with the memo live; after each, drop the memo
    and rerun it cold on the same worker context.  Every warm run must
    equal its cold one, and every trial after its key's first must have
    been warm-started."""
    tasks._warm_memo.clear()
    seen = set()
    for trial in trials:
        key = warm_key(trial)
        assert (key in tasks._warm_memo) is (key in seen), trial
        seen.add(key)
        warm = _observe(trial)
        memo = tasks._warm_memo.copy()
        tasks._warm_memo.clear()
        assert _observe(trial) == warm, trial
        tasks._warm_memo.clear()
        tasks._warm_memo.update(memo)
    clear_worker_contexts()


#: (defence label, MachineSpec flags).
DEFENCES = {
    "none": {},
    "kpti": {"kpti": True},
    "kpti-flare": {"kpti": True, "flare": True},
    "fgkaslr": {"fgkaslr": True},
}


def _suppressions(model):
    return [None, "signal"] + (["tsx"] if CPU_MODELS[model].has_tsx else [])


def grid_cells():
    """The model x defence x suppression grid, one id per cell."""
    return [
        (model, defence, suppression)
        for model in sorted(CPU_MODELS)
        for defence in DEFENCES
        for suppression in _suppressions(model)
    ]


def _cell_trials(model, defence, suppression, seed, per_key=3):
    """Channel trials of two interleaved bytes (so memory residue differs
    between neighbours), then KASLR trials of every scan shape and
    eviction, a mapped candidate among unmapped ones."""
    rng = random.Random(seed)
    spec = MachineSpec(model, seed=seed, **DEFENCES[defence])
    byte_a, byte_b = rng.sample(range(256), 2)
    trials = []
    index = 0
    for _ in range(per_key):
        for byte in (byte_a, byte_b):
            test = rng.choice([byte, rng.randrange(256)])
            trials.append(
                ChannelTrial(
                    spec=spec, byte=byte, test=test, batches=rng.choice([1, 2]),
                    trial_index=index, suppression=suppression,
                )
            )
            index += 1
    clear_worker_contexts()
    probe = KaslrTrial(
        spec=spec, va=0, cr3_switch=False, trial_index=0, suppression=suppression
    )
    layout = trial_context(probe)[0].kernel.layout
    slots = [layout.slot] + rng.sample(range(512), per_key - 1)
    for strategy, (offset, cr3_switch) in KASLR_SCANS.items():
        for eviction in ("direct", "sets"):
            for slot in slots:
                trials.append(
                    KaslrTrial(
                        spec=spec, va=slot_base(slot) + offset, cr3_switch=cr3_switch,
                        trial_index=index, eviction=eviction, suppression=suppression,
                    )
                )
                index += 1
    return trials


#: The tier-1 subset: a fixed draw of grid cells.
SAMPLED_CELLS = random.Random(22).sample(grid_cells(), 6)


@pytest.mark.parametrize("model,defence,suppression", SAMPLED_CELLS)
def test_warm_equals_cold_sampled(model, defence, suppression):
    check_warm_equals_cold(_cell_trials(model, defence, suppression, seed=7))


@pytest.mark.slow
@pytest.mark.parametrize("model,defence,suppression", grid_cells())
def test_warm_equals_cold_grid(model, defence, suppression):
    check_warm_equals_cold(_cell_trials(model, defence, suppression, seed=11, per_key=6))


def test_noisy_trials_never_warm_start():
    """A noisy trial's warm-up reads its own noise stream, so it always
    resets and replays; nothing is saved for it."""
    spec = MachineSpec("i7-7700", seed=3, noise_amplitude=2)
    clear_worker_contexts()
    trials = [
        ChannelTrial(spec=spec, byte=9, test=test, batches=1, trial_index=test)
        for test in range(3)
    ]
    results = [run_trial(trial) for trial in trials]
    assert not tasks._warm_memo
    clear_worker_contexts()
    assert [run_trial(trial) for trial in reversed(trials)] == results[::-1]
    clear_worker_contexts()


def test_memo_is_bounded_and_cleared():
    spec = MachineSpec("i7-7700", seed=2)
    clear_worker_contexts()
    for byte in range(tasks._WARM_LIMIT + 3):
        run_trial(ChannelTrial(spec=spec, byte=byte, test=0, batches=1, trial_index=byte))
    assert len(tasks._warm_memo) == tasks._WARM_LIMIT
    clear_worker_contexts()
    assert not tasks._warm_memo


def test_one_entry_holds_a_keys_state_and_leader(monkeypatch):
    """A pack and its evicted lane's scalar re-run share one memo entry:
    the recorded leader and the saved state.  With the leader cache off,
    packs store no leader."""
    from repro.runtime.batch import run_trials_batched

    spec = MachineSpec("i7-7700", seed=2)
    trials = [
        ChannelTrial(spec=spec, byte=7, test=test, batches=1, trial_index=test)
        for test in range(4, 10)
    ]
    key = warm_key(trials[0])
    for leader_cache in (True, False):
        monkeypatch.setenv("REPRO_BATCH_LEADER_CACHE", "1" if leader_cache else "0")
        clear_worker_contexts()
        run_trials_batched(trials, 8)  # test 7's Jcc diverges: it runs scalar
        assert list(tasks._warm_memo) == [key]
        entry = tasks._warm_memo[key]
        assert entry.state is not None
        assert (entry.leader is not None) is leader_cache
    clear_worker_contexts()
    assert not tasks._warm_memo


def test_failed_warm_up_saves_nothing(monkeypatch):
    """A trial whose warm-up raises leaves no state behind, and the next
    trial with its key runs cold and equals a fresh worker's run."""
    spec = MachineSpec("i7-7700", seed=4)
    trial = ChannelTrial(spec=spec, byte=7, test=7, batches=1, trial_index=0)
    clear_worker_contexts()
    expected = run_trial(trial)
    clear_worker_contexts()
    machine, _, _ = trial_context(trial)
    real_run_many = machine.run_many
    calls = []

    def failing_run_many(program, reg_sets, **kwargs):
        calls.append(len(reg_sets))
        if len(calls) == 1:
            real_run_many(program, reg_sets[:1], **kwargs)  # dirty the machine
            raise RuntimeError("injected warm-up failure")
        return real_run_many(program, reg_sets, **kwargs)

    monkeypatch.setattr(machine, "run_many", failing_run_many)
    with pytest.raises(RuntimeError):
        run_trial(trial)
    assert not tasks._warm_memo
    assert run_trial(trial) == expected
    assert warm_key(trial) in tasks._warm_memo
    clear_worker_contexts()


# -- cache keys ----------------------------------------------------------------


@pytest.mark.parametrize("kind", ["channel", "kaslr"])
def test_equal_specs_share_contexts_either_order(kind):
    """``MachineSpec(seed=1) == MachineSpec(seed=True)`` with one hash, so
    the context caches and the warm-state memo serve both (their store
    keys differ; see test_campaign_store).  One trial under either spec
    gives the same result whichever runs first in the process."""
    one, true = MachineSpec("i7-7700", seed=1), MachineSpec("i7-7700", seed=True)
    assert one == true and hash(one) == hash(true)

    def trial(spec, index):
        if kind == "channel":
            return ChannelTrial(spec=spec, byte=0x31, test=0x31, batches=1, trial_index=index)
        return KaslrTrial(spec=spec, va=slot_base(3), cr3_switch=False, trial_index=index)

    orders = []
    for first, second in ((one, true), (true, one)):
        clear_worker_contexts()
        orders.append([run_trial(trial(first, 0)), run_trial(trial(second, 1))])
    clear_worker_contexts()
    assert orders[0] == orders[1]
    # Trial indices seed only the (absent) noise: all four are one result.
    assert len({result for pair in orders for result in pair}) == 1


def test_interleaved_payload_bytes_equal_their_cold_runs():
    """Memory residue: ``reset_uarch`` keeps memory, and the fill buffers
    capture line contents, so the sender byte is part of the warm key.
    Channel trials of two bytes, interleaved in one process, each equal
    their cold run -- warm state and all."""
    spec = MachineSpec("i7-7700", seed=254)
    clear_worker_contexts()
    trials = [
        ChannelTrial(spec=spec, byte=byte, test=test, batches=1, trial_index=index)
        for index, (byte, test) in enumerate(
            [(0x41, 0x10), (0x42, 0x10), (0x41, 0x41), (0x42, 0x41), (0x41, 0x42), (0x42, 0x42)]
        )
    ]
    check_warm_equals_cold(trials)
