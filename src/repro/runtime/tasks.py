"""Trial payloads, the builders that expand attacks into them, and the
worker-side trial functions that run them.

The trial functions are the module-level callables a
:class:`~repro.runtime.TrialPool` dispatches.  Each takes one frozen,
picklable payload, looks up (or builds) a per-process machine context
keyed by the payload's :class:`~repro.runtime.MachineSpec`, loads a saved
timing state into the machine, and runs its trial from there.

Everything the worker side knows about a payload type is one row of
:data:`TRIAL_KINDS`, which ``run_trial``, the context cache, warm starts,
the pack driver and the pool all read: a new trial kind is one row.

The builders (:func:`channel_trials`, :func:`kaslr_trials`) allocate
trial indices the way a live pooled attack does, so campaign expansion
and ``pool=`` runs produce the same payloads; they build no machine.

The load-at-trial-start discipline is what makes results independent of
scheduling.  A trial starts from the boot state (``reset_uarch``), or --
a noise-free channel or KASLR trial -- from the state its warm prefix
leaves, which the first trial with its :func:`warm_key` saved after
running that prefix from the boot state itself.  Either way it sees the
same timing profile whether it is the first ever run on a freshly forked
worker or the ten-thousandth on a long-lived one, and its ambient-noise
stream is derived from ``(spec.seed, trial_index)`` alone.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple

from repro import telemetry
from repro.kernel.layout import (
    KASLR_SLOTS,
    KASLR_UNMAPPED_REFERENCE,
    KPTI_TRAMPOLINE_OFFSET,
    NULL_POINTER,
    slot_base,
)
from repro.runtime.spec import MachineSpec, derive_stream


@dataclass(frozen=True)
class TrialResult:
    """What one trial hands back to the coordinator."""

    totes: Tuple[int, ...]
    #: Simulated cycles this trial consumed (from a zeroed counter).
    cycles: int


@dataclass(frozen=True)
class TrialFailure:
    """The structured record of a trial that failed every retry.

    Failures are values, exactly like results: frozen, picklable, and
    content-addressable, so a campaign can checkpoint them into the
    result store and a resumed run replays the failure instead of
    retrying the poisoned trial.  Every field must be deterministic for
    a deterministic fault source -- the failures section of a campaign
    report is under the same byte-identity contract as its successes.
    """

    #: How many attempts were made (initial try + retries).
    attempts: int
    #: The fault category observed on each failed attempt, in order
    #: (``raise`` / ``hang`` / ``timeout`` / ``garbage`` / ``worker-lost``).
    faults: Tuple[str, ...]
    #: The last attempt's failure description.
    error: str


class Step(NamedTuple):
    """One run of a :class:`Schedule`, after its hook: ``flush_tlb``,
    ``evict_tlb_realistic``, ``syscall_roundtrip`` (a ``Machine`` method) or None."""

    hook: Optional[str] = None
    lane: bool = False  # the trial's own registers (else the shared warm ones)
    timed: bool = False  # the run's r15 - r14 is a ToTE sample


class Schedule(NamedTuple):
    """A trial's one run sequence: its cached machine and program, the
    warm registers every step shares (a lane step's copy puts the
    trial's probed value in its kind's register), the ordered steps --
    those before the first lane step are the warm prefix -- and what a
    run sets up first (the channel's sender byte).  The scalar trial
    runs it, and a lockstep pack replays one recording of it."""

    machine: object
    program: object
    shared: Dict[str, int]
    steps: Sequence[Step]
    setup: Callable[[], None] = lambda: None


def run_steps(schedule: Schedule, regs, steps=None, record_trace=False) -> list:
    """The one step runner -- scalar trials, pack leaders and
    ``TetKaslr.probe_tote`` drive a machine through it: run *steps* (all
    of *schedule*'s by default) in order, each step's hook, then one
    ``machine.run`` with *regs* in a lane step, else the shared ones."""
    machine, program, shared = schedule.machine, schedule.program, schedule.shared
    results = []
    for step in schedule.steps if steps is None else steps:
        if step.hook is not None:
            getattr(machine, step.hook)()
        step_regs = regs if step.lane else shared
        results.append(machine.run(program, step_regs, record_trace=record_trace))
    return results


def timed_totes(steps: Sequence[Step], results: Sequence) -> Tuple[int, ...]:
    """Each timed step's ToTE sample: its run's ``r15 - r14``."""
    return tuple(
        result.regs.read("r15") - result.regs.read("r14")
        for step, result in zip(steps, results)
        if step.timed
    )


def trial_regs(trial, schedule: Schedule) -> Dict[str, int]:
    """*trial*'s lane-step registers: the shared ones, with its probed
    value in its kind's register."""
    kind = TRIAL_KINDS[type(trial)]
    return {**schedule.shared, kind.register: getattr(trial, kind.probe)}


def _run_scalar(trial) -> TrialResult:
    """Run *trial*'s schedule: the setup, the warm prefix (which
    :func:`_warm_start` may load instead), then the other steps on one
    continuing cycle timeline."""
    schedule = TRIAL_KINDS[type(trial)].schedule(trial)
    machine, steps = schedule.machine, schedule.steps
    warm = next((i for i, step in enumerate(steps) if step.lane), len(steps))
    regs = trial_regs(trial, schedule)
    schedule.setup()  # memory, not timing state: it is in the warm key
    _warm_start(machine, trial, lambda: run_steps(schedule, regs, steps[:warm]))
    results = run_steps(schedule, regs, steps[warm:])
    return TrialResult(timed_totes(steps[warm:], results), machine.core.global_cycle)


# -- TET-CC byte-scan trials ---------------------------------------------------


@dataclass(frozen=True)
class ChannelTrial:
    """Probe one test value of a TET-CC byte scan, *batches* times."""

    spec: MachineSpec
    byte: int
    test: int
    batches: int
    trial_index: int
    warmup: int = 2
    suppression: Optional[str] = None  # "tsx" | "signal" | None (model default)


def channel_trials(
    spec: MachineSpec,
    payload: bytes,
    batches: int = 3,
    values: Sequence[int] = range(256),
    suppression: Optional[str] = None,
    start_index: int = 0,
):
    """Expand a TET-CC transmission into trial payloads.

    Returns ``(pairs, next_index)`` where *pairs* is a list of
    ``(byte_position, ChannelTrial)`` covering every (payload byte x
    test value) probe, with trial indices allocated monotonically from
    *start_index* -- the same seed-index stream a live pooled channel
    consumes, so campaign replays and ``pool=`` runs agree sample for
    sample.
    """
    pairs = []
    index = start_index
    for position, byte in enumerate(payload):
        for test in values:
            pairs.append(
                (
                    position,
                    ChannelTrial(
                        spec=spec,
                        byte=byte,
                        test=test,
                        batches=batches,
                        trial_index=index,
                        suppression=suppression,
                    ),
                )
            )
            index += 1
    return pairs, index


def _build_channel_context(spec: MachineSpec, suppression: Optional[str]):
    from repro.whisper.gadgets import GadgetBuilder, Suppression

    machine = spec.build()
    builder = GadgetBuilder(
        machine,
        suppression=Suppression(suppression) if suppression else None,
    )
    program = builder.figure1()
    sender_page = machine.alloc_data()
    return machine, program, sender_page


_TRAIN, _PROBE = Step(), Step(lane=True, timed=True)


def _channel_schedule(trial: ChannelTrial) -> Schedule:
    """Figure 1's window: the setup writes the sender's byte, then per
    batch ``warmup`` training runs and the timed probe of the test value.

    The training runs use the can-never-match test value 256, training
    the gadget's Jcc exactly as the serial scan's non-matching neighbours
    do, so a matching probe mispredicts and lengthens the window.
    """
    machine, program, sender_page = trial_context(trial)

    def write_sender_byte() -> None:
        machine.write_data(sender_page, bytes([trial.byte & 0xFF]) + b"\x00" * 7)

    return Schedule(
        machine,
        program,
        {"r12": sender_page, "r13": NULL_POINTER, "r9": 256},
        ((_TRAIN,) * trial.warmup + (_PROBE,)) * trial.batches,
        write_sender_byte,
    )


def run_channel_trial(trial: ChannelTrial) -> TrialResult:
    """One TET-CC trial: its schedule, *batches* ToTE samples."""
    return _run_scalar(trial)


# -- TET-KASLR probe trials ----------------------------------------------------


@dataclass(frozen=True)
class KaslrTrial:
    """Double-probe one candidate kernel address."""

    spec: MachineSpec
    va: int
    cr3_switch: bool
    trial_index: int
    eviction: str = "direct"
    warm_probes: int = 1
    suppression: Optional[str] = None


#: The TET-KASLR scan shapes (§4.5): strategy -> (offset probed inside
#: each 2 MiB slot, whether a syscall round-trip switches CR3 between
#: the filling probe and the timed one).
KASLR_SCANS: Dict[str, Tuple[int, bool]] = {
    "slot-scan": (0, False),
    "kpti-trampoline": (KPTI_TRAMPOLINE_OFFSET, False),
    "flare-bypass": (KPTI_TRAMPOLINE_OFFSET, True),
}


def kaslr_strategy(defenses, strategy: str = "auto") -> str:
    """The :data:`KASLR_SCANS` entry *strategy* names.

    ``"auto"`` picks it from the ``flare`` / ``kpti`` flags of
    *defenses* -- a :class:`MachineSpec`, or a live machine's kernel --
    the way :meth:`TetKaslr.break_auto` does.
    """
    if strategy == "auto":
        if defenses.flare:
            return "flare-bypass"
        return "kpti-trampoline" if defenses.kpti else "slot-scan"
    if strategy not in KASLR_SCANS:
        raise ValueError(f"unknown KASLR strategy {strategy!r}")
    return strategy


def kaslr_trials(
    spec: MachineSpec,
    offset: int,
    cr3_switch: bool,
    eviction: str = "direct",
    suppression: Optional[str] = None,
    start_index: int = 0,
):
    """Expand one full 512-slot sweep of one scan shape into payloads.

    Returns ``(pairs, next_index)`` where *pairs* is a list of
    ``(slot, KaslrTrial)`` probing ``slot_base(slot) + offset``, with
    trial indices allocated monotonically from *start_index*.
    """
    pairs = [
        (
            slot,
            KaslrTrial(
                spec=spec,
                va=slot_base(slot) + offset,
                cr3_switch=cr3_switch,
                trial_index=start_index + slot,
                eviction=eviction,
                suppression=suppression,
            ),
        )
        for slot in range(KASLR_SLOTS)
    ]
    return pairs, start_index + KASLR_SLOTS


def kaslr_schedule(
    machine, program, eviction: str, cr3_switch: bool, warm_probes: int = 0
) -> Schedule:
    """§4.5's double-probe as steps: evict the TLB, fault on the address
    once (filling the TLB iff it is mapped), round-trip a syscall if
    *cr3_switch*, then the timed probe -- on the known-unmapped
    reference *warm_probes* times, then on the candidate in ``r13``.

    ``r9`` = 256 can never match a forwarded byte, so the probe's Jcc
    direction is constant and the classifier sees pure TLB timing.
    """
    evict = {"direct": "flush_tlb", "sets": "evict_tlb_realistic"}[eviction]
    switch = "syscall_roundtrip" if cr3_switch else None
    return Schedule(
        machine,
        program,
        {"r13": KASLR_UNMAPPED_REFERENCE, "r9": 256},
        (Step(evict), Step(switch)) * warm_probes
        + (Step(evict, lane=True), Step(switch, lane=True, timed=True)),
    )


def _build_kaslr_context(spec: MachineSpec, eviction: str, suppression: Optional[str]):
    # ``eviction`` keys the context without shaping it: a ``sets``
    # machine maps its eviction working set on its first eviction.
    if eviction not in ("direct", "sets"):
        raise ValueError(f"eviction must be 'direct' or 'sets', not {eviction!r}")
    from repro.whisper.gadgets import GadgetBuilder, Suppression

    machine = spec.build()
    suppression = Suppression(suppression) if suppression else None
    return machine, GadgetBuilder(machine, suppression=suppression).kaslr_probe()


def _kaslr_schedule(trial: KaslrTrial) -> Schedule:
    return kaslr_schedule(
        *trial_context(trial), trial.eviction, trial.cr3_switch, trial.warm_probes
    )


def run_kaslr_trial(trial: KaslrTrial) -> TrialResult:
    """One TET-KASLR trial: its schedule, one ToTE sample."""
    return _run_scalar(trial)


# -- detector observation-window trials ----------------------------------------


@dataclass(frozen=True)
class DetectTrial:
    """Run one detection scenario window and record its feature vector.

    The result's ``totes`` tuple is the packed
    :class:`~repro.defend.features.FeatureVector` (counter deltas in
    ``FEATURE_FIELDS`` order), so detector campaigns reuse the ordinary
    result store, shard/merge contract, and resume path unchanged.
    """

    spec: MachineSpec
    scenario: str
    trial_index: int


def _build_detect_context(spec: MachineSpec, scenario: str):
    from repro.defend.scenarios import get_scenario

    machine = spec.build()
    return machine, get_scenario(scenario).bind(machine)


def run_detect_trial(trial: DetectTrial) -> TrialResult:
    """One detect trial: reset, run the scenario window, read the counters.

    The scenario's behaviour stream is domain-separated from the ambient
    noise stream (``defend.<scenario>`` tag), so the same trial index in
    an attack cell and a benign cell draws unrelated randomness.
    """
    from repro.defend.features import FeatureVector

    machine, runner = trial_context(trial)
    machine.reset_uarch(noise_seed=trial.spec.trial_seed(trial.trial_index))
    rng = random.Random(
        derive_stream(trial.spec.seed, trial.trial_index, f"defend.{trial.scenario}")
    )
    runner(rng)
    features = FeatureVector.from_machine(machine)
    return TrialResult(totes=features.to_ints(), cycles=machine.core.global_cycle)


# -- the trial-kind table ------------------------------------------------------


class TrialKind(NamedTuple):
    """Everything the worker side knows about one payload type: a row of
    :data:`TRIAL_KINDS`."""

    #: The scalar trial function's name here, looked up at call time so
    #: a rebinding (the ledger's timing shims) sees every trial.
    runner: str
    #: An ``attrgetter`` of two or more fields that key the cached
    #: context, and the function that builds it from their values.
    context: Callable[[object], tuple]
    build: Callable[..., tuple]
    #: The field a sweep probes, and the register a lane step carries it in.
    probe: Optional[str] = None
    register: Optional[str] = None
    #: The trial's :class:`Schedule` (None: a trial function of its own,
    #: always scalar), and any rule beyond a noise-free spec for packs.
    schedule: Optional[Callable[[object], Schedule]] = None
    eligible: Optional[Callable[[object], bool]] = None


#: One row per payload type.  Detect trials stay scalar (per-trial
#: behaviour streams), and KASLR's ``sets`` eviction has per-address
#: set-conflict structure no shared leader trace covers.
TRIAL_KINDS: Dict[type, TrialKind] = {
    ChannelTrial: TrialKind(
        "run_channel_trial",
        attrgetter("spec", "suppression"),
        _build_channel_context,
        probe="test",
        register="r9",
        schedule=_channel_schedule,
    ),
    KaslrTrial: TrialKind(
        "run_kaslr_trial",
        attrgetter("spec", "eviction", "suppression"),
        _build_kaslr_context,
        probe="va",
        register="r13",
        schedule=_kaslr_schedule,
        eligible=lambda trial: trial.eviction == "direct",
    ),
    DetectTrial: TrialKind(
        "run_detect_trial", attrgetter("spec", "scenario"), _build_detect_context
    ),
}


def kind_of_runner(fn) -> Optional[TrialKind]:
    """The row whose scalar trial function *fn* is, as this module binds
    it now, or None."""
    for kind in TRIAL_KINDS.values():
        if fn is globals()[kind.runner]:
            return kind
    return None


#: Every kind's machine contexts, by the kind and its context fields.
_contexts: Dict[tuple, tuple] = {}


def trial_context(trial) -> tuple:
    """The per-process context *trial* runs on, built on first use: its
    machine, then whatever else its kind prepares once (the channel's
    program and sender page, the KASLR probe program, the detect
    scenario's bound runner)."""
    kind = TRIAL_KINDS[type(trial)]
    values = kind.context(trial)
    key = (type(trial), values)
    context = _contexts.get(key)
    if context is None:
        context = _contexts[key] = kind.build(*values)
    return context


# -- warm starts ---------------------------------------------------------------

#: Per payload type, the fields every trial of one cell shares: all but
#: the kind's probed field and ``trial_index``, which seeds only ambient
#: noise -- inert at zero amplitude.  A field added to a kind is shared
#: by default.  Warm starts key on them (kinds with a probe), and
#: ``campaign.store.trial_key`` spells their text once per cell.
SHARED_FIELDS: Dict[type, Tuple[str, ...]] = {
    payload: tuple(
        f.name for f in fields(payload) if f.name not in (kind.probe, "trial_index")
    )
    for payload, kind in TRIAL_KINDS.items()
}

_WARM_FIELDS = {
    payload: attrgetter(*SHARED_FIELDS[payload])
    for payload, kind in TRIAL_KINDS.items()
    if kind.probe is not None
}


def warm_key(trial) -> tuple:
    """The kind and every field of *trial* but its probed one and
    ``trial_index``.

    On a noise-free spec, trials with one key run the same warm prefix
    from the same boot state, so they leave the machine in the same state
    before their probes differ.  The key is also the lockstep engine's
    pack key (``runtime/batch.py``): a pack's lanes are such trials, and
    one recorded leader serves them all.
    """
    kind = type(trial)
    return kind, _WARM_FIELDS[kind](trial)


class WarmEntry(NamedTuple):
    """What one :func:`warm_key` paid for once: the post-warm-up machine
    state its scalar trials load, and the recorded pack leader
    (``runtime/batch.py:LeaderTrace``) its packs replay."""

    state: Optional[tuple] = None
    leader: Optional[object] = None


_NO_ENTRY = WarmEntry()

#: The warm memo: a :class:`WarmEntry` per :func:`warm_key`, least
#: recently used first.  A state holds 10-50 KB, and campaigns run each
#: key's trials together (a channel cell one byte at a time), so a few
#: entries serve.
_WARM_LIMIT = 8
_warm_memo: "OrderedDict[tuple, WarmEntry]" = OrderedDict()


def warm_get(key: tuple) -> WarmEntry:
    """*key*'s memo entry (an empty one if none), marked most recently
    used."""
    entry = _warm_memo.get(key)
    if entry is None:
        return _NO_ENTRY
    _warm_memo.move_to_end(key)
    return entry


def warm_put(key: tuple, **parts) -> None:
    """Save *parts* (``state=`` and/or ``leader=``) in *key*'s entry."""
    _warm_memo[key] = _warm_memo.pop(key, _NO_ENTRY)._replace(**parts)
    if len(_warm_memo) > _WARM_LIMIT:
        _warm_memo.popitem(last=False)


def _warm_start(machine, trial, warm_up: Callable[[], object]) -> None:
    """Bring *machine* to the state *trial*'s ``warm_up`` leaves it in.

    A noisy trial resets (reseeding its own noise stream) and runs the
    warm-up.  A noise-free one loads the state the first trial with its
    :func:`warm_key` saved -- identical, since neither the reset nor the
    warm-up reads the probed field or the trial seed -- and only the
    first one pays for the warm-up.  A state is saved only after the
    warm-up returns; a trial that raises leaves the memo as it was, and
    the next trial's load or reset repairs the machine.
    """
    noise_free = trial.spec.noise_amplitude == 0
    if noise_free:
        key = warm_key(trial)
        state = warm_get(key).state
        if state is not None:
            machine.load_uarch(state)
            return
    machine.reset_uarch(noise_seed=trial.spec.trial_seed(trial.trial_index))
    warm_up()
    if noise_free:
        warm_put(key, state=machine.save_uarch())


# -- dispatch ------------------------------------------------------------------


def _run_trial_observed(trial, kind: TrialKind, runner) -> TrialResult:
    """The telemetry-wrapped trial path (only entered when enabled).

    Span attributes are keyed by (trial seed, payload identity, simulated
    cycles) only -- nothing host- or worker-dependent -- so merged pooled
    traces are identical at any worker count.  Decode-plan cache stats are
    process-cumulative and therefore shipped as host-dependent counters,
    never as span attributes.
    """
    from repro.uarch.plan import PLAN_STATS

    builds_before = PLAN_STATS["builds"]
    hits_before = PLAN_STATS["hits"]
    with telemetry.span(
        "trial",
        kind=type(trial).__name__,
        index=trial.trial_index,
        seed=trial.spec.trial_seed(trial.trial_index),
    ) as span:
        with telemetry.span("core.run") as core_span:
            result = runner(trial)
            # The counters are read *after* the trial, off the machine it
            # ran on; a trial function that built no context has none.
            context = _contexts.get((type(trial), kind.context(trial)))
            if context is not None:
                counters = context[0].core.telemetry_counters()
                core_span.set(**counters)
                telemetry.add("core.cycles", counters["cycles"])
                telemetry.add("core.uops_issued", counters["uops_issued"])
                telemetry.add("core.uops_retired", counters["uops_retired"])
                telemetry.add("core.machine_clears", counters["machine_clears"])
                telemetry.add(
                    "core.recovery_cycles", counters["recovery_cycles"]
                )
                telemetry.add("core.llc_misses", counters["llc_misses"])
                telemetry.add("core.l1_misses", counters["l1_misses"])
                telemetry.add("core.clflushes", counters["clflushes"])
        span.set(cycles=result.cycles)
    telemetry.add(
        "core.decode_plan.builds",
        PLAN_STATS["builds"] - builds_before,
        det=False,
    )
    telemetry.add(
        "core.decode_plan.hits", PLAN_STATS["hits"] - hits_before, det=False
    )
    return result


def run_trial(trial) -> TrialResult:
    """Dispatch any known trial payload to its kind's trial function.

    Campaign batches mix trial kinds (an environment-matrix sweep carries
    channel scans and KASLR sweeps in one task list), so the pool needs a
    single module-level callable that routes on payload type.  With
    telemetry enabled the trial runs inside ``trial``/``core.run`` spans;
    disabled (the default), the only overhead is one module-attribute
    check.
    """
    kind = TRIAL_KINDS.get(type(trial))
    if kind is None:
        raise TypeError(f"unknown trial payload type: {type(trial).__name__}")
    runner = globals()[kind.runner]
    if not telemetry.enabled():
        return runner(trial)
    return _run_trial_observed(trial, kind, runner)


def clear_worker_contexts() -> None:
    """Drop all cached machines and the warm memo (tests that need cold
    workers)."""
    _contexts.clear()
    _warm_memo.clear()
