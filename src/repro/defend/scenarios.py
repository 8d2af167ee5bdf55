"""The traffic mix a detector is judged against: attack and benign scenarios.

The Survey of Transient Execution Attacks' critique of one-gadget
evaluations applies to defenses too: a detector scored only against the
window it was tuned on tells you nothing.  Each scenario here is one
*kind* of observation window -- a cache-channel attack leaking a byte, a
TET attack doing the same without touching a probe array, or a benign
workload that happens to share one of the attack's symptoms (streaming
misses, suppressed faults).  The ``e11-detect`` campaign crosses this
registry with victim/noise mixes so every trial doubles as a detector
sample.

A scenario is *bound* to a machine once (programs assembled, pages
allocated) and then run many times; each run is one observation window
driven purely by the per-trial RNG, so the resulting
:class:`~repro.defend.features.FeatureVector` is a function of
``(spec, scenario, trial_index)`` alone -- the detect-trial determinism
contract.

Taxonomy labels follow the paper's split: ``cache`` scenarios leave the
stateful footprint the E11 detector keys on, ``tet`` scenarios are the
transient-only channels that walk past it, ``benign`` is the background
traffic that sets the false-positive floor.  Training labels implement
the threat model honestly: the defender calibrates on cache attacks vs.
benign traffic (the published detectors' setting); TET scenarios are the
*held-out adversary*, never seen in training.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.kernel.layout import NULL_POINTER

_PAGE_SHIFT = 12

#: One bound scenario: call it with the per-trial RNG to run one window.
ScenarioRunner = Callable[[random.Random], None]


@dataclass(frozen=True)
class Scenario:
    """One entry in the detector's evaluation mix."""

    name: str
    #: ``cache`` | ``tet`` | ``benign`` -- the paper's attack-taxonomy split.
    taxonomy: str
    #: Whether the window is hostile at all (detection ground truth).
    attack: bool
    description: str
    #: Build the per-machine context; returns the window runner.
    bind: Callable[[object], ScenarioRunner]

    @property
    def training_label(self) -> Optional[bool]:
        """The calibration-time label, or None if held out of training.

        The defender can only train on what it knows about: cache-channel
        attacks (positive) against benign traffic (negative).  TET
        windows are the test-time adversary -- including them in training
        would assume the defense already knows the attack it is meant to
        discover.
        """
        if self.taxonomy == "cache":
            return True
        if self.taxonomy == "benign":
            return False
        return None


# -- cache-channel attacks (the detectable baseline) ---------------------------


def _bind_fr_meltdown(machine) -> ScenarioRunner:
    from repro.baselines.flush_reload import ClassicMeltdown

    attack = ClassicMeltdown(machine)

    def run(rng: random.Random) -> None:
        kernel = machine.kernel
        va = kernel.secret_va + rng.randrange(len(kernel.secret))
        machine.victim_touch(va)
        attack.channel.leak_byte(va)

    return run


def _bind_fr_user(machine) -> ScenarioRunner:
    from repro.baselines.flush_reload import FlushReloadChannel

    channel = FlushReloadChannel(machine)
    secret_page = machine.alloc_data()

    def run(rng: random.Random) -> None:
        machine.write_data(secret_page, bytes([rng.randrange(256)]) + b"\x00" * 7)
        channel.leak_byte(secret_page)

    return run


# -- TET attacks (the channel the rule-based defense cannot see) ---------------


def _bind_tet_cc(machine) -> ScenarioRunner:
    from repro.whisper.gadgets import GadgetBuilder

    builder = GadgetBuilder(machine)
    program = builder.figure1()
    sender_page = machine.alloc_data()

    def run(rng: random.Random) -> None:
        machine.write_data(sender_page, bytes([rng.randrange(256)]) + b"\x00" * 7)
        warm = {"r12": sender_page, "r13": NULL_POINTER, "r9": 256}
        reg_sets = [warm, warm] + [
            {"r12": sender_page, "r13": NULL_POINTER, "r9": rng.randrange(256)}
            for _ in range(6)
        ]
        machine.run_many(program, reg_sets)

    return run


def _bind_tet_md(machine) -> ScenarioRunner:
    from repro.whisper.attacks.meltdown import TetMeltdown

    attack = TetMeltdown(machine, batches=2, values=range(0, 256, 16))

    def run(rng: random.Random) -> None:
        # Warm-up must happen inside *every* window: the attack object is
        # long-lived per worker, and a first-window-only warm-up would
        # make features depend on which trial a worker ran first.
        attack._warmed = False
        kernel = machine.kernel
        attack.scan_byte(kernel.secret_va + rng.randrange(len(kernel.secret)))

    return run


def _bind_tet_kaslr(machine) -> ScenarioRunner:
    from repro.kernel.layout import KASLR_SLOTS, KASLR_UNMAPPED_REFERENCE, slot_base
    from repro.whisper.attacks.kaslr import TetKaslr

    attack = TetKaslr(machine)

    def run(rng: random.Random) -> None:
        attack.probe_tote(KASLR_UNMAPPED_REFERENCE)
        for _ in range(3):
            attack.probe_tote(slot_base(rng.randrange(KASLR_SLOTS)))

    return run


# -- benign traffic (the false-positive floor) ---------------------------------


def _bind_benign_compute(machine) -> ScenarioRunner:
    program = machine.load_program("""
    mov rcx, 64
compute_loop:
    add rax, 3
    shl rax, 1
    xor rax, rcx
    sub rcx, 1
    cmp rcx, 0
    jne compute_loop
    hlt
""")

    def run(rng: random.Random) -> None:
        for _ in range(4):
            machine.run(program, regs={"rax": rng.randrange(1 << 16)})

    return run


def _bind_benign_stream(machine) -> ScenarioRunner:
    # A working set larger than L1: streaming reads miss like an attack's
    # reload phase but never flush anything -- the workload that keeps a
    # miss-rate-only detector honest.
    base = machine.alloc_data(pages=16)
    program = machine.load_program("""
    load r8, [r13]
    hlt
""")

    def run(rng: random.Random) -> None:
        reg_sets = [
            {"r13": base + (rng.randrange(16) << _PAGE_SHIFT)} for _ in range(24)
        ]
        machine.run_many(program, reg_sets)

    return run


def _bind_benign_fault(machine) -> ScenarioRunner:
    from repro.whisper.gadgets import RESUME_LABEL

    # Suppressed faults without any channel: the GC/JIT-style traffic the
    # E11 rule deliberately tolerates (clears alone are normal behaviour).
    program = machine.load_program(f"""
    loadb r8, [r13]
{RESUME_LABEL}:
    hlt
""")
    machine.set_signal_handler(program, RESUME_LABEL)

    def run(rng: random.Random) -> None:
        for _ in range(2 + rng.randrange(4)):
            machine.run(program, regs={"r13": NULL_POINTER})

    return run


SCENARIOS: Dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            name="fr-meltdown",
            taxonomy="cache",
            attack=True,
            description="classic Meltdown over Flush+Reload, one kernel byte",
            bind=_bind_fr_meltdown,
        ),
        Scenario(
            name="fr-user",
            taxonomy="cache",
            attack=True,
            description="Flush+Reload covert channel on a user page",
            bind=_bind_fr_user,
        ),
        Scenario(
            name="tet-cc",
            taxonomy="tet",
            attack=True,
            description="Figure 1a TET covert channel, warmed probe burst",
            bind=_bind_tet_cc,
        ),
        Scenario(
            name="tet-md",
            taxonomy="tet",
            attack=True,
            description="TET-Meltdown byte scan (coarse value grid)",
            bind=_bind_tet_md,
        ),
        Scenario(
            name="tet-kaslr",
            taxonomy="tet",
            attack=True,
            description="TET-KASLR double-probe sweep over random slots",
            bind=_bind_tet_kaslr,
        ),
        Scenario(
            name="benign-compute",
            taxonomy="benign",
            attack=False,
            description="straight arithmetic loops, no memory pressure",
            bind=_bind_benign_compute,
        ),
        Scenario(
            name="benign-stream",
            taxonomy="benign",
            attack=False,
            description="streaming loads over a 16-page working set",
            bind=_bind_benign_stream,
        ),
        Scenario(
            name="benign-fault",
            taxonomy="benign",
            attack=False,
            description="suppressed-fault bursts (GC/JIT-style clears)",
            bind=_bind_benign_fault,
        ),
    )
}


def scenario_names() -> Tuple[str, ...]:
    return tuple(SCENARIOS)


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown detect scenario {name!r}; known: {', '.join(SCENARIOS)}"
        ) from None


__all__ = ["SCENARIOS", "Scenario", "ScenarioRunner", "get_scenario", "scenario_names"]
