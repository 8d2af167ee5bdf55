"""Whole-system determinism: same seed, same everything.

The reproduction's claims are only auditable if every experiment replays
bit-for-bit.  These tests re-run representative experiments on freshly
built machines with identical seeds and require identical outcomes --
including the PMU counters and the cycle-exact timings.
"""

import os
import subprocess
import sys
from pathlib import Path

from repro.sim.machine import Machine
from repro.whisper.attacks.kaslr import TetKaslr
from repro.whisper.attacks.meltdown import TetMeltdown
from repro.whisper.channel import TetCovertChannel


def test_identical_runs_produce_identical_cycles():
    def run():
        machine = Machine("i7-7700", seed=77)
        program = machine.load_program("""
    mov rcx, 20
top:
    add rax, 3
    sub rcx, 1
    cmp rcx, 0
    jne top
    hlt
""")
        results = [machine.run(program) for _ in range(3)]
        return [(r.cycles, r.regs.read("rax")) for r in results]

    assert run() == run()


def test_identical_machines_have_identical_kaslr_layouts():
    first = Machine("i9-10980XE", seed=31337)
    second = Machine("i9-10980XE", seed=31337)
    assert first.kernel.layout.base == second.kernel.layout.base
    assert first.kernel.layout.symbols == second.kernel.layout.symbols


def test_machines_built_in_a_row_share_page_table_addresses():
    """Each kernel numbers its own table frames: a machine's page-table
    addresses do not depend on how many tables earlier machines made."""
    first = Machine("i7-7700", seed=5, kpti=True)
    second = Machine("i7-7700", seed=5, kpti=True)
    assert (
        first.kernel.kernel_space.root.table_paddr
        == second.kernel.kernel_space.root.table_paddr
    )
    assert first.process.space.root.table_paddr == second.process.space.root.table_paddr


#: Three unrelated machines first, then one ``sets``-eviction KASLR trial
#: on a cold worker context, twice, with one more machine built between
#: the runs: the eviction working set's walks read the table lines, so
#: table addresses that leaked between machines moved its cycles.
FRESH_INTERPRETER_TRIAL = """
from repro.kernel.layout import KPTI_TRAMPOLINE_OFFSET, slot_base
from repro.runtime.spec import MachineSpec
from repro.runtime.tasks import KaslrTrial, clear_worker_contexts, run_trial
from repro.sim.machine import Machine

for _ in range(3):
    Machine("i7-7700", seed=99)
trial = KaslrTrial(
    MachineSpec("i7-7700", seed=13, kpti=True),
    va=slot_base(3) + KPTI_TRAMPOLINE_OFFSET,
    cr3_switch=True,
    trial_index=1,
    eviction="sets",
)
clear_worker_contexts()
print(run_trial(trial))
Machine("i7-7700", seed=99)
clear_worker_contexts()
print(run_trial(trial))
"""


def test_trial_bytes_ignore_machines_built_before_it():
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    first, second = subprocess.run(
        [sys.executable, "-c", FRESH_INTERPRETER_TRIAL],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()
    assert first == second == "TrialResult(totes=(276,), cycles=63077)"


def test_different_seeds_randomise_the_layout():
    bases = {Machine("i7-7700", seed=s).kernel.layout.base for s in range(8)}
    assert len(bases) > 4


def test_channel_transmission_replays_exactly():
    def run():
        machine = Machine("i7-7700", seed=88)
        channel = TetCovertChannel(machine, batches=2)
        stats = channel.transmit(b"det")
        return stats.received, stats.cycles

    assert run() == run()


def test_attack_replays_including_pmu_state():
    def run():
        machine = Machine("i7-7700", seed=99, secret=b"REPLAY")
        result = TetMeltdown(machine, batches=2).leak(length=3)
        return result.data, result.cycles, machine.pmu.read("UOPS_ISSUED.ANY")

    assert run() == run()


def test_kaslr_break_replays_exactly():
    def run():
        machine = Machine("i9-10980XE", seed=55, kpti=True)
        result = TetKaslr(machine).break_kaslr_kpti()
        return result.found_base, result.cycles, tuple(sorted(result.totes_by_slot.items()))

    assert run() == run()


def test_tote_timeline_is_monotone_across_runs():
    machine = Machine("i7-7700", seed=66)
    program = machine.load_program("rdtsc\nmov r14, rax\nhlt")
    stamps = [machine.run(program).regs.read("r14") for _ in range(5)]
    assert stamps == sorted(stamps)
    assert len(set(stamps)) == 5
