"""E3 -- Table 2: environment and experiments (the attack × CPU matrix).

Runs every TET attack on every simulated machine and prints the ✓/✗
matrix next to the paper's verdicts.  Cells the paper marks "?" (not
verified) are reported with our simulator's outcome but not asserted.
"""

from benchmarks.conftest import banner, emit
from repro.campaign.builtin import MATRIX_CPUS
from repro.sim.machine import Machine
from repro.whisper.attacks.kaslr import TetKaslr
from repro.whisper.attacks.meltdown import TetMeltdown
from repro.whisper.attacks.spectre_rsb import TetSpectreRsb
from repro.whisper.attacks.zombieload import TetZombieload
from repro.whisper.channel import TetCovertChannel

ATTACKS = ("TET-CC", "TET-MD", "TET-ZBL", "TET-RSB", "TET-KASLR")

#: Table 2 verdicts: True=✓, False=✗, None=? (not verified by the paper).
PAPER = {
    "i7-6700": {"TET-CC": True, "TET-MD": True, "TET-ZBL": True, "TET-RSB": True, "TET-KASLR": True},
    "i7-7700": {"TET-CC": True, "TET-MD": True, "TET-ZBL": True, "TET-RSB": True, "TET-KASLR": True},
    "i9-10980XE": {"TET-CC": True, "TET-MD": False, "TET-ZBL": False, "TET-RSB": None, "TET-KASLR": True},
    "i9-13900K": {"TET-CC": True, "TET-MD": False, "TET-ZBL": False, "TET-RSB": True, "TET-KASLR": None},
    "ryzen-5600G": {"TET-CC": True, "TET-MD": False, "TET-ZBL": False, "TET-RSB": None, "TET-KASLR": False},
}

SECRET = b"T2!"


def run_cell(cpu: str, attack: str) -> bool:
    machine = Machine(cpu, seed=4242, secret=SECRET)
    if attack == "TET-CC":
        return TetCovertChannel(machine, batches=3).transmit(SECRET).error_rate == 0.0
    if attack == "TET-MD":
        return TetMeltdown(machine, batches=3).leak(length=len(SECRET)).success
    if attack == "TET-ZBL":
        zbl = TetZombieload(machine, batches=5)
        zbl.install_victim_secret(SECRET)
        return zbl.leak().success
    if attack == "TET-RSB":
        rsb = TetSpectreRsb(machine)
        rsb.install_secret(SECRET)
        return rsb.leak().success
    if attack == "TET-KASLR":
        return TetKaslr(machine).break_kaslr().success
    raise ValueError(attack)


def run_matrix():
    return {
        cpu: {attack: run_cell(cpu, attack) for attack in ATTACKS}
        for cpu in MATRIX_CPUS
    }


def glyph(value):
    if value is None:
        return "?"
    return "Y" if value else "x"


def test_table2_environment_and_experiments(benchmark):
    matrix = benchmark.pedantic(run_matrix, rounds=1, iterations=1)

    banner("Table 2 -- Environment and experiments (ours vs paper)")
    header = f"{'CPU':14} " + " ".join(f"{a:>16}" for a in ATTACKS)
    emit(header)
    emit("-" * len(header))
    for cpu in MATRIX_CPUS:
        cells = []
        for attack in ATTACKS:
            ours = glyph(matrix[cpu][attack])
            paper = glyph(PAPER[cpu][attack])
            cells.append(f"{f'{ours} (paper {paper})':>16}")
        emit(f"{cpu:14} " + " ".join(cells))
    emit("")
    emit("Y = attack succeeds, x = fails, ? = not verified in the paper")

    mismatches = [
        (cpu, attack)
        for cpu in MATRIX_CPUS
        for attack in ATTACKS
        if PAPER[cpu][attack] is not None and matrix[cpu][attack] != PAPER[cpu][attack]
    ]
    assert not mismatches, f"matrix cells diverge from Table 2: {mismatches}"
