"""The TET side-channel attacks of §4: Meltdown, ZombieLoad, Spectre-RSB
and the KASLR break, each using Whisper as the covert channel instead of
Flush+Reload."""

from repro import _exports

__getattr__, __dir__, __all__ = _exports.lazy(__name__, {
    ".kaslr": ("KaslrBreakResult", "TetKaslr"),
    ".meltdown": ("LeakResult", "TetMeltdown"),
    ".spectre_rsb": ("TetSpectreRsb",),
    ".spectre_v1": ("TetSpectreV1",),
    ".zombieload": ("TetZombieload",),
})
