"""Whisper: the transient-execution-timing (TET) side channel.

This package is the paper's contribution, built on the simulator
substrates:

* :mod:`repro.whisper.gadgets` -- the assembly gadget builders (Figure 1a,
  Listing 1, Listing 2 and the ZombieLoad variant).
* :mod:`repro.whisper.analysis` -- the argmax/argmin batch decoders and
  the bimodal ToTE classifier TET-KASLR uses.
* :mod:`repro.whisper.channel` -- TET-CC, the covert channel (§3.2, §4.1).
* :mod:`repro.whisper.attacks` -- TET-MD, TET-ZBL, TET-RSB, TET-KASLR.
* :mod:`repro.whisper.smt_channel` -- the SMT flush covert channel (§4.4).
* :mod:`repro.whisper.taxonomy` -- the side-channel comparison of Table 1.
"""

from repro import _exports

__getattr__, __dir__, __all__ = _exports.lazy(__name__, {
    ".analysis": ("ArgExtremeDecoder", "ByteScanResult", "classify_bimodal"),
    ".attacks.kaslr": ("KaslrBreakResult", "TetKaslr"),
    ".attacks.meltdown": ("TetMeltdown",),
    ".attacks.spectre_rsb": ("TetSpectreRsb",),
    ".attacks.spectre_v1": ("TetSpectreV1",),
    ".attacks.zombieload": ("TetZombieload",),
    ".calibration": ("ChannelCalibration", "calibrate_channel"),
    ".channel": ("ChannelStats", "TetCovertChannel"),
    ".exploit": ("ExploitPlan", "KernelExploitPlanner"),
    ".fast_channel": ("BinarySearchChannel",),
    ".gadgets": ("GadgetBuilder", "Suppression"),
    ".smt_channel": ("SmtChannelStats", "SmtCovertChannel"),
    ".taxonomy": ("TABLE1_ROWS", "AttackClass", "render_table1"),
})
