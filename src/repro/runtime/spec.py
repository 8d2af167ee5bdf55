"""Picklable machine recipes and deterministic trial-seed derivation.

A :class:`MachineSpec` is everything needed to rebuild a
:class:`~repro.sim.machine.Machine` inside a worker process: the CPU
model by name plus the boot flags.  Specs are frozen, hashable and
picklable, so they can key per-worker machine caches and travel inside
trial payloads.

Per-trial seeds are derived with a splitmix64-style mixer so that trial
*i* of a campaign sees the same noise stream no matter which worker runs
it, in what order, or how the campaign is chunked -- the property that
makes ``TrialPool(workers=1)`` and ``TrialPool(workers=8)`` produce
bit-identical ToTE distributions.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Optional

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def derive_seed(root: Optional[int], index: int) -> int:
    """Deterministically derive the seed for trial *index* of campaign *root*.

    splitmix64: sequential indices land in well-separated states, and the
    derivation depends only on ``(root, index)`` -- never on scheduling.
    """
    z = (((root or 0) & _MASK64) + (index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_stream(root: Optional[int], index: int, stream: str) -> int:
    """:func:`derive_seed` with domain separation.

    Different consumers of the same root seed (trial noise, fault
    decisions, backoff jitter) must not read the same splitmix64 states,
    or injecting a fault would perturb the trial it was injected into.
    The *stream* tag is folded into the root, giving each consumer its
    own well-separated sequence while staying a pure function of
    ``(root, index, stream)``.
    """
    tag = int.from_bytes(hashlib.sha256(stream.encode()).digest()[:8], "big")
    return derive_seed(((root or 0) ^ tag) & _MASK64, index)


@dataclass(frozen=True)
class MachineSpec:
    """A frozen, picklable recipe for one simulated machine."""

    model: str = "i7-7700"
    kaslr: bool = True
    kpti: bool = False
    flare: bool = False
    fgkaslr: bool = False
    seed: Optional[int] = None
    flare_coverage: str = "probe-offsets"
    secret: Optional[bytes] = None
    container: bool = False
    noise_amplitude: int = 0

    def build(self):
        """Construct the machine this spec describes."""
        from repro.sim.machine import Machine

        return Machine(**dataclasses.asdict(self))

    @classmethod
    def of(cls, machine) -> "MachineSpec":
        """Recover the spec a live machine was built from.

        A machine built with ``seed=None`` has no spec: its KASLR layout
        was drawn at random, so a worker rebuilding it would simulate
        another machine.  Such a machine raises ``ValueError``.
        """
        if machine.init_args["seed"] is None:
            raise ValueError(
                "a machine built with seed=None cannot be rebuilt in a worker; "
                "pass seed= to Machine(...)"
            )
        return cls(**machine.init_args)

    def trial_seed(self, index: int) -> int:
        """The derived seed for trial *index* under this spec."""
        return derive_seed(self.seed, index)

    def replace(self, **changes) -> "MachineSpec":
        """A copy of this spec with *changes* applied."""
        return dataclasses.replace(self, **changes)
