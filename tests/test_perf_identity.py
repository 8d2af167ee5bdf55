"""Golden byte-identity: the hot-path overhaul must not move one ToTE.

The decode-plan cache, the copy-on-write speculation snapshots, the
inlined PMU/MMU fast paths and the pool's adaptive chunking are all
*timing-model-neutral* optimisations: they may only change how fast the
simulator computes a trial, never what the trial computes.  This module
pins that contract two ways:

* **golden constants**: ToTE tuples and cycle counts for fixed
  ``ChannelTrial``/``KaslrTrial`` payloads, captured from the
  pre-overhaul tree, and feature vectors for one ``DetectTrial`` window
  per detect scenario.  Any optimisation that shifts a number here has
  changed the simulated microarchitecture, not just its implementation.
* **execution-shape identity** (the ``w1``/``w8`` pattern from
  ``test_faults_chaos.py``): the same payload list run serially, pooled
  per-payload, and pooled with explicit chunking yields structurally
  equal results -- chunk grouping is scheduling, not semantics.

The lockstep batch executor joins the same contract: ``lanes``
{1, 4, 17} across serial, pooled and resumed (split-map) runs must all
yield the scalar bytes -- pack formation, like chunking, may only change
how trials are scheduled, never what they compute.
"""

import hashlib
import json

import pytest

from repro.runtime import TrialPool
from repro.runtime.spec import MachineSpec
from repro.runtime.tasks import (
    ChannelTrial,
    DetectTrial,
    KaslrTrial,
    run_trial,
    trial_context,
)
from repro.sim.machine import Machine

#: (model, seed, secret byte, test value, trial index) -> (totes, cycles),
#: captured before the hot-path overhaul landed.
GOLDEN_CHANNEL = [
    (("i7-7700", 1, 0x54, 0x54, 0), ((278, 278, 278), 4588)),
    (("i7-7700", 1, 0x54, 0x32, 1), ((270, 270, 270), 4564)),
    (("i7-7700", 1, 0xA7, 0x00, 5), ((270, 270, 270), 4564)),
    (("i9-13900K", 7, 0x54, 0x54, 0), ((556, 556, 556), 7075)),
    (("i9-13900K", 7, 0x54, 0x32, 1), ((547, 547, 547), 7048)),
    (("i9-13900K", 7, 0xA7, 0x00, 5), ((547, 547, 547), 7048)),
]

#: (va offset from the randomised base, cr3 switch, trial index) on an
#: ``i7-7700, seed=21, kaslr+kpti`` boot (base 0xFFFFFFFF8A800000).
GOLDEN_KASLR = [
    ((0x0, False, 0), ((270,), 10055)),
    ((0x0, True, 1), ((276,), 10142)),
    ((0x200000, False, 4), ((270,), 10055)),
]

KASLR_BASE = 0xFFFFFFFF8A800000

#: Table 3's rows, read by name from the trial machine's PMU bank after
#: each golden payload: the trigger-vs-quiet differential the paper's
#: toolset filters (``IDQ.DSB_CYCLES_OK`` stays 0 on these gadgets).
TABLE3_ROWS = (
    "MACHINE_CLEARS.COUNT",
    "INT_MISC.CLEAR_RESTEER_CYCLES",
    "INT_MISC.RECOVERY_CYCLES",
    "DTLB_LOAD_MISSES.WALK_ACTIVE",
    "IDQ.DSB_UOPS",
    "IDQ.MS_DSB_CYCLES",
    "IDQ.DSB_CYCLES_OK",
    "IDQ.DSB_CYCLES_ANY",
    "IDQ.MS_MITE_UOPS",
    "IDQ.ALL_MITE_CYCLES_ANY_UOPS",
    "IDQ.MS_UOPS",
)

#: Per golden payload (same order as GOLDEN_CHANNEL / GOLDEN_KASLR): the
#: TABLE3_ROWS values, and a digest of the whole nonzero PMU bank plus
#: ``core.telemetry_counters()`` (see :func:`_pmu_digest`).  Captured
#: before the dispatch-path rewrite of the core's PMU epilogue and its
#: fault and branch resolution paths.
GOLDEN_CHANNEL_PMU = [
    ((9, 182, 342, 804, 78, 54, 0, 62, 6, 5, 114), "3348ff7a17a99cb7"),
    ((9, 140, 288, 804, 75, 51, 0, 59, 6, 5, 108), "61536eaf9173f9a0"),
    ((9, 140, 288, 804, 75, 51, 0, 59, 6, 5, 108), "61536eaf9173f9a0"),
    ((9, 182, 336, 804, 91, 37, 0, 57, 4, 4, 78), "8023d57a24e1875e"),
    ((9, 140, 279, 804, 85, 34, 0, 51, 4, 4, 72), "538f18e432bc036b"),
    ((9, 140, 279, 804, 85, 34, 0, 51, 4, 4, 72), "538f18e432bc036b"),
]
GOLDEN_KASLR_PMU = [
    ((8, 112, 240, 609, 65, 43, 0, 29, 10, 3, 96), "39c359c126dfe751"),
    ((8, 112, 240, 624, 65, 43, 0, 29, 10, 3, 96), "0d4b15f6f7a2828a"),
    ((8, 112, 240, 609, 65, 43, 0, 29, 10, 3, 96), "39c359c126dfe751"),
]


#: (scenario, victim noise amplitude) -> (feature vector, cycles, PMU
#: digest) for ``DetectTrial(MachineSpec("i7-7700", seed=31,
#: noise_amplitude=noise), scenario, trial_index=3)``: one window of every
#: detect scenario, captured before the run envelope and memory path
#: were rewritten.  The Flush+Reload windows are 257 short runs each; the
#: noise-2 cells pin the order of the ambient-noise draws as well.
GOLDEN_DETECT = [
    (('fr-meltdown', 0), ((71140, 2570, 2563, 1, 28, 14, 257, 256, 257, 256), 71140, 'd508e2579555886a')),
    (('fr-meltdown', 2), ((71640, 2570, 2563, 1, 28, 14, 257, 256, 257, 256), 71640, 'e9407851cd6414bb')),
    (('fr-user', 0), ((71683, 2569, 2569, 0, 0, 0, 258, 257, 258, 256), 71683, 'd7c615d48dc78d11')),
    (('fr-user', 2), ((72199, 2569, 2569, 0, 0, 0, 258, 257, 258, 256), 72199, 'd13780f64ef6bde1')),
    (('tet-cc', 0), ((4258, 168, 96, 8, 258, 126, 9, 1, 1, 0), 4258, '69d0e62ff63620e1')),
    (('tet-cc', 2), ((4311, 168, 96, 8, 258, 126, 9, 1, 1, 0), 4311, 'f3aff2558fe0785e')),
    (('tet-md', 0), ((11888, 653, 324, 36, 1100, 518, 1, 0, 0, 0), 11888, '4034b7cd5056c35e')),
    (('tet-md', 2), ((11962, 651, 324, 36, 1098, 518, 1, 0, 0, 0), 11962, '01b7889b398987ed')),
    (('tet-kaslr', 0), ((10417, 168, 88, 8, 240, 112, 8, 0, 0, 0), 10417, '54d2af504623acde')),
    (('tet-kaslr', 2), ((10448, 168, 88, 8, 240, 112, 8, 0, 0, 0), 10448, 'a1efc59f54e1f5cd')),
    (('benign-compute', 0), ((1714, 1569, 1544, 0, 58, 70, 0, 0, 0, 0), 1714, 'a23b2331358280e4')),
    (('benign-compute', 2), ((2064, 1560, 1544, 0, 55, 70, 0, 0, 0, 0), 2064, 'a5de9152708d64b2')),
    (('benign-stream', 0), ((4226, 48, 48, 0, 0, 0, 12, 12, 15, 0), 4226, '41686499d45534a7')),
    (('benign-stream', 2), ((4277, 48, 48, 0, 0, 0, 12, 12, 15, 0), 4277, '72875fa88de3a2bf')),
    (('benign-fault', 0), ((3516, 15, 5, 5, 120, 70, 5, 0, 0, 0), 3516, '2cd1e4369e17fe36')),
    (('benign-fault', 2), ((3529, 15, 5, 5, 120, 70, 5, 0, 0, 0), 3529, 'f79ce7ea8a984893')),
]


def _channel_payload(model, seed, secret, test, index) -> ChannelTrial:
    return ChannelTrial(
        spec=MachineSpec(model, seed=seed),
        byte=secret,
        test=test,
        batches=3,
        trial_index=index,
    )


def _kaslr_payload(offset, cr3_switch, index) -> KaslrTrial:
    return KaslrTrial(
        spec=MachineSpec("i7-7700", seed=21, kaslr=True, kpti=True),
        va=KASLR_BASE + offset,
        cr3_switch=cr3_switch,
        trial_index=index,
        warm_probes=3,
    )


def _pmu_digest(core) -> str:
    """First 16 hex digits of the sha256 of the canonical JSON of
    ``[nonzero PMU bank, telemetry counters]``."""
    text = json.dumps(
        [core.pmu.nonzero(), core.telemetry_counters()], sort_keys=True
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _pmu_pin(trial):
    run_trial(trial)
    core = trial_context(trial)[0].core
    return tuple(core.pmu.read(name) for name in TABLE3_ROWS), _pmu_digest(core)


class TestGoldenConstants:
    @pytest.mark.parametrize("key,expected", GOLDEN_CHANNEL)
    def test_channel_trial_matches_pre_overhaul_bytes(self, key, expected):
        model, seed, secret, test, index = key
        result = run_trial(_channel_payload(model, seed, secret, test, index))
        assert (tuple(result.totes), result.cycles) == expected

    @pytest.mark.parametrize("key,expected", GOLDEN_KASLR)
    def test_kaslr_trial_matches_pre_overhaul_bytes(self, key, expected):
        machine = Machine("i7-7700", seed=21, kaslr=True, kpti=True)
        assert machine.kernel.layout.base == KASLR_BASE
        offset, cr3_switch, index = key
        trial = KaslrTrial(
            spec=MachineSpec.of(machine),
            va=KASLR_BASE + offset,
            cr3_switch=cr3_switch,
            trial_index=index,
            warm_probes=3,
        )
        result = run_trial(trial)
        assert (tuple(result.totes), result.cycles) == expected

    @pytest.mark.parametrize(
        "key,expected",
        [(key, pin) for (key, _), pin in zip(GOLDEN_CHANNEL, GOLDEN_CHANNEL_PMU)],
    )
    def test_channel_trial_pmu_bank(self, key, expected):
        assert _pmu_pin(_channel_payload(*key)) == expected

    @pytest.mark.parametrize(
        "key,expected",
        [(key, pin) for (key, _), pin in zip(GOLDEN_KASLR, GOLDEN_KASLR_PMU)],
    )
    def test_kaslr_trial_pmu_bank(self, key, expected):
        assert _pmu_pin(_kaslr_payload(*key)) == expected

    @pytest.mark.parametrize("key,expected", GOLDEN_DETECT)
    def test_detect_window_matches_golden(self, key, expected):
        scenario, noise = key
        trial = DetectTrial(
            spec=MachineSpec("i7-7700", seed=31, noise_amplitude=noise),
            scenario=scenario,
            trial_index=3,
        )
        result = run_trial(trial)
        core = trial_context(trial)[0].core
        assert (tuple(result.totes), result.cycles, _pmu_digest(core)) == expected


class TestExecutionShapeIdentity:
    """Serial vs pooled vs explicitly-chunked: same bytes, every shape."""

    def _payloads(self):
        spec = MachineSpec("i7-7700", seed=1)
        return [
            ChannelTrial(
                spec=spec, byte=0x54, test=test, batches=2, trial_index=test
            )
            for test in range(12)
        ]

    def test_serial_pooled_chunked_identical(self, monkeypatch):
        payloads = self._payloads()
        shapes = {}
        for label, kwargs in (
            ("serial", {"workers": 1}),
            ("pooled-2", {"workers": 2}),
            ("pooled-4", {"workers": 4}),
            ("chunked", {"workers": 2}),
        ):
            if label == "chunked":
                # 5-payload chunks from the first map on.
                monkeypatch.setattr(TrialPool, "_pick_chunk", lambda self, count: 5)
            with TrialPool(**kwargs) as pool:
                shapes[label] = pool.map(run_trial, payloads)
        assert shapes["serial"] == shapes["pooled-2"] == shapes["pooled-4"]
        assert shapes["serial"] == shapes["chunked"]

    def test_adaptive_chunking_is_invisible(self):
        """A second map on a warmed pool (where the adaptive heuristic
        may group payloads) matches the first (unchunked) map."""
        payloads = self._payloads()
        with TrialPool(workers=2) as pool:
            first = pool.map(run_trial, payloads)
            second = pool.map(run_trial, payloads)
        assert first == second


class TestBatchShapeIdentity:
    """Lockstep batching at {1, 4, 17} lanes: same bytes, every shape.

    17 deliberately exceeds the 12-payload cell (one undersized pack); 4
    splits the cell into ragged packs; 1 must be indistinguishable from
    no batching at all.
    """

    def _payloads(self):
        spec = MachineSpec("i7-7700", seed=1)
        return [
            ChannelTrial(
                spec=spec, byte=0x54, test=test, batches=2, trial_index=test
            )
            for test in range(12)
        ]

    def _scalar(self, payloads):
        with TrialPool(workers=1) as pool:
            return pool.map(run_trial, payloads)

    @pytest.mark.parametrize("lanes", [1, 4, 17])
    def test_serial_pooled_resumed_identical(self, lanes):
        payloads = self._payloads()
        scalar = self._scalar(payloads)
        shapes = {}
        for label, kwargs in (
            ("serial", {"workers": 1, "lanes": lanes}),
            ("pooled", {"workers": 4, "lanes": lanes}),
        ):
            with TrialPool(**kwargs) as pool:
                shapes[label] = pool.map(run_trial, payloads)
                assert pool.trials_executed == len(payloads)
        # "Resumed": a checkpoint boundary mid-scan -- the pool sees the
        # pending tail as a fresh map, so packs form over a different
        # payload stream than the cold run's.  Split at 5 to cut inside
        # a 4-lane pack.
        with TrialPool(workers=1, lanes=lanes) as pool:
            shapes["resumed"] = pool.map(run_trial, payloads[:5]) + pool.map(
                run_trial, payloads[5:]
            )
        for label, results in shapes.items():
            assert results == scalar, (lanes, label)

    def test_golden_constants_hold_under_batching(self):
        """The pre-overhaul golden bytes, through a 4-lane pack."""
        payloads = [
            _channel_payload(*key)
            for key, _ in GOLDEN_CHANNEL
            if key[0] == "i7-7700" and key[1] == 1
        ]
        with TrialPool(workers=1, lanes=4) as pool:
            results = pool.map(run_trial, payloads)
        expected = [
            value
            for key, value in GOLDEN_CHANNEL
            if key[0] == "i7-7700" and key[1] == 1
        ]
        assert [
            (tuple(result.totes), result.cycles) for result in results
        ] == expected


class TestKaslrBatchShapeIdentity:
    """KASLR packs at {1, 8, 17} lanes: same bytes, every shape.

    The translation shadow and the cross-pack leader trace cache may
    only reschedule a sweep, never move a ToTE or a cycle count.  The
    12-slot slice straddles the hidden image (slots 80..91 on the
    seed-21 boot), so it contains exactly one user-mapped candidate --
    the KPTI trampoline remnant at slot 91 -- exercising the
    eviction-plus-scalar-fallback path inside a live pack.
    """

    def _payloads(self):
        spec = MachineSpec("i7-7700", seed=21, kaslr=True, kpti=True)
        return [
            KaslrTrial(
                spec=spec,
                va=KASLR_BASE - 0x800000 + i * 0x200000,
                cr3_switch=False,
                trial_index=i,
            )
            for i in range(12)
        ]

    def _scalar(self, payloads):
        with TrialPool(workers=1) as pool:
            return pool.map(run_trial, payloads)

    @pytest.mark.parametrize("lanes", [1, 8, 17])
    def test_serial_pooled_resumed_identical(self, lanes):
        payloads = self._payloads()
        scalar = self._scalar(payloads)
        shapes = {}
        for label, kwargs in (
            ("serial", {"workers": 1, "lanes": lanes}),
            ("pooled", {"workers": 4, "lanes": lanes}),
        ):
            with TrialPool(**kwargs) as pool:
                shapes[label] = pool.map(run_trial, payloads)
                assert pool.trials_executed == len(payloads)
        # "Resumed" splits at 5, cutting inside an 8-lane pack -- the
        # warm second map also replays the first map's cached leader.
        with TrialPool(workers=1, lanes=lanes) as pool:
            shapes["resumed"] = pool.map(run_trial, payloads[:5]) + pool.map(
                run_trial, payloads[5:]
            )
        for label, results in shapes.items():
            assert results == scalar, (lanes, label)

    def test_golden_constants_hold_under_batching(self):
        """The pre-overhaul KASLR golden bytes through a live pack; the
        two cr3-free probes are adjacent so they share one."""
        order = [0, 2, 1]  # (0x0,False), (0x200000,False), (0x0,True)
        spec = MachineSpec("i7-7700", seed=21, kaslr=True, kpti=True)
        payloads = [
            KaslrTrial(
                spec=spec,
                va=KASLR_BASE + GOLDEN_KASLR[i][0][0],
                cr3_switch=GOLDEN_KASLR[i][0][1],
                trial_index=GOLDEN_KASLR[i][0][2],
                warm_probes=3,
            )
            for i in order
        ]
        with TrialPool(workers=1, lanes=4) as pool:
            results = pool.map(run_trial, payloads)
        assert [
            (tuple(result.totes), result.cycles) for result in results
        ] == [GOLDEN_KASLR[i][1] for i in order]
