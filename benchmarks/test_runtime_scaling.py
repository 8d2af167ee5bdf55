"""E-RT -- runtime scaling: the trial pool versus the serial executor.

Fans one TET-CC byte-scan campaign across 1 and 4 worker processes and
records the wall-clock speedup.  Two shapes are asserted:

* **determinism**: the 4-worker scan equals the 1-worker scan, sample
  for sample (the TrialPool contract -- parallelism must be free of
  statistical cost);
* **speedup > 1.0 -- but only where it is physically possible**: on a
  multi-CPU host the fan-out must beat the serial path; on a single-CPU
  host process fan-out can only pipeline, so the assertion is skipped
  with a logged warning and the measurement is recorded either way.

The second axis is the lockstep batch executor: the same campaign cell
stepped 1, 4 and 16 lanes at a time in one process.  Unlike process
fan-out, batching shares leader work *within* the interpreter, so its
speedup does not depend on host CPU count and is asserted
unconditionally at 4+ lanes (the measured ratio is recorded either way;
only hard-to-time hosts get the ``_advisory`` spelling).
"""

import time
import warnings

from benchmarks.conftest import banner, emit, emit_metric
from repro.perf import cell_payloads
from repro.runtime import TrialPool, default_workers, tasks
from repro.runtime.batch import BatchStats, leader_cache_enabled, run_trials_batched
from repro.runtime.tasks import clear_worker_contexts, run_trial
from repro.sim.machine import Machine
from repro.whisper.channel import TetCovertChannel

PAYLOAD = b"\x13\x9c\x55\xe0"
WORKER_COUNTS = (1, 4)
BATCH_SIZES = (1, 4, 16)


def run_scan(workers: int):
    machine = Machine("i7-7700", seed=4100)
    with TrialPool(workers=workers) as pool:
        channel = TetCovertChannel(machine, batches=3, pool=pool)
        start = time.perf_counter()
        stats = channel.transmit(PAYLOAD)
        elapsed = time.perf_counter() - start
    return stats, elapsed


def run_all():
    return {workers: run_scan(workers) for workers in WORKER_COUNTS}


def test_runtime_scaling(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    serial_stats, serial_wall = results[1]
    parallel_stats, parallel_wall = results[4]
    speedup = serial_wall / parallel_wall if parallel_wall else float("nan")

    host_cpus = default_workers()
    banner("runtime -- TrialPool scaling (TET-CC byte scan, 4-byte payload)")
    emit(f"host CPUs: {host_cpus}")
    emit(f"{'workers':>8} {'wall':>10} {'received':>12} {'error':>8}")
    for workers in WORKER_COUNTS:
        stats, wall = results[workers]
        emit(
            f"{workers:>8} {wall:>9.3f}s {stats.received.hex():>12} "
            f"{stats.error_rate:>8.2%}"
        )
    emit("")
    if host_cpus == 1:
        emit(
            f"speedup at 4 workers: {speedup:.2f}x "
            "(recorded only: single-CPU host, fan-out cannot scale)"
        )
    else:
        emit(f"speedup at 4 workers: {speedup:.2f}x (asserted > 1.0)")

    emit_metric("runtime_scaling", "host_cpus", host_cpus)
    emit_metric("runtime_scaling", "serial_wall_seconds", serial_wall)
    emit_metric("runtime_scaling", "parallel_wall_seconds", parallel_wall)
    # On a single-CPU host the speedup is physically meaningless (process
    # fan-out cannot scale), so it is recorded under an *_advisory name:
    # anything trending the plain metric would otherwise read the ~1.0x
    # single-CPU number as a parallelism regression.
    if host_cpus == 1:
        emit_metric("runtime_scaling", "speedup_4_workers_advisory", speedup)
    else:
        emit_metric("runtime_scaling", "speedup_4_workers", speedup)
    emit_metric("runtime_scaling", "speedup_asserted", host_cpus > 1)
    emit_metric("runtime_scaling", "error_rate", parallel_stats.error_rate)

    # The determinism contract is the hard assertion.
    assert serial_stats.received == parallel_stats.received == PAYLOAD
    assert serial_stats.error_rate == parallel_stats.error_rate == 0.0
    assert serial_stats.cycles == parallel_stats.cycles
    assert speedup > 0
    if host_cpus == 1:
        warnings.warn(
            f"runtime-scaling speedup assertion skipped: host exposes a "
            f"single CPU (measured {speedup:.2f}x, recorded to the "
            f"reproduction report)"
        )
    else:
        assert speedup > 1.0, (
            f"4-worker fan-out must beat serial on a {host_cpus}-CPU host "
            f"(measured {speedup:.2f}x)"
        )


def timed_batched(payloads, batch: int):
    """Time *payloads* through the batch executor at *batch* lanes.

    The warm-up fills the worker context and the decode caches, but its
    packs share the timed packs' warm key, so the warm memo is cleared
    before the timed pass: otherwise every timed pack would replay the
    warm-up's recorded leader.  The timed pass counts into its own
    ``BatchStats``, and at least one leader-cache miss pins the fix.
    """
    clear_worker_contexts()
    run_trials_batched(payloads[:3], batch)
    tasks._warm_memo.clear()
    stats = BatchStats()
    start = time.perf_counter()
    results = run_trials_batched(payloads, batch, stats)
    elapsed = time.perf_counter() - start
    if batch > 1 and leader_cache_enabled():
        assert stats.leader_cache_misses >= 1, (
            f"batch {batch}: the timed pass replayed the warm-up's leader"
        )
    return results, elapsed, stats


def run_batched_cell(batch: int):
    """One e3-matrix cell through the batch executor at *batch* lanes."""
    return timed_batched(cell_payloads("e3-matrix", 0, limit=48), batch)


def test_batch_scaling(benchmark):
    results = benchmark.pedantic(
        lambda: {batch: run_batched_cell(batch) for batch in BATCH_SIZES},
        rounds=1,
        iterations=1,
    )

    scalar_results, scalar_wall, _ = results[1]
    banner("runtime -- lockstep batch scaling (e3-matrix cell 0, 48 trials)")
    emit(f"{'lanes':>8} {'wall':>10} {'speedup':>8} {'packs':>6} {'evicted':>8}")
    emit_metric("batch_scaling", "trials", len(scalar_results))
    for batch in BATCH_SIZES:
        batch_results, wall, stats = results[batch]
        speedup = scalar_wall / wall if wall else float("nan")
        emit(
            f"{batch:>8} {wall:>9.3f}s {speedup:>7.2f}x {stats.packs:>6} "
            f"{stats.evicted_lanes:>8}"
        )
        emit_metric("batch_scaling", f"wall_seconds_batch_{batch}", wall)
        if batch > 1:
            emit_metric("batch_scaling", f"speedup_batch_{batch}", speedup)
        # The determinism contract is the hard assertion: every lane
        # count computes the scalar bytes.
        assert batch_results == scalar_results, f"batch {batch} diverged"
    speedup_4 = scalar_wall / results[4][1]
    speedup_16 = scalar_wall / results[16][1]
    # In-process lockstep sharing is host-CPU-count independent; the
    # floors are far under the measured ~3.6x/13x so host noise cannot
    # flake them.
    assert speedup_4 > 1.5, f"4-lane packs must beat scalar ({speedup_4:.2f}x)"
    assert speedup_16 > 2.5, f"16-lane packs must beat scalar ({speedup_16:.2f}x)"
    assert speedup_16 > speedup_4, "wider packs must amortise more leader work"


def run_batched_kaslr_cell(batch: int):
    """One e9-kaslr cell slice through the batch executor at *batch*
    lanes: translation-shadow packs plus the leader trace cache."""
    return timed_batched(cell_payloads("e9-kaslr", 0, limit=64), batch)


def test_kaslr_batch_scaling(benchmark):
    results = benchmark.pedantic(
        lambda: {batch: run_batched_kaslr_cell(batch) for batch in BATCH_SIZES},
        rounds=1,
        iterations=1,
    )

    scalar_results, scalar_wall, _ = results[1]
    banner(
        "runtime -- KASLR lockstep batch scaling (e9-kaslr cell 0, 64 trials)"
    )
    emit(
        f"{'lanes':>8} {'wall':>10} {'speedup':>8} {'packs':>6} "
        f"{'evicted':>8} {'cache h/m':>10}"
    )
    emit_metric("kaslr_batch_scaling", "trials", len(scalar_results))
    for batch in BATCH_SIZES:
        batch_results, wall, stats = results[batch]
        speedup = scalar_wall / wall if wall else float("nan")
        cache = f"{stats.leader_cache_hits}/{stats.leader_cache_misses}"
        emit(
            f"{batch:>8} {wall:>9.3f}s {speedup:>7.2f}x {stats.packs:>6} "
            f"{stats.evicted_lanes:>8} {cache:>10}"
        )
        emit_metric("kaslr_batch_scaling", f"wall_seconds_batch_{batch}", wall)
        if batch > 1:
            emit_metric("kaslr_batch_scaling", f"speedup_batch_{batch}", speedup)
            emit_metric(
                "kaslr_batch_scaling",
                f"leader_cache_hits_batch_{batch}",
                stats.leader_cache_hits,
            )
        # The determinism contract is the hard assertion: every lane
        # count computes the scalar bytes.
        assert batch_results == scalar_results, f"kaslr batch {batch} diverged"
    speedup_4 = scalar_wall / results[4][1]
    speedup_16 = scalar_wall / results[16][1]
    # KASLR packs amortise far more than channel packs (the sweep's
    # unmapped slots are walk-isomorphic and the leader trace cache
    # removes whole executions); the acceptance floor is 3x at 8 lanes,
    # so 4/16 lanes get proportionate conservative floors.
    assert speedup_4 > 2.0, f"4-lane packs must beat scalar ({speedup_4:.2f}x)"
    assert speedup_16 > 4.0, (
        f"16-lane packs must beat scalar ({speedup_16:.2f}x)"
    )
    assert speedup_16 > speedup_4, "wider packs must amortise more leader work"
