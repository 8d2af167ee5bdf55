"""Byte-identity properties for the streaming detection tier.

The detector's determinism contract, stated structurally in
``repro.defend.online``, pinned here behaviourally:

* the fitted calibration and the full verdict list are byte-identical
  whether the campaign ran serially, pooled, or resumed from a partial
  store -- the runner's ``sink=`` hook feeds cached and fresh outcomes
  in different orders, and none of it shows;
* verdicts are invariant under arbitrary permutation of the ingestion
  order (Hypothesis when installed, a seeded-``random`` fallback
  otherwise -- the arrangement of ``test_faults_properties.py``);
* incremental per-shard ingestion (the coordinator's
  ingest-on-completion path) reads the same conclusions as a one-shot
  pass over the merged store;
* the slow golden: the full ``e11-detect`` defend report renders
  byte-identical from a single-host run and from a 3-way shard/merge.
"""

import random

import pytest

from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    ResultStore,
    Shard,
    builtin_campaign,
    detect_cell,
    trial_key,
)
from repro.defend import (
    StreamingDetector,
    build_defend_report,
    calibration_campaign,
    fit_calibration,
    training_samples,
)
from repro.distrib import merge_stores, run_shard
from repro.runtime import MachineSpec, TrialPool

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - depends on environment
    HAVE_HYPOTHESIS = False


def small_spec(name="defend-prop", trials=2):
    scenarios = ("fr-meltdown", "tet-cc", "benign-compute", "benign-stream")
    cells = tuple(
        detect_cell(
            MachineSpec(model="i7-7700", seed=700 + index),
            scenario=scenario,
            trials=trials,
        )
        for index, scenario in enumerate(scenarios)
    )
    return CampaignSpec(name=name, cells=cells)


def fit_on(spec, store):
    return fit_calibration(training_samples(spec, store))


def stream_run(spec, root, calibration, pool=None, warm_cells=0):
    """One execution topology: run *spec* with the detector attached.

    ``warm_cells`` pre-runs a sub-spec first, so the main run resumes --
    the sink then sees cached outcomes (replay order) before fresh ones
    (batch order).
    """
    store = ResultStore(str(root))
    if warm_cells:
        CampaignRunner(
            CampaignSpec(name=spec.name, cells=spec.cells[:warm_cells]),
            store=store,
        ).run()
    detector = StreamingDetector(calibration, spec)
    CampaignRunner(spec, store=store, pool=pool, sink=detector.sink).run()
    return detector, store


class TestTopologyIdentity:
    def test_serial_pooled_resumed_read_identical_conclusions(self, tmp_path):
        spec = small_spec()
        # Fit once on the serial store so every topology scores with the
        # same calibration; the fit itself is re-checked below.
        base = ResultStore(str(tmp_path / "fit"))
        CampaignRunner(spec, store=base).run()
        calibration = fit_on(spec, base)

        serial, serial_store = stream_run(spec, tmp_path / "serial", calibration)
        with TrialPool(workers=2) as pool:
            pooled, pooled_store = stream_run(
                spec, tmp_path / "pooled", calibration, pool=pool
            )
        resumed, resumed_store = stream_run(
            spec, tmp_path / "resumed", calibration, warm_cells=2
        )

        golden = serial.verdicts()
        assert pooled.verdicts() == golden
        assert resumed.verdicts() == golden
        assert (
            serial.detection_latencies()
            == pooled.detection_latencies()
            == resumed.detection_latencies()
        )
        # The fitted model is byte-identical too: training samples come
        # out of each store in expansion order regardless of how the
        # trials got there.
        fits = [fit_on(spec, s) for s in (serial_store, pooled_store, resumed_store)]
        assert {fit.to_json() for fit in fits} == {calibration.to_json()}
        texts = set()
        for detector in (serial, pooled, resumed):
            report = build_defend_report(detector, min_auc=0.95)
            texts.add((report.to_json(), report.render_text()))
        assert len(texts) == 1

    def test_incremental_shard_ingest_equals_one_shot(self, tmp_path):
        spec = small_spec()
        base = ResultStore(str(tmp_path / "fit"))
        CampaignRunner(spec, store=base).run()
        calibration = fit_on(spec, base)

        segments = []
        incremental = StreamingDetector(calibration, spec)
        for index in range(3):
            root = str(tmp_path / f"seg{index}")
            run_shard(spec, Shard(index, 3), root)
            segments.append(root)
            # One call per finished segment: a segment holds only its
            # own shard's trials.
            incremental.ingest_store(ResultStore(root))
        merged = str(tmp_path / "merged")
        merge_stores(segments, merged)
        one_shot = StreamingDetector(calibration, spec)
        one_shot.ingest_store(ResultStore(merged))

        assert incremental.verdicts() == one_shot.verdicts()
        assert (
            build_defend_report(incremental, min_auc=0.95).to_json()
            == build_defend_report(one_shot, min_auc=0.95).to_json()
        )


# -- ingestion-order invariance ------------------------------------------------


def check_order_invariance(pairs, calibration, spec, shuffle_seed):
    shuffled = list(pairs)
    random.Random(shuffle_seed).shuffle(shuffled)
    ordered = StreamingDetector(calibration, spec)
    permuted = StreamingDetector(calibration, spec)
    for ref, outcome in pairs:
        ordered.ingest(ref, outcome)
    for ref, outcome in shuffled:
        permuted.ingest(ref, outcome)
    assert permuted.verdicts() == ordered.verdicts()
    assert permuted.detection_latencies() == ordered.detection_latencies()


@pytest.fixture(scope="module")
def ingestion_pairs(tmp_path_factory):
    spec = small_spec(name="defend-order")
    store = ResultStore(str(tmp_path_factory.mktemp("order") / "store"))
    CampaignRunner(spec, store=store).run()
    refs = spec.expand()
    cached = store.get_many([trial_key(ref.trial) for ref in refs])
    pairs = [(ref, cached[trial_key(ref.trial)]) for ref in refs]
    # Duplicate a few pairs: at-least-once delivery must not double-count.
    pairs += pairs[::3]
    return spec, fit_on(spec, store), pairs


if HAVE_HYPOTHESIS:

    class TestOrderInvarianceHypothesis:
        @settings(max_examples=25, deadline=None)
        @given(shuffle_seed=st.integers(min_value=0, max_value=2**32 - 1))
        def test_any_arrival_order_same_verdicts(
            self, ingestion_pairs, shuffle_seed
        ):
            spec, calibration, pairs = ingestion_pairs
            check_order_invariance(pairs, calibration, spec, shuffle_seed)

else:  # pragma: no cover - depends on environment

    class TestOrderInvarianceFallback:
        def test_any_arrival_order_same_verdicts(self, ingestion_pairs):
            spec, calibration, pairs = ingestion_pairs
            for shuffle_seed in random.Random(2024).sample(range(10_000), 25):
                check_order_invariance(pairs, calibration, spec, shuffle_seed)


# -- the slow golden -----------------------------------------------------------


@pytest.mark.slow
class TestE11DetectGolden:
    def test_sharded_merge_report_bytes_match_single_host(self, tmp_path):
        train_spec = calibration_campaign()
        train_store = ResultStore(str(tmp_path / "train"))
        CampaignRunner(train_spec, store=train_store).run()
        calibration = fit_on(train_spec, train_store)

        spec = builtin_campaign("e11-detect")
        single = StreamingDetector(calibration, spec)
        single_store = ResultStore(str(tmp_path / "single"))
        CampaignRunner(spec, store=single_store, sink=single.sink).run()
        golden = build_defend_report(single, min_auc=0.95)

        segments = []
        for index in range(3):
            root = str(tmp_path / f"seg{index}")
            run_shard(spec, Shard(index, 3), root)
            segments.append(root)
        merged = str(tmp_path / "merged")
        merge_stores(segments, merged)
        sharded = StreamingDetector(calibration, spec)
        sharded.ingest_store(ResultStore(merged))
        report = build_defend_report(sharded, min_auc=0.95)

        assert report.to_json() == golden.to_json()
        assert report.render_text() == golden.render_text()
        assert golden.passed
