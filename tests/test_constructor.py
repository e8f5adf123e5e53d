import os
import sys
import threading
import time

import numpy as np
import pytest

from cluster_mlp import metrics, mlp
from cluster_mlp.clustering import Algorithm, DbscanConfig, MeanShiftConfig, XMeansConfig
from cluster_mlp.constructor import (
    PipelineConfig,
    PipelineError,
    construct_architecture,
    kmin_stability,
    prepare,
    run_pipeline,
    sweep_hidden,
    timed_clustering,
)
from cluster_mlp.dataset import (
    CleaningPolicy,
    Dataset,
    SplitSpec,
    TargetFn,
    apply_normalization,
    clean_sentinels,
    filter_labeled,
    fit_normalization,
    synth_blobs,
)
from cluster_mlp.metrics import metric_block
from cluster_mlp.mlp import NetworkSpec, TrainConfig

FAST_TRAIN = TrainConfig(max_iter=60)


def xmeans_cfg(kmin=2, kmax=20, seed=0, **kw):
    return PipelineConfig(
        xmeans=XMeansConfig(kmin=kmin, kmax=kmax, seed=seed),
        train_cfg=FAST_TRAIN,
        **kw,
    )


class TestPipelineConfig:
    def test_rejects_extra_algorithm_configs(self):
        with pytest.raises(ValueError, match="more than one"):
            PipelineConfig(
                xmeans=XMeansConfig(),
                dbscan=DbscanConfig(eps=1.0, min_pts=2),
            )

    def test_set_config_names_the_algorithm(self):
        assert PipelineConfig().algorithm is Algorithm.XMEANS
        assert PipelineConfig().xmeans == XMeansConfig()
        cfg = PipelineConfig(dbscan=DbscanConfig(eps=1.0, min_pts=2))
        assert cfg.algorithm is Algorithm.DBSCAN and cfg.xmeans is None
        assert PipelineConfig(meanshift=MeanShiftConfig(bandwidth=1.0)).algorithm is Algorithm.MEANSHIFT


class TestConstructArchitecture:
    def test_blob_count_sets_width(self):
        ds = synth_blobs(4, 30, 3, 30.0, 1.0, seed=0)
        norm = apply_normalization(ds, fit_normalization(ds))
        spec, result = construct_architecture(norm, xmeans_cfg())
        assert spec.hidden_width == result.k == 4
        assert spec.input_width == 3

    def test_single_cluster_gives_minimal_architecture(self):
        ds = synth_blobs(1, 40, 2, 5.0, 1.0, seed=0)
        norm = apply_normalization(ds, fit_normalization(ds))
        spec, _ = construct_architecture(norm, xmeans_cfg(kmin=1, kmax=1))
        assert spec.hidden_width == 1

    def test_targets_do_not_affect_clustering(self):
        ds = synth_blobs(3, 30, 2, 30.0, 1.0, seed=2)
        norm = apply_normalization(ds, fit_normalization(ds))
        shuffled_targets = Dataset(
            features=norm.features.copy(),
            targets=norm.targets[::-1].copy(),
            feature_names=norm.feature_names,
            row_ids=norm.row_ids,
        )
        spec_a, ra = construct_architecture(norm, xmeans_cfg())
        spec_b, rb = construct_architecture(shuffled_targets, xmeans_cfg())
        assert spec_a == spec_b
        assert np.array_equal(ra.labels, rb.labels)

    def test_all_noise_dbscan_propagates(self):
        ds = synth_blobs(2, 3, 2, 50.0, 0.01, seed=0)
        norm = apply_normalization(ds, fit_normalization(ds))
        cfg = PipelineConfig(
            dbscan=DbscanConfig(eps=1e-9, min_pts=3),
            train_cfg=FAST_TRAIN,
        )
        from cluster_mlp.clustering import ClusteringError

        with pytest.raises(ClusteringError, match="no clusters"):
            construct_architecture(norm, cfg)


class TestRunPipeline:
    def test_blob_recovery_report(self):
        ds = synth_blobs(5, 40, 3, 30.0, 1.0, seed=7)
        report = run_pipeline(ds, xmeans_cfg())
        assert abs(report.k - 5) <= 1
        assert report.spec.hidden_width == report.k
        assert report.clustering_seconds >= 0
        assert report.training_seconds >= 0
        assert report.metrics_validation is not None

    def test_deterministic(self):
        ds = synth_blobs(3, 30, 2, 30.0, 1.0, seed=3)
        a = run_pipeline(ds, xmeans_cfg())
        b = run_pipeline(ds, xmeans_cfg())
        assert a.k == b.k
        assert a.metrics_test == b.metrics_test
        assert a.metrics_train == b.metrics_train

    def test_test_rows_never_influence_architecture(self):
        ds = synth_blobs(3, 40, 2, 30.0, 1.0, seed=4)
        cfg = xmeans_cfg()
        base = run_pipeline(ds, cfg)

        # perturb only rows that land in the test split
        _, test = __import__("cluster_mlp.dataset", fromlist=["holdout_split"]).holdout_split(
            ds, cfg.split
        )
        test_ids = set(test.row_ids)
        feats = ds.features.copy()
        for i, rid in enumerate(ds.row_ids):
            if rid in test_ids:
                feats[i] += 0.01
        perturbed = Dataset(
            features=feats,
            targets=ds.targets.copy(),
            feature_names=ds.feature_names,
            row_ids=ds.row_ids,
        )
        assert run_pipeline(perturbed, cfg).k == base.k

    def test_stage_annotation_on_error(self):
        ds = synth_blobs(2, 2, 2, 10.0, 0.5, seed=0)
        bad = Dataset(
            features=ds.features.copy(),
            targets=np.full(4, -9.999),
            feature_names=ds.feature_names,
            row_ids=ds.row_ids,
        )
        with pytest.raises(PipelineError, match="cleaning"):
            run_pipeline(bad, xmeans_cfg())

    def test_meanshift_pipeline(self):
        ds = synth_blobs(2, 40, 2, 30.0, 1.0, seed=5)
        cfg = PipelineConfig(
            meanshift=MeanShiftConfig(bandwidth=1.0),
            train_cfg=FAST_TRAIN,
        )
        report = run_pipeline(ds, cfg)
        assert report.k == 2

    def test_report_carries_the_trained_model(self):
        ds = synth_blobs(3, 30, 2, 30.0, 1.0, seed=3)
        cfg = xmeans_cfg()
        report = run_pipeline(ds, cfg)
        _, test_raw, _ = prepare(ds, cfg.split, cfg.cleaning)
        pred = mlp.predict(report.model, test_raw)
        assert metric_block(pred, test_raw.targets) == report.metrics_test
        assert report.model.spec == report.spec
        assert "model" not in repr(report)

    def test_training_failure_names_the_stage(self, monkeypatch):
        def fail(*args, **kwargs):
            raise mlp.NumericalError("non-finite loss")

        monkeypatch.setattr(mlp, "train", fail)
        with pytest.raises(PipelineError, match="training") as info:
            run_pipeline(synth_blobs(3, 30, 2, 30.0, 1.0, seed=3), xmeans_cfg())
        assert info.value.stage == "training"


class TestTimedClustering:
    def test_returns_the_architecture_and_its_time(self):
        ds = synth_blobs(4, 30, 3, 30.0, 1.0, seed=0)
        norm = apply_normalization(ds, fit_normalization(ds))
        spec, result, seconds = timed_clustering(norm, xmeans_cfg())
        spec_direct, direct = construct_architecture(norm, xmeans_cfg())
        assert spec == spec_direct and spec.hidden_width == 4
        assert np.array_equal(result.labels, direct.labels)
        assert seconds >= 0

    def test_all_noise_dbscan_names_the_stage(self):
        ds = synth_blobs(2, 3, 2, 50.0, 0.01, seed=0)
        norm = apply_normalization(ds, fit_normalization(ds))
        cfg = PipelineConfig(dbscan=DbscanConfig(eps=1e-9, min_pts=3))
        with pytest.raises(PipelineError, match="no clusters") as info:
            timed_clustering(norm, cfg)
        assert info.value.stage == "clustering"


def with_sentinels(ds, rows, feature_rows):
    """ds with the missing-target sentinel on `rows` and the feature
    sentinel 99.0 in column 0 of `feature_rows`."""
    features, targets = ds.features.copy(), ds.targets.copy()
    targets[rows] = -9.999
    features[feature_rows, 0] = 99.0
    return Dataset(
        features=features,
        targets=targets,
        feature_names=ds.feature_names,
        row_ids=ds.row_ids,
    )


class TestPrepare:
    def test_cleans_splits_and_fits_on_train(self):
        ds = with_sentinels(synth_blobs(3, 30, 2, 20.0, 1.0, seed=0), [0, 5], [7])
        train, test, norm = prepare(ds, SplitSpec(0.7, 0), CleaningPolicy())
        assert train.n + test.n == ds.n - 3
        assert not set(train.row_ids) & set(test.row_ids)
        assert not {"0", "5", "7"} & set(train.row_ids + test.row_ids)
        assert np.array_equal(norm.center, fit_normalization(train).center)
        assert norm.target_scale == fit_normalization(train).target_scale

    def test_split_failure_names_split(self):
        ds = with_sentinels(synth_blobs(1, 3, 2, 20.0, 1.0, seed=0), [0, 1], [])
        with pytest.raises(PipelineError, match="split") as info:
            prepare(ds, SplitSpec(0.7, 0), CleaningPolicy())
        assert info.value.stage == "split"


class TestSweep:
    def test_singleton(self):
        ds = synth_blobs(2, 30, 2, 20.0, 1.0, seed=0)
        rep = sweep_hidden(ds, [4], SplitSpec(0.7, 0), FAST_TRAIN)
        assert rep.best_hidden_width == 4
        assert len(rep.entries) == 1

    def test_seconds_cover_every_training(self):
        ds = synth_blobs(2, 30, 2, 20.0, 1.0, seed=0)
        rep = sweep_hidden(ds, [1, 2, 3], SplitSpec(0.7, 0), FAST_TRAIN)
        assert rep.seconds >= max(e.training_seconds for e in rep.entries) > 0

    def test_best_minimizes_test_rms(self):
        ds = synth_blobs(3, 40, 2, 20.0, 1.0, seed=1)
        rep = sweep_hidden(ds, [1, 3, 6], SplitSpec(0.7, 0), FAST_TRAIN)
        best = min(rep.entries, key=lambda e: (e.rms_test, e.hidden_width))
        assert rep.best_hidden_width == best.hidden_width

    def test_entries_sorted_by_width(self):
        ds = synth_blobs(2, 30, 2, 20.0, 1.0, seed=2)
        rep = sweep_hidden(ds, [5, 1, 3], SplitSpec(0.7, 0), FAST_TRAIN)
        widths = [e.hidden_width for e in rep.entries]
        assert widths == sorted(widths) == [1, 3, 5]

    def test_error_anticorrelates_with_correlation(self):
        # statistical tendency across the sweep, not a per-pair guarantee
        ds = synth_blobs(4, 50, 3, 25.0, 1.0, seed=3)
        rep = sweep_hidden(ds, [1, 2, 4, 8], SplitSpec(0.7, 0), FAST_TRAIN)
        neg_rms = [-e.rms_test for e in rep.entries]
        corr = [e.correlation for e in rep.entries]
        rank = lambda v: np.argsort(np.argsort(v))
        rho = np.corrcoef(rank(neg_rms), rank(corr))[0, 1]
        assert rho > 0

    def test_applies_cleaning_policy(self):
        ds = with_sentinels(synth_blobs(2, 30, 2, 20.0, 1.0, seed=0), [1, 4], [2])
        policy = CleaningPolicy()
        cleaned = clean_sentinels(filter_labeled(ds, policy), policy)
        a = sweep_hidden(ds, [1, 3], SplitSpec(0.7, 0), FAST_TRAIN)
        b = sweep_hidden(cleaned, [1, 3], SplitSpec(0.7, 0), FAST_TRAIN)
        assert [(e.rms_test, e.correlation) for e in a.entries] == [
            (e.rms_test, e.correlation) for e in b.entries
        ]

    def test_no_labeled_rows_names_cleaning(self):
        ds = synth_blobs(2, 20, 2, 20.0, 1.0, seed=0)
        with pytest.raises(PipelineError, match="cleaning"):
            sweep_hidden(with_sentinels(ds, slice(None), []), [2], SplitSpec(0.7, 0), FAST_TRAIN)

    def test_empty_widths(self):
        ds = synth_blobs(2, 20, 2, 20.0, 1.0, seed=0)
        with pytest.raises(ValueError):
            sweep_hidden(ds, [], SplitSpec(0.7, 0), FAST_TRAIN)

    def test_training_failure_names_the_stage(self, monkeypatch):
        def fail(*args, **kwargs):
            raise mlp.NumericalError("non-finite loss")

        monkeypatch.setattr(mlp, "train", fail)
        ds = synth_blobs(2, 20, 2, 20.0, 1.0, seed=0)
        with pytest.raises(PipelineError, match="training") as info:
            sweep_hidden(ds, [2], SplitSpec(0.7, 0), FAST_TRAIN)
        assert info.value.stage == "training"
        assert isinstance(info.value.cause, mlp.NumericalError)

    def test_entries_report_their_training(self):
        ds = synth_blobs(3, 40, 2, 20.0, 1.0, seed=1)
        train_cfg = TrainConfig(max_iter=5, restarts=2)
        rep = sweep_hidden(ds, [1, 3], SplitSpec(0.7, 0), train_cfg)
        train_raw, _, norm = prepare(ds, SplitSpec(0.7, 0), CleaningPolicy())
        train_norm = apply_normalization(train_raw, norm)
        for e in rep.entries:
            _, trained = mlp.train(NetworkSpec(2, e.hidden_width), train_norm, train_cfg, norm)
            assert e.training == trained
            assert (trained.iterations, trained.converged) == (10, False)

    def test_entries_equal_a_serial_loop(self, monkeypatch):
        # bit for bit (training time aside), widths trained on two threads
        report_cpus(monkeypatch, 2)
        ds = synth_blobs(3, 40, 2, 20.0, 1.0, seed=1)
        train_cfg = TrainConfig(max_iter=40, restarts=2)
        widths = [1, 2, 3, 4, 5, 6]
        rep = sweep_hidden(ds, widths, SplitSpec(0.7, 0), train_cfg)
        assert rep.threads == 2
        assert [entry_bits(e) for e in rep.entries] == serial_sweep(ds, widths, train_cfg)

    def test_unsorted_repeated_widths_equal_a_serial_loop(self, monkeypatch):
        report_cpus(monkeypatch, 2)
        ds = synth_blobs(2, 30, 2, 20.0, 1.0, seed=2)
        rep = sweep_hidden(ds, [5, 1, 3, 3], SplitSpec(0.7, 0), FAST_TRAIN)
        assert [e.hidden_width for e in rep.entries] == [1, 3, 3, 5]
        assert [entry_bits(e) for e in rep.entries] == serial_sweep(ds, [1, 3, 3, 5], FAST_TRAIN)

    def test_two_widths_train_at_once(self, monkeypatch):
        # each training waits for the other: a serial sweep breaks the barrier
        report_cpus(monkeypatch, 2)
        barrier = threading.Barrier(2, timeout=5)
        train = mlp.train

        def meet_then_train(*args, **kwargs):
            barrier.wait()
            return train(*args, **kwargs)

        monkeypatch.setattr(mlp, "train", meet_then_train)
        ds = synth_blobs(2, 20, 2, 20.0, 1.0, seed=0)
        threads = threading.active_count()
        rep = sweep_hidden(ds, [1, 2], SplitSpec(0.7, 0), FAST_TRAIN)
        assert [e.hidden_width for e in rep.entries] == [1, 2]
        assert rep.threads == 2
        assert threading.active_count() == threads

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_trainings_at_once_stay_within_the_cpus(self, monkeypatch, cpus):
        report_cpus(monkeypatch, cpus)
        train = mlp.train
        lock = threading.Lock()
        running, peak, callers = [0], [0], set()
        threads = threading.active_count()

        def counted_train(*args, **kwargs):
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
                callers.add(threading.get_ident())
            try:
                time.sleep(0.01)
                return train(*args, **kwargs)
            finally:
                with lock:
                    running[0] -= 1

        monkeypatch.setattr(mlp, "train", counted_train)
        ds = synth_blobs(2, 20, 2, 20.0, 1.0, seed=0)
        rep = sweep_hidden(ds, [1, 2, 3, 4, 5, 6], SplitSpec(0.7, 0), FAST_TRAIN)
        assert rep.threads == cpus
        assert 1 <= peak[0] <= cpus and len(callers) <= cpus
        if cpus == 1:  # no thread is started: the caller trains every width
            assert callers == {threading.get_ident()}
        assert threading.active_count() == threads

    def test_each_width_trains_once_under_thread_switches(self, monkeypatch):
        # more threads than cores, switching often: a width taken twice or
        # never from the shared queue breaks the count or the entries
        report_cpus(monkeypatch, 8)
        train = mlp.train
        tried = []

        def counted_train(spec, *args, **kwargs):
            tried.append(spec.hidden_width)
            return train(spec, *args, **kwargs)

        monkeypatch.setattr(mlp, "train", counted_train)
        ds = synth_blobs(2, 10, 2, 20.0, 1.0, seed=0)
        widths = list(range(16, 0, -1)) * 2
        threads = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            rep = sweep_hidden(ds, widths, SplitSpec(0.7, 0), TrainConfig(max_iter=2))
        finally:
            sys.setswitchinterval(interval)
        assert rep.threads == 8
        assert sorted(tried) == [e.hidden_width for e in rep.entries] == sorted(widths)
        assert threading.active_count() == threads

    def test_failure_of_the_smallest_failing_width_after_all_ran(self, monkeypatch):
        report_cpus(monkeypatch, 2)
        train, predict = mlp.train, mlp.predict
        tried = []

        def failing_train(spec, *args, **kwargs):
            tried.append(spec.hidden_width)
            if spec.hidden_width == 5:
                raise mlp.NumericalError("width 5 diverged")
            return train(spec, *args, **kwargs)

        def failing_predict(model, part):
            if model.spec.hidden_width == 3:
                raise ValueError("width 3 cannot predict")
            return predict(model, part)

        monkeypatch.setattr(mlp, "train", failing_train)
        monkeypatch.setattr(mlp, "predict", failing_predict)
        ds = synth_blobs(2, 20, 2, 20.0, 1.0, seed=0)
        threads = threading.active_count()
        with pytest.raises(PipelineError) as info:
            sweep_hidden(ds, [6, 5, 4, 3, 2, 1], SplitSpec(0.7, 0), FAST_TRAIN)
        # width 3 fails in metrics before width 5 fails in training, as in a
        # serial loop, and every width still ran
        assert info.value.stage == "metrics"
        assert str(info.value.cause) == "width 3 cannot predict"
        assert sorted(tried) == [1, 2, 3, 4, 5, 6]
        assert threading.active_count() == threads

    @pytest.mark.parametrize(
        "cpus, widths, split", [(2, [1, 2, 3, 4], False), (4, [1, 2], True), (2, [3], True)]
    )
    def test_widths_split_their_objective_only_within_the_cpus(self, monkeypatch, cpus, widths, split):
        # every training would split its objective on a budget of two; a
        # width gets cpus // threads, so 2 CPUs never carry 4 busy threads
        monkeypatch.setattr(mlp, "SPLIT_MIN_WORK", 1)
        report_cpus(monkeypatch, cpus)
        started = threading.Thread.start
        helpers = []

        def counted_start(thread):
            helpers.append(thread)
            started(thread)

        monkeypatch.setattr(threading.Thread, "start", counted_start)
        ds = synth_blobs(2, 100, 2, 20.0, 1.0, seed=0)
        threads = threading.active_count()
        rep = sweep_hidden(ds, widths, SplitSpec(0.7, 0), FAST_TRAIN)
        assert rep.threads == min(cpus, len(widths))
        assert [e.training.threads for e in rep.entries] == [2 if split else 1] * len(widths)
        assert len(helpers) == rep.threads - 1 + (len(widths) if split else 0)
        assert [entry_bits(e) for e in rep.entries] == serial_sweep(ds, widths, FAST_TRAIN)
        assert threading.active_count() == threads

    def test_interrupt_stops_helpers_and_joins_them(self, monkeypatch):
        report_cpus(monkeypatch, 2)
        caller = threading.get_ident()
        helper_started, interrupted = threading.Event(), threading.Event()
        tried = []

        def interrupted_train(spec, *args, **kwargs):
            tried.append(spec.hidden_width)
            if threading.get_ident() == caller:
                helper_started.wait(5)
                interrupted.set()
                raise KeyboardInterrupt
            helper_started.set()
            interrupted.wait(5)
            time.sleep(0.5)  # the caller's interrupt reaches the sweep meanwhile
            raise mlp.NumericalError("stopped")

        monkeypatch.setattr(mlp, "train", interrupted_train)
        ds = synth_blobs(2, 20, 2, 20.0, 1.0, seed=0)
        threads = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            sweep_hidden(ds, [1, 2, 3, 4, 5, 6, 7, 8], SplitSpec(0.7, 0), FAST_TRAIN)
        assert threading.active_count() == threads
        # the helper took no width after its first, the two widest go first
        assert sorted(tried) == [7, 8]


def report_cpus(monkeypatch, n: int) -> None:
    """Makes the sweep see n usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def entry_bits(e) -> tuple:
    return (e.hidden_width, e.rms_test.hex(), e.correlation.hex(), e.training.iterations, e.training.converged)


def serial_sweep(ds: Dataset, widths: list[int], train_cfg: TrainConfig) -> list[tuple]:
    """The sweep's entries as one plain loop over the widths computes them."""
    train_raw, test_raw, norm = prepare(ds, SplitSpec(0.7, 0), CleaningPolicy())
    train_norm = apply_normalization(train_raw, norm)
    rows = []
    for w in widths:
        model, trained = mlp.train(NetworkSpec(train_raw.d, w), train_norm, train_cfg, norm)
        pred = mlp.predict(model, test_raw)
        rms = metrics.rms(pred, test_raw.targets)
        corr = metrics.correlation(pred, test_raw.targets)
        rows.append((w, rms.hex(), corr.hex(), trained.iterations, trained.converged))
    return rows

class TestKminStability:
    def test_collapsed_search(self):
        ds = synth_blobs(3, 30, 2, 20.0, 1.0, seed=0)
        cfg = xmeans_cfg(kmin=3, kmax=3)
        rows = kmin_stability(ds, [3], cfg)
        assert rows[0].kmin == 3 and rows[0].k == 3

    def test_well_separated_blobs_stable(self):
        ds = synth_blobs(4, 40, 3, 40.0, 1.0, seed=1)
        cfg = xmeans_cfg(kmin=2, kmax=20)
        rows = kmin_stability(ds, [2, 3, 4], cfg)
        assert [r.k for r in rows] == [4, 4, 4]

    def test_requires_xmeans(self):
        ds = synth_blobs(2, 20, 2, 20.0, 1.0, seed=0)
        cfg = PipelineConfig(
            dbscan=DbscanConfig(eps=1.0, min_pts=2),
            train_cfg=FAST_TRAIN,
        )
        with pytest.raises(ValueError, match="X-means"):
            kmin_stability(ds, [2], cfg)

    def test_empty_kmins(self):
        ds = synth_blobs(2, 20, 2, 20.0, 1.0, seed=0)
        with pytest.raises(ValueError):
            kmin_stability(ds, [], xmeans_cfg())

    def test_trains_nothing(self, monkeypatch):
        calls = []
        train = mlp.train
        monkeypatch.setattr(mlp, "train", lambda *a, **kw: calls.append(a) or train(*a, **kw))
        ds = synth_blobs(4, 40, 3, 40.0, 1.0, seed=1)
        rows = kmin_stability(ds, [2, 3], xmeans_cfg())
        assert [r.k for r in rows] == [4, 4]
        assert calls == []

    def test_rows_match_the_pipeline(self):
        ds = synth_blobs(5, 40, 3, 30.0, 1.0, seed=7)
        rows = kmin_stability(ds, [2, 4], xmeans_cfg(kmax=3))
        assert [(r.kmin, r.k, r.diagnostics["stopped_by"]) for r in rows] == [(2, 3, "kmax"), (4, 4, "kmax")]
        for r in rows:
            report = run_pipeline(ds, xmeans_cfg(kmin=r.kmin, kmax=max(r.kmin, 3)))
            assert (report.k, report.clustering_diagnostics) == (r.k, r.diagnostics)

    def test_clustering_failure_names_the_stage(self):
        ds = synth_blobs(2, 5, 2, 20.0, 1.0, seed=0)
        with pytest.raises(PipelineError, match="clustering") as info:
            kmin_stability(ds, [50], xmeans_cfg())
        assert info.value.stage == "clustering"
