from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cluster_mlp import dataset
from cluster_mlp.cli import EvaluateSpec, RunFiles, SynthSpec
from cluster_mlp.clustering import DbscanConfig, MeanShiftConfig, XMeansConfig
from cluster_mlp.constructor import PipelineConfig
from cluster_mlp.dataset import (
    CleaningPolicy,
    DataError,
    Dataset,
    NormalizationParams,
    RowPolicy,
    SplitSpec,
    TargetFn,
    apply_normalization,
    clean_sentinels,
    filter_labeled,
    fit_normalization,
    holdout_split,
    load_csv,
    synth_blobs,
    write_csv,
)
from cluster_mlp.mlp import TrainConfig


def make_ds(features, targets):
    features = np.asarray(features, dtype=float)
    return Dataset(
        features=features,
        targets=np.asarray(targets, dtype=float),
        feature_names=tuple(f"f{i}" for i in range(features.shape[1])),
        row_ids=tuple(str(i) for i in range(features.shape[0])),
    )


class TestLoadCsv:
    def test_small_file(self, tmp_path):
        p = tmp_path / "small.csv"
        p.write_text("a,b,z\n1,2,3\n4,5,6\n7,8,9\n10,11,12\n")
        ds = load_csv(p, target_column="z")
        assert ds.n == 4 and ds.d == 2
        assert ds.feature_names == ("a", "b")
        assert list(ds.targets) == [3.0, 6.0, 9.0, 12.0]

    def test_wide_magnitude_catalog_width(self, tmp_path):
        p = tmp_path / "cat.csv"
        cols = [f"mag{i}" for i in range(18)] + ["z_spec"]
        p.write_text(",".join(cols) + "\n" + ",".join(["1.0"] * 19) + "\n")
        ds = load_csv(p, target_column="z_spec")
        assert ds.d == 18

    def test_unparseable_cell_names_row(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,z\n1,2\nabc,4\n")
        with pytest.raises(DataError, match="row 3"):
            load_csv(p, target_column="z")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            load_csv(tmp_path / "nope.csv", target_column="z")

    def test_missing_target_column(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(DataError, match="target column"):
            load_csv(p, target_column="z")

    def test_empty_data_section(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("a,z\n")
        with pytest.raises(DataError, match="no data rows"):
            load_csv(p, target_column="z")

    def test_empty_cell_rejected(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("a,z\n1,\n")
        with pytest.raises(DataError, match="empty cell"):
            load_csv(p, target_column="z")

    def test_non_finite_feature_cell_names_row_and_column(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("a,b,z\n1,2,3\n4,nan,6\n")
        with pytest.raises(DataError, match="row 3, column 'b': non-finite value 'nan'"):
            load_csv(p, target_column="z")

    def test_non_finite_target_cell_names_row_and_column(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("id,a,z\ng1,1,1e400\ng2,3,4\n")
        with pytest.raises(DataError, match="row 2, column 'z': non-finite value '1e400'"):
            load_csv(p, target_column="z", id_column="id")

    def test_id_column(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("id,a,z\ngal1,1,2\ngal2,3,4\n")
        ds = load_csv(p, target_column="z", id_column="id")
        assert ds.row_ids == ("gal1", "gal2")
        assert ds.d == 1

    @pytest.mark.parametrize("text", ["\ufeffz,a\n1,2\n", "\ufeffa,z\n2,1\n"], ids=["target-first", "feature-first"])
    def test_byte_order_mark_is_dropped(self, tmp_path, monkeypatch, text):
        # Spreadsheet "CSV UTF-8" exports begin with U+FEFF; both body
        # parsers see the header without it.
        p = tmp_path / "bom.csv"
        p.write_text(text, encoding="utf-8")
        took_numpy, outcome, rows_outcome = numpy_and_row_reader(monkeypatch, p, None)
        assert took_numpy and outcome == rows_outcome
        ds = load_csv(p, target_column="z")
        assert ds.feature_names == ("a",)
        assert ds.features.tolist() == [[2.0]] and ds.targets.tolist() == [1.0]

    def test_byte_order_mark_before_the_id_column(self, tmp_path):
        p = tmp_path / "bom.csv"
        p.write_text("\ufeffid,a,z\ngal1,2,1\n", encoding="utf-8")
        ds = load_csv(p, target_column="z", id_column="id")
        assert ds.row_ids == ("gal1",) and ds.feature_names == ("a",)
        assert ds.features.tolist() == [[2.0]] and ds.targets.tolist() == [1.0]


def load_outcome(path, id_column):
    try:
        ds = load_csv(path, "z", id_column)
    except DataError as e:
        return str(e)
    return (
        ds.features.tobytes(),
        ds.features.shape,
        ds.features.flags.c_contiguous,
        ds.targets.tobytes(),
        ds.targets.flags.c_contiguous,
        ds.feature_names,
        ds.row_ids,
    )


def numpy_and_row_reader(monkeypatch, path, id_column):
    """(whether numpy parsed the body, load_csv's outcome, the outcome with
    every body left to the row reader)."""
    parsed = []
    numeric_body = dataset._numeric_body

    def spy(*args):
        table = numeric_body(*args)
        parsed.append(table is not None)
        return table

    monkeypatch.setattr(dataset, "_numeric_body", spy)
    outcome = load_outcome(path, id_column)
    monkeypatch.setattr(dataset, "_numeric_body", lambda *args: None)
    return any(parsed), outcome, load_outcome(path, id_column)


class TestLoadCsvPaths:
    """load_csv hands a body to numpy only where the row reader would
    return the same Dataset; everything else gets the row reader's error."""

    @pytest.mark.parametrize(
        "text, id_column, numeric",
        [
            ('a,z\n"1.5",2\n3,"4"\n', None, False),  # quoted cells
            ("a,z\n1_000,2\n3,4\n", None, False),
            ("id,a,z\ng1,1,2\ng2,3,4\n", "id", False),
            ("a,z\n1,2\n3,4,5\n", None, False),  # one row with an extra cell
            ("a,z\n1,2,3\n4,5,6\n", None, False),  # every row with an extra cell
            ("a,z\n1,2\n   \n3,4\n", None, False),  # whitespace-only line
            ("a,z\n1,2\n# note\n3,4\n", None, False),
            ("a,z\r\n1.25,-2\r\n3e-5,4\r\n", None, True),  # CRLF line endings
            ("a,z\n", None, False),  # header only
            ("b,z,a\n0.1,-0,7\n", None, True),  # single row, target in the middle
            ("a,z\n1,2\n\n3,4\n", None, True),  # blank line
        ],
    )
    def test_same_result_as_row_reader(self, tmp_path, monkeypatch, text, id_column, numeric):
        p = tmp_path / "f.csv"
        p.write_bytes(text.encode())
        took_numpy, outcome, rows_outcome = numpy_and_row_reader(monkeypatch, p, id_column)
        assert took_numpy == numeric
        assert outcome == rows_outcome

    @pytest.mark.parametrize("blank", ["   \n", "\t\n", " , ,\n"])
    @pytest.mark.parametrize("where", ["middle", "end"])
    def test_blank_line_skipped(self, tmp_path, blank, where):
        rows = ["a,b,z\n", "1,2,3\n", "4,5,6\n"]
        plain, padded = tmp_path / "plain.csv", tmp_path / "padded.csv"
        plain.write_text("".join(rows))
        rows.insert(2 if where == "middle" else 3, blank)
        padded.write_text("".join(rows))
        for id_column in (None, "a"):
            assert load_outcome(padded, id_column) == load_outcome(plain, id_column)

    def test_random_floats_same_as_row_reader(self, tmp_path, monkeypatch):
        ds = synth_blobs(3, 40, 4, 10.0, 0.5, seed=2)
        p = tmp_path / "f.csv"
        write_csv(ds, p, target_column="z")
        took_numpy, outcome, rows_outcome = numpy_and_row_reader(monkeypatch, p, None)
        assert took_numpy
        assert outcome == rows_outcome

    def test_cell_over_the_csv_field_limit_is_data_error(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("a,z\n" + "1" * 200_000 + ",2\n")
        with pytest.raises(DataError, match="not readable as UTF-8 CSV: field larger than field limit"):
            load_csv(p, "z")


class TestFilterLabeled:
    def test_drops_sentinel_targets(self):
        ds = make_ds([[1.0], [2.0], [3.0]], [0.5, -9.999, 0.7])
        out = filter_labeled(ds, CleaningPolicy())
        assert out.n == 2
        assert list(out.targets) == [0.5, 0.7]
        assert out.row_ids == ("0", "2")

    def test_identity_without_sentinels(self):
        ds = make_ds([[1.0], [2.0]], [0.5, 0.7])
        out = filter_labeled(ds, CleaningPolicy())
        assert np.array_equal(out.features, ds.features)
        assert out.row_ids == ds.row_ids

    def test_all_unlabeled_errors(self):
        ds = make_ds([[1.0], [2.0]], [-9.999, -9.999])
        with pytest.raises(DataError, match="no labeled rows"):
            filter_labeled(ds, CleaningPolicy())


class TestCleanSentinels:
    def test_drops_rows_with_feature_sentinel(self):
        ds = make_ds([[1.0, 2.0], [3.0, 99.0], [5.0, 6.0]], [1, 2, 3])
        out = clean_sentinels(ds, CleaningPolicy())
        assert out.n == 2
        assert out.row_ids == ("0", "2")

    def test_negative_sentinel(self):
        ds = make_ds([[-99.0], [1.0]], [1, 2])
        out = clean_sentinels(ds, CleaningPolicy())
        assert out.n == 1

    def test_identity_without_sentinels(self):
        ds = make_ds([[1.0], [2.0]], [1, 2])
        out = clean_sentinels(ds, CleaningPolicy())
        assert np.array_equal(out.features, ds.features)

    def test_keep_rows_policy_is_noop(self):
        ds = make_ds([[99.0]], [1])
        policy = CleaningPolicy(row_policy=RowPolicy.KEEP_ROWS)
        assert clean_sentinels(ds, policy) is ds

    def test_all_rows_dropped_errors(self):
        ds = make_ds([[99.0], [-99.0]], [1, 2])
        with pytest.raises(DataError):
            clean_sentinels(ds, CleaningPolicy())

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([1.0, 2.0, 99.0, -99.0]),
                st.sampled_from([0.5, -9.999]),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_cleaning_order_commutes(self, rows):
        # both steps drop rows by independent predicates
        ds = make_ds([[r[0]] for r in rows], [r[1] for r in rows])
        policy = CleaningPolicy()

        def safe(fn, d):
            try:
                return fn(d, policy)
            except DataError:
                return None

        a = safe(filter_labeled, ds)
        a = safe(clean_sentinels, a) if a is not None else None
        b = safe(clean_sentinels, ds)
        b = safe(filter_labeled, b) if b is not None else None
        # both orders keep exactly the intersection, so they fail together
        assert (a is None) == (b is None)
        if a is None:
            return
        assert a.row_ids == b.row_ids
        assert np.array_equal(a.features, b.features)


class TestHoldoutSplit:
    def test_sizes(self):
        ds = make_ds(np.arange(20).reshape(10, 2), np.arange(10))
        train, test = holdout_split(ds, SplitSpec(0.7, 0))
        assert train.n == 7 and test.n == 3

    def test_floor_cut_on_odd_row_count(self):
        ds = make_ds(np.arange(515).reshape(515, 1), np.arange(515))
        train, test = holdout_split(ds, SplitSpec(0.7, 0))
        assert train.n == 360 and test.n == 155

    def test_deterministic(self):
        ds = make_ds(np.arange(20).reshape(10, 2), np.arange(10))
        a = holdout_split(ds, SplitSpec(0.7, 5))
        b = holdout_split(ds, SplitSpec(0.7, 5))
        assert a[0].row_ids == b[0].row_ids and a[1].row_ids == b[1].row_ids

    def test_too_small(self):
        ds = make_ds([[1.0]], [1.0])
        with pytest.raises(DataError):
            holdout_split(ds, SplitSpec(0.7, 0))

    @given(st.integers(min_value=2, max_value=50), st.integers(min_value=0, max_value=10))
    def test_partition(self, n, seed):
        ds = make_ds(np.arange(n).reshape(n, 1), np.arange(n))
        train, test = holdout_split(ds, SplitSpec(0.7, seed))
        assert sorted(train.row_ids + test.row_ids) == sorted(ds.row_ids)
        assert set(train.row_ids).isdisjoint(test.row_ids)


class TestNormalization:
    def test_simple_column(self):
        ds = make_ds([[0.0], [2.0]], [0.0, 2.0])
        p = fit_normalization(ds)
        assert p.center[0] == pytest.approx(1.0)
        assert p.scale[0] == pytest.approx(1.0)

    def test_constant_column_gets_scale_one(self):
        ds = make_ds([[5.0], [5.0], [5.0]], [1.0, 2.0, 3.0])
        p = fit_normalization(ds)
        assert p.center[0] == 5.0 and p.scale[0] == 1.0

    def test_matches_one_pass_oracle(self):
        rng = np.random.default_rng(8)
        feats = rng.normal(size=(13, 2))
        ds = make_ds(feats, rng.normal(size=13))
        p = fit_normalization(ds)
        for j in range(2):
            col = [feats[i][j] for i in range(13)]
            mean = sum(col) / 13
            var = sum((v - mean) ** 2 for v in col) / 13
            assert p.center[j] == pytest.approx(mean, rel=1e-12)
            assert p.scale[j] == pytest.approx(var**0.5, rel=1e-12)

    @pytest.mark.parametrize("column", [[1e308, 1e308, 1e308], [1e308, -1e308, 1e308]])
    def test_overflow_names_the_column(self, column):
        # the mean or the std overflows; normalized values would be NaN
        ds = make_ds(np.column_stack([[1.0, 2.0, 3.0], column]), [1.0, 2.0, 3.0])
        with pytest.raises(DataError, match="column 'f1' is not finite"):
            fit_normalization(ds)
        with pytest.raises(DataError, match="the target is not finite"):
            fit_normalization(make_ds([[1.0], [2.0], [3.0]], column))

    def test_fitted_set_has_zero_mean(self):
        rng = np.random.default_rng(2)
        ds = make_ds(rng.normal(size=(30, 2)), rng.normal(size=30))
        norm = apply_normalization(ds, fit_normalization(ds))
        assert np.all(np.abs(norm.features.mean(axis=0)) < 1e-10)

    def test_identity_params(self):
        ds = make_ds([[1.0, 2.0]], [3.0])
        p = NormalizationParams(
            center=np.zeros(2), scale=np.ones(2), target_center=0.0, target_scale=1.0
        )
        out = apply_normalization(ds, p)
        assert np.array_equal(out.features, ds.features)
        assert np.array_equal(out.targets, ds.targets)

    def test_dimension_mismatch(self):
        ds = make_ds([[1.0, 2.0]], [3.0])
        p = NormalizationParams(
            center=np.zeros(3), scale=np.ones(3), target_center=0.0, target_scale=1.0
        )
        with pytest.raises(DataError):
            apply_normalization(ds, p)


class TestSynthBlobs:
    def test_shape_and_metadata(self):
        ds = synth_blobs(3, 50, 2, 10.0, 0.5, seed=0)
        assert ds.n == 150 and ds.d == 2
        assert ds.metadata["true_k"] == 3

    def test_single_blob(self):
        ds = synth_blobs(1, 30, 2, 5.0, 1.0, seed=0)
        assert ds.n == 30
        assert ds.metadata["true_k"] == 1

    def test_centers_separated(self):
        ds = synth_blobs(5, 10, 3, 8.0, 0.1, seed=3)
        centers = np.array(ds.metadata["true_centers"])
        for i in range(5):
            for j in range(i + 1, 5):
                assert np.linalg.norm(centers[i] - centers[j]) >= 8.0

    def test_nearest_center_recovers_labels(self):
        # brute-force nearest-center assignment at separation/noise = 20
        ds = synth_blobs(4, 50, 3, 20.0, 1.0, seed=5)
        centers = np.array(ds.metadata["true_centers"])
        true = np.array(ds.metadata["true_labels"])
        assigned = np.array(
            [np.argmin([np.linalg.norm(x - c) for c in centers]) for x in ds.features]
        )
        assert np.mean(assigned == true) >= 0.99

    def test_take_drops_row_metadata(self):
        # true_labels lists every row of the full set; a subset must not
        # carry it misaligned with its own rows.
        ds = synth_blobs(3, 4, 2, 10.0, 0.5, seed=0)
        sub = ds.take([2, 0])
        assert sub.row_ids == ("2", "0")
        assert sub.metadata == {}
        assert len(ds.metadata["true_labels"]) == ds.n

    def test_deterministic(self):
        a = synth_blobs(3, 20, 2, 10.0, 0.5, seed=9)
        b = synth_blobs(3, 20, 2, 10.0, 0.5, seed=9)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.targets, b.targets)

    def test_sum_of_features_targets(self):
        ds = synth_blobs(2, 10, 3, 10.0, 0.5, target_fn=TargetFn.SUM_OF_FEATURES, seed=0)
        assert np.allclose(ds.targets, ds.features.sum(axis=1))


class TestCsvRoundTrip:
    def test_write_then_load(self, tmp_path):
        ds = synth_blobs(2, 10, 3, 10.0, 0.5, seed=4)
        p = tmp_path / "blobs.csv"
        write_csv(ds, p)
        back = load_csv(p, target_column="target")
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.targets, ds.targets)


# Every config dataclass, with the arguments of one valid instance.
CONFIG_CLASSES = [
    (SplitSpec, {}),
    (CleaningPolicy, {}),
    (XMeansConfig, {}),
    (DbscanConfig, {"eps": 0.5, "min_pts": 3}),
    (MeanShiftConfig, {"bandwidth": 0.5}),
    (TrainConfig, {}),
    (PipelineConfig, {}),
    (RunFiles, {"input": "in.csv", "target_column": "y", "output": "out.json"}),
    (SynthSpec, {"k": 2, "per_cluster": 5, "d": 2, "separation": 10.0, "noise_std": 1.0, "output": "s.csv"}),
    (EvaluateSpec, {"input": "p.csv", "output": "out.json"}),
]

# Values of the wrong JSON type for a field of each annotation.
WRONG_TYPES = {
    "int": [True, "1", [1], 2.5],
    "float": [True, "1", [1]],
    "str": [True, 1, [1]],
}

TYPED_FIELDS = [
    (cls, kwargs, f.name, bad)
    for cls, kwargs in CONFIG_CLASSES
    for f in fields(cls)
    for bad in WRONG_TYPES.get(f.type.split(" | ")[0], [])
]


FLOAT_FIELDS = [
    (cls, kwargs, f.name, bad)
    for cls, kwargs in CONFIG_CLASSES
    for f in fields(cls)
    if f.type.split(" | ")[0] == "float"
    for bad in (float("nan"), float("inf"), -np.inf)
]


class TestRequireFieldTypes:
    @pytest.mark.parametrize(
        "cls, kwargs, name, bad",
        TYPED_FIELDS,
        ids=[f"{cls.__name__}.{name}={bad!r}" for cls, _, name, bad in TYPED_FIELDS],
    )
    def test_wrong_type_names_the_field(self, cls, kwargs, name, bad):
        cls(**kwargs)
        with pytest.raises(ValueError, match=f"^{name} must be "):
            cls(**{**kwargs, name: bad})

    @pytest.mark.parametrize(
        "cls, kwargs, name, bad",
        FLOAT_FIELDS,
        ids=[f"{cls.__name__}.{name}={bad!r}" for cls, _, name, bad in FLOAT_FIELDS],
    )
    def test_non_finite_float_names_the_field(self, cls, kwargs, name, bad):
        # JSON's NaN and Infinity parse to these; no float field means them
        with pytest.raises(ValueError, match=f"^{name} must be a finite number"):
            cls(**{**kwargs, name: bad})

    def test_float_field_stores_a_float(self):
        cfg = DbscanConfig(eps=1, min_pts=np.int64(3))
        assert type(cfg.eps) is float and cfg.eps == 1.0
        assert cfg.min_pts == 3

    def test_integer_beyond_a_double_is_refused(self):
        with pytest.raises(ValueError, match="^grad_tol must be a number"):
            TrainConfig(grad_tol=10**400)


class TestCleaningPolicyJsonForms:
    def test_list_and_policy_name(self):
        policy = CleaningPolicy(feature_sentinels=[99, -99.0], row_policy="keep_rows")
        assert policy.feature_sentinels == frozenset({99.0, -99.0})
        assert all(type(v) is float for v in policy.feature_sentinels)
        assert policy.row_policy is RowPolicy.KEEP_ROWS

    @pytest.mark.parametrize("sentinels", ["99", 99, [99, "x"], [True]])
    def test_sentinels_must_be_a_list_of_numbers(self, sentinels):
        with pytest.raises(ValueError, match="^feature_sentinels must be"):
            CleaningPolicy(feature_sentinels=sentinels)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), np.float64(-np.inf)])
    def test_non_finite_sentinel_refused(self, bad):
        with pytest.raises(ValueError, match="^feature_sentinels must be a finite number"):
            CleaningPolicy(feature_sentinels=[99.0, bad])

    def test_unknown_row_policy(self):
        with pytest.raises(ValueError, match="unknown row_policy 'drop'"):
            CleaningPolicy(row_policy="drop")
