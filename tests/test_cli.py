import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from cluster_mlp import cli, mlp
from cluster_mlp.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERICAL, EXIT_OK, main
from cluster_mlp.dataset import load_csv, synth_blobs, write_csv
from cluster_mlp.mlp import load_model


@pytest.fixture
def blob_csv(tmp_path):
    ds = synth_blobs(3, 40, 3, 30.0, 1.0, seed=7)
    path = tmp_path / "blobs.csv"
    write_csv(ds, path)
    return path


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def pipeline_config(blob_csv, tmp_path, command="pipeline", **extra):
    """A config of a data command; `train` only for the commands that read it."""
    doc = {
        "schema_version": 1,
        "input": str(blob_csv),
        "target_column": "target",
        "output": str(tmp_path / "report.json"),
        "algorithm": "xmeans",
        "xmeans": {"kmin": 2, "kmax": 20, "seed": 0},
        "split": {"train_fraction": 0.7, "seed": 0},
    }
    if command in ("pipeline", "sweep"):
        doc["train"] = {"max_iter": 60}
    doc.update(extra)
    return doc


def read_report(tmp_path):
    return json.loads((tmp_path / "report.json").read_text())


class TestCluster:
    def test_blob_k_recovered(self, blob_csv, tmp_path):
        cfg = write_config(tmp_path, "c.json", pipeline_config(blob_csv, tmp_path, command="cluster"))
        assert main(["cluster", str(cfg)]) == EXIT_OK
        rep = read_report(tmp_path)
        assert rep["body"]["k"] == 3
        assert sum(rep["body"]["cluster_sizes"]) == len(rep["body"]["labels"])

    def test_header_says_how_clustering_stopped(self, blob_csv, tmp_path):
        cfg = write_config(tmp_path, "c.json", pipeline_config(blob_csv, tmp_path, command="cluster"))
        assert main(["cluster", str(cfg)]) == EXIT_OK
        rep = read_report(tmp_path)
        assert rep["header"]["diagnostics"]["stopped_by"] == "gaussian"
        dbscan = {"eps": 3.0, "min_pts": 5}
        doc = pipeline_config(blob_csv, tmp_path, command="cluster", algorithm="dbscan", dbscan=dbscan)
        del doc["xmeans"]
        assert main(["cluster", str(write_config(tmp_path, "c.json", doc))]) == EXIT_OK
        rep = read_report(tmp_path)
        assert rep["header"]["diagnostics"] == {"noise_points": rep["body"]["noise_points"]}

    def test_header_counts_meanshift_budget_stops(self, blob_csv, tmp_path):
        meanshift = {"bandwidth": 0.5, "shift_tol": 1e-12, "max_iter": 3}
        doc = pipeline_config(blob_csv, tmp_path, command="cluster", algorithm="meanshift", meanshift=meanshift)
        del doc["xmeans"]
        assert main(["cluster", str(write_config(tmp_path, "c.json", doc))]) == EXIT_OK
        rep = read_report(tmp_path)
        rows = len(rep["body"]["labels"])
        assert rep["header"]["diagnostics"] == {"seed_steps": 3 * rows, "max_iter_stops": rows}
        assert not {"seed_steps", "max_iter_stops"} & set(rep["body"])

    def test_malformed_config_names_key(self, blob_csv, tmp_path, capsys):
        doc = pipeline_config(blob_csv, tmp_path, command="cluster")
        doc["bogus_key"] = 1
        cfg = write_config(tmp_path, "c.json", doc)
        assert main(["cluster", str(cfg)]) == EXIT_CONFIG
        assert "bogus_key" in capsys.readouterr().err

    def test_missing_input_is_data_error(self, blob_csv, tmp_path):
        doc = pipeline_config(blob_csv, tmp_path, command="cluster", input=str(tmp_path / "nope.csv"))
        cfg = write_config(tmp_path, "c.json", doc)
        assert main(["cluster", str(cfg)]) == EXIT_DATA

    def test_non_finite_cell_is_data_error(self, blob_csv, tmp_path, capsys):
        lines = blob_csv.read_text().splitlines()
        cells = lines[5].split(",")
        cells[1] = "inf"
        lines[5] = ",".join(cells)
        blob_csv.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path, "c.json", pipeline_config(blob_csv, tmp_path, command="cluster"))
        assert main(["cluster", str(cfg)]) == EXIT_DATA
        assert "row 6, column 'f1': non-finite value 'inf'" in capsys.readouterr().err

    def test_column_named_twice_is_data_error(self, blob_csv, tmp_path, capsys):
        lines = blob_csv.read_text().splitlines()
        blob_csv.write_text("\n".join(f"{line},{line.rsplit(',', 1)[1]}" for line in lines) + "\n")
        cfg = write_config(tmp_path, "c.json", pipeline_config(blob_csv, tmp_path, command="cluster"))
        assert main(["cluster", str(cfg)]) == EXIT_DATA
        assert "header names column 'target' more than once" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_all_noise_dbscan_is_numerical_error(self, blob_csv, tmp_path):
        doc = pipeline_config(blob_csv, tmp_path, command="cluster")
        del doc["xmeans"]
        doc["algorithm"] = "dbscan"
        doc["dbscan"] = {"eps": 1e-9, "min_pts": 5}
        cfg = write_config(tmp_path, "c.json", doc)
        assert main(["cluster", str(cfg)]) == EXIT_NUMERICAL

    @pytest.mark.parametrize(
        "ids, expected",
        [
            (None, ["5", "7", "2", "9", "4", "6", "11"]),
            (
                ["g0", "g1", "end\x00", "g3", "g4", "007", "g6", "gälaxy-β", "g8", "g9", "g10", "g11"],
                ["007", "gälaxy-β", "end\x00", "g9", "g4", "g6", "g11"],
            ),
        ],
    )
    def test_row_ids_of_the_training_rows_in_split_order(self, tmp_path, ids, expected):
        # Data row 3 is unlabeled and row 8 holds a feature sentinel, so the
        # ten kept rows are 0-2, 4-7 and 9-11; the seed-0 split keeps 7 of them.
        rows = [[float(i % 2) * 10 + 0.1 * i, 0.2 * i, float(i)] for i in range(12)]
        rows[3][2] = -9.999
        rows[8][0] = 99.0
        lines = [",".join(f"{v:g}" for v in row) for row in rows]
        header = "f0,f1,target"
        if ids is not None:
            header = "id," + header
            lines = [f"{rid},{line}" for rid, line in zip(ids, lines)]
        path = tmp_path / "ids.csv"
        path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
        doc = pipeline_config(path, tmp_path, command="cluster", xmeans={"kmin": 1, "kmax": 3, "seed": 0})
        if ids is not None:
            doc["id_column"] = "id"
        assert main(["cluster", str(write_config(tmp_path, "c.json", doc))]) == EXIT_OK
        assert read_report(tmp_path)["body"]["row_ids"] == expected

    def test_all_noise_dbscan_names_the_clustering_stage(self, blob_csv, tmp_path, capsys):
        dbscan = {"eps": 1e-9, "min_pts": 5}
        doc = pipeline_config(blob_csv, tmp_path, command="cluster", algorithm="dbscan", dbscan=dbscan)
        del doc["xmeans"]
        assert main(["cluster", str(write_config(tmp_path, "c.json", doc))]) == EXIT_NUMERICAL
        assert "pipeline stage 'clustering' failed: no clusters" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()


class TestPipeline:
    def test_full_run_report_shape(self, blob_csv, tmp_path):
        cfg = write_config(tmp_path, "p.json", pipeline_config(blob_csv, tmp_path))
        assert main(["pipeline", str(cfg)]) == EXIT_OK
        body = read_report(tmp_path)["body"]
        assert body["architecture"] == f"3:{body['k']}:1"
        for section in ("metrics_train", "metrics_validation", "metrics_test"):
            assert set(body[section]) == {
                "rms", "norm_rms", "bias", "outlier_fraction", "correlation", "n",
            }

    def test_rerun_byte_identical_body(self, blob_csv, tmp_path):
        cfg = write_config(tmp_path, "p.json", pipeline_config(blob_csv, tmp_path))
        assert main(["pipeline", str(cfg)]) == EXIT_OK
        body1 = json.dumps(read_report(tmp_path)["body"], sort_keys=True)
        assert main(["pipeline", str(cfg)]) == EXIT_OK
        body2 = json.dumps(read_report(tmp_path)["body"], sort_keys=True)
        assert body1 == body2

    def test_model_output_round_trips(self, blob_csv, tmp_path):
        model_path = tmp_path / "model.json"
        doc = pipeline_config(blob_csv, tmp_path, model_output=str(model_path))
        cfg = write_config(tmp_path, "p.json", doc)
        assert main(["pipeline", str(cfg)]) == EXIT_OK
        model = load_model(model_path)
        assert model.spec.input_width == 3

    def test_budget_stop_reported_in_header(self, blob_csv, tmp_path, capsys):
        doc = pipeline_config(blob_csv, tmp_path, train={"max_iter": 3})
        cfg = write_config(tmp_path, "p.json", doc)
        assert main(["pipeline", str(cfg)]) == EXIT_OK
        diagnostics = read_report(tmp_path)["header"]["diagnostics"]
        assert {key: diagnostics[key] for key in ("converged", "iterations")} == {
            "converged": False, "iterations": 3,
        }
        assert set(diagnostics) == {
            "converged", "iterations", "objective_calls", "grad_inf_norm", "restart_losses", "threads",
            "clustering",
        }
        assert "training not converged (max_iter=3)" in capsys.readouterr().out

    def test_threads_reported_in_header_body_unchanged(self, blob_csv, tmp_path, monkeypatch):
        # every training splits its objective on a budget of two CPUs; the
        # report body and the model file do not change
        monkeypatch.setattr(mlp, "SPLIT_MIN_WORK", 1)
        reports = []
        for threads in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(threads)), raising=False)
            doc = pipeline_config(blob_csv, tmp_path, model_output=str(tmp_path / f"model{threads}.json"))
            assert main(["pipeline", str(write_config(tmp_path, "p.json", doc))]) == EXIT_OK
            reports.append(read_report(tmp_path))
        assert [r["header"]["diagnostics"]["threads"] for r in reports] == [1, 2]
        assert reports[0]["body"] == reports[1]["body"]
        assert (tmp_path / "model1.json").read_bytes() == (tmp_path / "model2.json").read_bytes()

    def test_objective_calls_reported_in_header(self, blob_csv, tmp_path, monkeypatch):
        calls = []
        real = mlp.loss_and_gradient

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(mlp, "loss_and_gradient", counting)
        doc = pipeline_config(blob_csv, tmp_path, train={"max_iter": 3})
        assert main(["pipeline", str(write_config(tmp_path, "p.json", doc))]) == EXIT_OK
        diagnostics = read_report(tmp_path)["header"]["diagnostics"]
        assert diagnostics["objective_calls"] == len(calls) > 3
        assert diagnostics["grad_inf_norm"] > 0.0

    def test_restart_losses_reported_in_header(self, blob_csv, tmp_path):
        doc = pipeline_config(blob_csv, tmp_path, train={"max_iter": 5, "restarts": 3})
        assert main(["pipeline", str(write_config(tmp_path, "p.json", doc))]) == EXIT_OK
        losses = read_report(tmp_path)["header"]["diagnostics"]["restart_losses"]
        assert len(losses) == 3 and all(math.isfinite(v) and v > 0.0 for v in losses)

    def test_clustering_stop_reported_in_header(self, tmp_path):
        five = tmp_path / "five.csv"
        write_csv(synth_blobs(5, 40, 3, 30.0, 1.0, seed=7), five)
        doc = pipeline_config(five, tmp_path, xmeans={"kmin": 2, "kmax": 3, "seed": 0})
        assert main(["pipeline", str(write_config(tmp_path, "p.json", doc))]) == EXIT_OK
        report = read_report(tmp_path)
        assert report["body"]["k"] == 3
        clustering = report["header"]["diagnostics"]["clustering"]
        assert clustering["stopped_by"] == "kmax"
        assert clustering["split_attempts"] >= 1

    def test_seed_override_changes_split(self, blob_csv, tmp_path):
        cfg = write_config(tmp_path, "p.json", pipeline_config(blob_csv, tmp_path))
        assert main(["pipeline", str(cfg), "--seed", "0"]) == EXIT_OK
        a = read_report(tmp_path)["body"]
        assert main(["pipeline", str(cfg), "--seed", "123"]) == EXIT_OK
        b = read_report(tmp_path)["body"]
        assert a["metrics_test"] != b["metrics_test"]


class TestPathOverrides:
    def test_input_flag_replaces_the_config_input(self, blob_csv, tmp_path):
        cfg = write_config(tmp_path, "c.json", pipeline_config(tmp_path / "absent.csv", tmp_path, command="cluster"))
        assert main(["cluster", str(cfg)]) == EXIT_DATA
        assert main(["cluster", str(cfg), "--input", str(blob_csv)]) == EXIT_OK
        assert read_report(tmp_path)["body"]["k"] == 3

    def test_output_flag_replaces_the_config_output(self, blob_csv, tmp_path):
        cfg = write_config(tmp_path, "c.json", pipeline_config(blob_csv, tmp_path, command="cluster"))
        flagged = tmp_path / "flagged.json"
        assert main(["cluster", str(cfg), "--output", str(flagged)]) == EXIT_OK
        assert not (tmp_path / "report.json").exists()
        assert json.loads(flagged.read_text())["body"]["k"] == 3


class TestSweep:
    def test_rows_sorted_and_best(self, blob_csv, tmp_path):
        doc = pipeline_config(blob_csv, tmp_path, widths=[5, 1, 3])
        for key in ("algorithm", "xmeans"):
            del doc[key]
        cfg = write_config(tmp_path, "s.json", doc)
        assert main(["sweep", str(cfg)]) == EXIT_OK
        body = read_report(tmp_path)["body"]
        widths = [e["hidden_width"] for e in body["entries"]]
        assert widths == [1, 3, 5]
        best = min(body["entries"], key=lambda e: (e["rms_test"], e["hidden_width"]))
        assert body["best_hidden_width"] == best["hidden_width"]

    def test_singleton(self, blob_csv, tmp_path):
        doc = pipeline_config(blob_csv, tmp_path, widths=[4])
        for key in ("algorithm", "xmeans"):
            del doc[key]
        cfg = write_config(tmp_path, "s.json", doc)
        assert main(["sweep", str(cfg)]) == EXIT_OK
        body = read_report(tmp_path)["body"]
        assert body["best_hidden_width"] == 4
        assert len(body["entries"]) == 1

    def test_header_reports_training_per_width(self, blob_csv, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        doc = pipeline_config(blob_csv, tmp_path, widths=[2, 1], train={"max_iter": 5})
        for key in ("algorithm", "xmeans"):
            del doc[key]
        assert main(["sweep", str(write_config(tmp_path, "s.json", doc))]) == EXIT_OK
        report = read_report(tmp_path)
        assert report["header"]["diagnostics"] == {
            "threads": 2,
            "per_width": {w: {"iterations": 5, "converged": False} for w in ("1", "2")},
        }
        assert all(set(e) == {"hidden_width", "rms_test", "correlation"} for e in report["body"]["entries"])

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_header_reports_threads_and_sweep_time(self, blob_csv, tmp_path, monkeypatch, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        doc = pipeline_config(blob_csv, tmp_path, widths=[3, 1, 2], train={"max_iter": 5})
        for key in ("algorithm", "xmeans"):
            del doc[key]
        assert main(["sweep", str(write_config(tmp_path, "s.json", doc))]) == EXIT_OK
        header = read_report(tmp_path)["header"]
        assert header["diagnostics"]["threads"] == min(cpus, 3)
        per_width = header["timings_seconds"]["training_per_width"].values()
        # the sweep's wall time spans every training; serial ones add up
        sweep = header["timings_seconds"]["sweep"]
        assert sweep >= (sum(per_width) if cpus == 1 else max(per_width)) > 0

    def test_empty_widths_is_config_error(self, blob_csv, tmp_path):
        doc = pipeline_config(blob_csv, tmp_path, widths=[])
        for key in ("algorithm", "xmeans"):
            del doc[key]
        cfg = write_config(tmp_path, "s.json", doc)
        assert main(["sweep", str(cfg)]) == EXIT_CONFIG

    def test_training_failure_names_the_stage(self, blob_csv, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise mlp.NumericalError("non-finite loss")

        monkeypatch.setattr(mlp, "train", fail)
        doc = pipeline_config(blob_csv, tmp_path, widths=[2])
        for key in ("algorithm", "xmeans"):
            del doc[key]
        assert main(["sweep", str(write_config(tmp_path, "s.json", doc))]) == EXIT_NUMERICAL
        assert "pipeline stage 'training' failed: non-finite loss" in capsys.readouterr().err


class TestStability:
    def test_rows_emitted_with_shared_seed(self, blob_csv, tmp_path):
        doc = pipeline_config(blob_csv, tmp_path, command="stability", kmins=[2, 3])
        cfg = write_config(tmp_path, "k.json", doc)
        assert main(["stability", str(cfg)]) == EXIT_OK
        body = read_report(tmp_path)["body"]
        assert [r["kmin"] for r in body["rows"]] == [2, 3]
        assert body["split_seed"] == 0

    def test_header_says_how_each_kmin_stopped(self, blob_csv, tmp_path, capsys):
        doc = pipeline_config(blob_csv, tmp_path, command="stability", kmins=[2, 3])
        assert main(["stability", str(write_config(tmp_path, "k.json", doc))]) == EXIT_OK
        header = read_report(tmp_path)["header"]
        assert header["diagnostics"] == {
            "per_kmin": {"2": {"stopped_by": "gaussian"}, "3": {"stopped_by": "gaussian"}}
        }
        assert all(set(t) == {"clustering"} for t in header["timings_seconds"]["per_kmin"].values())
        assert "train_s" not in capsys.readouterr().out

    def test_empty_kmins_is_config_error(self, blob_csv, tmp_path):
        doc = pipeline_config(blob_csv, tmp_path, command="stability", kmins=[])
        cfg = write_config(tmp_path, "k.json", doc)
        assert main(["stability", str(cfg)]) == EXIT_CONFIG

    def test_boolean_kmin_is_config_error(self, blob_csv, tmp_path):
        doc = pipeline_config(blob_csv, tmp_path, command="stability", kmins=[2, True])
        cfg = write_config(tmp_path, "k.json", doc)
        assert main(["stability", str(cfg)]) == EXIT_CONFIG
        assert not (tmp_path / "report.json").exists()

    def test_requires_xmeans(self, blob_csv, tmp_path):
        doc = pipeline_config(blob_csv, tmp_path, command="stability", kmins=[2])
        del doc["xmeans"]
        doc["algorithm"] = "dbscan"
        doc["dbscan"] = {"eps": 1.0, "min_pts": 3}
        cfg = write_config(tmp_path, "k.json", doc)
        assert main(["stability", str(cfg)]) == EXIT_CONFIG


class TestNumericRange:
    def test_dbscan_eps_wider_than_the_data(self, blob_csv, tmp_path):
        # eps squared overflows; every row is then one cluster's core
        doc = pipeline_config(blob_csv, tmp_path, algorithm="dbscan", dbscan={"eps": 1e200, "min_pts": 3})
        del doc["xmeans"]
        assert main(["pipeline", str(write_config(tmp_path, "p.json", doc))]) == EXIT_OK
        assert read_report(tmp_path)["body"]["k"] == 1

    def test_normalization_overflow_names_the_column(self, blob_csv, tmp_path, capsys):
        lines = blob_csv.read_text().splitlines()
        rows = [",".join([("1e308", "-1e308")[i % 2], *line.split(",")[1:]]) for i, line in enumerate(lines[1:])]
        blob_csv.write_text("\n".join([lines[0], *rows]) + "\n")
        cfg = write_config(tmp_path, "p.json", pipeline_config(blob_csv, tmp_path))
        assert main(["pipeline", str(cfg)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "pipeline stage 'normalization' failed: normalization of column 'f0' is not finite" in err
        assert not (tmp_path / "report.json").exists()


class TestCleaningStage:
    @pytest.fixture
    def unlabeled_csv(self, blob_csv):
        lines = blob_csv.read_text().splitlines()
        rows = [line.rsplit(",", 1)[0] + ",-9.999" for line in lines[1:]]
        blob_csv.write_text("\n".join([lines[0], *rows]) + "\n")
        return blob_csv

    @pytest.mark.parametrize("command", ["cluster", "pipeline", "sweep"])
    def test_no_labeled_rows_names_cleaning(self, unlabeled_csv, tmp_path, capsys, command):
        doc = pipeline_config(unlabeled_csv, tmp_path, command=command)
        if command == "sweep":
            del doc["algorithm"], doc["xmeans"]
            doc["widths"] = [2]
        cfg = write_config(tmp_path, "c.json", doc)
        assert main([command, str(cfg)]) == EXIT_DATA
        assert "pipeline stage 'cleaning'" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_no_feature_sentinels_keeps_every_labeled_row(self, blob_csv, tmp_path):
        lines = blob_csv.read_text().splitlines()
        lines[1] = "99," + lines[1].split(",", 1)[1]  # a feature sentinel
        lines[2] = lines[2].rsplit(",", 1)[0] + ",-9.999"  # an unlabeled row
        blob_csv.write_text("\n".join(lines) + "\n")
        doc = pipeline_config(blob_csv, tmp_path, cleaning={"feature_sentinels": []})
        assert main(["pipeline", str(write_config(tmp_path, "c.json", doc))]) == EXIT_OK
        body = read_report(tmp_path)["body"]
        assert body["train_rows"] + body["test_rows"] == len(lines) - 2


class TestMetricsStage:
    @pytest.fixture
    def target_csv(self, blob_csv):
        def write(value):
            lines = blob_csv.read_text().splitlines()
            rows = [line.rsplit(",", 1)[0] + f",{value}" for line in lines[1:]]
            blob_csv.write_text("\n".join([lines[0], *rows]) + "\n")
            return blob_csv

        return write

    @pytest.mark.parametrize(
        "target, message",
        [("-1.0", "actual contains -1"), ("2.5", "undefined correlation: constant input vector")],
    )
    def test_undefined_metric_names_the_stage(self, target_csv, tmp_path, capsys, target, message):
        doc = pipeline_config(target_csv(target), tmp_path, train={"max_iter": 5})
        assert main(["pipeline", str(write_config(tmp_path, "p.json", doc))]) == EXIT_NUMERICAL
        assert f"pipeline stage 'metrics' failed: {message}" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_sweep_constant_test_target_names_the_stage(self, target_csv, tmp_path, capsys):
        doc = pipeline_config(target_csv("2.5"), tmp_path, widths=[2], train={"max_iter": 5})
        del doc["algorithm"], doc["xmeans"]
        assert main(["sweep", str(write_config(tmp_path, "s.json", doc))]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "pipeline stage 'metrics' failed: undefined correlation: constant input vector" in err
        assert not (tmp_path / "report.json").exists()


class TestSynth:
    def synth_doc(self, tmp_path, **extra):
        doc = {
            "schema_version": 1,
            "k": 3,
            "per_cluster": 20,
            "d": 2,
            "separation": 10.0,
            "noise_std": 0.5,
            "seed": 1,
            "output": str(tmp_path / "synth.csv"),
        }
        doc.update(extra)
        return doc

    def test_row_count_and_sidecar(self, tmp_path):
        cfg = write_config(tmp_path, "g.json", self.synth_doc(tmp_path))
        assert main(["synth", str(cfg)]) == EXIT_OK
        ds = load_csv(tmp_path / "synth.csv", target_column="target")
        assert ds.n == 60
        meta = json.loads((tmp_path / "synth.csv.meta.json").read_text())
        assert meta["true_k"] == 3

    def test_same_seed_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, "g.json", self.synth_doc(tmp_path))
        assert main(["synth", str(cfg)]) == EXIT_OK
        first = (tmp_path / "synth.csv").read_bytes()
        assert main(["synth", str(cfg)]) == EXIT_OK
        assert (tmp_path / "synth.csv").read_bytes() == first

    def test_invalid_spec_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, "g.json", self.synth_doc(tmp_path, separation=-1.0))
        assert main(["synth", str(cfg)]) == EXIT_CONFIG

    def test_seed_flag_overrides_seed(self, tmp_path):
        cfg = write_config(tmp_path, "g.json", self.synth_doc(tmp_path))
        assert main(["synth", str(cfg), "--seed", "5"]) == EXIT_OK
        assert json.loads((tmp_path / "synth.csv.meta.json").read_text())["seed"] == 5

    def test_split_is_an_unknown_key_under_seed_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "g.json", self.synth_doc(tmp_path, split={"seed": 0}))
        assert main(["synth", str(cfg), "--seed", "5"]) == EXIT_CONFIG
        assert "config: unknown keys ['split']" in capsys.readouterr().err
        assert not (tmp_path / "synth.csv").exists()

    @pytest.mark.parametrize("seed", [2.5, "3", True])
    def test_non_integer_seed_is_config_error(self, tmp_path, capsys, seed):
        cfg = write_config(tmp_path, "g.json", self.synth_doc(tmp_path, seed=seed))
        assert main(["synth", str(cfg)]) == EXIT_CONFIG
        assert "config: seed must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "synth.csv").exists()


def evaluate_config(tmp_path, **extra):
    preds = tmp_path / "preds.csv"
    preds.write_text("pred,actual\n0.2,0.0\n0.1,0.1\n0.5,0.4\n")
    doc = {"schema_version": 1, "input": str(preds), "output": str(tmp_path / "report.json")}
    doc.update(extra)
    return doc


def runnable_config(blob_csv, tmp_path, command):
    """A small config that `command` runs with exit 0."""
    if command == "evaluate":
        return evaluate_config(tmp_path)
    if command == "synth":
        return TestSynth().synth_doc(tmp_path)
    doc = pipeline_config(blob_csv, tmp_path, command=command)
    if command == "sweep":
        del doc["algorithm"], doc["xmeans"]
        doc["widths"] = [1]
    if command == "stability":
        doc["kmins"] = [2]
    return doc


@pytest.mark.parametrize("command", ["cluster", "pipeline", "evaluate"])
@pytest.mark.parametrize("text", [b"a,z\xe9\n1,2\n3,4\n", b"a,z\n1,2\n3,4\xe9\n"], ids=["header", "body"])
def test_non_utf8_csv_is_data_error(tmp_path, capsys, command, text):
    path = tmp_path / "latin1.csv"
    path.write_bytes(text)
    if command == "evaluate":
        doc = evaluate_config(tmp_path, input=str(path), pred_column="a", actual_column="z")
    else:
        doc = pipeline_config(path, tmp_path, command=command, target_column="z")
    assert main([command, str(write_config(tmp_path, "c.json", doc))]) == EXIT_DATA
    assert f"data error: {path}: not readable as UTF-8 CSV" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


class TestEvaluate:
    def test_integer_threshold_reported_as_number(self, tmp_path):
        cfg = write_config(tmp_path, "e.json", evaluate_config(tmp_path, outlier_threshold=1))
        assert main(["evaluate", str(cfg)]) == EXIT_OK
        assert repr(read_report(tmp_path)["body"]["outlier_threshold"]) == "1.0"

    def test_metrics_on_predictions_file(self, tmp_path):
        preds = tmp_path / "preds.csv"
        preds.write_text("pred,actual\n0.2,0.0\n0.1,0.1\n0.5,0.4\n")
        doc = {
            "schema_version": 1,
            "input": str(preds),
            "output": str(tmp_path / "report.json"),
        }
        cfg = write_config(tmp_path, "e.json", doc)
        assert main(["evaluate", str(cfg)]) == EXIT_OK
        body = read_report(tmp_path)["body"]
        assert body["metrics"]["n"] == 3
        expected_rms = np.mean([0.04, 0.0, 0.01]) ** 0.5
        assert body["metrics"]["rms"] == pytest.approx(expected_rms, rel=1e-9)

    def test_constant_vector_is_numerical_error(self, tmp_path):
        preds = tmp_path / "preds.csv"
        preds.write_text("pred,actual\n0.5,0.1\n0.5,0.2\n")
        doc = {
            "schema_version": 1,
            "input": str(preds),
            "output": str(tmp_path / "report.json"),
        }
        cfg = write_config(tmp_path, "e.json", doc)
        assert main(["evaluate", str(cfg)]) == EXIT_NUMERICAL


    def test_same_pred_and_actual_column_is_config_error(self, tmp_path, capsys):
        doc = evaluate_config(tmp_path, pred_column="actual", actual_column="actual")
        assert main(["evaluate", str(write_config(tmp_path, "e.json", doc))]) == EXIT_CONFIG
        assert "pred_column 'actual' and actual_column 'actual' must differ" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_split_is_an_unknown_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "e.json", evaluate_config(tmp_path, split={"folds": "x"}))
        assert main(["evaluate", str(cfg)]) == EXIT_CONFIG
        assert "config: unknown keys ['split']" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_seed_flag_refused(self, tmp_path, capsys):
        # evaluate has nothing to seed
        cfg = write_config(tmp_path, "e.json", evaluate_config(tmp_path))
        with pytest.raises(SystemExit) as exit_info:
            main(["evaluate", str(cfg), "--seed", "3"])
        assert exit_info.value.code == EXIT_CONFIG
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()


class TestConfigValidation:
    def test_bad_schema_version(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"schema_version": 99})
        assert main(["pipeline", str(cfg)]) == EXIT_CONFIG

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        assert main(["pipeline", str(path)]) == EXIT_CONFIG

    def test_missing_config_file(self, tmp_path):
        assert main(["pipeline", str(tmp_path / "nope.json")]) == EXIT_CONFIG

    def test_non_utf8_config(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_bytes(b'{"schema_version": 1, "input": "caf\xe9.csv"}')
        assert main(["pipeline", str(path)]) == EXIT_CONFIG
        assert f"config error: {path}: not UTF-8 text" in capsys.readouterr().err

    def test_config_with_byte_order_mark(self, blob_csv, tmp_path):
        doc = pipeline_config(blob_csv, tmp_path, command="cluster")
        plain = write_config(tmp_path, "plain.json", doc)
        marked = tmp_path / "marked.json"
        marked.write_text("\ufeff" + json.dumps(doc), encoding="utf-8")
        reports = []
        for cfg in (plain, marked):
            assert main(["cluster", str(cfg)]) == EXIT_OK
            reports.append(read_report(tmp_path))
        assert reports[1]["body"] == reports[0]["body"]
        assert reports[1]["header"]["config_digest"] == reports[0]["header"]["config_digest"]

    @pytest.mark.parametrize(
        "section, key",
        [
            ("train", "wolfe_c1"),
            ("xmeans", "kmeans_tol"),
            ("train", "wolfe_c2"),
            ("xmeans", "kmeans_max_iter"),
            ("cleaning", "row_policy"),
        ],
    )
    def test_removed_knob_is_an_unknown_key(self, blob_csv, tmp_path, capsys, section, key):
        # Lloyd's limits and the Wolfe constants are fixed in the code, and an
        # empty feature_sentinels list keeps every row; even the value a
        # removed knob took is refused.
        doc = pipeline_config(blob_csv, tmp_path)
        doc.setdefault(section, {})[key] = {
            "wolfe_c1": 1e-4, "wolfe_c2": 0.9, "kmeans_tol": 1e-6, "kmeans_max_iter": 300, "row_policy": "keep_rows"
        }[key]
        assert main(["pipeline", str(write_config(tmp_path, "c.json", doc))]) == EXIT_CONFIG
        assert f"config error: {section}: unknown keys [{key!r}]" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("dbscan", "min_pts", 2.5),
            ("dbscan", "min_pts", True),
            ("xmeans", "kmin", 2.5),
            ("meanshift", "max_iter", 50.5),
            ("train", "max_iter", 50.5),
        ],
    )
    def test_non_integer_integer_field(self, blob_csv, tmp_path, capsys, section, key, value):
        doc = pipeline_config(blob_csv, tmp_path)
        if section in ("dbscan", "meanshift"):
            del doc["xmeans"]
            doc["algorithm"] = section
            doc[section] = {"dbscan": {"eps": 0.5, "min_pts": 3}, "meanshift": {"bandwidth": 0.5}}[section]
        doc[section][key] = value
        cfg = write_config(tmp_path, "c.json", doc)
        assert main(["pipeline", str(cfg)]) == EXIT_CONFIG
        assert f"{section}: {key} must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("value", [2.5, "3", True])
    def test_non_integer_split_seed(self, blob_csv, tmp_path, capsys, value):
        doc = pipeline_config(blob_csv, tmp_path)
        doc["split"]["seed"] = value
        cfg = write_config(tmp_path, "c.json", doc)
        assert main(["pipeline", str(cfg)]) == EXIT_CONFIG
        assert f"split: seed must be an integer, got {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("value", [2.5, "3", True])
    def test_non_integer_validation_seed(self, blob_csv, tmp_path, capsys, value):
        doc = pipeline_config(blob_csv, tmp_path, validation_seed=value)
        cfg = write_config(tmp_path, "c.json", doc)
        assert main(["pipeline", str(cfg)]) == EXIT_CONFIG
        assert f"config: validation_seed must be an integer, got {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_unknown_split_key(self, blob_csv, tmp_path, capsys):
        doc = pipeline_config(blob_csv, tmp_path)
        doc["split"]["folds"] = 3
        cfg = write_config(tmp_path, "c.json", doc)
        assert main(["pipeline", str(cfg)]) == EXIT_CONFIG
        assert "split: unknown keys ['folds']" in capsys.readouterr().err

    @pytest.mark.parametrize("section, value", [("split", []), ("train", 5), ("xmeans", "x")])
    def test_non_object_section(self, blob_csv, tmp_path, capsys, section, value):
        doc = pipeline_config(blob_csv, tmp_path, **{section: value})
        cfg = write_config(tmp_path, "c.json", doc)
        assert main(["pipeline", str(cfg)]) == EXIT_CONFIG
        assert f"config: section {section!r} must be an object" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [[1], "0.3", True])
    def test_non_number_validation_fraction(self, blob_csv, tmp_path, capsys, value):
        doc = pipeline_config(blob_csv, tmp_path, validation_fraction=value)
        cfg = write_config(tmp_path, "c.json", doc)
        assert main(["pipeline", str(cfg)]) == EXIT_CONFIG
        assert "config: validation_fraction must be a number" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_integer_validation_fraction_accepted(self, blob_csv, tmp_path):
        doc = pipeline_config(blob_csv, tmp_path, validation_fraction=0)
        cfg = write_config(tmp_path, "c.json", doc)
        assert main(["pipeline", str(cfg)]) == EXIT_OK

    def test_non_object_cleaning(self, blob_csv, tmp_path, capsys):
        doc = pipeline_config(blob_csv, tmp_path, cleaning=5)
        cfg = write_config(tmp_path, "c.json", doc)
        assert main(["pipeline", str(cfg)]) == EXIT_CONFIG
        assert "config: section 'cleaning' must be an object" in capsys.readouterr().err

    def test_non_object_split_with_seed_override(self, blob_csv, tmp_path, capsys):
        doc = pipeline_config(blob_csv, tmp_path, split=[1])
        cfg = write_config(tmp_path, "c.json", doc)
        assert main(["pipeline", str(cfg), "--seed", "3"]) == EXIT_CONFIG
        assert "config: section 'split' must be an object" in capsys.readouterr().err

    def test_kmeans_is_not_an_algorithm(self, blob_csv, tmp_path, capsys):
        doc = pipeline_config(blob_csv, tmp_path, algorithm="kmeans")
        cfg = write_config(tmp_path, "c.json", doc)
        assert main(["pipeline", str(cfg)]) == EXIT_CONFIG
        assert "'kmeans'" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("section, key", [(None, "target_column"), ("dbscan", "eps")])
    def test_missing_required_key(self, blob_csv, tmp_path, capsys, section, key):
        doc = pipeline_config(blob_csv, tmp_path)
        if section == "dbscan":
            del doc["xmeans"]
            doc["algorithm"] = "dbscan"
            doc["dbscan"] = {"eps": 0.5, "min_pts": 3}
        del (doc[section] if section else doc)[key]
        cfg = write_config(tmp_path, "c.json", doc)
        assert main(["pipeline", str(cfg)]) == EXIT_CONFIG
        assert f"{section or 'config'}: missing required key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sections, message",
        [
            ({"xmeans": {"kmin": "two", "bogus": 1}, "meanshift": 7}, "xmeans: unknown keys ['bogus']"),
            ({"xmeans": {"kmin": "two"}}, "xmeans: kmin must be"),
            ({"meanshift": 7}, "config: section 'meanshift' must be an object"),
            ({"meanshift": {"bandwidth": 0.5, "radius": 1.0}}, "meanshift: unknown keys ['radius']"),
        ],
    )
    @pytest.mark.parametrize("command", ["cluster", "pipeline"])
    def test_sections_of_other_algorithms_checked(self, blob_csv, tmp_path, capsys, command, sections, message):
        dbscan = {"eps": 3.0, "min_pts": 5}
        doc = pipeline_config(blob_csv, tmp_path, command=command, algorithm="dbscan", dbscan=dbscan)
        doc.update(sections)
        assert main([command, str(write_config(tmp_path, "c.json", doc))]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_no_side_effects_on_invalid_config(self, blob_csv, tmp_path):
        doc = pipeline_config(blob_csv, tmp_path)
        doc["xmeans"]["kmin"] = -3
        cfg = write_config(tmp_path, "c.json", doc)
        assert main(["pipeline", str(cfg)]) == EXIT_CONFIG
        assert not (tmp_path / "report.json").exists()


# Configs refused at the typed boundary: (command, section, or None for the
# top level, field, refused value).
BOUNDARY_CASES = [
    ("pipeline", "dbscan", "eps", True),
    ("pipeline", "meanshift", "bandwidth", True),
    ("pipeline", "train", "grad_tol", True),
    ("pipeline", "cleaning", "feature_sentinels", "99"),
    ("pipeline", "cleaning", "target_missing_sentinel", True),
    ("pipeline", None, "model_output", 5),
    ("sweep", None, "widths", [True, 2]),
    ("evaluate", None, "outlier_threshold", "0.2"),
    ("evaluate", None, "outlier_threshold", True),
    ("evaluate", None, "outlier_threshold", [1]),
    ("evaluate", None, "outlier_threshold", 0),
    ("evaluate", None, "outlier_threshold", float("nan")),
    ("evaluate", None, "outlier_threshold", float("inf")),
    ("pipeline", "dbscan", "eps", float("nan")),
    ("pipeline", "meanshift", "bandwidth", float("nan")),
    ("pipeline", "meanshift", "merge_radius", float("inf")),
    ("pipeline", "meanshift", "bandwidth", 1e-200),  # 2 h^2 underflows to 0
    ("pipeline", "meanshift", "bandwidth", 1e200),  # 2 h^2 overflows
    ("pipeline", "train", "grad_tol", float("nan")),
    ("pipeline", "cleaning", "feature_sentinels", [99, float("nan")]),
    ("pipeline", "cleaning", "target_missing_sentinel", -float("inf")),
    ("evaluate", None, "pred_column", 5),
    ("evaluate", None, "actual_column", ["a"]),
    ("pipeline", None, "validation_seed", -1),
    ("pipeline", None, "validation_fraction", -0.5),
    ("pipeline", None, "validation_fraction", 1),
    ("pipeline", None, "validation_fraction", 1.5),
    ("pipeline", "xmeans", "seed", -1),
    ("cluster", "xmeans", "seed", -1),
    ("pipeline", "train", "init_scale_seed", -1),
    ("synth", None, "seed", -1),
]


@pytest.mark.parametrize(
    "command, section, key, value",
    BOUNDARY_CASES,
    ids=[f"{c}-{k}={v!r}" for c, _, k, v in BOUNDARY_CASES],
)
def test_typed_boundary_refuses(blob_csv, tmp_path, capsys, command, section, key, value):
    doc = runnable_config(blob_csv, tmp_path, command)
    if section in ("dbscan", "meanshift"):
        del doc["xmeans"]
        doc["algorithm"] = section
        doc[section] = {"dbscan": {"eps": 0.5, "min_pts": 3}, "meanshift": {"bandwidth": 0.5}}[section]
    (doc.setdefault(section, {}) if section else doc)[key] = value
    cfg = write_config(tmp_path, "c.json", doc)
    assert main([command, str(cfg)]) == EXIT_CONFIG
    assert f"{section or 'config'}: {key} must be" in capsys.readouterr().err
    assert not Path(doc["output"]).exists()


# Keys only the pipeline reads, each with a value it takes: every field of
# `train`, as the one field of that section, and the top-level ones.
PIPELINE_ONLY = [
    *(("train", {f.name: getattr(mlp.TrainConfig(), f.name)}) for f in fields(mlp.TrainConfig)),
    ("model_output", "model.json"),
    ("validation_fraction", 0.2),
    ("validation_seed", 1),
]
UNREAD_KEYS = [
    (command, key, value)
    for command in ("cluster", "sweep", "stability")
    for key, value in PIPELINE_ONLY
    if not (command == "sweep" and key == "train")  # the sweep trains
]


@pytest.mark.parametrize(
    "command, key, value", UNREAD_KEYS, ids=[f"{c}-{k}={v!r}" for c, k, v in UNREAD_KEYS]
)
def test_key_a_command_does_not_read_is_refused(blob_csv, tmp_path, capsys, command, key, value):
    # A config shared with the pipeline must drop what this command ignores.
    doc = runnable_config(blob_csv, tmp_path, command)
    doc[key] = str(tmp_path / value) if key == "model_output" else value
    assert main([command, str(write_config(tmp_path, "c.json", doc))]) == EXIT_CONFIG
    assert f"config error: config: unknown keys [{key!r}]" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blobs.csv", "c.json"]


@pytest.mark.parametrize("path", ["missing/out.json", "."], ids=["missing-directory", "directory"])
@pytest.mark.parametrize(
    "command, key", [(command, "output") for command in cli.COMMANDS] + [("pipeline", "model_output")]
)
def test_output_not_a_file_in_an_existing_directory_is_config_error(
    blob_csv, tmp_path, capsys, monkeypatch, command, key, path
):
    # Refused before any data is read, so a run cannot fail at its last step.
    loads = []
    monkeypatch.setattr(cli, "load_csv", lambda *args: loads.append(args))
    doc = runnable_config(blob_csv, tmp_path, command)
    doc[key] = str(tmp_path / path)
    cfg = write_config(tmp_path, "c.json", doc)
    before = sorted(tmp_path.iterdir())
    assert main([command, str(cfg)]) == EXIT_CONFIG
    assert f"config error: config: {key} must name a file in an existing directory" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before
    assert loads == []


# Every key the config parser accepts: per command, the top-level keys
# ("config") and those of each section. A knob added or removed is a
# one-line diff here.
RUN_KEYS = ["cleaning", "id_column", "input", "output", "schema_version", "split", "target_column"]
PIPELINE_EXTRA_KEYS = ["model_output", "train", "validation_fraction", "validation_seed"]
SECTION_KEYS = {
    "split": ["seed", "train_fraction"],
    "cleaning": ["feature_sentinels", "target_missing_sentinel"],
}
TRAIN_KEYS = {"train": ["grad_tol", "init_scale_seed", "lbfgs_memory", "max_iter", "restarts"]}
ALGORITHM_SECTION_KEYS = {
    "xmeans": ["kmax", "kmin", "max_split_rounds", "seed"],
    "dbscan": ["eps", "min_pts"],
    "meanshift": ["bandwidth", "max_iter", "merge_radius", "shift_tol"],
}
ALGORITHM_KEYS = ["algorithm", "dbscan", "meanshift", "xmeans"]
CONFIG_KEYS = {
    "cluster": {"config": RUN_KEYS + ALGORITHM_KEYS, **SECTION_KEYS, **ALGORITHM_SECTION_KEYS},
    "pipeline": {
        "config": RUN_KEYS + PIPELINE_EXTRA_KEYS + ALGORITHM_KEYS,
        **SECTION_KEYS,
        **TRAIN_KEYS,
        **ALGORITHM_SECTION_KEYS,
    },
    "sweep": {"config": RUN_KEYS + ["train", "widths"], **SECTION_KEYS, **TRAIN_KEYS},
    "stability": {"config": RUN_KEYS + ALGORITHM_KEYS + ["kmins"], **SECTION_KEYS, **ALGORITHM_SECTION_KEYS},
    "synth": {
        "config": ["d", "k", "noise_std", "output", "per_cluster", "schema_version", "seed", "separation", "target_fn"]
    },
    "evaluate": {"config": ["actual_column", "input", "outlier_threshold", "output", "pred_column", "schema_version"]},
}


@pytest.mark.parametrize("command", list(CONFIG_KEYS))
def test_config_key_inventory(blob_csv, tmp_path, monkeypatch, command):
    # Runs a config with every section the command takes and records the
    # keys the parser accepts in each: the section class's fields plus the
    # keys it shares with other parsers.
    accepted = {}
    parse = cli._parse_section

    def recording(doc, cls, where, shared=frozenset()):
        accepted[where] = sorted({f.name for f in fields(cls)} | set(shared))
        return parse(doc, cls, where, shared)

    monkeypatch.setattr(cli, "_parse_section", recording)
    doc = runnable_config(blob_csv, tmp_path, command)
    if command in cli.COMMAND_KEYS:
        doc["cleaning"] = {}
    if "algorithm" in doc:
        doc.update(dbscan={"eps": 0.5, "min_pts": 3}, meanshift={"bandwidth": 0.5})
    assert main([command, str(write_config(tmp_path, "c.json", doc))]) == EXIT_OK
    assert accepted == {where: sorted(keys) for where, keys in CONFIG_KEYS[command].items()}


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# Imports the CLI, then prints a hash of the objective's large BLAS products
# at the csv-pipeline shape and above, and the thread variables it sees.
BLAS_PRODUCTS = """
import hashlib, os
import cluster_mlp.cli
import numpy as np
rng = np.random.default_rng(0)
digest = hashlib.sha256()
for n in (52_117, 100_000):
    xs = rng.normal(size=(n, 10))
    for k in (1, 8):
        w1 = rng.normal(size=(k, 10))
        h = np.tanh(xs @ w1.T)
        for product in (xs @ w1.T, h @ rng.normal(size=k), h.T @ xs):
            digest.update(product.tobytes())
print(digest.hexdigest(), *(os.environ[v] for v in %r))
""" % (BLAS_THREAD_VARS,)


def test_cli_runs_blas_on_one_thread_unless_told_otherwise():
    # A multi-threaded BLAS splits a large product's rows among its threads,
    # and the bits then depend on the machine's CPU count.
    src = str(Path(cli.__file__).resolve().parents[1])
    base = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS} | {"PYTHONPATH": src}

    def run(**env):
        proc = subprocess.run(
            [sys.executable, "-c", BLAS_PRODUCTS], env=base | env, capture_output=True, text=True, check=True
        )
        return proc.stdout.split()

    unset = run()
    user_set = run(OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="3")
    assert unset[0] == user_set[0]
    assert unset[1:] == ["1", "1", "1", "1"]
    assert user_set[1:] == ["1", "1", "3", "1"]  # a value set in the environment wins
