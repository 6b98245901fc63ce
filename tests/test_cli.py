import json
import os
import subprocess
import sys
import zlib
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import TOY_JOINT_BASE, make_dictionary, random_params

from hieract import cli, inference
from hieract import descriptors as desc
from hieract.cli import UsageError, load_features, main, save_features
from hieract.energy import ModelDims, ModelParams, save_model
from hieract.evaluation import SyntheticSpec
from hieract.skeleton import KINECT20


def _write_skeleton(path: Path, video_id: str, T: int = 30, shift: float = 0.02):
    rng = np.random.default_rng(zlib.crc32(video_id.encode()))
    lines = [json.dumps({"schema": "kinect20", "video_id": video_id,
                         "fps": 30})]
    base = np.array([TOY_JOINT_BASE[n] for n in KINECT20.joint_names])
    for t in range(T):
        joints = base + shift * t + rng.normal(scale=0.01,
                                               size=base.shape)
        lines.append(json.dumps({"t": t, "joints": joints.tolist()}))
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def synth_dataset(tmp_path):
    out = tmp_path / "data"
    code = main(["synth", "--out", str(out),
                 "--classes", "2", "--actions", "2", "--actionlets", "2",
                 "--poselets", "3", "--regions", "2", "--dim", "5",
                 "--min-frames", "14", "--max-frames", "18",
                 "--videos-per-class", "4", "--test-per-class", "2",
                 "--actions-per-class", "1", "--seed", "5"])
    assert code == 0
    return out


class TestSynth:
    def test_layout(self, synth_dataset):
        for split in ("train", "test"):
            base = synth_dataset / split
            assert (base / "annotations.csv").exists()
            assert (base / "labels.csv").exists()
            assert (base / "frames.csv").exists()
            assert list((base / "features").glob("*.npy"))
        meta = json.loads((synth_dataset / "meta.json").read_text())
        assert meta["num_classes"] == 2

    def test_rerun_is_byte_identical(self, synth_dataset, tmp_path):
        again = tmp_path / "again"
        main(["synth", "--out", str(again),
              "--classes", "2", "--actions", "2", "--actionlets", "2",
              "--poselets", "3", "--regions", "2", "--dim", "5",
              "--min-frames", "14", "--max-frames", "18",
              "--videos-per-class", "4", "--test-per-class", "2",
              "--actions-per-class", "1", "--seed", "5"])
        for rel in sorted(p.relative_to(synth_dataset)
                          for p in synth_dataset.rglob("*") if p.is_file()):
            assert (again / rel).read_bytes() == \
                (synth_dataset / rel).read_bytes(), rel

    def test_flag_defaults_are_the_spec_defaults(self):
        args = cli.build_parser().parse_args(["synth", "--out", "x"])
        spec = SyntheticSpec()
        assert (args.classes, args.actions, args.actionlets, args.poselets,
                args.regions, args.dim) == (3, 4, 6, 8, 2, 10) == (
            spec.num_classes, spec.num_actions, spec.num_actionlets,
            spec.num_poselets, spec.num_regions, spec.dim)
        assert (args.min_frames, args.max_frames) == (30, 60) \
            == spec.frames_range
        assert (args.videos_per_class, args.test_per_class) == (20, 0)
        assert (args.sigma, args.noise_fraction, args.actions_per_class,
                args.seed) == (0.05, 0.0, 2, 0) == (
            spec.sigma, spec.noise_frame_fraction, spec.actions_per_class,
            spec.seed)

    @pytest.mark.parametrize("flags, fault", [
        (["--seed", "-1"], "argument --seed: '-1' is not at least 0"),
        (["--videos-per-class", "0", "--test-per-class", "0"],
         "--videos-per-class and --test-per-class are both 0"),
        (["--videos-per-class", "-1"],
         "argument --videos-per-class: '-1' is not at least 0"),
        (["--min-frames", "0"],
         "argument --min-frames: '0' is not at least 1"),
        (["--min-frames", "-3"],
         "argument --min-frames: '-3' is not at least 1"),
        (["--min-frames", "50", "--max-frames", "40"],
         "--min-frames 50 is above --max-frames 40"),
        (["--sigma", "-1"], "argument --sigma: '-1' is not at least 0"),
        (["--noise-fraction", "2"],
         "argument --noise-fraction: '2' is not from 0 to 1"),
        (["--dim", "5"], "--dim 5 is below --poselets 8"),
        (["--sigma", "0.4"], "--sigma 0.4 is not below sqrt(2)/4"),
        (["--actionlets", "3"],
         "--actionlets 3 is not from --actions 4 to --poselets 8"),
        (["--actionlets", "9"],
         "--actionlets 9 is not from --actions 4 to --poselets 8"),
        (["--actions-per-class", "5"],
         "--actions-per-class 5 is above --actions 4"),
        (["--classes", "1", "--regions", "1", "--actions-per-class", "1"],
         "raise --actions-per-class or lower --actions")],
        ids=["seed", "no-videos", "negative-videos", "no-frames",
             "negative-frames", "min-above-max", "sigma", "noise-fraction",
             "dim-below-poselets", "sigma-not-separable",
             "actionlets-below-actions", "actionlets-above-poselets",
             "actions-per-class-above-actions", "actions-left-unused"])
    def test_flag_out_of_range_is_validation_error(self, tmp_path, capsys,
                                                   flags, fault):
        out = tmp_path / "data"
        assert main(["synth", "--out", str(out)] + flags) == 1
        assert fault in capsys.readouterr().err
        assert not out.exists()


class TestFeatures:
    def test_geo_only(self, tmp_path):
        skel = tmp_path / "skel"
        skel.mkdir()
        for i in range(2):
            _write_skeleton(skel / f"v{i}.jsonl", f"v{i}")
        out = tmp_path / "features"
        code = main(["features", "--skeletons", str(skel), "--out", str(out),
                     "--mode", "geo"])
        assert code == 0
        feats = load_features(out)
        assert feats["v0"].shape == (30, 4, 18)

    def test_velocity_mode_dimension(self, tmp_path):
        skel = tmp_path / "skel"
        skel.mkdir()
        for i in range(2):
            _write_skeleton(skel / f"v{i}.jsonl", f"v{i}", T=40)
        out = tmp_path / "features"
        code = main(["features", "--skeletons", str(skel), "--out", str(out),
                     "--mode", "geo+velocity", "--pca-dim", "20",
                     "--window", "7"])
        assert code == 0
        feats = load_features(out)
        assert feats["v1"].shape == (40, 4, 38)
        assert (out / "pca.json").exists()

    def test_missing_directory_is_validation_error(self, tmp_path):
        code = main(["features", "--skeletons", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "f")])
        assert code == 1

    @pytest.mark.parametrize("mode", ["velocity", "geo+depth", "GEO"])
    def test_unknown_ini_mode_is_validation_error(self, tmp_path, capsys,
                                                  mode):
        skel = tmp_path / "skel"
        skel.mkdir()
        _write_skeleton(skel / "v0.jsonl", "v0")
        config = tmp_path / "run.ini"
        config.write_text(f"[features]\nmode = {mode}\n")
        out = tmp_path / "features"
        code = main(["features", "--config", str(config),
                     "--skeletons", str(skel), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "'mode'" in err and "[features]" in err and str(config) in err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["geo", "geo+velocity"])
    def test_other_schema_is_validation_error(self, tmp_path, capsys, mode):
        skel = tmp_path / "skel"
        skel.mkdir()
        for i in range(2):
            _write_skeleton(skel / f"v{i}.jsonl", f"v{i}", T=40)
        out = tmp_path / "features"
        code = main(["features", "--skeletons", str(skel), "--out", str(out),
                     "--schema", "puppet15", "--mode", mode])
        assert code == 1
        err = capsys.readouterr().err
        assert "v0.jsonl" in err
        assert "'kinect20'" in err and "'puppet15'" in err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["geo", "geo+velocity"])
    def test_parse_error_names_the_file(self, tmp_path, capsys, mode):
        skel = tmp_path / "skel"
        skel.mkdir()
        _write_skeleton(skel / "v0.jsonl", "v0", T=40)
        bad = skel / "v1.jsonl"
        bad.write_text(json.dumps({"schema": "kinect20", "video_id": "v1"})
                       + "\n" + json.dumps({"t": 0, "joints": [[0, 0, 0]]})
                       + "\n")
        out = tmp_path / "features"
        code = main(["features", "--skeletons", str(skel), "--out", str(out),
                     "--mode", mode])
        assert code == 1
        assert f"{bad}: frame t=0: expected 20 joints" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_sidecar_frame_past_the_video_is_validation_error(
            self, tmp_path, capsys):
        skel, sidecars = tmp_path / "skel", tmp_path / "sidecars"
        skel.mkdir()
        sidecars.mkdir()
        _write_skeleton(skel / "v0.jsonl", "v0", T=30)
        (sidecars / "v0.jsonl").write_text("\n".join(
            json.dumps({"t": t, "joint": 0, "feat": [1.0, 2.0]})
            for t in (0, 30)) + "\n")
        code = main(["features", "--skeletons", str(skel),
                     "--out", str(tmp_path / "features"),
                     "--mode", "geo+precomputed",
                     "--sidecar-dir", str(sidecars)])
        assert code == 1
        err = capsys.readouterr().err
        assert str(sidecars / "v0.jsonl") in err
        assert "line 2: t 30 outside 0..29" in err

    def test_motion_is_computed_once_per_video(self, tmp_path, monkeypatch):
        calls = []
        raw_motion_vectors = desc.raw_motion_vectors

        def counted(seq, *args, **kwargs):
            calls.append(seq.video_id)
            return raw_motion_vectors(seq, *args, **kwargs)

        monkeypatch.setattr(desc, "raw_motion_vectors", counted)
        skel = tmp_path / "skel"
        skel.mkdir()
        for i in range(3):
            _write_skeleton(skel / f"v{i}.jsonl", f"v{i}", T=20)
        code = main(["features", "--skeletons", str(skel),
                     "--out", str(tmp_path / "features"),
                     "--mode", "geo+velocity"])
        assert code == 0
        assert calls == ["v0", "v1", "v2"]

    def test_rerun_is_byte_identical(self, tmp_path):
        skel = tmp_path / "skel"
        skel.mkdir()
        _write_skeleton(skel / "v0.jsonl", "v0", T=40)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(["features", "--skeletons", str(skel), "--out", str(out),
                  "--mode", "geo+velocity"])
            outs.append(out)
        for rel in ("v0.npy", "v0.json", "pca.json"):
            assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes()

    def test_too_few_frames_names_the_directory_and_pca_dim(self, tmp_path,
                                                             capsys):
        skel = tmp_path / "skel"
        skel.mkdir()
        _write_skeleton(skel / "v0.jsonl", "v0", T=10)
        out = tmp_path / "features"
        code = main(["features", "--skeletons", str(skel), "--out", str(out),
                     "--mode", "geo+velocity"])
        assert code == 1
        assert f"{skel}: 10 frames in all, but fitting --pca-dim 20" \
            in capsys.readouterr().err
        assert not out.exists()


class TestSavedPca:
    """``features --pca`` projects with saved models instead of fitting."""

    @pytest.fixture
    def fitted(self, tmp_path):
        """A training feature directory with its fitted pca.json, and a
        directory of skeletons to project."""
        train, test = tmp_path / "train_skel", tmp_path / "test_skel"
        train.mkdir()
        test.mkdir()
        for i in range(2):
            _write_skeleton(train / f"v{i}.jsonl", f"v{i}", T=40)
        _write_skeleton(test / "w0.jsonl", "w0", T=12, shift=0.05)
        assert main(["features", "--skeletons", str(train),
                     "--out", str(tmp_path / "train"),
                     "--mode", "geo+velocity"]) == 0
        return tmp_path / "train" / "pca.json", test

    def _project(self, tmp_path, skel, pca, *flags):
        out = tmp_path / "out"
        code = main(["features", "--skeletons", str(skel), "--out", str(out),
                     "--mode", "geo+velocity", "--pca", str(pca), *flags])
        return code, out

    def test_projects_with_the_training_models(self, fitted, tmp_path):
        # 12 frames: too few to fit 20 directions, enough to project
        pca, skel = fitted
        code, out = self._project(tmp_path, skel, pca)
        assert code == 0
        models = cli._read_pca(pca)
        seq = cli._read_skeleton(skel / "w0.jsonl", KINECT20)
        raw = desc.raw_motion_vectors(seq, KINECT20, "velocity")
        np.testing.assert_array_equal(
            load_features(out)["w0"],
            desc.build_descriptors(seq, KINECT20, raw, models))
        written = json.loads((out / "pca.json").read_text())["models"]
        assert written == json.loads(pca.read_text())["models"]

    def test_model_file_gives_the_same_features(self, fitted, tmp_path):
        pca, skel = fitted
        dims = ModelDims(R=4, K=3, D=38, A=2, S=2, Y=2)
        model = tmp_path / "model.json"
        model.write_text(save_model(
            ModelParams.zeros(dims, dictionary=make_dictionary(2, 2, 3)),
            pca_models=cli._read_pca(pca)))
        code, from_pca = self._project(tmp_path / "a", skel, pca)
        assert code == 0
        code, from_model = self._project(tmp_path / "b", skel, model)
        assert code == 0
        for name in ("w0.npy", "pca.json"):
            assert (from_pca / name).read_bytes() == \
                (from_model / name).read_bytes()

    @pytest.mark.parametrize("fault", [
        "model-without-pca", "region-count", "input-dim", "output-dim",
        "geo-mode"])
    def test_mismatched_models_are_validation_errors(self, fitted, tmp_path,
                                                      capsys, fault):
        pca, skel = fitted
        flags = []
        if fault == "model-without-pca":
            pca = tmp_path / "model.json"
            pca.write_text(save_model(ModelParams.zeros(
                ModelDims(R=4, K=3, D=18, A=2, S=2, Y=2),
                dictionary=make_dictionary(2, 2, 3))))
            message = "model file holds no PCA models"
        elif fault == "region-count":
            doc = json.loads(pca.read_text())
            pca = tmp_path / "three.json"
            pca.write_text(json.dumps({"models": doc["models"][:3]}))
            message = "3 PCA models, but schema 'kinect20' has 4 regions"
        elif fault == "input-dim":
            flags = ["--window", "3"]
            message = ("PCA model 0 has mean of shape (180,) and components "
                       "of shape (180, 20), but region 0's raw motion has "
                       "dim 84")
        elif fault == "output-dim":
            flags = ["--pca-dim", "10"]
            message = ("PCA model 0 has components of shape (180, 20), but "
                       "--pca-dim is 10")
        else:
            flags = ["--mode", "geo"]
            message = "--mode geo has no motion to project with PCA"
        code, out = self._project(tmp_path, skel, pca, *flags)
        assert code == 1
        assert f"{pca}: {message}" in capsys.readouterr().err
        assert not out.exists()

    def _pca_model(self, tmp_path, pca):
        """A model file holding the PCA models of ``pca``."""
        model = tmp_path / "model.json"
        model.write_text(save_model(ModelParams.zeros(
            ModelDims(R=4, K=3, D=38, A=2, S=2, Y=2),
            dictionary=make_dictionary(2, 2, 3)),
            pca_models=cli._read_pca(pca)))
        return model

    def _label(self, tmp_path, command, model, features):
        out = tmp_path / f"{command}_out"
        outputs = (["--out", str(out)] if command == "infer" else
                   ["--out", str(out), "--labels-out", str(tmp_path / "l")])
        return main([command, "--model", str(model),
                     "--features", str(features)] + outputs), out

    @pytest.mark.parametrize("command", ["infer", "annotate"])
    def test_features_projected_with_the_model_are_labelled(
            self, fitted, tmp_path, command):
        pca, skel = fitted
        model = self._pca_model(tmp_path, pca)
        code, features = self._project(tmp_path, skel, model)
        assert code == 0
        code, out = self._label(tmp_path, command, model, features)
        assert code == 0 and out.exists()

    @pytest.mark.parametrize("command", ["infer", "annotate"])
    @pytest.mark.parametrize("fault", ["own-pca", "no-pca-file"])
    def test_features_of_other_pca_are_validation_error(
            self, fitted, tmp_path, capsys, command, fault):
        # features that fit their own PCA, of the model's shape
        pca, _ = fitted
        model = self._pca_model(tmp_path, pca)
        skel, features = tmp_path / "own_skel", tmp_path / "own"
        skel.mkdir()
        _write_skeleton(skel / "w1.jsonl", "w1", T=40, shift=0.05)
        assert main(["features", "--skeletons", str(skel),
                     "--out", str(features), "--mode", "geo+velocity"]) == 0
        if fault == "no-pca-file":
            (features / "pca.json").unlink()
            message = (f"model {model} holds PCA models, but the features "
                       f"have no {features / 'pca.json'}")
        else:
            message = (f"{features / 'pca.json'} holds other PCA models "
                       f"than model {model}")
        code, out = self._label(tmp_path, command, model, features)
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestPipeline:
    def test_end_to_end_smoke(self, synth_dataset, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        log_path = tmp_path / "train_log.jsonl"
        code = main(["train",
                     "--features", str(synth_dataset / "train" / "features"),
                     "--annotations", str(synth_dataset / "train" / "annotations.csv"),
                     "--labels", str(synth_dataset / "train" / "labels.csv"),
                     "--out", str(model_path),
                     "--num-poselets", "3",
                     "--supervision", "temporal",
                     "--C", "10", "--beam", "64",
                     "--max-cccp-iters", "2",
                     "--max-cutting-plane-iters", "150",
                     "--log", str(log_path)])
        assert code == 0
        assert model_path.exists()
        log_lines = [json.loads(line)
                     for line in log_path.read_text().splitlines()]
        assert log_lines[0]["iteration"] == 0
        assert "objective" in log_lines[0]
        for entry in log_lines[1:]:
            assert entry["oracle_passes"] >= 0
            assert 0 <= entry["cached_steps"] \
                <= entry["cutting_plane_iterations"]

        out_dir = tmp_path / "pred"
        code = main(["infer", "--model", str(model_path),
                     "--features", str(synth_dataset / "test" / "features"),
                     "--out", str(out_dir)])
        assert code == 0
        preds = [json.loads(line) for line in
                 (out_dir / "predictions.jsonl").read_text().splitlines()]
        assert {"video_id", "y", "energy", "frames"} <= set(preds[0])

        frames_csv = tmp_path / "frames.csv"
        labels_csv = tmp_path / "pred_labels.csv"
        code = main(["annotate", "--model", str(model_path),
                     "--features", str(synth_dataset / "test" / "features"),
                     "--out", str(frames_csv),
                     "--labels-out", str(labels_csv)])
        assert code == 0
        header = frames_csv.read_text().splitlines()[0]
        assert header == "video_id,t,region,z,v,u"

        metrics_path = tmp_path / "metrics.json"
        code = main(["eval",
                     "--pred-labels", str(labels_csv),
                     "--truth-labels", str(synth_dataset / "test" / "labels.csv"),
                     "--pred-frames", str(frames_csv),
                     "--truth-annotations",
                     str(synth_dataset / "test" / "annotations.csv"),
                     "--out", str(metrics_path),
                     "--min-run", "2"])
        assert code == 0
        metrics = json.loads(metrics_path.read_text())
        assert "accuracy" in metrics
        assert 0.0 <= metrics["accuracy"] <= 1.0
        assert "detection" in metrics

        # annotate twice -> byte-identical outputs
        frames2 = tmp_path / "frames2.csv"
        labels2 = tmp_path / "labels2.csv"
        main(["annotate", "--model", str(model_path),
              "--features", str(synth_dataset / "test" / "features"),
              "--out", str(frames2), "--labels-out", str(labels2)])
        assert frames2.read_bytes() == frames_csv.read_bytes()
        assert labels2.read_bytes() == labels_csv.read_bytes()

    def test_log_wall_time_is_when_each_objective_was_computed(
            self, synth_dataset, tmp_path):
        base = synth_dataset / "train"
        log_path = tmp_path / "train_log.jsonl"
        assert main(["train", "--features", str(base / "features"),
                     "--annotations", str(base / "annotations.csv"),
                     "--labels", str(base / "labels.csv"),
                     "--out", str(tmp_path / "model.json"),
                     "--num-poselets", "3", "--max-cccp-iters", "2",
                     "--log", str(log_path)]) == 0
        times = [json.loads(line)["wall_time"]
                 for line in log_path.read_text().splitlines()]
        assert len(times) == 3
        assert all(a < b for a, b in zip(times, times[1:])), times

    def test_init_commands(self, synth_dataset, tmp_path):
        base = synth_dataset / "train"
        dict_path = tmp_path / "dictionary.json"
        code = main(["init-dictionary",
                     "--features", str(base / "features"),
                     "--annotations", str(base / "annotations.csv"),
                     "--labels", str(base / "labels.csv"),
                     "--num-poselets", "3",
                     "--out", str(dict_path)])
        assert code == 0
        summary = json.loads(dict_path.read_text())
        assert summary["num_poselets"] == 3
        assert summary["num_actionlets"] == sum(summary["actionlet_counts"])

        assign_path = tmp_path / "assignments.json"
        code = main(["init-assignments",
                     "--features", str(base / "features"),
                     "--annotations", str(base / "annotations.csv"),
                     "--labels", str(base / "labels.csv"),
                     "--num-poselets", "3",
                     "--out", str(assign_path)])
        assert code == 0
        doc = json.loads(assign_path.read_text())
        assert doc["assignments"]
        for regions in doc["assignments"].values():
            assert all(len(r) >= 1 for r in regions)

    def test_init_assignments_rerun_is_byte_identical(self, synth_dataset,
                                                      tmp_path):
        base = synth_dataset / "train"
        outs = [tmp_path / "a.json", tmp_path / "b.json"]
        for out in outs:
            assert main(["init-assignments",
                         "--features", str(base / "features"),
                         "--annotations", str(base / "annotations.csv"),
                         "--labels", str(base / "labels.csv"),
                         "--num-poselets", "3", "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_train_without_progress_writes_no_model(self, synth_dataset,
                                                    tmp_path, capsys):
        # two exact oracle passes leave an iterate whose objective is
        # above the all-zero model's, so no CCCP step is accepted
        base = synth_dataset / "train"
        model_path = tmp_path / "model.json"
        code = main(["train",
                     "--features", str(base / "features"),
                     "--annotations", str(base / "annotations.csv"),
                     "--labels", str(base / "labels.csv"),
                     "--out", str(model_path), "--num-poselets", "3",
                     "--C", "10", "--max-cccp-iters", "1",
                     "--max-cutting-plane-iters", "2"])
        assert code == 2
        assert not model_path.exists()
        err = capsys.readouterr().err
        assert "--max-cutting-plane-iters" in err
        assert "at most 2 exact oracle passes" in err


    @pytest.mark.parametrize("seed", [7, 10])
    def test_planted_default_set_trains(self, tmp_path, seed):
        # these seeds used to plant a set missing an atomic action, which
        # training rejected
        data = tmp_path / "data"
        assert main(["synth", "--out", str(data), "--seed", str(seed),
                     "--videos-per-class", "4", "--test-per-class", "2"]) == 0
        config = tmp_path / "run.ini"
        config.write_text("[train]\neps_qp = 20\n")
        base = data / "train"
        assert main(["train", "--config", str(config),
                     "--features", str(base / "features"),
                     "--annotations", str(base / "annotations.csv"),
                     "--labels", str(base / "labels.csv"),
                     "--out", str(tmp_path / "model.json"),
                     "--num-poselets", "8", "--max-cccp-iters", "1"]) == 0


    def test_annotate_labels_every_video_in_one_maximization(
            self, synth_dataset, tmp_path, monkeypatch):
        dims = ModelDims(R=2, K=3, D=5, A=2, S=2, Y=2)
        model_path = tmp_path / "model.json"
        model_path.write_text(save_model(random_params(
            dims, np.random.default_rng(7))))
        features = synth_dataset / "test" / "features"
        num_videos = len(load_features(features))
        calls = Counter()

        def count(module, name):
            func = getattr(module, name)

            def counting(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)
            monkeypatch.setattr(module, name, counting)
        for module, name in [(cli, "maximize"), (cli, "infer"),
                             (inference, "energy_total"),
                             (inference, "_unary_margins")]:
            count(module, name)
        frames_csv = tmp_path / "frames.csv"
        labels_csv = tmp_path / "labels.csv"
        assert main(["annotate", "--model", str(model_path),
                     "--features", str(features), "--out", str(frames_csv),
                     "--labels-out", str(labels_csv)]) == 0
        assert calls == {"maximize": 1}
        # infer labels each video alone, as annotate does in its batch
        out = tmp_path / "pred"
        assert main(["infer", "--model", str(model_path),
                     "--features", str(features), "--out", str(out)]) == 0
        assert calls["infer"] == calls["energy_total"] == num_videos > 1
        assert (out / "predictions.csv").read_bytes() \
            == frames_csv.read_bytes()
        assert (out / "pred_labels.csv").read_bytes() \
            == labels_csv.read_bytes()


class TestErrors:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_no_command_prints_usage(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    @pytest.mark.parametrize("command", [
        "train", "init-dictionary", "init-assignments"])
    def test_interval_past_the_last_frame_is_validation_error(
            self, synth_dataset, tmp_path, capsys, command):
        base = synth_dataset / "train"
        video_id = "synth_0_000"
        frames = load_features(base / "features")[video_id].shape[0]
        rows = (base / "annotations.csv").read_text().splitlines()
        i = next(i for i, row in enumerate(rows)
                 if row.startswith(video_id + ","))
        fields = rows[i].split(",")
        fields[3] = str(frames)                    # t_end one past the end
        rows[i] = ",".join(fields)
        annotations = tmp_path / "annotations.csv"
        annotations.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out.json"
        code = main([command, "--features", str(base / "features"),
                     "--annotations", str(annotations),
                     "--labels", str(base / "labels.csv"),
                     "--out", str(out), "--num-poselets", "3"])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{annotations}: video {video_id!r}: interval 0 " in err
        assert f"..{frames}) ends past the last frame {frames - 1}" in err
        assert not out.exists()

    def test_feature_array_must_match_its_header(self, tmp_path):
        features = tmp_path / "features"
        save_features(features, "a", np.zeros((5, 2, 3)), "h")
        save_features(features, "b", np.zeros((4, 2, 3)), "h")
        assert load_features(features)["b"].shape == (4, 2, 3)
        header = json.loads((features / "b.json").read_text())
        (features / "b.json").write_text(json.dumps({**header, "frames": 6}))
        with pytest.raises(UsageError, match="b.npy: array shape"):
            load_features(features)
        save_features(features, "b", np.zeros((4, 2, 4)), "h")
        with pytest.raises(UsageError, match=r"b.npy: \(regions, dim\)"):
            load_features(features)

    def test_header_naming_another_video_names_the_file(
            self, synth_dataset, tmp_path, capsys):
        """A second header naming a video already read would silently
        replace it; annotate refuses the set, naming the header."""
        features = synth_dataset / "test" / "features"
        first = min(features.glob("synth_*.json"))
        copy = features / f"copy_of_{first.name}"
        copy.write_text(first.read_text())
        model_path = tmp_path / "model.json"
        model_path.write_text(save_model(random_params(
            ModelDims(R=2, K=3, D=5, A=2, S=2, Y=2),
            np.random.default_rng(7))))
        assert main(["annotate", "--model", str(model_path),
                     "--features", str(features),
                     "--out", str(tmp_path / "frames.csv"),
                     "--labels-out", str(tmp_path / "labels.csv")]) == 1
        assert (f"{copy}: feature header names video {first.stem!r}, "
                f"not {copy.stem!r}") in capsys.readouterr().err

    @pytest.mark.parametrize("fault", ["pickled", "empty", "truncated"])
    def test_unreadable_feature_array_names_the_file(self, tmp_path, fault):
        features = tmp_path / "features"
        save_features(features, "a", np.zeros((5, 2, 3)), "h")
        save_features(features, "b", np.zeros((4, 2, 3)), "h")
        array = features / "b.npy"
        if fault == "pickled":
            np.save(array, np.array([{"x": 1}], dtype=object),
                    allow_pickle=True)
        else:
            data = array.read_bytes()
            array.write_bytes(b"" if fault == "empty" else data[:-8])
        with pytest.raises(UsageError) as info:
            load_features(features)
        assert str(info.value).startswith(
            f"{array}: unreadable feature array (")

    @pytest.mark.parametrize("via, key, value, command", [
        (via, *case) for via in ("flag", "ini") for case in (
            ("num_poselets", "0", "init-assignments"),
            ("num_poselets", "0", "train"),
            ("num_poselets", "-3", "init-dictionary"),
            ("pca_dim", "-2", "features"),
            ("pca_dim", "0", "features"),
            ("window", "-1", "features"),
            ("C", "0", "train"),
            ("C", "nan", "train"),
            ("max_cccp_iters", "-2", "train"),
            ("max_cutting_plane_iters", "-1", "train"),
            ("beam", "0", "train"),
            ("seed", "-1", "init-dictionary"),
            ("schema", "bogus", "features"),
            ("min_overlap", "0", "eval"),
            ("min_overlap", "1.5", "eval"))] + [
        # keys without a flag
        ("ini", "lambda_y", "-1", "train"),
        ("ini", "lambda_v", "-0.5", "train"),
        ("ini", "eps_qp", "0", "train")])
    def test_size_out_of_range_is_validation_error(
            self, synth_dataset, tmp_path, capsys, monkeypatch, key, value,
            command, via):
        def refuse(*args, **kwargs):
            raise AssertionError("initialization started")
        monkeypatch.setattr(cli, "initialize", refuse)
        if command == "features":
            skeletons = tmp_path / "skel"
            skeletons.mkdir()
            _write_skeleton(skeletons / "v0.jsonl", "v0")
            args = ["features", "--skeletons", str(skeletons)]
        elif command == "eval":
            test = synth_dataset / "test"
            args = ["eval", "--pred-labels", str(test / "labels.csv"),
                    "--truth-labels", str(test / "labels.csv"),
                    "--pred-frames", str(test / "frames.csv"),
                    "--truth-annotations", str(test / "annotations.csv")]
        else:
            base = synth_dataset / "train"
            args = [command, "--features", str(base / "features"),
                    "--annotations", str(base / "annotations.csv"),
                    "--labels", str(base / "labels.csv")]
        out = tmp_path / "out"
        args += ["--out", str(out)]
        config = tmp_path / "run.ini"
        if via == "flag":
            args += ["--" + key.replace("_", "-"), value]
        else:
            config.write_text(f"[sizes]\n{key} = {value}\n")
            args += ["--config", str(config)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert f"config key {key!r}" in err and repr(value) in err
        if via == "ini":
            assert "[sizes]" in err and str(config) in err
        else:
            assert "--" + key.replace("_", "-") in err
        assert not out.exists()

    def test_missing_model_is_validation_error(self, tmp_path):
        code = main(["infer", "--model", str(tmp_path / "missing.json"),
                     "--features", str(tmp_path), "--out",
                     str(tmp_path / "o")])
        assert code == 1

    @pytest.mark.parametrize("command", ["infer", "annotate"])
    @pytest.mark.parametrize("regions,dim", [(2, 4), (3, 5)])
    def test_features_of_another_size_than_the_model_are_validation_error(
            self, synth_dataset, tmp_path, capsys, command, regions, dim):
        dims = ModelDims(R=regions, K=3, D=dim, A=2, S=2, Y=2)
        model_path = tmp_path / "model.json"
        model_path.write_text(save_model(ModelParams.zeros(
            dims, dictionary=make_dictionary(2, 2, 3))))
        features = synth_dataset / "test" / "features"
        out = tmp_path / "pred"
        outputs = (["--out", str(out)] if command == "infer" else
                   ["--out", str(out), "--labels-out", str(tmp_path / "l")])
        code = main([command, "--model", str(model_path),
                     "--features", str(features)] + outputs)
        assert code == 1
        err = capsys.readouterr().err
        assert f"features under {features} have (regions, dim) (2, 5)" in err
        assert f"model {model_path} takes ({regions}, {dim})" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["infer", "annotate"])
    def test_video_without_frames_is_validation_error(self, tmp_path, capsys,
                                                      command):
        dims = ModelDims(R=2, K=3, D=5, A=2, S=2, Y=2)
        model_path = tmp_path / "model.json"
        model_path.write_text(save_model(ModelParams.zeros(
            dims, dictionary=make_dictionary(2, 2, 3))))
        features = tmp_path / "features"
        save_features(features, "a", np.zeros((4, 2, 5)), "h")
        save_features(features, "b", np.zeros((0, 2, 5)), "h")
        out = tmp_path / "pred"
        outputs = (["--out", str(out)] if command == "infer" else
                   ["--out", str(out), "--labels-out", str(tmp_path / "l")])
        code = main([command, "--model", str(model_path),
                     "--features", str(features)] + outputs)
        assert code == 1
        assert f"{features / 'b.npy'}: video has no frames" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_model_without_gc_beta_counts_is_validation_error(
            self, synth_dataset, tmp_path, capsys):
        dims = ModelDims(R=2, K=3, D=5, A=2, S=2, Y=2)
        doc = json.loads(save_model(ModelParams.zeros(
            dims, dictionary=make_dictionary(2, 2, 3))))
        assert doc["beta_includes_gc"] is True
        doc["beta_includes_gc"] = False
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(doc))
        out = tmp_path / "pred"
        code = main(["infer", "--model", str(model_path),
                     "--features", str(synth_dataset / "test" / "features"),
                     "--out", str(out)])
        assert code == 1
        assert "beta_includes_gc" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("row, fault", [
        ("synth_0_000,x,0,3,-1", "line 2: action_id 'x' is not an integer"),
        ("synth_0_000,0,10,0,-1", "line 2: bad interval bounds [10, 0]"),
        ("synth_0_000,0,0", "line 2: no t_end value"),
        (None, "line 1: annotation CSV must have columns")],
        ids=["action-id", "reversed", "short-row", "no-region-column"])
    def test_bad_annotations_name_the_file_and_line(
            self, synth_dataset, tmp_path, capsys, row, fault):
        base = synth_dataset / "train"
        rows = (base / "annotations.csv").read_text().splitlines()
        if row is None:
            rows = [line.rsplit(",", 1)[0] for line in rows]
        else:
            rows[1] = row
        annotations = tmp_path / "annotations.csv"
        annotations.write_text("\n".join(rows) + "\n")
        code = main(["init-dictionary", "--features", str(base / "features"),
                     "--annotations", str(annotations),
                     "--labels", str(base / "labels.csv"),
                     "--out", str(tmp_path / "out.json")])
        assert code == 1
        assert f"{annotations}: {fault}" in capsys.readouterr().err

    def test_bad_label_names_the_file_and_line(self, synth_dataset, tmp_path,
                                               capsys):
        base = synth_dataset / "train"
        labels = tmp_path / "labels.csv"
        labels.write_text("video_id,complex_action\nsynth_0_000,0\n"
                          "synth_0_001,one\n")
        code = main(["init-dictionary", "--features", str(base / "features"),
                     "--annotations", str(base / "annotations.csv"),
                     "--labels", str(labels),
                     "--out", str(tmp_path / "out.json")])
        assert code == 1
        assert f"{labels}: line 3: complex_action 'one' is not an integer" \
            in capsys.readouterr().err

    def _eval_labels(self, tmp_path, pred, truth):
        out = tmp_path / "metrics.json"
        code = main(["eval", "--pred-labels", str(pred),
                     "--truth-labels", str(truth), "--out", str(out)])
        assert not out.exists()
        return code

    def test_label_listed_twice_names_the_file_and_line(
            self, synth_dataset, tmp_path, capsys):
        truth = synth_dataset / "test" / "labels.csv"
        rows = truth.read_text().splitlines()
        video_id, label = rows[1].split(",")
        pred = tmp_path / "pred_labels.csv"
        pred.write_text("\n".join(rows + [f"{video_id},{1 - int(label)}"])
                        + "\n")
        assert self._eval_labels(tmp_path, pred, truth) == 1
        assert f"{pred}: line {len(rows) + 1}: video {video_id!r} is " \
            "listed again" in capsys.readouterr().err

    @pytest.mark.parametrize("short", ["pred", "truth"])
    def test_label_sets_that_differ_name_both_files_and_a_video(
            self, synth_dataset, tmp_path, capsys, short):
        full = synth_dataset / "test" / "labels.csv"
        rows = full.read_text().splitlines()
        fewer = tmp_path / "fewer.csv"
        fewer.write_text("\n".join(rows[:1] + rows[2:]) + "\n")
        pred, truth = (fewer, full) if short == "pred" else (full, fewer)
        assert self._eval_labels(tmp_path, pred, truth) == 1
        video_id = rows[1].split(",")[0]
        assert f"{pred} and {truth} cover different videos: only {full} " \
            f"lists {video_id!r}" in capsys.readouterr().err

    def test_pred_frames_without_u_column_is_validation_error(
            self, synth_dataset, tmp_path, capsys):
        test = synth_dataset / "test"
        frames = tmp_path / "frames.csv"
        frames.write_text("video_id,t,region,z,v\nsynth_0_004,0,0,1,1\n")
        code = main(["eval", "--pred-labels", str(test / "labels.csv"),
                     "--truth-labels", str(test / "labels.csv"),
                     "--pred-frames", str(frames),
                     "--truth-annotations", str(test / "annotations.csv"),
                     "--out", str(tmp_path / "metrics.json")])
        assert code == 1
        assert f"{frames}: line 1: frames CSV must have columns " \
            "video_id,t,region,u" in capsys.readouterr().err

    @pytest.mark.parametrize("text, fault", [
        ('{"video_id": "synth_0_000", "regions": 2, "dim": 5}',
         "feature header lacks frames"),
        ("{broken", "invalid JSON")], ids=["no-frames", "not-json"])
    def test_bad_feature_header_names_the_file(self, synth_dataset, tmp_path,
                                               capsys, text, fault):
        base = synth_dataset / "train"
        features = tmp_path / "features"
        features.mkdir()
        for path in (base / "features").iterdir():
            (features / path.name).write_bytes(path.read_bytes())
        header = features / "synth_0_000.json"
        header.write_text(text)
        code = main(["init-dictionary", "--features", str(features),
                     "--annotations", str(base / "annotations.csv"),
                     "--labels", str(base / "labels.csv"),
                     "--out", str(tmp_path / "out.json")])
        assert code == 1
        assert f"{header}: {fault}" in capsys.readouterr().err

    @pytest.mark.parametrize("text, fault", [
        ("{broken", "invalid JSON"),
        ('{"dims": []}', 'no list of PCA models under "models" (KeyError'),
        ('{"models": [{"mean": [0.0]}]}',
         'no list of PCA models under "models" (KeyError')],
        ids=["not-json", "no-models", "bad-model"])
    def test_bad_pca_file_stops_train_before_training(
            self, synth_dataset, tmp_path, capsys, monkeypatch, text, fault):
        base = synth_dataset / "train"
        features = tmp_path / "features"
        features.mkdir()
        for path in (base / "features").iterdir():
            (features / path.name).write_bytes(path.read_bytes())
        pca = features / "pca.json"
        pca.write_text(text)

        def refuse(*args, **kwargs):
            raise AssertionError("training started")
        monkeypatch.setattr(cli, "initialize", refuse)
        code = main(["train", "--features", str(features),
                     "--annotations", str(base / "annotations.csv"),
                     "--labels", str(base / "labels.csv"),
                     "--out", str(tmp_path / "model.json"),
                     "--num-poselets", "3"])
        assert code == 1
        assert f"{pca}: {fault}" in capsys.readouterr().err
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("fault", ["no-weights", "not-json"])
    def test_bad_model_file_names_the_file(self, synth_dataset, tmp_path,
                                           capsys, fault):
        dims = ModelDims(R=2, K=3, D=5, A=2, S=2, Y=2)
        doc = json.loads(save_model(ModelParams.zeros(
            dims, dictionary=make_dictionary(2, 2, 3))))
        del doc["weights"]
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(doc) if fault == "no-weights"
                              else "model")
        out = tmp_path / "pred"
        code = main(["infer", "--model", str(model_path),
                     "--features", str(synth_dataset / "test" / "features"),
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{model_path}: " in err
        assert ("model lacks weights" if fault == "no-weights"
                else "Expecting value: line 1") in err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["[features]\nmode\n", "mode = geo\n"],
                             ids=["no-value", "no-section"])
    def test_ini_that_does_not_parse_is_validation_error(self, tmp_path,
                                                          capsys, text):
        skel = tmp_path / "skel"
        skel.mkdir()
        _write_skeleton(skel / "v0.jsonl", "v0")
        config = tmp_path / "run.ini"
        config.write_text(text)
        out = tmp_path / "features"
        code = main(["features", "--config", str(config),
                     "--skeletons", str(skel), "--out", str(out)])
        assert code == 1
        assert str(config) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "init-dictionary"])
    @pytest.mark.parametrize("region", [7, -2])
    def test_annotated_region_outside_the_features_is_validation_error(
            self, synth_dataset, tmp_path, capsys, command, region):
        base = synth_dataset / "train"
        rows = (base / "annotations.csv").read_text().splitlines()
        fields = rows[2].split(",")
        fields[4] = str(region)
        rows[2] = ",".join(fields)
        annotations = tmp_path / "annotations.csv"
        annotations.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out.json"
        code = main([command, "--features", str(base / "features"),
                     "--annotations", str(annotations),
                     "--labels", str(base / "labels.csv"),
                     "--out", str(out), "--num-poselets", "3",
                     "--supervision", "full"])
        assert code == 1
        assert f"{annotations}: line 3: region {region} is not -1 " \
            "(unknown) or one of the 2 regions of the features" \
            in capsys.readouterr().err
        assert not out.exists()

    def _eval_frames(self, synth_dataset, tmp_path, edit):
        """Run eval on the planted test frames, edited by ``edit`` (a
        function of the CSV's lines), and return its exit code."""
        test = synth_dataset / "test"
        lines = (test / "frames.csv").read_text().splitlines()
        frames = tmp_path / "frames.csv"
        frames.write_text("\n".join(edit(lines)) + "\n")
        return main(["eval", "--pred-labels", str(test / "labels.csv"),
                     "--truth-labels", str(test / "labels.csv"),
                     "--pred-frames", str(frames),
                     "--truth-annotations", str(test / "annotations.csv"),
                     "--out", str(tmp_path / "metrics.json")]), frames

    @pytest.mark.parametrize("row, fault", [
        ("synth_0_004,-1,0,0,0,1", "t -1 is negative"),
        ("synth_0_004,0,-1,0,0,1", "region -1 is negative"),
        ("synth_0_004,2,1,0,0,1",
         "video 'synth_0_004' repeats frame t=2, region 1")],
        ids=["negative-t", "negative-region", "repeated-cell"])
    def test_bad_pred_frame_rows_name_the_file_and_line(
            self, synth_dataset, tmp_path, capsys, row, fault):
        line = []

        def append(lines):
            line.append(len(lines) + 1)
            return lines + [row]
        code, frames = self._eval_frames(synth_dataset, tmp_path, append)
        assert code == 1
        assert f"{frames}: line {line[0]}: {fault}" \
            in capsys.readouterr().err
        assert not (tmp_path / "metrics.json").exists()

    def test_pred_frames_missing_a_cell_names_the_video_and_cell(
            self, synth_dataset, tmp_path, capsys):
        def drop(lines):
            return [x for x in lines if not x.startswith("synth_1_005,3,1,")]
        code, frames = self._eval_frames(synth_dataset, tmp_path, drop)
        assert code == 1
        assert f"{frames}: video 'synth_1_005' has no row for frame t=3, " \
            "region 1" in capsys.readouterr().err
        assert not (tmp_path / "metrics.json").exists()

    def test_planted_frames_evaluate(self, synth_dataset, tmp_path):
        code, _ = self._eval_frames(synth_dataset, tmp_path, list)
        assert code == 0


def test_training_runs_without_scipy(tmp_path):
    # P1 needs no solver library: synth, init-assignments and train in a
    # fresh interpreter leave scipy unimported
    script = """
import sys
from pathlib import Path
from hieract.cli import main

out = Path(sys.argv[1])
data = out / "train"
common = ["--features", str(data / "features"),
          "--annotations", str(data / "annotations.csv"),
          "--labels", str(data / "labels.csv"), "--num-poselets", "3",
          "--supervision", "temporal"]
assert main(["synth", "--out", str(out), "--classes", "2", "--actions", "2",
             "--actionlets", "2", "--poselets", "3", "--dim", "5",
             "--min-frames", "14", "--max-frames", "18",
             "--videos-per-class", "4", "--actions-per-class", "1"]) == 0
assert main(["init-assignments", *common,
             "--out", str(out / "assignments.json")]) == 0
assert main(["train", *common, "--max-cccp-iters", "1",
             "--out", str(out / "model.json")]) == 0
assert "scipy" not in sys.modules, sorted(
    name for name in sys.modules if name.startswith("scipy"))[:5]
"""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]
