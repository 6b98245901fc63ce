"""Command-line pipeline: features, initialization, training, inference,
annotation, evaluation, and synthetic data generation.

Artifacts are written atomically (temp file + rename) and embed the config
hash; re-running a command with identical config and inputs reproduces the
output byte for byte. Exit codes: 0 success, 1 validation error (bad usage
or missing input), 2 runtime error.
"""
from __future__ import annotations

import argparse
import io
import json
import math
import os
import re
import sys
import time
from dataclasses import fields, replace
from itertools import repeat
from pathlib import Path

import numpy as np

from . import descriptors as desc
from .config import FIELDS, RunConfig, _coerce, load_config
from .energy import MODEL_FORMAT, ModelDims, load_model, save_model
from .evaluation import (DetectionCriterion, SyntheticSpec, accuracy,
                         intervals_from_frames, plant_synthetic, pooled_pr)
from .inference import Query, infer, maximize
from .learning import TrainingVideo, initialize, train
from .skeleton import (ActionInterval, JointSchema, ParseError, SchemaError,
                       SkeletonSequence, csv_columns, get_schema,
                       load_annotations, load_labels, parse_skeleton,
                       save_annotations, save_labels, validate_annotations)


class UsageError(ValueError):
    """Bad invocation or missing input; maps to exit code 1."""


def _atomic_write(path: Path, data: str | bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    mode = "wb" if isinstance(data, bytes) else "w"
    with open(tmp, mode) as fh:
        fh.write(data)
    os.replace(tmp, path)


def _require(path: str | Path, kind: str) -> Path:
    p = Path(path)
    if not p.exists():
        raise UsageError(f"{kind} not found: {p}")
    return p


def _read_csv(path, kind: str, load):
    """``load`` of the CSV file at ``path``, naming the file in any parse
    error."""
    with open(_require(path, kind)) as fh:
        try:
            return load(fh)
        except ParseError as exc:
            raise ParseError(f"{path}: {exc}") from None


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# Feature store
# ---------------------------------------------------------------------------

def save_features(out_dir: Path, video_id: str, x: np.ndarray,
                  config_hash: str) -> None:
    array = io.BytesIO()
    np.save(array, x)
    _atomic_write(out_dir / f"{video_id}.npy", array.getvalue())
    header = {"video_id": video_id, "frames": int(x.shape[0]),
              "regions": int(x.shape[1]), "dim": int(x.shape[2]),
              "config_hash": config_hash}
    _atomic_write(out_dir / f"{video_id}.json", _json_dumps(header))


def load_features(features_dir: str | Path) -> dict[str, np.ndarray]:
    """Every video's (frames, regions, dim) array under ``features_dir``.

    Each array must have the shape its JSON header declares and at least
    one frame, and all videos must share ``regions`` and ``dim``.
    """
    directory = _require(features_dir, "features directory")
    out, shape = {}, None
    for header_path in sorted(directory.glob("*.json")):
        if header_path.name == "pca.json":
            continue
        try:
            header = json.loads(header_path.read_text())
        except ValueError as exc:
            raise UsageError(f"{header_path}: invalid JSON ({exc})") from None
        missing = [key for key in ("video_id", "frames", "regions", "dim")
                   if not isinstance(header, dict) or key not in header]
        if missing:
            raise UsageError(f"{header_path}: feature header lacks "
                             + ", ".join(missing))
        video_id = header["video_id"]
        array_path = directory / f"{video_id}.npy"
        try:
            x = np.load(array_path)
        except (EOFError, OSError, ValueError) as exc:
            raise UsageError(f"{array_path}: unreadable feature array "
                             f"({exc})") from None
        declared = (header["frames"], header["regions"], header["dim"])
        if x.shape != declared:
            raise UsageError(f"{array_path}: array shape {x.shape} is not "
                             f"the (frames, regions, dim) {declared} of "
                             f"its header {header_path.name}")
        if not x.shape[0]:
            raise UsageError(f"{array_path}: video has no frames")
        if shape is not None and x.shape[1:] != shape:
            raise UsageError(f"{array_path}: (regions, dim) {x.shape[1:]} "
                             f"differs from {shape} of the videos before it")
        shape = x.shape[1:]
        out[video_id] = x
    if not out:
        raise UsageError(f"no feature files under {directory}")
    return out


def _load_training_set(features_dir, annotations_path, labels_path
                       ) -> tuple[list[TrainingVideo], int, int]:
    features = load_features(features_dir)
    num_regions = next(iter(features.values())).shape[1]
    intervals = _read_csv(annotations_path, "annotation file",
                          lambda fh: load_annotations(fh, num_regions))
    labels = _read_csv(labels_path, "labels file", load_labels)
    videos = []
    for video_id in sorted(features):
        if video_id not in labels:
            raise UsageError(f"video {video_id!r} missing from labels file")
        x = features[video_id]
        video_intervals = intervals.get(video_id, [])
        violations = validate_annotations(video_intervals, x.shape[0])
        if violations:
            raise UsageError(f"{annotations_path}: video {video_id!r}: "
                             + "; ".join(violations))
        videos.append(TrainingVideo(video_id=video_id, x=x,
                                    y=labels[video_id],
                                    intervals=video_intervals))
    num_actions = 1 + max((iv.action_id for ivs in intervals.values()
                           for iv in ivs), default=-1)
    num_classes = 1 + max(labels.values())
    if num_actions < 1:
        raise UsageError("annotations define no atomic actions")
    return videos, num_actions, num_classes


# ---------------------------------------------------------------------------
# features
# ---------------------------------------------------------------------------

def _read_skeleton(path: Path, schema: JointSchema) -> SkeletonSequence:
    """Parse one skeleton file of the configured schema, naming the file in
    any error, and lift 2-D joints to 3-D."""
    try:
        seq = parse_skeleton(path.read_text())
    except (ParseError, SchemaError) as exc:
        raise type(exc)(f"{path}: {exc}") from None
    if seq.schema != schema.name:
        raise SchemaError(f"{path}: skeleton schema {seq.schema!r} is not "
                          f"the configured schema {schema.name!r}")
    if schema.dims == 2:
        seq = desc.lift_2d(seq)
    return seq


def _check_saved_pca(path, models, schema: JointSchema, pca_dim: int,
                     raw: list[np.ndarray]) -> None:
    """The ``--pca`` models fit ``schema``: one per region, each taking its
    region's raw motion ``raw[r]`` and projecting it to ``pca_dim``."""
    if len(models) != schema.num_regions:
        raise UsageError(f"{path}: {len(models)} PCA models, but schema "
                         f"{schema.name!r} has {schema.num_regions} regions")
    for r, (m, motion) in enumerate(zip(models, raw)):
        dim = motion.shape[1]
        if m.mean.shape != (dim,) or m.components.shape[:1] != (dim,):
            raise UsageError(
                f"{path}: PCA model {r} has mean of shape {m.mean.shape} "
                f"and components of shape {m.components.shape}, but "
                f"region {r}'s raw motion has dim {dim}")
        if m.components.shape != (dim, pca_dim):
            raise UsageError(f"{path}: PCA model {r} has components of "
                             f"shape {m.components.shape}, but --pca-dim "
                             f"is {pca_dim}")


def cmd_features(args) -> int:
    config = _config(args)
    schema = get_schema(config.schema)
    motion_mode = config.mode.partition("+")[2]     # "" for geo
    saved = None
    if args.pca is not None:
        if not motion_mode:
            raise UsageError(f"{args.pca}: --mode geo has no motion to "
                             "project with PCA")
        saved = _read_pca(_require(args.pca, "PCA file"))
    paths = sorted(Path(_require(args.skeletons, "skeleton directory"))
                   .glob("*.jsonl"))
    if not paths:
        raise UsageError(f"no *.jsonl skeleton files under {args.skeletons}")
    out_dir = Path(args.out)
    config_hash = config.hash()
    # every file is read and checked before anything is written
    sequences = [_read_skeleton(path, schema) for path in paths]

    sidecars = {}
    if motion_mode == "precomputed":
        sidecar_dir = Path(_require(args.sidecar_dir,
                                    "motion sidecar directory"))
        for seq in sequences:
            sidecar_path = _require(sidecar_dir / f"{seq.video_id}.jsonl",
                                    "motion sidecar")
            try:
                sidecars[seq.video_id] = desc.load_motion_sidecar(
                    sidecar_path.read_text(), seq.num_frames, seq.num_joints)
            except SchemaError as exc:
                raise SchemaError(f"{sidecar_path}: {exc}") from None

    raw_per_video, pca_models = {}, saved
    if motion_mode:
        # PCA is fit over the whole dataset, so raw motion comes first.
        raw_per_video = {
            seq.video_id: desc.raw_motion_vectors(
                seq, schema, motion_mode, window=config.window,
                sidecar=sidecars.get(seq.video_id))
            for seq in sequences}
        frames = sum(seq.num_frames for seq in sequences)
        if saved is not None:
            _check_saved_pca(args.pca, saved, schema, config.pca_dim,
                             raw_per_video[sequences[0].video_id])
        elif frames <= config.pca_dim:
            raise UsageError(
                f"{args.skeletons}: {frames} frames in all, but fitting "
                f"--pca-dim {config.pca_dim} PCA directions needs more "
                f"than {config.pca_dim}")
        else:
            pca_models = []
            for r in range(schema.num_regions):
                stacked = np.concatenate([raw_per_video[s.video_id][r]
                                          for s in sequences])
                pca_models.append(desc.fit_pca(stacked,
                                               out_dim=config.pca_dim))
    for seq in sequences:
        x = desc.build_descriptors(seq, schema,
                                   raw_per_video.get(seq.video_id),
                                   pca_models)
        save_features(out_dir, seq.video_id, x, config_hash)
    if pca_models is not None:
        _atomic_write(out_dir / "pca.json", _json_dumps(
            {"config_hash": config_hash,
             "models": [m.to_dict() for m in pca_models]}))
    print(f"wrote {len(sequences)} feature files (D={x.shape[2]}) "
          f"to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# init-dictionary / init-assignments
# ---------------------------------------------------------------------------

def _run_initialize(args, config):
    videos, num_actions, _ = _load_training_set(
        args.features, args.annotations, args.labels)
    init = initialize(videos, config.num_poselets, num_actions, config)
    return videos, num_actions, init


def cmd_init_dictionary(args) -> int:
    config = _config(args)
    _, num_actions, init = _run_initialize(args, config)
    summary = {
        "num_poselets": config.num_poselets,
        "num_actions": num_actions,
        "actionlet_counts": init.dictionary.counts.tolist(),
        "num_actionlets": init.dictionary.num_actionlets,
        "u_of_v": init.dictionary.u_of_v.tolist(),
        "config_hash": config.hash(),
    }
    _atomic_write(Path(args.out), _json_dumps(summary))
    print(json.dumps(summary, sort_keys=True, indent=2))
    return 0


def cmd_init_assignments(args) -> int:
    config = _config(args)
    videos, num_actions, init = _run_initialize(args, config)
    if init.p1 is None:
        raise UsageError("assignments come from annotations under full "
                         "supervision; nothing to solve")
    doc = {"config_hash": config.hash(),
           "infeasible": init.p1.infeasible,
           "assignments": {}}
    with_intervals = [v for v in videos if v.intervals]
    for video, b in zip(with_intervals, init.p1.assignments):
        doc["assignments"][video.video_id] = \
            [np.flatnonzero(b[:, q]).tolist()
             for q in range(b.shape[1])]
    _atomic_write(Path(args.out), _json_dumps(doc))
    print(f"wrote region assignments for {len(with_intervals)} videos "
          f"to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _read_pca(path: Path) -> list[desc.PcaModel]:
    """The PCA models of a features ``pca.json`` or of a model file."""
    text = path.read_text()
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise UsageError(f"{path}: invalid JSON ({exc})") from None
    if isinstance(doc, dict) and doc.get("format") == MODEL_FORMAT:
        try:
            models = load_model(text)[1]
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"{path}: {exc}") from None
        if not models or None in models:
            raise UsageError(f"{path}: model file holds no PCA models")
        return models
    try:
        return [desc.PcaModel.from_dict(m) for m in doc["models"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"{path}: no list of PCA models under \"models\" "
                         f"({type(exc).__name__}: {exc})") from None


def cmd_train(args) -> int:
    config = _config(args)
    videos, num_actions, num_classes = _load_training_set(
        args.features, args.annotations, args.labels)
    pca_path = Path(args.features) / "pca.json"
    pca_models = _read_pca(pca_path) if pca_path.exists() else None
    t0 = time.perf_counter()
    init = initialize(videos, config.num_poselets, num_actions, config)
    dims = ModelDims(R=videos[0].x.shape[1], K=config.num_poselets,
                     D=videos[0].x.shape[2],
                     A=init.dictionary.num_actionlets, S=num_actions,
                     Y=num_classes)
    result = train(videos, dims, config, init)
    if result.stopped_reason == "non_decreasing_step" \
            and len(result.objective_trace) == 1:
        raise RuntimeError(
            "training made no progress: the first cutting-plane solve ran "
            f"{result.cp_infos[0].oracle_passes} of at most "
            f"{config.max_cutting_plane_iters} exact oracle passes "
            "(--max-cutting-plane-iters) and did not lower the objective "
            f"{result.objective_trace[0]:.6g}; no model written")

    _atomic_write(Path(args.out),
                  save_model(result.params, pca_models=pca_models,
                             config_hash=config.hash()) + "\n")

    if args.log:
        lines = []
        for i, objective in enumerate(result.objective_trace):
            entry = {"iteration": i, "objective": objective,
                     "wall_time": round(result.objective_times[i] - t0, 3)}
            if 0 < i <= len(result.cp_infos):
                info = result.cp_infos[i - 1]
                entry["violation"] = info.violation
                entry["cutting_plane_iterations"] = info.iterations
                entry["oracle_passes"] = info.oracle_passes
                entry["cached_steps"] = info.cached_steps
            lines.append(_json_dumps(entry))
        _atomic_write(Path(args.log), "".join(lines))
    print(f"trained in {time.perf_counter() - t0:.1f}s; objective "
          f"{result.objective_trace[0]:.4g} -> "
          f"{result.objective_trace[-1]:.4g} ({result.stopped_reason}); "
          f"model written to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# infer / annotate
# ---------------------------------------------------------------------------

def _model_and_features(args):
    """The model and the features to label, checked against each other:
    features for a model that holds PCA models were projected with them,
    so their ``pca.json`` holds the same models."""
    model_path = _require(args.model, "model file")
    try:
        params, pca_models, _hash = load_model(model_path.read_text())
    except ValueError as exc:
        raise UsageError(f"{model_path}: {exc}") from None
    features = load_features(args.features)
    shape = next(iter(features.values())).shape[1:]
    expected = (params.dims.R, params.dims.D)
    if shape != expected:
        raise UsageError(f"features under {args.features} have (regions, "
                         f"dim) {shape}, but model {model_path} takes "
                         f"{expected}")
    if pca_models is not None:
        pca_path = Path(args.features) / "pca.json"
        if not pca_path.exists():
            raise UsageError(f"model {model_path} holds PCA models, but the "
                             f"features have no {pca_path}")
        held = [m.to_dict() if m is not None else None for m in pca_models]
        if [m.to_dict() for m in _read_pca(pca_path)] != held:
            raise UsageError(f"{pca_path} holds other PCA models than model "
                             f"{model_path}; project the features with "
                             f"features --pca {model_path}")
    return params, features


def _frames_table(videos) -> str:
    """The per-frame CSV, ``video_id,t,region,z,v,u`` rows in (t, region)
    order, from (video_id, z, v, u) tuples of (T, R) label arrays."""
    lines = ["video_id,t,region,z,v,u"]
    cells: dict[tuple[int, int], list[str]] = {}    # "t,r" per (T, R)
    for video_id, z, v, u in videos:
        T, R = z.shape
        if (T, R) not in cells:
            cells[T, R] = [f"{t},{r}" for t in range(T) for r in range(R)]
        lines += map(",".join, zip(
            repeat(video_id), cells[T, R],
            *(map(str, np.ravel(labels).tolist()) for labels in (z, v, u))))
    return "\n".join(lines) + "\n"


def _frames_csv(params, results) -> str:
    u_of_v = params.u_of_v()
    return _frames_table((video_id, res.labeling.z, res.labeling.v,
                          u_of_v[res.labeling.v])
                         for video_id, res in results.items())


def cmd_infer(args) -> int:
    config = _config(args)
    params, features = _model_and_features(args)
    results = {vid: infer(features[vid], params, beam=config.beam)
               for vid in sorted(features)}
    out_dir = Path(args.out)
    u_of_v = params.u_of_v()
    json_lines = []
    for video_id, res in results.items():
        lab = res.labeling
        frames = [{"t": t, "region": r, "z": int(lab.z[t, r]),
                   "v": int(lab.v[t, r]), "u": int(u_of_v[lab.v[t, r]])}
                  for t in range(lab.num_frames)
                  for r in range(lab.num_regions)]
        json_lines.append(_json_dumps(
            {"video_id": video_id, "y": res.y, "energy": res.energy,
             "frames": frames}))
    _atomic_write(out_dir / "predictions.jsonl", "".join(json_lines))
    _atomic_write(out_dir / "predictions.csv", _frames_csv(params, results))
    _atomic_write(out_dir / "pred_labels.csv",
                  save_labels({vid: res.y for vid, res in results.items()}))
    print(f"wrote predictions for {len(results)} videos to {out_dir}")
    return 0


def cmd_annotate(args) -> int:
    config = _config(args)
    params, features = _model_and_features(args)
    # one maximization over every video: no energy or margins to report
    video_ids = sorted(features)
    results = dict(zip(video_ids, maximize(
        [Query(features[vid]) for vid in video_ids], params,
        beam=config.beam)))
    _atomic_write(Path(args.out), _frames_csv(params, results))
    _atomic_write(Path(args.labels_out),
                  save_labels({vid: res.y for vid, res in results.items()}))
    print(f"wrote per-frame annotations for {len(results)} videos "
          f"to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _frames_to_intervals(path, min_run) -> dict[str, list[ActionInterval]]:
    """Per-video intervals of a predicted-frames CSV, whose rows must give
    each (t, region) cell of a video's T x R grid exactly once. The first
    row with a negative ``t`` or ``region``, or repeating a cell of its
    video, raises ParseError naming its line."""
    lines, columns = _read_csv(
        path, "prediction frames file",
        lambda fh: csv_columns(fh, ("video_id", "t", "region", "u"),
                               "frames"))
    # videos numbered in order of first appearance
    number: dict[str, int] = {}
    video = np.array([number.setdefault(vid, len(number))
                      for vid in columns["video_id"]], dtype=np.intp)
    t, region, u = (np.array(columns[key], dtype=int)
                    for key in ("t", "region", "u"))
    # rows sorted by (video, t, region), equal cells in file order
    order = np.lexsort((region, t, video))
    cell = np.stack([video, t, region])[:, order]
    again = order[1:][(cell[:, 1:] == cell[:, :-1]).all(axis=0)]
    negative = np.flatnonzero((t < 0) | (region < 0))
    first = min(again.min(initial=len(t)), negative.min(initial=len(t)))
    if first < len(t):
        line = lines[first]
        if t[first] < 0 or region[first] < 0:
            key = "t" if t[first] < 0 else "region"
            raise ParseError(f"{path}: line {line}: {key} "
                             f"{columns[key][first]} is negative")
        raise ParseError(f"{path}: line {line}: video "
                         f"{columns['video_id'][first]!r} repeats frame "
                         f"t={t[first]}, region {region[first]}")
    out = {}
    starts = np.searchsorted(cell[0], np.arange(len(number) + 1))
    for video_id, n in number.items():
        s, e = starts[n], starts[n + 1]
        ts, rs = cell[1, s:e], cell[2, s:e]
        T, R = 1 + int(ts[-1]), 1 + int(rs.max())
        if e - s < T * R:
            # distinct cells in row-major order: the first that differs
            # from its position's cell, or the one past the last, is missing
            pos = np.arange(e - s)
            gap = np.flatnonzero((ts != pos // R) | (rs != pos % R))
            missing_t, missing_r = divmod(int(gap[0]) if gap.size else e - s,
                                          R)
            raise UsageError(f"{path}: video {video_id!r} has no row for "
                             f"frame t={missing_t}, region {missing_r}")
        out[video_id] = intervals_from_frames(u[order[s:e]].reshape(T, R),
                                              min_run=min_run)
    return out


def cmd_eval(args) -> int:
    config = _config(args)
    pred_labels = _read_csv(args.pred_labels, "predicted labels file",
                            load_labels)
    truth_labels = _read_csv(args.truth_labels, "truth labels file",
                             load_labels)
    only = next((vid for vid in (*pred_labels, *truth_labels)
                 if (vid in pred_labels) != (vid in truth_labels)), None)
    if only is not None:
        listed = args.pred_labels if only in pred_labels \
            else args.truth_labels
        raise UsageError(f"{args.pred_labels} and {args.truth_labels} cover "
                         f"different videos: only {listed} lists {only!r}")
    metrics = {"accuracy": accuracy(pred_labels, truth_labels),
               "num_videos": len(truth_labels),
               "config_hash": config.hash()}
    if args.pred_frames and args.truth_annotations:
        preds = _frames_to_intervals(args.pred_frames, config.min_run)
        truths = _read_csv(args.truth_annotations, "truth annotations file",
                           load_annotations)
        criterion = DetectionCriterion(min_overlap=config.min_overlap)
        precision, recall = pooled_pr(preds, truths, criterion,
                                      match_region=False)
        metrics["detection"] = {"precision": precision, "recall": recall}
        known_regions = all(iv.region >= 0 for ivs in truths.values()
                            for iv in ivs)
        if known_regions:
            precision, recall = pooled_pr(preds, truths, criterion,
                                          match_region=True)
            metrics["spatiotemporal"] = {"precision": precision,
                                         "recall": recall}
    _atomic_write(Path(args.out), _json_dumps(metrics))
    print(json.dumps(metrics, sort_keys=True, indent=2))
    return 0


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

# the SyntheticSpec fields that synth sets from one flag each
_SYNTH_FLAGS = {"num_classes": "--classes", "num_actions": "--actions",
                "num_actionlets": "--actionlets", "num_poselets": "--poselets",
                "num_regions": "--regions", "dim": "--dim", "sigma": "--sigma",
                "noise_frame_fraction": "--noise-fraction",
                "actions_per_class": "--actions-per-class", "seed": "--seed"}


def cmd_synth(args) -> int:
    if args.min_frames > args.max_frames:
        raise UsageError(f"--min-frames {args.min_frames} is above "
                         f"--max-frames {args.max_frames}")
    if not args.videos_per_class + args.test_per_class:
        raise UsageError("--videos-per-class and --test-per-class are both "
                         "0, so there is no video to plant")
    try:
        spec = SyntheticSpec(
            num_classes=args.classes, num_actions=args.actions,
            num_actionlets=args.actionlets, num_poselets=args.poselets,
            num_regions=args.regions, dim=args.dim,
            frames_range=(args.min_frames, args.max_frames),
            videos_per_class=args.videos_per_class + args.test_per_class,
            sigma=args.sigma, noise_frame_fraction=args.noise_fraction,
            actions_per_class=args.actions_per_class, seed=args.seed)
    except ValueError as exc:       # the spec's fields, named as flags
        raise UsageError(re.sub(r"\w+", lambda m: _SYNTH_FLAGS.get(m[0], m[0]),
                                str(exc))) from None
    dataset = plant_synthetic(spec)
    out = Path(args.out)
    config_hash = f"synth-{args.seed}"
    splits = {"train": [], "test": []}
    for video in dataset.videos:
        index = int(video.video_id.rsplit("_", 1)[1])
        split = "train" if index < args.videos_per_class else "test"
        splits[split].append(video)
    for split, videos in splits.items():
        if not videos:
            continue
        base = out / split
        annotations = {}
        labels = {}
        for video in videos:
            save_features(base / "features", video.video_id, video.x,
                          config_hash)
            annotations[video.video_id] = video.intervals
            labels[video.video_id] = video.y
        _atomic_write(base / "annotations.csv",
                      save_annotations(annotations))
        _atomic_write(base / "labels.csv", save_labels(labels))
        _atomic_write(base / "frames.csv", _frames_table(
            (video.video_id, video.z, video.v, video.u) for video in videos))
    meta = {"u_of_v": dataset.u_of_v.tolist(),
            "num_classes": spec.num_classes,
            "num_actions": spec.num_actions,
            "seed": spec.seed,
            "sigma": spec.sigma,
            "noise_frame_fraction": spec.noise_frame_fraction}
    _atomic_write(out / "meta.json", _json_dumps(meta))
    print(f"planted {len(dataset.videos)} videos "
          f"({len(splits['train'])} train / {len(splits['test'])} test) "
          f"under {out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _config(args) -> RunConfig:
    """The config file's settings with every config flag given on the
    command line applied over them. Flags not given are absent from
    ``args``, so a flag can also set an optional key to None."""
    return replace(load_config(args.config), **{
        key: value for key, value in vars(args).items() if key in FIELDS})


def _as_key(key: str):
    """The type of a config flag that takes the spellings and the values of
    its INI key (``--beam``: a width, or ``none`` for exact inference)."""
    def parse(raw: str):
        try:
            return _coerce(key, raw, "the command line")
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _bounded(kind, least, most=math.inf):
    """The type of a flag that takes a ``kind`` value from ``least`` to
    ``most``; argparse reports a value outside them naming the flag."""
    def parse(raw: str):
        try:
            value = kind(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{raw!r} is not a value of type {kind.__name__}") from None
        if not least <= value <= most:                  # NaN fails too
            raise argparse.ArgumentTypeError(
                f"{raw!r} is not " + (f"at least {least}" if most == math.inf
                                      else f"from {least} to {most}"))
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hieract",
                     description="Hierarchical labeling of complex actions "
                                 "from body-joint sequences")
    sub = parser.add_subparsers(dest="command")

    def command(name, func, keys, **kwargs):
        # a flag for --seed and each of the config keys, spelt with dashes
        # for underscores; a flag not given stays absent from the arguments
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS,
                           **kwargs)
        p.add_argument("--config", default=None,
                       help="INI config file; flags override its keys")
        for key in ("seed", *keys):
            rule = FIELDS[key].metadata
            p.add_argument("--" + key.replace("_", "-"), type=_as_key(key),
                           choices=rule.get("choices"), help=rule.get("help"))
        p.set_defaults(func=func)
        return p

    p = command("features", cmd_features,
                ("schema", "mode", "window", "pca_dim"),
                help="compute per-region descriptors")
    p.add_argument("--skeletons", required=True,
                   help="directory of *.jsonl skeleton files")
    p.add_argument("--out", required=True, help="feature directory")
    p.add_argument("--sidecar-dir", default=None,
                   help="per-video motion sidecars for geo+precomputed")
    p.add_argument("--pca", default=None,
                   help="project motion with the PCA models of this "
                        "pca.json or model file instead of fitting new ones")

    for name, func in (("init-dictionary", cmd_init_dictionary),
                       ("init-assignments", cmd_init_assignments)):
        p = command(name, func, ("num_poselets", "supervision"))
        p.add_argument("--features", required=True)
        p.add_argument("--annotations", required=True)
        p.add_argument("--labels", required=True)
        p.add_argument("--out", required=True)

    p = command("train", cmd_train,
                ("supervision", "num_poselets", "beam", "C", "max_cccp_iters",
                 "max_cutting_plane_iters"), help="fit the model")
    p.add_argument("--features", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True, help="model JSON path")
    p.add_argument("--no-gc", dest="use_gc", action="store_false",
                   help="disable the garbage collector label")
    p.add_argument("--log", default=None, help="training log (JSON lines)")

    p = command("infer", cmd_infer, ("beam",),
                help="label videos with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True, help="output directory")

    p = command("annotate", cmd_annotate, ("beam",),
                help="per-frame CSV annotations")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True, help="frames CSV path")
    p.add_argument("--labels-out", dest="labels_out", required=True,
                   help="predicted video labels CSV path")

    p = command("eval", cmd_eval, ("min_overlap", "min_run"),
                help="score predictions against truth")
    p.add_argument("--pred-labels", dest="pred_labels", required=True)
    p.add_argument("--truth-labels", dest="truth_labels", required=True)
    p.add_argument("--pred-frames", dest="pred_frames", default=None)
    p.add_argument("--truth-annotations", dest="truth_annotations",
                   default=None)
    p.add_argument("--out", required=True, help="metrics JSON path")

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    positive, count = _bounded(int, 1), _bounded(int, 0)
    spec = {f.name: f.default for f in fields(SyntheticSpec)}
    p.add_argument("--classes", type=positive, default=spec["num_classes"])
    p.add_argument("--actions", type=positive, default=spec["num_actions"])
    p.add_argument("--actionlets", type=positive,
                   default=spec["num_actionlets"])
    p.add_argument("--poselets", type=positive,
                   default=spec["num_poselets"])
    p.add_argument("--regions", type=positive, default=spec["num_regions"])
    p.add_argument("--dim", type=positive, default=spec["dim"])
    p.add_argument("--min-frames", dest="min_frames", type=positive,
                   default=spec["frames_range"][0])
    p.add_argument("--max-frames", dest="max_frames", type=positive,
                   default=spec["frames_range"][1])
    p.add_argument("--videos-per-class", dest="videos_per_class", type=count,
                   default=spec["videos_per_class"])
    p.add_argument("--test-per-class", dest="test_per_class", type=count,
                   default=0)
    p.add_argument("--sigma", type=_bounded(float, 0), default=spec["sigma"])
    p.add_argument("--noise-fraction", dest="noise_fraction",
                   type=_bounded(float, 0, 1),
                   default=spec["noise_frame_fraction"])
    p.add_argument("--actions-per-class", dest="actions_per_class",
                   type=positive, default=spec["actions_per_class"])
    p.add_argument("--seed", type=count, default=spec["seed"])
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "command", None) is None:
            parser.print_usage(sys.stderr)
            return 1
        return args.func(args)
    # UsageError, ParseError and SchemaError are ValueErrors
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
