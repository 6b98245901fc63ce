"""The two workloads: inputs made from a seed, and one round of the
pipeline through ``hieract.cli.main`` followed by the output checks.

A round writes its inputs (set-up), runs the fitting commands (fit), labels
held-out videos and scores them (label), then checks every output. Each
round attempts the same operations, so a run is a whole number of rounds.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from hieract import cli, energy, learning
from hieract.dictionaries import ActionletDictionary


@dataclass
class Round:
    """Timings (reference seconds, see ``speed``), work and problems of
    one round."""
    setup_s: float = 0.0
    fit_s: float = 0.0
    label_s: float = 0.0
    frames: int = 0
    problems: list[str] = field(default_factory=list)


class Pipeline:
    """Runs CLI commands in-process and counts them; once a command fails,
    the rest of the round's commands count as attempted and failed.
    ``meter`` (a ``speed.Meter``) times the round's segments."""

    def __init__(self, tracer, meter):
        self.tracer = tracer
        self.meter = meter
        self.attempted = 0
        self.failed = 0
        self.broken = False
        self.errors: list[str] = []   # failed commands
        self.faults: list[str] = []   # failed probes of a known fault

    def start_round(self) -> None:
        self.broken = False

    def run(self, command: str, *args) -> None:
        self.attempted += 1
        if self.broken:
            self.failed += 1
            return
        argv = [command] + [str(a) for a in args]
        out, err = io.StringIO(), io.StringIO()
        with self.tracer.span("cli." + command), \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            self.failed += 1
            self.broken = True
            self.errors.append(f"hieract {command} exited {code}: "
                               f"{err.getvalue().strip()}")

    def probe(self, name: str, func) -> None:
        """One operation on fixed inputs outside the CLI; ``func`` returns
        its problems. It runs in every round whatever the commands did, and
        a failure counts as failed without breaking the round."""
        self.attempted += 1
        problems = func()
        if problems:
            self.failed += 1
            self.faults += [f"{name}: {p}" for p in problems]


def _link_videos(src: Path, dst: Path, video_ids) -> None:
    """Hard links: the commands only read their input files."""
    dst.mkdir(parents=True)
    for vid in video_ids:
        for suffix in (".npy", ".json"):
            os.link(src / f"{vid}{suffix}", dst / f"{vid}{suffix}")


def write_config(path: Path, **keys) -> None:
    path.write_text("[benchmark]\n" + "".join(
        f"{key} = {value}\n" for key, value in keys.items()))


def _check_annotate(model: Path, frames: dict, labels: dict) -> list[str]:
    m = checks.read_model(model)
    bad = []
    for vid, table in frames.items():
        bad += checks.labeling_problems(m, vid, table["z"], table["v"],
                                        labels[vid], table["u"])
    return bad


def _same_as_infer(frames: dict, labels: dict, predictions: Path
                   ) -> list[str]:
    """``annotate`` and ``infer`` label a video identically."""
    bad = []
    with open(predictions) as fh:
        for line in fh:
            doc = json.loads(line)
            vid = doc["video_id"]
            cells = frames[vid]
            same = doc["y"] == labels[vid] and all(
                cells["z"][c["t"], c["region"]] == c["z"]
                and cells["v"][c["t"], c["region"]] == c["v"]
                for c in doc["frames"])
            if not same:
                bad.append(f"{vid}: annotate and infer disagree")
    return bad


# ---------------------------------------------------------------------------
# desk-train: the planted desk-scale set, trained and annotated
# ---------------------------------------------------------------------------

# The training split is the same planted set in every round of every run:
# the scree rule finds 12 to 18 actionlets on different planted sets, and
# the Viterbi cost grows with K'*A*(K'+A), so timings across seeds would
# mostly measure A. The workload seed picks the held-out videos instead.
DESK_SYNTH_SEED = 0           # the acceptance suite's planted set
DESK_TRAIN_PER_CLASS = 4
DESK_POOL_PER_CLASS = 200     # planted held-out videos per class
DESK_TEST_PER_CLASS = 100     # of which each round labels this many
DESK_CLASSES = 3
DESK_SAMPLE_PER_CLASS = 2     # held-out videos also run through `infer`
DESK_MIN_VIDEO_ACC = 0.90
DESK_MIN_FRAME_ACC = 0.80
MIN_OVERLAP, MIN_RUN = 0.60, 3  # the eval defaults the checks recompute


def _select_heldout(pool: Path, out: Path, seed: int) -> list[str]:
    """Copy a seeded choice of held-out videos, with their truth files."""
    rng = np.random.default_rng([seed, 1])
    ids = [f"synth_{y}_{DESK_TRAIN_PER_CLASS + int(n):03d}"
           for y in range(DESK_CLASSES)
           for n in np.sort(rng.choice(DESK_POOL_PER_CLASS,
                                       DESK_TEST_PER_CLASS, replace=False))]
    _link_videos(pool / "features", out / "features", ids)
    keep = set(ids)
    for name in ("labels.csv", "annotations.csv", "frames.csv"):
        header, *rows = (pool / name).read_text().splitlines()
        (out / name).write_text("\n".join(
            [header] + [r for r in rows if r.split(",", 1)[0] in keep]) + "\n")
    return ids


def desk_train(pipe: Pipeline, work: Path, seed: int) -> Round:
    rnd = Round()
    data = work / "data"
    train, test = data / "train", work / "heldout"
    config, model = work / "run.ini", work / "model.json"
    pred_frames = work / "pred_frames.csv"
    pred_labels = work / "pred_labels.csv"

    def setup():
        """``hieract synth`` with the desk defaults (R=2, K=8, D=10, S=4,
        Y=3, 30-60 frames), then the seeded held-out choice."""
        pipe.run("synth", "--out", data, "--seed", DESK_SYNTH_SEED,
                 "--videos-per-class", DESK_TRAIN_PER_CLASS,
                 "--test-per-class", DESK_POOL_PER_CLASS)
        write_config(config, eps_qp=20, beam="none")
        if not pipe.broken:
            ids = _select_heldout(data / "test", test, seed)
            _link_videos(test / "features", work / "sample",
                         [ids[y * DESK_TEST_PER_CLASS + n]
                          for y in range(DESK_CLASSES)
                          for n in range(DESK_SAMPLE_PER_CLASS)])

    def fit():
        pipe.run("train", "--config", config,
                 "--features", train / "features",
                 "--annotations", train / "annotations.csv",
                 "--labels", train / "labels.csv",
                 "--num-poselets", 8, "--supervision", "temporal",
                 "--C", 10, "--max-cccp-iters", 2,
                 "--out", model, "--log", work / "train_log.jsonl")

    def label():
        pipe.run("annotate", "--config", config, "--model", model,
                 "--features", test / "features",
                 "--out", pred_frames, "--labels-out", pred_labels)
        pipe.run("eval", "--config", config,
                 "--pred-labels", pred_labels,
                 "--truth-labels", test / "labels.csv",
                 "--pred-frames", pred_frames,
                 "--truth-annotations", test / "annotations.csv",
                 "--out", work / "metrics.json")

    rnd.setup_s = pipe.meter.measure(setup)
    rnd.fit_s = pipe.meter.measure(fit)
    rnd.label_s = pipe.meter.measure(label)
    pipe.run("infer", "--config", config, "--model", model,
             "--features", work / "sample", "--out", work / "infer")
    if not pipe.broken:
        rnd.frames = _count_frames(test / "features")
        rnd.problems = desk_problems(work)
    return rnd


def _count_frames(features_dir: Path) -> int:
    return sum(json.loads(p.read_text())["frames"]
               for p in features_dir.glob("*.json") if p.name != "pca.json")


def desk_problems(work: Path) -> list[str]:
    """Every desk-train check on the outputs a round left in ``work``."""
    test, model = work / "heldout", work / "model.json"
    predictions = work / "infer" / "predictions.jsonl"
    frames = checks.read_frame_table(work / "pred_frames.csv")
    labels = checks.read_labels(work / "pred_labels.csv")
    truth = checks.read_frame_table(test / "frames.csv")
    problems: list[str] = []
    video_acc, frame_acc = checks.accuracies(
        frames, labels, truth, checks.read_labels(test / "labels.csv"),
        problems)
    if video_acc < DESK_MIN_VIDEO_ACC:
        problems.append(f"video accuracy {video_acc:.3f} below "
                        f"{DESK_MIN_VIDEO_ACC}")
    if frame_acc < DESK_MIN_FRAME_ACC:
        problems.append(f"frame accuracy {frame_acc:.3f} below "
                        f"{DESK_MIN_FRAME_ACC}")
    problems += checks.check_eval(work / "metrics.json", video_acc,
                                  len(truth), frames,
                                  test / "annotations.csv",
                                  MIN_OVERLAP, MIN_RUN)
    problems += checks.check_cccp_log(work / "train_log.jsonl")
    problems += _check_annotate(model, frames, labels)
    problems += checks.check_inference(model, predictions, work / "sample")
    problems += _same_as_infer(frames, labels, predictions)
    return problems


# ---------------------------------------------------------------------------
# paper-scale: kinect20 streams through features and P1, a paper-size model
# ---------------------------------------------------------------------------

PAPER_VIDEOS = 20             # even videos 2j carry action j, j < S
PAPER_FRAMES = 150
PAPER_FPS = 30.0
PAPER_SAMPLE = 1              # videos labelled exactly per round
PAPER_DIMS = dict(R=4, K=100, D=38, A=20, S=10, Y=10)
PAPER_PCA = 20

# kinect20 rest pose in metres (x right, y up, z forward). Right-side joints
# mirror the left ones in x.
_LEFT_POSE = {
    "shoulder": (-0.19, 1.45, 0.00), "elbow": (-0.30, 1.20, 0.05),
    "wrist": (-0.33, 0.97, 0.12), "hand": (-0.34, 0.89, 0.15),
    "hip": (-0.10, 0.95, 0.00), "knee": (-0.12, 0.52, 0.04),
    "ankle": (-0.13, 0.10, -0.02), "foot": (-0.13, 0.04, 0.08),
}
_CENTRE_POSE = {"head": (0.0, 1.70, 0.02), "neck": (0.0, 1.50, 0.0),
                "torso": (0.0, 1.20, 0.03), "hip_center": (0.0, 0.98, 0.0)}
# region -> (distal joints, how far each follows the region's motion)
_REGION_JOINTS = (("left", ("elbow", "wrist", "hand")),
                  ("right", ("elbow", "wrist", "hand")),
                  ("left", ("knee", "ankle", "foot")),
                  ("right", ("knee", "ankle", "foot")))
_REACH = (0.5, 1.0, 1.1)


def _rest_pose(joint_names) -> np.ndarray:
    pose = []
    for name in joint_names:
        if name in _CENTRE_POSE:
            pose.append(_CENTRE_POSE[name])
            continue
        side, part = name.split("_", 1)
        x, y, z = _LEFT_POSE[part]
        pose.append((x if side == "left" else -x, y, z))
    return np.asarray(pose)


def _paper_intervals(rng, index: int, actions_of_class: np.ndarray
                     ) -> list[tuple[int, int, int]]:
    """(action, t_start, t_end) for one video. Even videos carry 3
    consecutive intervals plus one overlapping them (R*Q = 16, the
    enumeration path of P1); the overlapping interval of video 2j performs
    action j, so every action id occurs. Odd videos carry 6 consecutive
    intervals (R*Q = 24, the LP path) and no overlap: with overlaps, that
    path fails on some seeds only, so P1_PROBE carries them instead."""
    T = PAPER_FRAMES
    segments = 3 if index % 2 == 0 else 6
    while True:
        cuts = np.sort(rng.choice(np.arange(12, T - 12), segments - 1,
                                  replace=False))
        if np.diff(np.concatenate([[0], cuts, [T]])).min() >= 12:
            break
    bounds = np.concatenate([[0], cuts, [T]])
    out = [(int(actions_of_class[q % len(actions_of_class)]),
            int(bounds[q]), int(bounds[q + 1] - 1)) for q in range(segments)]
    if index % 2 == 0:
        start = int(rng.integers(0, T - 30))
        out.append(((index // 2) % PAPER_DIMS["S"], start,
                    start + int(rng.integers(15, 30))))
    return out


def _paper_video(rng, intervals, motions, rest: np.ndarray,
                 joint_index: dict) -> np.ndarray:
    """(T, 20, 3) joints: rest pose, body sway, sensor noise, and for each
    interval its action's oscillation on the action's home region."""
    T = PAPER_FRAMES
    t = np.arange(T) / PAPER_FPS
    joints = np.repeat(rest[None], T, axis=0)
    joints[:, :, 0] += 0.02 * np.sin(2 * np.pi * 0.3 * t + rng.uniform(
        0, 2 * np.pi))[:, None]
    for action, start, end in intervals:
        region, direction, freq, phase = motions[action]
        side, parts = _REGION_JOINTS[region]
        wave = np.sin(2 * np.pi * freq * t[start:end + 1] + phase)
        for part, reach in zip(parts, _REACH):
            j = joint_index[f"{side}_{part}"]
            joints[start:end + 1, j] += reach * wave[:, None] * direction
    return joints + rng.normal(scale=0.004, size=joints.shape)


def _write_paper_inputs(work: Path, seed: int) -> list[str]:
    """Skeleton files, annotations, labels and a seeded paper-size model.
    Returns the video ids."""
    from hieract.skeleton import KINECT20

    rng = np.random.default_rng([seed, 2])
    S, Y = PAPER_DIMS["S"], PAPER_DIMS["Y"]
    rest = _rest_pose(KINECT20.joint_names)
    joint_index = {n: i for i, n in enumerate(KINECT20.joint_names)}
    motions = []
    for s in range(S):
        direction = rng.normal(size=3)
        direction *= rng.uniform(0.12, 0.3) / np.linalg.norm(direction)
        motions.append((s % 4, direction, rng.uniform(0.5, 2.0),
                        rng.uniform(0, 2 * np.pi)))
    class_actions = [rng.choice(S, 3, replace=False) for _ in range(Y)]

    skeletons = work / "skeletons"
    skeletons.mkdir()
    ann = ["video_id,action_id,t_start,t_end,region"]
    labels = ["video_id,complex_action"]
    ids = []
    for i in range(PAPER_VIDEOS):
        vid = f"kinect_{i:03d}"
        y = int(rng.integers(Y))
        intervals = _paper_intervals(rng, i, class_actions[y])
        joints = _paper_video(rng, intervals, motions, rest, joint_index)
        lines = [json.dumps({"schema": "kinect20", "video_id": vid,
                             "fps": PAPER_FPS})]
        lines += [json.dumps({"t": t, "joints": joints[t].tolist()})
                  for t in range(PAPER_FRAMES)]
        (skeletons / f"{vid}.jsonl").write_text("\n".join(lines) + "\n")
        ann += [f"{vid},{a},{s},{e},-1" for a, s, e in intervals]
        labels.append(f"{vid},{y}")
        ids.append(vid)
    (work / "annotations.csv").write_text("\n".join(ann) + "\n")
    (work / "labels.csv").write_text("\n".join(labels) + "\n")
    sample = ids[:PAPER_SAMPLE]
    (work / "sample_annotations.csv").write_text("\n".join(
        [ann[0]] + [row for row in ann[1:]
                    if row.split(",", 1)[0] in sample]) + "\n")
    (work / "sample_labels.csv").write_text("\n".join(
        [labels[0]] + [row for row in labels[1:]
                       if row.split(",", 1)[0] in sample]) + "\n")

    dims = energy.ModelDims(**PAPER_DIMS)
    per_action = dims.A // S
    centroids = rng.random((dims.A, dims.K))
    dictionary = ActionletDictionary(
        num_actions=S, counts=np.full(S, per_action),
        u_of_v=np.repeat(np.arange(S), per_action),
        centroids=centroids / centroids.sum(axis=1, keepdims=True))
    params = energy.ModelParams.zeros(dims, dictionary=dictionary) \
        .with_flat(rng.normal(size=dims.total))
    (work / "model.json").write_text(
        energy.save_model(params, config_hash=f"paper-scale-{seed}") + "\n")
    return ids


# One b-step of P1 on its LP path (R=4, Q=7) with overlapping intervals, on
# inputs that do not depend on the seed. The 0.5-rounding of the LP and the
# greedy repair put the overlapping intervals 2 and 6 in region 2 and report
# the instance infeasible, although the overlap graph needs 3 regions, so
# the probe fails in every round until that is mended. The instance is a
# reduction of a paper-scale video whose P1 met the same fault.
P1_PROBE_COSTS = np.array([
    [-1.1, 0.0, 0.5, -0.4, -0.7, 0.3, 0.2],
    [-1.1, -0.4, 0.5, -0.9, -1.0, 0.5, -0.2],
    [-1.2, -0.7, -1.1, -1.1, -1.1, -1.1, -1.1],
    [-1.1, 0.5, -0.5, -0.9, -0.6, -0.7, -0.9]])
P1_PROBE_OVERLAPS = [(1, 5), (2, 5), (2, 6), (3, 5), (3, 6), (5, 6)]


def p1_probe() -> list[str]:
    b, feasible = learning.assign_regions(P1_PROBE_COSTS, P1_PROBE_OVERLAPS)
    return checks.check_region_step(b, feasible, P1_PROBE_OVERLAPS)


def paper_scale(pipe: Pipeline, work: Path, seed: int) -> Round:
    rnd = Round()
    config, features = work / "run.ini", work / "features"
    infer_out = work / "infer"
    ids: list[str] = []

    def setup():
        ids.extend(_write_paper_inputs(work, seed))
        write_config(config, beam="none")

    def fit():
        pipe.run("features", "--config", config,
                 "--skeletons", work / "skeletons", "--out", features,
                 "--schema", "kinect20", "--mode", "geo+velocity",
                 "--pca-dim", PAPER_PCA, "--window", 7)
        pipe.run("init-assignments", "--config", config,
                 "--features", features,
                 "--annotations", work / "annotations.csv",
                 "--labels", work / "labels.csv",
                 "--num-poselets", PAPER_DIMS["K"],
                 "--supervision", "temporal",
                 "--out", work / "assignments.json")

    def label():
        pipe.run("infer", "--config", config, "--model", work / "model.json",
                 "--features", work / "sample", "--out", infer_out)
        pipe.run("eval", "--config", config,
                 "--pred-labels", infer_out / "pred_labels.csv",
                 "--truth-labels", work / "sample_labels.csv",
                 "--pred-frames", infer_out / "predictions.csv",
                 "--truth-annotations", work / "sample_annotations.csv",
                 "--out", work / "metrics.json")

    rnd.setup_s = pipe.meter.measure(setup)
    rnd.fit_s = pipe.meter.measure(fit)
    if not pipe.broken:
        _link_videos(features, work / "sample", ids[:PAPER_SAMPLE])
    rnd.label_s = pipe.meter.measure(label)
    pipe.probe("P1 LP-path probe", p1_probe)
    if not pipe.broken:
        rnd.frames = PAPER_SAMPLE * PAPER_FRAMES
        rnd.problems = paper_problems(work)
    return rnd


def paper_problems(work: Path) -> list[str]:
    """Every paper-scale check on the outputs a round left in ``work``."""
    infer_out = work / "infer"
    problems = checks.check_assignments(
        work / "annotations.csv", work / "assignments.json", PAPER_DIMS["R"])
    problems += checks.check_descriptors(work / "features", PAPER_PCA)
    problems += checks.check_inference(
        work / "model.json", infer_out / "predictions.jsonl", work / "sample")
    labels = checks.read_labels(infer_out / "pred_labels.csv")
    truth = checks.read_labels(work / "sample_labels.csv")
    video_acc = sum(labels.get(k) == y for k, y in truth.items()) / len(truth)
    problems += checks.check_eval(
        work / "metrics.json", video_acc, len(truth),
        checks.read_frame_table(infer_out / "predictions.csv"),
        work / "sample_annotations.csv", MIN_OVERLAP, MIN_RUN)
    return problems


WORKLOADS = {"desk-train": desk_train, "paper-scale": paper_scale}
