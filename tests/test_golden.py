"""Golden outputs: the desk pipeline, a small kinect20 set and a small 2-D
puppet15 set, run end to end through ``hieract.cli.main``, reproduce the
committed SHA-256 digests of every file they write, byte for byte.

The pipeline runs in a child process with one BLAS thread, as the benchmark
runs it. Training logs are hashed without their ``wall_time`` fields. The
digests pin the numerical environment (numpy and the BLAS build) as
well as the code, so a failure prints the versions. A change that alters
outputs on purpose regenerates the digests, with ``THREAD_VARS`` set to 1
in the environment, by

    PYTHONPATH=src python tests/test_golden.py OUT_DIR > tests/golden_digests.json

and says why in CHANGES.md.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "golden_digests.json"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SUPERVISION = ("temporal", "full", "video")


def _run(*argv) -> None:
    from hieract.cli import main

    code = main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"hieract {' '.join(map(str, argv))} exited {code}")


def _desk(work: Path) -> None:
    """Planted desk set, trained under every supervision level, then
    labelled and scored on its held-out split."""
    data = work / "data"
    _run("synth", "--out", data, "--seed", 0, "--videos-per-class", 4,
         "--test-per-class", 10)
    config = work / "run.ini"
    config.write_text("[train]\neps_qp = 20\nbeam = none\n")
    train, test = data / "train", data / "test"
    for level in SUPERVISION:
        out = work / level
        _run("train", "--config", config, "--features", train / "features",
             "--annotations", train / "annotations.csv",
             "--labels", train / "labels.csv", "--out", out / "model.json",
             "--supervision", level, "--num-poselets", 8, "--C", 10,
             "--max-cccp-iters", 2, "--log", out / "train_log.jsonl")
        _run("infer", "--model", out / "model.json",
             "--features", test / "features", "--out", out / "pred")
        _run("annotate", "--model", out / "model.json",
             "--features", test / "features", "--out", out / "frames.csv",
             "--labels-out", out / "pred_labels.csv")
        _run("eval", "--pred-labels", out / "pred_labels.csv",
             "--truth-labels", test / "labels.csv",
             "--pred-frames", out / "frames.csv",
             "--truth-annotations", test / "annotations.csv",
             "--out", out / "metrics.json")


def _kinect20(work: Path) -> None:
    """Six 48-frame kinect20 streams whose intervals wave a hand or a foot,
    the even ones with an interval overlapping the others, through
    descriptors with motion PCA and the region assignment."""
    from conftest import TOY_JOINT_BASE

    from hieract.skeleton import KINECT20

    rng = np.random.default_rng(20)
    names = KINECT20.joint_names
    rest = np.array([TOY_JOINT_BASE[n] for n in names])
    limbs = [[names.index(f"{side}_{part}") for part in parts]
             for side, parts in (("left", ("wrist", "hand")),
                                 ("right", ("wrist", "hand")),
                                 ("left", ("ankle", "foot")))]
    skeletons = work / "skeletons"
    skeletons.mkdir(parents=True)
    ann = ["video_id,action_id,t_start,t_end,region"]
    labels = ["video_id,complex_action"]
    T = 48
    for i in range(6):
        vid = f"k{i}"
        order = rng.permutation(3)
        intervals = [(int(a), 16 * q, 16 * q + 15)
                     for q, a in enumerate(order)]
        if i % 2 == 0:
            intervals.append((int(order[0]), 10, 25))
        joints = rest[None] + rng.normal(scale=0.005, size=(T, len(names), 3))
        for action, start, end in intervals:
            t = np.arange(end - start + 1)
            wave = 0.2 * np.sin(2 * np.pi * (action + 1) * t / 16)
            joints[start:end + 1, limbs[action], action] += wave[:, None]
        lines = [json.dumps({"schema": "kinect20", "video_id": vid,
                             "fps": 30})]
        lines += [json.dumps({"t": t, "joints": joints[t].tolist()})
                  for t in range(T)]
        (skeletons / f"{vid}.jsonl").write_text("\n".join(lines) + "\n")
        ann += [f"{vid},{a},{s},{e},-1" for a, s, e in intervals]
        labels.append(f"{vid},{i % 2}")
    (work / "annotations.csv").write_text("\n".join(ann) + "\n")
    (work / "labels.csv").write_text("\n".join(labels) + "\n")
    _run("features", "--skeletons", skeletons, "--out", work / "features",
         "--mode", "geo+velocity")
    _run("init-assignments", "--features", work / "features",
         "--annotations", work / "annotations.csv",
         "--labels", work / "labels.csv", "--num-poselets", 6,
         "--out", work / "assignments.json")


def _puppet15(work: Path) -> None:
    """Four 30-frame 2-D puppet15 streams, whose segments end at the belly
    joint where kinect20's end at the torso and hip center, lifted to 3-D
    through descriptors with motion PCA."""
    from hieract.skeleton import PUPPET15

    rng = np.random.default_rng(15)
    rest = rng.normal(scale=0.5, size=(PUPPET15.num_joints, 2))
    skeletons = work / "skeletons"
    skeletons.mkdir(parents=True)
    T = 30
    for i in range(4):
        vid = f"p{i}"
        joints = rest[None] + rng.normal(
            scale=0.02, size=(T, PUPPET15.num_joints, 2)).cumsum(axis=0)
        lines = [json.dumps({"schema": "puppet15", "video_id": vid,
                             "fps": 30})]
        lines += [json.dumps({"t": t, "joints": joints[t].tolist()})
                  for t in range(T)]
        (skeletons / f"{vid}.jsonl").write_text("\n".join(lines) + "\n")
    _run("features", "--skeletons", skeletons, "--out", work / "features",
         "--schema", "puppet15", "--mode", "geo+velocity")


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "train_log.jsonl":
        records = [json.loads(line) for line in data.decode().splitlines()]
        data = "".join(
            json.dumps({k: v for k, v in r.items() if k != "wall_time"},
                       sort_keys=True, separators=(",", ":")) + "\n"
            for r in records).encode()
    return hashlib.sha256(data).hexdigest()


def run_pipeline(work: Path) -> dict[str, str]:
    """Run the pipelines under ``work``; digest of every file, by path."""
    with contextlib.redirect_stdout(sys.stderr):
        _desk(work / "desk")
        _kinect20(work / "kinect20")
        _puppet15(work / "puppet15")
    return {p.relative_to(work).as_posix(): _digest(p)
            for p in sorted(work.rglob("*")) if p.is_file()}


def _environment() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except Exception:            # older numpy: no dict form of the config
        blas = "unknown"
    return (f"numpy {np.__version__}, BLAS {blas}, BLAS threads 1 "
            f"({', '.join(THREAD_VARS)})")


def test_outputs_match_committed_digests(tmp_path):
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(HERE.parent / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, __file__, str(tmp_path)],
                          env=env, capture_output=True, text=True,
                          timeout=900)
    assert proc.returncode == 0, proc.stderr[-4000:]
    got = json.loads(proc.stdout)
    expected = json.loads(DIGESTS.read_text())
    differ = sorted(k for k in expected.keys() | got.keys()
                    if expected.get(k) != got.get(k))
    assert not differ, (
        f"{len(differ)} outputs differ from {DIGESTS.name}: "
        f"{', '.join(differ[:20])}; environment: {_environment()}")


if __name__ == "__main__":
    print(json.dumps(run_pipeline(Path(sys.argv[1])), indent=1,
                     sort_keys=True))
