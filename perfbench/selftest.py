"""Show that every output check fails on a deliberately corrupted output.

    python3 perfbench/selftest.py

Runs one desk-train round and one paper-scale round, confirms that their
outputs pass every check, then corrupts one output file at a time, runs the
workload's checks again, and expects a problem naming the corrupted
property. Each file is restored before the next corruption. It also runs
the P1 probe's check on a feasible assignment and on corrupted ones. Exits
0 when every corruption is caught.
"""
from __future__ import annotations

import json
import shutil
import sys

import run  # sets the BLAS thread count before numpy loads

run.import_program()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SEED = 7   # data seed of the two rounds


def _rewrite_csv(path, column, change, rows=None):
    """Apply ``change`` to one column of a CSV, on every row or on the
    given row indices."""
    lines = path.read_text().splitlines()
    col = lines[0].split(",").index(column)
    for i in range(1, len(lines)):
        if rows is None or i - 1 in rows:
            cells = lines[i].split(",")
            cells[col] = str(change(int(cells[col])))
            lines[i] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _edit_json(path, change):
    doc = json.loads(path.read_text())
    change(doc)
    path.write_text(json.dumps(doc))


def _edit_predictions(path, change):
    docs = [json.loads(line) for line in path.read_text().splitlines()]
    change(docs[0])
    path.write_text("".join(json.dumps(d) + "\n" for d in docs))


def _rising_log(path):
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    lines[-1]["objective"] = lines[0]["objective"] + 1.0
    path.write_text("".join(json.dumps(d) + "\n" for d in lines))


def _flatten_region(doc):
    """Put every frame of region 0 on poselet 0; the reported energy is
    left stale, and the maximiser check must still name the change."""
    for cell in doc["frames"]:
        if cell["region"] == 0:
            cell["z"] = 0


def _other_class(num_classes):
    def change(doc):
        doc["y"] = (doc["y"] + 1) % num_classes
    return change


def _bump_energy(doc):
    doc["energy"] += 1e-3 * (1.0 + abs(doc["energy"]))


def _shared_region(work):
    """Give two overlapping intervals of one video the same region."""
    intervals = checks.read_intervals(work / "annotations.csv")

    def change(doc):
        for vid, ivs in intervals.items():
            for q1 in range(len(ivs)):
                for q2 in range(q1 + 1, len(ivs)):
                    if ivs[q1][1] <= ivs[q2][2] and ivs[q2][1] <= ivs[q1][2]:
                        doc["assignments"][vid][q1] = [0]
                        doc["assignments"][vid][q2] = [0]
                        return
    return change


def _set_descriptor(index):
    def change(path):
        x = np.load(path)
        x[0, 0, index] = 2.0 * np.pi
        np.save(path, x)
    return change


def _skew_pca(doc):
    doc["models"][0]["components"][0][0] += 0.1


def desk_cases(work):
    classes = workloads.DESK_CLASSES
    preds = work / "pred_frames.csv"
    infer = work / "infer" / "predictions.jsonl"
    return [
        ("video accuracy", work / "pred_labels.csv", lambda p: _rewrite_csv(
            p, "complex_action", lambda y: (y + 1) % classes)),
        ("frame accuracy", preds,
         lambda p: _rewrite_csv(p, "u", lambda u: (u + 1) % 4)),
        ("eval accuracy", work / "metrics.json", lambda p: _edit_json(
            p, lambda m: m.update(accuracy=m["accuracy"] - 0.01))),
        ("eval detection", work / "metrics.json", lambda p: _edit_json(
            p, lambda m: m["detection"].update(
                precision=0.9 * m["detection"]["precision"]))),
        ("CCCP objective rose", work / "train_log.jsonl", _rising_log),
        ("poselet label outside", preds,
         lambda p: _rewrite_csv(p, "z", lambda z: 9, rows={0})),
        ("reported energy", infer, lambda p: _edit_predictions(
            p, _bump_energy)),
        ("single state change", infer, lambda p: _edit_predictions(
            p, _flatten_region)),
        ("instead of", infer, lambda p: _edit_predictions(
            p, _other_class(classes))),
        ("annotate and infer disagree", infer, lambda p: _edit_predictions(
            p, _other_class(classes))),
    ]


def paper_cases(work):
    features = work / "features"
    first = sorted(features.glob("*.npy"))[0]
    infer = work / "infer" / "predictions.jsonl"
    Y = workloads.PAPER_DIMS["Y"]
    return [
        ("has regions []", work / "assignments.json", lambda p: _edit_json(
            p, lambda doc: next(iter(doc["assignments"].values()))
            .__setitem__(0, []))),
        ("share regions", work / "assignments.json",
         lambda p: _edit_json(p, _shared_region(work))),
        ("segment-pair angle", first, _set_descriptor(0)),
        ("plane angle", first, _set_descriptor(checks.GEO_PAIRS)),
        ("not orthonormal", features / "pca.json",
         lambda p: _edit_json(p, _skew_pca)),
        ("reported energy", infer, lambda p: _edit_predictions(
            p, _bump_energy)),
        ("single state change", infer, lambda p: _edit_predictions(
            p, _flatten_region)),
        ("instead of", infer, lambda p: _edit_predictions(
            p, _other_class(Y))),
        ("actionlet label outside", infer, lambda p: _edit_predictions(
            p, lambda doc: doc["frames"][0].update(v=99))),
    ]


def probe_cases():
    """(expected problem, b, feasible) for the P1 probe's check: a feasible
    assignment built from a colouring of the overlap graph, then the same
    with an interval dropped, an overlap forced, and a false report."""
    overlaps = workloads.P1_PROBE_OVERLAPS
    R, Q = workloads.P1_PROBE_COSTS.shape
    good = np.zeros((R, Q), dtype=bool)
    good[checks.colouring(R, Q, overlaps), np.arange(Q)] = True
    dropped, shared = good.copy(), good.copy()
    dropped[:, 0] = False
    q1, q2 = overlaps[0]
    shared[:, q2] = shared[:, q1]
    return [(None, good, True),
            ("has no region", dropped, True),
            (f"overlapping intervals {q1},{q2} share", shared, True),
            ("reported infeasible", good, False)]


def main() -> int:
    root = run.OUT / "selftest"
    shutil.rmtree(root, ignore_errors=True)
    pipe = workloads.Pipeline(spans.Tracer(False), speed.Meter())
    failures = 0
    try:
        for name, round_func, problems_of, cases in (
                ("desk-train", workloads.desk_train, workloads.desk_problems,
                 desk_cases),
                ("paper-scale", workloads.paper_scale,
                 workloads.paper_problems, paper_cases)):
            work = root / name
            work.mkdir(parents=True)
            pipe.start_round()
            rnd = round_func(pipe, work, SEED)
            if pipe.broken or rnd.problems:
                print(f"FAIL {name}: clean outputs do not pass: "
                      f"{pipe.errors + rnd.problems}")
                failures += 1
                continue
            print(f"ok   {name}: clean outputs pass every check")
            for expect, path, corrupt in cases(work):
                saved = path.read_bytes()
                corrupt(path)
                found = problems_of(work)
                path.write_bytes(saved)
                caught = any(expect in p for p in found)
                failures += not caught
                print(f"{'ok  ' if caught else 'FAIL'} {name}: corrupted "
                      f"{path.name} -> {expect!r}"
                      + ("" if caught else f"; got {found}"))
    finally:
        shutil.rmtree(root, ignore_errors=True)
    for expect, b, feasible in probe_cases():
        found = checks.check_region_step(b, feasible,
                                         workloads.P1_PROBE_OVERLAPS)
        caught = (not found if expect is None
                  else any(expect in p for p in found))
        failures += not caught
        print(f"{'ok  ' if caught else 'FAIL'} P1 probe check: "
              + ("feasible assignment passes" if expect is None
                 else f"corrupted assignment -> {expect!r}")
              + ("" if caught else f"; got {found}"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
