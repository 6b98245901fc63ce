"""Output checks computed apart from the program.

Each check reads the files a command wrote and returns a list of problems;
an empty list means the outputs passed. The checks compare against
independent computations (accuracy, detection matching, the energy from the
model file's weight blocks) or against properties the method must have
(monotone CCCP objective, feasible region assignment, angle ranges,
orthonormal PCA columns, an exact maximiser that no single change improves).
They never compare against a stored copy of earlier output.
"""
from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

GEO_PAIRS = 15      # segment-pair angles, in [0, pi]
GEO_DIM = 18        # plus 3 plane-segment angles, in [0, pi/2]


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_labels(path: Path) -> dict[str, int]:
    return {row["video_id"]: int(row["complex_action"])
            for row in read_csv(path)}


def read_intervals(path: Path) -> dict[str, list[tuple[int, int, int, int]]]:
    """Per video, in file order: (action, t_start, t_end, region)."""
    out: dict[str, list[tuple[int, int, int, int]]] = {}
    for row in read_csv(path):
        out.setdefault(row["video_id"], []).append(
            (int(row["action_id"]), int(row["t_start"]), int(row["t_end"]),
             int(row["region"])))
    return out


def read_frame_table(path: Path) -> dict[str, dict[str, np.ndarray]]:
    """A ``video_id,t,region,z,v,u`` CSV as per-video (T, R) arrays."""
    cells: dict[str, list[tuple[int, int, int, int, int]]] = {}
    for row in read_csv(path):
        cells.setdefault(row["video_id"], []).append(
            (int(row["t"]), int(row["region"]), int(row["z"]),
             int(row["v"]), int(row["u"])))
    out = {}
    for video_id, rows in cells.items():
        arr = np.asarray(rows)
        T, R = arr[:, 0].max() + 1, arr[:, 1].max() + 1
        table = {}
        for col, key in ((2, "z"), (3, "v"), (4, "u")):
            grid = np.full((T, R), -1, dtype=int)
            grid[arr[:, 0], arr[:, 1]] = arr[:, col]
            table[key] = grid
        out[video_id] = table
    return out


# ---------------------------------------------------------------------------
# Model file, read from its documented layout
# ---------------------------------------------------------------------------

@dataclass
class Model:
    """Weight blocks per region, cut from the flat vector in the order the
    model format documents: alpha (Y, S), beta (A, K+1), w (K, D),
    gamma (A, A), eta (K+1, K+1), theta."""
    R: int
    K: int
    D: int
    A: int
    S: int
    Y: int
    use_gc: bool
    beta_includes_gc: bool
    u_of_v: np.ndarray
    alpha: list
    beta: list
    w: list
    gamma: list
    eta: list
    theta: list


def read_model(path: Path) -> Model:
    doc = json.loads(Path(path).read_text())
    d = doc["dims"]
    R, K, D, A, S, Y = (d[k] for k in ("R", "K", "D", "A", "S", "Y"))
    flat = np.asarray(doc["weights"], dtype=float)
    shapes = (("alpha", (Y, S)), ("beta", (A, K + 1)), ("w", (K, D)),
              ("gamma", (A, A)), ("eta", (K + 1, K + 1)), ("theta", (1,)))
    blocks: dict[str, list] = {name: [] for name, _ in shapes}
    pos = 0
    for _ in range(R):
        for name, shape in shapes:
            size = math.prod(shape)
            blocks[name].append(flat[pos:pos + size].reshape(shape))
            pos += size
    if pos != flat.size:
        raise ValueError(f"{path}: {flat.size} weights, layout needs {pos}")
    return Model(R=R, K=K, D=D, A=A, S=S, Y=Y, use_gc=doc["use_gc"],
                 beta_includes_gc=doc["beta_includes_gc"],
                 u_of_v=np.asarray(doc["dictionary"]["u_of_v"], dtype=int),
                 theta=[float(t[0]) for t in blocks.pop("theta")], **blocks)


def _unary(m: Model, x: np.ndarray, r: int, y: int) -> np.ndarray:
    """(T, K', A) score of every (poselet, actionlet) state of region r
    without the transition terms; K' counts the garbage collector."""
    kk = m.K + 1 if m.use_gc else m.K
    T = x.shape[0]
    pose = np.empty((T, kk))
    pose[:, :m.K] = x[:, r, :] @ m.w[r].T
    if m.use_gc:
        pose[:, m.K] = m.theta[r]
    beta = m.beta[r][:, :kk].T.copy()               # (K', A)
    if m.use_gc and not m.beta_includes_gc:
        beta[m.K] = 0.0
    return (pose[:, :, None] + beta[None]
            + m.alpha[r][y, m.u_of_v][None, None, :])


def energy(m: Model, x: np.ndarray, z: np.ndarray, v: np.ndarray,
           y: int) -> float:
    """Energy of a labeling, summed term by term from the weight blocks."""
    total = 0.0
    T = x.shape[0]
    for r in range(m.R):
        zr, vr = z[:, r], v[:, r]
        total += float(_unary(m, x, r, y)[np.arange(T), zr, vr].sum())
        total += float(m.eta[r][zr[:-1], zr[1:]].sum())
        total += float(m.gamma[r][vr[:-1], vr[1:]].sum())
    return total


def labeling_problems(m: Model, video_id: str, z: np.ndarray, v: np.ndarray,
                      y: int, u: np.ndarray | None = None) -> list[str]:
    """Labels outside the model's ranges, or atomic actions that disagree
    with the actionlet dictionary."""
    top_z = m.K if m.use_gc else m.K - 1
    bad = []
    if z.min() < 0 or z.max() > top_z:
        bad.append(f"{video_id}: poselet label outside 0..{top_z}")
    if v.min() < 0 or v.max() >= m.A:
        bad.append(f"{video_id}: actionlet label outside 0..{m.A - 1}")
    elif u is not None and not np.array_equal(u, m.u_of_v[v]):
        bad.append(f"{video_id}: atomic action is not u_of_v of the "
                   "actionlet")
    if not 0 <= y < m.Y:
        bad.append(f"{video_id}: complex action {y} outside 0..{m.Y - 1}")
    return bad


def improving_moves(m: Model, x: np.ndarray, z: np.ndarray, v: np.ndarray,
                    y: int, tol: float) -> list[str]:
    """Single changes that raise the energy: one (frame, region) state, or
    the complex action alone. An exact maximiser admits none."""
    T = x.shape[0]
    bad = []
    for r in range(m.R):
        zr, vr = z[:, r], v[:, r]
        kk = m.K + 1 if m.use_gc else m.K
        score = _unary(m, x, r, y)
        eta, gamma = m.eta[r][:kk, :kk], m.gamma[r]
        # transitions from the previous frame's state and into the next one
        score[1:] += eta[zr[:-1]][:, :, None] + gamma[vr[:-1]][:, None]
        score[:-1] += (eta[:, zr[1:]].T[:, :, None]
                       + gamma[:, vr[1:]].T[:, None])
        current = score[np.arange(T), zr, vr]
        gain = score.reshape(T, -1).max(axis=1) - current
        worst = int(np.argmax(gain))
        if gain[worst] > tol:
            bad.append(f"region {r} frame {worst}: a single state change "
                       f"raises the energy by {gain[worst]:.3g}")
    per_y = np.zeros(m.Y)
    for r in range(m.R):
        per_y += m.alpha[r][:, m.u_of_v[v[:, r]]].sum(axis=1)
    if per_y.max() - per_y[y] > tol:
        bad.append(f"complex action {int(per_y.argmax())} instead of {y} "
                   f"raises the energy by {per_y.max() - per_y[y]:.3g}")
    return bad


def check_inference(model_path: Path, predictions: Path,
                    features_dir: Path) -> list[str]:
    """Labels in range, the reported energy equal to the energy recomputed
    from the weight blocks, and no improving single change, for every video
    in an ``infer`` predictions file."""
    m = read_model(model_path)
    bad = []
    with open(predictions) as fh:
        docs = [json.loads(line) for line in fh if line.strip()]
    if not docs:
        return [f"{predictions}: no predictions"]
    for doc in docs:
        vid = doc["video_id"]
        x = np.load(Path(features_dir) / f"{vid}.npy")
        T = x.shape[0]
        z = np.full((T, m.R), -1, dtype=int)
        v = np.full((T, m.R), -1, dtype=int)
        u = np.full((T, m.R), -1, dtype=int)
        for cell in doc["frames"]:
            z[cell["t"], cell["region"]] = cell["z"]
            v[cell["t"], cell["region"]] = cell["v"]
            u[cell["t"], cell["region"]] = cell["u"]
        y = int(doc["y"])
        found = labeling_problems(m, vid, z, v, y, u)
        if found:
            bad += found
            continue
        mine = energy(m, x, z, v, y)
        tol = 1e-9 * (1.0 + abs(mine))
        if abs(mine - doc["energy"]) > tol:
            bad.append(f"{vid}: reported energy {doc['energy']!r}, "
                       f"recomputed {mine!r}")
        bad += [f"{vid}: {msg}" for msg in improving_moves(m, x, z, v, y, tol)]
    return bad


# ---------------------------------------------------------------------------
# desk-train: accuracy against the planted truth, eval, CCCP trace
# ---------------------------------------------------------------------------

def accuracies(pred_frames: dict, pred_labels: dict, truth_frames: dict,
               truth_labels: dict, problems: list[str]) -> tuple[float, float]:
    """Video accuracy and frame atomic-action accuracy over the truth;
    frame tables come from ``read_frame_table``."""
    if set(pred_labels) != set(truth_labels) or \
            set(pred_frames) != set(truth_frames):
        problems.append("predictions and truth cover different videos")
        return 0.0, 0.0
    video_acc = sum(pred_labels[k] == truth_labels[k]
                    for k in truth_labels) / len(truth_labels)
    hits = cells = 0
    for vid, truth in truth_frames.items():
        pred_u, u = pred_frames[vid]["u"], truth["u"]
        if pred_u.shape != u.shape:
            problems.append(f"{vid}: predicted frames do not match the video")
            continue
        hits += int(np.sum(pred_u == u))
        cells += u.size
    return video_acc, hits / max(cells, 1)


def _runs(u: np.ndarray, min_run: int) -> list[tuple[int, int, int, int]]:
    """Per region, maximal runs of one atomic action of at least min_run
    frames, as (action, start, end, region)."""
    out = []
    T, R = u.shape
    for r in range(R):
        change = np.flatnonzero(np.diff(u[:, r])) + 1
        starts = np.concatenate([[0], change])
        ends = np.concatenate([change, [T]]) - 1
        out += [(int(u[s, r]), int(s), int(e), r)
                for s, e in zip(starts, ends) if e - s + 1 >= min_run]
    return out


def _true_positives(preds, truths, min_overlap: float,
                    match_region: bool) -> int:
    """Greedy one-to-one matching by descending overlap; a pair counts when
    IoU exceeds min_overlap or the prediction lies inside the truth."""
    pairs = []
    for i, (pa, ps, pe, pr) in enumerate(preds):
        for j, (ta, ts, te, tr) in enumerate(truths):
            if pa != ta or (match_region and pr != tr):
                continue
            inter = min(pe, te) - max(ps, ts) + 1
            iou = (inter / ((pe - ps + 1) + (te - ts + 1) - inter)
                   if inter > 0 else 0.0)
            if iou > min_overlap or ts <= ps <= pe <= te:
                pairs.append((-iou, i, j))
    used_p, used_t = set(), set()
    for _, i, j in sorted(pairs):
        if i not in used_p and j not in used_t:
            used_p.add(i)
            used_t.add(j)
    return len(used_p)


def detection(pred_frames: dict, truth_annotations: Path, min_overlap: float,
              min_run: int, match_region: bool) -> tuple[float, float]:
    """Pooled detection precision and recall, recomputed from the frames."""
    preds = {vid: _runs(t["u"], min_run) for vid, t in pred_frames.items()}
    truths = read_intervals(truth_annotations)
    tp = n_pred = n_truth = 0
    for vid in set(preds) | set(truths):
        p = preds.get(vid, [])
        t = truths.get(vid, [])
        tp += _true_positives(p, t, min_overlap, match_region)
        n_pred += len(p)
        n_truth += len(t)
    precision = tp / n_pred if n_pred else float(n_truth == 0)
    recall = tp / n_truth if n_truth else float(n_pred == 0)
    return precision, recall


def check_eval(metrics_path: Path, video_acc: float, num_videos: int,
               pred_frames: dict, truth_annotations: Path,
               min_overlap: float, min_run: int) -> list[str]:
    """``eval``'s metrics against the same quantities computed here."""
    metrics = json.loads(Path(metrics_path).read_text())
    bad = []
    if metrics["accuracy"] != video_acc:
        bad.append(f"eval accuracy {metrics['accuracy']!r}, "
                   f"recomputed {video_acc!r}")
    if metrics["num_videos"] != num_videos:
        bad.append(f"eval counted {metrics['num_videos']} videos, "
                   f"truth has {num_videos}")
    regions_known = all(iv[3] >= 0 for ivs in
                        read_intervals(truth_annotations).values()
                        for iv in ivs)
    blocks = [("detection", False)]
    if regions_known:
        blocks.append(("spatiotemporal", True))
    for key, match_region in blocks:
        if key not in metrics:
            bad.append(f"eval wrote no {key} block")
            continue
        mine = detection(pred_frames, truth_annotations, min_overlap,
                         min_run, match_region)
        theirs = (metrics[key]["precision"], metrics[key]["recall"])
        if any(abs(a - b) > 1e-12 for a, b in zip(mine, theirs)):
            bad.append(f"eval {key} precision/recall {theirs}, "
                       f"recomputed {mine}")
    return bad


def check_cccp_log(log_path: Path) -> list[str]:
    """The CCCP objective recorded by ``train --log`` never rises."""
    with open(log_path) as fh:
        objectives = [json.loads(line)["objective"] for line in fh
                      if line.strip()]
    if len(objectives) < 2:
        return [f"{log_path}: no CCCP step recorded"]
    return [f"CCCP objective rose at step {i + 1}: {a!r} -> {b!r}"
            for i, (a, b) in enumerate(zip(objectives, objectives[1:]))
            if b > a]


# ---------------------------------------------------------------------------
# paper-scale: region assignment and descriptors
# ---------------------------------------------------------------------------

def check_assignments(annotations: Path, assignments: Path,
                      num_regions: int) -> list[str]:
    """P1 feasibility from the annotation times: every interval has a
    region, and no region carries two intervals that overlap in time."""
    intervals = read_intervals(annotations)
    doc = json.loads(Path(assignments).read_text())
    bad = [f"reported infeasible: {msg}" for msg in doc["infeasible"]]
    if set(doc["assignments"]) != set(intervals):
        bad.append("assignments and annotations cover different videos")
        return bad
    for vid, ivs in intervals.items():
        regions = doc["assignments"][vid]
        if len(regions) != len(ivs):
            bad.append(f"{vid}: {len(regions)} assignments for "
                       f"{len(ivs)} intervals")
            continue
        for q, rs in enumerate(regions):
            if not rs or any(not 0 <= r < num_regions for r in rs):
                bad.append(f"{vid}: interval {q} has regions {rs}")
        for q1 in range(len(ivs)):
            for q2 in range(q1 + 1, len(ivs)):
                overlap = (ivs[q1][1] <= ivs[q2][2]
                           and ivs[q2][1] <= ivs[q1][2])
                shared = set(regions[q1]) & set(regions[q2])
                if overlap and shared:
                    bad.append(f"{vid}: overlapping intervals {q1},{q2} "
                               f"share regions {sorted(shared)}")
    return bad


def colouring(num_regions: int, num_intervals: int,
              overlaps: list[tuple[int, int]]) -> tuple[int, ...] | None:
    """One region per interval with no overlapping pair sharing a region,
    found by enumeration; None when the overlap graph needs more regions."""
    for regions in itertools.product(range(num_regions),
                                     repeat=num_intervals):
        if all(regions[q1] != regions[q2] for q1, q2 in overlaps):
            return regions
    return None


def check_region_step(b: np.ndarray, feasible: bool,
                      overlaps: list[tuple[int, int]]) -> list[str]:
    """One P1 b-step (``b`` is regions x intervals): every interval has a
    region, no overlapping pair shares one, and an instance that has a
    feasible assignment is not reported infeasible."""
    R, Q = b.shape
    bad = [f"interval {q} has no region" for q in range(Q)
           if not b[:, q].any()]
    bad += [f"overlapping intervals {q1},{q2} share regions "
            f"{np.flatnonzero(b[:, q1] & b[:, q2]).tolist()}"
            for q1, q2 in overlaps if (b[:, q1] & b[:, q2]).any()]
    if not feasible and colouring(R, Q, overlaps) is not None:
        bad.append("reported infeasible, yet a feasible assignment exists")
    return bad


def check_descriptors(features_dir: Path, pca_dim: int) -> list[str]:
    """Angles in [0, pi] (segment pairs) and [0, pi/2] (plane-segment), and
    orthonormal PCA columns (zero columns only where the rank ran out)."""
    bad = []
    headers = [p for p in sorted(Path(features_dir).glob("*.json"))
               if p.name != "pca.json"]
    if not headers:
        return [f"{features_dir}: no feature files"]
    for header in headers:
        x = np.load(header.with_suffix(".npy"))
        if x.ndim != 3 or x.shape[2] != GEO_DIM + pca_dim:
            bad.append(f"{header.stem}: descriptor shape {x.shape}")
            continue
        if not np.all(np.isfinite(x)):
            bad.append(f"{header.stem}: non-finite descriptor")
            continue
        pairs, planes = x[..., :GEO_PAIRS], x[..., GEO_PAIRS:GEO_DIM]
        if pairs.min() < 0 or pairs.max() > math.pi:
            bad.append(f"{header.stem}: segment-pair angle outside [0, pi]")
        if planes.min() < 0 or planes.max() > math.pi / 2:
            bad.append(f"{header.stem}: plane angle outside [0, pi/2]")
    doc = json.loads((Path(features_dir) / "pca.json").read_text())
    for r, model in enumerate(doc["models"]):
        comp = np.asarray(model["components"], dtype=float)
        used = np.any(comp != 0, axis=0)
        gram = comp[:, used].T @ comp[:, used]
        if comp.shape[1] != pca_dim or \
                np.abs(gram - np.eye(gram.shape[0])).max() > 1e-9:
            bad.append(f"PCA model {r}: columns are not orthonormal")
    return bad
