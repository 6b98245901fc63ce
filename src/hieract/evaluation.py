"""Metrics and the synthetic-data planter used by the acceptance suite.

Detection follows the 60%-overlap rule: a predicted interval of the right
action is a true positive when its IoU with a ground-truth interval exceeds
the threshold, or when it is completely covered by the ground truth.
Matching is greedy one-to-one by descending overlap. Spatio-temporal
scoring (``pooled_pr`` with ``match_region``) additionally requires region
equality.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .skeleton import ActionInterval


@dataclass(frozen=True)
class DetectionCriterion:
    min_overlap: float = 0.60
    containment_counts: bool = True

    def __post_init__(self):
        if not 0 < self.min_overlap <= 1:
            raise ValueError("min_overlap must be in (0, 1]")


def accuracy(predictions: dict[str, int], truths: dict[str, int]) -> float:
    """Exact-match fraction over videos aligned by id."""
    if set(predictions) != set(truths):
        raise ValueError("predictions and truths cover different videos")
    if not truths:
        return 1.0
    hits = sum(predictions[k] == truths[k] for k in truths)
    return hits / len(truths)


def interval_iou(a: ActionInterval, b: ActionInterval) -> float:
    """IoU of two inclusive frame intervals."""
    inter = min(a.t_end, b.t_end) - max(a.t_start, b.t_start) + 1
    if inter <= 0:
        return 0.0
    union = (a.t_end - a.t_start + 1) + (b.t_end - b.t_start + 1) - inter
    return inter / union


def _contained(pred: ActionInterval, truth: ActionInterval) -> bool:
    return truth.t_start <= pred.t_start and pred.t_end <= truth.t_end


def _match_counts(preds: list[ActionInterval], truths: list[ActionInterval],
                  criterion: DetectionCriterion, match_region: bool) -> int:
    candidates = []
    for i, p in enumerate(preds):
        for j, t in enumerate(truths):
            if p.action_id != t.action_id:
                continue
            if match_region and p.region != t.region:
                continue
            iou = interval_iou(p, t)
            if iou > criterion.min_overlap or \
                    (criterion.containment_counts and _contained(p, t)):
                candidates.append((-iou, i, j))
    candidates.sort()
    used_p: set[int] = set()
    used_t: set[int] = set()
    tp = 0
    for _, i, j in candidates:
        if i in used_p or j in used_t:
            continue
        used_p.add(i)
        used_t.add(j)
        tp += 1
    return tp


def _pr(tp: int, n_pred: int, n_truth: int) -> tuple[float, float]:
    # With nothing predicted, precision is 1.0 only if nothing was expected;
    # recall mirrors the convention.
    precision = tp / n_pred if n_pred else (1.0 if n_truth == 0 else 0.0)
    recall = tp / n_truth if n_truth else (1.0 if n_pred == 0 else 0.0)
    return precision, recall


def pooled_pr(preds_by_video: dict[str, list[ActionInterval]],
              truths_by_video: dict[str, list[ActionInterval]],
              criterion: DetectionCriterion = DetectionCriterion(),
              match_region: bool = False) -> tuple[float, float]:
    """Precision/recall pooled over videos (matching stays within video)."""
    tp = n_pred = n_truth = 0
    for vid in sorted(set(preds_by_video) | set(truths_by_video)):
        preds = preds_by_video.get(vid, [])
        truths = truths_by_video.get(vid, [])
        tp += _match_counts(preds, truths, criterion, match_region)
        n_pred += len(preds)
        n_truth += len(truths)
    return _pr(tp, n_pred, n_truth)


def intervals_from_frames(u: np.ndarray, min_run: int = 3
                          ) -> list[ActionInterval]:
    """Merge per-frame atomic-action labels into intervals.

    ``u`` is (T, R); consecutive equal labels merge into one interval per
    region, and runs shorter than ``min_run`` frames are dropped as noise.
    """
    u = np.asarray(u, dtype=int)
    out = []
    T, R = u.shape
    for r in range(R):
        start = 0
        for t in range(1, T + 1):
            if t < T and u[t, r] == u[start, r]:
                continue
            if t - start >= min_run:
                out.append(ActionInterval(action_id=int(u[start, r]),
                                          t_start=start, t_end=t - 1,
                                          region=r))
            start = t
    return out


# ---------------------------------------------------------------------------
# Synthetic planting
# ---------------------------------------------------------------------------

@dataclass
class SyntheticSpec:
    """Desk-scale generator of separable three-level labelings.

    Poselet prototypes are orthonormal rows (pairwise distance sqrt(2)), so
    any noise sigma below sqrt(2)/4 keeps the separability guarantee. Each
    actionlet executes a fixed cyclic poselet pattern, perturbed by flipping
    a ``pose_noise`` fraction of frames to uniform poselets, which keeps
    within-actionlet interval histograms tight and between-actionlet
    histograms separated. ``noise_frame_fraction`` optionally replaces
    frames with uniform random descriptors while keeping the planted labels
    as ground truth.
    """
    num_classes: int = 3          # Y
    num_actions: int = 4          # S
    num_actionlets: int = 6       # A
    num_poselets: int = 8         # K
    num_regions: int = 2          # R
    dim: int = 10
    frames_range: tuple[int, int] = (30, 60)
    segment_range: tuple[int, int] = (6, 12)
    videos_per_class: int = 20
    sigma: float = 0.05
    pose_noise: float = 0.05
    actions_per_class: int = 2
    noise_frame_fraction: float = 0.0
    noise_box: float = 1.5
    seed: int = 0

    def __post_init__(self):
        # each message names the fields it compares, as `synth` maps them
        # to its flags
        if self.num_poselets > self.dim:
            raise ValueError(f"dim {self.dim} is below num_poselets "
                             f"{self.num_poselets}; each poselet needs its "
                             "own orthonormal prototype")
        if 4 * self.sigma >= np.sqrt(2):
            raise ValueError(f"sigma {self.sigma} is not below sqrt(2)/4, so "
                             "planted poselets may not stay separable")
        if not self.num_actions <= self.num_actionlets <= self.num_poselets:
            raise ValueError(
                f"num_actionlets {self.num_actionlets} is not from "
                f"num_actions {self.num_actions} to num_poselets "
                f"{self.num_poselets}: each action needs an actionlet and "
                "each actionlet its own pose cycle")
        if self.actions_per_class > self.num_actions:
            raise ValueError(f"actions_per_class {self.actions_per_class} "
                             f"is above num_actions {self.num_actions}")
        if not 0 <= self.pose_noise < 0.5:
            raise ValueError("pose_noise must be in [0, 0.5)")
        slots = self.num_classes * self.num_regions * self.actions_per_class
        if slots < self.num_actions:
            raise ValueError(
                f"{self.num_classes} classes of {self.actions_per_class} "
                f"actions over {self.num_regions} regions cannot use all "
                f"{self.num_actions} actions; raise actions_per_class or "
                "lower num_actions")
        n_signatures = comb(self.num_actions, self.actions_per_class) \
            ** self.num_regions
        if n_signatures < self.num_classes:
            raise ValueError(
                f"cannot plant {self.num_classes} distinct classes from "
                f"{self.num_actions} actions taken {self.actions_per_class} "
                f"at a time over {self.num_regions} regions; lower "
                "actions_per_class or add actions")


@dataclass
class SyntheticVideo:
    video_id: str
    x: np.ndarray               # (T, R, dim)
    y: int
    z: np.ndarray               # (T, R) planted poselets
    v: np.ndarray               # (T, R) planted actionlets
    u: np.ndarray               # (T, R) planted atomic actions
    intervals: list[ActionInterval]
    noise_mask: np.ndarray      # (T, R) bool


@dataclass
class SyntheticDataset:
    videos: list[SyntheticVideo]
    prototypes: np.ndarray      # (K, dim)
    u_of_v: np.ndarray          # (A,)
    class_patterns: list[list[list[int]]]   # [y][r] -> action cycle


def _actionlet_counts(num_actions: int, num_actionlets: int) -> np.ndarray:
    base, extra = divmod(num_actionlets, num_actions)
    return np.array([base + (1 if s < extra else 0)
                     for s in range(num_actions)])


def _pose_cycles(num_actionlets: int, num_poselets: int) -> list[list[int]]:
    """Per-actionlet alternating poselet pairs, pairwise distinct.

    A period of two keeps interval histograms within 1/(2L) of (1/2, 1/2)
    on the pair regardless of where a segment truncates its cycle, so
    same-actionlet intervals stay tightly clustered."""
    offset = max(1, num_poselets // 2 - 1)
    cycles = []
    for a in range(num_actionlets):
        cycles.append([a % num_poselets, (a + offset) % num_poselets])
    return cycles


def _class_patterns(spec: SyntheticSpec,
                    rng: np.random.Generator) -> list[list[list[int]]]:
    """Per (class, region) action cycles with distinct per-class signatures.

    A draw that leaves an action unused is redrawn, so every atomic action
    has annotated samples in a set with a few videos per class."""
    for _draw in range(1000):
        patterns = _draw_patterns(spec, rng)
        used = {a for pattern in patterns for cycle in pattern for a in cycle}
        if len(used) == spec.num_actions:
            return patterns
    raise RuntimeError("could not plant class patterns that use every "
                       "action")


def _draw_patterns(spec: SyntheticSpec,
                   rng: np.random.Generator) -> list[list[list[int]]]:
    patterns: list[list[list[int]]] = []
    seen: set[tuple] = set()
    for _ in range(spec.num_classes):
        for _attempt in range(1000):
            candidate = []
            for _r in range(spec.num_regions):
                actions = rng.permutation(spec.num_actions)
                candidate.append([int(a) for a in
                                  actions[:spec.actions_per_class]])
            signature = tuple(tuple(sorted(p)) for p in candidate)
            if signature not in seen:
                seen.add(signature)
                patterns.append(candidate)
                break
        else:
            raise RuntimeError("could not plant distinct class patterns")
    return patterns


def plant_synthetic(spec: SyntheticSpec) -> SyntheticDataset:
    """Generate a dataset with full three-level ground truth.

    Deterministic given ``spec.seed``. Per video: the class picks per-region
    action cycles, each action segment picks one of the action's actionlets,
    each frame takes the next poselet of the actionlet's cycle (with a small
    flip probability), and the descriptor is that poselet's prototype plus
    Gaussian noise.
    """
    rng = np.random.default_rng(spec.seed)
    K, A, S, R = (spec.num_poselets, spec.num_actionlets, spec.num_actions,
                  spec.num_regions)
    counts = _actionlet_counts(S, A)
    u_of_v = np.repeat(np.arange(S), counts)
    basis, _ = np.linalg.qr(rng.normal(size=(spec.dim, spec.dim)))
    prototypes = basis[:, :K].T.copy()
    cycles = _pose_cycles(A, K)
    patterns = _class_patterns(spec, rng)

    videos = []
    for y in range(spec.num_classes):
        for n in range(spec.videos_per_class):
            T = int(rng.integers(spec.frames_range[0],
                                 spec.frames_range[1] + 1))
            x = np.empty((T, R, spec.dim))
            z = np.empty((T, R), dtype=int)
            v = np.empty((T, R), dtype=int)
            for r in range(R):
                pattern = patterns[y][r]
                t = 0
                step = 0
                while t < T:
                    action = pattern[step % len(pattern)]
                    step += 1
                    options = np.flatnonzero(u_of_v == action)
                    actionlet = int(rng.choice(options))
                    cycle = cycles[actionlet]
                    length = int(rng.integers(spec.segment_range[0],
                                              spec.segment_range[1] + 1))
                    hi = min(t + length, T)
                    for tt in range(t, hi):
                        pose = cycle[(tt - t) % len(cycle)]
                        if spec.pose_noise > 0 and \
                                rng.random() < spec.pose_noise:
                            pose = int(rng.integers(K))
                        z[tt, r] = pose
                        v[tt, r] = actionlet
                        x[tt, r] = prototypes[pose] + \
                            spec.sigma * rng.normal(size=spec.dim)
                    t = hi
            noise_mask = np.zeros((T, R), dtype=bool)
            if spec.noise_frame_fraction > 0:
                noise_mask = rng.random((T, R)) < spec.noise_frame_fraction
                n_noise = int(noise_mask.sum())
                x[noise_mask] = rng.uniform(-spec.noise_box, spec.noise_box,
                                            size=(n_noise, spec.dim))
            u = u_of_v[v]
            intervals = intervals_from_frames(u, min_run=1)
            videos.append(SyntheticVideo(
                video_id=f"synth_{y}_{n:03d}", x=x, y=y, z=z, v=v, u=u,
                intervals=intervals, noise_mask=noise_mask))
    return SyntheticDataset(videos=videos, prototypes=prototypes,
                            u_of_v=u_of_v, class_patterns=patterns)
