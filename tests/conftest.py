import json

import numpy as np
import pytest

from hieract.dictionaries import ActionletDictionary
from hieract.energy import ModelDims, ModelParams


def make_dictionary(num_actionlets: int, num_actions: int,
                    num_poselets: int = 1) -> ActionletDictionary:
    """Round-robin actionlet-to-action mapping for tests."""
    u = np.sort(np.array([a % num_actions for a in range(num_actionlets)]))
    return ActionletDictionary(
        num_actions=num_actions,
        counts=np.bincount(u, minlength=num_actions),
        u_of_v=u,
        centroids=np.zeros((num_actionlets, num_poselets)),
    )


def chi2(h1: np.ndarray, h2: np.ndarray) -> float:
    """Chi-squared distance between two nonnegative histograms, the scalar
    reference for the vectorized distances of the program.

    Sums (h1[k]-h2[k])^2 / (h1[k]+h2[k]) over bins, skipping bins where both
    entries are zero.
    """
    h1 = np.asarray(h1, dtype=float)
    h2 = np.asarray(h2, dtype=float)
    if h1.shape != h2.shape:
        raise ValueError(f"histogram shapes differ: {h1.shape} vs {h2.shape}")
    if np.any(h1 < 0) or np.any(h2 < 0):
        raise ValueError("histogram entries must be nonnegative")
    denom = h1 + h2
    mask = denom > 0
    diff = h1 - h2
    return float(np.sum(diff[mask] ** 2 / denom[mask]))


def random_params(dims: ModelDims, rng: np.random.Generator,
                  scale: float = 1.0, **flags) -> ModelParams:
    params = ModelParams.zeros(dims, dictionary=make_dictionary(
        dims.A, dims.S, dims.K), **flags)
    return params.with_flat(rng.normal(scale=scale, size=dims.total))


def random_labeling_arrays(dims: ModelDims, T: int, rng: np.random.Generator):
    z = rng.integers(0, dims.K + 1, size=(T, dims.R))
    v = rng.integers(0, dims.A, size=(T, dims.R))
    y = int(rng.integers(dims.Y))
    return z, v, y


# Three frames of a 20-joint skeleton with easily checkable values: the head
# sits at (0, 1.8, 0) in frame 0 and everything drifts +0.1 in x per frame.
TOY_JOINT_BASE = {
    "head": (0.0, 1.8, 0.0), "neck": (0.0, 1.6, 0.0),
    "torso": (0.0, 1.2, 0.0), "hip_center": (0.0, 1.0, 0.0),
    "left_shoulder": (-0.2, 1.55, 0.0), "left_elbow": (-0.45, 1.3, 0.0),
    "left_wrist": (-0.55, 1.05, 0.1), "left_hand": (-0.6, 0.95, 0.12),
    "right_shoulder": (0.2, 1.55, 0.0), "right_elbow": (0.45, 1.3, 0.0),
    "right_wrist": (0.55, 1.05, 0.1), "right_hand": (0.6, 0.95, 0.12),
    "left_hip": (-0.12, 1.0, 0.0), "left_knee": (-0.14, 0.55, 0.05),
    "left_ankle": (-0.15, 0.1, 0.0), "left_foot": (-0.15, 0.02, 0.15),
    "right_hip": (0.12, 1.0, 0.0), "right_knee": (0.14, 0.55, 0.05),
    "right_ankle": (0.15, 0.1, 0.0), "right_foot": (0.15, 0.02, 0.15),
}


@pytest.fixture
def toy_skeleton_text():
    from hieract.skeleton import KINECT20

    lines = [json.dumps({"schema": "kinect20", "video_id": "toy", "fps": 30})]
    for t in range(3):
        joints = [[TOY_JOINT_BASE[name][0] + 0.1 * t,
                   TOY_JOINT_BASE[name][1],
                   TOY_JOINT_BASE[name][2]]
                  for name in KINECT20.joint_names]
        lines.append(json.dumps({"t": t, "joints": joints}))
    return "\n".join(lines) + "\n"


def brute_force_assignment(eff, overlaps):
    """Exhaustive oracle for one video's region assignment (problem P1).

    The least sum(b * eff) over every 0/1 b that gives each interval a
    non-empty set of regions, with no two overlapping intervals sharing a
    region. Each interval's non-empty region subsets are enumerated jointly,
    (2^R - 1)^n combinations, within each connected component of n
    intervals of the overlap graph: the objective is a sum over intervals
    and every constraint stays inside one component, so components are
    independent. Returns the optimum, or None when no b is feasible.
    """
    eff = np.asarray(eff, dtype=float)
    R, Q = eff.shape
    subsets = np.arange(1, 2 ** R)                    # region bitmasks
    member = (subsets[:, None] >> np.arange(R)[None, :]) & 1
    subset_cost = member @ eff                        # (2^R - 1, Q)
    parent = list(range(Q))

    def root(q):
        while parent[q] != q:
            q = parent[q]
        return q

    for q1, q2 in overlaps:
        parent[root(q1)] = root(q2)
    total = 0.0
    for comp_root in sorted({root(q) for q in range(Q)}):
        comp = [q for q in range(Q) if root(q) == comp_root]
        pick = np.indices((subsets.size,) * len(comp), dtype=np.int8) \
            .reshape(len(comp), -1)
        cost = sum(subset_cost[pick[j], q] for j, q in enumerate(comp))
        ok = np.ones(pick.shape[1], dtype=bool)
        for q1, q2 in overlaps:
            if q1 in comp:
                ok &= (subsets[pick[comp.index(q1)]]
                       & subsets[pick[comp.index(q2)]]) == 0
        if not ok.any():
            return None
        total += float(cost[ok].min())
    return total
