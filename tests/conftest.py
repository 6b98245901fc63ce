import itertools
import json

import numpy as np
import pytest

from hieract.dictionaries import ActionletDictionary
from hieract.energy import Labeling, ModelDims, ModelParams, energy_total
from hieract.evaluation import DetectionCriterion, pooled_pr
from hieract.inference import (LOSS_REGION, InferenceResult, _alpha_rows,
                               _backtrack, _region_unary_base, _tables,
                               _viterbi_forward)


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


def pp_seed_reference(points: np.ndarray, k: int,
                      rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding with every row's squared distance to its nearest
    centre updated after each draw: the reference the pruned seeding of
    ``hieract.dictionaries._pp_seed`` must equal bit for bit."""
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    first = int(rng.integers(n))
    centroids[0] = points[first]
    d2 = np.sum((points - centroids[0]) ** 2, axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            centroids[c:] = points[first]
            break
        probs = d2 / total
        pick = int(rng.choice(n, p=probs))
        centroids[c] = points[pick]
        d2 = np.minimum(d2, np.sum((points - centroids[c]) ** 2, axis=1))
    return centroids


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


def check_feasible(result, problems) -> list[str]:
    """Exhaustively verify both constraint families of P1 on every video
    of a ``solve_p1`` result: each interval has a region, and overlapping
    intervals share none. Returns the violations found."""
    bad = []
    for prob, b in zip(problems, result.assignments):
        ivs = prob.intervals
        for q in range(len(ivs)):
            if not b[:, q].any():
                bad.append(f"{prob.video_id}: interval {q} unassigned")
        for q1, q2 in itertools.combinations(range(len(ivs)), 2):
            if not ivs[q1].overlaps(ivs[q2]):
                continue
            for r in range(b.shape[0]):
                if b[r, q1] and b[r, q2]:
                    bad.append(f"{prob.video_id}: intervals {q1},{q2} "
                               f"collide in region {r}")
    return bad


def detection_pr(preds, truths, criterion=DetectionCriterion()):
    """Temporal detection precision/recall for one video's intervals."""
    return pooled_pr({"v": preds}, {"v": truths}, criterion)


def region_unary(x, y, params, r, constraints, loss_addends):
    """(T, N) scores of the non-sequential terms; -inf for disallowed
    states."""
    base = _region_unary_base(x, params, r, constraints, loss_addends)
    return base + _alpha_rows(params)[r, y][None, :]


def enumerate_best(unary, eta, gamma):
    """Exhaustive maximization over all state sequences.

    Scores every sequence by an iterated tensor build whose flattened C
    order puts the last frame's state in the most significant position, so
    np.argmax realizes the same tie-break as the DP backtrack. Summands are
    grouped as ((score + gamma) + eta) + unary, matching the DP bit for bit
    so exact ties stay exact.
    """
    T, N = unary.shape
    KK, A = eta.shape[0], gamma.shape[0]
    trans_gamma = np.tile(gamma, (KK, KK))     # [n', n] -> gamma[a', a]
    trans_eta = np.kron(eta, np.ones((A, A)))  # [n', n] -> eta[k', k]
    scores = unary[0]
    for t in range(1, T):
        # axes of `scores`: (n_{t-1}, ..., n_0); prepend n_t
        expand = (slice(None), slice(None)) + (None,) * (t - 1)
        scores = unary[t][(slice(None),) + (None,) * t] \
            + (trans_eta.T[expand] + (trans_gamma.T[expand]
                                      + scores[None, ...]))
    flat = scores.reshape(-1)
    best_idx = int(np.argmax(flat))
    best_score = float(flat[best_idx])
    states = np.empty(T, dtype=int)
    for t in range(T):  # flat C order: the last frame varies slowest
        states[t] = (best_idx // N ** t) % N
    return states, best_score


def viterbi_batch(unary, eta, gamma, region, lengths=None):
    """The program's Viterbi over a (B, T, N) stack, row b under the tables
    ``eta[region[b]]`` and ``gamma[region[b]]`` over its first
    ``lengths[b]`` frames (all if None, which must not increase down the
    stack): ``hieract.inference._viterbi_forward`` and then ``_backtrack``
    over every row. Returns (states (B, T), scores (B,)), states -1 past a
    row's length."""
    B, T = unary.shape[:2]
    lengths = np.full(B, T) if lengths is None else np.asarray(lengths)
    history, last, scores = _viterbi_forward(unary, eta, gamma, region,
                                             lengths)
    return _backtrack(history, eta, gamma, region, lengths, last), scores


def reference_viterbi(unary, eta, gamma):
    """The dense backpointer Viterbi over a (B, T, N) stack: the reference
    the pruned pass of ``viterbi_batch`` must equal bit for bit. Returns
    (states (B, T), scores (B,)).

    Each frame maximizes over every predecessor, the actionlet a' for each
    (k', a) and then the poselet k' for each (k, a), keeps both argmax
    tables (ties: smallest index) and backtracks through them. Sums are
    grouped as ``(score + gamma) + eta``, then ``+ unary``.
    """
    B, T, N = unary.shape
    KK, A = eta.shape[0], gamma.shape[0]
    eta_t, gamma_t = eta.T, gamma.T
    unary = unary.reshape(B, T, KK, A)
    a_back = np.zeros((B, T, KK, A), dtype=np.int32)
    k_back = np.zeros((B, T, A, KK), dtype=np.int32)
    score = unary[:, 0].copy()                # (B, K', A)
    for t in range(1, T):
        # over_a[b, k', a, a'] = score[b, k', a'] + gamma[a', a]
        over_a = score[:, :, None, :] + gamma_t
        a_bp = over_a.argmax(axis=3)
        sa = np.take_along_axis(over_a, a_bp[..., None], axis=3)[..., 0]
        # over_k[b, a, k, k'] = sa[b, k', a] + eta[k', k]
        over_k = sa.transpose(0, 2, 1)[:, :, None, :] + eta_t
        k_bp = over_k.argmax(axis=3)
        best = np.take_along_axis(over_k, k_bp[..., None], axis=3)[..., 0]
        score = unary[:, t] + best.transpose(0, 2, 1)
        a_back[:, t] = a_bp
        k_back[:, t] = k_bp
    flat = score.reshape(B, N)
    best_last = flat.argmax(axis=1)           # ties: smallest state
    best_score = flat[np.arange(B), best_last]
    states = np.empty((B, T), dtype=int)
    states[:, -1] = best_last
    rows = np.arange(B)
    for t in range(T - 1, 0, -1):
        k, a = states[:, t] // A, states[:, t] % A
        k_prev = k_back[rows, t, a, k]
        a_prev = a_back[rows, t, k_prev, a]
        states[:, t - 1] = k_prev * A + a_prev
    return states, best_score


def brute_force(x, params, constraints=None, loss_spec=None,
                lambda_y=0.0, lambda_v=0.0, guard=1e7) -> InferenceResult:
    """Exact global maximum by enumeration; the testing oracle for the DP
    of ``hieract.inference.maximize``, with the same tie-break.

    Refuses instances where Y * ((K+1)*A)^T exceeds ``guard``.
    """
    x = np.asarray(x, dtype=float)
    d = params.dims
    T = x.shape[0]
    N = params.num_poselet_states * d.A
    if d.Y * float(N) ** T > guard:
        raise ValueError(
            f"instance too large for enumeration: {d.Y} * {N}^{T} > {guard:g}")
    addends = None
    if loss_spec is not None and loss_spec.allowed_v is not None \
            and lambda_v != 0.0:
        addends = (lambda_v / T) * (~loss_spec.allowed_v).astype(float)
    eta, gamma = _tables(params)
    best = None
    for y in range(d.Y):
        const = lambda_y * float(loss_spec is not None and y != loss_spec.y)
        total = const
        zs, vs = [], []
        for r in range(d.R):
            region_addends = addends if r == LOSS_REGION else None
            unary = region_unary(x, y, params, r, constraints, region_addends)
            states, score = enumerate_best(unary, eta[r], gamma[r])
            total += score
            zs.append(states // d.A)
            vs.append(states % d.A)
        if best is None or total > best[0]:
            best = (total, y, np.stack(zs, axis=1), np.stack(vs, axis=1))
    total, y, z, v = best
    labeling = Labeling(z=z, v=v, y=y)
    return InferenceResult(labeling=labeling,
                           energy=energy_total(x, labeling, params),
                           score=total,
                           margins=np.zeros((T, d.R)))
