"""Motion-poselet initialization and actionlet dictionary discovery.

Poselet labels start from k-means over frame descriptors, per region, with
the most dissimilar fraction of frames handed to the garbage-collector
label. Actionlets are discovered per atomic action by clustering interval
histograms of initial poselet labels, with the cluster count picked by an
eigenvalue scree rule on a chi-squared affinity matrix.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class ActionletDictionary:
    """Mapping between actionlets and the atomic actions they execute.

    ``u_of_v[a]`` is the atomic action of actionlet a; actionlet indices are
    contiguous per action in action order, so ``u_of_v`` is non-decreasing.
    ``centroids`` holds one poselet-histogram centroid per actionlet.
    """
    num_actions: int
    counts: np.ndarray        # (S,) actionlets per action
    u_of_v: np.ndarray        # (A,)
    centroids: np.ndarray     # (A, K)

    @property
    def num_actionlets(self) -> int:
        return int(self.u_of_v.shape[0])

    def to_dict(self) -> dict:
        return {"num_actions": self.num_actions,
                "counts": self.counts.tolist(),
                "u_of_v": self.u_of_v.tolist(),
                "centroids": self.centroids.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "ActionletDictionary":
        return cls(num_actions=int(d["num_actions"]),
                   counts=np.asarray(d["counts"], dtype=int),
                   u_of_v=np.asarray(d["u_of_v"], dtype=int),
                   centroids=np.asarray(d["centroids"], dtype=float))


def _error_terms(dim: int) -> tuple[float, float]:
    """Rounding allowances for squared distances of float64 points in
    ``dim`` dimensions: a relative ``slack`` of 2 gamma_{D+3} and an
    absolute ``floor`` of 16 (D + 3) smallest normal numbers.

    The direct sum over D of squared differences lies within a relative
    gamma_{D+1} of the true squared distance, its terms being nonnegative,
    and the expansion ||x||^2 - 2 x.c + ||c||^2 within gamma_{D+2}
    (||x|| + ||c||)^2 of it (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., sec. 3.1; gamma_m = m u / (1 - m u), u the unit
    roundoff). The slack covers either error twice over, which leaves room
    for the rounding of the few operations that apply it; the floor covers
    terms that underflow.
    """
    m = (dim + 3) * np.finfo(float).eps / 2
    return 2 * m / (1 - m), 16 * (dim + 3) * np.finfo(float).tiny


def _direct_sq(points: np.ndarray, centres: np.ndarray) -> np.ndarray:
    """Squared distances of each row of ``points`` to one centre (D,), or
    to its own row of ``centres`` (N, D), as the direct sum over D of each
    squared difference. A row's value does not depend on the other rows."""
    return np.square(points - centres).sum(axis=1)


def _expanded(points: np.ndarray, x_sq: np.ndarray,
              centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Squared distances (N, K) from one matrix product, as ||x||^2 -
    2 x.c + ||c||^2 with ``x_sq`` = ||x||^2, and for each the bound
    ``slack`` (||x|| + ||c||)^2 + ``floor`` of ``_error_terms`` on how far
    it is from the direct sum and from the true squared distance."""
    slack, floor = _error_terms(points.shape[1])
    c_sq = np.einsum("kd,kd->k", centroids, centroids)
    d2 = points @ centroids.T
    d2 *= -2.0
    d2 += x_sq[:, None]
    d2 += c_sq
    bound = np.sqrt(x_sq)[:, None] + np.sqrt(c_sq)
    np.square(bound, out=bound)
    bound *= slack
    bound += floor
    return d2, bound


def _pp_seed(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding; deterministic for a fixed generator state.

    Each new centre is drawn with probability proportional to ``d2``, the
    direct squared distance of each point to its nearest earlier centre.
    ``d2`` is updated only on the rows the new centre might come closer
    to: one matrix-vector product gives the expansion ||x||^2 - 2 x.c +
    ||c||^2, and a row whose expansion, less its error bound (as in
    ``_nearest``), is at least its ``d2`` keeps it, as
    ``np.minimum(d2, direct)`` would. The other rows get the direct sum,
    so ``d2``, and with it every draw, is the same bit for bit as when
    every row is updated.
    """
    n, dim = points.shape
    centroids = np.empty((k, dim))
    first = int(rng.integers(n))
    centroids[0] = points[first]
    d2 = _direct_sq(points, centroids[0])
    x_sq = np.einsum("nd,nd->n", points, points)
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            centroids[c:] = points[first]
            break
        probs = d2 / total
        pick = int(rng.choice(n, p=probs))
        centroids[c] = points[pick]
        reach, bound = _expanded(points, x_sq, centroids[c:c + 1])
        reach -= bound                  # a lower bound on the direct sum
        # a NaN is always updated
        rows = np.flatnonzero(~(reach[:, 0] >= d2))
        d2[rows] = np.minimum(d2[rows], _direct_sq(points[rows], centroids[c]))
    return centroids


# Points per block of the nearest-centroid search. A block's squared
# distances are one (256, K) matrix product, and the near ties that fall
# back to direct differences take at most a (256, K, D) block, a few
# megabytes where a whole paper-scale region (N ~ 10^4 frames, K = 100)
# would take hundreds.
NEAREST_CHUNK_ROWS = 256


def _exact_labels(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest-centroid labels (ties: lowest index) from the direct sum over
    D of each squared difference: the labels ``_nearest`` reproduces."""
    return np.square(points[:, None, :] - centroids).sum(axis=2).argmin(axis=1)


def _nearest(points: np.ndarray, centroids: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nearest-centroid labels and squared distances of float64 points,
    equal bit for bit to ``_exact_labels`` and the direct squared
    distances, and per point a lower bound on its true distance to every
    centroid but its label's.

    Each block of ``NEAREST_CHUNK_ROWS`` points gets its distances from one
    matrix product, as ||x||^2 - 2 x.c + ||c||^2. That value and the direct
    sum differ by at most ``slack`` (||x|| + ||c||)^2 + ``floor`` (see
    ``_error_terms``), which also bounds how far the value is from the true
    squared distance. A row's label is settled when no other centroid's
    lower bound reaches the winner's upper bound; the other rows (near
    ties, or values that are not finite) are searched again by
    ``_exact_labels``. The distance returned is the direct sum for the label
    found. The lower bound is the square root of the least lower bound of
    the other centroids, rounded down; it is 0 for the rows searched again,
    so that no later step takes them as settled.
    """
    n = points.shape[0]
    labels = np.empty(n, dtype=np.intp)
    nearest = np.empty(n)
    lower = np.empty(n)
    for s in range(0, n, NEAREST_CHUNK_ROWS):
        block = points[s:s + NEAREST_CHUNK_ROWS]
        d2, bound = _expanded(block, np.einsum("nd,nd->n", block, block),
                              centroids)
        rows = np.arange(block.shape[0])
        best = d2.argmin(axis=1)
        upper = d2[rows, best] + bound[rows, best]
        d2 -= bound                     # lower bounds from here on
        d2[rows, best] = np.inf
        others = d2.min(axis=1)
        # a NaN never settles a row
        ties = np.flatnonzero(~(others > upper))
        if ties.size:
            best[ties] = _exact_labels(block[ties], centroids)
            others[ties] = 0.0
        labels[s:s + best.size] = best
        nearest[s:s + best.size] = _direct_sq(block, centroids[best])
        lower[s:s + best.size] = others
    np.maximum(lower, 0.0, out=lower)
    return labels, nearest, np.nextafter(np.sqrt(lower), 0.0)


def _update(points: np.ndarray, centroids: np.ndarray, labels: np.ndarray,
            nearest: np.ndarray, counted: np.ndarray | None
            ) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """One Lloyd update of ``centroids`` in place.

    A cluster with no rows is re-seeded, in ascending order, at the row
    farthest (by ``nearest``) from its centroid, which moves to it; that
    row's ``nearest`` becomes 0. A row moved away from a cluster whose mean
    is still to be taken does not count in it. Every other cluster's mean
    sums its rows in their original order, over one contiguous slice of the
    rows stably sorted by cluster: the same sum, bit for bit, as
    ``points[labels == c].mean(axis=0)``. Only the clusters whose rows
    differ from ``counted``, the cluster each row counted in at the last
    update (None before the first), are averaged again; the others keep
    their mean.

    Returns the cluster each row counts in now (k for none), which
    clusters changed, and the rows re-seeded.
    """
    k = centroids.shape[0]
    counts = np.bincount(labels, minlength=k)
    now = labels.copy()
    changed = np.zeros(k + 1, dtype=bool)
    reseeded = []
    if not counts.all():
        for c in range(k):
            if counts[c]:
                continue
            far = int(np.argmax(nearest))
            came_from = labels[far]
            counts[came_from] -= 1
            if came_from > c:
                now[far] = k
            centroids[c] = points[far]
            labels[far] = c
            nearest[far] = 0.0
            changed[c] = True
            reseeded.append(far)
    if counted is None:
        changed[:] = True
    else:
        rows = np.flatnonzero(now != counted)
        changed[now[rows]] = True
        changed[counted[rows]] = True
    sizes = np.bincount(now, minlength=k + 1)
    averaged = changed & (sizes > 0)
    averaged[k] = False
    rows = np.flatnonzero(averaged[now])
    grouped = points[rows[np.argsort(now[rows], kind="stable")]]
    which = np.flatnonzero(averaged)
    end = 0
    for c in which:
        end += sizes[c]
        centroids[c] = grouped[end - sizes[c]:end].sum(axis=0)
    centroids[which] /= sizes[which, None]
    return now, changed[:k], reseeded


def kmeans(points: np.ndarray, k: int, seed: int = 0,
           max_iter: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """Euclidean k-means with k-means++ seeding.

    Returns (centroids (k, D), labels (N,)). Deterministic given ``seed``;
    inertia is non-increasing across Lloyd iterations. A cluster that
    empties is re-seeded at the point farthest from its assigned centroid.

    Each step keeps, per row, a lower bound on its true distance to every
    centroid but its label's (Hamerly, "Making k-means even faster", SDM
    2010): ``_nearest`` sets it, and each update lowers it by the largest
    shift, rounded up, of the other centroids. A row whose bound, less the
    rounding of a direct sum, still exceeds the direct distance to its own
    centroid keeps its label, which ``_exact_labels`` would give it too;
    only the other rows are searched. Rows re-seeded into an empty cluster
    are searched at the next step. The direct distance of a row is summed
    again only when its centroid changed. Labels and centroids are those of
    a full search at every step, bit for bit.
    """
    points = np.asarray(points, dtype=float)
    n, dim = points.shape
    if k < 1:
        raise ValueError(f"need k >= 1 clusters, got {k}")
    if n < k:
        raise ValueError(f"need at least k={k} points, got {n}")
    slack, floor = _error_terms(dim)
    rng = np.random.default_rng(seed)
    centroids = _pp_seed(points, k, rng)
    prev_labels = None
    labels = np.zeros(n, dtype=np.intp)
    nearest = np.empty(n)
    lower = np.zeros(n)                 # 0: no row is settled yet
    counted = None
    changed = np.ones(k, dtype=bool)
    for _ in range(max_iter):
        rows = np.flatnonzero(changed[labels])
        nearest[rows] = _direct_sq(points[rows], centroids[labels[rows]])
        # a row keeps its label when the direct sum to every other
        # centroid, at least lower^2 (1 - gamma_{D+1}) less an underflow of
        # at most floor, exceeds its own
        stale = np.flatnonzero(
            ~(lower * (1 - slack) > np.sqrt(nearest + floor)))
        labels[stale], nearest[stale], lower[stale] = _nearest(
            points[stale], centroids)
        previous = centroids.copy()
        counted, changed, reseeded = _update(points, centroids, labels,
                                             nearest, counted)
        lower[reseeded] = 0.0
        # how far each centroid moved, rounded up
        moved = np.flatnonzero(changed)
        shift = np.zeros(k)
        shift[moved] = np.nextafter(np.sqrt(
            (_direct_sq(centroids[moved], previous[moved]) + floor)
            * (1 + slack)), np.inf)
        top = int(np.argmax(shift))
        widest = np.full(n, shift[top])
        widest[labels == top] = np.delete(shift, top).max(initial=0.0)
        lower = np.maximum(np.nextafter(lower - widest, -np.inf), 0.0)
        if prev_labels is not None and np.array_equal(labels, prev_labels):
            break
        prev_labels = labels.copy()
    return centroids, labels


def assign_labels(points: np.ndarray,
                  centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-centroid labels and distances for new points."""
    labels, nearest, _ = _nearest(np.asarray(points, dtype=float),
                                  np.asarray(centroids, dtype=float))
    return labels, np.sqrt(nearest)


def gc_init(labels: np.ndarray, distances: np.ndarray, num_poselets: int,
            fraction: float = 0.20) -> np.ndarray:
    """Reassign the most dissimilar fraction of frames to the GC label.

    The ceil(fraction * N) frames with the largest distance to their nearest
    centroid get label ``num_poselets`` (the reserved K+1 slot, 0-based K).
    Ties at the cut are broken toward the lower frame index.
    """
    labels = np.asarray(labels).copy()
    distances = np.asarray(distances, dtype=float)
    if not np.all(np.isfinite(distances)):
        raise ValueError("distances must be finite")
    n = labels.shape[0]
    n_gc = int(np.ceil(fraction * n))
    if n_gc <= 0:
        return labels
    order = np.lexsort((np.arange(n), -distances))
    labels[order[:n_gc]] = num_poselets
    return labels


def chi2_matrix(H: np.ndarray) -> np.ndarray:
    """Pairwise chi-squared distances between histogram rows."""
    H = np.asarray(H, dtype=float)
    n = H.shape[0]
    D = np.zeros((n, n))
    for i in range(n):
        diff = H[i] - H[i + 1:]
        denom = H[i] + H[i + 1:]
        with np.errstate(invalid="ignore", divide="ignore"):
            terms = np.where(denom > 0, diff ** 2 / denom, 0.0)
        D[i, i + 1:] = terms.sum(axis=1)
    return D + D.T


# The scree rule's per-cluster penalty
SCREE_C = 2e-3


def scree_count(eigenvalues: np.ndarray, c: float = SCREE_C) -> int:
    """Pick a cluster count from a descending eigenvalue spectrum.

    Minimizes lam[i+1]^2 / sum(lam[1..i]) + c*i over i in 1..n-1 (1-based),
    breaking ties toward the smaller i. Tiny negative eigenvalues from
    numerics are clamped to zero; an all-zero spectrum gives 1.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.size < 2:
        return 1
    lam = np.clip(lam, 0.0, None)
    total = lam.sum()
    if total <= 0:
        return 1
    cum = np.cumsum(lam)
    best_i, best_score = 1, np.inf
    for i in range(1, lam.size):          # i counts leading eigenvalues
        head = cum[i - 1]
        score = (lam[i] ** 2 / head if head > 0 else np.inf) + c * i
        if score < best_score:
            best_score = score
            best_i = i
    return best_i


def interval_histogram(frame_labels: np.ndarray, num_poselets: int,
                       t_start: int, t_end: int) -> np.ndarray:
    """Normalized K-bin poselet histogram of one interval.

    GC-labeled frames are excluded; an interval of only GC frames yields the
    zero histogram.
    """
    window = np.asarray(frame_labels)[t_start:t_end + 1]
    window = window[window < num_poselets]
    hist = np.bincount(window, minlength=num_poselets).astype(float)
    total = hist.sum()
    return hist / total if total > 0 else hist


# Actionlet affinity bandwidth, in mean pairwise chi-squared distances. A
# wide bandwidth keeps the affinity in its near-linear regime, where
# within-cluster distance noise contributes eigenvalues growing like sqrt(n)
# while cluster structure grows like n, so the scree rule stays at the
# cluster count as samples accumulate.
AFFINITY_BANDWIDTH = 8.0


def build_actionlets(histograms: np.ndarray, actions: np.ndarray,
                     num_actions: int, seed: int = 0
                     ) -> tuple[ActionletDictionary, np.ndarray]:
    """Discover the actionlet dictionary from per-interval histograms.

    ``histograms`` is (N, K) with one row per (interval, region) sample and
    ``actions`` the matching atomic action ids. Per action: a Gaussian
    affinity over chi-squared distances is eigendecomposed, the scree rule
    picks the actionlet count (clamped to the sample count), and k-means
    splits the samples. Returns the dictionary plus the per-sample actionlet
    assignment. The affinity bandwidth is ``AFFINITY_BANDWIDTH`` times the
    mean pairwise distance within the action.
    """
    histograms = np.asarray(histograms, dtype=float)
    actions = np.asarray(actions, dtype=int)
    present = np.unique(actions)
    if present.size < num_actions or present.min() < 0 or \
            present.max() >= num_actions:
        missing = sorted(set(range(num_actions)) - set(present.tolist()))
        raise ValueError(f"every atomic action needs samples; missing {missing}")

    counts = np.zeros(num_actions, dtype=int)
    u_of_v: list[int] = []
    centroids: list[np.ndarray] = []
    assignment = np.full(actions.shape[0], -1, dtype=int)
    next_id = 0
    for s in range(num_actions):
        rows = np.flatnonzero(actions == s)
        H = histograms[rows]
        if rows.size == 1:
            g = 1
        else:
            dist = chi2_matrix(H)
            sigma = AFFINITY_BANDWIDTH \
                * dist[np.triu_indices(rows.size, k=1)].mean()
            affinity = np.exp(-dist / sigma) if sigma > 0 \
                else np.ones_like(dist)
            lam = np.sort(np.linalg.eigvalsh(affinity))[::-1]
            g = min(scree_count(lam), rows.size)
        if g == 1:
            local = np.zeros(rows.size, dtype=int)
            cents = H.mean(axis=0, keepdims=True)
        else:
            cents, local = kmeans(H, g, seed=seed + s)
        counts[s] = g
        for a in range(g):
            u_of_v.append(s)
            centroids.append(cents[a])
        assignment[rows] = next_id + local
        next_id += g
    dictionary = ActionletDictionary(
        num_actions=num_actions,
        counts=counts,
        u_of_v=np.asarray(u_of_v, dtype=int),
        centroids=np.vstack(centroids),
    )
    return dictionary, assignment
