"""Training: self-paced region assignment, latent imputation, and the
1-slack cutting-plane solver inside a CCCP outer loop.

Supervision levels:

* ``full``     -- intervals carry their region; actionlet labels are fixed
                  wherever an interval covers a frame of its region.
* ``temporal`` -- intervals carry times only; each covered frame constrains
                  its actionlets to those of the annotated actions, in every
                  region, and the region assignment is initialized by the
                  self-paced assignment problem.
* ``video``    -- only the complex action label is used for constraints and
                  loss; intervals, when present, still seed initialization.

The margin-rescaling loss is a constant for a wrong complex action plus a
per-frame penalty, applied in one designated region, for actionlets outside
the frame's allowed set. Keeping the per-frame term in a single region keeps
loss-augmented inference an exact per-region DP.
"""
from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from itertools import zip_longest

import numpy as np

from .config import TrainConfig
from .dictionaries import (ActionletDictionary, assign_labels,
                           build_actionlets, gc_init, interval_histogram,
                           kmeans)
from .energy import Labeling, ModelDims, ModelParams, energy_total, feature_map
from .inference import (LOSS_REGION, LossSpec, complete_latent,
                        loss_augmented_infer_many, loss_value)
from .skeleton import ActionInterval

log = logging.getLogger(__name__)

# CCCP stops once a step lowers the objective by less than this, relatively
CCCP_TOL = 1e-4
# P1 alternations per self-paced round, at most
P1_MAX_ALTERNATIONS = 20
# Self-paced rounds of P1 after the first, and the factor that shrinks
# lambda from one round to the next
P1_ROUNDS = 5
P1_DECAY = 0.5


@dataclass
class TrainingVideo:
    """One training example: descriptors, class label, and annotations."""
    video_id: str
    x: np.ndarray                     # (T, R, D)
    y: int
    intervals: list[ActionInterval] = field(default_factory=list)

    @property
    def num_frames(self) -> int:
        return self.x.shape[0]


# ---------------------------------------------------------------------------
# Self-paced assignment of action intervals to regions (problem P1)
# ---------------------------------------------------------------------------

@dataclass
class AssignmentProblem:
    """Per-video inputs of the region-assignment problem: the video's Q
    ``intervals`` and ``histograms``, (R, Q, K), the poselet histogram of
    each in each region. Derived once from the intervals: their
    ``actions``, the index pairs (i < j) that ``overlaps`` in time and so
    exclude each other within any region, and the start-frame ``order``
    (stable) in which P1 visits them."""
    video_id: str
    intervals: list[ActionInterval]
    histograms: np.ndarray            # (R, Q, K)
    actions: np.ndarray = field(init=False)          # (Q,)
    overlaps: list[tuple[int, int]] = field(init=False)
    order: np.ndarray = field(init=False)            # (Q,)

    def __post_init__(self):
        ivs = self.intervals
        self.actions = np.array([iv.action_id for iv in ivs], dtype=int)
        self.overlaps = [(i, j) for i in range(len(ivs))
                         for j in range(i + 1, len(ivs))
                         if ivs[i].overlaps(ivs[j])]
        self.order = np.argsort([iv.t_start for iv in ivs], kind="stable")


@dataclass
class P1Result:
    assignments: list[np.ndarray]     # per video, (R, Q) bool
    objective_trace: list[list[float]]   # per self-pace round
    infeasible: list[str] = field(default_factory=list)


def assign_regions(costs: np.ndarray, overlaps: list[tuple[int, int]],
                   inv_lambda: float = 0.0) -> tuple[np.ndarray, bool]:
    """Solve one video's assignment: minimize sum b*(cost - inv_lambda).

    Subject to: every interval gets at least one region, and overlapping
    intervals never share a region. Solved exactly by the DP of ``_sweep``,
    which visits the intervals in the order the columns of ``costs`` list
    them; callers list them by start frame, which keeps at most R waiting.
    Returns (b, feasible); when the overlaps make coverage impossible,
    coverage wins: each interval goes to its cheapest region, and
    ``feasible`` is False.
    """
    costs = np.asarray(costs, dtype=float)
    program = _IntervalDP(len(costs), [(overlaps, range(costs.shape[1]))])
    return program.solve([costs - inv_lambda])[0], program.feasible[0]


class _IntervalDP:
    """P1 for several videos by the DP of ``_sweep``, the videos' sweeps
    side by side. The moves depend only on the overlaps, so they are
    enumerated once and each b-step only prices them."""

    def __init__(self, R: int, videos: list[tuple]):
        """``videos``: each video's (overlaps, order) for ``_sweep``."""
        self.cols, index = np.cumsum([0, *(len(o) for _, o in videos)]), {}
        sweeps = [_sweep(R, *video, 2 ** R * c, index)
                  for video, c in zip(videos, self.cols)]
        self.feasible = [end is not None for _, end in sweeps]
        self.ends = np.array([e for _, e in sweeps if e is not None], int)
        moves = zip_longest(*(steps for steps, end in sweeps
                              if end is not None), fillvalue=[])
        self.steps = [np.array(sum(m, [])).T    # (state, cell, state') rows
                      for m in moves]
        self.size, self.last = len(index), (None, None)

    def solve(self, effs: list[np.ndarray]) -> list[np.ndarray]:
        """Minimize sum b*eff per video, reusing the last solution at equal
        prices; an infeasible video covers each interval at its cheapest."""
        eff = np.concatenate(effs, axis=1)
        if not np.array_equal(eff, self.last[0]):
            self.last = eff, self.price(eff)
        parts = np.split(self.last[1], self.cols[1:-1], axis=1)
        return [b if ok else np.argmin(e, axis=0) == np.arange(len(e))[:, None]
                for b, e, ok in zip(parts, effs, self.feasible)]

    def price(self, eff: np.ndarray) -> np.ndarray:
        """b, (R, width), of the cheapest sweeps at the region prices
        ``eff``, the videos' columns side by side."""
        R, width = eff.shape
        bits = (np.arange(2 ** R)[:, None] >> np.arange(R)) & 1
        table = np.zeros((width + 1, 2 ** R))    # column width: no interval
        table[:width] = sum(eff[r, :, None] * bits[:, r] for r in range(R))
        cost, back = np.zeros(self.size), np.zeros((2, self.size), int)
        back[0], back[1] = np.arange(self.size), 2 ** R * width  # stay put
        for src, cell, dst in self.steps:
            cand = cost[src] + table.flat[cell]
            order = np.lexsort((cand, dst))     # stable: ties keep the first
            first = order[np.r_[True, np.diff(dst[order]) > 0]]
            cost[dst[first]] = cand[first]
            back[:, dst[first]] = src[first], cell[first]
        b, state = np.zeros((R, width + 1), dtype=bool), self.ends
        for _ in self.steps:
            col, mask = np.divmod(back[1, state], 2 ** R)
            b[:, col], state = bits[mask].T, back[0, state]
        return b[:, :width]


def _sweep(R: int, overlaps: list[tuple[int, int]], order: np.ndarray,
           base: int, index: dict):
    """One video's P1 as a DP: its moves (state, cell, state') step by step,
    cell = base + 2^R q + bitmask, and its final state, None if none is
    reached. Step s gives interval ``order[s]`` a non-empty region bitmask
    disjoint from its visited neighbours'. State (base, s, ((q, bitmask),
    ...)), numbered by ``index``, holds the visited intervals that still
    have an unvisited neighbour: in start-frame order, all hold the next
    start, so at most R do. Ties keep the first path.
    """
    Q = len(order)
    near = [{w for p in overlaps if q in p for w in p} - {q} for q in range(Q)]
    step = np.argsort(order)              # the step that visits each interval
    last = [max(step[[q, *near[q]]]) for q in range(Q)]   # and last reads it
    states = {(base, 0, ()): index.setdefault((base, 0, ()), len(index))}
    steps = []
    for s, v in enumerate(order):
        moves, reached = [], {}
        for (_, _, held), k in states.items():
            for mask in range(1, 2 ** R):
                if not any(mask & m for u, m in held if u in near[v]):
                    to = base, s + 1, tuple(
                        (u, m) for u, m in (*held, (v, mask)) if last[u] > s)
                    reached[to] = index.setdefault(to, len(index))
                    moves.append((k, base + 2 ** R * v + mask, reached[to]))
        states = reached
        steps.append(moves)
    return steps, states.get((base, Q, ()))


def _p1_means(problems: list[AssignmentProblem],
              assignments: list[np.ndarray], num_actions: int,
              num_regions: int, num_bins: int) -> np.ndarray:
    """Mean selected histogram per (region, action); fall back to the
    action's global mean over all regions when nothing is selected."""
    means = np.zeros((num_regions, num_actions, num_bins))
    global_sum = np.zeros((num_actions, num_bins))
    global_cnt = np.zeros(num_actions)
    sums = np.zeros_like(means)
    cnts = np.zeros((num_regions, num_actions))
    for prob, b in zip(problems, assignments):
        for q, action in enumerate(prob.actions):
            global_sum[action] += prob.histograms[:, q].sum(axis=0)
            global_cnt[action] += num_regions
            for r in range(num_regions):
                if b[r, q]:
                    sums[r, action] += prob.histograms[r, q]
                    cnts[r, action] += 1
    for s in range(num_actions):
        fallback = (global_sum[s] / global_cnt[s]) if global_cnt[s] > 0 \
            else np.zeros(num_bins)
        for r in range(num_regions):
            means[r, s] = sums[r, s] / cnts[r, s] if cnts[r, s] > 0 \
                else fallback
    return means


def _p1_costs(prob: AssignmentProblem, means: np.ndarray) -> np.ndarray:
    """(R, Q) chi-squared distances from each interval's histogram to its
    action's mean in the same region."""
    h = prob.histograms
    m = means[:, prob.actions]
    denom = h + m
    with np.errstate(invalid="ignore", divide="ignore"):
        terms = np.where(denom > 0, (h - m) ** 2 / denom, 0.0)
    return terms.sum(axis=2)


def _p1_objective(assignments, costs, inv_lambda) -> float:
    return sum(float(np.sum(b * (c - inv_lambda)))
               for b, c in zip(assignments, costs))


def solve_p1(problems: list[AssignmentProblem],
             num_actions: int) -> P1Result:
    """Self-paced alternation between assignment means and region labels.

    The first round uses 1/lambda = 0 (minimal assignments); the next
    ``P1_ROUNDS`` rounds start from lambda = 8 / (mean cost) and shrink it
    by ``P1_DECAY``,
    making extra region assignments progressively cheaper. Each half step
    is kept only if it does not increase the round's objective, so the
    per-round objective trace is non-increasing by construction. Every
    b-step solves all videos exactly, their interval DPs side by side.
    """
    if not problems:
        raise ValueError("no assignment problems given")
    R, _, K = problems[0].histograms.shape
    all_ones = [np.ones((R, len(p.intervals)), dtype=bool) for p in problems]
    means = _p1_means(problems, all_ones, num_actions, R, K)
    costs = [_p1_costs(p, means) for p in problems]

    lambda0 = 8.0 / max(np.mean([c.mean() for c in costs]), 1e-9)
    inv_lambdas = [0.0] + [1.0 / (lambda0 * P1_DECAY ** i)
                           for i in range(P1_ROUNDS)]

    program = _IntervalDP(R, [(p.overlaps, p.order) for p in problems])
    infeasible = [f"{p.video_id}: coverage forced an overlap"
                  for p, ok in zip(problems, program.feasible) if not ok]
    for msg in infeasible:
        log.warning("P1 %s", msg)

    # Initial feasible assignment at the most conservative pace.
    assignments = program.solve([c - inv_lambdas[0] for c in costs])
    trace_all: list[list[float]] = []
    for inv_lambda in inv_lambdas:
        trace = []
        obj = _p1_objective(assignments, costs, inv_lambda)
        trace.append(obj)
        for _ in range(P1_MAX_ALTERNATIONS):
            # b-step: exact for every video, kept only on descent
            new_assignments = program.solve([c - inv_lambda for c in costs])
            new_obj = _p1_objective(new_assignments, costs, inv_lambda)
            if new_obj <= obj:
                changed = any(not np.array_equal(a, b) for a, b in
                              zip(assignments, new_assignments))
                assignments = new_assignments
                obj = new_obj
            else:
                changed = False
            trace.append(obj)
            # mu-step: means of the selected histograms, safeguarded
            new_means = _p1_means(problems, assignments, num_actions, R, K)
            new_costs = [_p1_costs(p, new_means) for p in problems]
            new_obj = _p1_objective(assignments, new_costs, inv_lambda)
            if new_obj <= obj:
                if not np.allclose(new_means, means):
                    changed = True
                means, costs = new_means, new_costs
                obj = new_obj
            trace.append(obj)
            if not changed:
                break
        trace_all.append(trace)
    return P1Result(assignments=assignments, objective_trace=trace_all,
                    infeasible=infeasible)


# ---------------------------------------------------------------------------
# Initialization: poselet labels, actionlet dictionary, first completion
# ---------------------------------------------------------------------------

@dataclass
class InitArtifacts:
    """Everything the CCCP loop needs from initialization: the dictionary,
    the first latent completion of every video, and the frame constraints
    its annotations imply: the (T, R, A) bool allowed actionlets per frame
    and region (None for a video without intervals, and for every video
    under video supervision)."""
    dictionary: ActionletDictionary
    completions: list[Labeling]
    constraints: list[np.ndarray | None]
    p1: P1Result | None = None


def initialize(videos: list[TrainingVideo], num_poselets: int,
               num_actions: int, config: TrainConfig) -> InitArtifacts:
    """Build initial poselet labels, region assignments, and actionlets.

    Poselet labels come from per-region k-means over all frames, with the
    most dissimilar 20% (``gc_init``'s fraction) handed to the garbage
    collector when ``use_gc`` is on.
    Interval regions come from annotations when supervision is full,
    otherwise from the self-paced assignment problem. Actionlets are
    discovered from the per-(interval, region) histograms; each annotated
    video's (R, Q) table of them yields its first latent completion and its
    frame constraints. Nothing is written into ``videos``.
    """
    if not videos:
        raise ValueError("empty training set")
    R = videos[0].x.shape[1]
    K = num_poselets

    # Per-region k-means over the stacked dataset, then GC reassignment.
    lengths = [v.num_frames for v in videos]
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    labels_per_region = []
    for r in range(R):
        points = np.concatenate([v.x[:, r, :] for v in videos])
        cents, _ = kmeans(points, K, seed=config.seed + r)
        labels, dists = assign_labels(points, cents)
        if config.use_gc:
            labels = gc_init(labels, dists, K)
        labels_per_region.append(labels)
    z_init = [np.stack([labels_per_region[r][offsets[i]:offsets[i + 1]]
                        for r in range(R)], axis=1)
              for i in range(len(videos))]

    # Interval histograms in every region, from the initial labels.
    problems = []
    for i, video in enumerate(videos):
        if not video.intervals:
            continue
        Q = len(video.intervals)
        hists = np.zeros((R, Q, K))
        for q, iv in enumerate(video.intervals):
            for r in range(R):
                hists[r, q] = interval_histogram(
                    z_init[i][:, r], K, iv.t_start, iv.t_end)
        problems.append(AssignmentProblem(
            video_id=video.video_id, intervals=video.intervals,
            histograms=hists))
    if not problems:
        raise ValueError(
            "initialization needs interval annotations on at least one video")

    p1 = None
    if config.supervision == "full":
        assignments = []
        for prob in problems:
            b = np.zeros((R, len(prob.intervals)), dtype=bool)
            for q, iv in enumerate(prob.intervals):
                if iv.region < 0:
                    raise ValueError(
                        f"{prob.video_id}: full supervision requires "
                        "interval regions")
                b[iv.region, q] = True
            assignments.append(b)
    else:
        p1 = solve_p1(problems, num_actions)
        assignments = p1.assignments

    # Actionlet discovery over the (assigned region, interval) samples,
    # interval by interval.
    cells = [np.nonzero(b.T) for b in assignments]      # (q, r) per video
    dictionary, sample_assignment = build_actionlets(
        np.concatenate([prob.histograms[r, q]
                        for prob, (q, r) in zip(problems, cells)]),
        np.concatenate([prob.actions[q]
                        for prob, (q, _) in zip(problems, cells)]),
        num_actions, seed=config.seed)

    # Each annotated video's actionlet table, the actionlet of each
    # assigned (region, interval) and -1 elsewhere, gives its first
    # completion and its frame constraints.
    cell_of, lo = iter(cells), 0
    completions, constraints = [], []
    for video, z in zip(videos, z_init):
        v, c = np.zeros(z.shape, dtype=int), None
        if video.intervals:
            q, r = next(cell_of)
            table = np.full((R, len(video.intervals)), -1, dtype=int)
            table[r, q] = sample_assignment[lo:lo + q.size]
            lo += q.size
            v = _first_actionlets(video.intervals, table, video.num_frames)
            c = _frame_constraints(video.intervals, table, video.num_frames,
                                   dictionary.u_of_v, config.supervision)
        completions.append(Labeling(z=z, v=v, y=video.y))
        constraints.append(c)
    return InitArtifacts(dictionary=dictionary, completions=completions,
                         constraints=constraints, p1=p1)


def _first_actionlets(intervals: list[ActionInterval], table: np.ndarray,
                      T: int) -> np.ndarray:
    """(T, R) first actionlet labels from a video's actionlet table: a
    frame of an assigned (region, interval) takes its actionlet (a later
    interval wins), a frame an interval covers only in unassigned regions
    takes the interval's actionlet in its first assigned region, and the
    rest take the nearest labeled frame's."""
    R, Q = table.shape
    first = table[np.argmax(table >= 0, axis=0), np.arange(Q)]
    v = np.empty((T, R), dtype=int)
    for r in range(R):
        column = np.full(T, -1, dtype=int)
        for q, iv in enumerate(intervals):
            if table[r, q] >= 0:
                column[iv.t_start:iv.t_end + 1] = table[r, q]
        for q, iv in enumerate(intervals):
            span = column[iv.t_start:iv.t_end + 1]
            span[span == -1] = first[q]
        v[:, r] = _fill_gaps(column)
    return v


def _frame_constraints(intervals: list[ActionInterval], table: np.ndarray,
                       T: int, u_of_v: np.ndarray,
                       supervision: str) -> np.ndarray | None:
    """Allowed actionlets per frame and region, (T, R, A) bool. Full
    supervision pins each assigned (region, interval)'s frames to its
    actionlet in the table. Temporal supervision restricts every region of
    a covered frame to the actionlets of the actions annotated there. Other
    frames are free, and video supervision constrains nothing (None)."""
    if supervision == "video":
        return None
    R = table.shape[0]
    A = u_of_v.shape[0]
    if supervision == "full":
        allowed = np.zeros((T, R, A), dtype=bool)
        fixed = np.zeros((T, R), dtype=bool)
        for r, q in zip(*np.nonzero(table >= 0)):
            span = slice(intervals[q].t_start, intervals[q].t_end + 1)
            allowed[span, r, table[r, q]] = True
            fixed[span, r] = True
        allowed[~fixed] = True
        return allowed
    allowed = np.zeros((T, A), dtype=bool)
    covered = np.zeros(T, dtype=bool)
    for iv in intervals:
        allowed[iv.t_start:iv.t_end + 1] |= (u_of_v == iv.action_id)[None, :]
        covered[iv.t_start:iv.t_end + 1] = True
    allowed[~covered] = True
    return np.repeat(allowed[:, None, :], R, axis=1)


def _fill_gaps(column: np.ndarray) -> np.ndarray:
    """Fill -1 entries with the temporally nearest assigned value (earlier
    frame wins ties); all -1 falls back to 0."""
    filled = column.copy()
    known = np.flatnonzero(filled >= 0)
    if known.size == 0:
        return np.zeros_like(filled)
    missing = np.flatnonzero(filled < 0)
    for t in missing:
        pos = np.searchsorted(known, t)
        left = known[pos - 1] if pos > 0 else None
        right = known[pos] if pos < known.size else None
        if left is None:
            filled[t] = filled[right]
        elif right is None or t - left <= right - t:
            filled[t] = filled[left]
        else:
            filled[t] = filled[right]
    return filled


# ---------------------------------------------------------------------------
# Loss specs, imputation
# ---------------------------------------------------------------------------

def build_loss_spec(video: TrainingVideo,
                    constraints: np.ndarray | None) -> LossSpec:
    """Truth for margin rescaling; the per-frame term lives in
    ``LOSS_REGION``."""
    if constraints is None:
        return LossSpec(y=video.y)
    return LossSpec(y=video.y, allowed_v=constraints[:, LOSS_REGION, :])


def impute_latents(videos: list[TrainingVideo], params: ModelParams,
                   constraints: list[np.ndarray | None],
                   beam: int | None = None) -> list[Labeling]:
    """Best constrained labeling per video at its true complex action."""
    return complete_latent([video.x for video in videos], params,
                           [video.y for video in videos], constraints, beam)


# ---------------------------------------------------------------------------
# 1-slack cutting plane with an SMO-style dual solver
# ---------------------------------------------------------------------------

def _face_optimum(G: np.ndarray, d: np.ndarray, free: np.ndarray,
                  C: float) -> np.ndarray:
    """Unconstrained maximizer of d.a - a'Ga/2 on the given face, capped by
    the simplex constraint via its multiplier when it binds."""
    idx = np.flatnonzero(free)
    Gff = G[np.ix_(idx, idx)] + 1e-10 * np.eye(idx.size)
    try:
        sol = np.linalg.solve(Gff, d[idx])
    except np.linalg.LinAlgError:
        sol = np.linalg.lstsq(Gff, d[idx], rcond=None)[0]
    if sol.sum() > C:
        ones = np.ones(idx.size)
        inv_ones = np.linalg.solve(Gff, ones)
        mu = (sol.sum() - C) / max(inv_ones.sum(), 1e-30)
        sol = sol - mu * inv_ones
    target = np.zeros(free.shape[0])
    target[idx] = sol
    return target


# Active-set steps of one dual QP solve, at most, and its optimality
# tolerance relative to the largest margin
QP_MAX_STEPS = 200
QP_TOL = 1e-10
# The working set is pruned of zero-weight constraints once it holds more
# than WORKING_SET_CAP; the WORKING_SET_KEEP_RECENT newest always stay
WORKING_SET_CAP = 50
WORKING_SET_KEEP_RECENT = 10


class _WorkingSet:
    """Aggregated margin constraints <W, g_j> >= d_j - xi, stacked as the
    rows of ``G``, plus the dual active-set solver. Slack mass
    ``C - sum(alpha)`` corresponds to the primal constraint xi >= 0."""

    def __init__(self, C: float):
        self.C = C
        self.G = np.zeros((0, 0))          # constraint vectors g_j as rows
        self.deltas = np.zeros(0)
        self.alpha = np.zeros(0)
        self.gram = np.zeros((0, 0))

    def add(self, g: np.ndarray, delta: float) -> None:
        n = len(self.deltas)
        dots = self.G @ g if n else np.zeros(0)
        gram = np.zeros((n + 1, n + 1))
        gram[:n, :n] = self.gram
        gram[n, :n] = dots
        gram[:n, n] = dots
        gram[n, n] = float(g @ g)
        self.G = np.vstack([self.G, g]) if n else g[None, :].copy()
        self.deltas = np.append(self.deltas, float(delta))
        self.gram = gram
        self.alpha = np.append(self.alpha, 0.0)

    def dual_objective(self) -> float:
        return float(self.deltas @ self.alpha
                     - 0.5 * self.alpha @ self.gram @ self.alpha)

    def solve(self) -> float:
        """Primal active-set solve of max d.a - a'Ga/2, a >= 0, sum a <= C.

        Solved to optimality, so the dual objective is non-decreasing across
        calls: each call's feasible set contains the previous solution.
        """
        n = len(self.deltas)
        if n == 0:
            return 0.0
        d = self.deltas
        G = self.gram
        a = self.alpha.copy()
        limit = QP_TOL * max(1.0, float(np.abs(d).max()))
        free = a > 0
        if not free.any():
            free[int(np.argmax(d))] = True
        for _ in range(QP_MAX_STEPS):
            target = _face_optimum(G, d, free, self.C)
            if np.all(target[free] >= -limit):
                a = np.clip(target, 0.0, None)
                # KKT check on the held-out coordinates
                grad = d - G @ a
                simplex_tight = a.sum() >= self.C * (1 - 1e-12)
                mu = max(0.0, float(grad[free].max())) if simplex_tight \
                    else 0.0
                held = ~free
                if not held.any():
                    break
                slackness = np.where(held, grad - mu, -np.inf)
                pick = int(np.argmax(slackness))
                if slackness[pick] <= limit:
                    break
                free[pick] = True
                continue
            # Walk toward the face optimum until a coordinate hits zero.
            direction = target - a
            blocking = (direction < 0) & free
            with np.errstate(divide="ignore", invalid="ignore"):
                steps = np.where(blocking, -a / direction, np.inf)
            j = int(np.argmin(steps))
            a = a + min(1.0, steps[j]) * direction
            a = np.clip(a, 0.0, None)
            if steps[j] <= 1.0:
                free[j] = False
                a[j] = 0.0
        self.alpha = a
        self._prune()
        return self.dual_objective()

    def _prune(self) -> None:
        """Drop inactive constraints once the set grows past
        ``WORKING_SET_CAP``.

        At a dual optimum a zero-weight constraint is satisfied within the
        current slack, so removing it leaves the solution unchanged; it can
        always re-enter later as a new most-violated constraint.
        """
        n = len(self.deltas)
        if n <= WORKING_SET_CAP:
            return
        idx = np.flatnonzero((self.alpha > 0)
                             | (np.arange(n) >= n - WORKING_SET_KEEP_RECENT))
        self.G = self.G[idx]
        self.deltas = self.deltas[idx]
        self.alpha = self.alpha[idx]
        self.gram = self.gram[np.ix_(idx, idx)]

    def weights(self) -> np.ndarray:
        return self.G.T @ self.alpha

    def slack(self, W: np.ndarray) -> float:
        if not len(self.deltas):
            return 0.0
        return max(0.0, float(np.max(self.deltas - self.G @ W)))


# Past most-violating labelings the separation oracle keeps per video
CACHE_SIZE = 50


class ViolatorCache:
    """The cutting plane's separation oracle: a bounded per-video cache of
    past most-violating labelings in front of exact loss-augmented
    inference, the cached oracle of Joachims, Finley & Yu ("Cutting-plane
    training of structural SVMs", MLJ 2009).

    A labeling is kept as its feature vector psi and its loss. Neither
    depends on W or on the latent completions, so one cache serves every
    CCCP round. A video holds at most ``CACHE_SIZE`` labelings; a new one
    replaces the labeling that was least recently the video's best. The
    scores of the last exact pass are kept with its W, so exact inference
    never runs twice at one W.
    """

    def __init__(self, videos: list[TrainingVideo],
                 loss_specs: list[LossSpec], template: ModelParams,
                 config: TrainConfig):
        self.xs = [video.x for video in videos]
        self.loss_specs = loss_specs
        self.template = template
        self.config = config
        M = len(videos)
        # slots past a video's count are zero rows that are never paged in
        self.psis = np.zeros((M, CACHE_SIZE, template.dims.total))
        self.losses = np.full((M, CACHE_SIZE), -np.inf)
        self.count = np.zeros(M, dtype=int)
        self.last_best = np.zeros((M, CACHE_SIZE))   # clock of last win
        self.clock = 0
        self.pass_W: np.ndarray | None = None
        self.pass_scores: np.ndarray | None = None

    def holds_pass_at(self, W: np.ndarray) -> bool:
        return self.pass_W is not None and np.array_equal(W, self.pass_W)

    def exact(self, W: np.ndarray) -> np.ndarray:
        """Per video the maximum of energy plus loss at W. Runs one exact
        pass unless the last pass was at this W; its violators enter the
        cache."""
        if self.holds_pass_at(W):
            return self.pass_scores
        cfg = self.config
        results = loss_augmented_infer_many(
            self.xs, self.template.with_flat(W), self.loss_specs,
            cfg.lambda_y, cfg.lambda_v, beam=cfg.beam)
        self.clock += 1
        for i, (x, spec, res) in enumerate(zip(self.xs, self.loss_specs,
                                               results)):
            self._insert(i, feature_map(x, res.labeling, self.template),
                         loss_value(res.labeling, spec, cfg.lambda_y,
                                    cfg.lambda_v))
        self.pass_W = np.array(W, dtype=float)
        self.pass_scores = np.array([res.score for res in results])
        return self.pass_scores

    def _insert(self, i: int, psi: np.ndarray, loss: float) -> None:
        n = self.count[i]
        same = np.flatnonzero((self.losses[i, :n] == loss)
                              & (self.psis[i, :n] == psi).all(axis=1))
        if same.size:
            j = same[0]
        elif n < CACHE_SIZE:
            j = n
            self.count[i] += 1
        else:
            j = int(np.argmin(self.last_best[i]))
        self.psis[i, j] = psi
        self.losses[i, j] = loss
        self.last_best[i, j] = self.clock

    def constraint(self, W: np.ndarray, truth_psi: np.ndarray
                   ) -> tuple[np.ndarray, float]:
        """Aggregated constraint (g, delta) from each video's cached
        labeling of highest loss + <W, psi>: g is ``truth_psi`` (the mean
        completion psi) minus their mean psi, delta their mean loss."""
        n = self.count.max()
        pick = np.argmax(self.losses[:, :n] + self.psis[:, :n] @ W, axis=1)
        rows = np.arange(pick.size)
        self.clock += 1
        self.last_best[rows, pick] = self.clock
        return (truth_psi - self.psis[rows, pick].mean(axis=0),
                float(self.losses[rows, pick].mean()))


@dataclass
class CuttingPlaneInfo:
    converged: bool
    iterations: int           # QP steps, one per constraint added
    oracle_passes: int        # exact loss-augmented passes run
    cached_steps: int         # QP steps whose constraint came from the cache
    violation: float
    xi: float
    eps: float
    dual_trace: list[float]
    violation_trace: list[float]


def cutting_plane(videos: list[TrainingVideo], truth_psis: list[np.ndarray],
                  loss_specs: list[LossSpec], template: ModelParams,
                  config: TrainConfig,
                  warm: np.ndarray | None = None,
                  cache: ViolatorCache | None = None
                  ) -> tuple[np.ndarray, CuttingPlaneInfo]:
    """Solve the regularized risk for fixed latent completions.

    Each step adds one aggregated constraint: the mean feature gap between
    the completions and a most-violating labeling per video, with the mean
    loss as margin. The constraint comes from the violator cache first:
    per video, the cached labeling of highest loss + <W, psi>. Exact
    loss-augmented inference runs only when that constraint is violated by
    no more than the current slack plus ``eps_qp``, or when the last cached
    step did not raise the dual. The exact pass's violation is never below
    the cached one, so termination is decided by an exact pass at the
    returned W, whose scores ``cache`` keeps. ``max_cutting_plane_iters``
    caps the exact passes; the first step of a solve uses the pass the
    cache holds at ``warm``, if any. Pass ``cache`` to share violators and
    passes across solves.
    """
    if cache is None:
        cache = ViolatorCache(videos, loss_specs, template, config)
    ws = _WorkingSet(config.C)
    W = np.zeros(template.dims.total) if warm is None \
        else np.asarray(warm, dtype=float).copy()
    truth_psi = np.mean(truth_psis, axis=0)
    eps = config.eps_qp
    dual_trace: list[float] = []
    violation_trace: list[float] = []
    converged = False
    violation = 0.0
    passes = cached_steps = 0
    while True:
        xi = ws.slack(W)
        cached = False
        rising = len(dual_trace) < 2 or dual_trace[-1] > dual_trace[-2]
        if dual_trace and rising:
            g, delta = cache.constraint(W, truth_psi)
            violation = delta - float(W @ g)
            cached = violation > xi + eps
        if not cached:
            if not cache.holds_pass_at(W):
                if passes == config.max_cutting_plane_iters:
                    log.warning("cutting plane hit its cap of %d exact "
                                "passes; returning the current iterate",
                                passes)
                    break
                passes += 1
            elif dual_trace:
                log.warning("dual QP made no progress; returning the "
                            "current iterate")
                break
            cache.exact(W)
            g, delta = cache.constraint(W, truth_psi)
            violation = delta - float(W @ g)
            if eps is None:
                eps = max(1e-3 * delta, 1e-8)
        violation_trace.append(violation)
        if not cached and violation <= xi + eps:
            converged = True
            break
        cached_steps += cached
        ws.add(g, delta)
        dual_trace.append(ws.solve())
        W = ws.weights()
    info = CuttingPlaneInfo(converged=converged,
                            iterations=len(dual_trace),
                            oracle_passes=passes,
                            cached_steps=cached_steps,
                            violation=violation,
                            xi=ws.slack(W),
                            eps=float(eps if eps is not None else 0.0),
                            dual_trace=dual_trace,
                            violation_trace=violation_trace)
    return W, info


# ---------------------------------------------------------------------------
# CCCP outer loop
# ---------------------------------------------------------------------------

@dataclass
class TrainResult:
    params: ModelParams
    objective_trace: list[float]
    objective_times: list[float]      # perf_counter when each was computed
    cp_infos: list[CuttingPlaneInfo]
    stopped_reason: str = ""


def primal_objective(videos: list[TrainingVideo], W: np.ndarray,
                     template: ModelParams, completions: list[Labeling],
                     scores: np.ndarray, config: TrainConfig) -> float:
    """Regularized risk at fixed completions: 0.5|W|^2 + (C/M) sum xi_i,
    where ``scores[i]`` is video i's loss-augmented maximum at W."""
    params = template.with_flat(W)
    total = 0.0
    for video, comp, score in zip(videos, completions, scores):
        total += max(0.0, score - energy_total(video.x, comp, params))
    return 0.5 * float(W @ W) + config.C * total / len(videos)


def train(videos: list[TrainingVideo], dims: ModelDims, config: TrainConfig,
          init: InitArtifacts) -> TrainResult:
    """Alternate latent completion and the convex solve until the
    regularized risk stops decreasing.

    With exact inference each recorded objective value is no larger than the
    previous one: the convex step is safeguarded (a worse iterate is
    discarded) and re-completion can only raise completion energies.
    """
    template = ModelParams.zeros(dims, dictionary=init.dictionary,
                                 use_gc=config.use_gc)
    loss_specs = [build_loss_spec(v, c)
                  for v, c in zip(videos, init.constraints)]
    completions = list(init.completions)
    truth_psis = [feature_map(v.x, comp, template)
                  for v, comp in zip(videos, completions)]

    cache = ViolatorCache(videos, loss_specs, template, config)
    W = np.zeros(dims.total)
    trace = [primal_objective(videos, W, template, completions,
                              cache.exact(W), config)]
    times = [time.perf_counter()]
    cp_infos: list[CuttingPlaneInfo] = []
    best_W, best_obj = W.copy(), trace[0]
    reason = "max_cccp_iters"
    for outer in range(config.max_cccp_iters):
        W_new, info = cutting_plane(videos, truth_psis, loss_specs, template,
                                    config, warm=W, cache=cache)
        cp_infos.append(info)
        obj_new = primal_objective(videos, W_new, template, completions,
                                   cache.exact(W_new), config)
        if obj_new > trace[-1]:
            # The approximate convex solve failed to improve; keep the
            # previous iterate and stop (only possible via approximation).
            log.warning("objective rose (%.6g -> %.6g); keeping previous "
                        "model", trace[-1], obj_new)
            reason = "non_decreasing_step"
            break
        W = W_new
        trace.append(obj_new)
        times.append(time.perf_counter())
        if obj_new < best_obj:
            best_W, best_obj = W.copy(), obj_new
        if trace[-2] - trace[-1] < CCCP_TOL * max(1.0, abs(trace[-2])):
            reason = "converged"
            break
        if outer == config.max_cccp_iters - 1:
            break                   # no next step reads a new completion
        params = template.with_flat(W)
        completions = impute_latents(videos, params, init.constraints,
                                     beam=config.beam)
        truth_psis = [feature_map(v.x, comp, template)
                      for v, comp in zip(videos, completions)]
    params = template.with_flat(best_W)
    return TrainResult(params=params, objective_trace=trace,
                       objective_times=times, cp_infos=cp_infos,
                       stopped_reason=reason)
