"""Energy maximization over labelings: one batched DP core and an oracle.

``maximize`` solves every maximization the model needs. A query is a video
with its complex action fixed or free, optional frame constraints and an
optional loss-augmenting truth. Per region and candidate complex action the
maximization is a Viterbi pass over joint (poselet, actionlet) states; the
(query, candidate y) rows of one length share a single batched pass, and a
free complex action is picked by exhaustive enumeration. Its one-call
wrappers are ``infer`` (labeling a test video), ``loss_augmented_infer_many``
(the most-violating labelings for the cutting plane) and ``complete_latent``
(latent completion at the true complex action).

State (k, a) maps to index k*A + a, and every argmax breaks ties toward
the lowest index, so results are deterministic: among equal-scoring label
sequences the one minimizing (state_T, state_{T-1}, ..., state_1)
lexicographically is returned.

An optional beam keeps only the B best states per frame ranked by the
non-sequential part of the score before running the sequential pass.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import Labeling, ModelParams, energy_total

NEG_INF = -np.inf


class InfeasibleError(RuntimeError):
    """Constraints left some frame with no allowed state."""


# The region whose actionlets carry the per-frame margin-rescaling loss
LOSS_REGION = 0


@dataclass
class FrameConstraints:
    """Allowed actionlets per frame and region, (T, R, A) bool; ``None``
    means unrestricted."""
    allowed_v: np.ndarray | None = None


@dataclass
class LossSpec:
    """Ground truth for margin rescaling: the true complex action and, for
    ``LOSS_REGION``, the allowed actionlet set per frame.

    A frame counts as violating when the labeling's actionlet in the loss
    region falls outside ``allowed_v`` for that frame. ``allowed_v`` of None
    disables the per-frame term (video-level supervision).
    """
    y: int
    allowed_v: np.ndarray | None = None   # (T, A) bool


@dataclass
class InferenceResult:
    labeling: Labeling
    energy: float             # energy_total of the labeling
    score: float              # maximized objective (energy + loss addends)
    margins: np.ndarray       # (T, R) unary gap between best and runner-up

    @property
    def y(self) -> int:
        return self.labeling.y


def loss_value(labeling: Labeling, spec: LossSpec, lambda_y: float,
               lambda_v: float) -> float:
    """Evaluate the margin-rescaling loss of a labeling against truth."""
    delta = lambda_y * float(labeling.y != spec.y)
    if spec.allowed_v is not None and lambda_v != 0.0:
        T = labeling.num_frames
        chosen = labeling.v[:, LOSS_REGION]
        hit = spec.allowed_v[np.arange(T), chosen]
        delta += lambda_v * float(np.sum(~hit)) / T
    return delta


def _region_unary_base(x: np.ndarray, params: ModelParams, r: int,
                       constraints: FrameConstraints | None,
                       loss_addends: np.ndarray | None) -> np.ndarray:
    """(T, N) non-sequential scores without the complex-action term;
    -inf for disallowed states."""
    d = params.dims
    KK = params.num_poselet_states
    T = x.shape[0]
    pose = np.empty((T, KK))
    pose[:, :d.K] = x[:, r, :] @ params.w[r].T
    if params.use_gc:
        pose[:, d.K] = params.theta[r]
    unary = pose[:, :, None] + params.beta[r][:, :KK].T[None, :, :]
    if loss_addends is not None:
        unary = unary + loss_addends[:, None, :]
    unary = unary.reshape(T, KK * d.A)
    if constraints is not None and constraints.allowed_v is not None:
        allowed = constraints.allowed_v[:, r, :]
        empty = ~allowed.any(axis=1)
        if empty.any():
            raise InfeasibleError(
                f"no allowed actionlet at frame {int(np.argmax(empty))}, "
                f"region {r}")
        unary = np.where(np.tile(allowed, KK), unary, NEG_INF)
    return unary


def _alpha_term(params: ModelParams, r: int, y: int) -> np.ndarray:
    """Per-state complex-action scores, tiled over poselets: (N,)."""
    per_actionlet = params.alpha[r][y, params.u_of_v()]
    return np.tile(per_actionlet, params.num_poselet_states)


def _transition_tables(params: ModelParams,
                       r: int) -> tuple[np.ndarray, np.ndarray]:
    """Poselet and actionlet transition tables for one region; the joint
    table over states (k, a) is their sum but is never materialized."""
    KK = params.num_poselet_states
    return params.eta[r][:KK, :KK], params.gamma[r]


def _apply_beam(unary: np.ndarray, beam: int) -> np.ndarray:
    """Keep the ``beam`` best states per frame by unary score, rest -inf;
    ``unary`` is a (B, T, N) stack."""
    if beam >= unary.shape[-1]:
        return unary
    keep = np.argsort(-unary, axis=-1, kind="stable")[..., :beam]
    out = np.full_like(unary, NEG_INF)
    np.put_along_axis(out, keep, np.take_along_axis(unary, keep, axis=-1),
                      axis=-1)
    return out


# Byte budget of one row chunk's poselet-transition table (B_c, A, K', K'),
# the largest per-frame temporary of the Viterbi pass: about an L2 cache, so
# the frame loop works in cache instead of streaming tens of megabytes.
VITERBI_CHUNK_BYTES = 2 << 20


def _viterbi_batch(unary: np.ndarray, eta: np.ndarray,
                   gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Viterbi over a (B, T, N) stack of unary tables for the joint states
    (k, a), n = k*A + a. Returns (states (B, T), scores (B,)).

    The transition maximization factors through the two labels: first the
    best predecessor actionlet for every (k', a), then the best predecessor
    poselet for every (k, a). This costs K*A*(K+A) per frame instead of
    (K*A)^2 and realizes the same tie-break as a full argmax over n' (the
    outer stage picks the smallest k', the inner stage the smallest a'
    within it).

    Both argmaxes reduce over the contiguous last axis: the tables are
    ``over_a[b, k', a, a'] = score[b, k', a'] + gamma[a', a]`` and
    ``over_k[b, a, k, k'] = sa[b, k', a] + eta[k', k]``, allocated once per
    chunk and refilled in place each frame, and the winning entries are
    read back by flat index. Rows are independent, so the stack runs in row
    chunks whose ``over_k`` fits ``VITERBI_CHUNK_BYTES`` (at least one row);
    every chunk gives the states and scores it would give in one pass.
    """
    B = unary.shape[0]
    KK, A = eta.shape[0], gamma.shape[0]
    step = max(1, VITERBI_CHUNK_BYTES // (A * KK * KK * 8))
    eta_t, gamma_t = eta.T.copy(), gamma.T.copy()
    parts = [_viterbi_rows(unary[i:i + step], eta_t, gamma_t)
             for i in range(0, B, step)]
    states, scores = zip(*parts)
    scores = np.concatenate(scores)
    if np.any(scores == NEG_INF):
        raise InfeasibleError("beam or constraints removed every path")
    return np.concatenate(states), scores


def _viterbi_rows(unary: np.ndarray, eta_t: np.ndarray,
                  gamma_t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One chunk of ``_viterbi_batch``, given the transposed transition
    tables ``eta_t[k, k'] = eta[k', k]`` and ``gamma_t[a, a'] = gamma[a', a]``."""
    B, T, N = unary.shape
    KK, A = eta_t.shape[0], gamma_t.shape[0]
    unary = unary.reshape(B, T, KK, A)
    a_back = np.zeros((B, T, KK, A), dtype=np.int32)
    k_back = np.zeros((B, T, A, KK), dtype=np.int32)
    over_a = np.empty((B, KK, A, A))
    over_k = np.empty((B, A, KK, KK))
    flat_a, flat_k = over_a.reshape(-1), over_k.reshape(-1)
    base_a = np.arange(B * KK * A) * A
    base_k = np.arange(B * A * KK) * KK
    score = unary[:, 0].copy()                # (B, K', A)
    for t in range(1, T):
        # best predecessor actionlet a' for each (k', a)
        np.add(score[:, :, None, :], gamma_t, out=over_a)
        a_bp = over_a.argmax(axis=3)          # (B, K', A); smallest a'
        sa = flat_a[base_a + a_bp.ravel()].reshape(B, KK, A)
        # best predecessor poselet k' for each (k, a)
        np.add(sa.transpose(0, 2, 1)[:, :, None, :], eta_t, out=over_k)
        k_bp = over_k.argmax(axis=3)          # (B, A, K); smallest k'
        best = flat_k[base_k + k_bp.ravel()].reshape(B, A, KK)
        np.add(unary[:, t], best.transpose(0, 2, 1), out=score)
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


def _unary_margins(unary: np.ndarray) -> np.ndarray:
    """Gap between the best and second-best unary score of each frame of a
    (T, N) table; 0 where a frame has fewer than two finite scores."""
    if unary.shape[1] < 2:
        return np.zeros(unary.shape[0])
    top2 = np.partition(unary, -2, axis=1)[:, -2:]
    with np.errstate(invalid="ignore"):
        gap = top2[:, 1] - top2[:, 0]
    return np.where(np.isfinite(unary).sum(axis=1) >= 2, gap, 0.0)


@dataclass
class Query:
    """One maximization: a (T, R, D) video, its complex action (None
    maximizes over every y), optional frame constraints and an optional
    truth whose margin-rescaling loss is added to the energy."""
    x: np.ndarray
    y: int | None = None
    constraints: FrameConstraints | None = None
    loss: LossSpec | None = None


def maximize(queries: list[Query], params: ModelParams,
             lambda_y: float = 0.0, lambda_v: float = 0.0,
             beam: int | None = None) -> list[InferenceResult]:
    """Best labeling per query, with the per-frame unary margins of the
    chosen complex action; ties go to the smallest y.

    With a loss the objective is energy plus the margin-rescaling loss of
    ``loss_value``. The loss decomposes into a constant per candidate y plus
    per-frame addends in the designated loss region, so each region still
    solves an independent DP and ``result.score`` equals ``result.energy``
    plus the loss of the returned labeling. Queries of equal length share
    one Viterbi pass per region over all their candidate rows; the rows are
    independent, so every result equals that of its query run alone, bit
    for bit. ``beam`` of None (or >= the state count) runs the exact pass;
    otherwise only the ``beam`` best states per frame by unary score
    survive, which can only lower the attained score. A query whose
    constraints or beam leave no path raises InfeasibleError for the batch.
    """
    if beam is not None and beam < 1:
        raise ValueError("beam must be >= 1")
    d = params.dims
    xs = [np.asarray(q.x, dtype=float) for q in queries]
    alphas = [np.stack([_alpha_term(params, r, y) for y in range(d.Y)])
              for r in range(d.R)]
    results: list[InferenceResult | None] = [None] * len(queries)
    by_len: dict[int, list[int]] = {}
    for i, x in enumerate(xs):
        by_len.setdefault(x.shape[0], []).append(i)
    for T, idxs in sorted(by_len.items()):
        cands, totals, addends = [], [], []
        for i in idxs:
            q = queries[i]
            # candidate complex actions of the query's rows
            cand = slice(0, d.Y) if q.y is None else slice(q.y, q.y + 1)
            cands.append(cand)
            row_y = np.arange(d.Y)[cand]
            totals.append(np.zeros(row_y.size) if q.loss is None
                          else np.where(row_y == q.loss.y, 0.0, lambda_y))
            add = [None] * d.R
            if q.loss is not None and q.loss.allowed_v is not None \
                    and lambda_v != 0.0:
                add[LOSS_REGION] = \
                    (lambda_v / T) * (~q.loss.allowed_v).astype(float)
            addends.append(add)
        totals = np.concatenate(totals)
        starts = np.cumsum([0] + [c.stop - c.start for c in cands])
        states, bases = [], []
        for r in range(d.R):
            bases.append([_region_unary_base(xs[i], params, r,
                                             queries[i].constraints, add[r])
                          for i, add in zip(idxs, addends)])
            stack = np.concatenate([base[None, :, :] + alphas[r][c, None, :]
                                    for base, c in zip(bases[r], cands)])
            if beam is not None:
                stack = _apply_beam(stack, beam)
            eta, gamma = _transition_tables(params, r)
            region_states, scores = _viterbi_batch(stack, eta, gamma)
            totals += scores
            states.append(region_states)
        for j, i in enumerate(idxs):
            best = int(np.argmax(totals[starts[j]:starts[j + 1]]))
            row, y = starts[j] + best, cands[j].start + best
            joint = np.stack([states[r][row] for r in range(d.R)], axis=1)
            labeling = Labeling(z=joint // d.A, v=joint % d.A, y=y)
            margins = np.stack([_unary_margins(bases[r][j] + alphas[r][y])
                                for r in range(d.R)], axis=1)
            results[i] = InferenceResult(
                labeling=labeling, energy=energy_total(xs[i], labeling, params),
                score=float(totals[row]), margins=margins)
    return results


def infer(x: np.ndarray, params: ModelParams,
          constraints: FrameConstraints | None = None,
          beam: int | None = None) -> InferenceResult:
    """Maximize the energy over (y, v, z); ties go to the smallest y."""
    return maximize([Query(x, constraints=constraints)], params,
                    beam=beam)[0]


def loss_augmented_infer_many(xs: list[np.ndarray], params: ModelParams,
                              specs: list[LossSpec], lambda_y: float,
                              lambda_v: float,
                              beam: int | None = None
                              ) -> list[InferenceResult]:
    """Most-violating labeling per video: energy plus margin-rescaling loss
    against the given truth, maximized in batched Viterbi passes."""
    return maximize([Query(x, loss=spec) for x, spec in zip(xs, specs)],
                    params, lambda_y, lambda_v, beam)


def complete_latent(x: np.ndarray, params: ModelParams, y: int,
                    constraints: FrameConstraints | None = None,
                    beam: int | None = None) -> Labeling:
    """Best labeling at a fixed complex action, under constraints."""
    return maximize([Query(x, y=y, constraints=constraints)], params,
                    beam=beam)[0].labeling
