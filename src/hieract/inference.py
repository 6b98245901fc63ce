"""Energy maximization over labelings: one batched DP core and an oracle.

``maximize`` solves every maximization the model needs. A query is a video
with its complex action fixed or free, optional frame constraints and an
optional loss-augmenting truth. Per region and candidate complex action the
maximization is a Viterbi pass over joint (poselet, actionlet) states; the
(query, candidate y) rows of one length share a single batched pass, and a
free complex action is picked by exhaustive enumeration. Its one-call
wrappers are ``infer`` (labeling a test video), ``loss_augmented_infer_many``
(the most-violating labelings for the cutting plane) and ``complete_latent``
(latent completion at the true complex action). ``brute_force`` enumerates
every labeling and is the independent oracle for all of them.

State (k, a) maps to index k*A + a, and every argmax breaks ties toward
the lowest index, so results are deterministic: among equal-scoring label
sequences the one minimizing (state_T, state_{T-1}, ..., state_1)
lexicographically is returned, and the brute-force enumerator reproduces the
same choice.

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


@dataclass
class FrameConstraints:
    """Allowed label sets per frame and region; ``None`` means unrestricted.

    ``allowed_v`` is (T, R, A) bool, ``allowed_z`` is (T, R, K+1) bool.
    """
    allowed_v: np.ndarray | None = None
    allowed_z: np.ndarray | None = None


@dataclass
class LossSpec:
    """Ground truth for margin rescaling: the true complex action and, for
    the designated loss region, the allowed actionlet set per frame.

    A frame counts as violating when the labeling's actionlet in the loss
    region falls outside ``allowed_v`` for that frame. ``allowed_v`` of None
    disables the per-frame term (video-level supervision).
    """
    y: int
    allowed_v: np.ndarray | None = None   # (T, A) bool
    region: int = 0


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
        chosen = labeling.v[:, spec.region]
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
    if constraints is not None:
        mask = np.ones((T, KK, d.A), dtype=bool)
        if constraints.allowed_z is not None:
            mask &= constraints.allowed_z[:, r, :KK, None]
        if constraints.allowed_v is not None:
            mask &= constraints.allowed_v[:, r, None, :]
        mask = mask.reshape(T, KK * d.A)
        if not mask.any(axis=1).all():
            bad = int(np.flatnonzero(~mask.any(axis=1))[0])
            raise InfeasibleError(
                f"no allowed (poselet, actionlet) state at frame {bad}, "
                f"region {r}")
        unary = np.where(mask, unary, NEG_INF)
    return unary


def _alpha_term(params: ModelParams, r: int, y: int) -> np.ndarray:
    """Per-state complex-action scores, tiled over poselets: (N,)."""
    per_actionlet = params.alpha[r][y, params.u_of_v()]
    return np.tile(per_actionlet, params.num_poselet_states)


def _region_unary(x: np.ndarray, y: int, params: ModelParams, r: int,
                  constraints: FrameConstraints | None,
                  loss_addends: np.ndarray | None) -> np.ndarray:
    """(T, N) scores of the non-sequential terms; -inf for disallowed states."""
    base = _region_unary_base(x, params, r, constraints, loss_addends)
    return base + _alpha_term(params, r, y)[None, :]


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
                add[q.loss.region] = \
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


def _enumerate_best(unary: np.ndarray, eta: np.ndarray, gamma: np.ndarray
                    ) -> tuple[np.ndarray, float]:
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


def brute_force(x: np.ndarray, params: ModelParams,
                constraints: FrameConstraints | None = None,
                loss_spec: LossSpec | None = None,
                lambda_y: float = 0.0, lambda_v: float = 0.0,
                guard: float = 1e7) -> InferenceResult:
    """Exact global maximum by enumeration; testing oracle for the DP.

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
    best = None
    for y in range(d.Y):
        const = lambda_y * float(loss_spec is not None and y != loss_spec.y)
        total = const
        zs, vs = [], []
        for r in range(d.R):
            region_addends = addends if (loss_spec is not None
                                         and r == loss_spec.region) else None
            unary = _region_unary(x, y, params, r, constraints, region_addends)
            eta, gamma = _transition_tables(params, r)
            states, score = _enumerate_best(unary, eta, gamma)
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
