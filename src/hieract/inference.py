"""Energy maximization over labelings: one batched DP core and an oracle.

``maximize`` solves every maximization the model needs. A query is a video
with its complex action fixed or free, optional frame constraints (the
(T, R, A) bool allowed actionlets per frame and region) and an optional
loss-augmenting truth. Per region and candidate complex action the
maximization is a Viterbi pass over joint (poselet, actionlet) states. The
(query, region, candidate y) rows of all queries run longest query first
in chunks of whole queries, one batched forward pass per chunk, each row
under its region's transition tables and over its own video's frames: a
frame step runs over the rows still that long. The tables and
complex-action scores are read from the model's (R, ...) weight views. A
chunk's unary rows are built just before it runs, so memory does not grow
with the number of queries.
A free complex action without a loss is picked by branch and bound over y:
a rounding-safe upper bound per candidate, from a Viterbi over actionlets
alone, rules out every y that cannot reach the best total found, and the
rest are solved exactly.
Its one-call wrappers are ``infer`` (labeling a test video, with its energy
and unary margins), ``loss_augmented_infer_many`` (the most-violating
labelings for the cutting plane) and ``complete_latent`` (latent completion
at the true complex action).

State (k, a) maps to index k*A + a, and every argmax breaks ties toward
the lowest index, so results are deterministic: among equal-scoring label
sequences the one minimizing (state_T, state_{T-1}, ..., state_1)
lexicographically is returned.

The Viterbi forward pass and its backtrack are separate. The forward pass
keeps only maximum scores, a score history of the bytes two backpointer
tables would take, and each row's best last state and score; the backtrack
recomputes the two argmaxes at the cells on the path. A chunk holds whole
queries, so when its forward pass ends each of its queries knows its
winning y, and only that y's rows are backtracked: their histories are
stacked across chunks up to ``VITERBI_CHUNK_BYTES`` and each stack is
backtracked in one pass. A query with more rows than a chunk holds (every
paper-scale query) runs alone in row chunks, and each of its rows is
backtracked in place.

The forward pass's poselet step, most of a frame's work at paper sizes,
scores only the ``POSELET_CANDIDATES`` best predecessor poselets of each
(row, actionlet) and certifies each cell with a rounding-safe bound: a
cell the bound does not settle (a near tie, a ``-inf`` mask) takes the
full maximum, so every state and score equals the dense pass's bit for
bit.

An optional beam keeps only the B best states per frame ranked by the
non-sequential part of the score before running the sequential pass.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .energy import Labeling, ModelParams, energy_total

NEG_INF = -np.inf


class InfeasibleError(RuntimeError):
    """Constraints left some frame with no allowed state."""


# The region whose actionlets carry the per-frame margin-rescaling loss
LOSS_REGION = 0


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
class Maximum:
    """A best labeling and its maximized objective (energy plus the loss
    addends of the query)."""
    labeling: Labeling
    score: float

    @property
    def y(self) -> int:
        return self.labeling.y


@dataclass
class InferenceResult(Maximum):
    """A test-time labeling with its energy and per-frame unary margins."""
    energy: float             # energy_total of the labeling
    margins: np.ndarray       # (T, R) unary gap between best and runner-up


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
                       constraints: np.ndarray | None,
                       loss_addends: np.ndarray | None) -> np.ndarray:
    """(T, N) non-sequential scores without the complex-action term; -inf
    for the states whose actionlet ``constraints``, the (T, R, A) bool
    allowed actionlets per frame and region, rules out."""
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
        allowed = constraints[:, r, :]
        empty = ~allowed.any(axis=1)
        if empty.any():
            raise InfeasibleError(
                f"no allowed actionlet at frame {int(np.argmax(empty))}, "
                f"region {r}")
        unary = np.where(np.tile(allowed, KK), unary, NEG_INF)
    return unary


def _alpha_rows(params: ModelParams) -> np.ndarray:
    """(R, Y, N) complex-action scores of every state, tiled over
    poselets."""
    return np.tile(params.alpha[:, :, params.u_of_v()],
                   params.num_poselet_states)


def _tables(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Every region's transition tables, eta (R, K', K') over the poselet
    states in use and gamma (R, A, A), as views of the weights; the joint
    table over states (k, a) is their sum but is never materialized."""
    KK = params.num_poselet_states
    return params.eta[:, :KK, :KK], params.gamma


def _apply_beam(unary: np.ndarray, beam: int) -> np.ndarray:
    """Keep the ``beam`` best states per frame by unary score, rest -inf;
    ``unary`` is a (B, T, N) stack."""
    if beam >= unary.shape[-1]:
        return unary
    # the states a stable sort of -unary puts first: those below the
    # beam-th smallest key, then the ties at it from the lowest index (NaN
    # keys sort last in both the sort and the partition)
    key = -unary
    thr = np.partition(key, beam - 1, axis=-1)[..., beam - 1:beam]
    below, at = key < thr, key == thr
    nan_thr = np.isnan(thr)
    if nan_thr.any():
        nan_key = np.isnan(key)
        below |= nan_thr & ~nan_key
        at |= nan_thr & nan_key
    room = beam - below.sum(axis=-1, keepdims=True)
    keep = below | (at & (np.cumsum(at, axis=-1) <= room))
    return np.where(keep, unary, NEG_INF)


# Byte budget of the rows of one chunk of the Viterbi forward pass, their
# score histories plus their per-frame temporaries (a chunk of whole
# queries goes past it by less than one query's rows), and of one backtrack
# stack's histories; about an L2 cache. Rows are sized at the length of the
# longest, and a chunk holds at least one row, so at K' = 101, A = 20 and
# 150 frames every row is its own chunk and is backtracked in place.
VITERBI_CHUNK_BYTES = 2 << 20

# Predecessor poselets scored per (row, actionlet) in the pruned poselet
# step; tables with at most one poselet state more take the dense step.
POSELET_CANDIDATES = 16


def _chunk_rows(T: int, KK: int, A: int) -> int:
    """Rows of at most T frames per chunk of the Viterbi pass: about
    ``VITERBI_CHUNK_BYTES`` of per-row tables, and at least one row; see
    ``_chunks`` for how whole queries fill it."""
    # per row: the history, the actionlet step's (A, A, K') table and its
    # gamma rows, the poselet step's (K', K, A) dense table and its eta
    # rows or its (A, m, K) pruned table, and three (A, K') tables
    poselet = (2 * KK if KK <= POSELET_CANDIDATES + 1
               else POSELET_CANDIDATES + 1)
    row_cells = A * KK * (T + 2 * A + poselet + 3)
    return max(1, VITERBI_CHUNK_BYTES // (8 * row_cells))


def _active_spans(lengths: list[int]) -> list[tuple[int, int, int]]:
    """The runs ``(start, stop, n)`` of frames ``start <= t < stop``, from
    frame 1 to the longest, over which the rows longer than t are the
    leading n of rows sorted longest first; one run if all are equal."""
    spans, start = [], 1
    for n in range(len(lengths), 0, -1):
        stop = lengths[n - 1]
        if stop > start:
            spans.append((start, stop, n))
            start = stop
    return spans


def _viterbi_forward(unary: np.ndarray, eta: np.ndarray, gamma: np.ndarray,
                     region: np.ndarray, lengths: np.ndarray | None = None
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The forward pass of Viterbi over a (B, T, N) stack of unary tables
    for the joint states (k, a), n = k*A + a, row b under the transition
    tables of its region: ``eta`` (R, K', K') and ``gamma`` (R, A, A) stack
    every region's, and ``region`` (B,) picks each row's. Row b spans the
    first ``lengths[b]`` frames (all T if None), and the lengths must not
    increase down the stack. Returns (history, last, scores): the score
    history as [b, t, a, k] (a view on the dense path), each row's best
    last state and its score; ``_backtrack`` turns the history into states.

    The transition maximization factors through the two labels, the
    actionlet step ``sa[k', a] = max_a' score[k', a'] + gamma[a', a]`` and
    then the poselet step ``best[k, a] = max_k' sa[k', a] + eta[k', k]``,
    so a frame costs K*A*(K+A) instead of (K*A)^2. The pass keeps only
    these maxima, the score history; no backpointer table is built. Every
    sum is grouped as ``(score + gamma) + eta``, then ``+ unary``, here and
    in the backtrack, so states and scores do not depend on which cells
    are recomputed or on the order of the tables: the dense step's are
    [b, k, a], the order unary rows have, and the pruned step's are
    [b, a, k]; each reduction runs over a leading axis of contiguous rows.

    Frame t runs over the rows longer than t, a prefix of the stack, and
    each row's score is read at its own last frame, so no frame past a
    row's length is computed or read. The prefix changes only where a
    length ends (``_active_spans``), and a stack of one length runs every
    frame over all of its rows.

    Rows are independent: each row's history, state and score do not
    depend on the other rows of the stack, their regions or their lengths,
    so ``_solve`` runs its rows in chunks and backtracks any subset of them
    together.
    """
    B, T, N = unary.shape
    KK, A = eta.shape[1], gamma.shape[1]
    lengths = np.full(B, T) if lengths is None else np.asarray(lengths)
    dense = KK <= POSELET_CANDIDATES + 1
    unary = unary.reshape(B, T, KK, A)
    if dense:
        history = np.empty((B, T, KK, A))
        transition = _dense_step
    else:
        unary = unary.transpose(0, 1, 3, 2)
        history = np.empty((B, T, A, KK))
        transition = _pruned_step
    history[:, 0] = unary[:, 0]
    for start, stop, n in _active_spans(lengths.tolist()):
        step = transition(eta, gamma, region[:n])
        hist, un = history[:n], unary[:n]
        for t in range(start, stop):
            best = hist[:, t]
            step(hist[:, t - 1], best)
            np.add(un[:, t], best, out=best)
    rows = np.arange(B)
    # the history as [b, t, a, k] in either order
    history_ak = history.transpose(0, 1, 3, 2) if dense else history
    last = history_ak[rows, lengths - 1].transpose(0, 2, 1).reshape(B, N)
    best_last = last.argmax(axis=1)           # ties: smallest state
    best_score = last[rows, best_last]
    if np.any(best_score == NEG_INF):
        raise InfeasibleError("beam or constraints removed every path")
    return history_ak, best_last, best_score


def _backtrack(history: np.ndarray, eta: np.ndarray, gamma: np.ndarray,
               region: np.ndarray, lengths: np.ndarray,
               last: np.ndarray) -> np.ndarray:
    """States (B, T) of the rows of a [b, t, a, k] score history that
    ``_viterbi_forward`` wrote, row b from its last state ``last[b]`` at
    frame ``lengths[b] - 1`` under the tables of ``region[b]``; the lengths
    must not increase down the stack, and a row's states past its length
    are -1.

    Each frame recomputes the two argmaxes at the one cell on the path,
    from the history, with the tie-break of a full argmax over n' (the
    smallest k', then the smallest a' within it). A step is a few numpy
    calls over the rows still that long whatever their number, so the
    cost of a backtrack is mostly per frame, not per row.
    """
    B, T = history.shape[:2]
    A = gamma.shape[1]
    rows = np.arange(B)
    states = np.full((B, T), -1)
    states[rows, lengths - 1] = last
    k, a = np.divmod(last, A)
    # [r, k, k'] and [r, a, a']
    eta_t, gamma_t = eta.transpose(0, 2, 1), gamma.transpose(0, 2, 1)
    for start, stop, n in reversed(_active_spans(lengths.tolist())):
        hist, reg, rows_n = history[:n], region[:n], rows[:n]
        k_n, a_n = k[:n], a[:n]
        for t in range(stop - 1, start - 1, -1):
            # [b, a', k']; ties go to the least k', then the least a'
            prev = hist[:, t - 1] + gamma_t[reg, a_n][:, :, None]
            k_n = (prev.max(axis=1) + eta_t[reg, k_n]).argmax(axis=1)
            a_n = prev[rows_n, :, k_n].argmax(axis=1)
            states[:n, t - 1] = k_n * A + a_n
        # the shorter rows join the next run at their own last frame
        k[:n], a[:n] = k_n, a_n
    return states


def _dense_step(eta: np.ndarray, gamma: np.ndarray, region: np.ndarray):
    """The transition maximum of every row, from a [b, k', a'] score to a
    [b, k, a] best, over every a' and then every k': each step sums into
    a table with the reduced axis leading, [b, a', k', a] and then
    [b, k', k, a], against each row's gamma and eta repeated along the
    other label."""
    KK, A = eta.shape[1], gamma.shape[1]
    over_a = np.empty((len(region), A, KK, A))
    sa = np.empty((len(region), KK, A))           # [b, k', a]
    over_k = np.empty((len(region), KK, KK, A))
    gamma_rows = np.repeat(gamma[region][:, :, None, :], KK, axis=2)
    eta_rows = np.repeat(eta[region][:, :, :, None], A, axis=3)

    def step(score: np.ndarray, best: np.ndarray) -> None:
        np.add(score.transpose(0, 2, 1)[:, :, :, None], gamma_rows,
               out=over_a)
        np.maximum.reduce(over_a, axis=1, out=sa)
        np.add(sa[:, :, None, :], eta_rows, out=over_k)
        np.maximum.reduce(over_k, axis=1, out=best)
    return step


def _pruned_step(eta: np.ndarray, gamma: np.ndarray, region: np.ndarray):
    """The transition maximum of every row, from a [b, a', k'] score to a
    [b, a, k] best: the actionlet step over every a', reduced over the
    leading axis of a [b, a', a, k'] table, then the poselet step from the
    ``POSELET_CANDIDATES`` (m) largest ``sa[b, a, :]``, exact by a
    rounding-safe bound.

    Every excluded k' has ``sa <= thr``, the (m+1)-th largest, and
    ``eta[k', k] <= eta_max[k]`` (of the row's region), so its exact sum is
    at most ``thr + eta_max[k]``; rounding to nearest is monotone, so its
    rounded sum is at most ``bound = fl(thr + eta_max[k])``. A cell whose
    best candidate is strictly greater than ``bound`` is settled: no
    excluded k' reaches or ties it. The other cells (near ties, ``-inf``
    masks, NaN) take the full maximum over k' in ``_unsettled_max``.
    """
    B, R, KK, A = len(region), eta.shape[0], eta.shape[1], gamma.shape[1]
    over_a = np.empty((B, A, A, KK))              # [b, a', a, k']
    sa = np.empty((B, A, KK))                     # [b, a, k']
    # each row's gamma[a', a] repeated along k', so the add runs over
    # contiguous rows
    gamma_rows = np.repeat(gamma[region][:, :, :, None], KK, axis=3)
    cut = KK - POSELET_CANDIDATES - 1
    eta_max = eta.max(axis=1)[region][:, None, :]   # [b, 1, k]
    eta_t = eta.transpose(0, 2, 1).copy()           # [r, k, k']
    # row region*K' + k' of the flat table is eta[region, k']
    eta_flat = eta.reshape(R * KK, KK)
    eta_start = (region * KK)[:, None, None]
    cand = np.empty((B, A, POSELET_CANDIDATES, KK))   # [b, a, j, k]
    bound = np.empty((B, A, KK))
    # flat offset of each (b, a) row of sa
    row_start = np.arange(0, B * A * KK, KK).reshape(B, A, 1)

    def step(score: np.ndarray, best: np.ndarray) -> None:
        np.add(score[:, :, None, :], gamma_rows, out=over_a)
        np.maximum.reduce(over_a, axis=1, out=sa)
        # top[..., 0] is the (m+1)-th largest, the rest the m candidates
        top = np.argpartition(sa, cut, axis=2)[:, :, cut:]
        top_sa = sa.take(top + row_start)
        eta_flat.take(top[:, :, 1:] + eta_start, axis=0, out=cand)
        np.add(cand, top_sa[:, :, 1:, None], out=cand)
        np.maximum.reduce(cand, axis=2, out=best)
        np.add(top_sa[:, :, :1], eta_max, out=bound)
        unsettled = ~(best > bound)
        if unsettled.any():
            b, a, k = np.nonzero(unsettled)
            best[b, a, k] = _unsettled_max(sa[b, a], eta_t[region[b], k])
    return step


def _unsettled_max(sa_rows: np.ndarray, eta_cols: np.ndarray) -> np.ndarray:
    """Full poselet maximum of the cells a bound did not settle: row i is
    ``max_k' sa_rows[i, k'] + eta_cols[i, k']``."""
    return (sa_rows + eta_cols).max(axis=1)


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
    constraints: np.ndarray | None = None    # (T, R, A) bool
    loss: LossSpec | None = None


@dataclass
class _QueryRows:
    """The (region, candidate y) rows of one query: the loss constant per
    candidate, the rows' Viterbi scores and their backtracked states."""
    ys: np.ndarray            # candidate complex actions
    constants: np.ndarray     # (len(ys),) loss constants
    states: np.ndarray        # (R, len(ys), T)
    scores: np.ndarray        # (R, len(ys))

    def totals(self) -> np.ndarray:
        """Each candidate's loss constant plus its region scores, summed
        in region order."""
        totals = self.constants.copy()
        for region_scores in self.scores:
            totals += region_scores
        return totals

    def best(self, A: int) -> Maximum:
        """The best candidate by ``totals``, ties to the smallest y; its
        rows must be backtracked."""
        totals = self.totals()
        j = int(np.argmax(totals))
        joint = self.states[:, j].T.copy()       # (T, R)
        return Maximum(labeling=Labeling(z=joint // A, v=joint % A,
                                         y=int(self.ys[j])),
                       score=float(totals[j]))


class _BacktrackPool:
    """The winners' rows of one ``_solve``, waiting for their backtrack.
    Rows arrive longest first and their score histories are appended to a
    stack sized at its first row's length to about ``VITERBI_CHUNK_BYTES``,
    at least one row, and to at most the ``rows`` still to come; a full
    stack is backtracked in one pass, the last with the solve's last row."""

    def __init__(self, eta: np.ndarray, gamma: np.ndarray, rows: int):
        self.eta, self.gamma = eta, gamma
        self.rows = rows          # still to come
        # (query rows, region, candidate j, length, last state) of each
        # row of the stack of [b, t, a, k] histories
        self.owners: list[tuple[_QueryRows, int, int, int, int]] = []
        self.stack = np.empty((0, 0, 0, 0))

    def add(self, query_rows: _QueryRows, r: int, j: int,
            history: np.ndarray, length: int, last: int) -> None:
        """Append the row of ``query_rows`` at region r and candidate j,
        whose [t, a, k] history is ``history``."""
        if not self.owners:
            fit = max(1, VITERBI_CHUNK_BYTES // history[:length].nbytes)
            self.stack = np.empty((min(self.rows, fit), length)
                                  + history.shape[1:])
        self.stack[len(self.owners), :length] = history[:length]
        self.owners.append((query_rows, r, j, length, last))
        self.rows -= 1
        if len(self.owners) == len(self.stack):
            _, region, _, lengths, ends = zip(*self.owners)
            states = _backtrack(self.stack, self.eta, self.gamma,
                                *map(np.array, (region, lengths, ends)))
            for (owner, r, j, length, _), row_states in zip(self.owners,
                                                            states):
                owner.states[r, j] = row_states[:length]
            self.owners, self.stack = [], np.empty((0, 0, 0, 0))


def _unary_rows(queries: list[Query], candidates: list[np.ndarray],
                idxs: list[int], params: ModelParams, lambda_y: float,
                lambda_v: float):
    """Every (query, region, candidate y) row of the queries ``idxs``, in
    that order, as (query rows, region, candidate j, base):
    the row's unary table is ``base`` plus the alpha term of y. A (query,
    region) base is built for its first row and dropped after its last."""
    d = params.dims
    for i in idxs:
        q, ys = queries[i], candidates[i]
        x = np.asarray(q.x, dtype=float)
        T = x.shape[0]
        constants = (np.zeros(ys.size) if q.loss is None
                     else np.where(ys == q.loss.y, 0.0, lambda_y))
        addends = None
        if q.loss is not None and q.loss.allowed_v is not None \
                and lambda_v != 0.0:
            addends = (lambda_v / T) * (~q.loss.allowed_v).astype(float)
        rows = _QueryRows(ys, constants, np.empty((d.R, ys.size, T), int),
                          np.empty((d.R, ys.size)))
        for r in range(d.R):
            base = _region_unary_base(x, params, r, q.constraints,
                                      addends if r == LOSS_REGION else None)
            for j in range(ys.size):
                yield rows, r, j, base


def _longest_first(queries: list[Query]) -> list[int]:
    """The indices of ``queries`` by video length, longest first; queries
    of one length keep their order."""
    return sorted(range(len(queries)),
                  key=lambda i: -np.shape(queries[i].x)[0])


def _chunks(frames: list[int], sizes: list[int], KK: int, A: int):
    """The chunks of the rows of queries of ``frames`` frames and ``sizes``
    rows, longest first, as (rows, whole queries). A chunk takes whole
    queries until it holds ``_chunk_rows`` rows at its first's length, so
    it goes past that by less than one query; a query with more rows than
    ``_chunk_rows`` at its own length runs alone, in chunks of that many."""
    held = whole = least = 0
    for T, size in zip(frames, sizes):
        most = _chunk_rows(T, KK, A)
        if held and (held >= least or size > most):
            yield held, whole
            held = whole = 0
        if size > most:
            yield from ((min(most, size - n), 0) for n in range(0, size, most))
        else:
            least = least if held else most
            held, whole = held + size, whole + 1
    if held:
        yield held, whole


def _solve(queries: list[Query], candidates: list[np.ndarray],
           params: ModelParams, lambda_y: float, lambda_v: float,
           beam: int | None) -> list[Maximum]:
    """Best labeling per query over its ascending ``candidates`` y. The
    (query, region, candidate) rows run longest query first in the chunks
    of ``_chunks``, one forward pass per chunk whatever its rows' lengths.
    When a chunk of whole queries has run, each query picks its winner by
    ``_QueryRows.totals`` and only the winner's R rows go to the
    ``_BacktrackPool``, so a backtrack, whose cost is mostly per frame,
    runs once per stack. The rows of a query longer than a chunk are
    backtracked in place, as its winner is unknown until its last chunk.
    The results are built once every winner's rows are backtracked."""
    d = params.dims
    KK = params.num_poselet_states
    alphas = _alpha_rows(params)
    eta, gamma = _tables(params)
    order = _longest_first(queries)
    chunks = list(_chunks([np.shape(queries[i].x)[0] for i in order],
                          [d.R * candidates[i].size for i in order],
                          KK, d.A))
    pool = _BacktrackPool(eta, gamma, d.R * sum(n for _, n in chunks))
    rows = _unary_rows(queries, candidates, order, params, lambda_y,
                       lambda_v)
    solved = []               # the query rows in ``order``
    unary = np.empty((0, 0, KK * d.A))
    for size, whole in chunks:
        owners = list(islice(rows, size))
        T = len(owners[0][3])
        if unary.shape[:2] != (size, T):
            unary = np.empty((size, T, KK * d.A))
        region = np.empty(size, dtype=np.intp)
        lengths = np.empty(size, dtype=np.intp)
        for n, (query_rows, r, j, base) in enumerate(owners):
            row = unary[n, :len(base)]
            np.add(base, alphas[r, query_rows.ys[j]], out=row)
            if beam is not None:
                row[:] = _apply_beam(row, beam)
            region[n], lengths[n] = r, len(base)
            if r == j == 0:
                solved.append(query_rows)
        history, last, scores = _viterbi_forward(unary, eta, gamma, region,
                                                 lengths)
        for (query_rows, r, j, _), score in zip(owners, scores):
            query_rows.scores[r, j] = score
        if not whole:           # rows of a query longer than a chunk
            states = _backtrack(history, eta, gamma, region, lengths, last)
            for (query_rows, r, j, _), row_states in zip(owners, states):
                query_rows.states[r, j] = row_states
            continue
        for n, (query_rows, r, j, _) in enumerate(owners):
            if r == j == 0:     # a query's first row
                winner = int(np.argmax(query_rows.totals()))
            if j == winner:
                pool.add(query_rows, r, j, history[n], lengths[n], last[n])
    by_index = dict(zip(order, solved))
    return [by_index[i].best(d.A) for i in range(len(queries))]


def _y_bounds(queries: list[Query], params: ModelParams) -> np.ndarray:
    """(len(queries), Y) upper bounds on the total ``_solve`` finds for each
    query without a loss at each complex action y, under any beam.

    A region's Viterbi score is the float sum, in the pass's order, of the
    3(T-1)+1 terms of its best path: T unary entries and T-1 entries each of
    gamma and eta. Taking each unary entry's maximum over poselets and each
    eta entry's maximum over the region's table leaves a chain over
    actionlets alone, which runs here in floats as a max-plus pass with
    transitions gamma + max eta; in exact arithmetic its maximum is at least
    the best path's sum. The maximum over poselets of the pass's unary
    entries fl(base + alpha) is fl(max base + alpha), as rounding is
    monotone. Every float sum lies within gamma_m times the sum of its terms'
    magnitudes of the exact sum (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., sec. 3.1; m additions, gamma_m = m u / (1 - m u),
    u the unit roundoff), and M, the sum over regions of T (max finite
    |base| + max |alpha|) + (T-1) (max |gamma| + max |eta|), bounds every
    magnitude involved. So the region-order sum of the chain maxima plus
    8 (T + R + 1) (u M + the smallest normal number) covers the rounding of
    the pass, of its region-order total, of the chain and of this sum, with
    room to spare, and underflow. A beam only removes paths. A NaN anywhere
    in the tables gives a NaN bound, which rules nothing out.
    """
    d = params.dims
    KK = params.num_poselet_states
    alpha = params.alpha[:, :, params.u_of_v()]          # [r, y, a]
    eta, gamma = _tables(params)
    # gamma + max eta, as [a', a, ., r, .] to broadcast over (q, r, y)
    transition = (gamma + eta.max(axis=(1, 2))[:, None, None]).transpose(
        1, 2, 0)[:, :, None, :, None]
    step_size = np.abs(gamma).max(axis=(1, 2)) + np.abs(eta).max(axis=(1, 2))
    alpha_size = np.abs(alpha).max(axis=(1, 2))
    bounds = np.empty((len(queries), d.Y))
    order = _longest_first(queries)
    while order:
        # chunks of queries whose chain rows take about VITERBI_CHUNK_BYTES
        # at the length of the longest
        T = np.shape(queries[order[0]].x)[0]
        step = max(1, VITERBI_CHUNK_BYTES // (8 * d.R * d.Y * T * d.A))
        chunk, order = order[:step], order[step:]
        shape = (len(chunk), d.R, d.Y)
        best = np.zeros((T, d.A, len(chunk), d.R, 1))  # [t, a, q, r, .]
        size = np.empty((len(chunk), d.R))
        lengths = [np.shape(queries[i].x)[0] for i in chunk]
        for n, i in enumerate(chunk):
            q = queries[i]
            x = np.asarray(q.x, dtype=float)
            for r in range(d.R):
                base = _region_unary_base(x, params, r, q.constraints,
                                          None).reshape(lengths[n], KK, d.A)
                hi = base.max(axis=1)
                best[:lengths[n], :, n, r, 0] = hi
                # the largest magnitude of an entry other than -inf
                size[n, r] = max(
                    np.abs(hi).max(where=hi > NEG_INF, initial=0.0),
                    -base.min(where=base > NEG_INF, initial=0.0))
        # each chain row's unary maxima, [t, a, (q, r, y)], with the chain
        # rows innermost so every step runs over contiguous rows, and the
        # rows of the queries longer than t a prefix of them
        unary = (best + alpha.transpose(2, 0, 1)[:, None]).reshape(
            T, d.A, -1)
        trans = np.broadcast_to(transition, (d.A, d.A) + shape).reshape(
            d.A, d.A, -1)
        chain = unary[0].copy()
        for start, stop, n in _active_spans(lengths):
            m = n * d.R * d.Y
            chain_n, trans_n = chain[:, :m], trans[:, :, :m]
            un = unary[..., :m]
            over = np.empty_like(trans_n)
            for t in range(start, stop):
                np.add(chain_n[:, None], trans_n, out=over)
                np.maximum.reduce(over, axis=0, out=chain_n)
                chain_n += un[t]
        frames = np.array(lengths)
        magnitude = (frames[:, None] * (size + alpha_size)
                     + (frames[:, None] - 1) * step_size).sum(axis=1)
        slack = 8 * (frames + d.R + 1) * (np.finfo(float).eps / 2 * magnitude
                                          + np.finfo(float).tiny)
        bounds[chunk] = (chain.max(axis=0).reshape(shape).sum(axis=1)
                         + slack[:, None])
    return bounds


def maximize(queries: list[Query], params: ModelParams,
             lambda_y: float = 0.0, lambda_v: float = 0.0,
             beam: int | None = None) -> list[Maximum]:
    """Best labeling and its score per query; ties go to the smallest y.

    With a loss the objective is energy plus the margin-rescaling loss of
    ``loss_value``. The loss decomposes into a constant per candidate y plus
    per-frame addends in the designated loss region, so each region still
    solves an independent DP and ``result.score`` equals the labeling's
    ``energy_total`` plus its loss. The (query, region, candidate y) rows
    of all queries run longest query first in chunks of whole queries, one
    forward pass per chunk whatever the lengths of its rows, each row under
    its region's transition tables and over its own frames; each chunk's
    unary rows are built just before it runs. A chunk closes once it holds
    ``_chunk_rows`` rows, so it goes past that count by less than one
    query's rows. Only the rows of each query's winning y are backtracked,
    in stacks of up to ``VITERBI_CHUNK_BYTES`` of histories across chunks;
    a query with more rows than a chunk holds runs alone in row chunks and
    each of its rows is backtracked in place (``_solve``). Apart from the
    results nothing held grows with the number of queries. The rows are
    independent and each query's region scores are summed in region order,
    so every result equals that of its query run alone, bit for bit.

    A query with a fixed y or a loss solves every candidate. A query with
    a free y and no loss is solved by branch and bound over y in two
    rounds: ``_y_bounds`` gives a rounding-safe upper bound on each y's
    total; the first round solves the y of the largest bound, and the
    second every other y whose bound is not strictly below the total found
    (a tie must be solved, as ties go to the smallest y). A y left out
    cannot reach that total, so the result equals the exhaustive search's
    bit for bit.

    ``beam`` of None (or >= the state count) runs the exact pass; otherwise
    only the ``beam`` best states per frame by unary score survive, which
    can only lower the attained score. A query whose constraints or beam
    leave no path raises InfeasibleError for the batch.
    """
    if beam is not None and beam < 1:
        raise ValueError("beam must be >= 1")
    every_y = np.arange(params.dims.Y)
    candidates = [every_y if q.y is None else np.array([q.y])
                  for q in queries]
    free = [i for i, q in enumerate(queries)
            if q.y is None and q.loss is None]
    bounds = _y_bounds([queries[i] for i in free], params) if free else []
    for i, bound in zip(free, bounds):
        candidates[i] = every_y[[np.argmax(bound)]]
    results = _solve(queries, candidates, params, lambda_y, lambda_v, beam)
    again = []
    for i, bound in zip(free, bounds):
        admit = ~(bound < results[i].score)
        admit[results[i].y] = False
        if admit.any():
            again.append((i, every_y[admit]))
    if again:
        idxs, ys = zip(*again)
        more = _solve([queries[i] for i in idxs], list(ys), params,
                      lambda_y, lambda_v, beam)
        for i, res in zip(idxs, more):
            pair = sorted((results[i], res), key=lambda m: m.y)
            results[i] = pair[int(np.argmax([m.score for m in pair]))]
    return results


def infer(x: np.ndarray, params: ModelParams,
          constraints: np.ndarray | None = None,
          beam: int | None = None) -> InferenceResult:
    """Maximize the energy over (y, v, z); ties go to the smallest y. The
    result carries the labeling's energy and, per region, the unary margins
    at the chosen complex action."""
    x = np.asarray(x, dtype=float)
    best, = maximize([Query(x, constraints=constraints)], params, beam=beam)
    alpha = _alpha_rows(params)[:, best.y]
    margins = np.stack(
        [_unary_margins(_region_unary_base(x, params, r, constraints, None)
                        + alpha[r])
         for r in range(params.dims.R)], axis=1)
    return InferenceResult(labeling=best.labeling, score=best.score,
                           energy=energy_total(x, best.labeling, params),
                           margins=margins)


def loss_augmented_infer_many(xs: list[np.ndarray], params: ModelParams,
                              specs: list[LossSpec], lambda_y: float,
                              lambda_v: float,
                              beam: int | None = None
                              ) -> list[Maximum]:
    """Most-violating labeling per video: energy plus margin-rescaling loss
    against the given truth, maximized in batched Viterbi passes."""
    return maximize([Query(x, loss=spec) for x, spec in zip(xs, specs)],
                    params, lambda_y, lambda_v, beam)


def complete_latent(xs: list[np.ndarray], params: ModelParams,
                    ys: list[int], constraints: list[np.ndarray | None],
                    beam: int | None = None) -> list[Labeling]:
    """Best labeling per video at its fixed complex action, under its
    constraints (None for none), in batched Viterbi passes."""
    queries = [Query(x, y=y, constraints=c)
               for x, y, c in zip(xs, ys, constraints)]
    return [best.labeling for best in maximize(queries, params, beam=beam)]
