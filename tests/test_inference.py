import time
import tracemalloc

import numpy as np
import pytest

from conftest import (brute_force, make_dictionary, random_params,
                      reference_viterbi, region_unary, viterbi_batch)

import hieract.inference as inference
from hieract.energy import ModelDims, ModelParams, energy_total
from hieract.inference import (InfeasibleError, LossSpec, Query,
                               _apply_beam,
                               complete_latent, infer,
                               loss_augmented_infer_many, loss_value, maximize)


def _random_instance(rng, max_T=5, max_K=3, max_A=3, max_Y=3):
    T = int(rng.integers(1, max_T + 1))
    dims = ModelDims(R=int(rng.integers(1, 3)),
                     K=int(rng.integers(1, max_K + 1)), D=3,
                     A=int(rng.integers(1, max_A + 1)),
                     S=int(rng.integers(1, 3)),
                     Y=int(rng.integers(1, max_Y + 1)))
    if dims.A < dims.S:
        dims = ModelDims(R=dims.R, K=dims.K, D=3, A=dims.S, S=dims.S,
                         Y=dims.Y)
    params = random_params(dims, rng)
    x = rng.normal(size=(T, dims.R, dims.D))
    return x, params


def _same_result(a, b):
    return (a.y == b.y
            and np.array_equal(a.labeling.z, b.labeling.z)
            and np.array_equal(a.labeling.v, b.labeling.v)
            and abs(a.score - b.score) < 1e-9)


class TestDpRegion:
    def test_zero_params_lexicographic_min(self):
        dims = ModelDims(R=1, K=2, D=3, A=2, S=2, Y=2)
        params = ModelParams.zeros(dims, dictionary=make_dictionary(2, 2, 2))
        x = np.zeros((4, 1, 3))
        labeling = complete_latent(x, params, 0)
        assert energy_total(x, labeling, params) == 0.0
        assert not labeling.z.any() and not labeling.v.any()

    def test_full_beam_equals_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            x, params = _random_instance(rng)
            n_states = params.num_poselet_states * params.dims.A
            exact = infer(x, params)
            beamed = infer(x, params, beam=n_states)
            assert _same_result(exact, beamed)

    def test_narrow_beam_never_beats_exact(self):
        rng = np.random.default_rng(1)
        worst_gap = 0.0
        for _ in range(25):
            x, params = _random_instance(rng)
            exact = infer(x, params)
            beamed = infer(x, params, beam=1)
            assert beamed.score <= exact.score + 1e-9
            worst_gap = max(worst_gap, exact.score - beamed.score)
        print(f"largest beam-1 score gap over 25 instances: {worst_gap:.4f}")

    def test_beam_must_be_positive(self):
        rng = np.random.default_rng(2)
        x, params = _random_instance(rng)
        with pytest.raises(ValueError):
            infer(x, params, beam=0)

    def test_beam_keeps_the_stable_sort_states(self):
        """The kept states are the first ``beam`` of a stable sort of
        -unary, so ties at the cut go to the lowest index."""
        rng = np.random.default_rng(3)
        unary = rng.integers(-2, 3, size=(3, 5, 24)).astype(float)
        unary[rng.random(unary.shape) < 0.2] = -np.inf
        unary[0, 0, [3, 7]] = np.nan
        unary[0, 1, :22] = np.nan     # fewer finite states than the beam
        for beam in range(1, 25):
            keep = np.argsort(-unary, axis=-1, kind="stable")[..., :beam]
            reference = np.full_like(unary, -np.inf)
            np.put_along_axis(reference, keep,
                              np.take_along_axis(unary, keep, axis=-1),
                              axis=-1)
            np.testing.assert_array_equal(_apply_beam(unary, beam),
                                          reference)


class TestOracleEquivalence:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            x, params = _random_instance(rng)
            assert _same_result(infer(x, params), brute_force(x, params))

    def test_single_frame_maximizes_unary(self):
        rng = np.random.default_rng(4)
        x, params = _random_instance(rng, max_T=1)
        x = x[:1]
        res = brute_force(x, params)
        assert res.labeling.num_frames == 1
        assert res.score == pytest.approx(res.energy, abs=1e-9)

    def test_constant_alpha_shift(self):
        rng = np.random.default_rng(5)
        x, params = _random_instance(rng)
        T = x.shape[0]
        base = brute_force(x, params)
        shifted_params = params.with_flat(params.flatten())
        for r in range(params.dims.R):
            shifted_params.alpha[r] += 1.0
        shifted = brute_force(x, shifted_params)
        assert shifted.y == base.y
        np.testing.assert_array_equal(shifted.labeling.v, base.labeling.v)
        assert shifted.score == pytest.approx(
            base.score + T * params.dims.R, rel=1e-9)

    def test_guard_rejects_large_instances(self):
        dims = ModelDims(R=1, K=4, D=2, A=4, S=2, Y=3)
        params = ModelParams.zeros(dims, dictionary=make_dictionary(4, 2, 4))
        x = np.zeros((8, 1, 2))
        with pytest.raises(ValueError, match="too large"):
            brute_force(x, params)


class TestInfer:
    def test_single_class_reduces_to_dp(self):
        rng = np.random.default_rng(6)
        dims = ModelDims(R=2, K=2, D=3, A=2, S=2, Y=1)
        params = random_params(dims, rng)
        x = rng.normal(size=(4, 2, 3))
        res = infer(x, params)
        total = energy_total(x, complete_latent(x, params, 0), params)
        assert res.y == 0
        assert res.score == pytest.approx(total, rel=1e-12)

    def test_energy_matches_score_without_loss(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x, params = _random_instance(rng)
            res = infer(x, params)
            assert res.score == pytest.approx(res.energy, abs=1e-9)
            assert res.energy == pytest.approx(
                energy_total(x, res.labeling, params), abs=1e-9)

    def test_margins_shape_and_sign(self):
        rng = np.random.default_rng(8)
        x, params = _random_instance(rng)
        res = infer(x, params)
        assert res.margins.shape == (x.shape[0], params.dims.R)
        assert np.all(res.margins >= 0)


class TestLossAugmented:
    def test_zero_loss_equals_infer(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            x, params = _random_instance(rng)
            spec = LossSpec(y=0, allowed_v=np.ones(
                (x.shape[0], params.dims.A), dtype=bool))
            plain = infer(x, params)
            aug = loss_augmented_infer_many([x], params, [spec], 0.0, 0.0)[0]
            assert _same_result(plain, aug)

    def test_zero_params_attains_full_loss(self):
        dims = ModelDims(R=2, K=2, D=3, A=2, S=2, Y=3)
        params = ModelParams.zeros(dims, dictionary=make_dictionary(2, 2, 2))
        T = 5
        x = np.zeros((T, 2, 3))
        allowed = np.zeros((T, 2), dtype=bool)
        allowed[:, 0] = True          # actionlet 1 always violates
        spec = LossSpec(y=1, allowed_v=allowed)
        res, = loss_augmented_infer_many([x], params, [spec], lambda_y=100.0,
                                         lambda_v=25.0)
        assert res.y != 1
        assert res.score == pytest.approx(125.0)
        assert energy_total(x, res.labeling, params) == 0.0

    def test_score_is_energy_plus_loss(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            x, params = _random_instance(rng)
            T = x.shape[0]
            spec = LossSpec(y=int(rng.integers(params.dims.Y)),
                            allowed_v=rng.random((T, params.dims.A)) > 0.4)
            res = loss_augmented_infer_many([x], params, [spec], 100.0,
                                            25.0)[0]
            delta = loss_value(res.labeling, spec, 100.0, 25.0)
            assert res.score == pytest.approx(
                energy_total(x, res.labeling, params) + delta, abs=1e-9)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            x, params = _random_instance(rng)
            T = x.shape[0]
            spec = LossSpec(y=int(rng.integers(params.dims.Y)),
                            allowed_v=rng.random((T, params.dims.A)) > 0.3)
            aug = loss_augmented_infer_many([x], params, [spec], 10.0,
                                            5.0)[0]
            oracle = brute_force(x, params, loss_spec=spec, lambda_y=10.0,
                                 lambda_v=5.0)
            assert _same_result(aug, oracle)

    def test_margin_semantics_with_label_loss_only(self):
        # With lambda_v = 0, the violator's y must differ from the truth
        # whenever some wrong y scores within lambda_y of the truth energy.
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(60):
            x, params = _random_instance(rng)
            if params.dims.Y < 2:
                continue
            checked += 1
            best = np.zeros(params.dims.Y)
            for y in range(params.dims.Y):
                best[y] = energy_total(x, complete_latent(x, params, y),
                                       params)
            lambda_y = 1.0
            y_true = int(rng.integers(params.dims.Y))
            aug = loss_augmented_infer_many([x], params, [LossSpec(y=y_true)],
                                            lambda_y, 0.0)[0]
            oracle = brute_force(x, params, loss_spec=LossSpec(y=y_true),
                                 lambda_y=lambda_y, lambda_v=0.0)
            assert _same_result(aug, oracle)
            wrong = [y for y in range(params.dims.Y) if y != y_true]
            if max(best[y] for y in wrong) > best[y_true] - lambda_y:
                assert aug.y != y_true
        assert checked >= 25


class TestTrainingWrappers:
    def test_no_energy_or_margins_for_training_labelings(self, monkeypatch):
        # only `infer` reports energy and margins; the cutting plane's
        # oracle and latent completion read the labeling and score alone
        def refuse(*args, **kwargs):
            raise AssertionError("energy or margins computed in training")
        monkeypatch.setattr(inference, "energy_total", refuse)
        monkeypatch.setattr(inference, "_unary_margins", refuse)
        rng = np.random.default_rng(21)
        x, params = _random_instance(rng)
        T = x.shape[0]
        spec = LossSpec(y=0, allowed_v=rng.random((T, params.dims.A)) > 0.3)
        res, = loss_augmented_infer_many([x], params, [spec], 10.0, 5.0)
        assert res.labeling.num_frames == T
        assert complete_latent(x, params, 0).y == 0


class TestCompleteLatent:
    def test_fixed_v_only_optimizes_z(self):
        rng = np.random.default_rng(12)
        x, params = _random_instance(rng)
        T = x.shape[0]
        v_fixed = rng.integers(0, params.dims.A, size=(T, params.dims.R))
        allowed = v_fixed[:, :, None] == np.arange(params.dims.A)
        labeling = complete_latent(x, params, 0, allowed)
        np.testing.assert_array_equal(labeling.v, v_fixed)

    def test_singleton_sets_force_v(self):
        rng = np.random.default_rng(13)
        dims = ModelDims(R=2, K=2, D=3, A=3, S=3, Y=1)
        params = random_params(dims, rng)
        T = 4
        x = rng.normal(size=(T, 2, 3))
        allowed = np.zeros((T, 2, 3), dtype=bool)
        allowed[:, :, 2] = True
        labeling = complete_latent(x, params, 0, allowed)
        assert (labeling.v == 2).all()

    def test_matches_constrained_brute_force(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            x, params = _random_instance(rng, max_Y=1)  # fixed y by design
            T = x.shape[0]
            allowed = rng.random((T, params.dims.R, params.dims.A)) > 0.3
            allowed[:, :, 0] = True   # keep feasible
            labeling = complete_latent(x, params, 0, allowed)
            oracle = brute_force(x, params, constraints=allowed)
            np.testing.assert_array_equal(labeling.z, oracle.labeling.z)
            np.testing.assert_array_equal(labeling.v, oracle.labeling.v)
            assert np.all(allowed[np.arange(T)[:, None],
                                  np.arange(params.dims.R)[None, :],
                                  labeling.v])

    def test_infeasible_constraints_raise(self):
        rng = np.random.default_rng(15)
        x, params = _random_instance(rng)
        T = x.shape[0]
        allowed = np.zeros((T, params.dims.R, params.dims.A), dtype=bool)
        with pytest.raises(InfeasibleError):
            complete_latent(x, params, 0, allowed)


def _margins_reference(unary):
    """Per-frame gap between the two best finite scores; 0 below two."""
    out = np.zeros(unary.shape[0])
    for t, row in enumerate(unary):
        finite = row[np.isfinite(row)]
        if finite.size >= 2:
            top2 = np.partition(finite, -2)[-2:]
            out[t] = top2[1] - top2[0]
    return out


def _bit_identical(a, b):
    return (a.y == b.y
            and np.array_equal(a.labeling.z, b.labeling.z)
            and np.array_equal(a.labeling.v, b.labeling.v)
            and a.score == b.score)


class TestBatchedCore:
    LAMBDA_Y, LAMBDA_V = 10.0, 5.0

    def _mixed_batch(self, rng, params):
        """Ragged lengths; each video once with free y and once per fixed
        y, under its own mix of constraints and loss."""
        d = params.dims
        queries = []
        # (T, constrained, loss, per-frame loss term)
        for T, constrained, with_loss, per_frame in [
                (3, True, True, True), (5, False, True, True),
                (3, True, False, False), (4, False, False, False),
                (5, True, True, False)]:
            x = rng.normal(size=(T, d.R, d.D))
            constraints = None
            if constrained:
                allowed_v = rng.random((T, d.R, d.A)) > 0.3
                allowed_v[:, :, 0] = True
                # frame 0 of region 0 admits one actionlet
                allowed_v[0, 0] = False
                allowed_v[0, 0, 1] = True
                constraints = allowed_v
            loss = None
            if with_loss:
                allowed = rng.random((T, d.A)) > 0.4 if per_frame else None
                loss = LossSpec(y=int(rng.integers(d.Y)), allowed_v=allowed)
            queries.append(Query(x, None, constraints, loss))
            queries += [Query(x, y, constraints, loss) for y in range(d.Y)]
        return queries

    def test_mixed_batch_equals_queries_run_alone(self):
        rng = np.random.default_rng(18)
        dims = ModelDims(R=2, K=2, D=3, A=2, S=2, Y=3)
        params = random_params(dims, rng)
        queries = self._mixed_batch(rng, params)
        lam = (self.LAMBDA_Y, self.LAMBDA_V)
        for beam in (None, 1):
            batch = maximize(queries, params, *lam, beam=beam)
            for q, res in zip(queries, batch):
                alone, = maximize([q], params, *lam, beam=beam)
                assert _bit_identical(res, alone)
                delta = 0.0 if q.loss is None else loss_value(
                    res.labeling, q.loss, *lam)
                assert res.score == pytest.approx(
                    energy_total(q.x, res.labeling, params) + delta,
                    abs=1e-9)
            for i in range(0, len(queries), dims.Y + 1):
                free, fixed = batch[i], batch[i + 1:i + 1 + dims.Y]
                assert [f.y for f in fixed] == list(range(dims.Y))
                assert _bit_identical(free, fixed[free.y])
                assert free.score == max(f.score for f in fixed)
                if beam is None:
                    q = queries[i]
                    oracle = brute_force(q.x, params, q.constraints, q.loss,
                                         *lam)
                    assert _same_result(free, oracle)
                    assert free.score == oracle.score

    def test_margins_match_per_frame_reference(self):
        rng = np.random.default_rng(19)
        single_state_frames = 0
        # with one poselet state, a frame that admits one actionlet has a
        # single finite score
        for dims, flags in ((ModelDims(R=2, K=2, D=3, A=2, S=2, Y=3), {}),
                            (ModelDims(R=2, K=1, D=3, A=2, S=2, Y=3),
                             {"use_gc": False})):
            params = random_params(dims, rng, **flags)
            # the batch's videos, each once
            queries = self._mixed_batch(rng, params)[::dims.Y + 1]
            for q in queries:
                res = infer(q.x, params, q.constraints)
                for r in range(dims.R):
                    unary = region_unary(q.x, res.y, params, r,
                                         q.constraints, None)
                    np.testing.assert_array_equal(res.margins[:, r],
                                                  _margins_reference(unary))
                    lone = np.isfinite(unary).sum(axis=1) == 1
                    assert np.all(res.margins[lone, r] == 0.0)
                    single_state_frames += int(lone.sum())
        assert single_state_frames > 0

    def test_margins_of_single_state_tables_are_zero(self):
        dims = ModelDims(R=1, K=1, D=3, A=1, S=1, Y=2)
        params = random_params(dims, np.random.default_rng(20),
                               use_gc=False)
        assert params.num_poselet_states * dims.A == 1
        res = infer(np.ones((4, 1, 3)), params)
        np.testing.assert_array_equal(res.margins, np.zeros((4, 1)))


class TestRuntimeScaling:
    def test_roughly_linear_in_frames(self):
        rng = np.random.default_rng(16)
        dims = ModelDims(R=1, K=3, D=4, A=3, S=3, Y=1)
        params = random_params(dims, rng)

        def best_time(T):
            x = rng.normal(size=(T, 1, 4))
            times = []
            for _ in range(5):
                t0 = time.perf_counter()
                infer(x, params)
                times.append(time.perf_counter() - t0)
            return min(times)

        base = best_time(2000)
        doubled = best_time(4000)
        assert doubled <= 2.5 * base


def _joint_viterbi(unary, eta, gamma):
    """Viterbi over joint states n = k*A + a with the full (N, N) table
    trans[n', n] = eta[k', k] + gamma[a', a] and an argmax over n' (ties:
    smallest n'). Its sums are grouped differently from the factored pass,
    so it is bit-comparable only where every sum is exact."""
    T, N = unary.shape
    A = gamma.shape[0]
    trans = np.kron(eta, np.ones((A, A))) + np.tile(gamma, eta.shape)
    back = np.zeros((T, N), dtype=int)
    score = unary[0]
    for t in range(1, T):
        over = score[:, None] + trans
        back[t] = over.argmax(axis=0)
        score = unary[t] + over[back[t], np.arange(N)]
    states = [int(score.argmax())]
    for t in range(T - 1, 0, -1):
        states.append(int(back[t, states[-1]]))
    return np.array(states[::-1]), score.max()


class TestViterbiAtPaperShapes:
    KK, A = 101, 20

    def _tied_stack(self, rng, B, T):
        """Small integer scores, so sums are exact and ties are many, with
        about a tenth of the states masked to -inf."""
        N = self.KK * self.A
        unary = rng.integers(-2, 3, size=(B, T, N)).astype(float)
        unary[rng.random(unary.shape) < 0.1] = -np.inf
        eta = rng.integers(-1, 2, size=(self.KK, self.KK)).astype(float)
        gamma = rng.integers(-1, 2, size=(self.A, self.A)).astype(float)
        return unary, eta, gamma

    def test_ties_match_joint_state_reference(self):
        unary, eta, gamma = self._tied_stack(np.random.default_rng(40), 3, 6)
        states, scores = viterbi_batch(unary, eta[None], gamma[None],
                                       np.zeros(len(unary), int))
        for b in range(3):
            ref_states, ref_score = _joint_viterbi(unary[b], eta, gamma)
            np.testing.assert_array_equal(states[b], ref_states)
            assert scores[b] == ref_score

    def _gaussian_stack(self, rng, B, T, KK=KK, A=A):
        """Unary spread four times the transitions', as in a paper-scale
        model, so most poselet cells are settled by the bound."""
        return (rng.normal(scale=4.0, size=(B, T, KK * A)),
                rng.normal(size=(KK, KK)), rng.normal(size=(A, A)))

    def _assert_matches_reference(self, unary, eta, gamma):
        states, scores = viterbi_batch(unary, eta[None], gamma[None],
                                       np.zeros(len(unary), int))
        ref_states, ref_scores = reference_viterbi(unary, eta, gamma)
        np.testing.assert_array_equal(states, ref_states)
        assert scores.tobytes() == ref_scores.tobytes()

    def _count_unsettled(self, monkeypatch):
        """Cells sent to the full maximum, one entry per frame that has
        any."""
        counted = []
        full = inference._unsettled_max

        def counting(sa_rows, eta_cols):
            counted.append(len(sa_rows))
            return full(sa_rows, eta_cols)
        monkeypatch.setattr(inference, "_unsettled_max", counting)
        return counted

    def test_matches_backpointer_reference(self):
        rng = np.random.default_rng(43)
        m = inference.POSELET_CANDIDATES
        gaussian = self._gaussian_stack(rng, 3, 12)
        for stack in [
                gaussian,
                self._tied_stack(rng, 3, 6),
                (_apply_beam(gaussian[0], 400),) + gaussian[1:],
                # the smallest pruned table, and the largest dense one
                self._gaussian_stack(rng, 3, 12, KK=m + 2),
                self._gaussian_stack(rng, 3, 12, KK=m + 1),
                # a desk shape
                self._gaussian_stack(rng, 4, 9, KK=9, A=14)]:
            self._assert_matches_reference(*stack)

    def test_bound_settles_most_poselet_cells(self, monkeypatch):
        counted = self._count_unsettled(monkeypatch)
        B, T = 2, 30
        stack = self._gaussian_stack(np.random.default_rng(44), B, T)
        self._assert_matches_reference(*stack)
        cells = B * (T - 1) * self.A * self.KK
        assert sum(counted) <= 0.1 * cells

    def test_ties_reach_the_full_maximum(self, monkeypatch):
        counted = self._count_unsettled(monkeypatch)
        self._assert_matches_reference(
            *self._tied_stack(np.random.default_rng(45), 2, 6))
        assert sum(counted) > 0


def _count_rows(monkeypatch, name):
    """The rows of each call of ``inference.<name>``, one entry per call."""
    counted = []
    run = getattr(inference, name)

    def counting(unary_or_history, *args):
        counted.append(len(unary_or_history))
        return run(unary_or_history, *args)
    monkeypatch.setattr(inference, name, counting)
    return counted


def _per_region_reference(unary, eta, gamma, region):
    """``reference_viterbi`` run on each region's rows alone, under that
    region's tables, scattered back into row order."""
    states = np.empty(unary.shape[:2], dtype=int)
    scores = np.empty(len(unary))
    for r in range(len(eta)):
        rows = region == r
        states[rows], scores[rows] = reference_viterbi(unary[rows], eta[r],
                                                       gamma[r])
    return states, scores


class TestRegionStackedRows:
    """Rows of different regions in one pass, each under its own region's
    transition tables, as ``maximize`` runs them."""

    def _stack(self, rng, R, B, T, KK, A, tied=False):
        """A (B, T, K'*A) unary stack, (R, K', K') and (R, A, A) tables and
        the regions of the rows, every region present and interleaved."""
        region = rng.permutation(np.arange(B) % R)
        if tied:
            # small integers: exact sums, many ties, a tenth masked
            unary = rng.integers(-2, 3, size=(B, T, KK * A)).astype(float)
            unary[rng.random(unary.shape) < 0.1] = -np.inf
            eta = rng.integers(-1, 2, size=(R, KK, KK)).astype(float)
            gamma = rng.integers(-1, 2, size=(R, A, A)).astype(float)
        else:
            unary = rng.normal(scale=4.0, size=(B, T, KK * A))
            eta = rng.normal(size=(R, KK, KK))
            gamma = rng.normal(size=(R, A, A))
        return unary, eta, gamma, region

    def _assert_matches(self, unary, eta, gamma, region):
        states, scores = viterbi_batch(unary, eta, gamma, region)
        ref_states, ref_scores = _per_region_reference(unary, eta, gamma,
                                                       region)
        np.testing.assert_array_equal(states, ref_states)
        assert scores.tobytes() == ref_scores.tobytes()

    def test_desk_shape_dense_step(self):
        rng = np.random.default_rng(50)
        self._assert_matches(*self._stack(rng, R=2, B=12, T=9, KK=9, A=14))

    def test_paper_shape_pruned_step(self):
        rng = np.random.default_rng(51)
        self._assert_matches(*self._stack(rng, R=4, B=8, T=10, KK=101,
                                          A=20))

    def test_ties_reach_the_full_maximum_on_mixed_regions(self,
                                                           monkeypatch):
        unsettled = []
        full = inference._unsettled_max

        def counting(sa_rows, eta_cols):
            unsettled.append(len(sa_rows))
            return full(sa_rows, eta_cols)
        monkeypatch.setattr(inference, "_unsettled_max", counting)
        stack = self._stack(np.random.default_rng(52), R=3, B=6, T=6,
                            KK=101, A=20, tied=True)
        self._assert_matches(*stack)
        assert np.unique(stack[3]).tolist() == [0, 1, 2]
        assert sum(unsettled) > 0


class TestMaximizeAcrossRegions:
    LAMBDA_Y, LAMBDA_V = 10.0, 5.0

    def _queries(self, rng, dims):
        """Mixed lengths, each video with free y and with a fixed y, under
        a mix of constraints and loss."""
        queries = []
        for n, T in enumerate([4, 6, 4, 7, 6, 4]):
            x = rng.normal(size=(T, dims.R, dims.D))
            constraints = None
            if n % 2:
                allowed_v = rng.random((T, dims.R, dims.A)) > 0.3
                allowed_v[:, :, 0] = True
                constraints = allowed_v
            loss = None
            if n % 3:
                loss = LossSpec(y=int(rng.integers(dims.Y)),
                                allowed_v=rng.random((T, dims.A)) > 0.4)
            queries.append(Query(x, None, constraints, loss))
            queries.append(Query(x, n % dims.Y, constraints, loss))
        # long loss queries: at the default budget a chunk holds 15 rows at
        # 250 frames, so the rows of the 240-frame free-y query straddle
        # two chunks, and the pool takes rows of both chunks
        for T in (250, 240):
            x = rng.normal(size=(T, dims.R, dims.D))
            loss = LossSpec(y=int(rng.integers(dims.Y)),
                            allowed_v=rng.random((T, dims.A)) > 0.4)
            queries += [Query(x, None, None, loss), Query(x, 1, None, loss)]
        return queries

    def _reference(self, q, params):
        """Best (y, states, score) by ``reference_viterbi`` per region and
        candidate y, summed in region order."""
        d = params.dims
        T = q.x.shape[0]
        addends = None
        if q.loss is not None:
            addends = (self.LAMBDA_V / T) * (~q.loss.allowed_v).astype(float)
        eta, gamma = inference._tables(params)
        best = None
        for y in (range(d.Y) if q.y is None else [q.y]):
            total = 0.0 if q.loss is None else \
                (0.0 if y == q.loss.y else self.LAMBDA_Y)
            states = []
            for r in range(d.R):
                unary = region_unary(q.x, y, params, r, q.constraints,
                                     addends if r == 0 else None)
                s, score = reference_viterbi(unary[None], eta[r], gamma[r])
                total += score[0]
                states.append(s[0])
            if best is None or total > best[2]:
                best = (y, np.stack(states, axis=1), total)
        return best

    @pytest.mark.parametrize("chunk_bytes", [1, 2 << 20, 1 << 40],
                             ids=["row-chunks", "default", "one-chunk"])
    def test_batch_equals_queries_alone_and_reference(self, monkeypatch,
                                                      chunk_bytes):
        monkeypatch.setattr(inference, "VITERBI_CHUNK_BYTES", chunk_bytes)
        rng = np.random.default_rng(54)
        # K' = 21 takes the pruned poselet step
        dims = ModelDims(R=3, K=20, D=4, A=3, S=2, Y=3)
        params = random_params(dims, rng)
        queries = self._queries(rng, dims)
        lam = (self.LAMBDA_Y, self.LAMBDA_V)
        batch = maximize(queries, params, *lam)
        for q, res in zip(queries, batch):
            alone, = maximize([q], params, *lam)
            assert _bit_identical(res, alone)
            y, joint, score = self._reference(q, params)
            assert res.y == y and res.score == score
            np.testing.assert_array_equal(res.labeling.z, joint // dims.A)
            np.testing.assert_array_equal(res.labeling.v, joint % dims.A)

    def test_memory_does_not_grow_with_queries(self):
        """Paper-shaped 150-frame queries (K' = 101, A = 20, R = 4, Y = 10):
        one query with free y, or with a loss and so all 40 of its rows
        solved, holds one region base, one chunk and one row's Viterbi
        tables, not its 40 unary rows (24 MB); four queries of one length
        peak where one does."""
        rng = np.random.default_rng(55)
        dims = ModelDims(R=4, K=100, D=38, A=20, S=10, Y=10)
        params = random_params(dims, rng)
        xs = [rng.normal(size=(150, dims.R, dims.D)) for _ in range(4)]

        def peak(queries, *lam):
            tracemalloc.start()
            try:
                maximize(queries, params, *lam)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak([Query(xs[0])]) < 24 * 2 ** 20
        loss = LossSpec(y=3, allowed_v=rng.random((150, dims.A)) > 0.3)
        assert peak([Query(xs[0], loss=loss)], self.LAMBDA_Y,
                    self.LAMBDA_V) < 24 * 2 ** 20
        # a fixed y keeps the four-query pass short
        one = peak([Query(xs[0], 0)])
        assert peak([Query(x, 0) for x in xs]) <= 1.1 * one


class TestQueryRows:
    def test_best_is_the_same_on_every_call(self):
        """``best`` sums the region scores into fresh totals, so a second
        call neither counts a region twice nor moves the winner."""
        rng = np.random.default_rng(56)
        R, Y, T, A = 2, 3, 5, 4
        constants = np.array([10.0, 0.0, 10.0])
        scores = rng.normal(size=(R, Y))
        query_rows = inference._QueryRows(
            index=0, ys=np.arange(Y), constants=constants.copy(),
            states=rng.integers(0, 3 * A, size=(R, Y, T)), scores=scores,
            left=0)
        first, second = query_rows.best(A), query_rows.best(A)
        assert _bit_identical(first, second)
        totals = constants + scores[0] + scores[1]
        assert first.y == int(np.argmax(totals))
        assert first.score == totals.max()
        np.testing.assert_array_equal(query_rows.constants, constants)


class TestPrunedComplexActions:
    """A free y without a loss is solved by branch and bound over y; the
    result equals the exhaustive search over every y bit for bit."""

    DIMS = ModelDims(R=2, K=8, D=4, A=6, S=3, Y=4)

    @staticmethod
    def _exhaustive(q, params, beam=None):
        """Every y solved as its own fixed-y query; the best total, ties to
        the smallest y."""
        fixed = maximize([Query(q.x, y, q.constraints)
                          for y in range(params.dims.Y)], params, beam=beam)
        return fixed[int(np.argmax([m.score for m in fixed]))]

    def _videos(self, rng, integer=False, constrained=False):
        """Videos of mixed lengths, some sharing a length; small integer
        features (exact sums, many ties) when ``integer``."""
        d = self.DIMS
        queries = []
        for T in [5, 9, 5, 1, 12, 9, 5]:
            x = (rng.integers(-2, 3, size=(T, d.R, d.D)).astype(float)
                 if integer else rng.normal(size=(T, d.R, d.D)))
            constraints = None
            if constrained:
                allowed_v = rng.random((T, d.R, d.A)) > 0.5
                allowed_v[:, :, 1] = True
                constraints = allowed_v
            queries.append(Query(x, constraints=constraints))
        return queries

    def _params(self, rng, integer=False, lead=None, tie=None):
        """Random parameters; ``lead`` raises one y's alpha far above the
        others, and ``tie`` (y, y') gives y' the alpha of y."""
        d = self.DIMS
        params = random_params(d, rng)
        if integer:
            params = params.with_flat(
                rng.integers(-2, 3, size=d.total).astype(float))
        for r in range(d.R):
            if lead is not None:
                params.alpha[r][lead] += 50.0
            if tie is not None:
                params.alpha[r][tie[1]] = params.alpha[r][tie[0]]
        return params

    def _assert_exhaustive(self, queries, params, beam=None):
        batch = maximize(queries, params, beam=beam)
        for q, res in zip(queries, batch):
            assert _bit_identical(res, self._exhaustive(q, params, beam))
            alone, = maximize([q], params, beam=beam)
            assert _bit_identical(res, alone)
        return batch

    @pytest.mark.parametrize("case", ["random", "separated", "tied",
                                      "integer", "constrained"])
    @pytest.mark.parametrize("beam", [None, 1, 7])
    def test_equals_exhaustive_search(self, case, beam):
        rng = np.random.default_rng(60)
        integer = case == "integer"
        params = self._params(rng, integer=integer,
                              lead=2 if case == "separated" else None,
                              tie=(1, 3) if case == "tied" else None)
        queries = self._videos(rng, integer=integer,
                               constrained=case == "constrained")
        self._assert_exhaustive(queries, params, beam)

    def test_bound_covers_every_total(self):
        """``_y_bounds`` is at least the total of every y, also where sums
        are exact and a bound can meet its total."""
        rng = np.random.default_rng(61)
        met = 0
        for integer, constrained in [(False, False), (True, False),
                                     (True, True)]:
            params = self._params(rng, integer=integer)
            queries = self._videos(rng, integer=integer,
                                   constrained=constrained)
            bounds = inference._y_bounds(queries, params)
            for q, bound in zip(queries, bounds):
                totals = np.array([m.score for m in maximize(
                    [Query(q.x, y, q.constraints)
                     for y in range(self.DIMS.Y)], params)])
                assert np.all(totals <= bound)
                met += int(np.sum(bound - totals < 1e-9))
        print(f"bounds within 1e-9 of their totals: {met}")

    def test_bound_covers_the_rounding_of_a_tight_chain(self):
        """With one poselet state and a constant eta the chain is the pass
        itself but for the grouping of its sums, so the bounds are tight
        and only the slack keeps them above the rounded totals."""
        rng = np.random.default_rng(65)
        dims = ModelDims(R=3, K=1, D=4, A=6, S=3, Y=4)
        params = random_params(dims, rng, use_gc=False)
        for r in range(dims.R):
            params.eta[r][:] = 0.1
        for T in (2, 5, 17, 40):
            xs = [rng.normal(size=(T, dims.R, dims.D)) for _ in range(5)]
            bounds = inference._y_bounds([Query(x) for x in xs], params)
            for x, bound in zip(xs, bounds):
                totals = np.array([m.score for m in maximize(
                    [Query(x, y) for y in range(dims.Y)], params)])
                assert np.all(totals <= bound)
                assert np.all(bound - totals < 1e-9)

    def test_separated_instance_solves_only_the_winner(self, monkeypatch):
        rng = np.random.default_rng(62)
        params = self._params(rng, lead=2)
        queries = self._videos(rng)
        counted = _count_rows(monkeypatch, "_viterbi_forward")
        batch = maximize(queries, params)
        assert [res.y for res in batch] == [2] * len(queries)
        # one row per region and video, against R*Y without the bound
        assert sum(counted) == self.DIMS.R * len(queries)
        assert sum(counted) < self.DIMS.R * self.DIMS.Y * len(queries)

    def test_fixed_y_and_loss_queries_solve_every_candidate(self,
                                                            monkeypatch):
        rng = np.random.default_rng(63)
        params = self._params(rng, lead=2)
        x = rng.normal(size=(6, self.DIMS.R, self.DIMS.D))
        counted = _count_rows(monkeypatch, "_viterbi_forward")
        maximize([Query(x, loss=LossSpec(y=0))], params, 10.0, 0.0)
        maximize([Query(x, y=1)], params)
        assert sum(counted) == self.DIMS.R * (self.DIMS.Y + 1)

    def test_exact_tie_returns_the_smaller_y(self, monkeypatch):
        """y = 1 and y = 3 tie exactly and lead the others. Bounds equal to
        the totals, with y = 3's raised, make the first round solve y = 3;
        y = 1, whose bound equals the total found, must still be solved,
        and wins the tie."""
        rng = np.random.default_rng(64)
        params = self._params(rng, lead=1, tie=(1, 3))
        queries = self._videos(rng)
        totals = np.array([[m.score for m in maximize(
            [Query(q.x, y) for y in range(self.DIMS.Y)], params)]
            for q in queries])
        np.testing.assert_array_equal(totals[:, 1], totals[:, 3])
        exhaustive = self._assert_exhaustive(queries, params)
        assert [res.y for res in exhaustive] == [1] * len(queries)
        bounds = totals.copy()
        bounds[:, 3] += 1.0
        monkeypatch.setattr(inference, "_y_bounds",
                            lambda free, params: bounds[:len(free)])
        counted = _count_rows(monkeypatch, "_viterbi_forward")
        batch = maximize(queries, params)
        # y = 3 in the first round, y = 1 alone in the second
        assert sum(counted) == 2 * self.DIMS.R * len(queries)
        for res, reference in zip(batch, exhaustive):
            assert _bit_identical(res, reference)


class TestMixedLengthRows:
    """Rows of different lengths in one pass: frame t runs over the rows
    longer than t, and each row's result equals that row run alone."""

    LAMBDA_Y, LAMBDA_V = 10.0, 5.0

    def _stack(self, rng, lengths, KK, A, R=2, tied=False):
        """A (B, max length, K'*A) unary stack of rows sorted longest
        first, NaN past each row's length, with (R, K', K') and (R, A, A)
        tables and interleaved regions; small integers with a tenth of the
        cells -inf when ``tied``."""
        B, T = len(lengths), lengths[0]
        region = np.arange(B) % R
        if tied:
            unary = rng.integers(-2, 3, size=(B, T, KK * A)).astype(float)
            unary[rng.random(unary.shape) < 0.1] = -np.inf
            eta = rng.integers(-1, 2, size=(R, KK, KK)).astype(float)
            gamma = rng.integers(-1, 2, size=(R, A, A)).astype(float)
        else:
            unary = rng.normal(scale=4.0, size=(B, T, KK * A))
            eta = rng.normal(size=(R, KK, KK))
            gamma = rng.normal(size=(R, A, A))
        for b, length in enumerate(lengths):
            unary[b, length:] = np.nan
        return unary, eta, gamma, region, np.array(lengths)

    def _assert_rows_alone(self, unary, eta, gamma, region, lengths):
        states, scores = viterbi_batch(unary, eta, gamma, region, lengths)
        for b, length in enumerate(lengths):
            alone_states, alone_score = viterbi_batch(
                unary[b:b + 1, :length], eta, gamma, region[b:b + 1])
            np.testing.assert_array_equal(states[b, :length],
                                          alone_states[0])
            assert np.all(states[b, length:] == -1)
            assert scores[b:b + 1].tobytes() == alone_score.tobytes()
            ref_states, ref_score = reference_viterbi(
                unary[b:b + 1, :length], eta[region[b]], gamma[region[b]])
            np.testing.assert_array_equal(states[b, :length], ref_states[0])
            assert scores[b:b + 1].tobytes() == ref_score.tobytes()

    # K' = 9 takes the dense step and K' = 21 the pruned one; the lengths
    # end one row early, two rows together and with a row of one frame
    @pytest.mark.parametrize("KK,A", [(9, 13), (21, 5)],
                             ids=["dense", "pruned"])
    @pytest.mark.parametrize("tied", [False, True], ids=["gaussian", "tied"])
    def test_rows_equal_rows_alone(self, KK, A, tied):
        rng = np.random.default_rng(70)
        lengths = [9, 9, 7, 4, 4, 4, 2, 1]
        self._assert_rows_alone(*self._stack(rng, lengths, KK, A,
                                             tied=tied))

    def test_rows_of_one_length_equal_the_uniform_pass(self):
        rng = np.random.default_rng(71)
        unary, eta, gamma, region, lengths = self._stack(
            rng, [6] * 5, KK=9, A=4, tied=True)
        states, scores = viterbi_batch(unary, eta, gamma, region, lengths)
        uniform_states, uniform_scores = viterbi_batch(unary, eta, gamma,
                                                       region)
        np.testing.assert_array_equal(states, uniform_states)
        assert scores.tobytes() == uniform_scores.tobytes()

    def test_a_short_infeasible_row_raises(self):
        rng = np.random.default_rng(72)
        unary, eta, gamma, region, lengths = self._stack(
            rng, [8, 5, 3], KK=9, A=4)
        unary[2, 2] = -np.inf
        with pytest.raises(InfeasibleError):
            viterbi_batch(unary, eta, gamma, region, lengths)
        # -inf past the row's length is never read
        unary[2, 2] = 0.0
        unary[2, 3:] = -np.inf
        self._assert_rows_alone(unary, eta, gamma, region, lengths)

    def _queries(self, rng, dims):
        """Videos of mixed lengths, a one-frame video among them, each with
        free y, with a fixed y, under a loss and under constraints."""
        queries = []
        for n, T in enumerate([6, 3, 9, 1, 6, 4]):
            x = rng.normal(size=(T, dims.R, dims.D))
            allowed_v = rng.random((T, dims.R, dims.A)) > 0.3
            allowed_v[:, :, 0] = True
            loss = LossSpec(y=int(rng.integers(dims.Y)),
                            allowed_v=rng.random((T, dims.A)) > 0.4)
            queries += [Query(x), Query(x, n % dims.Y),
                        Query(x, loss=loss),
                        Query(x, constraints=allowed_v),
                        Query(x, n % dims.Y, allowed_v, loss)]
        return queries

    @pytest.mark.parametrize("K", [8, 20], ids=["dense", "pruned"])
    @pytest.mark.parametrize("beam", [None, 4])
    def test_maximize_equals_queries_alone(self, K, beam):
        rng = np.random.default_rng(73)
        dims = ModelDims(R=2, K=K, D=4, A=5, S=3, Y=3)
        params = random_params(dims, rng)
        queries = self._queries(rng, dims)
        lam = (self.LAMBDA_Y, self.LAMBDA_V)
        batch = maximize(queries, params, *lam, beam=beam)
        for q, res in zip(queries, batch):
            alone, = maximize([q], params, *lam, beam=beam)
            assert _bit_identical(res, alone)

    def test_an_infeasible_query_among_mixed_lengths_raises(self):
        rng = np.random.default_rng(74)
        dims = ModelDims(R=2, K=8, D=4, A=5, S=3, Y=3)
        params = random_params(dims, rng)
        queries = [Query(rng.normal(size=(T, dims.R, dims.D)))
                   for T in (7, 5, 3)]
        blocked = np.ones((5, dims.R, dims.A), dtype=bool)
        blocked[2, 1] = False
        queries[1].constraints = blocked
        with pytest.raises(InfeasibleError):
            maximize(queries, params)

    def test_y_bounds_equal_queries_alone(self):
        rng = np.random.default_rng(77)
        dims = ModelDims(R=2, K=8, D=4, A=5, S=3, Y=3)
        params = random_params(dims, rng)
        queries = [q for q in self._queries(rng, dims) if q.loss is None]
        bounds = inference._y_bounds(queries, params)
        for q, bound in zip(queries, bounds):
            alone = inference._y_bounds([q], params)[0]
            assert bound.tobytes() == alone.tobytes()

    def test_no_queries(self):
        dims = ModelDims(R=2, K=8, D=4, A=5, S=3, Y=3)
        params = random_params(dims, np.random.default_rng(75))
        assert maximize([], params) == []

    def test_one_pass_per_chunk_across_lengths(self, monkeypatch):
        """A loss-augmented pass over 12 videos of 12 lengths: every row
        fits one chunk, so one Viterbi pass runs, not one per length."""
        rng = np.random.default_rng(76)
        dims = ModelDims(R=2, K=8, D=4, A=6, S=3, Y=4)
        params = random_params(dims, rng)
        lengths = list(range(14, 2, -1))
        xs = [rng.normal(size=(T, dims.R, dims.D)) for T in lengths]
        specs = [LossSpec(y=int(rng.integers(dims.Y)),
                          allowed_v=rng.random((T, dims.A)) > 0.4)
                 for T in lengths]
        lam = (self.LAMBDA_Y, self.LAMBDA_V)
        alone = [loss_augmented_infer_many([x], params, [spec], *lam)[0]
                 for x, spec in zip(xs, specs)]
        counted = _count_rows(monkeypatch, "_viterbi_forward")
        results = loss_augmented_infer_many(xs, params, specs, *lam)
        assert counted == [dims.R * dims.Y * len(xs)]
        for res, one in zip(results, alone):
            assert _bit_identical(res, one)

    def test_a_loss_pass_backtracks_only_the_winners_rows(self,
                                                          monkeypatch):
        """A loss-augmented pass over 12 desk-shaped videos (R = 2, A = 14,
        Y = 3, 41 to 69 frames) runs in four chunks, and queries straddle
        them; the rows of a query incomplete at its chunk's end wait in the
        pool, which drops them once their query completes with another
        winner, so one backtrack runs over the 24 rows of the winning y's,
        not all 72."""
        rng = np.random.default_rng(78)
        dims = ModelDims(R=2, K=8, D=4, A=14, S=3, Y=3)
        params = random_params(dims, rng)
        lengths = [69, 66, 64, 61, 59, 56, 54, 51, 49, 46, 44, 41]
        xs = [rng.normal(size=(T, dims.R, dims.D)) for T in lengths]
        specs = [LossSpec(y=int(rng.integers(dims.Y)),
                          allowed_v=rng.random((T, dims.A)) > 0.4)
                 for T in lengths]
        lam = (self.LAMBDA_Y, self.LAMBDA_V)
        alone = [loss_augmented_infer_many([x], params, [spec], *lam)[0]
                 for x, spec in zip(xs, specs)]
        forward = _count_rows(monkeypatch, "_viterbi_forward")
        backtracked = _count_rows(monkeypatch, "_backtrack")
        results = loss_augmented_infer_many(xs, params, specs, *lam)
        assert len(forward) == 4
        assert sum(forward) == dims.R * dims.Y * len(xs)
        assert backtracked == [dims.R * len(xs)]
        for res, one in zip(results, alone):
            assert _bit_identical(res, one)

    def test_a_pool_flushed_inside_a_query_gives_the_same_labeling(
            self, monkeypatch):
        """Chunks of one row and pools of three rows: the six rows of a
        loss query (R = 2, Y = 3) are each kept while the query is
        incomplete. Region 0's fill the first pool and are backtracked;
        region 1's go to a second, whose flush drops all but the winner's,
        so the winner's two rows are backtracked apart."""
        rng = np.random.default_rng(79)
        dims = ModelDims(R=2, K=8, D=4, A=6, S=3, Y=3)
        params = random_params(dims, rng)
        T = 10
        x = rng.normal(size=(T, dims.R, dims.D))
        spec = LossSpec(y=1, allowed_v=rng.random((T, dims.A)) > 0.4)
        lam = (self.LAMBDA_Y, self.LAMBDA_V)
        default, = loss_augmented_infer_many([x], params, [spec], *lam)
        KK = params.num_poselet_states
        monkeypatch.setattr(inference, "VITERBI_CHUNK_BYTES",
                            3 * 8 * T * dims.A * KK)
        assert inference._chunk_rows(T, KK, dims.A) == 1
        forward = _count_rows(monkeypatch, "_viterbi_forward")
        backtracked = _count_rows(monkeypatch, "_backtrack")
        res, = loss_augmented_infer_many([x], params, [spec], *lam)
        assert forward == [1] * dims.R * dims.Y
        assert backtracked == [3, 1]
        assert _bit_identical(res, default)

    @pytest.mark.parametrize("chunk_bytes", [1, 2 << 20],
                             ids=["row-chunks", "default"])
    def test_an_infeasible_loss_query_raises_for_the_batch(
            self, monkeypatch, chunk_bytes):
        """The shortest query runs last, after the rows of the others are
        backtracked in place or wait in the pool, and still raises."""
        monkeypatch.setattr(inference, "VITERBI_CHUNK_BYTES", chunk_bytes)
        rng = np.random.default_rng(80)
        dims = ModelDims(R=2, K=8, D=4, A=5, S=3, Y=3)
        params = random_params(dims, rng)
        queries = [Query(rng.normal(size=(T, dims.R, dims.D)),
                         loss=LossSpec(y=0, allowed_v=np.ones((T, dims.A),
                                                              dtype=bool)))
                   for T in (9, 7, 3)]
        blocked = np.ones((3, dims.R, dims.A), dtype=bool)
        blocked[1, 1] = False
        queries[2].constraints = blocked
        with pytest.raises(InfeasibleError):
            maximize(queries, params, self.LAMBDA_Y, self.LAMBDA_V)
