import numpy as np
import pytest

from conftest import (brute_force_assignment, check_feasible, chi2,
                      make_dictionary)

from hieract import learning
from hieract.energy import Labeling, ModelDims, ModelParams, energy_total, feature_map
from hieract.evaluation import SyntheticSpec, plant_synthetic
from hieract.inference import LossSpec, infer, loss_value
from hieract.learning import (AssignmentProblem, TrainConfig, TrainingVideo,
                              _WorkingSet, _p1_costs, assign_regions,
                              build_loss_spec, cutting_plane, impute_latents,
                              initialize, solve_p1, train)
from hieract.skeleton import ActionInterval


def _training_set(spec=None, **overrides):
    spec = spec or SyntheticSpec(
        num_classes=2, num_actions=2, num_actionlets=2, num_poselets=3,
        num_regions=2, dim=5, frames_range=(14, 18), videos_per_class=4,
        sigma=0.05, seed=3, actions_per_class=1, **overrides)
    ds = plant_synthetic(spec)
    videos = [TrainingVideo(video_id=v.video_id, x=v.x, y=v.y,
                            intervals=list(v.intervals)) for v in ds.videos]
    return spec, ds, videos


class TestAssignRegions:
    def test_minimal_assignment_without_pace(self):
        costs = np.array([[0.1], [5.0]])
        b, feasible = assign_regions(costs, [], inv_lambda=0.0)
        assert feasible
        np.testing.assert_array_equal(b, [[True], [False]])

    def test_pace_reward_claims_all_regions(self):
        costs = np.array([[0.1], [5.0]])
        b, feasible = assign_regions(costs, [], inv_lambda=6.0)
        assert feasible
        # costs - 6: {(1,0): -5.9, (0,1): -1.0, (1,1): -6.9} -> both
        np.testing.assert_array_equal(b, [[True], [True]])

    def test_overlap_in_single_region_infeasible(self):
        costs = np.array([[1.0, 2.0]])
        b, feasible = assign_regions(costs, [(0, 1)], inv_lambda=0.0)
        assert not feasible
        # repair still covers each interval at its only region
        np.testing.assert_array_equal(b, [[True, True]])

    def test_overlap_resolved_across_regions(self):
        costs = np.array([[0.1, 0.2], [0.4, 0.3]])
        b, feasible = assign_regions(costs, [(0, 1)], inv_lambda=0.0)
        assert feasible
        assert b[:, 0].any() and b[:, 1].any()
        for r in range(2):
            assert not (b[r, 0] and b[r, 1])

    def test_lp_path_matches_enumeration(self):
        # compare against exhaustive enumeration
        rng = np.random.default_rng(0)
        R, Q = 2, 12
        costs = rng.uniform(0.1, 2.0, size=(R, Q))
        overlaps = [(0, 1), (4, 5), (9, 10)]
        b, ok = assign_regions(costs, overlaps, inv_lambda=0.3)
        assert ok
        _assert_feasible(b, overlaps)
        ref_cost = brute_force_assignment(costs - 0.3, overlaps)
        assert np.isclose(float(((costs - 0.3) * b).sum()), ref_cost,
                          rtol=0, atol=1e-9)

    def test_random_instances_reach_enumeration_optimum(self):
        rng = np.random.default_rng(0)
        checked = 0
        while checked < 60:
            costs, overlaps = _random_instance(rng)
            if not overlaps:
                continue
            checked += 1
            b, ok = assign_regions(costs, overlaps)
            ref_cost = brute_force_assignment(costs, overlaps)
            if ref_cost is None:
                assert not ok
                np.testing.assert_array_equal(
                    b, np.argmin(costs, axis=0)[None, :]
                    == np.arange(costs.shape[0])[:, None])
                continue
            assert ok, (costs, overlaps)
            _assert_feasible(b, overlaps)
            assert np.isclose(float((costs * b).sum()), ref_cost,
                              rtol=0, atol=1e-9), (costs, overlaps)

    def test_overlap_graph_needing_three_of_four_regions(self):
        # the overlap graph needs 3 of the 4 regions; an LP relaxation
        # rounded at 0.5 and greedily repaired reports it infeasible
        costs = np.array([[-1.1, 0.0, 0.5, -0.4, -0.7, 0.3, 0.2],
                          [-1.1, -0.4, 0.5, -0.9, -1.0, 0.5, -0.2],
                          [-1.2, -0.7, -1.1, -1.1, -1.1, -1.1, -1.1],
                          [-1.1, 0.5, -0.5, -0.9, -0.6, -0.7, -0.9]])
        overlaps = [(1, 5), (2, 5), (2, 6), (3, 5), (3, 6), (5, 6)]
        b, ok = assign_regions(costs, overlaps)
        assert ok
        _assert_feasible(b, overlaps)
        assert np.isclose(float((costs * b).sum()),
                          brute_force_assignment(costs, overlaps),
                          rtol=0, atol=1e-9)

    @pytest.mark.parametrize("R, max_Q, count", [(2, 10, 40), (3, 7, 15)])
    def test_long_chains_reach_enumeration_optimum(self, R, max_Q, count):
        rng = np.random.default_rng(R)
        for _ in range(count):
            costs, overlaps, starts = _chain_instance(rng, R, max_Q)
            best = brute_force_assignment(costs, overlaps)
            for b, ok in [assign_regions(costs, overlaps),      # as listed
                          _assign_by_start(costs, overlaps, starts)]:
                assert ok, (costs, overlaps)
                _assert_feasible(b, overlaps)
                assert np.isclose(float((costs * b).sum()), best,
                                  rtol=0, atol=1e-9), (costs, overlaps)

    def test_permuted_intervals_reach_the_same_optimum(self):
        rng = np.random.default_rng(5)
        for R, max_Q in [(2, 10), (3, 7), (4, 6)] * 8:
            costs, overlaps, starts = _chain_instance(rng, R, max_Q)
            order = rng.permutation(costs.shape[1])    # new q is old order[q]
            rank = np.argsort(order)
            moved = [(int(rank[q2]), int(rank[q1])) for q1, q2 in overlaps]
            b, ok = assign_regions(costs, overlaps)
            for b_moved, ok_moved in [
                    assign_regions(costs[:, order], moved),
                    _assign_by_start(costs[:, order], moved, starts[order])]:
                assert ok and ok_moved
                _assert_feasible(b_moved, moved)
                assert np.isclose(float((costs[:, order] * b_moved).sum()),
                                  float((costs * b).sum()), rtol=0, atol=1e-9)

    def test_zigzag_chain_listed_region_major(self):
        # 40 intervals, each overlapping only its neighbours in time; the
        # even ones are listed first, as synth lists region 0 before
        # region 1. At R=2 the only covers alternate the two regions.
        rng = np.random.default_rng(6)
        R, Q = 2, 40
        position, spans = _zigzag(Q)
        overlaps = _time_overlaps(spans)
        assert len(overlaps) == Q - 1
        costs = rng.uniform(-1.0, 1.0, size=(R, Q))
        covers = [(position % 2 == r)[None, :] != np.arange(R)[:, None]
                  for r in range(R)]
        best = min(covers, key=lambda b: float((costs * b).sum()))
        starts = np.array([lo for lo, _ in spans])
        b, ok = _assign_by_start(costs, overlaps, starts)
        assert ok
        np.testing.assert_array_equal(b, best)
        # by start frame, a state holds the one interval waiting: 3 bitmasks
        assert _most_states(R, spans) <= 3

    def test_nested_intervals_listed_after_their_path(self):
        # a path of 6 intervals, each touching the next at a frame, every
        # one with a short interval nested inside it; the path is listed
        # first. By start frame one interval waits at a time: 15 states.
        # By index all of the path waits, 27,650 states at the widest step.
        rng = np.random.default_rng(7)
        R, n = 4, 6
        spans = [(50 * i, 50 * i + 50) for i in range(n)] + \
            [(50 * i + 20, 50 * i + 30) for i in range(n)]
        overlaps = _time_overlaps(spans)
        starts = np.array([lo for lo, _ in spans])
        assert _most_states(R, spans) <= 15
        costs = rng.uniform(-1.0, 1.0, size=(R, 2 * n))
        b, ok = _assign_by_start(costs, overlaps, starts)
        assert ok
        _assert_feasible(b, overlaps)
        # the optimum along the path: each path interval's bitmask plus the
        # cheapest disjoint one of the interval nested in it
        masks = range(1, 2 ** R)
        price = [[sum(costs[r, q] for r in range(R) if m >> r & 1)
                  for q in range(2 * n)] for m in range(2 ** R)]
        alone = [{m: price[m][i] + min([price[c][n + i] for c in masks
                                        if not c & m], default=np.inf)
                  for m in masks} for i in range(n)]
        best = dict(alone[0])
        for i in range(1, n):
            best = {m: alone[i][m] + min([best[p] for p in masks
                                          if not p & m], default=np.inf)
                    for m in masks}
        assert np.isclose(float((costs * b).sum()), min(best.values()),
                          rtol=0, atol=1e-9)


def _time_overlaps(spans):
    return [(i, j) for i in range(len(spans)) for j in range(i + 1, len(spans))
            if spans[i][0] <= spans[j][1] and spans[j][0] <= spans[i][1]]


def _zigzag(Q):
    """The time positions and (start, end) frames of a chain of ``Q``
    intervals, each overlapping only its neighbours in time, listed
    region-major: the even positions first, then the odd ones."""
    position = np.r_[np.arange(0, Q, 2), np.arange(1, Q, 2)]
    return position, [(10 * int(p), 10 * int(p) + 14) for p in position]


def _assign_by_start(costs, overlaps, starts):
    """``assign_regions`` with the intervals listed by start frame (ties by
    index), as callers list them; b comes back in the given order."""
    order = np.argsort(starts, kind="stable")
    rank = np.argsort(order)                # new index of each interval
    listed = [tuple(sorted((int(rank[i]), int(rank[j]))))
              for i, j in overlaps]
    b, ok = assign_regions(costs[:, order], listed)
    return b[:, rank], ok


def _widest(steps):
    """The most states any step of a sweep reaches."""
    return max(len({dst for _, _, dst in moves}) for moves in steps)


def _most_states(R, spans):
    """The most states any step of the sweep of a problem over ``spans``
    reaches."""
    prob = AssignmentProblem("v", [ActionInterval(0, lo, hi)
                                   for lo, hi in spans],
                             np.zeros((R, len(spans), 1)))
    steps, end = learning._sweep(R, prob.overlaps, prob.order, 0, {})
    assert end is not None
    return _widest(steps)


def _assert_feasible(b, overlaps):
    assert b.any(axis=0).all()
    for q1, q2 in overlaps:
        assert not (b[:, q1] & b[:, q2]).any()


def _random_instance(rng):
    """Costs and time-overlap pairs for R in 2..4 and Q <= 8 intervals.
    Intervals come in groups placed one after another, so no overlap chain
    outgrows a group; group sizes keep the oracle under 10^6 combinations
    per component."""
    R = int(rng.integers(2, 5))
    Q = int(rng.integers(2, 9))
    largest = {2: 8, 3: 6, 4: 5}[R]
    spans, t = [], 0
    while len(spans) < Q:
        g = min(int(rng.integers(1, largest + 1)), Q - len(spans))
        starts = t + rng.integers(0, 20, size=g)
        ends = starts + rng.integers(4, 16, size=g)
        spans += list(zip(starts, ends))
        t = int(ends.max()) + 1
    overlaps = [(i, j) for i in range(Q) for j in range(i + 1, Q)
                if spans[i][0] <= spans[j][1] and spans[j][0] <= spans[i][1]]
    return rng.uniform(-1.0, 1.0, size=(R, Q)), overlaps


def _chain_instance(rng, R, max_Q):
    """Costs, time-overlap pairs and start frames of 4 to ``max_Q``
    intervals, listed in random order. The p-th in time starts near 10 p
    and often overlaps the next, but ends before the (p + R)-th starts:
    overlap chains run through many intervals, and no R + 1 intervals
    overlap each other, so every instance can be covered."""
    Q = int(rng.integers(4, max_Q + 1))
    starts = 10 * np.arange(Q) + rng.integers(0, 3, size=Q)
    ends = starts + rng.integers(8, 10 * R - 2, size=Q)
    order = rng.permutation(Q)
    starts, ends = starts[order], ends[order]
    overlaps = _time_overlaps(list(zip(starts, ends)))
    return rng.uniform(-1.0, 1.0, size=(R, Q)), overlaps, starts


class TestSolveP1:
    def _problems(self):
        rng = np.random.default_rng(1)

        def hist(center):
            h = np.abs(center + rng.normal(scale=0.02, size=4))
            return h / h.sum()

        def noise():
            h = rng.random(4)
            return h / h.sum()

        mode0 = np.array([0.8, 0.2, 0.0, 0.0])
        mode1 = np.array([0.0, 0.0, 0.2, 0.8])
        intervals = [ActionInterval(0, 0, 9), ActionInterval(1, 10, 19)]
        problems = []
        for m in range(4):
            # two intervals, one per action; action 0 lives in region 0 and
            # action 1 in region 1. The off-region stream is unrelated
            # content that varies video to video.
            hists = np.zeros((2, 2, 4))
            hists[0, 0] = hist(mode0)
            hists[1, 0] = noise()
            hists[0, 1] = noise()
            hists[1, 1] = hist(mode1)
            problems.append(AssignmentProblem(
                video_id=f"m{m}", intervals=intervals, histograms=hists))
        return problems

    def test_feasible_and_descending(self):
        problems = self._problems()
        result = solve_p1(problems, num_actions=2)
        assert check_feasible(result, problems) == []
        for trace in result.objective_trace:
            for a, b in zip(trace, trace[1:]):
                assert b <= a + 1e-9

    def test_recovers_planted_regions(self):
        problems = self._problems()
        result = solve_p1(problems, num_actions=2)
        for b in result.assignments:
            assert b[0, 0] and b[1, 1]

    def test_no_b_step_repeats_the_last_program(self, monkeypatch):
        priced = []
        price = learning._IntervalDP.price

        def record(program, eff):
            priced.append(eff.copy())
            return price(program, eff)

        monkeypatch.setattr(learning._IntervalDP, "price", record)
        result = solve_p1(self._problems(), num_actions=2)
        for a, b in zip(priced, priced[1:]):
            assert not np.array_equal(a, b)
        # every alternation is still traced, b-step and mu-step
        alternations = sum((len(t) - 1) // 2 for t in result.objective_trace)
        assert 1 < len(priced) <= alternations

    def test_costs_match_scalar_chi2(self):
        problems = self._problems()
        means = np.random.default_rng(2).random((2, 2, 4))
        means[0, 1, 2:] = 0.0     # bins empty in both histogram and mean
        problems[0].histograms[0, 1, 2:] = 0.0
        for prob in problems:
            expected = [[chi2(prob.histograms[r, q], means[r, a])
                         for q, a in enumerate(prob.actions)]
                        for r in range(2)]
            np.testing.assert_allclose(_p1_costs(prob, means), expected,
                                       rtol=1e-12, atol=0)

    def test_empty_problem_list_rejected(self):
        with pytest.raises(ValueError):
            solve_p1([], num_actions=1)

    def test_zigzag_chain_listed_region_major(self, monkeypatch):
        # the zig-zag chain of TestAssignRegions, listed region-major, as
        # one video's intervals; by index its sweep ran for minutes
        R, Q = 2, 40
        position, spans = _zigzag(Q)
        intervals = [ActionInterval(int(p % 2), lo, hi)
                     for p, (lo, hi) in zip(position, spans)]
        hists = np.random.default_rng(8).random((R, Q, 4))
        hists /= hists.sum(axis=2, keepdims=True)
        widest, sweep = [], learning._sweep

        def record(*args):
            steps, end = sweep(*args)
            widest.append(_widest(steps))
            return steps, end

        monkeypatch.setattr(learning, "_sweep", record)
        problems = [AssignmentProblem("z", intervals, hists)]
        result = solve_p1(problems, num_actions=2)
        assert widest and max(widest) <= 3
        assert check_feasible(result, problems) == [] and not result.infeasible
        # the only covers alternate the two regions along the chain
        b = result.assignments[0]
        assert (b.sum(axis=0) == 1).all()
        assert len(set(b[0, position % 2 == 0])) == 1
        np.testing.assert_array_equal(b[0, position % 2 == 1],
                                      ~b[0, position % 2 == 0])


class TestAssignmentProblem:
    def test_derives_brute_force_overlaps_and_start_order(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            Q = int(rng.integers(1, 12))
            starts = rng.integers(0, 30, size=Q)    # equal starts are common
            intervals = [ActionInterval(int(rng.integers(0, 3)), int(s),
                                        int(s + rng.integers(0, 10)))
                         for s in starts]
            prob = AssignmentProblem("v", intervals, np.zeros((2, Q, 3)))
            frames = [set(range(iv.t_start, iv.t_end + 1))
                      for iv in intervals]
            assert prob.overlaps == [(i, j) for i in range(Q)
                                     for j in range(i + 1, Q)
                                     if frames[i] & frames[j]]
            assert prob.order.tolist() == sorted(
                range(Q), key=lambda q: intervals[q].t_start)
            assert prob.actions.tolist() == [iv.action_id
                                             for iv in intervals]


class TestConstraintsAndImputation:
    def test_temporal_constraints_respect_annotations(self):
        spec, ds, videos = _training_set()
        cfg = TrainConfig(seed=0, supervision="temporal", beam=None)
        init = initialize(videos, spec.num_poselets, spec.num_actions, cfg)
        dims = ModelDims(R=2, K=spec.num_poselets, D=spec.dim,
                         A=init.dictionary.num_actionlets,
                         S=spec.num_actions, Y=spec.num_classes)
        params = ModelParams.zeros(dims, dictionary=init.dictionary)
        labelings = impute_latents(videos, params, init.constraints)
        u_of_v = init.dictionary.u_of_v
        for video, lab in zip(videos, labelings):
            allowed = np.zeros((video.num_frames, spec.num_actions),
                               dtype=bool)
            covered = np.zeros(video.num_frames, dtype=bool)
            for iv in video.intervals:
                allowed[iv.t_start:iv.t_end + 1, iv.action_id] = True
                covered[iv.t_start:iv.t_end + 1] = True
            for t in range(video.num_frames):
                if covered[t]:
                    for r in range(2):
                        assert allowed[t, u_of_v[lab.v[t, r]]]

    def test_initialize_sweeps_by_start_frame(self, monkeypatch):
        seen, sweep = [], learning._sweep

        def record(R, overlaps, order, base, index):
            seen.append(list(order))
            return sweep(R, overlaps, order, base, index)

        monkeypatch.setattr(learning, "_sweep", record)
        # two actions per class: each video lists region 0's intervals,
        # then region 1's, so its listing is not in start order
        spec, ds, videos = _training_set(SyntheticSpec(
            num_classes=2, num_actions=3, num_actionlets=3, num_poselets=3,
            num_regions=2, dim=5, frames_range=(30, 40), videos_per_class=3,
            sigma=0.05, seed=3, actions_per_class=2))
        cfg = TrainConfig(seed=0, supervision="temporal", beam=None)
        initialize(videos, spec.num_poselets, spec.num_actions, cfg)
        by_start = [sorted(range(len(video.intervals)),
                           key=lambda q: video.intervals[q].t_start)
                    for video in videos if video.intervals]
        assert seen == by_start
        assert any(order != sorted(order) for order in by_start)

    def test_full_supervision_pins_v(self):
        spec, ds, videos = _training_set()
        cfg = TrainConfig(seed=0, supervision="full", beam=None)
        init = initialize(videos, spec.num_poselets, spec.num_actions, cfg)
        dims = ModelDims(R=2, K=spec.num_poselets, D=spec.dim,
                         A=init.dictionary.num_actionlets,
                         S=spec.num_actions, Y=spec.num_classes)
        params = ModelParams.zeros(dims, dictionary=init.dictionary)
        labelings = impute_latents(videos, params, init.constraints)
        for video, first, lab in zip(videos, init.completions, labelings):
            for iv in video.intervals:
                pinned = first.v[iv.t_start, iv.region]
                hi = min(iv.t_end, video.num_frames - 1)
                chunk = lab.v[iv.t_start:hi + 1, iv.region]
                assert (chunk == pinned).all()

    def test_initialize_leaves_its_input_unchanged(self):
        spec, ds, videos = _training_set()
        before = [(v.video_id, v.x.copy(), v.y, v.intervals,
                   list(v.intervals)) for v in videos]
        for supervision in ("full", "temporal"):
            cfg = TrainConfig(seed=0, supervision=supervision)
            initialize(videos, spec.num_poselets, spec.num_actions, cfg)
            for video, (vid, x, y, intervals, items) in zip(videos, before):
                assert (video.video_id, video.y) == (vid, y)
                np.testing.assert_array_equal(video.x, x)
                assert video.intervals is intervals
                assert video.intervals == items

    def test_temporal_constraints_from_intervals_and_dictionary(self):
        spec, ds, videos = _training_set()
        videos.append(TrainingVideo(video_id="bare", x=videos[0].x,
                                    y=videos[0].y))
        cfg = TrainConfig(seed=0, supervision="temporal")
        init = initialize(videos, spec.num_poselets, spec.num_actions, cfg)
        u_of_v = init.dictionary.u_of_v
        for video, constraints in zip(videos, init.constraints):
            if not video.intervals:
                assert constraints is None
                continue
            expected = np.ones((video.num_frames, 2, u_of_v.size), dtype=bool)
            for t in range(video.num_frames):
                actions = [iv.action_id for iv in video.intervals
                           if iv.t_start <= t <= iv.t_end]
                if actions:
                    expected[t] = np.isin(u_of_v, actions)
            np.testing.assert_array_equal(constraints, expected)

    def test_imputation_dominates_random_feasible_labelings(self):
        rng = np.random.default_rng(2)
        spec, ds, videos = _training_set()
        cfg = TrainConfig(seed=0, supervision="temporal", beam=None)
        init = initialize(videos, spec.num_poselets, spec.num_actions, cfg)
        dims = ModelDims(R=2, K=spec.num_poselets, D=spec.dim,
                         A=init.dictionary.num_actionlets,
                         S=spec.num_actions, Y=spec.num_classes)
        params = ModelParams.zeros(dims, dictionary=init.dictionary)
        params = params.with_flat(rng.normal(size=dims.total))
        video = videos[0]
        constraints = init.constraints[0]
        labelings = impute_latents([video], params, [constraints])
        best = energy_total(video.x, labelings[0], params)
        T = video.num_frames
        for _ in range(50):
            v = np.empty((T, 2), dtype=int)
            for t in range(T):
                for r in range(2):
                    options = np.flatnonzero(constraints[t, r])
                    v[t, r] = rng.choice(options)
            z = rng.integers(0, spec.num_poselets + 1, size=(T, 2))
            rival = energy_total(video.x, Labeling(z=z, v=v, y=video.y),
                                 params)
            assert rival <= best + 1e-9


class TestCuttingPlane:
    def test_coinciding_truth_and_violators_stop_immediately(self):
        dims = ModelDims(R=1, K=1, D=2, A=1, S=1, Y=1)
        template = ModelParams.zeros(dims,
                                     dictionary=make_dictionary(1, 1, 1))
        rng = np.random.default_rng(3)
        videos = []
        truth_psis = []
        specs = []
        for i in range(3):
            x = rng.normal(size=(4, 1, 2))
            video = TrainingVideo(video_id=str(i), x=x, y=0)
            # with Y=1 and A=1 the only labeling freedom is z; at W=0 the
            # violator equals the lexicographic completion
            completion = Labeling(z=np.zeros((4, 1), int),
                                  v=np.zeros((4, 1), int), y=0)
            videos.append(video)
            truth_psis.append(feature_map(x, completion, template))
            specs.append(LossSpec(y=0, allowed_v=np.ones((4, 1), bool)))
        config = TrainConfig(C=10.0, lambda_y=0.0, lambda_v=0.0, beam=None)
        W, info = cutting_plane(videos, truth_psis, specs, template, config)
        assert info.converged
        assert info.iterations == 0          # no constraint ever added
        assert not W.any()
        assert info.xi == 0.0

    def test_separable_toy_set_reaches_zero_training_error(self):
        spec, ds, videos = _training_set()
        cfg = TrainConfig(C=10.0, seed=0, supervision="temporal", beam=None,
                          max_cccp_iters=3, max_cutting_plane_iters=400)
        init = initialize(videos, spec.num_poselets, spec.num_actions, cfg)
        dims = ModelDims(R=2, K=spec.num_poselets, D=spec.dim,
                         A=init.dictionary.num_actionlets,
                         S=spec.num_actions, Y=spec.num_classes)
        result = train(videos, dims, cfg, init)
        errors = sum(infer(v.x, result.params).y != v.y for v in videos)
        assert errors == 0

    def test_dual_trace_nondecreasing(self):
        spec, ds, videos = _training_set()
        cfg = TrainConfig(C=5.0, seed=0, supervision="temporal", beam=None,
                          max_cutting_plane_iters=60)
        init = initialize(videos, spec.num_poselets, spec.num_actions, cfg)
        dims = ModelDims(R=2, K=spec.num_poselets, D=spec.dim,
                         A=init.dictionary.num_actionlets,
                         S=spec.num_actions, Y=spec.num_classes)
        template = ModelParams.zeros(dims, dictionary=init.dictionary)
        specs = [build_loss_spec(v, c)
                 for v, c in zip(videos, init.constraints)]
        psis = [feature_map(v.x, c, template)
                for v, c in zip(videos, init.completions)]
        _, info = cutting_plane(videos, psis, specs, template, cfg)
        for a, b in zip(info.dual_trace, info.dual_trace[1:]):
            assert b >= a - 1e-10

    def test_termination_condition_holds(self):
        spec, ds, videos = _training_set()
        cfg = TrainConfig(C=1.0, seed=0, supervision="temporal", beam=None,
                          max_cutting_plane_iters=400)
        init = initialize(videos, spec.num_poselets, spec.num_actions, cfg)
        dims = ModelDims(R=2, K=spec.num_poselets, D=spec.dim,
                         A=init.dictionary.num_actionlets,
                         S=spec.num_actions, Y=spec.num_classes)
        template = ModelParams.zeros(dims, dictionary=init.dictionary)
        specs = [build_loss_spec(v, c)
                 for v, c in zip(videos, init.constraints)]
        psis = [feature_map(v.x, c, template)
                for v, c in zip(videos, init.completions)]
        _, info = cutting_plane(videos, psis, specs, template, cfg)
        assert info.converged
        assert info.violation <= info.xi + info.eps + 1e-12


def _cutting_plane_problem(C=1.0, **config):
    """The toy set's first convex problem: template, truth psis, loss specs
    and the trainer config."""
    spec, ds, videos = _training_set()
    cfg = TrainConfig(C=C, seed=0, supervision="temporal", beam=None,
                      **config)
    init = initialize(videos, spec.num_poselets, spec.num_actions, cfg)
    dims = ModelDims(R=2, K=spec.num_poselets, D=spec.dim,
                     A=init.dictionary.num_actionlets,
                     S=spec.num_actions, Y=spec.num_classes)
    template = ModelParams.zeros(dims, dictionary=init.dictionary)
    specs = [build_loss_spec(v, c) for v, c in zip(videos, init.constraints)]
    psis = [feature_map(v.x, c, template)
            for v, c in zip(videos, init.completions)]
    return videos, psis, specs, template, cfg


def _exact_violation(videos, psis, specs, template, cfg, W):
    """Violation at W of the constraint from a fresh exact oracle pass."""
    results = learning.loss_augmented_infer_many(
        [v.x for v in videos], template.with_flat(W), specs, cfg.lambda_y,
        cfg.lambda_v)
    g = np.mean(psis, axis=0) - np.mean(
        [feature_map(v.x, r.labeling, template)
         for v, r in zip(videos, results)], axis=0)
    delta = np.mean([loss_value(r.labeling, s, cfg.lambda_y, cfg.lambda_v)
                     for r, s in zip(results, specs)])
    return delta - float(W @ g)


def _count_passes(monkeypatch):
    """Record the W of every exact oracle pass the trainer makes."""
    seen = []
    exact = learning.loss_augmented_infer_many

    def counted(xs, params, *args, **kwargs):
        seen.append(params.flatten().copy())
        return exact(xs, params, *args, **kwargs)

    monkeypatch.setattr(learning, "loss_augmented_infer_many", counted)
    return seen


class TestCachedOracle:
    def test_converged_solve_holds_against_a_fresh_exact_pass(self):
        problem = _cutting_plane_problem()
        W, info = cutting_plane(*problem)
        assert info.converged
        violation = _exact_violation(*problem, W)
        assert violation <= info.xi + info.eps + 1e-9
        assert info.cached_steps > 0

    def test_cached_violation_never_exceeds_exact(self):
        videos, psis, specs, template, cfg = _cutting_plane_problem()
        cache = learning.ViolatorCache(videos, specs, template, cfg)
        W, _ = cutting_plane(videos, psis, specs, template, cfg, cache=cache)
        truth = np.mean(psis, axis=0)
        rng = np.random.default_rng(5)
        for point in (W, 0.5 * W, np.zeros_like(W),
                      W + rng.normal(scale=0.1, size=W.shape)):
            g, delta = cache.constraint(point, truth)
            cached = delta - float(point @ g)
            exact = _exact_violation(videos, psis, specs, template, cfg,
                                     point)
            assert cached <= exact + 1e-9 * max(1.0, abs(exact))
        # where the last exact pass ran, the cache holds its violators
        g, delta = cache.constraint(cache.pass_W, truth)
        assert delta - float(cache.pass_W @ g) == pytest.approx(
            _exact_violation(videos, psis, specs, template, cfg,
                             cache.pass_W), rel=1e-9, abs=1e-9)

    def test_cache_stays_within_its_bound(self, monkeypatch):
        monkeypatch.setattr(learning, "CACHE_SIZE", 3)
        videos, psis, specs, template, cfg = _cutting_plane_problem()
        cache = learning.ViolatorCache(videos, specs, template, cfg)
        _, info = cutting_plane(videos, psis, specs, template, cfg,
                                cache=cache)
        assert info.converged
        assert info.oracle_passes > 3
        assert cache.psis.shape[1] == 3
        assert (cache.count <= 3).all() and cache.count.max() == 3

    def test_train_never_passes_one_w_twice(self, monkeypatch):
        seen = _count_passes(monkeypatch)
        spec, ds, videos = _training_set()
        cfg = TrainConfig(C=10.0, seed=0, supervision="temporal", beam=None,
                          max_cccp_iters=3)
        init = initialize(videos, spec.num_poselets, spec.num_actions, cfg)
        dims = ModelDims(R=2, K=spec.num_poselets, D=spec.dim,
                         A=init.dictionary.num_actionlets,
                         S=spec.num_actions, Y=spec.num_classes)
        result = train(videos, dims, cfg, init)
        assert len(result.cp_infos) >= 2
        assert len({W.tobytes() for W in seen}) == len(seen)
        # converged solves hand their last pass to the objective, so only
        # the pass at W = 0 falls outside the solves
        assert all(info.converged for info in result.cp_infos)
        assert len(seen) == 1 + sum(i.oracle_passes for i in result.cp_infos)

    def test_cap_counts_exact_passes(self, monkeypatch):
        problem = _cutting_plane_problem(max_cutting_plane_iters=4)
        seen = _count_passes(monkeypatch)
        _, info = cutting_plane(*problem)
        assert not info.converged
        assert len(seen) == info.oracle_passes == 4
        assert info.cached_steps > 0
        assert info.iterations == 4 + info.cached_steps


class TestWorkingSet:
    def test_solver_maximizes_small_qp(self):
        # one constraint: max d*a - a^2*g/2 s.t. 0 <= a <= C
        ws = _WorkingSet(C=10.0)
        g = np.array([2.0, 0.0])
        ws.add(g, 3.0)                  # optimum alpha = 3 / |g|^2 = 0.75
        ws.solve()
        assert ws.alpha[0] == pytest.approx(0.75, abs=1e-9)
        np.testing.assert_allclose(ws.weights(), [1.5, 0.0], atol=1e-9)

    def test_simplex_cap_binds(self):
        ws = _WorkingSet(C=0.5)
        ws.add(np.array([2.0, 0.0]), 3.0)
        ws.solve()
        assert ws.alpha[0] == pytest.approx(0.5, abs=1e-9)

    def test_optimum_improves_with_constraints(self):
        rng = np.random.default_rng(4)
        ws = _WorkingSet(C=2.0)
        prev = 0.0
        for _ in range(12):
            ws.add(rng.normal(size=4), float(rng.uniform(0.5, 2.0)))
            value = ws.solve()
            assert value >= prev - 1e-10
            prev = value


class TestTrain:
    def test_zero_outer_iterations_returns_zero_weights(self):
        spec, ds, videos = _training_set()
        cfg = TrainConfig(seed=0, supervision="temporal", beam=None,
                          max_cccp_iters=0)
        init = initialize(videos, spec.num_poselets, spec.num_actions, cfg)
        dims = ModelDims(R=2, K=spec.num_poselets, D=spec.dim,
                         A=init.dictionary.num_actionlets,
                         S=spec.num_actions, Y=spec.num_classes)
        result = train(videos, dims, cfg, init)
        assert not result.params.flatten().any()
        assert len(result.objective_trace) == 1

    def test_objective_trace_nonincreasing_exact(self):
        spec, ds, videos = _training_set()
        cfg = TrainConfig(C=10.0, seed=0, supervision="temporal", beam=None,
                          max_cccp_iters=3, max_cutting_plane_iters=400)
        init = initialize(videos, spec.num_poselets, spec.num_actions, cfg)
        dims = ModelDims(R=2, K=spec.num_poselets, D=spec.dim,
                         A=init.dictionary.num_actionlets,
                         S=spec.num_actions, Y=spec.num_classes)
        result = train(videos, dims, cfg, init)
        trace = result.objective_trace
        assert len(trace) >= 2
        for a, b in zip(trace, trace[1:]):
            assert b <= a + 1e-9

    def test_no_completion_after_the_last_step(self, monkeypatch):
        calls = []
        impute = learning.impute_latents
        monkeypatch.setattr(learning, "impute_latents",
                            lambda *a, **k: calls.append(1) or impute(*a, **k))
        spec, ds, videos = _training_set()
        cfg = TrainConfig(C=10.0, seed=0, supervision="temporal", beam=None,
                          max_cccp_iters=2)
        init = initialize(videos, spec.num_poselets, spec.num_actions, cfg)
        dims = ModelDims(R=2, K=spec.num_poselets, D=spec.dim,
                         A=init.dictionary.num_actionlets,
                         S=spec.num_actions, Y=spec.num_classes)
        result = train(videos, dims, cfg, init)
        assert result.stopped_reason == "max_cccp_iters"
        # step 2 reads the completion made after step 1; none reads later
        assert len(result.cp_infos) == 2 and len(calls) == 1

    def test_video_supervision_trains(self):
        spec, ds, videos = _training_set()
        cfg = TrainConfig(C=10.0, seed=0, supervision="video", beam=None,
                          max_cccp_iters=1, max_cutting_plane_iters=120)
        init = initialize(videos, spec.num_poselets, spec.num_actions, cfg)
        dims = ModelDims(R=2, K=spec.num_poselets, D=spec.dim,
                         A=init.dictionary.num_actionlets,
                         S=spec.num_actions, Y=spec.num_classes)
        result = train(videos, dims, cfg, init)
        assert np.isfinite(result.objective_trace).all()
