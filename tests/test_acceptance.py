"""Acceptance suite: one test per criterion, each printing a PASS line.

The default-scale synthetic training run is shared by the monotonicity and
recovery criteria through a module-scoped fixture; everything else builds
its own fixtures at the scale its tolerances demand.
"""
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import brute_force, check_feasible, detection_pr, random_params

from hieract.dictionaries import scree_count
from hieract.energy import (Labeling, ModelDims, ModelParams, energy_total,
                            feature_map)
from hieract.evaluation import (DetectionCriterion, SyntheticSpec,
                                plant_synthetic)
from hieract.inference import infer
from hieract.learning import (TrainConfig, TrainingVideo, assign_regions,
                              build_loss_spec, cutting_plane, initialize,
                              solve_p1, train)
from hieract.skeleton import ActionInterval


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] {description}: FAIL")
        raise
    print(f"[criterion {number:2d}] {description}: PASS")


def _random_instance(rng):
    T = int(rng.integers(1, 6))
    dims = ModelDims(R=int(rng.integers(1, 3)),
                     K=int(rng.integers(1, 4)), D=3,
                     A=int(rng.integers(1, 4)),
                     S=int(rng.integers(1, 3)),
                     Y=int(rng.integers(1, 4)))
    if dims.A < dims.S:
        dims = ModelDims(R=dims.R, K=dims.K, D=3, A=dims.S, S=dims.S,
                         Y=dims.Y)
    params = random_params(dims, rng)
    x = rng.normal(size=(T, dims.R, dims.D))
    return x, params


def _split(dataset, train_per_class):
    train_videos, test_videos = [], []
    for video in dataset.videos:
        index = int(video.video_id.rsplit("_", 1)[1])
        (train_videos if index < train_per_class
         else test_videos).append(video)
    return train_videos, test_videos


def _fit(train_videos, spec, config):
    videos = [TrainingVideo(video_id=v.video_id, x=v.x, y=v.y,
                            intervals=list(v.intervals))
              for v in train_videos]
    init = initialize(videos, spec.num_poselets, spec.num_actions, config)
    dims = ModelDims(R=spec.num_regions, K=spec.num_poselets, D=spec.dim,
                     A=init.dictionary.num_actionlets,
                     S=spec.num_actions, Y=spec.num_classes)
    return train(videos, dims, config, init)


@pytest.fixture(scope="module")
def default_run():
    """Default-spec synthetic training with exact inference (B unlimited),
    shared by the CCCP-monotonicity and recovery criteria."""
    spec = SyntheticSpec()
    extended = SyntheticSpec(**{**spec.__dict__,
                                "videos_per_class": spec.videos_per_class + 5})
    dataset = plant_synthetic(extended)
    train_videos, test_videos = _split(dataset, spec.videos_per_class)
    config = TrainConfig(C=10.0, seed=0, supervision="temporal", beam=None,
                         max_cccp_iters=3, max_cutting_plane_iters=400)
    t0 = time.time()
    result = _fit(train_videos, spec, config)
    elapsed = time.time() - t0
    return {"result": result, "test_videos": test_videos,
            "train_videos": train_videos, "seconds": elapsed}


class TestCriterion1:
    def test_oracle_equivalence(self):
        with criterion(1, "exact DP matches brute-force enumeration"):
            rng = np.random.default_rng(1001)
            t0 = time.time()
            for _ in range(200):
                x, params = _random_instance(rng)
                dp = infer(x, params)
                oracle = brute_force(x, params)
                assert dp.y == oracle.y
                np.testing.assert_array_equal(dp.labeling.z,
                                              oracle.labeling.z)
                np.testing.assert_array_equal(dp.labeling.v,
                                              oracle.labeling.v)
                assert dp.score == oracle.score
            assert time.time() - t0 < 60.0


class TestCriterion2:
    def test_energy_identity(self):
        with criterion(2, "<W, psi> equals the energy within 1e-10"):
            rng = np.random.default_rng(1002)
            for _ in range(100):
                x, params = _random_instance(rng)
                T = x.shape[0]
                z = rng.integers(0, params.dims.K + 1,
                                 size=(T, params.dims.R))
                v = rng.integers(0, params.dims.A, size=(T, params.dims.R))
                labeling = Labeling(z=z, v=v, y=int(rng.integers(params.dims.Y)))
                psi = feature_map(x, labeling, params)
                lhs = float(params.flatten() @ psi)
                rhs = energy_total(x, labeling, params)
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


class TestCriterion3:
    def test_beam_soundness(self):
        with criterion(3, "full beam is exact; narrow beam never wins"):
            rng = np.random.default_rng(1003)
            for _ in range(50):
                x, params = _random_instance(rng)
                full = params.num_poselet_states * params.dims.A
                exact = infer(x, params)
                at_full = infer(x, params, beam=full)
                assert at_full.y == exact.y
                np.testing.assert_array_equal(at_full.labeling.z,
                                              exact.labeling.z)
                np.testing.assert_array_equal(at_full.labeling.v,
                                              exact.labeling.v)
                assert at_full.score == exact.score
                for beam in (1, max(1, full // 2)):
                    narrowed = infer(x, params, beam=beam)
                    assert narrowed.score <= exact.score + 1e-9


class TestCriterion4:
    def test_cccp_objective_nonincreasing(self, default_run):
        with criterion(4, "CCCP objective trace non-increasing (exact)"):
            trace = default_run["result"].objective_trace
            assert len(trace) >= 2
            for earlier, later in zip(trace, trace[1:]):
                assert later <= earlier + 1e-9


class TestCriterion5:
    def test_cutting_plane_termination(self):
        with criterion(5, "cutting-plane terminates within eps; dual "
                          "non-decreasing"):
            spec = SyntheticSpec(
                num_classes=2, num_actions=2, num_actionlets=2,
                num_poselets=3, num_regions=2, dim=5,
                frames_range=(14, 18), videos_per_class=4, sigma=0.05,
                seed=7, actions_per_class=1)
            dataset = plant_synthetic(spec)
            videos = [TrainingVideo(video_id=v.video_id, x=v.x, y=v.y,
                                    intervals=list(v.intervals))
                      for v in dataset.videos]
            config = TrainConfig(C=1.0, seed=0, supervision="temporal",
                                 beam=None, max_cutting_plane_iters=400)
            init = initialize(videos, spec.num_poselets, spec.num_actions,
                              config)
            dims = ModelDims(R=2, K=spec.num_poselets, D=spec.dim,
                             A=init.dictionary.num_actionlets,
                             S=spec.num_actions, Y=spec.num_classes)
            template = ModelParams.zeros(dims, dictionary=init.dictionary)
            specs = [build_loss_spec(v, c)
                     for v, c in zip(videos, init.constraints)]
            psis = [feature_map(v.x, comp, template)
                    for v, comp in zip(videos, init.completions)]
            W, info = cutting_plane(videos, psis, specs, template, config)
            assert info.converged
            assert info.violation <= info.xi + info.eps + 1e-12
            # every working-set constraint is satisfied within the slack
            assert info.xi >= 0.0
            assert np.isfinite(W).all()
            for earlier, later in zip(info.dual_trace, info.dual_trace[1:]):
                assert later >= earlier - 1e-10


class TestCriterion6:
    def test_p1_feasibility_descent_and_examples(self):
        with criterion(6, "P1 feasible, descending, and enumerable "
                          "examples reproduce"):
            # enumerable example 1: no pace reward -> cheapest single region
            b, ok = assign_regions(np.array([[0.1], [5.0]]), [],
                                   inv_lambda=0.0)
            assert ok
            np.testing.assert_array_equal(b, [[True], [False]])
            # enumerable example 2: pace reward 6 -> both regions claimed
            b, ok = assign_regions(np.array([[0.1], [5.0]]), [],
                                   inv_lambda=6.0)
            assert ok
            np.testing.assert_array_equal(b, [[True], [True]])

            rng = np.random.default_rng(1006)
            from hieract.learning import AssignmentProblem

            problems = []
            for m in range(5):
                Q = int(rng.integers(2, 5))
                hists = rng.random((2, Q, 6))
                hists /= hists.sum(axis=2, keepdims=True)
                starts = np.sort(rng.integers(0, 40, size=Q))
                intervals = [ActionInterval(int(rng.integers(0, 3)),
                                            int(s), int(s) + 8)
                             for s in starts]
                problems.append(AssignmentProblem(
                    video_id=f"m{m}", intervals=intervals, histograms=hists))
            result = solve_p1(problems, num_actions=3)
            assert check_feasible(result, problems) == []
            for trace in result.objective_trace:
                for earlier, later in zip(trace, trace[1:]):
                    assert later <= earlier + 1e-9


class TestCriterion7:
    def test_scree_rule(self):
        with criterion(7, "scree worked example and scale invariance"):
            assert scree_count(np.array([9.0, 3.0, 1.0, 0.1, 0.01]),
                               c=2e-3) == 3
            rng = np.random.default_rng(1007)
            n = 8
            gammas = (0.1, 10.0)
            checked = 0
            trials = 0
            while checked < 50 and trials < 2000:
                trials += 1
                lam = np.sort(rng.random(n))[::-1] * rng.uniform(0.5, 20)
                first = np.array([lam[i] ** 2 / lam[:i].sum()
                                  for i in range(1, n)])
                ordered = np.sort(first)
                if (ordered[1] - ordered[0]) * min(gammas) <= 2e-3 * n:
                    continue
                checked += 1
                g = scree_count(lam)
                for gamma in gammas:
                    assert scree_count(lam * gamma) == g
            assert checked == 50


class TestCriterion8:
    def test_synthetic_recovery(self, default_run):
        with criterion(8, "temporal-supervision recovery on held-out "
                          "synthetic"):
            result = default_run["result"]
            test_videos = default_run["test_videos"]
            hits = 0
            u_hits = 0
            u_total = 0
            u_of_v = result.params.u_of_v()
            for video in test_videos:
                res = infer(video.x, result.params)
                hits += res.y == video.y
                u_pred = u_of_v[res.labeling.v]
                u_hits += int((u_pred == video.u).sum())
                u_total += video.u.size
            video_acc = hits / len(test_videos)
            u_acc = u_hits / u_total
            print(f"  video accuracy {video_acc:.3f}, frame u accuracy "
                  f"{u_acc:.3f}, train time {default_run['seconds']:.0f}s")
            assert video_acc >= 0.90
            assert u_acc >= 0.80
            assert default_run["seconds"] < 600.0


class TestCriterion9:
    def test_garbage_collector_helps_under_noise(self):
        with criterion(9, "garbage collector gives a positive accuracy "
                          "margin under 20% noise"):
            def run(seed, use_gc):
                spec = SyntheticSpec(
                    num_classes=3, num_actions=3, num_actionlets=3,
                    num_poselets=4, num_regions=2, dim=6,
                    frames_range=(18, 26), videos_per_class=18,
                    sigma=0.05, noise_frame_fraction=0.2, noise_box=1.5,
                    seed=seed)
                dataset = plant_synthetic(spec)
                train_videos, test_videos = _split(dataset, 6)
                config = TrainConfig(C=10.0, seed=0,
                                     supervision="temporal", beam=None,
                                     use_gc=use_gc, max_cccp_iters=2,
                                     max_cutting_plane_iters=200)
                result = _fit(train_videos, spec, config)
                hits = sum(infer(v.x, result.params).y == v.y
                           for v in test_videos)
                return hits / len(test_videos)

            margins = []
            for seed in range(5):
                margin = run(seed, True) - run(seed, False)
                margins.append(margin)
                print(f"  seed {seed}: margin {margin:+.3f}")
            assert np.mean(margins) > 0.0


class TestCriterion10:
    def test_detection_rule(self):
        with criterion(10, "60%-overlap detection rule"):
            # IoU exactly 0.5 with no containment: false positive
            pred = [ActionInterval(0, 0, 9)]
            truth = [ActionInterval(0, 0, 4)]
            assert detection_pr(pred, truth) == (0.0, 0.0)
            # complete containment: true positive despite low IoU
            pred = [ActionInterval(0, 1, 3)]
            truth = [ActionInterval(0, 0, 9)]
            assert detection_pr(pred, truth) == (1.0, 1.0)
            # the containment clause is the only difference
            off = DetectionCriterion(containment_counts=False)
            assert detection_pr(pred, truth, off) == (0.0, 0.0)


class TestCriterion11:
    def test_descriptor_invariances(self):
        with criterion(11, "GEO invariances and dimensionality switches"):
            from hieract.descriptors import (build_descriptors, fit_pca,
                                             geo_descriptors,
                                             raw_motion_vectors)
            from hieract.skeleton import KINECT20, SkeletonSequence

            rng = np.random.default_rng(1011)
            for _ in range(100):
                joints = rng.normal(scale=0.6, size=(1, 20, 3))
                seq = SkeletonSequence(video_id="v", schema="kinect20",
                                       joints=joints)
                r = int(rng.integers(4))
                base, _ = geo_descriptors(seq, KINECT20, KINECT20.regions[r])
                Q, _unused = np.linalg.qr(rng.normal(size=(3, 3)))
                if np.linalg.det(Q) < 0:
                    Q[:, 0] = -Q[:, 0]
                moved = joints @ Q.T * rng.uniform(0.5, 2.0) \
                    + rng.normal(size=3)
                seq2 = SkeletonSequence(video_id="v", schema="kinect20",
                                        joints=moved)
                transformed, _ = geo_descriptors(seq2, KINECT20,
                                                 KINECT20.regions[r])
                np.testing.assert_allclose(transformed, base, atol=1e-9)

            # dimensionality switches per config
            drift = rng.normal(scale=0.3, size=(40, 20, 3)).cumsum(0) * 0.05
            drift += rng.normal(scale=0.5, size=(1, 20, 3))
            seq = SkeletonSequence(video_id="v", schema="kinect20",
                                   joints=drift)
            geo_only = build_descriptors(seq)
            assert geo_only.shape[2] == 18
            raw = raw_motion_vectors(seq, KINECT20, "velocity", window=7)
            pca = [fit_pca(raw[r], out_dim=20) for r in range(4)]
            full = build_descriptors(seq, motion=raw, pca_models=pca)
            assert full.shape[2] == 38
