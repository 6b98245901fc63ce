import tracemalloc
import warnings

import numpy as np
import pytest

from hieract.descriptors import (GEO_DIM, build_descriptors, fit_pca,
                                 geo_descriptors, lift_2d,
                                 load_motion_sidecar, velocity_descriptors)
from hieract.skeleton import (KINECT20, PUPPET15, SchemaError,
                              SkeletonSequence, get_schema)


def _frame_with(positions: dict) -> np.ndarray:
    """One kinect20 frame with the named joints placed; rest spread out so
    no segment degenerates accidentally."""
    joints = np.array([[0.01 * (j + 1), 0.02 * (j + 1), 0.03 * (j + 1)]
                       for j in range(20)])
    for name, pos in positions.items():
        joints[KINECT20.joint_index(name)] = pos
    return joints


def _left_arm(joints: np.ndarray):
    """geo_descriptors' arguments for the left arm of a one-frame pose."""
    seq = SkeletonSequence(video_id="v", schema="kinect20",
                           joints=joints[None, :, :])
    return seq, KINECT20, KINECT20.regions[0]


def _random_pose(rng):
    return rng.normal(scale=0.6, size=(20, 3))


class TestGeoDescriptor:
    def test_identical_directions_give_zero(self):
        # wrist->elbow and wrist->shoulder made parallel
        joints = _frame_with({"left_wrist": (0, 0, 0),
                              "left_elbow": (1, 0, 0),
                              "left_shoulder": (2, 0, 0)})
        angles = geo_descriptors(*_left_arm(joints))[0][0]
        # pair (0, 3) = (wrist-elbow, wrist-shoulder) sits at column 2
        assert angles[2] == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_pair(self):
        joints = _frame_with({"left_wrist": (0, 0, 0),
                              "left_elbow": (1, 0, 0),
                              "left_shoulder": (1, 1, 0)})
        angles = geo_descriptors(*_left_arm(joints))[0][0]
        # pair (0, 1) = (wrist-elbow, elbow-shoulder) is the first column
        assert angles[0] == pytest.approx(np.pi / 2, abs=1e-12)

    def test_quarter_pi_pair(self):
        joints = _frame_with({"left_wrist": (0, 0, 0),
                              "left_elbow": (1, 0, 0),
                              "left_shoulder": (1, 1, 0)})
        angles = geo_descriptors(*_left_arm(joints))[0][0]
        # wrist->shoulder = (1,1,0) against wrist->elbow = (1,0,0)
        assert angles[2] == pytest.approx(np.pi / 4, rel=1e-12)

    def test_ranges(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            angles, _ = geo_descriptors(*_left_arm(_random_pose(rng)))
            assert np.all(angles[:, :15] >= 0)
            assert np.all(angles[:, :15] <= np.pi + 1e-12)
            assert np.all(angles[:, 15:] >= 0)
            assert np.all(angles[:, 15:] <= np.pi / 2 + 1e-12)

    def test_translation_and_scale_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            joints = _random_pose(rng)
            base, _ = geo_descriptors(*_left_arm(joints))
            shifted = joints * rng.uniform(0.5, 3.0) + rng.normal(size=3)
            moved, _ = geo_descriptors(*_left_arm(shifted))
            np.testing.assert_allclose(moved, base, atol=1e-9)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            joints = _random_pose(rng)
            base, _ = geo_descriptors(*_left_arm(joints))
            # random rotation from QR of a Gaussian matrix
            Q, _r = np.linalg.qr(rng.normal(size=(3, 3)))
            if np.linalg.det(Q) < 0:
                Q[:, 0] = -Q[:, 0]
            rotated, _ = geo_descriptors(*_left_arm(joints @ Q.T))
            np.testing.assert_allclose(rotated, base, atol=1e-9)

    def test_degenerate_segment_flagged_as_zero(self):
        joints = _frame_with({"left_wrist": (0.5, 0.5, 0.5),
                              "left_elbow": (0.5, 0.5, 0.5)})
        angles, degenerate = geo_descriptors(*_left_arm(joints))
        assert degenerate[0]
        assert angles[0][0] == 0.0  # pair with the zero-length segment

    def test_needs_3d(self):
        seq = SkeletonSequence(video_id="v", schema="puppet15",
                               joints=np.zeros((1, 15, 2)))
        with pytest.raises(SchemaError, match="lift"):
            geo_descriptors(seq, PUPPET15, PUPPET15.regions[0])


class TestVelocityDescriptor:
    def test_static_skeleton_zero(self):
        coords = np.ones((9, 4, 3))
        assert not velocity_descriptors(coords, window=2).any()

    def test_constant_velocity(self):
        T, J, w = 9, 2, 1
        coords = np.zeros((T, J, 3))
        coords[:, :, 0] = 0.1 * np.arange(T)[:, None]
        desc = velocity_descriptors(coords, window=w)
        mid = desc[4].reshape(J, 2 * w + 1, 3)
        np.testing.assert_allclose(mid[:, :, 0], 0.1, atol=1e-12)
        np.testing.assert_allclose(mid[:, :, 1:], 0.0, atol=1e-12)

    def test_boundary_uses_forward_difference(self):
        coords = np.zeros((4, 1, 3))
        coords[:, 0, 0] = [0.0, 1.0, 1.0, 1.0]
        desc = velocity_descriptors(coords, window=0)
        assert desc[0, 0] == pytest.approx(1.0)   # forward diff at t=0
        assert desc[1, 0] == pytest.approx(0.5)   # central diff
        assert desc[3, 0] == pytest.approx(0.0)   # backward diff at end

    def test_time_reversal_negates(self):
        # Reversing time negates every central difference and flips the
        # window-offset axis.
        rng = np.random.default_rng(3)
        coords = rng.normal(size=(11, 3, 3))
        w = 2
        T = coords.shape[0]
        fwd = velocity_descriptors(coords, window=w)
        rev = velocity_descriptors(coords[::-1], window=w)
        fwd_steps = fwd.reshape(T, 3, 2 * w + 1, 3)
        rev_steps = rev.reshape(T, 3, 2 * w + 1, 3)
        np.testing.assert_allclose(
            rev_steps[::-1], -fwd_steps[:, :, ::-1, :], atol=1e-12)

    def test_single_frame_is_zero(self):
        assert not velocity_descriptors(np.ones((1, 5, 3)), window=7).any()


class TestPca:
    def test_line_data(self):
        rng = np.random.default_rng(4)
        direction = np.array([1.0, 2.0, -1.0])
        direction /= np.linalg.norm(direction)
        X = rng.normal(size=(200, 1)) * direction[None, :] + 5.0
        model = fit_pca(X, out_dim=1)
        cos = abs(float(model.components[:, 0] @ direction))
        assert cos == pytest.approx(1.0, abs=1e-9)
        total_var = np.trace(np.cov(X.T))
        assert model.explained_variance[0] == pytest.approx(total_var,
                                                            rel=1e-9)

    def test_isotropic_gaussian_ratio(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(3000, 3))
        model = fit_pca(X, out_dim=2)
        # oracle: eigenvalues of the sample covariance
        evals = np.sort(np.linalg.eigvalsh(np.cov(X.T)))[::-1]
        oracle_ratio = evals[:2].sum() / evals.sum()
        ratio = model.explained_variance.sum() / evals.sum()
        assert ratio == pytest.approx(oracle_ratio, abs=1e-9)
        assert abs(ratio - 2.0 / 3.0) < 0.1

    def test_projecting_the_mean_gives_zero(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(50, 4)) + 3.0
        model = fit_pca(X, out_dim=2)
        np.testing.assert_allclose(model.transform(X.mean(axis=0)),
                                   0.0, atol=1e-9)

    def test_reconstruction_error_nonincreasing_in_dim(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(80, 6)) @ rng.normal(size=(6, 6))
        prev = np.inf
        for dim in range(1, 6):
            model = fit_pca(X, out_dim=dim)
            Z = model.transform(X)
            recon = Z @ model.components.T + model.mean
            err = float(((X - recon) ** 2).sum())
            assert err <= prev + 1e-9
            prev = err

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(60, 5))
        model = fit_pca(X, out_dim=3)
        gram = model.components.T @ model.components
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-6)

    def test_rank_deficient_pads_and_warns(self):
        X = np.zeros((30, 4))
        X[:, 0] = np.arange(30)
        with pytest.warns(RuntimeWarning, match="rank"):
            model = fit_pca(X, out_dim=3)
        assert not model.components[:, 1:].any()

    def test_needs_enough_samples(self):
        with pytest.raises(ValueError):
            fit_pca(np.zeros((3, 5)), out_dim=3)


def _svd_reference(X, out_dim):
    """Thin-SVD PCA of X: (variances, sign-fixed components, rank), the
    rank counting singular values above 1e-6 of the largest."""
    n = X.shape[0]
    _, svals, vt = np.linalg.svd(X - X.mean(axis=0), full_matrices=False)
    rank = int(np.sum(svals > 1e-6 * svals[0])) if svals[0] > 0 else 0
    keep = min(out_dim, rank)
    comps = vt[:keep].T.copy()
    pivots = np.argmax(np.abs(comps), axis=0)
    comps *= np.sign(comps[pivots, np.arange(keep)])
    return svals[:keep] ** 2 / (n - 1), comps, keep


class TestPcaSolver:
    """``fit_pca`` against a thin SVD of the centred data."""

    def _check(self, X, out_dim):
        variances, comps, keep = _svd_reference(X, out_dim)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model = fit_pca(X, out_dim=out_dim)
        rank_warnings = [w for w in caught
                         if issubclass(w.category, RuntimeWarning)
                         and "rank" in str(w.message)]
        assert len(rank_warnings) == (keep < out_dim)
        np.testing.assert_allclose(model.explained_variance[:keep],
                                   variances, rtol=1e-9)
        np.testing.assert_allclose(model.components[:, :keep], comps,
                                   atol=1e-9)
        assert not model.components[:, keep:].any()
        assert not model.explained_variance[keep:].any()
        return keep, model

    @staticmethod
    def _spread(rng, n, d):
        """n rows of d columns with distinct, well separated variances."""
        scales = np.geomspace(4.0, 0.1, d)
        basis = np.linalg.qr(rng.normal(size=(d, d)))[0]
        return rng.normal(size=(n, d)) * scales @ basis.T + 1.5

    @pytest.mark.parametrize("n,d", [(600, 40), (3000, 180)])
    def test_more_rows_than_columns(self, n, d):
        X = self._spread(np.random.default_rng(n), n, d)
        assert self._check(X, 20)[0] == 20

    @pytest.mark.parametrize("d", [180, 432])
    def test_fewer_rows_than_columns(self, d):
        rng = np.random.default_rng(d)
        X = rng.normal(size=(40, 40)) * np.geomspace(3.0, 0.3, 40) \
            @ rng.normal(size=(40, d)) + 0.5
        assert self._check(X, 20)[0] == 20

    @pytest.mark.parametrize("n", [200, 30])
    def test_exactly_zero_directions_are_padded(self, n):
        # lifted 2-D velocity: the z column of every joint and offset is 0
        rng = np.random.default_rng(n)
        X = np.zeros((n, 3 * 12))
        X[:, 0::3] = rng.normal(size=(n, 12))
        X[:, 1::3] = rng.normal(size=(n, 12))
        assert self._check(X, 26)[0] == 24

    def test_constant_data_keeps_nothing(self):
        X = np.full((50, 6), 3.0)
        keep, model = self._check(X, 4)
        assert keep == 0
        np.testing.assert_array_equal(model.transform(X), 0.0)

    def test_fit_allocates_no_factor_of_the_data_size(self):
        # a thin SVD builds an (n, d) U next to the centred copy
        X = self._spread(np.random.default_rng(1), 3000, 180)
        tracemalloc.start()
        try:
            fit_pca(X, out_dim=20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * X.nbytes


class TestLift2d:
    def _seq(self, positions: dict):
        schema = get_schema("puppet15")
        joints = np.zeros((1, 15, 2))
        for name, pos in positions.items():
            joints[0, schema.joint_index(name)] = pos
        return SkeletonSequence(video_id="v", schema="puppet15",
                                joints=joints)

    def test_wrist_gets_positive_depth(self):
        lifted = lift_2d(self._seq({"left_wrist": (3.0, 4.0)}), depth=30.0)
        joint = lifted.joints[0, PUPPET15.joint_index("left_wrist")]
        np.testing.assert_allclose(joint, (3, 4, 30))

    def test_head_stays_at_zero_depth(self):
        lifted = lift_2d(self._seq({"head": (0.0, 0.0)}), depth=30.0)
        joint = lifted.joints[0, PUPPET15.joint_index("head")]
        np.testing.assert_allclose(joint, (0, 0, 0))

    def test_elbow_gets_negative_depth(self):
        lifted = lift_2d(self._seq({"right_elbow": (1.0, 1.0)}), depth=5.0)
        joint = lifted.joints[0, PUPPET15.joint_index("right_elbow")]
        np.testing.assert_allclose(joint, (1, 1, -5))


class TestBuildDescriptors:
    def _sequence(self, T=40):
        rng = np.random.default_rng(9)
        joints = rng.normal(scale=0.4, size=(T, 20, 3)).cumsum(axis=0) * 0.05
        joints += rng.normal(scale=0.5, size=(1, 20, 3))
        return SkeletonSequence(video_id="v", schema="kinect20",
                                joints=joints)

    def test_geo_only_dimension(self):
        x = build_descriptors(self._sequence())
        assert x.shape == (40, 4, GEO_DIM)

    def test_default_mode_dimension(self):
        from hieract.descriptors import raw_motion_vectors

        seq = self._sequence()
        schema = get_schema("kinect20")
        raw = raw_motion_vectors(seq, schema, "velocity", window=7)
        pca = [fit_pca(raw[r], out_dim=20) for r in range(4)]
        x = build_descriptors(seq, motion=raw, pca_models=pca)
        assert x.shape == (40, 4, 38)

    def test_precomputed_mode_dimension(self):
        from hieract.descriptors import raw_motion_vectors

        seq = self._sequence()
        schema = get_schema("kinect20")
        rng = np.random.default_rng(10)
        sidecar = rng.normal(size=(seq.num_frames, 20, 108))
        raw = raw_motion_vectors(seq, schema, "precomputed", sidecar=sidecar)
        assert raw[0].shape == (40, 4 * 108)
        pca = [fit_pca(raw[r], out_dim=20) for r in range(4)]
        x = build_descriptors(seq, motion=raw, pca_models=pca)
        assert x.shape == (40, 4, 38)

    def test_motion_modes_require_pca(self):
        from hieract.descriptors import raw_motion_vectors

        seq = self._sequence()
        raw = raw_motion_vectors(seq, get_schema("kinect20"), "velocity")
        with pytest.raises(ValueError, match="PCA"):
            build_descriptors(seq, motion=raw)

    def test_deterministic(self):
        a = build_descriptors(self._sequence())
        b = build_descriptors(self._sequence())
        np.testing.assert_array_equal(a, b)


class TestMotionSidecar:
    def test_roundtrip_values(self):
        import json as _json

        lines = [_json.dumps({"t": 1, "joint": 2, "feat": [1.0, 2.0]}),
                 _json.dumps({"t": 0, "joint": 0, "feat": [3.0, 4.0]})]
        arr = load_motion_sidecar("\n".join(lines), num_frames=2,
                                  num_joints=3)
        assert arr.shape == (2, 3, 2)
        np.testing.assert_allclose(arr[1, 2], (1, 2))
        np.testing.assert_allclose(arr[0, 0], (3, 4))
        assert not arr[0, 1].any()

    @pytest.mark.parametrize("t, joint, fault", [
        (-1, 0, "t -1 outside 0..1"), (2, 0, "t 2 outside 0..1"),
        (0, 3, "joint 3 outside 0..2"), (0, -1, "joint -1 outside 0..2")])
    def test_record_outside_the_video_rejected(self, t, joint, fault):
        import json as _json

        lines = [_json.dumps({"t": 0, "joint": 0, "feat": [1.0]}),
                 _json.dumps({"t": t, "joint": joint, "feat": [2.0]})]
        with pytest.raises(SchemaError, match=f"line 2: {fault}"):
            load_motion_sidecar("\n".join(lines), num_frames=2,
                                num_joints=3)

    @pytest.mark.parametrize("bad_line, fault", [
        ("not json", "line 2: invalid JSON"),
        ('{"joint": 0, "feat": [1.0]}', "line 2: record needs"),
        ('{"t": 0, "feat": [1.0]}', "line 2: record needs"),
        ('{"t": 0, "joint": 0}', "line 2: record needs"),
        ("[0, 0, [1.0]]", "line 2: record needs")],
        ids=["not-json", "no-t", "no-joint", "no-feat", "not-an-object"])
    def test_malformed_record_names_the_line(self, bad_line, fault):
        import json as _json

        text = _json.dumps({"t": 0, "joint": 0, "feat": [1.0]}) + "\n" \
            + bad_line + "\n"
        with pytest.raises(SchemaError, match=fault):
            load_motion_sidecar(text, num_frames=2, num_joints=3)

    def test_inconsistent_length_rejected(self):
        import json as _json

        lines = [_json.dumps({"t": 0, "joint": 0, "feat": [1.0]}),
                 _json.dumps({"t": 0, "joint": 1, "feat": [1.0, 2.0]})]
        with pytest.raises(SchemaError):
            load_motion_sidecar("\n".join(lines), 1, 2)
