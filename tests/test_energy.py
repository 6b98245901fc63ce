import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import make_dictionary, random_labeling_arrays, random_params

from hieract.energy import (Labeling, ModelDims, ModelParams, energy_pose,
                            energy_total, feature_map, load_model,
                            region_slices, save_model, transition_energy)


CHECKS = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
BLOCKS = ("alpha", "beta", "w", "gamma", "eta")


def _independent_model_reader():
    """The benchmark's model reader, which cuts the weight blocks from the
    model file without the library."""
    spec = importlib.util.spec_from_file_location("perfbench_checks", CHECKS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.read_model


def _single_frame_params():
    """T=1, R=1, K=1, A=1, Y=1, S=1 with hand-set weights."""
    dims = ModelDims(R=1, K=1, D=3, A=1, S=1, Y=1)
    params = ModelParams.zeros(dims, dictionary=make_dictionary(1, 1, 1))
    params.w[0][0] = [1.0, 0.0, 0.0]
    params.beta[0][0, 0] = 0.5   # (actionlet 0, poselet 0)
    params.beta[0][0, 1] = 0.8   # (actionlet 0, GC)
    params.alpha[0][0, 0] = 0.25
    params.theta[0] = -0.3
    return dims, params


class TestHandCases:
    def test_single_frame_energy(self):
        dims, params = _single_frame_params()
        x = np.zeros((1, 1, 3))
        x[0, 0] = [1.0, 0.0, 0.0]
        labeling = Labeling(z=[[0]], v=[[0]], y=0)
        # w.x + beta + alpha = 1 + 0.5 + 0.25, no transitions at T=1
        assert energy_total(x, labeling, params) == pytest.approx(1.75)

    def test_single_frame_gc_energy(self):
        dims, params = _single_frame_params()
        x = np.zeros((1, 1, 3))
        x[0, 0] = [1.0, 0.0, 0.0]
        labeling = Labeling(z=[[1]], v=[[0]], y=0)  # z = K -> GC
        # theta + beta[0, GC] + alpha = -0.3 + 0.8 + 0.25
        assert energy_total(x, labeling, params) == pytest.approx(0.75)

    def test_zero_params_zero_energy(self):
        rng = np.random.default_rng(0)
        dims = ModelDims(R=2, K=3, D=4, A=2, S=2, Y=2)
        params = ModelParams.zeros(dims, dictionary=make_dictionary(2, 2, 3))
        x = rng.normal(size=(5, 2, 4))
        z, v, y = random_labeling_arrays(dims, 5, rng)
        assert energy_total(x, Labeling(z=z, v=v, y=y), params) == 0.0

    def test_bow_actions_hand_case(self):
        dims = ModelDims(R=1, K=1, D=2, A=3, S=2, Y=1)
        params = ModelParams.zeros(dims, dictionary=make_dictionary(3, 2, 1))
        params.alpha[0][0, 1] = 0.1
        x = np.zeros((3, 1, 2))
        # all three frames on an actionlet mapping to action 1
        a = int(np.flatnonzero(params.u_of_v() == 1)[0])
        labeling = Labeling(z=np.zeros((3, 1), dtype=int),
                            v=np.full((3, 1), a), y=0)
        assert energy_total(x, labeling, params) == pytest.approx(0.3)

    def test_bow_actions_order_free(self):
        rng = np.random.default_rng(1)
        dims = ModelDims(R=1, K=2, D=2, A=3, S=2, Y=2)
        params = random_params(dims, rng)
        params.eta[0][:] = 0.0
        params.gamma[0][:] = 0.0
        params.w[0][:] = 0.0
        params.theta[:] = 0.0
        params.beta[0][:] = 0.0
        x = np.zeros((6, 1, 2))
        z, v, y = random_labeling_arrays(dims, 6, rng)
        base = energy_total(x, Labeling(z=z, v=v, y=y), params)
        perm = rng.permutation(6)
        shuffled = energy_total(x, Labeling(z=z[perm], v=v[perm], y=y),
                                params)
        assert shuffled == pytest.approx(base, rel=1e-12)


class TestEnergyPose:
    def test_all_gc_gives_t_theta(self):
        dims = ModelDims(R=1, K=2, D=3, A=1, S=1, Y=1)
        params = ModelParams.zeros(dims, dictionary=make_dictionary(1, 1, 2))
        params.theta[0] = -0.7
        x = np.ones((5, 1, 3))
        labeling = Labeling(z=np.full((5, 1), 2), v=np.zeros((5, 1), int),
                            y=0)
        assert energy_pose(x, labeling, params, 0) == pytest.approx(-3.5)

    def test_zero_row_contributes_nothing(self):
        dims = ModelDims(R=1, K=2, D=3, A=1, S=1, Y=1)
        params = ModelParams.zeros(dims, dictionary=make_dictionary(1, 1, 2))
        params.w[0][1] = [1.0, 1.0, 1.0]
        x = np.ones((4, 1, 3))
        labeling = Labeling(z=np.zeros((4, 1), int),
                            v=np.zeros((4, 1), int), y=0)
        assert energy_pose(x, labeling, params, 0) == 0.0

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            dims = ModelDims(R=2, K=3, D=4, A=2, S=2, Y=2)
            params = random_params(dims, rng)
            T = int(rng.integers(1, 8))
            x = rng.normal(size=(T, 2, 4))
            z, v, y = random_labeling_arrays(dims, T, rng)
            labeling = Labeling(z=z, v=v, y=y)
            for r in range(2):
                naive = 0.0
                for t in range(T):
                    if z[t, r] == dims.K:
                        naive += params.theta[r]
                    else:
                        naive += float(params.w[r][z[t, r]] @ x[t, r])
                assert energy_pose(x, labeling, params, r) == \
                    pytest.approx(naive, abs=1e-12)


class TestTransitions:
    def test_single_frame_zero(self):
        assert transition_energy(np.array([3]), np.ones((5, 5))) == 0.0

    def test_constant_sequence(self):
        weights = np.zeros((3, 3))
        weights[1, 1] = 0.25
        labels = np.full(7, 1)
        assert transition_energy(labels, weights) == pytest.approx(6 * 0.25)

    def test_gc_transitions_counted(self):
        # eta indexes range over K+1: transitions into and out of the GC
        # label carry weight
        dims = ModelDims(R=1, K=1, D=2, A=1, S=1, Y=1)
        params = ModelParams.zeros(dims, dictionary=make_dictionary(1, 1, 1))
        params.eta[0][0, 1] = 2.0
        params.eta[0][1, 0] = 3.0
        x = np.zeros((3, 1, 2))
        labeling = Labeling(z=np.array([[0], [1], [0]]),
                            v=np.zeros((3, 1), int), y=0)
        assert energy_total(x, labeling, params) == pytest.approx(5.0)


class TestFeatureMap:
    def test_inner_product_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            dims = ModelDims(R=int(rng.integers(1, 3)),
                             K=int(rng.integers(1, 4)), D=3,
                             A=int(rng.integers(1, 4)),
                             S=int(rng.integers(1, 3)),
                             Y=int(rng.integers(1, 3)))
            if dims.A < dims.S:
                continue
            params = random_params(dims, rng)
            T = int(rng.integers(1, 7))
            x = rng.normal(size=(T, dims.R, dims.D))
            z, v, y = random_labeling_arrays(dims, T, rng)
            labeling = Labeling(z=z, v=v, y=y)
            psi = feature_map(x, labeling, params)
            assert params.flatten() @ psi == pytest.approx(
                energy_total(x, labeling, params), abs=1e-10)

    def test_all_gc_pose_block(self):
        dims = ModelDims(R=2, K=2, D=3, A=1, S=1, Y=1)
        params = ModelParams.zeros(dims, dictionary=make_dictionary(1, 1, 2))
        x = np.ones((4, 2, 3))
        labeling = Labeling(z=np.full((4, 2), 2),
                            v=np.zeros((4, 2), int), y=0)
        psi = feature_map(x, labeling, params)
        for r in range(2):
            sl = region_slices(dims, r)
            assert not psi[sl["w"]].any()
            assert psi[sl["theta"]] == pytest.approx([4.0])

    def test_no_transition_counts_single_frame(self):
        dims = ModelDims(R=1, K=1, D=2, A=2, S=2, Y=1)
        params = ModelParams.zeros(dims, dictionary=make_dictionary(2, 2, 1))
        psi = feature_map(np.ones((1, 1, 2)),
                          Labeling(z=[[0]], v=[[1]], y=0), params)
        sl = region_slices(dims, 0)
        assert not psi[sl["eta"]].any()
        assert not psi[sl["gamma"]].any()

    def test_count_blocks_are_nonnegative_integers(self):
        rng = np.random.default_rng(4)
        dims = ModelDims(R=2, K=3, D=3, A=3, S=2, Y=2)
        params = random_params(dims, rng)
        T = 9
        x = rng.normal(size=(T, 2, 3))
        z, v, y = random_labeling_arrays(dims, T, rng)
        psi = feature_map(x, Labeling(z=z, v=v, y=y), params)
        for r in range(2):
            sl = region_slices(dims, r)
            for block in ("alpha", "beta", "eta", "gamma", "theta"):
                vals = psi[sl[block]]
                assert np.all(vals >= 0)
                np.testing.assert_array_equal(vals, np.round(vals))


class TestStructure:
    def test_linearity_in_params(self):
        rng = np.random.default_rng(5)
        dims = ModelDims(R=2, K=2, D=3, A=2, S=2, Y=2)
        p1 = random_params(dims, rng)
        p2 = random_params(dims, rng)
        p_sum = p1.with_flat(p1.flatten() + p2.flatten())
        x = rng.normal(size=(6, 2, 3))
        z, v, y = random_labeling_arrays(dims, 6, rng)
        labeling = Labeling(z=z, v=v, y=y)
        assert energy_total(x, labeling, p_sum) == pytest.approx(
            energy_total(x, labeling, p1) + energy_total(x, labeling, p2),
            rel=1e-9)

    def test_region_additivity(self):
        rng = np.random.default_rng(6)
        dims = ModelDims(R=3, K=2, D=3, A=2, S=2, Y=2)
        params = random_params(dims, rng)
        x = rng.normal(size=(5, 3, 3))
        z, v, y = random_labeling_arrays(dims, 5, rng)
        labeling = Labeling(z=z, v=v, y=y)
        full = energy_total(x, labeling, params)
        # zeroing region 1's blocks removes exactly its contribution
        flat = params.flatten().copy()
        sl = region_slices(dims, 1)
        for block in sl.values():
            flat[block] = 0.0
        partial = energy_total(x, labeling, params.with_flat(flat))
        psi = feature_map(x, labeling, params)
        region1 = sum(float(params.flatten()[s] @ psi[s])
                      for s in sl.values())
        assert full - partial == pytest.approx(region1, rel=1e-9, abs=1e-9)

    def test_shape_mismatch_rejected(self):
        dims = ModelDims(R=1, K=1, D=2, A=1, S=1, Y=1)
        params = ModelParams.zeros(dims, dictionary=make_dictionary(1, 1, 1))
        with pytest.raises(ValueError):
            energy_total(np.zeros((2, 1, 3)),
                         Labeling(z=np.zeros((2, 1), int),
                                  v=np.zeros((2, 1), int), y=0), params)


class TestModelFile:
    def test_roundtrip_bit_exact(self):
        rng = np.random.default_rng(7)
        dims = ModelDims(R=2, K=3, D=4, A=3, S=2, Y=2)
        params = random_params(dims, rng)
        text = save_model(params, config_hash="abc123")
        loaded, pca, config_hash = load_model(text)
        assert config_hash == "abc123"
        np.testing.assert_array_equal(loaded.flatten(), params.flatten())
        np.testing.assert_array_equal(loaded.u_of_v(), params.u_of_v())
        assert save_model(loaded, config_hash="abc123") == text

    def test_pca_models_roundtrip(self):
        from hieract.descriptors import fit_pca

        rng = np.random.default_rng(8)
        dims = ModelDims(R=1, K=2, D=3, A=1, S=1, Y=1)
        params = random_params(dims, rng)
        pca = [fit_pca(rng.normal(size=(30, 6)), out_dim=2)]
        text = save_model(params, pca_models=pca)
        _, loaded_pca, _ = load_model(text)
        np.testing.assert_array_equal(loaded_pca[0].components,
                                      pca[0].components)

    def test_version_check(self):
        rng = np.random.default_rng(9)
        dims = ModelDims(R=1, K=1, D=2, A=1, S=1, Y=1)
        doc = json.loads(save_model(random_params(dims, rng)))
        doc["version"] = 99
        with pytest.raises(ValueError, match="version"):
            load_model(json.dumps(doc))


class TestFlatLayout:
    def test_blocks_match_independent_reader(self, tmp_path):
        read_model = _independent_model_reader()
        rng = np.random.default_rng(10)
        for trial in range(25):
            R, K, D, S, Y = (int(n) for n in rng.integers(1, 5, size=5))
            dims = ModelDims(R=R, K=K, D=D, A=S + int(rng.integers(0, 3)),
                             S=S, Y=Y)
            params = random_params(dims, rng)
            path = tmp_path / f"model{trial}.json"
            path.write_text(save_model(params))
            model = read_model(path)
            for name in BLOCKS:
                for r in range(R):
                    np.testing.assert_array_equal(
                        getattr(model, name)[r], getattr(params, name)[r],
                        err_msg=f"{name}[{r}] of {dims}")
            np.testing.assert_array_equal(model.theta, params.theta)

    def test_blocks_are_views_of_the_vector(self):
        dims = ModelDims(R=2, K=3, D=4, A=3, S=2, Y=2)
        params = random_params(dims, np.random.default_rng(11))
        for name in BLOCKS:
            for block in getattr(params, name):
                assert np.shares_memory(block, params.vec)
        assert np.shares_memory(params.theta, params.vec)
        params.w[0][1, 2] = 5.0
        params.theta[1] = -2.0
        flat = params.flatten()
        assert flat[region_slices(dims, 0)["w"]][1 * dims.D + 2] == 5.0
        assert flat[region_slices(dims, 1)["theta"]] == [-2.0]

    def test_with_flat_does_not_alias_its_input(self):
        dims = ModelDims(R=2, K=2, D=3, A=2, S=2, Y=2)
        rng = np.random.default_rng(12)
        vec = rng.normal(size=dims.total)
        params = random_params(dims, rng).with_flat(vec)
        vec[:] = 0.0
        assert not np.shares_memory(params.vec, vec)
        assert params.flatten().any() and params.w[1].any()
