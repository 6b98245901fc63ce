import tracemalloc

import numpy as np
import pytest

from conftest import chi2, pp_seed_reference

from hieract import dictionaries
from hieract.dictionaries import (NEAREST_CHUNK_ROWS, _pp_seed, assign_labels,
                                  build_actionlets, chi2_matrix, gc_init,
                                  interval_histogram, kmeans, scree_count)


def _direct_d2(points, centroids):
    """Squared distances from one (N, K, D) difference tensor."""
    return np.sum((points[:, None, :] - centroids[None, :, :]) ** 2, axis=2)


def _update_reference(points, centroids, labels, nearest):
    """One Lloyd update in place, cluster by cluster in ascending order: an
    empty cluster takes the farthest row, every other its mean. Returns
    the number of clusters re-seeded."""
    reseeds = 0
    for c in range(centroids.shape[0]):
        members = labels == c
        if not np.any(members):
            reseeds += 1
            far = int(np.argmax(nearest))
            centroids[c] = points[far]
            labels[far] = c
            nearest[far] = 0.0
        else:
            centroids[c] = points[members].mean(axis=0)
    return reseeds


def _kmeans_reference(points, k, seed, max_iter=100):
    """Lloyd's loop on ``_direct_d2`` from ``pp_seed_reference``, each step
    searching every row and averaging every cluster; also counts the
    clusters re-seeded after emptying."""
    n = points.shape[0]
    centroids = pp_seed_reference(points, k, np.random.default_rng(seed))
    prev_labels, reseeds = None, 0
    for _ in range(max_iter):
        d2 = _direct_d2(points, centroids)
        labels = np.argmin(d2, axis=1)
        nearest = d2[np.arange(n), labels]
        reseeds += _update_reference(points, centroids, labels, nearest)
        if prev_labels is not None and np.array_equal(labels, prev_labels):
            break
        prev_labels = labels
    return centroids, labels, reseeds


class TestKmeans:
    def test_k_equals_n(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(6, 3))
        centroids, labels = kmeans(points, 6, seed=1)
        assert sorted(labels.tolist()) == list(range(6))
        _, dists = assign_labels(points, centroids)
        np.testing.assert_allclose(dists, 0.0, atol=1e-12)

    def test_two_blobs(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(40, 2)) * 0.1 + (5, 0)
        b = rng.normal(size=(40, 2)) * 0.1 + (-5, 0)
        points = np.vstack([a, b])
        _, labels = kmeans(points, 2, seed=0)
        # majority vote per blob must be unanimous
        assert len(set(labels[:40])) == 1
        assert len(set(labels[40:])) == 1
        assert labels[0] != labels[40]

    def test_k_one_gives_mean(self):
        rng = np.random.default_rng(2)
        points = rng.normal(size=(30, 4))
        centroids, labels = kmeans(points, 1, seed=0)
        np.testing.assert_allclose(centroids[0], points.mean(axis=0))
        assert not labels.any()

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(50, 3))
        c1, l1 = kmeans(points, 4, seed=7)
        c2, l2 = kmeans(points, 4, seed=7)
        np.testing.assert_array_equal(c1, c2)
        np.testing.assert_array_equal(l1, l2)

    def test_iterating_does_not_worsen_inertia(self):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(60, 3))
        for k in (2, 4, 7):
            c_one, _ = kmeans(points, k, seed=0, max_iter=1)
            c_full, _ = kmeans(points, k, seed=0, max_iter=100)
            inertia_one = (assign_labels(points, c_one)[1] ** 2).sum()
            inertia_full = (assign_labels(points, c_full)[1] ** 2).sum()
            assert inertia_full <= inertia_one + 1e-9

    def test_needs_enough_points(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((2, 3)), 5)

    @pytest.mark.parametrize("k", [0, -3])
    def test_needs_a_cluster(self, k):
        with pytest.raises(ValueError, match="k >= 1"):
            kmeans(np.zeros((4, 3)), k)


class TestChunkedDistances:
    N = 600

    @pytest.mark.parametrize("case", ["spread", "repeated"])
    def test_equal_to_direct_computation(self, case):
        assert self.N % NEAREST_CHUNK_ROWS != 0
        rng = np.random.default_rng(31)
        if case == "spread":
            points, k = rng.normal(size=(self.N, 38)), 20
        else:
            # five distinct points for eight clusters: seeding runs out of
            # new points and three clusters empty on the first Lloyd step
            distinct = np.round(3 * rng.normal(size=(5, 4)))
            points, k = distinct[rng.integers(5, size=self.N)], 8
        centroids, labels = kmeans(points, k, seed=3)
        ref_centroids, ref_labels, reseeds = _kmeans_reference(points, k, 3)
        assert centroids.tobytes() == ref_centroids.tobytes()
        np.testing.assert_array_equal(labels, ref_labels)
        assert (reseeds > 0) == (case == "repeated")
        queries = rng.normal(size=(self.N, points.shape[1]))
        d2 = _direct_d2(queries, centroids)
        ref_labels = np.argmin(d2, axis=1)
        labels, dists = assign_labels(queries, centroids)
        np.testing.assert_array_equal(labels, ref_labels)
        assert dists.tobytes() == np.sqrt(
            d2[np.arange(self.N), ref_labels]).tobytes()

    def test_assign_labels_memory_stays_bounded(self):
        rng = np.random.default_rng(32)
        points = rng.normal(size=(9000, 38))
        centroids = rng.normal(size=(100, 38))
        tracemalloc.start()
        try:
            assign_labels(points, centroids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one (N, K, D) float64 tensor would be 9000 * 100 * 38 * 8 = 274 MB
        assert peak < 32 * 2 ** 20


def _count_fallback_rows(monkeypatch) -> list[int]:
    """Patch ``_exact_labels`` to record how many rows each call searches."""
    rows = []
    exact = dictionaries._exact_labels

    def counting(points, centroids):
        rows.append(points.shape[0])
        return exact(points, centroids)

    monkeypatch.setattr(dictionaries, "_exact_labels", counting)
    return rows


class TestNearTies:
    """Rows the expanded distances cannot settle fall back to the direct
    differences and still match ``_direct_d2`` bit for bit."""

    def _assert_direct(self, points, centroids, monkeypatch):
        """Labels, after checking them and the distances against
        ``_direct_d2``, and the number of rows that fell back."""
        rows = _count_fallback_rows(monkeypatch)
        labels, dists = assign_labels(points, centroids)
        d2 = _direct_d2(points, centroids)
        ref_labels = np.argmin(d2, axis=1)
        np.testing.assert_array_equal(labels, ref_labels)
        assert dists.tobytes() == np.sqrt(
            d2[np.arange(points.shape[0]), ref_labels]).tobytes()
        return labels, sum(rows)

    def test_duplicated_centroids(self, monkeypatch):
        rng = np.random.default_rng(41)
        distinct = rng.normal(size=(10, 38))
        centroids = np.vstack([distinct, distinct[::-1]])
        points = rng.normal(size=(600, 38))
        labels, fallback = self._assert_direct(points, centroids, monkeypatch)
        assert fallback == 600
        assert labels.max() < 10

    def test_points_equidistant_from_two_centroids(self, monkeypatch):
        rng = np.random.default_rng(42)
        centroids = 10 * rng.normal(size=(6, 38))
        centroids[3] = 0.0
        centroids[3, 0] = 1.0
        centroids[1] = -centroids[3]
        points = np.round(rng.normal(size=(600, 38)), 2) * 0.1
        points[:, 0] = 0.0
        labels, fallback = self._assert_direct(points, centroids, monkeypatch)
        assert fallback == 600
        assert np.all(labels == 1)

    def test_far_offset_with_unit_spread(self, monkeypatch):
        rng = np.random.default_rng(43)
        points = 1e6 + rng.normal(size=(600, 38))
        centroids = 1e6 + rng.normal(size=(20, 38))
        _, fallback = self._assert_direct(points, centroids, monkeypatch)
        assert fallback >= 1

    def test_paper_shaped_data_rarely_falls_back(self, monkeypatch):
        rng = np.random.default_rng(44)
        points = rng.normal(size=(3000, 38))
        fallback = _count_fallback_rows(monkeypatch)
        searched = []
        nearest = dictionaries._nearest

        def counting(points, centroids):
            searched.append(points.shape[0])
            return nearest(points, centroids)

        monkeypatch.setattr(dictionaries, "_nearest", counting)
        kmeans(points, 100, seed=0)
        assert sum(fallback) < 0.01 * sum(searched)


def _clustered(rng, n=3000, dim=38, k=100):
    """Clusters of uneven sizes and spreads around k Gaussian centres."""
    centres = 3 * rng.normal(size=(k, dim))
    which = rng.integers(k, size=n) ** 2 // k
    spread = rng.uniform(0.3, 1.5, size=k)
    return centres[which] + spread[which, None] * rng.normal(size=(n, dim))


class TestSettledWork:
    """``kmeans`` skips the searches, seeding distances and cluster means
    that bounds or unchanged clusters rule out, and still equals the full
    Lloyd loop of ``_kmeans_reference`` bit for bit."""

    @staticmethod
    def _points(case, rng):
        if case == "spread":
            return rng.normal(size=(600, 38)), 20
        if case == "repeated":
            distinct = np.round(3 * rng.normal(size=(5, 4)))
            return distinct[rng.integers(5, size=600)], 8
        if case == "grid":
            # integer points: many rows exactly equidistant from centroids
            return rng.integers(-2, 3, size=(600, 3)).astype(float), 12
        if case == "offset":
            return 1e6 + rng.normal(size=(600, 38)), 20
        # the expansion's rounding exceeds every distance
        return 1e8 + rng.normal(size=(600, 38)), 20

    @pytest.mark.parametrize("max_iter", [1, 2, 3, 100])
    @pytest.mark.parametrize("case", ["spread", "repeated", "grid", "offset",
                                      "far"])
    def test_equal_to_full_lloyd_loop(self, case, max_iter):
        points, k = self._points(case, np.random.default_rng(51))
        centroids, labels = kmeans(points, k, seed=4, max_iter=max_iter)
        ref_centroids, ref_labels, reseeds = _kmeans_reference(
            points, k, 4, max_iter)
        assert centroids.tobytes() == ref_centroids.tobytes()
        np.testing.assert_array_equal(labels, ref_labels)
        if case == "repeated":
            assert reseeds > 0

    def test_rows_reseeded_are_searched_again(self):
        # a few distinct points, more clusters: seeding runs out of points,
        # clusters empty, and a re-seeded row's bound no longer covers the
        # cluster it left
        for seed in range(300):
            rng = np.random.default_rng(seed)
            m = int(rng.integers(2, 6))
            k = int(rng.integers(m + 1, m + 5))
            distinct = np.round(3 * rng.normal(size=(m, 3)))
            points = distinct[rng.integers(m, size=int(rng.integers(k, 40)))]
            for max_iter in (2, 100):
                centroids, labels = kmeans(points, k, seed, max_iter)
                ref_centroids, ref_labels, _ = _kmeans_reference(
                    points, k, seed, max_iter)
                assert centroids.tobytes() == ref_centroids.tobytes()
                np.testing.assert_array_equal(labels, ref_labels)

    @pytest.mark.parametrize("labels, reseeded", [
        # cluster 0 is empty and takes row 4 from cluster 2, whose mean,
        # taken later, leaves row 4 out
        ([1, 1, 2, 2, 2, 3, 3, 1, 2, 3], [4]),
        # row 4 was cluster 2's only row, so cluster 2 then takes row 7
        ([1, 1, 3, 3, 2, 3, 3, 1, 1, 3], [4, 7])])
    def test_reseed_takes_rows_from_later_clusters(self, labels, reseeded):
        rng = np.random.default_rng(54)
        points = rng.normal(size=(10, 3))
        nearest = np.linspace(0.1, 0.3, 10)
        nearest[[4, 7]] = 2.0, 1.0
        centroids = rng.normal(size=(4, 3))
        labels = np.array(labels)
        ref = centroids.copy(), labels.copy(), nearest.copy()
        _update_reference(points, *ref)
        _, _, moved = dictionaries._update(points, centroids, labels,
                                           nearest, None)
        assert moved == reseeded
        assert centroids.tobytes() == ref[0].tobytes()
        np.testing.assert_array_equal(labels, ref[1])
        assert nearest.tobytes() == ref[2].tobytes()

    def test_settled_rows_are_not_searched_again(self, monkeypatch):
        points = _clustered(np.random.default_rng(52))
        searched = []
        nearest = dictionaries._nearest

        def counting(points, centroids):
            searched.append(points.shape[0])
            return nearest(points, centroids)

        monkeypatch.setattr(dictionaries, "_nearest", counting)
        kmeans(points, 100, seed=0)
        steps = len(searched) - 1
        assert searched[0] == 3000 and steps >= 5
        assert sum(searched[1:]) < 0.6 * 3000 * steps

    def test_seeding_sums_few_rows_directly(self, monkeypatch):
        points = _clustered(np.random.default_rng(52))
        rows = []
        direct = dictionaries._direct_sq

        def counting(points, centre):
            rows.append(points.shape[0])
            return direct(points, centre)

        monkeypatch.setattr(dictionaries, "_direct_sq", counting)
        centroids = _pp_seed(points, 100, np.random.default_rng(0))
        assert sum(rows) < 0.2 * 3000 * 100
        reference = pp_seed_reference(points, 100, np.random.default_rng(0))
        assert centroids.tobytes() == reference.tobytes()

    def test_memory_stays_bounded(self):
        points = np.random.default_rng(53).normal(size=(9000, 38))
        tracemalloc.start()
        try:
            kmeans(points, 100, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one (N, K, D) float64 tensor would be 9000 * 100 * 38 * 8 = 274 MB
        assert peak < 32 * 2 ** 20


class TestGcInit:
    def test_zero_fraction_unchanged(self):
        labels = np.array([0, 1, 2])
        out = gc_init(labels, np.array([3.0, 1.0, 2.0]), 3, fraction=0.0)
        np.testing.assert_array_equal(out, labels)

    def test_top_quantile_relabeled(self):
        rng = np.random.default_rng(5)
        distances = rng.permutation(10).astype(float)
        labels = np.zeros(10, dtype=int)
        out = gc_init(labels, distances, 4, fraction=0.2)
        relabeled = np.flatnonzero(out == 4)
        # sort oracle: the two largest distances
        expected = np.sort(np.argsort(-distances)[:2])
        np.testing.assert_array_equal(np.sort(relabeled), expected)

    def test_tie_goes_to_lower_index(self):
        distances = np.array([1.0, 5.0, 5.0, 5.0, 0.5])
        out = gc_init(np.zeros(5, dtype=int), distances, 2, fraction=0.4)
        np.testing.assert_array_equal(np.flatnonzero(out == 2), [1, 2])

    def test_ceil_count(self):
        out = gc_init(np.zeros(7, dtype=int), np.arange(7.0), 3, fraction=0.2)
        assert int((out == 3).sum()) == int(np.ceil(0.2 * 7))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            gc_init(np.zeros(2, dtype=int), np.array([np.inf, 1.0]), 1)


class TestChi2:
    def test_equal_is_zero(self):
        h = np.array([0.2, 0.3, 0.5])
        assert chi2(h, h) == 0.0

    def test_disjoint_unit_masses(self):
        assert chi2([1.0, 0.0], [0.0, 1.0]) == pytest.approx(2.0)

    def test_hand_value(self):
        value = chi2([0.5, 0.5], [0.25, 0.75])
        assert value == pytest.approx(0.25 ** 2 / 0.75 + 0.25 ** 2 / 1.25,
                                      rel=1e-12)
        assert value == pytest.approx(2.0 / 15.0, rel=1e-12)

    def test_symmetric_and_zero_iff_equal(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            h1 = rng.random(5)
            h2 = rng.random(5)
            assert chi2(h1, h2) == pytest.approx(chi2(h2, h1), rel=1e-12)
            assert chi2(h1, h2) > 0 or np.allclose(h1, h2)

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            chi2([-0.1, 0.5], [0.5, 0.5])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            chi2([0.5], [0.5, 0.5])

    def test_matrix_agrees_with_pairwise(self):
        rng = np.random.default_rng(7)
        H = rng.random((6, 4))
        D = chi2_matrix(H)
        for i in range(6):
            for j in range(6):
                assert D[i, j] == pytest.approx(chi2(H[i], H[j]), abs=1e-12)


class TestScreeCount:
    def test_worked_example(self):
        lam = np.array([9.0, 3.0, 1.0, 0.1, 0.01])
        # scores: i=1: 1.002, i=2: 0.08733, i=3: 0.006769, i=4: 0.0080076
        assert scree_count(lam, c=2e-3) == 3

    def test_two_values_second_zero(self):
        assert scree_count(np.array([1.0, 0.0])) == 1

    def test_all_zero_spectrum(self):
        assert scree_count(np.zeros(5)) == 1

    def test_tiny_negatives_clamped(self):
        assert scree_count(np.array([1.0, -1e-15])) == 1

    def test_scale_invariance(self):
        # The first term lam[i+1]^2 / sum(lam[:i]) scales by gamma, so the
        # ORDER of first terms is scale-invariant; the argmin can only move
        # when the c*i tie term outweighs a first-term gap. Assert G is
        # unchanged whenever the smallest first-term gap, at the most
        # shrunken scale tested, still dominates c*n.
        rng = np.random.default_rng(8)
        n = 8
        gammas = (0.1, 10.0)
        checked = 0
        for _ in range(200):
            lam = np.sort(rng.random(n))[::-1] * rng.uniform(0.5, 20)
            first = np.array([lam[i] ** 2 / lam[:i].sum()
                              for i in range(1, n)])
            gaps = np.sort(first)
            if (gaps[1] - gaps[0]) * min(gammas) > 2e-3 * n:
                checked += 1
                g = scree_count(lam)
                assert g == int(np.argmin(first)) + 1
                for gamma in gammas:
                    assert scree_count(lam * gamma) == g
        assert checked > 10


class TestBuildActionlets:
    def test_identical_descriptors_single_mode(self):
        H = np.tile([0.5, 0.5, 0.0], (8, 1))
        dictionary, assignment = build_actionlets(H, np.zeros(8, dtype=int),
                                                  num_actions=1)
        assert dictionary.num_actionlets == 1
        assert dictionary.counts.tolist() == [1]
        assert not assignment.any()

    def test_planted_bimodal_two_actions(self):
        rng = np.random.default_rng(9)

        def blob(center, n):
            pts = np.abs(center + rng.normal(scale=0.01, size=(n, 4)))
            return pts / pts.sum(axis=1, keepdims=True)

        H = np.vstack([
            blob(np.array([0.9, 0.1, 0.0, 0.0]), 10),
            blob(np.array([0.0, 0.1, 0.9, 0.0]), 10),
            blob(np.array([0.1, 0.9, 0.0, 0.0]), 10),
            blob(np.array([0.0, 0.0, 0.1, 0.9]), 10),
        ])
        actions = np.repeat([0, 0, 1, 1], 10)
        dictionary, assignment = build_actionlets(H, actions, num_actions=2)
        assert dictionary.counts.tolist() == [2, 2]
        assert dictionary.num_actionlets == 4
        assert dictionary.u_of_v.tolist() == [0, 0, 1, 1]
        # assignment purity: each planted blob maps to a single actionlet
        for blob_idx in range(4):
            chunk = assignment[10 * blob_idx:10 * (blob_idx + 1)]
            assert len(set(chunk.tolist())) == 1

    def test_missing_action_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            build_actionlets(np.ones((3, 2)), np.zeros(3, dtype=int),
                             num_actions=2)

    def test_count_clamped_by_samples(self):
        H = np.array([[1.0, 0.0]])
        dictionary, _ = build_actionlets(H, np.array([0]), num_actions=1)
        assert dictionary.counts.tolist() == [1]

    def test_two_blobs_keep_planted_count(self):
        rng = np.random.default_rng(11)
        blob = lambda c: np.abs(c + rng.normal(scale=0.01, size=(10, 4)))
        H = np.vstack([blob(np.array([0.9, 0.1, 0.0, 0.0])),
                       blob(np.array([0.0, 0.1, 0.9, 0.0]))])
        H /= H.sum(axis=1, keepdims=True)
        actions = np.zeros(20, dtype=int)
        dictionary, _ = build_actionlets(H, actions, num_actions=1)
        assert dictionary.counts.tolist() == [2]

    def test_u_of_v_nondecreasing(self):
        rng = np.random.default_rng(10)
        H = rng.random((30, 5))
        H /= H.sum(axis=1, keepdims=True)
        actions = np.sort(rng.integers(0, 3, size=30))
        dictionary, _ = build_actionlets(H, actions, num_actions=3)
        assert (np.diff(dictionary.u_of_v) >= 0).all()


class TestIntervalHistogram:
    def test_counts_and_normalization(self):
        labels = np.array([0, 0, 1, 2, 2, 2])
        hist = interval_histogram(labels, 3, 0, 5)
        np.testing.assert_allclose(hist, [2 / 6, 1 / 6, 3 / 6])

    def test_gc_frames_excluded(self):
        labels = np.array([0, 3, 3, 1])
        hist = interval_histogram(labels, 3, 0, 3)
        np.testing.assert_allclose(hist, [0.5, 0.5, 0.0])

    def test_all_gc_gives_zero_histogram(self):
        labels = np.array([2, 2])
        assert not interval_histogram(labels, 2, 0, 1).any()
