from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize

from conftest import split_blobs
from emgbench.classify import ensembles
from emgbench.classify import svm as svm_module
from emgbench.classify.base import (
    ClassifyError,
    Standardizer,
    TrainedModel,
    VoteModel,
    majority_vote,
    model_to_blob,
)
from emgbench.classify.ensembles import boost_round_weight, fit_adaboost_rf, fit_bagging
from emgbench.classify.ensembles import fit_random_forest
from emgbench.classify.knn import _nearest, fit_knn, knn_predict
from emgbench.classify.lda import fit_lda
from emgbench.classify.pipeline import Pipeline, fit_pipeline
from emgbench.classify.svm import fit_linear_svm, fit_linear_svms
from emgbench.classify.tree import DecisionTree, fit_trees
from emgbench.evaluate import stratified_split
from emgbench.features.extract import FeatureMatrix, extract
from emgbench.preprocess import bandpass, segment_records
from emgbench.signal_io import generate_synthetic


def fm(X, y):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return FeatureMatrix(
        values=X, feature_names=tuple(f"f{i}" for i in range(X.shape[1])), labels=y
    )


def gaussian_1d_blobs(rng, mean_sep=10.0, n=100):
    X = np.concatenate([rng.standard_normal(n) - mean_sep / 2, rng.standard_normal(n) + mean_sep / 2])
    y = np.repeat([0, 1], n)
    return fm(X[:, None], y)


class TestStandardizer:
    def test_three_point_column(self):
        s = Standardizer.fit(np.array([[1.0], [2.0], [3.0]]))
        assert s.mean[0] == pytest.approx(2.0)
        assert s.std[0] == pytest.approx(1.0)  # N-1 denominator
        np.testing.assert_allclose(s.apply(np.array([[1.0], [2.0], [3.0]])).ravel(), [-1, 0, 1])

    def test_constant_column_maps_to_zero(self):
        s = Standardizer.fit(np.array([[5.0], [5.0]]))
        np.testing.assert_array_equal(s.apply(np.array([[5.0], [7.0]])).ravel(), [0.0, 0.0])

    def test_width_mismatch(self):
        s = Standardizer.fit(np.ones((3, 2)))
        with pytest.raises(ClassifyError, match="mismatch"):
            s.apply(np.ones((3, 3)))

    def test_own_training_set_is_zero_mean_unit_std(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((40, 5)) * [1, 2, 3, 4, 5]
        out = Standardizer.fit(X).apply(X)
        assert np.max(np.abs(out.mean(axis=0))) < 1e-9
        assert np.max(np.abs(out.std(axis=0, ddof=1) - 1)) < 1e-9


class TestLda:
    def test_separated_gaussians_match_bayes_rule(self):
        rng = np.random.default_rng(1)
        train = gaussian_1d_blobs(rng)
        model = fit_lda(train)
        query = np.concatenate([rng.standard_normal(50) - 5, rng.standard_normal(50) + 5])
        expected = (query > 0).astype(int)  # Bayes rule for equal-prior symmetric blobs
        np.testing.assert_array_equal(model.predict(query[:, None]), expected)

    def test_feature_count_mismatch(self):
        rng = np.random.default_rng(2)
        model = fit_lda(fm(rng.standard_normal((20, 5)), np.repeat([0, 1], 10)))
        with pytest.raises(ClassifyError, match="mismatch"):
            model.predict(np.ones((1, 4)))

    def test_degenerate_duplicate_classes_tie_break_low(self):
        X = np.array([[1.0, 2.0], [3.0, 4.0], [1.0, 2.0], [3.0, 4.0]])
        model = fit_lda(fm(X, np.array([0, 0, 1, 1])))
        np.testing.assert_array_equal(model.predict(X), [0, 0, 0, 0])

    def test_class_with_single_sample_rejected(self):
        with pytest.raises(ClassifyError, match="fewer than 2"):
            fit_lda(fm(np.arange(6).reshape(3, 2), np.array([0, 0, 1])))

    def test_single_class_rejected(self):
        with pytest.raises(ClassifyError, match="single class"):
            fit_lda(fm(np.arange(8).reshape(4, 2), np.zeros(4, dtype=int)))

    def test_affine_rescaling_invariance(self, blob_data):
        train, test = split_blobs(blob_data)
        base = fit_lda(train).predict(test.values)
        scale = np.array([13.7, 1, 1, 0.01, 1, 1])
        scaled_train = fm(train.values * scale, train.labels)
        rescaled = fit_lda(scaled_train).predict(test.values * scale)
        np.testing.assert_array_equal(base, rescaled)


def knn_oracle(train_X, train_y, query, k):
    """Exhaustive double-loop reference with the stated tie-breaks."""
    out = []
    for q in query:
        dists = [(float(np.sum((q - x) ** 2)), i) for i, x in enumerate(train_X)]
        dists.sort()
        nearest = [train_y[i] for _, i in dists[:k]]
        counts = {}
        for lab in nearest:
            counts[lab] = counts.get(lab, 0) + 1
        best = max(counts.values())
        tied = {lab for lab, c in counts.items() if c == best}
        out.append(next(lab for lab in nearest if lab in tied))
    return np.array(out)


class TestKnn:
    def test_single_training_row(self):
        pred = knn_predict(np.array([[1.0, 2.0]]), np.array([3]), np.random.randn(5, 2), k=1)
        np.testing.assert_array_equal(pred, [3, 3, 3, 3, 3])

    def test_query_equals_training_row(self):
        X = np.array([[0.0], [5.0], [9.0]])
        pred = knn_predict(X, np.array([0, 1, 2]), np.array([[5.0]]), k=1)
        assert pred[0] == 1

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        X = rng.integers(0, 4, size=(200, 3)).astype(float)  # many exact distance ties
        y = rng.integers(0, 5, size=200)
        Q = rng.integers(0, 4, size=(60, 3)).astype(float)
        np.testing.assert_array_equal(knn_predict(X, y, Q, k=5), knn_oracle(X, y, Q, 5))

    @pytest.mark.parametrize("k", [1, 2, 5, 13, 28])
    def test_duplicated_rows_match_stable_sort_oracle(self, k):
        """Duplicated training rows tie at every distance, often across the
        k-th place; the partial selection must keep the stable sort's pick."""
        rng = np.random.default_rng(k)
        base = rng.integers(0, 3, size=(12, 2)).astype(float)
        X = np.vstack([base, base[::-1], base[:4]])
        y = rng.integers(0, 3, size=len(X))
        Q = np.vstack([rng.integers(0, 3, size=(30, 2)).astype(float), X[:5]])
        d2 = np.sum((Q[:, None, :] - X[None, :, :]) ** 2, axis=2)
        expected = np.argsort(d2, axis=1, kind="stable")[:, :k]
        assert _nearest(d2, k).tobytes() == expected.tobytes()
        np.testing.assert_array_equal(knn_predict(X, y, Q, k=k), knn_oracle(X, y, Q, k))

    def test_k_larger_than_train_rejected(self):
        with pytest.raises(ClassifyError, match="out of range"):
            knn_predict(np.ones((3, 1)), np.zeros(3, dtype=int), np.ones((1, 1)), k=4)

    def test_empty_training_set(self):
        with pytest.raises(ClassifyError, match="empty"):
            knn_predict(np.empty((0, 2)), np.empty(0, dtype=int), np.ones((1, 2)), k=1)


class TestLinearSvm:
    def test_separable_blobs_perfect_training_accuracy(self):
        rng = np.random.default_rng(3)
        X = np.vstack([rng.standard_normal((60, 2)), rng.standard_normal((60, 2)) + 10.0])
        y = np.repeat([0, 1], 60)
        model = fit_linear_svm(fm(X, y))
        assert np.mean(model.predict(X) == y) == 1.0

    def test_single_class_rejected(self):
        with pytest.raises(ClassifyError, match="single class"):
            fit_linear_svm(fm(np.random.randn(10, 2), np.zeros(10, dtype=int)))

    def test_standardized_pipeline_robust_to_feature_scaling(self, blob_data):
        train, test = split_blobs(blob_data)
        acc = []
        for scale in (1.0, 10.0):
            strain = fm(train.values * scale, train.labels)
            stest = fm(test.values * scale, test.labels)
            pipe = fit_pipeline("svm", strain, seed=0)
            acc.append(np.mean(pipe.predict(stest.values) == stest.labels))
        assert abs(acc[0] - acc[1]) < 0.01

    def test_deterministic_per_seed(self, blob_data):
        train, test = split_blobs(blob_data)
        a = fit_linear_svm(train).predict(test.values)
        b = fit_linear_svm(train).predict(test.values)
        np.testing.assert_array_equal(a, b)


def bagged_svms(train, seed, start=None):
    return fit_bagging(lambda t, row_sets: fit_linear_svms(t, row_sets, start=start), train, seed)


def bagged_knns(train, seed):
    return fit_bagging(lambda t, row_sets: [fit_knn(t.select(r)) for r in row_sets], train, seed)


def bootstrap_draws(n, n_estimators, seed):
    """The row sets that fit_bagging draws."""
    spawned = np.random.SeedSequence(seed).spawn(n_estimators)
    return [np.random.default_rng(ss).choice(n, size=n, replace=True) for ss in spawned]


def noisy_classes(rng, n, d, n_classes, spread):
    y = rng.integers(0, n_classes, n)
    X = rng.standard_normal((n, d))
    X[:, : n_classes] += spread * np.eye(n_classes)[y]
    return fm(X, y)


class SquaredHinge:
    """0.5|w|^2 + C sum_j n_j max(0, 1 - y_j w.x_j)^2 of the one-vs-rest
    problem of class c on rows (drawn with repeats) of train."""

    def __init__(self, train, rows, c, C=1.0):
        self.X = np.column_stack([train.values, np.ones(train.n_rows)])
        self.n = np.bincount(rows, minlength=train.n_rows).astype(float)
        self.y = np.where(train.labels == c, 1.0, -1.0)
        self.C = C

    def value(self, w):
        slack = np.maximum(1.0 - self.y * (self.X @ w), 0.0)
        return 0.5 * w @ w + self.C * np.sum(self.n * slack * slack)

    def gradient(self, w):
        slack = np.maximum(1.0 - self.y * (self.X @ w), 0.0)
        return w - 2.0 * self.C * (self.n * self.y * slack) @ self.X

    def g0(self):
        return np.linalg.norm(self.gradient(np.zeros(self.X.shape[1])))


def problems(model, train, rows):
    """(objective, weights) of each one-vs-rest problem of an SVM model."""
    return [(SquaredHinge(train, rows, c), w) for c, w in zip(model.classes, model.weights)]


def bench_grid_features(family):
    """A family's training rows of the bench-size perfbench grid dataset,
    z-scored as the svm pipeline sees them."""
    spec = dict(n_classes=4, n_channels=8, fs=2048.0, trials_per_class=2, trial_seconds=4.0)
    records = [bandpass(r) for r in generate_synthetic(seed=0, **spec)]
    features = extract(segment_records(records), family)
    train = features.select(stratified_split(features.labels, 0.2, 0)[0])
    return replace(train, values=Standardizer.fit(train.values).apply(train.values))


TOL = svm_module.TOL


class TestPrimalSvm:
    """Optimality oracles for the batched Newton-CG solve: the objective is
    1-strongly convex, so |w - w*| <= |g(w)| for its minimiser w*."""

    def test_gradient_below_tolerance(self, monkeypatch):
        monkeypatch.setattr(ensembles, "N_ESTIMATORS", 6)
        rng = np.random.default_rng(5)
        train = noisy_classes(rng, 40, 6, 3, spread=2.0)
        train = fm(np.vstack([train.values, rng.standard_normal(6)]), np.append(train.labels, 3))
        bagged = bagged_svms(train, 2)
        rows = bootstrap_draws(train.n_rows, 6, 2)
        assert {len(m.classes) for m in bagged.members} == {3, 4}
        for member, r in zip(bagged.members, rows):
            for f, w in problems(member, train, r):
                assert np.linalg.norm(f.gradient(w)) <= TOL * f.g0()

    def test_matches_scipy_minimiser(self):
        train = noisy_classes(np.random.default_rng(3), 30, 4, 3, spread=1.5)
        rows = np.arange(train.n_rows)
        for f, w in problems(fit_linear_svm(train), train, rows):
            best = minimize(f.value, np.zeros_like(w), jac=f.gradient, method="L-BFGS-B",
                            options={"gtol": 1e-12, "ftol": 1e-16, "maxiter": 10_000})
            assert np.linalg.norm(f.gradient(best.x)) <= 1e-3 * TOL * f.g0()
            assert np.linalg.norm(w - best.x) <= TOL * f.g0()

    def test_line_search_is_exact(self):
        """Along any descent direction the step lands where the objective's
        derivative along the line is 0."""
        rng = np.random.default_rng(6)
        train = noisy_classes(rng, 40, 5, 2, spread=1.0)
        f = SquaredHinge(train, rng.integers(0, 40, 40), 1, C=0.7)
        W = rng.standard_normal((6, 6))
        S = 1e-3 * (-np.array([f.gradient(w) for w in W]) + 0.3 * rng.standard_normal((6, 6)))
        M, Z = W @ f.X.T, S @ f.X.T
        Y, cn = np.tile(f.y, (6, 1)), np.tile(f.C * f.n, (6, 1))
        for w, s, t in zip(W, S, svm_module._exact_steps(W, S, M, Z, Y, cn)):
            slope0 = f.gradient(w) @ s
            assert slope0 < 0 and t > 0
            assert abs(f.gradient(w + t * s) @ s) <= 1e-9 * abs(slope0)

    def test_bagging_member_matches_solo_solve(self, monkeypatch):
        monkeypatch.setattr(ensembles, "N_ESTIMATORS", 5)
        train = noisy_classes(np.random.default_rng(8), 50, 5, 3, spread=2.0)
        bagged = bagged_svms(train, 4)
        rows = bootstrap_draws(train.n_rows, 5, 4)
        for member, r in zip(bagged.members, rows):
            solo = fit_linear_svms(train, [r])[0]
            np.testing.assert_array_equal(member.classes, solo.classes)
            for (f, w), w_solo in zip(problems(member, train, r), solo.weights):
                assert np.linalg.norm(w - w_solo) <= 2 * TOL * f.g0()

    def test_repeated_fits_bit_identical(self, monkeypatch):
        monkeypatch.setattr(ensembles, "N_ESTIMATORS", 4)
        train = noisy_classes(np.random.default_rng(9), 60, 12, 4, spread=1.0)
        a, b = (bagged_svms(train, 1) for _ in range(2))
        assert [m.weights.tobytes() for m in a.members] == [m.weights.tobytes() for m in b.members]

    @pytest.mark.parametrize("family", ["ftdd", "tsd", "wavelet"])
    def test_bench_grid_problems_converge(self, family, monkeypatch):
        solves = []

        def recorded(*args):
            solves.append(train_primal(*args))
            return solves[-1]

        train_primal = svm_module._train_primal
        monkeypatch.setattr(svm_module, "_train_primal", recorded)
        train = bench_grid_features(family)
        fit_linear_svm(train)
        bagged_svms(train, 1)
        assert [w.shape[0] for w, _, _ in solves] == [4, 40]
        for _, iters, rel_grad in solves:
            assert np.all(rel_grad <= TOL) and np.all(iters < 100)

    def test_warm_started_bagging_meets_the_cold_tolerance(self, monkeypatch):
        """Bagging members warm-started from the full-data SVM stop where
        |g| <= tol |g0|, g0 still the gradient at w = 0, and end within
        2 tol |g0| of their cold-started weights."""
        monkeypatch.setattr(ensembles, "N_ESTIMATORS", 6)
        rng = np.random.default_rng(5)
        train = noisy_classes(rng, 40, 6, 3, spread=2.0)
        train = fm(np.vstack([train.values, rng.standard_normal(6)]), np.append(train.labels, 3))
        start = fit_linear_svm(train)
        warm = bagged_svms(train, 2, start)
        cold = bagged_svms(train, 2)
        rows = bootstrap_draws(train.n_rows, 6, 2)
        for w_member, c_member, r in zip(warm.members, cold.members, rows):
            np.testing.assert_array_equal(w_member.classes, c_member.classes)
            for (f, w), w_cold in zip(problems(w_member, train, r), c_member.weights):
                assert np.linalg.norm(f.gradient(w)) <= TOL * f.g0()
                assert np.linalg.norm(w - w_cold) <= 2 * TOL * f.g0()

    def test_warm_start_keeps_g0_at_zero(self):
        """A start near the optimum takes fewer steps, and the relative
        gradient it reports is still taken against g0 at w = 0."""
        train = noisy_classes(np.random.default_rng(3), 30, 4, 3, spread=1.5)
        X = np.column_stack([train.values, np.ones(train.n_rows)])
        Y = np.where(train.labels == 1, 1.0, -1.0)[None]
        counts = np.ones_like(Y)
        W, iters, _ = svm_module._train_primal(X, counts, Y, 1.0, 100, TOL)
        f = SquaredHinge(train, np.arange(train.n_rows), 1)
        near = W + 1e-3 * np.random.default_rng(0).standard_normal(W.shape)
        W1, iters1, rel_grad = svm_module._train_primal(X, counts, Y, 1.0, 100, TOL, near)
        assert 0 < iters1[0] < iters[0]
        assert rel_grad[0] == pytest.approx(np.linalg.norm(f.gradient(W1[0])) / f.g0())
        assert rel_grad[0] <= TOL
        W2, iters2, rel_grad2 = svm_module._train_primal(X, counts, Y, 1.0, 100, TOL, W1)
        assert iters2[0] == 0 and W2.tobytes() == W1.tobytes() and rel_grad2[0] == rel_grad[0]

    def test_unconverged_problems_are_reported(self, monkeypatch):
        monkeypatch.setattr(svm_module, "MAX_ITER", 1)
        train = noisy_classes(np.random.default_rng(4), 40, 6, 3, spread=1.0)
        rows = bootstrap_draws(train.n_rows, 3, 7)
        with pytest.warns(RuntimeWarning, match=r"9 of 9 problems stopped at max_iter=1"):
            fit_linear_svms(train, rows)
        X = np.column_stack([train.values, np.ones(train.n_rows)])
        Y = np.where(train.labels == 0, 1.0, -1.0)[None]
        W, iters, rel_grad = svm_module._train_primal(X, np.ones_like(Y), Y, 1.0, 1, TOL)
        assert iters.tolist() == [1] and rel_grad[0] > TOL
        f = SquaredHinge(train, np.arange(train.n_rows), 0)
        assert rel_grad[0] == pytest.approx(np.linalg.norm(f.gradient(W[0])) / f.g0())


def assert_lockstep_matches_solo(train, row_sets, models, max_iter=100, start=None):
    """Rebuild the batch that fit_linear_svms hands _train_primal, check
    that it gives the models' weights bit for bit, then solve each of its
    problems alone from the same start (start's weights for its class, or
    zero): the same Newton steps, ending within rounding of the same
    weights after max_iter steps, and within 2 tol |g0| once both converge,
    as both lie within tol |g0| of the minimiser. Returns the steps each
    problem took."""
    X = np.column_stack([train.values, np.ones(train.n_rows)])
    starts = {} if start is None else dict(zip(start.classes.tolist(), start.weights))
    counts, Y, W0, g0 = [], [], [], []
    for r in row_sets:
        for c in np.unique(train.labels[r]):
            counts.append(np.bincount(r, minlength=train.n_rows))
            Y.append(np.where(train.labels == c, 1.0, -1.0))
            W0.append(starts.get(c, np.zeros(X.shape[1])))
            g0.append(SquaredHinge(train, r, c).g0())
    counts, Y, W0 = np.array(counts, dtype=np.float64), np.array(Y), np.array(W0)
    W0 = None if start is None else W0
    W, iters, _ = svm_module._train_primal(X, counts, Y, 1.0, max_iter, TOL, W0)
    assert W.tobytes() == np.vstack([m.weights for m in models]).tobytes()
    for p in range(len(W)):
        w0 = None if W0 is None else W0[p:p + 1]
        w, solo_iters, _ = svm_module._train_primal(X, counts[p:p + 1], Y[p:p + 1], 1.0, max_iter,
                                                    TOL, w0)
        assert solo_iters[0] == iters[p]
        if iters[p] < max_iter:
            assert np.linalg.norm(W[p] - w[0]) <= 2 * TOL * g0[p]
        else:
            np.testing.assert_allclose(W[p], w[0], rtol=1e-9, atol=1e-12 * np.linalg.norm(w[0]))
    return iters


class TestLockstepSvm:
    """Every problem of a lockstep solve, one-vs-rest or bagging member,
    ends where the solve of that problem alone ends."""

    @pytest.mark.parametrize("d", [48, 252])  # d + 1 = 49 and 253 with the bias column
    def test_single_fit(self, d):
        train = noisy_classes(np.random.default_rng(d), 60, d, 4, spread=3.0)
        model = fit_linear_svm(train)
        assert_lockstep_matches_solo(train, [np.arange(train.n_rows)], [model])

    def test_bag_members_with_different_class_counts(self, monkeypatch):
        monkeypatch.setattr(ensembles, "N_ESTIMATORS", 6)
        rng = np.random.default_rng(5)
        train = noisy_classes(rng, 40, 6, 3, spread=2.0)
        train = fm(np.vstack([train.values, rng.standard_normal(6)]), np.append(train.labels, 3))
        bagged = bagged_svms(train, 2)
        rows = bootstrap_draws(train.n_rows, 6, 2)
        assert {len(m.classes) for m in bagged.members} == {3, 4}
        assert_lockstep_matches_solo(train, rows, bagged.members)

    @pytest.mark.parametrize("start_classes", [4, 3])
    def test_warm_started_bag_members(self, start_classes):
        """Each problem starts from the start SVM's weights for its class;
        with 3, the start lacks class 3, whose problems start from zero."""
        rng = np.random.default_rng(5)
        train = noisy_classes(rng, 40, 6, 3, spread=2.0)
        train = fm(np.vstack([train.values, rng.standard_normal(6)]), np.append(train.labels, 3))
        start_rows = np.flatnonzero(train.labels < start_classes)
        start = fit_linear_svms(train, [start_rows])[0]
        assert len(start.classes) == start_classes
        rows = bootstrap_draws(train.n_rows, 6, 2)
        models = fit_linear_svms(train, rows, start=start)
        assert {len(m.classes) for m in models} == {3, 4}
        assert_lockstep_matches_solo(train, rows, models, start=start)

    def test_mixed_convergence(self, monkeypatch):
        """Problems that converge stop stepping while the rest go on to
        max_iter."""
        monkeypatch.setattr(svm_module, "MAX_ITER", 6)
        train = noisy_classes(np.random.default_rng(8), 50, 5, 3, spread=8.0)
        rows = bootstrap_draws(train.n_rows, 3, 4)
        with pytest.warns(RuntimeWarning, match="stopped at max_iter=6"):
            models = fit_linear_svms(train, rows)
        iters = assert_lockstep_matches_solo(train, rows, models, max_iter=6)
        assert iters.min() < 6 and iters.max() == 6

    def test_one_epoch(self, monkeypatch):
        """One Newton step, one pass over the data, per problem."""
        monkeypatch.setattr(svm_module, "MAX_ITER", 1)
        train = noisy_classes(np.random.default_rng(9), 30, 8, 3, spread=2.0)
        rows = bootstrap_draws(train.n_rows, 4, 1)
        with pytest.warns(RuntimeWarning, match="12 of 12 problems stopped at max_iter=1"):
            models = fit_linear_svms(train, rows)
        iters = assert_lockstep_matches_solo(train, rows, models, max_iter=1)
        assert iters.tolist() == [1] * 12


class TestTreeAndForest:
    def test_single_tree_reproduces_hand_traced_splits(self):
        # one feature, perfect cut between 1 and 10 at threshold 5.5
        train = fm(np.array([[0.0], [1.0], [10.0], [11.0]]), np.array([0, 0, 1, 1]))
        rng = np.random.default_rng(0)
        tree = fit_trees(train.values, train.labels, 2, [np.arange(4)], [rng], 1)[0]
        assert tree.feature[0] == 0
        assert tree.threshold[0] == pytest.approx(5.5)
        np.testing.assert_array_equal(tree.predict(np.array([[5.0], [6.0]])), [0, 1])
        np.testing.assert_array_equal(tree.predict(train.values), train.labels)

    def test_pure_node_becomes_leaf(self):
        X = np.array([[0.0], [1.0]])
        tree = fit_trees(X, np.array([1, 1]), 2, [np.arange(2)], [np.random.default_rng(0)], 1)[0]
        assert tree.feature[0] == -1
        assert tree.leaf_label[0] == 1

    def test_held_out_accuracy_on_separable_blobs(self, blob_data):
        train, test = split_blobs(blob_data)
        model = fit_random_forest(train, n_trees=50, seed=1)
        assert np.mean(model.predict(test.values) == test.labels) >= 0.95

    def test_training_accuracy_at_least_held_out(self, blob_data):
        train, test = split_blobs(blob_data)
        model = fit_random_forest(train, n_trees=50, seed=1)
        train_acc = np.mean(model.predict(train.values) == train.labels)
        test_acc = np.mean(model.predict(test.values) == test.labels)
        assert train_acc >= test_acc

    def test_same_seed_identical_predictions(self, blob_data):
        train, test = split_blobs(blob_data)
        a = fit_random_forest(train, n_trees=10, seed=9).predict(test.values)
        b = fit_random_forest(train, n_trees=10, seed=9).predict(test.values)
        np.testing.assert_array_equal(a, b)

    def test_empty_training_set(self):
        empty = FeatureMatrix(values=np.empty((0, 2)), feature_names=("a", "b"),
                              labels=np.empty(0, dtype=int))
        with pytest.raises(ClassifyError, match="empty"):
            fit_random_forest(empty, n_trees=1, seed=0)


def _scalar_best_split(X, y, idx, features, n_classes):
    """Best (feature, threshold) over idx, one feature at a time: the split
    search as it was before all trees grew in lockstep."""
    best = None  # (score, feature, threshold)
    onehot = np.eye(n_classes)[y[idx]]
    m = idx.size
    for f in features:
        vals = X[idx, f]
        order = np.argsort(vals, kind="stable")
        sv = vals[order]
        valid = sv[1:] > sv[:-1]
        if not np.any(valid):
            continue
        prefix = np.cumsum(onehot[order], axis=0)[:-1]
        n_left = np.arange(1, m)
        suffix = (prefix[-1] + onehot[order][-1])[None, :] - prefix
        score = np.sum(prefix**2, axis=1) / n_left + np.sum(suffix**2, axis=1) / (m - n_left)
        score = np.where(valid, score, -np.inf)
        p = int(np.argmax(score))
        if best is None or score[p] > best[0]:
            best = (score[p], f, 0.5 * (sv[p] + sv[p + 1]))
    return None if best is None else best[1:]


def scalar_tree(X, y, n_classes, rng, max_features=None, fallbacks=None):
    """One tree grown alone by recursion, one node at a time; every node that
    falls back to the full feature set is appended to fallbacks."""
    d = X.shape[1]
    max_features = d if max_features is None else max_features
    feature, threshold, left, right, leaf_label = columns = [], [], [], [], []

    def build(idx):
        node = len(feature)
        for column, blank in zip(columns, (-1, 0.0, -1, -1, -1)):
            column.append(blank)
        counts = np.bincount(y[idx], minlength=n_classes)
        if idx.size < 2 or np.max(counts) == idx.size:
            leaf_label[node] = int(np.argmax(counts))
            return node
        cand = rng.choice(d, size=min(max_features, d), replace=False)
        split = _scalar_best_split(X, y, idx, cand, n_classes)
        if split is None and max_features < d:
            if fallbacks is not None:
                fallbacks.append(node)
            split = _scalar_best_split(X, y, idx, np.arange(d), n_classes)
        if split is None:
            leaf_label[node] = int(np.argmax(counts))
            return node
        f, thr = split
        mask = X[idx, f] <= thr
        feature[node], threshold[node] = int(f), float(thr)
        left[node] = build(idx[mask])
        right[node] = build(idx[~mask])
        return node

    build(np.arange(X.shape[0]))
    return DecisionTree(feature, threshold, left, right, leaf_label, n_classes)


def scalar_forest(train, n_trees, seed, sample_weights=None, fallbacks=None):
    """The trees of fit_random_forest, grown one at a time by the oracle."""
    X, y = train.values, train.labels
    n, d = X.shape
    max_features = max(1, int(np.floor(np.sqrt(d))))
    trees = []
    for ss in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.default_rng(ss)
        idx = rng.choice(n, size=n, replace=True, p=sample_weights)
        trees.append(scalar_tree(X[idx], y[idx], int(y.max()) + 1, rng, max_features, fallbacks))
    return trees


def tree_blobs(trees):
    return [json.dumps(model_to_blob(t), sort_keys=True) for t in trees]


def walk_rows(tree, values):
    """Per-row descent from the root: the predict of one row at a time."""
    out = []
    for row in values:
        node = 0
        while tree.feature[node] >= 0:
            go_left = row[tree.feature[node]] <= tree.threshold[node]
            node = tree.left[node] if go_left else tree.right[node]
        out.append(tree.leaf_label[node])
    return np.array(out)


class TestLockstepTrees:
    """Every tree grown in lockstep on ranks has, byte for byte, the blob of
    the tree grown alone by the scalar search."""

    def test_single_tree_all_features(self):
        train = noisy_classes(np.random.default_rng(21), 60, 10, 4, spread=1.0)
        rows = [np.arange(train.n_rows)]
        tree = fit_trees(train.values, train.labels, 4, rows, [np.random.default_rng(3)], 10)[0]
        expected = scalar_tree(train.values, train.labels, 4, np.random.default_rng(3))
        assert tree_blobs([tree]) == tree_blobs([expected])
        assert tree.feature.size > 3

    @pytest.mark.parametrize("d", [48, 252])
    def test_forest(self, d):
        train = noisy_classes(np.random.default_rng(d), 76, d, 4, spread=1.0)
        model = fit_random_forest(train, n_trees=100, seed=d)
        assert tree_blobs(model.members) == tree_blobs(scalar_forest(train, 100, d))

    def test_weighted_forest(self):
        rng = np.random.default_rng(4)
        train = noisy_classes(rng, 50, 20, 3, spread=1.0)
        w = rng.random(train.n_rows)
        w /= w.sum()
        model = fit_random_forest(train, n_trees=25, seed=7, sample_weights=w)
        assert tree_blobs(model.members) == tree_blobs(scalar_forest(train, 25, 7, w))

    def test_full_feature_fallback(self):
        rng = np.random.default_rng(6)
        X = np.ones((40, 16))  # 4 candidates per split; only feature 9 varies
        X[:, 9] = rng.standard_normal(40)
        y = (X[:, 9] > 0).astype(int) + 2 * (np.abs(X[:, 9]) > 1)
        train = fm(X, y)
        fallbacks = []
        expected = scalar_forest(train, 20, 1, fallbacks=fallbacks)
        assert len(fallbacks) > 0
        model = fit_random_forest(train, n_trees=20, seed=1)
        assert tree_blobs(model.members) == tree_blobs(expected)

    def test_tied_and_duplicated_values(self):
        rng = np.random.default_rng(8)
        X = rng.integers(0, 3, size=(30, 6)).astype(float)
        X = np.vstack([X, X[:10]])  # duplicated rows
        X[:, 2] = -0.0  # a constant column of negative zeros
        X[::2, 2] = 0.0
        y = rng.integers(0, 3, size=40)
        train = fm(X, y)
        model = fit_random_forest(train, n_trees=30, seed=2)
        assert tree_blobs(model.members) == tree_blobs(scalar_forest(train, 30, 2))
        tree = fit_trees(X, y, 3, [np.arange(len(y))], [np.random.default_rng(5)], 6)[0]
        assert tree_blobs([tree]) == tree_blobs([scalar_tree(X, y, 3, np.random.default_rng(5))])

    @pytest.mark.parametrize(
        "n_rows, labels", [(1, [2]), (12, [1] * 12)], ids=["one_row", "one_class"]
    )
    def test_degenerate_training_sets(self, n_rows, labels):
        train = fm(np.random.default_rng(0).standard_normal((n_rows, 5)), np.array(labels))
        model = fit_random_forest(train, n_trees=5, seed=3)
        assert tree_blobs(model.members) == tree_blobs(scalar_forest(train, 5, 3))
        assert all(t.feature.tolist() == [-1] for t in model.members)

    def test_level_wise_predict_equals_row_walk(self):
        rng = np.random.default_rng(10)
        train = noisy_classes(rng, 80, 12, 4, spread=1.0)
        model = fit_random_forest(train, n_trees=10, seed=4)
        query = np.vstack([rng.standard_normal((50, 12)), train.values])
        # rows that sit exactly on a threshold go left
        query[:10, model.members[0].feature[0]] = model.members[0].threshold[0]
        for tree in model.members:
            np.testing.assert_array_equal(tree.predict(query), walk_rows(tree, query))

    def test_non_finite_features_refused(self):
        X = np.array([[0.0], [np.nan], [1.0]])
        with pytest.raises(ClassifyError, match="finite"):
            fit_trees(X, np.array([0, 1, 0]), 2, [np.arange(3)], [np.random.default_rng(0)], 1)


class TestBagging:
    def test_members_are_bootstrap_fits_and_vote(self, blob_data, monkeypatch):
        monkeypatch.setattr(ensembles, "N_ESTIMATORS", 3)
        train, test = split_blobs(blob_data)
        bagged = bagged_knns(train, 0)
        rows = {tuple(r): label for r, label in zip(train.values, train.labels)}
        for member in bagged.members:
            drawn = [tuple(r) for r in member.train_values]
            assert len(drawn) == train.n_rows
            assert len(set(drawn)) < train.n_rows  # drawn with replacement
            assert all(rows[r] == label for r, label in zip(drawn, member.train_labels))
        votes = np.vstack([m.predict(test.values) for m in bagged.members])
        np.testing.assert_array_equal(bagged.predict(test.values), majority_vote(votes, 4))

    def test_bagged_knn_close_to_bare_knn(self, blob_data):
        train, test = split_blobs(blob_data)
        bare = fit_pipeline("knn", train, seed=0)
        bagged = fit_pipeline("bagging_knn", train, seed=0)
        acc_bare = np.mean(bare.predict(test.values) == test.labels)
        acc_bag = np.mean(bagged.predict(test.values) == test.labels)
        assert acc_bag >= acc_bare - 0.02

    def test_same_seed_identical(self, blob_data):
        train, test = split_blobs(blob_data)
        a = bagged_knns(train, 5).predict(test.values)
        b = bagged_knns(train, 5).predict(test.values)
        np.testing.assert_array_equal(a, b)


class TestAdaBoost:
    def test_boost_round_weight_boundaries(self):
        alpha, keep_going = boost_round_weight(0.5, 2)  # at 1 - 1/K
        assert alpha == 0.0 and not keep_going
        alpha, keep_going = boost_round_weight(0.0, 4)
        assert not keep_going
        alpha, keep_going = boost_round_weight(0.2, 4)
        assert keep_going
        assert alpha == pytest.approx(np.log(0.8 / 0.2) + np.log(3))

    def test_perfect_first_round_single_member(self, blob_data):
        train, test = split_blobs(blob_data)
        model = fit_adaboost_rf(train, seed=0)
        # separable blobs: the first forest is perfect, boosting stops
        assert len(model.members) == 1
        np.testing.assert_array_equal(
            model.predict(test.values), model.members[0].predict(test.values)
        )

    def test_not_much_worse_than_plain_forest(self, blob_data, monkeypatch):
        monkeypatch.setattr(ensembles, "N_ROUNDS", 3)
        train, test = split_blobs(blob_data)
        rf_acc = np.mean(
            fit_random_forest(train, n_trees=25, seed=3).predict(test.values) == test.labels
        )
        ada_acc = np.mean(
            fit_adaboost_rf(train, seed=3).predict(test.values) == test.labels
        )
        assert ada_acc >= rf_acc - 0.02


class _ConstantModel(TrainedModel):
    kind = "constant"

    def __init__(self, label, n_classes=3, n_features=2):
        super().__init__(n_classes=n_classes, n_features=n_features)
        self.label = label

    def _predict(self, values):
        return np.full(values.shape[0], self.label, dtype=np.int64)


class TestVoting:
    def test_unanimous(self):
        model = VoteModel([_ConstantModel(2) for _ in range(3)], n_classes=3, n_features=2)
        np.testing.assert_array_equal(model.predict(np.zeros((4, 2))), [2, 2, 2, 2])

    def test_three_way_tie_breaks_low(self):
        members = [_ConstantModel(2), _ConstantModel(0), _ConstantModel(1)]
        model = VoteModel(members, n_classes=3, n_features=2)
        np.testing.assert_array_equal(model.predict(np.zeros((2, 2))), [0, 0])

    def test_three_copies_equal_single_model(self, blob_data):
        train, test = split_blobs(blob_data)
        knn = fit_pipeline("knn", train)  # z-scores its input
        model = VoteModel([knn, knn, knn], n_classes=4, n_features=train.n_features)
        np.testing.assert_array_equal(model.predict(test.values), knn.predict(test.values))

    def test_inconsistent_class_counts_rejected(self):
        """A member may know fewer classes than the vote, not more."""
        fewer = [_ConstantModel(0, n_classes=2), _ConstantModel(1, n_classes=3)]
        assert VoteModel(fewer, n_classes=3, n_features=2).predict(np.zeros((1, 2))).tolist() == [0]
        with pytest.raises(ClassifyError, match="exceeds the vote's 2, 2"):
            VoteModel(fewer, n_classes=2, n_features=2)

    def test_standalone_fit_votes_over_sibling_pipelines(self, blob_data):
        """Without a member lookup, voting fits its svm, knn and forest with
        its own seed, exactly as those pipelines fit alone."""
        train, _ = split_blobs(blob_data)
        model = fit_pipeline("voting", train, seed=3).model
        siblings = [fit_pipeline(name, train, seed=3) for name in ("svm", "knn", "random_forest")]
        assert [model_to_blob(m) for m in model.members] == [model_to_blob(p) for p in siblings]

    def test_member_lookup_supplies_the_voters(self, blob_data):
        train, _ = split_blobs(blob_data)
        fitted = {name: fit_pipeline(name, train, seed=seed)
                  for name, seed in (("svm", 1), ("knn", 2), ("random_forest", 3))}
        asked = []

        def member(name):
            asked.append(name)
            return fitted[name]

        model = fit_pipeline("voting", train, seed=9, member=member).model
        assert asked == ["svm", "knn", "random_forest"]
        assert all(m is fitted[n] for m, n in zip(model.members, asked))


def loop_vote(votes, n_classes, weights):
    """The voter-by-voter tally that majority_vote replaces."""
    tally = np.zeros((n_classes, votes.shape[1]))
    for v, w in zip(votes, weights):
        tally[v, np.arange(votes.shape[1])] += w
    return np.argmax(tally, axis=0)


class TestMajorityVote:
    @pytest.mark.parametrize("seed", range(5))
    def test_weighted_matches_loop(self, seed):
        rng = np.random.default_rng(seed)
        votes = rng.integers(0, 5, (12, 200))
        weights = rng.exponential(size=12)
        np.testing.assert_array_equal(majority_vote(votes, 5, weights), loop_vote(votes, 5, weights))

    @pytest.mark.parametrize("seed", range(5))
    def test_tie_heavy_matches_loop(self, seed):
        """Few voters, few classes and weights such as 0.1 + 0.2 != 0.3, so
        exact and near ties abound and only the loop's order of addition
        gives the loop's labels."""
        rng = np.random.default_rng(seed)
        votes = rng.integers(0, 3, (4, 500))
        weights = rng.choice([0.1, 0.2, 0.3, 0.6], size=4)
        np.testing.assert_array_equal(majority_vote(votes, 3, weights), loop_vote(votes, 3, weights))
        np.testing.assert_array_equal(majority_vote(votes, 3), loop_vote(votes, 3, np.ones(4)))

    def test_float_near_tie_follows_voter_order(self):
        # (0.1 + 0.2) + 0.3 > 0.6 > (0.3 + 0.2) + 0.1 in binary floating point
        votes = np.array([[1], [1], [1], [0]])
        assert majority_vote(votes, 2, np.array([0.1, 0.2, 0.3, 0.6])).tolist() == [1]
        assert majority_vote(votes, 2, np.array([0.3, 0.2, 0.1, 0.6])).tolist() == [0]


def _members(blob):
    """The member blobs of a pipeline blob's vote, or of a vote blob."""
    return blob.get("model", blob)["members"]


_STANDARDIZER_6 = model_to_blob(Standardizer(mean=np.zeros(6), std=np.ones(6)))


class TestPipelineSerialization:
    @pytest.mark.parametrize(
        "name",
        ["lda", "svm", "knn", "random_forest", "voting", "bagging_knn", "bagging_svm", "adaboost"],
    )
    def test_round_trip_preserves_predictions(self, name, blob_data, tmp_path):
        train, test = split_blobs(blob_data)
        pipe = fit_pipeline(name, train, seed=2)
        path = tmp_path / f"{name}.json"
        pipe.save(path)
        loaded = Pipeline.load(path)
        np.testing.assert_array_equal(loaded.predict(test.values), pipe.predict(test.values))
        text = json.dumps(pipe.to_blob(), sort_keys=True)
        again = json.dumps(Pipeline.from_blob(json.loads(text)).to_blob(), sort_keys=True)
        assert again == text

    def test_unknown_model_name(self, blob_data):
        with pytest.raises(ClassifyError, match="unknown model"):
            fit_pipeline("cnn", blob_data)

    def test_v1_blob_refused(self, blob_data):
        blob = fit_pipeline("lda", blob_data).to_blob()
        blob["version"] = 1
        with pytest.raises(ClassifyError, match="unsupported model blob version: 1"):
            Pipeline.from_blob(blob)

    def test_v2_blob_refused(self, blob_data):
        blob = fit_pipeline("lda", blob_data).to_blob()
        blob["version"] = 2
        with pytest.raises(ClassifyError, match="unsupported model blob version: 2"):
            Pipeline.from_blob(blob)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda member: member.pop("n_classes"), r"'knn' blob: missing fields \['n_classes'\]"),
            (lambda member: member.update(n_features=2), r"unexpected fields \['n_features'\]"),
        ],
        ids=["missing", "extra"],
    )
    def test_member_with_wrong_fields_refused(self, edit, message, blob_data):
        blob = fit_pipeline("bagging_knn", blob_data).to_blob()
        edit(blob["model"]["members"][1])
        with pytest.raises(ClassifyError, match=message):
            Pipeline.from_blob(blob)

    def test_unknown_kind_refused(self, blob_data):
        blob = fit_pipeline("bagging_knn", blob_data).to_blob()
        blob["model"]["members"][1]["kind"] = "cnn"
        with pytest.raises(ClassifyError, match="unknown model kind in blob: 'cnn'"):
            Pipeline.from_blob(blob)

    @pytest.mark.parametrize(
        "name, edit, message",
        [
            ("random_forest", lambda b: _members(b).__setitem__(0, _STANDARDIZER_6),
             "vote member is a Standardizer, not a predictor"),
            ("voting", lambda b: _members(b).__setitem__(1, _members(b)[1]["scaler"]),
             "vote member is a Standardizer, not a predictor"),
            ("random_forest", lambda b: _members(b)[0].update(n_classes=5),
             "vote member with 5 classes"),
            ("random_forest", lambda b: _members(b)[0]["feature"].__setitem__(0, 6),
             "7 features exceeds the vote's 4, 6"),
            ("bagging_svm", lambda b: b["model"].update(members=5),
             "'vote' blob: vote members must be a non-empty list, got 5"),
            ("bagging_knn", lambda b: b["model"].update(members=[]), "non-empty list, got \\[\\]"),
            ("adaboost", lambda b: b["model"].update(weights=[1.0, 1.0]), "one number per member"),
            ("voting", lambda b: _members(b)[0].update(scaler=_members(_members(b)[2]["model"])[0]),
             "pipeline scaler must be a standardizer"),
            ("lda", lambda b: b.update(version=3), "unsupported model blob version: 3"),
            ("lda", lambda b: b.update(version=4), "unsupported model blob version: 4"),
        ],
        ids=["tree_standardizer", "voting_member_standardizer", "more_classes",
             "feature_out_of_range", "members_not_a_list", "no_members", "weights_per_member",
             "pipeline_scaler_tree", "v3_blob", "v4_blob"],
    )
    def test_vote_member_refused(self, name, edit, message, blob_data):
        blob = fit_pipeline(name, blob_data).to_blob()
        edit(blob)
        with pytest.raises(ClassifyError, match=message):
            Pipeline.from_blob(blob)

    @pytest.mark.parametrize(
        "name, edit, message",
        [
            ("bagging_svm", lambda m: _members(m)[0].update(classes=[0, 1, 2, 7]),
             "vote member with 8 classes"),
            ("svm", lambda m: m.update(classes=[0, 2, 1, 3]), "strictly increasing, got \\[0, 2, 1, 3\\]"),
            ("lda", lambda m: m.update(classes=[-1, 0, 1, 2]), "non-negative"),
            ("lda", lambda m: m.update(classes=[]), "non-negative and strictly increasing, got \\[\\]"),
            ("bagging_knn", lambda m: _members(m)[0]["train_labels"].__setitem__(0, 7),
             r"knn training labels must lie in \[0, 4\)"),
            ("knn", lambda m: m["train_labels"].__setitem__(0, -1), r"must lie in \[0, 4\)"),
        ],
        ids=["bagged_svm_class_beyond_vote", "svm_classes_unordered", "lda_negative_class",
             "lda_no_classes", "bagged_knn_label_beyond_vote", "knn_negative_label"],
    )
    def test_model_predicting_an_uncountable_label_refused(self, name, edit, message, blob_data):
        blob = fit_pipeline(name, blob_data).to_blob()
        edit(blob["model"])
        with pytest.raises(ClassifyError, match=message):
            Pipeline.from_blob(blob)

    def test_blob_of_another_kind_refused(self, blob_data):
        model = fit_pipeline("knn", blob_data).to_blob()["model"]
        with pytest.raises(ClassifyError, match="holds a 'knn', not a pipeline"):
            Pipeline.from_blob({"version": 5, **model})

    def test_bagging_member_lacking_a_class_round_trips(self, monkeypatch):
        monkeypatch.setattr(ensembles, "N_ESTIMATORS", 6)
        rng = np.random.default_rng(5)
        train = noisy_classes(rng, 40, 6, 3, spread=2.0)
        train = fm(np.vstack([train.values, rng.standard_normal(6)]), np.append(train.labels, 3))
        pipe = Pipeline("bagging_svm", None, bagged_svms(train, 2))
        assert {m.n_classes for m in pipe.model.members} == {3, 4}
        loaded = Pipeline.from_blob(json.loads(json.dumps(pipe.to_blob())))
        np.testing.assert_array_equal(loaded.predict(train.values), pipe.predict(train.values))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda tree: tree["threshold"].pop(), "of one length"),
            (lambda tree: tree["left"].__setitem__(0, 0), "must come after their node"),
            (lambda tree: tree["right"].__setitem__(0, len(tree["right"])), "index a node"),
            (lambda tree: tree["leaf_label"].__setitem__(-1, 4), r"leaf labels must lie in \[0, 4\)"),
        ],
        ids=["lengths_differ", "child_not_after_node", "child_out_of_range", "label_out_of_range"],
    )
    def test_malformed_tree_refused(self, edit, message, blob_data):
        blob = fit_pipeline("adaboost", blob_data).to_blob()
        tree = _members(blob["model"]["members"][0])[1]
        assert tree["feature"][0] >= 0 and tree["feature"][-1] == -1
        edit(tree)
        with pytest.raises(ClassifyError, match=message):
            Pipeline.from_blob(blob)

    def test_tree_with_self_loop_refused(self):
        with pytest.raises(ClassifyError, match="must come after their node"):
            DecisionTree([0, -1, -1], [0.5, 0.0, 0.0], [0, -1, -1], [2, -1, -1], [-1, 0, 1], 2)
