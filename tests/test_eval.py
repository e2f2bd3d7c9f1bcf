from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emgbench.evaluate import (
    ConfusionMatrix,
    EvalError,
    EvaluationReport,
    metrics,
    stratified_split,
)


class TestStratifiedSplit:
    def test_balanced_four_class_counts(self):
        labels = np.repeat([0, 1, 2, 3], 10)
        train, test = stratified_split(labels, test_fraction=0.2, seed=0)
        assert len(test) == 8 and len(train) == 32
        for c in range(4):
            assert np.sum(labels[test] == c) == 2
            assert np.sum(labels[train] == c) == 8

    def test_two_per_class_leaves_one_training_sample(self):
        labels = np.array([0, 0, 1, 1, 1, 1, 1])
        train, test = stratified_split(labels, test_fraction=0.2, seed=1)
        # every class keeps at least one sample on each side
        for c in (0, 1):
            assert np.sum(labels[train] == c) >= 1
            assert np.sum(labels[test] == c) >= 1

    def test_deterministic_per_seed(self):
        labels = np.repeat([0, 1, 2], 30)
        a = stratified_split(labels, test_fraction=0.2, seed=42)
        b = stratified_split(labels, test_fraction=0.2, seed=42)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_different_seeds_differ(self):
        labels = np.repeat([0, 1], 50)
        a = stratified_split(labels, test_fraction=0.2, seed=0)[1]
        b = stratified_split(labels, test_fraction=0.2, seed=1)[1]
        assert not np.array_equal(a, b)

    def test_singleton_class_rejected(self):
        with pytest.raises(EvalError, match="fewer than 2"):
            stratified_split(np.array([0, 0, 0, 1]), test_fraction=0.2, seed=0)

    @settings(max_examples=50, deadline=None)
    @given(
        counts=st.lists(st.integers(min_value=2, max_value=25), min_size=1, max_size=5),
        frac=st.floats(min_value=0.05, max_value=0.5),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_partition_is_disjoint_and_exhaustive(self, counts, frac, seed):
        labels = np.repeat(np.arange(len(counts)), counts)
        train, test = stratified_split(labels, test_fraction=frac, seed=seed)
        merged = np.sort(np.concatenate([train, test]))
        np.testing.assert_array_equal(merged, np.arange(len(labels)))


def metrics_oracle(cm):
    """Independent arithmetic implementation of the macro-averaged report."""
    cm = np.asarray(cm, dtype=float)
    k = cm.shape[0]
    precisions, recalls, f1s = [], [], []
    for c in range(k):
        tp = cm[c, c]
        fp = cm[:, c].sum() - tp
        fn = cm[c, :].sum() - tp
        p = tp / (tp + fp) if tp + fp > 0 else 0.0
        r = tp / (tp + fn) if tp + fn > 0 else 0.0
        f = 2 * p * r / (p + r) if p + r > 0 else 0.0
        precisions.append(p)
        recalls.append(r)
        f1s.append(f)
    acc = np.trace(cm) / cm.sum()
    return acc, float(np.mean(precisions)), float(np.mean(recalls)), float(np.mean(f1s))


class TestConfusionMatrix:
    def test_from_labels_counts(self):
        cm = ConfusionMatrix.from_labels(
            np.array([0, 0, 1, 1, 2]), np.array([0, 1, 1, 1, 0]), ["a", "b", "c"]
        )
        np.testing.assert_array_equal(cm.counts, [[1, 1, 0], [0, 2, 0], [1, 0, 0]])
        assert cm.total == 5

    def test_length_mismatch_rejected(self):
        with pytest.raises(EvalError, match="length"):
            ConfusionMatrix.from_labels(np.array([0, 1]), np.array([0]), ["a", "b"])

    def test_negative_label_rejected(self):
        # a negative index once wrapped round to the last class and scored
        # [0, -1] against [0, 1] as two correct rows
        with pytest.raises(EvalError, match=r"predicted label -1 at row 1 is outside \[0, 2\)"):
            ConfusionMatrix.from_labels(np.array([0, 1]), np.array([0, -1]), ["a", "b"])

    def test_label_past_last_class_rejected(self):
        with pytest.raises(EvalError, match=r"true label 2 at row 0 is outside \[0, 2\)"):
            ConfusionMatrix.from_labels(np.array([2, 1]), np.array([0, 1]), ["a", "b"])

    def test_counts_match_loop_oracle(self):
        rng = np.random.default_rng(0)
        true, predicted = rng.integers(0, 5, 300), rng.integers(0, 5, 300)
        expected = np.zeros((5, 5), dtype=np.int64)
        for t, p in zip(true, predicted):
            expected[t, p] += 1
        cm = ConfusionMatrix.from_labels(true, predicted, list("abcde"))
        np.testing.assert_array_equal(cm.counts, expected)


class TestMetrics:
    def test_perfect_diagonal(self):
        report = metrics(ConfusionMatrix(counts=np.eye(2, dtype=np.int64) * 5, class_names=("a", "b")))
        assert report.accuracy == 1.0
        assert report.macro_precision == 1.0
        assert report.macro_recall == 1.0
        assert report.macro_f1 == 1.0

    def test_binary_hand_computed(self):
        # class 1: Tp=3, Fp=1, Fn=2 -> P=0.75, R=0.6, F1=2*0.45/1.35
        cm = ConfusionMatrix(counts=np.array([[4, 1], [2, 3]], dtype=np.int64), class_names=("a", "b"))
        report = metrics(cm)
        assert report.per_class_precision[1] == pytest.approx(0.75, abs=1e-9)
        assert report.per_class_recall[1] == pytest.approx(0.6, abs=1e-9)
        assert report.per_class_f1[1] == pytest.approx(2 * 0.45 / 1.35, abs=1e-9)
        assert report.accuracy == pytest.approx(0.7, abs=1e-9)

    def test_never_predicted_class_scores_zero(self):
        cm = ConfusionMatrix(counts=np.array([[3, 0], [2, 0]], dtype=np.int64), class_names=("a", "b"))
        report = metrics(cm)
        assert report.per_class_precision[1] == 0.0
        assert report.per_class_recall[1] == 0.0
        assert report.per_class_f1[1] == 0.0

    def test_matches_oracle_on_random_matrices(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            k = int(rng.integers(2, 7))
            counts = rng.integers(0, 30, size=(k, k))
            counts[0, 0] += 1  # guarantee a nonzero total
            report = metrics(ConfusionMatrix(counts=counts.astype(np.int64),
                                         class_names=tuple(f"c{i}" for i in range(k))))
            acc, p, r, f = metrics_oracle(counts)
            assert abs(report.accuracy - acc) <= 1e-12
            assert abs(report.macro_precision - p) <= 1e-12
            assert abs(report.macro_recall - r) <= 1e-12
            assert abs(report.macro_f1 - f) <= 1e-12

    def test_empty_matrix_rejected(self):
        with pytest.raises(EvalError, match="empty"):
            metrics(ConfusionMatrix(counts=np.zeros((2, 2), dtype=np.int64), class_names=("a", "b")))


class TestEvaluationReport:
    def test_json_round_trip(self):
        counts = [[3, 1, 0], [0, 2, 2], [1, 0, 4]]
        cm = ConfusionMatrix(counts=counts, class_names=("a", "b", "c"))
        report = EvaluationReport(
            family="tsd",
            model="knn",
            metrics=metrics(cm),
            confusion=cm,
            config={"seed": 4, "band": {"low": 20.0}},
            seed=123,
            timing={"fit_seconds": 0.25, "predict_seconds": 0.5},
        )
        doc = json.loads(json.dumps(report.to_json_dict()))
        assert EvaluationReport.from_json_dict(doc).to_json_dict() == doc
