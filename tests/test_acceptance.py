"""End-to-end acceptance checks.

Every test prints exactly one ``ACCEPTANCE <n> <name>: PASS|FAIL`` line so
the suite output doubles as a sign-off checklist.  Tolerances are stated
inline next to each check.
"""
from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest
from scipy import signal as sps

from emgbench.benchmark import (
    BenchmarkConfig,
    render_table,
    run_benchmark,
)
from emgbench.classify.knn import knn_predict
from emgbench.classify.pipeline import fit_pipeline
from emgbench.evaluate import ConfusionMatrix, metrics
from emgbench.features.extract import FAMILIES, extract
from emgbench.features.tdd import EPS, K, fuse, tdd_base, tsd_windows
from emgbench.features.wavelet import dwt
from emgbench.preprocess import design_bandpass, segment_records
from emgbench.signal_io import generate_synthetic
from test_classify import knn_oracle
from test_eval import metrics_oracle


@pytest.fixture
def announce(capsys):
    """Emit one ACCEPTANCE line per criterion directly to the terminal,
    bypassing output capture, then assert."""

    def _announce(criterion: int, name: str, passed: bool, detail: str = "") -> None:
        verdict = "PASS" if passed else "FAIL"
        suffix = f" ({detail})" if detail else ""
        with capsys.disabled():
            print(f"\nACCEPTANCE {criterion} {name}: {verdict}{suffix}")
        assert passed, f"acceptance criterion {criterion} ({name}) failed{suffix}"

    return _announce


@pytest.fixture(scope="module")
def synthetic_grid():
    """Full pipeline on the reference synthetic dataset, timed end to end."""
    t0 = time.perf_counter()
    records = generate_synthetic(
        n_classes=8, n_channels=8, fs=2048.0, trials_per_class=10,
        trial_seconds=5.0, seed=0,
    )
    from emgbench.preprocess import bandpass

    filtered = [bandpass(r) for r in records]
    ws = segment_records(filtered)
    accuracy = {}
    for family in FAMILIES:
        fm = extract(ws, family)
        from emgbench.evaluate import stratified_split

        train_idx, test_idx = stratified_split(fm.labels, 0.2, seed=1)
        train, test = fm.select(train_idx), fm.select(test_idx)
        for model in ("lda", "knn", "random_forest"):
            pipe = fit_pipeline(model, train, seed=1)
            accuracy[(family, model)] = float(
                np.mean(pipe.predict(test.values) == test.labels)
            )
    elapsed = time.perf_counter() - t0
    return accuracy, elapsed


class TestAcceptance:
    def test_1_table_lists_only_computed_rows(self, announce):
        config = BenchmarkConfig(
            dataset={"synthetic": {"n_classes": 2, "n_channels": 2, "fs": 1024.0,
                                   "trials_per_class": 2, "trial_seconds": 1.0}},
            families=("ftdd",), models=("lda",), seed=0,
        )
        reports, errors = run_benchmark(config)
        table = render_table(config.families, reports, errors)
        lines = table.splitlines()
        ok = errors == {} and len(lines) == 3 and lines[2].startswith("LDA")
        announce(1, "table lists only computed rows", ok)

    @pytest.mark.parametrize("env_var", ["GRABMYO_DIR", "FORSEMG_DIR"])
    def test_2_replication_on_user_supplied_data(self, env_var, announce, capsys):
        root = os.environ.get(env_var)
        if not root:
            with capsys.disabled():
                print(f"\nACCEPTANCE 2 replication ({env_var}): SKIPPED "
                      f"(set {env_var} to a prepared dataset directory to run)")
            pytest.skip(f"{env_var} not set")
        manifest = os.path.join(root, "manifest.json")
        config = BenchmarkConfig(dataset={"manifest": manifest}, seed=0)
        reports, errors = run_benchmark(config)
        ok = len(reports) == len(config.families) * len(config.models) and not errors
        announce(2, f"replication ({env_var})", ok, str(errors) if errors else "")

    def test_3_synthetic_separability_within_budget(self, synthetic_grid, announce):
        accuracy, elapsed = synthetic_grid
        problems = []
        if accuracy[("ftdd", "random_forest")] < 0.95:
            problems.append(f"ftdd+rf={accuracy[('ftdd', 'random_forest')]:.3f}<0.95")
        if accuracy[("ftdd", "knn")] < 0.90:
            problems.append(f"ftdd+knn={accuracy[('ftdd', 'knn')]:.3f}<0.90")
        for cell, acc in accuracy.items():
            if acc < 0.80:
                problems.append(f"{cell[0]}+{cell[1]}={acc:.3f}<0.80")
        if elapsed > 60.0:
            problems.append(f"elapsed={elapsed:.1f}s>60s")
        announce(3, "synthetic separability and runtime budget",
              not problems, "; ".join(problems) or f"{elapsed:.1f}s")

    def test_4_knn_matches_independent_oracle(self, announce):
        rng = np.random.default_rng(17)
        mismatches = 0
        for _ in range(50):
            n = int(rng.integers(6, 40))
            d = int(rng.integers(1, 4))
            # small integer grids force plenty of exact distance ties
            X = rng.integers(0, 3, size=(n, d)).astype(float)
            y = rng.integers(0, 4, size=n)
            Q = rng.integers(0, 3, size=(5, d)).astype(float)
            k = int(rng.integers(1, min(n, 7) + 1))
            if not np.array_equal(knn_predict(X, y, Q, k=k), knn_oracle(X, y, Q, k)):
                mismatches += 1
        announce(4, "knn equals brute-force oracle on 50 instances",
              mismatches == 0, f"{mismatches} mismatching instances")

    def test_5_feature_math_identities(self, announce):
        rng = np.random.default_rng(23)
        problems = []
        # wavelet analysis conserves energy on 100 random signals (rel 1e-8)
        for _ in range(100):
            n = int(rng.integers(32, 1500))
            x = rng.standard_normal(n)
            total = sum(float(np.sum(b * b)) for b in dwt(x))
            rel = abs(total - float(np.sum(x * x))) / float(np.sum(x * x))
            if rel > 1e-8:
                problems.append(f"energy drift {rel:.2e}")
                break
        # moment ratio of a sinusoid: m2/m0 = 2 sin(pi f) within 1%, and
        # tdd_base's first two descriptors are those moments' log powers
        f = 0.05
        x = np.sin(2 * np.pi * f * np.arange(4000))
        m0, m2 = (np.sqrt(np.sum(d * d) / x.size) for d in (x, np.diff(x)))
        if abs(m2 / m0 - 2 * np.sin(np.pi * f)) > 0.01 * 2 * np.sin(np.pi * f):
            problems.append("moment ratio off by more than 1%")
        if not np.allclose(tdd_base(x)[:2], np.log(np.power([m0, m2], K) + EPS),
                           rtol=1e-12, atol=0):
            problems.append("tdd_base log moments differ from the root-squared moments")
        # TKEO of a sinusoid within 1% of (N-2) A^2 sin^2(w)
        amp, omega, n = 0.8, 0.4, 2000
        x = amp * np.sin(omega * np.arange(n))
        tkeo_sum = np.exp(tsd_windows(np.vstack([x, -x]))[6])
        expected = (n - 2) * amp**2 * np.sin(omega) ** 2
        if abs(tkeo_sum - expected) > 0.01 * expected:
            problems.append("TKEO identity off by more than 1%")
        # fused contributions sum to the cosine similarity: in [-1, 1],
        # exactly 1 for identical inputs (tol 1e-6)
        for _ in range(50):
            a = rng.standard_normal(6)
            b = rng.standard_normal(6)
            s = float(np.sum(fuse(a, b)))
            if not -1.0 - 1e-9 <= s <= 1.0 + 1e-9:
                problems.append(f"fused sum {s} outside [-1, 1]")
                break
        if abs(float(np.sum(fuse(a, a))) - 1.0) > 1e-6:
            problems.append("fused self-similarity != 1")
        announce(5, "feature math identities", not problems, "; ".join(problems))

    def test_6_metrics_match_oracle(self, announce):
        rng = np.random.default_rng(29)
        worst = 0.0
        for _ in range(20):
            k = int(rng.integers(2, 8))
            counts = rng.integers(0, 40, size=(k, k))
            counts[0, 0] += 1
            cm = ConfusionMatrix(counts=counts.astype(np.int64),
                                 class_names=tuple(f"c{i}" for i in range(k)))
            report = metrics(cm)
            acc, p, r, f1 = metrics_oracle(counts)
            worst = max(
                worst,
                abs(report.accuracy - acc),
                abs(report.macro_precision - p),
                abs(report.macro_recall - r),
                abs(report.macro_f1 - f1),
            )
        announce(6, "metrics equal oracle on 20 random matrices (tol 1e-12)",
              worst <= 1e-12, f"worst deviation {worst:.2e}")

    def test_7_benchmark_deterministic_across_jobs(self, announce):
        dataset = {"synthetic": {"n_classes": 2, "n_channels": 2, "fs": 1024.0,
                                 "trials_per_class": 2, "trial_seconds": 1.0}}
        docs = []
        for jobs in (1, 3):
            config = BenchmarkConfig(
                dataset=dataset, families=("ftdd", "tsd"),
                models=("lda", "knn"), seed=5, jobs=jobs,
            )
            reports, errors = run_benchmark(config)
            assert errors == {}
            docs.append(json.dumps(
                [{k: v for k, v in r.to_json_dict().items() if k != "timing"}
                 for r in reports],
                sort_keys=True,
            ))
        announce(7, "benchmark byte-identical across --jobs (timing excluded)",
              docs[0] == docs[1])

    def test_8_filter_band_behaviour(self, announce):
        fs = 2048.0
        sos = design_bandpass(fs)
        # |H|^2 is the amplitude gain of the forward-backward application
        _, h = sps.sosfreqz(sos, worN=np.array([5.0, 100.0, 500.0]), fs=fs)
        gain = np.abs(h) ** 2
        pass_ok = abs(gain[1] - 1.0) <= 0.02  # within 2% at 100 Hz
        atten_low = -20.0 * np.log10(gain[0])
        atten_high = -20.0 * np.log10(gain[2])
        stop_ok = atten_low >= 20.0 and atten_high >= 20.0  # >= 20 dB
        announce(8, "filter passband within 2%, stopbands >= 20 dB",
              pass_ok and stop_ok,
              f"100 Hz gain {gain[1]:.4f}, 5 Hz {atten_low:.1f} dB, "
              f"500 Hz {atten_high:.1f} dB")
