import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from augbench.analyze import (AnalyzeError, FEATURE_NAMES, RATING_POINTS, _fit_many,
                              build_feature_matrix, cross_validate_l1, fit_l1_logistic,
                              numeracy_probe, sentence_features, split_sentences,
                              standardize)

import digests


class TestSplitSentences:
    def test_basic(self):
        assert split_sentences("Great film. Loved it!") == ["Great film.", "Loved it!"]

    def test_no_punctuation_fallback(self):
        assert split_sentences("no punctuation") == ["no punctuation"]

    def test_abbreviation_guard(self):
        out = split_sentences("Mr. Smith was great. The end.")
        assert out == ["Mr. Smith was great.", "The end."]

    def test_question_and_exclamation(self):
        out = split_sentences("Why? Because! It works.")
        assert out == ["Why?", "Because!", "It works."]

    @given(st.text(max_size=200))
    @settings(max_examples=300, deadline=None)
    def test_character_conservation(self, text):
        joined = "".join("".join(s.split()) for s in split_sentences(text))
        assert joined == "".join(text.split())


def _length_scorer(sentence: str) -> float:
    # deterministic stand-in classifier: longer sentences score higher
    return min(1.0, len(sentence.split()) / 10)


def _features(text, predict_fn):
    """`sentence_features` with each entry named as in `FEATURE_NAMES`."""
    return SimpleNamespace(**dict(zip(FEATURE_NAMES, sentence_features(text, predict_fn))))


class TestSentenceFeatures:
    def test_row_in_feature_names_order(self):
        scores = iter([0.0, 1.0])
        row = sentence_features("One. Two.", lambda s: next(scores))
        assert row.dtype == np.float64
        assert row.tolist() == [1.0, 0.0, 0.5, 1.0, 0.0, 2.0]

    def test_single_sentence_degenerate(self):
        f = _features("five words in this sentence", _length_scorer)
        assert f.last == f.first == f.avg == f.max == f.min
        assert f.len == 1

    def test_two_sentence_arithmetic(self):
        scores = iter([0.0, 1.0])
        f = _features("One. Two.", lambda s: next(scores))
        assert (f.first, f.last, f.avg, f.max, f.min, f.len) == (0.0, 1.0, 0.5, 1.0, 0.0, 2.0)

    def test_empty_text_rejected(self):
        with pytest.raises(AnalyzeError):
            sentence_features("   ", _length_scorer)

    def test_matches_independent_recomputation(self):
        text = "Short one. A somewhat longer second sentence here. End!"
        f = _features(text, _length_scorer)
        scores = [_length_scorer(s) for s in split_sentences(text)]
        assert f.first == scores[0]
        assert f.last == scores[-1]
        assert f.avg == pytest.approx(sum(scores) / len(scores))
        assert f.max == max(scores)
        assert f.min == min(scores)
        assert f.len == len(scores)

    def test_invariant_ordering(self):
        text = "Good. Bad! Mediocre middle sentence? The end."
        f = _features(text, _length_scorer)
        assert f.min <= f.avg <= f.max
        assert f.min <= f.first <= f.max
        assert f.min <= f.last <= f.max


class TestStandardize:
    def test_zero_mean_unit_variance(self):
        rng = np.random.RandomState(0)
        X, _, _ = standardize(rng.rand(200, 6) * 5 + 2)
        assert np.all(np.abs(X.mean(axis=0)) < 1e-9)
        assert np.all(np.abs(X.std(axis=0) - 1.0) < 1e-9)

    def test_constant_column_becomes_zero(self):
        X, _, _ = standardize(np.column_stack([np.ones(10), np.arange(10)]))
        assert np.all(X[:, 0] == 0.0)


def _make_last_only_data(rng, n=200, noise=0.5):
    """Synthetic features where the target depends only on `last` (column 0)."""
    X = rng.randn(n, 6)
    X[:, 5] = np.abs(X[:, 5]) + 1  # len >= 1
    Xs, _, _ = standardize(X)
    logits = 3.0 * Xs[:, 0] + noise * rng.randn(n)
    y = (logits > 0).astype(float)
    return Xs, y


class TestFitL1Logistic:
    def test_full_shrinkage_at_large_lambda(self):
        rng = np.random.RandomState(0)
        X, y = _make_last_only_data(rng)
        fit = fit_l1_logistic(X, y, 1e6)
        assert np.all(fit.coefficients == 0.0)
        base_rate = y.mean()
        assert fit.intercept == pytest.approx(np.log(base_rate / (1 - base_rate)), abs=1e-6)

    def test_support_recovery(self):
        rng = np.random.RandomState(1)
        X, y = _make_last_only_data(rng)
        fit = fit_l1_logistic(X, y, 0.05)
        assert fit.coefficients[0] > 0
        # max, min, len are exact zeros
        assert fit.coefficients[3] == 0.0
        assert fit.coefficients[4] == 0.0
        assert fit.coefficients[5] == 0.0

    def test_lambda_zero_matches_gradient_descent_oracle(self):
        rng = np.random.RandomState(2)
        X = rng.randn(80, 3)
        Xs, _, _ = standardize(X)
        # noisy targets keep the unregularized optimum finite
        logits = 1.5 * Xs[:, 0] + 0.7 * Xs[:, 1]
        y = rng.binomial(1, 1 / (1 + np.exp(-logits))).astype(float)

        # independent from-scratch full-batch gradient descent
        w = np.zeros(3)
        b = 0.0
        for _ in range(60000):
            z = Xs @ w + b
            p = 1 / (1 + np.exp(-z))
            gw = Xs.T @ (p - y) / len(y)
            gb = np.mean(p - y)
            w -= 0.5 * gw
            b -= 0.5 * gb

        fit = fit_l1_logistic(Xs, y, 0.0, max_sweeps=5000)
        assert np.max(np.abs(fit.coefficients - w)) < 1e-4
        assert abs(fit.intercept - b) < 1e-4

    def test_coefficients_shrink_along_path(self):
        rng = np.random.RandomState(3)
        X, y = _make_last_only_data(rng)
        grid = [0.0, 0.01, 0.05, 0.1, 0.5]
        fits = [np.abs(fit_l1_logistic(X, y, lam).coefficients) for lam in grid]
        for a, b in zip(fits, fits[1:]):
            assert np.all(b <= a + 1e-8)

    def test_single_class_rejected(self):
        with pytest.raises(AnalyzeError):
            fit_l1_logistic(np.zeros((4, 2)), np.ones(4), 0.1)

    def test_deterministic(self):
        rng = np.random.RandomState(4)
        X, y = _make_last_only_data(rng)
        f1 = fit_l1_logistic(X, y, 0.02)
        f2 = fit_l1_logistic(X, y, 0.02)
        assert np.array_equal(f1.coefficients, f2.coefficients)


class TestCrossValidateL1:
    def test_picks_from_grid_deterministically(self):
        rng = np.random.RandomState(5)
        X, y = _make_last_only_data(rng)
        lam1 = cross_validate_l1(X, y, grid=(0.001, 0.01, 0.1))
        lam2 = cross_validate_l1(X, y, grid=(0.001, 0.01, 0.1))
        assert lam1 == lam2
        assert lam1 in (0.001, 0.01, 0.1)

    def test_se_rule_never_picks_smaller_lambda(self):
        rng = np.random.RandomState(6)
        X, y = _make_last_only_data(rng)
        grid = (0.001, 0.01, 0.05, 0.1)
        plain = cross_validate_l1(X, y, grid=grid)
        conservative = cross_validate_l1(X, y, grid=grid, se_multiplier=2.0)
        assert conservative >= plain


class TestL1Validation:
    @pytest.mark.parametrize("lam", [-1.0, -1e-12, float("nan"), float("inf")])
    def test_bad_strength_rejected(self, lam):
        X, y = _make_last_only_data(np.random.RandomState(7), n=40)
        with pytest.raises(AnalyzeError, match="l1 strength"):
            fit_l1_logistic(X, y, lam)

    @pytest.mark.parametrize("bad", [-0.1, float("nan"), float("-inf")])
    def test_bad_grid_entry_rejected(self, bad):
        X, y = _make_last_only_data(np.random.RandomState(7), n=40)
        with pytest.raises(AnalyzeError, match="l1 strength"):
            cross_validate_l1(X, y, grid=(0.01, bad))

    # Each once came back as NaN weights, the first grid entry or a numpy error.
    @pytest.mark.parametrize("fit", ["fit_l1_logistic", "cross_validate_l1"])
    @pytest.mark.parametrize("case", ["nan", "inf", "-inf", "1-D", "row count"])
    def test_bad_features_rejected(self, fit, case):
        X, y = _make_last_only_data(np.random.RandomState(7), n=40)
        if case in ("nan", "inf", "-inf"):
            X[3, 2], message = float(case), "finite"
        else:
            X, message = (X[:, 0] if case == "1-D" else X[:-1]), "one row per target"
        with pytest.raises(AnalyzeError, match=message):
            if fit == "fit_l1_logistic":
                fit_l1_logistic(X, y, 0.01)
            else:
                cross_validate_l1(X, y)

    # A squared entry above about 1.3e154 overflows the curvature bound; that
    # column's weight once stayed 0.0, with only a numpy RuntimeWarning.
    @pytest.mark.parametrize("fit", ["fit_l1_logistic", "cross_validate_l1"])
    @pytest.mark.parametrize("big", [1e200, -1e155, 1.5e154])
    def test_overflowing_features_rejected_without_warning(self, fit, big):
        X, y = _make_last_only_data(np.random.RandomState(7), n=40)
        X[5, 1] = big
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AnalyzeError, match=r"too large .* column\(s\) \[1\]"):
                if fit == "fit_l1_logistic":
                    fit_l1_logistic(X, y, 0.01)
                else:
                    cross_validate_l1(X, y)

    def test_large_finite_bound_still_fits(self):
        X, y = _make_last_only_data(np.random.RandomState(7), n=40)
        X[5, 1] = 1e153  # squares to 1e306: large, finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_l1_logistic(X, y, 0.01)
        assert np.isfinite(fit.coefficients).all()

    def test_negative_zero_is_zero(self):
        X, y = _make_last_only_data(np.random.RandomState(8), n=40)
        a, b = fit_l1_logistic(X, y, -0.0), fit_l1_logistic(X, y, 0.0)
        assert a.coefficients.tobytes() == b.coefficients.tobytes()


# -- the per-fit scalar loop the lockstep solver replaced, kept as the reference --

def _reference_soft_threshold(x, t):
    if x > t:
        return x - t
    if x < -t:
        return x + t
    return 0.0


def _reference_fit(X, y, l1_strength, max_sweeps=1000, tol=1e-10):
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, d = X.shape
    lips = 0.25 * np.mean(X ** 2, axis=0)
    lips = np.where(lips > 0, lips, 0.25)
    w = np.zeros(d)
    b = 0.0
    z = np.zeros(n)
    for _ in range(max_sweeps):
        p = 1.0 / (1.0 + np.exp(-z))
        delta_b = -float(np.mean(p - y)) / 0.25
        b += delta_b
        z += delta_b
        max_change = abs(delta_b)
        for j in range(d):
            p = 1.0 / (1.0 + np.exp(-z))
            grad = float(np.mean(X[:, j] * (p - y)))
            new_wj = _reference_soft_threshold(w[j] - grad / lips[j], l1_strength / lips[j])
            delta = new_wj - w[j]
            if delta != 0.0:
                z += delta * X[:, j]
                w[j] = new_wj
                max_change = max(max_change, abs(delta))
        if max_change < tol:
            break
    return w, b


def _reference_cv(X, y, grid, folds=5, se_multiplier=0.0):
    n = len(y)
    order = np.random.RandomState(0).permutation(n)
    assignment = np.empty(n, dtype=np.int64)
    assignment[order] = np.arange(n) % folds
    stats = {}
    for lam in grid:
        losses = []
        for f in range(folds):
            tr, te = assignment != f, assignment == f
            if len(np.unique(y[tr])) < 2 or te.sum() == 0:
                continue
            w, b = _reference_fit(X[tr], y[tr], lam, max_sweeps=300)
            z = X[te] @ w + b
            p = np.clip(1.0 / (1.0 + np.exp(-z)), 1e-12, 1 - 1e-12)
            losses.append(float(-np.mean(y[te] * np.log(p) + (1 - y[te]) * np.log(1 - p))))
        if losses:
            stats[lam] = (float(np.mean(losses)), float(np.std(losses) / np.sqrt(len(losses))))
    best = min(stats, key=lambda lam: stats[lam][0])
    if se_multiplier <= 0:
        return best
    threshold = stats[best][0] + se_multiplier * stats[best][1]
    return max(lam for lam in stats if stats[lam][0] <= threshold)


# n straddles numpy's pairwise-sum edges: 8-element unrolling and 128-element blocks
_EDGE_N = st.sampled_from([6, 7, 8, 9, 16, 17, 127, 128, 129, 130, 136, 160, 161, 257])


def _design(seed, n, d, constant_col, scale):
    """Standardized-looking features and noisy targets; both classes guaranteed."""
    rng = np.random.RandomState(seed)
    X = rng.randn(n, d) * scale
    if constant_col:
        X[:, rng.randint(d)] = 0.0
    y = (X[:, 0] + 0.8 * rng.randn(n) > 0).astype(float)
    y[:2] = (0.0, 1.0)
    return X, y


def _same_fit(fit, reference):
    w, b = reference
    return fit.coefficients.tobytes() == w.tobytes() and fit.intercept.hex() == b.hex()


class TestLockstepMatchesReference:
    @given(seed=st.integers(0, 2**31 - 1), n=st.one_of(_EDGE_N, st.integers(6, 300)),
           d=st.integers(1, 8), constant_col=st.booleans(),
           scale=st.sampled_from([0.3, 1.0, 4.0]),
           lam=st.sampled_from([0.0, 1e-4, 0.01, 0.05, 0.3, 5.0]),
           max_sweeps=st.sampled_from([0, 1, 2, 7, 1000]))
    # stops at the sweep cap; and a column of zeros, which never moves at lam = 0
    @example(seed=1, n=200, d=6, constant_col=False, scale=4.0, lam=1e-3, max_sweeps=1000)
    @example(seed=0, n=200, d=6, constant_col=True, scale=1.0, lam=0.0, max_sweeps=1000)
    @settings(max_examples=60, deadline=None)
    def test_fit_bit_identical(self, seed, n, d, constant_col, scale, lam, max_sweeps):
        X, y = _design(seed, n, d, constant_col, scale)
        fit = fit_l1_logistic(X, y, lam, max_sweeps=max_sweeps)
        assert _same_fit(fit, _reference_fit(X, y, lam, max_sweeps=max_sweeps))

    @given(seed=st.integers(0, 2**31 - 1), n=st.one_of(_EDGE_N, st.integers(6, 200)),
           d=st.integers(1, 6), r=st.integers(2, 7), max_sweeps=st.sampled_from([3, 60, 300]))
    @settings(max_examples=25, deadline=None)
    def test_lockstep_rows_match_lone_fits(self, seed, n, d, r, max_sweeps):
        # different data, strengths and convergence sweeps per row, so rows freeze apart
        designs = [_design(seed + i, n, d, i % 3 == 0, 1.0 + i) for i in range(r)]
        lams = [(0.0, 1e-3, 0.02, 0.1, 0.5, 2.0, 1e-4)[i] for i in range(r)]
        W, B = _fit_many(np.stack([X for X, _ in designs]), np.stack([y for _, y in designs]),
                         lams, max_sweeps, 1e-10)
        for i, ((X, y), lam) in enumerate(zip(designs, lams)):
            w, b = _reference_fit(X, y, lam, max_sweeps=max_sweeps)
            assert W[i].tobytes() == w.tobytes() and float(B[i]).hex() == b.hex(), i

    @given(seed=st.integers(0, 2**31 - 1), n=st.one_of(_EDGE_N, st.integers(10, 160)),
           d=st.integers(1, 6), folds=st.integers(2, 6), constant_col=st.booleans(),
           grid=st.lists(st.sampled_from([0.0, 1e-4, 1e-3, 0.01, 0.05, 0.2, 1.0]),
                         min_size=1, max_size=5),
           se_multiplier=st.sampled_from([0.0, 0.5, 2.0]))
    @example(seed=1, n=83, d=6, folds=5, constant_col=False, grid=[0.0, 0.01, 0.0, 0.01],
             se_multiplier=1.0)
    @settings(max_examples=25, deadline=None)
    def test_cross_validation_identical(self, seed, n, d, folds, constant_col, grid,
                                        se_multiplier):
        X, y = _design(seed, n, d, constant_col, 1.0)
        got = cross_validate_l1(X, y, grid=grid, folds=folds, se_multiplier=se_multiplier)
        want = _reference_cv(X, y, grid, folds, se_multiplier)
        assert float(got).hex() == float(want).hex()


def test_regression_fits_match_recorded_digests():
    assert digests.regression_fits() == {
        kind: digests.recorded(f"regression_fit_{kind}")
        for kind in ("true_label", "model_prediction")}


class TestNumeracyProbe:
    def test_row_shape_and_order(self):
        rows = numeracy_probe(lambda t: 0.5)
        assert len(rows) == 12
        assert [r[0] for r in rows] == ["0", "1", "2", "3", "4", "5", "6", "6.5",
                                        "7", "8", "9", "10"]

    def test_constant_model_constant_column(self):
        rows = numeracy_probe(lambda t: 0.25)
        assert all(p == 0.25 for _, p in rows)

    def test_template_validation(self):
        with pytest.raises(AnalyzeError):
            numeracy_probe(lambda t: 0.5, template="no slot here")
        with pytest.raises(AnalyzeError):
            numeracy_probe(lambda t: 0.5, template="{} and {}")

    # One `{}` among other fields, unmatched braces or only escaped ones: the
    # template holds exactly one bare field or is rejected before any scoring.
    @pytest.mark.parametrize("template", [
        "{x} {}", "Rating {}/10 {", "Rating {}/10 }", "Rating {0}/10 {}", "Rating {{}}/10",
        "Rating {}/10 {!r}", "Rating {:>3}/10 {}", "Rating {:{}}/10"])
    def test_template_with_other_fields_or_braces_rejected(self, template):
        seen = []
        with pytest.raises(AnalyzeError, match="exactly one {} slot"):
            numeracy_probe(lambda t: seen.append(t) or 0.5, template=template)
        assert not seen

    def test_literal_braces_around_the_slot(self):
        seen = []
        numeracy_probe(lambda t: seen.append(t) or 0.5, template="{{Rating}} {}/10")
        assert seen[0] == "{Rating} 0/10"

    def test_template_instantiation(self):
        seen = []
        numeracy_probe(lambda t: seen.append(t) or 0.5, template="Rating {}/10")
        assert "Rating 6.5/10" in seen
        assert "Rating 0/10" in seen


def test_build_feature_matrix_shape():
    texts = ["One. Two. Three.", "Only one sentence"]
    M = build_feature_matrix(texts, _length_scorer)
    assert M.shape == (2, 6)
