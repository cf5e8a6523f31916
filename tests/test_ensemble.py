import json
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import minimize_scalar

from augbench import ensemble
from augbench.classify import ClassifyError, PredictionTable
from augbench.ensemble import (EnsembleError, SimplexWeights, calibration_report, combine,
                               fit_weights, log_loss, tta_generate)
from augbench.translate import MockProvider, TranslationCache, backtranslate

from synth import make_review_corpus


def _table(rows):
    t = PredictionTable()
    for doc_id, source, p in rows:
        t.add(doc_id, source, p)
    return t


def _random_table(rng, n_docs, n_sources):
    t = PredictionTable()
    labels = {}
    for i in range(n_docs):
        doc = f"d{i}"
        labels[doc] = "pos" if rng.random() < 0.5 else "neg"
        for s in range(n_sources):
            t.add(doc, f"s{s}", rng.random())
    return t, labels


class TestSimplexWeights:
    def test_negative_rejected(self):
        with pytest.raises(EnsembleError):
            SimplexWeights({"a": -0.1, "b": 1.1})

    def test_sum_must_be_one(self):
        with pytest.raises(EnsembleError):
            SimplexWeights({"a": 0.4, "b": 0.4})

    def test_tolerance_is_tight(self):
        SimplexWeights({"a": 0.5, "b": 0.5 + 5e-10})

    @pytest.mark.parametrize("weights", [
        {"x": float("nan")}, {"a": float("nan"), "b": 1.0}, {"a": float("inf")},
        {"a": float("-inf"), "b": 1.0}, {"a": True}, {"a": False, "b": True},
        {"a": "x"}, {"a": None}, {"a": [1.0]},
    ])
    def test_weight_that_is_not_a_finite_real_rejected(self, weights):
        with pytest.raises(EnsembleError, match="is not a finite number"):
            SimplexWeights(weights)

    def test_numpy_and_integer_weights_accepted(self):
        assert SimplexWeights({"a": np.float64(0.25), "b": 0, "c": np.int64(0),
                               "d": 0.75}).weights["d"] == 0.75

    @pytest.mark.parametrize("content,message", [
        ('{"weights": {"a": 0.5', "cannot read weights"),
        (b"\xff\xfe", "cannot read weights"),
        ("{}", "expected a JSON object with a 'weights' mapping"),
        ("[1.0]", "expected a JSON object with a 'weights' mapping"),
        ('{"weights": [1.0]}', "expected a JSON object with a 'weights' mapping"),
        ('{"weights": {"a": "x"}}', "weight for source 'a' is not a finite number: 'x'"),
        ('{"weights": {"x": NaN}}', "weight for source 'x' is not a finite number: nan"),
        ('{"weights": {"x": Infinity}}', "weight for source 'x' is not a finite number: inf"),
        ('{"weights": {"a": true}}', "weight for source 'a' is not a finite number: True"),
        ('{"weights": {"a": 0.5}}', "weights sum to 0.5, expected 1"),
    ])
    def test_from_json_rejects_bad_files_naming_them(self, tmp_path, content, message):
        path = tmp_path / "w.json"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")
        with pytest.raises(EnsembleError) as info:
            SimplexWeights.from_json(path)
        assert str(info.value).startswith(f"{path}: ")
        assert message in str(info.value)

    def test_json_round_trip(self, tmp_path):
        w = SimplexWeights({"a": 0.25, "b": 0.75})
        path = tmp_path / "w.json"
        w.to_json(path, fitting_set="valid")
        assert SimplexWeights.from_json(path).weights == w.weights

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "w.json"
        SimplexWeights({"a": 1.0}).to_json(path, fitting_set="valid")
        old = path.read_bytes()
        with pytest.raises(ValueError, match="not JSON compliant"):
            SimplexWeights({"b": 1.0}).to_json(path, fitting_set="valid", loss=float("nan"))
        assert path.read_bytes() == old
        assert list(tmp_path.iterdir()) == [path]

    @given(names=st.lists(st.text(), min_size=1, max_size=6, unique=True),
           masses=st.lists(st.floats(0, 1e6), min_size=6, max_size=6),
           loss=st.none() | st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=200, deadline=None)
    def test_json_round_trip_property(self, tmp_path_factory, names, masses, loss):
        masses = masses[:len(names)]
        total = sum(masses)
        weights = ({s: m / total for s, m in zip(names, masses)} if total
                   else {s: float(i == 0) for i, s in enumerate(names)})
        w = SimplexWeights(weights)
        path = tmp_path_factory.mktemp("w") / "w.json"
        w.to_json(path, fitting_set="valid", loss=loss)
        strict = json.loads(path.read_text(encoding="utf-8"),
                            parse_constant=lambda c: pytest.fail(f"not JSON: {c}"))
        assert strict.get("loss") == loss and ("loss" in strict) == (loss is not None)
        assert SimplexWeights.from_json(path).weights == weights


class TestCombine:
    def test_vertex_reproduces_single_source(self):
        t = _table([("a", "s1", 0.2), ("a", "s2", 0.9),
                    ("b", "s1", 0.7), ("b", "s2", 0.1)])
        out = combine(t, SimplexWeights({"s1": 1.0, "s2": 0.0}), ["a", "b"])
        assert out.get("a", "ensemble") == 0.2
        assert out.get("b", "ensemble") == 0.7

    def test_midpoint(self):
        t = _table([("a", "s1", 0.2), ("a", "s2", 0.8)])
        out = combine(t, SimplexWeights({"s1": 0.5, "s2": 0.5}), ["a"])
        assert out.get("a", "ensemble") == pytest.approx(0.5)

    def test_missing_entries_listed(self):
        t = _table([("a", "s1", 0.2)])
        with pytest.raises(ClassifyError, match="missing predictions"):
            combine(t, SimplexWeights({"s1": 0.5, "s2": 0.5}), ["a"])

    @given(seed=st.integers(0, 2**32 - 1), n_docs=st.integers(1, 40),
           names=st.lists(st.text(min_size=1, max_size=8), min_size=3, max_size=6,
                          unique=True).filter(lambda names: names != sorted(names)),
           masses=st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3),
           extra=st.lists(st.just(0.0) | st.floats(0.01, 1.0), min_size=3, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_weights_read_back_combine_to_the_same_bits(self, tmp_path_factory, seed,
                                                        n_docs, names, masses, extra):
        # sources inserted out of name order, as `tta:<lang>` after `ulmfit` would be
        rng = random.Random(seed)
        t = _table([(f"d{i}", s, rng.random()) for i in range(n_docs) for s in names])
        masses = (masses + extra)[:len(names)]
        w = SimplexWeights({s: m / sum(masses) for s, m in zip(names, masses)})
        path = tmp_path_factory.mktemp("w") / "w.json"
        w.to_json(path)
        docs = t.doc_ids(names[0])
        direct, read = combine(t, w, docs), combine(t, SimplexWeights.from_json(path), docs)
        for d in docs:
            assert direct.get(d, "ensemble") == read.get(d, "ensemble"), d

    def test_affine_in_weights(self):
        rng = random.Random(0)
        t, _ = _random_table(rng, 20, 3)
        docs = [f"d{i}" for i in range(20)]
        w1 = SimplexWeights({"s0": 1.0, "s1": 0.0, "s2": 0.0})
        w2 = SimplexWeights({"s0": 0.0, "s1": 1.0, "s2": 0.0})
        mix = SimplexWeights({"s0": 0.3, "s1": 0.7, "s2": 0.0})
        a = combine(t, w1, docs)
        b = combine(t, w2, docs)
        m = combine(t, mix, docs)
        for d in docs:
            assert m.get(d, "ensemble") == pytest.approx(
                0.3 * a.get(d, "ensemble") + 0.7 * b.get(d, "ensemble"))


class TestFitWeights:
    def test_perfect_source_dominates(self):
        rng = random.Random(1)
        t = PredictionTable()
        labels = {}
        for i in range(60):
            doc = f"d{i}"
            labels[doc] = "pos" if i % 2 == 0 else "neg"
            truth = 1.0 if labels[doc] == "pos" else 0.0
            t.add(doc, "noisy1", rng.random())
            t.add(doc, "perfect", truth)
            t.add(doc, "noisy2", rng.random())
        w = fit_weights(t, labels)
        assert w.weights["perfect"] >= 0.99

    def test_identical_sources_tie_break_first(self):
        t = PredictionTable()
        labels = {}
        for i in range(20):
            doc = f"d{i}"
            labels[doc] = "pos" if i % 2 == 0 else "neg"
            p = 0.8 if i % 2 == 0 else 0.2
            t.add(doc, "first", p)
            t.add(doc, "second", p)
        w = fit_weights(t, labels)
        assert w.weights["first"] == 1.0
        assert w.weights["second"] == 0.0

    def test_never_worse_than_best_vertex(self):
        rng = random.Random(2)
        for trial in range(25):
            t, labels = _random_table(rng, rng.randint(5, 40), rng.randint(2, 5))
            sources = t.sources
            docs = t.doc_ids(sources[0])
            y = np.array([1.0 if labels[d] == "pos" else 0.0 for d in docs])
            w = fit_weights(t, labels)
            fitted = combine(t, w, docs)
            fitted_loss = log_loss(
                np.array([fitted.get(d, "ensemble") for d in docs]), y)
            for s in sources:
                vertex_loss = log_loss(np.array([t.get(d, s) for d in docs]), y)
                assert fitted_loss <= vertex_loss + 1e-9

    def test_vertex_optimum_is_exact(self):
        labels = {f"d{i}": "pos" if i % 2 == 0 else "neg" for i in range(20)}
        t = _table([(d, "good", 0.9 if lab == "pos" else 0.1) for d, lab in labels.items()]
                   + [(d, "bad", 0.5) for d in labels])
        assert fit_weights(t, labels).weights == {"bad": 0.0, "good": 1.0}

    def test_deterministic(self):
        rng = random.Random(3)
        t, labels = _random_table(rng, 30, 4)
        w1 = fit_weights(t, labels)
        w2 = fit_weights(t, labels)
        assert w1.weights == w2.weights

    def test_needs_two_sources(self):
        t = _table([("a", "s1", 0.5)])
        with pytest.raises(EnsembleError):
            fit_weights(t, {"a": "pos"})

    def test_labeled_doc_a_source_lacks_is_an_error(self):
        # fitted on every labeled document any source holds, not on those all hold
        t = _table([(d, "a", 0.5) for d in ("d1", "d2", "d3", "d4")]
                   + [(d, "b", 0.5) for d in ("d1", "d2")])
        labels = {"d1": "pos", "d2": "neg", "d3": "pos", "d4": "neg"}
        with pytest.raises(ClassifyError, match=re.escape(
                "missing predictions for 2 (doc, source) pairs: ('d3', 'b'), ('d4', 'b')")):
            fit_weights(t, labels)
        # an unlabeled document a source lacks is not in the fitting set
        assert fit_weights(t, {"d1": "pos", "d2": "neg"}).weights == {"a": 1.0, "b": 0.0}

    def test_no_labeled_docs(self):
        t = _table([("a", "s1", 0.5), ("a", "s2", 0.5)])
        with pytest.raises(EnsembleError, match="no labeled documents in any source"):
            fit_weights(t, {"b": "pos"})

    def test_no_common_labeled_docs(self):
        t = _table([("a", "s1", 0.5), ("b", "s2", 0.5)])
        with pytest.raises(ClassifyError, match=re.escape(
                "missing predictions for 2 (doc, source) pairs: ('a', 's2'), ('b', 's1')")):
            fit_weights(t, {"a": "pos", "b": "neg"})


def _reference_log_loss(p, y):
    """`log_loss` as the clip/mean formula it replaced."""
    p = np.clip(p, ensemble._EPS, 1.0 - ensemble._EPS)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


class TestLogLoss:
    @given(n=st.integers(1, 5000), seed=st.integers(0, 2**32 - 1),
           special=st.lists(st.sampled_from([0.0, 1.0, ensemble._EPS, 1.0 - ensemble._EPS,
                                             5e-324, np.nextafter(1.0, 0.0)]), max_size=8),
           column=st.booleans())
    @example(n=1, seed=0, special=[0.0], column=False)
    @example(n=1, seed=0, special=[1.0], column=True)
    @example(n=5000, seed=1, special=[0.0, 1.0, 1.0, 0.0], column=False)
    @settings(max_examples=200, deadline=None)
    def test_bits_equal_clip_mean_reference(self, n, seed, special, column):
        rng = np.random.default_rng(seed)
        mat = rng.random((n, 2))
        y = (rng.random(n) < 0.5).astype(float)
        for value, i in zip(special, rng.integers(0, n, len(special))):
            mat[i, 0] = value
        p = mat[:, 0] if column else mat[:, 0].copy()  # a strided column, as callers pass
        got, want = log_loss(p, y), _reference_log_loss(p, y)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


def _pairwise_scipy_loss(mat, y):
    """The loss of the reference fit: pairwise coordinate descent from the
    uniform point, each pair a scipy bounded Brent search (the solver
    `fit_weights` ran before its active-set Newton routine)."""
    def loss(w):
        return log_loss(mat @ w, y)

    k = mat.shape[1]
    w = np.full(k, 1.0 / k)
    current = loss(w)
    for _ in range(500):
        before = current
        for i in range(k):
            for j in range(i + 1, k):
                if w[i] + w[j] <= 0:
                    continue

                def pair_loss(t):
                    trial = w.copy()
                    trial[i] += t
                    trial[j] -= t
                    return loss(trial)

                res = minimize_scalar(pair_loss, bounds=(-w[i], w[j]), method="bounded",
                                      options={"xatol": 1e-12})
                if res.fun < current - 1e-12:
                    w[i] += res.x
                    w[j] -= res.x
                    np.clip(w, 0.0, None, out=w)
                    w /= w.sum()
                    current = loss(w)
        if before - current < 1e-10:
            break
    return current


def _fit_problem(seed, n_docs, n_sources, kind, lo=0.0):
    """A fitting table with predictions in [lo, 1 - lo]: `kind` "exact" sets
    some to exactly 0.0 or 1.0, "duplicate" repeats sources, "rounded" rounds
    to 0.1.  Returns the table, its labels and its (doc x source) matrix and
    0/1 labels in `fit_weights` order."""
    rng = np.random.default_rng(seed)
    mat = lo + (1.0 - 2.0 * lo) * rng.random((n_docs, n_sources))
    if kind == "exact":
        hit = rng.random(mat.shape) < 0.3
        mat[hit] = rng.integers(0, 2, hit.sum())
    elif kind == "duplicate":
        mat = mat[:, rng.integers(0, n_sources, n_sources)]
    elif kind == "rounded":
        mat = np.round(mat, 1)
    y = (rng.random(n_docs) < 0.5).astype(float)
    docs = [f"d{i}" for i in range(n_docs)]
    t = _table([(d, f"s{j}", float(mat[i, j])) for i, d in enumerate(docs)
                for j in range(n_sources)])
    labels = {d: "pos" if y[i] else "neg" for i, d in enumerate(docs)}
    return t, labels, mat, y


def _weight_vector(w, n_sources):
    return np.array([w.weights[f"s{j}"] for j in range(n_sources)])


class TestFitOptimality:
    @given(seed=st.integers(0, 2**32 - 1), n_docs=st.integers(1, 59),
           n_sources=st.integers(2, 6),
           kind=st.sampled_from(["plain", "exact", "duplicate", "rounded"]))
    @example(seed=0, n_docs=30, n_sources=5, kind="exact")
    @example(seed=0, n_docs=30, n_sources=5, kind="duplicate")
    @settings(max_examples=300, deadline=None)
    def test_never_worse_than_vertices_or_scipy_reference(self, seed, n_docs, n_sources,
                                                          kind):
        t, labels, mat, y = _fit_problem(seed, n_docs, n_sources, kind)
        fitted = log_loss(mat @ _weight_vector(fit_weights(t, labels), n_sources), y)
        assert all(fitted <= log_loss(mat[:, j], y) for j in range(n_sources))
        assert fitted <= _pairwise_scipy_loss(mat, y) + 1e-12

    @given(seed=st.integers(0, 2**32 - 1), n_docs=st.integers(1, 59),
           n_sources=st.integers(2, 11), kind=st.sampled_from(["plain", "duplicate"]))
    @settings(max_examples=200, deadline=None)
    def test_kkt_gap(self, seed, n_docs, n_sources, kind):
        # no clipping in [1e-3, 1 - 1e-3]: the loss is smooth and convex there
        t, labels, mat, y = _fit_problem(seed, n_docs, n_sources, kind, lo=1e-3)
        w = _weight_vector(fit_weights(t, labels), n_sources)
        p = mat @ w
        grad = mat.T @ ((p - y) / (p * (1.0 - p))) / n_docs
        assert grad[w > 0].max() - grad.min() <= 1e-6


def _brute_force_report(ps, labels=None):
    n = len(ps)
    conf = sum(1 for p in ps if p < 0.1 or p > 0.9) / n
    mean = sum(ps) / n
    std = (sum((p - mean) ** 2 for p in ps) / n) ** 0.5
    return conf, std


class TestCalibrationReport:
    def test_all_half(self):
        t = _table([(f"d{i}", "s", 0.5) for i in range(10)])
        rep = calibration_report(t, "s")
        assert rep.frac_confident == 0.0
        assert rep.pred_std == 0.0

    def test_two_point_distribution(self):
        t = _table([(f"d{i}", "s", 0.0 if i % 2 else 1.0) for i in range(10)])
        rep = calibration_report(t, "s")
        assert rep.frac_confident == 1.0
        assert rep.pred_std == 0.5

    def test_matches_brute_force(self):
        rng = random.Random(4)
        ps = [rng.random() for _ in range(1000)]
        t = _table([(f"d{i}", "s", p) for i, p in enumerate(ps)])
        rep = calibration_report(t, "s")
        conf, std = _brute_force_report(ps)
        assert rep.frac_confident == pytest.approx(conf, abs=1e-12)
        assert rep.pred_std == pytest.approx(std, abs=1e-12)

    def test_accuracy_only_with_labels(self):
        t = _table([("a", "s", 0.8), ("b", "s", 0.2)])
        assert calibration_report(t, "s").accuracy is None
        rep = calibration_report(t, "s", {"a": "pos", "b": "pos"})
        assert rep.accuracy == 0.5

    def test_empty_source_rejected(self):
        with pytest.raises(EnsembleError):
            calibration_report(PredictionTable(), "s")

    def test_permutation_invariant(self):
        rng = random.Random(5)
        ps = [rng.random() for _ in range(50)]
        t1 = _table([(f"d{i}", "s", p) for i, p in enumerate(ps)])
        shuffled = list(enumerate(ps))
        rng.shuffle(shuffled)
        t2 = _table([(f"d{i}", "s", p) for i, p in shuffled])
        r1, r2 = calibration_report(t1, "s"), calibration_report(t2, "s")
        assert r1.frac_confident == r2.frac_confident
        assert r1.pred_std == pytest.approx(r2.pred_std, abs=1e-12)


class TestTtaGenerate:
    def test_variant_counts(self):
        corp = make_review_corpus(n_train=4, n_test=10)
        langs = [f"l{i}" for i in range(7)]
        out = tta_generate(corp.split_docs("test"), langs, MockProvider(0), TranslationCache())
        assert sum(map(len, out)) == 70

    def test_empty_language_list_rejected(self):
        corp = make_review_corpus(n_train=2, n_test=2)
        with pytest.raises(EnsembleError):
            tta_generate(corp.split_docs("test"), [], MockProvider(0))

    def test_one_list_per_original_in_language_order(self):
        corp = make_review_corpus(n_train=4, n_test=6)
        originals = corp.split_docs("test")[::-1]
        out = tta_generate(originals, ["es", "fr"], MockProvider(0), TranslationCache())
        assert out == [[backtranslate(d.text, lang, MockProvider(0)).final_text
                        for lang in ("es", "fr")] for d in originals]

    def test_failed_round_trip_takes_original_text_and_warns(self, fr_down_provider, caplog):
        corp = make_review_corpus(n_train=4, n_test=6)
        originals = corp.split_docs("test")
        out = tta_generate(originals, ["es", "fr"], fr_down_provider, TranslationCache())
        assert out == [[backtranslate(d.text, "es", MockProvider(0)).final_text, d.text]
                       for d in originals]
        skipped = [r for r in caplog.records if r.getMessage().startswith("tta: skipped")]
        assert len(skipped) == len(originals) == 6
