import json
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize_scalar

from augbench import ensemble
from augbench.classify import PredictionTable
from augbench.corpus import Corpus, Document
from augbench.ensemble import (CalibrationReport, EnsembleError, SimplexWeights,
                               calibration_report, combine, fit_weights, log_loss,
                               tta_generate)
from augbench.synth import make_review_corpus
from augbench.translate import MockProvider, TranslationCache


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

    def test_json_round_trip(self, tmp_path):
        w = SimplexWeights({"a": 0.25, "b": 0.75})
        path = tmp_path / "w.json"
        w.to_json(path, fitting_set="valid")
        assert SimplexWeights.from_json(path).weights == w.weights

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
        with pytest.raises(EnsembleError, match="missing predictions"):
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

    def test_no_common_labeled_docs(self):
        t = _table([("a", "s1", 0.5), ("b", "s2", 0.5)])
        with pytest.raises(EnsembleError):
            fit_weights(t, {"a": "pos", "b": "neg"})


def _scipy_fminbound(func, lo, hi, xatol):
    """The reference for `ensemble._fminbound`: scipy's bounded Brent method."""
    res = minimize_scalar(func, bounds=(lo, hi), method="bounded", options={"xatol": xatol})
    return res.x, res.fun


def _pair_problem(seed, n_docs, n_sources):
    """A `fit_weights` pair problem: the log-loss of moving mass t from source
    j to source i of a random simplex point, as a function of t."""
    rng = np.random.default_rng(seed)
    mat = rng.random((n_docs, n_sources))
    y = (rng.random(n_docs) < 0.5).astype(float)
    w = rng.dirichlet(np.ones(n_sources))
    i, j = sorted(rng.choice(n_sources, 2, replace=False))

    def pair_loss(t):
        trial = w.copy()
        trial[i] += t
        trial[j] -= t
        return log_loss(mat @ trial, y)

    return pair_loss, w[i], w[j]


class TestFminbound:
    @given(seed=st.integers(0, 2**32 - 1), n_docs=st.integers(1, 40),
           n_sources=st.integers(2, 6),
           bounds=st.sampled_from(["pair", "lo_zero", "hi_zero", "tiny"]),
           xatol=st.sampled_from([1e-12, 1e-5]))
    @settings(max_examples=300, deadline=None)
    def test_equals_scipy(self, seed, n_docs, n_sources, bounds, xatol):
        func, wi, wj = _pair_problem(seed, n_docs, n_sources)
        lo, hi = {"pair": (-wi, wj), "lo_zero": (-0.0, wj), "hi_zero": (-wi, 0.0),
                  "tiny": (-wi * 1e-11, wj * 1e-11)}[bounds]
        x, fx = ensemble._fminbound(func, lo, hi, xatol=xatol)
        ref_x, ref_fx = _scipy_fminbound(func, lo, hi, xatol)
        assert x == ref_x and fx == ref_fx

    @given(seed=st.integers(0, 2**32 - 1), n_docs=st.integers(1, 40),
           n_sources=st.integers(2, 6))
    @settings(max_examples=100, deadline=None)
    def test_fit_weights_equals_scipy_reference(self, seed, n_docs, n_sources):
        t, labels = _random_table(random.Random(seed), n_docs, n_sources)
        with mock.patch.object(ensemble, "_fminbound", _scipy_fminbound):
            expected = fit_weights(t, labels)
        assert fit_weights(t, labels).weights == expected.weights


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
        out = tta_generate(corp, langs, MockProvider(0), TranslationCache())
        assert len(out) == 70

    def test_empty_language_list_rejected(self):
        corp = make_review_corpus(n_train=2, n_test=2)
        with pytest.raises(EnsembleError):
            tta_generate(corp, [], MockProvider(0))

    def test_parents_resolve_to_test_or_valid_originals(self):
        corp = make_review_corpus(n_train=4, n_test=6)
        out = tta_generate(corp, ["es", "fr"], MockProvider(0), TranslationCache())
        parents = [d.id for d in corp if d.is_original and d.split in ("test", "valid")]
        assert list(out) == [(i, lang) for i in parents for lang in ("es", "fr")]

    def test_failed_round_trips_left_out_and_warned(self, fr_down_provider, caplog):
        corp = make_review_corpus(n_train=4, n_test=6)
        out = tta_generate(corp, ["es", "fr"], fr_down_provider, TranslationCache())
        parents = [d.id for d in corp.split_docs("test")]
        assert list(out) == [(i, "es") for i in parents]
        skipped = [r for r in caplog.records if r.getMessage().startswith("tta: skipped")]
        assert len(skipped) == len(parents) == 6
