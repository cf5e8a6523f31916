import csv
import hashlib
import random
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from augbench import classify
from augbench.augment import AugmentSpec, augment_dataset, tokenize
from augbench.classify import (ClassifyError, LinearModel, PredictionTable,
                               TrainConfig, _sigmoid, feature_row,
                               featurize, import_predictions,
                               predict, predict_corpus, train)
from augbench.corpus import Corpus, Document
from augbench.ensemble import calibration_report

import digests
from synth import make_review_corpus


def _toy_corpus(n=20):
    docs = []
    for i in range(n):
        positive = i % 2 == 0
        text = "great movie truly great" if positive else "awful movie truly awful"
        docs.append(Document(id=f"d{i}", text=f"{text} number {i}",
                             label="pos" if positive else "neg", split="train"))
    return Corpus(docs)


class TestFeaturize:
    def test_empty_text(self):
        assert featurize("") == {}

    def test_repeated_unigram_counted(self):
        f = featurize("good good")
        # "good" unigram appears twice; "good good" bigram once
        assert 2 in f.values()
        assert 1 in f.values()

    def test_identical_texts_identical_vectors(self):
        assert featurize("A Great Movie") == featurize("a great movie")

    def test_indices_in_range(self):
        f = featurize("some longer text with more tokens", bits=10)
        assert all(0 <= i < 1024 for i in f)

    def test_hash_and_emission_order_fixed(self):
        def index(gram, bits=18):
            digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=8).digest()
            return int.from_bytes(digest, "big") % (1 << bits)

        grams = ["the", "the film", "film", "film ,", ",", ", the", "the", "the end", "end"]
        f = featurize("The film, the END")
        assert list(f) == list(dict.fromkeys(index(g) for g in grams))
        assert f[index("the")] == 2

    def test_collision_rate_near_birthday_bound(self):
        # ~100k distinct types into 2^18 buckets: expected distinct buckets
        # n_buckets * (1 - (1 - 1/n_buckets)^n_types)
        bits, n_types = 18, 100_000
        buckets = {i for k in range(n_types) for i in featurize(f"type{k}", bits)}
        n_buckets = 1 << bits
        expected = n_buckets * (1 - (1 - 1 / n_buckets) ** n_types)
        assert abs(len(buckets) - expected) / expected < 0.01


def _gram_index(gram, bits):
    digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") & ((1 << bits) - 1)


# Texts drawn from a small vocabulary share n-grams; free text mostly does not.
_family_text = st.one_of(
    st.lists(st.sampled_from(["the", "The", "film", "FILM", "good", "bad", ",", "!", "_"]),
             max_size=20).map(" ".join),
    st.text(max_size=40))


def _reference_featurize(text, bits):
    """`featurize` without a memo: every n-gram hashed, keys in first-occurrence order."""
    tokens = [t.lower() for t in tokenize(text)]
    grams = []
    for i, tok in enumerate(tokens):
        grams.append(tok)
        if i + 1 < len(tokens):
            grams.append(tok + " " + tokens[i + 1])
    counts = {}
    for gram in grams:
        idx = _gram_index(gram, bits)
        counts[idx] = counts.get(idx, 0) + 1
    return counts


class TestGramMemo:
    @pytest.mark.parametrize("limit", [None, 0, 2])  # None: the shipped limit
    @given(st.lists(st.tuples(_family_text, st.sampled_from([1, 3, 10, 18])), max_size=12))
    @example([("a good film", 12), ("", 12), ("A GOOD FILM!", 12), ("a good film", 3),
              ("\u0130 \u0301", 12), ("y _ z", 12)])
    @example([("good,bad film.!", 12), ("good , bad film . !", 12), ("good,bad film.!", 12),
              ("film.! good,bad", 12)])
    @example([("film film. film, .film", 10), ("The film. the FILM", 10), ("the,the the", 10)])
    # non-ASCII alphanumeric chunks, each its own token, in mixed case ("İ" lowercases
    # to "i" and a combining dot, which is not alphanumeric)
    @example([("\u00df \u1e9e \u00b2 \u216b \u217b \u01c5 \u01c4 \u01c6 \u0130", 12),
              ("\u01c5\u0130\u00df STRA\u1e9eE \u216b\u00b2 \u0130 i\u0307 \u01c6", 12),
              ("\u1e9e \u00df \u217b \u216b \u01c6 \u01c5 \u0130 \u0130", 12)])
    @settings(max_examples=150, deadline=None)
    def test_featurize_equals_memo_free_reference(self, limit, calls):
        with pytest.MonkeyPatch.context() as mp:
            if limit is not None:
                mp.setattr(classify, "_FEATURE_MEMO_LIMIT", limit)
            for text, bits in calls:
                f = featurize(text, bits)
                assert list(f.items()) == list(_reference_featurize(text, bits).items())
                # emptied at the start of a call once over the limit, so it
                # holds at most the limit plus this text's chunks, tokens and
                # bigrams, each at most one per token
                memo = classify._FEATURE_MEMOS[bits]
                entries = (len(memo.chunks) + len(memo.tokens)
                           + sum(len(successors) for _, _, successors in memo.tokens.values()))
                assert entries == memo.size
                assert entries <= classify._FEATURE_MEMO_LIMIT + 3 * len(tokenize(text))


def _reference_train(corpus, config):
    """`train` as it was before documents were featurized family by family:
    in document order and without a memo."""
    docs = [d for d in corpus.split_docs("train") if d.label in ("pos", "neg")]
    feats = [feature_row(d.text, config.bits) for d in docs]
    ys = [1.0 if d.label == "pos" else 0.0 for d in docs]
    w = np.zeros(1 << config.bits, dtype=np.float64)
    bias = 0.0
    scale = 1.0
    rng = random.Random(config.seed)
    order = list(range(len(docs)))
    total_steps = config.epochs * len(docs)
    step = 0
    for _ in range(config.epochs):
        rng.shuffle(order)
        for i in order:
            lr = config.learning_rate
            if config.lr_decay == "linear":
                lr *= 1.0 - step / total_steps
            step += 1
            idx, vals = feats[i]
            z = scale * float(w[idx] @ vals) + bias
            g = _sigmoid(z) - ys[i]
            if config.l2 > 0.0 and lr > 0.0:
                scale *= 1.0 - lr * config.l2
                if scale < 1e-9:
                    w *= scale
                    scale = 1.0
            if lr > 0.0:
                w[idx] -= lr * g * vals / scale
                bias -= lr * g
    w *= scale
    return w, bias


@given(st.sampled_from(["sr", "ri", "rs", "rd"]), st.integers(1, 3),
       st.randoms(use_true_random=False))
@settings(max_examples=12, deadline=None)
def test_train_equals_document_order_reference(technique, copies, shuffle):
    # families interleave: synthetic copies before, between and after parents
    corp = make_review_corpus(n_train=16, n_test=0, seed=5)
    aug = augment_dataset(corp, AugmentSpec(technique=technique, alpha=0.2,
                                            copies_per_original=copies))
    docs = list(aug.corpus)
    shuffle.shuffle(docs)
    mixed = Corpus(docs)
    config = TrainConfig(bits=12, epochs=2, seed=3)
    model = train(mixed, config)
    w, bias = _reference_train(mixed, config)
    assert model.weights.tobytes() == w.tobytes() and model.bias == bias


def _rescales(config, n_docs):
    """How often `train` folds its lazy L2 scale into the weights: the scale
    depends on the learning-rate schedule and l2 only, not on the data."""
    scale, count, total_steps = 1.0, 0, config.epochs * n_docs
    for step in range(total_steps):
        lr = config.learning_rate
        if config.lr_decay == "linear":
            lr *= 1.0 - step / total_steps
        if config.l2 > 0.0 and lr > 0.0:
            scale *= 1.0 - lr * config.l2
            if scale < 1e-9:
                scale, count = 1.0, count + 1
    return count


@given(lr_decay=st.sampled_from(["linear", "constant"]),
       rates=st.sampled_from([(0.1, 0.0), (0.1, 1e-6), (0.9, 0.5), (0.3, 2.0)]),
       epochs=st.integers(3, 5), corpus_seed=st.integers(0, 3), seed=st.integers(0, 2**32))
@settings(max_examples=30, deadline=None)
def test_train_equals_reference_with_and_without_rescale(lr_decay, rates, epochs,
                                                         corpus_seed, seed):
    learning_rate, l2 = rates
    corp = make_review_corpus(n_train=40, n_test=0, seed=corpus_seed)
    config = TrainConfig(bits=10, epochs=epochs, learning_rate=learning_rate,
                         lr_decay=lr_decay, l2=l2, seed=seed)
    # large l2 x learning_rate folds the scale into the weights mid-training
    assert (_rescales(config, len(corp)) > 0) == (l2 * learning_rate > 0.1)
    model = train(corp, config)
    w, bias = _reference_train(corp, config)
    assert model.weights.tobytes() == w.tobytes()
    assert np.float64(model.bias).tobytes() == np.float64(bias).tobytes()


@given(st.floats(allow_nan=False))
@example(0.0)
@example(-745.2)
def test_sigmoid_equals_its_float64_form(z):
    # _reference_train shares _sigmoid; this pins it to numpy scalar arithmetic
    if z >= 0:
        expected = 1.0 / (1.0 + np.exp(np.float64(-z)))
    else:
        e = np.exp(np.float64(z))
        expected = e / (1.0 + e)
    assert np.float64(_sigmoid(z)).tobytes() == np.float64(expected).tobytes()


class TestTrain:
    def test_separable_toy_reaches_full_accuracy(self):
        corp = _toy_corpus()
        model = train(corp, TrainConfig(bits=12, epochs=10))
        correct = sum(
            (predict(model, d.text) >= 0.5) == (d.label == "pos")
            for d in corp.split_docs("train")
        )
        assert correct == len(corp)

    def test_training_is_deterministic(self):
        corp = _toy_corpus()
        m1 = train(corp, TrainConfig(bits=12))
        m2 = train(corp, TrainConfig(bits=12))
        assert np.array_equal(m1.weights, m2.weights)
        assert m1.bias == m2.bias

    def test_seed_changes_model(self):
        corp = make_review_corpus(n_train=40, n_test=0)
        m1 = train(corp, TrainConfig(bits=12, seed=0))
        m2 = train(corp, TrainConfig(bits=12, seed=1))
        assert not np.array_equal(m1.weights, m2.weights)

    def test_single_class_rejected(self):
        docs = [Document(id=f"d{i}", text="x", label="pos", split="train")
                for i in range(4)]
        with pytest.raises(ClassifyError):
            train(Corpus(docs), TrainConfig(bits=10))

    def test_accuracy_nondecreasing_as_l2_shrinks(self):
        corp = _toy_corpus(n=30)

        def train_acc(l2):
            model = train(corp, TrainConfig(bits=12, epochs=3, l2=l2))
            return sum((predict(model, d.text) >= 0.5) == (d.label == "pos")
                       for d in corp.split_docs("train"))

        accs = [train_acc(l2) for l2 in (1.0, 0.01, 0.0)]
        assert accs[0] <= accs[1] <= accs[2]

    @pytest.mark.parametrize("kwargs, message", [
        # each once trained: as l2=0, or to NaN weights
        (dict(l2=-0.5), "l2 must be finite and at least 0, got -0.5"),
        (dict(l2=float("nan")), "l2 must be finite and at least 0, got nan"),
        (dict(l2=float("inf")), "l2 must be finite and at least 0, got inf"),
        (dict(learning_rate=float("inf")), "learning_rate must be finite, got inf"),
        (dict(learning_rate=float("nan")), "learning_rate must be positive, got nan"),
    ])
    def test_bad_rate_or_penalty_rejected(self, kwargs, message):
        with pytest.raises(ClassifyError, match=re.escape(message)):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize("weights", [
        np.zeros(10), np.zeros((1 << 9, 2)), np.zeros(1 << 10, dtype=np.float32),
        np.zeros(1 << 10, dtype=np.int64), np.zeros(1 << 11), np.float64(0.0),
    ], ids=["short", "2-d", "float32", "int64", "long", "scalar"])
    def test_load_rejects_weights_of_wrong_shape_or_type(self, tmp_path, weights):
        path = tmp_path / "model.npz"
        LinearModel(weights=weights, bias=0.0, config=TrainConfig(bits=10)).save(path)
        with pytest.raises(ClassifyError, match=re.escape(
                f"{path}: weights must be a 1-D float64 array of length 2**bits = 1024")):
            LinearModel.load(path)

    def test_save_load_round_trip(self, tmp_path):
        corp = _toy_corpus()
        model = train(corp, TrainConfig(bits=12))
        path = tmp_path / "model.npz"
        model.save(path)
        loaded = LinearModel.load(path)
        assert np.array_equal(loaded.weights, model.weights)
        assert loaded.bias == model.bias
        assert loaded.config == model.config

    @given(config=st.tuples(
               st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
               st.floats(min_value=0.0, allow_infinity=False),
           ).filter(lambda rates: rates[0] * rates[1] < 1).flatmap(lambda rates: st.builds(
               TrainConfig, bits=st.integers(1, 16), epochs=st.integers(1, 10**6),
               learning_rate=st.just(rates[0]), lr_decay=st.sampled_from(["linear", "constant"]),
               l2=st.just(rates[1]), seed=st.integers(-2**63, 2**64))),
           bias=st.floats(), weights_seed=st.integers(0, 2**32 - 1),
           special=st.lists(st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324]),
                            max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_save_load_round_trip_property(self, tmp_path_factory, config, bias,
                                           weights_seed, special):
        weights = np.random.default_rng(weights_seed).normal(size=1 << config.bits)
        weights[:len(special)] = special[:len(weights)]
        model = LinearModel(weights=weights, bias=bias, config=config)
        first, second = (tmp_path_factory.mktemp("m") / "model.npz" for _ in range(2))
        model.save(first)
        loaded = LinearModel.load(first)
        assert loaded.weights.tobytes() == weights.tobytes()
        assert np.float64(loaded.bias).tobytes() == np.float64(bias).tobytes()
        assert loaded.config == config
        loaded.save(second)
        assert second.read_bytes() == first.read_bytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # the fit diverges quietly
    def test_diverged_fit_raises(self):
        config = TrainConfig(bits=10, epochs=1, learning_rate=1e308, l2=0.0)
        with pytest.raises(ClassifyError, match="^fit diverged to non-finite weights at "
                                                "learning_rate 1e[+]308$"):
            train(make_review_corpus(20, 0), config)

    def test_synthetic_corpus_learnable(self):
        corp = make_review_corpus(n_train=200, n_test=100, seed=3)
        model = train(corp, TrainConfig(bits=14))
        labels = {d.id: d.label for d in corp.split_docs("test")}
        preds = predict_corpus(model, corp, "s")
        assert calibration_report(preds, "s", labels).accuracy >= 0.9


class TestPredict:
    def test_zero_weight_model_gives_half(self):
        model = LinearModel(weights=np.zeros(1 << 10), bias=0.0,
                            config=TrainConfig(bits=10))
        assert predict(model, "anything at all") == 0.5

    def test_pure_function_of_text(self):
        corp = _toy_corpus()
        model = train(corp, TrainConfig(bits=12))
        assert predict(model, "some fixed text") == predict(model, "some fixed text")


def _random_model(bits):
    # Magnitudes from 1e-8 to 1 keep scores off the saturated ends of the
    # sigmoid while making any change in summation order show in the last
    # bits of most probabilities.
    rng = np.random.default_rng(7)
    weights = rng.standard_normal(1 << bits) * 10.0 ** rng.integers(-8, 1, 1 << bits)
    return LinearModel(weights=weights, bias=float(rng.standard_normal()),
                       config=TrainConfig(bits=bits))


_PREDICTOR_TEXTS = ["a good film", "A GOOD FILM", "a bad film", "", "film.", "good. bad!"]
_PREDICTOR_MODEL = _random_model(10)


class TestPredictor:
    @pytest.mark.parametrize("limit", [None, 0, 2])  # None: the shipped limit
    @given(st.lists(st.sampled_from(_PREDICTOR_TEXTS), max_size=20))
    @example(_PREDICTOR_TEXTS * 2)
    @settings(max_examples=100, deadline=None)
    def test_predict_once_per_distinct_text(self, limit, texts):
        model, calls = _PREDICTOR_MODEL, []

        def counting_predict(m, text):
            calls.append(text)
            return predict(m, text)

        with pytest.MonkeyPatch.context() as mp:
            if limit is not None:
                mp.setattr(classify, "_PREDICT_MEMO_LIMIT", limit)
            mp.setattr(classify, "predict", counting_predict)
            predict_fn = classify.predictor(model)
            for text in texts:
                assert predict_fn(text) == predict(model, text)
                assert predict_fn.cache_info().currsize <= classify._PREDICT_MEMO_LIMIT
        if limit is None:
            assert calls == list(dict.fromkeys(texts))
        else:  # a text is scored again only after the memo dropped it
            assert set(calls) == set(texts) and len(calls) <= len(texts)


def _reference_predict(model, text):
    """The original scalar loop: bias, then each w[i]*count left to right."""
    score = model.bias
    for idx, cnt in featurize(text, model.config.bits).items():
        score += model.weights[idx] * cnt
    return _sigmoid(score)


class TestBitExactness:
    @pytest.fixture
    def random_model(self):
        return _random_model(12)

    def test_predict_equals_scalar_loop(self, random_model, micro_corpus):
        texts = [d.text for d in micro_corpus] + ["", "a", "good good good bad"]
        for text in texts:
            assert predict(random_model, text) == _reference_predict(random_model, text)

    @pytest.mark.parametrize("shared", [None, "arrays", "packed"])
    def test_predict_corpus_equals_scalar_loop(self, random_model, micro_corpus, shared):
        docs = micro_corpus.split_docs("test")
        bits = random_model.config.bits
        rows = {None: lambda: None,
                "arrays": lambda: {d.text: feature_row(d.text, bits) for d in docs},
                "packed": lambda: classify.PackedRows((d.text for d in docs), bits)}[shared]()
        table = predict_corpus(random_model, micro_corpus, "s", rows=rows)
        assert len(table) == len(docs)
        for d in docs:
            assert table.get(d.id, "s") == _reference_predict(random_model, d.text)

    # `score_texts` reuses one terms buffer, so a row shorter than an earlier
    # one must sum only its own terms, not what the longer row left behind.
    @given(texts=st.lists(st.one_of(st.just(""), _family_text), min_size=1, max_size=150),
           bias=st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324]), st.floats(-4, 4)),
           weights_seed=st.integers(0, 2**32 - 1),
           special=st.lists(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308]),
                            max_size=64))
    @example(texts=["", "", "good"], bias=-0.0, weights_seed=0, special=[-0.0] * 64)
    @example(texts=["the good film , the bad film !", "good film", "", "bad", " "],
             bias=0.5, weights_seed=0, special=[])
    @settings(max_examples=60, deadline=None)
    def test_predict_corpus_equals_scalar_loop_for_any_texts(self, texts, bias,
                                                             weights_seed, special):
        bits = 6  # 64 buckets: texts share and collide on indices
        weights = _random_model(bits).weights
        np.random.default_rng(weights_seed).shuffle(weights)
        positions = np.random.default_rng(weights_seed).permutation(1 << bits)
        weights[positions[:len(special)]] = special
        model = LinearModel(weights=weights, bias=bias, config=TrainConfig(bits=bits))
        corp = Corpus([Document(id=f"d{i}", text=t, label="pos", split="test")
                       for i, t in enumerate(texts)])
        table = predict_corpus(model, corp, "s")
        for i, text in enumerate(texts):
            want = _reference_predict(model, text)
            assert np.float64(table.get(f"d{i}", "s")).tobytes() == np.float64(want).tobytes()

    def test_feature_row_follows_featurize_order(self):
        text = "one two three two one"
        idx, vals = feature_row(text, 10)
        f = featurize(text, 10)
        assert idx.dtype == np.int64 and vals.dtype == np.float64
        assert idx.tolist() == list(f) and vals.tolist() == list(f.values())

    def test_train_weights_match_recorded_digest(self, micro_corpus):
        assert digests.train_weights(micro_corpus) == (digests.recorded("train_weights"),
                                                       digests.recorded("train_bias"))

    def test_sweep_report_matches_recorded_digest(self, micro_corpus, tmp_path):
        assert digests.sweep_report(micro_corpus, tmp_path) == digests.recorded("sweep_report")


class _Periodic:
    """The weights of a model too wide to allocate: weight i is small[i % len(small)]."""

    def __init__(self, small):
        self.small = small

    def __getitem__(self, idx):
        return self.small[idx % len(self.small)]


def _repeated(gram, times):
    return " ".join([gram] * times)


class TestPackedRows:
    # bits 8/9, 16/17 and 32/33 cross the index dtype boundaries; a gram
    # repeated 255, 256 and 65,536 times the count dtype boundaries.
    @given(texts=st.lists(st.one_of(st.just(""), _family_text,
                                     st.sampled_from([_repeated("a", 255), _repeated("b", 256)])),
                          max_size=40),
           bits=st.sampled_from([1, 6, 8, 9, 12, 16, 17, 32, 33, 63]),
           repeat=st.lists(st.integers(0, 39), max_size=10),
           weights_seed=st.integers(0, 2**32 - 1))
    @example(texts=[], bits=12, repeat=[], weights_seed=0)
    @example(texts=["", ""], bits=8, repeat=[], weights_seed=0)
    @example(texts=[_repeated("a", 255), "the film"], bits=32, repeat=[0], weights_seed=0)
    @example(texts=["the film", _repeated("b", 256)], bits=33, repeat=[1], weights_seed=0)
    @example(texts=[_repeated("c", 65536), "good"], bits=9, repeat=[], weights_seed=0)
    @settings(max_examples=60, deadline=None)
    def test_scores_equal_feature_row_scores(self, texts, bits, repeat, weights_seed):
        texts = texts + [texts[i] for i in repeat if i < len(texts)]
        small = _random_model(min(bits, 12)).weights
        np.random.default_rng(weights_seed).shuffle(small)
        weights = small if bits <= 12 else _Periodic(small)
        # the rows take `bits` as given; a model's config only needs a legal width
        model = LinearModel(weights=weights, bias=0.25,
                            config=TrainConfig(bits=min(bits, classify.MAX_BITS)))
        store = classify.PackedRows(texts, bits)
        rows = {t: feature_row(t, bits) for t in texts}
        assert list(store) == list(rows) and len(store) == len(rows)
        top = max((int(vals.max()) for _, vals in rows.values() if len(vals)), default=0)
        for text in texts:
            assert text in store
            idx, vals = store[text]
            assert idx.dtype == np.min_scalar_type((1 << min(bits, 64)) - 1)
            assert vals.dtype == np.min_scalar_type(top)
            assert idx.tolist() == rows[text][0].tolist()
            assert vals.tolist() == rows[text][1].tolist()
            for view in (idx, vals):
                assert not view.flags.writeable
                with pytest.raises(ValueError):
                    view.flags.writeable = True
        assert "never featurized" not in store
        got = classify.score_texts(model, texts, store)
        want = classify.score_texts(model, texts, rows)
        assert list(got) == list(want)
        assert np.array(list(got.values())).tobytes() == np.array(list(want.values())).tobytes()

    @pytest.mark.parametrize("bits,index_dtype", [
        (1, np.uint8), (8, np.uint8), (9, np.uint16), (16, np.uint16), (17, np.uint32),
        (32, np.uint32), (33, np.uint64), (64, np.uint64), (70, np.uint64)])
    @pytest.mark.parametrize("times,count_dtype", [
        (0, np.uint8), (255, np.uint8), (256, np.uint16), (65535, np.uint16),
        (65536, np.uint32)])
    def test_smallest_dtypes(self, bits, index_dtype, times, count_dtype):
        store = classify.PackedRows(["good film", _repeated("a", times), ""], bits)
        for text in store:
            idx, vals = store[text]
            assert (idx.dtype, vals.dtype) == (index_dtype, count_dtype)
        assert store[_repeated("a", times)][1].max(initial=0) == times

    def test_one_featurize_call_per_distinct_text(self, monkeypatch):
        calls = []
        monkeypatch.setattr(classify, "featurize",
                            lambda text, bits: calls.append(text) or featurize(text, bits))
        texts = ["b a", "", "a b", "b a", "", "c"]
        store = classify.PackedRows(iter(texts), 10)
        assert calls == list(dict.fromkeys(texts)) == list(store)
        assert store["b a"][0].tolist() == list(featurize("b a", 10))


class TestPredictionTable:
    def test_out_of_range_rejected(self):
        t = PredictionTable()
        with pytest.raises(ClassifyError):
            t.add("d", "s", 1.2)

    def test_overwrite_keeps_single_entry(self):
        t = PredictionTable()
        t.add("d", "s", 0.3)
        t.add("d", "s", 0.7)
        assert len(t) == 1 and t.get("d", "s") == 0.7

    def test_csv_round_trip_full_precision(self, tmp_path):
        t = PredictionTable()
        t.add("a", "s", 1 / 3)
        t.add("b", "s", 0.1234567890123456)
        path = tmp_path / "p.csv"
        t.to_csv(path, "s")
        back = import_predictions(path, "s")
        assert back.get("a", "s") == 1 / 3
        assert back.get("b", "s") == 0.1234567890123456


    def test_plain_ids_written_unquoted(self, tmp_path):
        t = PredictionTable()
        t.add("test/pos/1.txt", "s", 0.25)
        t.to_csv(tmp_path / "p.csv", "s")
        assert (tmp_path / "p.csv").read_bytes() == b"doc_id,p_positive\ntest/pos/1.txt,0.25\n"

    def test_predict_corpus_csv_round_trip(self, tmp_path):
        corp = make_review_corpus(n_train=20, n_test=6, seed=0)
        table = predict_corpus(train(corp, TrainConfig(bits=10)), corp, "s")
        table.to_csv(tmp_path / "p.csv", "s")
        back = import_predictions(tmp_path / "p.csv", "s")
        assert [(d, back.get(d, "s")) for d in back.doc_ids("s")] == \
            [(d, table.get(d, "s")) for d in table.doc_ids("s")]

    @given(st.dictionaries(st.text(), st.floats(min_value=0.0, max_value=1.0), max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_csv_round_trip_any_ids(self, rows):
        t = PredictionTable()
        for doc_id, p in rows.items():
            t.add(doc_id, "s", p)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "p.csv"
            t.to_csv(path, "s")
            back = import_predictions(path, "s")
        assert [(d, back.get(d, "s")) for d in back.doc_ids("s")] == list(rows.items())


class _PairTable:
    """Reference: probabilities in one dict keyed by (doc, source), in insertion order."""

    def __init__(self):
        self.rows: dict[tuple[str, str], float] = {}
        self.sources: list[str] = []

    def add(self, doc_id, source_id, p):
        if source_id not in self.sources:
            self.sources.append(source_id)
        self.rows[(doc_id, source_id)] = p

    def merge(self, other: "_PairTable"):
        for (d, s), p in other.rows.items():
            self.add(d, s, p)

    def doc_ids(self, source_id):
        return [d for d, s in self.rows if s == source_id]


_DOCS, _SOURCES = ["a", "b", "c", "d"], ["s1", "s2", "s3"]
_adds = st.lists(st.tuples(st.sampled_from(_DOCS), st.sampled_from(_SOURCES),
                           st.floats(min_value=0.0, max_value=1.0)), max_size=8)


@given(st.lists(st.one_of(_adds.map(lambda adds: ("add", adds)),
                          _adds.map(lambda adds: ("merge", adds))), max_size=6))
@settings(max_examples=300, deadline=None)
def test_prediction_table_matches_pair_reference(ops):
    table, ref = PredictionTable(), _PairTable()
    for kind, adds in ops:
        t, r = (table, ref) if kind == "add" else (PredictionTable(), _PairTable())
        for d, s, p in adds:
            t.add(d, s, p)
            r.add(d, s, p)
        if kind == "merge":
            table.merge(t)
            ref.merge(r)
    assert table.sources == ref.sources
    assert len(table) == len(ref.rows)
    for s in _SOURCES:
        assert table.doc_ids(s) == ref.doc_ids(s)
        for d in _DOCS:
            assert table.get(d, s) == ref.rows.get((d, s))
    docs = _DOCS + ["missing"]
    want = np.array([[ref.rows.get((d, s), np.nan) for s in _SOURCES] for d in docs])
    got = table.matrix(docs, _SOURCES)
    assert got.dtype == np.float64
    np.testing.assert_array_equal(got, want)


class TestImportPredictions:
    def test_valid_file(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("doc_id,p_positive\na,0.1\nb,0.9\nc,0.5\n", encoding="utf-8")
        t = import_predictions(path, "ext")
        assert len(t) == 3 and t.sources == ["ext"]

    def test_out_of_range_cites_row(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("doc_id,p_positive\na,0.1\nb,0.2\nc,0.3\nd,0.4\ne,1.2\n",
                        encoding="utf-8")
        with pytest.raises(ClassifyError, match="row 6"):
            import_predictions(path, "ext")

    def test_repeated_doc_id_cites_row(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("doc_id,p_positive\nd1,0.2\nd2,0.5\nd1,0.9\n", encoding="utf-8")
        with pytest.raises(ClassifyError, match="repeated doc_id 'd1' at row 4"):
            import_predictions(path, "ext")

    def test_id_over_the_default_csv_field_limit_round_trips(self, tmp_path):
        limit = csv.field_size_limit()
        long_id = "x" * 131_073  # one over the csv module's default field limit
        t = PredictionTable()
        t.add("a", "s", 0.1)
        t.add(long_id, "s", 0.25)
        t.to_csv(tmp_path / "p.csv", "s")
        back = import_predictions(tmp_path / "p.csv", "s")
        assert [(d, back.get(d, "s")) for d in back.doc_ids("s")] == [("a", 0.1), (long_id, 0.25)]
        # the limit is process-wide: restored after reading, and after failing
        assert csv.field_size_limit() == limit
        (tmp_path / "bad.csv").write_text(f"doc_id,p_positive\n{long_id},2.0\n",
                                          encoding="utf-8")
        with pytest.raises(ClassifyError, match="probability out of range at row 2"):
            import_predictions(tmp_path / "bad.csv", "s")
        assert csv.field_size_limit() == limit

    def test_blank_row_is_skipped(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("doc_id,p_positive\na,0.1\n\nb,0.9\n", encoding="utf-8")
        t = import_predictions(path, "ext")
        assert [(d, t.get(d, "ext")) for d in t.doc_ids("ext")] == [("a", 0.1), ("b", 0.9)]

    def test_byte_order_mark_is_dropped(self, tmp_path):
        # pandas `to_csv(encoding="utf-8-sig")` and spreadsheets' "CSV UTF-8" write one
        text = "doc_id,p_positive\na,0.1\nb,0.9\n"
        (tmp_path / "plain.csv").write_text(text, encoding="utf-8")
        (tmp_path / "bom.csv").write_text(text, encoding="utf-8-sig")
        assert (tmp_path / "bom.csv").read_bytes().startswith(b"\xef\xbb\xbf")
        plain = import_predictions(tmp_path / "plain.csv", "ext")
        marked = import_predictions(tmp_path / "bom.csv", "ext")
        assert [(d, marked.get(d, "ext")) for d in marked.doc_ids("ext")] == \
               [(d, plain.get(d, "ext")) for d in plain.doc_ids("ext")] == [("a", 0.1), ("b", 0.9)]

    @pytest.mark.parametrize("rows, message", [
        ("a,0.1\nb\n", "malformed row 3"),
        ("a,0.1\nb,0.2\nc,high\n", "bad probability at row 4: 'high'"),
    ])
    def test_bad_row_cites_row(self, tmp_path, rows, message):
        path = tmp_path / "p.csv"
        path.write_text("doc_id,p_positive\n" + rows, encoding="utf-8")
        with pytest.raises(ClassifyError) as info:
            import_predictions(path, "ext")
        assert str(info.value) == f"{path}: {message}"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("id,prob\na,0.1\n", encoding="utf-8")
        with pytest.raises(ClassifyError, match="header"):
            import_predictions(path, "ext")

    def test_same_file_two_sources_independent(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("doc_id,p_positive\na,0.1\nb,0.9\n", encoding="utf-8")
        t = import_predictions(path, "s1")
        t.merge(import_predictions(path, "s2"))
        assert set(t.sources) == {"s1", "s2"}
        assert t.doc_ids("s1") == t.doc_ids("s2")


def test_predict_corpus_covers_requested_splits():
    corp = make_review_corpus(n_train=10, n_test=6)
    model = train(corp, TrainConfig(bits=12, epochs=1))
    t = predict_corpus(model, corp, "baseline", splits=("test",))
    assert sorted(t.doc_ids("baseline")) == sorted(d.id for d in corp.split_docs("test"))
