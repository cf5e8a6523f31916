import logging
import os
import signal
import statistics
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

from augbench import classify, experiment
from augbench.augment import AugmentError, AugmentSpec, derive_seed
from augbench.classify import ClassifyError, TrainConfig, train
from augbench.experiment import (ExperimentConfig, ExperimentError, ReportRow,
                                 run_low_resource_sweep, run_tta_pipeline)
from augbench.corpus import Document, carve_validation
from augbench.translate import MockProvider, ReplayProvider, TranslationCache

import digests
from synth import TABLE2_LANGUAGES, make_review_corpus

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _fast_config(**kwargs):
    defaults = dict(
        train_sizes=[20],
        seeds=[0, 1, 2],
        classifier=TrainConfig(bits=12, epochs=2),
        valid_frac=0.1,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


class TestLowResourceSweep:
    def test_row_accounting(self, micro_corpus):
        report = run_low_resource_sweep(_fast_config(), micro_corpus)
        assert len(report.rows) == 3
        agg = report.aggregate()
        assert len(agg) == 1
        assert agg[0].seed == "median"

    def test_median_matches_independent_recomputation(self, micro_corpus):
        report = run_low_resource_sweep(_fast_config(), micro_corpus)
        med = report.aggregate()[0]
        assert med.accuracy == statistics.median(r.accuracy for r in report.rows)
        assert med.error == statistics.median(r.error for r in report.rows)

    def test_report_csv_is_byte_deterministic(self, micro_corpus, tmp_path):
        cfg = _fast_config(augment=AugmentSpec(technique="rs", alpha=0.1))
        p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        run_low_resource_sweep(cfg, micro_corpus).write_csv(p1)
        run_low_resource_sweep(cfg, micro_corpus).write_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_paired_subsamples_across_arms(self, micro_corpus):
        base = run_low_resource_sweep(_fast_config(), micro_corpus)
        aug = run_low_resource_sweep(
            _fast_config(augment=AugmentSpec(technique="rd", alpha=0.1)), micro_corpus)
        by_seed = lambda rep: {r.seed: r.subsample for r in rep.rows}
        assert by_seed(base) == by_seed(aug)

    def test_backtranslation_arm_runs(self, micro_corpus):
        cfg = _fast_config(
            train_sizes=[10], seeds=[0],
            augment=AugmentSpec(technique="bt", languages=("es", "fr")))
        report = run_low_resource_sweep(cfg, micro_corpus,
                                        provider=MockProvider(0),
                                        cache=TranslationCache())
        assert len(report.rows) == 1
        assert report.rows[0].k == 2
        assert not report.failures

    def test_all_skipped_augmentation_fails_the_run(self, micro_corpus):
        cfg = _fast_config(train_sizes=[10], seeds=[0, 1],
                           augment=AugmentSpec(technique="bt", languages=("es", "fr")))
        report = run_low_resource_sweep(cfg, micro_corpus, provider=ReplayProvider("mock:0"),
                                        cache=TranslationCache())
        assert report.rows == []
        assert [tag for tag, _ in report.failures] == ["n=10,seed=0", "n=10,seed=1"]
        assert all(why.startswith("augmentation skipped all ") for _, why in report.failures)

    def test_partly_skipped_augmentation_still_reports(self, micro_corpus, fr_down_provider,
                                                       caplog):
        cfg = _fast_config(train_sizes=[10], seeds=[0],
                           augment=AugmentSpec(technique="bt", languages=("es", "fr")))
        report = run_low_resource_sweep(cfg, micro_corpus, provider=fr_down_provider,
                                        cache=TranslationCache())
        assert not report.failures
        assert [(r.languages, r.k) for r in report.rows] == [("es+fr", 2)]
        assert any(m.startswith("augment skipped ") for m in caplog.messages)

    def test_failed_run_recorded_not_fatal(self):
        corp = make_review_corpus(n_train=10, n_test=4)
        cfg = _fast_config(train_sizes=[10, 5000], seeds=[0, 1])
        report = run_low_resource_sweep(cfg, corp)
        assert [r.n for r in report.rows] == [10, 10]
        assert [tag for tag, _ in report.failures] == ["n=5000,seed=0", "n=5000,seed=1"]
        assert [tag for tag, _ in report.timings] == [
            "n=10,seed=0", "n=10,seed=1", "n=5000,seed=0", "n=5000,seed=1"]

    def test_corpus_without_test_split_rejected_before_any_run(self):
        with pytest.raises(ExperimentError, match="no test documents"):
            run_low_resource_sweep(_fast_config(), make_review_corpus(40, 0))

    def test_failed_training_recorded_not_fatal(self):
        # two documents cannot cover both labels once the validation split is carved
        cfg = _fast_config(train_sizes=[2, 20], seeds=[0])
        report = run_low_resource_sweep(cfg, make_review_corpus(40, 10))
        assert [r.n for r in report.rows] == [20]
        assert report.failures == [
            ("n=2,seed=0", "training needs at least 2 documents covering both labels")]


class TestLanguageStudy:
    """The pivot-set comparison is one backtranslation sweep per language set."""

    def test_report_matches_recorded_digest(self, micro_corpus, tmp_path):
        assert digests.study_report(micro_corpus, tmp_path) == digests.recorded("study_report")


@pytest.fixture
def workers(monkeypatch):
    """Force how many forked workers the sweep uses; afterwards, no child of
    this process may be left, running or unreaped."""
    def force(count: int) -> None:
        monkeypatch.setattr(experiment, "_workers", lambda runs: count)
    yield force
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestSweepWithForcedWorkers(TestLowResourceSweep, TestLanguageStudy):
    """The sweep's tests again, in-process and with each run trained and scored
    in one of two forked workers, whatever CPUs the host has: the same rows,
    failures and timing tags in run order, and the same digest."""

    @pytest.fixture(autouse=True, params=[1, 2], ids=["in-process", "two-workers"])
    def forced(self, request, workers):
        workers(request.param)


def test_sweep_featurizes_each_test_text_once(micro_corpus, workers, monkeypatch):
    # The shared test rows are packed straight from one `featurize` call per
    # distinct test text; no run builds a `feature_row` of a test text.
    workers(1)  # every run in this process, where the calls are seen
    first = micro_corpus.split_docs("test")[0]
    corp = micro_corpus.with_documents(
        [Document(id=f"again{i}", text=first.text, label=first.label, split="test")
         for i in range(2)])
    test_texts = {d.text for d in corp.split_docs("test")}
    assert not test_texts & {d.text for d in corp.split_docs("train")}
    featurized, rows, stores = [], [], []
    featurize, feature_row = classify.featurize, classify.feature_row
    predict_corpus = experiment.predict_corpus
    monkeypatch.setattr(classify, "featurize",
                        lambda text, bits: featurized.append(text) or featurize(text, bits))
    monkeypatch.setattr(classify, "feature_row",
                        lambda text, bits: rows.append(text) or feature_row(text, bits))
    monkeypatch.setattr(experiment, "predict_corpus",
                        lambda *args, rows, **kw: stores.append(rows) or predict_corpus(
                            *args, rows=rows, **kw))
    report = run_low_resource_sweep(_fast_config(train_sizes=[20, 40]), corp)
    assert len(report.rows) == 6
    assert sorted(t for t in featurized if t in test_texts) == sorted(test_texts)
    assert rows and not test_texts & set(rows)  # training rows only
    assert len(stores) == 6 and len({id(s) for s in stores}) == 1
    assert isinstance(stores[0], classify.PackedRows) and set(stores[0]) == test_texts


def _on_seed_1(action):
    """A `train` that does `action()` first on the run with seed 1."""
    def train_or_act(corpus, config):
        if config.seed == derive_seed(TrainConfig().seed, "train", 1):
            action()
        return train(corpus, config)
    return train_or_act


class TestWorkerPool:
    def test_report_and_cache_match_one_worker(self, micro_corpus, tmp_path, workers):
        cfg = _fast_config(train_sizes=[10, 20],
                           augment=AugmentSpec(technique="bt", languages=("es", "fr")))
        for count in (1, 2):
            workers(count)
            with TranslationCache(tmp_path / f"cache{count}.jsonl") as cache:
                report = run_low_resource_sweep(cfg, micro_corpus, provider=MockProvider(0),
                                                cache=cache)
            assert len(report.rows) == 6, report.failures
            report.write_csv(tmp_path / f"report{count}.csv")
        for name in ("report", "cache"):
            suffix = ".csv" if name == "report" else ".jsonl"
            one, two = (tmp_path / f"{name}{count}{suffix}" for count in (1, 2))
            assert one.read_bytes() == two.read_bytes(), name

    def test_cache_matches_recorded_digest(self, tmp_path, workers):
        for count in (1, 2):
            workers(count)
            digest = digests.sweep_cache(tmp_path / f"cache{count}.jsonl")
            assert digest == digests.recorded("sweep_cache"), count

    def test_killed_worker_fails_only_its_run(self, monkeypatch, workers):
        workers(2)
        monkeypatch.setattr(experiment, "train",
                            _on_seed_1(lambda: os.kill(os.getpid(), signal.SIGKILL)))
        report = run_low_resource_sweep(_fast_config(), make_review_corpus(40, 10))
        assert [r.seed for r in report.rows] == ["0", "2"]
        assert [tag for tag, _ in report.failures] == ["n=20,seed=1"]
        assert "SIGKILL" in report.failures[0][1]
        assert [tag for tag, _ in report.timings] == [f"n=20,seed={s}" for s in (0, 1, 2)]

    @pytest.mark.parametrize("count", [1, 2])
    def test_unexpected_error_ends_the_sweep_naming_the_run(self, monkeypatch, workers, count):
        def boom():
            raise RuntimeError("boom")

        workers(count)
        monkeypatch.setattr(experiment, "train", _on_seed_1(boom))
        with pytest.raises(RuntimeError, match=r"(?s)run n=20,seed=1 .*RuntimeError: boom"):
            run_low_resource_sweep(_fast_config(), make_review_corpus(40, 10))

    def test_interrupt_kills_and_reaps_every_worker(self, monkeypatch, workers):
        workers(2)
        monkeypatch.setattr(experiment, "train", lambda corpus, config: time.sleep(60))
        prepare, calls = experiment.run_single, []

        def interrupted_third(*args):
            calls.append(args)
            if len(calls) == 3:
                raise KeyboardInterrupt
            return prepare(*args)

        monkeypatch.setattr(experiment, "run_single", interrupted_third)
        t0 = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_low_resource_sweep(_fast_config(), make_review_corpus(40, 10))
        assert time.monotonic() - t0 < 30

    @pytest.mark.parametrize("count", [1, 2], ids=["in-process", "two-workers"])
    def test_each_run_is_released_once_handed_off(self, monkeypatch, workers, count):
        # by the time a run is prepared, no earlier run's subsample or prepared
        # corpus is left in this process; nor is the last one's after the sweep
        workers(count)
        prepare, refs = experiment.run_single, []

        def tracked(subsampled, *args):
            assert [r() for r in refs] == [None] * len(refs)
            prepared, sub_hash = prepare(subsampled, *args)
            refs.extend((weakref.ref(subsampled), weakref.ref(prepared)))
            return prepared, sub_hash

        monkeypatch.setattr(experiment, "run_single", tracked)
        cfg = _fast_config(train_sizes=[10, 20],
                           augment=AugmentSpec(technique="bt", languages=("es", "fr")))
        report = run_low_resource_sweep(cfg, make_review_corpus(40, 10),
                                        provider=MockProvider(0), cache=TranslationCache())
        assert len(report.rows) == 6, report.failures
        assert len(refs) == 12 and [r() for r in refs] == [None] * 12

    def test_run_seconds_are_its_own_not_its_wait_for_a_worker(self, monkeypatch, workers):
        # three runs in two workers: the third is prepared while the first two
        # train, and waits for the first before its own worker starts
        def slow_train(corpus, config):
            time.sleep(0.5)
            return train(corpus, config)

        workers(2)
        monkeypatch.setattr(experiment, "train", slow_train)
        report = run_low_resource_sweep(_fast_config(), make_review_corpus(40, 10))
        assert len(report.rows) == 3
        assert all(0.5 <= secs < 0.8 for _, secs in report.timings), report.timings


class IdentityProvider:
    provider_id = "identity"

    def translate(self, text, source, target):
        return text


class TestTtaPipeline:
    def _prepared(self):
        corp = make_review_corpus(n_train=60, n_test=30, seed=2)
        return carve_validation(corp, 0.2, seed=0)

    def test_outputs_match_recorded_digest(self, tmp_path):
        assert digests.tta_outputs(tmp_path) == digests.recorded("tta_outputs")

    def test_pipeline_outputs(self):
        from augbench.classify import train
        corp = self._prepared()
        model = train(corp, TrainConfig(bits=12, epochs=2))
        result = run_tta_pipeline(corp, ["es", "fr"], MockProvider(0),
                                  TranslationCache(), model=model)
        assert set(result.predictions.sources) >= {"baseline", "tta:es", "tta:fr",
                                                   "ensemble"}
        assert result.valid_losses["ensemble"] <= min(
            v for k, v in result.valid_losses.items() if k != "ensemble") + 1e-9
        assert "ensemble" in result.calibration

    def test_vertex_weight_equals_base(self):
        # identity "translations" make every source equal, so the tie-break puts
        # weight 1 on the base source and the ensemble equals it exactly
        from augbench.classify import train

        corp = self._prepared()
        model = train(corp, TrainConfig(bits=12, epochs=2))
        result = run_tta_pipeline(corp, ["es"], IdentityProvider(),
                                  TranslationCache(), model=model)
        assert result.weights.weights["baseline"] == 1.0
        for d in result.combined.doc_ids("ensemble"):
            assert result.combined.get(d, "ensemble") == pytest.approx(
                result.predictions.get(d, "baseline"))

    def test_ensemble_valid_loss_is_that_of_the_combined_predictions(self, monkeypatch):
        # interior weights: summed in `preds.sources` order instead of combine's
        # sorted order, the weighted sum differs in the last bits
        from augbench import experiment
        from augbench.classify import train
        from augbench.ensemble import SimplexWeights, combine, log_loss

        corp = self._prepared()
        model = train(corp, TrainConfig(bits=12, epochs=2))
        weights = SimplexWeights({"baseline": 0.3, "tta:es": 0.45, "tta:fr": 0.25})
        monkeypatch.setattr(experiment, "fit_weights", lambda preds, labels: weights)
        result = run_tta_pipeline(corp, ["fr", "es"], MockProvider(0), TranslationCache(),
                                  model=model)
        valid = [d.id for d in corp.split_docs("valid")]
        labels = {d.id: d.label for d in corp}
        combined = combine(result.predictions, weights, valid)
        want = log_loss(np.array([combined.get(d, "ensemble") for d in valid]),
                        np.array([1.0 if labels[d] == "pos" else 0.0 for d in valid]))
        assert np.float64(result.valid_losses["ensemble"]).tobytes() == np.float64(want).tobytes()

    def test_each_distinct_text_scored_once(self, monkeypatch):
        # round trips that return the original: every TTA column equals the
        # baseline, and each original is scored once, not once per language
        from augbench import classify
        from augbench.classify import train

        corp = self._prepared()
        model = train(corp, TrainConfig(bits=12, epochs=2))
        featurized = []
        featurize = classify.featurize
        monkeypatch.setattr(classify, "featurize",
                            lambda text, bits: featurized.append(text) or featurize(text, bits))
        langs = ["es", "fr", "de"]
        result = run_tta_pipeline(corp, langs, IdentityProvider(), TranslationCache(),
                                  model=model)
        preds = result.predictions
        ids = preds.doc_ids("baseline")
        for lang in langs:
            assert preds.doc_ids(f"tta:{lang}") == ids
            assert all(preds.get(d, f"tta:{lang}") == preds.get(d, "baseline") for d in ids)
        texts = {d.id: d.text for d in corp}
        assert featurized == [texts[d] for d in ids]

    def test_skipped_variant_takes_parent_prediction(self, fr_down_provider, caplog):
        from augbench.classify import train
        corp = self._prepared()
        model = train(corp, TrainConfig(bits=12, epochs=2))
        with caplog.at_level(logging.WARNING):
            result = run_tta_pipeline(corp, ["es", "fr"], fr_down_provider,
                                      TranslationCache(), model=model)
        preds = result.predictions
        ids = preds.doc_ids("baseline")
        assert preds.doc_ids("tta:fr") == ids
        assert all(preds.get(d, "tta:fr") == preds.get(d, "baseline") for d in ids)
        assert any(preds.get(d, "tta:es") != preds.get(d, "baseline") for d in ids)
        # one warning per skipped pair, then tta_generate's total
        warnings = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
        assert len(warnings) == len(ids) + 1
        assert all(w.startswith(f"tta: skipped {d} via fr: ") for w, d in zip(warnings, ids))
        assert warnings[-1] == f"tta: {len(ids)} variants skipped"

    def test_scores_test_and_valid_originals_in_corpus_order(self):
        from augbench.classify import train
        from augbench.corpus import Document, Origin

        corp = self._prepared()
        test_id = corp.split_docs("test")[0].id
        corp = corp.with_documents([Document(
            "syn", "a copy", "pos", "test",
            Origin("synthetic", technique="bt", lang="es", parent=test_id))])
        model = train(corp, TrainConfig(bits=12, epochs=2))
        result = run_tta_pipeline(corp, ["es"], MockProvider(0), TranslationCache(), model=model)
        want = [d.id for d in corp if d.is_original and d.split in ("test", "valid")]
        assert result.predictions.doc_ids("baseline") == want
        assert result.predictions.doc_ids("tta:es") == want

    def test_missing_valid_split_fails_before_translating(self):
        from augbench.classify import train
        corp = make_review_corpus(40, 20)
        provider = _CountingProvider(0)
        with pytest.raises(ExperimentError, match="needs a valid split"):
            run_tta_pipeline(corp, ["es", "fr"], provider, TranslationCache(),
                             model=train(corp, TrainConfig(bits=12, epochs=2)))
        assert provider.calls == 0


class _CountingProvider(MockProvider):
    """MockProvider that counts its calls."""

    calls = 0

    def translate(self, text, source, target):
        self.calls += 1
        return super().translate(text, source, target)


# Pivot lists the sweep's AugmentSpec and the TTA pipeline both refuse
BAD_PIVOTS = [("es", "es"), ("en",), ("e,s",), ("",), (1,), "esfr"]


class TestPivotRule:
    @pytest.mark.parametrize("languages", BAD_PIVOTS, ids=repr)
    def test_augment_spec_refuses(self, languages):
        with pytest.raises(AugmentError):
            AugmentSpec(technique="bt", languages=languages)

    @pytest.mark.parametrize("languages", BAD_PIVOTS, ids=repr)
    def test_tta_refuses_before_translating(self, languages):
        from augbench.classify import train
        corp = carve_validation(make_review_corpus(40, 20), 0.2, seed=0)
        provider = _CountingProvider(0)
        with pytest.raises(AugmentError):
            run_tta_pipeline(corp, languages, provider, TranslationCache(),
                             model=train(corp, TrainConfig(bits=12, epochs=2)))
        assert provider.calls == 0


class TestConfigParsing:
    def test_from_yaml(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(
            "train_sizes: [50, 500]\n"
            "seeds: [0, 1]\n"
            "valid_frac: 0.2\n"
            "augment:\n"
            "  technique: bt\n"
            "  languages: [es, fr]\n"
            "  language_strategy: all\n"
            "classifier:\n"
            "  bits: 12\n"
            "  epochs: 1\n",
            encoding="utf-8")
        cfg = ExperimentConfig.from_yaml(path)
        assert cfg.train_sizes == [50, 500]
        assert cfg.augment.languages == ("es", "fr")
        assert cfg.classifier.bits == 12
        assert cfg.valid_frac == 0.2

    def test_integer_accepted_as_number(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("augment: {technique: rd, alpha: 1}\n"
                        "classifier: {learning_rate: 1, l2: 0}\n", encoding="utf-8")
        cfg = ExperimentConfig.from_yaml(path)
        assert cfg.augment.alpha == 1
        assert (cfg.classifier.learning_rate, cfg.classifier.l2) == (1, 0)

    def test_empty_seeds_rejected(self):
        with pytest.raises(ExperimentError):
            ExperimentConfig(seeds=[])

    @pytest.mark.parametrize("text, key", [
        ("train_size: [50]\n", "'train_size' at the top level"),
        ("augment:\n  technique: sr\n  copy: 4\n", "'copy' under augment:"),
        ("augment:\n  technique: sr\n  copies_per_original: 4\n",
         "'copies_per_original' under augment:"),
        ("classifier:\n  bitz: 12\n", "'bitz' under classifier:"),
    ])
    def test_unknown_key_names_key_and_file(self, tmp_path, text, key):
        path = tmp_path / "typo.yaml"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ExperimentError, match=f"typo.yaml: unknown key {key}"):
            ExperimentConfig.from_yaml(path)

    @pytest.mark.parametrize("text, message", [
        ("seeds: 3\n", "seeds must be a list of integers, got 3"),
        ("seeds: [0, x]\n", "seeds must be a list of integers, got [0, 'x']"),
        ("seeds: [true]\n", "seeds must be a list of integers, got [True]"),
        ("train_sizes: 50\n", "train_sizes must be a list of integers, got 50"),
        ("train_sizes: [50, 1.5]\n", "train_sizes must be a list of integers, got [50, 1.5]"),
        ("augment:\n  technique: bt\n  languages: es\n",
         "augment.languages must be a list of strings, got 'es'"),
        ("augment:\n  technique: bt\n  languages: [es, 3]\n",
         "augment.languages must be a list of strings, got ['es', 3]"),
        ("valid_frac: lots\n", "valid_frac must be a number, got 'lots'"),
        ("valid_frac: true\n", "valid_frac must be a number, got True"),
        ("classifier:\n  bits: twelve\n", "classifier.bits must be an integer, got 'twelve'"),
        ("augment:\n  technique: sr\n  copies: 2.5\n",
         "augment.copies must be an integer, got 2.5"),
        ("augment:\n  technique: sr\n  alpha: high\n",
         "augment.alpha must be a number, got 'high'"),
    ])
    def test_wrong_type_names_key_and_file(self, tmp_path, text, message):
        path = tmp_path / "typed.yaml"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ExperimentError) as info:
            ExperimentConfig.from_yaml(path)
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize("text, error, message", [
        ("augment:\n  technique: foo\n", AugmentError,
         "unknown technique 'foo'; expected one of: sr, ri, rs, rd, bt"),
        ("augment:\n  technique: bt\n  languages: [es]\n  language_strategy: rr\n",
         AugmentError, "unknown language_strategy 'rr'; expected one of: all, roundrobin"),
        ("seeds: []\n", ExperimentError, "config needs at least one seed"),
        ("train_sizes: []\n", ExperimentError, "config needs at least one train size"),
        ("train_sizes: [30, 30]\n", ExperimentError,
         "train_sizes must not repeat a value, got [30, 30]"),
        ("seeds: [0, 1, 0]\n", ExperimentError, "seeds must not repeat a value, got [0, 1, 0]"),
        ("valid_frac: 1.5\n", ExperimentError, "valid_frac must be in (0, 1), got 1.5"),
        ("valid_frac: -0.2\n", ExperimentError, "valid_frac must be in (0, 1), got -0.2"),
        ("valid_frac: 0.0\n", ExperimentError, "valid_frac must be in (0, 1), got 0.0"),
        ("classifier:\n  bits: 0\n", ClassifyError, "bits must be at least 1, got 0"),
        ("classifier:\n  bits: -1\n", ClassifyError, "bits must be at least 1, got -1"),
        ("classifier:\n  bits: 40\n", ClassifyError, "bits must be at most 30, got 40"),
        ("classifier:\n  bits: 64\n", ClassifyError, "bits must be at most 30, got 64"),
        ("classifier:\n  epochs: 0\n", ClassifyError, "epochs must be at least 1, got 0"),
        ("classifier:\n  learning_rate: 0.0\n", ClassifyError,
         "learning_rate must be positive, got 0.0"),
        ("classifier:\n  learning_rate: -0.1\n", ClassifyError,
         "learning_rate must be positive, got -0.1"),
        ("classifier:\n  learning_rate: .inf\n", ClassifyError,
         "learning_rate must be finite, got inf"),
        ("classifier:\n  l2: -0.5\n", ClassifyError, "l2 must be finite and at least 0, got -0.5"),
        ("classifier:\n  l2: .nan\n", ClassifyError, "l2 must be finite and at least 0, got nan"),
        ("classifier:\n  l2: .inf\n", ClassifyError, "l2 must be finite and at least 0, got inf"),
        ("augment:\n  technique: bt\n  languages: [es]\n  copies: 3\n", AugmentError,
         "copies_per_original must be 1 for technique bt, got 3"),
        ("augment:\n  technique: bt\n  languages: [es, es]\n", AugmentError,
         "language code 'es' is listed twice"),
        ("augment:\n  technique: bt\n  languages: ['e,s']\n", AugmentError,
         "language code 'e,s' must be ASCII letters, digits, '-' or '_'"),
        # every round trip through English is refused, so every run would fail
        ("augment:\n  technique: bt\n  languages: [en]\n", AugmentError,
         "pivot language must differ from 'en'"),
        # only null or absent means "default": these once loaded as no
        # augmentation, default classifiers or ExperimentConfig()
        ("augment: {}\n", ExperimentError, "augment needs a technique"),
        ("augment: {technique: null}\n", ExperimentError, "augment needs a technique"),
        ("augment: []\n", ExperimentError, "expected a mapping under augment:"),
        ("augment: 0\n", ExperimentError, "expected a mapping under augment:"),
        ("augment: false\n", ExperimentError, "expected a mapping under augment:"),
        ("augment: ''\n", ExperimentError, "expected a mapping under augment:"),
        ("classifier: []\n", ExperimentError, "expected a mapping under classifier:"),
        ("classifier: 0\n", ExperimentError, "expected a mapping under classifier:"),
        ("[]\n", ExperimentError, "expected a mapping at the top level"),
        ("0\n", ExperimentError, "expected a mapping at the top level"),
        # YAML alone keeps the last of a repeated key, silently
        ("seeds: [0]\nseeds: [1, 2]\n", ExperimentError, "repeated key 'seeds' on line 2"),
        ("augment: {technique: sr}\naugment: {technique: rd}\n", ExperimentError,
         "repeated key 'augment' on line 2"),
        ("augment:\n  technique: sr\n  alpha: 0.1\n  technique: rd\n", ExperimentError,
         "repeated key 'technique' on line 4"),
    ])
    def test_rejected_value_names_file(self, tmp_path, text, error, message):
        path = tmp_path / "bad.yaml"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(error) as info:
            ExperimentConfig.from_yaml(path)
        assert str(info.value) == f"{path}: {message}"

    def test_augment_without_technique_rejected(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("augment:\n  alpha: 0.2\n", encoding="utf-8")
        with pytest.raises(ExperimentError, match="technique"):
            ExperimentConfig.from_yaml(path)

    def test_unknown_lr_decay_rejected(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("classifier:\n  lr_decay: cosine\n", encoding="utf-8")
        with pytest.raises(ClassifyError, match="cosine"):
            ExperimentConfig.from_yaml(path)

    @pytest.mark.parametrize("text", ["", "null\n", "augment:\nclassifier: null\n"])
    def test_empty_file_gives_dataclass_defaults(self, tmp_path, text):
        path = tmp_path / "cfg.yaml"
        path.write_text(text, encoding="utf-8")
        assert ExperimentConfig.from_yaml(path) == ExperimentConfig()

    @pytest.mark.parametrize("text, want", [
        ("valid_frac: null\n", ExperimentConfig()),
        ("train_sizes: null\n", ExperimentConfig()),
        ("augment: {technique: sr, alpha: null}\n",
         ExperimentConfig(augment=AugmentSpec(technique="sr"))),
        ("classifier: {bits: null}\n", ExperimentConfig()),
    ])
    def test_null_key_takes_the_default(self, tmp_path, text, want):
        path = tmp_path / "cfg.yaml"
        path.write_text(text, encoding="utf-8")
        assert ExperimentConfig.from_yaml(path) == want

    def test_key_merged_with_yaml_merge_may_be_overridden(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("augment:\n  <<: {technique: sr, alpha: 0.3}\n  alpha: 0.2\n",
                        encoding="utf-8")
        assert ExperimentConfig.from_yaml(path).augment == AugmentSpec(technique="sr", alpha=0.2)

    @pytest.mark.parametrize("content, message", [
        (b"seeds: [0\n", "expected ',' or ']'"),
        (b"seeds: [0]\n\xff: 1\n", "can't decode byte 0xff"),
    ])
    def test_unreadable_yaml_names_file(self, tmp_path, content, message):
        path = tmp_path / "cfg.yaml"
        path.write_bytes(content)
        with pytest.raises(ExperimentError) as info:
            ExperimentConfig.from_yaml(path)
        assert str(info.value).startswith(f"{path}: invalid YAML: ")
        assert message in str(info.value)

    def test_shipped_configs_load_unchanged(self):
        # the objects these files loaded to before loading became strict
        sizes = [50, 500, 1000, 2000, 5000, 10000]
        base = dict(train_sizes=sizes, seeds=[0, 1, 2], valid_frac=0.1)
        want = {
            "low_resource_baseline.yaml": ExperimentConfig(**base),
            "low_resource_eda.yaml": ExperimentConfig(**base, augment=AugmentSpec(
                technique="sr", alpha=0.1, copies_per_original=4)),
            "low_resource_backtranslate.yaml": ExperimentConfig(**base, augment=AugmentSpec(
                technique="bt", languages=TABLE2_LANGUAGES, language_strategy="all")),
        }
        assert sorted(p.name for p in CONFIGS.glob("*.yaml")) == sorted(want)
        for name, config in want.items():
            assert ExperimentConfig.from_yaml(CONFIGS / name) == config
