import dataclasses
import errno
import gc
import json
import os
import warnings

import pytest
import numpy as np
from click.testing import CliRunner

from augbench.augment import AugmentSpec, augment_dataset, bundled_thesaurus
from augbench.analyze import (build_feature_matrix, cross_validate_l1, fit_l1_logistic,
                              standardize)
from augbench.classify import LinearModel, TrainConfig, predictor, train
from augbench.cli import main
from augbench.corpus import Corpus, export_jsonl, ingest_jsonl
from augbench.translate import MockProvider, TranslationCache, paper_cache_path

from synth import make_review_corpus


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "corpus.jsonl"
    export_jsonl(make_review_corpus(n_train=30, n_test=10, seed=0), path)
    return path


def _invoke(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


def _fails_with(runner, args, message):
    result = runner.invoke(main, args)
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)  # a message, not a traceback
    assert f"Error: {message}" in result.output
    assert len(result.output.splitlines()) == 1


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestIngest:
    def test_imdb_to_jsonl(self, runner, imdb_dir, tmp_path):
        out = tmp_path / "out.jsonl"
        _invoke(runner, ["ingest", "--imdb-dir", str(imdb_dir), "--out", str(out)])
        corp = ingest_jsonl(out)
        assert len(corp) == 6

    def test_missing_subdirectory_fails_with_message(self, runner, imdb_dir, tmp_path):
        for f in (imdb_dir / "train" / "pos").iterdir():
            f.unlink()
        (imdb_dir / "train" / "pos").rmdir()
        out = tmp_path / "out.jsonl"
        _fails_with(runner, ["ingest", "--imdb-dir", str(imdb_dir), "--out", str(out)],
                    "missing required subdirectory: train/pos")
        assert not out.exists()


class TestUnreadableInputs:
    @pytest.mark.parametrize("args", [
        ["train", "--in", "{bad}", "--model-out", "{tmp}/m.npz"],
        ["augment", "--config", "{cfg}", "--thesaurus", "{bad}", "--in", "{corpus}",
         "--out", "{tmp}/a.jsonl"],
        ["augment", "--config", "{cfg}", "--stopwords", "{bad}", "--in", "{corpus}",
         "--out", "{tmp}/a.jsonl"],
        ["ensemble", "report", "--preds", "a={bad}"],
    ], ids=["corpus", "thesaurus", "stopwords", "predictions"])
    def test_non_utf8_file_fails_naming_it(self, runner, corpus_file, tmp_path, args):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes("caf\xe9\tbistro\n".encode("latin-1"))
        cfg = _write(tmp_path / "aug.yaml", "augment: {technique: sr}\n")
        args = [a.format(bad=bad, cfg=cfg, corpus=corpus_file, tmp=tmp_path) for a in args]
        _fails_with(runner, args, f"cannot decode {bad} as UTF-8")

    def test_text_file_as_model_fails_naming_it(self, runner, corpus_file, tmp_path):
        model = _write(tmp_path / "model.npz", "not a model\n")
        _fails_with(runner, ["predict", "--model", str(model), "--in", str(corpus_file),
                             "--out", str(tmp_path / "p.csv")],
                    f"{model}: not a model saved by augbench train")


    def test_model_with_wrong_weights_length_fails_naming_it(self, runner, corpus_file,
                                                              tmp_path):
        model = tmp_path / "model.npz"
        LinearModel(weights=np.zeros(10), bias=0.0, config=TrainConfig(bits=18)).save(model)
        _fails_with(runner, ["predict", "--model", str(model), "--in", str(corpus_file),
                             "--out", str(tmp_path / "p.csv")],
                    f"{model}: weights must be a 1-D float64 array of length 2**bits = 262144")

    @pytest.mark.parametrize("config, message", [
        ({"bits": 0}, "bits must be at least 1, got 0"),
        ({"bits": 31}, "bits must be at most 30, got 31"),
        ({"learning_rate": 10.0, "l2": 0.1},
         "learning_rate * l2 must be below 1, got 10.0 * 0.1"),
    ])
    def test_model_with_out_of_range_config_fails_naming_it(self, runner, tmp_path, config,
                                                            message):
        model = tmp_path / "bad.npz"
        saved = {**dataclasses.asdict(TrainConfig(bits=4)), **config}
        np.savez_compressed(model, weights=np.zeros(16), bias=np.float64(0.0),
                            config=json.dumps(saved))
        _fails_with(runner, ["analyze", "probe", "--model", str(model),
                             "--out", str(tmp_path / "probe.csv")], f"{model}: {message}")
        assert not (tmp_path / "probe.csv").exists()


class TestAugmentCommand:
    def test_token_perturbation(self, runner, corpus_file, tmp_path):
        out = tmp_path / "aug.jsonl"
        cfg = _write(tmp_path / "aug.yaml",
                     "augment: {technique: rs, alpha: 0.2, copies: 1, seed: 3}\n")
        _invoke(runner, ["augment", "--config", str(cfg),
                         "--in", str(corpus_file), "--out", str(out)])
        corp = ingest_jsonl(out)
        assert len(corp) == 40 + 30  # originals + one synthetic per train doc

    def test_backtranslate_mock(self, runner, corpus_file, tmp_path):
        out = tmp_path / "bt.jsonl"
        cfg = _write(tmp_path / "aug.yaml", "augment: {technique: bt, languages: [es, fr]}\n")
        _invoke(runner, ["augment", "--config", str(cfg),
                         "--provider", "mock",
                         "--in", str(corpus_file), "--out", str(out)])
        corp = ingest_jsonl(out)
        synth = [d for d in corp if not d.is_original]
        assert len(synth) == 60
        assert {d.lang for d in synth} == {"es", "fr"}

    def test_backtranslate_writes_cache(self, runner, corpus_file, tmp_path):
        out = tmp_path / "bt.jsonl"
        cache = tmp_path / "cache.jsonl"
        cfg = _write(tmp_path / "aug.yaml", "augment: {technique: bt, languages: [es]}\n")
        _invoke(runner, ["augment", "--config", str(cfg),
                         "--provider", "mock", "--cache", str(cache),
                         "--in", str(corpus_file), "--out", str(out)])
        assert cache.exists()
        assert len(cache.read_text(encoding="utf-8").splitlines()) == 60  # 2 legs x 30

    @pytest.mark.parametrize("line", ['{"key": [1], "result": "x"}', '{"key": "k", "result": 5}'])
    def test_bad_cache_line_fails_with_message(self, runner, corpus_file, tmp_path, line):
        cfg = _write(tmp_path / "bt.yaml", "augment: {technique: bt, languages: [es]}\n")
        cache = _write(tmp_path / "bad.jsonl", line + "\n")
        _fails_with(runner, ["augment", "--config", str(cfg), "--cache", str(cache),
                             "--in", str(corpus_file), "--out", str(tmp_path / "bt.jsonl")],
                    f"{cache}: bad cache line 1: ")

    def test_cache_that_cannot_be_appended_to_ends_the_command(self, runner, corpus_file,
                                                               tmp_path, full_disk):
        cfg = _write(tmp_path / "bt.yaml", "augment: {technique: bt, languages: [es]}\n")
        cache, out = tmp_path / "cache.jsonl", tmp_path / "bt.jsonl"
        _fails_with(runner, ["augment", "--config", str(cfg), "--cache", str(cache),
                             "--in", str(corpus_file), "--out", str(out)],
                    f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: '{cache}'")
        assert not out.exists()

    def test_backtranslate_closes_its_cache(self, runner, corpus_file, tmp_path):
        aug = _write(tmp_path / "aug.yaml", "augment: {technique: bt, languages: [es]}\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _invoke(runner, ["augment", "--config", str(aug),
                             "--cache", str(tmp_path / "cache.jsonl"),
                             "--in", str(corpus_file), "--out", str(tmp_path / "bt.jsonl")])
            cfg = tmp_path / "cfg.yaml"
            cfg.write_text("train_sizes: [10]\nseeds: [0]\nclassifier: {bits: 10, epochs: 1}\n"
                           "augment: {technique: bt, languages: [fr]}\n", encoding="utf-8")
            _invoke(runner, ["run", "--config", str(cfg), "--in", str(corpus_file),
                             "--cache", str(tmp_path / "cache.jsonl"),
                             "--out-dir", str(tmp_path / "out")])
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    @pytest.mark.parametrize("api_key", [None, "s3cret"])
    def test_http_provider_posts_each_leg_and_leaves_no_socket_open(
            self, runner, corpus_file, tmp_path, stub_server, monkeypatch, api_key):
        url, handler = stub_server
        if api_key is None:
            monkeypatch.delenv("AUGBENCH_API_KEY", raising=False)
        else:
            monkeypatch.setenv("AUGBENCH_API_KEY", api_key)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("train_sizes: [10]\nseeds: [0]\nclassifier: {bits: 10, epochs: 1}\n"
                       "augment: {technique: bt, languages: [fr]}\n", encoding="utf-8")
        aug = _write(tmp_path / "aug.yaml", "augment: {technique: bt, languages: [es]}\n")
        http = ["--provider", "http", "--endpoint", url, "--rps", "1e9", "--in", str(corpus_file)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _invoke(runner, ["augment", "--config", str(aug), *http,
                             "--out", str(tmp_path / "bt.jsonl")])
            _invoke(runner, ["run", "--config", str(cfg), *http,
                             "--out-dir", str(tmp_path / "out")])
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
        legs = {(body["source"], body["target"]) for _, body in handler.posted}
        assert legs == {("en", "es"), ("es", "en"), ("en", "fr"), ("fr", "en")}
        assert {ctype for ctype, _ in handler.posted} == {"application/json"}
        fields = {"q", "source", "target"} | ({"api_key"} if api_key else set())
        assert all(body.keys() == fields and body.get("api_key") == api_key
                   for _, body in handler.posted)

    @pytest.mark.parametrize("section, spec", [
        ("{technique: rs, alpha: 0.2, seed: 3}", dict(technique="rs", alpha=0.2, seed=3)),
        ("{technique: bt, languages: [es, fr], seed: 2}",
         dict(technique="bt", languages=("es", "fr"), seed=2)),
    ])
    def test_config_section_equals_library_call(self, runner, corpus_file, tmp_path,
                                                 section, spec):
        cfg = _write(tmp_path / "aug.yaml", f"seeds: [7]\naugment: {section}\n")
        _invoke(runner, ["augment", "--config", str(cfg), "--cache", str(tmp_path / "cli.cache"),
                         "--in", str(corpus_file), "--out", str(tmp_path / "cli.jsonl")])
        spec = AugmentSpec(**spec)
        if spec.technique.value == "bt":  # as the CLI opens its provider and cache
            with TranslationCache(tmp_path / "api.cache") as cache:
                cache.load(paper_cache_path())
                run = augment_dataset(ingest_jsonl(corpus_file), spec,
                                      translator=MockProvider(seed=spec.seed), cache=cache)
            assert ((tmp_path / "cli.cache").read_bytes()
                    == (tmp_path / "api.cache").read_bytes() != b"")
        else:
            run = augment_dataset(ingest_jsonl(corpus_file), spec)
        export_jsonl(run.corpus, tmp_path / "api.jsonl")
        assert (tmp_path / "cli.jsonl").read_bytes() == (tmp_path / "api.jsonl").read_bytes()

    def test_augment_flags_are_gone(self, runner, corpus_file, tmp_path):
        result = runner.invoke(main, ["augment", "--technique", "rs", "--in", str(corpus_file),
                                      "--out", str(tmp_path / "aug.jsonl")])
        assert result.exit_code == 2 and "No such option" in result.output

    @pytest.mark.parametrize("command", ["augment", "run"])
    @pytest.mark.parametrize("option, value", [("--rps", "0"), ("--rps", "-1"),
                                               ("--rps", "nan"), ("--rps", "inf"),
                                               ("--max-retries", "0")])
    def test_bad_rate_or_attempts_is_usage_error(self, runner, corpus_file, tmp_path,
                                                 command, option, value):
        cfg = _write(tmp_path / "cfg.yaml", "train_sizes: [10]\nseeds: [0]\n"
                     "augment: {technique: bt, languages: [es]}\n")
        out = ["--out", str(tmp_path / "bt.jsonl")] if command == "augment" else [
            "--out-dir", str(tmp_path / "out")]
        result = runner.invoke(main, [command, "--config", str(cfg), "--provider", "http",
                                      "--endpoint", "http://127.0.0.1:1/translate",
                                      option, value, "--in", str(corpus_file), *out])
        assert result.exit_code == 2, result.output
        assert f"Invalid value for '{option}'" in result.output
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.yaml", "corpus.jsonl"]

    @pytest.mark.parametrize("command", ["augment", "run"])
    @pytest.mark.parametrize("endpoint", ["ftp://127.0.0.1/translate",
                                          "file://localhost/translate",
                                          "htp://127.0.0.1/translate",
                                          "localhost:5000/translate", "http://"])
    def test_bad_endpoint_is_usage_error(self, runner, tmp_path, command, endpoint):
        cfg = _write(tmp_path / "cfg.yaml", "train_sizes: [10]\nseeds: [0]\n"
                     "augment: {technique: bt, languages: [es]}\n")
        out = ["--out", str(tmp_path / "bt.jsonl")] if command == "augment" else [
            "--out-dir", str(tmp_path / "out")]
        # `--in` names the YAML, which fails as a corpus: the endpoint is refused first
        result = runner.invoke(main, [command, "--config", str(cfg), "--provider", "http",
                                      "--endpoint", endpoint, "--cache",
                                      str(tmp_path / "cache.jsonl"), "--in", str(cfg), *out])
        assert result.exit_code == 2, result.output
        assert "Invalid value for --endpoint: endpoint must be" in result.output
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.yaml"]

    @pytest.mark.parametrize("command", ["augment", "run"])
    def test_http_provider_without_endpoint_is_usage_error(self, runner, corpus_file,
                                                           tmp_path, command):
        cfg = _write(tmp_path / "cfg.yaml", "train_sizes: [10]\nseeds: [0]\n"
                     "augment: {technique: bt, languages: [es]}\n")
        out = ["--out", str(tmp_path / "bt.jsonl")] if command == "augment" else [
            "--out-dir", str(tmp_path / "out")]
        result = runner.invoke(main, [command, "--config", str(cfg), "--provider", "http",
                                      "--cache", str(tmp_path / "cache.jsonl"),
                                      "--in", str(corpus_file), *out])
        assert result.exit_code == 2, result.output
        assert "Error: --endpoint is required with --provider http" in result.output
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.yaml", "corpus.jsonl"]

    def test_config_without_augment_section_is_usage_error(self, runner, corpus_file,
                                                           tmp_path):
        cfg = _write(tmp_path / "plain.yaml", "seeds: [0]\nclassifier: {bits: 10}\n")
        out = tmp_path / "aug.jsonl"
        result = runner.invoke(main, ["augment", "--config", str(cfg),
                                      "--in", str(corpus_file), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert f"{cfg}: no augment: section" in result.output
        assert not out.exists()

    def test_stopwords_file_is_read_lowercased(self, runner, corpus_file, tmp_path):
        # every thesaurus word a stopword: synonym replacement has nothing to edit
        cfg = _write(tmp_path / "aug.yaml", "augment: {technique: sr}\n")
        outputs = []
        for case in (str.upper, str.lower):
            stopwords = _write(tmp_path / f"{case.__name__}.txt",
                               "\n".join(map(case, bundled_thesaurus().words())))
            out = tmp_path / f"{case.__name__}.jsonl"
            result = _invoke(runner, ["augment", "--config", str(cfg),
                                      "--stopwords", str(stopwords),
                                      "--in", str(corpus_file), "--out", str(out)])
            assert "generated 30 synthetic documents (30 unmodified" in result.output
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_repeated_id_fails_with_message(self, runner, tmp_path):
        line = '{"id": "d", "text": "x", "label": "pos", "split": "train"}\n'
        corpus = _write(tmp_path / "dup.jsonl", line + line)
        cfg = _write(tmp_path / "aug.yaml", "augment: {technique: rs}\n")
        _fails_with(runner, ["augment", "--config", str(cfg), "--in", str(corpus),
                             "--out", str(tmp_path / "aug.jsonl")],
                    f"{corpus}: duplicate id 'd' at line 2")
        assert not (tmp_path / "aug.jsonl").exists()


class TestTrainPredict:
    def test_full_loop(self, runner, corpus_file, tmp_path):
        model = tmp_path / "model.npz"
        preds = tmp_path / "preds.csv"
        _invoke(runner, ["train", "--in", str(corpus_file), "--model-out", str(model)])
        _invoke(runner, ["predict", "--model", str(model), "--in", str(corpus_file),
                         "--out", str(preds)])
        lines = preds.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "doc_id,p_positive"
        assert len(lines) == 11  # header + 10 test docs

    def test_unresolved_parent_fails_naming_its_line(self, runner, tmp_path):
        original = '{"id": "a", "text": "x", "label": "pos", "split": "train"}\n'
        copy = ('{"id": "b", "text": "y", "label": "pos", "split": "train", '
                '"origin": {"kind": "synthetic", "technique": "sr", "parent": "zzz"}}\n')
        corpus = _write(tmp_path / "c.jsonl", original + "\n" + copy)
        model = tmp_path / "model.npz"
        _fails_with(runner, ["train", "--in", str(corpus), "--model-out", str(model)],
                    f"{corpus}: synthetic document 'b' has unresolved parent 'zzz' at line 3")
        assert not model.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # the fit diverges quietly
    def test_diverged_fit_fails_and_saves_nothing(self, runner, corpus_file, tmp_path):
        cfg = _write(tmp_path / "lr.yaml", "train_sizes: [20]\nseeds: [0, 1]\n"
                                           "classifier: {learning_rate: 1.0e+308, l2: 0.0}\n")
        model, out = tmp_path / "model.npz", tmp_path / "out"
        _fails_with(runner, ["train", "--config", str(cfg), "--in", str(corpus_file),
                             "--model-out", str(model)],
                    "fit diverged to non-finite weights at learning_rate 1e+308")
        assert not model.exists()
        result = runner.invoke(main, ["run", "--config", str(cfg), "--in", str(corpus_file),
                                      "--out-dir", str(out)])
        assert result.exit_code == 1, result.output
        assert result.output.count("fit diverged to non-finite weights") == 2

    def test_predict_has_no_source_option(self, runner, corpus_file, tmp_path):
        # the CSV is doc_id,p_positive whatever its source would be called
        result = runner.invoke(main, ["predict", "--model", str(corpus_file), "--in",
                                      str(corpus_file), "--source", "x",
                                      "--out", str(tmp_path / "preds.csv")])
        assert result.exit_code == 2 and "No such option '--source'" in result.output

    @pytest.mark.parametrize("splits", ["tst", "test,tst", "test,", ""])
    def test_predict_unknown_split_is_usage_error(self, runner, corpus_file, tmp_path,
                                                  splits):
        model = tmp_path / "model.npz"
        _invoke(runner, ["train", "--in", str(corpus_file), "--model-out", str(model)])
        out = tmp_path / "preds.csv"
        result = runner.invoke(main, ["predict", "--model", str(model), "--in",
                                      str(corpus_file), "--splits", splits, "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "splits are train, valid, test, unsup" in result.output
        assert not out.exists()

    def test_model_written_to_the_path_given(self, runner, corpus_file, tmp_path):
        model = tmp_path / "model.bin"
        preds = tmp_path / "preds.csv"
        result = _invoke(runner, ["train", "--in", str(corpus_file),
                                  "--model-out", str(model)])
        assert f"saved model to {model}" in result.output
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl", "model.bin"]
        _invoke(runner, ["predict", "--model", str(model), "--in", str(corpus_file),
                         "--out", str(preds)])
        assert len(preds.read_text(encoding="utf-8").splitlines()) == 11

    def test_config_takes_classifier_section_of_run_yaml(self, runner, corpus_file,
                                                          tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("seeds: [4]\nclassifier: {bits: 12, epochs: 2}\n", encoding="utf-8")
        _invoke(runner, ["train", "--config", str(cfg), "--in", str(corpus_file),
                         "--model-out", str(tmp_path / "cli.npz")])
        train(ingest_jsonl(corpus_file), TrainConfig(bits=12, epochs=2)).save(
            tmp_path / "api.npz")
        with np.load(tmp_path / "cli.npz") as cli, np.load(tmp_path / "api.npz") as api:
            assert sorted(cli.files) == sorted(api.files)
            for name in api.files:
                assert cli[name].tobytes() == api[name].tobytes(), name

    def test_one_label_corpus_fails_with_message(self, runner, tmp_path):
        corpus = tmp_path / "pos.jsonl"
        full = make_review_corpus(n_train=10, n_test=4, seed=0)
        export_jsonl(Corpus(d for d in full if d.label == "pos"), corpus)
        _fails_with(runner, ["train", "--in", str(corpus), "--model-out",
                             str(tmp_path / "model.npz")],
                    "training needs at least 2 documents covering both labels")
        assert not (tmp_path / "model.npz").exists()

    def test_predict_into_missing_directory_fails_with_message(self, runner, corpus_file,
                                                               tmp_path):
        model = tmp_path / "model.npz"
        _invoke(runner, ["train", "--in", str(corpus_file), "--model-out", str(model)])
        out = tmp_path / "nodir" / "p.csv"
        _fails_with(runner, ["predict", "--model", str(model), "--in", str(corpus_file),
                             "--out", str(out)],
                    f"[Errno 2] No such file or directory: '{out}'")

    def test_config_typo_fails_naming_key(self, runner, corpus_file, tmp_path):
        cfg = tmp_path / "typo.yaml"
        cfg.write_text("classifier: {bits: 12, epoch: 2}\n", encoding="utf-8")
        model = tmp_path / "model.npz"
        result = runner.invoke(main, ["train", "--config", str(cfg), "--in", str(corpus_file),
                                      "--model-out", str(model)])
        assert result.exit_code != 0
        assert "unknown key 'epoch' under classifier:" in result.output
        assert "typo.yaml" in result.output
        assert not model.exists()


    @pytest.mark.parametrize("command", ["train", "run", "augment"])
    @pytest.mark.parametrize("augment, named", [
        ("{technique: foo}", "unknown technique 'foo'; expected one of: sr, ri, rs, rd, bt"),
        ("{technique: bt, languages: [es], language_strategy: rr}",
         "unknown language_strategy 'rr'; expected one of: all, roundrobin"),
    ])
    def test_config_bad_enum_value_is_usage_error(self, runner, corpus_file, tmp_path,
                                                  command, augment, named):
        cfg = tmp_path / "enum.yaml"
        cfg.write_text(f"augment: {augment}\n", encoding="utf-8")
        out = {"train": ["--model-out", str(tmp_path / "model.npz")],
               "run": ["--out-dir", str(tmp_path / "out")],
               "augment": ["--out", str(tmp_path / "out")]}[command]
        result = runner.invoke(main, [command, "--config", str(cfg), "--in", str(corpus_file),
                                      *out])
        assert result.exit_code == 2, result.output
        assert named in result.output
        assert "enum.yaml" in result.output
        assert "Traceback" not in result.output
        assert not (tmp_path / "model.npz").exists() and not (tmp_path / "out").exists()


    @pytest.mark.parametrize("command", ["train", "run", "augment"])
    @pytest.mark.parametrize("text, named", [
        ("valid_frac: lots\n", "valid_frac must be a number, got 'lots'"),
        ("classifier: {bits: twelve}\n", "classifier.bits must be an integer, got 'twelve'"),
        ("augment: {technique: sr, alpha: high}\n",
         "augment.alpha must be a number, got 'high'"),
        # a value of the right type but out of range fails the same way
        ("valid_frac: 1.5\n", "valid_frac must be in (0, 1), got 1.5"),
        ("train_sizes: []\n", "config needs at least one train size"),
        ("train_sizes: [30, 30]\nseeds: [0, 0]\n",
         "train_sizes must not repeat a value, got [30, 30]"),
        ("seeds: [0, 0]\n", "seeds must not repeat a value, got [0, 0]"),
        ("valid_frac: -0.2\n", "valid_frac must be in (0, 1), got -0.2"),
        ("valid_frac: 0.0\n", "valid_frac must be in (0, 1), got 0.0"),
        ("classifier: {bits: 0}\n", "bits must be at least 1, got 0"),
        ("classifier: {bits: -1}\n", "bits must be at least 1, got -1"),
        ("classifier: {bits: 40}\n", "bits must be at most 30, got 40"),
        ("classifier: {bits: 64}\n", "bits must be at most 30, got 64"),
        ("classifier: {epochs: 0}\n", "epochs must be at least 1, got 0"),
        ("classifier: {learning_rate: 0.0}\n", "learning_rate must be positive, got 0.0"),
        ("classifier: {learning_rate: -0.1}\n", "learning_rate must be positive, got -0.1"),
        ("classifier: {l2: -0.5}\n", "l2 must be finite and at least 0, got -0.5"),
        ("classifier: {learning_rate: 10, l2: 0.1}\n",
         "learning_rate * l2 must be below 1, got 10 * 0.1"),
        # only null or absent means "default"
        ("augment: []\n", "expected a mapping under augment:"),
        ("augment: {}\n", "augment needs a technique"),
        ("classifier: 0\n", "expected a mapping under classifier:"),
        ("augment: {technique: bt, languages: [es], copies: 2}\n",
         "copies_per_original must be 1 for technique bt, got 2"),
        ("seeds: [0\n", "invalid YAML"),
        ("augment: {technique: sr}\naugment: {technique: rd}\n",
         "repeated key 'augment' on line 2"),
    ])
    def test_config_wrong_type_is_usage_error(self, runner, corpus_file, tmp_path,
                                              command, text, named):
        cfg = tmp_path / "typed.yaml"
        cfg.write_text(text, encoding="utf-8")
        out = {"train": ["--model-out", str(tmp_path / "model.npz")],
               "run": ["--out-dir", str(tmp_path / "out")],
               "augment": ["--out", str(tmp_path / "out")]}[command]
        result = runner.invoke(main, [command, "--config", str(cfg), "--in", str(corpus_file),
                                      *out])
        assert result.exit_code == 2, result.output
        assert named in result.output
        assert "typed.yaml" in result.output
        assert "Traceback" not in result.output
        assert not (tmp_path / "model.npz").exists() and not (tmp_path / "out").exists()


class TestEnsembleCommands:
    def _write_preds(self, tmp_path, name, value_fn):
        corp = make_review_corpus(n_train=4, n_test=20, seed=0)
        path = tmp_path / name
        rows = ["doc_id,p_positive"]
        for d in corp.split_docs("test"):
            rows.append(f"{d.id},{value_fn(d)}")
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        return path

    def test_fit_combine_report(self, runner, tmp_path):
        corp = make_review_corpus(n_train=4, n_test=20, seed=0)
        labels_path = tmp_path / "labels.jsonl"
        export_jsonl(corp, labels_path)
        good = self._write_preds(tmp_path, "good.csv",
                                 lambda d: 0.9 if d.label == "pos" else 0.1)
        bad = self._write_preds(tmp_path, "bad.csv", lambda d: 0.5)
        weights_path = tmp_path / "w.json"
        _invoke(runner, ["ensemble", "fit",
                         "--preds", f"good={good}", "--preds", f"bad={bad}",
                         "--labels", str(labels_path), "--out", str(weights_path)])
        written = json.loads(weights_path.read_text(encoding="utf-8"),
                             parse_constant=lambda c: pytest.fail(f"not JSON: {c}"))
        assert "loss" not in written
        assert written["weights"]["good"] > 0.9

        combined = tmp_path / "combined.csv"
        _invoke(runner, ["ensemble", "combine",
                         "--preds", f"good={good}", "--preds", f"bad={bad}",
                         "--weights", str(weights_path), "--out", str(combined)])
        assert combined.read_text(encoding="utf-8").startswith("doc_id,p_positive")

        report = _invoke(runner, ["ensemble", "report",
                                  "--preds", f"good={good}",
                                  "--labels", str(labels_path)])
        assert "source,frac_confident,pred_std,accuracy" in report.output
        assert report.output.strip().splitlines()[1].endswith(",1.0")  # accuracy 1.0


    def _fails_with(self, runner, args, message):
        _fails_with(runner, ["ensemble", *args], message)

    @pytest.mark.parametrize("order", [("a", "b"), ("b", "a")])
    def test_combine_with_a_missing_prediction_fails_with_message(self, runner, tmp_path,
                                                                   order):
        (tmp_path / "a.csv").write_text("doc_id,p_positive\ns1,0.2\ns2,0.7\n",
                                        encoding="utf-8")
        (tmp_path / "b.csv").write_text("doc_id,p_positive\ns1,0.4\n", encoding="utf-8")
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps({"weights": {"a": 0.5, "b": 0.5}}), encoding="utf-8")
        preds = [arg for name in order for arg in ("--preds", f"{name}={tmp_path / name}.csv")]
        self._fails_with(runner, ["combine", *preds,
                                  "--weights", str(weights), "--out", str(tmp_path / "c.csv")],
                         "missing predictions for 1 (doc, source) pairs: ('s2', 'b')")

    def test_fit_with_a_missing_prediction_fails_with_message(self, runner, tmp_path):
        # a.csv holds d1-d4 and b.csv d1-d2, all four labeled: fitting on d1 and
        # d2 alone would drop half the fitting set without a word
        a = _write(tmp_path / "a.csv", "doc_id,p_positive\nd1,0.9\nd2,0.1\nd3,0.8\nd4,0.3\n")
        b = _write(tmp_path / "b.csv", "doc_id,p_positive\nd1,0.6\nd2,0.4\n")
        labels = _write(tmp_path / "l.jsonl", "".join(
            json.dumps({"id": f"d{i}", "text": "t", "label": label, "split": "valid"}) + "\n"
            for i, label in enumerate(["pos", "neg", "pos", "neg"], start=1)))
        self._fails_with(runner, ["fit", "--preds", f"a={a}", "--preds", f"b={b}",
                                  "--labels", str(labels), "--out", str(tmp_path / "w.json")],
                         "missing predictions for 2 (doc, source) pairs: ('d3', 'b'), ('d4', 'b')")
        assert not (tmp_path / "w.json").exists()

    def test_combine_without_predictions_fails_with_message(self, runner, tmp_path):
        (tmp_path / "a.csv").write_text("doc_id,p_positive\n", encoding="utf-8")
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps({"weights": {"a": 1.0}}), encoding="utf-8")
        self._fails_with(runner, ["combine", "--preds", f"a={tmp_path / 'a.csv'}",
                                  "--weights", str(weights), "--out", str(tmp_path / "c.csv")],
                         "no predictions in any --preds file")

    def test_out_of_range_prediction_fails_with_message(self, runner, tmp_path):
        preds = tmp_path / "p.csv"
        preds.write_text("doc_id,p_positive\ns1,1.5\n", encoding="utf-8")
        self._fails_with(runner, ["report", "--preds", f"p={preds}"],
                         f"{preds}: probability out of range at row 2: 1.5")

    def test_repeated_doc_id_fails_with_message(self, runner, tmp_path):
        preds = tmp_path / "p.csv"
        preds.write_text("doc_id,p_positive\nd1,0.2\nd1,0.9\n", encoding="utf-8")
        self._fails_with(runner, ["report", "--preds", f"p={preds}"],
                         f"{preds}: repeated doc_id 'd1' at row 3")

    def test_doc_id_over_the_default_csv_field_limit_is_combined(self, runner, tmp_path):
        long_id = "x" * 131_073  # one over the csv module's default field limit
        preds = tmp_path / "p.csv"
        preds.write_text(f"doc_id,p_positive\n{long_id},0.2\n", encoding="utf-8")
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps({"weights": {"p": 1.0}}), encoding="utf-8")
        out = tmp_path / "c.csv"
        result = runner.invoke(main, ["ensemble", "combine", "--preds", f"p={preds}",
                                      "--weights", str(weights), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert out.read_text(encoding="utf-8") == f"doc_id,p_positive\n{long_id},0.2\n"

    @pytest.mark.parametrize("content,message", [
        ('{"weights": {"x": NaN}}', "weight for source 'x' is not a finite number: nan"),
        ('{"weights": {"x": true}}', "weight for source 'x' is not a finite number: True"),
        ('{"weights": {"x": "1"}}', "weight for source 'x' is not a finite number: '1'"),
        ("{}", "expected a JSON object with a 'weights' mapping"),
        ('{"weights": 1.0}', "expected a JSON object with a 'weights' mapping"),
        ("{not json", "cannot read weights: "),
    ])
    def test_combine_with_bad_weights_fails_with_message(self, runner, tmp_path, content,
                                                         message):
        (tmp_path / "x.csv").write_text("doc_id,p_positive\nd1,0.2\n", encoding="utf-8")
        weights = tmp_path / "w.json"
        weights.write_text(content, encoding="utf-8")
        out = tmp_path / "c.csv"
        self._fails_with(runner, ["combine", "--preds", f"x={tmp_path / 'x.csv'}",
                                  "--weights", str(weights), "--out", str(out)],
                         f"{weights}: {message}")
        assert not out.exists()

    def test_report_out_holds_the_text_it_echoes(self, runner, tmp_path):
        labels = tmp_path / "labels.jsonl"
        export_jsonl(make_review_corpus(n_train=4, n_test=20, seed=0), labels)
        good = self._write_preds(tmp_path, "good.csv",
                                 lambda d: 0.9 if d.label == "pos" else 0.3)
        flat = self._write_preds(tmp_path, "flat.csv", lambda d: 0.5)
        out = tmp_path / "report.csv"
        result = _invoke(runner, ["ensemble", "report", "--preds", f"good={good}",
                                  "--preds", f"flat={flat}", "--labels", str(labels),
                                  "--out", str(out)])
        assert out.read_text(encoding="utf-8") == result.output
        assert result.output.splitlines()[0] == "source,frac_confident,pred_std,accuracy"
        assert [line.split(",")[0] for line in result.output.splitlines()[1:]] == [
            "flat", "good"]

    def test_preds_without_equals_is_usage_error(self, runner, tmp_path):
        x = _write(tmp_path / "x.csv", "doc_id,p_positive\nd1,0.2\n")
        result = runner.invoke(main, ["ensemble", "report", "--preds", str(x)])
        assert result.exit_code == 2, result.output
        assert f"Error: --preds takes source=path, got {str(x)!r}" in result.output
        assert "source,frac_confident" not in result.output

    def test_repeated_source_name_is_usage_error(self, runner, tmp_path):
        x = _write(tmp_path / "x.csv", "doc_id,p_positive\nd1,0.2\n")
        y = _write(tmp_path / "y.csv", "doc_id,p_positive\nd1,0.9\n")
        result = runner.invoke(main, ["ensemble", "report", "--preds", f"a={x}",
                                      "--preds", f"b={x}", "--preds", f"a={y}"])
        assert result.exit_code == 2, result.output
        assert "--preds names source 'a' more than once" in result.output
        assert "source,frac_confident" not in result.output

    # a source name is written raw into `ensemble report` CSV rows
    @pytest.mark.parametrize("name", ["", "a,b", 'a"b', "a\nb", "a\rb"])
    def test_source_name_unfit_for_csv_is_usage_error(self, runner, tmp_path, name):
        x = _write(tmp_path / "x.csv", "doc_id,p_positive\nd1,0.2\n")
        out = tmp_path / "r.csv"
        result = runner.invoke(main, ["ensemble", "report", "--preds", f"{name}={x}",
                                      "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert result.output.splitlines()[-1] == (
            "Error: --preds source name must be nonempty, without a comma, quote or line "
            f"break, got {name!r}")
        assert "source,frac_confident" not in result.output and not out.exists()

    def test_fit_with_one_source_fails_with_message(self, runner, tmp_path):
        labels = tmp_path / "labels.jsonl"
        export_jsonl(make_review_corpus(n_train=4, n_test=20, seed=0), labels)
        good = self._write_preds(tmp_path, "good.csv", lambda d: 0.9)
        self._fails_with(runner, ["fit", "--preds", f"good={good}", "--labels", str(labels),
                                  "--out", str(tmp_path / "w.json")],
                         "weight fitting needs at least 2 sources")
        assert not (tmp_path / "w.json").exists()


class TestAnalyzeCommands:
    def test_regress_and_probe(self, runner, tmp_path):
        corp_path = tmp_path / "corpus.jsonl"
        export_jsonl(make_review_corpus(n_train=60, n_test=40, seed=1), corp_path)
        model = tmp_path / "model.npz"
        _invoke(runner, ["train", "--in", str(corp_path), "--model-out", str(model)])

        regout = tmp_path / "reg.json"
        _invoke(runner, ["analyze", "regress", "--model", str(model),
                         "--in", str(corp_path), "--l1", "0.01", "--out", str(regout)])
        fit = json.loads(regout.read_text(encoding="utf-8"))
        assert set(fit["coefficients"]) == {"last", "first", "avg", "max", "min", "len"}

        for bad in ("-1", "nan", "inf"):
            rejected = tmp_path / "rejected.json"
            result = runner.invoke(main, ["analyze", "regress", "--model", str(model),
                                          "--in", str(corp_path), "--l1", bad,
                                          "--out", str(rejected)])
            assert result.exit_code == 2, bad  # a usage error, before anything is read
            assert "'--l1': l1 strengths must be finite and >= 0" in result.output
            assert not rejected.exists()

        result = runner.invoke(main, ["analyze", "regress", "--model", str(model),
                                      "--in", str(corp_path), "--splits", "test,tst",
                                      "--l1", "0.01", "--out", str(rejected)])
        assert result.exit_code == 2, result.output
        assert "unknown split 'tst'; splits are train, valid, test, unsup" in result.output
        assert not rejected.exists()

        probeout = tmp_path / "probe.csv"
        _invoke(runner, ["analyze", "probe", "--model", str(model),
                         "--out", str(probeout)])
        lines = probeout.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "rating,p_positive"
        assert len(lines) == 13

        _fails_with(runner, ["analyze", "probe", "--model", str(model), "--template",
                             "nobraces", "--out", str(tmp_path / "bad.csv")],
                    "template must contain exactly one {} slot")
        assert not (tmp_path / "bad.csv").exists()

    @pytest.mark.parametrize("template", ["{x} {}", "Rating {}/10 {", "Rating {0}/10 {}",
                                          "Rating {{}}/10"])
    def test_probe_rejects_template_without_one_bare_slot(self, runner, tmp_path, template):
        model = tmp_path / "model.npz"
        LinearModel(weights=np.zeros(1 << 4), bias=0.0, config=TrainConfig(bits=4)).save(model)
        _fails_with(runner, ["analyze", "probe", "--model", str(model), "--template",
                             template, "--out", str(tmp_path / "bad.csv")],
                    "template must contain exactly one {} slot")
        assert not (tmp_path / "bad.csv").exists()

    def test_regress_cross_validates_by_lowest_mean_loss(self, runner, tmp_path):
        corp_path = tmp_path / "corpus.jsonl"
        corp = make_review_corpus(n_train=60, n_test=60, seed=2)
        export_jsonl(corp, corp_path)
        model = tmp_path / "model.npz"
        _invoke(runner, ["train", "--in", str(corp_path), "--model-out", str(model)])
        regout = tmp_path / "reg.json"
        _invoke(runner, ["analyze", "regress", "--model", str(model),
                         "--in", str(corp_path), "--out", str(regout)])

        docs = corp.split_docs("test")
        predict_fn = predictor(LinearModel.load(model))
        X, _, _ = standardize(build_feature_matrix([d.text for d in docs], predict_fn))
        y = np.array([1.0 if d.label == "pos" else 0.0 for d in docs])
        lam = cross_validate_l1(X, y)
        assert json.loads(regout.read_text(encoding="utf-8")) == \
            fit_l1_logistic(X, y, lam, target_kind="true_label").as_dict()
        assert lam != cross_validate_l1(X, y, se_multiplier=2.0)  # the rules differ here


    def test_regress_on_predictions_fits_thresholded_model_output(self, runner, tmp_path):
        corp_path = tmp_path / "corpus.jsonl"
        corp = make_review_corpus(n_train=60, n_test=40, seed=1)
        export_jsonl(corp, corp_path)
        model = tmp_path / "model.npz"
        _invoke(runner, ["train", "--in", str(corp_path), "--model-out", str(model)])
        regout = tmp_path / "reg.json"
        _invoke(runner, ["analyze", "regress", "--model", str(model), "--in", str(corp_path),
                         "--target", "prediction", "--l1", "0.01", "--out", str(regout)])

        docs = corp.split_docs("test")
        predict_fn = predictor(LinearModel.load(model))
        X, _, _ = standardize(build_feature_matrix([d.text for d in docs], predict_fn))
        y = np.array([1.0 if predict_fn(d.text) >= 0.5 else 0.0 for d in docs])
        assert 0 < y.sum() < len(y)  # both classes, so the fit is not degenerate
        assert json.loads(regout.read_text(encoding="utf-8")) == \
            fit_l1_logistic(X, y, 0.01, target_kind="model_prediction").as_dict()


class TestRunCommand:
    def test_sweep_writes_report(self, runner, tmp_path):
        corp_path = tmp_path / "corpus.jsonl"
        export_jsonl(make_review_corpus(n_train=60, n_test=20, seed=0), corp_path)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            "train_sizes: [20]\nseeds: [0, 1, 2]\n"
            "classifier: {bits: 12, epochs: 1}\n",
            encoding="utf-8")
        out_dir = tmp_path / "out"
        _invoke(runner, ["run", "--config", str(cfg), "--in", str(corp_path),
                         "--out-dir", str(out_dir)])
        report = (out_dir / "report.csv").read_text(encoding="utf-8").splitlines()
        assert report[0].startswith("n,technique,languages,k,seed")
        assert len(report) == 1 + 3 + 1  # header + 3 runs + 1 median
        assert (out_dir / "timings.csv").exists()

    def test_failed_runs_exit_nonzero_after_writing_report(self, runner, tmp_path):
        corp_path = tmp_path / "corpus.jsonl"
        export_jsonl(make_review_corpus(n_train=10, n_test=4, seed=0), corp_path)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("train_sizes: [50]\nseeds: [0, 1]\n", encoding="utf-8")
        out_dir = tmp_path / "out"
        result = runner.invoke(main, ["run", "--config", str(cfg), "--in", str(corp_path),
                                      "--out-dir", str(out_dir)])
        assert result.exit_code == 1
        assert "FAILED n=50,seed=0" in result.output
        assert "FAILED n=50,seed=1" in result.output
        report = (out_dir / "report.csv").read_text(encoding="utf-8").splitlines()
        assert report == ["n,technique,languages,k,seed,subsample,accuracy,error,"
                          "frac_confident,pred_std"]

    def test_all_skipped_augmentation_exits_nonzero(self, runner, corpus_file, tmp_path):
        cfg = _write(tmp_path / "cfg.yaml", "train_sizes: [10]\nseeds: [0]\n"
                     "augment: {technique: bt, languages: [es, fr]}\n")
        out_dir = tmp_path / "out"
        result = runner.invoke(main, ["run", "--config", str(cfg), "--in", str(corpus_file),
                                      "--out-dir", str(out_dir), "--provider", "replay"])
        assert result.exit_code == 1, result.output
        assert "FAILED n=10,seed=0: augmentation skipped all " in result.output
        report = (out_dir / "report.csv").read_text(encoding="utf-8").splitlines()
        assert report == ["n,technique,languages,k,seed,subsample,accuracy,error,"
                          "frac_confident,pred_std"]

    def test_corpus_without_test_split_fails_with_message(self, runner, tmp_path):
        corp_path = tmp_path / "corpus.jsonl"
        export_jsonl(make_review_corpus(n_train=40, n_test=0, seed=0), corp_path)
        cfg = _write(tmp_path / "cfg.yaml", "train_sizes: [20]\nseeds: [0]\n")
        out_dir = tmp_path / "out"
        _fails_with(runner, ["run", "--config", str(cfg), "--in", str(corp_path),
                             "--out-dir", str(out_dir)],
                    "the corpus has no test documents to evaluate on")
        assert list(out_dir.iterdir()) == []  # made before the corpus is read; no report

    def test_unusable_out_dir_fails_before_any_translation(self, runner, corpus_file,
                                                           tmp_path):
        cfg = _write(tmp_path / "cfg.yaml", "train_sizes: [10, 20]\nseeds: [0, 1]\n"
                     "augment: {technique: bt, languages: [es, fr]}\n")
        out_dir, cache = _write(tmp_path / "afile", "") / "sub", tmp_path / "cache.jsonl"
        _fails_with(runner, ["run", "--config", str(cfg), "--in", str(corpus_file),
                             "--cache", str(cache), "--out-dir", str(out_dir)],
                    f"[Errno {errno.ENOTDIR}] {os.strerror(errno.ENOTDIR)}: '{out_dir}'")
        assert not cache.exists()

    def test_failed_training_run_exits_nonzero_after_writing_report(self, runner, tmp_path):
        corp_path = tmp_path / "corpus.jsonl"
        export_jsonl(make_review_corpus(n_train=40, n_test=10, seed=0), corp_path)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("train_sizes: [2, 20]\nseeds: [0]\n", encoding="utf-8")
        out_dir = tmp_path / "out"
        result = runner.invoke(main, ["run", "--config", str(cfg), "--in", str(corp_path),
                                      "--out-dir", str(out_dir)])
        assert result.exit_code == 1, result.output
        assert ("FAILED n=2,seed=0: training needs at least 2 documents covering both labels"
                in result.output)
        report = (out_dir / "report.csv").read_text(encoding="utf-8").splitlines()
        assert [line.split(",")[:5] for line in report[1:]] == [
            ["20", "none", "-", "0", "0"], ["20", "none", "-", "0", "median"]]
