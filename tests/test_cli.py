import gc
import json
import warnings
from unittest import mock

import pytest
import numpy as np
from click.testing import CliRunner

from augbench.classify import TrainConfig, train
from augbench.cli import main
from augbench.corpus import export_jsonl, ingest_jsonl
from augbench.synth import make_review_corpus


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


class TestIngest:
    def test_imdb_to_jsonl(self, runner, imdb_dir, tmp_path):
        out = tmp_path / "out.jsonl"
        _invoke(runner, ["ingest", "--imdb-dir", str(imdb_dir), "--out", str(out)])
        corp = ingest_jsonl(out)
        assert len(corp) == 6


class TestAugmentCommand:
    def test_token_perturbation(self, runner, corpus_file, tmp_path):
        out = tmp_path / "aug.jsonl"
        _invoke(runner, ["augment", "--technique", "rs", "--alpha", "0.2",
                         "--copies", "1", "--seed", "3",
                         "--in", str(corpus_file), "--out", str(out)])
        corp = ingest_jsonl(out)
        assert len(corp) == 40 + 30  # originals + one synthetic per train doc

    def test_backtranslate_mock(self, runner, corpus_file, tmp_path):
        out = tmp_path / "bt.jsonl"
        _invoke(runner, ["augment", "--technique", "bt", "--langs", "es,fr",
                         "--provider", "mock",
                         "--in", str(corpus_file), "--out", str(out)])
        corp = ingest_jsonl(out)
        synth = [d for d in corp if d.origin.kind == "synthetic"]
        assert len(synth) == 60
        assert {d.origin.lang for d in synth} == {"es", "fr"}

    def test_backtranslate_writes_cache(self, runner, corpus_file, tmp_path):
        out = tmp_path / "bt.jsonl"
        cache = tmp_path / "cache.jsonl"
        _invoke(runner, ["augment", "--technique", "bt", "--langs", "es",
                         "--provider", "mock", "--cache", str(cache),
                         "--in", str(corpus_file), "--out", str(out)])
        assert cache.exists()
        assert len(cache.read_text(encoding="utf-8").splitlines()) == 60  # 2 legs x 30

    def test_backtranslate_closes_its_cache(self, runner, corpus_file, tmp_path):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _invoke(runner, ["augment", "--technique", "bt", "--langs", "es",
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

    def test_http_provider_session_closed(self, runner, corpus_file, tmp_path):
        def echo(url, json, timeout):
            return mock.Mock(status_code=200, json=lambda: {"translatedText": json["q"]})

        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("train_sizes: [10]\nseeds: [0]\nclassifier: {bits: 10, epochs: 1}\n"
                       "augment: {technique: bt, languages: [fr]}\n", encoding="utf-8")
        http = ["--provider", "http", "--endpoint", "http://127.0.0.1:1/translate",
                "--rps", "1e9", "--in", str(corpus_file)]
        with mock.patch("requests.Session") as session_cls:
            session_cls.return_value.post.side_effect = echo
            _invoke(runner, ["augment", "--technique", "bt", "--langs", "es", *http,
                             "--out", str(tmp_path / "bt.jsonl")])
            assert session_cls.return_value.close.call_count == 1
            _invoke(runner, ["run", "--config", str(cfg), *http,
                             "--out-dir", str(tmp_path / "out")])
            assert session_cls.return_value.close.call_count == 2


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

    def test_predict_has_no_source_option(self, runner, corpus_file, tmp_path):
        # the CSV is doc_id,p_positive whatever its source would be called
        result = runner.invoke(main, ["predict", "--model", str(corpus_file), "--in",
                                      str(corpus_file), "--source", "x",
                                      "--out", str(tmp_path / "preds.csv")])
        assert result.exit_code == 2 and "No such option '--source'" in result.output

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


    @pytest.mark.parametrize("command", ["train", "run"])
    @pytest.mark.parametrize("augment, named", [
        ("{technique: foo}", "unknown technique 'foo'; expected one of: sr, ri, rs, rd, bt"),
        ("{technique: bt, languages: [es], language_strategy: rr}",
         "unknown language_strategy 'rr'; expected one of: all, roundrobin"),
    ])
    def test_config_bad_enum_value_is_usage_error(self, runner, corpus_file, tmp_path,
                                                  command, augment, named):
        cfg = tmp_path / "enum.yaml"
        cfg.write_text(f"augment: {augment}\n", encoding="utf-8")
        out = ["--model-out", str(tmp_path / "model.npz")] if command == "train" else [
            "--out-dir", str(tmp_path / "out")]
        result = runner.invoke(main, [command, "--config", str(cfg), "--in", str(corpus_file),
                                      *out])
        assert result.exit_code == 2, result.output
        assert named in result.output
        assert "enum.yaml" in result.output
        assert "Traceback" not in result.output
        assert not (tmp_path / "model.npz").exists() and not (tmp_path / "out").exists()


    @pytest.mark.parametrize("command", ["train", "run"])
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
        ("classifier: {epochs: 0}\n", "epochs must be at least 1, got 0"),
        ("classifier: {learning_rate: 0.0}\n", "learning_rate must be positive, got 0.0"),
        ("classifier: {learning_rate: -0.1}\n", "learning_rate must be positive, got -0.1"),
    ])
    def test_config_wrong_type_is_usage_error(self, runner, corpus_file, tmp_path,
                                              command, text, named):
        cfg = tmp_path / "typed.yaml"
        cfg.write_text(text, encoding="utf-8")
        out = ["--model-out", str(tmp_path / "model.npz")] if command == "train" else [
            "--out-dir", str(tmp_path / "out")]
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
            assert result.exit_code != 0, bad
            assert "l1 strengths must be finite and >= 0" in result.output
            assert not rejected.exists()

        probeout = tmp_path / "probe.csv"
        _invoke(runner, ["analyze", "probe", "--model", str(model),
                         "--out", str(probeout)])
        lines = probeout.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "rating,p_positive"
        assert len(lines) == 13


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
