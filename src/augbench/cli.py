"""Command line entry points for the augmentation benchmark harness."""
from __future__ import annotations

import contextlib
import json
import logging
import math
import os
import sys
from pathlib import Path

import click
import numpy as np

from . import analyze as _analyze
from . import augment as _augment
from . import classify as _classify
from . import corpus as _corpus
from . import ensemble as _ensemble
from . import experiment as _experiment
from . import translate as _translate

API_KEY_ENV = "AUGBENCH_API_KEY"

# What the library raises for bad input or a failed step.
_ERRORS = (_analyze.AnalyzeError, _augment.AugmentError, _classify.ClassifyError,
           _corpus.CorpusError, _ensemble.EnsembleError, _experiment.ExperimentError,
           _translate.TranslationError)


def _rate(ctx, param, value: float) -> float:
    """`--rps`; NaN passes a range check, and then no request would ever wait."""
    if not (value > 0 and math.isfinite(value)):
        raise click.BadParameter(f"{value} is not a finite number above 0")
    return value


def _l1(ctx, param, value: float | None) -> float | None:
    """`--l1`, checked before the model and corpus are read and scored."""
    if value is not None and not (value >= 0 and math.isfinite(value)):
        raise click.BadParameter(f"l1 strengths must be finite and >= 0, got {value}")
    return value


def _translation_options(command):
    """The provider and cache options of the commands that backtranslate."""
    for option in reversed((
        click.option("--provider", type=click.Choice(["http", "mock", "replay"]),
                     default="mock", show_default=True),
        click.option("--endpoint", help="Translation endpoint URL (http provider)."),
        click.option("--rps", type=float, callback=_rate, default=10.0, show_default=True,
                     help="Requests per second (http provider): finite, above 0."),
        click.option("--max-retries", type=click.IntRange(min=1), default=3,
                     show_default=True),
        click.option("--cache", "cache_path", type=click.Path(dir_okay=False)),
    )):
        command = option(command)
    return command


@contextlib.contextmanager
def _translation(spec: _augment.AugmentSpec | None, provider: str, endpoint: str | None,
                 rps: float, max_retries: int, cache_path: str | None):
    """The translation provider and a cache pre-seeded with the paper's examples,
    which is closed on leaving; (None, None) unless `spec` backtranslates.  A
    missing or bad `--endpoint` is a usage error on entering."""
    if spec is None or spec.technique is not _augment.AugTechnique.BACKTRANSLATE:
        yield None, None
        return
    if provider == "mock":
        translator = _translate.MockProvider(seed=spec.seed)
    elif provider == "replay":
        translator = _translate.ReplayProvider()
    elif not endpoint:
        raise click.UsageError("--endpoint is required with --provider http")
    else:
        try:  # `--rps` and `--max-retries` are checked as they are parsed
            translator = _translate.HttpProvider(endpoint=endpoint,
                                                 api_key=os.environ.get(API_KEY_ENV),
                                                 rate_limit=rps, max_retries=max_retries)
        except ValueError as e:
            raise click.BadParameter(str(e), param_hint="--endpoint") from e
    with _translate.TranslationCache(cache_path) as cache:
        cache.load(_translate.paper_cache_path())
        yield translator, cache


def _splits(ctx, param, value: str) -> tuple[str, ...]:
    """The comma-separated split names of `--splits`; an unknown one is a usage error."""
    names = tuple(value.split(","))
    unknown = [n for n in names if n not in _corpus.SPLITS]
    if unknown:
        raise click.BadParameter(f"unknown split {unknown[0]!r}; splits are "
                                 f"{', '.join(_corpus.SPLITS)}")
    return names


class _Main(click.Group):
    """A library or OS error ends any command with a one-line message, exit status 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (*_ERRORS, OSError) as e:
            raise click.ClickException(str(e)) from e


@click.group(cls=_Main)
@click.option("-v", "--verbose", is_flag=True, help="Enable debug logging.")
def main(verbose: bool):
    """Text augmentation, backtranslation, and low-resource classification harness."""
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )


@main.command()
@click.option("--imdb-dir", type=click.Path(exists=True, file_okay=False), required=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def ingest(imdb_dir: str, out: str):
    """Convert an aclImdb-style directory tree to the JSONL interchange format."""
    corp = _corpus.ingest_imdb_dir(imdb_dir)
    _corpus.export_jsonl(corp, out)
    click.echo(f"wrote {len(corp)} documents to {out}")


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              required=True, help="Run YAML; only its augment: section is used.")
@click.option("--thesaurus", "thesaurus_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--stopwords", "stopwords_path", type=click.Path(exists=True, dir_okay=False))
@_translation_options
@click.option("--in", "in_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), required=True)
def augment(config_path, thesaurus_path, stopwords_path, provider, endpoint, rps,
            max_retries, cache_path, in_path, out_path):
    """Append synthetic training examples to a JSONL corpus."""
    spec = _run_config(config_path).augment
    if spec is None:
        raise click.BadParameter(f"{config_path}: no augment: section", param_hint="--config")
    if stopwords_path:
        spec.stopwords = _augment.read_stopwords(stopwords_path)
    with _translation(spec, provider, endpoint, rps, max_retries,
                      cache_path) as (translator, cache):
        corp = _corpus.ingest_jsonl(in_path)
        thesaurus = _augment.Thesaurus.from_tsv(thesaurus_path) if thesaurus_path else None
        run = _augment.augment_dataset(corp, spec, thesaurus=thesaurus,
                                       translator=translator, cache=cache)
    _corpus.export_jsonl(run.corpus, out_path)
    click.echo(f"generated {run.generated} synthetic documents "
               f"({run.unmodified} unmodified, {len(run.skipped)} skipped)")


def _run_config(path: str) -> _experiment.ExperimentConfig:
    """A run YAML; an unknown key or a rejected value is a usage error naming it."""
    try:
        return _experiment.ExperimentConfig.from_yaml(path)
    except _ERRORS as e:
        raise click.BadParameter(str(e), param_hint="--config") from e


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              help="Run YAML; only its classifier: section is used.")
@click.option("--in", "in_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--model-out", type=click.Path(dir_okay=False), required=True)
def train(config_path, in_path, model_out):
    """Train the built-in hashed-ngram logistic regression classifier."""
    config = _run_config(config_path).classifier if config_path else _classify.TrainConfig()
    corp = _corpus.ingest_jsonl(in_path)
    model = _classify.train(corp, config)
    model.save(model_out)
    click.echo(f"saved model to {model_out}")


@main.command()
@click.option("--model", "model_path", type=click.Path(exists=True, dir_okay=False),
              required=True)
@click.option("--in", "in_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--splits", default="test", show_default=True, callback=_splits)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), required=True)
def predict(model_path, in_path, splits, out_path):
    """Write doc_id,p_positive predictions for the selected splits."""
    model = _classify.LinearModel.load(model_path)
    corp = _corpus.ingest_jsonl(in_path)
    table = _classify.predict_corpus(model, corp, "baseline", splits=splits)
    table.to_csv(out_path, "baseline")
    click.echo(f"wrote {len(table)} predictions to {out_path}")


def _load_pred_args(pred_args: tuple[str, ...]) -> _classify.PredictionTable:
    table = _classify.PredictionTable()
    sources = [arg.split("=", 1)[0] for arg in pred_args]
    for arg in pred_args:
        if "=" not in arg:
            raise click.UsageError(f"--preds takes source=path, got {arg!r}")
        source, path = arg.split("=", 1)
        if not source or any(c in source for c in ',"\r\n'):  # it is written into CSV rows
            raise click.UsageError(f"--preds source name must be nonempty, without a comma, "
                                   f"quote or line break, got {source!r}")
        if sources.count(source) > 1:
            raise click.UsageError(f"--preds names source {source!r} more than once")
        table.merge(_classify.import_predictions(path, source))
    return table


def _load_labels(path: str) -> dict[str, str]:
    corp = _corpus.ingest_jsonl(path)
    return {d.id: d.label for d in corp if d.label in ("pos", "neg")}


@main.group()
def ensemble():
    """Fit, apply, and report on simplex-weighted ensembles."""


@ensemble.command("fit")
@click.option("--preds", "pred_args", multiple=True, required=True,
              help="source=path CSV, repeatable.")
@click.option("--labels", "labels_path", type=click.Path(exists=True, dir_okay=False),
              required=True, help="JSONL corpus providing labels.")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), required=True)
def ensemble_fit(pred_args, labels_path, out_path):
    table = _load_pred_args(pred_args)
    weights = _ensemble.fit_weights(table, _load_labels(labels_path))
    weights.to_json(out_path, fitting_set=labels_path)
    click.echo(json.dumps(dict(weights.weights), sort_keys=True))


@ensemble.command("combine")
@click.option("--preds", "pred_args", multiple=True, required=True)
@click.option("--weights", "weights_path", type=click.Path(exists=True, dir_okay=False),
              required=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), required=True)
def ensemble_combine(pred_args, weights_path, out_path):
    table = _load_pred_args(pred_args)
    # every doc id any source holds, in first-seen order
    doc_ids = list(dict.fromkeys(d for source in table.sources for d in table.doc_ids(source)))
    if not doc_ids:
        raise click.ClickException("no predictions in any --preds file")
    weights = _ensemble.SimplexWeights.from_json(weights_path)
    combined = _ensemble.combine(table, weights, doc_ids)
    combined.to_csv(out_path, "ensemble")
    click.echo(f"wrote {len(combined)} combined predictions to {out_path}")


@ensemble.command("report")
@click.option("--preds", "pred_args", multiple=True, required=True)
@click.option("--labels", "labels_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_path", type=click.Path(dir_okay=False))
def ensemble_report(pred_args, labels_path, out_path):
    """Per-source calibration stats: overconfidence fraction, std, accuracy."""
    table = _load_pred_args(pred_args)
    labels = _load_labels(labels_path) if labels_path else None
    lines = ["source,frac_confident,pred_std,accuracy"]
    for source in sorted(table.sources):
        rep = _ensemble.calibration_report(table, source, labels)
        acc = "" if rep.accuracy is None else repr(rep.accuracy)
        lines.append(f"{source},{rep.frac_confident!r},{rep.pred_std!r},{acc}")
    output = "\n".join(lines) + "\n"
    if out_path:
        with _corpus.replacing(out_path, "w") as fh:
            fh.write(output)
    click.echo(output, nl=False)


@main.group()
def analyze():
    """Sentence-level regressions and the rating numeracy probe."""


@analyze.command("regress")
@click.option("--model", "model_path", type=click.Path(exists=True, dir_okay=False),
              required=True)
@click.option("--in", "in_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--splits", default="test", show_default=True, callback=_splits)
@click.option("--target", type=click.Choice(["label", "prediction"]), default="label",
              show_default=True)
@click.option("--l1", "l1_strength", type=float, default=None, callback=_l1,
              help="L1 strength; cross-validated when omitted.")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), required=True)
def analyze_regress(model_path, in_path, splits, target, l1_strength, out_path):
    """Regress labels (or model predictions) on sentence-sentiment summary stats."""
    model = _classify.LinearModel.load(model_path)
    corp = _corpus.ingest_jsonl(in_path)
    docs = [d for d in corp
            if d.split in splits and d.label in ("pos", "neg") and d.text.strip()]
    if not docs:
        raise click.UsageError("no labeled documents in the selected splits")
    predict_fn = _classify.predictor(model)
    raw = _analyze.build_feature_matrix([d.text for d in docs], predict_fn)
    X, _, _ = _analyze.standardize(raw)
    if target == "label":
        y = np.array([1.0 if d.label == "pos" else 0.0 for d in docs])
        target_kind = "true_label"
    else:
        y = np.array([1.0 if predict_fn(d.text) >= 0.5 else 0.0 for d in docs])
        target_kind = "model_prediction"
    lam = l1_strength if l1_strength is not None else _analyze.cross_validate_l1(X, y)
    fit = _analyze.fit_l1_logistic(X, y, lam, target_kind=target_kind)
    with _corpus.replacing(out_path, "w") as fh:
        json.dump(fit.as_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    click.echo(json.dumps(fit.as_dict()["coefficients"], sort_keys=True))


@analyze.command("probe")
@click.option("--model", "model_path", type=click.Path(exists=True, dir_okay=False),
              required=True)
@click.option("--template", default="Rating {}/10", show_default=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), required=True)
def analyze_probe(model_path, template, out_path):
    """Probe the model's sentiment on templated "Rating x/10" strings."""
    model = _classify.LinearModel.load(model_path)
    rows = _analyze.numeracy_probe(_classify.predictor(model), template)
    with _corpus.replacing(out_path, "w") as fh:
        fh.write("rating,p_positive\n")
        for rating, p in rows:
            fh.write(f"{rating},{p!r}\n")
    click.echo(f"wrote {len(rows)} probe rows to {out_path}")


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              required=True)
@click.option("--in", "in_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--out-dir", type=click.Path(file_okay=False), required=True)
@_translation_options
def run(config_path, in_path, out_dir, provider, endpoint, rps, max_retries, cache_path):
    """Run a low-resource sweep described by a YAML experiment config.

    Exits with status 1, after writing the report, if any run failed.
    """
    config = _run_config(config_path)
    out = Path(out_dir)
    with _translation(config.augment, provider, endpoint, rps, max_retries,
                      cache_path) as (translator, cache):
        out.mkdir(parents=True, exist_ok=True)  # after any usage error, before any translation
        corp = _corpus.ingest_jsonl(in_path)
        report = _experiment.run_low_resource_sweep(config, corp, provider=translator,
                                                    cache=cache)
    report.write_csv(out / "report.csv")
    report.write_timings(out / "timings.csv")
    for tag, reason in report.failures:
        click.echo(f"FAILED {tag}: {reason}", err=True)
    click.echo(f"wrote {len(report.all_rows())} report rows to {out / 'report.csv'}")
    if report.failures:
        raise SystemExit(1)


if __name__ == "__main__":
    sys.exit(main())
