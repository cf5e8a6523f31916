"""Command line entry points for the augmentation benchmark harness."""
from __future__ import annotations

import contextlib
import json
import logging
import os
import sys
from pathlib import Path

import click

from . import analyze as _analyze
from . import augment as _augment
from . import classify as _classify
from . import corpus as _corpus
from . import ensemble as _ensemble
from . import experiment as _experiment
from . import translate as _translate

log = logging.getLogger(__name__)

API_KEY_ENV = "AUGBENCH_API_KEY"


def _translation_options(command):
    """The provider and cache options of the commands that backtranslate."""
    for option in reversed((
        click.option("--provider", type=click.Choice(["http", "mock", "replay"]),
                     default="mock", show_default=True),
        click.option("--endpoint", help="Translation endpoint URL (http provider)."),
        click.option("--rps", type=float, default=10.0, show_default=True),
        click.option("--max-retries", type=int, default=3, show_default=True),
        click.option("--cache", "cache_path", type=click.Path(dir_okay=False)),
    )):
        command = option(command)
    return command


@contextlib.contextmanager
def _translation(spec: _augment.AugmentSpec | None, provider: str, endpoint: str | None,
                 rps: float, max_retries: int, cache_path: str | None):
    """The translation provider and a cache pre-seeded with the paper's examples,
    both closed on leaving; (None, None) unless `spec` backtranslates."""
    if spec is None or spec.technique is not _augment.AugTechnique.BACKTRANSLATE:
        yield None, None
        return
    with contextlib.ExitStack() as stack:
        if provider == "mock":
            translator = _translate.MockProvider(seed=spec.seed)
        elif provider == "replay":
            translator = _translate.ReplayProvider()
        else:
            if not endpoint:
                raise click.UsageError("--endpoint is required with --provider http")
            translator = stack.enter_context(_translate.HttpProvider(
                endpoint=endpoint,
                api_key=os.environ.get(API_KEY_ENV),
                rate_limit=rps,
                max_retries=max_retries,
            ))
        cache = stack.enter_context(_translate.TranslationCache(cache_path))
        cache.load(_translate.paper_cache_path())
        yield translator, cache


@click.group()
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
@click.option("--technique", type=click.Choice(["sr", "ri", "rs", "rd", "bt"]), required=True)
@click.option("--alpha", type=float, default=0.1, show_default=True)
@click.option("--copies", type=int, default=1, show_default=True)
@click.option("--langs", default="", help="Comma-separated pivot languages (bt only).")
@click.option("--lang-strategy", type=click.Choice(["all", "roundrobin"]), default="all",
              show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--thesaurus", "thesaurus_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--stopwords", "stopwords_path", type=click.Path(exists=True, dir_okay=False))
@_translation_options
@click.option("--in", "in_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), required=True)
def augment(technique, alpha, copies, langs, lang_strategy, seed, thesaurus_path,
            stopwords_path, provider, endpoint, rps, max_retries, cache_path,
            in_path, out_path):
    """Append synthetic training examples to a JSONL corpus."""
    corp = _corpus.ingest_jsonl(in_path)
    stopword_set = (
        frozenset(Path(stopwords_path).read_text(encoding="utf-8").split())
        if stopwords_path else _augment.bundled_stopwords()
    )
    spec = _augment.AugmentSpec(
        technique=technique,
        alpha=alpha,
        copies_per_original=copies,
        languages=tuple(l for l in langs.split(",") if l),
        language_strategy=lang_strategy,
        seed=seed,
        stopwords=stopword_set,
    )
    thesaurus = (_augment.Thesaurus.from_tsv(thesaurus_path)
                 if thesaurus_path else _augment.bundled_thesaurus())
    with _translation(spec, provider, endpoint, rps, max_retries,
                      cache_path) as (translator, cache):
        run = _augment.augment_dataset(corp, spec, thesaurus=thesaurus,
                                       translator=translator, cache=cache)
    _corpus.export_jsonl(run.corpus, out_path)
    click.echo(f"generated {run.generated} synthetic documents "
               f"({run.unmodified} unmodified, {len(run.skipped)} skipped)")


def _run_config(path: str) -> _experiment.ExperimentConfig:
    """A run YAML; an unknown key or a rejected value is a usage error naming it."""
    try:
        return _experiment.ExperimentConfig.from_yaml(path)
    except (_experiment.ExperimentError, _augment.AugmentError,
            _classify.ClassifyError) as e:
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
@click.option("--splits", default="test", show_default=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), required=True)
def predict(model_path, in_path, splits, out_path):
    """Write doc_id,p_positive predictions for the selected splits."""
    model = _classify.LinearModel.load(model_path)
    corp = _corpus.ingest_jsonl(in_path)
    table = _classify.predict_corpus(model, corp, "baseline",
                                     splits=tuple(splits.split(",")))
    table.to_csv(out_path, "baseline")
    click.echo(f"wrote {len(table)} predictions to {out_path}")


def _load_pred_args(pred_args: tuple[str, ...]) -> _classify.PredictionTable:
    table = _classify.PredictionTable()
    for arg in pred_args:
        if "=" not in arg:
            raise click.UsageError(f"--preds takes source=path, got {arg!r}")
        source, path = arg.split("=", 1)
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
    weights = _ensemble.SimplexWeights.from_json(weights_path)
    doc_ids = table.doc_ids(table.sources[0])
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
        Path(out_path).write_text(output, encoding="utf-8")
    click.echo(output, nl=False)


@main.group()
def analyze():
    """Sentence-level regressions and the rating numeracy probe."""


@analyze.command("regress")
@click.option("--model", "model_path", type=click.Path(exists=True, dir_okay=False),
              required=True)
@click.option("--in", "in_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--splits", default="test", show_default=True)
@click.option("--target", type=click.Choice(["label", "prediction"]), default="label",
              show_default=True)
@click.option("--l1", "l1_strength", type=float, default=None,
              help="L1 strength; cross-validated when omitted.")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), required=True)
def analyze_regress(model_path, in_path, splits, target, l1_strength, out_path):
    """Regress labels (or model predictions) on sentence-sentiment summary stats."""
    import numpy as np

    model = _classify.LinearModel.load(model_path)
    corp = _corpus.ingest_jsonl(in_path)
    wanted = set(splits.split(","))
    docs = [d for d in corp
            if d.split in wanted and d.label in ("pos", "neg") and d.text.strip()]
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
    try:
        lam = l1_strength if l1_strength is not None else _analyze.cross_validate_l1(X, y)
        fit = _analyze.fit_l1_logistic(X, y, lam, target_kind=target_kind)
    except _analyze.AnalyzeError as e:
        raise click.ClickException(str(e)) from e
    with open(out_path, "w", encoding="utf-8") as fh:
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
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
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
    corp = _corpus.ingest_jsonl(in_path)
    with _translation(config.augment, provider, endpoint, rps, max_retries,
                      cache_path) as (translator, cache):
        report = _experiment.run_low_resource_sweep(config, corp, provider=translator,
                                                    cache=cache)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report.write_csv(out / "report.csv")
    report.write_timings(out / "timings.csv")
    for tag, reason in report.failures:
        click.echo(f"FAILED {tag}: {reason}", err=True)
    click.echo(f"wrote {len(report.all_rows())} report rows to {out / 'report.csv'}")
    if report.failures:
        raise SystemExit(1)


if __name__ == "__main__":
    sys.exit(main())
