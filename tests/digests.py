"""Every pinned output of augbench, each computed by one function on fixed inputs.

`tests/golden.json` records each output's value by name, and the digest tests
compare these functions with it.  Run as a script, this prints the whole
table exactly as `golden.json` holds it, so a golden change is re-recorded by

    PYTHONPATH=src python tests/digests.py > tests/golden.json

and compared with the record (under another BLAS core type, say) by piping
the same command into `diff - tests/golden.json`.
"""
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np

from augbench.analyze import build_feature_matrix, cross_validate_l1, fit_l1_logistic, standardize
from augbench.augment import AugmentSpec, augment_dataset
from augbench.classify import TrainConfig, predictor, train
from augbench.corpus import carve_validation, export_jsonl
from augbench.experiment import (ExperimentConfig, ExperimentReport, run_low_resource_sweep,
                                 run_tta_pipeline)
from augbench.translate import MockProvider, TranslationCache

from synth import make_review_corpus

GOLDEN = Path(__file__).resolve().parent / "golden.json"
EDA_TECHNIQUES = ("rd", "ri", "rs", "sr")


def recorded(name: str):
    """The value `golden.json` records for the output `name`."""
    return json.loads(GOLDEN.read_text(encoding="utf-8"))[name]


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def micro_corpus():
    """The corpus the training, sweep-report and study-report digests are taken on."""
    return make_review_corpus(n_train=200, n_test=60, seed=1)


def augment_corpus(technique: str, out_dir: Path) -> str:
    """`augbench augment` output (export_jsonl of augment_dataset), recorded
    before tokenize and eligibility moved out of the per-copy loop."""
    corp = make_review_corpus(n_train=60, n_test=10, seed=3)
    run = augment_dataset(corp, AugmentSpec(technique=technique, alpha=0.2,
                                            copies_per_original=3, seed=11))
    export_jsonl(run.corpus, out_dir / "out.jsonl")
    return file_sha256(out_dir / "out.jsonl")


# The training and sweep-report digests were recorded before featurization and
# scoring were rewritten; they pin the hashing, the feature order, the SGD
# updates and the summation order.

def train_weights(corpus) -> tuple[str, float]:
    """The trained weights' sha256 and the bias."""
    model = train(corpus, TrainConfig(bits=14))
    return hashlib.sha256(model.weights.tobytes()).hexdigest(), model.bias


def sweep_report(corpus, out_dir: Path) -> str:
    config = ExperimentConfig(
        train_sizes=[40, 100], seeds=[0, 1],
        augment=AugmentSpec(technique="sr", alpha=0.1, copies_per_original=2))
    report = run_low_resource_sweep(config, corpus)
    assert not report.failures, report.failures
    report.write_csv(out_dir / "report.csv")
    return file_sha256(out_dir / "report.csv")


# The study-report and TTA digests were recorded before the prediction table,
# the sweep loop and the TTA pipeline were rewritten; they pin report rows,
# prediction order and every TTA output.

def study_report(corpus, out_dir: Path) -> str:
    """The pivot-set comparison: one backtranslation sweep per language set,
    through one cache, its rows interleaved seed by seed."""
    cache = TranslationCache()
    reports = [
        run_low_resource_sweep(
            ExperimentConfig(train_sizes=[20], seeds=[0, 1, 2],
                             classifier=TrainConfig(bits=12, epochs=2), valid_frac=0.1,
                             augment=AugmentSpec(technique="bt", languages=langs)),
            corpus, provider=MockProvider(0), cache=cache)
        for langs in [("es",), ("es", "fr"), ("bn",)]]
    assert not any(rep.failures for rep in reports)
    by_seed = list(zip(*(rep.rows for rep in reports)))
    assert all(len({r.subsample for r in rows}) == 1 for rows in by_seed)
    study = ExperimentReport(rows=[r for rows in by_seed for r in rows])
    study.write_csv(out_dir / "report.csv")
    return file_sha256(out_dir / "report.csv")


def sweep_cache(path: Path) -> str:
    """The cache file a small backtranslation sweep writes at `path`, recorded
    with one worker: the sweep translates and appends in run order, however
    many workers train."""
    cfg = ExperimentConfig(train_sizes=[10, 20], seeds=[0, 1],
                           classifier=TrainConfig(bits=10),
                           augment=AugmentSpec(technique="bt", languages=("es", "fr")))
    with TranslationCache(path) as cache:
        report = run_low_resource_sweep(cfg, make_review_corpus(60, 20),
                                        provider=MockProvider(0), cache=cache)
    assert len(report.rows) == 4, report.failures
    return file_sha256(path)


def tta_outputs(out_dir: Path) -> str:
    """sha256 over every source's CSV, the written weights and combined CSV, and
    the valid losses, calibration reports and (source, pred_std, accuracy) rows
    sorted by source, in their order."""
    corp = carve_validation(make_review_corpus(n_train=60, n_test=30, seed=2), 0.2, seed=0)
    model = train(corp, TrainConfig(bits=12, epochs=2))
    result = run_tta_pipeline(corp, ["es", "fr"], MockProvider(0), TranslationCache(),
                              model=model)
    h = hashlib.sha256()
    for s in result.predictions.sources:
        result.predictions.to_csv(out_dir / "p.csv", s)
        h.update((out_dir / "p.csv").read_bytes())
    result.combined.to_csv(out_dir / "combined.csv", "ensemble")
    result.weights.to_json(out_dir / "weights.json", fitting_set="valid",
                           loss=result.valid_losses["ensemble"])
    for name in ("combined.csv", "weights.json"):
        h.update((out_dir / name).read_bytes())
    variance_rows = [(s, rep.pred_std, rep.accuracy)
                     for s, rep in sorted(result.calibration.items())]
    for part in (result.valid_losses, result.calibration, variance_rows):
        h.update(repr(part).encode("utf-8"))
    return h.hexdigest()


def regression_fits() -> dict[str, str]:
    """sha256 of the fit JSON `augbench analyze regress` writes, with the strength
    cross-validated, for both targets on one fixed design (83 rows: 83 % 5 != 0).
    Recorded with the per-fit scalar loop, before the lockstep solver."""
    corp = make_review_corpus(n_train=120, n_test=83, seed=11)
    model = train(corp, TrainConfig(bits=12, epochs=2))
    predict_fn = predictor(model)
    docs = list(corp.split_docs("test"))
    X, _, _ = standardize(build_feature_matrix([d.text for d in docs], predict_fn))
    targets = {"true_label": np.array([1.0 if d.label == "pos" else 0.0 for d in docs]),
               "model_prediction": np.array([1.0 if predict_fn(d.text) >= 0.5 else 0.0
                                             for d in docs])}
    digests = {}
    for kind, y in targets.items():
        fit = fit_l1_logistic(X, y, cross_validate_l1(X, y), target_kind=kind)
        text = json.dumps(fit.as_dict(), indent=2, sort_keys=True)
        digests[kind] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return digests


def table() -> dict:
    """Every pinned output by its name in `golden.json`."""
    corpus = micro_corpus()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        found = {f"augment_{t}": augment_corpus(t, out) for t in EDA_TECHNIQUES}
        found["train_weights"], found["train_bias"] = train_weights(corpus)
        found["sweep_report"] = sweep_report(corpus, out)
        found["study_report"] = study_report(corpus, out)
        found["sweep_cache"] = sweep_cache(out / "cache.jsonl")
        found["tta_outputs"] = tta_outputs(out)
    found.update((f"regression_fit_{kind}", digest)
                 for kind, digest in regression_fits().items())
    return found


if __name__ == "__main__":
    print(json.dumps(table(), indent=2, sort_keys=True))
