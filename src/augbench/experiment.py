"""Low-resource sweep protocol, TTA pipeline, and report emission."""
from __future__ import annotations

import dataclasses
import hashlib
import logging
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np
import yaml

from .augment import AugmentError, AugmentSpec, AugTechnique, derive_seed
from .classify import (ClassifyError, FeatureRow, LinearModel, PredictionTable, TrainConfig,
                       feature_rows, predict, predict_corpus, train)
from .corpus import Corpus, CorpusError, carve_validation, subsample_balanced
from .ensemble import (CalibrationReport, SimplexWeights, calibration_report,
                       combine, fit_weights, log_loss, tta_generate)
from . import translate as _translate

log = logging.getLogger(__name__)


class ExperimentError(Exception):
    pass


@dataclass
class ExperimentConfig:
    train_sizes: list[int] = field(default_factory=lambda: [50, 500, 1000, 2000, 5000, 10000])
    seeds: list[int] = field(default_factory=lambda: [0, 1, 2])
    augment: Optional[AugmentSpec] = None
    classifier: TrainConfig = field(default_factory=TrainConfig)
    valid_frac: float = 0.1

    def __post_init__(self):
        if not self.seeds:
            raise ExperimentError("config needs at least one seed")
        if not self.train_sizes:
            raise ExperimentError("config needs at least one train size")
        for name, values in (("train_sizes", self.train_sizes), ("seeds", self.seeds)):
            if len(set(values)) != len(values):
                raise ExperimentError(f"{name} must not repeat a value, got {values}")
        if any(n <= 0 for n in self.train_sizes):
            raise ExperimentError("train sizes must be positive")
        if not 0 < self.valid_frac < 1:
            raise ExperimentError(f"valid_frac must be in (0, 1), got {self.valid_frac}")

    @classmethod
    def from_yaml(cls, path: str | Path) -> "ExperimentConfig":
        """Load a YAML config.  Absent keys take the dataclass defaults; an
        unknown key at the top level, under `augment:` or under `classifier:`,
        or a value whose type does not match its field's (an int, a number, a
        string, a list of integers or a list of strings; a bool is none of
        them) raises ExperimentError; a value a section rejects raises that
        section's error.  Every message names the file.  YAML `copies` is
        `copies_per_original`."""
        with open(path, encoding="utf-8") as fh:
            raw = _section(yaml.safe_load(fh) or {}, cls, _TOP_KEYS, path, None)
        if raw.get("augment"):
            a = _section(raw["augment"], AugmentSpec, _AUGMENT_KEYS, path, "augment")
            if "technique" not in a:
                raise ExperimentError(f"{path}: augment needs a technique")
            if "languages" in a:
                a["languages"] = tuple(a["languages"])
            raw["augment"] = _build(path, AugmentSpec, **a)
        else:
            raw["augment"] = None
        if raw.get("classifier"):
            raw["classifier"] = _build(path, TrainConfig, **_section(
                raw["classifier"], TrainConfig, _CLASSIFIER_KEYS, path, "classifier"))
        else:
            raw.pop("classifier", None)
        return _build(path, cls, **raw)


# YAML key -> field, per section
_TOP_KEYS = {f.name: f.name for f in dataclasses.fields(ExperimentConfig)}
_CLASSIFIER_KEYS = {f.name: f.name for f in dataclasses.fields(TrainConfig)}
_AUGMENT_KEYS = {"technique": "technique", "alpha": "alpha", "copies": "copies_per_original",
                 "languages": "languages", "language_strategy": "language_strategy",
                 "seed": "seed"}
# field annotation (a string: annotations are postponed) -> (value type,
# element type or None, what a value must be)
_TYPES = {
    "int": (int, None, "an integer"),
    "float": ((int, float), None, "a number"),
    "str": (str, None, "a string"),
    "list[int]": (list, int, "a list of integers"),
    "tuple[str, ...]": (list, str, "a list of strings"),
}


def _build(path, make, **fields):
    """`make(**fields)`; a value it rejects raises the same error, naming the file."""
    try:
        return make(**fields)
    except (AugmentError, ClassifyError, ExperimentError) as e:
        raise type(e)(f"{path}: {e}") from None


def _section(raw, cls, keys: Mapping[str, str], path, section: Optional[str]) -> dict:
    """The mapping `raw` from a config section as `cls` field values, checked to
    hold only `keys` (YAML key -> field) with values of their fields' `_TYPES`."""
    where = f"under {section}:" if section else "at the top level"
    if not isinstance(raw, dict):
        raise ExperimentError(f"{path}: expected a mapping {where}")
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    fields = {}
    for key, value in raw.items():
        if key not in keys:
            raise ExperimentError(f"{path}: unknown key {key!r} {where}")
        check = _TYPES.get(types[keys[key]])
        if check and not _typed(value, check[0], check[1]):
            name = f"{section}.{key}" if section else key
            raise ExperimentError(f"{path}: {name} must be {check[2]}, got {value!r}")
        fields[keys[key]] = value
    return fields


def _typed(value, kind, item) -> bool:
    """`value` is a `kind` (a bool is no number) and, unless `item` is None,
    each of its elements an `item`."""
    if isinstance(value, bool) or not isinstance(value, kind):
        return False
    return item is None or all(_typed(v, item, None) for v in value)


@dataclass
class ReportRow:
    n: int
    technique: str        # "none" or the technique code
    languages: str        # "-" or "+"-joined codes
    k: int
    seed: str             # run seed as str, or "median"
    subsample: str        # short hash of the sampled train ids
    accuracy: float
    error: float
    frac_confident: float
    pred_std: float

    def as_csv(self) -> str:
        """The fields in `REPORT_COLUMNS` order: `repr` of a float, `str` of the rest."""
        return ",".join((repr if f.type == "float" else str)(getattr(self, f.name))
                        for f in dataclasses.fields(self))


REPORT_COLUMNS = tuple(f.name for f in dataclasses.fields(ReportRow))


@dataclass
class ExperimentReport:
    rows: list[ReportRow] = field(default_factory=list)
    timings: list[tuple[str, float]] = field(default_factory=list)  # (run tag, seconds)
    failures: list[tuple[str, str]] = field(default_factory=list)   # (run tag, reason)

    def aggregate(self) -> list[ReportRow]:
        """One median row per (n, technique, languages, k), over the per-seed rows."""
        groups: dict[tuple, list[ReportRow]] = {}
        for r in self.rows:
            if r.seed == "median":
                continue
            groups.setdefault((r.n, r.technique, r.languages, r.k), []).append(r)
        agg = []
        for key in groups:
            rs = groups[key]
            agg.append(ReportRow(
                n=key[0], technique=key[1], languages=key[2], k=key[3],
                seed="median", subsample="-",
                accuracy=statistics.median(r.accuracy for r in rs),
                error=statistics.median(r.error for r in rs),
                frac_confident=statistics.median(r.frac_confident for r in rs),
                pred_std=statistics.median(r.pred_std for r in rs),
            ))
        return agg

    def all_rows(self) -> list[ReportRow]:
        return self.rows + self.aggregate()

    def write_csv(self, path: str | Path) -> None:
        """Deterministic report CSV.  Wall times go to a sidecar timings file."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(REPORT_COLUMNS) + "\n")
            for r in self.all_rows():
                fh.write(r.as_csv() + "\n")

    def write_timings(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("run,wall_time_s\n")
            for tag, secs in self.timings:
                fh.write(f"{tag},{secs:.3f}\n")


def _subsample_hash(corpus: Corpus) -> str:
    h = hashlib.sha256()
    for doc_id in sorted(d.id for d in corpus.split_docs("train") if d.is_original):
        h.update(doc_id.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()[:12]


def _arm_fields(spec: Optional[AugmentSpec]) -> tuple[str, str, int]:
    if spec is None:
        return "none", "-", 0
    langs = "+".join(spec.languages) if spec.languages else "-"
    if spec.technique is AugTechnique.BACKTRANSLATE and spec.language_strategy.value == "all":
        k = len(spec.languages)
    else:
        k = spec.copies_per_original
    return spec.technique.value, langs, k


def run_single(
    subsampled: Corpus,
    n: int,
    seed: int,
    config: ExperimentConfig,
    provider,
    cache,
    test_rows: Mapping[str, FeatureRow],
) -> ReportRow:
    """Train and evaluate one (N, seed) run of `config.augment` on a prepared subsample.

    `test_rows` are feature rows of the test split keyed by text, built once
    per sweep with the classifier's bits (`feature_rows`) and shared by its runs.
    """
    # Imported per call: perfbench/child.py replaces augment.augment_dataset on the module.
    from .augment import augment_dataset

    sub_hash = _subsample_hash(subsampled)
    prepared = carve_validation(subsampled, config.valid_frac, seed)
    spec = config.augment
    if spec is not None:
        bt = spec.technique is AugTechnique.BACKTRANSLATE
        result = augment_dataset(
            prepared, dataclasses.replace(spec, seed=derive_seed(spec.seed, "run", seed)),
            translator=provider if bt else None, cache=cache)
        prepared = result.corpus
        for doc_id, reason in result.skipped:
            log.warning("augment skipped %s: %s", doc_id, reason)

    clf_config = dataclasses.replace(config.classifier, seed=derive_seed(config.classifier.seed, "train", seed))
    model = train(prepared, clf_config)
    preds = predict_corpus(model, prepared, "baseline", splits=("test",), rows=test_rows)
    labels = {d.id: d.label for d in prepared.split_docs("test")}
    rep = calibration_report(preds, "baseline", labels)
    technique, langs, k = _arm_fields(spec)
    return ReportRow(
        n=n, technique=technique, languages=langs, k=k, seed=str(seed),
        subsample=sub_hash,
        accuracy=rep.accuracy, error=1.0 - rep.accuracy,
        frac_confident=rep.frac_confident, pred_std=rep.pred_std,
    )


def run_low_resource_sweep(
    config: ExperimentConfig,
    corpus: Corpus,
    provider=None,
    cache=None,
) -> ExperimentReport:
    """The paper protocol: subsample, optionally augment, train, test; median over
    seeds.  A failed run is recorded in the report's failures, not raised."""
    report = ExperimentReport()
    test_rows = feature_rows((d.text for d in corpus.split_docs("test")),
                             config.classifier.bits)
    for n in config.train_sizes:
        for seed in config.seeds:
            tag = f"n={n},seed={seed}"
            t0 = time.monotonic()
            try:
                sub = subsample_balanced(corpus, n, seed)
                report.rows.append(run_single(sub, n, seed, config, provider, cache, test_rows))
            except (ClassifyError, CorpusError, _translate.TranslationError) as e:
                log.error("run %s failed: %s", tag, e)
                report.failures.append((tag, str(e)))
            report.timings.append((tag, time.monotonic() - t0))
    return report


@dataclass
class TtaResult:
    predictions: PredictionTable
    weights: SimplexWeights
    combined: PredictionTable
    calibration: dict[str, CalibrationReport]  # every source, with accuracy
    valid_losses: dict[str, float]


def run_tta_pipeline(
    corpus: Corpus,
    languages: Sequence[str],
    provider,
    cache,
    model: LinearModel,
) -> TtaResult:
    """Backtranslate test/valid docs, score each original and each round trip
    with `model`, fit weights on valid, combine on test, and report each
    source's calibration.  A skipped round trip takes its parent's prediction.

    Predictions of an external model are ensembled with `fit_weights` and
    `combine` directly (`augbench ensemble fit/combine/report`).
    """
    variants = tta_generate(corpus, languages, provider, cache)

    preds = PredictionTable()
    originals = [d for d in corpus if d.is_original and d.split in ("test", "valid")]
    for d in originals:
        memo: dict[str, int] = {}  # the original and its round trips share n-grams
        parent = predict(model, d.text, memo)
        preds.add(d.id, "baseline", parent)
        for lang in languages:
            variant = variants.get((d.id, lang))
            preds.add(d.id, f"tta:{lang}",
                      parent if variant is None else predict(model, variant, memo))

    labels = {d.id: d.label for d in originals}
    valid_ids = [d.id for d in originals if d.split == "valid"]
    test_ids = [d.id for d in originals if d.split == "test"]
    if not valid_ids:
        raise ExperimentError("TTA weight fitting needs a valid split")
    sources = preds.sources
    weights = fit_weights(preds, {i: labels[i] for i in valid_ids})
    combined = combine(preds, weights, test_ids)

    valid = preds.matrix(valid_ids, sources)
    y = np.array([1.0 if labels[i] == "pos" else 0.0 for i in valid_ids])
    valid_losses = {s: log_loss(valid[:, j], y) for j, s in enumerate(sources)}
    valid_losses["ensemble"] = log_loss(valid @ np.array([weights.weights[s] for s in sources]), y)

    preds.merge(combined)
    calibration = {s: calibration_report(preds, s, labels) for s in preds.sources}
    return TtaResult(
        predictions=preds,
        weights=weights,
        combined=combined,
        calibration=calibration,
        valid_losses=valid_losses,
    )
