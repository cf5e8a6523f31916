"""Low-resource sweep protocol, language studies, TTA pipeline, and report emission."""
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

from .augment import (AugmentError, AugmentSpec, AugTechnique, Thesaurus, bundled_thesaurus,
                      derive_seed)
from .classify import (ClassifyError, FeatureRow, LinearModel, PredictionTable, TrainConfig,
                       feature_rows, predict, predict_corpus, train)
from .corpus import Corpus, CorpusError, carve_validation, subsample_balanced
from .ensemble import (CalibrationReport, SimplexWeights, calibration_report,
                       combine, fit_weights, log_loss, tta_generate)
from . import translate as _translate

log = logging.getLogger(__name__)

REPORT_COLUMNS = (
    "n", "technique", "languages", "k", "seed", "subsample",
    "accuracy", "error", "frac_confident", "pred_std",
)


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
        if any(n <= 0 for n in self.train_sizes):
            raise ExperimentError("train sizes must be positive")

    @classmethod
    def from_yaml(cls, path: str | Path) -> "ExperimentConfig":
        """Load a YAML config.  Absent keys take the dataclass defaults; an
        unknown key at the top level, under `augment:` or under `classifier:`,
        `train_sizes` or `seeds` not a list of integers, or `augment.languages`
        not a list of strings raises ExperimentError; a value a section
        rejects raises that section's error.  Every message names the file.
        YAML `copies` is `copies_per_original`."""
        with open(path, encoding="utf-8") as fh:
            raw = _known_keys(yaml.safe_load(fh) or {}, _TOP_KEYS, path, None)
        for key in ("train_sizes", "seeds"):
            if key in raw:
                _list_of(raw[key], int, "integers", path, key)
        if raw.get("augment"):
            a = _known_keys(raw["augment"], _AUGMENT_KEYS, path, "augment")
            if "technique" not in a:
                raise ExperimentError(f"{path}: augment needs a technique")
            if "languages" in a:
                a["languages"] = tuple(_list_of(a["languages"], str, "strings", path,
                                                "augment.languages"))
            raw["augment"] = _build(path, AugmentSpec,
                                    **{_AUGMENT_KEYS[k]: v for k, v in a.items()})
        else:
            raw["augment"] = None
        if raw.get("classifier"):
            raw["classifier"] = _build(path, TrainConfig, **_known_keys(
                raw["classifier"], _CLASSIFIER_KEYS, path, "classifier"))
        else:
            raw.pop("classifier", None)
        return _build(path, cls, **raw)


_TOP_KEYS = tuple(f.name for f in dataclasses.fields(ExperimentConfig))
_CLASSIFIER_KEYS = tuple(f.name for f in dataclasses.fields(TrainConfig))
# YAML key -> AugmentSpec field
_AUGMENT_KEYS = {"technique": "technique", "alpha": "alpha", "copies": "copies_per_original",
                 "languages": "languages", "language_strategy": "language_strategy",
                 "seed": "seed"}


def _build(path, make, **fields):
    """`make(**fields)`; a value it rejects raises the same error, naming the file."""
    try:
        return make(**fields)
    except (AugmentError, ClassifyError, ExperimentError) as e:
        raise type(e)(f"{path}: {e}") from None


def _list_of(value, kind: type, what: str, path, key: str) -> list:
    """`value` from a config if it is a list of `kind` (a bool is no integer)."""
    if not isinstance(value, list) or not all(
            isinstance(v, kind) and not isinstance(v, bool) for v in value):
        raise ExperimentError(f"{path}: {key} must be a list of {what}, got {value!r}")
    return value


def _known_keys(raw, known, path, section: Optional[str]) -> dict:
    """A copy of the mapping `raw` from a config section, checked to hold only `known` keys."""
    where = f"under {section}:" if section else "at the top level"
    if not isinstance(raw, dict):
        raise ExperimentError(f"{path}: expected a mapping {where}")
    for key in raw:
        if key not in known:
            raise ExperimentError(f"{path}: unknown key {key!r} {where}")
    return dict(raw)


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
        return ",".join([
            str(self.n), self.technique, self.languages, str(self.k), self.seed,
            self.subsample, repr(self.accuracy), repr(self.error),
            repr(self.frac_confident), repr(self.pred_std),
        ])


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


def _test_rows(corpus: Corpus, config: ExperimentConfig) -> dict[str, FeatureRow]:
    """Feature rows of the test split that every run of a sweep is scored on."""
    return feature_rows((d.text for d in corpus.split_docs("test")), config.classifier.bits)


def run_single(
    subsampled: Corpus,
    n: int,
    seed: int,
    aug_spec: Optional[AugmentSpec],
    config: ExperimentConfig,
    thesaurus: Optional[Thesaurus] = None,
    provider=None,
    cache=None,
    test_rows: Optional[Mapping[str, FeatureRow]] = None,
) -> ReportRow:
    """Train and evaluate one (N, augmentation arm, seed) run on a prepared subsample.

    `test_rows` are feature rows of the test split keyed by text, built once
    per sweep with the classifier's bits (`feature_rows`) and shared by its runs.
    """
    from .augment import augment_dataset

    sub_hash = _subsample_hash(subsampled)
    prepared = carve_validation(subsampled, config.valid_frac, seed)
    if aug_spec is not None:
        run_spec = dataclasses.replace(aug_spec, seed=derive_seed(aug_spec.seed, "run", seed))
        bt = run_spec.technique is AugTechnique.BACKTRANSLATE
        result = augment_dataset(
            prepared, run_spec,
            thesaurus=None if bt else (thesaurus or bundled_thesaurus()),
            translator=provider if bt else None,
            cache=cache if bt else None,
        )
        prepared = result.corpus
        for doc_id, reason in result.skipped:
            log.warning("augment skipped %s: %s", doc_id, reason)

    clf_config = dataclasses.replace(config.classifier, seed=derive_seed(config.classifier.seed, "train", seed))
    model = train(prepared, clf_config)
    preds = predict_corpus(model, prepared, "baseline", splits=("test",), rows=test_rows)
    labels = {d.id: d.label for d in prepared.split_docs("test")}
    rep = calibration_report(preds, "baseline", labels)
    technique, langs, k = _arm_fields(aug_spec)
    return ReportRow(
        n=n, technique=technique, languages=langs, k=k, seed=str(seed),
        subsample=sub_hash,
        accuracy=rep.accuracy, error=1.0 - rep.accuracy,
        frac_confident=rep.frac_confident, pred_std=rep.pred_std,
    )


def _sweep(
    config: ExperimentConfig,
    corpus: Corpus,
    sizes: Sequence[int],
    arms: Sequence[tuple[str, Optional[AugmentSpec]]],
    thesaurus: Optional[Thesaurus],
    provider,
    cache,
) -> ExperimentReport:
    """Every (tag suffix, augmentation) arm at each n and seed, all arms of an
    (n, seed) sharing one subsample; a failed run is recorded, not raised."""
    report = ExperimentReport()
    test_rows = _test_rows(corpus, config)
    for n in sizes:
        for seed in config.seeds:
            sub = None
            for suffix, arm in arms:
                tag = f"n={n},seed={seed}{suffix}"
                t0 = time.monotonic()
                try:
                    if sub is None:
                        sub = subsample_balanced(corpus, n, seed)
                    report.rows.append(run_single(sub, n, seed, arm, config,
                                                  thesaurus=thesaurus, provider=provider,
                                                  cache=cache, test_rows=test_rows))
                except (CorpusError, ExperimentError, _translate.TranslationError) as e:
                    log.error("run %s failed: %s", tag, e)
                    report.failures.append((tag, str(e)))
                report.timings.append((tag, time.monotonic() - t0))
    return report


def run_low_resource_sweep(
    config: ExperimentConfig,
    corpus: Corpus,
    thesaurus: Optional[Thesaurus] = None,
    provider=None,
    cache=None,
) -> ExperimentReport:
    """The paper protocol: subsample, optionally augment, train, test; median over seeds."""
    return _sweep(config, corpus, config.train_sizes, [("", config.augment)],
                  thesaurus, provider, cache)


def run_language_study(
    base_n: int,
    language_sets: Sequence[Sequence[str]],
    config: ExperimentConfig,
    corpus: Corpus,
    provider,
    cache=None,
) -> ExperimentReport:
    """Backtranslation arms over several language sets, sharing subsamples per seed."""
    if config.augment is None or config.augment.technique is not AugTechnique.BACKTRANSLATE:
        base_aug = AugmentSpec(technique=AugTechnique.BACKTRANSLATE, languages=("es",))
    else:
        base_aug = config.augment
    arms = [(f",langs={'+'.join(langs)}", dataclasses.replace(base_aug, languages=tuple(langs)))
            for langs in language_sets]
    return _sweep(config, corpus, [base_n], arms, None, provider, cache)


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
    cache=None,
    model: Optional[LinearModel] = None,
    base_preds: Optional[PredictionTable] = None,
    base_source: str = "baseline",
) -> TtaResult:
    """Backtranslate test/valid docs, predict per variant, fit weights on valid,
    combine on test, and report each source's calibration.

    Predictions come either from the built-in `model` or an imported
    `base_preds` table that already covers originals (variants then reuse the
    parent's prediction only if the model is absent).
    """
    if model is None and base_preds is None:
        raise ExperimentError("run_tta_pipeline needs a model or imported predictions")
    variants = tta_generate(corpus, languages, provider, cache)

    preds = PredictionTable()
    originals = [d for d in corpus if d.is_original and d.split in ("test", "valid")]
    for d in originals:
        if base_preds is not None:
            parent = base_preds.get(d.id, base_source)
            if parent is None:
                raise ExperimentError(f"imported predictions missing document {d.id!r}")
        else:
            parent = predict(model, d.text)
        preds.add(d.id, base_source, parent)
        for lang in languages:
            source = f"tta:{lang}"
            p = base_preds.get(d.id, source) if base_preds is not None else None
            if p is None and model is not None and (d.id, lang) in variants:
                p = predict(model, variants[(d.id, lang)])
            if p is None:  # nothing imported, and no model or a skipped round trip
                log.warning("tta: no %s prediction for %s; using parent prediction",
                            lang, d.id)
                p = parent
            preds.add(d.id, source, p)

    labels = {d.id: d.label for d in originals}
    valid_ids = [d.id for d in originals if d.split == "valid"]
    test_ids = [d.id for d in originals if d.split == "test"]
    if not valid_ids:
        raise ExperimentError("TTA weight fitting needs a valid split")
    sources = preds.sources
    weights = fit_weights(preds, {i: labels[i] for i in valid_ids}, sources)
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
