"""Low-resource sweep protocol, TTA pipeline, and report emission."""
from __future__ import annotations

import dataclasses
import functools
import hashlib
import logging
import os
import pickle
import signal
import statistics
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np
import yaml

from . import augment as _augment
from .augment import AugmentError, AugmentSpec, AugTechnique, derive_seed
from .classify import (ClassifyError, FeatureRow, LinearModel, PackedRows, PredictionTable,
                       TrainConfig, predict_corpus, score_texts, train)
from .corpus import Corpus, CorpusError, carve_validation, replacing, subsample_balanced
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
        """Load a YAML config.  An absent or null key takes the dataclass
        defaults; an unknown key at the top level, under `augment:` or under
        `classifier:`, a key repeated in one mapping, a value whose type does not
        match its field's (an int, a number, a string, a mapping for a section, a
        list of integers or a list of strings; a bool is none of them), or text
        that is not UTF-8 YAML raises ExperimentError; a value a section rejects
        raises that section's error.  Every message names the file."""
        try:
            with open(path, encoding="utf-8") as fh:
                loaded = yaml.load(fh, _Loader)
            raw = _section({} if loaded is None else loaded, cls, _TOP_KEYS, None)
            if "augment" in raw:
                a = _section(raw["augment"], AugmentSpec, _AUGMENT_KEYS, "augment")
                if "technique" not in a:
                    raise ExperimentError("augment needs a technique")
                raw["augment"] = AugmentSpec(**a)
            if "classifier" in raw:
                raw["classifier"] = TrainConfig(**_section(
                    raw["classifier"], TrainConfig, _CLASSIFIER_KEYS, "classifier"))
            return cls(**raw)
        except (yaml.YAMLError, UnicodeDecodeError) as e:
            raise ExperimentError(f"{path}: invalid YAML: {e}") from None
        except (AugmentError, ClassifyError, ExperimentError) as e:
            raise type(e)(f"{path}: {e}") from None


# YAML key -> field, per section: every field but `stopwords`; `copies` is `copies_per_original`
_TOP_KEYS = {f.name: f.name for f in dataclasses.fields(ExperimentConfig)}
_CLASSIFIER_KEYS = {f.name: f.name for f in dataclasses.fields(TrainConfig)}
_AUGMENT_KEYS = {"copies" if f.name == "copies_per_original" else f.name: f.name
                 for f in dataclasses.fields(AugmentSpec) if f.name != "stopwords"}
# field annotation (a string: annotations are postponed) -> (value type,
# element type or None, what a value must be)
_TYPES = {
    "int": (int, None, "an integer"),
    "float": ((int, float), None, "a number"),
    "str": (str, None, "a string"),
    "list[int]": (list, int, "a list of integers"),
    "tuple[str, ...]": (list, str, "a list of strings"),
}


class _Loader(yaml.SafeLoader):
    """`yaml.safe_load`, but a key repeated in one mapping raises ExperimentError."""

    def _mapping(self, node: yaml.MappingNode) -> dict:
        written = [k for k, _ in node.value if k.tag != "tag:yaml.org,2002:merge"]  # not <<:
        mapping, seen = self.construct_mapping(node), set()  # refuses an unhashable key
        for k in written:
            if (key := self.construct_object(k)) in seen:
                raise ExperimentError(f"repeated key {key!r} on line {k.start_mark.line + 1}")
            seen.add(key)
        return mapping


_Loader.add_constructor("tag:yaml.org,2002:map", _Loader._mapping)


def _section(raw, cls, keys: Mapping[str, str], section: Optional[str]) -> dict:
    """The mapping `raw` from a config section as `cls` field values, checked to
    hold only `keys` (YAML key -> field) with values of their fields' `_TYPES`.
    A null value is left out, so that its field takes the default."""
    where = f"under {section}:" if section else "at the top level"
    if not isinstance(raw, dict):
        raise ExperimentError(f"expected a mapping {where}")
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    fields = {}
    for key, value in raw.items():
        if key not in keys:
            raise ExperimentError(f"unknown key {key!r} {where}")
        if value is None:
            continue
        check = _TYPES.get(types[keys[key]])
        if check and not _typed(value, check[0], check[1]):
            name = f"{section}.{key}" if section else key
            raise ExperimentError(f"{name} must be {check[2]}, got {value!r}")
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
        """One row per (n, technique, languages, k): the median of each float column."""
        groups: dict[tuple, list[ReportRow]] = {}
        for r in self.rows:
            if r.seed != "median":
                groups.setdefault((r.n, r.technique, r.languages, r.k), []).append(r)
        return [dataclasses.replace(rs[0], seed="median", subsample="-", **{
                    f.name: statistics.median(getattr(r, f.name) for r in rs)
                    for f in dataclasses.fields(ReportRow) if f.type == "float"})
                for rs in groups.values()]

    def all_rows(self) -> list[ReportRow]:
        return self.rows + self.aggregate()

    def write_csv(self, path: str | Path) -> None:
        """Deterministic report CSV.  Wall times go to a sidecar timings file."""
        with replacing(path, "w") as fh:
            fh.write(",".join(REPORT_COLUMNS) + "\n")
            for r in self.all_rows():
                fh.write(r.as_csv() + "\n")

    def write_timings(self, path: str | Path) -> None:
        with replacing(path, "w") as fh:
            fh.write("run,wall_time_s\n")
            for tag, secs in self.timings:
                fh.write(f"{tag},{secs:.3f}\n")


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
    seed: int,
    config: ExperimentConfig,
    provider,
    cache,
) -> tuple[Corpus, str]:
    """Prepare one (N, seed) run of `config.augment` from its subsample: the
    training corpus, validation carved and augmented, and the subsample's short
    hash.  Every translation and cache write of a sweep happens here, in the
    sweep's own process; `_score` trains and scores the result."""
    ids = sorted(d.id for d in subsampled.split_docs("train") if d.is_original)
    sub_hash = hashlib.sha256("".join(f"{i}\n" for i in ids).encode("utf-8")).hexdigest()[:12]
    prepared = carve_validation(subsampled, config.valid_frac, seed)
    spec = config.augment
    if spec is not None:
        bt = spec.technique is AugTechnique.BACKTRANSLATE
        # through the module, where perfbench/child.py and perfbench/tracing.py replace it
        result = _augment.augment_dataset(
            prepared, dataclasses.replace(spec, seed=derive_seed(spec.seed, "run", seed)),
            translator=provider if bt else None, cache=cache)
        prepared = result.corpus
        for doc_id, reason in result.skipped:
            log.warning("augment skipped %s: %s", doc_id, reason)
        if result.skipped and not result.generated:
            doc_id, reason = result.skipped[0]
            raise ExperimentError(f"augmentation skipped all {len(result.skipped)} "
                                  f"attempts and generated nothing; first {doc_id}: {reason}")
    return prepared, sub_hash


def _score(prepared: Corpus, n: int, seed: int, config: ExperimentConfig, sub_hash: str,
           test_rows: Mapping[str, FeatureRow]) -> ReportRow:
    """Train on a prepared run and evaluate it on the test split: the run's report row.

    `test_rows` are the test split's `PackedRows`, built once per sweep with
    the classifier's bits and shared by its runs.
    """
    clf_config = dataclasses.replace(config.classifier, seed=derive_seed(config.classifier.seed, "train", seed))
    model = train(prepared, clf_config)
    preds = predict_corpus(model, prepared, "baseline", splits=("test",), rows=test_rows)
    labels = {d.id: d.label for d in prepared.split_docs("test")}
    rep = calibration_report(preds, "baseline", labels)
    technique, langs, k = _arm_fields(config.augment)
    return ReportRow(
        n=n, technique=technique, languages=langs, k=k, seed=str(seed),
        subsample=sub_hash,
        accuracy=rep.accuracy, error=1.0 - rep.accuracy,
        frac_confident=rep.frac_confident, pred_std=rep.pred_std,
    )


# the errors that fail one run of a sweep and let the others go ahead
_RUN_ERRORS = (ClassifyError, CorpusError, ExperimentError, _translate.TranslationError)


def _workers(runs: int) -> int:
    """How many runs train and score at once: the usable CPUs, at most `runs` and 4."""
    if not hasattr(os, "sched_getaffinity"):  # macOS, Windows: train in-process
        return 1
    return min(len(os.sched_getaffinity(0)), runs, 4)


def _outcome(step) -> tuple:
    """`step()` as ("row", its ReportRow, seconds), ("failed", the message,
    seconds) on a run error or ("raised", the traceback, seconds) on any other
    exception, in this process or in a `_Worker`'s child alike."""
    t0 = time.monotonic()
    try:
        return "row", step(), time.monotonic() - t0
    except _RUN_ERRORS as e:
        return "failed", str(e), time.monotonic() - t0
    except Exception:
        return "raised", traceback.format_exc(), time.monotonic() - t0


class _Worker:
    """`step()` run in a forked child, which sends its `_outcome` back over a
    pipe and leaves through `os._exit` on every path: no atexit handler runs
    and no inherited buffer or file is flushed.  Fork shares the prepared
    corpus and the test rows with the child without pickling them."""

    def __init__(self, step):
        read, write = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(read)
            os.close(write)
            raise
        if self.pid == 0:
            status = 1
            try:
                os.close(read)
                data = pickle.dumps(_outcome(step))
                while data:
                    data = data[os.write(write, data):]
                status = 0
            finally:
                os._exit(status)
        os.close(write)
        self.fd = read

    def result(self) -> tuple:
        """Wait for the child's outcome and reap the child, also when
        interrupted; a child that ended without one fails its run, naming its
        signal or exit status."""
        try:
            with open(self.fd, "rb") as fh:
                data = fh.read()
        except BaseException:
            os.kill(self.pid, signal.SIGKILL)
            raise
        finally:
            _, status = os.waitpid(self.pid, 0)
        if data:
            return pickle.loads(data)
        if os.WIFSIGNALED(status):
            sig = os.WTERMSIG(status)
            why = {s.value: s.name for s in signal.Signals}.get(sig, f"signal {sig}")
        else:
            why = f"exit status {os.WEXITSTATUS(status)}"
        return "failed", f"the run's worker ended without a result ({why})", 0.0

    def stop(self) -> None:
        """Kill the child, reap it and close the pipe; for a worker whose
        `result` was never taken."""
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)
        os.close(self.fd)


def run_low_resource_sweep(
    config: ExperimentConfig,
    corpus: Corpus,
    provider=None,
    cache=None,
) -> ExperimentReport:
    """The paper protocol: subsample, optionally augment, train, test; median over
    seeds.  A failed run is recorded in the report's failures, not raised; an
    augmentation that skipped every attempt and generated nothing fails its run.

    Runs are prepared (`run_single`) one after another in this process.  With
    more than one usable CPU, each run's training and scoring (`_score`) goes
    to a forked child while the next run is prepared; up to `_workers` children
    run at once, and their results are taken in run order, so the report is
    the same as from one process.  A run's seconds are its own subsample,
    augment, train and score time, without any wait for a free worker.  A
    child that dies fails its run.  On any CPU count, an exception other than
    a run error while a run trains or scores ends the sweep with a
    RuntimeError naming the run.  Every child is reaped before this returns or
    raises.

    In memory, this process holds the test rows, the translation cache and one
    run's corpora.  The test rows are one `PackedRows`, built by one `featurize`
    call per distinct test text: indices and counts in two flat buffers of the
    smallest unsigned integer types (5 bytes per nonzero at the default bits),
    no array per row.  A run's subsample, prepared corpus and `_score` step are
    let go once its worker has forked or its in-process outcome has returned.  Each
    worker adds its run's training rows and a 2^bits weight vector.  A `wait4`
    peak (`ru_maxrss`) of the process that calls this is therefore the larger
    of its own peak and one worker's, not their sum."""
    test_docs = corpus.split_docs("test")
    if not test_docs:
        raise ExperimentError("the corpus has no test documents to evaluate on")
    report = ExperimentReport()
    test_rows = PackedRows((d.text for d in test_docs), config.classifier.bits)
    runs = [(n, seed) for n in config.train_sizes for seed in config.seeds]
    workers = _workers(len(runs))
    # (tag, parent seconds, the run's outcome or its _Worker), in run order
    pending: deque[tuple[str, float, tuple | _Worker]] = deque()

    def record() -> None:
        """Record the run at the front of `pending`, waiting for its worker."""
        tag, secs, job = pending.popleft()
        kind, value, step_s = job.result() if isinstance(job, _Worker) else job
        if kind == "raised":
            raise RuntimeError(f"run {tag} raised:\n{value}")
        if kind == "row":
            report.rows.append(value)
        else:
            log.error("run %s failed: %s", tag, value)
            report.failures.append((tag, value))
        report.timings.append((tag, secs + step_s))

    def hand_off(n: int, seed: int) -> tuple[float, tuple | _Worker]:
        """Prepare run (n, seed) and hand it to `_outcome` in this process or to
        a `_Worker`: the run's parent seconds and its outcome or worker.  Its
        subsample, prepared corpus and `_score` step live in this frame alone,
        so this process lets go of them as soon as the run is handed off."""
        t0 = time.monotonic()
        try:
            sub = subsample_balanced(corpus, n, seed)
            prepared, sub_hash = run_single(sub, seed, config, provider, cache)
        except _RUN_ERRORS as e:
            return time.monotonic() - t0, ("failed", str(e), 0.0)
        step = functools.partial(_score, prepared, n, seed, config, sub_hash, test_rows)
        secs = time.monotonic() - t0
        if workers == 1:
            return secs, _outcome(step)
        while sum(isinstance(job, _Worker) for _, _, job in pending) == workers:
            record()  # wait for a free worker
        return secs, _Worker(step)

    try:
        for n, seed in runs:
            pending.append((f"n={n},seed={seed}", *hand_off(n, seed)))
            while pending and not isinstance(pending[0][2], _Worker):
                record()
        while pending:
            record()
    finally:
        for _, _, job in pending:
            if isinstance(job, _Worker):
                job.stop()
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
    """Backtranslate the test/valid originals, score each original and then its
    round trips in one `score_texts` call, fit weights on valid, combine on
    test, and report each source's calibration.

    Predictions of an external model are ensembled with `fit_weights` and
    `combine` directly (`augbench ensemble fit/combine/report`).
    """
    originals = [d for d in corpus if d.is_original and d.split in ("test", "valid")]
    valid_ids = [d.id for d in originals if d.split == "valid"]
    test_ids = [d.id for d in originals if d.split == "test"]
    if not valid_ids:
        raise ExperimentError("TTA weight fitting needs a valid split")

    preds = PredictionTable()
    for d, trips in zip(originals, tta_generate(originals, languages, provider, cache)):
        scores = score_texts(model, [d.text, *trips], {})
        preds.add(d.id, "baseline", scores[d.text])
        for lang, text in zip(languages, trips):
            preds.add(d.id, f"tta:{lang}", scores[text])

    labels = {d.id: d.label for d in originals}
    sources = preds.sources
    weights = fit_weights(preds, {i: labels[i] for i in valid_ids})
    combined = combine(preds, weights, test_ids)

    valid = preds.matrix(valid_ids, sources)
    y = np.array([1.0 if labels[i] == "pos" else 0.0 for i in valid_ids])
    valid_losses = {s: log_loss(valid[:, j], y) for j, s in enumerate(sources)}
    # the loss of what `combine` produces, which adds the sources in sorted order
    ensembled = combine(preds, weights, valid_ids).matrix(valid_ids, ["ensemble"])[:, 0]
    valid_losses["ensemble"] = log_loss(ensembled, y)

    preds.merge(combined)
    calibration = {s: calibration_report(preds, s, labels) for s in preds.sources}
    return TtaResult(predictions=preds, weights=weights, combined=combined,
                     calibration=calibration, valid_losses=valid_losses)
