"""One repetition of a workload in a fresh interpreter; run.py starts it.

    python3 perfbench/child.py WORKLOAD INPUT_DIR OUTPUT_DIR SPAWN_TIME TRACE RESULT_JSON

SPAWN_TIME is the parent's `time.monotonic()` just before it started this
process, so `setup_s` covers interpreter start, `import augbench` and loading
every input.  `wall_s` runs from the end of set-up until every output file is
written.  Digests are computed after the timed window.  `calibrate()` runs
just before and just after the timed window, outside both timings, and its
time is reported as `calib_s` so that run.py can scale the timings to a
reference host speed.
"""
import time  # noqa: I001  (first, so set-up timing starts as early as possible)
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import zipfile  # noqa: E402

import augbench  # noqa: E402,F401
from augbench import analyze, augment, classify, corpus, experiment, translate  # noqa: E402

from tracing import Tracer  # noqa: E402


class _SkipCounter(logging.Handler):
    """Counts the per-variant warnings `tta_generate` logs when it skips a document."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.skipped = 0

    def emit(self, record):
        if str(record.msg).startswith("tta: skipped"):
            self.skipped += 1


def _count_augment(tally: dict) -> None:
    """Count augment attempts and skips at the one call per sweep run."""
    orig = augment.augment_dataset

    def counted(*args, **kwargs):
        run = orig(*args, **kwargs)
        tally["attempted"] += run.generated + len(run.skipped)
        tally["failed"] += len(run.skipped)
        tally["problems"] += [f"augment skipped {doc_id}: {why}" for doc_id, why in run.skipped]
        return run
    augment.augment_dataset = counted


def _config_problems(config, intended: dict) -> list[str]:
    """Fields where the loaded config differs from what the YAML was meant to say."""
    aug = config.augment
    got = {"train_sizes": config.train_sizes, "seeds": config.seeds,
           "valid_frac": config.valid_frac,
           "classifier": dataclasses.asdict(config.classifier)}
    want = {k: intended[k] for k in ("train_sizes", "seeds", "valid_frac")}
    want["classifier"] = dataclasses.asdict(classify.TrainConfig())
    a = intended["augment"]
    got["augment"] = {"technique": aug.technique.value, "alpha": aug.alpha,
                      "copies": aug.copies_per_original, "languages": list(aug.languages),
                      "language_strategy": aug.language_strategy.value, "seed": aug.seed}
    want["augment"] = {"technique": a["technique"], "alpha": a.get("alpha", 0.1),
                       "copies": a.get("copies", 1), "languages": a.get("languages", []),
                       "language_strategy": a.get("language_strategy", "all"), "seed": 0}
    return [f"config.{k}: got {got[k]!r}, want {want[k]!r}" for k in want if got[k] != want[k]]


def _digest(path: Path) -> str:
    """sha256 of a file; of its members' bytes for .npz, whose zip headers carry a clock time."""
    h = hashlib.sha256()
    if path.suffix == ".npz":
        with zipfile.ZipFile(path) as zf:
            for name in sorted(zf.namelist()):
                h.update(name.encode("utf-8") + b"\0" + zf.read(name))
    else:
        h.update(path.read_bytes())
    return h.hexdigest()


def _run_sweep(config, corp, provider, cache, out: Path, tracer, tally) -> list[str]:
    report = experiment.run_low_resource_sweep(config, corp, provider=provider, cache=cache)
    with tracer.span("experiment.write_outputs") if tracer else contextlib.nullcontext():
        report.write_csv(out / "report.csv")
        report.write_timings(out / "timings.csv")
    tally["attempted"] += len(config.train_sizes) * len(config.seeds)
    tally["failed"] += len(report.failures)
    tally["problems"] += [f"run {tag} failed: {why}" for tag, why in report.failures]
    return ["report.csv"]


def _regress(docs, predict_fn, target: str) -> dict:
    """What `augbench analyze regress` does with the L1 strength cross-validated."""
    import numpy as np

    raw = analyze.build_feature_matrix([d.text for d in docs], predict_fn)
    X, _, _ = analyze.standardize(raw)
    if target == "label":
        y = np.array([1.0 if d.label == "pos" else 0.0 for d in docs])
    else:
        y = np.array([1.0 if predict_fn(d.text) >= 0.5 else 0.0 for d in docs])
    lam = analyze.cross_validate_l1(X, y)
    kind = "true_label" if target == "label" else "model_prediction"
    return analyze.fit_l1_logistic(X, y, lam, target_kind=kind).as_dict()


def _run_tta(config, corp, provider, cache, out: Path, tracer, tally) -> list[str]:
    languages = config.augment.languages
    sub = corpus.subsample_balanced(corp, config.train_sizes[0], config.seeds[0])
    model = classify.train(sub, config.classifier)
    tta = experiment.run_tta_pipeline(sub, languages, provider, cache, model=model)
    test_docs = [d for d in sub.split_docs("test") if d.text.strip()]
    predict_fn = classify.predictor(model)
    fits = {target: _regress(test_docs, predict_fn, target)
            for target in ("label", "prediction")}
    probe = analyze.numeracy_probe(predict_fn)
    with tracer.span("experiment.write_outputs") if tracer else contextlib.nullcontext():
        model.save(out / "model.npz")
        tta.weights.to_json(out / "weights.json", fitting_set="valid",
                            loss=tta.valid_losses["ensemble"])
        tta.combined.to_csv(out / "combined.csv", "ensemble")
        for target, fit in fits.items():
            with open(out / f"fit_{target}.json", "w", encoding="utf-8") as fh:
                json.dump(fit, fh, indent=2, sort_keys=True)
                fh.write("\n")
        with open(out / "probe.csv", "w", encoding="utf-8", newline="\n") as fh:
            fh.write("rating,p_positive\n")
            fh.writelines(f"{rating},{p!r}\n" for rating, p in probe)
    originals = sum(1 for d in sub if d.is_original and d.split in ("valid", "test"))
    tally["attempted"] += originals * len(languages)
    return ["model.npz", "weights.json", "combined.csv", "fit_label.json",
            "fit_prediction.json", "probe.csv"]


_CALIB_WORDS = [f"w{i % 997},{i % 13}!" for i in range(4000)]


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: characters, blake2b and dict counts, as in featurize.

    It reads the host's current speed, which on a shared host changes by tens
    of percent from minute to minute.  It calls nothing in augbench.
    """
    t = time.perf_counter()
    counts: dict[bytes, int] = {}
    for _ in range(16):
        for word in _CALIB_WORDS:
            run = ""
            for c in word.lower():
                run += c
            key = hashlib.blake2b(run.encode("utf-8"), digest_size=8).digest()
            counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - t


def main(argv: list[str]) -> int:
    workload, in_dir, out_dir, spawn_time, traced, result_path = argv
    in_dir, out = Path(in_dir), Path(out_dir)
    tracer = Tracer() if traced == "1" else None
    tally = {"attempted": 0, "failed": 0, "problems": []}
    skips = _SkipCounter()
    logging.getLogger("augbench").addHandler(skips)
    _count_augment(tally)
    if tracer:
        tracer.install()

    config = experiment.ExperimentConfig.from_yaml(in_dir / "config.yaml")
    corp = corpus.ingest_jsonl(in_dir / "corpus.jsonl")
    if workload == "sweep-eda":
        provider = cache = None
        runner = _run_sweep
    elif workload == "sweep-bt":
        provider = translate.MockProvider(seed=config.augment.seed)
        cache = translate.TranslationCache(out / "cache.jsonl")
        cache.load(translate.paper_cache_path())  # as `augbench run` opens its cache
        runner = _run_sweep
    else:
        mock_id = translate.MockProvider(seed=config.augment.seed).provider_id
        provider = translate.ReplayProvider(mock_id)  # any cache miss fails the document
        cache = translate.TranslationCache(in_dir / "warm_cache.jsonl")
        runner = _run_tta
    setup_s = time.monotonic() - float(spawn_time)
    calib_s = calibrate()
    t0 = time.perf_counter()
    outputs = runner(config, corp, provider, cache, out, tracer, tally)
    t1 = time.perf_counter()
    calib_s += calibrate()

    tally["failed"] += skips.skipped
    from gen import WORKLOADS

    problems = _config_problems(config, WORKLOADS[workload]["config"])
    tally["attempted"] += 1
    tally["failed"] += bool(problems)
    result = {"setup_s": setup_s, "wall_s": t1 - t0, "calib_s": calib_s,
              "outputs": {name: _digest(out / name) for name in outputs},
              "attempted": tally["attempted"], "failed": tally["failed"],
              "problems": tally["problems"] + problems
              + [f"{skips.skipped} TTA variants skipped"] * bool(skips.skipped)}
    if tracer:
        result["trace"] = tracer.summary(t0, t1)
        tracer.write(Path(result_path).with_name("spans.json"))
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
