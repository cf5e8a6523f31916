"""Naive references for augbench's optimised layers, and a sweep composed of them.

Each function is the plain loop that an optimised path must equal bit for
bit: no memo, no packed rows, no worker.  The tests compare a layer with its
reference on drawn inputs, and `sweep` with `run_low_resource_sweep`.
"""
import dataclasses
import hashlib
import random
import statistics

import numpy as np

from augbench.augment import AugTechnique, augment_dataset, derive_seed
from augbench.classify import LinearModel, PredictionTable, _sigmoid
from augbench.corpus import CorpusError, carve_validation, subsample_balanced
from augbench.ensemble import calibration_report
from augbench.translate import MockProvider


def tokenize(text):
    """The original per-character tokenizer that `augment.tokenize` must equal."""
    tokens = []
    for chunk in text.split():
        run = ""
        run_punct = False
        for c in chunk:
            p = not c.isalnum() and not c.isspace()
            if run and p != run_punct:
                tokens.append(run)
                run = ""
            run += c
            run_punct = p
        if run:
            tokens.append(run)
    return tokens


def is_punct_token(tok):
    """The original per-character predicate that `augment._is_punct_token` must equal."""
    return all(not c.isalnum() and not c.isspace() for c in tok)


def detokenize(tokens):
    """The original `+=` loop that `augment.detokenize` must equal."""
    out = ""
    for tok in tokens:
        if out and not is_punct_token(tok):
            out += " "
        out += tok
    return out


def gram_index(gram, bits):
    digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") & ((1 << bits) - 1)


def featurize(text, bits):
    """`classify.featurize` without a memo: every n-gram hashed, keys in
    first-occurrence order."""
    tokens = [t.lower() for t in tokenize(text)]
    grams = []
    for i, tok in enumerate(tokens):
        grams.append(tok)
        if i + 1 < len(tokens):
            grams.append(tok + " " + tokens[i + 1])
    counts = {}
    for gram in grams:
        idx = gram_index(gram, bits)
        counts[idx] = counts.get(idx, 0) + 1
    return counts


def train(corpus, config):
    """`classify.train` as it was before documents were featurized family by
    family: in document order and without a memo.  The weights and the bias."""
    docs = [d for d in corpus.split_docs("train") if d.label in ("pos", "neg")]
    feats = [featurize(d.text, config.bits) for d in docs]
    feats = [(np.array(list(f), dtype=np.int64), np.array(list(f.values()), dtype=np.float64))
             for f in feats]
    ys = [1.0 if d.label == "pos" else 0.0 for d in docs]
    w = np.zeros(1 << config.bits, dtype=np.float64)
    bias = 0.0
    scale = 1.0
    rng = random.Random(config.seed)
    order = list(range(len(docs)))
    total_steps = config.epochs * len(docs)
    step = 0
    for _ in range(config.epochs):
        rng.shuffle(order)
        for i in order:
            lr = config.learning_rate
            if config.lr_decay == "linear":
                lr *= 1.0 - step / total_steps
            step += 1
            idx, vals = feats[i]
            z = scale * float(w[idx] @ vals) + bias
            g = _sigmoid(z) - ys[i]
            if config.l2 > 0.0 and lr > 0.0:
                scale *= 1.0 - lr * config.l2
                if scale < 1e-9:
                    w *= scale
                    scale = 1.0
            if lr > 0.0:
                w[idx] -= lr * g * vals / scale
                bias -= lr * g
    w *= scale
    return w, bias


def predict(model, text):
    """The original scalar loop: bias, then each w[i]*count left to right."""
    score = model.bias
    for idx, cnt in featurize(text, model.config.bits).items():
        score += model.weights[idx] * cnt
    return _sigmoid(score)


REPORT_HEADER = "n,technique,languages,k,seed,subsample,accuracy,error,frac_confident,pred_std"


def sweep(config, corpus):
    """`run_low_resource_sweep(config, corpus, MockProvider(seed), cache)`'s
    report.csv text and failures, composed run by run in one process:
    subsample, carve, augment with the run's derived seed (translating
    without a cache), train, score each test document alone, and report."""
    spec, rows, failures = config.augment, [], []
    if spec is None:
        arm = ("none", "-", 0)
    else:
        every_language = (spec.technique is AugTechnique.BACKTRANSLATE
                          and spec.language_strategy.value == "all")
        arm = (spec.technique.value, "+".join(spec.languages) or "-",
               len(spec.languages) if every_language else spec.copies_per_original)
    for n in config.train_sizes:
        for seed in config.seeds:
            try:
                sub = subsample_balanced(corpus, n, seed)
            except CorpusError as e:
                failures.append((f"n={n},seed={seed}", str(e)))
                continue
            ids = sorted(d.id for d in sub.split_docs("train") if d.is_original)
            sub_hash = hashlib.sha256("".join(f"{i}\n" for i in ids).encode()).hexdigest()[:12]
            prepared = carve_validation(sub, config.valid_frac, seed)
            if spec is not None:
                bt = spec.technique is AugTechnique.BACKTRANSLATE
                run = augment_dataset(
                    prepared, dataclasses.replace(spec, seed=derive_seed(spec.seed, "run", seed)),
                    translator=MockProvider(spec.seed) if bt else None)
                assert not run.skipped, run.skipped  # a mock translation cannot fail
                prepared = run.corpus
            docs = [d for d in prepared.split_docs("train") if d.label in ("pos", "neg")]
            if len(docs) < 2 or {d.label for d in docs} != {"pos", "neg"}:
                failures.append((f"n={n},seed={seed}",
                                 "training needs at least 2 documents covering both labels"))
                continue
            clf = dataclasses.replace(config.classifier,
                                      seed=derive_seed(config.classifier.seed, "train", seed))
            model = LinearModel(*train(prepared, clf), clf)
            preds = PredictionTable()
            for d in prepared.split_docs("test"):
                preds.add(d.id, "baseline", predict(model, d.text))
            rep = calibration_report(preds, "baseline",
                                     {d.id: d.label for d in prepared.split_docs("test")})
            rows.append((n, *arm, str(seed), sub_hash,
                         rep.accuracy, 1.0 - rep.accuracy, rep.frac_confident, rep.pred_std))
    groups = {}
    for row in rows:
        groups.setdefault(row[:4], []).append(row[6:])
    rows += [(*arm_key, "median", "-", *map(statistics.median, zip(*floats)))
             for arm_key, floats in groups.items()]
    lines = [REPORT_HEADER] + [",".join(map(str, row[:6])) + "," + ",".join(map(repr, row[6:]))
                               for row in rows]
    return "".join(line + "\n" for line in lines), failures
