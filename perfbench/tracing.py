"""Spans and boundary counts around augbench's public functions, from outside the package.

Each function is replaced in every augbench module namespace that binds it,
because callers resolve names there (`experiment` binds `train`, `predict`,
... at import; `classify` binds `tokenize` from `augment`).  Spans are kept in
memory as [name, start, end, parent] and written out when the run ends.
Counts are taken from return values inside the span, so counting is charged
to the span it describes.  Nothing in the package itself changes.
"""
from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._texts: set[int] = set()
        self._features: set[int] = set()

    def wrap(self, name: str, fn, on_return=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                if on_return is not None:
                    on_return(args, result)
                return result
            finally:
                stack.pop()
                rec[2] = clock()
        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        rec = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            self.stack.pop()
            rec[2] = time.perf_counter()

    # -- boundary counts --------------------------------------------------

    def _featurize(self, args, result):
        c = self.counts
        c["featurize.ngrams"] += sum(result.values())
        h = hash(args[0])
        if h in self._texts:
            c["featurize.repeats"] += 1
        else:
            self._texts.add(h)
        self._features.update(result)

    def _train(self, args, result):
        docs = sum(1 for d in args[0].split_docs("train") if d.label in ("pos", "neg"))
        self.counts["train.sgd_steps"] += docs * result.config.epochs

    def _augment(self, args, result):
        self.counts["augment.generated"] += result.generated
        self.counts["augment.unmodified"] += result.unmodified

    def _backtranslate(self, args, result):
        self.counts["backtranslate.cache_hits"] += result.cache_hits

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions listed below in every module that binds them."""
        from augbench import analyze, augment, classify, corpus, ensemble, experiment
        from augbench import translate

        modules = (analyze, augment, classify, corpus, ensemble, experiment, translate)

        def patch(owner, attr, name, on_return=None, namespaces=modules):
            orig = getattr(owner, attr)
            wrapped = self.wrap(name, orig, on_return)
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                return
            for mod in namespaces:
                if mod.__dict__.get(attr) is orig:
                    setattr(mod, attr, wrapped)

        # classify's own binding of tokenize first, so the rest count as augment's.
        patch(augment, "tokenize", "classify.tokenize", namespaces=[classify])
        patch(augment, "tokenize", "augment.tokenize")
        patch(augment, "augment_dataset", "augment.augment_dataset", self._augment)
        patch(corpus, "ingest_jsonl", "corpus.ingest_jsonl")
        patch(corpus, "subsample_balanced", "corpus.subsample")
        patch(corpus, "carve_validation", "corpus.subsample")
        patch(classify, "featurize", "classify.featurize", self._featurize)
        patch(classify, "train", "classify.train", self._train)
        patch(classify, "predict", "classify.predict")
        patch(classify, "predict_corpus", "classify.predict_corpus")
        patch(translate, "backtranslate", "translate.backtranslate", self._backtranslate)
        patch(translate.MockProvider, "translate", "translate.provider")
        patch(translate.ReplayProvider, "translate", "translate.provider")
        patch(translate.TranslationCache, "get", "translate.cache.get")
        patch(translate.TranslationCache, "put", "translate.cache.put")
        patch(translate.TranslationCache, "load", "translate.cache.load")
        for attr in ("tta_generate", "fit_weights", "combine", "calibration_report"):
            patch(ensemble, attr, f"ensemble.{attr}")
        for attr in ("build_feature_matrix", "cross_validate_l1", "fit_l1_logistic",
                     "numeracy_probe"):
            patch(analyze, attr, f"analyze.{attr}")
        for attr in ("run_low_resource_sweep", "run_single", "run_tta_pipeline"):
            patch(experiment, attr, f"experiment.{attr}")

    # -- summary ----------------------------------------------------------

    def summary(self, t0: float, t1: float) -> dict:
        """Per-name self time and calls for spans in the window [t0, t1].

        Spans that start before t0 belong to set-up and are summed by total
        duration.  `outside_s` is the window time not covered by any span, so
        the self times plus `outside_s` add up to the window.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        setup_s: dict[str, float] = defaultdict(float)
        covered = 0.0
        for i, (name, start, end, parent) in enumerate(spans):
            if start < t0:
                setup_s[name] += end - start
                continue
            self_s[name] += end - start - child[i]
            total_s[name] += end - start
            calls[name] += 1
            if parent < 0:
                covered += end - start
        wall = t1 - t0
        counts = dict(self.counts)
        counts["featurize.distinct_features"] = len(self._features)
        return {"wall_s": wall, "outside_s": wall - covered,
                "self_s": dict(self_s), "total_s": dict(total_s), "calls": dict(calls),
                "setup_s": dict(setup_s), "counts": counts}

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names,
                       "spans": [[index[n], s, e, p] for n, s, e, p in self.spans]}, fh)

