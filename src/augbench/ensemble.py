"""Test-time augmentation, simplex-constrained weight fitting, calibration diagnostics."""
from __future__ import annotations

import json
import logging
import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from .augment import check_pivots
from .classify import PredictionTable
from .corpus import Document, replacing
from . import translate as _translate

log = logging.getLogger(__name__)

_EPS = 1e-12
_SIMPLEX_TOL = 1e-9
_TIE_TOL = 1e-12
_KKT_TOL = 1e-10
_NEWTON_STEPS = 100
_STEP_TOL = 1e-12


class EnsembleError(Exception):
    pass


@dataclass(frozen=True)
class SimplexWeights:
    """Weights per source, held in sorted source order: `combine` adds the
    sources in that order, so weights read back from `to_json` combine to the
    same bits as the weights written."""
    weights: Mapping[str, float]

    def __post_init__(self):
        object.__setattr__(self, "weights", dict(sorted(self.weights.items())))
        for s, w in self.weights.items():
            # a NaN would pass both checks below; a bool is no weight
            if isinstance(w, bool) or not isinstance(w, numbers.Real) or not math.isfinite(w):
                raise EnsembleError(f"weight for source {s!r} is not a finite number: {w!r}")
            if w < 0:
                raise EnsembleError(f"negative weight for source {s!r}: {w}")
        total = sum(self.weights.values())
        if abs(total - 1.0) > _SIMPLEX_TOL:
            raise EnsembleError(f"weights sum to {total}, expected 1")

    def to_json(self, path: str | Path, fitting_set: str = "", loss: Optional[float] = None):
        """Strict JSON; `loss` is left out when there is none."""
        out = {"weights": dict(self.weights), "objective": "logloss",
               "fitting_set": fitting_set}
        if loss is not None:
            out["loss"] = loss
        with replacing(path, "w") as fh:
            json.dump(out, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")

    @classmethod
    def from_json(cls, path: str | Path) -> "SimplexWeights":
        """Weights from a `to_json` file; EnsembleError naming the file if it
        cannot be read or does not hold a `weights` mapping of simplex weights."""
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as e:
            raise EnsembleError(f"{path}: cannot read weights: {e}") from e
        weights = doc.get("weights") if isinstance(doc, dict) else None
        if not isinstance(weights, dict):
            raise EnsembleError(f"{path}: expected a JSON object with a 'weights' mapping")
        try:
            return cls(weights)
        except EnsembleError as e:
            raise EnsembleError(f"{path}: {e}") from None


@dataclass
class CalibrationReport:
    frac_confident: float  # share of p outside [0.1, 0.9]
    pred_std: float        # population std of p
    accuracy: Optional[float] = None


def tta_generate(
    originals: Sequence[Document],
    languages: Sequence[str],
    provider,
    cache: Optional[_translate.TranslationCache] = None,
) -> list[list[str]]:
    """Each original's round-trip texts, in language order.  Where a round trip
    failed, the original's own text stands in, so that variant takes its
    parent's prediction."""
    if not languages:
        raise EnsembleError("tta_generate needs a nonempty language list")
    check_pivots(languages)
    variants = [[doc.text] * len(languages) for doc in originals]
    skipped = 0
    for doc, texts in zip(originals, variants):
        for j, lang in enumerate(languages):
            try:
                texts[j] = _translate.backtranslate(doc.text, lang, provider, cache,
                                                    parent_id=doc.id).final_text
            except _translate.TranslationError as e:
                skipped += 1
                log.warning("tta: skipped %s via %s: %s", doc.id, lang, e)
    if skipped:
        log.warning("tta: %d variants skipped", skipped)
    return variants


def combine(preds: PredictionTable, weights: SimplexWeights,
            doc_ids: Sequence[str]) -> PredictionTable:
    """Weighted average of sources per document; output source is "ensemble".
    A (doc, source) pair without a prediction raises ClassifyError."""
    sources = list(weights.weights.keys())
    mat = preds.matrix(doc_ids, sources)
    wvec = np.array([weights.weights[s] for s in sources])
    combined = mat @ wvec
    out = PredictionTable()
    for d, p in zip(doc_ids, combined):
        out.add(d, "ensemble", min(1.0, max(0.0, float(p))))
    return out


def log_loss(p: np.ndarray, y: np.ndarray) -> float:
    """Mean log-loss of probabilities `p` clipped to [_EPS, 1 - _EPS].

    `np.maximum`/`np.minimum` select what `np.clip` selects, and `np.add.reduce`
    over the size is `np.mean`'s own sum and division: the bits of the clip/mean
    formula without the cost of those wrappers.
    """
    p = np.minimum(np.maximum(p, _EPS), 1.0 - _EPS)
    terms = y * np.log(p) + (1.0 - y) * np.log(1.0 - p)
    return float(-(np.add.reduce(terms, None) / terms.size))  # axis=None, by position


def _newton_simplex(mat: np.ndarray, y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Minimize `log_loss(mat @ w, y)` over the simplex from `w`: active-set
    Newton steps on the support of `w` under sum(w) = 1.

    The bordered (m+1) x (m+1) system is solved by least squares, so
    duplicate sources (a singular Hessian) are fine.  A ratio test stops a
    step at the first weight that reaches 0; a weight left at or below `_EPS`
    is set to exactly 0 and leaves the support.  A step is halved until the
    loss falls.  At a stationary point the source of lowest gradient joins
    the support, unless it is within `_KKT_TOL` of the support's mean
    gradient (the KKT conditions, Boyd & Vandenberghe 2004, sec. 5.5.3).  The
    derivatives leave out clipped rows (p at `_EPS` or `1 - _EPS`), where the
    clip makes the loss flat.
    """
    n = len(y)
    on = w > 0
    f = log_loss(mat @ w, y)
    for _ in range(_NEWTON_STEPS):
        p = mat @ w
        free = (p > _EPS) & (p < 1.0 - _EPS)
        p = np.where(free, p, 0.5)
        g = mat.T @ np.where(free, (p - y) / (p * (1.0 - p)), 0.0) / n
        h = np.where(free, y / p**2 + (1.0 - y) / (1.0 - p)**2, 0.0)
        idx = np.flatnonzero(on)
        m = len(idx)
        a = mat[:, idx]
        kkt = np.ones((m + 1, m + 1))
        kkt[:m, :m] = (a.T * h) @ a / n
        kkt[m, m] = 0.0
        d = np.linalg.lstsq(kkt, np.append(-g[idx], 0.0), rcond=None)[0][:m]
        t = np.min(w[idx][d < 0] / -d[d < 0], initial=1.0)  # the ratio test
        while t * np.abs(d).max() > _STEP_TOL:
            trial = w.copy()
            trial[idx] += t * d
            trial[trial <= _EPS] = 0.0  # the blocking weight, and any that near-ties it
            trial /= trial.sum()  # an ill-conditioned solve can miss sum(d) = 0
            f_trial = log_loss(mat @ trial, y)
            if f_trial < f:
                w, f = trial, f_trial
                on &= w > 0
                break
            t /= 2
        else:
            out = np.flatnonzero(~on)
            if not len(out):
                return w
            j = out[np.argmin(g[out])]
            if g[j] >= g[idx].mean() - _KKT_TOL:
                return w
            on[j] = True
    return w


def fit_weights(preds: PredictionTable, labels: Mapping[str, str]) -> SimplexWeights:
    """Simplex weights minimizing mean binary log-loss on the labeled documents.

    The candidates are every vertex (single source) and `_newton_simplex` run
    from the uniform point, so no fit is worse than the best single source.
    Ties within 1e-12 prefer fewer nonzero weights, then earlier source order
    (`preds.sources`), so a vertex optimum comes out as exact 1.0 and 0.0
    weights.  Deterministic.  It fits on every labeled document that any
    source holds; one that a source lacks raises ClassifyError, as in
    `combine`.
    """
    sources = preds.sources
    if len(sources) < 2:
        raise EnsembleError("weight fitting needs at least 2 sources")
    doc_ids = [d for d in dict.fromkeys(d for s in sources for d in preds.doc_ids(s))
               if d in labels]
    if not doc_ids:
        raise EnsembleError("no labeled documents in any source")
    mat = preds.matrix(doc_ids, sources)
    y = np.array([1.0 if labels[d] == "pos" else 0.0 for d in doc_ids])

    def loss(w: np.ndarray) -> float:
        return log_loss(mat @ w, y)

    k = len(sources)
    candidates = list(np.eye(k))  # vertices, in source order
    losses = [loss(c) for c in candidates]
    candidates.append(_newton_simplex(mat, y, np.full(k, 1.0 / k)))
    losses.append(loss(candidates[-1]))
    best = min(losses)
    tied = [c for c, l in zip(candidates, losses) if l <= best + _TIE_TOL]
    # the first of the fewest nonzero weights: vertex candidates come in source order
    chosen = min(tied, key=lambda c: int(np.count_nonzero(c > _EPS)))
    return SimplexWeights({s: float(chosen[i]) for i, s in enumerate(sources)})


def calibration_report(preds: PredictionTable, source: str,
                       labels: Optional[Mapping[str, str]] = None) -> CalibrationReport:
    """Overconfidence fraction, prediction std, and optional accuracy for one source."""
    doc_ids = preds.doc_ids(source)
    if not doc_ids:
        raise EnsembleError(f"no predictions for source {source!r}")
    p = np.array([preds.get(d, source) for d in doc_ids], dtype=np.float64)
    frac_confident = float(np.mean((p < 0.1) | (p > 0.9)))
    pred_std = float(np.std(p))
    accuracy = None
    if labels is not None:
        labeled = [(pp, labels[d]) for pp, d in zip(p.tolist(), doc_ids) if d in labels]
        if labeled:
            accuracy = float(np.mean([
                (pp >= 0.5) == (lab == "pos") for pp, lab in labeled
            ]))
    return CalibrationReport(frac_confident=frac_confident, pred_std=pred_std,
                             accuracy=accuracy)
