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

from .classify import PredictionTable
from .corpus import Corpus
from . import translate as _translate

log = logging.getLogger(__name__)

_EPS = 1e-12
_SIMPLEX_TOL = 1e-9
_TIE_TOL = 1e-12
_MAX_SWEEPS = 500
_SWEEP_TOL = 1e-10


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
        with open(path, "w", encoding="utf-8") as fh:
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
    corpus: Corpus,
    languages: Sequence[str],
    provider,
    cache: Optional[_translate.TranslationCache] = None,
) -> dict[tuple[str, str], str]:
    """Round-trip text of each (Test/Valid original id, language) pair, in corpus
    then language order; a pair whose round trip failed is left out."""
    if not languages:
        raise EnsembleError("tta_generate needs a nonempty language list")
    variants: dict[tuple[str, str], str] = {}
    skipped = 0
    for doc in corpus:
        if doc.split not in ("test", "valid") or not doc.is_original:
            continue
        for lang in languages:
            try:
                rec = _translate.backtranslate(doc.text, lang, provider, cache,
                                               parent_id=doc.id)
            except _translate.TranslationError as e:
                skipped += 1
                log.warning("tta: skipped %s via %s: %s", doc.id, lang, e)
                continue
            variants[(doc.id, lang)] = rec.final_text
    if skipped:
        log.warning("tta: %d variants skipped", skipped)
    return variants


def _pred_matrix(preds: PredictionTable, sources: Sequence[str],
                 doc_ids: Sequence[str]) -> np.ndarray:
    mat = preds.matrix(doc_ids, sources)
    gaps = np.argwhere(np.isnan(mat))
    if len(gaps):
        shown = ", ".join(f"({doc_ids[i]!r}, {sources[j]!r})" for i, j in gaps[:10])
        raise EnsembleError(f"missing predictions for {len(gaps)} (doc, source) pairs: {shown}")
    return mat


def combine(preds: PredictionTable, weights: SimplexWeights,
            doc_ids: Sequence[str]) -> PredictionTable:
    """Weighted average of sources per document; output source is "ensemble"."""
    sources = list(weights.weights.keys())
    mat = _pred_matrix(preds, sources, doc_ids)
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


_SQRT_EPS = np.sqrt(2.2e-16)
_GOLDEN_MEAN = 0.5 * (3.0 - np.sqrt(5.0))
_FMIN_MAXITER = 500


def _fminbound(func, lo: float, hi: float, xatol: float) -> tuple[float, float]:
    """Minimize a scalar `func` on [lo, hi]: Brent's bounded method (Brent
    1973, *Algorithms for Minimization without Derivatives*, ch. 5), ported
    step for step from scipy 1.17's `_minimize_scalar_bounded` with
    `maxiter=500`, so `(x, func(x))` equals that of `minimize_scalar(func,
    bounds=(lo, hi), method="bounded", options={"xatol": xatol})`."""
    a, b = lo, hi
    fulc = a + _GOLDEN_MEAN * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while np.abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if np.abs(e) > tol1:  # try a parabolic fit through the last three points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r = e
            e = rat
            if (np.abs(p) < np.abs(0.5 * q * r)) and (p > q * (a - xf)) and (p < q * (b - xf)):
                rat = (p + 0.0) / q
                x = xf + rat
                if ((x - a) < tol2) or ((b - x) < tol2):
                    si = np.sign(xm - xf) + ((xm - xf) == 0)
                    rat = tol1 * si
            else:
                golden = True
        if golden:  # golden-section step into the larger part
            e = a - xf if xf >= xm else b - xf
            rat = _GOLDEN_MEAN * e

        si = np.sign(rat) + (rat == 0)
        x = xf + si * np.maximum(np.abs(rat), tol1)
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= _FMIN_MAXITER:
            break
    return xf, fx


def fit_weights(preds: PredictionTable, labels: Mapping[str, str]) -> SimplexWeights:
    """Simplex weights minimizing mean binary log-loss on the labeled documents.

    Pairwise coordinate descent from the uniform point, with every vertex
    (single-source) solution also evaluated; the returned candidate therefore
    never fits worse than the best single source.  Ties within 1e-12 prefer
    fewer nonzero weights, then earlier source order (`preds.sources`).
    Deterministic.  It fits on every labeled document that any source holds;
    one that a source lacks raises EnsembleError, as in `combine`.
    """
    sources = preds.sources
    if len(sources) < 2:
        raise EnsembleError("weight fitting needs at least 2 sources")
    doc_ids = [d for d in dict.fromkeys(d for s in sources for d in preds.doc_ids(s))
               if d in labels]
    if not doc_ids:
        raise EnsembleError("no labeled documents in any source")
    mat = _pred_matrix(preds, sources, doc_ids)
    y = np.array([1.0 if labels[d] == "pos" else 0.0 for d in doc_ids])

    def loss(w: np.ndarray) -> float:
        return log_loss(mat @ w, y)

    k = len(sources)
    candidates: list[np.ndarray] = []
    for i in range(k):  # vertices, in source order
        v = np.zeros(k)
        v[i] = 1.0
        candidates.append(v)

    w = np.full(k, 1.0 / k)
    current = loss(w)
    for _ in range(_MAX_SWEEPS):
        best_sweep = current
        for i in range(k):
            for j in range(i + 1, k):
                # move mass t from j to i; simplex preserved for t in [-w_i, w_j]
                if w[i] + w[j] <= 0:
                    continue

                def pair_loss(t):
                    trial = w.copy()
                    trial[i] += t
                    trial[j] -= t
                    return loss(trial)

                t, fun = _fminbound(pair_loss, -w[i], w[j], xatol=1e-12)
                if fun < current - _EPS:
                    w[i] += t
                    w[j] -= t
                    np.clip(w, 0.0, None, out=w)
                    w /= w.sum()
                    current = loss(w)
        if best_sweep - current < _SWEEP_TOL:
            break
    candidates.append(w)

    losses = [loss(c) for c in candidates]
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
