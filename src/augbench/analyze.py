"""Sentence-level sentiment regressions and the rating-string numeracy probe."""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .ensemble import log_loss

FEATURE_NAMES = ("last", "first", "avg", "max", "min", "len")

_ABBREVIATIONS = frozenset({
    "mr", "mrs", "ms", "dr", "st", "jr", "sr", "prof", "vs", "etc", "e.g", "i.e",
    "inc", "ltd", "co", "dept", "approx", "no",
})

_BOUNDARY = re.compile(r"[.!?]+(?=\s)")


class AnalyzeError(Exception):
    pass


def split_sentences(text: str) -> list[str]:
    """Split at sentence-final punctuation followed by whitespace.

    A short abbreviation guard suppresses splits after e.g. "Mr." or "vs.".
    The whole text is one sentence when no boundary is found.  Concatenating
    the sentences preserves the text's non-whitespace characters in order.
    """
    sentences = []
    start = 0
    for m in _BOUNDARY.finditer(text):
        prev = text[start:m.start()]
        last_word = prev.split()[-1].lower() if prev.split() else ""
        last_word = last_word.rstrip(".").lstrip("(\"'")
        if last_word in _ABBREVIATIONS:
            continue
        sentences.append(text[start:m.end()].strip())
        start = m.end()
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    if not sentences:
        return [text]
    return sentences


@dataclass
class SentenceFeatures:
    """Raw (pre-standardization) summary stats of per-sentence sentiment scores."""
    last: float
    first: float
    avg: float
    max: float
    min: float
    len: float

    def as_array(self) -> np.ndarray:
        return np.array([self.last, self.first, self.avg, self.max, self.min, self.len])


def sentence_features(text: str, predict_fn: Callable[[str], float]) -> SentenceFeatures:
    """Score each sentence with predict_fn and summarize the resulting vector."""
    if not text.strip():
        raise AnalyzeError("cannot extract sentence features from empty text")
    scores = [predict_fn(s) for s in split_sentences(text)]
    return SentenceFeatures(
        last=scores[-1],
        first=scores[0],
        avg=float(np.mean(scores)),
        max=float(np.max(scores)),
        min=float(np.min(scores)),
        len=float(len(scores)),
    )


def standardize(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Zero-mean unit-variance columns; constant columns become all-zero."""
    rows = np.asarray(rows, dtype=np.float64)
    means = rows.mean(axis=0)
    stds = rows.std(axis=0)
    safe = np.where(stds > 0, stds, 1.0)
    return (rows - means) / safe, means, stds


@dataclass
class RegressionFit:
    coefficients: np.ndarray
    intercept: float
    l1_strength: float
    target_kind: str  # "true_label" | "model_prediction"
    feature_names: tuple[str, ...] = FEATURE_NAMES

    def as_dict(self) -> dict:
        return {
            "coefficients": {n: float(c) for n, c in zip(self.feature_names,
                                                         self.coefficients)},
            "intercept": float(self.intercept),
            "l1_strength": float(self.l1_strength),
            "target_kind": self.target_kind,
        }


def _fit_many(X: np.ndarray, Y: np.ndarray, strengths: Sequence[float], max_sweeps: int,
              tol: float) -> tuple[np.ndarray, np.ndarray]:
    """r L1 logistic fits in lockstep: X (r, n, d), Y (r, n) -> W (r, d), B (r,).

    Every fit takes a lone fit's steps and each mean sums only its own unpadded
    row, so each row is bit-identical to the r=1 call.  Converged fits drop out.
    """
    X, Y, lams = (np.asarray(a, dtype=np.float64) for a in (X, Y, strengths))
    if not np.all(np.isfinite(lams) & (lams >= 0)):
        raise AnalyzeError(f"l1 strengths must be finite and >= 0, got {np.unique(lams).tolist()}")
    if any(set(np.unique(y)) != {0.0, 1.0} for y in Y):
        raise AnalyzeError("targets must contain both classes (0 and 1)")
    r, n, d = X.shape
    lips = 0.25 * np.mean(X ** 2, axis=1)  # curvature bound for logistic loss
    lips = np.where(lips > 0, lips, 0.25).T  # lips[j]: coordinate j of every fit
    lo, hi = -lams / lips, lams / lips  # soft-threshold band
    Xt = np.ascontiguousarray(X.transpose(2, 0, 1))
    W, B, W_out, B_out = np.zeros((d, r)), np.zeros(r), np.zeros((r, d)), np.zeros(r)
    # neg_z holds -z (negating every update keeps its bits), so exp(neg_z) is exp(-z)
    neg_z, prod, live = np.zeros((r, n)), np.empty((r, n)), np.arange(r)
    for _ in range(max_sweeps):
        delta_b = -(np.add.reduce(1.0 / (1.0 + np.exp(neg_z)) - Y, axis=1) / n) / 0.25
        B += delta_b
        neg_z -= delta_b[:, None]
        W_start = W.copy()
        for j in range(d):
            np.multiply(Xt[j], 1.0 / (1.0 + np.exp(neg_z)) - Y, out=prod)
            x = W[j] - np.add.reduce(prod, axis=1) / n / lips[j]
            new = x - np.minimum(np.maximum(x, lo[j]), hi[j])  # +0.0 inside the band
            neg_z -= np.multiply(Xt[j], (new - W[j])[:, None], out=prod)
            W[j] = new
        done = np.maximum(np.abs(delta_b), np.abs(W - W_start).max(axis=0, initial=0.0)) < tol
        if done.any():
            W_out[live[done]], B_out[live[done]] = W[:, done].T, B[done]
            live, Y, B, neg_z, prod = (a[~done] for a in (live, Y, B, neg_z, prod))
            Xt, W, lips, lo, hi = (a[:, ~done] for a in (Xt, W, lips, lo, hi))
            if not live.size:
                break
    W_out[live], B_out[live] = W.T, B
    return W_out, B_out


def fit_l1_logistic(
    X: np.ndarray,
    y: np.ndarray,
    l1_strength: float,
    target_kind: str = "true_label",
    max_sweeps: int = 1000,
    tol: float = 1e-10,
) -> RegressionFit:
    """L1-penalized logistic regression by proximal coordinate descent.

    Minimizes mean logistic loss + l1_strength * sum(|w|) (intercept
    unpenalized, l1_strength finite and >= 0) with soft-thresholding updates,
    so irrelevant coefficients land on literal zeros.  Deterministic: fixed
    coordinate order, fixed sweep cap.  The r=1 case of `_fit_many`.
    """
    W, B = _fit_many(np.asarray(X)[None], np.asarray(y)[None], [l1_strength], max_sweeps, tol)
    return RegressionFit(W[0], float(B[0]), l1_strength, target_kind)


def cross_validate_l1(
    X: np.ndarray,
    y: np.ndarray,
    grid: Sequence[float] = (0.0001, 0.001, 0.01, 0.1, 1.0),
    folds: int = 5,
    se_multiplier: float = 0.0,
) -> float:
    """Pick l1_strength by k-fold cross-validated log-loss; deterministic folds.

    With se_multiplier == 0 the minimizer of the mean held-out loss wins.
    With se_multiplier = k > 0 this applies the k-standard-error rule: among
    penalties whose mean loss is within k standard errors of the minimum,
    take the largest, trading a little fit for a sparser model.  Grid entries
    must be finite and >= 0.
    """
    X, y = np.asarray(X, dtype=np.float64), np.asarray(y, dtype=np.float64)
    assignment = np.argsort(np.random.RandomState(0).permutation(len(y))) % folds
    splits = [(assignment != f, assignment == f) for f in range(folds)]
    splits = [(tr, te) for tr, te in splits if len(np.unique(y[tr])) >= 2 and te.any()]
    lams = list(dict.fromkeys(grid))
    if not splits or not lams:
        raise AnalyzeError("cross-validation found no usable fold split")
    fits = {}  # one lockstep call per training-fold size; padding would change the sums
    for size in sorted({tr.sum() for tr, _ in splits}):
        pairs = [(k, lam) for k, (tr, _) in enumerate(splits) if tr.sum() == size for lam in lams]
        W, B = _fit_many(np.stack([X[splits[k][0]] for k, _ in pairs]),
                         np.stack([y[splits[k][0]] for k, _ in pairs]),
                         [lam for _, lam in pairs], max_sweeps=300, tol=1e-10)
        fits.update(zip(pairs, zip(W, B)))
    stats = {}
    for lam in lams:
        losses = [log_loss(1.0 / (1.0 + np.exp(-(X[te] @ fits[k, lam][0] + fits[k, lam][1]))),
                           y[te]) for k, (_, te) in enumerate(splits)]
        stats[lam] = (float(np.mean(losses)), float(np.std(losses) / np.sqrt(len(losses))))
    best = min(stats, key=lambda lam: stats[lam][0])
    if se_multiplier <= 0:
        return best
    threshold = stats[best][0] + se_multiplier * stats[best][1]
    return max(lam for lam in stats if stats[lam][0] <= threshold)


def build_feature_matrix(
    texts: Sequence[str], predict_fn: Callable[[str], float]
) -> np.ndarray:
    return np.array([sentence_features(t, predict_fn).as_array() for t in texts])


RATING_POINTS = (0, 1, 2, 3, 4, 5, 6, 6.5, 7, 8, 9, 10)


def numeracy_probe(
    predict_fn: Callable[[str], float],
    template: str = "Rating {}/10",
) -> list[tuple[str, float]]:
    """Evaluate the model on "Rating x/10" strings for x in 0..10 plus 6.5."""
    if template.count("{}") != 1:
        raise AnalyzeError("template must contain exactly one {} slot")
    rows = []
    for x in RATING_POINTS:
        label = str(int(x)) if float(x).is_integer() else str(x)
        rows.append((label, float(predict_fn(template.format(label)))))
    return rows
