"""Sentence-level sentiment regressions and the rating-string numeracy probe."""
from __future__ import annotations

import re
import string
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

_TOL = 1e-10  # an L1 fit has converged when no step moves a weight further
_ONE = np.array(1.0)  # `_residual`'s 1.0
_ONE.setflags(write=False)


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


def sentence_features(text: str, predict_fn: Callable[[str], float]) -> np.ndarray:
    """Score each sentence with predict_fn and summarize the resulting vector:
    raw (pre-standardization) float64 stats in `FEATURE_NAMES` order."""
    if not text.strip():
        raise AnalyzeError("cannot extract sentence features from empty text")
    scores = [predict_fn(s) for s in split_sentences(text)]
    return np.array([scores[-1], scores[0], np.mean(scores), np.max(scores),
                     np.min(scores), len(scores)], dtype=np.float64)


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

    def as_dict(self) -> dict:
        return {
            "coefficients": {n: float(c) for n, c in zip(FEATURE_NAMES, self.coefficients)},
            "intercept": float(self.intercept),
            "l1_strength": float(self.l1_strength),
            "target_kind": self.target_kind,
        }


def _residual(neg_z: np.ndarray, Y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """`1.0 / (1.0 + np.exp(neg_z)) - Y`, sigmoid(z) - y, computed in `out`.

    `out` is passed by position: a ufunc parses an `out=` keyword at a cost
    that matters at a few hundred elements.  So is 1.0 as a 0-d array, which a
    ufunc takes up faster than a Python float; both are the float64 1.0."""
    np.exp(neg_z, out)
    np.add(_ONE, out, out)
    np.divide(_ONE, out, out)
    return np.subtract(out, Y, out)


def _checked(X, y, strengths) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """X, y and the L1 strengths as float64 arrays, or AnalyzeError: X is 2-D with
    one finite row per target, y holds both classes 0 and 1 and nothing else, and
    every strength is finite and >= 0."""
    X, y, lams = (np.asarray(a, dtype=np.float64) for a in (X, y, strengths))
    if not np.all(np.isfinite(lams) & (lams >= 0)):
        raise AnalyzeError(f"l1 strengths must be finite and >= 0, got {np.unique(lams).tolist()}")
    if X.ndim != 2 or y.ndim != 1 or len(X) != len(y):
        raise AnalyzeError(f"features must be 2-D with one row per target: got shape "
                           f"{X.shape} for {y.shape} targets")
    if not np.isfinite(X).all():
        raise AnalyzeError("features must be finite (no NaN or infinity)")
    if set(np.unique(y)) != {0.0, 1.0}:
        raise AnalyzeError("targets must contain both classes (0 and 1)")
    return X, y, lams


def _bands(X: np.ndarray, lams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each coordinate's curvature bound for the logistic loss and soft-threshold
    band (lo, hi) = (-lam, lam) / bound, for X (..., n, d): arrays of shape (d, ...).
    A bound that overflows float64 raises AnalyzeError: its band would be 0 and
    its weight would stay 0.0 whatever the data."""
    with np.errstate(over="ignore"):
        lips = 0.25 * np.mean(X ** 2, axis=-2)
    if not np.isfinite(lips).all():
        columns = np.unique(np.nonzero(~np.isfinite(lips))[-1]).tolist()
        raise AnalyzeError(f"features too large for an L1 fit: the mean square of "
                           f"column(s) {columns} overflows float64")
    lips = np.where(lips > 0, lips, 0.25).T
    return lips, -lams / lips, lams / lips


def _fit_many(X: np.ndarray, Y: np.ndarray, strengths: Sequence[float], max_sweeps: int,
              tol: float) -> tuple[np.ndarray, np.ndarray]:
    """r L1 logistic fits in lockstep: X (r, n, d), Y (r, n) -> W (r, d), B (r,),
    each fit's inputs as `_checked` passes them.

    Every fit takes a lone fit's steps and each mean sums only its own unpadded
    row, so each row is bit-identical to `_fit_one`.  Converged fits drop out.
    """
    r, n, d = X.shape
    lips, lo, hi = _bands(X, np.asarray(strengths, dtype=np.float64))  # [j]: every fit's
    Xt = np.ascontiguousarray(X.transpose(2, 0, 1))
    W, B, W_out, B_out = np.zeros((d, r)), np.zeros(r), np.zeros((r, d)), np.zeros(r)
    # neg_z holds -z (negating every update keeps its bits), so exp(neg_z) is exp(-z).
    # The (r, n) residual and product are written in place; the (r,) steps are not,
    # since `out=` costs more than it saves on arrays that small.
    neg_z, live = np.zeros((r, n)), np.arange(r)
    resid, prod = np.empty((r, n)), np.empty((r, n))
    coords = list(zip(Xt, W, lips, lo, hi))  # coordinate j's rows, one view each
    for _ in range(max_sweeps):
        delta_b = -(np.add.reduce(_residual(neg_z, Y, resid), 1) / n) / 0.25
        B += delta_b
        neg_z -= delta_b[:, None]
        W_start = W.copy()
        for x_j, w_j, lip_j, lo_j, hi_j in coords:
            grad_sum = np.add.reduce(np.multiply(x_j, _residual(neg_z, Y, resid), prod), 1)
            x = w_j - grad_sum / n / lip_j
            new = x - np.minimum(np.maximum(x, lo_j), hi_j)  # +0.0 inside the band
            neg_z -= np.multiply(x_j, (new - w_j)[:, None], prod)
            w_j[...] = new
        done = np.maximum(np.abs(delta_b), np.abs(W - W_start).max(axis=0, initial=0.0)) < tol
        if done.any():
            W_out[live[done]], B_out[live[done]] = W[:, done].T, B[done]
            live, Y, B, neg_z = (a[~done] for a in (live, Y, B, neg_z))
            Xt, W, lips, lo, hi = (a[:, ~done] for a in (Xt, W, lips, lo, hi))
            if not live.size:
                break
            resid, prod = np.empty_like(neg_z), np.empty_like(neg_z)
            coords = list(zip(Xt, W, lips, lo, hi))
    W_out[live], B_out[live] = W.T, B
    return W_out, B_out


def _fit_one(X: np.ndarray, y: np.ndarray, lam: float, max_sweeps: int,
             tol: float) -> tuple[np.ndarray, float]:
    """One L1 logistic fit: X (n, d), y (n,) -> w (d,), b.  `_fit_many`'s steps for
    r = 1, with each coordinate's scalars held as Python floats.

    Python float arithmetic rounds as numpy's float64 does, and x - lo is x + lam
    / lip, so the weights keep their bits.  A coordinate that does not move
    leaves -z, and hence the residual, as they were; the residual is then reused.
    """
    n = len(y)
    lips, lo, hi = _bands(X, lam)
    coords = list(zip(np.ascontiguousarray(X.T), lips.tolist(), lo.tolist(), hi.tolist()))
    w, b = [0.0] * len(coords), 0.0
    neg_z, resid, prod = np.zeros(n), np.empty(n), np.empty(n)  # neg_z: -z, as in _fit_many
    add, multiply, subtract = np.add.reduce, np.multiply, np.subtract
    stale = True  # whether resid lags neg_z
    for _ in range(max_sweeps):
        if stale:
            _residual(neg_z, y, resid)
        delta_b = -(float(add(resid)) / n) / 0.25
        b += delta_b
        subtract(neg_z, delta_b, neg_z)
        change, stale = abs(delta_b), delta_b != 0.0
        for j, (x_j, lip, lo_j, hi_j) in enumerate(coords):
            if stale:
                _residual(neg_z, y, resid)
            x = w[j] - float(add(multiply(x_j, resid, prod))) / n / lip
            new = x - hi_j if x > hi_j else x - lo_j if x < lo_j else 0.0
            step = new - w[j]
            stale = step != 0.0
            if stale:
                subtract(neg_z, multiply(x_j, step, prod), neg_z)
                w[j] = new
                if abs(step) > change:
                    change = abs(step)
        if change < tol:
            break
    return np.array(w), b


def fit_l1_logistic(
    X: np.ndarray,
    y: np.ndarray,
    l1_strength: float,
    target_kind: str = "true_label",
    max_sweeps: int = 1000,
) -> RegressionFit:
    """L1-penalized logistic regression by proximal coordinate descent.

    Minimizes mean logistic loss + l1_strength * sum(|w|) (intercept
    unpenalized, l1_strength finite and >= 0) with soft-thresholding updates,
    so irrelevant coefficients land on literal zeros.  Deterministic: fixed
    coordinate order, fixed sweep cap.  Bit-identical to a `_fit_many` row.
    """
    X, y, lam = _checked(X, y, l1_strength)
    w, b = _fit_one(X, y, float(lam), max_sweeps, _TOL)
    return RegressionFit(w, b, l1_strength, target_kind)


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
    X, y, _ = _checked(X, y, grid)
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
                         [lam for _, lam in pairs], max_sweeps=300, tol=_TOL)
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
    return np.array([sentence_features(t, predict_fn) for t in texts])


RATING_POINTS = (0, 1, 2, 3, 4, 5, 6, 6.5, 7, 8, 9, 10)


def numeracy_probe(
    predict_fn: Callable[[str], float],
    template: str = "Rating {}/10",
) -> list[tuple[str, float]]:
    """Evaluate the model on "Rating x/10" strings for x in 0..10 plus 6.5.

    `template` holds exactly one replacement field, a bare `{}`; a literal
    brace is written `{{` or `}}`.
    """
    try:
        fields = [(name, spec, conversion) for _, name, spec, conversion
                  in string.Formatter().parse(template) if name is not None]
    except ValueError:  # an unmatched brace
        fields = []
    if fields != [("", "", None)]:
        raise AnalyzeError("template must contain exactly one {} slot "
                           "(write a literal brace as {{ or }})")
    rows = []
    for x in RATING_POINTS:
        label = str(int(x)) if float(x).is_integer() else str(x)
        rows.append((label, float(predict_fn(template.format(label)))))
    return rows
