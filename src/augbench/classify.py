"""Hashed bag-of-ngrams logistic regression baseline and prediction tables."""
from __future__ import annotations

import array
import csv
import functools
import hashlib
import json
import math
import random
import sys
import zipfile
from dataclasses import dataclass, asdict
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .augment import tokenize
from .corpus import Corpus, replacing


class ClassifyError(Exception):
    pass


# Per `bits` value, one memo shared by every call in the process (see
# `_FeatureMemo`).  Each entry is a pure function of its key and `bits`, so no
# output depends on what a memo holds; one holding over _FEATURE_MEMO_LIMIT
# chunks, tokens and successors together is emptied on next use.
_FEATURE_MEMO_LIMIT = 1 << 13
_FEATURE_MEMOS: dict[int, "_FeatureMemo"] = {}
# Each n-gram is hashed by a copy of this initialized state: the same digest as
# a new `hashlib.blake2b(gram, digest_size=8)`, without setting up its parameters.
_BLAKE2B = hashlib.blake2b(digest_size=8)
_FROM_BYTES = int.from_bytes

# A token's entry: (unigram index, lowercase form, {the next token's lowercase
# form: bigram index}).
_TokenEntry = tuple[int, str, dict[str, int]]


class _FeatureMemo:
    """Whitespace chunk -> its tokens' entries, and lowercase token -> entry.

    Tokens are keyed by their lowercase form, so "The" and "the" share one
    entry: every distinct n-gram is hashed once until the memo is emptied.
    """

    __slots__ = ("chunks", "tokens", "size", "mask")

    def __init__(self, bits: int):
        self.chunks: dict[str, tuple[_TokenEntry, ...]] = {}
        self.tokens: dict[str, _TokenEntry] = {}
        self.size = 0  # chunks + tokens + successors
        self.mask = (1 << bits) - 1

    def index(self, gram: str) -> int:
        """The n-gram's index: its blake2b digest's first 8 bytes, masked."""
        h = _BLAKE2B.copy()
        h.update(gram.encode())  # UTF-8
        return _FROM_BYTES(h.digest(), "big") & self.mask

    def add_chunk(self, chunk: str) -> tuple[_TokenEntry, ...]:
        """Memoize the entries of `chunk`'s tokens, by the one token rule: as in
        `tokenize`, a chunk that `str.isalnum` accepts is its own single token."""
        entries = []
        for tok in (chunk,) if chunk.isalnum() else tokenize(chunk):
            low = tok.lower()
            entry = self.tokens.get(low)
            if entry is None:
                entry = self.tokens[low] = (self.index(low), low, {})
                self.size += 1
            entries.append(entry)
        self.size += 1
        entries = self.chunks[chunk] = tuple(entries)
        return entries


def featurize(text: str, bits: int = 18) -> dict[int, int]:
    """Hashed counts of lowercased 1-grams and 2-grams of the token sequence.

    An n-gram's index is the first 8 bytes of its blake2b digest, big-endian,
    masked to `bits` bits.  Keys are inserted in a fixed order, unigram i and
    then bigram (i, i+1); scores sum in that order, so model bytes depend on it.
    Indices are memoized per process (`_FEATURE_MEMOS`) by whitespace chunk,
    so a chunk seen before is neither tokenized nor lowercased again, and a
    bigram seen before is neither built as a string nor hashed.
    """
    memo = _FEATURE_MEMOS.get(bits)
    if memo is None or memo.size > _FEATURE_MEMO_LIMIT:
        memo = _FEATURE_MEMOS[bits] = _FeatureMemo(bits)
    chunks = memo.chunks
    seq: list[_TokenEntry] = []
    for chunk in text.split():
        entries = chunks.get(chunk)
        seq += entries if entries is not None else memo.add_chunk(chunk)
    counts: dict[int, int] = {}
    if not seq:
        return counts
    get = counts.get
    prev = seq[0]
    for entry in islice(seq, 1, None):
        uni, low, successors = prev
        counts[uni] = get(uni, 0) + 1
        nxt = entry[1]
        idx = successors.get(nxt)
        if idx is None:
            idx = successors[nxt] = memo.index(f"{low} {nxt}")
            memo.size += 1
        counts[idx] = get(idx, 0) + 1
        prev = entry
    uni = prev[0]  # the last token has no bigram
    counts[uni] = get(uni, 0) + 1
    return counts


FeatureRow = tuple[np.ndarray, np.ndarray]


def feature_row(text: str, bits: int) -> FeatureRow:
    """`featurize` as (int64 indices, float64 counts) arrays in its key order."""
    f = featurize(text, bits)
    return (np.fromiter(f.keys(), dtype=np.int64, count=len(f)),
            np.fromiter(f.values(), dtype=np.float64, count=len(f)))


class PackedRows(Mapping[str, FeatureRow]):
    """The `feature_row` of each distinct text, packed: text -> (indices, counts).

    One `featurize` call per distinct text appends its keys and counts, in key
    order, straight onto two flat buffers: indices in the smallest unsigned
    integer dtype holding 2**bits - 1, counts in the smallest holding the
    largest count.  A row is two read-only views into them, made at each
    lookup, so the store holds no array per row; `weights[idx]` gathers the
    same weights and a count converts to the same float64, so a row scores
    exactly as its `feature_row` does.
    """

    __slots__ = ("_rows", "_bounds", "_keys", "_counts")

    def __init__(self, texts: Iterable[str], bits: int):
        rows: dict[str, int] = {}  # text -> its row number
        bounds = array.array("q", [0])  # row i spans [bounds[i], bounds[i + 1])
        # The smallest unsigned dtype holding a value; its character is also an
        # `array` typecode.  An index has 64 bits at most.
        keys = array.array(np.min_scalar_type((1 << min(bits, 64)) - 1).char)
        counts = array.array("B")
        for text in texts:
            if text in rows:
                continue
            f = featurize(text, bits)
            top = max(f.values(), default=0)
            if top >> 8 * counts.itemsize:
                counts = array.array(np.min_scalar_type(top).char, counts)
            keys.extend(f)
            counts.extend(f.values())
            rows[text] = len(rows)
            bounds.append(len(keys))
        self._rows, self._bounds = rows, bounds
        self._keys = np.asarray(memoryview(keys).toreadonly())
        self._counts = np.asarray(memoryview(counts).toreadonly())

    def __getitem__(self, text: str) -> FeatureRow:
        i = self._rows[text]
        start, end = self._bounds[i], self._bounds[i + 1]
        return self._keys[start:end], self._counts[start:end]

    def __contains__(self, text) -> bool:
        return text in self._rows

    def __iter__(self) -> Iterator[str]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)


# The dense weight vector takes 8 * 2**bits bytes: 2 MiB at the default 18,
# 8 GiB at 30, in each sweep worker.  2**30 buckets are over 100 times the
# few million distinct unigrams and bigrams of IMDB's 100,000 reviews, so wider
# hashing buys almost no fewer collisions; at 40 bits the vector takes 8 TiB.
MAX_BITS = 30


@dataclass
class TrainConfig:
    bits: int = 18
    epochs: int = 5
    learning_rate: float = 0.1
    lr_decay: str = "linear"  # "linear" | "constant"
    l2: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.lr_decay not in ("linear", "constant"):
            raise ClassifyError(f"lr_decay must be 'linear' or 'constant', got {self.lr_decay!r}")
        if self.bits < 1:
            raise ClassifyError(f"bits must be at least 1, got {self.bits}")
        if self.bits > MAX_BITS:
            raise ClassifyError(f"bits must be at most {MAX_BITS}, got {self.bits}")
        if self.epochs < 1:
            raise ClassifyError(f"epochs must be at least 1, got {self.epochs}")
        if not self.learning_rate > 0:
            raise ClassifyError(f"learning_rate must be positive, got {self.learning_rate}")
        if not math.isfinite(self.learning_rate):
            raise ClassifyError(f"learning_rate must be finite, got {self.learning_rate}")
        if not (self.l2 >= 0 and math.isfinite(self.l2)):
            raise ClassifyError(f"l2 must be finite and at least 0, got {self.l2}")
        if self.learning_rate * self.l2 >= 1:  # each L2 step would scale the weights by <= 0
            raise ClassifyError(f"learning_rate * l2 must be below 1, got "
                                f"{self.learning_rate} * {self.l2}")


@dataclass
class LinearModel:
    weights: np.ndarray  # dense, length 2**bits
    bias: float
    config: TrainConfig

    def save(self, path: str | Path) -> None:
        """Write to `path` itself: numpy appends `.npz` to a path but not to a handle."""
        with replacing(path, "wb") as fh:
            np.savez_compressed(
                fh,
                weights=self.weights,
                bias=np.float64(self.bias),
                config=json.dumps(asdict(self.config)),
            )

    @classmethod
    def load(cls, path: str | Path) -> "LinearModel":
        """Read a model `save` wrote; any other file raises ClassifyError."""
        try:
            with np.load(path, allow_pickle=False) as data:
                model = cls(
                    weights=data["weights"],
                    bias=float(data["bias"]),
                    config=TrainConfig(**json.loads(str(data["config"]))),
                )
        except (ValueError, KeyError, TypeError, EOFError, zipfile.BadZipFile):
            raise ClassifyError(f"{path}: not a model saved by augbench train") from None
        except ClassifyError as e:  # a saved config out of range
            raise ClassifyError(f"{path}: {e}") from None
        w, dim = model.weights, 1 << model.config.bits
        if w.dtype != np.float64 or w.shape != (dim,):
            raise ClassifyError(f"{path}: weights must be a 1-D float64 array of length "
                                f"2**bits = {dim}, got {w.dtype} of shape {w.shape}")
        return model


def _sigmoid(z: float) -> float:
    """In Python floats around `np.exp`: `math.exp` differs from it in the last
    bit on some hosts, and model bytes depend on it."""
    if z >= 0:
        return 1.0 / (1.0 + float(np.exp(-z)))
    e = float(np.exp(z))
    return e / (1.0 + e)


def train(corpus: Corpus, config: Optional[TrainConfig] = None) -> LinearModel:
    """Fit logistic regression by seeded single-threaded SGD with lazy L2 decay.

    Byte-identical weights for identical (corpus, config).
    """
    config = config or TrainConfig()
    docs = [d for d in corpus.split_docs("train") if d.label in ("pos", "neg")]
    labels = {d.label for d in docs}
    if len(docs) < 2 or labels != {"pos", "neg"}:
        raise ClassifyError("training needs at least 2 documents covering both labels")

    # Copies follow every original, so documents are featurized family by family
    # (a parent, then its copies) while featurize's bounded memo holds their grams.
    families: dict[str, list[int]] = {}
    for i, d in enumerate(docs):
        families.setdefault(d.parent or d.id, []).append(i)
    feats = [None] * len(docs)
    for members in families.values():
        for i in members:
            feats[i] = feature_row(docs[i].text, config.bits)
    ys = [1.0 if d.label == "pos" else 0.0 for d in docs]

    dim = 1 << config.bits
    w = np.zeros(dim, dtype=np.float64)
    bias = 0.0
    scale = 1.0  # lazy L2: effective weights are scale * w
    rng = random.Random(config.seed)
    order = list(range(len(docs)))
    total_steps = config.epochs * len(docs)
    step = 0
    learning_rate, linear, l2 = config.learning_rate, config.lr_decay == "linear", config.l2
    # a diverging fit overflows to inf and nan; the check below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(config.epochs):
            rng.shuffle(order)
            for i in order:
                lr = learning_rate
                if linear:
                    lr *= 1.0 - step / total_steps
                step += 1
                idx, vals = feats[i]
                wi = w[idx]
                # BLAS ddot, as `wi @ vals` calls it, without matmul's dispatch
                z = scale * float(wi.dot(vals)) + bias
                g = _sigmoid(z) - ys[i]
                scale *= 1.0 - lr * l2
                if scale < 1e-9:
                    w *= scale
                    scale = 1.0
                    wi = w[idx]  # a copy: gather the rescaled weights
                # the IEEE operations of w[idx] -= lr * g * vals / scale, in place
                step_g = lr * g
                t = vals * step_g
                t /= scale
                wi -= t
                w[idx] = wi
                bias -= step_g
    w *= scale  # in place: no second dense copy at the end of training
    if not (np.isfinite(w).all() and math.isfinite(bias)):
        raise ClassifyError(f"fit diverged to non-finite weights at learning_rate {learning_rate}")
    return LinearModel(weights=w, bias=bias, config=config)


def score_texts(model: LinearModel, texts: Iterable[str],
                rows: Mapping[str, FeatureRow]) -> dict[str, float]:
    """P(positive) of each distinct text in `texts`, keyed in first-seen order.

    A text's row is taken from `rows` (built with `model.config.bits`: the
    `feature_row`s, or a `PackedRows` whose rows are read-only views of unsigned
    integer dtypes) or else featurized.  Its score is the sigmoid of the bias
    and then each w[i]*count, added left to right in row order by
    `np.add.accumulate`; a pairwise sum (`np.sum`), a dot product or a sparse
    matvec would round differently.  One `terms` buffer serves every row and
    grows only when a longer row arrives.
    """
    weights, bits = model.weights, model.config.bits
    terms = np.empty(0)
    scores: dict[str, float] = {}
    for text in dict.fromkeys(texts):
        idx, vals = rows[text] if text in rows else feature_row(text, bits)
        n = len(idx) + 1
        if n > len(terms):
            terms = np.empty(n)
        terms[0] = model.bias
        np.multiply(weights[idx], vals, out=terms[1:n])
        scores[text] = _sigmoid(float(np.add.accumulate(terms[:n])[-1]))
    return scores


def predict(model: LinearModel, text: str) -> float:
    """P(positive) for a single text: sigmoid of the linear score."""
    return score_texts(model, (text,), {})[text]


# The scores each `predictor` keeps, least recently used dropped first: both
# regression targets score the same sentences.
_PREDICT_MEMO_LIMIT = 1 << 13


def predictor(model: LinearModel) -> Callable[[str], float]:
    """`predict` with `model` bound, called once per distinct text among the
    `_PREDICT_MEMO_LIMIT` used last, and looked up on the module at each call.
    A score reflects the weights at its text's first use; nothing in augbench
    changes a model after `train` returns it."""
    return functools.lru_cache(maxsize=_PREDICT_MEMO_LIMIT)(lambda text: predict(model, text))


class PredictionTable:
    """Per-document, per-source probabilities of the positive class.

    One column per source, in the order sources were first added; each maps
    document ids, in the order they were first added, to probabilities.
    """

    def __init__(self):
        self._columns: dict[str, dict[str, float]] = {}

    def add(self, doc_id: str, source_id: str, p_positive: float) -> None:
        if not 0.0 <= p_positive <= 1.0:
            raise ClassifyError(
                f"probability out of range for ({doc_id!r}, {source_id!r}): {p_positive}"
            )
        self._columns.setdefault(source_id, {})[doc_id] = p_positive

    @property
    def sources(self) -> list[str]:
        return list(self._columns)

    def get(self, doc_id: str, source_id: str) -> Optional[float]:
        return self._columns.get(source_id, {}).get(doc_id)

    def doc_ids(self, source_id: str) -> list[str]:
        return list(self._columns.get(source_id, ()))

    def matrix(self, doc_ids: Sequence[str], sources: Sequence[str]) -> np.ndarray:
        """Float64 doc x source array of probabilities, NaN where one is missing."""
        out = np.empty((len(doc_ids), len(sources)))
        for j, source in enumerate(sources):
            column = self._columns.get(source, {})
            out[:, j] = [column.get(d, np.nan) for d in doc_ids]
        return out

    def merge(self, other: "PredictionTable") -> None:
        for s, column in other._columns.items():
            for d, p in column.items():
                self.add(d, s, p)

    def __len__(self) -> int:
        return sum(len(column) for column in self._columns.values())

    def to_csv(self, path: str | Path, source_id: str) -> None:
        """One source to `doc_id,p_positive` CSV; full-precision probabilities.

        Ids are quoted where CSV needs it, so any id reads back unchanged
        through `import_predictions`.
        """
        with replacing(path, "w") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            # csv quotes only the line breaks of its own terminator, and a bare
            # "\r" ends a row on reading, so ids holding one are quoted here.
            quoting = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_NONNUMERIC)
            writer.writerow(("doc_id", "p_positive"))
            for d, p in self._columns.get(source_id, {}).items():
                (quoting if "\r" in d else writer).writerow((d, p))


def predict_corpus(model: LinearModel, corpus: Corpus, source_id: str,
                   splits: Iterable[str] = ("test",),
                   rows: Optional[Mapping[str, FeatureRow]] = None) -> PredictionTable:
    """Score every document in `splits` through `score_texts`, each distinct
    text once; `rows` (`feature_row`s or a `PackedRows`, whose rows are views
    of unsigned integer dtypes) are passed on to it."""
    table = PredictionTable()
    wanted = set(splits)
    docs = [d for d in corpus if d.split in wanted]
    scores = score_texts(model, (d.text for d in docs), rows or {})
    for d in docs:
        table.add(d.id, source_id, scores[d.text])
    return table


def import_predictions(path: str | Path, source_id: str) -> PredictionTable:
    """Read a `doc_id,p_positive` CSV produced by an external model; each
    doc_id may appear once."""
    table = PredictionTable()
    rownum = 0  # the last row read
    # `to_csv` writes ids of any length.  The csv module's field limit is
    # process-wide, so it is lifted only while this file is read.
    field_limit = csv.field_size_limit(sys.maxsize)
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:  # drops a leading BOM
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header[:2]] != ["doc_id", "p_positive"]:
                raise ClassifyError(f"{path}: expected header 'doc_id,p_positive'")
            rownum = 1
            for rownum, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) < 2:
                    raise ClassifyError(f"{path}: malformed row {rownum}")
                try:
                    p = float(row[1])
                except ValueError as e:
                    raise ClassifyError(
                        f"{path}: bad probability at row {rownum}: {row[1]!r}") from e
                if not 0.0 <= p <= 1.0:
                    raise ClassifyError(
                        f"{path}: probability out of range at row {rownum}: {p}")
                if table.get(row[0], source_id) is not None:
                    raise ClassifyError(f"{path}: repeated doc_id {row[0]!r} at row {rownum}")
                table.add(row[0], source_id, p)
    except UnicodeDecodeError as e:
        raise ClassifyError(f"cannot decode {path} as UTF-8: {e}") from None
    except csv.Error as e:
        raise ClassifyError(f"{path}: unreadable row {rownum + 1}: {e}") from None
    finally:
        csv.field_size_limit(field_limit)
    return table
