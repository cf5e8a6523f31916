"""Document model, dataset ingestion, JSONL interchange, and balanced subsampling."""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator, Optional

LABELS = ("pos", "neg", "unsup")
SPLITS = ("train", "valid", "test", "unsup")


class CorpusError(Exception):
    """Raised for malformed corpora, files, or directory layouts."""


@dataclass(frozen=True)
class Origin:
    kind: str = "original"  # "original" | "synthetic"
    technique: Optional[str] = None
    lang: Optional[str] = None
    parent: Optional[str] = None

    def __post_init__(self):
        if self.kind == "original":
            if self.technique or self.lang or self.parent:
                raise CorpusError("original documents carry no synthesis metadata")
        elif self.kind == "synthetic":
            if not self.technique or not self.parent:
                raise CorpusError("synthetic documents need technique and parent")
        else:
            raise CorpusError(f"unknown origin kind: {self.kind!r}")

    def to_json(self) -> dict:
        if self.kind == "original":
            return {"kind": "original"}
        return {
            "kind": "synthetic",
            "technique": self.technique,
            "lang": self.lang,
            "parent": self.parent,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Origin":
        if obj.get("kind") == "synthetic":
            return cls(
                kind="synthetic",
                technique=obj["technique"],
                lang=obj.get("lang"),
                parent=obj["parent"],
            )
        return cls()


ORIGINAL = Origin()


@dataclass(frozen=True)
class Document:
    id: str
    text: str
    label: str  # pos | neg | unsup
    split: str  # train | valid | test | unsup
    origin: Origin = ORIGINAL

    def __post_init__(self):
        if self.label not in LABELS:
            raise CorpusError(f"bad label {self.label!r} for document {self.id!r}")
        if self.split not in SPLITS:
            raise CorpusError(f"bad split {self.split!r} for document {self.id!r}")
        if self.split == "unsup" and self.label != "unsup":
            raise CorpusError(f"unsup-split document {self.id!r} must be unlabeled")
        if self.split != "unsup" and self.label == "unsup":
            raise CorpusError(f"{self.split}-split document {self.id!r} needs a pos/neg label")
        # A lone surrogate (which a JSON "\ud800" escape decodes to) cannot be
        # written out as UTF-8, so no output could hold this document.
        try:
            for value in (self.id, self.text, self.origin.technique, self.origin.lang):
                if value is not None:
                    value.encode("utf-8")
        except UnicodeEncodeError as e:
            raise CorpusError(f"document {self.id!r} is not valid UTF-8: {e}") from None

    @property
    def is_original(self) -> bool:
        return self.origin.kind == "original"


class Corpus:
    """Immutable ordered collection of documents with unique ids."""

    def __init__(self, documents: Iterable[Document] = ()):
        self._docs: list[Document] = []
        self._index: dict[str, int] = {}
        for doc in documents:
            if doc.id in self._index:
                raise CorpusError(f"duplicate document id: {doc.id!r}")
            self._index[doc.id] = len(self._docs)
            self._docs.append(doc)
        self._check_parents()

    def _check_parents(self):
        for doc in self._docs:
            if doc.origin.kind != "synthetic":
                continue
            parent = self._index.get(doc.origin.parent)
            if parent is None:
                raise CorpusError(
                    f"synthetic document {doc.id!r} has unresolved parent {doc.origin.parent!r}"
                )
            pdoc = self._docs[parent]
            if not pdoc.is_original:
                raise CorpusError(f"synthetic document {doc.id!r} has a synthetic parent")
            if pdoc.label != doc.label:
                raise CorpusError(
                    f"synthetic document {doc.id!r} label {doc.label!r} differs from parent"
                )

    def __len__(self) -> int:
        return len(self._docs)

    def __iter__(self) -> Iterator[Document]:
        return iter(self._docs)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._index

    def get(self, doc_id: str) -> Document:
        try:
            return self._docs[self._index[doc_id]]
        except KeyError:
            raise CorpusError(f"no document with id {doc_id!r}") from None

    def split_docs(self, split: str) -> list[Document]:
        return [d for d in self._docs if d.split == split]

    def with_documents(self, extra: Iterable[Document]) -> "Corpus":
        return Corpus(list(self._docs) + list(extra))


def ingest_imdb_dir(root_path: str | Path) -> Corpus:
    """Load an aclImdb-style directory tree into a corpus.

    Expects train/pos, train/neg, test/pos, test/neg (and optionally
    train/unsup), one UTF-8 text file per review.  Document ids are
    forward-slash relative paths; order is sorted by relative path.
    """
    root = Path(root_path)
    required = ["train/pos", "train/neg", "test/pos", "test/neg"]
    for rel in required:
        if not (root / rel).is_dir():
            raise CorpusError(f"missing required subdirectory: {rel}")

    subdirs = [("train/pos", "train", "pos"), ("train/neg", "train", "neg"),
               ("test/pos", "test", "pos"), ("test/neg", "test", "neg")]
    if (root / "train/unsup").is_dir():
        subdirs.append(("train/unsup", "unsup", "unsup"))

    docs = []
    for rel, split, label in subdirs:
        files = sorted((root / rel).iterdir(), key=lambda p: p.name)
        for f in files:
            if not f.is_file():
                continue
            try:
                text = f.read_text(encoding="utf-8")
            except UnicodeDecodeError as e:
                raise CorpusError(f"cannot decode {rel}/{f.name} as UTF-8: {e}") from e
            docs.append(Document(id=f"{rel}/{f.name}", text=text, label=label, split=split))
    return Corpus(docs)


def ingest_jsonl(path: str | Path) -> Corpus:
    """Load a corpus from the canonical JSONL interchange format."""
    docs = []
    seen = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                doc = Document(
                    id=obj["id"],
                    text=obj["text"],
                    label=obj["label"],
                    split=obj["split"],
                    origin=Origin.from_json(obj.get("origin", {"kind": "original"})),
                )
            except (json.JSONDecodeError, KeyError, TypeError, CorpusError) as e:
                raise CorpusError(f"{path}: malformed document at line {lineno}: {e}") from e
            if doc.id in seen:
                raise CorpusError(f"{path}: duplicate id {doc.id!r} at line {lineno}")
            seen.add(doc.id)
            docs.append(doc)
    return Corpus(docs)


def export_jsonl(corpus: Corpus, path: str | Path) -> None:
    """Write a corpus in the JSONL interchange format, byte-deterministically."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for doc in corpus:
                obj = {
                    "id": doc.id,
                    "text": doc.text,
                    "label": doc.label,
                    "split": doc.split,
                    "origin": doc.origin.to_json(),
                }
                fh.write(json.dumps(obj, ensure_ascii=False, sort_keys=True) + "\n")
    except OSError as e:
        raise CorpusError(f"cannot write corpus to {path}: {e}") from e


def subsample_balanced(corpus: Corpus, n: int, seed: int) -> Corpus:
    """Keep n label-balanced Original train documents; pass other splits through.

    Positive count is ceil(n/2), negative floor(n/2).  Selection is a pure
    function of (corpus contents, n, seed).
    """
    if n <= 0:
        raise CorpusError(f"subsample size must be positive, got {n}")
    pos = [d for d in corpus.split_docs("train") if d.is_original and d.label == "pos"]
    neg = [d for d in corpus.split_docs("train") if d.is_original and d.label == "neg"]
    need_pos = math.ceil(n / 2)
    need_neg = n // 2
    if len(pos) < need_pos or len(neg) < need_neg:
        raise CorpusError(
            f"insufficient train documents: need {need_pos} pos / {need_neg} neg, "
            f"have {len(pos)} pos / {len(neg)} neg"
        )
    rng = random.Random(seed)
    keep = set(d.id for d in rng.sample(sorted(pos, key=lambda d: d.id), need_pos))
    keep |= set(d.id for d in rng.sample(sorted(neg, key=lambda d: d.id), need_neg))
    return Corpus(d for d in corpus if d.split != "train" or d.id in keep)


def carve_validation(corpus: Corpus, valid_frac: float, seed: int) -> Corpus:
    """Move a seeded, balanced fraction of Original train documents to the valid split."""
    if not 0 < valid_frac < 1:
        raise CorpusError(f"valid_frac must be in (0,1), got {valid_frac}")
    moved: set[str] = set()
    rng = random.Random(seed)
    for label in ("pos", "neg"):
        pool = sorted(
            (d for d in corpus.split_docs("train") if d.is_original and d.label == label),
            key=lambda d: d.id,
        )
        k = max(1, round(valid_frac * len(pool))) if pool else 0
        moved.update(d.id for d in rng.sample(pool, k))
    return Corpus(
        replace(d, split="valid") if d.id in moved else d for d in corpus
    )
