"""Document model, dataset ingestion, JSONL interchange, and balanced subsampling."""
from __future__ import annotations

import contextlib
import json
import math
import os
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import IO, Iterable, Iterator, Optional

LABELS = ("pos", "neg", "unsup")
SPLITS = ("train", "valid", "test", "unsup")


class CorpusError(Exception):
    """Raised for malformed corpora, files, or directory layouts."""


class _BadDocument(CorpusError):
    """A document fails a check against the others; `position` is its index in the input."""

    def __init__(self, message: str, position: int):
        super().__init__(message)
        self.position = position


@dataclass(frozen=True, slots=True)
class Document:
    id: str
    text: str
    label: str  # pos | neg | unsup
    split: str  # train | valid | test | unsup
    parent: Optional[str] = None  # the original a synthetic document was made from
    technique: Optional[str] = None  # the augmentation that made it
    lang: Optional[str] = None  # its backtranslation pivot

    def __post_init__(self):
        if not isinstance(self.id, str) or not isinstance(self.text, str):
            raise CorpusError(f"document id and text must be strings, id is {self.id!r}")
        for value in (self.technique, self.lang, self.parent):
            if value is not None and not isinstance(value, str):
                raise CorpusError(f"origin technique, lang and parent must be strings "
                                  f"for document {self.id!r}")
        if self.parent is None:
            if self.technique is not None or self.lang is not None:
                raise CorpusError("original documents carry no synthesis metadata")
        elif not self.technique or not self.parent:
            raise CorpusError("synthetic documents need technique and parent")
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
            for value in (self.id, self.text, self.technique, self.lang):
                if value is not None:
                    value.encode("utf-8")
        except UnicodeEncodeError as e:
            raise CorpusError(f"document {self.id!r} is not valid UTF-8: {e}") from None

    @property
    def is_original(self) -> bool:
        return self.parent is None


class Corpus:
    """Immutable ordered collection of documents with unique ids."""

    def __init__(self, documents: Iterable[Document] = ()):
        self._docs: list[Document] = list(documents)
        index: dict[str, Document] = {}  # checks ids and parents, then is let go
        for doc in self._docs:
            if doc.id in index:  # every earlier id is in `index`
                raise _BadDocument(f"duplicate id {doc.id!r}", len(index))
            index[doc.id] = doc
        for position, doc in enumerate(self._docs):
            if doc.parent is None:
                continue
            pdoc = index.get(doc.parent)
            if pdoc is None:
                problem = f"has unresolved parent {doc.parent!r}"
            elif not pdoc.is_original:
                problem = "has a synthetic parent"
            elif pdoc.label != doc.label:
                problem = f"label {doc.label!r} differs from parent"
            else:
                continue
            raise _BadDocument(f"synthetic document {doc.id!r} {problem}", position)

    def __len__(self) -> int:
        return len(self._docs)

    def __iter__(self) -> Iterator[Document]:
        return iter(self._docs)

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


def _shared(value, names: tuple[str, ...]):
    """The string in `names` equal to `value`, so that documents share it; else `value`."""
    return names[names.index(value)] if value in names else value


def _provenance(origin) -> dict:
    """The parent, technique and lang of a line's `origin` object, as `export_jsonl`
    writes it; `Document` checks what the kind does not settle."""
    if not isinstance(origin, dict):
        raise CorpusError(f"origin must be a mapping, got {origin!r}")
    kind = origin.get("kind")
    if kind not in ("original", "synthetic"):
        raise CorpusError(f"unknown origin kind: {kind!r}")
    fields = {key: origin.get(key) for key in ("parent", "technique", "lang")}
    if kind == "original" and fields["parent"] is not None:
        raise CorpusError("original documents carry no synthesis metadata")
    if kind == "synthetic" and fields["parent"] is None:
        raise CorpusError("synthetic documents need technique and parent")
    return fields


def ingest_jsonl(path: str | Path) -> Corpus:
    """Load a corpus from the canonical JSONL interchange format."""
    docs = []
    linenos = []  # each document's line
    try:
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
                        label=_shared(obj["label"], LABELS),
                        split=_shared(obj["split"], SPLITS),
                        **_provenance(obj.get("origin", {"kind": "original"})),
                    )
                except (json.JSONDecodeError, KeyError, TypeError, CorpusError) as e:
                    raise CorpusError(f"{path}: malformed document at line {lineno}: {e}") from e
                docs.append(doc)
                linenos.append(lineno)
    except UnicodeDecodeError as e:
        raise CorpusError(f"cannot decode {path} as UTF-8: {e}") from None
    try:
        return Corpus(docs)  # checks the ids and parents once
    except _BadDocument as e:
        raise CorpusError(f"{path}: {e} at line {linenos[e.position]}") from None


@contextlib.contextmanager
def replacing(path: str | Path, mode: str) -> Iterator[IO]:
    """A handle in `mode` "w" (UTF-8, "\\n" line ends) or "wb" on `.{name}.{pid}.tmp`
    beside `path`, moved onto `path` when the block ends cleanly and removed when
    it raises.  Nothing is fsynced; a symlink at `path` is replaced, not followed."""
    opts = {"w": {"encoding": "utf-8", "newline": "\n"}, "wb": {}}[mode]
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        fh = open(tmp, mode, **opts)
    except OSError as e:  # name the output, not the temp file
        raise OSError(e.errno, e.strerror, os.fspath(path)) from None
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def export_jsonl(corpus: Corpus, path: str | Path) -> None:
    """Write a corpus in the JSONL interchange format, byte-deterministically."""
    with replacing(path, "w") as fh:
        for doc in corpus:
            obj = {
                "id": doc.id,
                "text": doc.text,
                "label": doc.label,
                "split": doc.split,
                "origin": {"kind": "original"} if doc.is_original else {
                    "kind": "synthetic", "technique": doc.technique, "lang": doc.lang,
                    "parent": doc.parent},
            }
            fh.write(json.dumps(obj, ensure_ascii=False, sort_keys=True) + "\n")


def subsample_balanced(corpus: Corpus, n: int, seed: int) -> Corpus:
    """Keep n label-balanced original train documents; pass other splits through.

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
    """Move a seeded, balanced fraction of original train documents to the valid split."""
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
