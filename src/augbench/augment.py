"""Tokenization, thesaurus lookup, and random token-perturbation augmentations."""
from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Optional, Sequence

from .corpus import Corpus, Document, Origin

_DATA_DIR = Path(__file__).parent / "data"

SENTENCE_FINAL = (".", "!", "?")


class AugmentError(Exception):
    pass


# A punctuation character is one that is neither alphanumeric nor whitespace
# (str.isalnum, str.isspace): `[^\w\s]`, or `_`, which `\w` includes.  A token
# is a maximal run of alphanumerics ([^\W_]) or of punctuation.
_TOKEN = re.compile(r"[^\W_]+|(?:[^\w\s]|_)+")

# A match (true) when every character of the token is punctuation; "" is one.
_is_punct_token = re.compile(r"(?:[^\w\s]|_)*").fullmatch


def tokenize(text: str) -> list[str]:
    """Split on whitespace; each maximal run of punctuation becomes its own token.

    Equal to `_TOKEN.findall(text)`: `str.split()` cuts at exactly the `\\s`
    characters (`str.isspace`) and `[^\\W_]` matches exactly the `str.isalnum`
    ones, so an `isalnum` chunk is one token and only the other chunks need the
    regex.  `tests/test_augment.py` checks both facts over every code point.
    """
    tokens: list[str] = []
    for chunk in text.split():
        if chunk.isalnum():
            tokens.append(chunk)
        else:
            tokens += _TOKEN.findall(chunk)
    return tokens


def detokenize(tokens: Sequence[str]) -> str:
    """Join with spaces; punctuation-only tokens attach to the preceding token."""
    pieces: list[str] = []  # empty until a nonempty token: no leading space
    for tok in tokens:
        if pieces and (tok.isalnum() or not _is_punct_token(tok)):
            pieces.append(" ")
        if tok:
            pieces.append(tok)
    return "".join(pieces)


class Thesaurus:
    """Case-insensitive word -> synonym-list lookup.  Stored forms are lowercase."""

    def __init__(self, entries: dict[str, list[str]] | None = None):
        self._entries: dict[str, list[str]] = {}
        for word, syns in (entries or {}).items():
            word = word.lower()
            cleaned = []
            for s in syns:
                s = s.lower()
                if s == word:
                    raise AugmentError(f"thesaurus entry {word!r} lists itself as a synonym")
                if s not in cleaned:
                    cleaned.append(s)
            if cleaned:
                self._entries[word] = cleaned

    @classmethod
    def from_tsv(cls, path: str | Path) -> "Thesaurus":
        """Read `word<TAB>syn1,syn2,...` lines; blank lines and # comments skipped."""
        entries: dict[str, list[str]] = {}
        try:
            with open(path, encoding="utf-8") as fh:
                for lineno, line in enumerate(fh, start=1):
                    line = line.rstrip("\n")
                    if not line.strip() or line.startswith("#"):
                        continue
                    parts = line.split("\t")
                    if len(parts) != 2:
                        raise AugmentError(f"{path}: bad thesaurus line {lineno}: {line!r}")
                    entries[parts[0].strip()] = [s.strip() for s in parts[1].split(",")
                                                 if s.strip()]
        except UnicodeDecodeError as e:
            raise AugmentError(f"cannot decode {path} as UTF-8: {e}") from None
        return cls(entries)

    def lookup(self, word: str) -> list[str]:
        return self._entries.get(word.lower(), [])

    def words(self) -> list[str]:
        return list(self._entries)


def bundled_thesaurus() -> Thesaurus:
    return Thesaurus.from_tsv(_DATA_DIR / "thesaurus.tsv")


def read_stopwords(path: str | Path) -> frozenset[str]:
    """The whitespace-separated words of a UTF-8 file, lowercased as
    `eligible_positions` needs."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise AugmentError(f"cannot decode {path} as UTF-8: {e}") from None
    return frozenset(w.lower() for w in text.split())


def bundled_stopwords() -> frozenset[str]:
    return read_stopwords(_DATA_DIR / "stopwords.txt")


def edit_count(alpha: float, length: int) -> int:
    """Number of edits for a sequence: max(1, round(alpha * length))."""
    return max(1, int(round(alpha * length)))


def _at_sentence_start(tokens: Sequence[str], i: int) -> bool:
    if i == 0:
        return True
    prev = tokens[i - 1]
    return _is_punct_token(prev) is not None and prev.endswith(SENTENCE_FINAL)


def _match_case(original: str, synonym: str, tokens: Sequence[str], i: int) -> str:
    if original.istitle() and _at_sentence_start(tokens, i):
        return synonym.title()
    return synonym


def eligible_positions(tokens: Sequence[str], thesaurus: Thesaurus,
                       stopwords: frozenset[str] | set[str]) -> list[int]:
    """Positions of the tokens that SR and RI may edit: non-stopword words with synonyms."""
    entries = thesaurus._entries  # `thesaurus.lookup(t)` without lowercasing `t` again
    return [
        i for i, t in enumerate(tokens)
        if (low := t.lower()) not in stopwords and low in entries and not _is_punct_token(t)
    ]


def synonym_replace(tokens: Sequence[str], eligible: Sequence[int], alpha: float,
                    thesaurus: Thesaurus, rng_seed: int) -> list[str]:
    """Replace up to max(1, round(alpha*len)) of the `eligible` tokens with uniform synonyms."""
    out = list(tokens)
    if not eligible:
        return out
    rng = random.Random(rng_seed)
    n = min(edit_count(alpha, len(tokens)), len(eligible))
    for i in sorted(rng.sample(eligible, n)):
        syn = rng.choice(thesaurus.lookup(tokens[i]))
        out[i] = _match_case(tokens[i], syn, tokens, i)
    return out


def random_insert(tokens: Sequence[str], eligible: Sequence[int], alpha: float,
                  thesaurus: Thesaurus, rng_seed: int) -> list[str]:
    """Insert max(1, round(alpha*len)) synonyms of random `eligible` tokens at random gaps."""
    out = list(tokens)
    if not eligible:
        return out
    rng = random.Random(rng_seed)
    for _ in range(edit_count(alpha, len(tokens))):
        word = tokens[rng.choice(eligible)]
        syn = rng.choice(thesaurus.lookup(word))
        out.insert(rng.randrange(len(out) + 1), syn)
    return out


def random_swap(tokens: Sequence[str], alpha: float, rng_seed: int) -> list[str]:
    """Exchange max(1, round(alpha*len)) uniformly random distinct position pairs."""
    out = list(tokens)
    if len(out) < 2:
        return out
    rng = random.Random(rng_seed)
    for _ in range(edit_count(alpha, len(out))):
        i, j = rng.sample(range(len(out)), 2)
        out[i], out[j] = out[j], out[i]
    return out


def random_delete(tokens: Sequence[str], p: float, rng_seed: int) -> list[str]:
    """Delete each token independently with probability p; retain one if all go."""
    tokens = list(tokens)
    if not tokens:
        return tokens
    rng = random.Random(rng_seed)
    out = [t for t in tokens if rng.random() >= p]
    if not out:
        out = [tokens[rng.randrange(len(tokens))]]
    return out


class AugTechnique(str, Enum):
    SYNONYM_REPLACE = "sr"
    RANDOM_INSERT = "ri"
    RANDOM_SWAP = "rs"
    RANDOM_DELETE = "rd"
    BACKTRANSLATE = "bt"


class LanguageStrategy(str, Enum):
    ALL_LANGUAGES = "all"
    ROUND_ROBIN = "roundrobin"


@dataclass
class AugmentSpec:
    technique: AugTechnique
    alpha: float = 0.1
    copies_per_original: int = 1
    languages: tuple[str, ...] = ()
    language_strategy: LanguageStrategy = LanguageStrategy.ALL_LANGUAGES
    seed: int = 0
    stopwords: frozenset[str] = field(default_factory=bundled_stopwords)

    def __post_init__(self):
        self.technique = _member(AugTechnique, self.technique, "technique")
        self.language_strategy = _member(LanguageStrategy, self.language_strategy,
                                         "language_strategy")
        if not 0.0 <= self.alpha <= 1.0:
            raise AugmentError(f"alpha must be in [0,1], got {self.alpha}")
        if self.copies_per_original < 1:
            raise AugmentError("copies_per_original must be >= 1")
        if self.technique is AugTechnique.BACKTRANSLATE:
            if not self.languages:
                raise AugmentError("backtranslation requires a nonempty language list")
            if self.copies_per_original != 1:
                # a second copy in one language would repeat the first (one cache key)
                raise AugmentError(f"copies_per_original must be 1 for technique bt, "
                                   f"got {self.copies_per_original}")
        elif self.languages:
            raise AugmentError(f"{self.technique.value} does not take languages")
        check_pivots(self.languages)
        self.languages = tuple(self.languages)


def check_pivots(languages: Sequence) -> None:
    """The pivot-language rule of augmentation and TTA alike: each code goes
    into doc ids and report.csv, is not the source language 'en' (which
    `backtranslate` refuses) and is listed once; AugmentError otherwise.  A
    bare string is refused too, since it would iterate as one-letter codes."""
    if isinstance(languages, str):
        raise AugmentError(f"languages must be a list of codes, not the string {languages!r}")
    for i, code in enumerate(languages):
        if not (isinstance(code, str) and re.fullmatch(r"[A-Za-z0-9_-]+", code)):
            raise AugmentError(f"language code {code!r} must be ASCII letters, digits, '-' or '_'")
        if code == "en":
            raise AugmentError("pivot language must differ from 'en'")
        if code in languages[:i]:
            raise AugmentError(f"language code {code!r} is listed twice")


def _member(enum, value, name: str):
    """`enum(value)`; an AugmentError naming the value and the legal ones otherwise."""
    try:
        return enum(value)
    except ValueError:
        legal = ", ".join(member.value for member in enum)
        raise AugmentError(f"unknown {name} {value!r}; expected one of: {legal}") from None


def derive_seed(*parts) -> int:
    """A 64-bit seed from the "|"-joined parts, e.g. (base seed, doc id, copy):
    per-document RNG streams, stable under corpus growth."""
    h = hashlib.sha256("|".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(h[:8], "big")


@dataclass
class AugmentRun:
    corpus: Corpus
    generated: int = 0
    unmodified: int = 0
    skipped: list[tuple[str, str]] = field(default_factory=list)  # (doc_id, reason)


def augment_dataset(
    corpus: Corpus,
    spec: AugmentSpec,
    thesaurus: Optional[Thesaurus] = None,
    translator=None,
    cache=None,
) -> AugmentRun:
    """Append k synthetic documents per Original train document.

    Backtranslation makes one copy per language, or under round-robin one
    per document, its language assigned cyclically in corpus order.
    Translation failures skip the document and are recorded.
    """
    bt = spec.technique is AugTechnique.BACKTRANSLATE
    if bt and translator is None:
        raise AugmentError("backtranslation requires a translation provider")
    if not bt and translator is not None:
        raise AugmentError("translator given for a non-backtranslation technique")
    if not bt and thesaurus is None:
        thesaurus = bundled_thesaurus()

    # imported here to break the cycle: translate imports bundled_thesaurus and derive_seed
    from . import translate as _translate

    originals = [d for d in corpus.split_docs("train") if d.is_original]
    run = AugmentRun(corpus=corpus)
    synthetics: list[Document] = []

    for pos, doc in enumerate(originals):
        if bt:
            if spec.language_strategy is LanguageStrategy.ALL_LANGUAGES:
                langs = spec.languages
            else:
                langs = (spec.languages[pos % len(spec.languages)],)
            for lang in langs:
                try:
                    rec = _translate.backtranslate(
                        doc.text, lang, translator, cache, parent_id=doc.id
                    )
                except _translate.TranslationError as e:
                    run.skipped.append((doc.id, f"{lang}: {e}"))
                    continue
                synthetics.append(_make_synthetic(doc, rec.final_text, spec, lang, 0))
        else:
            # Only the RNG stream differs between copies of one parent.
            toks = tokenize(doc.text)
            if spec.technique in (AugTechnique.SYNONYM_REPLACE, AugTechnique.RANDOM_INSERT):
                eligible = eligible_positions(toks, thesaurus, spec.stopwords)
            for copy in range(spec.copies_per_original):
                seed = derive_seed(spec.seed, doc.id, copy)
                if spec.technique is AugTechnique.SYNONYM_REPLACE:
                    new = synonym_replace(toks, eligible, spec.alpha, thesaurus, seed)
                elif spec.technique is AugTechnique.RANDOM_INSERT:
                    new = random_insert(toks, eligible, spec.alpha, thesaurus, seed)
                elif spec.technique is AugTechnique.RANDOM_SWAP:
                    new = random_swap(toks, spec.alpha, seed)
                else:
                    new = random_delete(toks, spec.alpha, seed)
                if new == toks:
                    run.unmodified += 1
                synthetics.append(_make_synthetic(doc, detokenize(new), spec, None, copy))

    run.generated = len(synthetics)
    run.corpus = corpus.with_documents(synthetics)
    return run


def _make_synthetic(
    parent: Document, text: str, spec: AugmentSpec, lang: Optional[str], copy: int
) -> Document:
    tag = f"{spec.technique.value}:{lang}" if lang else spec.technique.value
    return Document(
        id=f"{parent.id}#aug[{tag}:{copy}]",
        text=text,
        label=parent.label,
        split=parent.split,
        origin=Origin(kind="synthetic", technique=spec.technique.value, lang=lang,
                      parent=parent.id),
    )
