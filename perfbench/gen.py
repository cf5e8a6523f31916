"""Seeded workload inputs: corpus JSONL, YAML config and (tta-analyze) a warm cache.

Every input is a pure function of (workload, variant).  The benchmark owns the
vocabulary, the templates and the sizes; it does not use `augbench.synth`.  The
warm translation cache is built with the program's `MockProvider` and
`TranslationCache`, so a change to either shows as an input digest mismatch.
"""
from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

# The workload seed selects one of these input variants (seed mod N_VARIANTS),
# so that every run can be checked against recorded output digests.
N_VARIANTS = 32

PIVOTS = ("es", "fr", "de", "af", "ru", "cs", "et", "ht", "bn", "it")

# "rep_s" is the time one repetition (child start to digests checked) took at
# the recorded baseline; run.py fits `--seconds / rep_s` repetitions into a run,
# so the count never depends on the speed of the program under test.
WORKLOADS = {
    # Long (mean ~230 tokens) large-vocabulary reviews; SR x4 sweep.  The
    # training sets outweigh the small test split, so little work repeats.
    "sweep-eda": {
        "rep_s": 3.75,
        "corpus": {"kind": "zipf", "n_train": 1200, "n_test": 60, "n_valid": 0,
                   "sentences": 14},
        "config": {"train_sizes": [30, 150], "seeds": [0, 1, 2], "valid_frac": 0.1,
                   "augment": {"technique": "sr", "alpha": 0.1, "copies": 4}},
    },
    # ~40-token template reviews; 10-pivot mock backtranslation, cold cache.  The
    # large test split is re-featurized in every run, so much work repeats.
    "sweep-bt": {
        "rep_s": 4.0,
        "corpus": {"kind": "template", "n_train": 1000, "n_test": 1500, "n_valid": 0},
        "config": {"train_sizes": [50, 200], "seeds": [0, 1, 2], "valid_frac": 0.1,
                   "augment": {"technique": "bt", "languages": list(PIVOTS),
                               "language_strategy": "all"}},
    },
    # Short (~60 tokens) large-vocabulary reviews; TTA from a warm cache + analysis.
    "tta-analyze": {
        "rep_s": 3.3,
        "corpus": {"kind": "zipf", "n_train": 1000, "n_test": 200, "n_valid": 100,
                   "sentences": 3.2},
        "config": {"train_sizes": [400], "seeds": [0], "valid_frac": 0.1,
                   "augment": {"technique": "bt", "languages": list(PIVOTS),
                               "language_strategy": "all"}},
    },
}

# Words listed in the bundled thesaurus, so that SR and the mock provider's
# drift find targets.  Sentiment words carry the label signal.
POS_WORDS = ("great", "wonderful", "excellent", "amazing", "brilliant", "charming",
             "delightful", "beautiful", "funny", "touching", "memorable", "perfect",
             "enjoyable", "compelling", "gripping", "clever", "powerful", "masterpiece")
NEG_WORDS = ("awful", "terrible", "boring", "dull", "horrible", "disappointing",
             "predictable", "tedious", "ridiculous", "annoying", "clumsy", "forgettable",
             "mediocre", "stupid", "mess", "waste", "disaster", "cheap")
TOPIC_WORDS = ("movie", "film", "story", "plot", "script", "scene", "character",
               "performance", "actor", "actress", "director", "ending", "music", "voice",
               "family", "friend", "world", "war", "night", "life", "house", "money",
               "moment", "idea", "heart", "mind", "comedy", "road", "people", "time")
FUNCTION_WORDS = ("the", "a", "and", "of", "to", "is", "it", "in", "this", "that",
                  "was", "with", "for", "but", "as", "on", "his", "her", "they", "be",
                  "at", "by", "an", "are", "from", "not", "have", "one", "all", "who")

_CONSONANTS = "bcdfghjklmnprstvz"
_VOWELS = "aeiou"
_SYLLABLES = [c + v for c in _CONSONANTS for v in _VOWELS]  # 85


def _pseudo_word(i: int) -> str:
    """Distinct lowercase non-English word for every i >= 0 (at least two syllables)."""
    i += len(_SYLLABLES)
    out = []
    while i:
        i, r = divmod(i, len(_SYLLABLES))
        out.append(_SYLLABLES[r])
    return "".join(reversed(out))


def _zipf_vocab(size: int, exponent: float) -> tuple[list[str], list[float]]:
    head = list(FUNCTION_WORDS) + list(TOPIC_WORDS)
    words = head + [_pseudo_word(i) for i in range(size - len(head))]
    cum, total = [], 0.0
    for rank in range(1, size + 1):
        total += rank ** -exponent
        cum.append(total)
    return words, cum


_ZIPF = {}


def _zipf_review(shape: random.Random, rng: random.Random, positive: bool,
                 sentences: float) -> str:
    if not _ZIPF:
        _ZIPF["vocab"] = _zipf_vocab(400_000, 1.0)
    words, cum = _ZIPF["vocab"]
    sentiment = POS_WORDS if positive else NEG_WORDS
    out = []
    for _ in range(int(shape.expovariate(1.0 / sentences)) + 1):
        k = shape.randint(6, 24)
        toks = rng.choices(words, cum_weights=cum, k=k)
        if shape.random() < 0.5:
            toks[shape.randrange(k)] = rng.choice(sentiment)
        if shape.random() < 0.3:
            toks[shape.randrange(k)] += ","
        toks[0] = toks[0].capitalize()
        out.append(" ".join(toks) + rng.choice(".....!?"))
    return " ".join(out)


_TEMPLATES = (
    "The {topic} was {adj}.",
    "I {verb} the {topic} and found it {adj}.",
    "Overall a {adj} {topic} that I {verb}.",
    "Honestly the {topic} felt {adj} from start to finish!",
    "My friend {verb} the {topic} too.",
    "The {topic} and the {topic2} were both {adj}.",
)
_FILLER = (
    "We watched it last night with the family.",
    "It played at the local theater for two weeks.",
    "There were maybe a dozen people in the audience.",
    "The trailer gave away very little.",
)
_POS_VERBS = ("loved", "enjoyed", "liked", "admired")
_NEG_VERBS = ("hated", "disliked", "regretted", "endured")


def _template_review(shape: random.Random, rng: random.Random, positive: bool) -> str:
    adjs = POS_WORDS if positive else NEG_WORDS
    verbs = _POS_VERBS if positive else _NEG_VERBS
    out = []
    for _ in range(shape.randint(4, 6)):
        if shape.random() < 0.2:
            out.append(_FILLER[shape.randrange(len(_FILLER))])
        else:
            out.append(_TEMPLATES[shape.randrange(len(_TEMPLATES))].format(
                topic=rng.choice(TOPIC_WORDS[:12]), topic2=rng.choice(TOPIC_WORDS[:12]),
                adj=rng.choice(adjs), verb=rng.choice(verbs)))
    out[0] = out[0][0].upper() + out[0][1:]
    return " ".join(out)


def _corpus_lines(spec: dict, shape: random.Random, rng: random.Random) -> list[str]:
    """Document shapes (sentence and token counts) come from `shape`, words from `rng`."""
    lines = []
    for split in ("train", "valid", "test"):
        for i in range(spec[f"n_{split}"]):
            positive = i % 2 == 0
            label = "pos" if positive else "neg"
            if spec["kind"] == "zipf":
                text = _zipf_review(shape, rng, positive, spec["sentences"])
            else:
                text = _template_review(shape, rng, positive)
            obj = {"id": f"{split}/{label}/{i:05d}.txt", "text": text, "label": label,
                   "split": split, "origin": {"kind": "original"}}
            lines.append(json.dumps(obj, ensure_ascii=False, sort_keys=True))
    return lines


def _yaml(config: dict) -> str:
    out = []
    for key, value in config.items():
        if isinstance(value, dict):
            out.append(f"{key}:")
            out += [f"  {k}: {json.dumps(v)}" for k, v in value.items()]
        else:
            out.append(f"{key}: {json.dumps(value)}")
    return "\n".join(out) + "\n"


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _build_warm_cache(corpus_path: Path, cache_path: Path, languages) -> None:
    """Round-trip every valid and test document through MockProvider into a cache file."""
    from augbench.corpus import ingest_jsonl
    from augbench.translate import MockProvider, TranslationCache, backtranslate

    provider = MockProvider(seed=0)
    cache = TranslationCache(cache_path)
    for doc in ingest_jsonl(corpus_path):
        if doc.split in ("valid", "test"):
            for lang in languages:
                backtranslate(doc.text, lang, provider, cache, parent_id=doc.id)


def generate(workload: str, variant: int, out_dir: str | Path) -> dict[str, str]:
    """Write the workload's inputs to out_dir; return {file name: sha256}.

    Needs `augbench` importable for tta-analyze (the warm cache).
    """
    spec = WORKLOADS[workload]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # Variants share document shapes, so the work per run barely depends on the seed.
    shape = random.Random(f"{workload}/shape")
    rng = random.Random(f"{workload}/{variant}")
    lines = _corpus_lines(spec["corpus"], shape, rng)
    corpus = out / "corpus.jsonl"
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
    (out / "config.yaml").write_text(_yaml(spec["config"]), encoding="utf-8")
    names = ["corpus.jsonl", "config.yaml"]
    if workload == "tta-analyze":
        cache = out / "warm_cache.jsonl"
        cache.unlink(missing_ok=True)
        _build_warm_cache(corpus, cache, spec["config"]["augment"]["languages"])
        names.append("warm_cache.jsonl")
    return {name: sha256_file(out / name) for name in names}
