"""Deterministic synthetic movie-review corpus, and the pivot languages of
`configs/low_resource_backtranslate.yaml`, for hermetic tests."""
from __future__ import annotations

import random

from augbench.corpus import Corpus, Document

# Table 2 names 9 pivot languages for its 10-language row; the tenth is not
# published, so "it" fills the slot (see README, "Experiment configs").
TABLE2_LANGUAGES = ("es", "fr", "de", "af", "ru", "cs", "et", "ht", "bn", "it")

_POS_ADJ = ["great", "wonderful", "excellent", "amazing", "brilliant", "charming",
            "compelling", "delightful", "beautiful", "funny", "touching", "memorable"]
_NEG_ADJ = ["awful", "terrible", "boring", "dull", "horrible", "disappointing",
            "predictable", "tedious", "ridiculous", "annoying", "clumsy", "forgettable"]
_NOUNS = ["movie", "film", "story", "plot", "script", "acting", "performance",
          "ending", "director", "cast", "dialogue", "soundtrack"]
_POS_VERB = ["loved", "enjoyed", "admired", "recommended"]
_NEG_VERB = ["hated", "regretted", "despised", "avoided"]
_FILLER = [
    "I watched it last night with my family.",
    "The runtime felt about right for this kind of picture.",
    "It was shown at our local theater for two weeks.",
    "My friend suggested we see it together.",
    "The trailer gave away very little of the plot.",
    "There were maybe a dozen people in the audience.",
]


def _review(rng: random.Random, positive: bool) -> str:
    adj = _POS_ADJ if positive else _NEG_ADJ
    verb = _POS_VERB if positive else _NEG_VERB
    sentences = [f"The {rng.choice(_NOUNS)} was {rng.choice(adj)}."]
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.4:
            sentences.append(rng.choice(_FILLER))
        else:
            sentences.append(
                f"I {rng.choice(verb)} the {rng.choice(_NOUNS)} and found it "
                f"{rng.choice(adj)}."
            )
    sentences.append(
        f"Overall a {rng.choice(adj)} {rng.choice(_NOUNS)} that I "
        f"{rng.choice(verb)}."
    )
    rng.shuffle(sentences)
    return " ".join(sentences)


def make_review_corpus(n_train: int = 200, n_test: int = 100, seed: int = 0,
                       n_unsup: int = 0) -> Corpus:
    """Balanced template-based review corpus; fully deterministic in the arguments."""
    rng = random.Random(seed)
    docs = []
    for split, count in (("train", n_train), ("test", n_test)):
        for i in range(count):
            positive = i % 2 == 0
            docs.append(Document(
                id=f"{split}/{'pos' if positive else 'neg'}/{i:05d}.txt",
                text=_review(rng, positive),
                label="pos" if positive else "neg",
                split=split,
            ))
    for i in range(n_unsup):
        docs.append(Document(
            id=f"train/unsup/{i:05d}.txt",
            text=_review(rng, rng.random() < 0.5),
            label="unsup",
            split="unsup",
        ))
    return Corpus(docs)
