import pytest
from hypothesis import settings

from augbench.corpus import Corpus, Document
from augbench.translate import MockProvider, PermanentTranslationError

from synth import make_review_corpus

# Properties draw the same examples on every run, so a Tier-1 result does not
# depend on the run; `database=None` keeps nothing between runs.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def build_imdb_tree(root, train_pos=2, train_neg=2, test_pos=1, test_neg=1, unsup=0):
    """Create a minimal aclImdb-style directory layout under `root`."""
    contents = {
        "train/pos": (train_pos, "a great film, really {i}"),
        "train/neg": (train_neg, "an awful film, truly {i}"),
        "test/pos": (test_pos, "wonderful stuff {i}"),
        "test/neg": (test_neg, "terrible stuff {i}"),
    }
    if unsup:
        contents["train/unsup"] = (unsup, "some film {i}")
    for rel, (count, template) in contents.items():
        d = root / rel
        d.mkdir(parents=True)
        for i in range(count):
            (d / f"{i}_7.txt").write_text(template.format(i=i), encoding="utf-8")
    return root


@pytest.fixture
def imdb_dir(tmp_path):
    return build_imdb_tree(tmp_path / "aclImdb")


@pytest.fixture
def small_corpus():
    return make_review_corpus(n_train=40, n_test=20, seed=0)


@pytest.fixture
def micro_corpus():
    return make_review_corpus(n_train=200, n_test=60, seed=1)


class _PivotDownProvider(MockProvider):
    """MockProvider whose every round trip through French fails."""

    def translate(self, text, source, target):
        if "fr" in (source, target):
            raise PermanentTranslationError("fr backend down")
        return super().translate(text, source, target)


@pytest.fixture
def fr_down_provider():
    return _PivotDownProvider(0)
