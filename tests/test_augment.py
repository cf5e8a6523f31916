import collections
import re

import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chisquare

from augbench.augment import (AugmentError, AugmentSpec, Thesaurus,
                              _is_punct_token, augment_dataset, bundled_stopwords,
                              bundled_thesaurus, detokenize, derive_seed, edit_count,
                              eligible_positions, random_delete, random_insert, random_swap,
                              synonym_replace, tokenize)
from augbench.translate import MockProvider, TranslationCache

import digests
from synth import make_review_corpus

TABLE1 = "A sad human comedy played out on the back roads of life."
STOP = bundled_stopwords()


def _reference_tokenize(text):
    """The original per-character tokenizer that `tokenize` must equal."""
    tokens = []
    for chunk in text.split():
        run = ""
        run_punct = False
        for c in chunk:
            p = not c.isalnum() and not c.isspace()
            if run and p != run_punct:
                tokens.append(run)
                run = ""
            run += c
            run_punct = p
        if run:
            tokens.append(run)
    return tokens


class TestTokenize:
    @given(st.text())
    @settings(max_examples=500, deadline=None)
    def test_equals_reference_char_loop(self, text):
        assert tokenize(text) == _reference_tokenize(text)

    @pytest.mark.parametrize("text", [
        "snake_case_word", "__init__", "a_", "_", "a _ b",  # `_` is punctuation
        "cafe\u0301 ok", "\u0301a", "a\u0301\u0301!",      # combining acute accent
        "\u0130stanbul \u0130", "\u0130\u0307",                # dotted capital I
        "\u0663\u0664 \u0967\u0968 \uff11\uff12 \u00b2\u00bd",     # non-ASCII digits, numerics
        "x\u00a0y\u2003z\u3000w", "tab\tnew\nline\x1fsep",   # Unicode whitespace, US separator
        "don't", "a,b", "_x_", "\u00b2!", "x\u0301.",         # chunks mixing words and punctuation
    ])
    def test_explicit_cases_equal_reference(self, text):
        assert tokenize(text) == _reference_tokenize(text)

    def test_unicode_premise_of_the_fast_path(self):
        # tokenize takes a chunk of str.split() that str.isalnum() accepts as one
        # token, and sends only the other chunks through the regex; that equals
        # the regex over the whole text only while these three hold.
        s = "".join(map(chr, range(0x110000)))
        assert re.findall(r"[^\W_]", s) == [c for c in s if c.isalnum()]
        assert re.findall(r"\s", s) == [c for c in s if c.isspace()]
        spaced = "".join(" " if c.isspace() else c for c in s)
        assert s.split() == [piece for piece in spaced.split(" ") if piece]

    def test_sentence(self):
        assert tokenize("A sad human comedy.") == ["A", "sad", "human", "comedy", "."]

    def test_empty(self):
        assert tokenize("") == []

    def test_punctuation_runs_are_single_tokens(self):
        assert tokenize("wow... really?!") == ["wow", "...", "really", "?!"]

    def test_detokenize_basic(self):
        assert detokenize(["A", "sad", "comedy", "."]) == "A sad comedy."
        assert detokenize([]) == ""
        assert detokenize(["Hello", ",", "world"]) == "Hello, world"

    @given(st.text(max_size=120))
    @settings(max_examples=300, deadline=None)
    def test_round_trip_preserves_non_whitespace(self, text):
        stripped = "".join(text.split())
        rebuilt = "".join(detokenize(tokenize(text)).split())
        assert rebuilt == stripped


def _reference_is_punct_token(tok):
    """The original per-character predicate that `_is_punct_token` must equal."""
    return all(not c.isalnum() and not c.isspace() for c in tok)


def _reference_detokenize(tokens):
    """The original `+=` loop that `detokenize` must equal."""
    out = ""
    for tok in tokens:
        if out and not _reference_is_punct_token(tok):
            out += " "
        out += tok
    return out


# Tokens that reach the predicate: empty, `_`, a combining mark alone and
# after a letter or punctuation, non-ASCII digits and numerics, Unicode
# whitespace, and synonyms of several words (a thesaurus file may hold them;
# SR and RI insert them as single tokens).
_MULTIWORD = ["a lot", "back road", "so - so", "sci-fi film", ", and", "! !", "_ _"]
_PUNCT_CASES = ["", "_", "__", "a_", "_!", "\u0301", "a\u0301", "!\u0301", "\u0663\u0664",
                "\u0967", "\uff11", "\u00b2", "\u00bd", "...", "?!", "-", "\u2014", " ", "\u00a0",
                "\u0130"] + _MULTIWORD
_tokens = st.lists(st.one_of(st.text(max_size=6), st.sampled_from(_PUNCT_CASES + ["A", "film"])),
                   max_size=12)


class TestPunctuationPredicate:
    @given(st.text())
    @settings(max_examples=500, deadline=None)
    def test_equals_reference(self, tok):
        assert bool(_is_punct_token(tok)) == _reference_is_punct_token(tok)

    @pytest.mark.parametrize("tok", _PUNCT_CASES)
    def test_explicit_cases_equal_reference(self, tok):
        assert bool(_is_punct_token(tok)) == _reference_is_punct_token(tok)

    @given(_tokens)
    @settings(max_examples=500, deadline=None)
    def test_detokenize_equals_reference(self, tokens):
        assert detokenize(tokens) == _reference_detokenize(tokens)

    @pytest.mark.parametrize("tokens", [
        [""], ["", "a"], ["", "", "a", "b"], ["a", "", "b"], ["", "."], [".", "a"],
        ["a", "b c", "!"], ["_", "x"],
    ])
    def test_detokenize_explicit_cases_equal_reference(self, tokens):
        assert detokenize(tokens) == _reference_detokenize(tokens)


class TestThesaurus:
    def test_case_insensitive_lookup(self):
        th = Thesaurus({"Sad": ["Lamentable"]})
        assert th.lookup("SAD") == ["lamentable"]

    def test_self_synonym_rejected(self):
        with pytest.raises(AugmentError):
            Thesaurus({"sad": ["sad"]})

    def test_line_without_tab_names_file_and_line(self, tmp_path):
        path = tmp_path / "th.tsv"
        path.write_text("# word<TAB>synonyms\nsad\tlamentable\n\nhappy glad\n",
                        encoding="utf-8")
        with pytest.raises(AugmentError) as info:
            Thesaurus.from_tsv(path)
        assert str(info.value) == f"{path}: bad thesaurus line 4: 'happy glad'"

    def test_bundled_file_loads(self):
        th = bundled_thesaurus()
        assert "lamentable" in th.lookup("sad")
        assert "backward" in th.lookup("back")
        assert "funniness" in th.lookup("comedy")


class TestEditCount:
    def test_floors_at_one(self):
        assert edit_count(0.0, 100) == 1
        assert edit_count(0.1, 3) == 1

    def test_rounds(self):
        assert edit_count(0.1, 20) == 2
        assert edit_count(0.1, 16) == 2


_ELIGIBLE_WORDS = ["good", "Good", "GOOD", "the", "The", "İ", "i̇", "straße",
                   "STRASSE", "!", "_", "good!", ""]


@given(st.lists(st.one_of(st.sampled_from(_ELIGIBLE_WORDS), st.text(max_size=4)), max_size=30))
@settings(max_examples=200, deadline=None)
def test_eligible_positions_equal_stopword_and_thesaurus_tests(tokens):
    th = Thesaurus({"good": ["fine"], "the": ["a"], "i̇": ["x"], "straße": ["road"]})
    stopwords = frozenset({"the", "strasse"})
    assert eligible_positions(tokens, th, stopwords) == [
        i for i, t in enumerate(tokens)
        if t.lower() not in stopwords and th.lookup(t) and not _is_punct_token(t)]


class TestSynonymReplace:
    def test_table1_example(self):
        # with only two eligible words and n=2, exactly those are replaced
        th = Thesaurus({"sad": ["lamentable"], "back": ["backward"]})
        toks = tokenize(TABLE1)
        alpha = 2 / len(toks)
        out = synonym_replace(toks, eligible_positions(toks, th, STOP), alpha, th, rng_seed=0)
        assert out == tokenize(
            "A lamentable human comedy played out on the backward roads of life.")

    def test_empty_input_identity(self):
        assert synonym_replace([], [], 0.0, Thesaurus(), 0) == []

    def test_single_token_always_replaced(self):
        th = Thesaurus({"good": ["fine"]})
        eligible = eligible_positions(["good"], th, STOP)
        outs = {tuple(synonym_replace(["good"], eligible, 0.1, th, s)) for s in range(100)}
        assert outs == {("fine",)}

    def test_no_entries_returns_input(self):
        toks = ["qqqq", "zzzz"]
        th = Thesaurus()
        assert synonym_replace(toks, eligible_positions(toks, th, STOP), 0.5, th, 1) == toks

    def test_length_preserved(self):
        th = bundled_thesaurus()
        toks = tokenize(TABLE1)
        eligible = eligible_positions(toks, th, STOP)
        for seed in range(20):
            assert len(synonym_replace(toks, eligible, 0.3, th, seed)) == len(toks)

    def test_title_case_kept_at_sentence_start(self):
        th = Thesaurus({"great": ["wonderful"]})
        toks = ["Great", "stuff"]
        out = synonym_replace(toks, eligible_positions(toks, th, STOP), 0.1, th, 0)
        assert out[0] == "Wonderful"

    def test_title_case_kept_only_after_sentence_final_punctuation(self):
        th = Thesaurus({"great": ["wonderful"]})
        toks = ["It", "ends", ".", "Great", "stuff", ",", "Great", "fun"]
        out = synonym_replace(toks, eligible_positions(toks, th, STOP), 1.0, th, 0)
        assert out == ["It", "ends", ".", "Wonderful", "stuff", ",", "wonderful", "fun"]

    def test_deterministic(self):
        th = bundled_thesaurus()
        toks = tokenize(TABLE1)
        eligible = eligible_positions(toks, th, STOP)
        assert synonym_replace(toks, eligible, 0.3, th, 42) == \
               synonym_replace(toks, eligible, 0.3, th, 42)


def _is_subsequence(needle, haystack):
    it = iter(haystack)
    return all(tok in it for tok in needle)


class TestRandomInsert:
    def test_table1_has_original_order(self):
        th = bundled_thesaurus()
        toks = tokenize(TABLE1)
        out = random_insert(toks, eligible_positions(toks, th, STOP), 0.05, th, rng_seed=3)
        assert len(out) == len(toks) + 1
        assert _is_subsequence(toks, out)

    def test_empty_input(self):
        assert random_insert([], [], 0.1, bundled_thesaurus(), 0) == []

    def test_no_eligible_token_returns_input(self):
        toks = ["qqqq", "zzzz"]
        th = Thesaurus()
        assert random_insert(toks, eligible_positions(toks, th, STOP), 0.1, th, 5) == toks

    @given(st.integers(min_value=0, max_value=2 ** 32))
    @settings(max_examples=200, deadline=None)
    def test_input_is_subsequence_of_output(self, seed):
        th = bundled_thesaurus()
        toks = tokenize("the great movie had an awful plot and a boring ending")
        out = random_insert(toks, eligible_positions(toks, th, STOP), 0.3, th, seed)
        assert _is_subsequence(toks, out)


class TestRandomSwap:
    def test_multiset_preserved(self):
        toks = tokenize(TABLE1)
        for seed in range(30):
            out = random_swap(toks, 0.2, seed)
            assert sorted(out) == sorted(toks)
            assert len(out) == len(toks)

    def test_short_input_unchanged(self):
        assert random_swap(["a"], 0.5, 0) == ["a"]
        assert random_swap([], 0.5, 0) == []

    def test_three_token_support_uniform(self):
        # n=1 on 3 distinct tokens: exactly the three transpositions, ~uniform
        counts = collections.Counter(
            tuple(random_swap(["a", "b", "c"], 0.1, seed)) for seed in range(3000)
        )
        expected = {("b", "a", "c"), ("c", "b", "a"), ("a", "c", "b")}
        assert set(counts) == expected
        _, p = chisquare(list(counts.values()))
        assert p > 0.01


class TestRandomDelete:
    def test_p_zero_identity(self):
        toks = tokenize(TABLE1)
        assert random_delete(toks, 0.0, 0) == toks

    def test_p_one_retains_exactly_one(self):
        outs = {tuple(random_delete(["a", "b"], 1.0, s)) for s in range(50)}
        assert outs == {("a",), ("b",)}

    def test_binomial_deletion_rate(self):
        import math
        n, p = 1000, 0.1
        toks = [f"w{i}" for i in range(n)]
        sigma = math.sqrt(n * p * (1 - p))
        deleted = [n - len(random_delete(toks, p, seed)) for seed in range(100)]
        # each draw stays in a generous envelope; the mean is tight
        assert all(abs(d - n * p) <= 5 * sigma for d in deleted)
        mean = sum(deleted) / len(deleted)
        assert abs(mean - n * p) <= 3 * sigma / math.sqrt(len(deleted))

    @given(st.integers(min_value=0, max_value=2 ** 32),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=300, deadline=None)
    def test_output_is_nonempty_subsequence(self, seed, p):
        toks = tokenize("one two three four five six seven")
        out = random_delete(toks, p, seed)
        assert out
        assert _is_subsequence(out, toks)


class TestAugmentSpec:
    def test_languages_only_for_bt(self):
        with pytest.raises(AugmentError):
            AugmentSpec(technique="sr", languages=("es",))
        with pytest.raises(AugmentError):
            AugmentSpec(technique="bt")

    def test_alpha_bounds(self):
        with pytest.raises(AugmentError):
            AugmentSpec(technique="rs", alpha=1.5)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(technique="foo"),
         "unknown technique 'foo'; expected one of: sr, ri, rs, rd, bt"),
        (dict(technique="bt", languages=("es",), language_strategy="rr"),
         "unknown language_strategy 'rr'; expected one of: all, roundrobin"),
    ])
    def test_unknown_enum_value_names_legal_ones(self, kwargs, message):
        with pytest.raises(AugmentError) as info:
            AugmentSpec(**kwargs)
        assert str(info.value) == message

    # a code is written into document ids and a report.csv field
    @pytest.mark.parametrize("languages, message", [
        (("e,s",), "language code 'e,s' must be ASCII letters, digits, '-' or '_'"),
        (("es+fr",), "language code 'es+fr' must be ASCII letters, digits, '-' or '_'"),
        (("",), "language code '' must be ASCII letters, digits, '-' or '_'"),
        (("es\n",), "language code 'es\\n' must be ASCII letters, digits, '-' or '_'"),
        (("\u00e9s",), "language code '\u00e9s' must be ASCII letters, digits, '-' or '_'"),
        ((1,), "language code 1 must be ASCII letters, digits, '-' or '_'"),
        (("en",), "pivot language must differ from 'en'"),
        (("es", "es"), "language code 'es' is listed twice"),
        (("fr", "es", "de", "es"), "language code 'es' is listed twice"),
    ])
    def test_bad_language_codes(self, languages, message):
        with pytest.raises(AugmentError) as info:
            AugmentSpec(technique="bt", languages=languages)
        assert str(info.value) == message

    def test_language_codes_with_region(self):
        spec = AugmentSpec(technique="bt", languages=("zh-CN", "pt_BR", "es"))
        assert spec.languages == ("zh-CN", "pt_BR", "es")

    # all-languages ignored the copies; round-robin made byte-identical ones
    @pytest.mark.parametrize("strategy", ["all", "roundrobin"])
    def test_bt_takes_one_copy(self, strategy):
        with pytest.raises(AugmentError) as info:
            AugmentSpec(technique="bt", languages=("es", "fr"), language_strategy=strategy,
                        copies_per_original=3)
        assert str(info.value) == "copies_per_original must be 1 for technique bt, got 3"


class TestAugmentDataset:
    def test_bt_all_languages_counts(self):
        corp = make_review_corpus(n_train=50, n_test=0)
        langs = tuple(f"l{i}" for i in range(10))
        spec = AugmentSpec(technique="bt", languages=langs)
        run = augment_dataset(corp, spec, translator=MockProvider(0),
                              cache=TranslationCache())
        assert run.generated == 500
        assert len(run.corpus) == len(corp) + 500

    def test_single_copy_grows_by_one(self):
        corp = make_review_corpus(n_train=1, n_test=0)
        run = augment_dataset(corp, AugmentSpec(technique="rs"))
        assert len(run.corpus) == len(corp) + 1

    def test_labels_inherited_and_parents_resolve(self):
        corp = make_review_corpus(n_train=100, n_test=10)
        run = augment_dataset(corp, AugmentSpec(technique="sr", copies_per_original=2))
        by_id = {d.id: d for d in run.corpus}
        for doc in run.corpus:
            if doc.is_original:
                continue
            parent = by_id[doc.parent]
            assert parent.is_original
            assert parent.label == doc.label

    def test_originals_never_mutated(self):
        corp = make_review_corpus(n_train=20, n_test=5)
        before = {d.id: d.text for d in corp}
        run = augment_dataset(corp, AugmentSpec(technique="rd", alpha=0.3))
        after = {d.id: d.text for d in run.corpus if d.is_original}
        assert after == before

    def test_round_robin_cycles_languages(self):
        corp = make_review_corpus(n_train=6, n_test=0)
        spec = AugmentSpec(technique="bt", languages=("es", "fr"),
                           language_strategy="roundrobin")
        run = augment_dataset(corp, spec, translator=MockProvider(0),
                              cache=TranslationCache())
        langs = [d.lang for d in run.corpus if not d.is_original]
        assert langs == ["es", "fr", "es", "fr", "es", "fr"]

    def test_synthetics_stable_under_corpus_growth(self):
        # per-document seeding: adding documents must not change others' synthetics
        small = make_review_corpus(n_train=10, n_test=0)
        big = make_review_corpus(n_train=20, n_test=0)
        spec = AugmentSpec(technique="rs", alpha=0.2, seed=5)
        small_out = {d.id: d.text for d in augment_dataset(small, spec).corpus
                     if not d.is_original}
        big_out = {d.id: d.text for d in augment_dataset(big, spec).corpus
                   if not d.is_original}
        for doc_id, text in small_out.items():
            assert big_out[doc_id] == text

    def test_deterministic(self):
        corp = make_review_corpus(n_train=30, n_test=5)
        spec = AugmentSpec(technique="ri", alpha=0.1, seed=9)
        a = [(d.id, d.text) for d in augment_dataset(corp, spec).corpus]
        b = [(d.id, d.text) for d in augment_dataset(corp, spec).corpus]
        assert a == b

    def test_translator_required_iff_bt(self):
        corp = make_review_corpus(n_train=2, n_test=0)
        with pytest.raises(AugmentError):
            augment_dataset(corp, AugmentSpec(technique="bt", languages=("es",)))
        with pytest.raises(AugmentError):
            augment_dataset(corp, AugmentSpec(technique="rs"),
                            translator=MockProvider(0))


class TestPerParentWork:
    @pytest.mark.parametrize("technique", digests.EDA_TECHNIQUES)
    def test_corpus_matches_recorded_digest(self, technique, tmp_path):
        assert digests.augment_corpus(technique, tmp_path) == digests.recorded(
            f"augment_{technique}")

    @pytest.mark.parametrize("technique,edit", [("sr", synonym_replace),
                                                ("ri", random_insert)])
    def test_copies_equal_public_functions_per_copy(self, technique, edit):
        corp = make_review_corpus(n_train=20, n_test=0, seed=4)
        spec = AugmentSpec(technique=technique, alpha=0.15, copies_per_original=3, seed=2)
        thesaurus = bundled_thesaurus()
        run = augment_dataset(corp, spec, thesaurus=thesaurus)
        got = {d.id: d.text for d in run.corpus if not d.is_original}
        for doc in corp:
            for copy in range(3):
                seed = derive_seed(spec.seed, doc.id, copy)
                toks = tokenize(doc.text)
                eligible = eligible_positions(toks, thesaurus, spec.stopwords)
                new = edit(toks, eligible, spec.alpha, thesaurus, seed)
                assert got[f"{doc.id}#aug[{technique}:{copy}]"] == detokenize(new)


def test_derive_seed_distinct_streams():
    seeds = {derive_seed(0, f"doc{i}", c) for i in range(50) for c in range(3)}
    assert len(seeds) == 150
