import errno
import hashlib
import json
import os
import random
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from augbench.augment import AugmentSpec, augment_dataset, bundled_thesaurus, derive_seed
from augbench.corpus import Corpus, Document
from augbench.ensemble import tta_generate
from augbench.translate import (CacheError, HttpProvider, MockProvider,
                                PermanentTranslationError, ReplayProvider, TokenBucket,
                                TransientTranslationError, TranslationCache, TranslationError,
                                backtranslate, cache_key, paper_cache_path)

from synth import TABLE2_LANGUAGES

TABLE1 = "A sad human comedy played out on the back roads of life."
TABLE1_BT_ES = "A sad human comedy that develops in the secondary roads of life."


class CountingProvider:
    """Identity provider that counts calls."""

    def __init__(self, provider_id="counting"):
        self.provider_id = provider_id
        self.calls = 0

    def translate(self, text, source, target):
        self.calls += 1
        return text


class SurrogateProvider:
    """Identity provider whose reply on one leg holds a lone surrogate."""

    provider_id = "surrogate"

    def __init__(self, leg):
        self.leg = leg

    def translate(self, text, source, target):
        if (source == "en") == (self.leg == "forward"):
            return text + " \ud800"
        return text


# Any text without a lone surrogate (the cache refuses those), with line and
# paragraph separators, NEL, tabs, carriage returns and astral characters
# drawn often: JSON escapes some of them, and the file is split on b"\n".
_CACHE_TEXT = st.text(st.characters(blacklist_categories=("Cs",))
                      | st.sampled_from(["\u2028", "\u2029", "\u0085", "\t", "\r", "\n",
                                         "\U0001f600", "\U0010ffff"]))


# Cache key parts with NUL, a line separator and astral characters drawn often.
_KEY_PART = st.text(st.characters(blacklist_categories=("Cs",))
                    | st.sampled_from(["\x00", "\u2028", "\U0001f600"]))


class TestCache:
    def test_round_trip_and_compaction(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        with TranslationCache(path) as c:
            c.put(b"k1", "en", "es", "p", "hello", "hola")
            c.put(b"k1", "en", "es", "p", "hello", "hola2")  # later entry wins
            c.put(b"k2", "es", "en", "p", "hola", "hello")
        reloaded = TranslationCache(path)
        assert reloaded.get(b"k1") == "hola2"
        assert reloaded.get(b"k2") == "hello"

    def test_append_does_not_corrupt_prior_entries(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        with TranslationCache(path) as c1:
            c1.put(b"a", "en", "es", "p", "x", "y")
        with TranslationCache(path) as c2:
            c2.put(b"b", "en", "es", "p", "u", "v")
        final = TranslationCache(path)
        assert final.get(b"a") == "y" and final.get(b"b") == "v"

    @pytest.mark.parametrize("line", ["{not json}", '{"key": [1], "result": "x"}',
                                      '{"key": "k", "result": 5}', '{"key": "k"}',
                                      '["k", "x"]', '"k"'])
    def test_bad_cache_line_reports_path(self, tmp_path, line):
        path = tmp_path / "bad.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(CacheError, match=f"{path}: bad cache line 1: "):
            TranslationCache(path)

    @pytest.mark.parametrize("key", ["6B31", "6b3", "k1", " 6b31", "6b 31", "6b31\n"])
    def test_key_not_lowercase_hex_is_a_bad_line(self, tmp_path, key):
        # `put` writes `bytes.hex`; `bytes.fromhex` alone would take some of these
        path = tmp_path / "bad.jsonl"
        with TranslationCache(path) as c:
            c.put(b"k1", "en", "es", "p", "x", "y")
        line = json.dumps({"key": key, "result": "y"}).encode("utf-8")
        path.write_bytes(path.read_bytes() + line + b"\n")
        with pytest.raises(CacheError, match=f"{path}: bad cache line 2: key must be "
                                             f"lowercase hex, got {re.escape(repr(key))}"):
            TranslationCache(path)

    def test_torn_final_line_of_the_wrong_type_skipped_and_cut(self, tmp_path, caplog):
        path = tmp_path / "cache.jsonl"
        with TranslationCache(path) as c:
            c.put(b"a", "en", "es", "p", "x", "y")
        path.write_bytes(path.read_bytes() + b'{"key": "6b", "result": 5}')  # b"k"
        with TranslationCache(path) as torn:
            assert (torn.get(b"a"), torn.get(b"k")) == ("y", None)
            assert "torn final cache line 2" in caplog.text
            torn.put(b"b", "en", "es", "p", "u", "v")
        final = TranslationCache(path)
        assert (final.get(b"a"), final.get(b"b"), final.get(b"k")) == ("y", "v", None)

    def test_torn_final_line_skipped_and_repaired(self, tmp_path, caplog):
        path = tmp_path / "cache.jsonl"
        with TranslationCache(path) as c:
            c.put(b"a", "en", "es", "p", "x", "y")
            c.put(b"b", "en", "es", "p", "u", "v")
        path.write_bytes(path.read_bytes()[:-10])  # a put cut short by a kill
        with TranslationCache(path) as torn:
            assert (torn.get(b"a"), torn.get(b"b")) == ("y", None)
            assert "torn final cache line 2" in caplog.text
            torn.put(b"c", "en", "es", "p", "w", "z")
        final = TranslationCache(path)
        assert (final.get(b"a"), final.get(b"b"), final.get(b"c")) == ("y", None, "z")

    def test_unterminated_final_line_kept_and_ended(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        with TranslationCache(path) as c:
            c.put(b"a", "en", "es", "p", "x", "y")
        path.write_bytes(path.read_bytes().rstrip(b"\n"))  # a hand-edited file
        with TranslationCache(path) as edited:
            assert edited.get(b"a") == "y"
            edited.put(b"b", "en", "es", "p", "u", "v")
        final = TranslationCache(path)
        assert (final.get(b"a"), final.get(b"b")) == ("y", "v")

    def test_torn_multibyte_character_skipped(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        with TranslationCache(path) as c:
            c.put(b"a", "en", "es", "p", "x", "\u00e9t\u00e9")
        data = path.read_bytes()
        path.write_bytes(data[:data.index("\u00e9".encode("utf-8")) + 1])
        assert TranslationCache(path).get(b"a") is None

    def test_bad_line_before_the_last_still_fails(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        with TranslationCache(path) as c:
            c.put(b"a", "en", "es", "p", "x", "y")
        path.write_bytes(b"{not json}\n" + path.read_bytes())
        with pytest.raises(CacheError, match="bad cache line 1"):
            TranslationCache(path)

    @pytest.mark.parametrize("damage", ["torn", "unterminated"])
    def test_two_caches_share_one_file(self, tmp_path, damage):
        path = tmp_path / "cache.jsonl"
        with TranslationCache(path) as a, TranslationCache(path) as b:
            a.put(b"a1", "en", "es", "p", "x", "y")
            b.put(b"b1", "en", "es", "p", "x", "y")
            last = path.read_bytes().splitlines(keepends=True)[-1]
            unended = last.replace(b"b1".hex().encode(), b"c1".hex().encode())[:-1]
            with open(path, "ab") as fh:  # a third writer's final line, cut or unended
                fh.write(last[:20] if damage == "torn" else unended)
            a.put(b"a2", "en", "es", "p", "x", "y")
            b.put(b"b2", "en", "es", "p", "x", "y")
        raw = path.read_bytes()
        assert raw.endswith(b"\n") and all(line.endswith(b"}") for line in raw.splitlines())
        reloaded = TranslationCache(path)
        assert [reloaded.get(k) for k in (b"a1", b"b1", b"a2", b"b2")] == ["y"] * 4
        assert reloaded.get(b"c1") == (None if damage == "torn" else "y")

    def test_second_process_mends_the_first_ones_torn_line(self, tmp_path):
        # Each child appends through its own cache.  The first is killed just
        # after a put has written part of its line, so the file ends torn.
        first = """if True:
            import os, signal, sys
            from augbench.translate import TranslationCache
            cache = TranslationCache(sys.argv[1])
            cache.put(b"a1", "en", "es", "p", "x", "y1")
            cache.put(b"a2", "en", "es", "p", "x", "y2")
            with open(sys.argv[1], "rb") as fh:
                last = fh.read().splitlines(keepends=True)[-1]
            with open(sys.argv[1], "ab") as fh:
                fh.write(last.replace(b"a2".hex().encode(), b"a3".hex().encode())[:30])
            os.kill(os.getpid(), signal.SIGKILL)
        """
        second = """if True:
            import sys
            from augbench.translate import TranslationCache
            with TranslationCache(sys.argv[1]) as cache:
                assert (cache.get(b"a1"), cache.get(b"a2"), cache.get(b"a3")) == ("y1", "y2", None)
                cache.put(b"b1", "en", "es", "p", "x", "z1")
                cache.put(b"b2", "en", "es", "p", "x", "z2")
        """
        import augbench

        path = tmp_path / "cache.jsonl"
        env = dict(os.environ, PYTHONPATH=str(Path(augbench.__file__).parent.parent))
        runs = [subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                               capture_output=True, text=True, timeout=60)
                for code in (first, second)]
        assert runs[0].returncode == -signal.SIGKILL, runs[0].stderr
        assert runs[1].returncode == 0, runs[1].stderr
        assert "skipped torn final cache line 3" in runs[1].stderr
        raw = path.read_bytes()
        assert raw.endswith(b"\n") and all(line.endswith(b"}") for line in raw.splitlines())
        reloaded = TranslationCache(path)
        assert ([reloaded.get(k) for k in (b"a1", b"a2", b"a3", b"b1", b"b2")]
                == ["y1", "y2", None, "z1", "z2"])

    def test_tail_read_only_after_another_writer(self, tmp_path, monkeypatch):
        import augbench.translate as translate

        reads = []
        pread = translate.os.pread
        monkeypatch.setattr(translate.os, "pread", lambda *a: reads.append(a) or pread(*a))
        path = tmp_path / "cache.jsonl"
        with TranslationCache(path) as a, TranslationCache(path) as b:
            for i in range(3):
                a.put(f"a{i}".encode(), "en", "es", "p", "x", "y")
            assert reads == []  # an empty file, then only its own appends
            b.put(b"b", "en", "es", "p", "x", "y")
            a.put(b"a3", "en", "es", "p", "x", "y")
            assert len(reads) == 2  # each cache's first look at the other's line
            a.put(b"a4", "en", "es", "p", "x", "y")
            assert len(reads) == 2

    def test_torn_line_cut_when_loaded_under_another_spelling(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = TranslationCache(path)  # no file yet
        with TranslationCache(path) as writer:
            writer.put(b"k1", "en", "es", "p", "x", "y")
            writer.put(b"k2", "en", "es", "p", "x", "y")
        path.write_bytes(path.read_bytes()[:-10])
        (tmp_path / "sub").mkdir()
        cache.load(tmp_path / "sub" / ".." / "cache.jsonl")
        assert (cache.get(b"k1"), cache.get(b"k2")) == ("y", None)
        with cache:
            cache.put(b"k3", "en", "es", "p", "x", "y")
        reloaded = TranslationCache(path)
        assert (reloaded.get(b"k1"), reloaded.get(b"k2"), reloaded.get(b"k3")) == ("y", None, "y")

    def test_one_handle_flushed_after_every_line(self, tmp_path, monkeypatch):
        import augbench.translate as translate

        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        monkeypatch.setattr(translate, "open", counting_open, raising=False)
        path = tmp_path / "cache.jsonl"
        entries = [(b"a", "en", "es", "p", "x", "\u00e9t\u00e9"), (b"b", "es", "en", "p", "y", "z"),
                   (b"a", "en", "es", "p", "x", "again")]
        lines = b""
        with TranslationCache(path) as c:
            assert opened == []  # opened by the first put, not before
            for key, src, tgt, prov, text, result in entries:
                c.put(key, src, tgt, prov, text, result)
                entry = {"key": key.hex(), "source": src, "target": tgt, "provider": prov,
                         "text_hash": hashlib.sha256(text.encode("utf-8")).hexdigest(),
                         "result": result}
                lines += (json.dumps(entry, ensure_ascii=False, sort_keys=True)
                          + "\n").encode("utf-8")
                assert path.read_bytes() == lines  # on disk before close
        assert opened == [path]
        c.put(b"c", "en", "es", "p", "w", "v")  # reopened after close
        c.close()
        c.close()
        assert len(opened) == 2
        reloaded = TranslationCache(path)
        assert [reloaded.get(k) for k in (b"a", b"b", b"c")] == ["again", "z", "v"]

    @pytest.mark.parametrize("text,result", [("x", "\ud800"), ("x\udfff", "y")])
    def test_lone_surrogate_stores_nothing(self, tmp_path, text, result):
        path = tmp_path / "cache.jsonl"
        with TranslationCache(path) as c:
            with pytest.raises(CacheError, match="entry 6b: not valid UTF-8"):
                c.put(b"k", "en", "es", "p", text, result)
            assert c.get(b"k") is None
            assert not path.exists()
            c.put(b"k2", "en", "es", "p", "x", "\U0001f600")  # a surrogate pair is fine
        assert TranslationCache(path).get(b"k2") == "\U0001f600"

    @pytest.mark.parametrize("on_file", [False, True], ids=["memory", "file"])
    @pytest.mark.parametrize("leg", ["forward", "backward"])
    def test_lone_surrogate_reply_skips_its_document(self, tmp_path, leg, on_file):
        # an in-memory cache refuses the reply as a file cache does
        doc = Document(id="a", text="a good film", label="pos", split="train")
        provider = SurrogateProvider(leg)
        with TranslationCache(tmp_path / "cache.jsonl" if on_file else None) as cache:
            run = augment_dataset(Corpus([doc]), AugmentSpec(technique="bt", languages=("es",)),
                                  translator=provider, cache=cache)
            assert run.generated == 0
            [(doc_id, reason)] = run.skipped
            assert doc_id == "a" and "not valid UTF-8" in reason
            assert tta_generate([doc], ["es"], provider, cache) == [["a good film"]]

    def test_failed_append_ends_the_augmentation_naming_the_cache(self, tmp_path, full_disk):
        # a write that fails for every text is not one document's skip
        path, provider = tmp_path / "cache.jsonl", CountingProvider()
        docs = [Document(id=f"d{i}", text=f"a good film {i}", label="pos", split="train")
                for i in range(20)]
        with TranslationCache(path) as cache:
            with pytest.raises(OSError, match=re.escape(str(path))) as raised:
                augment_dataset(Corpus(docs), AugmentSpec(technique="bt", languages=("es", "fr")),
                                translator=provider, cache=cache)
            assert not [d for d in docs for lang in ("es", "fr")
                        if cache.get(cache_key("counting", "en", lang, d.text)) is not None]
        assert raised.value.errno == errno.ENOSPC
        assert provider.calls == 1

    @given(text=_CACHE_TEXT, result=_CACHE_TEXT,
           damage=st.sampled_from(["none", "torn", "unterminated"]), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_put_reload_round_trip_property(self, tmp_path_factory, text, result, damage,
                                            data):
        path = tmp_path_factory.mktemp("cache") / "cache.jsonl"
        with TranslationCache(path) as c:
            c.put(b"k", "en", "es", "p", text, result)
            c.put(b"last", "es", "en", "p", result, text)
        raw = path.read_bytes()
        last_line = raw.rindex(b"\n", 0, len(raw) - 1) + 1
        if damage == "torn":  # cut inside the last line, before its newline
            path.write_bytes(raw[:data.draw(st.integers(last_line + 1, len(raw) - 2))])
        elif damage == "unterminated":
            path.write_bytes(raw[:-1])
        with TranslationCache(path) as reloaded:
            assert reloaded.get(b"k") == result
            assert reloaded.get(b"last") == (None if damage == "torn" else text)
            reloaded.put(b"next", "en", "es", "p", text, result)
        final = TranslationCache(path)
        assert final.get(b"k") == result and final.get(b"next") == result
        assert final.get(b"last") == (None if damage == "torn" else text)

    @given(keys=st.lists(st.binary(max_size=40), min_size=1, max_size=4, unique=True),
           torn=st.booleans(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_any_bytes_key_survives_a_reload_property(self, tmp_path_factory, keys, torn,
                                                      data):
        path = tmp_path_factory.mktemp("cache") / "cache.jsonl"
        with TranslationCache(path) as c:
            for i, key in enumerate(keys):
                c.put(key, "en", "es", "p", "x", str(i))
        raw = path.read_bytes()
        if torn:  # the last put cut short, inside its line
            last_line = raw.rfind(b"\n", 0, len(raw) - 1) + 1
            path.write_bytes(raw[:data.draw(st.integers(last_line + 1, len(raw) - 2))])
        expected = [str(i) for i in range(len(keys))]
        if torn:
            expected[-1] = None
        with TranslationCache(path) as reloaded:
            assert [reloaded.get(key) for key in keys] == expected
            reloaded.put(keys[-1], "en", "es", "p", "x", "again")
        final = TranslationCache(path)
        assert [final.get(key) for key in keys] == expected[:-1] + ["again"]

    def test_key_includes_provider(self):
        assert cache_key("p1", "en", "es", "x") != cache_key("p2", "en", "es", "x")

    @given(st.lists(_KEY_PART, min_size=4, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_key_equals_part_by_part_reference(self, parts):
        h = hashlib.sha256()
        for part in parts:
            h.update(part.encode("utf-8"))
            h.update(b"\x00")
        assert cache_key(*parts) == h.digest()

    @given(key=st.binary(), source=_CACHE_TEXT, text=_CACHE_TEXT, result=_CACHE_TEXT)
    @settings(max_examples=100, deadline=None)
    def test_put_line_equals_json_dumps(self, tmp_path_factory, key, source, text, result):
        path = tmp_path_factory.mktemp("cache") / "cache.jsonl"
        with TranslationCache(path) as c:
            c.put(key, source, "en", "p", text, result)
        entry = {"key": key.hex(), "source": source, "target": "en", "provider": "p",
                 "text_hash": hashlib.sha256(text.encode("utf-8")).hexdigest(),
                 "result": result}
        expected = json.dumps(entry, ensure_ascii=False, sort_keys=True) + "\n"
        assert path.read_bytes() == expected.encode("utf-8")


class TestBacktranslate:
    def test_identity_provider_round_trip(self):
        provider = CountingProvider()
        rec = backtranslate("some text", "es", provider)
        assert rec.final_text == "some text"
        assert provider.calls == 2
        assert rec.cache_hits == 0

    def test_second_call_served_fully_from_cache(self):
        provider = CountingProvider()
        cache = TranslationCache()
        first = backtranslate("hello there", "fr", provider, cache)
        second = backtranslate("hello there", "fr", provider, cache)
        assert second.final_text == first.final_text
        assert second.cache_hits == 2
        assert provider.calls == 2  # all from the first call

    def test_pivot_en_rejected(self):
        with pytest.raises(TranslationError):
            backtranslate("x", "en", CountingProvider())

    def test_provider_failure_names_leg_and_pivot(self):
        with pytest.raises(TranslationError, match="forward leg.*es"):
            backtranslate("x", "es", ReplayProvider())

    def test_paper_replay_spanish(self):
        cache = TranslationCache()
        cache.load(paper_cache_path())
        rec = backtranslate(TABLE1, "es", ReplayProvider(), cache)
        assert rec.final_text == TABLE1_BT_ES
        assert rec.cache_hits == 2  # the replay provider fails any live call

    def test_paper_replay_bengali(self):
        cache = TranslationCache()
        cache.load(paper_cache_path())
        rec = backtranslate(TABLE1, "bn", ReplayProvider(), cache)
        assert rec.final_text == "A sad man played the street behind comedy life."

    def test_different_provider_never_reuses_cache(self):
        cache = TranslationCache()
        backtranslate("shared text", "es", CountingProvider("p1"), cache)
        p2 = CountingProvider("p2")
        rec = backtranslate("shared text", "es", p2, cache)
        assert rec.cache_hits == 0 and p2.calls == 2


def _edit_distance(a, b):
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        cur = [i]
        for j, y in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[-1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1]


class TestMockProvider:
    def test_round_trip_identity_without_thesaurus_words(self):
        p = MockProvider(seed=0)
        for text in ["it was what it was", "a b c d e f g h i j k", "one"]:
            assert not any(p.drift.lookup(t) for t in text.split())  # nothing to replace
            assert backtranslate(text, "es", p).final_text == text

    def test_round_trip_deterministic(self):
        a = backtranslate(TABLE1, "de", MockProvider(seed=7)).final_text
        b = backtranslate(TABLE1, "de", MockProvider(seed=7)).final_text
        assert a == b

    def test_languages_differ(self):
        es = MockProvider(seed=0).translate(TABLE1, "en", "es")
        fr = MockProvider(seed=0).translate(TABLE1, "en", "fr")
        assert es != fr

    def test_edit_distance_bounded(self):
        vocab = ["the", "movie", "was", "great", "awful", "story", "acting", "plot",
                 "director", "film", "boring", "ending", "scene", "good", "bad"]
        rng = random.Random(0)
        p = MockProvider(seed=1)
        for _ in range(100):
            length = rng.randint(4, 30)
            text = " ".join(rng.choice(vocab) for _ in range(length))
            out = backtranslate(text, "fr", p).final_text
            dist = _edit_distance(text.split(), out.split())
            assert dist <= 0.25 * length


def _reference_mock_translate(p, text, source, target):
    """`MockProvider.translate` as it was before its per-language rotation
    seeds and lowercase word set were kept."""
    tokens = text.split()
    if not tokens:
        return text
    if source == "en":
        lang = target
        r = derive_seed("rot", lang) % len(tokens)
        out = tokens[r:] + tokens[:r]
        n_subs = int(round(0.1 * len(out)))
        if n_subs:
            rng = random.Random(derive_seed(p.seed, lang, text))
            candidates = [i for i, t in enumerate(out) if p.drift.lookup(t)]
            for i in sorted(rng.sample(candidates, min(n_subs, len(candidates)))):
                out[i] = rng.choice(p.drift.lookup(out[i]))
    else:
        lang = source
        r = derive_seed("rot", lang) % len(tokens)
        k = len(tokens) - r
        out = tokens[k:] + tokens[:k]
    return " ".join(out)


_THESAURUS_WORDS = sorted(bundled_thesaurus().words())
# Thesaurus words as stored, capitalised and upper-cased, glued to punctuation,
# and words it does not hold, separated by runs of whitespace.
_MOCK_TEXT = st.lists(
    st.tuples(st.sampled_from(_THESAURUS_WORDS),
              st.sampled_from([str, str.capitalize, str.upper]),
              st.sampled_from(["", ",", ".", "!"]))
    .map(lambda t: t[1](t[0]) + t[2])
    | st.sampled_from(["the", "The", "film", ",", "!", "...", "\u0130"]),
    max_size=40).flatmap(
        lambda words: st.lists(st.sampled_from([" ", "  ", "\t", "\n"]),
                               min_size=len(words), max_size=len(words))
        .map(lambda seps: "".join(w + sep for w, sep in zip(words, seps))))


@given(text=_MOCK_TEXT, seed=st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_mock_translate_equals_reference_on_both_legs(text, seed):
    p = MockProvider(seed=seed)
    for lang in TABLE2_LANGUAGES:
        forward = p.translate(text, "en", lang)
        assert forward == _reference_mock_translate(p, text, "en", lang)
        assert p.translate(forward, lang, "en") == _reference_mock_translate(
            p, forward, lang, "en")


class TestHttpProvider:
    def test_success(self, stub_server):
        url, handler = stub_server
        p = HttpProvider(url, rate_limit=1000)
        assert p.translate("hola", "es", "en") == "HOLA"
        assert handler.posted == [("application/json",
                                   {"q": "hola", "source": "es", "target": "en"})]

    def test_429_then_200_retries(self, stub_server):
        url, handler = stub_server
        handler.script[:] = [429]
        p = HttpProvider(url, rate_limit=1000, sleep=lambda s: None)
        assert p.translate("hi", "en", "es") == "HI"
        assert handler.requests_seen == 2

    def test_408_retries(self, stub_server):
        url, handler = stub_server
        handler.script[:] = [408]
        waits = []
        p = HttpProvider(url, rate_limit=1e9, sleep=waits.append)
        assert p.translate("hi", "en", "es") == "HI"
        assert handler.requests_seen == 2
        assert waits == [0.5]

    def test_retry_after_lengthens_the_backoff_up_to_the_cap(self, stub_server):
        url, handler = stub_server
        handler.script[:] = [(429, {"Retry-After": "7"}), (503, {"Retry-After": "120"}),
                             (429, {"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}),
                             (408, {"Retry-After": "1"})]
        waits = []
        p = HttpProvider(url, rate_limit=1e9, max_retries=5, sleep=waits.append)
        assert p.translate("hi", "en", "es") == "HI"
        # backoffs 0.5, 1, 2, 4; an HTTP-date Retry-After is not read
        assert waits == [7, 30.0, 2.0, 4.0]

    def test_401_fails_after_one_attempt(self, stub_server):
        url, handler = stub_server
        handler.script[:] = [401]
        p = HttpProvider(url, rate_limit=1000)
        with pytest.raises(PermanentTranslationError, match="401"):
            p.translate("hi", "en", "es")
        assert handler.requests_seen == 1

    @pytest.mark.parametrize("location", ["/elsewhere", "ftp://127.0.0.1/elsewhere"])
    def test_redirect_fails_after_one_request_without_following(self, stub_server, location):
        # followed, a 302 would be re-sent as a GET without the text, and its
        # answer taken as the translation
        url, handler = stub_server
        handler.script[:] = [(302, {"Location": location})]
        p = HttpProvider(url, rate_limit=1e9, sleep=lambda s: None)
        with pytest.raises(PermanentTranslationError, match="HTTP 302 from"):
            p.translate("hi", "en", "es")
        assert handler.requests_seen == len(handler.posted) == 1

    def test_5xx_exhausts_retries(self, stub_server):
        url, handler = stub_server
        handler.script[:] = [500, 500, 500]
        p = HttpProvider(url, rate_limit=1000, max_retries=3, sleep=lambda s: None)
        with pytest.raises(TransientTranslationError):
            p.translate("hi", "en", "es")
        assert handler.requests_seen == 3

    def test_reply_that_is_not_http_retried(self, stub_server):
        url, handler = stub_server
        handler.script[:] = [b"garbage\r\n"]
        waits = []
        p = HttpProvider(url, rate_limit=1e9, sleep=waits.append)
        assert p.translate("hi", "en", "es") == "HI"
        assert handler.requests_seen == 2
        assert waits == [0.5]

    def test_refused_connection_retried(self):
        waits = []
        p = HttpProvider("http://127.0.0.1:1/translate", rate_limit=1e9, max_retries=2,
                         sleep=waits.append)
        with pytest.raises(TransientTranslationError, match="gave up after 2 attempts"):
            p.translate("hi", "en", "es")
        assert waits == [0.5, 1.0]

    def test_rate_limit_enforced(self, stub_server):
        # 20 requests at 5/s with burst 1 needs >= 19/5 = 3.8 s
        url, handler = stub_server
        p = HttpProvider(url, rate_limit=5.0)
        t0 = time.monotonic()
        for i in range(20):
            p.translate(f"m{i}", "en", "es")
        assert time.monotonic() - t0 >= 3.0

    @pytest.mark.parametrize("value", [None, 5, ["x"]])
    def test_non_string_translation_skips_the_document(self, stub_server, value):
        url, handler = stub_server
        handler.script[:] = [{"translatedText": value}]
        p = HttpProvider(url, rate_limit=1e9)
        with pytest.raises(PermanentTranslationError, match="translatedText is"):
            p.translate("hi", "en", "es")
        assert handler.requests_seen == 1  # not retried
        handler.script[:] = [{"translatedText": value}]
        corp = Corpus([Document(id="a", text="a good film", label="pos", split="train")])
        run = augment_dataset(corp, AugmentSpec(technique="bt", languages=("es",)),
                              translator=p, cache=TranslationCache())
        assert run.generated == 0
        assert [doc_id for doc_id, _ in run.skipped] == ["a"]

    @pytest.mark.parametrize("kwargs, message", [
        (dict(max_retries=0), "max_retries must be at least 1"),
        (dict(max_retries=-1), "max_retries must be at least 1"),
        (dict(rate_limit=0.0), "rate must be positive"),
        (dict(rate_limit=float("nan")), "rate must be positive and finite, got nan"),
        (dict(rate_limit=float("inf")), "rate must be positive and finite, got inf"),
    ])
    def test_bad_settings_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            HttpProvider("http://127.0.0.1:1/translate", **kwargs)

    # urllib would read a file:// or ftp:// URL as the response; a bad port, a
    # space or a non-ASCII character would fail only in the first request
    @pytest.mark.parametrize("endpoint", [
        "ftp://127.0.0.1/translate", "file://localhost/translate", "htp://127.0.0.1/translate",
        "localhost:5000/translate", "http://", "http://:8080/translate",
        "http://127.0.0.1:port/translate", "http://127.0.0.1:65536/translate",
        "http://[::1/translate", "http://127.0.0.1/trans late", "http://127.0.0.1/traducción",
    ])
    def test_endpoint_urllib_cannot_post_to_rejected(self, endpoint):
        with pytest.raises(ValueError, match="endpoint must be an http:// or https:// URL"):
            HttpProvider(endpoint)

    @pytest.mark.parametrize("endpoint", ["https://translate.example/api?v=2",
                                          "HTTP://127.0.0.1:5000/translate",
                                          "http://[::1]:5000/translate"])
    def test_http_endpoint_accepted(self, endpoint):
        assert HttpProvider(endpoint).provider_id == f"http:{endpoint}"


class TestTokenBucket:
    def test_spacing_with_fake_clock(self):
        now = [0.0]
        slept = []

        def clock():
            return now[0]

        def sleep(t):
            slept.append(t)
            now[0] += t

        bucket = TokenBucket(rate=2.0, clock=clock, sleep=sleep)
        for _ in range(5):
            bucket.acquire()
        # 1 token free, 4 more at 0.5 s apart
        assert abs(sum(slept) - 2.0) < 1e-9

    @pytest.mark.parametrize("rate", [0.0, -1.0, float("nan"), float("inf")])
    def test_rate_that_would_not_space_grants_rejected(self, rate):
        # with a fake clock, a NaN rate granted every request at once
        with pytest.raises(ValueError, match="rate must be positive and finite"):
            TokenBucket(rate, clock=lambda: 0.0, sleep=lambda t: None)

    def test_idle_time_banks_no_more_than_one_grant(self):
        now = [0.0]
        slept = []

        def sleep(t):
            slept.append(t)
            now[0] += t

        bucket = TokenBucket(rate=2.0, clock=lambda: now[0], sleep=sleep)
        bucket.acquire()
        now[0] += 0.2
        bucket.acquire()  # 0.3 s early
        now[0] += 10.0
        bucket.acquire()  # after a long idle: at once, then at the rate again
        bucket.acquire()
        assert slept == pytest.approx([0.3, 0.5])
