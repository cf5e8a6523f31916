import hashlib
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from unittest import mock

import pytest

from augbench.translate import (BacktranslationRecord, CacheError, HttpProvider,
                                MockProvider, PermanentTranslationError,
                                ReplayProvider, TokenBucket, TransientTranslationError,
                                TranslationCache, TranslationError, backtranslate,
                                cache_key, paper_cache_path)

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


class TestCache:
    def test_round_trip_and_compaction(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        with TranslationCache(path) as c:
            c.put("k1", "en", "es", "p", "hello", "hola")
            c.put("k1", "en", "es", "p", "hello", "hola2")  # later entry wins
            c.put("k2", "es", "en", "p", "hola", "hello")
        reloaded = TranslationCache(path)
        assert reloaded.get("k1") == "hola2"
        assert reloaded.get("k2") == "hello"

    def test_append_does_not_corrupt_prior_entries(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        with TranslationCache(path) as c1:
            c1.put("a", "en", "es", "p", "x", "y")
        with TranslationCache(path) as c2:
            c2.put("b", "en", "es", "p", "u", "v")
        final = TranslationCache(path)
        assert final.get("a") == "y" and final.get("b") == "v"

    def test_bad_cache_line_reports_path(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json}\n", encoding="utf-8")
        with pytest.raises(CacheError, match="bad.jsonl"):
            TranslationCache(path)

    def test_torn_final_line_skipped_and_repaired(self, tmp_path, caplog):
        path = tmp_path / "cache.jsonl"
        with TranslationCache(path) as c:
            c.put("a", "en", "es", "p", "x", "y")
            c.put("b", "en", "es", "p", "u", "v")
        path.write_bytes(path.read_bytes()[:-10])  # a put cut short by a kill
        with TranslationCache(path) as torn:
            assert len(torn) == 1 and torn.get("a") == "y"
            assert "torn final cache line 2" in caplog.text
            torn.put("c", "en", "es", "p", "w", "z")
        final = TranslationCache(path)
        assert len(final) == 2 and final.get("c") == "z"

    def test_unterminated_final_line_kept_and_ended(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        with TranslationCache(path) as c:
            c.put("a", "en", "es", "p", "x", "y")
        path.write_bytes(path.read_bytes().rstrip(b"\n"))  # a hand-edited file
        with TranslationCache(path) as edited:
            assert len(edited) == 1
            edited.put("b", "en", "es", "p", "u", "v")
        final = TranslationCache(path)
        assert len(final) == 2 and final.get("a") == "y" and final.get("b") == "v"

    def test_torn_multibyte_character_skipped(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        with TranslationCache(path) as c:
            c.put("a", "en", "es", "p", "x", "\u00e9t\u00e9")
        data = path.read_bytes()
        path.write_bytes(data[:data.index("\u00e9".encode("utf-8")) + 1])
        assert len(TranslationCache(path)) == 0

    def test_bad_line_before_the_last_still_fails(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        with TranslationCache(path) as c:
            c.put("a", "en", "es", "p", "x", "y")
        path.write_bytes(b"{not json}\n" + path.read_bytes())
        with pytest.raises(CacheError, match="bad cache line 1"):
            TranslationCache(path)

    def test_one_handle_flushed_after_every_line(self, tmp_path, monkeypatch):
        import augbench.translate as translate

        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        monkeypatch.setattr(translate, "open", counting_open, raising=False)
        path = tmp_path / "cache.jsonl"
        entries = [("a", "en", "es", "p", "x", "\u00e9t\u00e9"), ("b", "es", "en", "p", "y", "z"),
                   ("a", "en", "es", "p", "x", "again")]
        lines = b""
        with TranslationCache(path) as c:
            assert opened == []  # opened by the first put, not before
            for key, src, tgt, prov, text, result in entries:
                c.put(key, src, tgt, prov, text, result)
                entry = {"key": key, "source": src, "target": tgt, "provider": prov,
                         "text_hash": hashlib.sha256(text.encode("utf-8")).hexdigest(),
                         "result": result}
                lines += (json.dumps(entry, ensure_ascii=False, sort_keys=True)
                          + "\n").encode("utf-8")
                assert path.read_bytes() == lines  # on disk before close
        assert opened == [path]
        c.put("c", "en", "es", "p", "w", "v")  # reopened after close
        c.close()
        c.close()
        assert len(opened) == 2 and len(TranslationCache(path)) == 3

    @pytest.mark.parametrize("text,result", [("x", "\ud800"), ("x\udfff", "y")])
    def test_lone_surrogate_stores_nothing(self, tmp_path, text, result):
        path = tmp_path / "cache.jsonl"
        with TranslationCache(path) as c:
            with pytest.raises(CacheError, match="entry k: not valid UTF-8"):
                c.put("k", "en", "es", "p", text, result)
            assert len(c) == 0 and c.get("k") is None
            assert not path.exists()
            c.put("k2", "en", "es", "p", "x", "\U0001f600")  # a surrogate pair is fine
        assert TranslationCache(path).get("k2") == "\U0001f600"

    def test_key_includes_provider(self):
        assert cache_key("p1", "en", "es", "x") != cache_key("p2", "en", "es", "x")


class TestBacktranslate:
    def test_identity_provider_round_trip(self):
        rec = backtranslate("some text", "es", CountingProvider())
        assert rec.final_text == "some text"
        assert rec.provider_calls == 2
        assert rec.cache_hits == 0

    def test_second_call_served_fully_from_cache(self):
        provider = CountingProvider()
        cache = TranslationCache()
        first = backtranslate("hello there", "fr", provider, cache)
        second = backtranslate("hello there", "fr", provider, cache)
        assert second.final_text == first.final_text
        assert second.cache_hits == 2
        assert second.provider_calls == 0
        assert provider.calls == 2

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
        assert rec.cache_hits == 2
        assert rec.provider_calls == 0

    def test_paper_replay_bengali(self):
        cache = TranslationCache()
        cache.load(paper_cache_path())
        rec = backtranslate(TABLE1, "bn", ReplayProvider(), cache)
        assert rec.final_text == "A sad man played the street behind comedy life."

    def test_different_provider_never_reuses_cache(self):
        cache = TranslationCache()
        backtranslate("shared text", "es", CountingProvider("p1"), cache)
        rec = backtranslate("shared text", "es", CountingProvider("p2"), cache)
        assert rec.cache_hits == 0 and rec.provider_calls == 2


def _edit_distance(a, b):
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        cur = [i]
        for j, y in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[-1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1]


class TestMockProvider:
    def test_zero_noise_round_trip_identity(self):
        p = MockProvider(seed=0, noise_rate=0.0)
        for text in ["the movie was great", "a b c d e", "one"]:
            assert backtranslate(text, "es", p).final_text == text

    def test_round_trip_deterministic(self):
        a = backtranslate(TABLE1, "de", MockProvider(seed=7)).final_text
        b = backtranslate(TABLE1, "de", MockProvider(seed=7)).final_text
        assert a == b

    def test_languages_differ(self):
        es = backtranslate(TABLE1, "es", MockProvider(seed=0)).intermediate_text
        fr = backtranslate(TABLE1, "fr", MockProvider(seed=0)).intermediate_text
        assert es != fr

    def test_edit_distance_bounded(self):
        import random
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


class _StubHandler(BaseHTTPRequestHandler):
    # class-level script: status codes or (status, headers) to serve, then 200s
    script = []
    requests_seen = 0

    def do_POST(self):
        cls = type(self)
        cls.requests_seen += 1
        status = cls.script.pop(0) if cls.script else 200
        status, headers = status if isinstance(status, tuple) else (status, {})
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        if status == 200:
            payload = json.dumps({"translatedText": body["q"].upper()}).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)
        else:
            self.send_response(status)
            for name, value in headers.items():
                self.send_header(name, value)
            self.send_header("Content-Length", "0")
            self.end_headers()

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    handler = type("Handler", (_StubHandler,), {"script": [], "requests_seen": 0})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/translate", handler
    server.shutdown()
    server.server_close()


class TestHttpProvider:
    def test_success(self, stub_server):
        url, handler = stub_server
        with HttpProvider(url, rate_limit=1000) as p:
            assert p.translate("hola", "es", "en") == "HOLA"

    def test_429_then_200_retries(self, stub_server):
        url, handler = stub_server
        handler.script[:] = [429]
        with HttpProvider(url, rate_limit=1000, sleep=lambda s: None) as p:
            assert p.translate("hi", "en", "es") == "HI"
        assert handler.requests_seen == 2

    def test_408_retries(self, stub_server):
        url, handler = stub_server
        handler.script[:] = [408]
        waits = []
        with HttpProvider(url, rate_limit=1e9, sleep=waits.append) as p:
            assert p.translate("hi", "en", "es") == "HI"
        assert handler.requests_seen == 2
        assert waits == [0.5]

    def test_retry_after_lengthens_the_backoff_up_to_the_cap(self, stub_server):
        url, handler = stub_server
        handler.script[:] = [(429, {"Retry-After": "7"}), (503, {"Retry-After": "120"}),
                             (429, {"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}),
                             (408, {"Retry-After": "1"})]
        waits = []
        with HttpProvider(url, rate_limit=1e9, max_retries=5, sleep=waits.append) as p:
            assert p.translate("hi", "en", "es") == "HI"
        # backoffs 0.5, 1, 2, 4; an HTTP-date Retry-After is not read
        assert waits == [7, 30.0, 2.0, 4.0]

    def test_401_fails_after_one_attempt(self, stub_server):
        url, handler = stub_server
        handler.script[:] = [401]
        with HttpProvider(url, rate_limit=1000) as p:
            with pytest.raises(PermanentTranslationError, match="401"):
                p.translate("hi", "en", "es")
        assert handler.requests_seen == 1

    def test_5xx_exhausts_retries(self, stub_server):
        url, handler = stub_server
        handler.script[:] = [500, 500, 500]
        with HttpProvider(url, rate_limit=1000, max_retries=3, sleep=lambda s: None) as p:
            with pytest.raises(TransientTranslationError):
                p.translate("hi", "en", "es")
        assert handler.requests_seen == 3

    def test_rate_limit_enforced(self, stub_server):
        # 20 requests at 5/s with burst 1 needs >= 19/5 = 3.8 s
        url, handler = stub_server
        with HttpProvider(url, rate_limit=5.0) as p:
            t0 = time.monotonic()
            for i in range(20):
                p.translate(f"m{i}", "en", "es")
            assert time.monotonic() - t0 >= 3.0

    def test_closes_only_its_own_session(self):
        with mock.patch("requests.Session") as session_cls:
            with HttpProvider("http://127.0.0.1:1/translate"):
                pass
            session_cls.return_value.close.assert_called_once_with()
        shared = mock.Mock()
        with HttpProvider("http://127.0.0.1:1/translate", session=shared):
            pass
        shared.close.assert_not_called()


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
