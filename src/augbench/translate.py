"""Backtranslation: pluggable translation providers, persistent cache, rate limiting."""
from __future__ import annotations

import functools
import hashlib
import json
import logging
import math
import os
import random
import re
import time
import urllib.parse
from dataclasses import dataclass
from json.encoder import encode_basestring as _json_string
from pathlib import Path
from typing import Optional, Protocol

from .augment import _DATA_DIR, bundled_thesaurus, derive_seed

log = logging.getLogger(__name__)


class TranslationError(Exception):
    pass


class TransientTranslationError(TranslationError):
    """Retry budget exhausted on timeouts / 408 / 429 / 5xx."""


class PermanentTranslationError(TranslationError):
    """Non-retryable failure (4xx other than 408 and 429)."""


class CacheError(TranslationError):
    pass


class TranslationProvider(Protocol):
    provider_id: str

    def translate(self, text: str, source: str, target: str) -> str: ...


def cache_key(provider_id: str, source: str, target: str, text: str) -> bytes:
    """The 32-byte sha256 digest of the UTF-8 parts, each followed by a NUL byte.
    A cache holds it as it is and writes it as lowercase hex."""
    return hashlib.sha256(
        "\x00".join((provider_id, source, target, text, "")).encode("utf-8")).digest()


# A cache line is `json.dumps(entry, ensure_ascii=False, sort_keys=True)` and a
# newline.  It is formatted around json's own string escaping: an encoder call
# builds a new C encoder for every entry.
_ENTRY_LINE = ('{{"key": "{}", "provider": {}, "result": {}, "source": {}, "target": {}, '
               '"text_hash": "{}"}}\n')


def _entry(line: bytes) -> Optional[tuple[bytes, str]]:
    """The (key, result) of a cache line, None for a blank one; CacheError for
    one that does not parse, whose key or result is not a string, or whose key
    is not lowercase hex."""
    if not line.strip():
        return None
    try:
        obj = json.loads(line)
        key, result = obj["key"], obj["result"]
    except (ValueError, KeyError, TypeError) as e:
        raise CacheError(e) from None
    if not (isinstance(key, str) and isinstance(result, str)):
        raise CacheError(f"key and result must be strings, got {key!r} and {result!r}")
    try:
        digest = bytes.fromhex(key)
        if digest.hex() != key:  # fromhex also takes upper case and spaces
            raise ValueError
    except ValueError:
        raise CacheError(f"key must be lowercase hex, got {key!r}") from None
    return digest, result


class TranslationCache:
    """Append-only JSONL cache keyed by the `cache_key` of (provider, source,
    target, text).

    Entries: {"key","source","target","provider","text_hash","result"}; "key"
    is the key in lowercase hex, while memory holds its bytes.
    Later duplicate keys win on load; appends are crash-safe (one line per
    entry, flushed as it is written), also when several caches append to one
    file in turn.  A None path gives an in-memory cache.  The file stays open for
    appending from the first `put` until `close`; the cache is also a context
    manager that closes it.
    """

    def __init__(self, path: Optional[str | Path] = None):
        self.path = Path(path) if path is not None else None
        self._entries: dict[bytes, str] = {}
        self._fh = None  # the append handle, opened by the first put
        self._end: Optional[int] = None  # file size after this cache's last append
        if self.path is not None and self.path.exists():
            self.load(self.path)

    def close(self) -> None:
        """Close the append handle, if open; a later `put` reopens it."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "TranslationCache":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def load(self, path: str | Path) -> None:
        """Merge entries from a JSONL cache file (e.g. a pre-seeded cache).

        A final line with no newline that does not parse is a `put` cut short
        by a crash: it is skipped with a warning (and `put` cuts it off before
        appending to the file).  One that parses is kept.  A bad line anywhere
        else raises CacheError.
        """
        try:
            with open(path, "rb") as fh:
                for lineno, line in enumerate(fh, start=1):
                    try:
                        entry = _entry(line)
                    except CacheError as e:
                        if line.endswith(b"\n"):
                            raise CacheError(f"{path}: bad cache line {lineno}: {e}") from e
                        log.warning("%s: skipped torn final cache line %d", path, lineno)
                        continue
                    if entry is not None:
                        self._entries[entry[0]] = entry[1]
        except OSError as e:
            raise CacheError(f"cannot read cache {path}: {e}") from e

    def get(self, key: bytes) -> Optional[str]:
        return self._entries.get(key)

    def put(self, key: bytes, source: str, target: str, provider: str, text: str,
            result: str) -> None:
        """Store an entry and append it to the file, if any.  An entry that is
        not valid UTF-8 (a lone surrogate) raises CacheError, which skips its
        document, in memory as on file; a failed write raises an OSError naming
        the file, which ends the command.  Neither stores anything."""
        try:
            line = _ENTRY_LINE.format(
                key.hex(), *map(_json_string, (provider, result, source, target)),
                hashlib.sha256(text.encode("utf-8")).hexdigest()).encode("utf-8")
        except UnicodeEncodeError as e:
            raise CacheError(
                f"cannot cache entry {key.hex()}: not valid UTF-8 ({e.reason})") from None
        if self.path is not None:
            try:
                if self._fh is None:
                    self._fh = open(self.path, "a+b")  # readable too: `_mend_tail` preads
                size = os.fstat(self._fh.fileno()).st_size
                if size != self._end:  # first append, or the file changed since the last
                    size, line = self._mend_tail(size, line)
                self._end = None  # unknown until this append succeeds
                self._fh.write(line)
                self._fh.flush()  # a kill leaves at most this line torn
                self._end = size + len(line)
            except OSError as e:  # name the cache, as `corpus.replacing` names its output
                raise OSError(e.errno, e.strerror, os.fspath(self.path)) from None
        self._entries[key] = result

    def _mend_tail(self, size: int, line: bytes) -> tuple[int, bytes]:
        """Prepare `line` for appending to the file of `size` bytes.  A final
        line without its newline is cut off if it does not parse (a torn
        `put`) and ended if it does, as `load` reads it.  Returns the file's
        new size and the bytes to append."""
        fd = self._fh.fileno()
        start = size  # where the final line starts: just after the last newline
        while start > 0:
            lo = max(0, start - (1 << 16))
            cut = os.pread(fd, start - lo, lo).rfind(b"\n")
            if cut >= 0:
                start = lo + cut + 1
                break
            start = lo
        if start == size:
            return size, line
        try:
            _entry(os.pread(fd, size - start, start))
        except CacheError:
            os.ftruncate(fd, start)
            return start, line
        return size, b"\n" + line


@dataclass
class BacktranslationRecord:
    parent_id: Optional[str]
    final_text: str
    cache_hits: int  # 0..2; the other legs called the provider


def backtranslate(
    text: str,
    pivot: str,
    provider: TranslationProvider,
    cache: Optional[TranslationCache] = None,
    parent_id: Optional[str] = None,
) -> BacktranslationRecord:
    """Round-trip text en -> pivot -> en, serving each leg from cache when possible."""
    if pivot == "en":
        raise TranslationError("pivot language must differ from 'en'")
    if cache is None:
        cache = TranslationCache()

    hits = 0

    def leg(src: str, tgt: str, t: str, leg_name: str) -> str:
        nonlocal hits
        key = cache_key(provider.provider_id, src, tgt, t)
        cached = cache.get(key)
        if cached is not None:
            hits += 1
            return cached
        try:
            result = provider.translate(t, src, tgt)
        except TranslationError as e:
            raise type(e)(f"{leg_name} leg en<->{pivot} failed: {e}") from e
        cache.put(key, src, tgt, provider.provider_id, t, result)
        return result

    intermediate = leg("en", pivot, text, "forward")
    final = leg(pivot, "en", intermediate, "backward")
    return BacktranslationRecord(parent_id=parent_id, final_text=final, cache_hits=hits)


class TokenBucket:
    """Blocking rate limiter: a token bucket with a burst of one, so each grant
    comes at least 1/`rate` seconds after the previous one."""

    def __init__(self, rate: float, clock=time.monotonic, *, sleep):
        if not (rate > 0 and math.isfinite(rate)):  # a NaN rate would never wait
            raise ValueError(f"rate must be positive and finite, got {rate}")
        self.rate = rate
        self._next = clock()  # the earliest time of the next grant
        self._clock = clock
        self._sleep = sleep

    def acquire(self) -> None:
        now = self._clock()
        if now < self._next:
            self._sleep(self._next - now)
        self._next = max(self._next, now) + 1.0 / self.rate


_RETRYABLE_STATUS = {408, 429}
_BACKOFF_BASE = 0.5  # seconds before the first retry, doubling per attempt
_BACKOFF_CAP = 30.0  # longest wait between attempts
_TIMEOUT = 30.0      # seconds per request


class HttpProvider:
    """JSON-over-HTTP translation client with token-bucket rate limiting and retries.

    POSTs {"q": text, "source": src, "target": tgt} (+ "api_key" when set) as
    application/json to an http:// or https:// `endpoint`; expects
    {"translatedText": "..."}.  Retries timeouts (30 s per request), connection
    errors, 408, 429 and 5xx, waiting before each retry only: the wait doubles
    from 0.5 s and is at least a response's Retry-After seconds (both capped at
    30 s).  Other statuses fail at once.  No redirect is followed: a 3xx fails
    at once, as the text would not be re-sent.  `max_retries` counts attempts
    in all and must be at least 1.  Each request opens and closes its own
    connection, so there is nothing to close; HTTPS verifies against the system
    CA store, and the environment's proxies apply.  `urllib.request` is imported
    only when a request is made.
    """

    def __init__(
        self,
        endpoint: str,
        api_key: Optional[str] = None,
        rate_limit: float = 10.0,
        max_retries: int = 3,
        sleep=time.sleep,
    ):
        try:  # reading a port that is not a number below 65536 raises ValueError
            url = urllib.parse.urlsplit(endpoint)
            ok = url.scheme in ("http", "https") and url.hostname and url.port != 0
        except ValueError:
            ok = False
        if not (ok and re.fullmatch(r"[!-~]+", endpoint)):  # a space breaks the request line
            raise ValueError(f"endpoint must be an http:// or https:// URL with a host, "
                             f"in printable ASCII without spaces, got {endpoint!r}")
        if max_retries < 1:
            raise ValueError("max_retries must be at least 1")
        self.endpoint = endpoint
        self.api_key = api_key
        self.provider_id = f"http:{endpoint}"
        self.max_retries = max_retries
        self._sleep = sleep
        self._bucket = TokenBucket(rate_limit, sleep=sleep)
        self._opener = None  # built by the first request

    def translate(self, text: str, source: str, target: str) -> str:
        import urllib.request
        from http.client import HTTPException
        from urllib.error import URLError

        if self._opener is None:
            # urlopen's HTTP handlers without the redirect and error ones: every
            # status, 3xx to 5xx too, comes back as a response
            self._opener = urllib.request.OpenerDirector()
            for make in (urllib.request.ProxyHandler, urllib.request.UnknownHandler,
                         urllib.request.HTTPHandler, urllib.request.HTTPSHandler):
                self._opener.add_handler(make())
        body = {"q": text, "source": source, "target": target}
        if self.api_key:
            body["api_key"] = self.api_key
        request = urllib.request.Request(self.endpoint, data=json.dumps(body).encode("utf-8"),
                                         headers={"Content-Type": "application/json"})
        backoff = _BACKOFF_BASE  # doubles after each retry, up to the cap
        for attempt in range(1, self.max_retries + 1):
            self._bucket.acquire()
            retry_after = ""
            try:
                with self._opener.open(request, timeout=_TIMEOUT) as resp:
                    if resp.status == 200:
                        return self._translation(resp.read())
                    if resp.status not in _RETRYABLE_STATUS and resp.status < 500:
                        raise PermanentTranslationError(f"HTTP {resp.status} from {self.endpoint}")
                    last_err = f"HTTP {resp.status}"
                    retry_after = resp.headers.get("Retry-After", "").strip()
            except (URLError, TimeoutError, ConnectionError, HTTPException) as e:
                last_err = str(e)
            if attempt < self.max_retries:  # the one retry point
                # an HTTP-date Retry-After is not read; float(), unlike int(), takes any length
                wait = float(retry_after) if retry_after.isdecimal() else 0
                self._sleep(min(_BACKOFF_CAP, max(backoff, wait)))
                backoff = min(_BACKOFF_CAP, 2 * backoff)
        raise TransientTranslationError(f"gave up after {self.max_retries} attempts: {last_err}")

    def _translation(self, payload: bytes) -> str:
        """The "translatedText" string of a 200 response's body."""
        try:
            translated = json.loads(payload)["translatedText"]
            if not isinstance(translated, str):
                raise TypeError(f"translatedText is {translated!r}, not a string")
        except (ValueError, KeyError, TypeError) as e:
            raise PermanentTranslationError(f"malformed response from {self.endpoint}: {e}") from e
        return translated


_NOISE_RATE = 0.1  # the share of a forward leg's tokens MockProvider replaces


@functools.cache
def _rotation_seed(lang: str) -> int:
    """MockProvider rotates a text's tokens for `lang` by this modulo their count."""
    return derive_seed("rot", lang)


class MockProvider:
    """Deterministic offline pseudo-translator for hermetic tests and dry runs.

    The forward leg rotates the token sequence by a language-keyed offset
    (reversible) and substitutes ~`_NOISE_RATE` of tokens with synonyms (not
    reversible, giving realistic word-level drift).  The backward leg undoes
    the rotation.  Fully deterministic in (seed, language, text).
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.drift = bundled_thesaurus()
        self._drift_words = frozenset(self.drift.words())  # lowercase, as stored
        # hashed into every cache key: the benchmark's warm cache depends on it
        self.provider_id = f"mock:{seed}:{_NOISE_RATE}"

    def translate(self, text: str, source: str, target: str) -> str:
        tokens = text.split()
        if not tokens:
            return text
        if source == "en":
            lang = target
            r = _rotation_seed(lang) % len(tokens)
            out = tokens[r:] + tokens[:r]
            n_subs = int(round(_NOISE_RATE * len(out)))
            if n_subs:
                rng = random.Random(derive_seed(self.seed, lang, text))
                words = self._drift_words
                candidates = [i for i, t in enumerate(out) if t.lower() in words]
                for i in sorted(rng.sample(candidates, min(n_subs, len(candidates)))):
                    out[i] = rng.choice(self.drift.lookup(out[i]))
        else:
            lang = source
            r = _rotation_seed(lang) % len(tokens)
            k = len(tokens) - r
            out = tokens[k:] + tokens[:k]
        return " ".join(out)


class ReplayProvider:
    """Provider stub that only identifies a pre-seeded cache; any live call fails."""

    def __init__(self, provider_id: str = "paper"):
        self.provider_id = provider_id

    def translate(self, text: str, source: str, target: str) -> str:
        raise PermanentTranslationError(
            f"replay provider {self.provider_id!r} has no live backend; "
            f"cache miss for {source}->{target}"
        )


def paper_cache_path() -> Path:
    """Pre-seeded cache reproducing the published example backtranslations."""
    return _DATA_DIR / "paper_backtranslations.jsonl"
