"""Backtranslation: pluggable translation providers, persistent cache, rate limiting."""
from __future__ import annotations

import hashlib
import json
import logging
import os
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Protocol

from .augment import _DATA_DIR, bundled_thesaurus, derive_seed

if TYPE_CHECKING:
    import requests

log = logging.getLogger(__name__)

# Table 2 names 9 pivot languages for its 10-language row; the tenth is not
# published, so "it" fills the slot (documented in the README).
DEFAULT_LANGUAGES = ("es", "fr", "de", "af", "ru", "cs", "et", "ht", "bn", "it")


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


def cache_key(provider_id: str, source: str, target: str, text: str) -> str:
    h = hashlib.sha256()
    for part in (provider_id, source, target, text):
        h.update(part.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


class TranslationCache:
    """Append-only JSONL cache keyed by (provider, source, target, text) hash.

    Entries: {"key","source","target","provider","text_hash","result"}.
    Later duplicate keys win on load; appends are crash-safe (one line per
    entry, flushed as it is written).  A None path gives an in-memory cache.
    The file stays open for appending from the first `put` until `close`;
    the cache is also a context manager that closes it.
    """

    def __init__(self, path: Optional[str | Path] = None):
        self.path = Path(path) if path is not None else None
        self._entries: dict[str, str] = {}
        # (size to cut the own file to, bytes to write first) before the next append
        self._tail: Optional[tuple[int, bytes]] = None
        self._fh = None  # the append handle, opened by the first put
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

    def load(self, path: str | Path) -> int:
        """Merge entries from a JSONL cache file (e.g. a pre-seeded cache).

        A final line with no newline that does not parse is a `put` cut short
        by a crash: it is skipped with a warning, and cut off the cache's own
        file before the next append.  One that parses is kept, and the next
        append to the own file ends it first.  A bad line anywhere else raises
        CacheError.
        """
        n = 0
        size = 0
        tail = None
        try:
            with open(path, "rb") as fh:
                for lineno, line in enumerate(fh, start=1):
                    size += len(line)
                    try:
                        if line.strip():
                            obj = json.loads(line)
                            self._entries[obj["key"]] = obj["result"]
                            n += 1
                    except (ValueError, KeyError) as e:
                        if line.endswith(b"\n"):
                            raise CacheError(f"{path}: bad cache line {lineno}: {e}") from e
                        log.warning("%s: skipped torn final cache line %d", path, lineno)
                        tail = (size - len(line), b"")
                        continue
                    if not line.endswith(b"\n"):
                        tail = (size, b"\n")
        except OSError as e:
            raise CacheError(f"cannot read cache {path}: {e}") from e
        if tail is not None and Path(path) == self.path:
            self._tail = tail
        return n

    def get(self, key: str) -> Optional[str]:
        return self._entries.get(key)

    def put(self, key: str, source: str, target: str, provider: str, text: str,
            result: str) -> None:
        """Store an entry and append it to the file, if any.  There, an entry
        that is not valid UTF-8 (a lone surrogate) or a failed write raises
        CacheError and stores nothing."""
        if self.path is None:
            self._entries[key] = result
            return
        try:
            entry = {
                "key": key,
                "source": source,
                "target": target,
                "provider": provider,
                "text_hash": hashlib.sha256(text.encode("utf-8")).hexdigest(),
                "result": result,
            }
            line = (json.dumps(entry, ensure_ascii=False, sort_keys=True) + "\n").encode("utf-8")
        except UnicodeEncodeError as e:
            raise CacheError(f"cannot cache entry {key}: not valid UTF-8 ({e.reason})") from None
        try:
            if self._tail is not None:
                size, first = self._tail
                os.truncate(self.path, size)
                line = first + line
            if self._fh is None:
                self._fh = open(self.path, "ab")
            self._fh.write(line)
            self._fh.flush()  # a kill leaves at most this line torn
            self._tail = None
        except OSError as e:
            raise CacheError(f"cannot append to cache {self.path}: {e}") from e
        self._entries[key] = result

    def __len__(self) -> int:
        return len(self._entries)


@dataclass
class BacktranslationRecord:
    parent_id: Optional[str]
    intermediate_text: str
    final_text: str
    cache_hits: int  # 0..2
    provider_calls: int


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
    calls = 0

    def leg(src: str, tgt: str, t: str, leg_name: str) -> str:
        nonlocal hits, calls
        key = cache_key(provider.provider_id, src, tgt, t)
        cached = cache.get(key)
        if cached is not None:
            hits += 1
            return cached
        try:
            calls += 1
            result = provider.translate(t, src, tgt)
        except TranslationError as e:
            raise type(e)(f"{leg_name} leg en<->{pivot} failed: {e}") from e
        cache.put(key, src, tgt, provider.provider_id, t, result)
        return result

    intermediate = leg("en", pivot, text, "forward")
    final = leg(pivot, "en", intermediate, "backward")
    return BacktranslationRecord(
        parent_id=parent_id,
        intermediate_text=intermediate,
        final_text=final,
        cache_hits=hits,
        provider_calls=calls,
    )


class TokenBucket:
    """Blocking token-bucket rate limiter (refill `rate` tokens/second, burst of one)."""

    burst = 1.0

    def __init__(self, rate: float, clock=time.monotonic, sleep=time.sleep):
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = rate
        self._tokens = self.burst
        self._last = clock()
        self._clock = clock
        self._sleep = sleep

    def acquire(self) -> None:
        while True:
            now = self._clock()
            self._tokens = min(self.burst, self._tokens + (now - self._last) * self.rate)
            self._last = now
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return
            wait = (1.0 - self._tokens) / self.rate
            self._sleep(wait)


_RETRYABLE_STATUS = {408, 429}
_BACKOFF_BASE = 0.5  # seconds before the first retry, doubling per attempt
_BACKOFF_CAP = 30.0  # longest wait between attempts
_TIMEOUT = 30.0      # seconds per request


class HttpProvider:
    """JSON-over-HTTP translation client with token-bucket rate limiting and retries.

    Request body: {"q": text, "source": src, "target": tgt} (+ "api_key" when set).
    Expected response: {"translatedText": "..."}.  Retries timeouts (30 s per
    request), connection errors, 408, 429 and 5xx with backoff doubling from
    0.5 s, waiting at least a response's Retry-After seconds (both capped at
    30 s); other 4xx fail immediately.  `close` (or leaving the provider as a
    context manager) closes the session if the provider created it, not one
    passed in.
    `requests` is imported only when a provider is built.
    """

    def __init__(
        self,
        endpoint: str,
        api_key: Optional[str] = None,
        rate_limit: float = 10.0,
        max_retries: int = 3,
        session: Optional[requests.Session] = None,
        sleep=time.sleep,
    ):
        import requests

        self.endpoint = endpoint
        self.api_key = api_key
        self.provider_id = f"http:{endpoint}"
        self.max_retries = max_retries
        self._sleep = sleep
        self._bucket = TokenBucket(rate_limit, sleep=sleep)
        self._own_session = session is None
        self._session = requests.Session() if session is None else session

    def close(self) -> None:
        """Close the session if this provider created it."""
        if self._own_session:
            self._session.close()

    def __enter__(self) -> "HttpProvider":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _backoff(self, attempt: int) -> float:
        return min(_BACKOFF_CAP, _BACKOFF_BASE * (2 ** attempt))

    def translate(self, text: str, source: str, target: str) -> str:
        import requests

        body = {"q": text, "source": source, "target": target}
        if self.api_key:
            body["api_key"] = self.api_key
        last_err: Optional[str] = None
        for attempt in range(self.max_retries):
            self._bucket.acquire()
            try:
                resp = self._session.post(self.endpoint, json=body, timeout=_TIMEOUT)
            except (requests.Timeout, requests.ConnectionError) as e:
                last_err = str(e)
                self._sleep(self._backoff(attempt))
                continue
            if resp.status_code == 200:
                try:
                    return resp.json()["translatedText"]
                except (ValueError, KeyError) as e:
                    raise PermanentTranslationError(
                        f"malformed response from {self.endpoint}: {e}"
                    ) from e
            if resp.status_code in _RETRYABLE_STATUS or resp.status_code >= 500:
                last_err = f"HTTP {resp.status_code}"
                # an HTTP-date Retry-After is not read
                retry_after = resp.headers.get("Retry-After", "").strip()
                wait = int(retry_after) if retry_after.isdecimal() else 0
                self._sleep(min(_BACKOFF_CAP, max(self._backoff(attempt), wait)))
                continue
            raise PermanentTranslationError(
                f"HTTP {resp.status_code} from {self.endpoint}"
            )
        raise TransientTranslationError(
            f"gave up after {self.max_retries} attempts: {last_err}"
        )


class MockProvider:
    """Deterministic offline pseudo-translator for hermetic tests and dry runs.

    The forward leg rotates the token sequence by a language-keyed offset
    (reversible) and substitutes ~noise_rate of tokens with synonyms (not
    reversible, giving realistic word-level drift).  The backward leg undoes
    the rotation.  Fully deterministic in (seed, language, text).
    """

    def __init__(self, seed: int = 0, noise_rate: float = 0.1):
        if not 0.0 <= noise_rate <= 0.25:
            raise ValueError("noise_rate must be in [0, 0.25]")
        self.seed = seed
        self.noise_rate = noise_rate
        self.drift = bundled_thesaurus()
        self.provider_id = f"mock:{seed}:{noise_rate}"

    def _rotation(self, lang: str, length: int) -> int:
        return derive_seed("rot", lang) % length if length else 0

    def translate(self, text: str, source: str, target: str) -> str:
        tokens = text.split()
        if not tokens:
            return text
        if source == "en":
            lang = target
            r = self._rotation(lang, len(tokens))
            out = tokens[r:] + tokens[:r]
            n_subs = int(round(self.noise_rate * len(out)))
            if n_subs:
                rng = random.Random(derive_seed(self.seed, lang, text))
                candidates = [i for i, t in enumerate(out) if t in self.drift]
                for i in sorted(rng.sample(candidates, min(n_subs, len(candidates)))):
                    out[i] = rng.choice(self.drift.lookup(out[i]))
        else:
            lang = source
            r = self._rotation(lang, len(tokens))
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
