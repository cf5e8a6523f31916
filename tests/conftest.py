import errno
import json
import os
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import settings

from augbench import translate
from augbench.translate import MockProvider, PermanentTranslationError

import digests
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
    return digests.micro_corpus()


class _PivotDownProvider(MockProvider):
    """MockProvider whose every round trip through French fails."""

    def translate(self, text, source, target):
        if "fr" in (source, target):
            raise PermanentTranslationError("fr backend down")
        return super().translate(text, source, target)


@pytest.fixture
def fr_down_provider():
    return _PivotDownProvider(0)


class _StubHandler(BaseHTTPRequestHandler):
    # class-level script of replies to serve, then 200s with "q" upper-cased: a
    # status code, a (status, headers) pair, a JSON object to serve with 200, or
    # raw bytes to send in place of a response
    script = []
    requests_seen = 0
    posted = []  # the Content-Type and the decoded JSON body of every POST

    def do_GET(self):  # where a followed redirect would land
        type(self).requests_seen += 1
        payload = json.dumps({"translatedText": "from a GET"}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_POST(self):
        cls = type(self)
        cls.requests_seen += 1
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        cls.posted.append((self.headers["Content-Type"], body))
        reply = cls.script.pop(0) if cls.script else {"translatedText": body["q"].upper()}
        if isinstance(reply, bytes):
            self.wfile.write(reply)
            return
        if isinstance(reply, dict):
            payload = json.dumps(reply).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)
            return
        status, headers = reply if isinstance(reply, tuple) else (reply, {})
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    """A translation endpoint on localhost: its URL and its handler class."""
    handler = type("Handler", (_StubHandler,), {"script": [], "requests_seen": 0, "posted": []})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/translate", handler
    server.shutdown()
    server.server_close()


class _FullDiskHandle:
    """An append handle whose every write fails as on a full disk."""

    def __init__(self, fh):
        self._fh = fh

    def fileno(self):
        return self._fh.fileno()

    def write(self, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def close(self):
        self._fh.close()


@pytest.fixture
def full_disk(monkeypatch):
    """Make every translation cache append fail with ENOSPC."""
    def full_disk_open(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        return _FullDiskHandle(fh) if "a" in mode else fh

    monkeypatch.setattr(translate, "open", full_disk_open, raising=False)
